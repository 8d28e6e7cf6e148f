import random

import pytest

from rackoh.cli import corpus_racks
from rackoh.errors import InputError
from rackoh.racks import RackTable, orbits


def corpus():
    return corpus_racks()


# orbit counts of the corpus racks, used by several theorem checks
ORBITS = {
    "trivial:1": 1, "trivial:2": 2, "trivial:3": 3, "trivial:4": 4,
    "dihedral:3": 1, "dihedral:4": 2, "dihedral:5": 1, "dihedral:6": 2,
    "cyclic:3": 1, "cyclic:4": 1, "cyclic:5": 1,
    "conj:S3": 3,
}

# reduced structure group orders
INNER_ORDERS = {
    "trivial:1": 1, "trivial:2": 1, "trivial:3": 1, "trivial:4": 1,
    "dihedral:3": 6, "dihedral:4": 4, "dihedral:5": 10, "dihedral:6": 6,
    "cyclic:3": 3, "cyclic:4": 4, "cyclic:5": 5,
    "conj:S3": 6,
}


@pytest.fixture(scope="session")
def corpus_list():
    return corpus()


@pytest.fixture(params=corpus(), ids=[spec for spec, _ in corpus()])
def corpus_rack(request):
    return request.param


def orbit_indicator_cocycle(rack, ring, orbit_index):
    """The degree-1 characteristic function of an orbit (always a cocycle)."""
    part = orbits(rack)
    if not 0 <= orbit_index < part.orbit_count:
        raise InputError(f"orbit index {orbit_index} out of range")
    return [ring.coerce(1 if part.orbit_of[x] == orbit_index else 0)
            for x in range(rack.size)]


def relabelled(rack, seed):
    """The isomorphic rack with element x renamed sigma[x], for a seeded
    permutation sigma of the elements."""
    sigma = list(range(rack.size))
    random.Random(seed).shuffle(sigma)
    table = [[0] * rack.size for _ in range(rack.size)]
    for x in range(rack.size):
        for y in range(rack.size):
            table[sigma[x]][sigma[y]] = sigma[rack.op(x, y)]
    return RackTable.from_table(table)


def transposition_rack(m):
    """The conjugation rack of the m(m - 1)/2 transpositions of S_m, whose
    inner group is S_m."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pos = {p: n for n, p in enumerate(pairs)}

    def conj(a, b):
        swap = {a[0]: a[1], a[1]: a[0]}
        return pos[tuple(sorted(swap.get(x, x) for x in b))]

    return RackTable.from_table([[conj(a, b) for b in pairs] for a in pairs])
