"""Finite racks as n x n operation tables.

The table convention is table[x][y] = x |> y, a left action: row x is the
translation permutation attached to x.  Elements are always the indices
0..n-1; display labels belong to the I/O layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _all_permutations

import numpy as np

from .errors import InputError
from .linalg import charge_budget

# Peak bytes per cell of a formula table: a slot in the candidate list and
# one in the validated tuple, and past the small-int cache a 28-byte int;
# tracemalloc measures 41.5 at n = 1200, 44 in the limit (tests/test_racks.py)
BYTES_PER_CELL = 48

AXIOM_BIJECTIVE = "row_bijective"
AXIOM_SELF_DISTRIBUTIVE = "self_distributive"


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple


@dataclass(frozen=True)
class RackValidation:
    valid: bool
    violations: tuple

    def witness(self, axiom):
        for v in self.violations:
            if v.axiom == axiom:
                return v.witness
        return None


def _check_shape(candidate):
    n = len(candidate)
    if n == 0:
        raise InputError("a rack needs at least one element")
    for x, row in enumerate(candidate):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise InputError(f"row {x} must be a sequence of length {n}")
        for y, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise InputError(f"entry ({x},{y}) = {v!r} is not an index in [0,{n})")
    return n


def verify_rack(candidate) -> RackValidation:
    """Check the two rack axioms on a raw table.

    Malformed input (shape, entry range) raises InputError; axiom failures
    are reported with the first witness found per axiom, scanning in
    lexicographic order.
    """
    n = _check_shape(candidate)
    violations = []
    for x in range(n):
        if len(set(candidate[x])) != n:
            violations.append(AxiomViolation(AXIOM_BIJECTIVE, (x,)))
            break
    done = False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = candidate[x][candidate[y][z]]
                rhs = candidate[candidate[x][y]][candidate[x][z]]
                if lhs != rhs:
                    violations.append(
                        AxiomViolation(AXIOM_SELF_DISTRIBUTIVE, (x, y, z)))
                    done = True
                    break
            if done:
                break
        if done:
            break
    return RackValidation(not violations, tuple(violations))


@dataclass(frozen=True)
class RackTable:
    """A validated finite rack: from_table, or a table that verify_rack passed."""

    size: int
    table: tuple

    @classmethod
    def from_table(cls, candidate) -> "RackTable":
        report = verify_rack(candidate)
        if not report.valid:
            v = report.violations[0]
            raise InputError(f"not a rack: axiom {v.axiom} fails at {v.witness}")
        return cls(len(candidate), tuple(tuple(row) for row in candidate))

    def op(self, x, y):
        return self.table[x][y]

    def translation(self, x):
        """The permutation y -> x |> y as an image tuple."""
        return self.table[x]

    def __repr__(self):
        return f"RackTable(size={self.size})"


def verify_yang_baxter(rack: RackTable) -> bool:
    """Exhaustive braid-relation check for the map (x, y) -> (x, x |> y).

    Redundant for a valid rack, kept as an independent consistency check.
    """
    t = rack.table
    n = rack.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # apply factors right to left on (x, y, z)
                a, b, c = x, y, t[y][z]
                a, b, c = a, b, t[a][c]
                lhs = (a, t[a][b], c)
                a, b, c = x, t[x][y], z
                a, b, c = a, b, t[a][c]
                rhs = (a, b, t[b][c])
                if lhs != rhs:
                    return False
    return True


def is_quandle(rack: RackTable) -> bool:
    return all(rack.table[x][x] == x for x in range(rack.size))


# ---------------------------------------------------------------------------
# standard constructions


def _formula_table(n: int, what: str, entry):
    """The n x n table of entry(x, y), charged to the memory budget first."""
    if n < 1:
        raise InputError(f"{what} needs n >= 1")
    charge_budget(BYTES_PER_CELL * n * n, f"the {n}x{n} table of a {what}", "use a smaller rack")
    return [[entry(x, y) for y in range(n)] for x in range(n)]


def trivial_rack(n: int) -> RackTable:
    return RackTable.from_table(_formula_table(n, "trivial rack", lambda x, y: y))


def dihedral_rack(n: int) -> RackTable:
    """x |> y = 2x - y mod n."""
    return RackTable.from_table(_formula_table(n, "dihedral rack", lambda x, y: (2 * x - y) % n))


def cyclic_rack(n: int) -> RackTable:
    """x |> y = y + 1 mod n (a rack that is not a quandle for n > 1)."""
    return RackTable.from_table(_formula_table(n, "cyclic rack", lambda x, y: (y + 1) % n))


def _group_arrays(table):
    """The multiplication table as an array of the smallest unsigned dtype
    that holds its entries, and the inverse of each element; InputError
    unless `table` is a group's.  Associativity is Light's test: it holds
    once (x g) y = x (g y) for every x, y and every g of a generating set,
    here the elements picked greedily until their left-nested products
    reach every element."""
    n = len(table)
    if not n or any(len(row) != n for row in table):
        raise InputError("a group table must be a non-empty square table")
    t = np.array(table)
    if t.dtype.kind not in "iu" or t.min() < 0 or t.max() >= n:
        raise InputError(f"group table entries must be integers in [0, {n})")
    t = t.astype(np.min_scalar_type(n - 1))
    elems = np.arange(n)
    ident = np.flatnonzero((t == elems).all(axis=1) & (t.T == elems).all(axis=1))
    if not ident.size:
        raise InputError("the group table has no identity")
    inv = (t == ident[0]).argmax(axis=1)
    if (t[elems, inv] != ident[0]).any():
        raise InputError("an element of the group table has no inverse")
    gens, reached = [], np.zeros(n, dtype=bool)
    while not reached.all():
        gens.append(int(reached.argmin()))
        new = np.array(gens)
        reached[:] = False
        while new.size:
            reached[new] = True
            # a mask, not np.unique, whose first call imports numpy.ma
            hit = np.zeros(n, dtype=bool)
            hit[t[np.ix_(new, gens)]] = True
            new = np.flatnonzero(hit & ~reached)
    if any((t[t[:, g]] != t[:, t[g]]).any() for g in gens):
        raise InputError("the group table is not associative")
    return t, inv


def conjugation_rack(group_table, subset=None) -> RackTable:
    """Conjugation rack x |> y = x y x^-1 on a group or a closed subset.

    `group_table` is the multiplication table of a finite group; `subset`
    (optional, sorted element list) must be closed under conjugation.
    """
    t, inv = _group_arrays(group_table)
    conj = t[t, inv[:, None]]  # conj[x, y] = x y x^-1
    if subset is None:
        return RackTable.from_table(conj.tolist())
    n = len(t)
    elements = sorted(set(subset))
    if any(not 0 <= e < n for e in elements):
        raise InputError("subset contains invalid element indices")
    outside = np.argwhere(~np.isin(conj[:, elements], elements))
    if outside.size:
        x, j = outside[0]
        raise InputError(
            f"subset is not closed under conjugation: {x} |> {elements[j]}")
    pos = np.zeros(n, dtype=np.int64)
    pos[elements] = np.arange(len(elements))
    return RackTable.from_table(pos[conj[np.ix_(elements, elements)]].tolist())


def symmetric_group_table(k: int):
    """Multiplication table of S_k; elements are image tuples in lex order."""
    elems = sorted(_all_permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    table = []
    for p in elems:
        # (p * q)(i) = p(q(i))
        table.append([index[tuple(p[q[i]] for i in range(k))] for q in elems])
    return table


def cyclic_group_table(k: int):
    return _formula_table(k, "cyclic group", lambda a, b: (a + b) % k)


def make_semidirect(rack: RackTable, module) -> RackTable:
    """Extension rack on X x N for a module N over a finite prime field.

    (x, a) |> (y, b) = (x |> y, a - a.(x|>y)^-1 + b.x^-1), the twisted
    product whose first projection is a rack homomorphism onto `rack`.
    """
    ring = module.ring
    p = getattr(ring, "p", None)
    if p is None:
        raise InputError("semidirect products need a finite prime-field module")
    k = module.dim
    inv = [module.action_inverse(x) for x in range(rack.size)]

    def vec_mat(vec, mat):
        # right action on row vectors, entries mod p
        return tuple(sum(vec[i] * mat[i, j] for i in range(k)) % p
                     for j in range(k))

    n_elems = []

    def gen(prefix, depth):
        if depth == 0:
            n_elems.append(tuple(prefix))
            return
        for v in range(p):
            gen(prefix + [v], depth - 1)

    gen([], k)
    n_index = {v: i for i, v in enumerate(n_elems)}
    size = rack.size * len(n_elems)
    table = [[0] * size for _ in range(size)]
    for x in range(rack.size):
        for ai, a in enumerate(n_elems):
            row = table[x * len(n_elems) + ai]
            for y in range(rack.size):
                z = rack.op(x, y)
                a_twist = vec_mat(a, inv[z])
                for bi, b in enumerate(n_elems):
                    b_twist = vec_mat(b, inv[x])
                    c = tuple((a[i] - a_twist[i] + b_twist[i]) % p for i in range(k))
                    row[y * len(n_elems) + bi] = z * len(n_elems) + n_index[c]
    return RackTable.from_table(table)


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitPartition:
    """Connected components of the edge relation y ~ x |> y."""

    size: int
    orbit_of: tuple
    orbit_count: int

    def classes(self):
        out = [[] for _ in range(self.orbit_count)]
        for x, o in enumerate(self.orbit_of):
            out[o].append(x)
        return out


def orbit_labels(count, maps):
    """Orbits of range(count) under the maps, each a list of images, by
    union-find over the edges {a, m[a]}: each point's orbit label, the
    labels numbered in order of their first point, and the orbit count."""
    parent = list(range(count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in maps:
        for a, b in enumerate(m):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    labels = {}
    orbit_of = [labels.setdefault(find(a), len(labels)) for a in range(count)]
    return orbit_of, len(labels)


def orbits(rack: RackTable) -> OrbitPartition:
    """Orbit decomposition: the orbits under the left translations."""
    orbit_of, count = orbit_labels(rack.size, rack.table)
    return OrbitPartition(rack.size, tuple(orbit_of), count)


# ---------------------------------------------------------------------------
# JSON interchange


def rack_to_json(rack: RackTable, labels=None) -> dict:
    doc = {"size": rack.size, "table": [list(row) for row in rack.table]}
    if labels is not None:
        if len(labels) != rack.size:
            raise InputError("label list length must match rack size")
        doc["labels"] = list(labels)
    return doc


def read_rack_document(doc) -> tuple:
    """Check {"size": n, "table": [[..]], "labels"?: [..]} -> (table, labels).

    The table is well formed but may break the rack axioms.
    """
    if not isinstance(doc, dict) or "table" not in doc:
        raise InputError("rack JSON needs a 'table' field")
    table = doc["table"]
    if not isinstance(table, list):
        raise InputError("rack JSON 'table' must be a list of rows")
    n = _check_shape(table)
    if "size" in doc and doc["size"] != n:
        raise InputError("rack JSON 'size' does not match the table")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise InputError("rack JSON 'labels' must list one label per element")
        labels = [str(x) for x in labels]
    return table, labels


def rack_from_json(doc) -> tuple:
    """Parse a rack document -> (rack, labels)."""
    table, labels = read_rack_document(doc)
    return RackTable.from_table(table), labels
