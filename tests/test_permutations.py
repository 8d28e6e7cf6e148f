import gc
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh import permutations
from rackoh.cochains import finite_action_group
from rackoh.errors import ResourceError
from rackoh.linalg import GF, QQ, ExactMatrix
from rackoh.modules import function_module, jordan_module
from rackoh.permutations import group_closure, inner_group
from rackoh.racks import (conjugation_rack, cyclic_rack, dihedral_rack, orbits,
                          symmetric_group_table, trivial_rack)

from conftest import INNER_ORDERS, transposition_rack


def _compose(p, q):
    """p after q: i -> p[q[i]]."""
    return tuple(p[i] for i in q)


def _inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class TestClosure:
    def test_single_transposition(self):
        assert group_closure(2, [(1, 0)]).order == 2

    def test_s3_generators(self):
        assert group_closure(3, [(1, 0, 2), (1, 2, 0)]).order == 6

    def test_empty_generators(self):
        assert group_closure(3, []) == [(0, 1, 2)]

    def test_deterministic_order(self):
        gens = [(1, 0, 2), (0, 2, 1)]
        first = group_closure(3, gens)
        assert first == group_closure(3, gens)
        # identity first, then each element times each generator in BFS order
        assert first[:3] == [(0, 1, 2), (1, 0, 2), (0, 2, 1)]
        assert first[3] == _compose(first[1], gens[1])

    def test_closure_is_a_group(self):
        elems = group_closure(4, [(1, 0, 2, 3), (0, 2, 3, 1)])
        as_set = set(elems)
        for p in elems:
            assert _inverse(p) in as_set
            for q in elems:
                assert _compose(p, q) in as_set


class TestMatrixClosure:
    def test_sl2_f3(self):
        # SL(2, F_3) is generated by the two elementary matrices
        f3 = GF(3)
        gens = [ExactMatrix.from_rows([[1, 1], [0, 1]], f3),
                ExactMatrix.from_rows([[1, 0], [1, 1]], f3)]
        group = group_closure(1, [(0,), (0,)], gens)
        assert group.order == 24
        # each element is (perm, den, *entries), the identity first
        assert group[0] == (0, 1, 1, 0, 0, 1)
        assert all(e[1] == 1 and 0 <= min(e[2:]) and max(e[2:]) < 3 for e in group)

    def test_rational_entries(self):
        # the rotation and reflection of the hexagonal lattice, conjugated
        # by diag(2, 1): a dihedral group of order 6 with entries 1/2
        gens = [ExactMatrix.from_rows([[0, -2], [Fraction(1, 2), -1]], QQ),
                ExactMatrix.from_rows([[0, 2], [Fraction(1, 2), 0]], QQ)]
        group = group_closure(1, [(0,), (0,)], gens)
        assert group.order == 6
        # in lowest terms: 1/2 * (0, -4, 1, -2) and 1/2 * (0, 4, 1, 0)
        assert group[:3] == [(0, 1, 1, 0, 0, 1), (0, 2, 0, -4, 1, -2),
                             (0, 2, 0, 4, 1, 0)]

    def test_pairs_close_jointly(self):
        # a transposition paired with 2, of order 3 in F_7: order 6
        group = group_closure(2, [(1, 0)], [ExactMatrix.from_rows([[2]], GF(7))])
        assert group.order == 6
        assert [e[:2] for e in group] == [(0, 1), (1, 0)] * 3

    @pytest.mark.parametrize("t", [2, Fraction(1, 2)], ids=["2", "1/2"])
    def test_growing_entries_do_not_wrap(self, t, monkeypatch):
        # the powers of t are all distinct: a closure whose entries or
        # denominators wrapped around int64 would close after about 64,
        # where this one is refused by the budget only past 1000 elements
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        t2 = trivial_rack(2)
        with pytest.raises(ResourceError, match="budget") as exc:
            finite_action_group(t2, jordan_module(t2, t, 1))
        assert int(re.search(r"closure of (\d+) elements", str(exc.value))[1]) > 1000

    def test_measured_bytes_per_element(self):
        # the tracemalloc peak of a closure per element, less what the
        # charge counts for the element itself (its slots and large ints),
        # must stay within BYTES_PER_ELEMENT and near it
        rack = transposition_rack(6)
        builds = [lambda: inner_group(rack)]
        for ring in (QQ, GF(7)):
            module = function_module(rack, ring)
            builds.append(lambda module=module: finite_action_group(rack, module))
        excess = []
        for build in builds:
            gc.collect()
            tracemalloc.start()
            try:
                group = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert group.order == 720
            own = permutations._element_bytes(group[-1])
            excess.append(peak / group.order - own + permutations.BYTES_PER_ELEMENT)
        assert max(excess) <= permutations.BYTES_PER_ELEMENT
        assert max(excess) >= 0.8 * permutations.BYTES_PER_ELEMENT


class TestInnerGroup:
    def test_trivial_rack_order_1(self):
        assert inner_group(trivial_rack(5)).order == 1

    def test_dihedral_3_order_6(self):
        assert inner_group(dihedral_rack(3)).order == 6

    def test_cyclic_4_order_4(self):
        assert inner_group(cyclic_rack(4)).order == 4

    def test_corpus_orders(self, corpus_list):
        for spec, rack in corpus_list:
            group = inner_group(rack)
            assert group.order == INNER_ORDERS[spec]
            assert math.factorial(rack.size) % group.order == 0

    def test_order_one_iff_trivial(self, corpus_list):
        for spec, rack in corpus_list:
            trivial = all(rack.table[x] == tuple(range(rack.size))
                          for x in range(rack.size))
            assert (inner_group(rack).order == 1) == trivial

    def test_translation_equivariance(self, corpus_list):
        # conjugating phi_x by phi_y gives phi_(y |> x)
        for _, rack in corpus_list:
            phis = [tuple(rack.translation(x)) for x in range(rack.size)]
            for y in range(rack.size):
                inv = _inverse(phis[y])
                for x in range(rack.size):
                    assert _compose(_compose(phis[y], phis[x]), inv) == \
                        phis[rack.op(y, x)]

    def test_point_orbit_of_identity_group(self):
        assert {p[2] for p in group_closure(4, [])} == {2}

    def test_dihedral_3_transitive(self):
        assert {p[0] for p in inner_group(dihedral_rack(3))} == {0, 1, 2}

    def test_central_element_is_fixed(self):
        group = inner_group(conjugation_rack(symmetric_group_table(3)))
        # element 0 is the group identity, central, hence a singleton orbit
        assert {p[0] for p in group} == {0}

    def test_point_orbits_agree_with_union_find_orbits(self, corpus_list):
        # two unrelated algorithms must produce the same partition: the
        # images of a point under every element of the closed group, and
        # union-find on the edge relation
        for _, rack in corpus_list:
            perms = inner_group(rack)
            part = orbits(rack)
            for x in range(rack.size):
                expected = {y for y in range(rack.size)
                            if part.orbit_of[y] == part.orbit_of[x]}
                assert {p[x] for p in perms} == expected


@given(st.lists(st.permutations(list(range(4))), min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_closure_order_divides_factorial(images):
    group = group_closure(4, [tuple(p) for p in images])
    assert math.factorial(4) % group.order == 0
