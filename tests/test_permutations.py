import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh.errors import InputError, ResourceError
from rackoh.permutations import (Permutation, PermGroup, group_closure,
                                 inner_group, point_orbit)
from rackoh.racks import cyclic_rack, dihedral_rack, orbits, trivial_rack

from conftest import INNER_ORDERS


def _is_identity(p):
    return p.images == tuple(range(p.degree))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            Permutation((0, 0, 1))

    def test_compose_applies_right_first(self):
        p = Permutation((1, 2, 0))
        q = Permutation((0, 2, 1))
        assert (p * q).images == tuple(p(q(i)) for i in range(3))

    def test_inverse(self):
        p = Permutation((2, 0, 3, 1))
        assert _is_identity(p * p.inverse())
        assert _is_identity(p.inverse() * p)


class TestClosure:
    def test_single_transposition(self):
        assert len(group_closure([Permutation((1, 0))])) == 2

    def test_s3_generators(self):
        elems = group_closure([Permutation((1, 0, 2)), Permutation((1, 2, 0))])
        assert len(elems) == 6

    def test_empty_generators(self):
        elems = group_closure([], degree=3)
        assert len(elems) == 1 and _is_identity(elems[0])

    def test_deterministic_order(self):
        gens = [Permutation((1, 0, 2)), Permutation((0, 2, 1))]
        first = [p.images for p in group_closure(gens)]
        second = [p.images for p in group_closure(gens)]
        assert first == second
        assert first[0] == (0, 1, 2)

    def test_cap(self):
        gens = [Permutation((1, 2, 3, 4, 0))]
        with pytest.raises(ResourceError):
            group_closure(gens, cap=3)

    def test_closure_is_a_group(self):
        elems = group_closure([Permutation((1, 0, 2, 3)),
                               Permutation((0, 2, 3, 1))])
        as_set = {p.images for p in elems}
        for p in elems:
            assert p.inverse().images in as_set
            for q in elems:
                assert (p * q).images in as_set


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
            phis = [Permutation(rack.translation(x)) for x in range(rack.size)]
            for y in range(rack.size):
                inv = phis[y].inverse()
                for x in range(rack.size):
                    assert (phis[y] * phis[x] * inv).images == \
                        phis[rack.op(y, x)].images


class TestPointOrbit:
    def test_identity_group(self):
        group = PermGroup.generated_by([], degree=4)
        assert point_orbit(group, 2) == {2}

    def test_dihedral_3_transitive(self):
        assert point_orbit(inner_group(dihedral_rack(3)), 0) == {0, 1, 2}

    def test_central_element_is_fixed(self):
        from rackoh.racks import conjugation_rack, symmetric_group_table
        group = inner_group(conjugation_rack(symmetric_group_table(3)))
        # element 0 is the group identity, central, hence a singleton orbit
        assert point_orbit(group, 0) == {0}

    def test_agrees_with_union_find_orbits(self, corpus_list):
        # two independent algorithms must produce the same partition
        for _, rack in corpus_list:
            group = inner_group(rack)
            part = orbits(rack)
            for x in range(rack.size):
                expected = {y for y in range(rack.size)
                            if part.orbit_of[y] == part.orbit_of[x]}
                assert point_orbit(group, x) == expected


@given(st.lists(st.permutations(list(range(4))), min_size=0, max_size=3))
@settings(max_examples=40, deadline=None)
def test_closure_order_divides_factorial(images):
    gens = [Permutation(tuple(p)) for p in images]
    elems = group_closure(gens, degree=4)
    assert math.factorial(4) % len(elems) == 0
