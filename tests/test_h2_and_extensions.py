from itertools import product

import pytest

from rackoh import cohomology
from rackoh.cohomology import (RackComplex, _cocycle_array, direct_h2,
                               h2_via_group, nonabelian_h2,
                               semidirect_cocycle_check)
from rackoh.errors import InputError, PreconditionError, ResourceError
from rackoh.cochains import differential
from rackoh.linalg import GF, QQ, ZZ, AbelianGroup, ExactMatrix, lattice_quotient
from rackoh.modules import constant_module, function_module, trivial_module
from rackoh.racks import (_group_arrays, conjugation_rack, cyclic_group_table,
                          cyclic_rack, dihedral_rack, make_semidirect,
                          symmetric_group_table, trivial_rack)

from conftest import ORBITS, relabelled


def _z_complex(rack, spec="custom"):
    """The complex of trivial Z coefficients, which serves every H^2."""
    return RackComplex(rack, trivial_module(rack, ZZ), spec)


class TestH2ViaGroup:
    def test_dihedral_3_mod_3(self):
        comparison = h2_via_group(_z_complex(dihedral_rack(3)), "Z3")
        # both pipelines give Z/3 (derived through both and frozen)
        assert comparison.direct == AbelianGroup(0, (3,))
        assert comparison.via_group == AbelianGroup(0, (3,))
        assert comparison.match

    def test_trivial_2_rational_dimension_4(self):
        comparison = h2_via_group(_z_complex(trivial_rack(2)), "Q")
        assert comparison.direct == AbelianGroup(4, ())
        assert comparison.match

    def test_corpus_matches(self, corpus_rack):
        spec, rack = corpus_rack
        for coeff in ("Q", "Z2", "Z3"):
            comparison = h2_via_group(_z_complex(rack, spec), coeff)
            assert comparison.match, (spec, coeff)

    def test_rational_dimension_is_m_squared(self, corpus_rack):
        spec, rack = corpus_rack
        comparison = h2_via_group(_z_complex(rack, spec), "Q")
        assert comparison.direct.free_rank == ORBITS[spec] ** 2

    def test_integer_coefficients(self):
        comparison = h2_via_group(_z_complex(dihedral_rack(3)), "Z")
        assert comparison.match
        assert comparison.direct == AbelianGroup(1, ())

    def test_prime_power_modulus(self):
        comparison = h2_via_group(_z_complex(dihedral_rack(3)), "Z4")
        assert comparison.match

    def test_one_z_complex_serves_every_coefficient(self, corpus_rack, monkeypatch):
        # direct H^2 from a shared trivial Z complex is lattice_quotient's
        # on fresh differentials (a fresh Q complex's betti for Q), and the
        # complex Smith-forms d_1 and d_2 once for all coefficients
        spec, rack = corpus_rack
        module = trivial_module(rack, ZZ)
        d1, d2 = differential(rack, module, 1), differential(rack, module, 2)
        expected = {"Q": direct_h2(RackComplex(rack, trivial_module(rack, QQ)), "Q"),
                    **{f"Z{q or ''}": lattice_quotient(d2, d1, q) for q in (0, 2, 3, 4)}}
        cx = RackComplex(rack, module, spec)
        formed, smith = [], ExactMatrix.smith_normal_form
        monkeypatch.setattr(ExactMatrix, "smith_normal_form", lambda m, *a: (
            formed.append(m), smith(m, *a))[1])
        for coeff, group in expected.items():
            comparison = h2_via_group(cx, coeff)
            assert comparison.direct == group and comparison.match, (spec, coeff)
        assert [sum(m is cx.diff(n) for m in formed) for n in (1, 2)] == [1, 1]

    def test_rejects_composite_modulus(self):
        with pytest.raises(InputError):
            h2_via_group(_z_complex(dihedral_rack(3)), "Z6")
        with pytest.raises(InputError):
            h2_via_group(_z_complex(dihedral_rack(3)), "R")

    def test_needs_trivial_1_dimensional_integer_coefficients(self):
        # a Q complex serves Q only; other rings, dimensions and actions
        # are refused before any matrix is built
        d3 = dihedral_rack(3)
        assert direct_h2(RackComplex(d3, trivial_module(d3, QQ)), "Q") == \
            direct_h2(_z_complex(d3), "Q")
        qcx = RackComplex(d3, trivial_module(d3, QQ))
        for cx, coeff in ((qcx, "Z"), (qcx, "Z3"),
                          (RackComplex(d3, trivial_module(d3, GF(3))), "Q"),
                          (RackComplex(d3, trivial_module(d3, ZZ, 2)), "Z"),
                          (RackComplex(d3, function_module(d3, ZZ)), "Z3")):
            for entry in (direct_h2, h2_via_group):
                with pytest.raises(PreconditionError):
                    entry(cx, coeff)
            assert not cx._diff


def _brute_force_cocycles(rack, table):
    """Every function X x X -> A, in lex order, filtered by the cocycle law."""
    n, op = rack.size, rack.op
    return [f for f in product(range(len(table)), repeat=n * n)
            if all(table[f[op(x, y) * n + op(x, z)]][f[x * n + z]]
                   == table[f[x * n + op(y, z)]][f[y * n + z]]
                   for x, y, z in product(range(n), repeat=3))]


def _class_minima(rack, table, cocycles):
    """The least element of each gauge orbit, gamma(x|>y) f(x,y) gamma(y)^-1."""
    n, op, size = rack.size, rack.op, len(table)
    e = next(e for e in range(size) if all(table[e][x] == x for x in range(size)))
    inv = [next(b for b in range(size) if table[a][b] == e) for a in range(size)]
    return sorted({min(tuple(table[table[g[op(x, y)]][f[x * n + y]]][inv[g[y]]]
                             for x in range(n) for y in range(n))
                       for g in product(range(size), repeat=n))
                   for f in cocycles})


class TestNonabelianH2:
    # relabelling moves the conditions between positions and changes the
    # lex order of the cocycles
    @pytest.mark.parametrize("rack, table", [
        (dihedral_rack(3), cyclic_group_table(4)),
        (cyclic_rack(3), cyclic_group_table(4)),
        (trivial_rack(2), symmetric_group_table(3)),
        (trivial_rack(1), symmetric_group_table(3)),
        (dihedral_rack(4), cyclic_group_table(2)),
        *((relabelled(rack, seed), table) for seed in (1, 2, 3)
          for rack, table in ((dihedral_rack(3), cyclic_group_table(3)),
                              (cyclic_rack(3), cyclic_group_table(3)),
                              (dihedral_rack(4), cyclic_group_table(2))))])
    def test_search_matches_brute_force(self, rack, table):
        cocycles = _brute_force_cocycles(rack, table)
        found = _cocycle_array(rack, _group_arrays(table)[0])
        assert list(map(tuple, found.tolist())) == cocycles
        result = nonabelian_h2(rack, table)
        assert result.cocycle_count == len(cocycles)
        assert list(result.representatives) == _class_minima(rack, table, cocycles)

    def test_deep_search_needs_no_recursion(self):
        # the trivial group passes the budget for any rack: 1600 positions
        result = nonabelian_h2(dihedral_rack(40), [[0]])
        assert (result.cocycle_count, result.class_count) == (1, 1)

    def test_one_element_rack_s3_conjugacy_classes(self):
        result = nonabelian_h2(trivial_rack(1), symmetric_group_table(3))
        assert result.cocycle_count == 6
        assert result.class_count == 3

    def test_trivial_coefficient_group(self):
        result = nonabelian_h2(dihedral_rack(3), [[0]])
        assert result.class_count == 1

    def test_abelian_pipeline_consistency(self):
        for rack in (trivial_rack(1), trivial_rack(2)):
            result = nonabelian_h2(rack, cyclic_group_table(3))
            linear = direct_h2(_z_complex(rack), "Z3")
            order = 1
            for d in linear.torsion:
                order *= d
            assert linear.free_rank == 0
            assert result.class_count == order

    def test_representatives_are_lex_minimal_and_cocycles(self):
        result = nonabelian_h2(trivial_rack(2), cyclic_group_table(2))
        assert list(result.representatives) == sorted(result.representatives)
        table = cyclic_group_table(2)
        rack = trivial_rack(2)
        for f in result.representatives:
            for x, y, z in product(range(2), repeat=3):
                lhs = table[f[rack.op(x, y) * 2 + rack.op(x, z)]][f[x * 2 + z]]
                rhs = table[f[x * 2 + rack.op(y, z)]][f[y * 2 + z]]
                assert lhs == rhs

    def test_budget(self):
        # 6^9 functions pass the 2 M function cap
        with pytest.raises(ResourceError):
            nonabelian_h2(dihedral_rack(3), symmetric_group_table(3))

    @pytest.mark.parametrize("table", [
        [[0, 0], [0, 0]],  # no identity
        [[0, 1], [1, 1]],  # 1 has no inverse
        # a loop of order 5 with x x = 0 for every x: no group of order 5
        # has that, so it is not associative
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
        [[0, 1], [1]],  # not square
        [],
        [[0, 2], [2, 0]],  # an entry out of range
        [[0.0]],
    ], ids=["no-identity", "no-inverse", "not-associative", "ragged", "empty",
            "out-of-range", "float"])
    @pytest.mark.parametrize("build", [
        lambda table: nonabelian_h2(trivial_rack(1), table), conjugation_rack],
        ids=["nonabelian_h2", "conjugation_rack"])
    def test_rejects_tables_that_are_not_groups(self, table, build):
        with pytest.raises(InputError):
            build(table)

    def test_accepts_relabelled_groups(self):
        # S3 with its elements renamed keeps 3 classes on one element
        sigma = [3, 5, 0, 1, 4, 2]
        s3 = symmetric_group_table(3)
        table = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                table[sigma[a]][sigma[b]] = sigma[s3[a][b]]
        result = nonabelian_h2(trivial_rack(1), table)
        assert (result.cocycle_count, result.class_count) == (6, 3)


class TestSemidirectLemma:
    def _sign_module(self):
        d3 = dihedral_rack(3)
        return d3, constant_module(d3, ExactMatrix.from_rows([[-1]], GF(3)))

    def test_zero_function(self):
        d3, module = self._sign_module()
        assert semidirect_cocycle_check(RackComplex(d3, module),
                                        [(0,), (0,), (0,)]) == \
            (True, True)

    def test_coboundary_is_cocycle(self):
        d3, module = self._sign_module()
        # omega(x) = v.x - v for v = 1: with the sign action v.x = -1
        omega = [((-1 - 1) % 3,)] * 3
        assert semidirect_cocycle_check(RackComplex(d3, module), omega) == (True, True)

    def test_exhaustive_agreement_27_functions(self):
        d3, module = self._sign_module()
        results = {True: 0, False: 0}
        for vals in product(range(3), repeat=3):
            is_hom, is_cocycle = semidirect_cocycle_check(
                RackComplex(d3, module), [(v,) for v in vals])
            assert is_hom == is_cocycle
            results[is_cocycle] += 1
        assert results[True] + results[False] == 27
        assert results[False] > 0  # non-cocycles exist and are detected

    def test_extension_rack_built_once_per_complex(self, monkeypatch):
        d3, module = self._sign_module()
        cx = RackComplex(d3, module)
        built = []
        monkeypatch.setattr(cohomology, "make_semidirect",
                            lambda *args: built.append(args) or make_semidirect(*args))
        for vals in product(range(3), repeat=3):
            semidirect_cocycle_check(cx, [(v,) for v in vals])
        assert len(built) == 1

    def test_trivial_action_version(self):
        d3 = dihedral_rack(3)
        module = trivial_module(d3, GF(3))
        for vals in product(range(3), repeat=3):
            is_hom, is_cocycle = semidirect_cocycle_check(
                RackComplex(d3, module), [(v,) for v in vals])
            assert is_hom == is_cocycle
