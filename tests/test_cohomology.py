import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from rackoh.cochains import apply_rack_element, differential
from rackoh.cohomology import (CHECK_TORSION_PRIMES, RackComplex,
                               RackPresentation, cohomology_integral,
                               cohomology_over_field, direct_h2, group_h1,
                               integral_degree, invariant_cohomology,
                               prime_factors, same_operator_cohomology,
                               twisted_cohomology)
from rackoh.errors import InputError, PreconditionError
from rackoh.linalg import (GF, QQ, ZZ, AbelianGroup, ExactMatrix,
                           lattice_quotient)
from rackoh.modules import function_module, jordan_module, trivial_module
from rackoh.racks import (conjugation_rack, cyclic_rack, dihedral_rack,
                          symmetric_group_table, trivial_rack)

from conftest import INNER_ORDERS, ORBITS, corpus, orbit_indicator_cocycle


# --- independent order oracle -----------------------------------------------
# |H^n(X, Z/q)| = |ker d_n mod q| / |im d_(n-1) mod q|, counted by listing
# every cochain mod q; no Smith form and no rank is involved.

def brute_force_order(rack, n, q):
    module = trivial_module(rack, ZZ)
    d_n = np.array(differential(rack, module, n).data, dtype=np.int64)
    d_prev = np.array(differential(rack, module, n - 1).data, dtype=np.int64)

    def all_cochains(dim):
        return np.indices((q,) * dim).reshape(dim, -1).T

    residues = (all_cochains(d_n.shape[1]) @ d_n.T) % q
    cocycles = int(np.count_nonzero(~residues.any(axis=1)))
    images = (all_cochains(d_prev.shape[1]) @ d_prev.T) % q
    coboundaries = len({tuple(row) for row in images.tolist()})
    assert cocycles % coboundaries == 0
    return cocycles // coboundaries


class TestFieldCohomology:
    def test_dihedral_3_rational(self):
        d3 = dihedral_rack(3)
        report = cohomology_over_field(d3, trivial_module(d3, QQ), 3)
        assert report.betti == [1, 1, 1, 1]
        assert report.all_passed

    def test_trivial_2_rational(self):
        t2 = trivial_rack(2)
        report = cohomology_over_field(t2, trivial_module(t2, QQ), 3)
        assert report.betti == [1, 2, 4, 8]

    def test_conjugation_s3_rational(self):
        s3 = conjugation_rack(symmetric_group_table(3))
        report = cohomology_over_field(s3, trivial_module(s3, QQ), 2)
        assert report.betti == [1, 3, 9]

    def test_betti_equals_m_pow_n_corpus(self, corpus_rack):
        spec, rack = corpus_rack
        report = cohomology_over_field(rack, trivial_module(rack, QQ), 2, spec)
        m = ORBITS[spec]
        assert report.betti == [1, m, m * m]
        assert report.all_passed

    def test_good_characteristic_matches(self):
        # F5 is coprime to N = 6, so the dihedral-3 betti numbers persist
        d3 = dihedral_rack(3)
        report = cohomology_over_field(d3, trivial_module(d3, GF(5)), 2)
        assert report.betti == [1, 1, 1]
        assert report.all_passed

    def test_rejects_integer_module(self):
        d3 = dihedral_rack(3)
        with pytest.raises(PreconditionError):
            cohomology_over_field(d3, trivial_module(d3, ZZ), 1)

    def test_universal_coefficients_in_bad_characteristic(self):
        # dim_Fp H^n = free rank + p-torsion of H^n + p-torsion of H^(n+1);
        # the only torsion through degree 4 for dihedral 3 is Z/3 in H^4,
        # so F3 picks up one extra dimension in degree 3 and F2 sees nothing
        d3 = dihedral_rack(3)
        integral = cohomology_integral(d3, 4)
        for p, want in ((2, [1, 1, 1, 1]), (3, [1, 1, 1, 2]), (5, [1, 1, 1, 1])):
            field = cohomology_over_field(d3, trivial_module(d3, GF(p)), 3)
            assert field.betti == want
            predicted = []
            for n in range(4):
                tors_n = sum(1 for d in integral.degrees[n].torsion if d % p == 0)
                tors_next = sum(1 for d in integral.degrees[n + 1].torsion
                                if d % p == 0)
                predicted.append(integral.degrees[n].betti + tors_n + tors_next)
            assert field.betti == predicted


class TestIntegralCohomology:
    def test_trivial_2_torsion_free(self):
        t2 = trivial_rack(2)
        report = cohomology_integral(t2, 3)
        assert [d.betti for d in report.degrees] == [1, 2, 4, 8]
        assert all(d.torsion == () for d in report.degrees)
        assert report.all_passed

    def test_dihedral_3_low_degrees(self):
        # derived with the saturated-kernel pipeline and cross-checked
        # against the invariant-factor oracle: no torsion through degree 3
        d3 = dihedral_rack(3)
        report = cohomology_integral(d3, 3)
        assert [d.betti for d in report.degrees] == [1, 1, 1, 1]
        assert all(d.torsion == () for d in report.degrees)

    def test_dihedral_3_degree_4_has_3_torsion(self):
        # first torsion for this rack; the prime 3 divides N = 6
        d3 = dihedral_rack(3)
        report = cohomology_integral(d3, 4)
        assert report.degrees[4].betti == 1
        assert report.degrees[4].torsion == (3,)
        assert report.all_passed

    def test_each_differential_smith_formed_once(self, monkeypatch):
        # the ranks and invariant factors cached on the complex give the
        # groups that lattice_quotient gives on the differentials, with one
        # Smith form for each of d_0 .. d_3; the top differential d_4 only
        # enters through its kernel, so it is ranked, never Smith-formed,
        # and ranked once, cleared by the rank d_3 independent rows of d_3
        d3 = dihedral_rack(3)
        shapes, ranked = [], []
        smith, rank = ExactMatrix.smith_normal_form, ExactMatrix.rank
        monkeypatch.setattr(ExactMatrix, "smith_normal_form", lambda m, *a: (
            shapes.append((m.rows, m.cols)), smith(m, *a))[1])
        monkeypatch.setattr(ExactMatrix, "rank", lambda m: (
            ranked.append((m.rows, m.cols)), rank(m))[1])
        report = cohomology_integral(d3, 4)
        assert sorted(shapes) == [(3 ** (n + 1), 3 ** n) for n in range(4)]
        monkeypatch.undo()
        module = trivial_module(d3, ZZ)
        cleared = (3 ** 5, 3 ** 4 - differential(d3, module, 3).rank())
        assert ranked.count(cleared) == 1 and (3 ** 5, 3 ** 4) not in ranked
        for n, deg in enumerate(report.degrees):
            prev = (differential(d3, module, n - 1) if n
                    else ExactMatrix.zeros(1, 0, ZZ))
            group = lattice_quotient(differential(d3, module, n), prev)
            assert (deg.betti, deg.torsion) == (group.free_rank, group.torsion)

    @pytest.mark.parametrize("flip", ["upper", "lower"])
    def test_flipped_entry_breaks_the_zero_product(self, flip):
        # negate one entry of d_2 (or of d_1) at an inner index j of
        # d_2 @ d_1 where column j of d_2 and row j of d_1 are both nonzero:
        # the product then changes by a nonzero multiple of one of them
        d3 = dihedral_rack(3)
        cx = RackComplex(d3, trivial_module(d3, ZZ))
        upper, lower = cx.diff(2), cx.diff(1)
        inner = ({j for i in range(upper.rows) for j, _ in upper.nonzeros(i)}
                 & {j for j in range(lower.rows) if lower.nonzeros(j)})
        n, m = (2, upper) if flip == "upper" else (1, lower)
        entries = {(i, j): x for i in range(m.rows) for j, x in m.nonzeros(i)}
        at = next(k for k in entries if k[1 if flip == "upper" else 0] in inner)
        entries[at] = -entries[at]
        cx._diff[n] = flipped = ExactMatrix.from_entries(m.rows, m.cols, ZZ, entries)
        with pytest.raises(ArithmeticError):
            integral_degree(cx, 2)
        pair = (flipped, lower) if flip == "upper" else (upper, flipped)
        assert not (pair[0] @ pair[1]).is_zero()
        with pytest.raises(ArithmeticError):
            lattice_quotient(*pair)

    def test_degree_0_free_of_rank_m_orbifold(self, corpus_rack):
        spec, rack = corpus_rack
        report = cohomology_integral(rack, 0, spec)
        assert report.degrees[0].betti == 1
        assert report.degrees[0].torsion == ()

    def test_torsion_counts_match_field_betti(self, corpus_rack):
        # universal coefficients: dim_Fp H^n = free rank of H^n plus the
        # number of p-primary summands in the torsion of H^n and H^(n+1);
        # the field side uses only ranks mod p
        spec, rack = corpus_rack
        integral = cohomology_integral(rack, 3, spec)
        for p in sorted({2, 3, *prime_factors(INNER_ORDERS[spec])}):
            field = cohomology_over_field(rack, trivial_module(rack, GF(p)), 2)
            predicted = [integral.degrees[n].betti
                         + sum(1 for d in integral.degrees[n].torsion
                               if d % p == 0)
                         + sum(1 for d in integral.degrees[n + 1].torsion
                               if d % p == 0)
                         for n in range(3)]
            assert field.betti == predicted, (spec, p)

    @pytest.mark.parametrize("rack", [dihedral_rack(3), cyclic_rack(3)],
                             ids=["dihedral:3", "cyclic:3"])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_h2_mod_q_order_by_brute_force(self, rack, q):
        assert direct_h2(rack, f"Z{q}").order == brute_force_order(rack, 2, q)

    def test_torsion_primes_divide_group_order(self, corpus_rack):
        spec, rack = corpus_rack
        report = cohomology_integral(rack, 2, spec)
        check = next(c for c in report.checks if c.name == CHECK_TORSION_PRIMES)
        assert check.passed
        bigN = INNER_ORDERS[spec]
        for deg in report.degrees:
            for d in deg.torsion:
                assert all(bigN % p == 0 for p in prime_factors(d))


def _clearing_cases():
    """(rack spec, rack, module, top degree): trivial Z, Q and F7 and the
    Jordan blocks J_2(2), J_3(2) over every corpus rack to degree 3,
    dihedral:3 over F3 (3 divides |G_X^0| = 6) to degree 4, and the
    trivial Z, Q and F7 complexes of dihedral:5 to degree 4."""
    cases = [(spec, rack, module, 3) for spec, rack in corpus() for module in (
        trivial_module(rack, ZZ), trivial_module(rack, QQ), trivial_module(rack, GF(7)),
        jordan_module(rack, 2, 2), jordan_module(rack, 2, 3))]
    d3, d5 = dihedral_rack(3), dihedral_rack(5)
    cases.append(("dihedral:3", d3, trivial_module(d3, GF(3)), 4))
    cases += [("dihedral:5", d5, trivial_module(d5, ring), 4) for ring in (ZZ, QQ, GF(7))]
    return cases


class TestClearing:
    """RackComplex.rank(n) ranks d_n on its columns outside independent rows
    of d_(n-1); the rank must be the full matrix's."""

    def test_cleared_rank_equals_full_rank(self):
        for spec, rack, module, top in _clearing_cases():
            cx = RackComplex(rack, module, spec)
            cleared = [cx.rank(n) for n in range(top + 1)]
            full = [differential(rack, module, n).rank() for n in range(top + 1)]
            assert cleared == full, (spec, module.describe())
            for n in range(top + 1):
                # the rows kept for the next degree have full row rank in d_n
                rows = cx._independent[n]
                assert len(rows) == cx.rank(n)
                picked = ExactMatrix.from_entries(len(rows), cx.diff(n).cols, module.ring, {
                    (t, j): x for t, i in enumerate(rows.tolist())
                    for j, x in cx.diff(n).nonzeros(i)})
                assert picked.rank() == len(rows)

    @pytest.mark.parametrize("ring", [ZZ, QQ, GF(7)], ids=str)
    def test_flipped_lower_differential_raises(self, ring):
        # d_0 of trivial coefficients is zero, so a flipped entry of d_1
        # leaves d_1 @ d_0 = 0 and only d_2 @ d_1 can see it: at an inner
        # index j where column j of d_2 and row j of d_1 are both nonzero
        d3 = dihedral_rack(3)
        cx = RackComplex(d3, trivial_module(d3, ring))
        upper, lower = cx.diff(2), cx.diff(1)
        assert cx.diff(0).is_zero()
        inner = {j for i in range(upper.rows) for j, _ in upper.nonzeros(i)}
        entries = {(i, j): x for i in range(lower.rows) for j, x in lower.nonzeros(i)}
        at = next(k for k in entries if k[0] in inner)
        entries[at] = -entries[at]
        cx._diff[1] = ExactMatrix.from_entries(lower.rows, lower.cols, ring, entries)
        cx.rank(1)  # d_1 @ d_0 = 0 still holds
        with pytest.raises(ArithmeticError):
            cx.rank(2)
        assert 2 not in cx._rank


class TestInvariantCohomology:
    def test_dihedral_3_isomorphism(self):
        d3 = dihedral_rack(3)
        comparison = invariant_cohomology(d3, trivial_module(d3, QQ), 3)
        assert comparison.invariant_betti == [1, 1, 1, 1]
        assert comparison.xi_rank == [1, 1, 1, 1]
        assert comparison.is_isomorphism

    def test_trivial_rack_everything_invariant(self):
        t3 = trivial_rack(3)
        comparison = invariant_cohomology(t3, trivial_module(t3, QQ), 2)
        assert comparison.invariant_betti == comparison.ordinary_betti
        assert comparison.is_isomorphism

    def test_corpus_isomorphism_low_degree(self, corpus_rack):
        spec, rack = corpus_rack
        comparison = invariant_cohomology(rack, trivial_module(rack, QQ), 2, spec)
        assert comparison.is_isomorphism, spec
        assert comparison.isomorphism_expected

    def test_bad_characteristic_reports_without_claim(self):
        d3 = dihedral_rack(3)
        comparison = invariant_cohomology(d3, trivial_module(d3, GF(2)), 2)
        assert not comparison.isomorphism_expected
        assert comparison.report.notes
        assert len(comparison.xi_rank) == 3
        # exploration data only: dimensions are reported, nothing asserted

    def test_nontrivial_module_isomorphism(self):
        d3 = dihedral_rack(3)
        fun = function_module(d3, QQ)
        comparison = invariant_cohomology(d3, fun, 2)
        assert comparison.is_isomorphism


class TestTwistedCohomology:
    def test_eigenvalue_2_vanishes(self):
        d3 = dihedral_rack(3)
        report = twisted_cohomology(d3, 2, 1, 3)
        assert report.betti == [0, 0, 0, 0]
        assert report.all_passed

    def test_jordan_block_dimension(self):
        d3 = dihedral_rack(3)
        report = twisted_cohomology(d3, 1, 2, 3)
        assert report.betti == [1, 1, 1, 1]
        assert report.all_passed

    def test_jordan_k1_matches_trivial(self):
        d3 = dihedral_rack(3)
        twisted = twisted_cohomology(d3, 1, 1, 3)
        plain = cohomology_over_field(d3, trivial_module(d3, QQ), 3)
        assert twisted.betti == plain.betti

    def test_half_eigenvalue_vanishes(self):
        d3 = dihedral_rack(3)
        report = twisted_cohomology(d3, Fraction(1, 2), 2, 2)
        assert report.betti == [0, 0, 0]

    def test_corpus_jordan_dimensions(self, corpus_rack):
        spec, rack = corpus_rack
        m = ORBITS[spec]
        for k in (1, 2):
            report = twisted_cohomology(rack, 1, k, 2, spec)
            assert report.betti == [1, m, m * m], (spec, k)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(InputError):
            twisted_cohomology(dihedral_rack(3), 0, 1, 1)


class TestSameOperator:
    def test_diag_1_2(self):
        d3 = dihedral_rack(3)
        report = same_operator_cohomology(
            d3, ExactMatrix.from_rows([[1, 0], [0, 2]], QQ), 3)
        assert report.betti == [1, 1, 1, 1]
        assert report.all_passed

    def test_identity_on_trivial_2(self):
        t2 = trivial_rack(2)
        report = same_operator_cohomology(t2, ExactMatrix.identity(2, QQ), 3)
        assert report.betti == [2, 4, 8, 16]
        assert report.all_passed

    def test_jordan_block_matches_twisted(self):
        d3 = dihedral_rack(3)
        j = ExactMatrix.from_rows([[1, 0], [1, 1]], QQ)
        report = same_operator_cohomology(d3, j, 2)
        twisted = twisted_cohomology(d3, 1, 2, 2)
        assert report.betti == twisted.betti
        assert report.all_passed

    def test_singular_matrix_rejected(self):
        with pytest.raises(InputError):
            same_operator_cohomology(dihedral_rack(3),
                                     ExactMatrix.zeros(2, 2, QQ), 1)


class TestCocycleClassesFixedByAction:
    def test_solve_witnesses_triviality_on_cohomology(self, corpus_rack):
        # f.y - f must be a coboundary for every cocycle f
        spec, rack = corpus_rack
        rng = random.Random(f"classes:{spec}")
        module = trivial_module(rack, QQ)
        cx = RackComplex(rack, module, spec)
        for n in (1, 2):
            kernel = cx.kernel_matrix(n)
            if kernel.cols == 0:
                continue
            for _ in range(5):
                coeffs = [Fraction(rng.randrange(-3, 4))
                          for _ in range(kernel.cols)]
                f = kernel.matvec(coeffs)
                y = rng.randrange(rack.size)
                moved = apply_rack_element(rack, module, n, y, f)
                rhs = [a - b for a, b in zip(moved, f)]
                solution = cx.diff(n - 1).solve(rhs)
                assert solution is not None
                assert cx.diff(n - 1).matvec(solution) == rhs


class TestProductSpansCohomology:
    def test_degree1_orbit_indicators_span(self, corpus_rack):
        # products of degree-1 orbit indicators span H^n over Q: the span of
        # all n-fold products has rank m^n modulo coboundaries
        spec, rack = corpus_rack
        m = ORBITS[spec]
        module = trivial_module(rack, QQ)
        cx = RackComplex(rack, module, spec)
        indicators = [orbit_indicator_cocycle(rack, QQ, i) for i in range(m)]
        for n in (1, 2):
            products = []
            for combo in product(range(m), repeat=n):
                vec = [QQ.coerce(1)]
                for i in combo:
                    out = []
                    for v in vec:
                        out.extend(v * w for w in indicators[i])
                    vec = out
                products.append(vec)
            prod_matrix = ExactMatrix.from_rows(list(zip(*products)), QQ)
            boundaries = cx.diff(n - 1)
            stacked = prod_matrix.hstack(boundaries)
            span_in_h = stacked.rank() - boundaries.rank()
            assert span_in_h == m ** n == cx.betti(n), spec


class TestGroupH1:
    def test_trivial_integer_coefficients_rank_m(self, corpus_rack):
        spec, rack = corpus_rack
        pres = RackPresentation.of(rack)
        result = group_h1(pres, trivial_module(rack, ZZ))
        assert result == AbelianGroup(ORBITS[spec], ())

    def test_zero_module(self):
        d3 = dihedral_rack(3)
        pres = RackPresentation.of(d3)
        assert group_h1(pres, trivial_module(d3, ZZ, dim=0)) == \
            AbelianGroup(0, ())

    def test_relation_count(self, corpus_rack):
        spec, rack = corpus_rack
        pres = RackPresentation.of(rack)
        assert len(pres.relations) == rack.size ** 2

    def test_matches_rack_h1_for_any_module(self):
        # degree-1 rack cohomology and structure-group cohomology agree
        d3 = dihedral_rack(3)
        pres = RackPresentation.of(d3)
        for module in (trivial_module(d3, QQ), jordan_module(d3, 2, 1),
                       jordan_module(d3, 1, 2), function_module(d3, QQ)):
            cx = RackComplex(d3, module)
            rack_side = cx.betti(1)
            group_side = group_h1(pres, module)
            assert group_side == AbelianGroup(rack_side, ())

    def test_coboundaries_are_cocycles(self, corpus_rack):
        spec, rack = corpus_rack
        from rackoh.cohomology import _h1_matrices
        for module in (trivial_module(rack, QQ), function_module(rack, QQ)):
            cmat, bmat = _h1_matrices(RackPresentation.of(rack), module)
            assert (cmat @ bmat).is_zero()

    def test_prime_field_module_matches_modular_lattice(self):
        # H^1(G_X, Fun(X, F_3)) computed over the field agrees with the
        # integer pipeline reduced mod 3
        d3 = dihedral_rack(3)
        pres = RackPresentation.of(d3)
        field_side = group_h1(pres, function_module(d3, GF(3)))
        lattice_side = group_h1(pres, function_module(d3, ZZ), modulus=3)
        assert field_side == lattice_side == AbelianGroup(0, (3,))
