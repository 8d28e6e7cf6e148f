"""Acceptance suite: every quantitative claim, exact arithmetic, zero tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them all) and
asserts the full outcome list, so a failure names the offending rack and
check directly.
"""

from rackoh.cli import (corpus_racks, criterion_betti, criterion_h2,
                        criterion_invariant_iso, criterion_nonabelian,
                        criterion_semidirect_lemma, criterion_structural,
                        criterion_torsion, criterion_twisted)

STRUCTURAL_NAMES = {
    "d_squared_zero",
    "action_commutes_with_d",
    "first_slot_slice_identity",
    "chain_iso_intertwines",
    "leibniz_rule",
    "cocycle_class_fixed_by_action",
}


def _finish(number, label, outcomes):
    failures = [o for o in outcomes if not o.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {label}: {status} "
          f"({len(outcomes) - len(failures)}/{len(outcomes)} checks)")
    assert not failures, failures


def test_criterion_1_betti_numbers_equal_m_pow_n():
    outcomes = criterion_betti(corpus_racks(), max_degree=3)
    assert len(outcomes) == 12
    _finish(1, "dim H^n(X, Q) == m^n, degrees 0..3", outcomes)


def test_criterion_2_torsion_primes_divide_group_order():
    outcomes = criterion_torsion(corpus_racks(), max_degree=3)
    assert len(outcomes) == 12
    _finish(2, "integral torsion primes divide N, degrees 0..3", outcomes)


def test_criterion_3_invariant_inclusion_is_isomorphism():
    outcomes = criterion_invariant_iso(corpus_racks(), max_degree=3)
    assert len(outcomes) == 12
    _finish(3, "invariant comparison map full rank over Q, degrees 0..3",
            outcomes)


def test_criterion_4_twisted_vanishing_and_jordan_dimensions():
    outcomes = criterion_twisted(corpus_racks(), max_degree=3)
    # per rack: t=2 vanishing, jordan k=1,2,3, same-operator diag(1,2)
    assert len(outcomes) == 12 * 5
    _finish(4, "twisted vanishing (t=2), jordan k=1..3 betti, diag(1,2)",
            outcomes)


def test_criterion_5_h2_group_interpretation():
    outcomes = criterion_h2(corpus_racks(), coefficients=("Q", "Z2", "Z3"))
    assert len(outcomes) == 12 * 3
    _finish(5, "H^2(X, A) matches structure-group H^1, A in {Q, Z/2, Z/3}",
            outcomes)


def test_criterion_6_structural_identity_suite():
    outcomes = criterion_structural(corpus_racks(), trials=20)
    names = {o.name for o in outcomes}
    assert STRUCTURAL_NAMES <= names
    # the Leibniz failure on non-invariant inputs must be witnessed somewhere
    assert any(o.name == "leibniz_fails_without_invariance" for o in outcomes)
    _finish(6, "chain-level identities, 20 random instances per rack",
            outcomes)


def test_criterion_7_semidirect_lemma_exhaustive():
    outcomes = criterion_semidirect_lemma()
    _finish(7, "extension-rack lemma, all 27 functions over F3", outcomes)


def test_criterion_8_nonabelian_pipeline_consistency():
    outcomes = criterion_nonabelian(max_size=2)
    assert len(outcomes) == 2  # trivial:1 and trivial:2
    _finish(8, "brute-force Z/3 classes equal |H^2(X, Z/3)|", outcomes)
