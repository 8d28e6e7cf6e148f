import random

import numpy as np

import rackoh.cli
import rackoh.cohomology
from rackoh.cli import (CORPUS_WORK_CEILING, _degree_cap, _trial_blocks,
                        corpus_racks, criterion_betti, criterion_h2,
                        criterion_semidirect_lemma, criterion_structural,
                        criterion_torsion, semidirect_examples)
from rackoh.cochains import differential
from rackoh.cohomology import RackComplex
from rackoh.linalg import ZZ, ExactMatrix
from rackoh.racks import dihedral_rack, trivial_rack, verify_yang_baxter


def small_racks():
    return [(spec, rack) for spec, rack in corpus_racks() if rack.size <= 3]


def test_corpus_contents():
    specs = [spec for spec, _ in corpus_racks()]
    assert specs == ["trivial:1", "trivial:2", "trivial:3", "trivial:4",
                     "dihedral:3", "dihedral:4", "dihedral:5", "dihedral:6",
                     "cyclic:3", "cyclic:4", "cyclic:5", "conj:S3"]


def test_semidirect_examples_are_racks():
    for spec, rack in semidirect_examples():
        assert verify_yang_baxter(rack)


def test_degree_cap_never_binds_on_the_corpus():
    for _, rack in corpus_racks():
        assert _degree_cap(rack, 1, 3) == 3
        assert _degree_cap(rack, 3, 3) == 3


def test_degree_cap_binds_for_large_extensions():
    (spec, sd), _ = semidirect_examples()
    assert sd.size == 9
    assert _degree_cap(sd, 1, 3) == 3
    assert _degree_cap(sd, 3, 3) < 3
    assert 9 ** 4 * 3 * 9 ** 3 * 3 > CORPUS_WORK_CEILING


def test_criteria_pass_on_small_racks():
    racks = small_racks()
    for outcomes in (criterion_betti(racks, 2), criterion_torsion(racks, 2),
                     criterion_h2(racks, ("Q", "Z2"))):
        assert outcomes and all(o.passed for o in outcomes)


def test_corpus_runs_torsion_through_degree_3(monkeypatch):
    # run_corpus runs criterion 2 to its full degree, 3, where these two
    # racks have their first integral torsion (other criteria stubbed out)
    racks = [(spec, rack) for spec, rack in corpus_racks()
             if spec in ("dihedral:4", "conj:S3")]
    monkeypatch.setattr(rackoh.cli, "corpus_racks", lambda: racks)
    monkeypatch.setattr(rackoh.cli, "semidirect_examples", lambda: [])
    for name in ("criterion_betti", "criterion_invariant_iso",
                 "criterion_twisted", "criterion_h2", "criterion_structural",
                 "criterion_semidirect_lemma", "criterion_nonabelian"):
        monkeypatch.setattr(rackoh.cli, name, lambda *args: [])
    outcomes = rackoh.cli.run_corpus()
    assert [o.details for o in outcomes] == [
        "torsion=[[], [], [], [2, 2]] N=4", "torsion=[[], [], [], [3]] N=6"]
    assert all(o.passed for o in outcomes)


def test_structural_outcomes_shape():
    outcomes = criterion_structural([("trivial:2", trivial_rack(2)),
                                     ("dihedral:3", dihedral_rack(3))],
                                    trials=5)
    names = {o.name for o in outcomes}
    assert "leibniz_fails_without_invariance" in names
    per_rack = [o for o in outcomes if o.rack == "dihedral:3"]
    assert len(per_rack) == 6
    assert all(o.passed for o in outcomes)


def test_cmd_corpus_aggregation(monkeypatch, capsys):
    import rackoh.cli as cli

    tiny = [("trivial:2", trivial_rack(2)), ("dihedral:3", dihedral_rack(3))]
    monkeypatch.setattr(cli, "corpus_racks", lambda: tiny)
    monkeypatch.setattr(cli, "semidirect_examples", lambda: [])
    code = cli.main(["corpus", "--max-degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "corpus checks passed" in out
    assert "FAIL" not in out


def test_structural_builds_each_differential_once(monkeypatch):
    built = []

    def counting(rack, module, n):
        built.append((module.ring.name, n,
                      tuple(tuple(tuple(m.nonzeros(i)) for i in range(m.rows))
                            for m in module.matrices)))
        return differential(rack, module, n)

    monkeypatch.setattr(rackoh.cohomology, "differential", counting)
    monkeypatch.setattr(rackoh.cli, "differential", counting, raising=False)
    criterion_structural([("dihedral:3", dihedral_rack(3))], trials=20)
    assert len(built) == len(set(built))


def test_semidirect_lemma_builds_d1_once(monkeypatch):
    built = []

    def counting(rack, module, n):
        built.append(n)
        return differential(rack, module, n)

    monkeypatch.setattr(rackoh.cohomology, "differential", counting)
    monkeypatch.setattr(rackoh.cli, "differential", counting, raising=False)
    [outcome] = criterion_semidirect_lemma()
    assert outcome.passed
    assert built == [1]


IDENTITIES = ("d_squared_zero", "action_commutes_with_d",
              "first_slot_slice_identity", "chain_iso_intertwines")


def _changed_entry(m, change):
    """m with its first stored entry x replaced by change(x), x over the
    matrix's common denominator."""
    a, den = m.dense()
    i, j = np.argwhere(a)[0]
    a[i, j] = change(a[i, j], den)
    return ExactMatrix.from_dense(a, m.ring, den)


def _failing_under(monkeypatch, mutant):
    with monkeypatch.context() as patch:
        mutant(patch)
        outcomes = criterion_structural([("dihedral:3", dihedral_rack(3))])
    return {o.name for o in outcomes if not o.passed}


def test_structural_blocks_catch_a_changed_entry(monkeypatch):
    # every identity the checks make on blocks of columns still fails when
    # one entry of d_1 or of the chain isomorphism is wrong
    diff, iso = RackComplex.diff, rackoh.cli.chain_isomorphism

    def flip_d1(patch):
        patch.setattr(RackComplex, "diff", lambda cx, n: _changed_entry(
            diff(cx, n), lambda x, den: -x) if n == 1 else diff(cx, n))

    def change_iso(patch):
        patch.setattr(rackoh.cli, "chain_isomorphism", lambda rack, module, n:
                      _changed_entry(iso(rack, module, n), lambda x, den: x + den)
                      if n == 1 else iso(rack, module, n))

    assert _failing_under(monkeypatch, lambda patch: None) == set()
    flipped, changed = (_failing_under(monkeypatch, m) for m in (flip_d1, change_iso))
    assert set(IDENTITIES) <= flipped
    assert changed == {"chain_iso_intertwines"}


def test_trial_blocks_keep_every_draw_in_order():
    # the blocks hold the cochains of a per-trial loop over the same
    # stream: every trial, grouped by degree, in the order drawn
    def draw_from(rng):
        def draw(n):
            if n == 2 and rng.random() < 0.3:
                return None  # a trial that draws no cochain
            return rng.randrange(5), [rng.randrange(-9, 10) for _ in range(3 ** n)]
        return draw

    rng = random.Random("blocks")
    blocks = _trial_blocks(rng, 20, 0, 3, draw_from(rng), ZZ)
    replay, expect = random.Random("blocks"), {}
    draw = draw_from(replay)
    for _ in range(20):
        n = replay.randrange(0, 3)
        if (pair := draw(n)) is not None:
            expect.setdefault(n, []).append(pair)
    assert sorted(blocks) == sorted(expect)
    for n, (ys, block) in blocks.items():
        assert ys == [y for y, _ in expect[n]]
        assert [block.column(j) for j in range(block.cols)] == [
            c for _, c in expect[n]]
    assert rng.random() == replay.random()  # no draw more or less
