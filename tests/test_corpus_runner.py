import rackoh.cli
import rackoh.cohomology
from rackoh.cli import (CORPUS_WORK_CEILING, _degree_cap, corpus_racks,
                        criterion_betti, criterion_h2,
                        criterion_semidirect_lemma, criterion_structural,
                        criterion_torsion, semidirect_examples)
from rackoh.cochains import differential
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
    for name in ("criterion_betti", "criterion_invariant_iso",
                 "criterion_twisted", "criterion_h2", "criterion_structural",
                 "criterion_semidirect_lemma", "criterion_nonabelian"):
        monkeypatch.setattr(rackoh.cli, name, lambda *args: [])
    outcomes = rackoh.cli.run_corpus(include_semidirect=False)
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
