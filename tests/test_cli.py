import json

import pytest

from rackoh.cli import (EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_OK, canonical_json,
                        main, parse_rack_spec)
from rackoh.errors import InputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRackSpecs:
    def test_builtins(self):
        for spec, size in (("trivial:3", 3), ("dihedral:5", 5),
                           ("cyclic:4", 4), ("conj:S3", 6)):
            _, rack, _ = parse_rack_spec(spec)
            assert rack.size == size

    def test_bad_specs(self):
        for spec in ("dihedral", "dihedral:x", "moebius:3", "conj:K4"):
            with pytest.raises(InputError):
                parse_rack_spec(spec)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "rack.json"
        path.write_text(json.dumps(
            {"size": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
             "labels": ["r", "s", "t"]}))
        _, rack, labels = parse_rack_spec(f"file:{path}")
        assert rack.size == 3 and labels == ["r", "s", "t"]


class TestVerify:
    def test_valid_quandle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rack", "dihedral:3")
        assert code == EXIT_OK
        assert "valid rack" in out and "quandle: True" in out

    def test_cyclic_not_quandle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--rack", "cyclic:4")
        assert code == EXIT_OK
        assert "quandle: False" in out

    def test_invalid_table_exit_1_with_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"size": 2, "table": [[0, 0], [0, 1]]}))
        code, out, _ = run_cli(capsys, "verify", "--rack", f"file:{path}")
        assert code == EXIT_CHECK_FAILED
        assert "row_bijective" in out and "(0,)" in out

    def test_unreadable_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "--rack",
                               f"file:{tmp_path}/nope.json")
        assert code == EXIT_INPUT
        assert "cannot read" in err

    def test_malformed_entries_exit_2(self, capsys, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"table": [[0, 7], [1, 0]]}))
        code, _, err = run_cli(capsys, "verify", "--rack", f"file:{path}")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("doc", [
        {"table": [5, 6]},
        {"table": [[0, 1], [0, 1]], "labels": 5},
        {"table": [[0, 1], [0, 1]], "size": 3},
    ], ids=["rows-not-lists", "labels-not-list", "size-mismatch"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "cohomology"):
            code, _, err = run_cli(capsys, command, "--rack", f"file:{path}")
            assert code == EXIT_INPUT
            assert "input error:" in err and "Traceback" not in err


class TestCohomologyCommand:
    def test_rational_betti_table(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--ring", "Q", "--max-degree", "3")
        assert code == EXIT_OK
        assert "betti_equals_m_pow_n: PASS" in out

    def test_integral(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--ring", "Z", "--max-degree", "2")
        assert code == EXIT_OK
        assert "torsion_primes_divide_N: PASS" in out

    def test_twisted(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "trivial:2",
                               "--twisted", "t=2,k=1", "--max-degree", "3")
        assert code == EXIT_OK
        assert "twisted_vanishing_eigenvalue_ne_1: PASS" in out

    def test_invariant_flag(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--invariant", "--max-degree", "2")
        assert code == EXIT_OK
        assert "invariant_map_full_rank: PASS" in out

    def test_module_file(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(
            {"ring": "Q", "dim": 2, "action": {"type": "jordan", "t": "1"}}))
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path), "--max-degree", "2")
        assert code == EXIT_OK

    def test_custom_module_file(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        # every element acts by the same scalar 1/2 (a valid constant action)
        path.write_text(json.dumps(
            {"ring": "Q", "dim": 1,
             "action": {"type": "custom", "matrices": [[["1/2"]]] * 3}}))
        code, _, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                             "--module", str(path), "--max-degree", "2")
        assert code == EXIT_OK

    def test_incompatible_custom_module_rejected(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(
            {"ring": "Q", "dim": 1,
             "action": {"type": "custom", "matrices": [[[2]], [[1]], [[1]]]}}))
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == EXIT_INPUT

    def test_bad_ring_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--ring", "R")
        assert code == EXIT_INPUT

    def test_missing_module_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(tmp_path / "missing.json"))
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

    def test_invalid_module_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

    @pytest.mark.parametrize("doc", [
        [],
        {"ring": "Q", "action": [1]},
        {"ring": "Q", "action": {"type": "jordan", "t": "abc"}},
        {"ring": "Q", "action": {"type": "custom",
                                 "matrices": [[["x"]], [[1]], [[1]]]}},
    ], ids=["not_an_object", "action_not_an_object", "jordan_t_abc",
            "custom_entry_x"])
    def test_malformed_module_file_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

    def test_bad_twisted_eigenvalue_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--twisted", "t=abc")
        assert code == EXIT_INPUT
        assert err.startswith("input error:")


class TestH2Command:
    def test_group_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "h2", "--rack", "dihedral:3",
                               "--coeff", "Z3")
        assert code == EXIT_OK
        assert "MATCH" in out

    def test_nonabelian_s3(self, capsys):
        code, out, _ = run_cli(capsys, "h2", "--rack", "trivial:1",
                               "--nonabelian", "S3")
        assert code == EXIT_OK
        assert "3 classes" in out

    def test_nonabelian_abelian_crosscheck(self, capsys):
        code, out, _ = run_cli(capsys, "h2", "--rack", "trivial:2",
                               "--nonabelian", "Z3")
        assert code == EXIT_OK
        assert "MATCH" in out

    def test_nonabelian_bad_modulus_exit_2(self, capsys):
        # rejected before the enumeration, whose budget cyclic:3 exceeds
        for rack in ("trivial:2", "cyclic:3"):
            code, _, err = run_cli(capsys, "h2", "--rack", rack,
                                   "--nonabelian", "Z6")
            assert code == EXIT_INPUT, rack
            assert "prime power" in err

    def test_rational_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "h2", "--rack", "trivial:2",
                               "--coeff", "Q", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["direct_h2"]["free_rank"] == 4
        assert doc["match"]


class TestBudgets:
    def test_memory_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:6",
                               "--max-degree", "3")
        assert code == 3
        assert "budget" in err

    def test_budget_env_restored(self, capsys, monkeypatch):
        monkeypatch.delenv("RACKOH_BUDGET_MB", raising=False)
        code, _, _ = run_cli(capsys, "cohomology", "--rack", "trivial:2",
                             "--max-degree", "2")
        assert code == EXIT_OK

    def test_nonabelian_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "h2", "--rack", "conj:S3",
                               "--nonabelian", "S3")
        assert code == 3

    def test_caps_must_be_positive(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--rack", "dihedral:3",
                               "--closure-cap", "0")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("flags", [("--ring", "F5"), ("--invariant",)],
                             ids=["field", "invariant"])
    def test_closure_cap_reaches_field_path(self, capsys, flags):
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               *flags, "--max-degree", "1",
                               "--closure-cap", "1")
        assert code == 3
        assert "exceeded cap 1" in err

    def test_snf_bit_cap_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", "--rack", "dihedral:3", "--ring", "Z",
                  "--snf-bit-cap", "1"])
        assert exc.value.code == EXIT_INPUT


class TestJsonDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                              "--json", "--max-degree", "2")
        _, second, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--json", "--max-degree", "2")
        assert first == second

    def test_emitted_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--rack", "dihedral:4", "--json")
        doc = json.loads(out)
        assert canonical_json(doc) == out
        # the embedded rack document parses back to the same rack
        from rackoh.racks import rack_from_json
        rack, _ = rack_from_json(doc["rack"])
        assert rack.size == 4

    def test_no_timestamps(self, capsys):
        _, out, _ = run_cli(capsys, "cohomology", "--rack", "trivial:2",
                            "--json", "--max-degree", "1")
        doc = json.loads(out)
        assert "time" not in out.lower()
        assert set(doc) == {"rack", "module", "degrees", "checks", "notes"}
