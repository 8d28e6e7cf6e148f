import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_trivial_module_of_dim_2_meets_betti_formula(self, capsys, tmp_path):
        # dim H^n(X, Q^2) = 2 m^n; the check compared against m^n alone
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"ring": "Q", "dim": 2}))
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path), "--max-degree", "2")
        assert code == EXIT_OK
        assert "betti_equals_m_pow_n: PASS" in out

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


# --- argv fuzzing: the exit-code contract on random input ------------------

SMALL_RACK_SPECS = ["trivial:1", "trivial:2", "trivial:3", "cyclic:1",
                    "cyclic:2", "cyclic:3", "dihedral:1", "dihedral:2",
                    "dihedral:3", "conj:Z1", "conj:Z2", "conj:Z3",
                    "trivial:0", "dihedral:x", "cyclic:-1", "moebius:3",
                    "conj:K4", "dihedral"]
SMALL_RACK_TABLES = [[[0]], [[0, 0], [1, 1]], [[1, 1], [0, 0]],
                     [[0, 2, 1], [2, 1, 0], [1, 0, 2]],
                     [[1, 1, 1], [2, 2, 2], [0, 0, 0]]]
TWISTED_ARGS = ["t=1,k=1", "t=2,k=1", "t=-1,k=2", "t=1/2", "k=2", "t=0",
                "t=abc", "t=1/0", "k=x", "k=0", "k=-1", "", "q=1", "t=1,,k=1"]


def _rack_documents():
    entries = st.integers(-1, 3)
    random_table = st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    doc = st.fixed_dictionaries(
        {"table": st.one_of(st.sampled_from(SMALL_RACK_TABLES), random_table)},
        optional={"size": st.integers(0, 4),
                  "labels": st.one_of(st.lists(st.text(max_size=2),
                                               max_size=4), st.integers())})
    return st.one_of(doc, st.sampled_from([[], {}, 5, {"table": 5},
                                           {"table": [[0, "a"]]}])).map(
        json.dumps) | st.just("{not json")


def _module_documents():
    number = st.one_of(st.integers(-2, 2), st.sampled_from(
        ["1/2", "-1", "abc", "1/0", 0.5, None, [1]]))
    matrix = st.lists(st.lists(number, max_size=2), max_size=2)
    action = st.one_of(
        st.fixed_dictionaries({"type": st.just("trivial")}),
        st.fixed_dictionaries({"type": st.just("jordan")}, optional={"t": number}),
        st.fixed_dictionaries({"type": st.just("custom")},
                              optional={"matrices": st.lists(matrix, max_size=3)}),
        st.sampled_from([{"type": "sign"}, [], "trivial"]))
    doc = st.fixed_dictionaries(
        {"ring": st.sampled_from(["Q", "Z", "Fp", "R"])},
        optional={"p": st.sampled_from([2, 3, 4, "x"]),
                  "dim": st.sampled_from([0, 1, 2, -1, "x"]),
                  "action": action})
    return st.one_of(doc, st.sampled_from([[], 3, "Q"])).map(
        json.dumps) | st.just("{not json")


@st.composite
def _argv_and_files(draw):
    """A random argv over the real subcommands (all but the minutes-long
    corpus) and flags, with the text of the JSON files it names."""
    files = {}
    command = draw(st.sampled_from(["verify", "cohomology", "h2"]))
    argv = [command]
    if draw(st.integers(0, 2)) == 0:
        files["rack.json"] = draw(_rack_documents())
        argv += ["--rack", "file:rack.json"]
    elif draw(st.integers(0, 9)):
        argv += ["--rack", draw(st.sampled_from(SMALL_RACK_SPECS))]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 3)) == 0:
        argv += ["--closure-cap", str(draw(st.integers(0, 30)))]
    if command == "cohomology":
        if draw(st.booleans()):
            argv += ["--ring", draw(st.sampled_from(
                ["Q", "Z", "F2", "F3", "F4", "F5", "F", "X", "F1"]))]
        argv += ["--max-degree", str(draw(st.sampled_from([0, 1, 2, 2, -1])))]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--twisted", draw(st.sampled_from(TWISTED_ARGS))]
        if draw(st.integers(0, 2)) == 0:
            files["module.json"] = draw(_module_documents())
            argv += ["--module", "module.json"]
        if draw(st.booleans()):
            argv.append("--invariant")
    elif command == "h2":
        if draw(st.booleans()):
            argv += ["--coeff", draw(st.sampled_from(
                ["Q", "Z", "Z2", "Z3", "Z4", "Z6", "Z1", "Z0", "Zx", "F2"]))]
        if draw(st.integers(0, 2)) == 0:
            argv += ["--nonabelian", draw(st.sampled_from(
                ["S3", "Z1", "Z2", "Z3", "Z6", "Z0", "Q", "Zx"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "--ring", "--max-degree"])))
    return argv, files


def _report_fails(command, out, as_json):
    if not as_json:
        return any(mark in out for mark in ("FAIL", "NOT a rack", "MISMATCH"))
    doc = json.loads(out)
    if command == "verify":
        return not doc["valid"]
    if command == "h2":
        return not doc["match"]
    return not all(check["pass"] for check in doc["checks"])


@given(_argv_and_files())
@settings(max_examples=40, deadline=None)
def test_random_argv_keeps_exit_contract(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files else
                a.replace("file:", "file:" + tmp + os.sep) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == EXIT_CHECK_FAILED:
        assert _report_fails(argv[0], out.getvalue(), "--json" in argv)
    if code == EXIT_INPUT:
        assert "error:" in err.getvalue()
