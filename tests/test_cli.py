import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackoh import cli, cochains, modules, racks
from rackoh.cli import (EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_OK, build_parser,
                        canonical_json, main, parse_rack_spec)
from rackoh.errors import InputError, ResourceError
from rackoh.linalg import GF, QQ, ZZ, charge_budget
from rackoh.modules import trivial_module
from rackoh.racks import dihedral_rack, rack_to_json

from conftest import transposition_rack


def _traced_peak(build):
    """The tracemalloc peak of calling build()."""
    gc.collect()
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    def test_specs_are_reported_normalised(self):
        # decimal digits of any script, and leading zeros, are read as the
        # integer they spell; conj:S3 is reported as typed
        for spec, normal in (("cyclic:٣", "cyclic:3"), ("dihedral:05", "dihedral:5"),
                             ("conj:Z03", "conj:Z3"), ("conj:Z٣", "conj:Z3"),
                             ("conj:Z3", "conj:Z3"), ("conj:S3", "conj:S3")):
            assert parse_rack_spec(spec)[0] == normal

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_bad_specs(self):
        for spec in ("dihedral", "dihedral:x", "moebius:3", "conj:K4",
                     "dihedral:³", "conj:Z³"):
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

    def test_builtin_rack_axioms_checked_once(self, capsys, monkeypatch):
        # by the builder; a rack file's table is checked for the report
        # and again when it becomes a RackTable
        calls = []
        check = racks.verify_rack

        def counted(table):
            calls.append(len(table))
            return check(table)

        monkeypatch.setattr(racks, "verify_rack", counted)
        monkeypatch.setattr(cli, "verify_rack", counted)
        assert run_cli(capsys, "verify", "--rack", "dihedral:3")[0] == EXIT_OK
        assert calls == [3]

    def test_file_rack_axioms_checked_once(self, capsys, monkeypatch, tmp_path):
        # a rack file's table is checked for the report, and that check
        # makes it the rack
        path = tmp_path / "rack.json"
        path.write_text(json.dumps(rack_to_json(dihedral_rack(5))))
        calls = []
        check = racks.verify_rack

        def counted(table):
            calls.append(len(table))
            return check(table)

        monkeypatch.setattr(racks, "verify_rack", counted)
        monkeypatch.setattr(cli, "verify_rack", counted)
        code, out, _ = run_cli(capsys, "verify", "--rack", f"file:{path}", "--json")
        assert code == EXIT_OK and calls == [5]
        assert json.loads(out)["rack"] == rack_to_json(dihedral_rack(5))

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
        b"\xff\xfe{}",
    ], ids=["rows-not-lists", "labels-not-list", "size-mismatch", "not-utf8"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
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

    @staticmethod
    def _integral_json(capsys, tmp_path, module, *flags):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(module))
        code, out, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                                 "--module", str(path), "--max-degree", "2",
                                 "--json", *flags)
        return code, (json.loads(out) if code == EXIT_OK else err)

    def test_integral_sign_module_reported_as_given(self, capsys, tmp_path):
        sign = {"ring": "Z", "dim": 1,
                "action": {"type": "custom", "matrices": [[[-1]]] * 3}}
        code, doc = self._integral_json(capsys, tmp_path, sign)
        assert code == EXIT_OK
        assert doc["module"] == {"action": {"type": "custom"}, "dim": 1,
                                 "ring": "Z"}
        assert [d["torsion"] for d in doc["degrees"]] == [[], [2], [3]]
        # torsion primes dividing N is a theorem about trivial coefficients
        names = [c["name"] for c in doc["checks"]]
        assert "torsion_primes_divide_N" not in names
        assert all(c["pass"] for c in doc["checks"])

    def test_integral_jordan_module_reported_as_given(self, capsys, tmp_path):
        jordan = {"ring": "Z", "dim": 2, "action": {"type": "jordan", "t": "1"}}
        code, doc = self._integral_json(capsys, tmp_path, jordan)
        assert code == EXIT_OK
        assert doc["module"] == {"action": {"type": "jordan", "t": "1"},
                                 "dim": 2, "ring": "Z"}
        assert "torsion_primes_divide_N" not in [c["name"] for c in doc["checks"]]

    def test_integral_trivial_module_keeps_torsion_check(self, capsys, tmp_path):
        code, doc = self._integral_json(capsys, tmp_path,
                                        {"ring": "Z", "dim": 2})
        assert code == EXIT_OK
        assert doc["module"]["dim"] == 2
        assert "torsion_primes_divide_N" in [c["name"] for c in doc["checks"]]

    def test_invariant_over_z_exit_2(self, capsys, tmp_path):
        code, err = self._integral_json(capsys, tmp_path,
                                        {"ring": "Z", "dim": 1}, "--invariant")
        assert code == EXIT_INPUT and "--invariant" in err
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--ring", "Z", "--invariant")
        assert code == EXIT_INPUT and "--invariant" in err

    def test_incompatible_custom_module_rejected(self, capsys, tmp_path):
        path = tmp_path / "module.json"
        path.write_text(json.dumps(
            {"ring": "Q", "dim": 1,
             "action": {"type": "custom", "matrices": [[[2]], [[1]], [[1]]]}}))
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("ring", ["R", "F³"])
    def test_bad_ring_exit_2(self, capsys, ring):
        # str.isdigit accepts the superscript, which int() refuses
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--ring", ring)
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

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
        {"ring": "Q", "dim": True},
        {"ring": "Q", "dim": 2, "action": {"type": "custom",
                                           "matrices": [[[1]], [[1]], [[1]]]}},
        {"ring": "Q", "dim": 1, "action": {"type": "custom", "matrices": [[], [], []]}},
        {"ring": "Q", "action": {"type": "jordan", "t": True}},
        {"ring": "Q", "action": {"type": "custom",
                                 "matrices": [[[True]], [[True]], [[True]]]}},
        b"\xff\xfe{}",
    ], ids=["not_an_object", "action_not_an_object", "jordan_t_abc",
            "custom_entry_x", "dim_bool", "dim_above_matrices", "dim_of_empty_matrices",
            "jordan_t_bool", "custom_entry_bool", "not_utf8"])
    def test_malformed_module_file_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "module.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

    @pytest.mark.parametrize("command", [["cohomology", "--rack", "trivial:2"],
                                         ["corpus"]])
    def test_negative_max_degree_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--max-degree", "-1")
        assert code == EXIT_INPUT and not out
        assert err == "input error: max-degree must be >= 0\n"

    def test_bad_twisted_eigenvalue_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--twisted", "t=abc")
        assert code == EXIT_INPUT
        assert err.startswith("input error:")

    @pytest.mark.parametrize("flags", [
        ("--invariant",), ("--ring", "Z"), ("--ring", "F7"), ("--module", None),
        ("--invariant", "--ring", "Z")],
        ids=["invariant", "ring_Z", "ring_F7", "module", "invariant_ring_Z"])
    def test_twisted_with_flags_it_ignores_exit_2(self, capsys, tmp_path, flags):
        # --twisted always runs the Jordan module over Q, so these flags
        # would be dropped without a word
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"ring": "Z", "dim": 1}))
        flags = [str(path) if f is None else f for f in flags]
        code, out, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                                 "--twisted", "t=2,k=1", *flags,
                                 "--max-degree", "1", "--json")
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("input error:") and "--twisted" in err

    def test_twisted_with_default_ring_spelled_out(self, capsys):
        code, out, _ = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--twisted", "t=2,k=1", "--ring", "Q",
                               "--max-degree", "1", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["module"]["ring"] == "Q"


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

    def test_nonabelian_composite_modulus(self, capsys):
        # Z6 is checked against |H^2(Z2)| |H^2(Z3)|; on cyclic:3 its 6^9
        # functions pass the enumeration budget
        code, out, _ = run_cli(capsys, "h2", "--rack", "trivial:2",
                               "--nonabelian", "Z6", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["classes"] == doc["abelian_order"] == 1296 and doc["match"]
        code, _, err = run_cli(capsys, "h2", "--rack", "cyclic:3",
                               "--nonabelian", "Z6")
        assert code == 3 and "budget" in err

    def test_nonabelian_refuses_coeff(self, capsys):
        # --coeff picks the abelian comparison, which --nonabelian skips
        code, _, err = run_cli(capsys, "h2", "--rack", "trivial:1",
                               "--coeff", "Q", "--nonabelian", "S3")
        assert code == EXIT_INPUT
        assert "error:" in err and "--coeff" in err

    def test_rational_dimension(self, capsys):
        code, out, _ = run_cli(capsys, "h2", "--rack", "trivial:2",
                               "--coeff", "Q", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["direct_h2"]["free_rank"] == 4
        assert doc["match"]


# Prints the growth of the peak resident set, in KiB, over the import.
RESIDENT_WORKLOAD = """
import contextlib, io, resource, sys
from rackoh.cli import main
from rackoh.cochains import differential
from rackoh.errors import ResourceError
from rackoh.linalg import QQ, ZZ
from rackoh.modules import trivial_module
from rackoh.racks import dihedral_rack

def peak_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

base = peak_kib()
rack = dihedral_rack(5)
try:
    differential(rack, trivial_module(rack, QQ), 4).rank()
    differential(rack, trivial_module(rack, ZZ), 3).smith_normal_form()
except ResourceError:
    sys.exit(3)
with contextlib.redirect_stdout(io.StringIO()):
    for extra in (["--invariant"], ["--twisted", "t=1,k=3"]):
        code = main(["cohomology", "--rack", "dihedral:5", "--max-degree", "3", *extra])
        if code:
            sys.exit(code)
print(peak_kib() - base)
"""


class TestBudgets:
    def test_memory_budget_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:6",
                               "--max-degree", "3")
        assert code == 3
        assert "budget" in err

    def test_residue_array_budget_exit_3(self, capsys, monkeypatch):
        # with the builder's charge waived, the rank of dihedral:6 d_4
        # (cleared to 7776 x 1116, its first block of 2233 rows a 9.5 MiB
        # residue array, 19.3 MiB with its pivot rows) is what passes the
        # budget; the zero check d_4 @ d_3 before it is charged 11.8 MiB
        monkeypatch.setenv("RACKOH_BUDGET_MB", "16")
        monkeypatch.setattr(cochains, "BYTES_PER_ENTRY", 1)
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:6",
                               "--ring", "F7", "--max-degree", "4")
        assert code == 3
        assert "residue array" in err and "budget" in err

    def test_product_budget_exit_3(self, capsys, monkeypatch):
        # with the builder's charge waived, the zero check d_4 @ d_3 of
        # dihedral:5 (70,880 terms) is charged one block of them, 1.2 MiB:
        # it passes 2 MiB, where the rank of d_4 after it (a 4.3 MiB
        # residue array) is refused, and is refused itself at 1 MiB
        monkeypatch.setattr(cochains, "BYTES_PER_ENTRY", 1)
        for budget, refused in (("2", "1043x521 residue array"),
                                ("1", "3125x625 by 625x125 product")):
            monkeypatch.setenv("RACKOH_BUDGET_MB", budget)
            code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:5",
                                   "--ring", "F7", "--max-degree", "4")
            assert code == 3
            assert refused in err and "budget" in err

    def test_fifth_degree_refuses_at_the_residue_array(self, capsys, monkeypatch):
        # at 32 MiB the zero check d_5 @ d_4 of dihedral:5 (580,000 terms)
        # passes in blocks; the rank of d_5 after it is what is refused
        monkeypatch.setenv("RACKOH_BUDGET_MB", "32")
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:5",
                               "--ring", "F7", "--max-degree", "5")
        assert code == 3
        assert "residue array" in err and "budget" in err and "product" not in err

    def test_smith_working_copy_budget_exit_3(self, capsys, monkeypatch):
        # with the builder's charge waived, integral cohomology of
        # dihedral:5 to degree 4 never Smith-forms d_4, so the CLI stops at
        # another refusal; the Smith form of d_4 (a 3125 x 625 working
        # array, 15 MiB) refuses on its own
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        monkeypatch.setattr(cochains, "BYTES_PER_ENTRY", 1)
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:5",
                               "--ring", "Z", "--max-degree", "4")
        assert code == 3
        assert "budget" in err and "Smith form" not in err
        rack = dihedral_rack(5)
        d4 = cochains.differential(rack, trivial_module(rack, ZZ), 4)
        with pytest.raises(ResourceError) as refused:
            d4.smith_normal_form()
        assert "Smith form working array" in str(refused.value)
        assert "budget" in str(refused.value)

    @pytest.mark.parametrize("spec", [
        "trivial:99999999999999999999", "dihedral:99999999999999999999",
        "cyclic:99999999999999999999", "conj:Z99999999999999999999"])
    def test_giant_rack_table_exit_3(self, capsys, spec):
        # the table is charged before it is built, so the refusal is at once
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "cohomology", "--rack", spec, "--max-degree", "0")
        assert code == 3 and "table" in err and "budget" in err
        assert time.perf_counter() - start < 1.0

    def test_rack_table_budget_exit_3(self, capsys, monkeypatch):
        # a 1000 x 1000 table takes about 44 MB; its axioms alone took 99 s
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "cohomology", "--rack", "trivial:1000",
                               "--max-degree", "0")
        assert code == 3 and "1000x1000 table of a trivial rack" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("action", [{"type": "trivial"}, {"type": "jordan", "t": 2}])
    def test_giant_module_dim_exit_3(self, capsys, tmp_path, action):
        path = tmp_path / "module.json"
        path.write_text(json.dumps({"ring": "Q", "dim": 10**12, "action": action}))
        code, _, err = run_cli(capsys, "cohomology", "--rack", "dihedral:3",
                               "--module", str(path))
        assert code == 3 and "budget" in err

    def test_module_charges_cover_measured_bytes(self):
        # tracemalloc peaks of a trivial module's identity and a Jordan
        # block per dimension, and of check_module's dense action test per
        # cell of its products, against the constants charged for them
        rack = dihedral_rack(3)
        for dim in (1000, 20000):
            for ring in (QQ, ZZ):
                peak = _traced_peak(lambda: modules.trivial_module(rack, ring, dim))
                assert peak <= modules.IDENTITY_BYTES_PER_DIM * dim
        check = modules.check_module
        try:  # the Jordan blocks alone, without their check
            modules.check_module = lambda rack, module: module
            for k in (200, 2000):
                peak = _traced_peak(lambda: modules.jordan_module(rack, Fraction(1, 3), k))
                assert peak <= modules.JORDAN_BYTES_PER_DIM * k
            blocks = [modules.jordan_module(rack, t, 60, ring)
                      for t, ring in ((Fraction(1, 3), QQ), (1, ZZ), (2, GF(7)))]
        finally:
            modules.check_module = check
        for module in blocks:
            for x in range(rack.size):
                module.action_inverse(x)
            peak = _traced_peak(lambda: modules.check_module(rack, module))
            assert peak <= modules.CHECK_BYTES_PER_CELL * (rack.size * module.dim) ** 2

    def test_refusal_reads_the_need_above_the_budget(self, monkeypatch):
        # 1.6 MiB against 1 MiB, both rounded down, would read "1 MiB > 1 MiB"
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        with pytest.raises(ResourceError) as refused:
            charge_budget(int(1.6 * 2**20), "a test array")
        need, budget = re.search(r"\(([\d.]+) MiB > ([\d.]+) MiB\)",
                                 str(refused.value)).groups()
        assert need != budget and float(need) > float(budget)

    @pytest.mark.parametrize("mb", [16, 64])
    def test_resident_growth_stays_within_the_budget(self, mb):
        # a child process runs a fixed list of calls under the budget: the
        # growth of its peak resident set over the bare import stays within
        # the budget, or it exits 3.  The rank of dihedral:5 d_4 reads its
        # first 1251 of 3125 rows (a 3 MiB residue array and its pivot rows,
        # 6 MiB), so everything runs at 16 MiB as at 64 MiB
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "RACKOH_BUDGET_MB": str(mb), "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", RESIDENT_WORKLOAD], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode in (0, 3), child.stderr
        if child.returncode == 0:
            assert int(child.stdout.split()[-1]) <= mb * 1024

    def test_group_closure_budget_exit_3(self, tmp_path):
        # the inner group of the transposition rack of S_7 has 5040
        # elements; its closure is charged before its element list doubles
        # and refuses at 1 MiB, well before it closes
        path = tmp_path / "s7.json"
        path.write_text(json.dumps(rack_to_json(transposition_rack(7))))
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "RACKOH_BUDGET_MB": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-m", "rackoh", "verify", "--rack",
                                f"file:{path}"], env=env, capture_output=True,
                               text=True, timeout=60)
        assert child.returncode == 3
        assert "Traceback" not in child.stderr
        assert "group closure" in child.stderr and "budget" in child.stderr
        assert "smaller rack" in child.stderr and "degree" not in child.stderr
        assert time.perf_counter() - start < 10

    def test_group_closure_fits_the_default_budget(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("RACKOH_BUDGET_MB", raising=False)
        path = tmp_path / "s6.json"
        path.write_text(json.dumps(rack_to_json(transposition_rack(6))))
        code, out, _ = run_cli(capsys, "verify", "--rack", f"file:{path}", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["inner_group_order"] == 720

    @pytest.mark.parametrize("mb", ["0", "-5", "abc"])
    def test_budget_must_be_a_positive_integer(self, capsys, monkeypatch, mb):
        monkeypatch.setenv("RACKOH_BUDGET_MB", mb)
        code, _, err = run_cli(capsys, "cohomology", "--rack", "trivial:2",
                               "--max-degree", "2")
        assert code == EXIT_INPUT
        assert err.startswith("input error:") and "RACKOH_BUDGET_MB" in err

    def test_budget_env_restored(self, capsys, monkeypatch):
        monkeypatch.delenv("RACKOH_BUDGET_MB", raising=False)
        code, _, _ = run_cli(capsys, "cohomology", "--rack", "trivial:2",
                             "--max-degree", "2")
        assert code == EXIT_OK

    def test_nonabelian_budget_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "h2", "--rack", "conj:S3",
                               "--nonabelian", "S3")
        assert code == 3

    def test_nonabelian_frontier_budget_exit_3(self, capsys, monkeypatch):
        # 37^4 functions pass the 2 M function budget, but the search's
        # last frontier (every one of them is a cocycle) does not fit 1 MiB
        monkeypatch.setenv("RACKOH_BUDGET_MB", "1")
        code, _, err = run_cli(capsys, "h2", "--rack", "trivial:2",
                               "--nonabelian", "Z37")
        assert code == 3
        assert "partial cocycles" in err and "budget" in err

    @pytest.mark.parametrize("command", ["verify", "cohomology"])
    def test_closure_cap_flag_is_gone(self, capsys, command):
        # the memory budget bounds every group closure
        with pytest.raises(SystemExit) as exc:
            main([command, "--rack", "dihedral:3", "--closure-cap", "1"])
        assert exc.value.code == EXIT_INPUT

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
                    "conj:K4", "dihedral", "dihedral:³"]
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
        ["1/2", "-1", "abc", "1/0", 0.5, None, [1], True]))
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
    if command == "cohomology":
        if draw(st.booleans()):
            argv += ["--ring", draw(st.sampled_from(
                ["Q", "Z", "F2", "F3", "F4", "F5", "F", "X", "F1", "F³"]))]
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
