"""Command-line front end and the built-in corpus runner.

Exit codes are a stable contract: 0 success / all checks pass, 1 check
failure (or invalid rack under `verify`), 2 input error, 3 resource error.
JSON output is canonical (sorted keys, two-space indent) so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cochains import (apply_rack_element_columns, chain_isomorphism,
                       cochain_product_columns, differential_prime,
                       invariant_basis, is_invariant_cochain,
                       slice_first_columns)
from .cohomology import (CHECK_BETTI_MN, CHECK_TORSION_PRIMES, RackComplex,
                         CohomologyReport, cohomology_integral,
                         cohomology_over_field, direct_h2, h2_via_group,
                         invariant_cohomology, nonabelian_h2, prime_factors,
                         same_operator_cohomology, semidirect_cocycle_check,
                         twisted_cohomology)
from .errors import InputError, PreconditionError, RackohError, ResourceError
from .linalg import GF, QQ, ZZ, ExactMatrix
from .modules import (constant_module, jordan_module, module_from_spec,
                      trivial_module, function_module)
from .permutations import inner_group
from .racks import (RackTable, RackValidation, conjugation_rack,
                    cyclic_group_table, cyclic_rack, dihedral_rack, is_quandle,
                    make_semidirect, orbits, rack_from_json, rack_to_json,
                    read_rack_document, symmetric_group_table, trivial_rack,
                    verify_rack, verify_yang_baxter)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

# rows*cols ceiling for one differential in corpus jobs; larger degrees are
# skipped for oversized racks (only the semidirect examples are affected)
CORPUS_WORK_CEILING = 6_000_000


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# rack and coefficient-group specs


def _builtin_group_table(name: str):
    if name == "S3":
        return symmetric_group_table(3)
    if name.startswith("Z") and name[1:].isdecimal():
        k = int(name[1:])
        if k < 1:
            raise InputError("cyclic group size must be >= 1")
        return cyclic_group_table(k)
    raise InputError(f"unknown coefficient group {name!r} (use S3 or Z<k>)")


def _prime_power_factors(k: int) -> list:
    """The prime powers whose product is k, one for each prime factor."""
    return [math.gcd(k, p ** k.bit_length()) for p in prime_factors(k)]


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{what} {path} is not valid JSON: {exc}")


def parse_rack_spec(spec: str):
    """`kind:param` grammar -> (normalised spec, rack, labels)."""
    if ":" not in spec:
        raise InputError(f"rack spec {spec!r} must look like kind:param")
    kind, _, param = spec.partition(":")
    if kind == "file":
        rack, labels = rack_from_json(_read_json(param, "rack file"))
        return spec, rack, labels
    if kind in ("trivial", "dihedral", "cyclic"):
        if not param.isdecimal():
            raise InputError(f"{kind} rack needs a positive integer size")
        n = int(param)
        builder = {"trivial": trivial_rack, "dihedral": dihedral_rack,
                   "cyclic": cyclic_rack}[kind]
        return f"{kind}:{n}", builder(n), None
    if kind == "conj":
        table = _builtin_group_table(param)
        name = param if param == "S3" else f"Z{int(param[1:])}"
        return f"conj:{name}", conjugation_rack(table), None
    raise InputError(f"unknown rack kind {kind!r}")


def _parse_ring(name: str):
    if name == "Q":
        return QQ
    if name == "Z":
        return ZZ
    if name.startswith("F") and name[1:].isdecimal():
        return GF(int(name[1:]))
    raise InputError(f"unknown ring {name!r} (use Q, Z, or F<p>)")


def _parse_twisted(arg: str):
    t, k = Fraction(1), 1
    for piece in arg.split(","):
        key, _, val = piece.partition("=")
        bad = InputError(f"bad twisted parameter {piece!r} (use t=..,k=..)")
        if key not in ("t", "k"):
            raise bad
        try:
            if key == "t":
                t = Fraction(val)
            else:
                k = int(val)
        except (ValueError, ZeroDivisionError):
            raise bad
    return t, k


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> tuple:
    kind, _, param = args.rack.partition(":")
    if kind == "file":
        # a file's table is read unvalidated, so that the axiom report (not
        # an input error) covers non-racks; a valid one is the rack, not checked again
        spec = args.rack
        table, labels = read_rack_document(_read_json(param, "rack file"))
        report = verify_rack(table)  # raises InputError on malformed tables
        rack = RackTable(len(table), tuple(map(tuple, table))) if report.valid else None
    else:
        spec, rack, labels = parse_rack_spec(args.rack)
        report = RackValidation(True, ())
    doc = {
        "spec": spec,
        "valid": report.valid,
        "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                       for v in report.violations],
    }
    if report.valid:
        part = orbits(rack)
        doc.update({
            "rack": rack_to_json(rack, labels),
            "quandle": is_quandle(rack),
            "yang_baxter": verify_yang_baxter(rack),
            "orbit_count": part.orbit_count,
            "orbits": [sorted(c) for c in part.classes()],
            "inner_group_order": inner_group(rack).order,
        })
    return (EXIT_OK if report.valid else EXIT_CHECK_FAILED), doc


def _report_exit(report: CohomologyReport) -> int:
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_cohomology(args) -> tuple:
    spec, rack, _ = parse_rack_spec(args.rack)
    if args.twisted is not None:
        # a twisted run always uses the Jordan module over Q
        if args.module_path is not None or args.invariant or \
                _parse_ring(args.ring) != QQ:
            raise InputError("--twisted cannot be combined with --module, "
                             "--invariant or a --ring other than Q")
        t, k = _parse_twisted(args.twisted)
        report = twisted_cohomology(rack, t, k, args.max_degree, spec)
        return _report_exit(report), report.to_json_dict()
    if args.module_path is not None:
        module = module_from_spec(
            rack, _read_json(args.module_path, "module file"))
    else:
        ring = _parse_ring(args.ring)
        module = trivial_module(rack, ring)
    if args.invariant and not module.ring.is_field:
        raise InputError("--invariant needs Q or Fp coefficients")
    cx = RackComplex(rack, module, spec)
    if module.ring == ZZ:
        report = cohomology_integral(rack, args.max_degree, spec, complex_=cx)
        return _report_exit(report), report.to_json_dict()
    report = cohomology_over_field(rack, module, args.max_degree, spec,
                                   complex_=cx)
    if args.invariant:
        comparison = invariant_cohomology(rack, module, args.max_degree, spec,
                                          complex_=cx)
        report.checks += comparison.report.checks
        report.notes += comparison.report.notes
        doc = report.to_json_dict()
        doc["invariant"] = {
            "betti": comparison.invariant_betti,
            "xi_rank": comparison.xi_rank,
            "isomorphism_expected": comparison.isomorphism_expected,
        }
        return _report_exit(report), doc
    return _report_exit(report), report.to_json_dict()


def cmd_h2(args) -> tuple:
    spec, rack, _ = parse_rack_spec(args.rack)
    if args.nonabelian is not None:
        if args.coeff is not None:
            raise InputError("--nonabelian cannot be combined with --coeff")
        table = _builtin_group_table(args.nonabelian)
        result = nonabelian_h2(rack, table)
        doc = {
            "rack": spec,
            "coefficient_group": args.nonabelian,
            "cocycles": result.cocycle_count,
            "classes": result.class_count,
        }
        if args.nonabelian != "S3":
            # Z<k>: cross-check the class count against the linear
            # pipeline, H^2(X, Z/k) being the product of its groups over
            # the prime powers q that make up k
            cx = RackComplex(rack, trivial_module(rack, ZZ), spec)
            order = math.prod(direct_h2(rack, f"Z{q}", cx).order
                              for q in _prime_power_factors(len(table)))
            match = result.class_count == order
            doc["abelian_order"] = order
            doc["match"] = match
            return (EXIT_OK if match else EXIT_CHECK_FAILED), doc
        return EXIT_OK, doc
    coeff = args.coeff or "Q"
    comparison = h2_via_group(rack, coeff, spec)
    return (EXIT_OK if comparison.match else EXIT_CHECK_FAILED,
            comparison.to_json_dict())


# ---------------------------------------------------------------------------
# the built-in corpus and its criteria


@dataclass(frozen=True)
class CheckOutcome:
    rack: str
    name: str
    passed: bool
    details: str = ""


def corpus_racks():
    """The named corpus: trivial 1-4, dihedral 3-6, cyclic 3-5, conj S3."""
    out = []
    for n in (1, 2, 3, 4):
        out.append((f"trivial:{n}", trivial_rack(n)))
    for n in (3, 4, 5, 6):
        out.append((f"dihedral:{n}", dihedral_rack(n)))
    for n in (3, 4, 5):
        out.append((f"cyclic:{n}", cyclic_rack(n)))
    out.append(("conj:S3", conjugation_rack(symmetric_group_table(3))))
    return out


def semidirect_examples():
    """Extension racks the corpus runner exercises alongside the base list."""
    d3 = dihedral_rack(3)
    sign = constant_module(d3, ExactMatrix.from_rows([[-1]], GF(3)))
    t1 = trivial_rack(1)
    return [
        ("sd:dihedral3:F3neg", make_semidirect(d3, sign)),
        ("sd:trivial1:F2", make_semidirect(t1, trivial_module(t1, GF(2)))),
    ]


def _degree_cap(rack: RackTable, module_dim: int, requested: int) -> int:
    """Largest degree whose differential stays under the corpus work ceiling."""
    deg = 0
    size = rack.size
    for n in range(requested + 1):
        if size ** (n + 1) * module_dim * size ** n * module_dim > CORPUS_WORK_CEILING:
            break
        deg = n
    return deg


def criterion_betti(racks, max_degree=3):
    """dim H^n(X, Q) == m^n for all computed degrees."""
    out = []
    for spec, rack in racks:
        deg = _degree_cap(rack, 1, max_degree)
        report = cohomology_over_field(rack, trivial_module(rack, QQ), deg, spec)
        m = orbits(rack).orbit_count
        want = [m ** n for n in range(deg + 1)]
        out.append(CheckOutcome(spec, CHECK_BETTI_MN, report.betti == want,
                                f"betti={report.betti} expected={want}"))
    return out


def criterion_torsion(racks, max_degree=2):
    """Integral torsion primes divide the reduced structure group order."""
    out = []
    for spec, rack in racks:
        deg = _degree_cap(rack, 1, max_degree)
        report = cohomology_integral(rack, deg, spec)
        check = next(c for c in report.checks if c.name == CHECK_TORSION_PRIMES)
        torsion = [list(d.torsion) for d in report.degrees]
        ok = check.passed and report.all_passed
        out.append(CheckOutcome(spec, CHECK_TORSION_PRIMES, ok,
                                f"torsion={torsion} {check.details}"))
    return out


def criterion_invariant_iso(racks, max_degree=3):
    """The inclusion of invariant cochains is a cohomology isomorphism over Q."""
    out = []
    for spec, rack in racks:
        deg = _degree_cap(rack, 1, max_degree)
        comparison = invariant_cohomology(rack, trivial_module(rack, QQ),
                                          deg, spec)
        out.append(CheckOutcome(
            spec, "invariant_map_full_rank", comparison.is_isomorphism,
            f"xi={comparison.xi_rank} inv={comparison.invariant_betti} "
            f"full={comparison.ordinary_betti}"))
    return out


def criterion_twisted(racks, max_degree=3):
    """Vanishing for eigenvalue 2, Jordan blocks k=1..3 at eigenvalue 1,
    and the single-operator formula with diag(1, 2)."""
    out = []
    for spec, rack in racks:
        deg1 = _degree_cap(rack, 1, max_degree)
        report = twisted_cohomology(rack, 2, 1, deg1, spec)
        out.append(CheckOutcome(spec, "twisted_vanishing_t2", report.all_passed,
                                f"betti={report.betti}"))
        for k in (1, 2, 3):
            deg = _degree_cap(rack, k, max_degree)
            report = twisted_cohomology(rack, 1, k, deg, spec)
            out.append(CheckOutcome(spec, f"twisted_jordan_k{k}",
                                    report.all_passed, f"betti={report.betti}"))
        deg2 = _degree_cap(rack, 2, max_degree)
        report = same_operator_cohomology(
            rack, ExactMatrix.from_rows([[1, 0], [0, 2]], QQ), deg2, spec)
        out.append(CheckOutcome(spec, "same_operator_diag_1_2",
                                report.all_passed, f"betti={report.betti}"))
    return out


def criterion_h2(racks, coefficients=("Q", "Z2", "Z3")):
    """Direct degree-2 cohomology equals degree-1 structure-group cohomology,
    from one trivial Z complex per rack."""
    out = []
    for spec, rack in racks:
        cx = RackComplex(rack, trivial_module(rack, ZZ), spec)
        for coeff in coefficients:
            comparison = h2_via_group(rack, coeff, spec, complex_=cx)
            out.append(CheckOutcome(
                spec, f"h2_group_match_{coeff}", comparison.match,
                f"direct={comparison.direct.describe()} "
                f"group={comparison.via_group.describe()}"))
    return out


def _leibniz_columns(rack, triv, tcx, fun, fcx, f, g, require_invariant=True):
    """d(f g) == df g - f dg for every column of the blocks f, of degree-1
    cochains in the 1-dimensional trivial module `triv`, and g, of
    degree-1 cochains in `fun`; tcx and fcx are their complexes over one
    ring.  fun tensored with triv keeps fun's matrices, so fcx.diff(2) is
    the product's d_2."""
    fg, _ = cochain_product_columns(rack, triv, 1, f, fun, 1, g,
                                    require_invariant=require_invariant)
    # fg above tested g for invariance when asked to
    dfg, _ = cochain_product_columns(rack, triv, 2, tcx.diff(1) @ f, fun, 1, g,
                                     require_invariant=False)
    fdg, _ = cochain_product_columns(rack, triv, 1, f, fun, 2, fcx.diff(1) @ g,
                                     require_invariant=False)
    return fcx.diff(2) @ fg == dfg - fdg


def _trial_blocks(rng, trials, lo, hi, draw, ring):
    """{n: (ys, block)}: per trial a degree n drawn in [lo, hi), then
    draw(n) = (y, column), or None for no column; the columns of each
    degree, in the order drawn, as one block over the ring."""
    drawn = {}
    for _ in range(trials):
        n = rng.randrange(lo, hi)
        if (pair := draw(n)) is not None:
            drawn.setdefault(n, []).append(pair)
    return {n: ([y for y, _ in pairs],
                ExactMatrix.from_columns([c for _, c in pairs], ring))
            for n, pairs in drawn.items()}


def criterion_structural(racks, trials=20):
    """Randomised checks of the exact chain-level identities.

    Each identity draws its `trials` cochains from the rack's seeded
    stream, trial by trial, and then checks them as one block of columns
    per degree, with one product per operator.  The invariant Leibniz
    factors are scaled from Q to Z: the identity is bilinear, so no
    outcome changes.
    """
    out = []
    leibniz_broken_somewhere = False
    for spec, rack in racks:
        rng = random.Random(f"structural:{spec}")
        size = rack.size
        zmod = trivial_module(rack, ZZ)
        zcx = RackComplex(rack, zmod, spec)
        qmod = trivial_module(rack, QQ)
        qcx = RackComplex(rack, qmod, spec)

        def rand_vec(dim, lo=-9, hi=9):
            return [rng.randrange(lo, hi + 1) for _ in range(dim)]

        def blocks(lo, hi, draw, ring=ZZ):
            return _trial_blocks(rng, trials, lo, hi, draw, ring)

        def record(name, ok):
            out.append(CheckOutcome(spec, name, ok, f"{trials} instances"))

        def with_y(n):
            return rng.randrange(size), rand_vec(size ** n)

        def act(n, ys, f, module=zmod):
            return apply_rack_element_columns(rack, module, n, ys, f)

        record("d_squared_zero", all(
            (zcx.diff(n + 1) @ (zcx.diff(n) @ f)).is_zero() for n, (_, f)
            in blocks(0, 3, lambda n: (None, rand_vec(size ** n))).items()))

        record("action_commutes_with_d", all(
            zcx.diff(n) @ act(n, ys, f) == act(n + 1, ys, zcx.diff(n) @ f)
            for n, (ys, f) in blocks(0, 3, with_y).items()))

        record("first_slot_slice_identity", all(
            zcx.diff(n - 1) @ slice_first_columns(rack, zmod, n, ys, f)
            == f - act(n, ys, f) - slice_first_columns(rack, zmod, n + 1, ys,
                                                       zcx.diff(n) @ f)
            for n, (ys, f) in blocks(1, 3, with_y).items()))

        jmod = jordan_module(rack, 2, 2)
        jcx = RackComplex(rack, jmod, spec)
        iso = {n: chain_isomorphism(rack, jmod, n) for n in range(3)}
        dprime = {n: differential_prime(rack, jmod, n) for n in range(2)}
        record("chain_iso_intertwines", all(
            iso[n + 1] @ (jcx.diff(n) @ f) == dprime[n] @ (iso[n] @ f)
            for n, (_, f) in blocks(
                0, 2, lambda n: (None, rand_vec(size ** n * 2)), QQ).items()))

        gbasis = invariant_basis(rack, function_module(rack, QQ), 1)
        fun = function_module(rack, ZZ)
        fcx = RackComplex(rack, fun, spec)
        fs, coeffs = [], []
        found_violation = False
        for _ in range(trials):
            fs.append(rand_vec(size))
            coeffs.append([rng.randrange(-3, 4) for _ in range(gbasis.cols)])
            if not found_violation:
                g_bad = [rng.randrange(-3, 4) for _ in range(size * size)]
                found_violation = (
                    not is_invariant_cochain(rack, fun, 1, g_bad)
                    and not _leibniz_columns(
                        rack, zmod, zcx, fun, fcx,
                        ExactMatrix.from_columns([fs[-1]], ZZ),
                        ExactMatrix.from_columns([g_bad], ZZ),
                        require_invariant=False))
        g, _ = (gbasis @ ExactMatrix.from_columns(coeffs, QQ)).dense()
        record("leibniz_rule", _leibniz_columns(
            rack, zmod, zcx, fun, fcx, ExactMatrix.from_columns(fs, ZZ),
            ExactMatrix.from_dense(g, ZZ)))
        leibniz_broken_somewhere = leibniz_broken_somewhere or found_violation

        kernels = {n: qcx.kernel_matrix(n) for n in (1, 2)}

        def kernel_draw(n):
            if kernels[n].cols == 0:
                return None
            c = [rng.randrange(-3, 4) for _ in range(kernels[n].cols)]
            return rng.randrange(size), c

        def class_fixed(n, ys, c):
            f = kernels[n] @ c
            return qcx.diff(n - 1).solve_columns(act(n, ys, f, qmod) - f) is not None

        record("cocycle_class_fixed_by_action", all(
            class_fixed(n, ys, c)
            for n, (ys, c) in blocks(1, 3, kernel_draw, QQ).items()))
    out.append(CheckOutcome(
        "corpus", "leibniz_fails_without_invariance", leibniz_broken_somewhere,
        "a non-invariant right factor violated the Leibniz identity"))
    return out


def criterion_semidirect_lemma():
    """Exhaustive 27-function agreement scan for dihedral 3 over F3."""
    from itertools import product as iproduct
    d3 = dihedral_rack(3)
    cx = RackComplex(d3, constant_module(d3, ExactMatrix.from_rows([[-1]], GF(3))))
    agree = True
    cocycles = 0
    for vals in iproduct(range(3), repeat=3):
        omega = [(v,) for v in vals]
        is_hom, is_cocycle = semidirect_cocycle_check(cx, omega)
        if is_hom != is_cocycle:
            agree = False
        cocycles += is_cocycle
    return [CheckOutcome("dihedral:3", "semidirect_cocycle_lemma", agree,
                         f"27 functions scanned, {cocycles} cocycles")]


def criterion_nonabelian(max_size=2):
    """Abelian Z/3 classes through the brute-force pipeline match the
    linear pipeline's group order, for corpus racks of size <= max_size."""
    out = []
    for spec, rack in corpus_racks():
        if rack.size > max_size:
            continue
        result = nonabelian_h2(rack, cyclic_group_table(3))
        order = direct_h2(rack, "Z3").order
        ok = result.class_count == order
        out.append(CheckOutcome(spec, "nonabelian_matches_abelian_Z3", ok,
                                f"classes={result.class_count} |H2|={order}"))
    return out


def run_corpus(max_degree=3):
    racks = corpus_racks() + semidirect_examples()
    outcomes = []
    outcomes += criterion_betti(racks, max_degree)
    outcomes += criterion_torsion(racks, max_degree)
    outcomes += criterion_invariant_iso(racks, max_degree)
    outcomes += criterion_twisted(racks, max_degree)
    outcomes += criterion_h2(racks)
    outcomes += criterion_structural(racks)
    outcomes += criterion_semidirect_lemma()
    outcomes += criterion_nonabelian()
    return outcomes


def cmd_corpus(args) -> tuple:
    outcomes = run_corpus(args.max_degree)
    failures = [o for o in outcomes if not o.passed]
    doc = {
        "outcomes": [{"rack": o.rack, "check": o.name, "pass": o.passed,
                      "details": o.details} for o in outcomes],
        "total": len(outcomes),
        "failed": len(failures),
    }
    return (EXIT_OK if not failures else EXIT_CHECK_FAILED), doc


# ---------------------------------------------------------------------------
# output formatting


def _print_human(command: str, doc: dict, out):
    if command == "verify":
        status = "valid rack" if doc["valid"] else "NOT a rack"
        print(f"{doc['spec']}: {status}", file=out)
        if doc["valid"]:
            print(f"  quandle: {doc['quandle']}  yang-baxter: {doc['yang_baxter']}",
                  file=out)
            print(f"  orbits: {doc['orbit_count']} {doc['orbits']}", file=out)
            print(f"  inner group order: {doc['inner_group_order']}", file=out)
        for v in doc["violations"]:
            print(f"  violated {v['axiom']} at witness {tuple(v['witness'])}",
                  file=out)
        return
    if command == "cohomology":
        m = doc["rack"]["orbit_count"]
        print(f"{doc['rack']['spec']}  (m={m})", file=out)
        print("  degree  betti  m^n  torsion", file=out)
        for d in doc["degrees"]:
            print(f"  {d['n']:>6}  {d['betti']:>5}  {m ** d['n']:>3}  "
                  f"{d['torsion'] or '-'}", file=out)
        if "invariant" in doc:
            inv = doc["invariant"]
            print(f"  invariant betti: {inv['betti']}  xi rank: {inv['xi_rank']}",
                  file=out)
        for c in doc["checks"]:
            print(f"  check {c['name']}: {'PASS' if c['pass'] else 'FAIL'}",
                  file=out)
        for note in doc.get("notes", []):
            print(f"  note: {note}", file=out)
        return
    if command == "h2":
        if "classes" in doc:
            print(f"{doc['rack']}: {doc['classes']} classes "
                  f"({doc['cocycles']} cocycles) over {doc['coefficient_group']}",
                  file=out)
            if "match" in doc:
                print(f"  abelian pipeline order {doc['abelian_order']}: "
                      f"{'MATCH' if doc['match'] else 'MISMATCH'}", file=out)
        else:
            print(f"{doc['rack']} with {doc['coefficient']} coefficients", file=out)
            print(f"  direct H2:  free rank {doc['direct_h2']['free_rank']}, "
                  f"torsion {doc['direct_h2']['torsion']}", file=out)
            print(f"  group H1:   free rank {doc['group_h1']['free_rank']}, "
                  f"torsion {doc['group_h1']['torsion']}", file=out)
            print(f"  {'MATCH' if doc['match'] else 'MISMATCH'}", file=out)
        return
    if command == "corpus":
        for o in doc["outcomes"]:
            mark = "PASS" if o["pass"] else "FAIL"
            print(f"{mark}  {o['rack']:<22} {o['check']}", file=out)
        print(f"{doc['total'] - doc['failed']}/{doc['total']} corpus checks passed",
              file=out)
        return
    print(canonical_json(doc), file=out)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main()
    call in the process."""
    parser = argparse.ArgumentParser(
        prog="rackoh",
        description="exact cohomology workbench for finite racks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_rack=True):
        if needs_rack:
            p.add_argument("--rack", required=True,
                           help="rack spec: trivial:n, dihedral:n, cyclic:n, "
                                "conj:S3, file:path.json")
        p.add_argument("--json", action="store_true", help="canonical JSON output")

    p = sub.add_parser("verify", help="check the rack axioms and invariants")
    common(p)

    p = sub.add_parser("cohomology", help="betti numbers and torsion")
    common(p)
    p.add_argument("--ring", default="Q", help="Q, Z, or F<p>")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--twisted", help="t=<rational>,k=<block size> over Q")
    p.add_argument("--module", dest="module_path",
                   help="JSON module spec file overriding --ring")
    p.add_argument("--invariant", action="store_true",
                   help="also compute the invariant subcomplex and xi ranks")

    p = sub.add_parser("h2", help="degree-2 comparisons")
    common(p)
    p.add_argument("--coeff", help="Q, Z, or Z<q> for the group comparison")
    p.add_argument("--nonabelian", help="S3 or Z<k>: brute-force class count")

    p = sub.add_parser("corpus", help="run every theorem check on the corpus")
    common(p, needs_rack=False)
    p.add_argument("--max-degree", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "cohomology": cmd_cohomology,
                "h2": cmd_h2, "corpus": cmd_corpus}
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise InputError("max-degree must be >= 0")
        code, doc = handlers[args.command](args)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RackohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        _print_human(args.command, doc, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
