"""Seeded inputs, operation lists and answer checks of the three workloads.

The seed relabels every rack by a seeded permutation of its elements (seed 0
is the identity labelling).  The program only ever sees the generated
`file:` rack specs and `--module` JSON files; library operations get the
racks parsed back from those files.  Every answer that does not depend on
the labelling is compared with `reference.json`, and a few are checked
against the paper's formulas with oracles computed here, outside rackoh.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path

import rackoh
import rackoh.cli

# Inputs are written under the checkout with seed-independent relative paths,
# so the `--json` bytes at seed 0 are the same in every checkout.
WORK_DIR = Path(".perfbench_work")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

BASE_RACKS = {
    "dihedral3": lambda: rackoh.dihedral_rack(3),
    "dihedral4": lambda: rackoh.dihedral_rack(4),
    "dihedral5": lambda: rackoh.dihedral_rack(5),
    "dihedral6": lambda: rackoh.dihedral_rack(6),
    "cyclic3": lambda: rackoh.cyclic_rack(3),
    "trivial2": lambda: rackoh.trivial_rack(2),
    "conjS3": lambda: rackoh.conjugation_rack(rackoh.symmetric_group_table(3)),
}


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    `argv` ops are `rackoh.cli.main(argv + ["--json"])` calls; `call` ops
    run a corpus-runner function from `rackoh.cli` on the named racks.
    `betti_formula` marks runs whose Betti numbers (free ranks over Z) must
    equal m^n, m the orbit count: trivial coefficients, or a Jordan block
    at eigenvalue 1.
    """

    id: str
    racks: tuple
    argv: tuple = ()
    call: str = ""
    betti_formula: bool = False


def _cohomology(rack, *extra):
    return ("cohomology", "--rack", "{%s}" % rack) + extra


WORKLOADS = {
    "field_rank": (
        Op("betti_q_dihedral5", ("dihedral5",),
           _cohomology("dihedral5", "--ring", "Q", "--max-degree", "4"),
           betti_formula=True),
        Op("betti_f7_dihedral5", ("dihedral5",),
           _cohomology("dihedral5", "--ring", "F7", "--max-degree", "4"),
           betti_formula=True),
        Op("twisted_t1k3_dihedral5", ("dihedral5",),
           _cohomology("dihedral5", "--twisted", "t=1,k=3", "--max-degree", "3"),
           betti_formula=True),
        Op("twisted_t2k2_conjS3", ("conjS3",),
           _cohomology("conjS3", "--twisted", "t=2,k=2", "--max-degree", "2")),
        Op("invariant_trivial_dihedral5", ("dihedral5",),
           _cohomology("dihedral5", "--invariant", "--max-degree", "3"),
           betti_formula=True),
        Op("invariant_sign_conjS3", ("conjS3",),
           _cohomology("conjS3", "--module", "{sign:conjS3}", "--invariant",
                       "--max-degree", "2")),
    ),
    "integral_smith": (
        Op("integral_conjS3", ("conjS3",),
           _cohomology("conjS3", "--ring", "Z", "--max-degree", "3"),
           betti_formula=True),
        Op("integral_dihedral6", ("dihedral6",),
           _cohomology("dihedral6", "--ring", "Z", "--max-degree", "2"),
           betti_formula=True),
        Op("integral_dihedral4", ("dihedral4",),
           _cohomology("dihedral4", "--ring", "Z", "--max-degree", "3"),
           betti_formula=True),
        Op("h2_Z_conjS3", ("conjS3",), ("h2", "--rack", "{conjS3}", "--coeff", "Z")),
        Op("h2_Z3_conjS3", ("conjS3",), ("h2", "--rack", "{conjS3}", "--coeff", "Z3")),
        Op("h2_Z4_conjS3", ("conjS3",), ("h2", "--rack", "{conjS3}", "--coeff", "Z4")),
        Op("h2_Z9_dihedral6", ("dihedral6",),
           ("h2", "--rack", "{dihedral6}", "--coeff", "Z9")),
    ),
    "chain_ops": (
        Op("structural_dihedral5", ("dihedral5",), call="criterion_structural"),
        Op("structural_conjS3", ("conjS3",), call="criterion_structural"),
        Op("structural_dihedral6", ("dihedral6",), call="criterion_structural"),
        Op("semidirect_lemma", (), call="criterion_semidirect_lemma"),
        Op("nonabelian_Z4_dihedral3", ("dihedral3",),
           ("h2", "--rack", "{dihedral3}", "--nonabelian", "Z4")),
        Op("nonabelian_Z4_cyclic3", ("cyclic3",),
           ("h2", "--rack", "{cyclic3}", "--nonabelian", "Z4")),
        Op("nonabelian_S3_trivial2", ("trivial2",),
           ("h2", "--rack", "{trivial2}", "--nonabelian", "S3")),
        *(Op(f"verify_{name}", (name,), ("verify", "--rack", "{%s}" % name))
          for name in ("dihedral5", "conjS3", "dihedral6", "dihedral3",
                       "cyclic3", "trivial2")),
        Op("invariant_fun_dihedral3", ("dihedral3",),
           _cohomology("dihedral3", "--module", "{fun:dihedral3}", "--invariant",
                       "--max-degree", "3")),
    ),
}

STRUCTURAL_TRIALS = 20


# ---------------------------------------------------------------------------
# seeded input generation


def labelling(seed: int, name: str, size: int) -> list:
    """The seeded permutation sigma applied to the elements of rack `name`."""
    sigma = list(range(size))
    if seed:
        random.Random(f"perfbench:{seed}:{name}").shuffle(sigma)
    return sigma


def relabel(table, sigma):
    """Table of the isomorphic rack with element x renamed sigma[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[sigma[x]][sigma[y]] = sigma[table[x][y]]
    return out


def orbit_count(table) -> int:
    """Orbits of the inner group, by union-find over x ~ y |> x (oracle)."""
    parent = list(range(len(table)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for row in table:
        for x, z in enumerate(row):
            parent[find(x)] = find(z)
    return len({find(x) for x in range(len(table))})


def _sign(perm) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def sign_module_spec(sigma) -> dict:
    """The sign character of S3 on the relabelled conjugation rack.

    conj:S3 lists the elements of S3 as image tuples in lex order.
    """
    signs = [_sign(p) for p in sorted(permutations(range(3)))]
    matrices = [None] * len(signs)
    for x, s in enumerate(signs):
        matrices[sigma[x]] = [[s]]
    return {"ring": "Q", "dim": 1, "action": {"type": "custom", "matrices": matrices}}


def function_module_spec(table) -> dict:
    """Fun(X, Q) with (h.y)(x) = h(y |> x): block permutation matrices."""
    n = len(table)
    matrices = []
    for y in range(n):
        m = [[0] * n for _ in range(n)]
        for x in range(n):
            m[table[y][x]][x] = 1
        matrices.append(m)
    return {"ring": "Q", "dim": n, "action": {"type": "custom", "matrices": matrices}}


@dataclass
class Inputs:
    """What set-up produced: the expanded operations and the oracles."""

    workload: str
    seed: int
    tables: dict = field(default_factory=dict)  # rack name -> relabelled table
    racks: dict = field(default_factory=dict)  # rack name -> RackTable
    placeholders: dict = field(default_factory=dict)  # "{name}" -> argv text
    orbit_counts: dict = field(default_factory=dict)

    def argv(self, op: Op) -> list:
        return [self.placeholders.get(arg, arg) for arg in op.argv] + ["--json"]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# module kind -> spec builder from (sigma, relabelled table); an argv token
# "{kind:rack}" names the generated module file of that rack.
MODULE_SPECS = {"sign": lambda sigma, table: sign_module_spec(sigma),
                "fun": lambda sigma, table: function_module_spec(table)}


def prepare(workload: str, seed: int) -> Inputs:
    """Generate and check the input files of one workload for one seed."""
    out_dir = WORK_DIR / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload, seed)
    ops = WORKLOADS[workload]
    sigmas = {}
    for name in sorted({r for op in ops for r in op.racks}):
        base = [list(row) for row in BASE_RACKS[name]().table]
        sigmas[name] = labelling(seed, name, len(base))
        table = relabel(base, sigmas[name])
        report = rackoh.verify_rack(table)
        if not report.valid:
            raise RuntimeError(f"relabelled {name} is not a rack: {report.violations}")
        path = out_dir / f"{name}.json"
        _write_json(path, {"size": len(table), "table": table})
        inputs.tables[name] = table
        with open(path, encoding="utf-8") as fh:
            inputs.racks[name], _ = rackoh.rack_from_json(json.load(fh))
        inputs.placeholders["{%s}" % name] = f"file:{path.as_posix()}"
        inputs.orbit_counts[name] = orbit_count(table)
    modules = {arg for op in ops for arg in op.argv if ":" in arg and arg[0] == "{"}
    for token in sorted(modules):
        kind, name = token.strip("{}").split(":")
        spec = MODULE_SPECS[kind](sigmas[name], inputs.tables[name])
        rackoh.module_from_spec(inputs.racks[name], spec)  # raises if incompatible
        path = out_dir / f"{kind}_{name}.json"
        _write_json(path, spec)
        inputs.placeholders[token] = path.as_posix()
    return inputs


# ---------------------------------------------------------------------------
# running one operation and checking its answer


def execute(op: Op, inputs: Inputs, clock=time.perf_counter):
    """Run `op`; returns (exit code, output text, parsed output, seconds).

    Only the call into rackoh is timed, by `clock`, not the parsing of its
    output.
    """
    if op.call:
        fn = getattr(rackoh.cli, op.call)
        args = ([(op.racks[0], inputs.racks[op.racks[0]])],) if op.racks else ()
        kwargs = {"trials": STRUCTURAL_TRIALS} if op.racks else {}
        t0 = clock()
        outcomes = fn(*args, **kwargs)
        seconds = clock() - t0
        doc = [{"rack": o.rack, "check": o.name, "pass": o.passed,
                "details": o.details} for o in outcomes]
        return 0, rackoh.cli.canonical_json(doc), doc, seconds
    argv = inputs.argv(op)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        code = rackoh.cli.main(argv)
        seconds = clock() - t0
    text = out.getvalue()
    return code, text, json.loads(text) if code == 0 else None, seconds


def answer_of(op: Op, doc):
    """The part of an output that does not depend on the labelling."""
    if op.call:
        return doc
    doc = json.loads(json.dumps(doc))
    if op.argv[0] == "cohomology":
        del doc["rack"]["spec"], doc["rack"]["table"]
    elif op.argv[0] == "h2":
        del doc["rack"]
    else:  # verify
        del doc["spec"], doc["rack"]
        doc["orbits"] = sorted(len(c) for c in doc["orbits"])
    return doc


def formula_problems(op: Op, inputs: Inputs, doc) -> list:
    """Cross-checks against the paper's statements, with oracles from here."""
    problems = []
    if op.call:
        problems += [f"{o['check']} failed" for o in doc if not o["pass"]]
        return problems
    if op.argv[0] == "verify":
        name = op.racks[0]
        if not doc["valid"] or doc["orbit_count"] != inputs.orbit_counts[name]:
            problems.append("verify disagrees with the orbit oracle")
        if doc["rack"]["table"] != inputs.tables[name]:
            problems.append("verify read a different table")
        return problems
    if op.argv[0] == "h2":
        if not doc.get("match", True):  # no linear cross-check over S3
            problems.append("the two H^2 computations disagree")
        return problems
    if doc["rack"]["table"] != inputs.tables[op.racks[0]]:
        problems.append("the report shows a different table")
    problems += [f"check {c['name']} failed" for c in doc["checks"] if not c["pass"]]
    betti = [d["betti"] for d in doc["degrees"]]
    if op.betti_formula:
        m = inputs.orbit_counts[op.racks[0]]
        if betti != [m ** n for n in range(len(betti))]:
            problems.append(f"betti {betti} is not m^n for m={m}")
    if "invariant" in doc:
        inv = doc["invariant"]
        if not inv["betti"] == inv["xi_rank"] == betti:
            problems.append("the invariant subcomplex is not quasi-isomorphic")
    if "t=2,k=2" in op.argv and any(betti):
        problems.append("eigenvalue 2 cohomology does not vanish")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(op: Op, inputs: Inputs, code, text, doc, reference: dict) -> list:
    """Every reason the operation's result is wrong; empty when it is right."""
    if code != 0:
        return [f"exit code {code}"]
    ref = reference[inputs.workload][op.id]
    problems = formula_problems(op, inputs, doc)
    if answer_of(op, doc) != ref["answer"]:
        problems.append("answer differs from the reference")
    if inputs.seed == 0 and digest(text) != ref["sha256_seed0"]:
        problems.append("--json bytes differ from the seed-0 digest")
    return problems
