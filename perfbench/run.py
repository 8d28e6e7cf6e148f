"""The rackoh benchmark: closed-loop workloads with verified answers.

Run from the root of a rackoh checkout:

    python3 perfbench/run.py --workload field_rank --seed 0 --seconds 40 --trace 0

One client in one process runs the workload's operations one after another,
pass after pass, checking every answer.  With `--trace 0` it repeats passes
while the next one fits into `--seconds` (at least one) and reports the
end-to-end metrics, with every time divided by the host's speed as
calibrate.py samples it during the run; with `--trace 1` it runs one
untraced pass, one traced pass and one heap-measuring pass, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--write-reference` runs every workload once at seed 0 and rewrites
reference.json from the answers (only after checking them against the
paper's formulas); use it when a workload gains an operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CALIB_SLICES = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="field_rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process and print it")
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def run_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    sources = hashlib.sha256()
    for path in sorted(Path("src", "rackoh").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace, "commit": commit,
            "sources_sha256": sources.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ[BLAS_VARS[0]]}


def time_setups(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing rackoh and making inputs,
    each divided by the host factor measured right after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def run_pass(ops, inputs, reference, tracer=None, slices=None) -> list:
    """One verified pass; returns (op id, seconds, problems, factor) per operation.

    With a `slices` list, a calibration Sampler runs during the pass and its
    slice times are appended to `slices`.  Operations are then timed without
    the slices run in their middle, and `factor` is the host factor of the
    slices from the last one before the operation to the first one after
    it; without `slices` it is None.
    """
    import workloads
    from calibrate import Sampler, host_factor
    sampler = Sampler() if slices is not None else None
    clock = sampler.clock if sampler else time.perf_counter
    results, spans = [], []
    with sampler or contextlib.nullcontext():
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.op = op.id
            first = len(sampler.slices) if sampler else 0
            t0 = clock()
            try:
                code, text, doc, seconds = workloads.execute(op, inputs, clock)
                problems = workloads.check(op, inputs, code, text, doc, reference)
            except Exception as exc:  # an operation that raises is a failed one
                seconds, problems = clock() - t0, [f"raised {exc!r}"]
            results.append((op.id, seconds, problems))
            spans.append((first, len(sampler.slices) if sampler else 0))
    if sampler is None:
        return [r + (None,) for r in results]
    slices.extend(sampler.slices)
    return [r + (host_factor(sampler.slices[first - 1:last + 1]),)
            for r, (first, last) in zip(results, spans)]


def pass_wall(results) -> float:
    return sum(s for _, s, _, _ in results)


def report_pass(label, results) -> None:
    for op_id, seconds, problems, factor in results:
        status = "ok" if not problems else "FAIL " + "; ".join(problems)
        host = f"host x{factor:.3f}" if factor else ""
        print(f"  {label} {op_id:<28} {seconds:8.3f} s  {host:<12} {status}")


def measure(workload, seed, seconds, trace, ops=None, reference=None):
    """Set up, run the passes and return (result, details) for one run.

    `ops` and `reference` default to the workload's operations and to
    reference.json; the self-test passes a subset and a corrupted copy.
    """
    import workloads
    from calibrate import host_factor
    from tracer import Tracer, exact_counts, layer_metrics, layer_table, op_totals

    ops = ops if ops is not None else workloads.WORKLOADS[workload]
    reference = reference if reference is not None else workloads.load_reference()
    inputs = workloads.prepare(workload, seed)
    details = {"passes": []}

    if not trace:
        setup_s = time_setups(workload, seed)
        start = time.perf_counter()
        pass_times, factors = [], []
        while True:
            t0, slices = time.perf_counter(), []
            details["passes"].append(run_pass(ops, inputs, reference, slices=slices))
            factors.append(host_factor(slices))
            pass_times.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(pass_times) > seconds:
                break
        details["factors"] = factors
        normalised = [[s / f for _, s, _, f in p] for p in details["passes"]]
        walls = [sum(times) for times in normalised]
        slowest = [max(times) for times in normalised]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "max_op_s": (statistics.median(slowest), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "MiB"),
        }
    else:
        plain = run_pass(ops, inputs, reference)
        with Tracer() as timing:
            traced = run_pass(ops, inputs, reference, timing)
        with Tracer(memory=True) as heap:
            heaped = run_pass(ops, inputs, reference, heap)
        details["passes"] = [plain, traced, heaped]
        table, heap_table = layer_table(timing.spans), layer_table(heap.spans)
        metrics = layer_metrics(table, heap_table)
        totals = op_totals(timing.spans)
        metrics["trace.overhead_s"] = (pass_wall(traced) - pass_wall(plain), "s")
        metrics["trace.counting_s"] = (sum(c for _, c in totals.values()), "s")
        details.update(spans=timing.spans, table=table, op_totals=totals,
                       counts_repeat=exact_counts(table) == exact_counts(heap_table))
    attempted = sum(len(p) for p in details["passes"])
    failed = sum(bool(problems) for p in details["passes"] for _, _, problems, _ in p)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, details


def write_trace(path: Path, record: dict, details: dict) -> None:
    from tracer import exact_counts
    with open(path, "w", encoding="utf-8") as fh:
        layers = {name: {k: row[k] for k in ("calls", "total_s", "self_s")}
                  for name, row in sorted(details["table"].items())}
        fh.write(json.dumps({"record": record, "layers": layers,
                             "counts": exact_counts(details["table"])}) + "\n")
        for s in details["spans"]:
            row = {"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                   "start": s.start, "end": s.end, "excluded": s.excluded}
            row.update((k, v) for k, v in s.attrs.items() if k != "key")
            fh.write(json.dumps(row) + "\n")


def write_reference() -> None:
    import workloads
    reference = {}
    for workload, ops in workloads.WORKLOADS.items():
        inputs = workloads.prepare(workload, 0)
        reference[workload] = {}
        for op in ops:
            code, text, doc, _ = workloads.execute(op, inputs)
            problems = [f"exit code {code}"] if code else \
                workloads.formula_problems(op, inputs, doc)
            if problems:
                raise SystemExit(f"{workload}/{op.id}: {problems}")
            reference[workload][op.id] = {"answer": workloads.answer_of(op, doc),
                                          "sha256_seed0": workloads.digest(text)}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def bootstrap() -> bool:
    """Make `import rackoh` load the checkout's sources, with BLAS threads
    capped at the number of usable cores; False outside a checkout."""
    src = Path.cwd() / "src"
    if not (src / "rackoh" / "__init__.py").is_file():
        print("perfbench: src/rackoh not found; run from the root of a rackoh "
              "checkout", file=sys.stderr)
        return False
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = cap
    sys.path[:0] = [str(src), str(HERE)]
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap():
        return 2

    if args.setup_only:
        t0 = time.perf_counter()
        import workloads
        workloads.prepare(args.workload, args.seed)
        raw = time.perf_counter() - t0
        from calibrate import host_factor, run_slice  # imports numpy: not timed
        factor = host_factor([run_slice() for _ in range(SETUP_CALIB_SLICES)])
        print(json.dumps({"setup_s": raw / factor, "raw_s": raw, "factor": factor}))
        return 0
    if args.write_reference:
        write_reference()
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    record = run_record(args.workload, args.seed, args.trace)
    result, details = measure(args.workload, args.seed, args.seconds, args.trace)
    print("record: " + json.dumps(record, sort_keys=True))
    labels = ("untraced", "traced", "heap") if args.trace else None
    for i, results in enumerate(details["passes"]):
        report_pass(labels[i] if labels else f"pass{i + 1}", results)
        wall = pass_wall(results)
        line = f"  {'':<9}{'pass wall':<28} {wall:8.3f} s"
        if not args.trace:
            factor = details["factors"][i]
            line += f"  host x{factor:.3f}  normalised {wall / factor:.3f} s"
        print(line)
    if args.trace:
        path = workloads.WORK_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace(path, record, details)
        print(f"spans: {len(details['spans'])} written to {path}")
        print(f"counts repeat between the traced and heap passes: "
              f"{details['counts_repeat']}")
        traced_s = sum(t for t, _ in details["op_totals"].values())
        for name, m in result["metrics"].items():
            share = (f"{100 * m['value'] / traced_s:6.1f} % of traced time"
                     if name.endswith("self_s") and traced_s else "")
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {share}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
