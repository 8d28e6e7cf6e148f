"""Self-test of the benchmark harness; run from the root of a rackoh checkout:

    python3 perfbench/selftest.py

It runs one small operation per workload, untraced and traced, and checks
that every metric of BENCHMARK.json is emitted with its unit, that the self
times of each operation's span tree add up to its wall time within the
tracing overhead, that counts repeat exactly between two traced passes, and
that a corrupted reference answer is counted as a failure.  It also checks
that the calibration sampler runs slices in the middle of a timed loop and
that its clock leaves them out.  Exit code 0 means every check held.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import run

SMALL_OPS = {"field_rank": "invariant_trivial_dihedral5",
             "integral_smith": "integral_dihedral4",
             "chain_ops": "invariant_fun_dihedral3"}

# Wrapper cost outside any span, per operation: the top wrapper's own work
# before its clock starts and after it stops.
GAP_SLACK_S = 0.002
GAP_SLACK_FRAC = 0.02
# Handler cost outside the slice's own clock, per slice.
SLICE_SLACK_S = 0.001


def check_sampler(expect) -> None:
    from calibrate import SAMPLE_PERIOD_S, Sampler
    with Sampler() as sampler:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 8 * SAMPLE_PERIOD_S:
            pass
        wall, clocked = time.perf_counter() - t0, sampler.clock() - c0
    inside = sampler.slices[1:-1]
    expect(len(inside) >= 4, f"sampler ran {len(inside)} slices inside a timed loop")
    gap = wall - clocked - sum(inside)
    expect(0 <= gap <= SLICE_SLACK_S * (len(inside) + 1),
           f"sampler clock leaves the slices out (gap {gap * 1e3:.3f} ms)")


def expected_units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    if not run.bootstrap():
        return 2
    import workloads

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    check_sampler(expect)
    reference = workloads.load_reference()
    for workload, op_id in SMALL_OPS.items():
        ops = [op for op in workloads.WORKLOADS[workload] if op.id == op_id]
        for seed in (0, 1):
            result, _ = run.measure(workload, seed, 0, 0, ops)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}/{op_id} seed {seed}: answer and digest verified")
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(units == expected_units(spec, "end_to_end"),
               f"{workload}: every end-to-end metric emitted with its unit")

        result, details = run.measure(workload, 1, 0, 1, ops)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(units == expected_units(spec, "per_layer"),
               f"{workload}: every per-layer metric emitted with its unit")
        expect(details["counts_repeat"],
               f"{workload}: counts repeat exactly across two traced passes")
        for op, seconds, *_ in details["passes"][1]:
            traced, counting = details["op_totals"][op]
            gap = seconds - traced - counting
            expect(0 <= gap <= GAP_SLACK_S + GAP_SLACK_FRAC * seconds,
                   f"{workload}/{op}: self times sum to the wall time "
                   f"(gap {gap * 1e3:.3f} ms of {seconds:.3f} s)")
        expect(all(row["self_s"] >= 0 for row in details["table"].values()),
               f"{workload}: no negative self time")

        corrupted = copy.deepcopy(reference)
        corrupted[workload][op_id]["answer"] = {"corrupted": True}
        result, _ = run.measure(workload, 1, 0, 0, ops, corrupted)
        expect(result["failed"] > 0 and not result["correct"],
               f"{workload}: a corrupted reference gives failed_frac > 0")

    print(f"{len(failures)} self-test check(s) failed" if failures
          else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
