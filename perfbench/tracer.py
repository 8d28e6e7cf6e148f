"""Spans around rackoh's public entry points, recorded from outside rackoh.

`Tracer.install()` replaces each entry point with a timing wrapper in the
module that defines it and in every rackoh module that imported it by name
(`differential`, for example, is called through `rackoh.cohomology` and
`rackoh.cli`), and wraps the `ExactMatrix` methods on the class.
`remove()` puts the originals back, so untraced passes run unmodified code.

Counts (cells, nnz, group orders, ...) are computed after a span closes.
The time they take is added to every open ancestor's `excluded` time, so
it is charged neither to the span nor to its parents: it is tracing cost.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

from rackoh import QQ, ZZ, ExactMatrix

MIB = 1 << 20

# Spans whose transient Python-heap peak the memory pass measures.
MEMORY_LAYERS = ("linalg.rank.", "linalg.smith")


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start: float = 0.0
    end: float = 0.0
    excluded: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


# -- counters: (tracer, args, kwargs, result) -> attrs, run after a span closes


def _nnz(matrix) -> int:
    return sum(len(row) - row.count(0) for row in matrix.data)


def _cells(tracer, args, kwargs, result):
    return {"cells": args[0].rows * args[0].cols}


def _smith_counts(tracer, args, kwargs, result):
    matrix = args[0]
    transforms = kwargs.get("transforms", args[1] if len(args) > 1 else False)
    bits = max((d.bit_length() for d in result.invariant_factors), default=0)
    for t in (result.U, result.V):
        if t is not None:
            bits = max([bits] + [abs(x).bit_length() for row in t.data for x in row])
    return {"cells": matrix.rows * matrix.cols, "transform_calls": int(bool(transforms)),
            "max_bits": bits}


def _differential_counts(tracer, args, kwargs, result):
    # nnz is computed once per distinct input: comparing every Fraction
    # entry with 0 is slow, and workloads rebuild the same differentials.
    rack, module, n = args[:3]
    key = hash((rack.table, module.ring.name, module.dim,
                tuple(tuple(map(tuple, m.data)) for m in module.matrices), n))
    if key not in tracer.nnz_of:
        tracer.nnz_of[key] = _nnz(result)
    return {"cells": result.rows * result.cols, "nnz": tracer.nnz_of[key],
            "guard_mib": result.rows * result.cols * 8 / MIB, "key": key}


def _order(tracer, args, kwargs, result):
    return {"order": result.order}


def _nonabelian_counts(tracer, args, kwargs, result):
    rack, table = args[:2]
    return {"functions": len(table) ** (rack.size ** 2), "cocycles": result.cocycle_count}


def _rank_name(args):
    ring = args[0].ring
    if ring == QQ:
        return "linalg.rank.q"
    if ring == ZZ:
        return "linalg.rank.z"
    return "linalg.rank.fp"


MODULE_BUILDERS = ("trivial_module", "jordan_module", "constant_module",
                   "function_module", "custom_module", "module_from_spec",
                   "tensor_with_trivial")

# module -> {function: (span name, counter)}
FUNCTIONS = {
    "cli": {"main": ("cli.main", None),
            "criterion_structural": ("cli.criterion_structural", None),
            "criterion_semidirect_lemma": ("cli.criterion_semidirect_lemma", None)},
    "cohomology": {
        **{f: (f"cohomology.{f}", None) for f in (
            "cohomology_over_field", "cohomology_integral", "invariant_cohomology",
            "twisted_cohomology", "h2_via_group", "direct_h2", "group_h1",
            "semidirect_cocycle_check")},
        "nonabelian_h2": ("cohomology.nonabelian_h2", _nonabelian_counts)},
    "cochains": {
        **{f: (f"cochains.{f}", None) for f in (
            "differential_prime", "chain_isomorphism", "invariant_basis",
            "averaging_projector", "cochain_product", "apply_rack_element",
            "slice_first", "group_action_on_cochains")},
        "differential": ("cochains.differential", _differential_counts),
        "finite_action_group": ("cochains.finite_action_group", _order)},
    "linalg": {"lattice_quotient": ("linalg.lattice_quotient", None)},
    "permutations": {"inner_group": ("permutations.inner_group", _order)},
    "racks": {f: (f"racks.{f}", None) for f in (
        "verify_rack", "orbits", "is_quandle", "verify_yang_baxter")},
    "modules": {f: ("modules.build", None) for f in MODULE_BUILDERS},
}

METHODS = {
    "rank": (_rank_name, _cells),
    "smith_normal_form": ("linalg.smith", _smith_counts),
    "matvec": ("linalg.matvec", None),
    "__matmul__": ("linalg.matmul", None),
    "kernel_matrix": ("linalg.kernel_matrix", None),
    "solve_columns": ("linalg.solve_columns", None),
}


class Tracer:
    """Records spans in memory; `memory=True` also measures heap peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list = []
        self.op = ""
        self.nnz_of: dict = {}  # differential input hash -> nnz
        self._stack: list = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "rackoh" or name.startswith("rackoh.")]
        for home_name, entries in FUNCTIONS.items():
            home = sys.modules[f"rackoh.{home_name}"]
            for attr, (name, counter) in entries.items():
                original = getattr(home, attr)
                traced = self._wrap(original, name, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)
        for attr, (name, counter) in METHODS.items():
            self._patch(ExactMatrix, attr,
                        self._wrap(getattr(ExactMatrix, attr), name, counter))

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, fn, name, counter):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), stack[-1].id if stack else None,
                        tracer.op, name(args) if callable(name) else name)
            tracer.spans.append(span)
            stack.append(span)
            heap = tracer.memory and not tracemalloc.is_tracing() \
                and span.name.startswith(MEMORY_LAYERS)
            if heap:
                tracemalloc.start()
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
                if heap:
                    span.attrs["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
            if counter is not None:
                t0 = perf()
                span.attrs.update(counter(tracer, args, kwargs, result))
                spent = perf() - t0
                for open_span in stack:
                    open_span.excluded += spent
            return result

        return traced


# -- aggregation ------------------------------------------------------------


def layer_table(spans) -> dict:
    """Per span name: calls, total_s (outermost spans of that name only),
    self_s, and the sums of the recorded counts."""
    by_id = {s.id: s for s in spans}
    covered = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.duration
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += s.duration - covered.get(s.id, 0.0)
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            row["total_s"] += s.duration
        for key, value in s.attrs.items():
            if key == "key":
                row.setdefault("keys", set()).add(value)
            elif key in ("peak_mib", "max_bits"):
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return table


def op_totals(spans) -> dict:
    """Per operation: [traced time, counting time] summed over its root
    spans, which hold all of both."""
    out: dict = {}
    for s in spans:
        if s.parent is None:
            row = out.setdefault(s.op, [0.0, 0.0])
            row[0] += s.duration
            row[1] += s.excluded
    return out


def layer_metrics(table: dict, memory_table: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""

    def get(name, key="self_s"):
        return table.get(name, {}).get(key, 0)

    ranks = [table.get(f"linalg.rank.{r}", {}) for r in ("q", "z", "fp")]
    diff = table.get("cochains.differential", {})
    nonab = table.get("cohomology.nonabelian_h2", {})
    out = {
        "linalg.rank.q.self_s": (get("linalg.rank.q"), "s"),
        "linalg.rank.z.self_s": (get("linalg.rank.z"), "s"),
        "linalg.rank.fp.self_s": (get("linalg.rank.fp"), "s"),
        "linalg.rank.calls": (sum(r.get("calls", 0) for r in ranks), "count"),
        "linalg.rank.cells": (sum(r.get("cells", 0) for r in ranks), "count"),
        "linalg.rank.peak_mib": (max(memory_table.get(f"linalg.rank.{r}", {})
                                     .get("peak_mib", 0) for r in ("q", "z", "fp")),
                                 "MiB"),
        "linalg.smith.self_s": (get("linalg.smith"), "s"),
        "linalg.smith.calls": (get("linalg.smith", "calls"), "count"),
        "linalg.smith.cells": (get("linalg.smith", "cells"), "count"),
        "linalg.smith.transform_calls": (get("linalg.smith", "transform_calls"), "count"),
        "linalg.smith.max_bits": (get("linalg.smith", "max_bits"), "bits"),
        "linalg.smith.peak_mib": (memory_table.get("linalg.smith", {})
                                  .get("peak_mib", 0), "MiB"),
        "linalg.lattice_quotient.self_s": (get("linalg.lattice_quotient"), "s"),
        "linalg.matmul.self_s": (get("linalg.matmul"), "s"),
        "linalg.solve_columns.self_s": (get("linalg.solve_columns"), "s"),
        "linalg.matvec.self_s": (get("linalg.matvec"), "s"),
        "linalg.matvec.calls": (get("linalg.matvec", "calls"), "count"),
        "linalg.kernel_matrix.self_s": (get("linalg.kernel_matrix"), "s"),
        "cochains.differential.self_s": (get("cochains.differential"), "s"),
        "cochains.differential.calls": (diff.get("calls", 0), "count"),
        "cochains.differential.cells": (diff.get("cells", 0), "count"),
        "cochains.differential.nnz": (diff.get("nnz", 0), "count"),
        "cochains.differential.guard_mib": (diff.get("guard_mib", 0), "MiB"),
        "cochains.differential.unique_frac": (
            len(diff["keys"]) / diff["calls"] if diff.get("calls") else 0, "ratio"),
        **{f"cochains.{f}.self_s": (get(f"cochains.{f}"), "s") for f in (
            "invariant_basis", "averaging_projector", "finite_action_group",
            "chain_isomorphism", "differential_prime", "cochain_product",
            "apply_rack_element")},
        "cochains.finite_action_group.order": (
            get("cochains.finite_action_group", "order"), "count"),
        "cohomology.nonabelian_h2.self_s": (get("cohomology.nonabelian_h2"), "s"),
        "cohomology.nonabelian_h2.functions": (nonab.get("functions", 0), "count"),
        "cohomology.nonabelian_h2.cocycle_frac": (
            nonab["cocycles"] / nonab["functions"] if nonab.get("functions") else 0,
            "ratio"),
        "cohomology.group_h1.self_s": (get("cohomology.group_h1"), "s"),
        "permutations.inner_group.self_s": (get("permutations.inner_group"), "s"),
        "permutations.inner_group.order": (get("permutations.inner_group", "order"),
                                           "count"),
        "racks.verify_rack.calls": (get("racks.verify_rack", "calls"), "count"),
        "racks.orbits.self_s": (get("racks.orbits"), "s"),
        "modules.build.self_s": (get("modules.build"), "s"),
        "cli.main.self_s": (get("cli.main"), "s"),
    }
    return out


def exact_counts(table: dict) -> dict:
    """Every count that must repeat exactly between two traced passes."""
    out = {}
    for name, row in sorted(table.items()):
        out[f"{name}.calls"] = row["calls"]
        for key in ("cells", "nnz", "guard_mib", "transform_calls", "max_bits",
                    "order", "functions", "cocycles"):
            if key in row:
                out[f"{name}.{key}"] = row[key]
        if "keys" in row:
            out[f"{name}.unique"] = len(row["keys"])
    return out
