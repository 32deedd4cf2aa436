"""Spans around the public functions of each ``rcoreset`` module.

``Tracer.install`` rebinds each listed function, in every ``rcoreset``
module that binds it, to a wrapper that records a span (name, start,
end, parent) and a few counts taken from the call's inputs and result.
The program itself is untouched; ``uninstall`` restores the originals.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _batch_shape(centers) -> tuple[int, int]:
    """(T, k) of a center batch as the batch evaluators normalise it."""
    arr = np.asarray(centers)
    return arr.shape[0], arr.shape[1] if arr.ndim == 3 else 1


def _cost_many_counts(args, kwargs, result):
    P, centers = args[0], args[1]
    T, k = _batch_shape(centers)
    return {"pair_evals": len(P) * T * k}


def _cost_weighted_many_counts(args, kwargs, result):
    S, centers = args[0], args[1]
    T, k = _batch_shape(centers)
    return {"pair_evals": len(S) * T * k}


def _lloyd_name(args, kwargs) -> str:
    return "solver.lloyd_full" if kwargs.get("weights") is None else "solver.lloyd_coreset"


def _dataset_rows(args, kwargs, result):
    return {"rows": len(result)}


# (module, function, span name or naming function, counts from the call)
TARGETS = [
    ("core", "robust_cost_many", None, _cost_many_counts),
    ("core", "robust_cost_weighted_many", None, _cost_weighted_many_counts),
    ("core", "outlier_split", None, lambda a, kw, r: {"points": len(a[0])}),
    ("core", "inlier_assignment", None, None),
    ("core", "robust_cost", None, None),
    ("solver", "lloyd_with_outliers", _lloyd_name, lambda a, kw, r: {"iterations": r.iterations}),
    ("solver", "kmeanspp_seed", None, None),
    ("solver", "robust_median_1d", None, None),
    ("coreset_nd", "build_robust_kz_full", None, lambda a, kw, r: {"rows": len(r.coreset)}),
    ("coreset_nd", "build_inlier_coreset", None, None),
    ("coreset_nd", "check_assumptions", None, None),
    ("coreset1d", "build_robust_1d_full", None, lambda a, kw, r: {"rows": len(r.coreset)}),
    ("coreset1d", "partition_blocks", None, None),
    ("coreset1d", "split_block", None, None),
    ("coreset1d", "boundary_split", None, None),
    ("baselines", "build_hllw25", None, None),
    ("baselines", "build_hjlw23", None, None),
    ("baselines", "build_uniform", None, None),
    ("evaluation", "misalignment_check", None, lambda a, kw, r: {"centers": len(a[4])}),
    ("evaluation", "draw_candidate_centers", None, None),
    ("evaluation", "empirical_error", None, None),
    ("evaluation", "speedup_report", None, None),
    ("cli", "parse_dataset", None, _dataset_rows),
    ("cli", "write_coreset_csv", None, None),
    ("cli", "write_points_csv", None, None),
    ("cli", "main", None, None),
    ("instances", "gen_gaussian_clusters", None, None),
]

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
LAYER_METRICS = [
    ("core.robust_cost_many.self_s", "s"),
    ("core.robust_cost_many.calls", "count"),
    ("core.robust_cost_many.pair_evals", "count"),
    ("core.robust_cost_many.pair_evals_per_s", "1/s"),
    ("core.robust_cost_weighted_many.self_s", "s"),
    ("core.robust_cost_weighted_many.pair_evals", "count"),
    ("core.outlier_split.self_s", "s"),
    ("core.outlier_split.points", "count"),
    ("core.inlier_assignment.self_s", "s"),
    ("core.robust_cost.self_s", "s"),
    ("solver.lloyd_full.self_s", "s"),
    ("solver.lloyd_full.calls", "count"),
    ("solver.lloyd_full.iterations", "count"),
    ("solver.kmeanspp_seed.self_s", "s"),
    ("solver.lloyd_coreset.self_s", "s"),
    ("solver.lloyd_coreset.iterations", "count"),
    ("solver.robust_median_1d.self_s", "s"),
    ("coreset_nd.build_robust_kz_full.self_s", "s"),
    ("coreset_nd.build_robust_kz_full.rows", "rows"),
    ("coreset_nd.build_inlier_coreset.self_s", "s"),
    ("coreset_nd.check_assumptions.self_s", "s"),
    ("coreset1d.build_robust_1d_full.self_s", "s"),
    ("coreset1d.build_robust_1d_full.rows", "rows"),
    ("coreset1d.partition_blocks.self_s", "s"),
    ("coreset1d.split_block.self_s", "s"),
    ("coreset1d.split_block.calls", "count"),
    ("coreset1d.boundary_split.self_s", "s"),
    ("baselines.build_hllw25.self_s", "s"),
    ("baselines.build_hjlw23.self_s", "s"),
    ("baselines.build_uniform.self_s", "s"),
    ("evaluation.misalignment_check.self_s", "s"),
    ("evaluation.misalignment_check.centers", "count"),
    ("evaluation.draw_candidate_centers.self_s", "s"),
    ("evaluation.empirical_error.self_s", "s"),
    ("evaluation.speedup_report.self_s", "s"),
    ("cli.parse_dataset.self_s", "s"),
    ("cli.parse_dataset.rows", "rows"),
    ("cli.parse_dataset.rows_per_s", "1/s"),
    ("cli.write_coreset_csv.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.write_points_csv.self_s", "s"),
    ("instances.gen_gaussian_clusters.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                id=len(tracer.spans),
                name=namer(args, kwargs) if namer else name,
                parent=tracer._stack[-1] if tracer._stack else None,
                phase=tracer.phase,
                start=time.perf_counter(),
            )
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "rcoreset"]
        for mod_name, fn_name, namer, counter in TARGETS:
            original = getattr(sys.modules[f"rcoreset.{mod_name}"], fn_name)
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", namer, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    def layer_metrics(self, passes: int, setups: int, pass_time: float) -> dict:
        """Per-layer figures per pass (per set-up for set-up spans, per
        run for the spans of inputs prepared once).

        Self time is a span's duration minus the time its child spans
        cover; unattributed time is pass time outside every span.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}

        def add(key, value, phase):
            scale = {"setup": setups, "prep": 1}.get(phase, passes)
            totals[key] = totals.get(key, 0.0) + value / scale

        top_level = 0.0
        for s in self.spans:
            dur = s.end - s.start
            add(f"{s.name}.self_s", dur - child_time[s.id], s.phase)
            add(f"{s.name}.calls", 1, s.phase)
            for key, value in s.counts.items():
                add(f"{s.name}.{key}", value, s.phase)
            if s.parent is None and s.phase == "pass":
                top_level += dur
        many_s = totals.get("core.robust_cost_many.self_s", 0.0)
        parse_s = totals.get("cli.parse_dataset.self_s", 0.0)
        totals["core.robust_cost_many.pair_evals_per_s"] = (
            totals.get("core.robust_cost_many.pair_evals", 0.0) / many_s if many_s else 0.0
        )
        totals["cli.parse_dataset.rows_per_s"] = (
            totals.get("cli.parse_dataset.rows", 0.0) / parse_s if parse_s else 0.0
        )
        totals["trace.unattributed_s"] = pass_time / passes - top_level / passes
        return totals
