"""Callers and the traced benchmark run reach functions by name; every name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import rcoreset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def _targets() -> list[tuple[str, str]]:
    return [(mod, fn) for mod, fn, *_ in _tracing().TARGETS]


_MODULES = ["baselines", "cli", "core", "coreset1d", "coreset_nd", "evaluation", "instances",
            "solver"]


@pytest.mark.parametrize("module", _MODULES)
def test_module_all_resolves(module: str) -> None:
    mod = importlib.import_module(f"rcoreset.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"rcoreset.{module}.__all__ names {missing}"


def test_package_all_resolves() -> None:
    missing = [name for name in rcoreset.__all__ if not hasattr(rcoreset, name)]
    assert not missing, f"rcoreset.__all__ names {missing}"
    assert {p.stem for p in Path(rcoreset.__file__).parent.glob("[!_]*.py")} == set(_MODULES)


@pytest.mark.parametrize("module, function", _targets())
def test_traced_target_resolves(module: str, function: str) -> None:
    assert callable(getattr(importlib.import_module(f"rcoreset.{module}"), function))


def test_line_build_calls_its_layers_through_the_rebound_names() -> None:
    # The line-1d workload's per-layer figures come from these spans; a
    # layer the build reached by another name would read 0 there.
    tracing = _tracing()
    for module in {mod for mod, *_ in tracing.TARGETS}:
        importlib.import_module(f"rcoreset.{module}")
    coreset1d = importlib.import_module("rcoreset.coreset1d")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pts = np.sort(np.random.default_rng(4).normal(size=4000))
        coreset1d.build_robust_1d_full(pts, 200, 0.2)
    finally:
        tracer.uninstall()
    (build,) = [s for s in tracer.spans if s.name == "coreset1d.build_robust_1d_full"]
    layers = {s.name for s in tracer.spans if s.parent == build.id}
    assert layers == {
        "coreset1d.partition_blocks",
        "coreset1d.split_block",
        "coreset1d.boundary_split",
        "solver.robust_median_1d",
    }


def test_nd_registry_calls_its_builders_through_the_rebound_names() -> None:
    # nd-sweep's per-builder figures come from these spans; a registry
    # holding the function objects it saw at import would record none.
    tracing = _tracing()
    for module in {mod for mod, *_ in tracing.TARGETS}:
        importlib.import_module(f"rcoreset.{module}")
    evaluation = importlib.import_module("rcoreset.evaluation")
    rng = np.random.default_rng(6)
    P = np.concatenate([rng.normal(size=(600, 3)), rng.normal(size=(30, 3)) * 40.0])
    C = evaluation.CenterSet(np.zeros((1, 3)), z=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        builders = evaluation.default_builders(C)
        for name in ("ours", "hllw25", "hjlw23", "uniform"):
            builders[name](P, 30, 1, 2, 100, 0)
    finally:
        tracer.uninstall()
    assert {s.name for s in tracer.spans} >= {
        "coreset_nd.build_robust_kz_full",
        "baselines.build_hllw25",
        "baselines.build_hjlw23",
        "baselines.build_uniform",
    }


def test_misalignment_check_scores_rows_through_the_rebound_names() -> None:
    # line-1d's per-layer figures attribute P's side to misalignment_check
    # itself and the rows' side to one inlier_assignment per center.
    tracing = _tracing()
    for module in {mod for mod, *_ in tracing.TARGETS}:
        importlib.import_module(f"rcoreset.{module}")
    coreset1d = importlib.import_module("rcoreset.coreset1d")
    evaluation = importlib.import_module("rcoreset.evaluation")
    pts = np.sort(np.random.default_rng(5).normal(size=2000))
    build = coreset1d.build_robust_1d_full(pts, 100, 0.2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluation.misalignment_check(pts, build.buckets, build.coreset, 100, [-0.5, 0.0, 1.5])
    finally:
        tracer.uninstall()
    (check,) = [s for s in tracer.spans if s.name == "evaluation.misalignment_check"]
    assert check.counts == {"centers": 3}
    children = [s.name for s in tracer.spans if s.parent == check.id]
    assert children == ["core.inlier_assignment"] * 3
    assert not [s for s in tracer.spans if s.name == "core.outlier_split"]
