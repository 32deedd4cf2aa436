"""The traced benchmark run wraps functions by name; every name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def _targets() -> list[tuple[str, str]]:
    return [(mod, fn) for mod, fn, *_ in _tracing().TARGETS]


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
