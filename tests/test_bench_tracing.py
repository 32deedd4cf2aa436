"""The traced benchmark run wraps functions by name; every name must resolve."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return [(mod, fn) for mod, fn, *_ in tracing.TARGETS]


@pytest.mark.parametrize("module, function", _targets())
def test_traced_target_resolves(module: str, function: str) -> None:
    assert callable(getattr(importlib.import_module(f"rcoreset.{module}"), function))
