"""Reference coreset constructions used for comparisons.

Two structured baselines keep every far point verbatim at weight 1 and
spend the rest of the size budget on the near part — one with the same
sensitivity sampler the main builder uses, one with a coarser ring-level
variant — plus a plain uniform-sampling control.  All conserve total
weight n and are deterministic under a fixed seed.
"""

from __future__ import annotations

import operator

import numpy as np

from rcoreset.core import WeightedSet, as_points
from rcoreset.coreset_nd import _sensitivity_draw, _split_at

__all__ = [
    "build_hjlw23",
    "build_hllw25",
    "build_uniform",
]


def _ring_coarse_sample(P_I: np.ndarray, dpow: np.ndarray, size: int, seed) -> WeightedSet:
    """Sensitivity sampling with per-ring (not per-point) cost scores.

    Points are grouped into doubling rings of their z-power distance to
    the center set relative to its mean; every point inherits its ring's
    average score, flattening the distribution inside each ring.  ``dpow``
    holds each point's z-power distance to the center set.
    """
    n_i = len(P_I)
    scores = dpow
    total = float(np.sum(dpow))
    if total > 0.0:
        mean_pow = total / n_i
        with np.errstate(divide="ignore"):
            ring = np.floor(np.log2(dpow / mean_pow))
        ring = np.clip(np.where(np.isfinite(ring), ring, -40.0), -40.0, 80.0)
        scores = np.empty(n_i)
        for level in np.unique(ring):
            mask = ring == level
            scores[mask] = float(np.mean(dpow[mask]))
    rows, weights = _sensitivity_draw(scores, size, np.random.default_rng(seed))
    return WeightedSet(P_I[rows], weights)


def _with_kept_outliers(L_star: np.ndarray, S_I: WeightedSet) -> WeightedSet:
    if len(L_star) == 0:
        return S_I
    return WeightedSet(
        np.concatenate([L_star, S_I.points]),
        np.concatenate([np.ones(len(L_star)), S_I.weights]),
    )


def build_hjlw23(P, m: int, k: int, z: int, target_size: int, C_star, seed) -> WeightedSet:
    """Baseline that keeps all m far points and ring-samples the near part."""
    target_size = operator.index(target_size)
    if target_size < m:
        raise ValueError(f"target_size {target_size} is below the m={m} floor")
    points, _, far, _, dpow = _split_at(P, m, k, z, C_star)
    S_I = _ring_coarse_sample(points[~far], dpow[~far], max(1, target_size - m), seed)
    return _with_kept_outliers(points[far], S_I)


def build_hllw25(P, m: int, k: int, z: int, target_size: int, C_star, seed) -> WeightedSet:
    """Baseline that keeps all m far points and sensitivity-samples the rest."""
    target_size = operator.index(target_size)
    if target_size < m:
        raise ValueError(f"target_size {target_size} is below the m={m} floor")
    points, _, far, _, dpow = _split_at(P, m, k, z, C_star)
    near = np.flatnonzero(~far)
    rows, weights = _sensitivity_draw(
        dpow[near], max(1, target_size - m), np.random.default_rng(seed)
    )
    return _with_kept_outliers(points[far], WeightedSet(points[near[rows]], weights))


def build_uniform(P, target_size: int, seed) -> WeightedSet:
    """Uniform sample without replacement, each point at weight n/target_size."""
    points = as_points(P)
    n = len(points)
    target_size = operator.index(target_size)
    if not 1 <= target_size <= n:
        raise ValueError(f"need 1 <= target_size <= {n}, got {target_size}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=target_size, replace=False))
    return WeightedSet(points[idx], np.full(target_size, n / target_size))
