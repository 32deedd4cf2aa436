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

from rcoreset.core import WeightedSet
from rcoreset.coreset_nd import _sensitivity_draw, _split_at, sample_outlier_coreset

__all__ = [
    "build_hjlw23",
    "build_hllw25",
    "build_uniform",
]


def _ring_scores(dpow: np.ndarray) -> np.ndarray:
    """Per-ring (not per-point) cost scores for sensitivity sampling.

    Points are grouped into doubling rings of their z-power distance to
    the center set relative to its mean; every point inherits its ring's
    average score, flattening the distribution inside each ring.
    """
    total = float(np.sum(dpow))
    if total == 0.0:
        return dpow
    with np.errstate(divide="ignore"):
        ring = np.floor(np.log2(dpow / (total / len(dpow))))
    ring = np.clip(np.where(np.isfinite(ring), ring, -40.0), -40.0, 80.0)
    scores = np.empty(len(dpow))
    for level in np.unique(ring):
        mask = ring == level
        scores[mask] = float(np.mean(dpow[mask]))
    return scores


def _keep_far_sample_near(P, m, k, z, target_size, C_star, seed, scores) -> WeightedSet:
    """The m far points at weight 1, then a sensitivity sample of the rest.

    Both parts come from one split at C_star; _sensitivity_draw samples
    the near part from scores(dist^z), weighted to sum to its size.
    """
    target_size = operator.index(target_size)
    if target_size < m:
        raise ValueError(f"target_size {target_size} is below the m={m} floor")
    points, _, far, _, dpow = _split_at(P, m, k, z, C_star)
    near = np.flatnonzero(~far)
    rows, weights = _sensitivity_draw(
        scores(dpow[near]), max(1, target_size - m), np.random.default_rng(seed)
    )
    return WeightedSet(
        np.concatenate([points[far], points[near[rows]]]),
        np.concatenate([np.ones(m), weights]),
    )


def build_hjlw23(P, m: int, k: int, z: int, target_size: int, C_star, seed) -> WeightedSet:
    """Baseline that keeps all m far points and ring-samples the near part."""
    return _keep_far_sample_near(P, m, k, z, target_size, C_star, seed, _ring_scores)


def build_hllw25(P, m: int, k: int, z: int, target_size: int, C_star, seed) -> WeightedSet:
    """Baseline that keeps all m far points and sensitivity-samples the rest."""
    return _keep_far_sample_near(P, m, k, z, target_size, C_star, seed, lambda dpow: dpow)


def build_uniform(P, target_size: int, seed) -> WeightedSet:
    """Uniform sample without replacement, each point at weight n/target_size."""
    n = len(np.atleast_1d(P))  # sample_outlier_coreset validates the points
    target_size = operator.index(target_size)
    if not 1 <= target_size <= n:
        raise ValueError(f"need 1 <= target_size <= {n}, got {target_size}")
    return sample_outlier_coreset(P, target_size, seed)
