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

from rcoreset.core import CenterSet, WeightedSet, _nearest_dist_pow, as_points, outlier_split
from rcoreset.coreset_nd import _sensitivity_draw, build_inlier_coreset

__all__ = [
    "build_hjlw23",
    "build_hllw25",
    "build_uniform",
]


def _split_far_near(P, m: int, C_star, z: int):
    points = as_points(P)
    m = operator.index(m)
    if not 0 <= m < len(points):
        raise ValueError(f"need 0 <= m < |P|, got m={m}, |P|={len(points)}")
    C = C_star if isinstance(C_star, CenterSet) else CenterSet(as_points(C_star), z=z)
    inl_idx, out_idx = outlier_split(points, C, m)
    return points[inl_idx], points[out_idx], C


def _ring_coarse_sample(P_I: np.ndarray, C: CenterSet, size: int, seed) -> WeightedSet:
    """Sensitivity sampling with per-ring (not per-point) cost scores.

    Points are grouped into doubling rings of their z-power distance to
    the center set relative to its mean; every point inherits its ring's
    average score, flattening the distribution inside each ring.
    """
    n_i = len(P_I)
    _, dpow = _nearest_dist_pow(P_I, C.centers, C.z)
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
    P_I, L_star, C = _split_far_near(P, m, C_star, z)
    if len(C) != k:
        raise ValueError(f"expected {k} centers, got {len(C)}")
    if len(P_I) == 0:
        return WeightedSet(L_star, np.ones(m))
    S_I = _ring_coarse_sample(P_I, C, max(1, target_size - m), seed)
    return _with_kept_outliers(L_star, S_I)


def build_hllw25(P, m: int, k: int, z: int, target_size: int, C_star, seed) -> WeightedSet:
    """Baseline that keeps all m far points and sensitivity-samples the rest."""
    target_size = operator.index(target_size)
    if target_size < m:
        raise ValueError(f"target_size {target_size} is below the m={m} floor")
    P_I, L_star, C = _split_far_near(P, m, C_star, z)
    if len(C) != k:
        raise ValueError(f"expected {k} centers, got {len(C)}")
    if len(P_I) == 0:
        return WeightedSet(L_star, np.ones(m))
    S_I = build_inlier_coreset(P_I, C, C.z, max(1, target_size - m), seed)
    return _with_kept_outliers(L_star, S_I)


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
