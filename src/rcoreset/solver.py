"""Centers used as coreset-builder inputs.

Provides the exact 1-d robust geometric median (contiguous-window
sweep), k-means++ style seeding, and a Lloyd-style alternation that
re-splits outliers each round.  The Lloyd variant accepts per-point
weights so it can also be run on weighted coresets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from rcoreset.core import (
    CenterSet,
    WeightedSet,
    _abs_dev_sum,
    _fill_sorted,
    _nearest_dist_pow,
    _sums_outward,
    _validated_sorted,
    _window_anchors,
    as_points,
)

__all__ = [
    "SolveResult",
    "kmeanspp_seed",
    "lloyd_with_outliers",
    "robust_median_1d",
]


@dataclass(frozen=True)
class SolveResult:
    """A solver outcome: centers plus the robust cost they achieve."""

    centers: CenterSet
    cost: float
    inlier_window: tuple[int, int] | None
    iterations: int


def robust_median_1d(P, m: int) -> SolveResult:
    """Exact robust geometric median on the line.

    The optimal inlier set is a contiguous window of n - m consecutive
    points and the optimal center is a median of that window; all m + 1
    windows are scored from sums of x - x_a outward from an anchor x_a
    inside each (``core._window_anchors``), exact for every m in O(n)
    time and memory.  Window cost ties are broken toward the smallest
    left index and the reported center is the lower median of the window.
    P must be finite and sorted ascending.
    """
    pts = _validated_sorted(P)
    n = len(pts)
    m = operator.index(m)
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < |P|, got m={m}, |P|={n}")
    length = n - m
    lefts = np.arange(m + 1)
    y, h, base, a = _window_anchors(pts, length, lefts)
    s, med = base + lefts, lefts + (length - 1) // 2
    costs = _abs_dev_sum(_sums_outward(y, h).ravel(), s, s + length, pts[med] - a, base + med + 1)
    best = int(np.argmin(costs))
    left, right = best, best + length - 1
    center = float(pts[best + (length - 1) // 2])
    cost = float(np.sum(np.abs(pts[left : right + 1] - center)))
    return SolveResult(
        centers=CenterSet([[center]], z=1),
        cost=cost,
        inlier_window=(left, right),
        iterations=0,
    )


def _weighted_draw(rng: np.random.Generator, mass: np.ndarray) -> int:
    """Index drawn with probability proportional to mass (sum > 0)."""
    cum = np.cumsum(mass)
    r = rng.random() * cum[-1]
    return int(np.clip(np.searchsorted(cum, r, side="right"), 0, len(mass) - 1))


def kmeanspp_seed(P, k: int, z: int, seed, weights=None) -> CenterSet:
    """k distinct input points, each round drawn with mass dist(·, chosen)^z.

    Optional per-point weights (finite and positive, as in a WeightedSet)
    multiply the sampling mass so the seeding can run on weighted
    coresets.  Deterministic given the seed.
    """
    points = as_points(P)
    n = len(points)
    k = operator.index(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= |P|, got k={k}, |P|={n}")
    w = np.ones(n) if weights is None else WeightedSet(points, weights).weights
    rng = np.random.default_rng(seed)
    chosen = [_weighted_draw(rng, w)]
    dpow = None
    for _ in range(1, k):
        latest = _nearest_dist_pow(points, points[chosen[-1:]], z)[1]
        dpow = latest if dpow is None else np.minimum(dpow, latest)
        mass = dpow * w
        total = float(mass.sum())
        if total > 0.0:
            chosen.append(_weighted_draw(rng, mass))
        else:  # every remaining point coincides with a chosen center
            unchosen = np.setdiff1d(np.arange(n), np.array(chosen, dtype=int))
            chosen.append(int(unchosen[rng.integers(len(unchosen))]))
    return CenterSet(points[np.array(chosen, dtype=int)], z=z)


def _coordinate_median(cluster: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coordinate-wise weighted median of the rows of cluster.

    Per column, the smallest value whose cumulative weight reaches half
    the total, taken for all columns from one stable argsort and one
    cumulative sum along the rows.  With unit weights that is the order
    statistic at index ceil(N/2) - 1, which selection finds without a
    full sort.
    """
    if np.all(w == 1.0):
        h = (len(w) - 1) // 2
        return np.partition(cluster, h, axis=0)[h]
    order = np.argsort(cluster, axis=0, kind="stable")
    cum = np.cumsum(w[order], axis=0)
    first = np.argmax(cum >= 0.5 * cum[-1], axis=0)
    cols = np.arange(cluster.shape[1])
    return cluster[order[first, cols], cols]


def lloyd_with_outliers(
    P,
    k: int,
    m,
    z: int,
    max_iters: int = 50,
    seed=0,
    *,
    init: CenterSet | None = None,
    weights=None,
) -> SolveResult:
    """Lloyd alternation with the m farthest (weight units) set aside.

    Each iteration splits off m units of outlier weight at the current
    centers, assigns the kept weight to nearest centers, and recenters
    (mean for z=2; coordinate-wise weighted median for z=1, kept only
    when it does not worsen the cluster, so the cost never increases).
    Empty clusters are reseeded from the farthest kept point.
    """
    points = as_points(P)
    n = len(points)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    w = np.ones(n) if weights is None else WeightedSet(points, weights).weights
    total = float(np.sum(w))
    m = float(m)
    if not 0 <= m < total:
        raise ValueError(f"need 0 <= m < total weight {total}, got m={m}")
    if init is not None:
        if len(init) != k or init.dim != points.shape[1]:
            raise ValueError("init must supply k centers of matching dimension")
        centers = init.centers.copy()
    else:
        centers = kmeanspp_seed(points, k, z, seed, weights=weights).centers.copy()
    budget = total - m

    def evaluate(ctrs: np.ndarray):
        """Nearest center, its dist^z, kept weight and robust cost."""
        nearest, dmin = _nearest_dist_pow(points, ctrs, z)
        # Nearest-first, not core's drop: its roundoff steers empty-cluster
        # reseeds that criterion 11 relies on (CHANGES.md, the Lloyd FOUND:).
        order = np.argsort(dmin, kind="stable")
        kept = np.empty(n)
        kept[order] = _fill_sorted(w[order], budget)
        return nearest, dmin, kept, float(np.sum(kept * dmin))

    nearest, dmin, kept, prev_cost = evaluate(centers)
    iterations = 0
    for _ in range(max_iters):
        new_centers = centers.copy()
        for j in range(k):
            mask = (nearest == j) & (kept > 0)
            cw = kept[mask]
            if cw.sum() <= 0.0:
                alive = kept > 0
                far = int(np.argmax(np.where(alive, dmin, -np.inf)))
                new_centers[j] = points[far]
                continue
            cluster = points[mask]
            if z == 2:
                new_centers[j] = np.average(cluster, axis=0, weights=cw)
            else:
                proposal = _coordinate_median(cluster, cw)
                now = float(np.sum(cw * dmin[mask]))  # its points' nearest center is j
                new = float(np.sum(cw * _nearest_dist_pow(cluster, proposal[None, :], 1)[1]))
                if new <= now:
                    new_centers[j] = proposal
        centers = new_centers
        iterations += 1
        nearest, dmin, kept, cost = evaluate(centers)
        if prev_cost - cost <= 1e-9 * max(prev_cost, 1e-300):
            prev_cost = min(prev_cost, cost)
            break
        prev_cost = cost
    return SolveResult(
        centers=CenterSet(centers, z=z),
        cost=prev_cost,
        inlier_window=None,
        iterations=iterations,
    )
