"""Brute-force reference implementations used to pin down expected values.

Everything here is deliberately written as plain enumeration over a
different code path (math.dist, explicit loops, full allocation grids)
so that library results can be checked against an independent source of
truth.  These helpers are test-only and favour clarity over speed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def oracle_dist_pow(points, centers, z: int) -> np.ndarray:
    """dist(p, C)^z per point via math.dist, min over centers."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] and np.asarray(points).ndim == 1:
        pts = np.asarray(points, dtype=float).reshape(-1, 1)
    ctr = np.atleast_2d(np.asarray(centers, dtype=float))
    if ctr.shape[1] != pts.shape[1]:
        ctr = ctr.reshape(-1, pts.shape[1])
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        out[i] = min(math.dist(p, c) for c in ctr) ** z
    return out


def _allocation_grid(weights: np.ndarray) -> np.ndarray:
    """All integral outlier allocations 0 <= a_i <= w_i, one per row."""
    if len(weights) == 0:
        return np.zeros((1, 0))
    axes = [np.arange(int(w) + 1) for w in weights]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def oracle_weighted_cost_all_integer_m(points, weights, centers, z: int) -> np.ndarray:
    """Weighted robust cost for every integer m in [0, w(S)], by enumeration.

    Entry m of the result is the minimum of sum (w_i - a_i) * d_i over
    integral allocations with sum a_i = m.  Only valid for integer
    weights (the fractional split never helps when m is integral and
    weights are integers).
    """
    w = np.asarray(weights, dtype=float)
    assert np.all(w == np.round(w)), "oracle requires integer weights"
    d = oracle_dist_pow(points, centers, z)
    grid = _allocation_grid(w)
    removed = grid @ d
    msum = grid.sum(axis=1)
    total = float(w @ d)
    W = int(w.sum())
    best = np.full(W + 1, -np.inf)
    np.maximum.at(best, msum, removed)
    return total - best


def oracle_weighted_cost(points, weights, centers, z: int, m: float) -> float:
    """Weighted robust cost at one (possibly fractional) m, by enumeration.

    Tries every choice of the single fractionally-split point (plus the
    all-integral option) against every integral allocation on the rest.
    """
    w = np.asarray(weights, dtype=float)
    d = oracle_dist_pow(points, centers, z)
    total = float(w @ d)
    best = math.inf
    if float(m).is_integer():
        grid = _allocation_grid(w)
        ok = grid.sum(axis=1) == int(m)
        if np.any(ok):
            best = total - float((grid[ok] @ d).max())
    for v in range(len(w)):
        others = np.delete(np.arange(len(w)), v)
        grid = _allocation_grid(w[others])
        share = m - grid.sum(axis=1)
        ok = (share >= 0) & (share <= w[v])
        if not np.any(ok):
            continue
        removed = grid[ok] @ d[others] + share[ok] * d[v]
        best = min(best, total - float(removed.max()))
    return best


def oracle_weighted_cost_exact(points, weights, centers, z: int, m: float) -> float:
    """Weighted robust cost by a nearest-first fill in exact rational arithmetic.

    dist^z comes from oracle_dist_pow; every weight, m and product after
    that is a Fraction, so the only rounding is in the distances and in
    the final conversion to float.
    """
    d = oracle_dist_pow(points, centers, z)
    budget = sum((Fraction(float(w)) for w in weights), Fraction(0)) - Fraction(float(m))
    cost = Fraction(0)
    for i in sorted(range(len(d)), key=lambda i: (d[i], i)):
        if budget <= 0:
            break
        take = min(Fraction(float(weights[i])), budget)
        cost += take * Fraction(float(d[i]))
        budget -= take
    return float(cost)


def oracle_robust_cost(points, centers, z: int, m: int) -> float:
    """Unweighted robust cost: sort dist^z, drop the m largest."""
    d = np.sort(oracle_dist_pow(points, centers, z))
    keep = len(d) - m
    return float(sum(d[:keep]))


def brute_robust_median_1d(points, m: int) -> tuple[float, int, float]:
    """Exhaustive 1-d robust median: every window, every candidate center.

    Returns (cost, left_index, center) where the window is
    [left_index, left_index + n - m - 1], cost ties prefer the smallest
    left index, and the reported center is the lower median of the
    winning window (which always attains the window optimum).
    """
    pts = np.sort(np.asarray(points, dtype=float).reshape(-1))
    n = len(pts)
    length = n - m
    best_cost = math.inf
    best_l = -1
    for left in range(m + 1):
        window = pts[left : left + length]
        cost = min(float(np.sum(np.abs(window - c))) for c in window)
        if cost < best_cost:
            best_cost = cost
            best_l = left
    center = pts[best_l + (length - 1) // 2]
    return best_cost, best_l, float(center)


def oracle_window_at_center(pts, center: float, keep: int) -> tuple[int, int]:
    """Inlier window [lo, hi] of sorted pts at a center, by eviction.

    Evicts the farther end point by point; distance ties evict the
    right end, matching the canonical outlier tie-break.
    """
    lo, hi = 0, len(pts) - 1
    for _ in range(len(pts) - keep):
        if center - pts[lo] > pts[hi] - center:
            lo += 1
        else:
            hi -= 1
    return lo, hi


def oracle_evict_farthest_1d(coords, run_weight, center: float, budget: float) -> np.ndarray:
    """Kept weight per run of sorted coordinates, evicting farthest first.

    Two pointers walk in from both ends and drop weight from the
    farther run until only `budget` is left; ties drop the right end.
    """
    kept = np.asarray(run_weight, dtype=float).copy()
    excess = float(kept.sum()) - budget
    lo, hi = 0, len(kept) - 1
    while excess > 1e-12 and lo <= hi:
        g = lo if center - coords[lo] > coords[hi] - center else hi
        drop = min(excess, kept[g])
        kept[g] -= drop
        excess -= drop
        if kept[g] <= 1e-12:
            kept[g] = 0.0
            if g == lo:
                lo += 1
            else:
                hi -= 1
    return kept


def oracle_misalignment(xs, bounds, row_coords, row_weights, m: int, center: float) -> float:
    """Per-bucket outlier-count misalignment at one center, in plain Python.

    ``bounds`` holds each bucket's inclusive index range (l, r) in the
    sorted points ``xs``; bucket i has one row.  Both sides rank by
    (distance, index): P's outliers are its last m points in that
    order, and the rows give up m units of weight from the end of it.
    """
    xs = [float(x) for x in xs]
    ranked = sorted(range(len(xs)), key=lambda i: (abs(xs[i] - center), i))
    outliers = set(ranked[len(xs) - m :])
    counts = [sum(i in outliers for i in range(l, r + 1)) for l, r in bounds]
    rows = sorted(
        range(len(row_coords)), key=lambda j: (abs(float(row_coords[j]) - center), j)
    )
    evicted = [0.0] * len(rows)
    excess = float(m)
    for j in reversed(rows):
        evicted[j] = min(excess, float(row_weights[j]))
        excess -= evicted[j]
    return sum(abs(a - b) for a, b in zip(counts, evicted))


def tie_heavy_line(seed) -> tuple[np.ndarray, np.ndarray]:
    """Sorted points on a scaled integer grid plus centers to probe them.

    The grid has few distinct values, so equal coordinates and equal
    distances to both sides are common; the scale runs from 1e-2 to 1e8
    so the distance comparisons meet rounding.  Centers sit on every
    point, at every midpoint between distinct points and off the data
    on both sides.
    """
    rng = np.random.default_rng(seed)
    scale = 10.0 ** int(rng.integers(-2, 9))
    xs = np.sort(rng.integers(-6, 7, size=int(rng.integers(1, 41)))) * scale
    distinct = np.unique(xs)
    midpoints = (distinct[:-1] + distinct[1:]) / 2
    off = np.array([xs[0] - 2.5 * scale, xs[0] - 0.5 * scale,
                    xs[-1] + 0.5 * scale, xs[-1] + 7.0 * scale])
    return xs, np.concatenate([xs, midpoints, off])


def oracle_bucket_summary(xs, l: int, r: int) -> tuple[int, float]:
    """Count and mean of xs[l..r] (inclusive), the sum rounded once by math.fsum."""
    chunk = [float(x) for x in xs[l : r + 1]]
    return len(chunk), math.fsum(chunk) / len(chunk)


def oracle_ball_range(P_O, S_O, num_balls: int, seed) -> float:
    """ball_range_check by enumeration over the same balls.

    The balls are drawn exactly as the library draws them; every
    point-in-ball decision uses math.dist and every mass is summed by
    math.fsum.
    """
    pts = np.asarray(P_O, dtype=float)
    pts = pts.reshape(len(pts), -1)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(lo, hi, (num_balls, pts.shape[1])).tolist()
    radii = ((1.0 - rng.random(num_balls)) * max(diameter, 1e-300)).tolist()
    rows, srows = pts.tolist(), np.asarray(S_O.points, dtype=float).tolist()
    weights = [float(w) for w in S_O.weights]
    total = math.fsum(weights)
    worst = 0.0
    for c, r in zip(centers, radii):
        frac_p = math.fsum(1.0 for p in rows if math.dist(p, c) <= r) / len(rows)
        inside = [w for q, w in zip(srows, weights) if math.dist(q, c) <= r]
        worst = max(worst, abs(frac_p - math.fsum(inside) / total))
    return worst
