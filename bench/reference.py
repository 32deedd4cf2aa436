"""Reference computations the benchmark checks the program against.

Each function follows the definition directly and shares no code path
with ``rcoreset``: distances come from explicit coordinate differences,
robust costs from a full sort, the weighted robust cost from a
nearest-first fill written as a loop, and the 1-d optimum from a scan of
every inlier window.  They are meant for samples of the benchmark's
inputs, not for speed.
"""

from __future__ import annotations

import numpy as np


def dist_pow(points, centers, z: int) -> np.ndarray:
    """dist(p, C)^z for every row of points, from coordinate differences."""
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if ctr.ndim == 1:
        ctr = ctr[:, None]
    best = np.full(len(pts), np.inf)
    for c in ctr:
        diff = pts - c
        best = np.minimum(best, np.sqrt(np.sum(diff * diff, axis=1)))
    return best if z == 1 else best**z


def robust_cost(points, centers, z: int, m: int) -> float:
    """Sum of the n - m smallest dist^z values, by a full sort."""
    d = np.sort(dist_pow(points, centers, z))
    return float(np.sum(d[: len(d) - m]))


def weighted_robust_cost(points, weights, centers, z: int, m: float) -> float:
    """Drop m units of weight farthest first; the greedy-fill definition.

    Walks the rows nearest first and keeps each row's weight until the
    budget w(S) - m is spent, splitting at most one row.
    """
    d = dist_pow(points, centers, z)
    w = np.asarray(weights, dtype=np.float64)
    budget = float(np.sum(w)) - m
    cost = 0.0
    for i in np.argsort(d, kind="stable"):
        if budget <= 0.0:
            break
        take = min(float(w[i]), budget)
        cost += take * float(d[i])
        budget -= take
    return cost


def robust_median_1d(sorted_points, m: int) -> tuple[float, float]:
    """Exact robust 1-d median: (optimal cost, a center achieving it).

    The kept points of an optimal solution form a window of n - m
    consecutive sorted points, centred at the window's median; each of
    the m + 1 windows is scored from prefix sums.
    """
    x = np.asarray(sorted_points, dtype=np.float64).reshape(-1)
    n = len(x)
    length = n - m
    prefix = np.concatenate(([0.0], np.cumsum(x)))
    half = length // 2
    lefts = np.arange(m + 1)
    # Window [l, l + length): the upper half minus the lower half, the
    # middle point cancelling when the length is odd.
    lower = prefix[lefts + half] - prefix[lefts]
    upper = prefix[lefts + length] - prefix[lefts + length - half]
    costs = upper - lower
    at = int(np.argmin(costs))
    return float(costs[at]), float(x[at + (length - 1) // 2])


def assumption_report(points, centers, z: int, m: int, k: int) -> dict:
    """Cluster sizes, r_max, r_bar and both assumption conditions.

    The m farthest points (ties to the larger index) are set aside; the
    rest go to their nearest center, ties to the lower center index.
    cond1 asks every cluster to keep 4m points, cond2 asks
    (r_max / r_bar)^z <= 4k with r_bar the z-mean radius.
    """
    pts = np.asarray(points, dtype=np.float64)
    ctr = np.asarray(centers, dtype=np.float64)
    dists = np.stack(
        [np.sqrt(np.sum((pts - c) * (pts - c), axis=1)) for c in ctr], axis=1
    )
    nearest = np.argmin(dists, axis=1)
    dmin = dists[np.arange(len(pts)), nearest]
    order = np.lexsort((np.arange(len(pts)), dmin))
    kept = order[: len(pts) - m]
    sizes = [int(np.sum(nearest[kept] == j)) for j in range(k)]
    r_max = float(np.max(dmin[kept]))
    r_bar = float(np.mean(dmin[kept] ** z)) ** (1.0 / z)
    cond1 = min(sizes) >= 4 * m
    cond2 = (r_max / r_bar) ** z <= 4 * k if r_bar > 0 else r_max == 0
    return {
        "cluster_sizes": sizes,
        "r_max": r_max,
        "r_bar": r_bar,
        "cond1": bool(cond1),
        "cond2": bool(cond2),
    }
