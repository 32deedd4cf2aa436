"""Coresets for the robust geometric median on the line.

The robust builder keeps three zones of the sorted input: the middle
n - 2m points are compressed by the vanilla 1-d coreset subroutine, and
the m-point fringes on each side are partitioned into distance blocks
around the anchors c_L = c* - r_max and c_R = c* + r_max (c* the exact
robust median, r_max its inlier radius).  Each block is chopped greedily
into buckets whose cumulative error and size stay below level-scaled
caps, and cut again at the inlier-window edges of the two boundary
centers.

The vanilla subroutine reuses the same block/bucket machinery centered
at the plain median with scale r_bar (the average absolute deviation).
Its far region is realised as extra levels continuing past the nominal
top level so that distant mass stays error-capped in proportion to its
distance.  Both share the cap denominator ``DEFAULT_DELTA_CONSTANT``, a
module constant read at call time.

Every block and bucket is an index range of the one sorted input, and
every stage only decides where buckets start: a build cuts the sorted
points first, then summarises each bucket as a (mean, count) row in one
vectorised pass.  One path serves every m: at m = 0 the fringes are
empty and no window edge cuts, so the build is the vanilla one at eps/3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from rcoreset.core import (
    AssumptionViolationError,
    WeightedSet,
    _abs_dev_sum,
    _line_window_starts,
    _sums_outward,
    _validated_sorted,
)
from rcoreset.solver import robust_median_1d

__all__ = [
    "Block",
    "Bucket",
    "Robust1dBuild",
    "boundary_split",
    "bucket_stats",
    "build_robust_1d",
    "build_robust_1d_full",
    "build_vanilla_1d",
    "partition_blocks",
    "split_block",
    "DEFAULT_DELTA_CONSTANT",
]

# Denominator of the per-level cumulative-error caps.  Smaller values
# loosen the caps (fewer buckets, larger error); the default matches the
# published robust-side cap and is reused by the vanilla subroutine.
DEFAULT_DELTA_CONSTANT = 288.0


@dataclass(frozen=True)
class Bucket:
    """Inclusive index range [l, r] of the sorted dataset; its row is (mean, count)."""

    l: int
    r: int


@dataclass(frozen=True)
class Block:
    """A run of fringe points sharing one distance class.

    It is the inclusive index range [l, r] of the sorted input;
    ``level`` is None for far blocks.
    """

    l: int
    r: int
    side: str  # 'L' or 'LR' (left fringe), 'RL' or 'R' (right fringe)
    level: int | None

    @property
    def far(self) -> bool:
        return self.level is None


def _summarise(pts: np.ndarray, starts) -> tuple[WeightedSet, list[Bucket]]:
    """Coreset rows and buckets of pts cut at the ascending starts (from 0).

    Bucket i is pts[starts[i] : starts[i + 1]], the last one running to
    the end.  Counts come from the cuts and means from one reduceat.
    """
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.diff(starts, append=len(pts))
    means = np.add.reduceat(pts, starts) / counts
    buckets = list(map(Bucket, starts.tolist(), (starts + counts - 1).tolist()))
    return WeightedSet(means.reshape(-1, 1), counts.astype(np.float64)), buckets


def bucket_stats(P_sorted, l: int, r: int) -> tuple[int, float, float]:
    """(count, mean, cum_err) of the inclusive index range [l, r] of a sorted array.

    cum_err is the sum of |x - mean| over the range.  The mean comes from
    the builders' summary pass, so it equals a build's row bit for bit.
    """
    pts = np.asarray(P_sorted, dtype=np.float64).reshape(-1)
    l, r = operator.index(l), operator.index(r)
    if not 0 <= l <= r < len(pts):
        raise ValueError(f"bucket range [{l}, {r}] out of bounds for n={len(pts)}")
    seg = pts[l : r + 1]
    mean = float(_summarise(seg, [0])[0].points[0, 0])
    return r - l + 1, mean, float(np.sum(np.abs(seg - mean)))


def _level_edges(eps: float, scale: float, top_level: int) -> np.ndarray:
    """Upper edges of levels 0..top_level: edge[i] = 2^(i+1) * eps * scale."""
    return (2.0 ** np.arange(1, top_level + 2)) * eps * scale


def _classify_levels(dists: np.ndarray, eps: float, scale: float, top_level: int) -> np.ndarray:
    """Level index per distance: level 0 below 2*eps*scale, then doubling.

    Distances at or above the top edge are clamped to the top level
    (reachable only in degenerate or override regimes).
    """
    edges = _level_edges(eps, scale, top_level)
    return np.minimum(np.searchsorted(edges, dists, side="right"), top_level)


def _runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """Maximal constant runs of labels as (start, stop_inclusive)."""
    if len(labels) == 0:
        return []
    breaks = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], breaks))
    stops = np.concatenate((breaks - 1, [len(labels) - 1]))
    return [(int(a), int(b)) for a, b in zip(starts, stops)]


def partition_blocks(pts, m: int, center: float, r_max: float, eps: float) -> list[Block]:
    """Classify both m-point fringes of pts into far blocks and distance levels.

    The left fringe pts[:m] is classified around c_L = center - r_max:
    points strictly below c_L are far once their distance to c_L reaches
    r_max, otherwise they join level i with 2^i * eps * r_max <= dist <
    2^(i+1) * eps * r_max (side 'L'); points at or above c_L join the
    same levels by distance on side 'LR'.  The right fringe
    pts[max(n - m, m):] mirrors this around c_R = center + r_max with
    sides 'R' and 'RL' (the point exactly at c_R counts as 'RL'); it
    shrinks when n < 2m so the fringes never overlap.  With r_max = 0 the
    levels are empty: points at the anchor join level 0 and the others
    the top level.  Blocks come back in index order.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    pts = np.asarray(pts, dtype=np.float64).reshape(-1)
    n = len(pts)
    top = max(1, math.ceil(math.log2(1.0 / eps)))
    blocks: list[Block] = []
    fringes = ((0, m, center - r_max, "L", "LR"), (max(n - m, m), n, center + r_max, "R", "RL"))
    for lo, hi, anchor, side_out, side_in in fringes:
        values = pts[lo:hi]
        outward = values < anchor if side_out == "L" else values > anchor
        dist = np.abs(values - anchor)
        levels = (
            _classify_levels(dist, eps, r_max, top) if r_max > 0 else np.where(dist > 0, top, 0)
        )
        labels = np.where(outward & (dist >= r_max), -1, levels)  # -1 = far
        combined = np.where(outward, 0, top + 2) + labels  # unique label per (side, class)
        for start, stop in _runs(combined):
            side = side_out if outward[start] else side_in
            level = None if labels[start] == -1 else int(labels[start])
            blocks.append(Block(lo + start, lo + stop, side, level))
    return blocks


def _greedy_buckets(
    pts: np.ndarray,
    l: int,
    r: int,
    delta_cap: float | None,
    count_cap: int | None,
    product_cap: float | None,
) -> list[int]:
    """Starts of the greedy left-to-right maximal buckets covering pts[l..r].

    Feasibility (cum_err, count, count*length below their caps) is
    monotone when the right end grows, so each maximal bucket is found
    by binary search.  Singletons are always feasible.  A range's
    cum_err comes in O(log) from sums of pts - pts[h], accumulated
    outward from the median index h of [l, r], so it does not depend
    on where the data sits.
    """
    seg = pts[l : r + 1]
    h = (r - l) // 2
    y = seg - seg[h]
    F = _sums_outward(y, h)

    def ok(a: int, b: int) -> bool:
        cnt = b - a + 1
        if count_cap is not None and cnt > count_cap:
            return False
        if product_cap is not None and cnt * (seg[b] - seg[a]) > product_cap:
            return False
        if delta_cap is not None:
            mu = (F[b + 1] - F[a]) / cnt
            j = min(max(int(y.searchsorted(mu, side="right")), a), b + 1)
            if _abs_dev_sum(F, a, b + 1, mu, j) > delta_cap:
                return False
        return True

    out: list[int] = []
    a, last = 0, r - l
    while a <= last:
        out.append(l + a)
        if ok(a, last):
            break
        lo, hi = a, last  # ok(a, lo) holds, ok(a, hi) fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(a, mid):
                lo = mid
            else:
                hi = mid
        a = lo + 1
    return out


def split_block(pts: np.ndarray, block: Block, eps: float, n: int, r_max: float) -> list[int]:
    """Chop one block into greedy maximal buckets under its level's caps.

    Inner blocks of level i obey cum_err <= 2^i * eps^2 * n * r_max /
    DEFAULT_DELTA_CONSTANT and count <= eps*n/16 (at least 1); far blocks
    (level None) obey the count cap alone.  Returns the bucket starts,
    indices into pts.
    """
    count_cap = max(1, int(math.floor(eps * n / 16.0)))
    if block.far:
        delta_cap = None
    else:
        delta_cap = (2.0**block.level) * eps * eps * n * r_max / DEFAULT_DELTA_CONSTANT
    return _greedy_buckets(pts, block.l, block.r, delta_cap, count_cap, None)


def _vanilla_buckets(pts: np.ndarray, lo: int, hi: int, eps: float) -> list[int]:
    """Bucket starts (indices into pts) of the vanilla coreset on pts[lo:hi].

    Blocks double in distance from the slice median with scale r_bar =
    average absolute deviation; levels continue past the nominal top so
    every point is distance-proportionally capped.  Each level-i bucket
    obeys cum_err <= cap_i and count*length <= cap_i with cap_i =
    2^i * eps^2 * n_sub * r_bar / DEFAULT_DELTA_CONSTANT.
    """
    n_sub = hi - lo
    if n_sub <= 0:
        return []
    med = lo + (n_sub - 1) // 2
    dist = np.abs(pts[lo:hi] - pts[med])
    r_bar = float(np.mean(dist))
    if r_bar == 0.0:
        return [lo]
    max_dist = float(dist.max())
    top = max(1, math.ceil(math.log2(max(max_dist, 2.0 * eps * r_bar) / (eps * r_bar))))
    labels = _classify_levels(dist, eps, r_bar, top)
    # Two monotone sides: left of the median (distance decreasing) and
    # the median onward (increasing); runs are contiguous inside each.
    side = (np.arange(lo, hi) >= med).astype(np.int64)
    combined = side * (top + 2) + labels
    out: list[int] = []
    for start, stop in _runs(combined):
        cap = (2.0 ** int(labels[start])) * eps * eps * n_sub * r_bar / DEFAULT_DELTA_CONSTANT
        out.extend(_greedy_buckets(pts, lo + start, lo + stop, cap, None, cap))
    return out


def build_vanilla_1d(P_sorted, eps: float) -> WeightedSet:
    """Coreset for the (non-robust) 1-d geometric median: (mean, count) buckets."""
    pts = _validated_sorted(P_sorted)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return _summarise(pts, _vanilla_buckets(pts, 0, len(pts), eps))[0]


def boundary_split(starts, P_sorted, m: int) -> np.ndarray:
    """Realign bucket starts with the inlier windows of the two boundary centers.

    The windows of centers p_(m+1) and p_(n-m) (1-based) are those of
    the farthest-out eviction of the robust split, right end first on
    distance ties, found by bisection over the sorted points.  Their
    edges inside (0, n) join the starts, so any bucket partially inside
    either window is split at the window edge and at most four buckets
    gain a twin.  Returns the sorted union; m = 0 adds no cut.
    """
    pts = _validated_sorted(P_sorted)
    n = len(pts)
    m = operator.index(m)
    cuts = np.asarray(starts, dtype=np.intp)
    window = _line_window_starts(pts, pts[[m, n - m - 1]], n - m)
    edges = np.concatenate((window, window + n - m))
    return np.unique(np.concatenate((cuts, edges[(edges > 0) & (edges < n)])))


@dataclass(frozen=True)
class Robust1dBuild:
    """Full build record: the coreset plus the buckets behind each row.

    Every bucket is an index range of the one sorted input, and so is
    every fringe block the build cut it from.  The anchors (the robust
    median, its inclusive inlier window and radius) are set for every m.
    """

    coreset: WeightedSet
    buckets: list[Bucket]
    center: float
    r_max: float
    window: tuple[int, int]


def build_robust_1d_full(
    P_sorted,
    m: int,
    eps: float,
    *,
    allow_small_n: bool = False,
) -> Robust1dBuild:
    """Robust 1-d coreset build returning buckets and anchors alongside, for every m."""
    pts = _validated_sorted(P_sorted)
    n = len(pts)
    m = operator.index(m)
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0 <= m < n:
        raise ValueError(f"need 0 <= m < |P|, got m={m}, |P|={n}")
    if n < 4 * m and not allow_small_n:
        raise AssumptionViolationError(
            f"robust 1-d builder needs n >= 4m (n={n}, m={m}); "
            "pass allow_small_n=True to build anyway without guarantees"
        )
    solve = robust_median_1d(pts, m)
    left, right = solve.inlier_window
    center = float(solve.centers.centers[0, 0])
    r_max = float(max(center - pts[left], pts[right] - center))
    starts = _vanilla_buckets(pts, m, n - m, eps / 3.0)
    for block in partition_blocks(pts, m, center, r_max, eps):
        starts.extend(split_block(pts, block, eps, n, r_max))
    # The window edges lie in [0, m] or [n - m, n]: they cut fringe buckets only.
    coreset, buckets = _summarise(pts, boundary_split(starts, pts, m))
    return Robust1dBuild(coreset, buckets, center, r_max, (left, right))


def build_robust_1d(P_sorted, m: int, eps: float, *, allow_small_n: bool = False) -> WeightedSet:
    """Coreset for the robust 1-d geometric median with m outliers.

    Requires n >= 4m unless allow_small_n is set (the build then runs
    without its quality guarantee).  Output weights sum to n exactly.
    """
    return build_robust_1d_full(P_sorted, m, eps, allow_small_n=allow_small_n).coreset
