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

Every stage only decides where buckets start: a build cuts the sorted
points first, then summarises every bucket as (mean, count) in one
vectorised pass (``bucket_stats`` is that pass on one range).
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
    "BlockPartition",
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

_OUTWARD_SIDES = ("L", "R")  # sides where a far region exists


@dataclass(frozen=True)
class Bucket:
    """A contiguous index range of the sorted dataset with its summary."""

    l: int
    r: int
    count: int
    mean: float
    cum_err: float


@dataclass(frozen=True)
class Block:
    """A contiguous run of fringe points sharing one distance class.

    ``data`` is the side array the indices refer to (l, r inclusive);
    ``level`` is None for far blocks.
    """

    data: np.ndarray
    l: int
    r: int
    side: str  # 'L' or 'LR' (left fringe), 'RL' or 'R' (right fringe)
    level: int | None

    @property
    def far(self) -> bool:
        return self.level is None


@dataclass(frozen=True)
class BlockPartition:
    """Distance-class decomposition of both fringes around the anchors."""

    far_left: list[Block]
    far_right: list[Block]
    inner: dict[tuple[str, int], Block]
    c_L: float
    c_R: float
    r_max: float

    def all_blocks(self) -> list[Block]:
        return [*self.far_left, *self.far_right, *self.inner.values()]


def _summarise(pts: np.ndarray, starts) -> tuple[WeightedSet, list[Bucket]]:
    """Coreset rows and buckets of pts cut at the ascending starts (from 0).

    Bucket i is pts[starts[i] : starts[i + 1]], the last one running to
    the end.  One pass: counts from the cuts, means and cum_err from one
    reduceat each, with the deviations as the only n-length temporary.
    """
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.diff(starts, append=len(pts))
    means = np.add.reduceat(pts, starts) / counts
    dev = np.repeat(means, counts)
    np.subtract(pts, dev, out=dev)
    errs = np.add.reduceat(np.abs(dev, out=dev), starts)
    cols = (starts, starts + counts - 1, counts, means, errs)
    buckets = list(map(Bucket, *(c.tolist() for c in cols)))
    return WeightedSet(means.reshape(-1, 1), counts.astype(np.float64)), buckets


def bucket_stats(P_sorted, l: int, r: int) -> Bucket:
    """Summarise the inclusive index range [l, r] of a sorted array.

    It runs the builders' summary pass, so it returns a build's bucket bit for bit.
    """
    pts = np.asarray(P_sorted, dtype=np.float64).reshape(-1)
    l = operator.index(l)
    r = operator.index(r)
    if not 0 <= l <= r < len(pts):
        raise ValueError(f"bucket range [{l}, {r}] out of bounds for n={len(pts)}")
    (one,) = _summarise(pts[l : r + 1], [0])[1]
    return Bucket(l, r, one.count, one.mean, one.cum_err)


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


def _runs(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal constant runs of labels as (label, start, stop_inclusive)."""
    if len(labels) == 0:
        return []
    breaks = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], breaks))
    stops = np.concatenate((breaks - 1, [len(labels) - 1]))
    return [(int(labels[a]), int(a), int(b)) for a, b in zip(starts, stops)]


def partition_blocks(P_L, P_R, c_L: float, c_R: float, r_max: float, eps: float) -> BlockPartition:
    """Classify both fringes into far blocks and doubling distance levels.

    Left fringe: points strictly below c_L are far once their distance
    to c_L reaches r_max, otherwise they join level i with
    2^i * eps * r_max <= dist < 2^(i+1) * eps * r_max (side 'L'); points
    at or above c_L join the same levels by distance on side 'LR'.  The
    right fringe mirrors this around c_R with sides 'R' and 'RL' (the
    point exactly at c_R counts as 'RL').  Block indices are local to
    the fringe array they came from.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    left = np.asarray(P_L, dtype=np.float64).reshape(-1)
    right = np.asarray(P_R, dtype=np.float64).reshape(-1)
    top = max(1, math.ceil(math.log2(1.0 / eps)))
    far_left: list[Block] = []
    far_right: list[Block] = []
    inner: dict[tuple[str, int], Block] = {}

    def classify_side(values: np.ndarray, anchor: float, side_out: str, side_in: str) -> None:
        if len(values) == 0:
            return
        mask_out = values < anchor if side_out == "L" else values > anchor
        dist = np.abs(values - anchor)
        is_far = mask_out & (dist >= r_max)
        labels = np.where(
            is_far,
            -1,
            _classify_levels(dist, eps, r_max, top) if r_max > 0 else 0,
        )
        base_side = np.where(mask_out, 0, 1)  # 0 = outward side, 1 = inward side
        if r_max == 0.0:
            # Degenerate limit: level intervals are empty, inward points
            # all sit at distance 0 and join level 0; outward points with
            # positive distance fall back to the top level.
            labels = np.where(is_far, -1, np.where(dist > 0, top, 0))
        combined = base_side * (top + 2) + labels  # unique label per (side, class)
        for _, start, stop in _runs(combined):
            far = bool(labels[start] == -1)
            side = side_out if base_side[start] == 0 else side_in
            if far:
                blk = Block(values, start, stop, side, None)
                (far_left if side == "L" else far_right).append(blk)
            else:
                level = int(labels[start])
                blk = Block(values, start, stop, side, level)
                key = (side, level)
                assert key not in inner, f"distance class {key} split across runs"
                inner[key] = blk

    classify_side(left, c_L, "L", "LR")
    classify_side(right, c_R, "R", "RL")
    return BlockPartition(
        far_left=far_left,
        far_right=far_right,
        inner=inner,
        c_L=float(c_L),
        c_R=float(c_R),
        r_max=float(r_max),
    )


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


def split_block(block: Block, eps: float, n: int, r_max: float) -> list[int]:
    """Chop one block into greedy maximal buckets under its level's caps.

    Inner blocks of level i obey cum_err <= 2^i * eps^2 * n * r_max /
    DEFAULT_DELTA_CONSTANT and count <= eps*n/16 (at least 1); far blocks
    (level None) obey the count cap alone.  Returns the bucket starts,
    indices into block.data.
    """
    count_cap = max(1, int(math.floor(eps * n / 16.0)))
    if block.far:
        delta_cap = None
    else:
        delta_cap = (2.0**block.level) * eps * eps * n * r_max / DEFAULT_DELTA_CONSTANT
    return _greedy_buckets(block.data, block.l, block.r, delta_cap, count_cap, None)


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
    for _, start, stop in _runs(combined):
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
    if m > 0:
        window = _line_window_starts(pts, pts[[m, n - m - 1]], n - m)
        edges = np.concatenate((window, window + n - m))
        cuts = np.concatenate((cuts, edges[(edges > 0) & (edges < n)]))
    return np.unique(cuts)


@dataclass(frozen=True)
class Robust1dBuild:
    """Full build record: the coreset plus the buckets behind each row.

    The anchors (partition, center, r_max, window) are None when m = 0.
    """

    coreset: WeightedSet
    buckets: list[Bucket]
    partition: BlockPartition | None = None
    center: float | None = None
    r_max: float | None = None
    window: tuple[int, int] | None = None


def build_robust_1d_full(
    P_sorted,
    m: int,
    eps: float,
    *,
    allow_small_n: bool = False,
) -> Robust1dBuild:
    """Robust 1-d coreset build returning buckets and anchors alongside."""
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
    if m == 0:
        return Robust1dBuild(*_summarise(pts, _vanilla_buckets(pts, 0, n, eps / 3.0)))
    solve = robust_median_1d(pts, m)
    left, right = solve.inlier_window
    center = float(solve.centers.centers[0, 0])
    r_max = float(max(center - pts[left], pts[right] - center))
    # Under the override the fringes may meet (n < 2m); shrink the right
    # fringe so the three zones stay a partition of the indices.
    right_base = max(n - m, m)
    starts = _vanilla_buckets(pts, m, n - m, eps / 3.0)
    part = partition_blocks(pts[:m], pts[right_base:], center - r_max, center + r_max, r_max, eps)
    for block in part.all_blocks():
        base = 0 if block.side in ("L", "LR") else right_base
        starts.extend(base + s for s in split_block(block, eps, n, r_max))
    # The window edges lie in [0, m] or [n - m, n]: they cut fringe buckets only.
    coreset, buckets = _summarise(pts, boundary_split(starts, pts, m))
    return Robust1dBuild(
        coreset=coreset,
        buckets=buckets,
        partition=part,
        center=center,
        r_max=r_max,
        window=(left, right),
    )


def build_robust_1d(P_sorted, m: int, eps: float, *, allow_small_n: bool = False) -> WeightedSet:
    """Coreset for the robust 1-d geometric median with m outliers.

    Requires n >= 4m unless allow_small_n is set (the build then runs
    without its quality guarantee).  Output weights sum to n exactly.
    """
    return build_robust_1d_full(P_sorted, m, eps, allow_small_n=allow_small_n).coreset
