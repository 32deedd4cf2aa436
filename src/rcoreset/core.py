"""Exact robust cost evaluation for unweighted and weighted point sets.

Points live in Euclidean space and are passed around as float64 numpy
arrays of shape ``(n, d)``; a plain 1-d array is accepted wherever a
point collection is expected and is interpreted as ``n`` points on the
real line.  The robust cost of a point set at a center set drops the
``m`` farthest points; the weighted generalisation instead drops ``m``
units of weight, splitting at most one point fractionally at the
inlier/outlier boundary.

Every robust cost and inlier assignment drops farthest-first, ties at
equal distance dropping the larger dataset index first.  That order has
one home, ``_farthest`` (the last r entries of the stable argsort, found
by one selection), and so does the count of rows that can hold the m
units, ``_drop_bound``.  The weighted fill sorts only those rows, and
its running sums are over the dropped weight only, so its rounding
is at the scale of m, not of w(S).  A point wholly inside the m units
keeps exactly 0 only when those running sums are exact; otherwise the
point at the boundary may keep a residue of a few ulps of m.  The batch
evaluators' costs do not depend on the tie order, so they take ties in
whatever order their selections leave.  All operations are pure
functions over inputs they never mutate and are safe to call from
multiple threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AssumptionViolationError",
    "CenterSet",
    "InlierAssignment",
    "WeightedSet",
    "as_points",
    "dist",
    "inlier_assignment",
    "outlier_split",
    "robust_cost",
    "robust_cost_many",
    "robust_cost_weighted",
    "robust_cost_weighted_many",
]


class AssumptionViolationError(ValueError):
    """An input violates a structural assumption a guarantee depends on.

    Raised when a builder is invoked outside its supported regime (for
    example fewer than 4m points for m outliers).  Callers may bypass
    the check where an override is documented; quality guarantees are
    then void.
    """


def as_points(points) -> np.ndarray:
    """Normalise a point collection to a float64 array of shape (n, d).

    1-d input is treated as n points on the real line.  Non-finite
    coordinates are rejected.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"points must be a 1-d or 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] and arr.shape[1] < 1:
        raise ValueError("points must have dimension d >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("points contain non-finite coordinates")
    return arr


@dataclass(frozen=True)
class WeightedSet:
    """A finite point set with strictly positive per-point weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = as_points(self.points)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(w) != len(pts):
            raise ValueError(f"{len(pts)} points but {len(w)} weights")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite values")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class CenterSet:
    """k candidate centers together with the cost exponent z in {1, 2}."""

    centers: np.ndarray
    z: int = 1

    def __post_init__(self) -> None:
        pts = as_points(self.centers)
        if len(pts) < 1:
            raise ValueError("a CenterSet needs at least one center")
        if self.z not in (1, 2):
            raise ValueError(f"z must be 1 or 2, got {self.z}")
        object.__setattr__(self, "centers", pts)

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class InlierAssignment:
    """The weight function w' achieving the weighted robust cost.

    ``kept_weight[i]`` is the inlier weight w'(p_i) retained for point i;
    ``partial_index`` locates the unique point with 0 < w' < w, if any.
    """

    kept_weight: np.ndarray
    partial_index: int | None


def dist(p, q) -> float:
    """Euclidean distance between two points of equal dimension."""
    a = np.atleast_1d(np.asarray(p, dtype=np.float64))
    b = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _check_dims(points: np.ndarray, centers: CenterSet) -> None:
    if points.shape[0] and points.shape[1] != centers.dim:
        raise ValueError(
            f"points have dimension {points.shape[1]} but centers have {centers.dim}"
        )


def _nearest_dist_pow(
    points: np.ndarray, centers: np.ndarray, z: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center per point (ties to the lower index) and dist(p, C)^z.

    Distances are formed from explicit coordinate differences, which
    avoids the cancellation error of the inner-product expansion used by
    the batched evaluators.  Centers go in the outer loop: each fills one
    reused (width, d) tile of _EXACT_BLOCK_FLOATS floats, and every block
    of width rows is subtracted from that tile, an array of its own shape,
    so numpy runs the subtraction as one flat loop instead of one loop of
    d per row.  Each row's squared distance is the same einsum over the
    same differences as a whole-array pass, and a row moves to center j
    only when j is strictly closer, so the result does not depend on the
    block size.  No temporary grows with n or the number of centers.
    """
    n, d = points.shape
    nearest = np.zeros(n, dtype=np.intp)
    best = np.empty(n)
    width = max(1, _EXACT_BLOCK_FLOATS // max(d, 1))
    tile, diff = np.empty((2, min(width, n), d))
    d2, closer = np.empty(len(tile)), np.empty(len(tile), dtype=bool)
    for j, c in enumerate(centers):
        tile[...] = c
        for lo in range(0, n, width):
            rows = points[lo : lo + width]
            h = len(rows)
            dj = np.subtract(rows, tile[:h], out=diff[:h])
            low = best[lo : lo + h]
            if j == 0:
                np.einsum("ij,ij->i", dj, dj, out=low)
                continue
            sq = np.einsum("ij,ij->i", dj, dj, out=d2[:h])
            np.copyto(nearest[lo : lo + h], j, where=np.less(sq, low, out=closer[:h]))
            np.minimum(low, sq, out=low)
    return nearest, (np.sqrt(best) if z == 1 else best)


def _as_outlier_count(m, limit: float, what: str):
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > limit:
        raise ValueError(f"m = {m} exceeds {what} = {limit}")
    return m


def robust_cost(P, C: CenterSet, m: int) -> float:
    """Sum of dist(p, C)^z over P without outlier_split's m outliers."""
    points = as_points(P)
    m = operator.index(m)
    _as_outlier_count(m, len(points), "|P|")
    far, _, dpow = _split_far(points, C, m)
    return float(np.sum(dpow[~far]))


def robust_cost_weighted(S: WeightedSet, C: CenterSet, m: float) -> float:
    """Weighted robust cost: drop m units of weight, farthest first.

    Equals the minimum of sum w'(p) * dist(p, C)^z over weight functions
    0 <= w' <= w with total w(S) - m.  The minimiser drops whole weights
    farthest-first, ties to the larger index first, and splits at most
    one point.
    """
    cost, _, _ = _weighted_fill(S, C, m)
    return cost


def inlier_assignment(S: WeightedSet, C: CenterSet, m: float) -> InlierAssignment:
    """The weight function w' achieving robust_cost_weighted(S, C, m).

    Points inside the m units dropped farthest-first keep 0, up to the
    fill's rounding at the scale of m (see the module docstring).
    """
    _, kept, partial = _weighted_fill(S, C, m)
    return InlierAssignment(kept_weight=kept, partial_index=partial)


def _fill_sorted(w_sorted: np.ndarray, budget: float) -> np.ndarray:
    """What a budget takes of weights in their order along axis 0.

    Each entry takes clip(budget - weight sorted ahead of it, 0, w), so
    the budget fills whole weights in order and splits at most one.
    Sorted nearest-first this is the kept weight; sorted farthest-first
    with budget m, the dropped weight.
    """
    ahead = np.zeros_like(w_sorted)
    np.cumsum(w_sorted[:-1], axis=0, out=ahead[1:])
    return np.clip(budget - ahead, 0.0, w_sorted)


def _farthest(dpow: np.ndarray, r: int) -> np.ndarray:
    """Mask of the last r entries of the stable argsort of dpow, in O(n).

    One selection finds the cut value at position n - r of the sorted
    dpow.  Every entry above it is marked, then the entries equal to it
    with the largest indices: among ties the larger index is farther.
    Needs 0 <= r <= n.
    """
    n = len(dpow)
    if r == 0:
        return np.zeros(n, dtype=bool)
    cut = np.partition(dpow, n - r)[n - r]
    far = dpow > cut
    at_cut = np.flatnonzero(dpow == cut)
    short = r - np.count_nonzero(far)
    far[at_cut[len(at_cut) - short :]] = True
    return far


def _drop_bound(w: np.ndarray, m: float) -> int:
    """A count r of rows such that any r rows of w hold m units, capped at n.

    r is the smallest count whose r smallest weights sum to at least m,
    plus one row of slack: that row weighs at least the mean of those
    before it, which covers the cumsum's relative rounding j 2^-53 for
    any j < 6e7 rows.  So m units dropped farthest-first lie among the
    r farthest rows, and every other row keeps its weight whole.
    """
    return min(len(w), int(np.searchsorted(np.cumsum(np.sort(w)), m)) + 2)


def _drop_farthest(dpow: np.ndarray, w: np.ndarray, m: float) -> np.ndarray:
    """Kept weight per row once m units are dropped farthest-first.

    Only the r = _drop_bound(w, m) farthest rows, marked by _farthest,
    can give up weight.  They alone are stable-sorted, and _fill_sorted
    gives up m units along their reversed order, so ties drop the larger
    index first.  Every other row keeps its weight untouched, and m = w(S)
    keeps nothing.  O(n + r log r) past the sort of w.
    """
    if m == float(np.sum(w)):
        return np.zeros_like(w)
    rows = np.flatnonzero(_farthest(dpow, _drop_bound(w, m)))
    order = rows[np.argsort(dpow[rows], kind="stable")[::-1]]
    kept = w.copy()
    kept[order] -= _fill_sorted(w[order], m)
    return kept


def _weighted_fill(
    S: WeightedSet, C: CenterSet, m: float
) -> tuple[float, np.ndarray, int | None]:
    """Drop m units of weight farthest-first; return (cost, w', partial)."""
    _check_dims(S.points, C)
    m = _as_outlier_count(float(m), S.total_weight, "w(S)")
    dpow = _nearest_dist_pow(S.points, C.centers, C.z)[1]
    kept = _drop_farthest(dpow, S.weights, m)
    inliers = kept > 0
    cost = float(np.sum(kept[inliers] * dpow[inliers]))
    partial = np.flatnonzero(inliers & (kept < S.weights))
    return cost, kept, (int(partial[0]) if len(partial) else None)


def outlier_split(P, C: CenterSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split indices of P into (inliers, outliers) at the center set.

    The outliers are the m points of largest dist(·, C)^z; ties at the
    cut go to the larger dataset index.  Both index arrays come back
    sorted ascending.  Past the distance pass the split is one O(n)
    selection, not a sort.
    """
    points = as_points(P)
    m = operator.index(m)
    _as_outlier_count(m, len(points), "|P|")
    far = _split_far(points, C, m)[0]
    return np.flatnonzero(~far), np.flatnonzero(far)


def _split_far(
    points: np.ndarray, C: CenterSet, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of outlier_split's m outliers, nearest center and dist^z per point.

    ``points`` is an (n, d) float64 array and 0 <= m <= n.  The mask is
    _farthest(dpow, m): the m points of largest dist^z, ties at the cut
    going to the larger dataset index, found in O(n).
    """
    _check_dims(points, C)
    nearest, dpow = _nearest_dist_pow(points, C.centers, C.z)
    return _farthest(dpow, m), nearest, dpow


def _prepare_center_batch(centers, dim: int) -> np.ndarray:
    """Normalise a batch of center sets to shape (T, k, dim)."""
    arr = np.asarray(centers, dtype=np.float64)
    if arr.ndim == 1:  # T centers on the real line, k = 1
        arr = arr.reshape(-1, 1, 1)
    elif arr.ndim == 2:  # (T, d) singles
        arr = arr[:, None, :]
    if arr.ndim != 3 or arr.shape[2] != dim:
        raise ValueError(f"center batch must have shape (T, k, {dim})")
    if arr.shape[1] < 1:
        raise ValueError("a center set needs at least one center")
    if not np.all(np.isfinite(arr)):
        raise ValueError("centers contain non-finite coordinates")
    return arr


# Floats in the one (sets, points) output buffer (8 MiB) that a batch
# evaluation allocates and reuses for every chunk of sets, and in the one
# (centers, points) block buffer each chunk reuses, which stays in cache
# from the product to the write into the output chunk.
_CHUNK_FLOATS = 2**20
_BLOCK_FLOATS = 2**17
# Floats in each of the exact kernel's center tile and difference buffer
# (256 KiB each): a block of rows, its tile and its differences stay in a
# 2 MiB L2 from the subtraction to the einsum.  In a sweep over 2^14, 2^15
# and 2^16 (n from 2e3 to 1e5, d in {1, 10, 50}, k in {1, 5}; 2-core Xeon)
# 2^15 was within 6% of the fastest size everywhere; 2^14 was up to 41%
# slower and 2^16 up to 28% slower.
_EXACT_BLOCK_FLOATS = 2**15


def _points_side(points: np.ndarray, ref) -> np.ndarray:
    """[p - ref, 1, |p - ref|^2] per point: the right factor of the batch product."""
    n, d = points.shape
    rhs = np.empty((n, d + 2))
    shifted = np.subtract(points, ref, out=rhs[:, :d])
    rhs[:, d] = 1.0
    np.einsum("ij,ij->i", shifted, shifted, out=rhs[:, d + 1])
    return rhs


def _min_dist_pow_batch(
    points: np.ndarray, batch: np.ndarray, z: int, *, rhs=None, out=None
) -> np.ndarray:
    """(T, n) matrix of min_j dist(p, c_tj)^z for a (T, k, d) center batch.

    Exact differences on the line.  Otherwise one product of [-2c, |c|^2, 1]
    and rhs = [p, 1, |p|^2] (``_points_side``, built here unless given, with
    ``points`` its first d columns) puts a block's squared distances in one
    reused, flat (T k, B) buffer, whose first T rows take each set's minimum
    and are then written into ``out`` (allocated unless given), rooted for
    z = 1.  Entries <= 2^-20 (|p|^2 + |c|^2) are redone from explicit
    differences: a point on a center gets exactly 0.
    """
    T, k, d = batch.shape
    n = len(points)
    if out is None:
        out = np.empty((T, n))
    if d == 1:
        np.abs(np.subtract(batch[:, 0], points[:, 0], out=out), out=out)
        for j in range(1, k):
            np.minimum(out, np.abs(batch[:, j] - points[:, 0]), out=out)
        return out if z == 1 else np.square(out, out=out)
    if rhs is None:
        rhs = _points_side(points, 0.0)
    p2 = rhs[:, d + 1]
    flat = batch.transpose(1, 0, 2).reshape(-1, d)  # row j*T + t is c_tj
    c2 = np.einsum("ij,ij->i", flat, flat)
    lhs = np.column_stack([-2.0 * flat, c2, np.ones(T * k)])
    width = max(1, _BLOCK_FLOATS // (T * k))
    buf = np.empty(T * k * min(width, n))
    for lo in range(0, n, width):
        blk = slice(lo, lo + width)
        sq = buf[: T * k * min(width, n - lo)].reshape(T * k, -1)  # contiguous, the last block too
        np.matmul(lhs, rhs[blk].T, out=sq)
        o = sq[:T]
        for j in range(1, k):
            np.minimum(o, sq[j * T : (j + 1) * T], out=o)
        # The expansion errs by far less than 2^-20 (|p|^2 + |c|^2).
        bound = 2.0**-20 * (p2[blk].max() + c2.max())
        if o.min() <= bound:
            idx = np.flatnonzero(o <= bound)
            t, i = np.divmod(idx, sq.shape[1])
            diff = points[lo + i][:, None, :] - batch[t]
            o.flat[idx] = np.einsum("hjd,hjd->hj", diff, diff).min(axis=1)
        (np.sqrt if z == 1 else np.positive)(o, out=out[:, blk])
    return out


def _min_dist_pow_chunks(points: np.ndarray, batch: np.ndarray, z: int):
    """Yield (lo, hi, _min_dist_pow_batch of sets lo:hi) in chunks of sets.

    Off the line both sides are first shifted by the mean of the
    centers, which are drawn from the data, so the expansion's error
    stays at roundoff wherever the data sits.  The shift depends on the
    centers alone: a dataset and a coreset at the same batch move alike.
    The call builds the shifted points side once and allocates one output
    buffer of at most max(_CHUNK_FLOATS, n) floats; each chunk is a view
    into it, valid until the next chunk is yielded.
    """
    n, d = points.shape
    T = len(batch)
    if T == 0:
        return
    step = max(1, min(T, _CHUNK_FLOATS // max(n, 1)))
    rhs = None
    if d > 1:
        ref = batch.reshape(-1, d).mean(axis=0)
        rhs = _points_side(points, ref)
        points, batch = rhs[:, :d], batch - ref
    buf = np.empty(step * n)
    for lo in range(0, T, step):
        hi = min(lo + step, T)
        out = buf[: (hi - lo) * n].reshape(hi - lo, n)
        yield lo, hi, _min_dist_pow_batch(points, batch[lo:hi], z, rhs=rhs, out=out)


def _validated_sorted(P_sorted) -> np.ndarray:
    """P_sorted as a flat float64 array, checked finite and sorted ascending in one pass."""
    pts = np.asarray(P_sorted, dtype=np.float64).reshape(-1)
    # A NaN fails the comparison pass; sorted points are finite iff both ends are.
    if (pts[1:] >= pts[:-1]).all() and np.isfinite(pts[:1]).all() and np.isfinite(pts[-1:]).all():
        return pts
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    raise ValueError("P must be sorted ascending")


def _line_window_starts(xs: np.ndarray, centers: np.ndarray, keep: int) -> np.ndarray:
    """First index of the inlier window of ``keep`` points at each center.

    ``xs`` is sorted ascending.  At a center c the window xs[s : s + keep]
    is found by evicting the farther end point by point, the right end on
    distance ties; that eviction removes xs[i] exactly when c - xs[i] >
    xs[i + keep] - c.  The window holds the coordinates of outlier_split's
    inliers, which is all a cost reads, but in a run of equal values at
    its left edge it keeps the larger indices and outlier_split the
    smaller: on [0, 0, 1] at c = 1, keep = 2 gives {1, 2} against {0, 2}.
    Rounding is monotone, so this test runs true then false along i in
    float64 as well, and a bisection for its first false index returns
    the eviction's window exactly, in O(log n) steps for all centers.
    Needs 1 <= keep <= len(xs).
    """
    c = np.asarray(centers, dtype=np.float64).reshape(-1)
    last = len(xs) - 1
    lo = np.zeros(len(c), dtype=np.intp)
    hi = np.full(len(c), len(xs) - keep, dtype=np.intp)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        # mid + keep <= last wherever the search is still open.
        evict = open_ & (c - xs[mid] > xs[np.minimum(mid + keep, last)] - c)
        lo = np.where(evict, mid + 1, lo)
        hi = np.where(open_ & ~evict, mid, hi)
    return lo


def _window_anchors(xs: np.ndarray, keep: int, starts: np.ndarray):
    """Rows of the sorted line ``xs``, each shifted by its anchor, for windows of ``keep``.

    Starts go keep // 3 + 1 to a group, which shares one row of ``width`` points
    (the last group the last ``width``), anchored at its middle, between about
    each window's 1/3 and 2/3 quantiles; while 4 (n - keep) <= n that is xs at n // 2.
    Only the groups that hold one of ``starts`` get a row, in ascending order.
    Returns the rows y, anchor column h, and per start its anchor value and the
    offset base that puts index i at base + i of ``_sums_outward(y, h)`` raveled.
    """
    n = len(xs)
    per = keep // 3 + 1
    width = min(per - 1 + keep, n)
    g = starts // per
    used = np.zeros((n - keep) // per + 1, dtype=bool)
    used[g] = True
    lo = np.minimum(np.arange(len(used)) * per, n - width)  # every group's first index
    h = width // 2
    y = np.lib.stride_tricks.sliding_window_view(xs, width)[lo[used]]
    y -= xs[lo[used] + h, None]
    # Offsets per group, gathered once per start: temporaries of len(starts) cost page faults.
    base = (np.cumsum(used) - 1) * (width + 1) - lo
    return y, h, base[g], xs[lo + h][g]


def _line_costs(xs: np.ndarray, cs: np.ndarray, z: int, keep: int) -> np.ndarray:
    """robust_cost of the sorted line ``xs`` at single centers ``cs``.

    Sums of y = x - x_a run outward from each window's anchor x_a, so a
    window's sum is the difference of two and reads its own points alone.
    Each center costs one window bisection and, for z = 1, one split search.
    """
    s = _line_window_starts(xs, cs, keep)
    y, h, base, a = _window_anchors(xs, keep, s)
    F = _sums_outward(y, h).ravel()
    c = cs - a
    s, e = base + s, base + s + keep
    if z == 1:
        # Every point between a window's ends and its center is inside it.
        return _abs_dev_sum(F, s, e, c, base + np.searchsorted(xs, cs))
    Q = _sums_outward(np.square(y, out=y), h).ravel()
    return (Q[e] - Q[s]) - 2.0 * c * (F[e] - F[s]) + c * c * keep


def _sums_outward(v: np.ndarray, h: int) -> np.ndarray:
    """F with F[..., i] - F[..., s] = sum(v[..., s:i]) for s <= h <= i, summed from h."""
    F = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    F[..., h] = 0.0
    np.cumsum(v[..., h:], axis=-1, out=F[..., h + 1 :])
    left = F[..., :h]
    np.cumsum(v[..., :h][..., ::-1], axis=-1, out=left[..., ::-1])
    np.negative(left, out=left)
    return F


def _abs_dev_sum(F, s, e, c, j):
    """Sum of |y - c| over a sorted y[s:e] split at j: y[s:j] <= c <= y[j:e].

    F is ``_sums_outward`` of y; works elementwise on index arrays.
    """
    return c * (2 * j - s - e) + F[s] + F[e] - 2.0 * F[j]


def robust_cost_many(P, centers, z: int, m: int) -> np.ndarray:
    """robust_cost of P at many center sets; centers shaped (T, k, d).

    Matches per-center calls to robust_cost up to floating-point
    reassociation; meant for evaluation loops over hundreds of centers.

    On the line with one center per set (d = 1, k = 1) the n - m inliers
    form one window of the sorted data, found by bisection.  Prefix sums
    of x - x_a (and of its square for z = 2), accumulated outward from an
    anchor x_a between about the window's 1/3 and 2/3 quantiles
    (``_window_anchors``), give each window's cost from its two ends and
    the center's split point: O(n log n + T log n) time and O(n) memory
    for every m.  The sort is skipped when P already ascends, which one
    comparison pass decides.  The error stays at rounding relative to
    the cost because every term is O(cost): sum |x - x_a| <= 4 cost for
    z = 1 and, by Cantelli, sum (x - x_a)^2 <= 3 cost for z = 2.

    Other shapes take each set's minimum over its centers in one reused
    block buffer, from one product with |p|^2 folded in, and partition it
    in place, in chunks of sets that share one reused (sets, n) output
    buffer of at most max(_CHUNK_FLOATS, n) floats, besides the n (d + 2)
    floats of the shifted points side, built once per call.
    """
    points = as_points(P)
    n = len(points)
    m = operator.index(m)
    _as_outlier_count(m, n, "|P|")
    batch = _prepare_center_batch(centers, points.shape[1])
    T = len(batch)
    keep = n - m
    if keep == 0:
        return np.zeros(T)
    if batch.shape[1:] == (1, 1):
        xs = points[:, 0]
        if not (xs[1:] >= xs[:-1]).all():
            xs = np.sort(xs)
        return _line_costs(xs, batch[:, 0, 0], z, keep)
    costs = np.empty(T)
    for lo, hi, dmin in _min_dist_pow_chunks(points, batch, z):
        if m:
            dmin.partition(keep - 1, axis=1)
        costs[lo:hi] = dmin[:, :keep].sum(axis=1)
    return costs


def robust_cost_weighted_many(S: WeightedSet, centers, z: int, m: float) -> np.ndarray:
    """robust_cost_weighted of S at many center sets; centers (T, k, d).

    Only the m dropped units of weight need an order, and they lie among
    each set's r = _drop_bound(w, m) farthest rows.  Per set, one 2-d
    argpartition splits off those r rows (ties in any order, which does
    not change the cost), the rest is summed as w d, and only the r rows
    are sorted and give up m units farthest-first, so the fill's
    rounding is at the scale of m, not of w(S).  That is
    O(T |S| + T r log r) time past the distances, and in memory the
    points side and one reused distance buffer of at most
    max(_CHUNK_FLOATS, |S|) floats (``_min_dist_pow_chunks``), plus one
    chunk's selection indices.
    m = 0 keeps every weight whole, and m = w(S) costs exactly 0.
    """
    total = S.total_weight
    m = _as_outlier_count(float(m), total, "w(S)")
    batch = _prepare_center_batch(centers, S.dim)
    costs = np.zeros(len(batch))
    n, w = len(S), S.weights
    if n == 0 or m == total:
        return costs
    r = _drop_bound(w, m)
    for lo, hi, dmin in _min_dist_pow_chunks(S.points, batch, z):
        if m == 0.0:
            costs[lo:hi] = dmin @ w
            continue
        # Entries are gathered by flat index, one set per row of dmin.
        sets = np.arange(len(dmin))[:, None]
        top = np.argpartition(dmin, n - r, axis=1)[:, n - r :] + sets * n
        d_top = dmin.take(top)
        dmin.put(top, 0.0)
        costs[lo:hi] = dmin @ w  # the rows kept whole
        order = np.argsort(d_top, axis=1)[:, ::-1] + sets * r  # farthest first
        w_top = w.take(top.take(order) % n)
        dropped = _fill_sorted(w_top.T, m)
        costs[lo:hi] += np.einsum("ij,ji->i", d_top.take(order), w_top.T - dropped)
    return costs
