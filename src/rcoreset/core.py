"""Exact robust cost evaluation for unweighted and weighted point sets.

Points live in Euclidean space and are passed around as float64 numpy
arrays of shape ``(n, d)``; a plain 1-d array is accepted wherever a
point collection is expected and is interpreted as ``n`` points on the
real line.  The robust cost of a point set at a center set drops the
``m`` farthest points; the weighted generalisation instead drops ``m``
units of weight, splitting at most one point fractionally at the
inlier/outlier boundary.

Ties at equal distance are always broken by dataset index, ascending,
so every operation here is deterministic.  All operations are pure
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

    Distances are formed from explicit coordinate differences, one pass
    per center, which avoids the cancellation error of the inner-product
    expansion used by the batched evaluators and keeps the temporaries
    at the size of ``points`` whatever the number of centers.
    """
    nearest = np.zeros(len(points), dtype=np.intp)
    best = None
    for j, c in enumerate(centers):
        diff = points - c
        d2 = np.einsum("ij,ij->i", diff, diff)
        if best is None:
            best = d2
        else:
            closer = d2 < best
            nearest[closer] = j
            best[closer] = d2[closer]
    return nearest, (np.sqrt(best) if z == 1 else best)


def _canonical_order(dist_pow: np.ndarray) -> np.ndarray:
    """Indices sorted by (distance, dataset index), both ascending.

    A stable sort keeps equal distances in index order.
    """
    return np.argsort(dist_pow, kind="stable")


def _as_outlier_count(m, limit: float, what: str):
    if isinstance(m, (bool, np.bool_)):
        raise ValueError(f"m must be a number, got {m!r}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m > limit:
        raise ValueError(f"m = {m} exceeds {what} = {limit}")
    return m


def robust_cost(P, C: CenterSet, m: int) -> float:
    """Sum of the |P| - m smallest dist(p, C)^z values."""
    points = as_points(P)
    _check_dims(points, C)
    m = operator.index(m)
    _as_outlier_count(m, len(points), "|P|")
    dpow = _nearest_dist_pow(points, C.centers, C.z)[1]
    keep = len(points) - m
    if keep == 0:
        return 0.0
    order = _canonical_order(dpow)
    return float(np.sum(dpow[order[:keep]]))


def robust_cost_weighted(S: WeightedSet, C: CenterSet, m: float) -> float:
    """Weighted robust cost: drop m units of weight, farthest first.

    Equals the minimum of sum w'(p) * dist(p, C)^z over weight functions
    0 <= w' <= w with total w(S) - m; the minimiser keeps the nearest
    weight greedily and splits at most one point fractionally.
    """
    cost, _, _ = _weighted_fill(S, C, m)
    return cost


def inlier_assignment(S: WeightedSet, C: CenterSet, m: float) -> InlierAssignment:
    """The weight function w' achieving robust_cost_weighted(S, C, m)."""
    _, kept, partial = _weighted_fill(S, C, m)
    return InlierAssignment(kept_weight=kept, partial_index=partial)


def _greedy_fill(
    dpow: np.ndarray, w: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fill a weight budget nearest-first, splitting at most one point.

    Returns the canonical order, the kept weight per point and the
    number of leading points in that order that are kept whole; the
    point after them, if any, keeps the remainder of the budget.
    """
    order = _canonical_order(dpow)
    w_sorted = w[order]
    cum = np.cumsum(w_sorted)
    full = int(np.searchsorted(cum, budget, side="right"))
    kept = np.zeros(len(w))
    kept[order[:full]] = w_sorted[:full]
    if full < len(w):
        rem = budget - (cum[full - 1] if full else 0.0)
        kept[order[full]] = min(max(rem, 0.0), float(w_sorted[full]))
    return order, kept, full


def _weighted_fill(
    S: WeightedSet, C: CenterSet, m: float
) -> tuple[float, np.ndarray, int | None]:
    """Keep w(S) - m units of weight nearest-first; return (cost, w', partial)."""
    _check_dims(S.points, C)
    total = S.total_weight
    m = float(_as_outlier_count(float(m), total, "w(S)"))
    dpow = _nearest_dist_pow(S.points, C.centers, C.z)[1]
    if m == 0.0:
        # Shortcut keeps exact equality with the unweighted evaluator.
        order = _canonical_order(dpow)
        cost = float(np.sum(S.weights[order] * dpow[order]))
        return cost, S.weights.copy(), None
    order, kept, full = _greedy_fill(dpow, S.weights, total - m)
    cost = float(np.sum(kept[order[:full]] * dpow[order[:full]]))
    partial: int | None = None
    if full < len(S):
        idx = int(order[full])
        rem = float(kept[idx])
        if rem > 0.0:
            cost += rem * float(dpow[idx])
            if rem < float(S.weights[idx]):
                partial = idx
    return cost, kept, partial


def outlier_split(P, C: CenterSet, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split indices of P into (inliers, outliers) at the center set.

    The outliers are the m points of largest dist(·, C)^z; ties at the
    cut go to the larger dataset index.  Both index arrays come back
    sorted ascending.
    """
    points = as_points(P)
    _check_dims(points, C)
    m = operator.index(m)
    _as_outlier_count(m, len(points), "|P|")
    dpow = _nearest_dist_pow(points, C.centers, C.z)[1]
    order = _canonical_order(dpow)
    keep = len(points) - m
    return np.sort(order[:keep]), np.sort(order[keep:])


def _prepare_center_batch(centers, dim: int) -> np.ndarray:
    """Normalise a batch of center sets to shape (T, k, dim)."""
    arr = np.asarray(centers, dtype=np.float64)
    if arr.ndim == 1:  # T centers on the real line, k = 1
        arr = arr.reshape(-1, 1, 1)
    elif arr.ndim == 2:  # (T, d) singles
        arr = arr[:, None, :]
    if arr.ndim != 3 or arr.shape[2] != dim:
        raise ValueError(f"center batch must have shape (T, k, {dim})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("centers contain non-finite coordinates")
    return arr


def _dist_pow_batch(points: np.ndarray, flat_centers: np.ndarray, z: int) -> np.ndarray:
    """(T*k, n) matrix of dist^z; inner-product expansion except in 1-d.

    One row per center, so reductions over the points run along the
    contiguous axis.
    """
    if points.shape[1] == 1:
        d = np.abs(flat_centers[:, 0][:, None] - points[:, 0][None, :])
        return d if z == 1 else d * d
    d2 = flat_centers @ points.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", points, points)[None, :]
    d2 += np.einsum("ij,ij->i", flat_centers, flat_centers)[:, None]
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2) if z == 1 else d2


def _shift_to_batch_mean(
    points: np.ndarray, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Points and center batch relative to the mean of the centers.

    The inner-product expansion in _dist_pow_batch cancels badly when
    the coordinates are large next to the distances.  Candidate centers
    are drawn from the data, so shifting both sides by their mean keeps
    the error at float64 roundoff wherever the data sits.  The shift
    depends on the centers alone, so a dataset and a coreset evaluated
    at the same batch move alike, and rows they share keep equal
    distances.  The 1-d path takes exact differences and is left as is.
    """
    if points.shape[1] == 1:
        return points, batch
    ref = batch.reshape(-1, batch.shape[2]).mean(axis=0)
    return points - ref, batch - ref


def _batch_chunks(n: int, k: int, T: int, budget_floats: float = 1.6e7) -> int:
    """Centers per chunk keeping the (chunk*k, n) temporaries bounded."""
    return max(1, min(T, int(budget_floats / max(n * k, 1))))


def robust_cost_many(P, centers, z: int, m: int) -> np.ndarray:
    """robust_cost of P at many center sets; centers shaped (T, k, d).

    Matches per-center calls to robust_cost up to floating-point
    reassociation; meant for evaluation loops over hundreds of centers.
    """
    points = as_points(P)
    n = len(points)
    m = operator.index(m)
    _as_outlier_count(m, n, "|P|")
    batch = _prepare_center_batch(centers, points.shape[1])
    T, k, _ = batch.shape
    keep = n - m
    costs = np.empty(T)
    if keep == 0:
        costs.fill(0.0)
        return costs
    points, batch = _shift_to_batch_mean(points, batch)
    step = _batch_chunks(n, k, T)
    for lo in range(0, T, step):
        hi = min(lo + step, T)
        flat = batch[lo:hi].reshape(-1, points.shape[1])
        dpow = _dist_pow_batch(points, flat, z).reshape(hi - lo, k, n)
        dmin = dpow.min(axis=1)
        if m:
            dmin.partition(keep - 1, axis=1)
            costs[lo:hi] = dmin[:, :keep].sum(axis=1)
        else:
            costs[lo:hi] = dmin.sum(axis=1)
    return costs


def robust_cost_weighted_many(S: WeightedSet, centers, z: int, m: float) -> np.ndarray:
    """robust_cost_weighted of S at many center sets; centers (T, k, d)."""
    total = S.total_weight
    m = float(_as_outlier_count(float(m), total, "w(S)"))
    batch = _prepare_center_batch(centers, S.dim)
    T, k, _ = batch.shape
    s = len(S)
    budget = total - m
    costs = np.empty(T)
    points, batch = _shift_to_batch_mean(S.points, batch)
    step = _batch_chunks(s, k, T)
    for lo in range(0, T, step):
        hi = min(lo + step, T)
        flat = batch[lo:hi].reshape(-1, S.dim)
        dpow = _dist_pow_batch(points, flat, z).reshape(hi - lo, k, s)
        dmin = dpow.min(axis=1).T
        order = np.argsort(dmin, axis=0, kind="stable")
        d_s = np.take_along_axis(dmin, order, axis=0)
        w_s = S.weights[order]
        cum = np.cumsum(w_s, axis=0)
        full = (cum <= budget).sum(axis=0)  # fully kept points per column
        wd = np.cumsum(w_s * d_s, axis=0)
        at = np.maximum(full - 1, 0)[None, :]
        base = np.where(full > 0, np.take_along_axis(wd, at, axis=0)[0], 0.0)
        prev = np.where(full > 0, np.take_along_axis(cum, at, axis=0)[0], 0.0)
        nxt = np.minimum(full, s - 1)[None, :]
        d_next = np.take_along_axis(d_s, nxt, axis=0)[0]
        rem = np.where(full < s, np.maximum(budget - prev, 0.0), 0.0)
        costs[lo:hi] = base + rem * d_next
    return costs
