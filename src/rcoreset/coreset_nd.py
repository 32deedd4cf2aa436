"""Robust coresets in general dimension via two-part sampling.

The builder splits the input at an approximate center set into the m
farthest points and the rest, draws a uniform sample (without
replacement) of the far part with equal weights summing to m, and
compresses the near part by sensitivity sampling (with replacement,
duplicate draws aggregated, total weight normalized to the part size).
The near rows' weights are then calibrated per cluster of the center
set by raking (exponential calibration, Deville & Saerndal 1992): each
weight is multiplied by exp(f^T lam) so that the rows reproduce the
cluster's exact point count, coordinate sum about its center and z-cost.
A cluster with too few rows for its constraints, or whose Newton solve
fails, keeps its drawn weights rescaled to its point count.  The draw
itself is the i.i.d. sensitivity sample the quality guarantee is proved
for; calibration is a deterministic reweighting on top of it.  A
diagnostic reports whether the structural assumptions behind the
quality guarantee hold; builds are never blocked by it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from rcoreset.core import (
    CenterSet,
    WeightedSet,
    _nearest_dist_pow,
    _split_far,
    as_points,
    dist,
)

__all__ = [
    "AssumptionReport",
    "NdBuild",
    "build_inlier_coreset",
    "build_robust_kz",
    "build_robust_kz_full",
    "check_assumptions",
    "evaluate_conditions",
    "sample_outlier_coreset",
    "split_sample_sizes",
]


def split_sample_sizes(target_size: int, m: int) -> tuple[int, int]:
    """Split a total row budget between the outlier and inlier samples.

    The outlier sample only has to approximate ball ranges, which takes
    an order fewer points than the sensitivity sample needs for the
    inlier mass, so it gets a tenth of the budget (never more than m,
    and at least one row each when m > 0).
    """
    target_size = operator.index(target_size)
    m = operator.index(m)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m == 0:
        if target_size < 1:
            raise ValueError(f"target_size must be >= 1, got {target_size}")
        return 0, target_size
    if target_size < 2:
        raise ValueError(f"target_size must be >= 2 when m > 0, got {target_size}")
    outlier = min(m, target_size - 1, max(1, math.ceil(target_size / 10)))
    return outlier, target_size - outlier


@dataclass(frozen=True)
class AssumptionReport:
    """Structural diagnostics at an approximate center set.

    cond1: every cluster keeps at least 4m near points.  cond2: the
    max-to-mean inlier radius ratio satisfies (r_max/r_bar)^z <= 4k.
    separation_ok is the alternative pairwise-center condition
    dist(c_i, c_j)^z >= m * r_max^z / min(|P_i|, |P_j|); it is reported
    but never gates a build.
    """

    cluster_sizes: tuple[int, ...]
    r_max: float
    r_bar: float
    cond1: bool
    cond2: bool
    separation_ok: bool


def evaluate_conditions(
    min_cluster_size: int, r_max: float, r_bar: float, m: int, k: int, z: int
) -> tuple[bool, bool]:
    """The two assumption thresholds from raw summary numbers."""
    cond1 = min_cluster_size >= 4 * m
    if r_bar == 0.0:
        cond2 = r_max == 0.0
    else:
        cond2 = (r_max / r_bar) ** z <= 4.0 * k
    return cond1, cond2


def _as_center_set(centers, z: int) -> CenterSet:
    if isinstance(centers, CenterSet):
        if centers.z != z:
            raise ValueError(f"center set has z={centers.z}, expected z={z}")
        return centers
    return CenterSet(as_points(centers), z=z)


def _split_at(P, m: int, k: int, z: int, C_star):
    """Validated (points, C) and the far mask, nearest center and dist^z per point.

    The far points are outlier_split's m outliers at C_star; 0 <= m < |P|
    and k == |C_star| are enforced, and a CenterSet must carry z.
    """
    points = as_points(P)
    C = _as_center_set(C_star, z)
    if len(C) != k:
        raise ValueError(f"expected {k} centers, got {len(C)}")
    m = operator.index(m)
    if not 0 <= m < len(points):
        raise ValueError(f"need 0 <= m < |P|, got m={m}, |P|={len(points)}")
    return (points, C, *_split_far(points, C, m))


def _lex_rows(points: np.ndarray) -> np.ndarray:
    """Row order sorting points lexicographically by coordinates.

    Equals np.lexsort(points.T[::-1]): rows equal in every coordinate
    keep their dataset order, and -0.0 ties with 0.0.  One argsort of
    column 0 places every row; only rows whose column-0 value ties with
    a neighbour's are then lexsorted over all columns and their dataset
    index, in place.  That costs one O(n log n) sort of a single column
    plus the tied rows' share of a full lexsort, which is all of it only
    when column 0 is constant.  The coordinates must be finite
    (as_points guarantees it).
    """
    column = np.ascontiguousarray(points[:, 0])
    order = np.argsort(column)
    first = column[order]
    same = first[1:] == first[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    runs = order[tied]
    # Distinct runs differ in column 0, so sorting the tied rows only
    # reorders rows within their run; the index key restores dataset
    # order among rows equal in every coordinate.
    order[tied] = runs[np.lexsort((runs, *points[runs].T[::-1]))]
    return order


def sample_outlier_coreset(L_star, size: int, seed) -> WeightedSet:
    """Uniform sample without replacement of a point set, reweighted to it.

    Keeps min(size, |L_star|) points in their input order, each at weight
    |L_star|/sample size, so the total weight equals |L_star| (up to
    roundoff when the weight is not representable).  The builders draw
    the far part with it, and baselines.build_uniform the whole dataset.
    """
    points = as_points(L_star)
    m = len(points)
    if m < 1:
        raise ValueError("outlier part must be nonempty")
    size = operator.index(size)
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    s = min(size, m)
    idx = np.sort(rng.choice(m, size=s, replace=False))
    return WeightedSet(points[idx], np.full(s, m / s))


def _sensitivity_draw(dpow: np.ndarray, size, rng) -> tuple[np.ndarray, np.ndarray]:
    """Drawn row indices (ascending, duplicates aggregated) and their weights.

    Draw probabilities blend a uniform term with each point's share of
    the total z-power cost; weights are scaled to total len(dpow).
    """
    n_i = len(dpow)
    size = operator.index(size)
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    total = float(np.sum(dpow))
    if total > 0.0:
        probs = 0.5 * (1.0 / n_i + dpow / total)
    else:
        probs = np.full(n_i, 1.0 / n_i)
    probs = probs / probs.sum()
    draws = rng.choice(n_i, size=size, replace=True, p=probs)
    uniq, counts = np.unique(draws, return_counts=True)
    weights = counts / (size * probs[uniq])
    weights *= n_i / weights.sum()
    return uniq, weights


def build_inlier_coreset(P_I, C_star, z: int, size: int, seed) -> WeightedSet:
    """Sensitivity sample of the near part against its center set.

    Draw probabilities blend a uniform term with each point's share of
    the total z-power cost; draws are with replacement, duplicates
    aggregate into one weighted row, and the weights are scaled so the
    total equals |P_I| exactly up to roundoff.
    """
    points = as_points(P_I)
    if len(points) < 1:
        raise ValueError("inlier part must be nonempty")
    C = _as_center_set(C_star, z)
    _, dpow = _nearest_dist_pow(points, C.centers, z)
    rows, weights = _sensitivity_draw(dpow, size, np.random.default_rng(seed))
    return WeightedSet(points[rows], weights)


_RAKE_MAX_ITERS = 50
_RAKE_TOL = 1e-12


def _rake(features: np.ndarray, w: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """Raking weights w * exp(features @ lam) whose feature totals hit target.

    Newton's method with backtracking on the convex dual
    sum(w * exp(features @ lam)) - lam . target.  The first feature is
    the constant 1, so target[0] is the total the weights must reach.
    Returns None when the iteration does not converge to strictly
    positive, finite weights.
    """
    lam = np.zeros(features.shape[1])
    u = w
    obj = float(np.sum(u))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_RAKE_MAX_ITERS):
            grad = features.T @ u - target
            if np.max(np.abs(grad)) <= _RAKE_TOL * target[0]:
                return u if np.all(np.isfinite(u)) and np.all(u > 0.0) else None
            hess = (features * u[:, None]).T @ features
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
            decrease = float(grad @ step)
            t = 1.0
            while True:
                trial = lam - t * step
                u_trial = w * np.exp(features @ trial)
                obj_trial = float(np.sum(u_trial)) - float(trial @ target)
                # The slack absorbs roundoff once the decrease is negligible.
                if obj_trial <= obj - 1e-4 * t * decrease + 1e-13 * abs(obj):
                    break
                t *= 0.5
                if t < 1e-10:
                    return None
            lam, u, obj = trial, u_trial, obj_trial
    return None


def _calibrate_near_weights(
    points: np.ndarray,
    near: np.ndarray,
    C: CenterSet,
    nearest: np.ndarray,
    dpow: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Per-cluster raking of the drawn near rows onto P_I's exact totals.

    P_I is points[near]; nearest, dpow and rows index it.  For each
    cluster of C (points grouped by nearest center), the rows' weights
    are rescaled by exp(f^T lam) so that their count, coordinate sum
    relative to the center and z-cost at C equal those of the cluster's
    points in P_I.  Each cluster's points are gathered from points on
    their own, in the order of near, so no full copy of P_I is held
    here.  Their coordinate and squared-deviation sums are einsum column
    reductions, which for d >= 2 add the rows one at a time in that order
    (on the line numpy's einsum adds in interleaved lanes).
    Features are standardized by the cluster's per-coordinate RMS
    deviation and mean z-cost.  A cluster with fewer rows than
    constraints, or whose Newton iteration fails, keeps its drawn weights
    rescaled to its point count.  The result is scaled to total |P_I|,
    which also covers clusters that drew no row.
    """
    out = weights.copy()
    row_cluster = nearest[rows]
    n_features = points.shape[1] + 2
    for j in range(len(C)):
        in_rows = np.flatnonzero(row_cluster == j)
        if len(in_rows) == 0:
            continue
        members = np.flatnonzero(nearest == j)
        count = len(members)
        diffs = points.take(near[members], axis=0)
        diffs -= C.centers[j]
        coord_sum = np.einsum("ij->j", diffs)
        scale = np.sqrt(np.einsum("ij,ij->j", diffs, diffs) / count)
        scale[scale == 0.0] = 1.0
        cost = dpow[members]
        mu = float(np.mean(cost)) or 1.0
        target = np.concatenate(([count], coord_sum / scale, [cost.sum() / mu]))
        raked = None
        if len(in_rows) >= n_features:
            r = rows[in_rows]
            features = np.column_stack(
                [np.ones(len(r)), (points[near[r]] - C.centers[j]) / scale, dpow[r] / mu]
            )
            raked = _rake(features, out[in_rows], target)
        if raked is None:
            out[in_rows] *= count / out[in_rows].sum()
        else:
            out[in_rows] = raked
    out *= len(near) / out.sum()
    return out


@dataclass(frozen=True)
class NdBuild:
    """Build record: the combined coreset plus its two parts."""

    coreset: WeightedSet
    outlier_rows: WeightedSet | None
    inlier_rows: WeightedSet


def build_robust_kz_full(P, m: int, k: int, z: int, size: int, C_star, seed) -> NdBuild:
    """Robust (k, z)-clustering coreset of at most `size` rows, with its two parts.

    split_sample_sizes(size, m) splits the budget between a uniform
    sample of the m far points at C_star and a sensitivity sample of the
    near rest, drawn as in build_inlier_coreset (duplicates aggregate,
    so the near part can have fewer rows than its budget).  The near
    weights are then calibrated: within each cluster of C_star (near
    points grouped by nearest center, ties to the lower index) they are
    raked, w_i -> w_i * exp(f_i^T lam), until the rows match the
    cluster's point count, coordinate sum about its center and z-cost at
    C_star.  Weights stay strictly positive.  A cluster with fewer rows
    than the d + 2 constraints, or whose Newton solve does not converge,
    keeps its drawn weights rescaled to its point count; the near weights
    are finally scaled to total |P_I|.  Both parts are drawn in _lex_rows
    order, so the output does not depend on the input order whenever the
    split does not (distinct distances).  Outlier rows come first in the
    combined coreset.
    """
    far_size, near_size = split_sample_sizes(size, m)
    points, C, far, nearest, dpow = _split_at(P, m, k, z, C_star)
    # Each part keeps the coordinate-lexicographic order of P.
    order = _lex_rows(points)
    far_in_order = far[order]
    near = order[~far_in_order]
    rng = np.random.default_rng(seed)
    if m > 0:
        S_O = sample_outlier_coreset(points[order[far_in_order]], far_size, rng)
    else:
        S_O = None
    nearest, dpow = nearest[near], dpow[near]
    rows, weights = _sensitivity_draw(dpow, near_size, rng)
    weights = _calibrate_near_weights(points, near, C, nearest, dpow, rows, weights)
    S_I = WeightedSet(points.take(near[rows], axis=0), weights)
    if S_O is None:
        combined = S_I
    else:
        combined = WeightedSet(
            np.concatenate([S_O.points, S_I.points]),
            np.concatenate([S_O.weights, S_I.weights]),
        )
    return NdBuild(coreset=combined, outlier_rows=S_O, inlier_rows=S_I)


def build_robust_kz(P, m: int, k: int, z: int, size: int, C_star, seed) -> WeightedSet:
    """Robust (k, z)-clustering coreset: far sample plus near sample."""
    return build_robust_kz_full(P, m, k, z, size, C_star, seed).coreset


def check_assumptions(P, C_star, m: int, k: int, z: int) -> AssumptionReport:
    """Diagnostic for the structural assumptions at an approximate solution.

    Splits P at C_star into m far points and the near rest, assigns near
    points to their closest center (ties to the lower center index), and
    evaluates both threshold conditions plus the alternative pairwise
    separation condition.  Purely informational.
    """
    _, C, far, nearest, dpow = _split_at(P, m, k, z, C_star)
    nearest, dmin = nearest[~far], dpow[~far]
    if z == 2:
        dmin = np.sqrt(dmin)
    sizes = tuple(np.bincount(nearest, minlength=k).tolist())
    r_max = float(np.max(dmin))
    r_bar = float(np.mean(dmin**z)) ** (1.0 / z)
    cond1, cond2 = evaluate_conditions(min(sizes), r_max, r_bar, m, k, z)
    separation_ok = True
    for i in range(k):
        for j in range(i + 1, k):
            pair_min = min(sizes[i], sizes[j])
            gap = dist(C.centers[i], C.centers[j]) ** z
            if pair_min == 0:
                if m * r_max**z > 0.0:
                    separation_ok = False
            elif gap < m * r_max**z / pair_min:
                separation_ok = False
    return AssumptionReport(
        cluster_sizes=sizes,
        r_max=r_max,
        r_bar=r_bar,
        cond1=cond1,
        cond2=cond2,
        separation_ok=separation_ok,
    )
