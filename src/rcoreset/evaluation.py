"""Measurement protocol: empirical error, size sweeps, diagnostics, speedups.

Empirical error of a coreset is the maximum relative robust-cost
discrepancy against the full dataset over candidate centers sampled
from the data.  Sweeps tabulate it per (builder, size, trial) with
candidate centers shared across builders inside a trial so comparisons
are paired.  Diagnostics cover the ball-range deviation of outlier
samples (Monte-Carlo in general dimension, exact in 1-d) and the
per-bucket outlier-count misalignment of 1-d coresets, computed from
the definitions of the outlier split and the inlier weights.  The
speedup table times solving on a coreset against solving on the full
data, scoring both center sets on the full dataset.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from rcoreset.baselines import build_hjlw23, build_hllw25, build_uniform
from rcoreset.core import (
    CenterSet,
    WeightedSet,
    _min_dist_pow_chunks,
    _validated_sorted,
    as_points,
    inlier_assignment,
    outlier_split,
    robust_cost,
    robust_cost_many,
    robust_cost_weighted_many,
)
from rcoreset.coreset1d import Bucket
from rcoreset.coreset_nd import build_robust_kz
from rcoreset.solver import lloyd_with_outliers

__all__ = [
    "BuilderFn",
    "EvalReport",
    "SweepResult",
    "SweepRow",
    "ball_range_check",
    "ball_range_deviation_1d",
    "default_builders",
    "draw_candidate_centers",
    "empirical_error",
    "misalignment_check",
    "reports_to_csv",
    "speedup_report",
    "sweep_size_error",
]

#: Builds a weighted coreset of roughly `size` rows: (P, m, k, z, size, seed).
BuilderFn = Callable[[np.ndarray, int, int, int, int, object], WeightedSet]


@dataclass(frozen=True)
class EvalReport:
    """One measurement row: a builder's error and/or timing figures."""

    builder: str
    coreset_rows: int
    seed: object = None
    empirical_error: float | None = None
    per_center_errors: tuple[float, ...] | None = None
    skipped_centers: int = 0
    build_time: float = 0.0
    solve_time_on_coreset: float = 0.0
    solve_time_on_full: float = 0.0
    cost_P: float | None = None
    cost_S: float | None = None

    def __post_init__(self) -> None:
        if self.per_center_errors is not None and self.empirical_error is not None:
            peak = max(self.per_center_errors)
            if not math.isclose(self.empirical_error, peak, rel_tol=1e-12):
                raise ValueError(
                    f"empirical_error {self.empirical_error} is not the maximum "
                    f"per-center error {peak}"
                )


def draw_candidate_centers(P, k: int, num_centers: int, seed) -> np.ndarray:
    """(num_centers, k, d) candidate center sets sampled uniformly from P.

    Indices are drawn without replacement — globally when num_centers*k
    fits in the dataset, otherwise per center set.
    """
    points = as_points(P)
    n = len(points)
    k = operator.index(k)
    num_centers = operator.index(num_centers)
    if num_centers < 1:
        raise ValueError(f"num_centers must be >= 1, got {num_centers}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    rng = np.random.default_rng(seed)
    total = num_centers * k
    if total <= n:
        idx = rng.choice(n, size=total, replace=False).reshape(num_centers, k)
    else:
        idx = np.stack([rng.choice(n, size=k, replace=False) for _ in range(num_centers)])
    return points[idx]


def empirical_error(
    P,
    S: WeightedSet,
    m: int,
    k: int,
    z: int,
    num_centers: int = 500,
    seed=0,
    *,
    builder: str = "S",
) -> EvalReport:
    """Maximum relative robust-cost discrepancy over sampled centers.

    Centers where the full dataset's robust cost is zero are skipped
    and counted; it is an error if every center is skipped.
    """
    points = as_points(P)
    centers = draw_candidate_centers(points, k, num_centers, seed)
    errors_of, skipped = _error_scorer(points, centers, z, m)
    errors = errors_of(S)
    return EvalReport(
        builder=builder,
        coreset_rows=len(S),
        seed=seed,
        empirical_error=float(np.max(errors)),
        per_center_errors=tuple(float(e) for e in errors),
        skipped_centers=skipped,
    )


def _error_scorer(
    points: np.ndarray, centers: np.ndarray, z: int, m: int
) -> tuple[Callable[[WeightedSet], np.ndarray], int]:
    """Score weighted sets against P's robust cost at shared centers.

    Returns (errors, skipped): errors(S) gives |cost_S - cost_P| / cost_P
    at every center where cost_P > 0, and skipped counts the others.
    Raises ValueError if cost_P is zero at every center.
    """
    cost_P = robust_cost_many(points, centers, z, m)
    valid = cost_P > 0.0
    if not np.any(valid):
        raise ValueError("robust cost of P was zero at every sampled center")
    cost_P = cost_P[valid]

    def errors(S: WeightedSet) -> np.ndarray:
        return np.abs(robust_cost_weighted_many(S, centers, z, m)[valid] - cost_P) / cost_P

    return errors, int(np.sum(~valid))


@dataclass(frozen=True)
class SweepRow:
    """Empirical error of one (builder, size) cell in one trial."""

    builder: str
    size: int
    trial: int
    error: float
    build_time: float
    coreset_rows: int


@dataclass(frozen=True)
class SweepResult:
    """Per-trial rows of a size–error sweep plus the sweep parameters."""

    rows: tuple[SweepRow, ...]
    sizes: tuple[int, ...]
    builders: tuple[str, ...]
    trials: int
    seed: object

    def mean_errors(self) -> dict[tuple[str, int], float]:
        """Mean empirical error per (builder, size) over trials."""
        sums: dict[tuple[str, int], list[float]] = {}
        for row in self.rows:
            sums.setdefault((row.builder, row.size), []).append(row.error)
        return {cell: float(np.mean(vals)) for cell, vals in sums.items()}

    def to_csv(self) -> str:
        """One line per (builder, size, trial) measurement."""
        out = io.StringIO()
        out.write("builder,size,trial,error,build_time,coreset_rows,seed\n")
        csv.writer(out, lineterminator="\n").writerows(
            (row.builder, row.size, row.trial, f"{row.error:.17g}",
             f"{row.build_time:.6g}", row.coreset_rows, str(self.seed))
            for row in self.rows
        )
        return out.getvalue()

    def summary_json(self) -> str:
        """JSON object with the sweep parameters and per-cell means."""
        means = self.mean_errors()
        return json.dumps(
            {
                "seed": str(self.seed),
                "trials": self.trials,
                "sizes": list(self.sizes),
                "builders": list(self.builders),
                "mean_error": {
                    f"{builder}@{size}": means[(builder, size)]
                    for (builder, size) in sorted(means)
                },
            },
            indent=2,
        )


def default_builders(C_star: CenterSet) -> dict[str, BuilderFn]:
    """Size-targeted builders sharing one approximate center set.

    "ours" splits the budget via split_sample_sizes; the structured
    baselines keep all m far points verbatim; "uniform" ignores C_star.
    """

    def ours(P, m, k, z, size, seed):
        return build_robust_kz(P, m, k, z, size, C_star, seed)

    def hjlw23(P, m, k, z, size, seed):
        return build_hjlw23(P, m, k, z, size, C_star, seed)

    def hllw25(P, m, k, z, size, seed):
        return build_hllw25(P, m, k, z, size, C_star, seed)

    def uniform(P, m, k, z, size, seed):
        return build_uniform(P, size, seed)

    return {"ours": ours, "hjlw23": hjlw23, "hllw25": hllw25, "uniform": uniform}


def sweep_size_error(
    P,
    m: int,
    k: int,
    z: int,
    sizes: Sequence[int],
    builders: Mapping[str, BuilderFn],
    trials: int,
    seed,
    *,
    num_centers: int = 500,
) -> SweepResult:
    """Empirical error per (builder, size, trial).

    Each trial derives its RNG stream from (seed, trial index) and
    draws one candidate-center batch shared by every builder and size
    in that trial, so per-trial comparisons are paired.
    """
    points = as_points(P)
    if len(sizes) == 0:
        raise ValueError("sizes must be nonempty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rows = []
    for trial in range(trials):
        trial_seed = (seed, trial)
        centers = draw_candidate_centers(points, k, num_centers, trial_seed)
        errors_of, _ = _error_scorer(points, centers, z, m)
        for name, build in builders.items():
            for size in sizes:
                t0 = time.perf_counter()
                S = build(points, m, k, z, int(size), trial_seed)
                build_time = time.perf_counter() - t0
                err = float(np.max(errors_of(S)))
                rows.append(
                    SweepRow(
                        builder=name,
                        size=int(size),
                        trial=trial,
                        error=err,
                        build_time=build_time,
                        coreset_rows=len(S),
                    )
                )
    return SweepResult(
        rows=tuple(rows),
        sizes=tuple(int(s) for s in sizes),
        builders=tuple(builders),
        trials=trials,
        seed=seed,
    )


def ball_range_check(P_O, S_O: WeightedSet, num_balls: int = 10_000, seed=0) -> float:
    """Monte-Carlo ball-range deviation of a weighted sample.

    Ball centers are uniform over the data's bounding box, radii
    uniform in (0, diagonal]; returns the maximum over balls of
    | |P_O ∩ B| / |P_O|  −  w(S_O ∩ B) / w(S_O) |.  Point-to-ball
    distances come from the batch kernel with one ball per center set,
    once for P_O and once for S_O, so whatever the number of balls,
    memory stays at the kernel's points side and its one reused output
    buffer of at most max(2^20, points) floats (``core._CHUNK_FLOATS``).
    """
    pts = as_points(P_O)
    if num_balls < 1:
        raise ValueError(f"num_balls must be >= 1, got {num_balls}")
    if S_O.dim != pts.shape[1]:
        raise ValueError(f"P_O has dimension {pts.shape[1]} but S_O has {S_O.dim}")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    rng = np.random.default_rng(seed)
    balls = rng.uniform(lo, hi, (num_balls, pts.shape[1]))[:, None, :]
    radii = (1.0 - rng.random(num_balls)) * max(diameter, 1e-300)
    frac_p = np.empty(num_balls)
    for a, b, dist in _min_dist_pow_chunks(pts, balls, 1):
        frac_p[a:b] = np.mean(dist <= radii[a:b, None], axis=1)
    frac_s = np.empty(num_balls)
    for a, b, dist in _min_dist_pow_chunks(S_O.points, balls, 1):
        frac_s[a:b] = (dist <= radii[a:b, None]) @ S_O.weights
    return float(np.max(np.abs(frac_p - frac_s / S_O.total_weight)))


def ball_range_deviation_1d(P_O, S_O: WeightedSet) -> float:
    """Exact maximum interval-range deviation for 1-d data.

    Sweeps the merged support once; every closed interval's deviation
    is a difference of the two cumulative fraction curves, so the
    maximum is found from running extremes of their gap.
    """
    pts = as_points(P_O)
    if pts.shape[1] != 1 or S_O.dim != 1:
        raise ValueError("exact interval sweep requires 1-d data")
    xs = np.unique(np.concatenate([pts[:, 0], S_O.points[:, 0]]))
    cum_p = np.searchsorted(np.sort(pts[:, 0]), xs, side="right") / len(pts)
    order = np.argsort(S_O.points[:, 0], kind="stable")
    s_vals = S_O.points[order, 0]
    s_cum = np.cumsum(S_O.weights[order])
    idx = np.searchsorted(s_vals, xs, side="right")
    cum_s = np.where(idx > 0, s_cum[np.maximum(idx - 1, 0)], 0.0) / S_O.total_weight
    gap = cum_p - cum_s  # D(x) on closed prefixes (-inf, x]
    gap_before = np.concatenate([[0.0], gap[:-1]])  # D just left of each x
    lo_run = np.minimum.accumulate(gap_before)
    hi_run = np.maximum.accumulate(gap_before)
    return float(max(np.max(gap - lo_run), np.max(hi_run - gap)))


def misalignment_check(
    P_sorted,
    buckets: Sequence[Bucket],
    S: WeightedSet,
    m: int,
    centers: Sequence[float],
) -> float:
    """Max over centers of the per-bucket outlier-count misalignment.

    For center c, bucket i holds m_i of P's outliers and its coreset
    row carries outlier weight m_i'; the statistic is Σ_i |m_i − m_i'|.
    P's outliers come from outlier_split and the rows' outlier weights
    from inlier_assignment, so ties at equal distance go to the larger
    index on both sides, as in the robust cost itself.
    """
    pts = _validated_sorted(as_points(P_sorted)[:, 0])
    if len(S) != len(buckets):
        raise ValueError(f"{len(buckets)} buckets but {len(S)} coreset rows")
    n = len(pts)
    bucket_starts = np.array([b.l for b in buckets], dtype=np.intp)
    bucket_ends = np.array([b.r for b in buckets], dtype=np.intp)
    if not np.array_equal(np.r_[bucket_starts, n], np.r_[0, bucket_ends + 1]):
        raise ValueError("buckets must tile the index range [0, n)")
    weights = S.weights
    order = np.argsort(S.points[:, 0], kind="stable")
    if not np.array_equal(order, np.arange(len(S))):
        raise ValueError("coreset rows must be sorted ascending like their buckets")
    worst = 0.0
    for c in centers:
        C = CenterSet(np.array([[float(c)]]), z=1)
        _, out_idx = outlier_split(pts.reshape(-1, 1), C, m)
        m_i = np.bincount(
            np.searchsorted(bucket_starts, out_idx, side="right") - 1,
            minlength=len(buckets),
        )
        m_prime = weights - inlier_assignment(S, C, float(m)).kept_weight
        worst = max(worst, float(np.sum(np.abs(m_i - m_prime))))
    return worst


def speedup_report(
    P,
    m: int,
    k: int,
    z: int,
    builders_with_sizes: Sequence[tuple[str, BuilderFn, int]],
    seed,
    *,
    max_iters: int = 20,
    init: CenterSet | None = None,
) -> list[EvalReport]:
    """Build/solve timings plus full-data costs of coreset-derived centers.

    The full-data solve happens once; each row then reports the
    builder's build time, the solve time on its coreset, and the robust
    cost (on the full dataset) of the centers found on the coreset
    next to the full-data solve's cost.  Passing ``init`` starts every
    solve from the same centers, so the timing comparison isolates the
    input size instead of mixing in seeding luck.
    """
    points = as_points(P)
    t0 = time.perf_counter()
    full = lloyd_with_outliers(points, k, m, z, max_iters=max_iters, seed=seed, init=init)
    t_full = time.perf_counter() - t0
    cost_p = robust_cost(points, full.centers, m)
    reports = []
    for name, build, size in builders_with_sizes:
        t0 = time.perf_counter()
        S = build(points, m, k, z, int(size), seed)
        t_build = time.perf_counter() - t0
        t0 = time.perf_counter()
        solved = lloyd_with_outliers(
            S.points,
            k,
            float(m),
            z,
            max_iters=max_iters,
            seed=seed,
            weights=S.weights,
            init=init,
        )
        t_solve = time.perf_counter() - t0
        reports.append(
            EvalReport(
                builder=name,
                coreset_rows=len(S),
                seed=seed,
                build_time=t_build,
                solve_time_on_coreset=t_solve,
                solve_time_on_full=t_full,
                cost_P=cost_p,
                cost_S=robust_cost(points, solved.centers, m),
            )
        )
    return reports


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    """One CSV line per report: timings and full-data costs."""
    out = io.StringIO()
    out.write(
        "builder,coreset_rows,build_time,solve_time_on_coreset,"
        "solve_time_on_full,cost_P,cost_S,seed\n"
    )
    csv.writer(out, lineterminator="\n").writerows(
        (r.builder, r.coreset_rows, f"{r.build_time:.6g}",
         f"{r.solve_time_on_coreset:.6g}", f"{r.solve_time_on_full:.6g}",
         "" if r.cost_P is None else f"{r.cost_P:.17g}",
         "" if r.cost_S is None else f"{r.cost_S:.17g}", str(r.seed))
        for r in reports
    )
    return out.getvalue()
