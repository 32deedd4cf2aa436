"""Acceptance gate: twelve end-to-end checks, one test per shipped claim.

Each test pins one numbered guarantee of the library — exactness of the
weighted robust cost, the exact 1-d solver, coreset quality and
misalignment bounds, the adversarial lower-bound families, sampling
guarantees, builder and runtime comparisons, and build-time scaling.
Instance sizes, seeds, and tolerances are part of the contract;
loosening any of them is a behaviour change, not a test fix.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from oracles import (
    brute_robust_median_1d,
    oracle_weighted_cost,
    oracle_weighted_cost_all_integer_m,
)
from rcoreset import (
    CenterSet,
    WeightedSet,
    inlier_assignment,
    outlier_split,
    robust_cost,
    robust_cost_many,
    robust_cost_weighted,
    robust_cost_weighted_many,
)
from rcoreset.coreset1d import build_robust_1d, build_robust_1d_full
from rcoreset.coreset_nd import build_robust_kz
from rcoreset.evaluation import (
    ball_range_check,
    default_builders,
    draw_candidate_centers,
    empirical_error,
    misalignment_check,
    speedup_report,
)
from rcoreset.instances import gen_gaussian_clusters, gen_lower_bound_1d, gen_ratio_lb
from rcoreset.solver import lloyd_with_outliers, robust_median_1d


def test_criterion_01_weighted_cost_matches_exhaustive_enumeration():
    """1,000 random weighted instances (<= 8 points, integer weights <= 3):
    robust_cost_weighted equals enumeration over every outlier allocation,
    at every valid m, to 1e-9 absolute.  Budget: 10 s."""
    rng = np.random.default_rng(20260819)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 4))
        z = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        pts = rng.normal(size=(size, dim)) * 3.0
        weights = rng.integers(1, 4, size=size).astype(float)
        total = int(weights.sum())
        C = CenterSet(rng.normal(size=(k, dim)) * 2.0, z)
        S = WeightedSet(pts, weights)
        exact_all = oracle_weighted_cost_all_integer_m(pts, weights, C.centers, z)
        for m in range(total + 1):
            got = robust_cost_weighted(S, C, float(m))
            worst = max(worst, abs(got - exact_all[m]))
        for m in rng.uniform(0.0, total, size=3):
            got = robust_cost_weighted(S, C, float(m))
            exact = oracle_weighted_cost(pts, weights, C.centers, z, float(m))
            worst = max(worst, abs(got - exact))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst absolute gap {worst:.3e} exceeds 1e-9"
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget is 10 s"


def test_criterion_02_exact_1d_solver_matches_brute_force():
    """500 random 1-d instances with n <= 64: robust_median_1d reproduces the
    O(n^2) exhaustive search exactly — cost, inlier window (ties resolved to
    the smallest left index), and reported center.  Instances live on a
    dyadic lattice (multiples of 1/32) so every float64 sum is exact and
    bit-for-bit equality is the right comparison; integer-valued trials add
    heavy ties.  Budget: 10 s."""
    rng = np.random.default_rng(31415)
    t0 = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(0, n))
        if trial % 2 == 0:
            pts = np.sort(rng.integers(-40, 41, size=n).astype(float))
        else:
            pts = np.sort(rng.integers(-1280, 1281, size=n) / 32.0)
        res = robust_median_1d(pts, m)
        cost, left, center = brute_robust_median_1d(pts, m)
        assert res.cost == cost, f"trial {trial}: cost {res.cost} vs {cost}"
        assert res.inlier_window == (left, left + (n - m) - 1), (
            f"trial {trial}: window {res.inlier_window} vs left {left}"
        )
        assert res.centers.centers[0, 0] == center, f"trial {trial}: center"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget is 10 s"


def test_criterion_03_coreset_cost_exact_at_window_boundary_points():
    """On 50 random instances (n = 10^4, m = 0.02 n) the 1-d coreset's robust
    cost agrees with the dataset's to 1e-7 relative at the two order
    statistics bounding every feasible inlier window."""
    rng = np.random.default_rng(52)
    n, m = 10_000, 200
    for trial in range(50):
        scale = float(rng.uniform(0.5, 50.0))
        kind = trial % 3
        if kind == 0:
            raw = rng.normal(size=n) * scale
        elif kind == 1:
            raw = rng.uniform(-scale, scale, size=n)
        else:
            raw = rng.standard_t(df=2, size=n) * scale
        P = np.sort(raw)
        S = build_robust_1d(P, m, 0.1)
        for anchor in (P[n - m - 1], P[m]):
            C = CenterSet(np.array([[anchor]]), 1)
            cost_p = robust_cost(P, C, m)
            cost_s = robust_cost_weighted(S, C, float(m))
            assert abs(cost_s - cost_p) <= 1e-7 * cost_p, (
                f"trial {trial}: boundary cost gap "
                f"{abs(cost_s - cost_p) / cost_p:.3e} at anchor {anchor}"
            )


def _gaussian_1d_instance(i: int, n: int = 10_000, m: int = 200) -> np.ndarray:
    """Shared instance family: one Gaussian cluster plus m uniform far
    outliers, sorted.  Criteria 4 and 5 must see identical data."""
    points, _ = gen_gaussian_clusters(n, 1, 1, m, seed=1300 + i)
    return np.sort(points[:, 0])


def test_criterion_04_1d_coreset_empirical_error_within_eps():
    """eps = 0.1 on 20 Gaussian-plus-uniform-outlier instances (n = 10^4,
    m = 200): the max relative cost error over 500 sampled centers stays
    at or below eps on at least 19 of 20 instances.  Budget: 2 min."""
    t0 = time.perf_counter()
    eps, n, m = 0.1, 10_000, 200
    errors = []
    for i in range(20):
        P = _gaussian_1d_instance(i, n, m)
        S = build_robust_1d(P, m, eps)
        report = empirical_error(P, S, m, k=1, z=1, num_centers=500, seed=(1400, i))
        assert report.skipped_centers == 0
        errors.append(report.empirical_error)
    good = sum(e <= eps for e in errors)
    elapsed = time.perf_counter() - t0
    assert good >= 19, (
        f"only {good}/20 instances within eps={eps}; errors: "
        f"{np.round(errors, 4).tolist()}"
    )
    assert elapsed < 120.0, f"took {elapsed:.1f} s, budget is 120 s"


def test_criterion_05_bucket_outlier_misalignment_at_most_quarter_eps_n():
    """On each criterion-4 instance, the total per-bucket outlier-count
    discrepancy between dataset and coreset stays at or below eps*n/4 at 100
    random centers — zero violations across all 20 instances."""
    eps, n, m = 0.1, 10_000, 200
    bound = eps * n / 4.0
    worst = 0.0
    for i in range(20):
        P = _gaussian_1d_instance(i, n, m)
        build = build_robust_1d_full(P, m, eps)
        rng = np.random.default_rng((1500, i))
        pad = 0.25 * (P[-1] - P[0])
        centers = np.concatenate(
            [
                rng.choice(P, size=50, replace=False),
                rng.uniform(P[0] - pad, P[-1] + pad, size=50),
            ]
        )
        value = misalignment_check(P, build.buckets, build.coreset, m, centers)
        worst = max(worst, value)
        assert value <= bound, (
            f"instance {i}: misalignment {value:.2f} exceeds {bound}"
        )
    assert worst <= bound


def _best_weighting_error(
    rows: np.ndarray, m: int, centers: tuple[float, ...], cost_p: dict[float, float]
) -> float:
    """Smallest max-relative-error any nonnegative weighting of a far-only
    support can reach at the given centers.

    Every admissible support row sits at the same far coordinate, so both
    robust costs depend on the weights only through their total W:
    max(W - m, 0) times the distance.  Each error curve is piecewise linear
    in W, so the minimum of their maximum is attained at a kink (W = m), at
    a zero crossing, or in the tail — all covered by the candidate grid.
    Any W <= m keeps no weight at all, which costs 0 at every center and
    hence errs by exactly 1."""
    if len(rows) == 0:
        return 1.0
    X = float(rows[0, 0])
    assert np.all(rows == X), "supports under test hold far points only"
    candidates = [float(m)]
    for c in centers:
        candidates.append(m + cost_p[c] / abs(X - c))
    candidates.extend(np.linspace(m, 4.0 * m, 49).tolist())
    best = 1.0
    for W in candidates:
        S = WeightedSet(rows, np.full(len(rows), W / len(rows)))
        err = max(
            abs(
                robust_cost_weighted(S, CenterSet(np.array([[c]]), 1), float(m))
                - cost_p[c]
            )
            / cost_p[c]
            for c in centers
        )
        best = min(best, err)
    return best


def test_criterion_06_lower_bound_families_defeat_undersized_coresets():
    """Both adversarial families behave as constructed.

    Interval family (n=1000, m=250, eps=0.05): removing the coreset's rows
    from any one value interval I_j (renormalising the rest back to total
    weight n) makes the robust cost at that interval's center overshoot by
    more than (1+eps).

    Far-cluster ratio family (n=12, m=8): every coreset support keeping
    fewer than m/(2(n-m)+1) of the near points — enumerated exhaustively —
    violates the eps=0.3 guarantee at the two adversarial centers (the
    midpoint of the longest uncovered run of near points, and one step past
    the far cluster), whatever nonnegative weights it uses."""
    # Interval family.
    n, m, eps = 1000, 250, 0.05
    inst = gen_lower_bound_1d(n, m, eps)
    P = inst.points
    assert inst.q == 2 and len(inst.centers) == inst.q
    S = build_robust_1d_full(P, m, eps).coreset
    for j in range(1, inst.q + 1):
        lo = float(m) ** ((j - 1) * inst.alpha + 1)
        hi = float(m) ** (j * inst.alpha + 1)
        c = inst.centers[j - 1]
        assert lo <= c <= hi
        inside = (S.points[:, 0] >= lo) & (S.points[:, 0] <= hi)
        assert inside.any(), f"coreset left interval {j} uncovered outright"
        kept_w = float(S.weights[~inside].sum())
        rest = WeightedSet(S.points[~inside], S.weights[~inside] * (n / kept_w))
        C = CenterSet(np.array([[c]]), 1)
        cost_s = robust_cost_weighted(rest, C, float(m))
        cost_p = robust_cost(P, C, m)
        assert cost_s > (1 + eps) * cost_p, (
            f"interval {j}: ratio {cost_s / cost_p:.4f} not above {1 + eps}"
        )

    # Far-cluster ratio family.
    n2, m2, eps2 = 12, 8, 0.3
    P2 = gen_ratio_lb(n2, m2)
    pts2 = P2.reshape(-1, 1)
    X = float(P2[-1])
    far_rows = np.flatnonzero(P2 > m2)
    assert np.all(P2[far_rows] == X)
    max_near_kept = math.ceil(m2 / (2 * (n2 - m2) + 1)) - 1
    assert max_near_kept == 0  # at this scale the supports keep no near point
    c_run = (n2 - m2) + 0.5
    c_far = X + 1.0
    cost_p = {
        c: robust_cost(pts2, CenterSet(np.array([[c]]), 1), m2)
        for c in (c_run, c_far)
    }
    assert cost_p[c_far] == float(n2 - m2)
    checked = 0
    for size in range(len(far_rows) + 1):
        for combo in itertools.combinations(far_rows, size):
            support = np.array(combo, dtype=np.intp)
            best = _best_weighting_error(pts2[support], m2, (c_run, c_far), cost_p)
            assert best > eps2, (
                f"support {combo} achieved error {best:.4f}, below {eps2}"
            )
            checked += 1
    assert checked == 2 ** len(far_rows)


def test_criterion_07_bucket_count_growth_when_halving_eps():
    """Halving eps from 0.2 to 0.1 grows the bucket count by at most 2.4x
    when m/n = 0.25 (outlier-dominated regime) and by at most 1.7x when
    m/n = 0.001 (square-root regime)."""
    rng = np.random.default_rng(7)
    dense_outliers = np.sort(rng.normal(size=4000))
    sparse_outliers = np.sort(rng.normal(size=10_000))
    for P, m, cap in ((dense_outliers, 1000, 2.4), (sparse_outliers, 10, 1.7)):
        coarse = len(build_robust_1d_full(P, m, 0.2).buckets)
        fine = len(build_robust_1d_full(P, m, 0.1).buckets)
        assert fine / coarse <= cap, (
            f"m/n={m / len(P)}: bucket count {coarse} -> {fine}, "
            f"factor {fine / coarse:.3f} exceeds {cap}"
        )


def test_criterion_08_uniform_outlier_sample_approximates_ball_ranges():
    """For 5,000 outlier points and eps = 0.1, a uniform sample of size
    ceil(eps^-2 * log2(1/eps)) = 333 keeps the Monte-Carlo ball-range
    deviation at or below eps over 10^4 balls in at least 90 of 100 draws.

    The balls are drawn once with the exact scheme ball_range_check uses, so
    the population-side masses can be shared across the 100 sample draws;
    one draw is then re-checked through ball_range_check itself to tie the
    two computations together."""
    eps, m, num_balls = 0.1, 5000, 10_000
    size = math.ceil(eps**-2 * math.log2(1.0 / eps))
    assert size == 333
    P_O = np.random.default_rng(20260819).uniform(0.0, 1.0, size=(m, 2))
    lo, hi = P_O.min(axis=0), P_O.max(axis=0)
    diameter = float(np.linalg.norm(hi - lo))
    ball_rng = np.random.default_rng(555)
    centers = ball_rng.uniform(lo, hi, (num_balls, 2))
    radii = (1.0 - ball_rng.random(num_balls)) * max(diameter, 1e-300)
    inside = np.empty((m, num_balls), dtype=bool)
    step = 2000
    for start in range(0, num_balls, step):
        c = centers[start : start + step]
        dmat = np.linalg.norm(P_O[:, None, :] - c[None, :, :], axis=2)
        inside[:, start : start + step] = dmat <= radii[start : start + step][None, :]
    frac_pop = inside.mean(axis=0)
    deviations = []
    for s in range(100):
        sel = np.random.default_rng((4040, s)).choice(m, size=size, replace=False)
        deviations.append(float(np.max(np.abs(inside[sel].mean(axis=0) - frac_pop))))
    sel0 = np.random.default_rng((4040, 0)).choice(m, size=size, replace=False)
    S_O = WeightedSet(P_O[sel0], np.full(size, m / size))
    module_dev = ball_range_check(P_O, S_O, num_balls=num_balls, seed=555)
    assert math.isclose(module_dev, deviations[0], rel_tol=0.0, abs_tol=1e-12)
    passes = sum(dev <= eps for dev in deviations)
    assert passes >= 90, (
        f"{passes}/100 draws within {eps}; worst deviation {max(deviations):.4f}"
    )


def test_criterion_09_outlier_count_misalignment_at_most_two_eps_m():
    """On 20 synthetic d=5 instances, whenever the uniform outlier sample
    passes the criterion-8 ball-range check, the number of center-induced
    outliers landing in the true-outlier set (dataset side) and the outlier
    weight landing in the sample (coreset side) differ by at most 2*eps*m at
    every one of 200 random centers — zero violations."""
    eps, n, d, k, m = 0.1, 10_000, 5, 2, 500
    size = math.ceil(eps**-2 * math.log2(1.0 / eps))
    bound = 2.0 * eps * m
    gates_passed = 0
    worst = 0.0
    for i in range(20):
        points, labels = gen_gaussian_clusters(n, d, k, m, seed=300 + i)
        L_star = points[labels == -1]
        P_inliers = points[labels >= 0]
        rng = np.random.default_rng((901, i))
        sel = rng.choice(m, size=size, replace=False)
        S_O = WeightedSet(L_star[sel], np.full(size, m / size))
        if ball_range_check(L_star, S_O, num_balls=10_000, seed=(902, i)) > eps:
            continue  # the guarantee is only claimed under the range check
        gates_passed += 1
        combined = WeightedSet(
            np.vstack([P_inliers, S_O.points]),
            np.concatenate([np.ones(len(P_inliers)), S_O.weights]),
        )
        lo, hi = points.min(axis=0), points.max(axis=0)
        centers = np.vstack(
            [
                points[rng.choice(n, size=100, replace=False)],
                rng.uniform(
                    lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo), size=(100, d)
                ),
            ]
        )
        for c in centers:
            C = CenterSet(c.reshape(1, d), 1)
            _, out_idx = outlier_split(points, C, m)
            m_p = float(np.sum(labels[out_idx] == -1))
            kept = inlier_assignment(combined, C, float(m)).kept_weight
            sample_rows = slice(len(P_inliers), None)
            m_s = float(
                np.sum(combined.weights[sample_rows] - kept[sample_rows])
            )
            gap = abs(m_p - m_s)
            worst = max(worst, gap)
            assert gap <= bound, (
                f"instance {i}: outlier-count gap {gap:.2f} exceeds {bound}"
            )
    assert gates_passed >= 15, f"only {gates_passed}/20 samples passed the gate"
    assert worst <= bound


_COMPARISON_PROTOCOLS = ((1, 1), (5, 1), (5, 2))
_COMPARISON_N, _COMPARISON_D, _COMPARISON_M = 100_000, 10, 2000


def _comparison_instance(k: int, z: int, s: int) -> np.ndarray:
    points, _ = gen_gaussian_clusters(
        _COMPARISON_N,
        _COMPARISON_D,
        k,
        _COMPARISON_M,
        seed=7000 + 97 * s + 13 * k + z,
    )
    return points


def _restarted_centers(P: np.ndarray, k: int, z: int, seed_base) -> CenterSet:
    """Best of ten seeded solver restarts — the shared approximate solution
    every builder and reference solve starts from."""
    m = _COMPARISON_M
    best = None
    for r in range(10):
        sol = lloyd_with_outliers(P, k, m, z, max_iters=20, seed=(seed_base, 11, r))
        if best is None or sol.cost < best.cost:
            best = sol
    return best.centers


def test_criterion_10_half_size_coreset_against_double_size_baseline():
    """Synthetic Gaussian clusters, n = 10^5, d = 10, m = 2000: our builder
    at size m must reach a mean per-center relative error at or below the
    double-budget sensitivity-sampling baseline (size 2m) in at least 7 of
    10 seeded comparisons, for each of (k=1, z=1), (k=5, z=1), (k=5, z=2).
    Budget: 10 min for all three protocols."""
    t0 = time.perf_counter()
    m = _COMPARISON_M
    shortfalls = []
    for k, z in _COMPARISON_PROTOCOLS:
        wins = 0
        per_seed = []
        for s in range(10):
            P = _comparison_instance(k, z, s)
            C_star = _restarted_centers(P, k, z, 7000 + s)
            builders = default_builders(C_star)
            S_ours = builders["ours"](P, m, k, z, m, (7000 + s, 1))
            S_base = builders["hllw25"](P, m, k, z, 2 * m, (7000 + s, 2))
            centers = draw_candidate_centers(P, k, 500, (7000 + s, 3))
            cost_p = robust_cost_many(P, centers, z, m)
            valid = cost_p > 0
            cp = cost_p[valid]
            err_ours = (
                np.abs(robust_cost_weighted_many(S_ours, centers, z, float(m))[valid] - cp)
                / cp
            )
            err_base = (
                np.abs(robust_cost_weighted_many(S_base, centers, z, float(m))[valid] - cp)
                / cp
            )
            wins += err_ours.mean() <= err_base.mean()
            per_seed.append((float(err_ours.mean()), float(err_base.mean())))
        if wins < 7:
            shortfalls.append((k, z, wins, per_seed))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.0f} s, budget is 600 s"
    assert not shortfalls, "half-size builder fell short of 7/10 wins: " + "; ".join(
        f"k={k} z={z}: {wins}/10, per-seed mean errors (ours vs baseline) "
        + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in per_seed)
        for k, z, wins, per_seed in shortfalls
    )


def test_criterion_11_coreset_solve_time_and_cost_parity():
    """On one instance per comparison protocol: solving on our size-m coreset
    takes at most 0.75x the solve time on the baseline's size-2m coreset
    (totalled over the three protocols, best of three timing repetitions,
    every solve started from the shared approximate centers), and the
    centers found on our coreset cost within 5% of the reference solve's
    cost on the full dataset."""
    m = _COMPARISON_M
    total_ours = 0.0
    total_base = 0.0
    for k, z in _COMPARISON_PROTOCOLS:
        P = _comparison_instance(k, z, 0)
        C_star = _restarted_centers(P, k, z, 7100)
        builders = default_builders(C_star)
        rows = [("ours", builders["ours"], m), ("hllw25", builders["hllw25"], 2 * m)]
        best_times: dict[str, float] = {}
        parity = None
        for _ in range(3):
            reports = speedup_report(
                P, m, k, z, rows, seed=(7200, k, z), init=C_star
            )
            by = {r.builder: r for r in reports}
            for name, report in by.items():
                best_times[name] = min(
                    best_times.get(name, math.inf), report.solve_time_on_coreset
                )
            parity = abs(by["ours"].cost_S - by["ours"].cost_P) / by["ours"].cost_P
        assert parity is not None and parity <= 0.05, (
            f"k={k} z={z}: coreset-derived centers cost {parity * 100:.2f}% "
            "away from the full solve, above 5%"
        )
        total_ours += best_times["ours"]
        total_base += best_times["hllw25"]
    assert total_ours <= 0.75 * total_base, (
        f"solve-time total {total_ours * 1e3:.2f} ms on ours vs "
        f"{total_base * 1e3:.2f} ms on the double-size baseline: ratio "
        f"{total_ours / total_base:.3f} exceeds 0.75"
    )


def test_criterion_12_build_time_scales_near_linearly():
    """Doubling n multiplies the build time by at most 2.5 (best of three
    runs): the 1-d builder from n = 5*10^5 to 10^6, and the d=10 builder
    from n = 10^5 to 2*10^5, both at fixed contamination m = 0.01 n."""

    def best_of(fn, reps: int = 3) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    rng = np.random.default_rng(121)
    small = np.sort(rng.normal(size=500_000))
    large = np.sort(rng.normal(size=1_000_000))
    build_robust_1d(small[:100_000], 1000, 0.1)  # warm-up
    t_small = best_of(lambda: build_robust_1d(small, 5000, 0.1))
    t_large = best_of(lambda: build_robust_1d(large, 10_000, 0.1))
    assert t_large <= 2.5 * t_small, (
        f"1-d build: {t_small:.3f} s -> {t_large:.3f} s, "
        f"factor {t_large / t_small:.2f} exceeds 2.5"
    )

    P1, _ = gen_gaussian_clusters(100_000, 10, 1, 1000, seed=9000)
    P2, _ = gen_gaussian_clusters(200_000, 10, 1, 2000, seed=9001)
    C1 = lloyd_with_outliers(P1, 1, 1000, 1, max_iters=20, seed=1).centers
    C2 = lloyd_with_outliers(P2, 1, 2000, 1, max_iters=20, seed=1).centers
    build_robust_kz(P1[:10_000], 100, 1, 1, 1000, C1, 5)  # warm-up
    t1 = best_of(lambda: build_robust_kz(P1, 1000, 1, 1, 1000, C1, 5))
    t2 = best_of(lambda: build_robust_kz(P2, 2000, 1, 1, 1000, C2, 5))
    assert t2 <= 2.5 * t1, (
        f"d=10 build: {t1:.3f} s -> {t2:.3f} s, factor {t2 / t1:.2f} exceeds 2.5"
    )
