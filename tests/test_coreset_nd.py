"""Tests for the general-dimension robust coreset builders."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoreset.core import (
    CenterSet,
    WeightedSet,
    inlier_assignment,
    outlier_split,
    robust_cost,
    robust_cost_many,
    robust_cost_weighted,
    robust_cost_weighted_many,
)
from rcoreset.coreset_nd import (
    NdCoresetConfig,
    build_inlier_coreset,
    build_robust_kz,
    build_robust_kz_full,
    check_assumptions,
    evaluate_conditions,
    sample_outlier_coreset,
)


class TestNdCoresetConfig:
    def test_default_sizes(self) -> None:
        cfg = NdCoresetConfig(eps=0.1)
        # eps^-2 = 100, min(100, 5) = 5, log factor = ceil(log2(10)+1) = 5
        assert cfg.resolved_outlier_size(5) == 2500
        assert cfg.resolved_inlier_size(5, 1, 1) == 2500

    def test_inlier_scaling_with_k_and_z(self) -> None:
        cfg = NdCoresetConfig(eps=0.5)
        # eps^-2 = 4, log factor = 2; z=2 lifts the leading term to eps^-4 = 16
        assert cfg.resolved_outlier_size(10) == 32
        assert cfg.resolved_inlier_size(10, 2, 2) == 16 * 4 * 2 * 4

    def test_explicit_sizes_win(self) -> None:
        cfg = NdCoresetConfig(eps=0.1, outlier_sample_size=7, inlier_sample_size=9)
        assert cfg.resolved_outlier_size(50) == 7
        assert cfg.resolved_inlier_size(50, 3, 2) == 9

    def test_sizes_at_least_one(self) -> None:
        cfg = NdCoresetConfig(eps=0.9, c0=1e-9)
        assert cfg.resolved_outlier_size(2) == 1
        assert cfg.resolved_inlier_size(2, 1, 1) == 1

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="eps"):
            NdCoresetConfig(eps=0.0)
        with pytest.raises(ValueError, match="outlier_sample_size"):
            NdCoresetConfig(eps=0.1, outlier_sample_size=0)
        with pytest.raises(ValueError, match="c0"):
            NdCoresetConfig(eps=0.1, c0=0.0)


class TestSampleOutlierCoreset:
    def test_oversized_budget_returns_input_with_unit_weights(self) -> None:
        L = np.arange(12.0).reshape(6, 2)
        S = sample_outlier_coreset(L, 10, seed=0)
        np.testing.assert_array_equal(S.points, L)
        np.testing.assert_array_equal(S.weights, np.ones(6))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 60))
    @settings(max_examples=60)
    def test_total_weight_and_subset(self, seed, m, size) -> None:
        rng = np.random.default_rng(seed)
        L = rng.normal(0.0, 5.0, (m, 2))
        S = sample_outlier_coreset(L, size, seed=seed)
        assert len(S) == min(size, m)
        assert S.total_weight == pytest.approx(float(m), rel=1e-12)
        rows = {tuple(p) for p in L}
        assert all(tuple(p) in rows for p in S.points)

    def test_empty_rejected(self) -> None:
        with pytest.raises(ValueError, match="nonempty"):
            sample_outlier_coreset(np.empty((0, 2)), 3, seed=0)

    def test_ball_range_deviation_mostly_within_eps(self) -> None:
        # Uniform samples of size ~ eps^-2 log(1/eps) should keep every
        # ball's count within eps*m, for most seeds.
        eps, m = 0.2, 2000
        size = math.ceil(eps**-2 * math.log2(1.0 / eps))
        ok = 0
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            L = rng.uniform(-10.0, 10.0, (m, 3))
            S = sample_outlier_coreset(L, size, seed=rng)
            centers = L[rng.integers(0, m, 2000)] + rng.normal(0.0, 2.0, (2000, 3))
            radii = rng.uniform(0.0, 15.0, 2000)
            d_full = np.linalg.norm(L[None] - centers[:, None], axis=2)
            d_samp = np.linalg.norm(S.points[None] - centers[:, None], axis=2)
            count_full = (d_full <= radii[:, None]).sum(axis=1)
            count_samp = ((d_samp <= radii[:, None]) * S.weights[None]).sum(axis=1)
            if np.max(np.abs(count_full - count_samp)) <= eps * m:
                ok += 1
        assert ok >= 18, f"ball-range check passed only {ok}/20 seeds"


class TestBuildInlierCoreset:
    def test_identical_points_uniform_weights(self) -> None:
        P = np.full((30, 2), 1.5)
        S = build_inlier_coreset(P, [[1.5, 1.5]], z=1, size=10, seed=4)
        per_draw = 30.0 / 10.0
        counts = S.weights / per_draw
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
        assert S.total_weight == pytest.approx(30.0, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_total_weight_normalized(self, seed) -> None:
        rng = np.random.default_rng(seed)
        n_i = int(rng.integers(1, 200))
        d = int(rng.integers(1, 4))
        z = int(rng.choice([1, 2]))
        P = rng.normal(0.0, 2.0, (n_i, d))
        c = rng.normal(0.0, 1.0, (1, d))
        S = build_inlier_coreset(P, c, z=z, size=int(rng.integers(1, 300)), seed=seed)
        assert S.total_weight == pytest.approx(float(n_i), rel=1e-9)

    def test_z_mismatch_with_center_set_rejected(self) -> None:
        C = CenterSet([[0.0]], z=2)
        with pytest.raises(ValueError, match="z"):
            build_inlier_coreset([[1.0]], C, z=1, size=3, seed=0)

    def test_error_contract_against_exact_costs(self) -> None:
        # |cost^t(P_O u P_I, C) - cost^t(P_O u S_I, C)|
        #   <= eps * cost^t(P_O u P_I, C) + 2 eps * cost(P_I, C_star)
        # must hold for >= 95% of sampled (instance, P_O, t, C).
        rng = np.random.default_rng(2026)
        eps = 0.25
        passed = total = 0
        for _ in range(200):
            n_i = int(rng.integers(50, 400))
            d = int(rng.integers(1, 4))
            z = int(rng.choice([1, 2]))
            P_I = rng.normal(0.0, 1.0, (n_i, d)) * rng.uniform(0.5, 3.0)
            c_star = np.mean(P_I, axis=0).reshape(1, d)
            size = max(
                1, math.ceil(eps ** (-2.0 * z) * min(eps**-2.0, d) * math.ceil(math.log2(1 / eps) + 1))
            )
            S_I = build_inlier_coreset(P_I, c_star, z, size, rng)
            base = robust_cost(P_I, CenterSet(c_star, z=z), 0)
            n_o = int(rng.integers(0, 41))
            P_O = rng.normal(0.0, 1.0, (n_o, d)) + rng.uniform(-6.0, 6.0, (n_o, d))
            t = int(rng.integers(0, n_o + max(1, n_i // 8)))
            C = CenterSet(rng.normal(0.0, 2.0, (1, d)), z=z)
            union = np.concatenate([P_O, P_I]) if n_o else P_I
            exact = robust_cost(union, C, t)
            S = WeightedSet(
                np.concatenate([P_O, S_I.points]) if n_o else S_I.points,
                np.concatenate([np.ones(n_o), S_I.weights]) if n_o else S_I.weights,
            )
            approx = robust_cost_weighted(S, C, t)
            total += 1
            if abs(approx - exact) <= eps * exact + 2.0 * eps * base:
                passed += 1
        assert passed / total >= 0.95, f"contract held in only {passed}/{total} trials"


def gaussian_uniform_instance(rng, n, d, m):
    inliers = rng.normal(0.0, 1.0, (n - m, d))
    outliers = rng.uniform(-30.0, 30.0, (m, d))
    return np.concatenate([inliers, outliers])


class TestBuildRobustNd:
    def test_weight_is_n(self) -> None:
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(20, 400))
            m = int(rng.integers(0, n // 4))
            d = int(rng.integers(1, 5))
            P = rng.normal(0.0, 3.0, (n, d))
            cfg = NdCoresetConfig(eps=0.3, outlier_sample_size=11, inlier_sample_size=37, seed=1)
            S = build_robust_kz(P, m, 1, 1, cfg, np.zeros((1, d)))
            assert S.total_weight == pytest.approx(float(n), rel=1e-9)

    def test_zero_outliers_reduces_to_inlier_sampler(self) -> None:
        rng = np.random.default_rng(9)
        P = rng.normal(0.0, 1.0, (100, 3))
        cfg = NdCoresetConfig(eps=0.2, inlier_sample_size=25, seed=7)
        full = build_robust_kz_full(P, 0, 1, 1, cfg, np.zeros((1, 3)))
        assert full.outlier_rows is None
        assert full.coreset is full.inlier_rows

    def test_deterministic_and_order_independent(self) -> None:
        rng = np.random.default_rng(11)
        P = rng.normal(0.0, 2.0, (150, 3))
        cfg = NdCoresetConfig(eps=0.3, outlier_sample_size=8, inlier_sample_size=20, seed=13)
        c = np.zeros((1, 3))
        S1 = build_robust_kz(P, 15, 1, 1, cfg, c)
        S2 = build_robust_kz(P, 15, 1, 1, cfg, c)
        S3 = build_robust_kz(P[rng.permutation(150)], 15, 1, 1, cfg, c)
        for other in (S2, S3):
            np.testing.assert_array_equal(S1.points, other.points)
            np.testing.assert_array_equal(S1.weights, other.weights)

    def test_error_within_budget_on_reference_instance(self) -> None:
        rng = np.random.default_rng(77)
        n, d, m, eps = 10_000, 5, 200, 0.1
        P = gaussian_uniform_instance(rng, n, d, m)
        c_star = np.mean(P[: n - m], axis=0).reshape(1, d)
        S = build_robust_kz(P, m, 1, 1, NdCoresetConfig(eps=eps, seed=3), c_star)
        centers = P[rng.choice(n, 500, replace=False)].reshape(-1, 1, d)
        exact = robust_cost_many(P, centers, 1, m)
        approx = robust_cost_weighted_many(S, centers, 1, m)
        worst = float(np.max(np.abs(approx - exact) / exact))
        assert worst <= 2 * eps, f"worst relative error {worst} > {2 * eps}"

    def test_invalid_m_rejected(self) -> None:
        cfg = NdCoresetConfig(eps=0.5)
        with pytest.raises(ValueError, match="m"):
            build_robust_kz(np.zeros((5, 2)), 5, 1, 1, cfg, np.zeros((1, 2)))


class TestNearCalibration:
    @staticmethod
    def cluster_totals(points, weights, C):
        """Per-cluster weight, coordinate sum about the center, z-cost and |x - c| sum."""
        d2 = ((points[:, None, :] - C.centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        dist = np.sqrt(d2[np.arange(len(points)), nearest])
        dpow = dist if C.z == 1 else dist**2
        totals = []
        for j in range(len(C)):
            sel = nearest == j
            diffs = points[sel] - C.centers[j]
            w = weights[sel]
            totals.append((w.sum(), w @ diffs, w @ dpow[sel], w @ np.abs(diffs)))
        return totals

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("z", [1, 2])
    def test_near_rows_match_near_part_per_cluster(self, k, z) -> None:
        rng = np.random.default_rng(400 + 10 * k + z)
        for _ in range(4):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(5, 40))
            sizes = rng.integers(300, 800, size=k)
            centers = rng.normal(0.0, 20.0, (k, d))
            P = np.concatenate(
                [rng.normal(c, rng.uniform(0.5, 2.0), (s, d)) for c, s in zip(centers, sizes)]
                + [rng.uniform(-80.0, 80.0, (m, d))]
            )
            C = CenterSet(centers, z=z)
            cfg = NdCoresetConfig(
                eps=0.2, outlier_sample_size=5, inlier_sample_size=150 * k,
                seed=int(rng.integers(2**31)),
            )
            build = build_robust_kz_full(P, m, k, z, cfg, C)
            S_I = build.inlier_rows
            assert np.all(S_I.weights > 0)
            want = self.cluster_totals(build.P_I_star, np.ones(len(build.P_I_star)), C)
            got = self.cluster_totals(S_I.points, S_I.weights, C)
            for (n_w, s_w, c_w, a_w), (n_g, s_g, c_g, _) in zip(want, got):
                assert n_g == pytest.approx(n_w, rel=1e-9)
                assert c_g == pytest.approx(c_w, rel=1e-9)
                np.testing.assert_array_less(np.abs(s_g - s_w), 1e-9 * a_w)
            assert build.coreset.total_weight == pytest.approx(len(P), rel=1e-9)

    def test_cluster_with_a_single_row_falls_back_to_its_count(self) -> None:
        rng = np.random.default_rng(5)
        big = rng.normal(0.0, 0.1, (200, 2))
        lone = np.array([[100.0, 5.0]])
        P = np.concatenate([big, lone])
        C = CenterSet([[0.0, 0.0], [100.0, 0.0]], z=1)
        cfg = NdCoresetConfig(eps=0.2, inlier_sample_size=100, seed=3)
        build = build_robust_kz_full(P, 0, 2, 1, cfg, C)
        S = build.coreset
        lone_rows = np.flatnonzero(S.points[:, 0] > 50.0)
        assert len(lone_rows) == 1  # the cluster drew exactly one row
        assert S.weights[lone_rows[0]] == pytest.approx(1.0, rel=1e-9)
        assert np.all(S.weights > 0)
        assert S.total_weight == pytest.approx(len(P), rel=1e-9)


class TestStructuralGuarantees:
    def hard_instance(self, rng, trial):
        n = int(rng.integers(400, 1600))
        m = int(rng.integers(1, n // 4))
        d = int(rng.integers(1, 6))
        kind = trial % 3
        if kind == 0:
            P = np.concatenate([rng.normal(0, 1, (n - m, d)), rng.normal(0, 3, (m, d))])
        elif kind == 1:
            P = rng.normal(0, 1, (n, d))
        else:
            P = np.concatenate([rng.normal(0, 1, (n - m, d)), rng.normal(0, 1, (m, d)) + 4.0])
        return P, n, m, d

    def test_induced_error_scale(self) -> None:
        # With the split frozen at c_star, the farthest kept point is at
        # most C * cost/m beyond the nearest dropped point, any center.
        rng = np.random.default_rng(123)
        bound_constant = 16.0
        for trial in range(9):
            P, n, m, d = self.hard_instance(rng, trial)
            c_star = np.median(P, axis=0).reshape(1, d)
            inl_idx, out_idx = outlier_split(P, CenterSet(c_star, z=1), m)
            L, P_I = P[out_idx], P[inl_idx]
            centers = P[rng.choice(n, 60, replace=False)]
            costs = robust_cost_many(P, centers.reshape(-1, 1, d), 1, m)
            for c, cost in zip(centers, costs):
                gap = np.linalg.norm(P_I - c, axis=1).max() - np.linalg.norm(L - c, axis=1).min()
                if gap > 0:
                    assert gap <= bound_constant * cost / m, (
                        f"trial {trial}: gap {gap} exceeds {bound_constant}*{cost}/{m}"
                    )

    def test_misaligned_outlier_weight(self) -> None:
        # |m_P - m_S| <= 2 eps m: the outlier-sample rows absorb nearly
        # the same outlier mass as the true far set at any test center.
        rng = np.random.default_rng(321)
        eps = 0.1
        for trial in range(6):
            P, n, m, d = self.hard_instance(rng, trial)
            c_star = np.median(P, axis=0).reshape(1, d)
            cfg = NdCoresetConfig(eps=eps, seed=trial)
            build = build_robust_kz_full(P, m, 1, 1, cfg, c_star)
            S, n_o = build.coreset, len(build.outlier_rows)
            far_rows = {tuple(p) for p in build.L_star}
            for c in P[rng.choice(n, 40, replace=False)]:
                C = CenterSet(c.reshape(1, d), z=1)
                _, out_c = outlier_split(P, C, m)
                m_p = sum(1 for q in P[out_c] if tuple(q) in far_rows)
                kept = inlier_assignment(S, C, m).kept_weight
                m_s = float(np.sum(S.weights[:n_o] - kept[:n_o]))
                assert abs(m_p - m_s) <= 2 * eps * m, (
                    f"trial {trial}: |{m_p} - {m_s}| > {2 * eps * m}"
                )


class TestCheckAssumptions:
    def test_threshold_logic_on_published_summaries(self) -> None:
        # k=5, m=2000, z=1 with min cluster 8968 and radius ratio 3.819
        cond1, cond2 = evaluate_conditions(8968, 3.819, 1.0, 2000, 5, 1)
        assert cond1 and cond2
        # min cluster 5927 < 4*2000 fails the size condition
        cond1, _ = evaluate_conditions(5927, 3.819, 1.0, 2000, 5, 1)
        assert not cond1
        # ratio beyond 4k fails the radius condition
        _, cond2 = evaluate_conditions(10**6, 21.0, 1.0, 2000, 5, 1)
        assert not cond2

    def test_tight_cluster_with_far_outliers_passes(self) -> None:
        rng = np.random.default_rng(55)
        inl = rng.normal(0.0, 0.1, (400, 2))
        out = rng.uniform(20.0, 30.0, (20, 2))
        P = np.concatenate([inl, out])
        report = check_assumptions(P, np.zeros((1, 2)), 20, 1, 1)
        assert report.cluster_sizes == (400,)
        assert report.cond1 and report.cond2 and report.separation_ok

    def test_cluster_assignment_counts_and_tie(self) -> None:
        P = np.array([[-1.0], [-1.0], [1.0], [0.0]])
        report = check_assumptions(P, [[-1.0], [1.0]], 0, 2, 1)
        # the midpoint ties and goes to the lower center index
        assert report.cluster_sizes == (3, 1)

    def test_separation_condition_violation_reported(self) -> None:
        P = np.concatenate(
            [np.zeros((40, 1)), np.full((39, 1), 0.2), [[0.7]], np.full((20, 1), 5.0)]
        )
        report = check_assumptions(P, [[0.0], [0.2]], 20, 2, 1)
        assert report.r_max == pytest.approx(0.5)
        assert not report.separation_ok

    def test_zero_radius_degenerate(self) -> None:
        P = np.concatenate([np.zeros((10, 2)), np.ones((3, 2))])
        report = check_assumptions(P, np.zeros((1, 2)), 3, 1, 2)
        assert report.r_max == 0.0 and report.r_bar == 0.0
        assert report.cond2

    def test_center_count_mismatch_rejected(self) -> None:
        with pytest.raises(ValueError, match="centers"):
            check_assumptions(np.zeros((5, 2)), np.zeros((2, 2)), 1, 3, 1)
