"""Tests for the 1-d robust median, seeding, and outlier-aware Lloyd."""

from __future__ import annotations

import numpy as np
import pytest

from rcoreset import CenterSet, robust_cost
from rcoreset.solver import (
    _coordinate_median,
    kmeanspp_seed,
    lloyd_with_outliers,
    robust_median_1d,
)

from oracles import brute_robust_median_1d

# 50 points in the plane, and weights that are not a WeightedSet's.
_P50 = np.random.default_rng(8).normal(size=(50, 2))
_BAD_WEIGHTS = pytest.mark.parametrize(
    "weights",
    [np.ones(60), np.r_[-5.0, np.ones(49)], np.r_[np.nan, np.ones(49)]],
    ids=["60 for 50 points", "negative", "nan"],
)


class TestRobustMedian1d:
    def test_drops_far_outlier(self):
        res = robust_median_1d([0.0, 1.0, 2.0, 100.0], m=1)
        assert res.inlier_window == (0, 2)
        assert res.centers.centers[0, 0] == 1.0
        assert res.cost == 2.0

    def test_m_zero_is_plain_median(self):
        res = robust_median_1d([0.0, 1.0, 2.0], m=0)
        assert res.centers.centers[0, 0] == 1.0
        assert res.cost == 2.0

    def test_window_tie_prefers_smallest_left_index(self):
        res = robust_median_1d([1.0, 2.0, 3.0, 4.0], m=2)
        assert res.cost == 1.0
        assert res.inlier_window == (0, 1)
        assert res.centers.centers[0, 0] == 1.0  # lower median of {1, 2}

    def test_m_at_least_n_rejected(self):
        with pytest.raises(ValueError, match="m < "):
            robust_median_1d([0.0, 1.0], m=2)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            robust_median_1d([1.0, 0.0], m=0)

    @pytest.mark.parametrize("at, bad", [(5, np.nan), (0, -np.inf), (-1, np.inf)])
    def test_non_finite_rejected(self, at, bad):
        # A NaN fails every comparison, so a check for descents alone let
        # it through to a NaN cost; infinite ends keep the points sorted.
        x = np.sort(np.random.default_rng(0).normal(size=20))
        x[at] = bad
        with pytest.raises(ValueError, match="non-finite"):
            robust_median_1d(x, 2)

    def test_descent_inside_rejected(self):
        x = np.sort(np.random.default_rng(1).normal(size=20))
        x[[7, 8]] = x[[8, 7]]
        with pytest.raises(ValueError, match="must be sorted"):
            robust_median_1d(x, 2)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(0, n))
            pts = np.sort(rng.integers(-50, 51, size=n).astype(float))
            res = robust_median_1d(pts, m)
            cost, left, center = brute_robust_median_1d(pts, m)
            assert res.cost == cost, f"trial {trial}: cost {res.cost} vs brute {cost}"
            assert res.inlier_window[0] == left, (
                f"trial {trial}: window start {res.inlier_window[0]} vs brute {left}"
            )
            assert res.centers.centers[0, 0] == center

    def test_matches_brute_force_on_two_far_clusters_past_a_quarter(self):
        # Two tight clusters 1e8 apart.  Past m = n/4 a window may lie
        # wholly in one cluster while the median index sits in the other;
        # sums anchored there lose the window costs' last digits.
        n = 400
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pts = np.sort(1e-3 * rng.normal(size=n) + np.where(np.arange(n) < n // 2, 0.0, 1e8))
            for m in (n // 2, 3 * n // 4, n - 5):
                res = robust_median_1d(pts, m)
                cost, left, _ = brute_robust_median_1d(pts, m)
                assert res.inlier_window[0] == left, f"seed {seed}, m={m}"
                assert res.cost == pytest.approx(cost, rel=1e-12, abs=0), f"seed {seed}, m={m}"

    def test_window_unchanged_by_an_exact_shift(self):
        # Multiples of 2^-24 below 1 stay exact after a shift by 2^27.  At
        # m = n - 1 every one-point window costs 0, so rounding alone could
        # move the tie-break.
        rng = np.random.default_rng(8)
        for trial in range(300):
            n = int(rng.integers(3, 40))
            m = int(rng.integers(1, n))
            pts = np.sort(np.round(rng.normal(size=n) * 2.0**20) / 2.0**24)
            moved = pts + 2.0**27
            assert np.array_equal(moved - 2.0**27, pts)
            got = robust_median_1d(moved, m).inlier_window
            assert got == robust_median_1d(pts, m).inlier_window, f"trial {trial}: n={n} m={m}"

    def test_cost_matches_robust_cost_recomputed(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            m = int(rng.integers(0, n))
            pts = np.sort(rng.normal(size=n) * 10)
            res = robust_median_1d(pts, m)
            recomputed = robust_cost(pts, res.centers, m)
            assert res.cost == pytest.approx(recomputed, rel=1e-7)


class TestKmeansppSeed:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(40, 3))
        a = kmeanspp_seed(P, k=4, z=2, seed=123)
        b = kmeanspp_seed(P, k=4, z=2, seed=123)
        assert np.array_equal(a.centers, b.centers)

    def test_k_equals_n_selects_everything(self):
        P = np.array([[0.0], [1.0], [1.0], [5.0]])
        got = kmeanspp_seed(P, k=4, z=1, seed=7)
        assert sorted(got.centers[:, 0].tolist()) == [0.0, 1.0, 1.0, 5.0]

    def test_two_points_both_selected(self):
        for seed in range(10):
            got = kmeanspp_seed([0.0, 100.0], k=2, z=1, seed=seed)
            assert sorted(got.centers[:, 0].tolist()) == [0.0, 100.0]

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="k <= "):
            kmeanspp_seed([0.0, 1.0], k=3, z=1, seed=0)

    @_BAD_WEIGHTS
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            kmeanspp_seed(_P50, k=3, z=2, seed=0, weights=weights)


class TestCoordinateMedian:
    def test_matches_per_column_definition(self):
        # Per column: the smallest value, in stable sorted order, whose
        # running weight reaches half the column's total.  Tie-heavy
        # integer grids at three scales, quarter-step and log-normal weights.
        rng = np.random.default_rng(17)
        for trial in range(300):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            X = rng.integers(0, 4, size=(n, d)) * 10.0 ** [-3, 0, 8][trial % 3]
            w = rng.integers(1, 9, n) * 0.25 if trial % 2 else rng.lognormal(0.0, 2.0, n)
            want = []
            for t in range(d):
                order = sorted(range(n), key=lambda i: X[i, t])
                cum = np.cumsum(w[order])
                first = next(j for j in range(n) if cum[j] >= 0.5 * cum[-1])
                want.append(X[order[first], t])
            got = _coordinate_median(X, w)
            assert got.tobytes() == np.array(want).tobytes(), f"trial {trial}"


class TestLloydWithOutliers:
    @_BAD_WEIGHTS
    def test_bad_weights_rejected_with_init_given(self, weights):
        # With init given, no seeding checks the weights first.
        with pytest.raises(ValueError):
            lloyd_with_outliers(_P50, k=3, m=2, z=2, init=CenterSet(_P50[:3], z=2),
                                weights=weights)

    def test_fixed_point_with_given_init(self):
        res = lloyd_with_outliers(
            [0.0, 1.0, 100.0], k=1, m=1, z=2, max_iters=10, seed=0,
            init=CenterSet([[0.5]], z=2),
        )
        assert res.centers.centers[0, 0] == 0.5
        assert res.cost == 0.5

    def test_m_zero_k1_z2_converges_to_mean(self):
        rng = np.random.default_rng(5)
        P = rng.normal(size=(60, 2))
        res = lloyd_with_outliers(P, k=1, m=0, z=2, max_iters=30, seed=1)
        assert np.allclose(res.centers.centers[0], P.mean(axis=0))

    def test_cost_matches_recomputation(self):
        rng = np.random.default_rng(11)
        P = rng.normal(size=(80, 3))
        P[:8] += 40.0
        res = lloyd_with_outliers(P, k=2, m=8, z=1, max_iters=25, seed=2)
        assert res.cost == pytest.approx(robust_cost(P, res.centers, 8), rel=1e-7)

    def test_cost_sequence_monotone(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(8, 40))
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            z = int(rng.integers(1, 3))
            m = int(rng.integers(0, n // 4 + 1))
            P = rng.normal(size=(n, d)) * 5
            seed = int(rng.integers(0, 2**31))
            costs = [
                lloyd_with_outliers(P, k, m, z, max_iters=t, seed=seed).cost
                for t in (1, 2, 3, 5)
            ]
            for a, b in zip(costs, costs[1:]):
                assert b <= a + 1e-9 * max(a, 1.0), (
                    f"trial {trial}: cost increased along iterations: {costs}"
                )

    def test_final_cost_below_seeding_cost(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            P = rng.normal(size=(50, 2)) * 3
            seeded = kmeanspp_seed(P, k=3, z=2, seed=17)
            initial = robust_cost(P, seeded, 4)
            res = lloyd_with_outliers(P, k=3, m=4, z=2, max_iters=20, seed=17)
            assert res.cost <= initial + 1e-9 * max(initial, 1.0)

    def test_empty_cluster_reseeded(self):
        P = np.array([[0.0], [0.0], [0.0], [100.0]])
        res = lloyd_with_outliers(
            P, k=2, m=0, z=2, max_iters=10, seed=0,
            init=CenterSet([[0.0], [300.0]], z=2),
        )
        assert res.cost == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("z", [1, 2])
    def test_weighted_run_matches_replicated_points(self, z):
        # Integer weights should behave like repeating the points.  At z=1
        # the replicated run takes the unit-weight median by selection and
        # the weighted run the weighted sort, so the two paths must agree.
        P = np.array([[0.0], [2.0], [10.0]])
        w = np.array([3.0, 1.0, 2.0])
        replicated = np.repeat(P, [3, 1, 2], axis=0)
        a = lloyd_with_outliers(
            P, k=1, m=1, z=z, max_iters=15, seed=4, weights=w,
            init=CenterSet([[1.0]], z=z),
        )
        b = lloyd_with_outliers(
            replicated, k=1, m=1, z=z, max_iters=15, seed=4,
            init=CenterSet([[1.0]], z=z),
        )
        assert a.cost == pytest.approx(b.cost, rel=1e-12)
        assert np.allclose(a.centers.centers, b.centers.centers)

    def test_doubled_weights_match_unit_weights_at_z1(self):
        # Weight 2 everywhere takes the weighted sort median, unit weights
        # take selection; both must pick the same lower median, for odd
        # and even kept counts alike.
        rng = np.random.default_rng(31)
        for n in range(6, 16):
            P = rng.integers(-5, 6, size=(n, 3)).astype(float)
            m = int(rng.integers(0, 3))
            init = CenterSet(P[:2] + 0.5, z=1)
            a = lloyd_with_outliers(P, k=2, m=m, z=1, max_iters=5, init=init)
            b = lloyd_with_outliers(
                P, k=2, m=2 * m, z=1, max_iters=5, init=init, weights=np.full(n, 2.0)
            )
            np.testing.assert_array_equal(a.centers.centers, b.centers.centers)
            assert b.cost == pytest.approx(2.0 * a.cost, rel=1e-12)
