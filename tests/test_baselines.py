"""Tests for the reference baseline builders and the budget splitter."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoreset.baselines import build_hjlw23, build_hllw25, build_uniform
from rcoreset.core import (
    CenterSet,
    outlier_split,
    robust_cost_many,
    robust_cost_weighted_many,
)
from rcoreset.coreset_nd import (
    NdCoresetConfig,
    build_robust_kz,
    sample_outlier_coreset,
    split_sample_sizes,
)
from rcoreset.instances import gen_gaussian_clusters
from rcoreset.solver import kmeanspp_seed, lloyd_with_outliers

STRUCTURED_BUILDERS = [build_hjlw23, build_hllw25]


def small_instance(seed: int, n: int = 400, d: int = 3, m: int = 40):
    """Gaussian cluster with far outliers plus a k-means++ center."""
    P, _ = gen_gaussian_clusters(n, d, 1, m, seed=seed)
    C_star = kmeanspp_seed(P, 1, 1, seed)
    return P, C_star


def weight_by_row(S) -> dict[tuple[float, ...], float]:
    """Total coreset weight per distinct coordinate tuple."""
    table: dict[tuple[float, ...], float] = {}
    for row, w in zip(S.points, S.weights):
        key = tuple(row)
        table[key] = table.get(key, 0.0) + float(w)
    return table


class TestSplitSampleSizes:
    def test_reference_split(self) -> None:
        assert split_sample_sizes(2000, 2000) == (200, 1800)

    def test_outlier_share_capped_by_m(self) -> None:
        assert split_sample_sizes(2000, 5) == (5, 1995)

    def test_minimum_one_row_each(self) -> None:
        assert split_sample_sizes(2, 7) == (1, 1)

    def test_no_outliers_means_full_inlier_budget(self) -> None:
        assert split_sample_sizes(123, 0) == (0, 123)

    def test_validation(self) -> None:
        with pytest.raises(ValueError, match="target_size"):
            split_sample_sizes(1, 3)
        with pytest.raises(ValueError, match="target_size"):
            split_sample_sizes(0, 0)
        with pytest.raises(ValueError, match="m"):
            split_sample_sizes(10, -1)

    @given(st.integers(2, 10_000), st.integers(1, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_budget_partition(self, target: int, m: int) -> None:
        s_o, s_i = split_sample_sizes(target, m)
        assert s_o + s_i == target, f"split {s_o}+{s_i} must spend exactly {target}"
        assert 1 <= s_o <= min(m, target - 1)
        assert s_o <= max(1, math.ceil(target / 10))


class TestStructuredBaselines:
    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_keeps_every_far_point_at_weight_one(self, builder) -> None:
        P, C_star = small_instance(seed=0)
        _, out_idx = outlier_split(P, C_star, 40)
        S = builder(P, 40, 1, 1, 160, C_star, seed=1)
        table = weight_by_row(S)
        for row in P[out_idx]:
            assert table.get(tuple(row)) == 1.0, f"far point {row} not kept verbatim"

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_total_weight_is_n(self, builder) -> None:
        for seed in range(5):
            P, C_star = small_instance(seed=seed)
            S = builder(P, 40, 1, 1, 120, C_star, seed=seed)
            assert math.isclose(S.total_weight, len(P), rel_tol=1e-9)

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_size_stays_near_target(self, builder) -> None:
        P, C_star = small_instance(seed=3)
        S = builder(P, 40, 1, 1, 160, C_star, seed=3)
        assert 41 <= len(S) <= 160

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_no_outliers_reduces_to_pure_inlier_sampling(self, builder) -> None:
        P, C_star = small_instance(seed=4, m=0)
        S = builder(P, 0, 1, 1, 80, C_star, seed=4)
        assert math.isclose(S.total_weight, len(P), rel_tol=1e-9)
        assert len(S) <= 80
        assert np.all(S.weights > 1.0), "m=0 leaves only aggregated sample rows"

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_target_below_m_rejected(self, builder) -> None:
        P, C_star = small_instance(seed=5)
        with pytest.raises(ValueError, match="floor"):
            builder(P, 40, 1, 1, 39, C_star, seed=5)

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_deterministic_under_seed(self, builder) -> None:
        P, C_star = small_instance(seed=6)
        S1 = builder(P, 40, 1, 1, 120, C_star, seed=(6, 1))
        S2 = builder(P, 40, 1, 1, 120, C_star, seed=(6, 1))
        S3 = builder(P, 40, 1, 1, 120, C_star, seed=(6, 2))
        assert np.array_equal(S1.points, S2.points)
        assert np.array_equal(S1.weights, S2.weights)
        assert not (
            np.array_equal(S1.points, S3.points)
            and np.array_equal(S1.weights, S3.weights)
        ), "different seeds should give different samples"

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_center_count_mismatch_rejected(self, builder) -> None:
        P, C_star = small_instance(seed=7)
        with pytest.raises(ValueError, match="centers"):
            builder(P, 40, 2, 1, 120, C_star, seed=7)

    @pytest.mark.parametrize("builder", STRUCTURED_BUILDERS)
    def test_z_mismatch_with_center_set_rejected(self, builder) -> None:
        P, C_star = small_instance(seed=7)
        assert C_star.z == 1
        with pytest.raises(ValueError, match="center set has z=1, expected z=2"):
            builder(P, 40, 1, 2, 120, C_star, seed=7)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_builders_differ_only_in_inlier_scores(self, seed: int) -> None:
        P, C_star = small_instance(seed=seed % 1000, n=200, m=20)
        a = build_hjlw23(P, 20, 1, 1, 80, C_star, seed=seed)
        b = build_hllw25(P, 20, 1, 1, 80, C_star, seed=seed)
        for S in (a, b):
            assert math.isclose(S.total_weight, 200, rel_tol=1e-9)
            assert len(S) <= 80


class TestBuildUniform:
    def test_full_size_returns_input_with_unit_weights(self) -> None:
        P, _ = small_instance(seed=8, n=100, m=10)
        S = build_uniform(P, 100, seed=8)
        assert np.array_equal(S.points, P)
        assert np.array_equal(S.weights, np.ones(100))

    def test_weights_are_n_over_size(self) -> None:
        P, _ = small_instance(seed=9, n=300, m=30)
        S = build_uniform(P, 60, seed=9)
        assert np.all(S.weights == 300 / 60)
        assert math.isclose(S.total_weight, 300, rel_tol=1e-12)

    def test_rows_come_from_input(self) -> None:
        P, _ = small_instance(seed=10, n=150, m=15)
        S = build_uniform(P, 40, seed=10)
        table = {tuple(row) for row in P}
        assert all(tuple(row) in table for row in S.points)

    def test_size_bounds(self) -> None:
        P, _ = small_instance(seed=11, n=50, m=5)
        with pytest.raises(ValueError, match="target_size"):
            build_uniform(P, 0, seed=11)
        with pytest.raises(ValueError, match="target_size"):
            build_uniform(P, 51, seed=11)

    @pytest.mark.parametrize("size", [1, 37, 200])
    def test_is_the_uniform_outlier_sampler(self, size: int) -> None:
        P, _ = small_instance(seed=13, n=200, m=20)
        for seed in (0, (13, 2), np.random.default_rng(5)):
            S = build_uniform(P, size, seed=copy.deepcopy(seed))
            T = sample_outlier_coreset(P, size, seed=copy.deepcopy(seed))
            assert S.points.tobytes() == T.points.tobytes()
            assert S.weights.tobytes() == T.weights.tobytes()

    def test_deterministic_under_seed(self) -> None:
        P, _ = small_instance(seed=12, n=200, m=20)
        S1 = build_uniform(P, 50, seed=(12, 1))
        S2 = build_uniform(P, 50, seed=(12, 1))
        assert np.array_equal(S1.points, S2.points)


def _trend_setup(seed: int, n: int, d: int, k: int, z: int, m: int, num_centers: int):
    """Instance, refined centers, and a shared candidate-center batch."""
    P, _ = gen_gaussian_clusters(n, d, k, m, seed=seed)
    init = kmeanspp_seed(P, k, z, seed)
    C_star = lloyd_with_outliers(P, k, m, z, max_iters=6, seed=seed, init=init).centers
    rng = np.random.default_rng((seed, 99))
    idx = rng.choice(n, size=num_centers * k, replace=False).reshape(num_centers, k)
    return P, C_star, P[idx]


def _max_rel_err(S, centers, z: int, m: int, cost_P: np.ndarray) -> float:
    cost_S = robust_cost_weighted_many(S, centers, z, m)
    return float(np.max(np.abs(cost_S - cost_P) / cost_P))


def _build_ours(P, m: int, k: int, z: int, size: int, C_star, seed):
    s_o, s_i = split_sample_sizes(size, m)
    cfg = NdCoresetConfig(
        eps=0.1, outlier_sample_size=s_o, inlier_sample_size=s_i, seed=seed
    )
    return build_robust_kz(P, m, k, z, cfg, C_star)


class TestComparativeTrends:
    @pytest.mark.parametrize("k", [1, 5])
    def test_equal_size_dominance_over_hllw25(self, k: int) -> None:
        """At the same row budget the main builder wins most seeds.

        The structured baseline must spend m rows keeping far points
        verbatim, so at equal size its inlier sample is m rows smaller.
        """
        n, d, z, m, size = 20_000, 10, 1, 400, 800
        wins = 0
        for seed in range(10):
            P, C_star, centers = _trend_setup(seed, n, d, k, z, m, num_centers=200)
            cost_P = robust_cost_many(P, centers, z, m)
            ours = _build_ours(P, m, k, z, size, C_star, seed=(seed, 1))
            base = build_hllw25(P, m, k, z, size, C_star, seed=(seed, 2))
            wins += _max_rel_err(ours, centers, z, m, cost_P) <= _max_rel_err(
                base, centers, z, m, cost_P
            )
        assert wins >= 7, f"main builder won only {wins}/10 equal-size comparisons"

    def test_uniform_control_loses_on_outlier_heavy_data(self) -> None:
        n, d, k, z, m = 20_000, 5, 1, 2, 2000
        size = 2 * m
        losses = 0
        for seed in range(10):
            P, C_star, centers = _trend_setup(seed, n, d, k, z, m, num_centers=200)
            cost_P = robust_cost_many(P, centers, z, m)
            structured = min(
                _max_rel_err(
                    _build_ours(P, m, k, z, size, C_star, seed=(seed, 1)),
                    centers, z, m, cost_P,
                ),
                _max_rel_err(
                    build_hllw25(P, m, k, z, size, C_star, seed=(seed, 2)),
                    centers, z, m, cost_P,
                ),
            )
            uniform = _max_rel_err(
                build_uniform(P, size, seed=(seed, 3)), centers, z, m, cost_P
            )
            losses += uniform >= structured
        assert losses >= 8, f"uniform control beat structured builders in {10 - losses}/10"
