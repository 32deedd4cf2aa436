"""Tests for the instance generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoreset.core import CenterSet, robust_cost
from rcoreset.coreset_nd import check_assumptions
from rcoreset.instances import (
    InstanceSpec,
    contaminate_cauchy,
    gen_gaussian_clusters,
    gen_lower_bound_1d,
    gen_obstacle,
    gen_ratio_lb,
    generate_instance,
)


class TestInstanceSpec:
    def test_valid_spec(self) -> None:
        spec = InstanceSpec(family="gauss", n=100, m=10, d=3, k=2, seed=7)
        assert spec.family == "gauss"

    def test_unknown_family(self) -> None:
        with pytest.raises(ValueError, match="family"):
            InstanceSpec(family="mystery", n=100)

    def test_size_ordering(self) -> None:
        with pytest.raises(ValueError, match="n > m"):
            InstanceSpec(family="gauss", n=10, m=10)

    def test_dimension_and_contamination(self) -> None:
        with pytest.raises(ValueError, match="d >= 1"):
            InstanceSpec(family="gauss", n=10, d=0)
        with pytest.raises(ValueError, match="contamination"):
            InstanceSpec(family="gauss", n=10, contamination_fraction=1.0)

    @pytest.mark.parametrize("family", ["lb1d", "obstacle", "ratio"])
    def test_line_families_reject_d_and_k(self, family) -> None:
        assert InstanceSpec(family=family, n=100, m=10, d=1, k=1).d == 1
        for extra in (dict(d=2), dict(k=3)):
            with pytest.raises(ValueError, match=f"{family} is 1-d with one center"):
                InstanceSpec(family=family, n=100, m=10, **extra)

    @pytest.mark.parametrize("family", ["obstacle", "ratio", "gauss"])
    def test_only_lb1d_reads_eps(self, family) -> None:
        assert InstanceSpec(family=family, n=100, m=10).eps is None
        with pytest.raises(ValueError, match=f"{family} does not read eps"):
            InstanceSpec(family=family, n=100, m=10, eps=0.1)

    def test_lb1d_reads_eps_0_1_when_none(self) -> None:
        got = generate_instance(InstanceSpec(family="lb1d", n=1000, m=250))
        want = gen_lower_bound_1d(1000, 250, 0.1).points.reshape(-1, 1)
        np.testing.assert_array_equal(got, want)


class TestGenLowerBound1d:
    def test_reference_layout(self) -> None:
        inst = gen_lower_bound_1d(1000, 250, 0.05)
        assert inst.q == 2
        assert math.isclose(inst.alpha, 2.0 + math.log(400.0) / math.log(250.0))
        assert math.isclose(inst.alpha, 3.086, abs_tol=2e-3)
        values, counts = np.unique(inst.points, return_counts=True)
        assert counts.tolist() == [750, 125, 125]
        assert values[0] == 0.0
        assert math.isclose(values[1], 250.0**inst.alpha, rel_tol=1e-12)
        assert math.isclose(values[2], 250.0 ** (2 * inst.alpha), rel_tol=1e-12)
        assert inst.centers == (250.0**inst.alpha, 250.0 ** (2 * inst.alpha))

    def test_sorted_and_deterministic(self) -> None:
        a = gen_lower_bound_1d(1000, 250, 0.05).points
        b = gen_lower_bound_1d(1000, 250, 0.05).points
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_jitter_makes_points_distinct(self) -> None:
        inst = gen_lower_bound_1d(1000, 250, 0.05, jitter=True)
        assert np.all(np.diff(inst.points) > 0)
        plain = gen_lower_bound_1d(1000, 250, 0.05)
        assert np.allclose(inst.points, plain.points, rtol=1e-6, atol=1e-6)

    def test_degenerate_q_rejected(self) -> None:
        with pytest.raises(ValueError, match="q"):
            gen_lower_bound_1d(1000, 80, 0.05)

    def test_small_n_rejected(self) -> None:
        with pytest.raises(ValueError, match="4m"):
            gen_lower_bound_1d(900, 250, 0.05)

    @given(
        st.integers(2, 40),
        st.integers(8, 60),
        st.floats(0.01, 0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_arithmetic(self, scale: int, m: int, eps: float) -> None:
        n = 4 * m * scale
        q = math.floor(m / (2.0 * n * eps))
        if q < 1:
            with pytest.raises(ValueError):
                gen_lower_bound_1d(n, m, eps)
            return
        inst = gen_lower_bound_1d(n, m, eps)
        assert inst.q == q
        assert len(inst.points) == n
        group = m // q
        _, counts = np.unique(inst.points, return_counts=True)
        assert counts.tolist() == [n - q * group] + [group] * q


class TestGenObstacle:
    def test_reference_values(self) -> None:
        pts = gen_obstacle(10, 2)
        assert pts[-2] == 10.0**3
        assert pts[-1] == 10.0**6
        assert np.allclose(pts[:8], np.arange(1, 9) / 10.0)

    def test_inliers_in_unit_interval(self) -> None:
        pts = gen_obstacle(50, 5)
        assert np.all(pts[:45] > 0.0)
        assert np.all(pts[:45] <= 1.0)
        assert np.all(np.diff(pts) > 0)

    def test_cap_rejects_overflow(self) -> None:
        with pytest.raises(ValueError, match="cap"):
            gen_obstacle(300, 150)

    def test_parameter_validation(self) -> None:
        with pytest.raises(ValueError, match="m >= 2"):
            gen_obstacle(10, 1)


class TestGenRatioLb:
    def test_reference_values(self) -> None:
        pts = gen_ratio_lb(12, 8)
        assert np.array_equal(pts[:8], np.arange(1.0, 9.0))
        assert np.all(pts[8:] == 8e6)

    def test_cost_at_far_center_counts_far_points(self) -> None:
        pts = gen_ratio_lb(12, 8)
        X = pts[-1]
        cost = robust_cost(pts.reshape(-1, 1), CenterSet([[X + 1.0]], z=1), 8)
        assert cost == 12 - 8

    def test_x_must_exceed_m(self) -> None:
        with pytest.raises(ValueError, match="X"):
            gen_ratio_lb(12, 8, X=5.0)


class TestGenGaussianClusters:
    def test_zero_spread_collapses_to_center(self) -> None:
        P, labels = gen_gaussian_clusters(50, 3, 1, 0, spread=0.0, seed=1)
        assert np.all(P == P[0])
        assert np.all(labels == 0)

    def test_shapes_and_labels(self) -> None:
        P, labels = gen_gaussian_clusters(1000, 4, 3, 100, seed=2)
        assert P.shape == (1000, 4)
        assert np.sum(labels == -1) == 100
        sizes = [int(np.sum(labels == i)) for i in range(3)]
        assert sum(sizes) == 900
        assert max(sizes) - min(sizes) <= 1

    def test_outliers_are_farthest_in_most_seeds(self) -> None:
        hits = 0
        for seed in range(20):
            P, labels = gen_gaussian_clusters(2000, 5, 2, 40, seed=seed)
            means = np.stack([P[labels == i].mean(axis=0) for i in range(2)])
            dmin = np.min(
                np.linalg.norm(P[:, None, :] - means[None, :, :], axis=2), axis=1
            )
            farthest = np.argsort(dmin)[-40:]
            hits += bool(np.all(labels[farthest] == -1))
        assert hits >= 19, f"outliers were the farthest points in only {hits}/20 seeds"

    def test_structural_assumptions_hold_at_defaults(self) -> None:
        P, labels = gen_gaussian_clusters(10_000, 5, 3, 100, seed=3)
        means = np.stack([P[labels == i].mean(axis=0) for i in range(3)])
        report = check_assumptions(P, CenterSet(means, z=1), 100, 3, 1)
        assert report.cond1 and report.cond2

    def test_deterministic_under_seed(self) -> None:
        a, _ = gen_gaussian_clusters(500, 3, 2, 50, seed=9)
        b, _ = gen_gaussian_clusters(500, 3, 2, 50, seed=9)
        c, _ = gen_gaussian_clusters(500, 3, 2, 50, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_parameter_validation(self) -> None:
        with pytest.raises(ValueError, match="n > m"):
            gen_gaussian_clusters(10, 2, 1, 10)
        with pytest.raises(ValueError, match="spread"):
            gen_gaussian_clusters(10, 2, 1, 2, spread=-1.0)


class TestContaminateCauchy:
    def test_zero_fraction_is_identity(self) -> None:
        P, _ = gen_gaussian_clusters(100, 3, 1, 10, seed=4)
        out = contaminate_cauchy(P, 0.0, seed=4)
        assert np.array_equal(out, P)
        assert out is not P

    def test_exact_count_perturbed(self) -> None:
        P, _ = gen_gaussian_clusters(500, 3, 1, 50, seed=5)
        out = contaminate_cauchy(P, 0.1, seed=5)
        changed = np.any(out != P, axis=1)
        assert int(np.sum(changed)) == 50

    def test_deterministic_under_seed(self) -> None:
        P, _ = gen_gaussian_clusters(200, 2, 1, 20, seed=6)
        a = contaminate_cauchy(P, 0.2, seed=11)
        b = contaminate_cauchy(P, 0.2, seed=11)
        assert np.array_equal(a, b)

    def test_fraction_validation(self) -> None:
        P, _ = gen_gaussian_clusters(50, 2, 1, 5, seed=7)
        with pytest.raises(ValueError, match="fraction"):
            contaminate_cauchy(P, 1.0, seed=7)

    def test_one_dimensional_input_becomes_column(self) -> None:
        out = contaminate_cauchy(np.arange(10.0), 0.5, seed=8)
        assert out.shape == (10, 1)


class TestGenerateInstance:
    def test_family_routing(self) -> None:
        lb = generate_instance(InstanceSpec(family="lb1d", n=1000, m=250, eps=0.05))
        obstacle = generate_instance(InstanceSpec(family="obstacle", n=100, m=5))
        ratio = generate_instance(InstanceSpec(family="ratio", n=12, m=8))
        gauss = generate_instance(InstanceSpec(family="gauss", n=200, m=20, d=4, k=2))
        for arr in (lb, obstacle, ratio):
            assert arr.ndim == 2 and arr.shape[1] == 1
            assert np.all(np.diff(arr[:, 0]) >= 0)
        assert gauss.shape == (200, 4)

    def test_contamination_applied_and_sorted_in_1d(self) -> None:
        spec = InstanceSpec(
            family="lb1d", n=1000, m=250, eps=0.05, contamination_fraction=0.1, seed=3
        )
        arr = generate_instance(spec)
        clean = generate_instance(InstanceSpec(family="lb1d", n=1000, m=250, eps=0.05))
        assert np.all(np.diff(arr[:, 0]) >= 0)
        assert not np.array_equal(arr, clean)

    def test_gauss_contamination_count(self) -> None:
        spec = InstanceSpec(
            family="gauss", n=300, m=30, d=3, contamination_fraction=0.1, seed=5
        )
        arr = generate_instance(spec)
        clean = generate_instance(InstanceSpec(family="gauss", n=300, m=30, d=3, seed=5))
        assert int(np.sum(np.any(arr != clean, axis=1))) == 30
