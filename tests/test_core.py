"""Tests for robust cost evaluation, splits, and the fractional assignment."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcoreset import (
    CenterSet,
    WeightedSet,
    dist,
    inlier_assignment,
    outlier_split,
    robust_cost,
    robust_cost_many,
    robust_cost_weighted,
    robust_cost_weighted_many,
)

from oracles import oracle_weighted_cost, oracle_weighted_cost_all_integer_m


@st.composite
def weighted_instances(draw, max_points: int = 8, max_weight: int = 3):
    """A small weighted instance: points, integer weights, centers, z, m."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=2))
    z = draw(st.sampled_from([1, 2]))
    integral = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if integral:
        points = rng.integers(-4, 5, size=(n, d)).astype(float)
        centers = rng.integers(-4, 5, size=(k, d)).astype(float)
    else:
        points = rng.normal(size=(n, d)) * 3.0
        centers = rng.normal(size=(k, d))
    weights = rng.integers(1, max_weight + 1, size=n).astype(float)
    m = draw(st.integers(min_value=0, max_value=int(weights.sum())))
    return points, weights, centers, z, m


class TestDist:
    def test_three_four_five(self):
        assert dist((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_identity(self):
        assert dist((1.5, -2.0, 7.0), (1.5, -2.0, 7.0)) == 0.0

    def test_one_dimensional(self):
        assert dist(2.0, -1.0) == 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dist((0.0, 0.0), (1.0, 2.0, 3.0))


class TestRobustCost:
    def test_drops_single_outlier(self):
        P = [0.0, 1.0, 2.0, 10.0]
        assert robust_cost(P, CenterSet([1.0], z=1), m=1) == 2.0

    def test_m_zero_is_vanilla_cost(self):
        assert robust_cost([0.0, 2.0], CenterSet([1.0], z=1), m=0) == 2.0

    def test_m_equals_n_discards_everything(self):
        assert robust_cost([3.0, -1.0, 4.0], CenterSet([0.0], z=2), m=3) == 0.0

    def test_m_too_large_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            robust_cost([0.0, 1.0], CenterSet([0.0], z=1), m=3)

    @given(weighted_instances())
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_m(self, instance):
        points, _, centers, z, _ = instance
        C = CenterSet(centers, z=z)
        costs = [robust_cost(points, C, m) for m in range(len(points) + 1)]
        for m in range(len(points)):
            assert costs[m + 1] <= costs[m] + 1e-12, (
                f"cost increased when dropping one more outlier: "
                f"m={m}: {costs[m]} -> {costs[m + 1]}"
            )


class TestRobustCostWeighted:
    def test_fractional_split_example(self):
        S = WeightedSet([0.0, 5.0], [2.0, 2.0])
        assert robust_cost_weighted(S, CenterSet([0.0], z=1), m=1.0) == 5.0

    def test_unit_weights_reduce_to_unweighted(self):
        S = WeightedSet([0.0, 1.0, 2.0, 10.0], np.ones(4))
        C = CenterSet([1.0], z=1)
        assert robust_cost_weighted(S, C, m=1) == robust_cost(S.points, C, m=1) == 2.0

    def test_full_budget_is_zero(self):
        S = WeightedSet([3.0, 9.0], [1.5, 2.5])
        assert robust_cost_weighted(S, CenterSet([0.0], z=2), m=4.0) == 0.0

    def test_m_above_total_weight_rejected(self):
        S = WeightedSet([0.0], [2.0])
        with pytest.raises(ValueError, match="exceeds"):
            robust_cost_weighted(S, CenterSet([0.0], z=1), m=2.5)

    @given(weighted_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration_oracle(self, instance):
        points, weights, centers, z, m = instance
        S = WeightedSet(points, weights)
        C = CenterSet(centers, z=z)
        got = robust_cost_weighted(S, C, float(m))
        want = oracle_weighted_cost_all_integer_m(points, weights, centers, z)[m]
        assert got == pytest.approx(want, abs=1e-9), (
            f"greedy fill disagrees with enumeration at m={m}: {got} vs {want}"
        )

    @given(weighted_instances(max_points=5), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_fractional_m_matches_enumeration(self, instance, frac):
        points, weights, centers, z, m = instance
        m_frac = min(float(m) + frac, float(weights.sum()))
        S = WeightedSet(points, weights)
        C = CenterSet(centers, z=z)
        got = robust_cost_weighted(S, C, m_frac)
        want = oracle_weighted_cost(points, weights, centers, z, m_frac)
        assert got == pytest.approx(want, abs=1e-9), (
            f"fractional budget m={m_frac}: greedy {got} vs oracle {want}"
        )

    @given(weighted_instances())
    @settings(max_examples=75, deadline=None)
    def test_unit_weight_equality_is_exact(self, instance):
        points, _, centers, z, m = instance
        m = min(m, len(points))
        S = WeightedSet(points, np.ones(len(points)))
        C = CenterSet(centers, z=z)
        assert robust_cost_weighted(S, C, m) == robust_cost(points, C, m)


class TestOutlierSplit:
    def test_farthest_point_goes_first(self):
        inl, out = outlier_split([0.0, 1.0, 2.0, 10.0], CenterSet([1.0], z=1), m=1)
        assert out.tolist() == [3]
        assert inl.tolist() == [0, 1, 2]

    def test_m_zero(self):
        inl, out = outlier_split([5.0, 6.0], CenterSet([0.0], z=1), m=0)
        assert out.size == 0 and inl.tolist() == [0, 1]

    def test_tie_at_cut_prefers_larger_index(self):
        # 2 and -2 are equidistant from 0; the larger dataset index loses.
        _, out = outlier_split([0.0, 2.0, -2.0], CenterSet([0.0], z=1), m=1)
        assert out.tolist() == [2]

    @given(weighted_instances())
    @settings(max_examples=75, deadline=None)
    def test_partition_and_cost_consistency(self, instance):
        points, _, centers, z, m = instance
        m = min(m, len(points))
        C = CenterSet(centers, z=z)
        inl, out = outlier_split(points, C, m)
        assert len(out) == m
        assert sorted(inl.tolist() + out.tolist()) == list(range(len(points)))
        kept_cost = robust_cost(np.atleast_2d(points)[inl], C, 0) if len(inl) else 0.0
        assert kept_cost == pytest.approx(robust_cost(points, C, m), rel=1e-12, abs=1e-12)


class TestInlierAssignment:
    def test_partial_point_at_boundary(self):
        S = WeightedSet([0.0, 5.0], [2.0, 2.0])
        a = inlier_assignment(S, CenterSet([0.0], z=1), m=1.0)
        assert a.kept_weight.tolist() == [2.0, 1.0]
        assert a.partial_index == 1

    def test_budget_aligned_with_weight_boundary(self):
        S = WeightedSet([0.0, 5.0], [2.0, 2.0])
        a = inlier_assignment(S, CenterSet([0.0], z=1), m=2.0)
        assert a.kept_weight.tolist() == [2.0, 0.0]
        assert a.partial_index is None

    def test_m_zero_keeps_everything(self):
        S = WeightedSet([1.0, 2.0], [0.5, 3.0])
        a = inlier_assignment(S, CenterSet([0.0], z=1), m=0)
        assert a.kept_weight.tolist() == [0.5, 3.0]
        assert a.partial_index is None

    @given(weighted_instances(), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_claim_structure(self, instance, frac):
        points, weights, centers, z, m_int = instance
        total = float(weights.sum())
        m = min(m_int + frac, total)
        S = WeightedSet(points, weights)
        C = CenterSet(centers, z=z)
        a = inlier_assignment(S, C, m)
        assert np.all(a.kept_weight >= 0) and np.all(a.kept_weight <= weights + 1e-12)
        assert np.sum(a.kept_weight) == pytest.approx(total - m, rel=1e-9, abs=1e-9)
        partial = np.flatnonzero(
            (a.kept_weight > 1e-12) & (a.kept_weight < weights - 1e-12)
        )
        assert len(partial) <= 1, f"multiple partial points: {partial}"
        if a.partial_index is not None:
            dpow = np.array(
                [robust_cost(points[i : i + 1], C, 0) for i in range(len(points))]
            )
            fully_kept = np.flatnonzero(a.kept_weight >= weights - 1e-12)
            assert np.all(dpow[fully_kept] <= dpow[a.partial_index] + 1e-12), (
                "a fully kept point sits farther out than the partial point"
            )

    def test_permutation_invariance_exact(self):
        # z = 2 with integer coordinates keeps every sum exact in float64,
        # so reordering the input must reproduce the cost bit-for-bit.
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            points = rng.integers(-4, 5, size=(n, 2)).astype(float)
            weights = rng.integers(1, 4, size=n).astype(float)
            C = CenterSet(rng.integers(-4, 5, size=(1, 2)).astype(float), z=2)
            m = float(rng.integers(0, int(weights.sum()) + 1))
            perm = rng.permutation(n)
            a = inlier_assignment(WeightedSet(points, weights), C, m)
            b = inlier_assignment(WeightedSet(points[perm], weights[perm]), C, m)
            cost_a = robust_cost_weighted(WeightedSet(points, weights), C, m)
            cost_b = robust_cost_weighted(WeightedSet(points[perm], weights[perm]), C, m)
            assert cost_a == cost_b

            def kept_by_distance(pts, kept):
                agg: dict[float, float] = {}
                for p, w in zip(pts, kept):
                    key = float(np.sum((p - C.centers[0]) ** 2))
                    agg[key] = agg.get(key, 0.0) + float(w)
                return agg

            # Within a distance tie the split may follow dataset order, but
            # the kept weight carried by each distance value is invariant.
            assert kept_by_distance(points, a.kept_weight) == kept_by_distance(
                points[perm], b.kept_weight
            ), "kept weight per distance changed under permutation"


class TestValidation:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            WeightedSet([0.0, 1.0], [1.0, 0.0])

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedSet([0.0, 1.0], [1.0])

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedSet([np.inf], [1.0])

    def test_center_exponent_restricted(self):
        with pytest.raises(ValueError, match="z must be"):
            CenterSet([0.0], z=3)

    def test_total_weight(self):
        assert WeightedSet([0.0, 1.0], [1.5, 2.0]).total_weight == 3.5


class TestBatchEvaluators:
    @given(weighted_instances(), st.integers(1, 8), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_many_matches_scalar(self, instance, num_sets, k):
        points, weights, centers, z, m = instance
        m = min(m, len(points))
        rng = np.random.default_rng(num_sets * 7919 + k)
        batch = rng.normal(size=(num_sets, k, np.atleast_2d(points).shape[-1]))
        if np.asarray(points).ndim == 1:
            batch = rng.normal(size=(num_sets, k, 1))
        got = robust_cost_many(points, batch, z, m)
        want = [robust_cost(points, CenterSet(c, z=z), m) for c in batch]
        assert np.allclose(got, want, rtol=1e-9, atol=1e-9), (
            f"batched unweighted costs diverge: {got} vs {want}"
        )
        S = WeightedSet(points, weights)
        m_w = min(float(m) + 0.25, S.total_weight)
        got_w = robust_cost_weighted_many(S, batch, z, m_w)
        want_w = [robust_cost_weighted(S, CenterSet(c, z=z), m_w) for c in batch]
        assert np.allclose(got_w, want_w, rtol=1e-9, atol=1e-9), (
            f"batched weighted costs diverge: {got_w} vs {want_w}"
        )

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e7, 1e8])
    def test_many_matches_scalar_far_from_origin(self, offset, z):
        rng = np.random.default_rng(17)
        points = rng.normal(size=(2000, 5)) + offset
        batch = points[rng.choice(2000, size=(20, 3), replace=False)]
        got = robust_cost_many(points, batch, z, 40)
        want = [robust_cost(points, CenterSet(c, z=z), 40) for c in batch]
        np.testing.assert_allclose(got, want, rtol=1e-9)
        S = WeightedSet(points[:500], rng.uniform(0.5, 2.0, 500))
        got_w = robust_cost_weighted_many(S, batch, z, 30.5)
        want_w = [robust_cost_weighted(S, CenterSet(c, z=z), 30.5) for c in batch]
        np.testing.assert_allclose(got_w, want_w, rtol=1e-9)
