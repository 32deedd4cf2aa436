"""Tests for robust cost evaluation, splits, and the fractional assignment."""

from __future__ import annotations

import tracemalloc

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
import rcoreset.core as core
from rcoreset.core import (
    _BLOCK_FLOATS,
    _EXACT_BLOCK_FLOATS,
    _abs_dev_sum,
    _drop_farthest,
    _fill_sorted,
    _line_window_starts,
    _min_dist_pow_batch,
    _min_dist_pow_chunks,
    _nearest_dist_pow,
    _split_far,
    _sums_outward,
)

from oracles import (
    oracle_dist_pow,
    oracle_evict_farthest_1d,
    oracle_robust_cost,
    oracle_weighted_cost,
    oracle_weighted_cost_all_integer_m,
    oracle_weighted_cost_exact,
    oracle_window_at_center,
    tie_heavy_line,
)


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


@st.composite
def tie_heavy_weighted_batches(draw):
    """A tie-heavy weighted set, a batch of 3 center sets, z and m.

    Points repeat rows of a small integer grid and centers sit on the
    same grid, so equal distances are common.  Weights are small
    integers or quarters below 1 (the bound r then often covers every
    row).  m is 0, w(S), a sum of whole farthest rows at the first set
    (a row boundary, fractional with quarter weights) or a quarter grid
    value in between.
    """
    n = draw(st.integers(min_value=0, max_value=6))
    d = draw(st.sampled_from([1, 3]))
    k = draw(st.integers(min_value=1, max_value=2))
    z = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    grid = rng.integers(-2, 3, size=(3, d)).astype(float)
    points = grid[rng.integers(0, 3, size=n)]
    batch = rng.integers(-2, 3, size=(3, k, d)).astype(float)
    if draw(st.booleans()):
        weights = rng.integers(1, 4, size=n).astype(float)
    else:
        weights = rng.choice([0.25, 0.5, 0.75], size=n)
    total = float(weights.sum())
    kind = draw(st.sampled_from(["zero", "all", "boundary", "quarter"]))
    if kind == "zero" or n == 0:
        m = 0.0
    elif kind == "all":
        m = total
    elif kind == "boundary":
        d0 = oracle_dist_pow(points, batch[0], z)
        far_first = sorted(range(n), key=lambda i: (d0[i], i), reverse=True)
        m = float(weights[far_first[: draw(st.integers(0, n))]].sum())
    else:
        m = 0.25 * draw(st.integers(min_value=0, max_value=int(4 * total)))
    return points, weights, batch, z, m


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


class TestSplitFar:
    """_split_far's selection against its definition: the last m entries
    of the stable argsort of dist^z."""

    @staticmethod
    def definition_mask(dpow: np.ndarray, m: int) -> np.ndarray:
        far = np.zeros(len(dpow), dtype=bool)
        far[np.argsort(dpow, kind="stable")[len(dpow) - m :]] = True
        return far

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=3),
        k=st.integers(min_value=1, max_value=3),
        z=st.sampled_from([1, 2]),
        m_pick=st.sampled_from(["0", "1", "n-1", "n", "any"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_stable_argsort_on_tie_heavy_grids(self, seed, n, d, k, z, m_pick):
        # Few grid values, so many points share a distance and a cut
        # value usually has equal points on both sides of it.
        rng = np.random.default_rng(seed)
        scale = 10.0 ** int(rng.integers(-2, 9))
        points = rng.integers(-2, 3, size=(n, d)) * scale
        centers = rng.integers(-2, 3, size=(k, d)) * scale
        m = {"0": 0, "1": 1, "n-1": n - 1, "n": n, "any": int(rng.integers(0, n + 1))}[m_pick]
        far, nearest, dpow = _split_far(points, CenterSet(centers, z=z), m)
        want_nearest, want_dpow = _nearest_dist_pow(points, centers, z)
        np.testing.assert_array_equal(nearest, want_nearest)
        np.testing.assert_array_equal(dpow, want_dpow)
        np.testing.assert_array_equal(far, self.definition_mask(dpow, m))

    def test_all_points_tied(self):
        points = np.zeros((7, 2))
        for m in range(8):
            far = _split_far(points, CenterSet(np.ones((1, 2)), z=2), m)[0]
            assert np.flatnonzero(far).tolist() == list(range(7 - m, 7))


class TestDropFarthest:
    """_drop_farthest against its definition: m units given up along the
    reversed stable argsort of dist^z, every row of it filled in turn."""

    @staticmethod
    def definition(dpow: np.ndarray, w: np.ndarray, m: float) -> np.ndarray:
        if m == float(np.sum(w)):
            return np.zeros_like(w)
        order = np.argsort(dpow, kind="stable")[::-1]
        dropped = np.empty(len(w))
        dropped[order] = _fill_sorted(w[order], m)
        return w - dropped

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=40),
        weights=st.sampled_from(["unit", "quarter", "mixed"]),
        m_pick=st.sampled_from(["0", "all", "boundary", "fractional"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_bitwise_on_ties(self, seed, n, weights, m_pick):
        # Integer distances 0-4, so most rows tie with others, the rows
        # at the bound included.
        rng = np.random.default_rng(seed)
        dpow = rng.integers(0, 5, size=n).astype(float)
        w = {
            "unit": np.ones(n),
            "quarter": rng.choice([0.25, 0.5, 0.75], size=n),
            "mixed": 10.0 ** rng.integers(-6, 7, size=n) * rng.uniform(0.5, 2.0, n),
        }[weights]
        total = float(np.sum(w))
        if m_pick == "0" or n == 0:
            m = 0.0
        elif m_pick == "all":
            m = total
        elif m_pick == "boundary":
            far_first = np.argsort(dpow, kind="stable")[::-1]
            m = min(float(w[far_first[: int(rng.integers(0, n + 1))]].sum()), total)
        else:
            m = float(rng.uniform(0.0, total))
        got = _drop_farthest(dpow, w, m)
        want = self.definition(dpow, w, m)
        assert np.array_equal(got, want), f"m={m}: {got} vs {want}"

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=3),
        z=st.sampled_from([1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_unit_weights_keep_the_complement_of_split_far(self, seed, n, d, z):
        rng = np.random.default_rng(seed)
        points = rng.integers(-2, 3, size=(n, d)).astype(float)
        C = CenterSet(rng.integers(-2, 3, size=(2, d)).astype(float), z=z)
        m = int(rng.integers(0, n + 1))
        far, _, dpow = _split_far(points, C, m)
        np.testing.assert_array_equal(_drop_farthest(dpow, np.ones(n), float(m)) > 0, ~far)


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

    def test_rows_inside_the_dropped_units_keep_exactly_zero(self):
        # The 8 far rows weigh exactly m together.  A fill that keeps
        # w(S) - m units nearest-first rounds at the scale of w(S): it left
        # 1.4e-14 on one far row and reported that row as partial.
        rng = np.random.default_rng(3)
        m = 40.0
        near = rng.normal(size=50)
        w_near = rng.uniform(0.5, 2.0, size=50)
        far = 100.0 + rng.uniform(size=8)
        S = WeightedSet(np.concatenate([near, far]), np.concatenate([w_near, np.full(8, m / 8)]))
        a = inlier_assignment(S, CenterSet([0.0], z=1), m)
        assert a.kept_weight[50:].tolist() == [0.0] * 8
        np.testing.assert_array_equal(a.kept_weight[:50], w_near)
        assert a.partial_index is None

    def test_dropped_rows_round_at_the_scale_of_m(self):
        # 0.1 + 0.1 is not exact, so the third-farthest row drops
        # 0.3 - 0.2 = 0.09999999999999998 and keeps 2.8e-17 instead of 0:
        # exact 0 needs exact running sums, but the residue stays a few
        # ulps of m.
        m = 0.3
        S = WeightedSet(np.arange(4.0), np.full(4, 0.1))
        a = inlier_assignment(S, CenterSet([0.0], z=1), m)
        assert a.kept_weight[0] == 0.1
        assert a.kept_weight[2:].tolist() == [0.0, 0.0]
        assert 0.0 <= a.kept_weight[1] <= 4 * np.finfo(float).eps * m
        assert a.partial_index in (None, 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fill_matches_eviction_loop_on_tie_heavy_lines(self, seed):
        xs, centers = tie_heavy_line(seed)
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            weights = rng.integers(1, 4, size=len(xs)).astype(float)
        else:
            weights = rng.uniform(0.1, 3.0, size=len(xs))
        S = WeightedSet(xs, weights)
        starts = np.flatnonzero(np.r_[True, np.diff(xs) != 0])  # runs of equal xs
        total = S.total_weight
        budgets = [0.0, total, float(np.floor(rng.uniform(0, total))),
                   rng.uniform(0, total)]
        for budget in budgets:
            for c in centers:
                kept = inlier_assignment(S, CenterSet([[c]], z=1), total - budget)
                got = np.add.reduceat(kept.kept_weight, starts)
                want = oracle_evict_farthest_1d(
                    xs[starts], np.add.reduceat(weights, starts), float(c), budget
                )
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                           err_msg=f"c={c}, budget={budget}")

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
        # d = 1 with single centers takes the sorted-window path.
        for d, k in ((5, 3), (1, 1)):
            rng = np.random.default_rng(17)
            points = rng.normal(size=(2000, d)) + offset
            batch = points[rng.choice(2000, size=(20, k), replace=False)]
            got = robust_cost_many(points, batch, z, 40)
            want = [robust_cost(points, CenterSet(c, z=z), 40) for c in batch]
            np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=f"d={d}")
            S = WeightedSet(points[:500], rng.uniform(0.5, 2.0, 500))
            # At m = w(S) - 1 every row may give up weight: _drop_bound is n.
            assert core._drop_bound(S.weights, S.total_weight - 1.0) == len(S)
            for m in (30.5, S.total_weight - 1.0):
                got_w = robust_cost_weighted_many(S, batch, z, m)
                want_w = [robust_cost_weighted(S, CenterSet(c, z=z), m) for c in batch]
                np.testing.assert_allclose(got_w, want_w, rtol=1e-9, err_msg=f"d={d}, m={m}")

    @pytest.mark.parametrize("z", [1, 2])
    def test_line_single_inlier_on_a_point_costs_exactly_zero(self, z):
        rng = np.random.default_rng(5)
        points = np.sort(rng.uniform(-1e8, 1e8, 1000))
        batch = points[[0, 17, 500, 999]].reshape(-1, 1, 1)
        got = robust_cost_many(points, batch, z, len(points) - 1)
        assert np.array_equal(got, np.zeros(4)), f"keep=1 costs {got}"

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e7, 1e8])
    def test_single_inlier_on_a_point_costs_exactly_zero(self, offset, z):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(2000, 5)) + offset
        batch = points[rng.choice(2000, size=(100, 1), replace=False)]
        got = robust_cost_many(points, batch, z, len(points) - 1)
        assert np.array_equal(got, np.zeros(100)), f"keep=1 costs {got[got != 0]}"
        S = WeightedSet(points, np.ones(len(points)))
        got_w = robust_cost_weighted_many(S, batch, z, len(points) - 1)
        assert np.array_equal(got_w, np.zeros(100)), f"weighted costs {got_w[got_w != 0]}"

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_weighted_many_on_empty_set_is_zero(self, d, z):
        S = WeightedSet(np.zeros((0, d)), np.zeros(0))
        batch = np.random.default_rng(2).normal(size=(4, 2, d))
        got = robust_cost_weighted_many(S, batch, z, 0)
        assert np.array_equal(got, np.zeros(4))
        assert robust_cost_weighted(S, CenterSet(batch[0], z=z), 0) == 0.0

    @pytest.mark.parametrize("evaluator", ["unweighted", "weighted"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_empty_center_sets_rejected(self, d, evaluator):
        points = np.random.default_rng(3).normal(size=(5, d))
        batch = np.zeros((2, 0, d))
        with pytest.raises(ValueError, match="at least one center"):
            if evaluator == "unweighted":
                robust_cost_many(points, batch, 1, 1)
            else:
                robust_cost_weighted_many(WeightedSet(points, np.ones(5)), batch, 1, 1.0)

    @given(tie_heavy_weighted_batches())
    @settings(max_examples=150, deadline=None)
    def test_weighted_many_matches_oracles_on_ties(self, instance):
        points, weights, batch, z, m = instance
        S = WeightedSet(points, weights)
        got = robust_cost_weighted_many(S, batch, z, m)
        if m == S.total_weight:
            assert np.array_equal(got, np.zeros(len(batch))), f"m = w(S) costs {got}"
        exact = [oracle_weighted_cost_exact(points, weights, c, z, m) for c in batch]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0)
        if len(points) and np.all(weights == np.round(weights)):
            # The enumeration oracle handles integer weights only, and it
            # subtracts from the whole cost w.d, so it errs at that scale.
            for c, cost in zip(batch, got):
                whole = float(weights @ oracle_dist_pow(points, c, z))
                want = oracle_weighted_cost(points, weights, c, z, m)
                assert cost == pytest.approx(want, rel=1e-12, abs=1e-12 * whole)

    @pytest.mark.parametrize("z", [1, 2])
    def test_weighted_many_heavy_far_rows_stay_accurate(self, z):
        # w(S) is about 1e9 and the far rows, 1e3 out, weigh 1-3 each: a
        # fill that subtracts running sums at the scale of w(S) errs by
        # 3e-13 (z = 1) and 2e-10 (z = 2) relative on the far rows' share,
        # in the batch evaluator and the scalar one alike.
        rng = np.random.default_rng(11)
        near = rng.normal(size=(400, 3))
        far = rng.normal(size=(60, 3))
        far *= 1e3 / np.linalg.norm(far, axis=1, keepdims=True)
        points = np.vstack([near, far])
        weights = np.concatenate([rng.uniform(1e6, 4e6, 400), rng.uniform(1, 3, 60)])
        S = WeightedSet(points, weights)
        batch = near[rng.choice(400, size=(8, 2), replace=False)]
        for m in (40.5, float(weights[400:].sum()) - 0.25, 60.0):
            got = robust_cost_weighted_many(S, batch, z, m)
            want = [oracle_weighted_cost_exact(points, weights, c, z, m) for c in batch]
            np.testing.assert_allclose(got, want, rtol=1e-13, err_msg=f"m={m}")
            scalar = [robust_cost_weighted(S, CenterSet(c, z=z), m) for c in batch]
            np.testing.assert_allclose(scalar, want, rtol=1e-13, err_msg=f"scalar, m={m}")

    def test_line_memory_stays_linear_in_n(self):
        rng = np.random.default_rng(8)
        points = np.sort(rng.normal(size=200_000)).reshape(-1, 1)
        batch = points[rng.choice(200_000, size=200, replace=False)].reshape(-1, 1, 1)
        tracemalloc.start()
        try:
            robust_cost_many(points, batch, 1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("m", [100_000, 199_990])
    def test_line_memory_stays_linear_in_n_past_a_quarter(self, m, z):
        # Past n/4 the windows share anchors in groups, whose rows hold at
        # most about 4n points.  Measured (z = 1 / 2): 7.6 / 10.7 MiB at
        # m = n/2 and 12.0 / 17.3 MiB at m = n - 10.
        rng = np.random.default_rng(8)
        points = np.sort(rng.normal(size=200_000)).reshape(-1, 1)
        batch = points[rng.choice(200_000, size=200, replace=False)].reshape(-1, 1, 1)
        tracemalloc.start()
        try:
            robust_cost_many(points, batch, z, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    def test_nd_memory_stays_within_one_output_chunk(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(100_000, 10))
        batch = points[rng.choice(100_000, size=(100, 5), replace=False)]
        tracemalloc.start()
        try:
            robust_cost_many(points, batch, 1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    def test_weighted_nd_memory_stays_bounded(self):
        rng = np.random.default_rng(10)
        S = WeightedSet(rng.normal(size=(100_000, 10)), rng.uniform(0.5, 2.0, 100_000))
        batch = S.points[rng.choice(100_000, size=(100, 5), replace=False)]
        tracemalloc.start()
        try:
            robust_cost_weighted_many(S, batch, 1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    def test_nd_memory_stays_within_one_reused_chunk_at_500_sets(self):
        # 500 sets of 5 centers at n = 1e5, d = 10: a (500, n) distance
        # matrix alone would be 400 MB.  One 8 MiB output buffer, the 9.6 MB
        # points side and the 1 MiB block buffer stay far under the bound.
        rng = np.random.default_rng(9)
        points = rng.normal(size=(100_000, 10))
        batch = points[rng.choice(100_000, size=(500, 5), replace=False)]
        tracemalloc.start()
        try:
            robust_cost_many(points, batch, 1, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"


class TestBatchChunks:
    # 11 sets at 4 sets to a chunk: chunks of 4, 4 and a partial 3.
    T, n = 11, 300

    def instance(self, d, k):
        """Points and a batch with one center of every set on a data point."""
        rng = np.random.default_rng(30 + 10 * d + k)
        points = rng.normal(size=(self.n, d)) * 3.0 + 50.0
        batch = rng.normal(size=(self.T, k, d)) * 3.0 + 50.0
        batch[np.arange(self.T), np.arange(self.T) % k] = points[27 * np.arange(self.T)]
        return points, batch

    def costs(self, points, batch, S):
        return [
            robust_cost_many(points, batch, z, m) for z in (1, 2) for m in (0, 40)
        ] + [
            robust_cost_weighted_many(S, batch, z, m)
            for z in (1, 2)
            for m in (0.0, 40.5, S.total_weight)
        ]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 10])
    def test_chunks_match_one_chunk(self, d, k, monkeypatch):
        points, batch = self.instance(d, k)
        S = WeightedSet(points, np.random.default_rng(d + k).uniform(0.5, 2.0, self.n))
        monkeypatch.setattr(core, "_CHUNK_FLOATS", self.T * self.n)
        assert [(lo, hi) for lo, hi, _ in _min_dist_pow_chunks(points, batch, 1)] == [(0, 11)]
        whole = self.costs(points, batch, S)
        monkeypatch.setattr(core, "_CHUNK_FLOATS", 4 * self.n)
        assert [(lo, hi) for lo, hi, _ in _min_dist_pow_chunks(points, batch, 1)] == [
            (0, 4),
            (4, 8),
            (8, 11),
        ]
        for got, want in zip(self.costs(points, batch, S), whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("d", [1, 10])
    def test_points_on_centers_score_exactly_zero_in_every_chunk(self, d, k, z, monkeypatch):
        points, batch = self.instance(d, k)
        monkeypatch.setattr(core, "_CHUNK_FLOATS", 4 * self.n)
        on = (points[None, None] == batch[:, :, None]).all(axis=-1).any(axis=1)
        got = np.empty((self.T, self.n))
        for lo, hi, dmin in _min_dist_pow_chunks(points, batch, z):
            got[lo:hi] = dmin
        assert np.array_equal(got == 0, on), f"zeros at {np.argwhere((got == 0) != on)}"
        want = np.array([_nearest_dist_pow(points, c, z)[1] for c in batch])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
        keep_one = robust_cost_many(points, batch, z, self.n - 1)
        assert np.array_equal(keep_one, np.zeros(self.T)), f"keep=1 costs {keep_one}"

    @pytest.mark.parametrize("m", [0, 2])
    @pytest.mark.parametrize("d", [1, 3])
    def test_empty_batch_gives_no_costs(self, d, m):
        points = np.zeros((5, d))
        empty = np.zeros((0, 1, d))
        assert robust_cost_many(points, empty, 1, m).shape == (0,)
        S = WeightedSet(points, np.ones(5))
        assert robust_cost_weighted_many(S, empty, 1, m).shape == (0,)


class TestNearestDistPow:
    @pytest.mark.parametrize("d", [1, 3, 10, 50])
    def test_blocks_match_one_whole_array_pass(self, d):
        # The kernel works through blocks of _EXACT_BLOCK_FLOATS // d rows;
        # the reference forms every difference of one center at once.  A
        # grid of inexact multiples of 1.1 with a repeated center ties often
        # (ties go to the lower index) and rounds in every sum.
        rng = np.random.default_rng(d)
        n = 2 * (_EXACT_BLOCK_FLOATS // d) + 17  # two full blocks and a partial one
        points = rng.integers(-3, 4, size=(n, d)) * 1.1
        for k in (1, 4, 5):
            centers = rng.integers(-3, 4, size=(k, d)) * 1.1
            if k > 2:
                centers[2] = centers[0]
            for z in (1, 2):
                want_nearest = np.zeros(n, dtype=np.intp)
                best = None
                for j, c in enumerate(centers):
                    diff = points - c
                    d2 = np.einsum("ij,ij->i", diff, diff)
                    if best is None:
                        best = d2
                    else:
                        closer = d2 < best
                        want_nearest[closer] = j
                        best[closer] = d2[closer]
                nearest, dpow = _nearest_dist_pow(points, centers, z)
                np.testing.assert_array_equal(nearest, want_nearest)
                want = np.sqrt(best) if z == 1 else best
                np.testing.assert_array_equal(dpow.view(np.int64), want.view(np.int64))

    def test_cluster_rows_match_a_pass_at_their_own_center(self):
        # Lloyd's z = 1 recenter test reads a cluster's distances to its
        # own center off the pass over all centers: they must be the same
        # bits as a pass over the cluster's rows at that center alone.
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(1, 11))
            n = int(rng.integers(1, 2 * (_EXACT_BLOCK_FLOATS // d) + 50))
            k = int(rng.integers(1, min(n, 5) + 1))
            points = rng.normal(size=(n, d)) * 10.0 ** int(rng.integers(-3, 4))
            points += rng.normal(scale=100.0, size=d)
            centers = points[rng.choice(n, size=k, replace=False)] + rng.normal(size=(k, d))
            nearest, dpow = _nearest_dist_pow(points, centers, 1)
            for j in range(k):
                mask = nearest == j
                own = _nearest_dist_pow(points[mask], centers[j : j + 1], 1)[1]
                np.testing.assert_array_equal(dpow[mask], own)


class TestMinDistPowBatch:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_matches_nearest_center_kernel(self, d, k):
        rng = np.random.default_rng(10 * d + k)
        T = 6
        n = 2 * (_BLOCK_FLOATS // (T * k)) + 17  # two full blocks and a partial one
        points = rng.normal(size=(n, d)) * 3.0
        batch = rng.normal(size=(T, k, d))
        batch[0, -1] = points[n - 1]  # a center on a point of the partial block
        for z in (1, 2):
            got = _min_dist_pow_batch(points, batch, z)
            want = np.array([_nearest_dist_pow(points, c, z)[1] for c in batch])
            if d == 1:
                assert np.array_equal(got, want), f"z={z}"
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=f"z={z}")

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_points_on_centers_score_exactly_zero_in_every_block(self, k, z):
        # Centers sit on data points at slot 0, a middle slot and slot
        # k - 1, in the first block, a full middle block and the partial
        # last block; one set repeats a center.  A point on a center of
        # its set scores exactly 0, wherever the set's minimum is taken.
        rng = np.random.default_rng(20 + k)
        T, d = 6, 4
        width = _BLOCK_FLOATS // (T * k)
        n = 2 * width + 17  # two full blocks and a partial one
        points = rng.normal(size=(n, d)) * 3.0
        batch = rng.normal(size=(T, k, d))
        firsts = (0, width, 2 * width)  # the first row of each block
        for t, (j, b) in enumerate([(0, 0), (k // 2, 1), (k - 1, 2), (k - 1, 0), (0, 2)]):
            batch[t, j] = points[firsts[b] + int(rng.integers(0, 17))]
        batch[5] = points[width + 3]  # every slot of the last set on one point
        on = (points[None, None] == batch[:, :, None]).all(axis=-1).any(axis=1)
        assert on.sum() >= T
        got = _min_dist_pow_batch(points, batch, z)
        want = np.array([_nearest_dist_pow(points, c, z)[1] for c in batch])
        assert np.array_equal(got == 0, on), f"zeros at {np.argwhere((got == 0) != on)}"
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("z", [1, 2])
    def test_more_centers_than_a_block_holds(self, z):
        # T k > _BLOCK_FLOATS: every block is one point wide.
        rng = np.random.default_rng(21)
        k, n, d = 3, 5, 3
        T = _BLOCK_FLOATS // k + 1
        points = rng.normal(size=(n, d))
        batch = rng.normal(size=(T, k, d))
        batch[np.arange(T), np.arange(T) % k] = points[np.arange(T) % n]
        got = _min_dist_pow_batch(points, batch, z)
        diff = points[None, None] - batch[:, :, None]
        d2 = np.einsum("tjid,tjid->tji", diff, diff).min(axis=1)
        assert np.array_equal(got == 0, d2 == 0) and np.count_nonzero(d2 == 0) == T
        np.testing.assert_allclose(got, np.sqrt(d2) if z == 1 else d2, rtol=1e-9, atol=0)


class TestLineWindows:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bisection_matches_eviction_loop(self, seed):
        xs, centers = tie_heavy_line(seed)
        n = len(xs)
        keeps = {1, n, *np.random.default_rng(seed).integers(1, n + 1, size=3)}
        for keep in sorted(int(q) for q in keeps):
            got = _line_window_starts(xs, centers, keep)
            want = [oracle_window_at_center(xs, float(c), keep) for c in centers]
            assert [(int(s), int(s) + keep - 1) for s in got] == want, f"keep={keep}"

    def test_tied_left_edge_keeps_other_indices_than_outlier_split(self):
        xs = np.array([0.0, 0.0, 1.0])
        assert _line_window_starts(xs, [1.0], 2).tolist() == [1]
        assert outlier_split(xs, CenterSet([[1.0]]), 1)[0].tolist() == [0, 2]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_window_holds_the_coordinates_of_outlier_split_inliers(self, seed):
        # The robust_cost_many line path reads the window in place of the inliers.
        xs, centers = tie_heavy_line(seed)
        n = len(xs)
        drops = {0, n - 1, *np.random.default_rng(seed).integers(0, n, size=3)}
        for m in sorted(int(q) for q in drops):
            starts = _line_window_starts(xs, centers, n - m)
            for s, c in zip(starts.tolist(), centers.tolist()):
                inliers = outlier_split(xs, CenterSet([[c]]), m)[0]
                assert np.array_equal(xs[s : s + n - m], np.sort(xs[inliers])), f"c={c}, m={m}"


class TestAbsDevSum:
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_sum_at_every_split_of_a_tie(self, offset, seed):
        xs, centers = tie_heavy_line(seed)
        xs, centers = xs + offset, centers + offset
        n = len(xs)
        h = n // 2
        y = xs - xs[h]
        F = _sums_outward(y, h)
        rng = np.random.default_rng(seed)
        ranges = [(0, n), (h, h + 1)] + [
            tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(8)
        ]
        for c in centers - xs[h]:
            for s, e in ranges:
                want = float(np.sum(np.abs(y[s:e] - c)))
                # Any split inside the run of points equal to c is valid.
                lo = s + np.searchsorted(y[s:e], c, side="left")
                hi = s + np.searchsorted(y[s:e], c, side="right")
                for j in range(lo, hi + 1):
                    got = _abs_dev_sum(F, s, e, c, j)
                    if want > 0:
                        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
                    elif s <= h < e:  # every point equals c, and c is the anchor
                        assert got == 0.0, f"[{s}, {e}) split at {j}: {got}"
                    else:  # away from the anchor F's rounding may leave a residue
                        assert abs(got) <= 1e-12 * np.abs(F).max()


@st.composite
def line_cost_instances(draw):
    """Unsorted points on the line, probe centers, z and an m to score at.

    Families: the tie-heavy grid; Gaussians at an offset from 0 to 1e8,
    optionally with a far outlier block on each end; and two tight
    clusters 1e8 apart.  m is drawn at the edges of the anchor groups
    (4m <= n, the first m past n/4 whose last group holds one start, and
    windows of one to three points), around the windows sharing the
    median index, or at random.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    family = draw(st.sampled_from(["ties", "gauss", "outliers", "clusters"]))
    if family == "ties":
        xs, centers = tie_heavy_line(seed)
    else:
        n = draw(st.integers(1, 60))
        offset = draw(st.sampled_from([0.0, 1e4, 1e7, 1e8]))
        xs = rng.normal(size=n) + offset
        if family == "outliers":
            q = n // 8
            xs[:q] = offset - rng.uniform(1e6, 1e9, q)
            xs[n - q :] = offset + rng.uniform(1e6, 1e9, q)
        elif family == "clusters":
            xs = 1e-3 * rng.normal(size=n) + np.where(np.arange(n) < n // 2, 0.0, 1e8)
        off = [xs.min() - 1.5, xs.max() + 0.5, xs.mean()]
        centers = np.concatenate([xs, rng.choice(xs, 5) + rng.normal(size=5), off])
        xs = rng.permutation(xs)
    n = len(xs)
    pivots = [0, n // 4, n // 4 + 1, n - n // 2 - 1, n - n // 2, n // 2 - 1, n - 1, n - 2, n - 3]
    # Starts group (n - m) // 3 + 1 to a group; start m opens the last one.
    pivots += [q for q in range(n // 4 + 1, n) if q % ((n - q) // 3 + 1) == 0][:1]
    m = draw(st.sampled_from([q for q in pivots if 0 <= q <= n]) | st.integers(0, n))
    return xs, centers, draw(st.sampled_from([1, 2])), m


class TestLineCosts:
    @given(line_cost_instances())
    @settings(max_examples=200, deadline=None)
    def test_matches_sorting_oracle(self, instance):
        xs, centers, z, m = instance
        got = robust_cost_many(xs, centers.reshape(-1, 1, 1), z, m)
        want = [oracle_robust_cost(xs, [c], z, m) for c in centers]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("z", [1, 2])
    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e7, 1e8])
    def test_points_on_the_center_cost_exactly_zero(self, offset, z):
        rng = np.random.default_rng(7)
        points = np.full(1000, offset)
        points[:200] = offset + rng.choice([-1.0, 1.0], 200) * rng.uniform(1.0, 1e9, 200)
        batch = np.full((3, 1, 1), offset)
        # Up to m = 250 one anchor serves every window; past it, groups do.
        for m in (200, 250, 300, 500, 799, 999):
            got = robust_cost_many(rng.permutation(points[: min(4 * m, 1000)]), batch, z, m)
            assert np.array_equal(got, np.zeros(3)), f"m={m}: {got}"

    @pytest.mark.parametrize("z", [1, 2])
    def test_shift_by_1e6_changes_costs_by_roundoff(self, z):
        # A dyadic grid shifts exactly, so both calls score the same points.
        rng = np.random.default_rng(11)
        points = rng.integers(-2**20, 2**20, 4000) / 1024.0
        points[:40] = rng.integers(-2**30, 2**30, 40)  # far outliers
        centers = np.concatenate([rng.choice(points, 30), rng.integers(-2**21, 2**21, 10) / 2048.0])
        for m in (0, 40, 1000, 1999, 2000, 3000):
            base = robust_cost_many(points, centers.reshape(-1, 1, 1), z, m)
            moved = robust_cost_many(points + 1e6, centers.reshape(-1, 1, 1) + 1e6, z, m)
            np.testing.assert_allclose(moved, base, rtol=1e-12, atol=0, err_msg=f"m={m}")

    @pytest.mark.parametrize("z", [1, 2])
    def test_matches_scalar_on_two_far_clusters_up_to_half_outliers(self, z):
        # Near m = n/2 a window may hold one point past the median index,
        # where sums anchored there would lose digits to cancellation.
        rng = np.random.default_rng(12)
        n = 100_000
        points = 1e-3 * rng.normal(size=n) + np.where(np.arange(n) < n // 2, 0.0, 1e8)
        centers = np.concatenate([rng.choice(points, 4), rng.uniform(-1e8, 2e8, 4)])
        for m in (n // 4, n // 4 + 1, int(0.49 * n), n - n // 2 - 1, n - n // 2):
            got = robust_cost_many(points, centers.reshape(-1, 1, 1), z, m)
            want = [robust_cost(points, CenterSet([c], z=z), m) for c in centers]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=f"m={m}")
