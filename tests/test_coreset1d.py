"""Tests for the 1-d coreset builders (vanilla and robust)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcoreset import coreset1d
from rcoreset.core import (
    AssumptionViolationError,
    CenterSet,
    WeightedSet,
    inlier_assignment,
    outlier_split,
    robust_cost_many,
    robust_cost_weighted_many,
)
from rcoreset.coreset1d import (
    Block,
    Bucket,
    boundary_split,
    bucket_stats,
    build_robust_1d,
    build_robust_1d_full,
    build_vanilla_1d,
    partition_blocks,
    split_block,
)
from rcoreset.evaluation import misalignment_check
from rcoreset.instances import gen_gaussian_clusters
from rcoreset.solver import robust_median_1d

from oracles import oracle_bucket_summary


def gaussian_with_outliers(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Sorted 1-d sample: n - m standard normals plus m far-flung points."""
    inliers = rng.normal(0.0, 1.0, n - m)
    outliers = rng.uniform(5.0, 60.0, m) * rng.choice([-1.0, 1.0], m)
    return np.sort(np.concatenate([inliers, outliers]))


def misalignment(build, pts: np.ndarray, center: float, m: int) -> float:
    """Sum over buckets of |#P-outliers in bucket - S-outlier weight of its row|."""
    _, out_idx = outlier_split(pts, CenterSet([[center]], z=1), m)
    his = np.array([b.r for b in build.buckets])
    per_bucket = np.zeros(len(build.buckets))
    for i in out_idx:
        per_bucket[np.searchsorted(his, i)] += 1.0
    kept = inlier_assignment(build.coreset, CenterSet([[center]], z=1), m).kept_weight
    return float(np.sum(np.abs(per_bucket - (build.coreset.weights - kept))))


def spans(starts, stop: int) -> list[tuple[int, int]]:
    """Inclusive (l, r) ranges of the buckets cut at starts, the last ending at stop."""
    starts = [int(a) for a in starts]
    return list(zip(starts, [b - 1 for b in starts[1:]] + [stop]))


@st.composite
def sorted_arrays(draw, min_size: int = 1, max_size: int = 60):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        pts = rng.integers(-5, 6, n).astype(np.float64)
    else:
        pts = rng.normal(0.0, 3.0, n)
    return np.sort(pts)


class TestBucketStats:
    def test_three_points(self) -> None:
        assert bucket_stats([1.0, 2.0, 3.0], 0, 2) == (3, 2.0, 2.0)

    def test_singleton(self) -> None:
        assert bucket_stats([5.0], 0, 0) == (1, 5.0, 0.0)

    def test_symmetric_pair(self) -> None:
        assert bucket_stats([0.0, 4.0], 0, 1) == (2, 2.0, 4.0)

    def test_out_of_bounds_rejected(self) -> None:
        with pytest.raises(ValueError, match="out of bounds"):
            bucket_stats([1.0, 2.0], 0, 2)
        with pytest.raises(ValueError, match="out of bounds"):
            bucket_stats([1.0, 2.0], -1, 1)

    @given(sorted_arrays(), st.data())
    def test_fields_match_direct_arithmetic(self, pts, data) -> None:
        l = data.draw(st.integers(0, len(pts) - 1), label="l")
        r = data.draw(st.integers(l, len(pts) - 1), label="r")
        count, mean, cum_err = bucket_stats(pts, l, r)
        chunk = pts[l : r + 1]
        assert count == r - l + 1
        assert mean == pytest.approx(float(np.mean(chunk)), rel=1e-9)
        expected_err = float(np.sum(np.abs(chunk - np.mean(chunk))))
        assert cum_err == pytest.approx(expected_err, rel=1e-9, abs=1e-12)


class TestBuildVanilla1d:
    def test_identical_points_single_row(self) -> None:
        S = build_vanilla_1d(np.full(37, 4.25), 0.1)
        assert len(S) == 1
        assert S.points[0, 0] == 4.25
        assert S.weights[0] == 37.0

    def test_error_within_eps_over_random_centers(self) -> None:
        rng = np.random.default_rng(7)
        pts = np.sort(rng.normal(0.0, 1.0, 3000))
        for eps in (0.05, 0.15, 0.3):
            S = build_vanilla_1d(pts, eps)
            centers = rng.uniform(pts[0] - 2.0, pts[-1] + 2.0, 500)
            exact = robust_cost_many(pts, centers.reshape(-1, 1, 1), 1, 0)
            approx = robust_cost_weighted_many(S, centers.reshape(-1, 1, 1), 1, 0)
            worst = float(np.max(np.abs(approx - exact) / exact))
            assert worst <= eps, f"eps={eps}: worst relative error {worst}"

    def test_size_grows_no_faster_than_sqrt_inverse_eps(self) -> None:
        pts = np.sort(np.random.default_rng(42).normal(0.0, 1.0, 20000))
        for eps in (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125):
            size = len(build_vanilla_1d(pts, eps))
            bound = 45.0 * eps**-0.5 * math.log2(1.0 / eps)
            assert size <= bound, f"eps={eps}: size {size} exceeds {bound:.1f}"

    @given(sorted_arrays())
    def test_weight_conservation_and_hull(self, pts) -> None:
        S = build_vanilla_1d(pts, 0.2)
        assert S.total_weight == float(len(pts))
        assert np.all(S.weights == np.round(S.weights))
        assert np.all(S.points[:, 0] >= pts[0]) and np.all(S.points[:, 0] <= pts[-1])

    def test_eps_out_of_range_rejected(self) -> None:
        with pytest.raises(ValueError, match="eps"):
            build_vanilla_1d([1.0, 2.0], 0.0)
        with pytest.raises(ValueError, match="eps"):
            build_vanilla_1d([1.0, 2.0], 1.0)

    def test_unsorted_rejected(self) -> None:
        with pytest.raises(ValueError, match="sorted"):
            build_vanilla_1d([2.0, 1.0], 0.1)


def classes(blocks) -> dict:
    """(side, level) -> (l, r) of each block."""
    return {(b.side, b.level): (b.l, b.r) for b in blocks}


class TestPartitionBlocks:
    def test_published_examples(self) -> None:
        blocks = partition_blocks([-2.5, -1.6, -1.1], 3, 0.0, 1.0, 0.25)
        far = [b for b in blocks if b.far]
        assert len(far) == 1
        assert (far[0].l, far[0].r, far[0].side, far[0].level) == (0, 0, "L", None)
        inner = classes(b for b in blocks if not b.far)
        assert set(inner) == {("L", 1), ("L", 0)}
        assert inner[("L", 1)] == (1, 1)
        assert inner[("L", 0)] == (2, 2)

    def test_threshold_edges_exact(self) -> None:
        # dist == 2*eps*r_max lands in level 1; dist == r_max outward is far;
        # the anchor itself is inward level 0 on both sides.
        pts = [-2.0, -1.5, -1.0, 1.0, 1.5, 3.0]
        blocks = partition_blocks(pts, 3, 0.0, 1.0, 0.25)
        assert [(b.l, b.r) for b in blocks if b.far and b.side == "L"] == [(0, 0)]
        assert [(b.l, b.r) for b in blocks if b.far and b.side == "R"] == [(5, 5)]
        inner = classes(blocks)
        assert inner[("L", 1)] == (1, 1)
        assert inner[("LR", 0)][0] == 2
        assert inner[("RL", 0)][0] == 3
        assert inner[("R", 1)] == (4, 4)

    def test_inward_side_levels(self) -> None:
        # Two far points make a left fringe, so [0.5, 1.0] is the right one.
        blocks = partition_blocks([-9.0, -8.0, 0.5, 1.0], 2, 0.0, 1.0, 0.25)
        inner = classes(blocks)
        assert inner[("L", None)] == (0, 1)
        assert inner[("RL", 1)] == (2, 2)
        assert inner[("RL", 0)] == (3, 3)

    def test_degenerate_zero_radius(self) -> None:
        blocks = partition_blocks([-1.0, -1.0, 0.0, 0.0, 2.0], 3, 0.0, 0.0, 0.25)
        assert [(b.l, b.r) for b in blocks if b.far and b.side == "L"] == [(0, 1)]
        assert [(b.l, b.r) for b in blocks if b.far and b.side == "R"] == [(4, 4)]
        inner = classes(blocks)
        assert inner[("LR", 0)][0] == 2
        assert inner[("RL", 0)][0] == 3

    @given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.integers(0, 30))
    @settings(max_examples=60)
    def test_cover_partition_and_thresholds(self, seed, n, m) -> None:
        rng = np.random.default_rng(seed)
        m = min(m, n)
        c_star = float(rng.normal(0.0, 2.0))
        r_max = float(rng.uniform(0.0, 3.0))
        eps = float(rng.uniform(0.05, 0.9))
        pts = np.sort(rng.normal(c_star, 4.0, n))
        blocks = partition_blocks(pts, m, c_star, r_max, eps)
        top = max(1, math.ceil(math.log2(1.0 / eps)))
        edges = (2.0 ** np.arange(1, top + 2)) * eps * r_max
        seen = np.zeros(n, dtype=int)
        for block in blocks:
            on_left = block.side in ("L", "LR")
            anchor = c_star - r_max if on_left else c_star + r_max
            seen[block.l : block.r + 1] += 1
            for v in pts[block.l : block.r + 1]:
                d = abs(v - anchor)
                outward = v < anchor if on_left else v > anchor
                if block.far:
                    assert outward and d >= r_max
                else:
                    assert block.side in (("L", "LR") if on_left else ("R", "RL"))
                    assert outward == (block.side in ("L", "R"))
                    if r_max > 0 and not (outward and d >= r_max):
                        want = min(int(np.searchsorted(edges, d, side="right")), top)
                        assert block.level == want, f"point {v}: level {block.level} != {want}"
        # Each fringe's blocks tile its index range in order, one block per class.
        for lo, hi, fringe in ((0, m, ("L", "LR")), (max(n - m, m), n, ("R", "RL"))):
            on = [b for b in blocks if b.side in fringe]
            ends = [lo] + [b.r + 1 for b in on]
            assert [b.l for b in on] == ends[:-1] and ends[-1] == hi
        assert len(classes(blocks)) == len(blocks)
        assert [b.l for b in blocks] == sorted(b.l for b in blocks)
        fringe = np.zeros(n, dtype=int)
        fringe[:m] = 1
        fringe[max(n - m, m) :] = 1
        assert np.array_equal(seen, fringe)


class TestSplitBlock:
    def test_identical_points_one_bucket(self) -> None:
        block = Block(0, 1, "LR", 0)
        assert spans(split_block(np.full(2, 3.0), block, 0.5, 64, 1.0), 1) == [(0, 1)]

    def test_identical_points_count_cap_forces_two(self) -> None:
        block = Block(0, 3, "LR", 0)  # eps*n/8 points with cap eps*n/16 = 2
        assert spans(split_block(np.full(4, 3.0), block, 0.5, 64, 1.0), 3) == [(0, 1), (2, 3)]

    def test_doubling_gaps_greedy_maximal(self) -> None:
        data = np.cumsum(2.0 ** np.arange(12))
        n, eps, r_max, level = 2304, 0.5, 1.0, 0
        block = Block(0, len(data) - 1, "LR", level)
        ranges = spans(split_block(data, block, eps, n, r_max), len(data) - 1)
        assert len(ranges) > 1
        delta_cap = (2.0**level) * eps * eps * n * r_max / 288.0
        count_cap = math.floor(eps * n / 16.0)
        for l, r in ranges:
            count, _, cum_err = bucket_stats(data, l, r)
            assert cum_err <= delta_cap + 1e-12 and count <= count_cap
        for l, r in ranges[:-1]:
            count, _, cum_err = bucket_stats(data, l, r + 1)
            assert cum_err > delta_cap or count > count_cap, (
                f"bucket ({l},{r}) is not maximal"
            )

    def test_far_block_ignores_spread(self) -> None:
        block = Block(0, 2, "L", None)
        pts = np.array([0.0, 100.0, 10_000.0])
        assert spans(split_block(pts, block, 0.5, 2304, 1.0), 2) == [(0, 2)]

    def test_singleton_cap_when_eps_n_small(self) -> None:
        block = Block(0, 2, "R", 0)
        starts = split_block(np.full(3, 1.0), block, 0.1, 20, 1.0)  # eps*n/16 < 1
        assert spans(starts, 2) == [(0, 0), (1, 1), (2, 2)]

    def test_starts_index_block_data(self) -> None:
        # Count cap eps*n/16 = 2; the second far block ends in a one-point chunk.
        for r, want in ((6, [3, 5]), (9, [3, 5, 7, 9])):
            assert split_block(np.arange(10.0), Block(3, r, "R", None), 0.5, 64, 1.0) == want


class TestBoundarySplit:
    def test_straddling_buckets_split_at_window_edges(self) -> None:
        pts = np.arange(10, dtype=np.float64)
        out = boundary_split([0, 5], pts, 2)
        assert spans(out, 9) == [(0, 1), (2, 4), (5, 7), (8, 9)]

    def test_aligned_buckets_untouched(self) -> None:
        pts = np.arange(10, dtype=np.float64)
        out = boundary_split([0, 2], pts, 2)
        assert spans(out, 9) == [(0, 1), (2, 7), (8, 9)]

    def test_zero_outliers_is_identity(self) -> None:
        pts = np.arange(6, dtype=np.float64)
        assert boundary_split([0], pts, 0).tolist() == [0]
        assert boundary_split([0, 3, 4], pts, 0).tolist() == [0, 3, 4]

    def test_m_out_of_range_rejected(self) -> None:
        # A fringe may hold every point, but both boundary centers need m < n.
        pts = np.arange(6, dtype=np.float64)
        for m in (-1, 7):
            with pytest.raises(ValueError, match=rf"m={m}, \|P\|=6"):
                partition_blocks(pts, m, 2.5, 1.0, 0.5)
        for m in (-1, 6, 7):
            with pytest.raises(ValueError, match=rf"m={m}, \|P\|=6"):
                boundary_split([0], pts, m)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100)
    def test_at_most_four_new_buckets(self, seed) -> None:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 120))
        m = int(rng.integers(1, n // 4 + 1))
        pts = np.sort(rng.normal(0.0, 5.0, n))
        cuts = np.sort(rng.choice(np.arange(1, n), rng.integers(0, 6), replace=False))
        starts = [0, *cuts.tolist()]
        out = boundary_split(starts, pts, m).tolist()
        assert len(out) <= len(starts) + 4
        assert set(starts) <= set(out), "every bucket start stays a start"
        assert out[0] == 0 and out[-1] < n
        assert all(a < b for a, b in zip(out, out[1:])), "output must stay a partition"


class TestBuildRobust1d:
    def test_zero_outliers_matches_vanilla_third_eps(self) -> None:
        pts = np.sort(np.random.default_rng(3).normal(0.0, 2.0, 500))
        full = build_robust_1d_full(pts, 0, 0.3)
        S = full.coreset
        V = build_vanilla_1d(pts, 0.1)
        np.testing.assert_array_equal(S.points, V.points)
        np.testing.assert_array_equal(S.weights, V.weights)
        ends = np.cumsum(V.weights).astype(int)
        vanilla_spans = list(zip((ends - V.weights.astype(int)).tolist(), (ends - 1).tolist()))
        assert [(b.l, b.r) for b in full.buckets] == vanilla_spans
        solve = robust_median_1d(pts, 0)
        assert full.center == float(solve.centers.centers[0, 0])
        assert full.window == solve.inlier_window

    def test_small_n_raises_unless_overridden(self) -> None:
        pts = np.arange(7, dtype=np.float64)
        with pytest.raises(AssumptionViolationError, match="4m"):
            build_robust_1d(pts, 2, 0.2)
        S = build_robust_1d(pts, 2, 0.2, allow_small_n=True)
        assert S.total_weight == 7.0

    def test_boundary_centers_exact(self) -> None:
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(40, 400))
            m = int(rng.integers(1, n // 4 + 1))
            pts = gaussian_with_outliers(rng, n, m)
            S = build_robust_1d(pts, m, 0.2)
            centers = np.array([pts[m], pts[n - m - 1]]).reshape(-1, 1, 1)
            exact = robust_cost_many(pts, centers, 1, m)
            approx = robust_cost_weighted_many(S, centers, 1, m)
            rel = np.abs(approx - exact) / np.maximum(exact, 1e-300)
            assert np.max(rel) <= 1e-7, f"n={n} m={m}: boundary error {np.max(rel)}"

    def test_error_within_eps_over_sampled_centers(self) -> None:
        rng = np.random.default_rng(23)
        for n, m, eps in [(800, 80, 0.2), (1500, 300, 0.3), (2000, 50, 0.1)]:
            pts = gaussian_with_outliers(rng, n, m)
            S = build_robust_1d(pts, m, eps)
            centers = np.concatenate(
                [rng.choice(pts, 300, replace=False), rng.uniform(pts[0], pts[-1], 200)]
            ).reshape(-1, 1, 1)
            exact = robust_cost_many(pts, centers, 1, m)
            approx = robust_cost_weighted_many(S, centers, 1, m)
            worst = float(np.max(np.abs(approx - exact) / exact))
            assert worst <= eps, f"n={n} m={m} eps={eps}: worst error {worst}"

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_weight_conservation_exact(self, seed) -> None:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 300))
        m = int(rng.integers(0, n // 4 + 1))
        pts = gaussian_with_outliers(rng, n, m)
        S = build_robust_1d(pts, m, float(rng.uniform(0.05, 0.8)))
        assert np.all(S.weights == np.round(S.weights))
        assert float(np.sum(S.weights)) == float(n)

    def test_misalignment_within_quarter_eps_n(self) -> None:
        rng = np.random.default_rng(31)
        for n, m, eps in [(400, 100, 0.2), (1000, 100, 0.1)]:
            pts = gaussian_with_outliers(rng, n, m)
            build = build_robust_1d_full(pts, m, eps)
            centers = rng.choice(pts, 100, replace=False)
            worst = max(misalignment(build, pts, float(c), m) for c in centers)
            assert worst <= eps * n / 4.0, f"n={n} m={m}: misalignment {worst}"

    def test_bucket_count_bound_over_grid(self) -> None:
        rng = np.random.default_rng(5)
        for n in (256, 1024, 4096):
            for m_frac in (0.0, 0.01, 0.05, 0.25):
                m = int(m_frac * n)
                for eps in (0.05, 0.1, 0.2, 0.4):
                    pts = gaussian_with_outliers(rng, n, m)
                    build = build_robust_1d_full(pts, m, eps)
                    lg = math.log2(1.0 / eps)
                    bound = 48.0 * (eps**-0.5 * lg + (m / n) / eps + lg * lg)
                    assert len(build.buckets) <= bound, (
                        f"n={n} m={m} eps={eps}: {len(build.buckets)} buckets > {bound:.0f}"
                    )

    def test_exactly_shifted_line_gives_the_same_buckets_and_window(self) -> None:
        # Multiples of 2^-24 below 2^6 stay exact after a shift by 2^27,
        # so every distance and deviation the build compares is unchanged.
        P, _ = gen_gaussian_clusters(200_000, 1, 1, 40_000, seed=(103, 0, 0))
        pts = np.sort(np.round(P[:, 0] * 2.0**24) / 2.0**24)
        moved = pts + 2.0**27
        assert np.array_equal(moved - 2.0**27, pts)
        base = build_robust_1d_full(pts, 40_000, 0.05)
        shifted = build_robust_1d_full(moved, 40_000, 0.05)
        assert [(b.l, b.r) for b in shifted.buckets] == [(b.l, b.r) for b in base.buckets]
        np.testing.assert_array_equal(shifted.coreset.weights, base.coreset.weights)
        assert shifted.window == base.window
        assert robust_median_1d(moved, 40_000).inlier_window == base.window

    def test_cap_constant_is_read_at_call_time(self, monkeypatch) -> None:
        pts = gaussian_with_outliers(np.random.default_rng(6), 2000, 100)
        rows = len(build_robust_1d(pts, 100, 0.1))
        monkeypatch.setattr(coreset1d, "DEFAULT_DELTA_CONSTANT", 16.0)
        assert len(build_robust_1d(pts, 100, 0.1)) < rows

    def test_invalid_arguments_rejected(self) -> None:
        pts = np.arange(20, dtype=np.float64)
        with pytest.raises(ValueError, match="eps"):
            build_robust_1d(pts, 2, 1.5)
        with pytest.raises(ValueError, match="m"):
            build_robust_1d(pts, 20, 0.2)
        with pytest.raises(ValueError, match="m"):
            build_robust_1d(pts, -1, 0.2)

    def test_empty_input_rejected(self) -> None:
        for build in (build_robust_1d, build_robust_1d_full):
            with pytest.raises(ValueError, match=r"m < \|P\|"):
                build(np.array([]), 0, 0.2)


@st.composite
def lines_with_ties_and_tails(draw):
    """Sorted points mixing spread values, integer ties, constant runs and far tails."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [rng.normal(0.0, 3.0, draw(st.integers(0, 80)))]
    parts.append(rng.integers(-4, 5, draw(st.integers(0, 80))).astype(np.float64))
    parts.append(np.full(draw(st.integers(0, 60)), draw(st.sampled_from([0.0, 2.5, -7.0]))))
    tail = draw(st.integers(0, 20))
    parts.append(rng.uniform(1e3, 1e8, tail) * rng.choice([-1.0, 1.0], tail))
    pts = np.sort(np.concatenate(parts))
    assume(len(pts) >= 1)
    return pts


class TestSummaryPass:
    @given(lines_with_ties_and_tails(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_buckets_match_fsum_oracle(self, pts, data) -> None:
        n = len(pts)
        m = data.draw(st.integers(0, n // 4), label="m")
        eps = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.5]), label="eps")
        build = build_robust_1d_full(pts, m, eps)
        counts = [b.r - b.l + 1 for b in build.buckets]
        assert build.coreset.weights.tolist() == counts
        assert sum(counts) == n
        for b, row in zip(build.buckets, build.coreset.points[:, 0].tolist()):
            count, mean = oracle_bucket_summary(pts, b.l, b.r)
            assert count == b.r - b.l + 1
            # Summed in any order, the mean of count values is off by less than
            # count * 2^-52 times their largest magnitude.
            bound = count * 2.0**-52 * float(np.max(np.abs(pts[b.l : b.r + 1])))
            assert abs(row - mean) <= bound, f"bucket ({b.l},{b.r}): {row!r} vs {mean!r}"
            assert pts[b.l] <= row <= pts[b.r], f"bucket ({b.l},{b.r}): row {row!r} outside it"
            assert bucket_stats(pts, b.l, b.r)[:2] == (count, row)


class TestVanillaBuckets:
    @given(lines_with_ties_and_tails(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_buckets_maximal_under_count_times_length(self, pts, data) -> None:
        n = len(pts)
        m = data.draw(st.integers(0, (n - 1) // 2), label="m")
        eps = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.5]), label="eps")
        lo, hi = m, n - m
        starts = coreset1d._vanilla_buckets(pts, lo, hi, eps)
        med = lo + (hi - lo - 1) // 2
        dist = np.abs(pts[lo:hi] - pts[med])
        r_bar = float(np.mean(dist))
        if r_bar == 0.0:
            assert starts == [lo]
            return
        level = np.searchsorted(2.0 ** np.arange(1, 80) * eps * r_bar, dist, side="right")
        run = np.where(np.arange(lo, hi) >= med, 100, 0) + level  # one label per (side, level)
        assert starts[0] == lo and all(a < b for a, b in zip(starts, starts[1:]))
        for l, r in spans(starts, hi - 1):
            assert np.all(run[l - lo : r - lo + 1] == run[l - lo]), f"({l},{r}) spans two runs"
            cap = 2.0 ** level[l - lo] * eps * eps * (hi - lo) * r_bar / 288.0
            assert (r - l + 1) * (pts[r] - pts[l]) <= cap
            # Values within L of each other lie L/2 from their mean on average;
            # rounding moves each |x - mean| by under count * 2^-52 * max|x|.
            count, _, cum_err = bucket_stats(pts, l, r)
            slack = count * count * 2.0**-52 * float(np.max(np.abs(pts[l : r + 1])))
            assert cum_err <= cap / 2 + slack
            if r + 1 < hi and run[r + 1 - lo] == run[l - lo]:
                assert (r - l + 2) * (pts[r + 1] - pts[l]) > cap, f"({l},{r}) is not maximal"


class TestFullBuildRecord:
    def test_buckets_tile_the_dataset(self) -> None:
        rng = np.random.default_rng(13)
        pts = gaussian_with_outliers(rng, 300, 60)
        build = build_robust_1d_full(pts, 60, 0.25)
        spans = [(b.l, b.r) for b in build.buckets]
        assert spans[0][0] == 0 and spans[-1][1] == 299
        for (l1, r1), (l2, r2) in zip(spans, spans[1:]):
            assert l2 == r1 + 1
        assert build.window is not None and build.r_max is not None
        left, right = build.window
        assert build.r_max == pytest.approx(
            max(build.center - pts[left], pts[right] - build.center)
        )

    def test_rows_of_tied_buckets_stay_inside_them(self) -> None:
        # Three 0.1s sum to a mean that rounds above 0.1 unless clipped to the bucket.
        pts = np.full(5, 0.1)
        build = build_robust_1d_full(pts, 1, 0.9)
        assert build.coreset.points[:, 0].tolist() == [0.1] * len(build.buckets)
        assert misalignment_check(pts, build.buckets, build.coreset, 1, [0.1]) == 0.0

    def test_rows_follow_buckets(self) -> None:
        pts = np.sort(np.random.default_rng(2).normal(0.0, 1.0, 200))
        build = build_robust_1d_full(pts, 30, 0.2)
        for row, bucket in zip(build.coreset.points[:, 0], build.buckets):
            assert row == bucket_stats(pts, bucket.l, bucket.r)[1]
        assert isinstance(build.buckets[0], Bucket)
