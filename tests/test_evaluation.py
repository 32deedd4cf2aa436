"""Tests for the measurement protocol: errors, sweeps, diagnostics, speedups."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcoreset.core as core
from rcoreset.core import (
    CenterSet,
    WeightedSet,
    robust_cost,
    robust_cost_weighted,
)
from rcoreset.coreset1d import Bucket, build_robust_1d_full
from rcoreset.evaluation import (
    EvalReport,
    ball_range_check,
    ball_range_deviation_1d,
    default_builders,
    draw_candidate_centers,
    empirical_error,
    misalignment_check,
    reports_to_csv,
    speedup_report,
    sweep_size_error,
)
from rcoreset.solver import lloyd_with_outliers

from oracles import oracle_ball_range, oracle_misalignment, tie_heavy_line


def unit_coreset(points: np.ndarray) -> WeightedSet:
    return WeightedSet(points, np.ones(len(points)))


class TestDrawCandidateCenters:
    def test_shape_and_membership(self):
        rng = np.random.default_rng(0)
        P = rng.normal(size=(40, 3))
        batch = draw_candidate_centers(P, 2, 7, seed=1)
        assert batch.shape == (7, 2, 3)
        flat = batch.reshape(-1, 3)
        matches = (flat[:, None, :] == P[None, :, :]).all(axis=2)
        assert matches.any(axis=1).all(), "every candidate center is a dataset point"

    def test_without_replacement_when_it_fits(self):
        P = np.arange(30.0)
        batch = draw_candidate_centers(P, 3, 10, seed=5)
        values = batch.reshape(-1)
        assert len(np.unique(values)) == 30, "30 slots from 30 points use each once"

    def test_per_tuple_fallback_keeps_tuples_distinct(self):
        P = np.arange(6.0)
        batch = draw_candidate_centers(P, 3, 50, seed=2)
        assert batch.shape == (50, 3, 1)
        for row in batch[:, :, 0]:
            assert len(np.unique(row)) == 3, f"repeated center within tuple {row}"

    def test_deterministic_and_seed_sensitive(self):
        P = np.random.default_rng(3).normal(size=(25, 2))
        a = draw_candidate_centers(P, 2, 9, seed=11)
        b = draw_candidate_centers(P, 2, 9, seed=11)
        c = draw_candidate_centers(P, 2, 9, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        P = np.arange(5.0)
        with pytest.raises(ValueError, match="num_centers"):
            draw_candidate_centers(P, 1, 0, seed=0)
        with pytest.raises(ValueError, match="k"):
            draw_candidate_centers(P, 0, 3, seed=0)
        with pytest.raises(ValueError, match="k"):
            draw_candidate_centers(P, 6, 3, seed=0)


class TestEmpiricalError:
    def test_identity_coreset_has_zero_error(self):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(300, 3))
        rep = empirical_error(P, unit_coreset(P), m=10, k=2, z=2, num_centers=50, seed=1)
        assert rep.empirical_error <= 1e-12, f"S = P gave error {rep.empirical_error}"
        assert rep.skipped_centers == 0
        assert rep.coreset_rows == 300
        assert len(rep.per_center_errors) == 50
        assert rep.empirical_error == max(rep.per_center_errors)

    def test_aggregated_duplicates_have_zero_error(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(80, 2))
        P = np.repeat(base, 2, axis=0)
        S = WeightedSet(base, np.full(80, 2.0))
        rep = empirical_error(P, S, m=3, k=1, z=1, num_centers=60, seed=4)
        assert rep.empirical_error <= 1e-12, (
            f"merging duplicates changed the cost: {rep.empirical_error}"
        )

    def test_zero_cost_centers_are_skipped_and_counted(self):
        P = np.concatenate([np.zeros(8), [5.0, 6.0]])
        rep = empirical_error(P, unit_coreset(P.reshape(-1, 1)), m=2, k=1, z=1,
                              num_centers=10, seed=0)
        assert rep.skipped_centers == 8, "the eight zero-cost centers are skipped"
        assert len(rep.per_center_errors) == 2
        assert rep.empirical_error <= 1e-12

    def test_all_centers_skipped_is_an_error(self):
        P = np.full(6, 3.0)
        with pytest.raises(ValueError, match="zero at every"):
            empirical_error(P, unit_coreset(P.reshape(-1, 1)), m=0, k=1, z=1,
                            num_centers=4, seed=0)

    def test_report_maximum_is_derived(self):
        rep = EvalReport(builder="x", coreset_rows=1, per_center_errors=(0.1, 0.3, 0.2))
        assert rep.empirical_error == 0.3
        assert EvalReport(builder="x", coreset_rows=1).empirical_error is None


class TestHandExample:
    """P = {0, 1, 2, 10}, m = 1, center 1: full robust cost 2."""

    P = np.array([0.0, 1.0, 2.0, 10.0])
    C = CenterSet(np.array([[1.0]]), z=1)

    def test_full_cost(self):
        assert robust_cost(self.P, self.C, 1) == 2.0

    def test_three_row_summary_is_exact(self):
        S = WeightedSet(np.array([[0.0], [1.5], [10.0]]), np.array([1.0, 2.0, 1.0]))
        cost_s = robust_cost_weighted(S, self.C, 1.0)
        assert cost_s == 2.0, f"summary cost {cost_s}"
        assert abs(cost_s - 2.0) / 2.0 == 0.0

    def test_mean_merged_summary_errs_by_half(self):
        S = WeightedSet(np.array([[0.0], [2.0], [10.0]]), np.array([1.0, 2.0, 1.0]))
        cost_s = robust_cost_weighted(S, self.C, 1.0)
        assert cost_s == 3.0, f"summary cost {cost_s}"
        assert abs(cost_s - 2.0) / 2.0 == 0.5


def two_cluster_instance(seed: int, n: int = 2000, d: int = 4, m: int = 50):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, d))
    P[:m] += 80.0
    return P


class TestSweep:
    def setup_method(self):
        self.P = two_cluster_instance(42)
        self.C = lloyd_with_outliers(self.P, 2, 50, 2, max_iters=4, seed=3).centers
        self.builders = default_builders(self.C)

    def test_row_grid_is_complete(self):
        res = sweep_size_error(self.P, 50, 2, 2, [100, 200], self.builders,
                               trials=2, seed=7, num_centers=30)
        assert len(res.rows) == 4 * 2 * 2
        cells = {(r.builder, r.size, r.trial) for r in res.rows}
        assert len(cells) == len(res.rows), "every (builder, size, trial) once"
        assert res.sizes == (100, 200)
        assert set(res.builders) == {"ours", "hjlw23", "hllw25", "uniform"}
        for row in res.rows:
            assert row.error >= 0.0
            assert row.build_time >= 0.0
            assert 0 < row.coreset_rows <= 220

    def test_mean_errors_recompute_from_rows(self):
        res = sweep_size_error(self.P, 50, 2, 2, [120], self.builders,
                               trials=3, seed=1, num_centers=25)
        means = res.mean_errors()
        for name in res.builders:
            expect = np.mean([r.error for r in res.rows
                              if r.builder == name and r.size == 120])
            assert math.isclose(means[(name, 120)], float(expect), rel_tol=1e-12)

    def test_csv_and_summary_round_trip(self):
        res = sweep_size_error(self.P, 50, 2, 2, [100], self.builders,
                               trials=2, seed=9, num_centers=20)
        lines = res.to_csv().splitlines()
        assert lines[0] == "builder,size,trial,error,build_time,coreset_rows,seed"
        assert len(lines) == 1 + len(res.rows)
        first = lines[1].split(",")
        assert first[0] == res.rows[0].builder
        assert int(first[1]) == res.rows[0].size
        assert float(first[3]) == res.rows[0].error, "17 digits round-trip exactly"
        summary = json.loads(res.summary_json())
        assert summary["trials"] == 2
        assert summary["sizes"] == [100]
        means = res.mean_errors()
        for (name, size), value in means.items():
            assert math.isclose(summary["mean_error"][f"{name}@{size}"], value,
                                rel_tol=1e-12)

    def test_csv_quotes_a_tuple_seed(self):
        res = sweep_size_error(self.P, 50, 2, 2, [100], self.builders,
                               trials=2, seed=(4, 2), num_centers=20)
        rows = list(csv.reader(io.StringIO(res.to_csv())))
        assert [len(row) for row in rows] == [7] * (1 + len(res.rows))
        assert {row[6] for row in rows[1:]} == {"(4, 2)"}

    def test_csv_with_an_int_seed_is_unquoted(self):
        res = sweep_size_error(self.P, 50, 2, 2, [100], self.builders,
                               trials=1, seed=9, num_centers=20)
        want = "builder,size,trial,error,build_time,coreset_rows,seed\n" + "".join(
            f"{r.builder},{r.size},{r.trial},{r.error:.17g},{r.build_time:.6g},"
            f"{r.coreset_rows},9\n"
            for r in res.rows
        )
        assert res.to_csv() == want

    def test_centers_are_shared_within_a_trial(self):
        twins = {"a": self.builders["uniform"], "b": self.builders["uniform"]}
        res = sweep_size_error(self.P, 50, 2, 2, [150], twins,
                               trials=2, seed=5, num_centers=30)
        by = {(r.builder, r.trial): r.error for r in res.rows}
        for trial in range(2):
            assert by[("a", trial)] == by[("b", trial)], (
                "identical builders on shared centers must tie"
            )

    def test_deterministic(self):
        a = sweep_size_error(self.P, 50, 2, 2, [100], self.builders,
                             trials=1, seed=3, num_centers=20)
        b = sweep_size_error(self.P, 50, 2, 2, [100], self.builders,
                             trials=1, seed=3, num_centers=20)
        assert [r.error for r in a.rows] == [r.error for r in b.rows]

    def test_validation(self):
        with pytest.raises(ValueError, match="sizes"):
            sweep_size_error(self.P, 50, 2, 2, [], self.builders, trials=1, seed=0)
        with pytest.raises(ValueError, match="trials"):
            sweep_size_error(self.P, 50, 2, 2, [100], self.builders, trials=0, seed=0)

    def test_split_budget_beats_all_verbatim_at_tight_sizes(self):
        """At target size m the all-verbatim baseline has one inlier row."""
        P = two_cluster_instance(100, n=4000, d=5, m=200)
        C = lloyd_with_outliers(P, 1, 200, 2, max_iters=5, seed=0).centers
        builders = default_builders(C)
        duo = {"ours": builders["ours"], "hllw25": builders["hllw25"]}
        wins = 0
        for seed in range(10):
            res = sweep_size_error(P, 200, 1, 2, [200], duo,
                                   trials=1, seed=seed, num_centers=100)
            means = res.mean_errors()
            wins += means[("ours", 200)] < means[("hllw25", 200)]
        assert wins >= 7, f"split budget won only {wins}/10 at size m"


class TestBallRange:
    def test_identity_sample_has_zero_deviation(self):
        rng = np.random.default_rng(1)
        P_O = rng.normal(size=(400, 2))
        assert ball_range_check(P_O, unit_coreset(P_O), num_balls=500, seed=0) == 0.0

    def test_left_half_sample_misses_half_the_mass(self):
        P_O = np.linspace(0.0, 1.0, 200).reshape(-1, 1)
        S_O = WeightedSet(P_O[:100], np.full(100, 2.0))
        exact = ball_range_deviation_1d(P_O, S_O)
        assert exact >= 0.49, f"exact deviation {exact}"
        assert math.isclose(exact, 0.5, rel_tol=1e-12)
        mc = ball_range_check(P_O, S_O, num_balls=2000, seed=1)
        assert mc <= exact + 1e-12, "sampled balls cannot beat the exact sweep"
        assert mc >= 0.45, f"Monte-Carlo missed the gap: {mc}"

    def test_exact_interval_sweep_hand_instance(self):
        P_O = np.array([0.0, 1.0, 2.0, 3.0])
        S_O = WeightedSet(np.array([[0.0], [3.0]]), np.array([2.0, 2.0]))
        # interval [1, 2] holds half of P and none of S.
        assert ball_range_deviation_1d(P_O, S_O) == 0.5

    def test_exact_sweep_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            P_O = np.sort(rng.integers(0, 12, size=25).astype(np.float64))
            idx = rng.choice(25, size=6, replace=False)
            S_O = WeightedSet(P_O[idx].reshape(-1, 1), rng.integers(1, 5, 6).astype(float))
            xs = np.unique(np.concatenate([P_O, S_O.points[:, 0]]))
            brute = 0.0
            for i in range(len(xs)):
                for j in range(i, len(xs)):
                    a, b = xs[i], xs[j]
                    fp = np.mean((P_O >= a) & (P_O <= b))
                    inside = (S_O.points[:, 0] >= a) & (S_O.points[:, 0] <= b)
                    fs = float(S_O.weights[inside].sum()) / S_O.total_weight
                    brute = max(brute, abs(fp - fs))
            fast = ball_range_deviation_1d(P_O, S_O)
            assert math.isclose(fast, brute, rel_tol=1e-12, abs_tol=1e-12), (
                f"trial {trial}: sweep {fast} vs brute force {brute}"
            )

    def test_moderate_uniform_sample_is_representative(self):
        rng = np.random.default_rng(20)
        P_O = rng.standard_normal((5000, 2)) * np.array([3.0, 1.0]) + 2.0
        hits = 0
        for seed in range(10):
            idx = np.random.default_rng((seed, 7)).choice(5000, size=200, replace=False)
            S_O = WeightedSet(P_O[idx], np.full(200, 25.0))
            hits += ball_range_check(P_O, S_O, num_balls=2000, seed=seed) <= 0.15
        assert hits >= 9, f"200-point uniform sample stayed within 0.15 in {hits}/10"

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        P_O = rng.normal(size=(150, 3))
        S_O = WeightedSet(P_O[:50], np.full(50, 3.0))
        a = ball_range_check(P_O, S_O, num_balls=300, seed=4)
        assert a == ball_range_check(P_O, S_O, num_balls=300, seed=4)

    def test_validation(self):
        P_O = np.random.default_rng(0).normal(size=(20, 2))
        S_O = WeightedSet(P_O[:5], np.ones(5))
        with pytest.raises(ValueError, match="1-d"):
            ball_range_deviation_1d(P_O, S_O)
        with pytest.raises(ValueError, match="num_balls"):
            ball_range_check(P_O, S_O, num_balls=0, seed=0)

    def test_empty_samples_rejected(self):
        P_O = np.linspace(0.0, 1.0, 20)
        S_O = unit_coreset(P_O[:5].reshape(-1, 1))
        no_rows = WeightedSet(np.zeros((0, 1)), np.zeros(0))
        for check in (ball_range_check, ball_range_deviation_1d):
            with pytest.raises(ValueError, match="P_O is empty"):
                check(np.zeros(0), S_O)
            with pytest.raises(ValueError, match="S_O is empty"):
                check(P_O, no_rows)

    def test_sample_of_another_dimension_rejected(self):
        # 1-d far points against a 2-d sample: the kernel would read only
        # the sample's first column and return a deviation.
        S_O = WeightedSet(np.random.default_rng(1).normal(size=(10, 2)), np.full(10, 5.0))
        with pytest.raises(ValueError, match="dimension"):
            ball_range_check(np.linspace(0.0, 1.0, 50), S_O, num_balls=100, seed=0)

    def test_chunk_memory_accounts_for_dimension(self):
        rng = np.random.default_rng(3)
        P_O = rng.normal(size=(2000, 10))
        S_O = WeightedSet(P_O[:200], np.full(200, 10.0))
        tracemalloc.start()
        try:
            ball_range_check(P_O, S_O, num_balls=2000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    def test_memory_stays_within_one_reused_chunk_at_10000_balls(self):
        # 10,000 balls over 5e4 points: the (balls, points) distances alone
        # would be 4 GB; one reused 8 MiB chunk and the points side remain.
        rng = np.random.default_rng(4)
        P_O = rng.normal(size=(50_000, 5))
        S_O = WeightedSet(P_O[:2000], np.full(2000, 25.0))
        tracemalloc.start()
        try:
            ball_range_check(P_O, S_O, num_balls=10_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("d", [1, 10])
    def test_chunks_match_one_chunk(self, d, monkeypatch):
        # 11 balls at 4 to a chunk of P_O (chunks of 4, 4 and a partial 3)
        # and 8 to a chunk of S_O (8 and a partial 3).
        rng = np.random.default_rng(70 + d)
        P_O = rng.normal(size=(300, d))
        S_O = WeightedSet(P_O[:150], rng.uniform(0.5, 4.0, 150))
        devs = []
        for floats in (11 * 300, 4 * 300):
            monkeypatch.setattr(core, "_CHUNK_FLOATS", floats)
            devs.append([ball_range_check(P_O, S_O, num_balls=11, seed=s) for s in range(5)])
        np.testing.assert_allclose(devs[1], devs[0], rtol=1e-12, atol=0)
        assert ball_range_check(P_O, unit_coreset(P_O), num_balls=11, seed=0) == 0.0

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_enumeration_with_duplicated_rows(self, d):
        rng = np.random.default_rng(60 + d)
        base = rng.normal(size=(40, d)) * 3.0 + 100.0
        P_O = np.vstack([base, base[:15], base[:5]])  # rows repeated up to 3 times
        idx = rng.choice(len(P_O), size=18, replace=True)
        S_O = WeightedSet(P_O[idx], rng.uniform(0.5, 4.0, 18))
        for seed in range(3):
            got = ball_range_check(P_O, S_O, num_balls=400, seed=seed)
            want = oracle_ball_range(P_O, S_O, 400, seed)
            assert math.isclose(got, want, rel_tol=0.0, abs_tol=1e-12), (got, want)
        unit = unit_coreset(P_O)
        assert ball_range_check(P_O, unit, num_balls=400, seed=0) == 0.0
        assert oracle_ball_range(P_O, unit, 400, 0) == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_exact_sweep_never_negative_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        P_O = np.sort(rng.normal(size=30))
        idx = np.sort(rng.choice(30, size=8, replace=False))
        S_O = WeightedSet(P_O[idx].reshape(-1, 1), rng.uniform(0.5, 4.0, 8))
        dev = ball_range_deviation_1d(P_O, S_O)
        assert 0.0 <= dev <= 1.0


class TestMisalignment:
    def make_build(self, seed: int = 11, n: int = 1000, m: int = 100, eps: float = 0.2):
        rng = np.random.default_rng(seed)
        pts = np.sort(np.concatenate(
            [rng.normal(size=n - m), rng.normal(loc=50.0, size=m)]))
        return pts, build_robust_1d_full(pts, m, eps)

    def test_identity_rows_never_misalign(self):
        pts = np.arange(10.0)
        buckets = [Bucket(i, i) for i in range(10)]
        S = unit_coreset(pts.reshape(-1, 1))
        for m in (0, 1, 3, 5):
            value = misalignment_check(pts, buckets, S, m,
                                       [-1.0, 2.0, 4.5, 9.0, 12.0])
            assert value == 0.0, f"m={m} gave {value}"

    def test_zero_at_the_build_anchor(self):
        pts, build = self.make_build()
        assert misalignment_check(pts, build.buckets, build.coreset, 100,
                                  [build.center]) == 0.0

    def test_random_centers_stay_within_quarter_eps_n(self):
        pts, build = self.make_build()
        centers = np.random.default_rng(3).choice(pts, size=100, replace=False)
        value = misalignment_check(pts, build.buckets, build.coreset, 100,
                                   [float(c) for c in centers])
        assert value <= 0.2 * len(pts) / 4.0, f"misalignment {value}"

    def test_heavy_tails_agree_across_both_paths(self):
        rng = np.random.default_rng(11)
        pts = np.sort(rng.standard_cauchy(800))
        build = build_robust_1d_full(pts, 60, 0.15)
        centers = np.random.default_rng(4).choice(pts, size=50, replace=False)
        value = misalignment_check(pts, build.buckets, build.coreset, 60,
                                   [float(c) for c in centers])
        assert value <= 2 * 60, "each side mislabels at most m units"
        assert value <= 0.15 * 800 / 4.0, f"misalignment {value}"

    def test_duplicate_coordinates_agree_across_both_paths(self):
        pts = np.sort(np.repeat(np.arange(20.0), 60))
        build = build_robust_1d_full(pts, 100, 0.3)
        value = misalignment_check(pts, build.buckets, build.coreset, 100,
                                   [0.0, 5.5, 10.0, 19.0, 25.0])
        assert 0.0 <= value <= 2 * 100

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_sorting_oracle_on_tie_heavy_lines(self, seed):
        xs, centers = tie_heavy_line(seed)
        rng = np.random.default_rng(seed)
        n = len(xs)
        cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
        bounds = list(zip(np.r_[0, cuts].tolist(), (np.r_[cuts, n] - 1).tolist()))
        buckets = [Bucket(l, r) for l, r in bounds]
        rows = xs[[int(rng.integers(l, r + 1)) for l, r in bounds]]
        if rng.random() < 0.5:
            weights = rng.integers(1, 4, size=len(bounds)).astype(float)
        else:
            weights = rng.uniform(0.1, 3.0, size=len(bounds))
        S = WeightedSet(rows, weights)
        m = int(rng.integers(0, min(n, int(S.total_weight)) + 1))
        for c in centers:
            got = misalignment_check(xs, buckets, S, m, [float(c)])
            want = oracle_misalignment(xs, bounds, rows, weights, m, float(c))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9,
                                       err_msg=f"c={c}, m={m}, bounds={bounds}")

    def test_all_outliers_counts_bucket_sizes(self):
        # m = n leaves an empty window: every point is an outlier.
        pts = np.arange(6.0)
        bounds = [(0, 1), (2, 5)]
        buckets = [Bucket(l, r) for l, r in bounds]
        for weights, want in (([2.0, 4.0], 0.0), ([3.0, 3.0], 2.0)):
            S = WeightedSet([0.5, 3.5], weights)
            for c in (-1.0, 0.0, 2.5, 9.0):
                got = misalignment_check(pts, buckets, S, 6, [c])
                assert got == want == oracle_misalignment(pts, bounds, [0.5, 3.5], weights, 6, c)

    def test_bucket_cut_inside_the_run_at_the_window_left_edge(self):
        # At c = 1 the window of 2 is pts[1:3], but outlier_split keeps
        # index 0 of the tied run and drops index 1: m_i = [0, 1].
        pts = np.array([0.0, 0.0, 1.0])
        bounds = [(0, 0), (1, 2)]
        S = WeightedSet([0.0, 0.5], [1.0, 2.0])  # the row at 0.0 drops its unit: m' = [1, 0]
        got = misalignment_check(pts, [Bucket(l, r) for l, r in bounds], S, 1, [1.0])
        assert got == 2.0 == oracle_misalignment(pts, bounds, [0.0, 0.5], [1.0, 2.0], 1, 1.0)

    @pytest.mark.parametrize("pts", [[0.0, 0.0, 0.0, 2.0, 2.0, 2.0],
                                     [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]])
    def test_center_equidistant_from_two_tied_runs(self, pts):
        # Both runs sit at distance 1 from c = 1; ties drop the larger
        # indices first, so the window's left run straddles its edge.
        pts = np.array(pts)
        n = len(pts)
        rng = np.random.default_rng(5)
        for cuts in ([1, 2, 4], [2, 5], [1, 3, 4, 5], list(range(1, n))):
            bounds = list(zip([0, *cuts], [c - 1 for c in cuts] + [n - 1]))
            buckets = [Bucket(l, r) for l, r in bounds]
            rows = pts[[l for l, _ in bounds]]
            weights = rng.integers(1, 4, len(bounds)).astype(float)
            for m in range(0, min(n, int(weights.sum())) + 1):
                got = misalignment_check(pts, buckets, WeightedSet(rows, weights), m, [1.0])
                want = oracle_misalignment(pts, bounds, rows, weights, m, 1.0)
                assert got == want, f"cuts={cuts}, m={m}"

    def test_center_batches_and_lists_agree(self):
        pts, build = self.make_build()
        batch = draw_candidate_centers(pts, 1, 5, seed=2)
        assert batch.shape == (5, 1, 1)
        args = (pts, build.buckets, build.coreset, 100)
        want = misalignment_check(*args, [float(c) for c in batch[:, 0, 0]])
        assert misalignment_check(*args, batch) == want
        assert misalignment_check(*args, batch[:, 0, :]) == want

    def test_center_validation(self):
        pts = np.arange(6.0)
        buckets = [Bucket(i, i) for i in range(6)]
        S = unit_coreset(pts.reshape(-1, 1))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="centers contain non-finite coordinates"):
                misalignment_check(pts, buckets, S, 1, [0.0, bad])
        with pytest.raises(ValueError, match="one center per set"):
            misalignment_check(pts, buckets, S, 1, np.zeros((3, 2, 1)))
        with pytest.raises(ValueError, match="requires 1-d data"):
            misalignment_check(np.column_stack([pts, -pts]), buckets, S, 1, [0.0])

    def test_validation(self):
        pts = np.arange(6.0)
        buckets = [Bucket(i, i) for i in range(6)]
        S = unit_coreset(pts.reshape(-1, 1))
        with pytest.raises(ValueError, match="sorted"):
            misalignment_check(pts[::-1], buckets, S, 1, [0.0])
        with pytest.raises(ValueError, match="buckets"):
            misalignment_check(pts, buckets[:-1], S, 1, [0.0])
        with pytest.raises(ValueError, match="tile"):
            misalignment_check(pts, [buckets[0]] + buckets[:-1], S, 1, [0.0])
        no_rows = WeightedSet(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError, match="tile"):
            misalignment_check(pts, [], no_rows, 1, [0.0])
        shuffled = WeightedSet(S.points[::-1], S.weights)
        with pytest.raises(ValueError, match="ascending"):
            misalignment_check(pts, buckets, shuffled, 1, [0.0])


class TestSpeedup:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.P = rng.normal(size=(12_000, 3))
        self.P[:200] += 60.0
        C = lloyd_with_outliers(self.P, 2, 200, 2, max_iters=3, seed=0).centers
        b = default_builders(C)
        self.reports = speedup_report(
            self.P, 200, 2, 2,
            [("ours", b["ours"], 400), ("hllw25", b["hllw25"], 800)],
            seed=5, max_iters=8,
        )

    def test_one_report_per_builder_sharing_the_full_solve(self):
        assert [r.builder for r in self.reports] == ["ours", "hllw25"]
        t_full = {r.solve_time_on_full for r in self.reports}
        assert len(t_full) == 1, "the full-data solve runs once"
        cost_p = {r.cost_P for r in self.reports}
        assert len(cost_p) == 1

    def test_coreset_solutions_nearly_match_full_cost(self):
        for r in self.reports:
            ratio = r.cost_S / r.cost_P
            assert ratio <= 1.10, f"{r.builder}: full-data cost ratio {ratio}"
            assert r.cost_S > 0.0

    def test_coreset_solve_is_faster_than_full_solve(self):
        for r in self.reports:
            assert r.solve_time_on_coreset < r.solve_time_on_full, (
                f"{r.builder}: {r.solve_time_on_coreset} vs {r.solve_time_on_full}"
            )

    def test_shared_initialization_reaches_every_solve(self):
        rng = np.random.default_rng(1)
        C0 = CenterSet(rng.normal(size=(2, 3)), 2)
        b = default_builders(C0)
        reports = speedup_report(
            self.P, 200, 2, 2,
            [("ours", b["ours"], 400)],
            seed=5, max_iters=0, init=C0,
        )
        at_init = robust_cost(self.P, C0, 200)
        assert reports[0].cost_P == at_init, "full solve starts from the given centers"
        assert reports[0].cost_S == at_init, "coreset solve starts from them too"

    def test_csv_includes_every_report(self):
        lines = reports_to_csv(self.reports).splitlines()
        assert lines[0].startswith("builder,coreset_rows,build_time")
        assert len(lines) == 1 + len(self.reports)
        assert float(lines[1].split(",")[5]) == self.reports[0].cost_P

    def test_csv_quotes_a_tuple_seed(self):
        reps = [EvalReport(builder="x", coreset_rows=3, seed=(4, 2), cost_P=1.5)]
        text = reports_to_csv(reps)
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [8, 8]
        assert rows[1][7] == "(4, 2)"
        assert reports_to_csv([EvalReport(builder="x", coreset_rows=3, seed=5)]).endswith(
            "\nx,3,0,0,0,,,5\n"
        )

    def test_csv_leaves_missing_costs_empty(self):
        rep = EvalReport(builder="x", coreset_rows=3)
        line = reports_to_csv([rep]).splitlines()[1]
        fields = line.split(",")
        assert fields[5] == "" and fields[6] == ""
