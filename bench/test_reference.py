"""Brute-force checks of the benchmark's reference computations.

Run with ``python3 -m pytest bench``.  Every case enumerates all
candidate answers on inputs small enough to list.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import reference as ref


def _brute_dist_pow(p, centers, z):
    return min(math.dist(p, c) for c in centers) ** z


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_robust_cost_is_the_best_subset(z, seed):
    rng = np.random.default_rng(seed)
    n, m = 7, 2
    pts = rng.normal(size=(n, 2))
    ctr = rng.normal(size=(2, 2))
    brute = min(
        sum(_brute_dist_pow(pts[i], ctr, z) for i in keep)
        for keep in itertools.combinations(range(n), n - m)
    )
    assert ref.robust_cost(pts, ctr, z, m) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_weighted_cost_matches_replicated_points(z, seed):
    # With integer weights and an integer m, dropping m units of weight
    # is dropping m of the replicated unit points.
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 2))
    w = rng.integers(1, 4, size=4)
    ctr = rng.normal(size=(2, 2))
    m = int(rng.integers(0, w.sum()))
    copies = [pts[i] for i in range(4) for _ in range(w[i])]
    total = len(copies)
    brute = min(
        sum(_brute_dist_pow(copies[i], ctr, z) for i in keep)
        for keep in itertools.combinations(range(total), total - m)
    )
    got = ref.weighted_robust_cost(pts, w, ctr, z, float(m))
    assert got == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_weighted_cost_splits_one_row():
    pts = np.array([[0.0], [1.0], [3.0]])
    w = np.array([2.0, 2.0, 2.0])
    # Budget 6 - 2.5 = 3.5: all of row 0, 1.5 of row 1, none of row 2.
    assert ref.weighted_robust_cost(pts, w, [[0.0]], 1, 2.5) == pytest.approx(1.5)


@pytest.mark.parametrize("seed", range(8))
def test_robust_median_1d_is_the_best_center(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(0, n))
    x = np.sort(rng.normal(size=n) * rng.choice([1.0, 10.0], size=n))
    # The optimum sits at a data point: cost is piecewise linear in the
    # center with breakpoints at the data.
    brute = min(
        sum(sorted(abs(v - c) for v in x)[: n - m]) for c in x
    )
    cost, center = ref.robust_median_1d(x, m)
    assert cost == pytest.approx(brute, rel=1e-12, abs=1e-12)
    assert sum(sorted(abs(v - center) for v in x)[: n - m]) == pytest.approx(
        brute, rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_assumption_report_matches_loops(z, seed):
    rng = np.random.default_rng(seed)
    n, m, k = 12, 1, 2
    pts = rng.normal(size=(n, 2))
    ctr = rng.normal(size=(k, 2))
    dmin, nearest = [], []
    for p in pts:
        d = [math.dist(p, c) for c in ctr]
        j = d.index(min(d))
        dmin.append(d[j])
        nearest.append(j)
    kept = sorted(range(n), key=lambda i: (dmin[i], i))[: n - m]
    sizes = [sum(1 for i in kept if nearest[i] == j) for j in range(k)]
    r_max = max(dmin[i] for i in kept)
    r_bar = (sum(dmin[i] ** z for i in kept) / len(kept)) ** (1 / z)
    got = ref.assumption_report(pts, ctr, z, m, k)
    assert got["cluster_sizes"] == sizes
    assert got["r_max"] == pytest.approx(r_max, rel=1e-12)
    assert got["r_bar"] == pytest.approx(r_bar, rel=1e-12)
    assert got["cond1"] == (min(sizes) >= 4 * m)
    assert got["cond2"] == ((r_max / r_bar) ** z <= 4 * k)
