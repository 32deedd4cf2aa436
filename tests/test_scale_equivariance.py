"""Scaling the data by a power of two scales every output exactly.

Multiplying P and C* by 2^j is exact in float64 away from overflow and
subnormals, so a builder whose arithmetic is scale-free must return the
same weights on rows scaled by 2^j, and a robust cost must scale by
2^(jz), bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from rcoreset.core import CenterSet, WeightedSet, robust_cost_many, robust_cost_weighted_many
from rcoreset.coreset1d import build_robust_1d, build_vanilla_1d
from rcoreset.evaluation import default_builders
from rcoreset.instances import gen_gaussian_clusters
from rcoreset.solver import lloyd_with_outliers

POWERS = [-3, 5, 40]


def assert_scaled(S, S_scaled, scale: float) -> None:
    np.testing.assert_array_equal(S_scaled.points, S.points * scale)
    np.testing.assert_array_equal(S_scaled.weights, S.weights)


@pytest.mark.parametrize("j", POWERS)
def test_line_builders_scale_exactly(j: int) -> None:
    P = np.sort(np.random.default_rng(31).standard_t(3, size=3000))
    scale = 2.0**j
    assert_scaled(build_robust_1d(P, 60, 0.2), build_robust_1d(P * scale, 60, 0.2), scale)
    assert_scaled(build_vanilla_1d(P, 0.2), build_vanilla_1d(P * scale, 0.2), scale)


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("j", POWERS)
def test_nd_builders_scale_exactly(j: int, z: int) -> None:
    m, k = 60, 3
    P, _ = gen_gaussian_clusters(3000, 4, k, m, seed=32)
    C = lloyd_with_outliers(P, k, m, z, max_iters=5, seed=0).centers
    scale = 2.0**j
    plain = default_builders(C)
    scaled = default_builders(CenterSet(C.centers * scale, z=z))
    for name in ("ours", "hllw25", "hjlw23"):
        S = plain[name](P, m, k, z, 400, 5)
        assert_scaled(S, scaled[name](P * scale, m, k, z, 400, 5), scale)


@pytest.mark.parametrize("z", [1, 2])
@pytest.mark.parametrize("d, k", [(1, 1), (4, 3)])
@pytest.mark.parametrize("j", POWERS)
def test_batch_costs_scale_exactly(j: int, d: int, k: int, z: int) -> None:
    rng = np.random.default_rng(33)
    m = 40
    P = rng.normal(size=(2000, d))
    P[:m] *= 30.0
    batch = P[rng.choice(len(P), size=(25, k))]
    S = WeightedSet(P[::7], rng.uniform(0.5, 13.0, len(P[::7])))
    scale = 2.0**j
    np.testing.assert_array_equal(
        robust_cost_many(P * scale, batch * scale, z, m),
        robust_cost_many(P, batch, z, m) * scale**z,
    )
    np.testing.assert_array_equal(
        robust_cost_weighted_many(WeightedSet(S.points * scale, S.weights), batch * scale, z, m),
        robust_cost_weighted_many(S, batch, z, m) * scale**z,
    )
