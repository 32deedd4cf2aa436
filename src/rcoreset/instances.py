"""Instance generators: adversarial constructions and synthetic benchmarks.

The three adversarial families realize the lower-bound constructions for
the 1-d robust median (pigeonhole interval family, the component-wise
obstacle with geometrically exploding far points, and the two-value
ratio family).  The synthetic family produces Gaussian clusters plus
far uniform outliers, optionally followed by Cauchy contamination.
All generators are deterministic under a fixed seed and emit sorted
output for the 1-d families.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InstanceSpec",
    "LowerBound1dInstance",
    "contaminate_cauchy",
    "gen_gaussian_clusters",
    "gen_lower_bound_1d",
    "gen_obstacle",
    "gen_ratio_lb",
    "generate_instance",
]

_OBSTACLE_CAP = 1e300


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one generated instance."""

    family: str
    n: int
    m: int = 0
    d: int = 1
    k: int = 1
    eps: float = 0.1
    seed: int = 0
    contamination_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if not self.n > self.m >= 0:
            raise ValueError(f"need n > m >= 0, got n={self.n}, m={self.m}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")
        if not 0.0 <= self.contamination_fraction < 1.0:
            raise ValueError(
                f"contamination_fraction must lie in [0, 1), got {self.contamination_fraction}"
            )


@dataclass(frozen=True)
class LowerBound1dInstance:
    """Pigeonhole interval instance: points plus its layout metadata."""

    points: np.ndarray
    q: int
    alpha: float
    centers: tuple[float, ...]


def gen_lower_bound_1d(
    n: int, m: int, eps: float, *, jitter: bool = False
) -> LowerBound1dInstance:
    """Interval family forcing coreset size ~ (m/n)/eps.

    q = floor(m / (2 n eps)) groups of floor(m/q) points sit at the
    geometrically spaced values m^(i*alpha) with alpha = 2 + log_m(1/eps^2);
    the remaining n - q*floor(m/q) points sit at zero.  A coreset that
    skips an entire group cannot reproduce the robust cost at that
    group's value.  With jitter=True each point is nudged by i*2^-40
    times the first group value, turning the multiset into distinct
    points without changing the cost structure.
    """
    n = operator.index(n)
    m = operator.index(m)
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if n < 4 * m:
        raise ValueError(f"need n >= 4m for downstream builders, got n={n}, m={m}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q = math.floor(m / (2.0 * n * eps))
    if q < 1:
        raise ValueError(
            f"parameters give q={q}; need m/(2 n eps) >= 1 for the construction"
        )
    alpha = 2.0 + math.log(eps**-2.0) / math.log(m)
    group = m // q
    centers = tuple(float(m) ** (i * alpha) for i in range(1, q + 1))
    parts = [np.zeros(n - q * group)]
    parts.extend(np.full(group, value) for value in centers)
    points = np.sort(np.concatenate(parts))
    if jitter:
        scale = np.maximum(np.abs(points), centers[0] * 2.0**-20)
        points = points + np.arange(n) * 2.0**-40 * scale
    return LowerBound1dInstance(points=points, q=q, alpha=alpha, centers=centers)


def gen_obstacle(n: int, m: int) -> np.ndarray:
    """Inliers at i/n for i <= n-m, then far points at n^(3j), j = 1..m.

    The far values are computed in log space first; the construction is
    rejected when the largest one would exceed `_OBSTACLE_CAP`.
    """
    n = operator.index(n)
    m = operator.index(m)
    if not n > m >= 2:
        raise ValueError(f"need n > m >= 2, got n={n}, m={m}")
    log_max = 3.0 * m * math.log10(n)
    if log_max > math.log10(_OBSTACLE_CAP):
        raise ValueError(
            f"largest far point 10^{log_max:.1f} exceeds the cap {_OBSTACLE_CAP:.3g}; "
            "reduce n or m"
        )
    inliers = np.arange(1, n - m + 1, dtype=np.float64) / n
    far = np.power(float(n), 3.0 * np.arange(1, m + 1, dtype=np.float64))
    return np.concatenate([inliers, far])


def gen_ratio_lb(n: int, m: int, X: float | None = None) -> np.ndarray:
    """Two-value family: 1..m on the left, n-m copies of X far right."""
    n = operator.index(n)
    m = operator.index(m)
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    if X is None:
        X = 1e6 * m
    if X <= m:
        raise ValueError(f"need X > m, got X={X}")
    return np.concatenate(
        [np.arange(1, m + 1, dtype=np.float64), np.full(n - m, float(X))]
    )


def gen_gaussian_clusters(
    n: int, d: int, k: int, m: int, spread: float = 1.0, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """k isotropic Gaussian clusters plus m far uniform-shell outliers.

    Returns (points, labels); label i in [0, k) is the generating
    cluster, -1 marks an outlier.  Cluster means live in a box of
    half-width 10*spread; outliers sit on a shell whose radius makes
    them the m farthest points from the means (up to Gaussian tails).
    """
    n = operator.index(n)
    m = operator.index(m)
    if not n > m >= 0:
        raise ValueError(f"need n > m >= 0, got n={n}, m={m}")
    if d < 1 or k < 1:
        raise ValueError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    if spread < 0:
        raise ValueError(f"spread must be nonnegative, got {spread}")
    rng = np.random.default_rng(seed)
    means = rng.uniform(-10.0 * spread, 10.0 * spread, (k, d))
    n_in = n - m
    sizes = np.full(k, n_in // k)
    sizes[: n_in % k] += 1
    points = np.empty((n, d))
    labels = np.empty(n, dtype=np.int64)
    row = 0
    for i, size in enumerate(sizes):
        points[row : row + size] = means[i] + rng.normal(0.0, spread, (size, d))
        labels[row : row + size] = i
        row += size
    if m > 0:
        scale = spread if spread > 0 else 1.0
        directions = rng.normal(0.0, 1.0, (m, d))
        norms = np.linalg.norm(directions, axis=1)
        norms[norms == 0] = 1.0
        radii = rng.uniform(25.0, 50.0, m) * scale * math.sqrt(d)
        points[row:] = directions / norms[:, None] * radii[:, None]
        labels[row:] = -1
    return points, labels


def contaminate_cauchy(P, fraction: float, seed=0) -> np.ndarray:
    """Add standard-Cauchy noise per coordinate to floor(fraction*n) points."""
    points = np.array(P, dtype=np.float64, copy=True)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    count = math.floor(fraction * len(points))
    if count == 0:
        return points
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(points), size=count, replace=False)
    points[idx] += rng.standard_cauchy((count, points.shape[1]))
    return points


# Each family's generator; its keys are the values the CLI's --family takes.
_GENERATORS = {
    "lb1d": lambda s: gen_lower_bound_1d(s.n, s.m, s.eps).points.reshape(-1, 1),
    "obstacle": lambda s: gen_obstacle(s.n, s.m).reshape(-1, 1),
    "ratio": lambda s: gen_ratio_lb(s.n, s.m).reshape(-1, 1),
    "gauss": lambda s: gen_gaussian_clusters(s.n, s.d, s.k, s.m, seed=s.seed)[0],
}
_FAMILIES = tuple(_GENERATORS)


def generate_instance(spec: InstanceSpec) -> np.ndarray:
    """Generate the point set for a spec (1-d families come back sorted)."""
    points = _GENERATORS[spec.family](spec)
    if spec.contamination_fraction > 0.0:
        points = contaminate_cauchy(points, spec.contamination_fraction, spec.seed + 1)
        if points.shape[1] == 1:
            points = np.sort(points, axis=0)
    return points
