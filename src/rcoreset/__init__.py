"""Coresets for robust geometric median and robust (k, z)-clustering."""

from rcoreset.baselines import build_hjlw23, build_hllw25, build_uniform
from rcoreset.core import (
    AssumptionViolationError,
    CenterSet,
    InlierAssignment,
    WeightedSet,
    as_points,
    dist,
    inlier_assignment,
    outlier_split,
    robust_cost,
    robust_cost_many,
    robust_cost_weighted,
    robust_cost_weighted_many,
)
from rcoreset.coreset1d import (
    build_robust_1d,
    build_robust_1d_full,
    build_vanilla_1d,
)
from rcoreset.coreset_nd import (
    AssumptionReport,
    build_robust_kz,
    build_robust_kz_full,
    check_assumptions,
    split_sample_sizes,
)
from rcoreset.evaluation import (
    EvalReport,
    SweepResult,
    ball_range_check,
    ball_range_deviation_1d,
    default_builders,
    draw_candidate_centers,
    empirical_error,
    misalignment_check,
    speedup_report,
    sweep_size_error,
)
from rcoreset.instances import (
    InstanceSpec,
    contaminate_cauchy,
    gen_gaussian_clusters,
    gen_lower_bound_1d,
    gen_obstacle,
    gen_ratio_lb,
    generate_instance,
)
from rcoreset.solver import SolveResult, kmeanspp_seed, lloyd_with_outliers, robust_median_1d

__all__ = [
    "AssumptionReport",
    "AssumptionViolationError",
    "CenterSet",
    "EvalReport",
    "InlierAssignment",
    "InstanceSpec",
    "SolveResult",
    "SweepResult",
    "WeightedSet",
    "as_points",
    "ball_range_check",
    "ball_range_deviation_1d",
    "build_hjlw23",
    "build_hllw25",
    "build_robust_1d",
    "build_robust_1d_full",
    "build_robust_kz",
    "build_robust_kz_full",
    "build_uniform",
    "build_vanilla_1d",
    "check_assumptions",
    "contaminate_cauchy",
    "default_builders",
    "dist",
    "draw_candidate_centers",
    "empirical_error",
    "gen_gaussian_clusters",
    "gen_lower_bound_1d",
    "gen_obstacle",
    "gen_ratio_lb",
    "generate_instance",
    "inlier_assignment",
    "kmeanspp_seed",
    "lloyd_with_outliers",
    "misalignment_check",
    "outlier_split",
    "robust_cost",
    "robust_cost_many",
    "robust_cost_weighted",
    "robust_cost_weighted_many",
    "speedup_report",
    "split_sample_sizes",
    "sweep_size_error",
]

__version__ = "0.1.0"
