"""Differential-privacy primitives substrate.

Everything the Sage platform layer (``repro.core``) and the ML substrate
(``repro.ml``) need from DP theory: budgets, mechanisms, sensitivity
handling, composition theorems (basic / strong / adaptive-filter), an RDP
accountant for DP-SGD, and the DP point queries used by training pipelines.
"""

from repro.dp.budget import PrivacyBudget, ZERO_BUDGET, sum_budgets
from repro.dp.composition import (
    advanced_composition,
    basic_composition,
    optimal_composition_homogeneous,
    rogers_filter_admits,
    rogers_filter_epsilon,
    rogers_filter_epsilon_from_sums,
    rogers_filter_epsilon_from_sums_batch,
    strong_composition_heterogeneous,
)
from repro.dp.mechanisms import (
    GaussianMechanism,
    LaplaceMechanism,
    gaussian_noise,
    gaussian_sigma,
    laplace_noise,
    laplace_scale,
    make_rng,
)
from repro.dp.queries import (
    dp_count,
    dp_group_by_count,
    dp_group_by_mean,
    dp_group_by_sum,
    dp_histogram,
    dp_mean,
    dp_sum,
)
from repro.dp.rdp import (
    DEFAULT_ORDERS,
    GaussianMechanismBudget,
    calibrate_sigma,
    compute_epsilon,
    compute_rdp,
    gaussian_mechanism_budget,
    gaussian_rdp,
    pure_dp_rdp,
    rdp_epsilon_penalties,
    rdp_to_epsilon,
    sampled_gaussian_rdp,
)
from repro.dp.sensitivity import (
    clip_rows_l2,
    clip_values,
    l2_clip_factor,
    sum_sensitivity,
)

__all__ = [
    "PrivacyBudget",
    "ZERO_BUDGET",
    "sum_budgets",
    "basic_composition",
    "advanced_composition",
    "strong_composition_heterogeneous",
    "optimal_composition_homogeneous",
    "rogers_filter_epsilon",
    "rogers_filter_admits",
    "rogers_filter_epsilon_from_sums",
    "rogers_filter_epsilon_from_sums_batch",
    "LaplaceMechanism",
    "GaussianMechanism",
    "laplace_noise",
    "gaussian_noise",
    "laplace_scale",
    "gaussian_sigma",
    "make_rng",
    "dp_count",
    "dp_sum",
    "dp_mean",
    "dp_histogram",
    "dp_group_by_count",
    "dp_group_by_sum",
    "dp_group_by_mean",
    "DEFAULT_ORDERS",
    "GaussianMechanismBudget",
    "gaussian_mechanism_budget",
    "pure_dp_rdp",
    "rdp_epsilon_penalties",
    "gaussian_rdp",
    "sampled_gaussian_rdp",
    "compute_rdp",
    "rdp_to_epsilon",
    "compute_epsilon",
    "calibrate_sigma",
    "clip_values",
    "clip_rows_l2",
    "l2_clip_factor",
    "sum_sensitivity",
]
