"""Ordered-transmission distributed detection under Byzantine attacks.

Sensors that observe a common Gaussian signal send their log-likelihood
ratios to a fusion center in order of decreasing magnitude; the center
stops listening as soon as the pending decision can no longer change.
This package simulates that protocol trial by trial, evaluates its error
probabilities and transmission savings in closed or semi-closed form, and
characterizes the attack strengths with which compromised sensors degrade
it, cross-validating every analytic quantity against Monte Carlo.
"""

__version__ = "0.1.0"

from .core import (
    EstimateWithError,
    Hypothesis,
    LlrMixture,
    ModelConfig,
    PopulationMoments,
    abs_llr_cdf,
    abs_llr_pdf,
    llr_mixture,
    mixture_pdf,
    population_moments,
    q_function,
)
from .protocol import (
    BatchSummary,
    PartialSumBounds,
    RngSpec,
    TrialRecord,
    draw_trial,
    expected_transmissions,
    partial_sum_bounds,
    run_batch,
    stopping_rule,
)
from .attack import (
    AttackAssessment,
    ByzFraction,
    deflection_coefficient,
    optimal_attack_strength,
    optimal_byz_fraction,
)
from .analysis import (
    BoundsReport,
    ErrorProbabilities,
    abs_order_stat_cdf,
    abs_order_stat_pdf,
    analytic_error_probs,
    transmission_savings_bounds,
)
from .sweep import (
    METRICS,
    PRESET_NAMES,
    SpecError,
    SweepResult,
    SweepSpec,
    emit_csv,
    load_csv,
    preset_specs,
    run_sweep,
    summarize,
)

__all__ = [
    "__version__",
    "Hypothesis",
    "ModelConfig",
    "LlrMixture",
    "PopulationMoments",
    "EstimateWithError",
    "q_function",
    "llr_mixture",
    "mixture_pdf",
    "abs_llr_cdf",
    "abs_llr_pdf",
    "population_moments",
    "RngSpec",
    "TrialRecord",
    "BatchSummary",
    "PartialSumBounds",
    "draw_trial",
    "stopping_rule",
    "partial_sum_bounds",
    "run_batch",
    "expected_transmissions",
    "AttackAssessment",
    "ByzFraction",
    "deflection_coefficient",
    "optimal_attack_strength",
    "optimal_byz_fraction",
    "ErrorProbabilities",
    "BoundsReport",
    "analytic_error_probs",
    "abs_order_stat_pdf",
    "abs_order_stat_cdf",
    "transmission_savings_bounds",
    "SpecError",
    "SweepSpec",
    "SweepResult",
    "METRICS",
    "PRESET_NAMES",
    "run_sweep",
    "emit_csv",
    "load_csv",
    "summarize",
    "preset_specs",
]
