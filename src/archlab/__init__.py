"""archlab: dependence analysis for standard two-process serial and
parallel processing-time models, n-process exponential recall models, and
a Weibull maximum-likelihood fitting pipeline.
"""

from .distributions import (EPS_SURVIVAL, Exponential,
                            ProcessingTimeDistribution, Uniform, Weibull,
                            parse_spec)
from .mc import (DEFAULT_SEED, RngState, Theorem1Result, Trials,
                 empirical_dependence, run_theorem1_mc, sample_iid,
                 simulate_parallel, simulate_serial)
from .numerics import (Axis, GridResult, GridSpec, classify_sign,
                       convolve_cdf, grid_eval, integrate)
from .parallel import (ParallelTwoModel, StageGap, StageSurvivalGrid,
                       alpha_extrema, classify_stage_trend,
                       conditional_ict_survival, hazard_ratio_alpha,
                       ict_survival_trend, parallel_dependence_difference,
                       stage_survival_gap, stage_survival_grid)
from .recall import (MleFit, RecallModel, RecallTrials, loglik_weibull,
                     rw_mean_ict, sample_parallel_expo, sample_vu_serial,
                     vu_ict_density, vu_order_probability, weibull_mle)
from .serial import (DependenceProfile, SerialTwoModel, dependence_difference,
                     dependence_profile, expression3, fixed_order_covariance,
                     marginal_completion_cdf)

__version__ = "0.1.0"

__all__ = [
    "EPS_SURVIVAL", "Exponential", "ProcessingTimeDistribution", "Uniform",
    "Weibull", "parse_spec", "DEFAULT_SEED", "RngState",
    "Theorem1Result", "Trials", "empirical_dependence",
    "run_theorem1_mc", "sample_iid", "simulate_parallel", "simulate_serial",
    "Axis", "GridResult", "GridSpec", "classify_sign",
    "convolve_cdf", "grid_eval", "integrate", "ParallelTwoModel", "StageGap",
    "StageSurvivalGrid", "alpha_extrema", "classify_stage_trend",
    "conditional_ict_survival", "hazard_ratio_alpha", "ict_survival_trend",
    "parallel_dependence_difference", "stage_survival_gap",
    "stage_survival_grid", "MleFit", "RecallModel", "RecallTrials",
    "loglik_weibull", "rw_mean_ict", "sample_parallel_expo",
    "sample_vu_serial", "vu_ict_density", "vu_order_probability",
    "weibull_mle", "DependenceProfile", "SerialTwoModel",
    "dependence_difference", "dependence_profile", "expression3",
    "fixed_order_covariance", "marginal_completion_cdf", "__version__",
]
