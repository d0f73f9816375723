"""archlab: dependence analysis for standard two-process serial and
parallel processing-time models, n-process exponential recall models, and
a Weibull maximum-likelihood fitting pipeline.

The package namespace is lazy (PEP 562): each public name, and each
submodule, is imported on first access, so ``import archlab`` and a CLI
command load only the modules they use.
"""

import importlib

#: Each public name, grouped by the submodule that defines it.
_EXPORTS = {
    "distributions": ("EPS_SURVIVAL", "Exponential",
                      "ProcessingTimeDistribution", "Uniform", "Weibull",
                      "parse_spec"),
    "mc": ("DEFAULT_SEED", "RngState", "Theorem1Result", "Trials",
           "empirical_dependence", "run_theorem1_mc", "sample_iid",
           "simulate_parallel", "simulate_serial"),
    "numerics": ("classify_sign", "convolve_cdf", "integrate"),
    "parallel": ("ParallelTwoModel", "StageGap", "StageSurvivalGrid",
                 "alpha_extrema", "classify_stage_trend",
                 "conditional_ict_survival", "hazard_ratio_alpha",
                 "ict_survival_trend", "parallel_dependence_difference",
                 "stage_survival_gap", "stage_survival_grid"),
    "recall": ("MleFit", "RecallModel", "RecallTrials", "loglik_weibull",
               "rw_mean_ict", "sample_parallel_expo", "sample_vu_serial",
               "vu_ict_density", "vu_order_probability", "weibull_mle"),
    "serial": ("DependenceProfile", "SerialTwoModel", "dependence_difference",
               "dependence_profile", "expression3", "fixed_order_covariance",
               "marginal_completion_cdf"),
}
_SUBMODULES = frozenset({"cli", "distributions", "errors", "mc", "numerics",
                         "parallel", "recall", "serial", "verify"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
