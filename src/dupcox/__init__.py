"""Duplication-method comparison of exposure associations in Cox models.

Row-bind one copy of a cohort per exposure, tag copies with a type
indicator, fit a single type-stratified Cox model with full type
interactions and a cluster-robust variance, and Wald-test the interaction
coefficients: a formal test of whether multiple exposures associate
differently with a common time-to-event outcome that accounts for the
correlation between the estimates.
"""

__version__ = "0.1.0"

from .data import (
    CheckResult,
    Dataset,
    Schema,
    ValidationReport,
    load_dataset,
    save_dataset,
    validate,
)
from .design import (
    AugmentedDataset,
    DesignMatrix,
    ExposureSpec,
    block_design,
    build_design_matrix,
    categorize_quantiles,
    dummy_code,
    duplicate_augment,
    single_exposure_design,
    trend_scores,
)
from .cox import (
    CoxFit,
    FitDiagnostics,
    FitOptions,
    evaluate,
    fit,
    robust_covariance,
)
from .inference import (
    ComparisonReport,
    ExposureSummary,
    ExposureTerm,
    HazardRatio,
    TestResult,
    chi_square_upper_tail,
    compare_exposures,
    format_hr_ci,
    format_p,
    hazard_ratio,
    render_table,
    wald_multivariate,
    wald_univariate,
)
from .simlab import (
    CalibrationResult,
    SimConfig,
    estimate_power,
    estimate_type1_error,
    ks_critical_value,
    ks_uniform_statistic,
    simulate_cohort,
)
from . import errors

__all__ = [
    "__version__",
    "Schema", "Dataset", "ValidationReport", "CheckResult",
    "load_dataset", "save_dataset", "validate",
    "ExposureSpec", "AugmentedDataset", "DesignMatrix",
    "categorize_quantiles", "dummy_code", "trend_scores",
    "duplicate_augment", "build_design_matrix", "block_design", "single_exposure_design",
    "FitOptions", "FitDiagnostics", "CoxFit",
    "evaluate", "fit", "robust_covariance",
    "TestResult", "HazardRatio", "ExposureTerm", "ExposureSummary",
    "ComparisonReport", "chi_square_upper_tail",
    "wald_multivariate", "wald_univariate", "hazard_ratio",
    "compare_exposures", "render_table", "format_hr_ci", "format_p",
    "SimConfig", "CalibrationResult", "simulate_cohort",
    "estimate_type1_error", "estimate_power",
    "ks_uniform_statistic", "ks_critical_value",
    "errors",
]
