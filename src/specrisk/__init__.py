"""Spectral risk measure estimation for left-truncated right-censored losses.

The package fits the product-limit distribution of windowed loss data,
integrates its quantiles against exponential risk-aversion spectra, compares
the resulting estimator with empirical, kernel-smoothed and parametric
competitors, and ships bootstrap/asymptotic inference plus a reproducible
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .errors import (
    BootstrapError,
    CalibrationError,
    ClaimsFormatError,
    EstimationError,
    GenerationError,
    NumericalError,
    SingularDensityError,
    SpecriskError,
)
from .ltrc import (
    LtrcSample,
    PlFit,
    QuantileFunction,
    StepDistribution,
    fit_pl,
    pl_quantile,
    risk_set_fraction,
    uncensored_subdist,
)
from .spectra import ExpectedShortfallSpectrum, ExponentialSpectrum
from .severity import (
    DependentModelConfig,
    ModelFamily,
    SeverityModel,
    TruncationLaw,
    WindowScheme,
    calibrate_truncation_location,
    dependent_censoring_fraction,
    ground_up_quantile,
    sample_dependent_marginal,
    sample_ltrc_dependent,
    sample_ltrc_iid,
    theoretical_srm,
    window_quantile,
)
from .estimators import (
    EmpEstimator,
    EstimateReport,
    KernelEstimator,
    MlEstimator,
    PmEstimator,
    ProdEstimator,
    build_estimator,
    estimate_emp,
    estimate_prod,
    srm_from_quantile,
    srm_from_sorted,
)
from .inference import (
    BootstrapPlan,
    EdgeworthDiagnostics,
    VariancePlugin,
    asymptotic_ci,
    bootstrap_ci,
    bootstrap_ci_many,
    edgeworth_cdf,
    edgeworth_diagnostics,
    estimate_sigma2,
)
from .harness import (
    CoverageResult,
    ExperimentPlan,
    MCResult,
    default_dependent_config,
    emit_rmse_ratio_log,
    run_coverage_experiment,
    run_dependent_experiment,
    run_iid_experiment,
)
from .claims import ClaimsFile, parse_claims, write_ltrc_csv

__all__ = [name for name in dir() if not name.startswith("_")]
