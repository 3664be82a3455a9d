"""Synthetic cohorts with known hazards, and Monte Carlo calibration.

Cohorts are generated under a Weibull baseline hazard multiplied by
``exp(beta' exposures + gamma' covariates)``; event times come from the
closed-form inverse transform.  Exposures are jointly Gaussian with a
configurable equicorrelation, so a null where every exposure is associated
identically with the outcome is available by symmetric generation (equal
true coefficients over exchangeable exposures), and the degenerate null by
``exposure_correlation = 1``.  The harness measures rejection rates of the
duplication-method test over independent replicates, each with its own
deterministic sub-seed and fitted with the default ``FitOptions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema
from .design import ExposureSpec
from .errors import ConfigError, DupcoxError
from .inference import compare_exposures, wald_univariate


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; replicate seeds derive from the master seed.

    The default Weibull shape of 1 gives an exponential baseline hazard.
    """

    n_subjects: int
    exposure_correlation: float
    true_beta: tuple[float, ...]
    covariate_effects: tuple[float, ...] = ()
    weibull_shape: float = 1.0
    weibull_scale: float = 1.0
    censoring_rate: float = 0.25
    n_strata: int = 1
    replicate_count: int = 100
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "true_beta", tuple(float(b) for b in self.true_beta))
        object.__setattr__(self, "covariate_effects",
                           tuple(float(g) for g in self.covariate_effects))
        m = len(self.true_beta)
        if m < 2:
            raise ConfigError("true_beta needs one entry per exposure, at least two")
        if not -1.0 <= self.exposure_correlation <= 1.0:
            raise ConfigError("exposure_correlation must lie in [-1, 1]")
        if m > 2 and self.exposure_correlation < -1.0 / (m - 1):
            raise ConfigError(
                f"equicorrelation {self.exposure_correlation} is not positive "
                f"semidefinite for {m} exposures"
            )
        if self.n_subjects < 2:
            raise ConfigError("n_subjects must be >= 2")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise ConfigError("censoring_rate must lie in [0, 1)")
        if self.weibull_shape <= 0 or self.weibull_scale <= 0:
            raise ConfigError("Weibull shape and scale must be > 0")
        if self.n_strata < 1:
            raise ConfigError("n_strata must be >= 1")
        if self.replicate_count < 1:
            raise ConfigError("replicate_count must be >= 1")

    @property
    def n_exposures(self) -> int:
        return len(self.true_beta)

    def exposure_columns(self) -> tuple[str, ...]:
        return tuple(f"A{j + 1}" for j in range(self.n_exposures))

    def covariate_columns(self) -> tuple[str, ...]:
        return tuple(f"L{j + 1}" for j in range(len(self.covariate_effects)))

    def schema(self) -> Schema:
        return Schema(
            id_column="id",
            exit_column="time",
            event_column="event",
            exposure_columns=self.exposure_columns(),
            covariate_columns=self.covariate_columns(),
            strata_columns=("stratum",),
        )

    def exposure_spec(self) -> ExposureSpec:
        return ExposureSpec(kind="continuous", source_columns=self.exposure_columns())


def _correlated_normals(rng, n: int, m: int, rho: float) -> np.ndarray:
    if rho >= 0.0:
        shared = rng.standard_normal((n, 1))
        own = rng.standard_normal((n, m))
        return math.sqrt(rho) * shared + math.sqrt(1.0 - rho) * own
    corr = np.full((m, m), rho) + (1.0 - rho) * np.eye(m)
    vals, vecs = np.linalg.eigh(corr)
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return rng.standard_normal((n, m)) @ root


def simulate_cohort(config: SimConfig, replicate_index: int) -> Dataset:
    """Generate one synthetic cohort deterministically from the seed pair.

    Event times are inverse-transform samples from the Weibull baseline under
    the configured log-hazard; censoring times are Weibull with the same
    shape, scaled so that a baseline subject is censored with probability
    ``censoring_rate``; strata labels are uniform and carry no effect.
    """
    rng = np.random.default_rng([config.master_seed, replicate_index])
    n = config.n_subjects
    m = config.n_exposures
    q = len(config.covariate_effects)

    exposures = _correlated_normals(rng, n, m, config.exposure_correlation)
    covariates = rng.standard_normal((n, q)) if q else np.empty((n, 0))
    eta = exposures @ np.array(config.true_beta)
    if q:
        eta = eta + covariates @ np.array(config.covariate_effects)

    shape, scale = config.weibull_shape, config.weibull_scale
    t_event = scale * (-np.log(rng.uniform(size=n)) * np.exp(-eta)) ** (1.0 / shape)
    if config.censoring_rate > 0.0:
        rate = config.censoring_rate
        scale_c = scale * ((1.0 - rate) / rate) ** (1.0 / shape)
        t_cens = scale_c * (-np.log(rng.uniform(size=n))) ** (1.0 / shape)
    else:
        t_cens = np.full(n, np.inf)

    exit_ = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    strata = rng.integers(0, config.n_strata, size=n)
    labels = np.array([f"s{v}" for v in range(config.n_strata)], dtype=object)

    return Dataset(
        schema=config.schema(),
        subject_ids=np.fromiter(map(str, range(1, n + 1)), dtype=object, count=n),
        entry=np.zeros(n),
        exit=exit_,
        event=event,
        exposures=exposures,
        covariates=covariates,
        strata=labels[strata].reshape(-1, 1),
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Rejection rate of the comparison test over independent replicates."""

    scenario: str
    alpha: float
    rejection_rate: float
    ci_lower: float
    ci_upper: float
    n_replicates: int
    n_used: int
    n_failures: int
    valid: bool
    p_values: tuple[float, ...]
    ci_overlap_fraction: float | None = None
    naive_rejection_rate: float | None = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "alpha": self.alpha,
            "rejection_rate": self.rejection_rate,
            "mc_ci": [self.ci_lower, self.ci_upper],
            "n_replicates": self.n_replicates,
            "n_used": self.n_used,
            "n_failures": self.n_failures,
            "valid": self.valid,
            "ci_overlap_fraction": self.ci_overlap_fraction,
            "naive_rejection_rate": self.naive_rejection_rate,
        }


# Scenarios with more than this fraction of failed replicate fits are marked
# invalid rather than silently summarized.
MAX_FAILURE_FRACTION = 0.02


def _run_replicates(config: SimConfig, alpha: float, scenario: str, *,
                    include_naive: bool = False) -> CalibrationResult:
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    spec = config.exposure_spec()

    p_values: list[float] = []
    naive_p: list[float] = []
    overlaps = 0
    failures = 0
    for r in range(config.replicate_count):
        dataset = simulate_cohort(config, r)
        try:
            report = compare_exposures(dataset, spec)
            if report.difference_test is None:
                raise DupcoxError("fit did not converge")
            p_values.append(report.difference_test.p_value)
            first = report.exposures[0].terms[0]
            second = report.exposures[1].terms[0]
            if first.ci_lower <= second.ci_upper and second.ci_lower <= first.ci_upper:
                overlaps += 1
            if include_naive:
                # Separate-fit z-test ignoring the correlation between the
                # estimates: the model variance of b2 - b1 is var1 + var2,
                # because the information is block-diagonal over the types.
                naive_p.append(wald_univariate(report.fit, "Exposures:A_type2",
                                               "model").p_value)
        except DupcoxError:
            failures += 1

    n_used = len(p_values)
    if n_used == 0:
        raise DupcoxError(f"all {config.replicate_count} replicates failed to fit")
    rate = sum(p < alpha for p in p_values) / n_used
    half = 1.96 * math.sqrt(rate * (1.0 - rate) / n_used)
    return CalibrationResult(
        scenario=scenario,
        alpha=alpha,
        rejection_rate=rate,
        ci_lower=max(rate - half, 0.0),
        ci_upper=min(rate + half, 1.0),
        n_replicates=config.replicate_count,
        n_used=n_used,
        n_failures=failures,
        valid=failures <= MAX_FAILURE_FRACTION * config.replicate_count,
        p_values=tuple(p_values),
        ci_overlap_fraction=overlaps / n_used,
        naive_rejection_rate=(sum(p < alpha for p in naive_p) / len(naive_p)
                              if naive_p else None),
    )


def _is_null_config(config: SimConfig) -> bool:
    betas = set(config.true_beta)
    return len(betas) == 1 or config.exposure_correlation == 1.0


def estimate_type1_error(config: SimConfig, alpha: float = 0.05, *,
                         include_naive: bool = False) -> CalibrationResult:
    """Rejection rate under a null scenario, with a binomial Monte Carlo CI.

    The config must actually encode the null: either all exposures share one
    true coefficient over exchangeable (equicorrelated) draws, or the
    exposures are identical (``exposure_correlation = 1``).
    """
    if not _is_null_config(config):
        raise ConfigError(
            "not a null scenario: true_beta entries differ and exposures are "
            "not identical; use estimate_power instead"
        )
    return _run_replicates(config, alpha, "type1", include_naive=include_naive)


def estimate_power(config: SimConfig, alpha: float = 0.05, *,
                   include_naive: bool = False) -> CalibrationResult:
    """Rejection rate under an alternative (differing true coefficients)."""
    return _run_replicates(config, alpha, "power", include_naive=include_naive)


def ks_uniform_statistic(p_values) -> float:
    """Kolmogorov-Smirnov distance of the p-values from Uniform(0, 1)."""
    p = np.sort(np.asarray(p_values, dtype=float))
    n = len(p)
    if n == 0:
        raise ConfigError("no p-values to test")
    grid = np.arange(1, n + 1) / n
    return float(max((grid - p).max(), (p - (grid - 1.0 / n)).max()))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Finite-sample critical value for the one-sample KS statistic.

    The only use of scipy in the package; it is imported on the first call,
    so ``import dupcox`` and the CLI do without it.
    """
    from scipy.stats import kstwo

    return float(kstwo.isf(level, n))
