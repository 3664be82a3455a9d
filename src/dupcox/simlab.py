"""Synthetic cohorts with known hazards, and Monte Carlo calibration.

Cohorts are generated under a unit exponential baseline hazard multiplied by
``exp(beta' exposures + gamma' covariates)``; event times come from the
closed-form inverse transform.  No other baseline is offered: the partial
likelihood sees the times only through their order, and every entry is 0, so
any increasing map of the times (a Weibull shape and scale among them) leaves
every fit unchanged.  Exposures are jointly Gaussian with a
configurable equicorrelation, so a null where every exposure is associated
identically with the outcome is available by symmetric generation (equal
true coefficients over exchangeable exposures), and the degenerate null by
``exposure_correlation = 1``.  The harness measures rejection rates of the
duplication-method test over independent replicates, each with its own
deterministic sub-seed and fitted with the default ``FitOptions``.  A chunk
of replicates goes through :func:`~dupcox.inference.compare_stack`, the
pipeline that :func:`~dupcox.inference.compare_exposures` runs on a stack of
one cohort, so each replicate's report or error is its own compare's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cox import STOPS
from .data import Dataset, Schema, label_codes
from .design import ExposureSpec
from .errors import (AliasedCoefficientError, ConfigError, DupcoxError, SingularMatrixError,
                     _is_integer, _is_number)
from .inference import chi_square_upper_tail, compare_stack


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; replicate seeds derive from the master seed."""

    n_subjects: int
    exposure_correlation: float
    true_beta: tuple[float, ...]
    covariate_effects: tuple[float, ...] = ()
    censoring_rate: float = 0.25
    n_strata: int = 1
    replicate_count: int = 100
    master_seed: int = 0

    def __post_init__(self):
        for name, lower in (("n_subjects", 2), ("n_strata", 1), ("replicate_count", 1),
                            ("master_seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < lower:
                raise ConfigError(f"{name} must be >= {lower}, got {value}")
        if self.n_subjects >= 2**63:  # numpy's sizes are 64-bit integers
            raise ConfigError("n_subjects must be < 2**63")
        for name in ("true_beta", "covariate_effects"):
            values = getattr(self, name)
            if isinstance(values, np.ndarray):
                values = values.tolist()
            if not (isinstance(values, (tuple, list))
                    and all(_is_number(v) and math.isfinite(v) for v in values)):
                raise ConfigError(f"{name} must be finite numbers, got {values!r}")
            object.__setattr__(self, name, tuple(map(float, values)))
        m = len(self.true_beta)
        if m < 2:
            raise ConfigError("true_beta needs one entry per exposure, at least two")
        rho = self.exposure_correlation
        if not (_is_number(rho) and -1.0 <= rho <= 1.0):
            raise ConfigError("exposure_correlation must lie in [-1, 1]")
        if m > 2 and rho < -1.0 / (m - 1):
            raise ConfigError(f"equicorrelation {rho} is not positive semidefinite "
                              f"for {m} exposures")
        if not (_is_number(self.censoring_rate) and 0.0 <= self.censoring_rate < 1.0):
            raise ConfigError("censoring_rate must lie in [0, 1)")

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

    Event times are inverse-transform samples from the unit exponential
    baseline under the configured log-hazard; censoring times are
    exponential with mean ``(1 - censoring_rate) / censoring_rate``, so that
    a baseline subject is censored with probability ``censoring_rate``;
    strata labels are uniform and carry no effect.  The cohort carries its
    label codes, so no fit on it builds a string array.
    """
    if not _is_integer(replicate_index) or replicate_index < 0:
        raise ConfigError(f"replicate_index must be an integer >= 0, got {replicate_index!r}")
    labels = _labels(config)
    rng = np.random.default_rng([config.master_seed, replicate_index])
    n = config.n_subjects
    m = config.n_exposures
    q = len(config.covariate_effects)

    exposures = _correlated_normals(rng, n, m, config.exposure_correlation)
    covariates = rng.standard_normal((n, q)) if q else np.empty((n, 0))
    eta = exposures @ np.array(config.true_beta)
    if q:
        eta = eta + covariates @ np.array(config.covariate_effects)

    t_event = -np.log(rng.uniform(size=n)) * np.exp(-eta)
    if config.censoring_rate > 0.0:
        rate = config.censoring_rate
        t_cens = (1.0 - rate) / rate * -np.log(rng.uniform(size=n))
    else:
        t_cens = np.full(n, np.inf)

    exit_ = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    strata = rng.integers(0, config.n_strata, size=n)
    keys = labels.strata[strata]

    return Dataset(
        schema=labels.schema,
        subject_ids=labels.subject_ids.copy(),
        entry=np.zeros(n),
        exit=exit_,
        event=event,
        exposures=exposures,
        covariates=covariates,
        strata=keys.reshape(-1, 1).copy(),
    )._with_codes(_sorted_ranks(labels.strata_order, strata), labels.subject_codes)


@dataclass(frozen=True)
class _Labels:
    """The labels that every cohort of a scenario shares, and their order."""

    schema: Schema
    subject_ids: np.ndarray    # "1".."n"; each cohort takes a copy
    subject_codes: np.ndarray  # rank of each id in sorted order
    strata: np.ndarray         # "s0", "s1", ..., as objects
    strata_order: np.ndarray   # indices of ``strata`` in sorted order


# One entry: a scenario's replicates are simulated one after another.
@functools.lru_cache(maxsize=1)
def _labels(config: SimConfig) -> _Labels:
    """The shared labels of ``config``'s cohorts, as read-only arrays."""
    n = config.n_subjects
    strata = np.array([f"s{v}" for v in range(config.n_strata)], dtype=object)
    ids = np.fromiter(map(str, range(1, n + 1)), dtype=object, count=n)
    order = np.argsort(label_codes(strata))
    codes = label_codes(ids)
    for array in (strata, order, ids, codes):
        array.flags.writeable = False
    return _Labels(config.schema(), ids, codes, strata, order)


def _sorted_ranks(order: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """Code of each drawn label index: its rank among the drawn indices,
    taken in ``order`` (every label's index, in the labels' sorted order)."""
    present = np.bincount(drawn, minlength=len(order))[order] > 0
    table = np.empty(len(order), dtype=np.intp)
    table[order] = np.cumsum(present) - 1
    return table[drawn]


@dataclass(frozen=True)
class CalibrationResult:
    """Rejection rate of the comparison test over independent replicates.

    ``failure_reasons`` counts the failed replicates by why they failed, one
    reason each, with every key of ``FAILURE_REASONS``.
    """

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
    ci_overlap_fraction: float
    naive_rejection_rate: float | None = None
    failure_reasons: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but ``p_values``, with the interval as ``mc_ci``."""
        out = asdict(self)
        del out["p_values"]
        out["mc_ci"] = [out.pop("ci_lower"), out.pop("ci_upper")]
        return out


# Scenarios with more than this fraction of failed replicate fits are marked
# invalid rather than silently summarized.
MAX_FAILURE_FRACTION = 0.02

# Most cohort rows fitted together in one engine pass (at least one
# replicate).  A pass holds its cohorts, designs and engine at once, so a
# bound keeps memory from growing with replicate_count; each pass pays its
# own engine set-up, Newton bookkeeping, sandwich and report pass.
# scripts/stack_sweep.py measures the trade: at n = 500, 20 000 rows (40
# replicates) is within 5% of the fastest bound swept, and such a full stack
# adds about 8 MB of peak RSS (about 0.5 kB a row) over one of 5 000 rows.
CHUNK_ROWS = 20_000

# Why a replicate failed: how its fit stopped, or probable separation for a
# coefficient beyond +-20, whatever stopped it; "singular" is a singular
# information matrix or tested covariance block.
FAILURE_REASONS = (*(stop for stop in STOPS if stop != "converged"), "probable_separation",
                   "singular", "aliased_tested_term", "other")


def _failure_reason(outcome) -> str:
    """The reason of a replicate whose outcome is an error or a report
    without a difference test."""
    if isinstance(outcome, SingularMatrixError):
        return "singular"
    if isinstance(outcome, AliasedCoefficientError):
        return "aliased_tested_term"
    if isinstance(outcome, DupcoxError):
        return "other"
    diag = outcome.fit.diagnostics
    return "probable_separation" if diag.separation_suspected else diag.stop


def _run_replicates(config: SimConfig, alpha: float, scenario: str, *,
                    include_naive: bool = False) -> CalibrationResult:
    if not (_is_number(alpha) and 0.0 < alpha <= 1.0):
        raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
    spec = config.exposure_spec()
    chunk = max(CHUNK_ROWS // config.n_subjects, 1)

    p_values: list[float] = []
    naive_p: list[float] = []
    overlaps = 0
    reasons = dict.fromkeys(FAILURE_REASONS, 0)
    for start in range(0, config.replicate_count, chunk):
        cohorts = [simulate_cohort(config, r)
                   for r in range(start, min(start + chunk, config.replicate_count))]
        for report in compare_stack(cohorts, spec):
            if isinstance(report, DupcoxError) or report.difference_test is None:
                reasons[_failure_reason(report)] += 1
                continue
            p_values.append(report.difference_test.p_value)
            first = report.exposures[0].terms[0]
            second = report.exposures[1].terms[0]
            if first.ci_lower <= second.ci_upper and second.ci_lower <= first.ci_upper:
                overlaps += 1
            if include_naive:
                naive_p.append(_naive_p(report))

    n_used = len(p_values)
    failures = sum(reasons.values())
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
        failure_reasons=reasons,
    )


def _naive_p(report) -> float:
    """Separate-fit z-test of a report's first tested interaction, b2 - b1,
    ignoring the correlation between the estimates: its model variance is
    var1 + var2, because the information is block-diagonal over the types."""
    fit = report.fit
    i = fit.column_names.index(report.difference_test.tested_coefficients[0])
    b = fit.coefficients[i]
    return chi_square_upper_tail(float(b * b / fit.model_covariance[i, i]), 1)


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
    """Kolmogorov-Smirnov distance of the p-values from Uniform(0, 1).

    A p-value that is NaN or outside [0, 1] raises :class:`ConfigError`.
    """
    p = np.sort(np.asarray(p_values, dtype=float))
    n = len(p)
    if n == 0:
        raise ConfigError("no p-values to test")
    bad = p[~((p >= 0.0) & (p <= 1.0))]
    if bad.size:
        raise ConfigError(f"{bad.size} p-value(s) NaN or outside [0, 1], e.g. {float(bad[0])}")
    grid = np.arange(1, n + 1) / n
    return float(max((grid - p).max(), (p - (grid - 1.0 / n)).max()))


def ks_critical_value(n: int, level: float = 0.01) -> float:
    """Finite-sample critical value for the one-sample KS statistic.

    ``n`` must be an integer >= 1 that scipy takes as a 64-bit integer, and
    ``level`` lie in (0, 1), else :class:`ConfigError`.  The only use of scipy
    in the package; it is imported on the first call, so ``import dupcox`` and
    the CLI do without it.
    """
    if not (_is_integer(n) and 1 <= n < 2**63):
        raise ConfigError(f"n must be an integer >= 1 and < 2**63, got {n!r}")
    if not (_is_number(level) and 0.0 < level < 1.0):
        raise ConfigError(f"level must lie in (0, 1), got {level!r}")
    from scipy.stats import kstwo

    return float(kstwo.isf(level, n))
