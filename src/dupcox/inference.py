"""Comparison pipeline and Wald inference on fitted models.

Orchestrates: exposure synthesis -> duplication -> design -> stratified fit
with cluster-robust variance -> Wald test(s) on the exposure-by-type
interaction coefficients -> per-exposure hazard ratios, rendered either as a
JSON-compatible tree or as a human table (exposures by effect columns, with a
final difference row).

:func:`compare_stack` runs that pipeline on a stack of cohorts of one spec,
with one stacked fit and one report pass (the simulation lab's replicates);
:func:`compare_exposures` is its stack of one cohort.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import asdict, dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .cox import CoxFit, FitOptions, fit_stack
from .data import Dataset
from .design import DesignMatrix, ExposureSpec, _quantile_population, block_design
from .errors import (AliasedCoefficientError, ConfigError, DupcoxError, SingularMatrixError,
                     _is_number, _names)


def chi_square_upper_tail(q: float, df: int) -> float:
    """Upper-tail chi-square probability ``Q(df/2, q/2)`` for integer ``df``.

    With ``y = q/2`` the regularized upper incomplete gamma has a closed form
    for integer and half-integer shape (Abramowitz & Stegun 26.4.4-5)::

        Q(df/2, y) = [erfc(sqrt(y)) if df is odd]
                     + sum of y**a exp(-y) / Gamma(a + 1), a = df/2 - 1, df/2 - 2, ... > -1

    Every term is positive and each is formed as one ``exp`` of its logarithm,
    so a small tail never cancels and no term overflows; relative error is
    below 1e-12 wherever the probability exceeds 1e-300.  ``q = 0`` gives 1,
    ``q = inf`` 0 and ``q = nan`` nan.  A ``df`` below 1 or not an integer,
    or a ``q`` that is negative or not a number, raises :class:`ConfigError`.
    """
    if not (_is_number(df) and float(df).is_integer()):
        raise ConfigError(f"degrees of freedom must be an integer, got {df}")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if not _is_number(q) or q < 0:
        raise ConfigError(f"chi-square statistic must be >= 0, got {q}")
    if math.isnan(q):
        return math.nan
    if q == 0:
        return 1.0
    if math.isinf(q):
        return 0.0
    df = int(df)
    y = float(q) / 2.0
    log_y = math.log(y)
    terms = [math.exp(a * log_y - y - math.lgamma(a + 1.0))
             for a in (df / 2.0 - 1.0 - j for j in range(df // 2))]
    if df % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


@dataclass(frozen=True)
class TestResult:
    """A Wald test: statistic, degrees of freedom, upper-tail p-value."""

    statistic: float
    df: int
    p_value: float
    tested_coefficients: tuple[str, ...]
    covariance_used: str


def _positions(fit_result: CoxFit, names) -> list[int]:
    """Where ``names`` sit in the fit's coefficients.

    If any of them was aliased, refuse with an error instead of silently
    testing a reduced hypothesis.
    """
    unknown = [n for n in names if n not in fit_result.column_names]
    if unknown:
        raise ConfigError(f"unknown coefficient name(s): {unknown}")
    idx = [fit_result.column_names.index(n) for n in names]
    dropped = [n for n, i in zip(names, idx) if fit_result.aliased_mask[i]]
    if dropped:
        raise AliasedCoefficientError(
            f"coefficient(s) {dropped} were dropped for collinearity; "
            "the requested test cannot be performed on this fit"
        )
    return idx


# Eigenvalues of the tested covariance block below this fraction of the
# model-variance scale are numerically zero: the corresponding contrast is
# deterministic (e.g. comparing an exposure with an exact copy of itself).
_VARIANCE_FLOOR_RATIO = 1e-10


def _wald_tests(coefficients: np.ndarray, covariances: np.ndarray,
                model_covariances: np.ndarray, idx: np.ndarray, test_names: tuple,
                covariance: str) -> list:
    """Each stacked fit's test that its coefficients at ``idx`` are jointly
    zero, from ``(R, p)`` coefficients and ``(R, p, p)`` covariances: its
    :class:`TestResult` or the :class:`SingularMatrixError` that refuses it.

    A direction of the tested block with numerically zero variance must carry
    a zero estimate, and then adds nothing to ``Q``; a materially nonzero
    estimate there means the contrast is deterministic and cannot be tested.
    """
    b = coefficients[:, idx]
    blocks = covariances[:, idx[:, None], idx]
    scale = model_covariances[:, idx, idx].max(axis=1)
    vals, vecs = np.linalg.eigh(blocks)
    z = (np.swapaxes(vecs, 1, 2) @ b[:, :, None])[:, :, 0]
    live = vals > _VARIANCE_FLOOR_RATIO * scale[:, None]
    singular = (~live & (np.abs(z) > 1e-6 * np.sqrt(scale)[:, None])).any(axis=1)
    q = np.divide(z ** 2, vals, out=np.zeros_like(vals), where=live).sum(axis=1)
    out = []
    for r in range(len(q)):
        if singular[r]:
            cond = float(np.linalg.cond(blocks[r]))
            out.append(SingularMatrixError(
                "test covariance block is singular along a direction with a "
                f"nonzero estimate (condition number {cond:.3e})",
                condition_number=cond,
            ))
            continue
        statistic = max(float(q[r]), 0.0)
        out.append(TestResult(statistic=statistic, df=len(idx),
                              p_value=chi_square_upper_tail(statistic, len(idx)),
                              tested_coefficients=test_names, covariance_used=covariance))
    return out


def wald_multivariate(fit_result: CoxFit, test_names, covariance: str = "robust") -> TestResult:
    """Multivariate Wald test that the named coefficients are jointly zero.

    ``Q = (C b)' (C V C')^-1 (C b)`` with ``C`` the selection matrix for
    ``test_names``; under the null ``Q`` is chi-square with one degree of
    freedom per tested coefficient.  It is the stacked test of one fit.
    """
    test_names = _names(test_names, "test_names")
    if not test_names:
        raise ConfigError("no coefficients to test")
    idx = np.array(_positions(fit_result, test_names))
    cov = fit_result.covariance(covariance)
    (test,) = _wald_tests(fit_result.coefficients[None], cov[None],
                          fit_result.model_covariance[None], idx, test_names, covariance)
    if isinstance(test, DupcoxError):
        raise test
    return test


def wald_univariate(fit_result: CoxFit, name: str, covariance: str = "robust") -> TestResult:
    """One-coefficient Wald test: ``Q = b^2 / V[name, name]``, df = 1."""
    return wald_multivariate(fit_result, (name,), covariance)


_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class HazardRatio:
    value: float
    ci_lower: float
    ci_upper: float


def _quantile(confidence: float) -> float:
    """The standard normal quantile of a symmetric ``confidence`` interval."""
    return _STANDARD_NORMAL.inv_cdf((1.0 + confidence) / 2.0)


def _exp(x: float) -> float:
    """``exp(x)``, or ``inf`` where it is beyond float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _interval(est: float, var: float, scale: float, z: float):
    """Standard error of ``est`` and its hazard ratio with the symmetric Wald
    interval of normal quantile ``z``; a ratio or bound beyond float range
    is ``inf``."""
    se = math.sqrt(max(var, 0.0))
    return se, HazardRatio(
        value=_exp(scale * est),
        ci_lower=_exp(scale * (est - z * se)),
        ci_upper=_exp(scale * (est + z * se)),
    )


def _finite_scale(scale) -> float:
    """A numeric reporting scale as a float, refused unless it is a number,
    finite and > 0."""
    if not _is_number(scale):
        raise ConfigError(f"scale must be a finite number > 0, got {scale!r}")
    value = float(scale)
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"scale must be a finite number > 0, got {value}")
    return value


def _check_scale(scale):
    """The reporting scale of a compare: ``"p10-p90"``, or a number as a
    float, refused unless finite and > 0."""
    if isinstance(scale, str):
        if scale != "p10-p90":
            raise ConfigError(f"scale must be a positive number or 'p10-p90', got {scale!r}")
        return scale
    return _finite_scale(scale)


def _check_confidence(confidence) -> float:
    """A confidence level as a float, refused unless it is a number in (0, 1)."""
    if not (_is_number(confidence) and 0 < confidence < 1):
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    return float(confidence)


def hazard_ratio(fit_result: CoxFit, name: str, scale: float = 1.0,
                 confidence: float = 0.95, covariance: str = "robust") -> HazardRatio:
    """Hazard ratio ``exp(scale * b)`` with a symmetric Wald interval.

    ``scale`` is the exposure increment per reported ratio (e.g. the
    10th-to-90th-percentile increment).
    """
    scale = _finite_scale(scale)
    confidence = _check_confidence(confidence)
    (i,) = _positions(fit_result, (name,))
    var = fit_result.covariance(covariance)[i, i]
    return _interval(fit_result.coefficients[i], var, scale, _quantile(confidence))[1]


@dataclass(frozen=True)
class ExposureTerm:
    """One reported effect: a main term (reference type) or main+interaction."""

    term: str
    coefficient: float
    se: float
    scale: float
    hazard_ratio: float
    ci_lower: float
    ci_upper: float


@dataclass(frozen=True)
class ExposureSummary:
    name: str
    terms: tuple[ExposureTerm, ...]


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Everything a comparison run produced, JSON-serializable via to_dict.

    The dataset's fingerprint and counts are read from ``dataset`` when
    first asked for, so a report nobody serializes never hashes the cohort.
    """

    exposures: tuple[ExposureSummary, ...]
    difference_test: TestResult | None
    fit: CoxFit
    spec: ExposureSpec
    confidence: float
    dataset: Dataset = field(repr=False)
    seed: int | None = None

    @cached_property
    def dataset_fingerprint(self) -> str:
        return self.dataset.fingerprint()

    @property
    def n_rows(self) -> int:
        return len(self.dataset)

    @property
    def n_events(self) -> int:
        return int(self.dataset.event.sum())

    def to_dict(self) -> dict:
        diag = self.fit.diagnostics
        test = None
        if self.difference_test is not None:
            test = asdict(self.difference_test)
            test["covariance"] = test.pop("covariance_used")
        return _json({
            "dataset": {
                "fingerprint": self.dataset_fingerprint,
                "n_rows": self.n_rows,
                "n_events": self.n_events,
            },
            "exposure_spec": asdict(self.spec),
            "fit": {
                "converged": self.fit.converged,
                "iterations": self.fit.iterations,
                "tie_method": self.fit.options.tie_method,
                "gradient_tolerance": self.fit.options.gradient_tolerance,
                "log_partial_likelihood": self.fit.log_partial_likelihood,
                "n_strata_used": diag.n_strata_used,
                "n_strata_skipped": diag.n_strata_skipped,
                "separation_suspected": diag.separation_suspected,
                "aliased": [n for n, a in zip(self.fit.column_names, self.fit.aliased_mask) if a],
                "message": diag.message,
            },
            "exposures": list(map(asdict, self.exposures)),
            "difference_test": test,
            "confidence": self.confidence,
            "seed": self.seed,
        })


def _json(value):
    """``value`` as JSON data: tuples as lists, numpy scalars as Python
    scalars, and a float that is not finite as None."""
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_json, value))
    if isinstance(value, np.generic):
        value = value.item()
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _per_exposure_scales(design: DesignMatrix, spec: ExposureSpec, scale) -> list[float]:
    """Resolve a scale that :func:`_check_scale` passed per exposure;
    'p10-p90' uses the modeled column over its quantile population."""
    m = spec.n_compared
    if spec.kind == "categorical":
        return [1.0] * m
    if scale == "p10-p90":
        out = []
        for j, name in enumerate(spec.source_columns):
            term = design.blocks[j, :, 0]
            term = term[_quantile_population(term, design.cluster_codes)[0]]
            width = float(np.quantile(term, 0.9) - np.quantile(term, 0.1))
            if width <= 0:
                raise ConfigError(
                    f"exposure {name!r} has a zero 10th-to-90th percentile increment"
                )
            out.append(width)
        return out
    return [scale] * m


def _stage(stage_name: str, exc: Exception) -> Exception:
    exc.args = (f"[{stage_name}] {exc.args[0]}",) + exc.args[1:] if exc.args \
        else (f"[{stage_name}]",)
    return exc


def compare_exposures(dataset: Dataset, spec: ExposureSpec,
                      options: FitOptions | None = None, *,
                      confidence: float = 0.95,
                      scale=1.0,
                      seed: int | None = None) -> ComparisonReport:
    """Run the full duplication-method comparison on one cohort.

    Pipeline: synthesize exposure terms per ``spec.kind`` (quantile
    categories, dummies, or trend scores where applicable), build the
    stratified interaction design of the duplicated cohort, fit, form the
    cluster sandwich, and Wald-test all exposure-by-type interaction
    coefficients (univariate for a single term, multivariate otherwise).
    Per-exposure hazard ratios come from the main(+interaction)
    parameterization.  The test and the intervals use the sandwich; the
    model-based test is ``wald_multivariate(report.fit, names, "model")``.
    The design is :func:`~dupcox.design.block_design`'s:
    the duplicated model evaluated on the cohort's own rows, with the same
    coefficients as :func:`~dupcox.design.build_design_matrix` on
    :func:`~dupcox.design.duplicate_augment`'s copies.

    A non-converged fit yields a report with diagnostics and no test rather
    than an exception.  An error is raised with its stage, ``[design]``,
    ``[fit]`` or ``[wald]``, in front of its message.  This is
    :func:`compare_stack` of one cohort.
    """
    (report,) = compare_stack([dataset], spec, options, confidence=confidence,
                              scale=scale, seed=seed)
    if isinstance(report, DupcoxError):
        raise report
    return report


def compare_stack(cohorts, spec: ExposureSpec, options: FitOptions | None = None, *,
                  confidence: float = 0.95, scale=1.0, seed: int | None = None):
    """:func:`compare_exposures` of each of a stack of cohorts of one spec.

    Each cohort gets its own design and reporting scales; the designs are
    fitted by one :func:`~dupcox.cox.fit_stack` and reported in one pass over
    ``(R, p)`` coefficients and ``(R, p, p)`` covariances.  Returns each
    cohort's report (a non-converged fit gets no test and no hazard ratios)
    or the :class:`DupcoxError` that refused it.  Every error carries its
    stage, ``[design]``, ``[fit]`` or ``[wald]``, in front of its message;
    one that is not a :class:`DupcoxError`, or that refuses the whole stack,
    is raised.
    """
    confidence = _check_confidence(confidence)

    def report(r, exposures=(), test=None):
        return ComparisonReport(exposures=exposures, difference_test=test, fit=fits[r],
                                spec=spec, confidence=confidence, dataset=cohorts[r], seed=seed)

    outcomes = [None] * len(cohorts)
    stage = "design"
    try:
        scale = _check_scale(scale)
        designs, scales = {}, {}
        for r, cohort in enumerate(cohorts):
            try:
                designs[r] = block_design(cohort, spec)
                scales[r] = _per_exposure_scales(designs[r], spec, scale)
            except DupcoxError as exc:
                designs.pop(r, None)
                traceback.clear_frames(exc.__traceback__)  # whose locals hold the design
                outcomes[r] = _stage(stage, exc)
        # All that the report reads of the designs.  They are popped into the
        # fit, so that it holds the only reference to each and frees them once
        # its engine is built.
        tested = {r: design.interaction_columns for r, design in designs.items()}
        T, main_columns = next(((design.block_map, design.exposure_main_columns)
                                for design in designs.values()), (None, ()))

        stage = "fit"
        fits = dict(zip(tested, fit_stack([designs.pop(r) for r in tested], options)
                        if tested else ()))
        converged = []
        for r, fit_result in fits.items():
            if isinstance(fit_result, DupcoxError):
                outcomes[r] = _stage(stage, fit_result)
            elif fit_result.converged:
                converged.append(r)
            else:
                outcomes[r] = report(r)

        stage = "wald"
        where = []
        for r in converged:
            try:
                idx = np.array(_positions(fits[r], tested[r]))
                where.append(r)
            except DupcoxError as exc:
                outcomes[r] = _stage(stage, exc)
        if where:
            kept, names = [fits[r] for r in where], tested[where[0]]
            aliased = np.array([f.aliased_mask for f in kept])
            theta = np.where(aliased, 0.0, [f.coefficients for f in kept])
            robust = np.where(aliased[:, :, None] | aliased[:, None, :], 0.0,
                              [f.robust_covariance for f in kept])
            model = np.array([f.model_covariance for f in kept])
            tests = _wald_tests(theta, robust, model, idx, names, "robust")

            # An exposure term's row of T holds a 1 at its main term and, past
            # the first exposure, one at its interaction, so each entry of T
            # theta and of diag(T V T') is one sum of at most two terms, the
            # same in any order; the zeros at aliased positions add nothing,
            # as if those were dropped.
            shape = (len(kept), spec.n_compared, -1)
            b = (theta @ T.T).reshape(shape).tolist()
            var = ((T @ robust) * T).sum(axis=2).reshape(shape).tolist()
            z = _quantile(confidence)
            for i, r in enumerate(where):
                if isinstance(tests[i], DupcoxError):
                    outcomes[r] = _stage(stage, tests[i])
                    continue
                exposures = []
                for j, source in enumerate(spec.source_columns):
                    terms = []
                    for k, term in enumerate(main_columns):
                        se, hr = _interval(b[i][j][k], var[i][j][k], scales[r][j], z)
                        terms.append(ExposureTerm(term, b[i][j][k], se, scales[r][j],
                                                  hr.value, hr.ci_lower, hr.ci_upper))
                    exposures.append(ExposureSummary(name=source, terms=tuple(terms)))
                outcomes[r] = report(r, tuple(exposures), tests[i])
    except Exception as exc:
        raise _stage(stage, exc)
    return outcomes


def format_hr_ci(hr: float, lower: float, upper: float) -> str:
    """Render a hazard ratio like ``0.83 [0.79, 0.87]``."""
    if not (math.isfinite(hr) and math.isfinite(lower) and math.isfinite(upper)):
        return "NA"
    return f"{hr:.2f} [{lower:.2f}, {upper:.2f}]"


def format_p(p: float) -> str:
    if not math.isfinite(p):
        return "P = NA"
    if p < 1e-4:
        return "P < 0.0001"
    return f"P = {p:.3g}"


def render_table(report: ComparisonReport) -> str:
    """Human-readable table: exposures by effect columns plus a difference row.

    Continuous-style comparisons get a single ``Continuous`` column;
    categorical comparisons get one column per quantile group with a dash at
    the reference level.
    """
    spec = report.spec
    if not report.fit.converged:
        lines = ["Fit did not converge; no comparison available."]
        lines.append(f"  iterations: {report.fit.iterations}")
        if report.fit.diagnostics.message:
            lines.append(f"  {report.fit.diagnostics.message}")
        return "\n".join(lines)

    if spec.kind == "categorical":
        headers = [""] + [f"Q{c}" for c in range(1, spec.n_levels + 1)]
    else:
        headers = ["", "Continuous"]
    rows = []
    for summary in report.exposures:
        cells = [format_hr_ci(t.hazard_ratio, t.ci_lower, t.ci_upper) for t in summary.terms]
        if spec.kind == "categorical":
            # The terms are the non-reference levels in increasing order.
            cells.insert(spec.reference_level - 1, "-")
        rows.append([summary.name] + cells)
    diff = ["Difference"] + [""] * (len(headers) - 1)
    if report.difference_test is not None:
        diff[1] = format_p(report.difference_test.p_value)
    rows.append(diff)

    widths = [max(len(str(r[i])) for r in [headers] + rows) for i in range(len(headers))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers)] + [fmt.format(*r) for r in rows]
    lines.append("")
    lines.append(f"Numbers are hazard ratios [{report.confidence * 100:.12g}% "
                 f"confidence intervals].")
    if report.difference_test is not None:
        t = report.difference_test
        lines.append(
            f"Difference test: Q = {t.statistic:.4g} on {t.df} df "
            f"({t.covariance_used} covariance)."
        )
    return "\n".join(lines)
