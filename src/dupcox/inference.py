"""Comparison pipeline and Wald inference on fitted models.

Orchestrates: exposure synthesis -> duplication -> design -> stratified fit
with cluster-robust variance -> Wald test(s) on the exposure-by-type
interaction coefficients -> per-exposure hazard ratios, rendered either as a
JSON-compatible tree or as a human table (exposures by effect columns, with a
final difference row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .cox import CoxFit, FitOptions, fit as cox_fit
from .data import Dataset
from .design import DesignMatrix, ExposureSpec, block_design
from .errors import AliasedCoefficientError, ConfigError, SingularMatrixError


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
    or a negative ``q``, raises :class:`ConfigError`.
    """
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if not float(df).is_integer():
        raise ConfigError(f"degrees of freedom must be an integer, got {df}")
    if q < 0:
        raise ConfigError(f"chi-square statistic must be >= 0, got {q}")
    if math.isnan(q):
        return math.nan
    if q == 0:
        return 1.0
    if math.isinf(q):
        return 0.0
    df = int(df)
    y = q / 2.0
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


def _quadratic_form(b: np.ndarray, block: np.ndarray, reference_scale: float) -> float:
    """``b' block^-1 b`` with numerically-zero variance directions handled.

    A direction whose variance is zero at the reference scale must carry a
    zero estimate (it then contributes nothing); a materially nonzero
    estimate there means the contrast is deterministic and cannot be
    Wald-tested.
    """
    vals, vecs = np.linalg.eigh(block)
    z = vecs.T @ b
    live = vals > _VARIANCE_FLOOR_RATIO * reference_scale
    if np.any(np.abs(z[~live]) > 1e-6 * math.sqrt(reference_scale)):
        cond = float(np.linalg.cond(block))
        raise SingularMatrixError(
            "test covariance block is singular along a direction with a "
            f"nonzero estimate (condition number {cond:.3e})",
            condition_number=cond,
        )
    return float(np.sum(z[live] ** 2 / vals[live]))


def wald_multivariate(fit_result: CoxFit, test_names, covariance: str = "robust") -> TestResult:
    """Multivariate Wald test that the named coefficients are jointly zero.

    ``Q = (C b)' (C V C')^-1 (C b)`` with ``C`` the selection matrix for
    ``test_names``; under the null ``Q`` is chi-square with one degree of
    freedom per tested coefficient.
    """
    test_names = tuple(test_names)
    if not test_names:
        raise ConfigError("no coefficients to test")
    idx = _positions(fit_result, test_names)
    cov = fit_result.covariance(covariance)

    b = fit_result.coefficients[idx]
    block = cov[np.ix_(idx, idx)]
    scale = float(np.max(np.diag(fit_result.model_covariance[np.ix_(idx, idx)])))
    q = max(_quadratic_form(b, block, scale), 0.0)
    return TestResult(
        statistic=q,
        df=len(idx),
        p_value=chi_square_upper_tail(q, len(idx)),
        tested_coefficients=test_names,
        covariance_used=covariance,
    )


def wald_univariate(fit_result: CoxFit, name: str, covariance: str = "robust") -> TestResult:
    """One-coefficient Wald test: ``Q = b^2 / V[name, name]``, df = 1."""
    return wald_multivariate(fit_result, (name,), covariance)


_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class HazardRatio:
    value: float
    ci_lower: float
    ci_upper: float


def _interval(est: float, var: float, scale: float, confidence: float):
    """Standard error of ``est`` and its hazard ratio with a symmetric Wald interval."""
    se = math.sqrt(max(var, 0.0))
    z = _STANDARD_NORMAL.inv_cdf((1.0 + confidence) / 2.0)
    return se, HazardRatio(
        value=math.exp(scale * est),
        ci_lower=math.exp(scale * (est - z * se)),
        ci_upper=math.exp(scale * (est + z * se)),
    )


def hazard_ratio(fit_result: CoxFit, name: str, scale: float = 1.0,
                 confidence: float = 0.95, covariance: str = "robust") -> HazardRatio:
    """Hazard ratio ``exp(scale * b)`` with a symmetric Wald interval.

    ``scale`` is the exposure increment per reported ratio (e.g. the
    10th-to-90th-percentile increment).
    """
    if scale <= 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
    if not 0 < confidence < 1:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    (i,) = _positions(fit_result, (name,))
    var = fit_result.covariance(covariance)[i, i]
    return _interval(fit_result.coefficients[i], var, scale, confidence)[1]


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
            test = {
                "statistic": _json_float(self.difference_test.statistic),
                "df": self.difference_test.df,
                "p_value": _json_float(self.difference_test.p_value),
                "tested_coefficients": list(self.difference_test.tested_coefficients),
                "covariance": self.difference_test.covariance_used,
            }
        return {
            "dataset": {
                "fingerprint": self.dataset_fingerprint,
                "n_rows": self.n_rows,
                "n_events": self.n_events,
            },
            "exposure_spec": {
                "kind": self.spec.kind,
                "source_columns": list(self.spec.source_columns),
                "n_levels": self.spec.n_levels,
                "reference_level": self.spec.reference_level,
            },
            "fit": {
                "converged": self.fit.converged,
                "iterations": self.fit.iterations,
                "tie_method": self.fit.options.tie_method,
                "gradient_tolerance": self.fit.options.gradient_tolerance,
                "log_partial_likelihood": _json_float(self.fit.log_partial_likelihood),
                "n_strata_used": diag.n_strata_used,
                "n_strata_skipped": diag.n_strata_skipped,
                "separation_suspected": diag.separation_suspected,
                "aliased": [n for n, a in zip(self.fit.column_names, self.fit.aliased_mask) if a],
                "message": diag.message,
            },
            "exposures": [
                {
                    "name": e.name,
                    "terms": [
                        {
                            "term": t.term,
                            "coefficient": _json_float(t.coefficient),
                            "se": _json_float(t.se),
                            "scale": _json_float(t.scale),
                            "hazard_ratio": _json_float(t.hazard_ratio),
                            "ci_lower": _json_float(t.ci_lower),
                            "ci_upper": _json_float(t.ci_upper),
                        }
                        for t in e.terms
                    ],
                }
                for e in self.exposures
            ],
            "difference_test": test,
            "confidence": self.confidence,
            "seed": self.seed,
        }


def _json_float(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _per_exposure_scales(design: DesignMatrix, spec: ExposureSpec, scale) -> list[float]:
    """Resolve the reporting scale per exposure; 'p10-p90' uses the modeled column."""
    m = spec.n_compared
    if spec.kind == "categorical":
        return [1.0] * m
    if isinstance(scale, str):
        if scale != "p10-p90":
            raise ConfigError(f"scale must be a positive number or 'p10-p90', got {scale!r}")
        out = []
        for j, name in enumerate(spec.source_columns):
            term = design.blocks[j, :, 0]
            width = float(np.quantile(term, 0.9) - np.quantile(term, 0.1))
            if width <= 0:
                raise ConfigError(
                    f"exposure {name!r} has a zero 10th-to-90th percentile increment"
                )
            out.append(width)
        return out
    scale = float(scale)
    if scale <= 0:
        raise ConfigError(f"scale must be > 0, got {scale}")
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
    than an exception.
    """
    if not 0 < confidence < 1:
        raise ConfigError(f"confidence must be in (0, 1), got {confidence}")
    options = options or FitOptions()

    try:
        design = block_design(dataset, spec)
        scales = _per_exposure_scales(design, spec, scale)
    except Exception as exc:
        raise _stage("design", exc)
    try:
        fit_result = cox_fit(design, options, robust=True)
    except Exception as exc:
        raise _stage("fit", exc)

    exposures: list[ExposureSummary] = []
    test = None
    if fit_result.converged:
        try:
            test = wald_multivariate(fit_result, design.interaction_columns)
        except Exception as exc:
            raise _stage("wald", exc)

        # b = T theta and the diagonal of T V T' over the fitted columns.  An
        # exposure term's row touches its main term and its interaction, and
        # an aliased main term aliases its interactions too, so the Wald test
        # has refused any aliased column those rows touch.
        ok = ~fit_result.aliased_mask
        T = design.block_map[:, ok]
        b = (T @ fit_result.coefficients[ok]).reshape(spec.n_compared, -1)
        var = ((T @ fit_result.robust_covariance[np.ix_(ok, ok)]) * T).sum(axis=1)
        var = var.reshape(b.shape)
        for j, source in enumerate(spec.source_columns):
            terms = []
            for k, term in enumerate(design.exposure_main_columns):
                se, hr = _interval(b[j, k], var[j, k], scales[j], confidence)
                terms.append(ExposureTerm(term, float(b[j, k]), se, scales[j],
                                          hr.value, hr.ci_lower, hr.ci_upper))
            exposures.append(ExposureSummary(name=source, terms=tuple(terms)))

    return ComparisonReport(
        exposures=tuple(exposures),
        difference_test=test,
        fit=fit_result,
        spec=spec,
        confidence=confidence,
        dataset=dataset,
        seed=seed,
    )


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
    pct = round(report.confidence * 100)
    lines.append("")
    lines.append(f"Numbers are hazard ratios [{pct}% confidence intervals].")
    if report.difference_test is not None:
        t = report.difference_test
        lines.append(
            f"Difference test: Q = {t.statistic:.4g} on {t.df} df "
            f"({t.covariance_used} covariance)."
        )
    return "\n".join(lines)
