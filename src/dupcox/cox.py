"""Stratified Cox partial-likelihood engine.

Maximizes the log partial likelihood of a :class:`~dupcox.design.DesignMatrix`
by Newton-Raphson with step halving, handling tied event times by the Efron
(default) or Breslow corrections, left truncation via the counting-process
at-risk rule (a row is at risk at event time ``t`` iff ``entry < t <= exit``),
and cluster correlation via the sandwich variance built from score residuals.

Baseline hazards are never estimated: the partial likelihood eliminates them.

The per-stratum computations are fully vectorized.  Risk-set sums at all
event times come from prefix sums over exit- and entry-sorted risk scores;
tied event times are expanded into Efron sub-steps with a flat index so that
likelihood, score, information, and score residuals are each a handful of
array operations per stratum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import DesignMatrix
from .errors import ConfigError, EstimationError, SingularMatrixError

TIE_METHODS = ("efron", "breslow")

# Pivot ratio below which a column is declared aliased (exact collinearity),
# relative to its diagonal in the initial information matrix.
ALIASING_PIVOT_RATIO = 1e-10

# Coefficient magnitude beyond which a still-increasing likelihood is taken
# as probable monotone likelihood (separation).
SEPARATION_COEF_BOUND = 20.0


@dataclass(frozen=True)
class FitOptions:
    """Optimizer knobs; defaults follow standard Cox practice."""

    tie_method: str = "efron"
    max_iterations: int = 25
    gradient_tolerance: float = 1e-9
    step_halvings_max: int = 10
    initial_coefficients: np.ndarray | None = None

    def __post_init__(self):
        if self.tie_method not in TIE_METHODS:
            raise ConfigError(f"tie_method must be one of {TIE_METHODS}, got {self.tie_method!r}")
        if self.gradient_tolerance <= 0:
            raise ConfigError("gradient_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class FitDiagnostics:
    n_strata_used: int
    n_strata_skipped: int
    n_events: int
    separation_suspected: bool
    message: str = ""


@dataclass(frozen=True, eq=False)
class CoxFit:
    """Result of a partial-likelihood fit.

    Aliased coefficients (dropped for exact collinearity) are NaN in
    ``coefficients`` and NaN rows/columns in both covariance matrices;
    ``aliased_mask`` marks them.  ``robust_covariance`` is present when the
    fit converged and the cluster sandwich was requested.
    """

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    model_covariance: np.ndarray
    robust_covariance: np.ndarray | None
    log_partial_likelihood: float
    iterations: int
    converged: bool
    aliased_mask: np.ndarray
    options: FitOptions
    diagnostics: FitDiagnostics

    def coefficient(self, name: str) -> float:
        return float(self.coefficients[self.column_names.index(name)])

    def covariance(self, kind: str = "robust") -> np.ndarray:
        if kind == "robust":
            if self.robust_covariance is None:
                raise EstimationError("robust covariance was not computed for this fit")
            return self.robust_covariance
        if kind == "model":
            return self.model_covariance
        raise ConfigError(f"covariance kind must be 'robust' or 'model', got {kind!r}")


class _Stratum:
    """Static per-stratum indexing shared by all evaluations."""

    def __init__(self, X, entry, exit_, event):
        self.X = X
        self.entry = entry
        self.exit = exit_
        self.n = len(exit_)

        self.idx_exit = np.argsort(exit_, kind="stable")
        self.exit_sorted = exit_[self.idx_exit]
        self.idx_entry = np.argsort(entry, kind="stable")
        self.entry_sorted = entry[self.idx_entry]

        fail = np.flatnonzero(event)
        order = np.argsort(exit_[fail], kind="stable")
        self.fail_rows = fail[order]
        fail_times = exit_[self.fail_rows]
        self.event_times, self.d = np.unique(fail_times, return_counts=True)
        self.n_events = len(self.fail_rows)
        self.n_times = len(self.event_times)
        if self.n_times == 0:
            return

        self.group_starts = np.concatenate(([0], np.cumsum(self.d)[:-1]))
        self.pos_exit = np.searchsorted(self.exit_sorted, self.event_times, side="left")
        self.pos_entry = np.searchsorted(self.entry_sorted, self.event_times, side="left")

        # Flat Efron sub-step expansion: one entry per event, grouped by time.
        self.grp = np.repeat(np.arange(self.n_times), self.d)
        self.J = ((np.arange(self.n_events) - np.repeat(self.group_starts, self.d))
                  / np.repeat(self.d, self.d))

        # Per-row windows of event times inside (entry, exit].
        self.e1 = np.searchsorted(self.event_times, entry, side="right")
        self.e2 = np.searchsorted(self.event_times, exit_, side="right")
        self.own_k = np.searchsorted(self.event_times, fail_times, side="left")

    def sums(self, beta, cols, tie_method):
        """Risk-set sums at every event sub-step for the active columns."""
        Xa = self.X[:, cols]
        lp = Xa @ beta
        lp -= lp.max()  # additive centering cancels exactly in the likelihood
        w = np.exp(lp)
        wX = w[:, None] * Xa

        pref_exit_w = np.concatenate(([0.0], np.cumsum(w[self.idx_exit])))
        pref_entry_w = np.concatenate(([0.0], np.cumsum(w[self.idx_entry])))
        S0 = pref_entry_w[self.pos_entry] - pref_exit_w[self.pos_exit]

        zero = np.zeros((1, Xa.shape[1]))
        pref_exit_wX = np.concatenate((zero, np.cumsum(wX[self.idx_exit], axis=0)))
        pref_entry_wX = np.concatenate((zero, np.cumsum(wX[self.idx_entry], axis=0)))
        S1 = pref_entry_wX[self.pos_entry] - pref_exit_wX[self.pos_exit]

        S0f = np.add.reduceat(w[self.fail_rows], self.group_starts)
        S1f = np.add.reduceat(wX[self.fail_rows], self.group_starts, axis=0)

        J = self.J if tie_method == "efron" else np.zeros_like(self.J)
        S0_fl = S0[self.grp] - J * S0f[self.grp]
        S1_fl = S1[self.grp] - J[:, None] * S1f[self.grp]
        xbar = S1_fl / S0_fl[:, None]
        return Xa, lp, w, J, S0_fl, xbar

    def loglike(self, beta, cols, tie_method):
        if self.n_times == 0:
            return 0.0
        # Out-of-range candidate steps can underflow a risk-set sum to zero;
        # the resulting -inf is rejected by the optimizer's step halving.
        with np.errstate(divide="ignore", invalid="ignore"):
            _, lp, _, _, S0_fl, _ = self.sums(beta, cols, tie_method)
            return float(lp[self.fail_rows].sum() - np.log(S0_fl).sum())

    def _lambdas(self, J, S0_fl):
        lam_fl = 1.0 / S0_fl
        lam = np.add.reduceat(lam_fl, self.group_starts)
        lam_w = np.add.reduceat((1.0 - J) * lam_fl, self.group_starts)
        return lam_fl, lam, lam_w

    def score_info(self, beta, cols, tie_method):
        if self.n_times == 0:
            p = len(cols)
            return 0.0, np.zeros(p), np.zeros((p, p))
        Xa, lp, w, J, S0_fl, xbar = self.sums(beta, cols, tie_method)
        ll = float(lp[self.fail_rows].sum() - np.log(S0_fl).sum())
        score = Xa[self.fail_rows].sum(axis=0) - xbar.sum(axis=0)

        _, lam, lam_w = self._lambdas(J, S0_fl)
        pref = np.concatenate(([0.0], np.cumsum(lam)))
        a = pref[self.e2] - pref[self.e1]
        a[self.fail_rows] -= (lam - lam_w)[self.own_k]
        info = (Xa * (w * a)[:, None]).T @ Xa - xbar.T @ xbar
        return ll, score, info

    def residuals(self, beta, cols, tie_method):
        """Per-row score residuals; rows sum to the stratum score."""
        if self.n_times == 0:
            return np.zeros((self.n, len(cols)))
        Xa, _, w, J, S0_fl, xbar = self.sums(beta, cols, tie_method)
        lam_fl, lam, lam_w = self._lambdas(J, S0_fl)

        g_fl = xbar * lam_fl[:, None]
        g = np.add.reduceat(g_fl, self.group_starts, axis=0)
        g_w = np.add.reduceat((1.0 - J)[:, None] * g_fl, self.group_starts, axis=0)
        mbar = np.add.reduceat(xbar, self.group_starts, axis=0) / self.d[:, None]

        pref_l = np.concatenate(([0.0], np.cumsum(lam)))
        pref_g = np.concatenate((np.zeros((1, len(cols))), np.cumsum(g, axis=0)))
        dL = pref_l[self.e2] - pref_l[self.e1]
        dG = pref_g[self.e2] - pref_g[self.e1]

        resid = -w[:, None] * (Xa * dL[:, None] - dG)
        fr, k = self.fail_rows, self.own_k
        resid[fr] += Xa[fr] - mbar[k]
        resid[fr] += w[fr, None] * ((lam - lam_w)[k][:, None] * Xa[fr] - (g - g_w)[k])
        return resid


class _CoxData:
    """Design split by stratum, with static risk-set indexing precomputed."""

    def __init__(self, design: DesignMatrix):
        self.design = design
        self.n_columns = design.n_columns
        # Strata are visited in sorted label order, so every sum over strata
        # adds its terms in the same order on every evaluation.
        _, inverse = np.unique(design.strata_key.astype(str), return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        bounds = np.flatnonzero(np.diff(inverse[order])) + 1
        self.strata: list[_Stratum] = []
        self.stratum_rows: list[np.ndarray] = []
        self.n_strata_skipped = 0
        for rows in np.split(order, bounds):
            st = _Stratum(design.X[rows], design.entry[rows],
                          design.exit[rows], design.event[rows])
            if st.n_times == 0:
                self.n_strata_skipped += 1
                continue
            self.strata.append(st)
            self.stratum_rows.append(rows)
        self.n_events = sum(st.n_events for st in self.strata)

    def loglike(self, beta, cols, tie_method):
        return sum(st.loglike(beta, cols, tie_method) for st in self.strata)

    def score_info(self, beta, cols, tie_method):
        p = len(cols)
        ll, score, info = 0.0, np.zeros(p), np.zeros((p, p))
        for st in self.strata:
            ll_s, sc_s, in_s = st.score_info(beta, cols, tie_method)
            ll += ll_s
            score += sc_s
            info += in_s
        return ll, score, info

    def residuals(self, beta, cols, tie_method):
        out = np.zeros((len(self.design), len(cols)))
        for st, rows in zip(self.strata, self.stratum_rows):
            out[rows] = st.residuals(beta, cols, tie_method)
        return out


def _check_inputs(design: DesignMatrix, beta, tie_method: str) -> np.ndarray:
    if tie_method not in TIE_METHODS:
        raise ConfigError(f"tie_method must be one of {TIE_METHODS}, got {tie_method!r}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.n_columns,):
        raise ValueError(
            f"beta has shape {beta.shape}, expected ({design.n_columns},) "
            "to match the design columns"
        )
    return beta


def _data_or_raise(design: DesignMatrix) -> _CoxData:
    data = _CoxData(design)
    if data.n_events == 0:
        raise EstimationError("no informative strata: the design contains no events")
    return data


def log_partial_likelihood(design: DesignMatrix, beta, tie_method: str = "efron") -> float:
    """Stratified Cox log partial likelihood at ``beta``.

    Sum over strata and distinct event times of the event terms minus the
    log of the (tie-corrected) risk-set sums; the risk set at time ``t``
    contains rows with ``entry < t <= exit`` in the same stratum.
    """
    beta = _check_inputs(design, beta, tie_method)
    data = _data_or_raise(design)
    cols = np.arange(design.n_columns)
    return data.loglike(beta, cols, tie_method)


def score(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Analytic gradient of the log partial likelihood."""
    beta = _check_inputs(design, beta, tie_method)
    data = _data_or_raise(design)
    cols = np.arange(design.n_columns)
    _, sc, _ = data.score_info(beta, cols, tie_method)
    return sc


def information(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Observed information (negative Hessian); symmetric PSD."""
    beta = _check_inputs(design, beta, tie_method)
    data = _data_or_raise(design)
    cols = np.arange(design.n_columns)
    _, _, info = data.score_info(beta, cols, tie_method)
    return (info + info.T) / 2.0


def score_residuals(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Per-row score residuals (rows sum to the total score).

    Rows in strata without events contribute zero.  These are the building
    blocks of the cluster sandwich: sum them within ``design.cluster_id``
    groups before forming the outer-product middle matrix.
    """
    beta = _check_inputs(design, beta, tie_method)
    data = _data_or_raise(design)
    cols = np.arange(design.n_columns)
    return data.residuals(beta, cols, tie_method)


def _aliased_columns(info: np.ndarray, pivot_ratio: float = ALIASING_PIVOT_RATIO) -> np.ndarray:
    """Mark columns whose pivot collapses during an in-order Cholesky sweep.

    Keeps the earliest column of any collinear group (mirroring how aliased
    terms surface as NA in common model summaries).
    """
    p = info.shape[0]
    A = info.copy()
    diag0 = np.diag(info).copy()
    aliased = np.zeros(p, dtype=bool)
    for k in range(p):
        if A[k, k] <= pivot_ratio * diag0[k] or diag0[k] <= 0.0:
            aliased[k] = True
            A[k, :] = 0.0
            A[:, k] = 0.0
            continue
        rest = A[k, k + 1:]
        A[k + 1:, k + 1:] -= np.outer(rest, rest) / A[k, k]
    return aliased


def _symmetric_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    try:
        factor = scipy.linalg.cho_factor(matrix)
        inv = scipy.linalg.cho_solve(factor, np.eye(matrix.shape[0]))
    except scipy.linalg.LinAlgError:
        cond = float(np.linalg.cond(matrix))
        raise SingularMatrixError(
            f"{what} is singular on the non-aliased subspace "
            f"(condition number {cond:.3e})",
            condition_number=cond,
        ) from None
    return (inv + inv.T) / 2.0


def _expand(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Scatter active-subspace results into full-size arrays, NaN elsewhere."""
    if values.ndim == 1:
        out = np.full(len(active), np.nan)
        out[active] = values
        return out
    p = len(active)
    out = np.full((p, p), np.nan)
    out[np.ix_(active, active)] = values
    return out


def fit(design: DesignMatrix, options: FitOptions | None = None,
        robust: bool = True) -> CoxFit:
    """Newton-Raphson maximization of the stratified log partial likelihood.

    Columns found exactly collinear in the information at the starting point
    are excluded and flagged in ``aliased_mask``.  A step that decreases the
    log partial likelihood is halved up to ``step_halvings_max`` times.
    Convergence means the max-norm of the score dropped to
    ``gradient_tolerance``; a non-converged fit is returned (not raised)
    with diagnostics, including a probable-separation flag when a
    coefficient runs beyond +-20 with the likelihood still increasing.
    """
    options = options or FitOptions()
    data = _data_or_raise(design)
    p = design.n_columns

    beta0 = np.zeros(p)
    if options.initial_coefficients is not None:
        beta0 = np.asarray(options.initial_coefficients, dtype=float)
        if beta0.shape != (p,):
            raise ConfigError(f"initial_coefficients must have length {p}")

    start = data.score_info(beta0, np.arange(p), options.tie_method)
    aliased = _aliased_columns(start[2])
    if aliased.all():
        raise EstimationError("all design columns are aliased; nothing to fit")
    active = np.flatnonzero(~aliased)

    beta = beta0[active]
    ll, sc, info = start if active.size == p else \
        data.score_info(beta, active, options.tie_method)
    converged = False
    message = ""
    iterations = 0
    for iterations in range(options.max_iterations + 1):
        if np.abs(sc).max() <= options.gradient_tolerance:
            converged = True
            break
        if iterations == options.max_iterations:
            message = f"no convergence in {options.max_iterations} iterations"
            break
        try:
            step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(info), sc)
        except (scipy.linalg.LinAlgError, ValueError):
            step = np.linalg.pinv(info) @ sc
        # Near the optimum a productive Newton step moves the likelihood by
        # less than float resolution while the score still shrinks; halve
        # only on a decrease beyond rounding noise.
        slack = 1e-10 * (abs(ll) + 1.0)
        scale_factor = 1.0
        accepted = False
        for _ in range(options.step_halvings_max + 1):
            cand = beta + scale_factor * step
            # An accepted candidate's score and information serve the next
            # iteration.  Out-of-range candidates can underflow a risk-set
            # sum to zero; the resulting -inf is rejected here.
            with np.errstate(divide="ignore", invalid="ignore"):
                cand_ll, cand_sc, cand_info = data.score_info(cand, active, options.tie_method)
            if np.isfinite(cand_ll) and cand_ll >= ll - slack:
                beta, ll, sc, info = cand, max(cand_ll, ll), cand_sc, cand_info
                accepted = True
                break
            scale_factor /= 2.0
        if not accepted:
            message = "step halving failed to increase the log partial likelihood"
            break

    separation = bool(np.abs(beta).max() > SEPARATION_COEF_BOUND) if beta.size else False
    if separation:
        message = (message + "; " if message else "") + \
            "coefficient magnitude > 20 with increasing likelihood: probable separation"

    # Every exit from the loop leaves ``info`` evaluated at the final ``beta``.
    model_cov_active = _symmetric_inverse(info, "information matrix")
    sandwich = None
    if robust and converged:
        sandwich = _expand(_sandwich(data, beta, active, options.tie_method, model_cov_active),
                           ~aliased)

    diagnostics = FitDiagnostics(
        n_strata_used=len(data.strata),
        n_strata_skipped=data.n_strata_skipped,
        n_events=data.n_events,
        separation_suspected=separation,
        message=message,
    )
    return CoxFit(
        column_names=design.column_names,
        coefficients=_expand(beta, ~aliased),
        model_covariance=_expand(model_cov_active, ~aliased),
        robust_covariance=sandwich,
        log_partial_likelihood=ll,
        iterations=iterations,
        converged=converged,
        aliased_mask=aliased,
        options=options,
        diagnostics=diagnostics,
    )


def _sandwich(data: _CoxData, beta, active, tie_method: str, a_inv: np.ndarray) -> np.ndarray:
    """``A^-1 M A^-1`` on the active columns, given ``A^-1`` at ``beta``."""
    resid = data.residuals(beta, active, tie_method)
    _, codes = np.unique(data.design.cluster_id.astype(str), return_inverse=True)
    grouped = np.column_stack([np.bincount(codes, weights=resid[:, j])
                               for j in range(resid.shape[1])])
    sandwich = a_inv @ (grouped.T @ grouped) @ a_inv
    return (sandwich + sandwich.T) / 2.0


def robust_covariance(design: DesignMatrix, fit_result: CoxFit) -> np.ndarray:
    """Cluster sandwich ``A^-1 M A^-1`` at the fitted coefficients.

    ``A`` is the observed information and ``M`` sums, over clusters of rows
    sharing ``design.cluster_id`` (the duplicated copies of a subject), the
    outer products of cluster-summed score residuals.  Aliased positions are
    NaN, matching the fitted coefficient vector.  ``fit`` computes the same
    matrix from its own risk-set index; this entry point rebuilds it.
    """
    if not fit_result.converged:
        raise EstimationError("robust covariance requires a converged fit")
    active = np.flatnonzero(~fit_result.aliased_mask)
    beta = fit_result.coefficients[active]
    tie_method = fit_result.options.tie_method
    data = _CoxData(design)
    _, _, info = data.score_info(beta, active, tie_method)
    a_inv = _symmetric_inverse(info, "information matrix")
    return _expand(_sandwich(data, beta, active, tie_method, a_inv), ~fit_result.aliased_mask)
