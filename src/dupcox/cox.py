"""Stratified Cox partial-likelihood engine.

Maximizes the log partial likelihood of a :class:`~dupcox.design.DesignMatrix`
or :class:`~dupcox.design.BlockDesign` by Newton-Raphson with step halving,
handling tied event times by the Efron (default) or Breslow corrections, left
truncation via the counting-process at-risk rule (a row is at risk at event
time ``t`` iff ``entry < t <= exit``), and cluster correlation via the
sandwich variance built from score residuals.

Baseline hazards are never estimated: the partial likelihood eliminates them.

The per-stratum computations are fully vectorized and evaluate every block
of a block design in the same pass.  Risk-set sums at all event times are
running totals over the rows sorted by decreasing exit, less those over the
rows entering late.  Each event is one Efron sub-step; the information and
the score residuals both sum per-sub-step terms over each row's at-risk
window with one helper, and Efron's correction touches only tied event times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .design import BlockDesign, DesignMatrix
from .errors import ConfigError, EstimationError, SingularMatrixError

TIE_METHODS = ("efron", "breslow")

# Anything with the block layout: ``blocks``, ``block_map``, per-row times,
# events, strata and clusters.
Design = DesignMatrix | BlockDesign

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


class _RiskSets:
    """Static risk-set index of one stratum, shared by every evaluation.

    Rows are held in order of decreasing exit, so the rows with
    ``exit >= t`` are a leading run and every risk-set sum is a running total
    started at the latest exit.  Rows entering at or after the stratum's
    first event time (none without left truncation) are indexed apart, in
    order of decreasing entry, and their running totals are subtracted.  A
    small late risk set is thus summed from its own few terms, never as the
    difference of two whole-stratum totals.
    """

    def __init__(self, rows, blocks, entry, exit_, event, efron: bool):
        self.rows = rows                  # original row numbers
        X = blocks[:, rows]
        # Column 0 of Z is ones, so one running total of w * Z gives the
        # risk-set sums of w and of w * X together.
        self.Z = np.concatenate((np.ones(X.shape[:2] + (1,)), X), axis=2)
        self.X = self.Z[..., 1:]          # (m, n_s, p_b)
        fail = np.flatnonzero(event)[::-1]
        self.fail = fail                  # event rows by increasing exit
        self.n_events = len(fail)
        if self.n_events == 0:
            return
        self.fail_sum = self.X[:, fail].sum(axis=1)
        times = exit_[fail]               # one Efron sub-step per event

        # Per sub-step: rows with exit >= t, and late-entry rows with entry >= t.
        self.n_exit = np.searchsorted(-exit_, -times, side="right")
        late = np.flatnonzero(entry >= times[0])
        self.late = late[np.argsort(-entry[late], kind="stable")]
        self.n_late = np.searchsorted(-entry[self.late], -times, side="right")
        # Per row: the sub-steps lo <= k < hi of event times inside (entry, exit].
        self.lo = np.searchsorted(times, entry, side="right")
        self.hi = np.searchsorted(times, exit_, side="right")

        # Under Efron, sub-step k of d events tied at one time removes J = k/d
        # of the tied rows' own sum.  Only the events at tied times are
        # indexed: sub-step positions, rows, and each time's start and size.
        _, d = np.unique(times, return_counts=True)
        tied = (d > 1) & efron
        self.tied_pos = np.flatnonzero(np.repeat(tied, d))
        self.tied_rows = fail[self.tied_pos]
        self.tied_d = d[tied]
        self.tied_starts = np.concatenate(([0], np.cumsum(self.tied_d)[:-1]))
        self.tied_group = np.repeat(np.arange(len(self.tied_d)), self.tied_d)
        self.J = ((np.arange(len(self.tied_pos)) - self.tied_starts[self.tied_group])
                  / self.tied_d[self.tied_group])[:, None]

    def at_risk_sums(self, per_step):
        """Sums of ``per_step`` ``(m, n_events, q)`` over each row's at-risk
        sub-steps, ``(m, n_s, q)``; at a tied event's own time, sub-step ``k``
        counts with weight ``1 - J_k``.
        """
        total = np.cumsum(per_step, axis=1)
        total = np.concatenate((np.zeros_like(total[:, :1]), total), axis=1)
        sums = np.take(total, self.hi, axis=1) - np.take(total, self.lo, axis=1)
        if self.tied_pos.size:
            own = np.add.reduceat(self.J * np.take(per_step, self.tied_pos, axis=1),
                                  self.tied_starts, axis=1)
            sums[:, self.tied_rows] -= np.take(own, self.tied_group, axis=1)
        return sums


def _leading_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of the first ``counts[k]`` entries along axis 1, for every ``k``."""
    totals = np.take(np.cumsum(values, axis=1), np.maximum(counts, 1) - 1, axis=1)
    totals[:, counts == 0] = 0.0
    return totals


@dataclass(frozen=True, eq=False)
class _Evaluation:
    """Log-likelihood, score and information at one point, active columns only.

    ``parts`` keeps each stratum's weights, window sums of ``1/S0``, means
    and ``1/S0``, from which the score residuals at the same point follow.
    """

    ll: float
    score: np.ndarray
    info: np.ndarray
    cols: np.ndarray
    parts: tuple


class _Engine:
    """Stratified Cox likelihood of a design of ``m`` row-aligned blocks.

    The design supplies ``blocks`` ``(m, n, p_b)`` and ``block_map`` ``T``
    with per-block coefficients ``b = T theta``.  Each stratum of each block
    is its own stratum of the likelihood, so with ``T``'s rows cut per block
    as ``T_j``: ``ll = sum_j ll_j``, ``score = sum_j T_j' s_j`` and
    ``information = sum_j T_j' I_j T_j``.  A :class:`~dupcox.design.DesignMatrix`
    is one block with ``T = I``.  One pass per stratum evaluates all blocks.
    """

    def __init__(self, design: Design, tie_method: str):
        self.T = design.block_map
        blocks = design.blocks
        self.m, self.n, self.p_b = blocks.shape
        self.cluster_id = design.cluster_id
        # Strata are visited in sorted label order, so every sum over strata
        # adds its terms in the same order on every evaluation.
        _, inverse = np.unique(design.strata_key.astype(str), return_inverse=True)
        order = np.lexsort((-design.exit, inverse))
        bounds = np.flatnonzero(np.diff(inverse[order])) + 1
        self.strata: list[_RiskSets] = []
        skipped = 0
        for rows in np.split(order, bounds):
            st = _RiskSets(rows, blocks, design.entry[rows], design.exit[rows],
                           design.event[rows], tie_method == "efron")
            if st.n_events == 0:
                skipped += 1
            else:
                self.strata.append(st)
        # Counted as in the augmented model: one stratum per block.
        self.n_strata_used = self.m * len(self.strata)
        self.n_strata_skipped = self.m * skipped
        self.n_events = self.m * sum(st.n_events for st in self.strata)

    def evaluate(self, theta, cols) -> _Evaluation:
        full = np.zeros(self.T.shape[1])
        full[cols] = theta
        b = (self.T @ full).reshape(self.m, self.p_b)
        ll = 0.0
        score = np.zeros((self.m, self.p_b))
        info = np.zeros((self.m, self.p_b, self.p_b))
        parts = []
        for st in self.strata:
            ll_s, score_s, info_s, part = self._stratum(st, b)
            ll += ll_s
            score += score_s
            info += info_s
            parts.append(part)
        T = self.T.reshape(self.m, self.p_b, -1)
        info_theta = (T.transpose(0, 2, 1) @ info @ T).sum(axis=0)
        return _Evaluation(ll, (self.T.T @ score.ravel())[cols],
                           info_theta[np.ix_(cols, cols)], cols, tuple(parts))

    def _stratum(self, st: _RiskSets, b):
        X = st.X
        lp = (X @ b[:, :, None])[..., 0]
        lp -= lp.max(axis=1, keepdims=True)  # cancels exactly in the likelihood
        w = np.exp(lp)
        wZ = w[..., None] * st.Z

        S_fl = _leading_sums(wZ, st.n_exit)
        if st.late.size:
            S_fl -= _leading_sums(np.take(wZ, st.late, axis=1), st.n_late)
        if st.tied_pos.size:
            tied = np.add.reduceat(np.take(wZ, st.tied_rows, axis=1), st.tied_starts, axis=1)
            S_fl[:, st.tied_pos] -= st.J * np.take(tied, st.tied_group, axis=1)
        S0_fl = S_fl[..., 0]
        xbar = S_fl[..., 1:] / S0_fl[..., None]

        ll = float(lp[:, st.fail].sum() - np.log(S0_fl).sum())
        score = st.fail_sum - xbar.sum(axis=1)

        lam_fl = 1.0 / S0_fl
        a = st.at_risk_sums(lam_fl[..., None])[..., 0]
        info = (X * (w * a)[..., None]).transpose(0, 2, 1) @ X \
            - xbar.transpose(0, 2, 1) @ xbar
        return ll, score, info, (w, a, xbar, lam_fl)

    def residuals(self, ev: _Evaluation) -> np.ndarray:
        """Per-row score residuals at ``ev``'s point; rows sum to its score."""
        out = np.zeros((self.n, self.m, self.p_b))
        for st, part in zip(self.strata, ev.parts):
            out[st.rows] = self._stratum_residuals(st, *part).transpose(1, 0, 2)
        return out.reshape(self.n, -1) @ self.T[:, ev.cols]

    def _stratum_residuals(self, st: _RiskSets, w, a, xbar, lam_fl):
        # delta (X - mbar) - w (a X - window sum of xbar / S0), where mbar is
        # xbar averaged over the sub-steps of each tied time.
        resid = -w[..., None] * (st.X * a[..., None] - st.at_risk_sums(xbar * lam_fl[..., None]))
        mbar = xbar
        if st.tied_pos.size:
            mbar = xbar.copy()
            means = np.add.reduceat(np.take(xbar, st.tied_pos, axis=1), st.tied_starts,
                                    axis=1) / st.tied_d[:, None]
            mbar[:, st.tied_pos] = np.take(means, st.tied_group, axis=1)
        resid[:, st.fail] += np.take(st.X, st.fail, axis=1) - mbar
        return resid


def _check_inputs(design: Design, beta, tie_method: str) -> np.ndarray:
    if tie_method not in TIE_METHODS:
        raise ConfigError(f"tie_method must be one of {TIE_METHODS}, got {tie_method!r}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.n_columns,):
        raise ValueError(
            f"beta has shape {beta.shape}, expected ({design.n_columns},) "
            "to match the design columns"
        )
    return beta


def _engine_or_raise(design: Design, tie_method: str) -> _Engine:
    engine = _Engine(design, tie_method)
    if engine.n_events == 0:
        raise EstimationError("no informative strata: the design contains no events")
    return engine


def _evaluate(design: Design, beta, tie_method: str):
    """The engine, and its evaluation at ``beta`` over every column."""
    beta = _check_inputs(design, beta, tie_method)
    engine = _engine_or_raise(design, tie_method)
    return engine, engine.evaluate(beta, np.arange(design.n_columns))


def log_partial_likelihood(design: Design, beta, tie_method: str = "efron") -> float:
    """Stratified Cox log partial likelihood at ``beta``.

    Sum over strata and distinct event times of the event terms minus the
    log of the (tie-corrected) risk-set sums; the risk set at time ``t``
    contains rows with ``entry < t <= exit`` in the same stratum.
    """
    # Out-of-range coefficients can underflow a risk-set sum to zero, which
    # gives -inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _evaluate(design, beta, tie_method)[1].ll


def score(design: Design, beta, tie_method: str = "efron") -> np.ndarray:
    """Analytic gradient of the log partial likelihood."""
    return _evaluate(design, beta, tie_method)[1].score


def information(design: Design, beta, tie_method: str = "efron") -> np.ndarray:
    """Observed information (negative Hessian); symmetric PSD."""
    info = _evaluate(design, beta, tie_method)[1].info
    return (info + info.T) / 2.0


def score_residuals(design: Design, beta, tie_method: str = "efron") -> np.ndarray:
    """Per-row score residuals (rows sum to the total score).

    Rows in strata without events contribute zero.  These are the building
    blocks of the cluster sandwich: sum them within ``design.cluster_id``
    groups before forming the outer-product middle matrix.  A block
    design's row carries the summed residuals of its ``m`` copies.
    """
    engine, ev = _evaluate(design, beta, tie_method)
    return engine.residuals(ev)


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


def fit(design: Design, options: FitOptions | None = None,
        robust: bool = True) -> CoxFit:
    """Newton-Raphson maximization of the stratified log partial likelihood.

    Columns found exactly collinear in the information at the starting point
    are excluded and flagged in ``aliased_mask``.  A step that decreases the
    log partial likelihood is halved up to ``step_halvings_max`` times.
    Convergence means the max-norm of the score dropped to
    ``gradient_tolerance``; a non-converged fit is returned (not raised)
    with diagnostics, including a probable-separation flag when a
    coefficient runs beyond +-20 with the likelihood still increasing.
    A :class:`~dupcox.design.BlockDesign` is fitted in the coefficients of
    the augmented design it stands for.
    """
    options = options or FitOptions()
    engine = _engine_or_raise(design, options.tie_method)
    p = design.n_columns

    start = engine.evaluate(np.zeros(p), np.arange(p))
    aliased = _aliased_columns(start.info)
    if aliased.all():
        raise EstimationError("all design columns are aliased; nothing to fit")
    active = np.flatnonzero(~aliased)

    beta = np.zeros(active.size)
    ev = start if active.size == p else engine.evaluate(beta, active)
    ll = ev.ll
    converged = False
    message = ""
    iterations = 0
    for iterations in range(options.max_iterations + 1):
        if np.abs(ev.score).max() <= options.gradient_tolerance:
            converged = True
            break
        if iterations == options.max_iterations:
            message = f"no convergence in {options.max_iterations} iterations"
            break
        try:
            step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(ev.info), ev.score)
        except (scipy.linalg.LinAlgError, ValueError):
            step = np.linalg.pinv(ev.info) @ ev.score
        # Near the optimum a productive Newton step moves the likelihood by
        # less than float resolution while the score still shrinks; halve
        # only on a decrease beyond rounding noise.
        slack = 1e-10 * (abs(ll) + 1.0)
        scale_factor = 1.0
        accepted = False
        for _ in range(options.step_halvings_max + 1):
            cand = beta + scale_factor * step
            # An accepted candidate's evaluation serves the next iteration.
            # Out-of-range candidates can underflow a risk-set sum to zero;
            # the resulting -inf is rejected here.
            with np.errstate(divide="ignore", invalid="ignore"):
                cand_ev = engine.evaluate(cand, active)
            if np.isfinite(cand_ev.ll) and cand_ev.ll >= ll - slack:
                beta, ll, ev = cand, max(cand_ev.ll, ll), cand_ev
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

    # Every exit from the loop leaves ``ev`` evaluated at the final ``beta``.
    model_cov_active = _symmetric_inverse(ev.info, "information matrix")
    sandwich = None
    if robust and converged:
        sandwich = _expand(_sandwich(engine, ev, model_cov_active), ~aliased)

    diagnostics = FitDiagnostics(
        n_strata_used=engine.n_strata_used,
        n_strata_skipped=engine.n_strata_skipped,
        n_events=engine.n_events,
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


def _sandwich(engine: _Engine, ev: _Evaluation, a_inv: np.ndarray) -> np.ndarray:
    """``A^-1 M A^-1`` on ``ev``'s columns, given ``A^-1`` at ``ev``'s point."""
    resid = engine.residuals(ev)
    _, codes = np.unique(engine.cluster_id.astype(str), return_inverse=True)
    grouped = np.column_stack([np.bincount(codes, weights=resid[:, j])
                               for j in range(resid.shape[1])])
    sandwich = a_inv @ (grouped.T @ grouped) @ a_inv
    return (sandwich + sandwich.T) / 2.0


def robust_covariance(design: Design, fit_result: CoxFit) -> np.ndarray:
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
    engine = _Engine(design, fit_result.options.tie_method)
    ev = engine.evaluate(fit_result.coefficients[active], active)
    a_inv = _symmetric_inverse(ev.info, "information matrix")
    return _expand(_sandwich(engine, ev, a_inv), ~fit_result.aliased_mask)
