"""Stratified Cox partial-likelihood engine.

Maximizes the log partial likelihood of a :class:`~dupcox.design.DesignMatrix`
(row-aligned blocks whose coefficients are ``b = T theta``; a plain design
is one block with ``T = I``) by Newton-Raphson with step halving, handling
tied event times by the Efron (default) or Breslow corrections, left
truncation via the counting-process at-risk rule (a row is at risk at event
time ``t`` iff ``entry < t <= exit``), and cluster correlation via the
sandwich variance built from score residuals.

Baseline hazards are never estimated: the partial likelihood eliminates them.

The strata with events are laid out once per fit.  Sorted by size, they are
cut into buckets: a bucket takes strata while its largest has at most twice
the rows of its smallest, so there are at most ``ceil(log2(largest /
smallest)) + 1`` buckets and padding at most doubles one.  In a bucket, each
stratum is a row of padded grids of its rows by decreasing exit and of its
Efron sub-steps (one per event), so running totals restart at each stratum
and one pass evaluates all strata and blocks.  Risk-set sums are running
totals over the rows less those over the rows entering late; the information
and the score residuals both sum sub-step terms over each row's at-risk window.

Score residuals stay in block coordinates: the sandwich sums them by cluster
there and maps only its small middle matrix through ``T``.  Mapping each row
through ``T`` would be a product over all rows, which OpenBLAS splits across
its threads, and the woken worker then spins: CPU time for no speed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import ConfigError, EstimationError, SingularMatrixError, ValidationError

TIE_METHODS = ("efron", "breslow")

# Pivot ratio below which a column is declared aliased (exact collinearity),
# relative to its diagonal in the initial information matrix.
ALIASING_PIVOT_RATIO = 1e-10

# Coefficient magnitude beyond which a still-increasing likelihood is taken
# as probable monotone likelihood (separation).
SEPARATION_COEF_BOUND = 20.0

# Most halvings of a Newton step that lowers the log partial likelihood.
STEP_HALVINGS_MAX = 10


@dataclass(frozen=True)
class FitOptions:
    """Optimizer knobs; defaults follow standard Cox practice.  ``gradient_tolerance``
    bounds ``sqrt(score' I^-1 score)``, the distance left to the optimum in
    standard errors, which no shift or rescaling of a column changes."""

    tie_method: str = "efron"
    max_iterations: int = 25
    gradient_tolerance: float = 1e-10

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


def _running(grid: np.ndarray) -> np.ndarray:
    """Running totals in place along an ``(m, q, S, W)`` grid's rows, flattened."""
    return np.cumsum(grid, axis=3, out=grid).reshape(grid.shape[0], grid.shape[1], -1)


def _grid(groups, n_groups: int):
    """For items sorted by group: group starts, each item's flat cell in a grid of
    padded rows led by an empty cell (a running total reads 0 there), grid width."""
    counts = np.bincount(groups, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    width = int(counts.max(initial=0)) + 1
    return starts, groups * width + 1 + np.arange(len(groups)) - starts[groups], width


class _Bucket:
    """Static risk-set index of ``S`` strata of similar size, shared by every
    evaluation.

    Stratum ``s`` is row ``s`` of an ``(S, L)`` grid of its rows, and its
    events by increasing time are row ``s`` of an ``(S, E)`` grid of Efron
    sub-steps, whose values are kept for the events alone.  Rows entering at
    or after their stratum's first event time (none without left truncation)
    are also gathered into an ``(S, K)`` grid by decreasing entry, so a small
    late risk set is summed from its own few terms, never as the difference
    of two whole-stratum totals.  Empty cells have ``Z = 0`` and weight 0.

    ``rows`` are original row numbers by stratum and decreasing exit, ``s``
    their stratum in the bucket, ``strata`` the strata's places in label
    order, and ``entry`` and ``exit_`` time ranks below ``R``.  ``Z`` holds
    ``[1 | block]'`` ``(m, q, n + 1)`` for every row, and zeros at row ``n``;
    arrays keep the rows last, so that every pass runs along them.
    """

    def __init__(self, Z, rows, s, strata, entry, exit_, event, R: int, efron: bool):
        m, q, n = Z.shape[0], Z.shape[1], Z.shape[2] - 1
        self.strata, S = strata, len(strata)
        start, cell, L = _grid(s, S)
        self.rows = np.full(S * L, n)                    # empty cells map past the end
        self.rows[cell] = rows
        self.Z = np.take(Z, self.rows, axis=2).reshape(m, q, S, L)
        self.X = self.Z[:, 1:].reshape(m, q - 1, S * L)  # a view
        self.pad = np.where(self.rows == n, -np.inf, 0.0).reshape(S, L)

        fail = np.flatnonzero(event)[::-1]
        fail = fail[np.argsort(s[fail], kind="stable")]  # by stratum, increasing exit
        fs, times = s[fail], exit_[fail]
        self.f_start, self.fail_step, self.E = _grid(fs, S)
        self.fail = cell[fail]

        # Per sub-step: rows with exit >= t, and late-entry rows with entry >= t,
        # counted on (stratum, time rank) keys so that strata never mix.
        query = fs * R + (R - 1 - times)
        self.exit_at = fs * L + np.searchsorted(
            s * R + (R - 1 - exit_), query, side="right") - start[fs]
        late = np.flatnonzero(entry >= times[self.f_start][s])
        late = late[np.lexsort((-entry[late], s[late]))]  # by stratum, decreasing entry
        late_key = s[late] * R + (R - 1 - entry[late])
        z_start, late_cell, K = _grid(s[late], S)
        self.late = np.zeros((S, K), dtype=int)
        self.late.flat[late_cell] = cell[late]
        self.late_at = fs * K + np.searchsorted(late_key, query, side="right") - z_start[fs]

        # Per row: the sub-steps lo <= k < hi of event times inside (entry, exit].
        fail_key = fs * R + times
        self.window = np.zeros((2, S * L), dtype=int)
        self.window[:, cell] = s * self.E - self.f_start[s] + np.searchsorted(
            fail_key, s * R + np.stack((entry, exit_)), side="right")

        # Under Efron, sub-step k of d events tied at one time removes J = k/d
        # of the tied rows' own sum.  Only the events at tied times are
        # indexed: their sub-steps, rows, and each time's start and size.
        new = np.diff(fail_key, prepend=-1) != 0
        group, g_start = np.cumsum(new) - 1, np.flatnonzero(new)
        d = np.diff(g_start, append=len(fail))[group]
        self.tied = np.flatnonzero((d > 1) & efron)
        self.tied_rows, group = self.fail[self.tied], group[self.tied]
        new = np.diff(group, prepend=-1) != 0
        self.tied_starts, self.tied_group = np.flatnonzero(new), np.cumsum(new) - 1
        self.J = (self.tied - g_start[group]) / d[self.tied]

    def at_risk_sums(self, per_step):
        """Sums of ``per_step`` ``(m, q, events)`` over each row's at-risk
        sub-steps, ``(m, q, S * L)``; at a tied event's own time, sub-step
        ``k`` counts with weight ``1 - J_k``."""
        m, q, _ = per_step.shape
        grid = np.zeros((m, q, len(self.strata), self.E))
        grid.reshape(m, q, -1)[..., self.fail_step] = per_step
        total = _running(grid)
        sums = np.take(total, self.window[1], axis=2) - np.take(total, self.window[0], axis=2)
        if self.tied.size:
            own = np.add.reduceat(self.J * np.take(per_step, self.tied, axis=2),
                                  self.tied_starts, axis=2)
            sums[..., self.tied_rows] -= np.take(own, self.tied_group, axis=2)
        return sums


# One point's log-likelihood, score, information and what its residuals need.
_Evaluation = namedtuple("_Evaluation", "ll score info cols parts")


class _Engine:
    """Stratified Cox likelihood of a design of ``m`` row-aligned blocks.

    The design supplies ``blocks`` ``(m, n, p_b)`` and ``block_map`` ``T``
    with per-block coefficients ``b = T theta``.  Each stratum of each block
    is its own stratum of the likelihood, so with ``T``'s rows cut per block
    as ``T_j``: ``ll = sum_j ll_j``, ``score = sum_j T_j' s_j`` and
    ``information = sum_j T_j' I_j T_j``.
    """

    def __init__(self, design: DesignMatrix, tie_method: str):
        blocks, self.T = design.blocks, design.block_map
        self.m, self.n, self.p_b = blocks.shape
        self.cluster_codes = design.cluster_codes
        codes, event = design.stratum_codes, design.event
        if event.dtype != bool:  # 0 and 1 of any dtype are read as flags
            if not np.isin(event, (0, 1)).all():
                raise ValidationError("event indicators must be 0 or 1 (or False or True)")
            event = event == 1
        n_codes = int(codes.max()) + 1 if self.n else 0
        size = np.bincount(codes, minlength=n_codes)
        kept = np.flatnonzero(np.bincount(codes, weights=event, minlength=n_codes))
        by_size = np.argsort(size[kept], kind="stable")
        s = np.full(n_codes, -1)
        s[kept[by_size]] = np.arange(len(kept))
        s = s[codes]                 # each row's stratum by size; -1 without events
        # Time ranks below R, so that (stratum, time) pairs are integer keys.
        entry, exit_ = np.unique(np.concatenate((design.entry, design.exit)),
                                 return_inverse=True)[1].reshape(2, -1)
        R = 2 * self.n
        Z = np.zeros((self.m, 1 + self.p_b, self.n + 1))
        Z[:, 0, :-1], Z[:, 1:, :-1] = 1.0, blocks.transpose(0, 2, 1)
        rows = np.flatnonzero(s >= 0)
        rows = rows[np.argsort(s[rows] * R + (R - 1 - exit_[rows]), kind="stable")]
        size = np.sort(size[kept])
        ends = np.cumsum(size)
        self.buckets, a = [], 0
        while a < len(kept):
            z = int(np.searchsorted(size, 2 * size[a], side="right"))
            r = rows[ends[a] - size[a]:ends[z - 1]]
            self.buckets.append(_Bucket(Z, r, s[r] - a, by_size[a:z], entry[r], exit_[r],
                                        event[r], R, tie_method == "efron"))
            a = z
        self.fail_sum = blocks[:, event].sum(axis=1)
        # Counted as in the augmented model: one stratum per block.
        self.n_strata_used = self.m * len(kept)
        self.n_strata_skipped = self.m * (n_codes - len(kept))
        self.n_events = self.m * int(event.sum())
        if not self.n_events:
            raise EstimationError("no informative strata: the design contains no events")

    def evaluate(self, theta, cols) -> _Evaluation:
        b = (self.T[:, cols] @ theta).reshape(self.m, self.p_b)
        ll = np.zeros(self.n_strata_used // self.m)  # per stratum, in label order
        score, info, parts = self.fail_sum, 0.0, []
        for bk in self.buckets:
            ll[bk.strata], xbar_sum, info_b, part = self._bucket(bk, b)
            score, info = score - xbar_sum, info + info_b
            parts.append(part)
        T = self.T.reshape(self.m, self.p_b, -1)
        info = (T.transpose(0, 2, 1) @ info @ T).sum(axis=0)[cols][:, cols]
        # Strata add up in label order, one at a time, as separate fits would.
        ll = float(np.cumsum(ll)[-1])
        return _Evaluation(ll, (self.T.T @ score.ravel())[cols], info, cols, tuple(parts))

    def _bucket(self, bk: _Bucket, b):
        m, q = self.m, self.p_b + 1
        # Term by term, so that a row's value, unlike a matrix product's, does
        # not depend on where it sits or on the other strata.
        lp = np.repeat(bk.pad[None], m, axis=0)
        for i in range(self.p_b):
            lp += bk.Z[:, i + 1] * b[:, i, None, None]
        lp -= lp.max(axis=2, keepdims=True)  # cancels exactly in the likelihood
        w = np.exp(lp).reshape(m, -1)
        wZ = w[:, None] * bk.Z.reshape(m, q, -1)
        # Late and tied rows' terms are read before the running total overwrites wZ.
        late = np.take(wZ, bk.late, axis=2) if bk.late.shape[1] > 1 else None
        if bk.tied.size:
            tied = np.add.reduceat(np.take(wZ, bk.tied_rows, axis=2), bk.tied_starts, axis=2)
        S_fl = np.take(_running(wZ.reshape(bk.Z.shape)), bk.exit_at, axis=2)
        if late is not None:
            S_fl -= np.take(_running(late), bk.late_at, axis=2)
        if bk.tied.size:
            S_fl[..., bk.tied] -= bk.J * np.take(tied, bk.tied_group, axis=2)
        S0_fl, xbar = S_fl[:, 0], S_fl[:, 1:]
        xbar /= S0_fl[:, None]

        # Each stratum's own log-likelihood, summed block by block.
        ll = (np.add.reduceat(np.take(lp.reshape(m, -1), bk.fail, axis=1), bk.f_start, axis=1)
              - np.add.reduceat(np.log(S0_fl), bk.f_start, axis=1)).sum(axis=0)
        lam_fl = 1.0 / S0_fl
        a = bk.at_risk_sums(lam_fl[:, None])[:, 0]
        # wZ's space, free again, takes w a Z.
        Xwa = np.multiply(bk.Z.reshape(wZ.shape), (w * a)[:, None], out=wZ)[:, 1:]
        info = Xwa @ bk.X.transpose(0, 2, 1) - xbar @ xbar.transpose(0, 2, 1)
        return ll, xbar.sum(axis=2), info, (w, a, xbar, lam_fl)

    def residuals(self, ev: _Evaluation) -> np.ndarray:
        """Per-row score residuals at ``ev``'s point in block coordinates,
        ``(m * p_b, n)`` with contiguous rows; mapped by ``T[:, ev.cols]``,
        they sum to its score."""
        out = np.zeros((self.m, self.p_b, self.n + 1))
        for bk, (w, a, xbar, lam_fl) in zip(self.buckets, ev.parts):
            # delta (X - mbar) - w (a X - window sum of xbar / S0), where mbar
            # is xbar averaged over the sub-steps of each tied time.
            resid = bk.at_risk_sums(xbar * lam_fl[:, None])
            resid -= bk.X * a[:, None]
            resid *= w[:, None]
            delta = np.take(bk.X, bk.fail, axis=2)
            delta -= xbar
            if bk.tied.size:
                d = np.diff(bk.tied_starts, append=bk.tied.size)  # events per time
                means = np.add.reduceat(np.take(xbar, bk.tied, axis=2), bk.tied_starts, axis=2) / d
                delta[..., bk.tied] += np.take(xbar, bk.tied, axis=2) \
                    - np.take(means, bk.tied_group, axis=2)
            resid[..., bk.fail] += delta
            out[:, :, bk.rows] = resid
        return out.reshape(-1, self.n + 1)[:, :-1]


def _evaluate(design: DesignMatrix, beta, tie_method: str):
    """The engine, and its evaluation at ``beta`` over every column."""
    if tie_method not in TIE_METHODS:
        raise ConfigError(f"tie_method must be one of {TIE_METHODS}, got {tie_method!r}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.n_columns,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({design.n_columns},) "
                         "to match the design columns")
    engine = _Engine(design, tie_method)
    return engine, engine.evaluate(beta, np.arange(design.n_columns))


def log_partial_likelihood(design: DesignMatrix, beta, tie_method: str = "efron") -> float:
    """Stratified Cox log partial likelihood at ``beta``.

    Sum over strata and distinct event times of the event terms minus the
    log of the (tie-corrected) risk-set sums; the risk set at time ``t``
    contains rows with ``entry < t <= exit`` in the same stratum.
    """
    # Out-of-range coefficients can underflow a risk-set sum to zero: -inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _evaluate(design, beta, tie_method)[1].ll


def score(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Analytic gradient of the log partial likelihood."""
    return _evaluate(design, beta, tie_method)[1].score


def information(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Observed information (negative Hessian); symmetric PSD."""
    info = _evaluate(design, beta, tie_method)[1].info
    return (info + info.T) / 2.0


def score_residuals(design: DesignMatrix, beta, tie_method: str = "efron") -> np.ndarray:
    """Per-row score residuals (rows sum to the total score).

    Rows in strata without events contribute zero.  These are the building
    blocks of the cluster sandwich: sum them within ``design.cluster_id``
    groups before forming the outer-product middle matrix.  A row
    carries the summed residuals of its ``m`` blocks, mapped to the
    coefficients by ``design.block_map``.
    """
    engine, ev = _evaluate(design, beta, tie_method)
    return engine.residuals(ev).T @ engine.T


def _aliased_columns(info: np.ndarray) -> np.ndarray:
    """Mark columns whose pivot collapses during an in-order Cholesky sweep.

    Keeps the earliest column of any collinear group (mirroring how aliased
    terms surface as NA in common model summaries).
    """
    p = info.shape[0]
    A = info.copy()
    diag0 = np.diag(info).copy()
    aliased = np.zeros(p, dtype=bool)
    for k in range(p):
        if A[k, k] <= ALIASING_PIVOT_RATIO * diag0[k] or diag0[k] <= 0.0:
            aliased[k] = True
            A[k, :] = A[:, k] = 0.0
            continue
        rest = A[k, k + 1:]
        A[k + 1:, k + 1:] -= np.outer(rest, rest) / A[k, k]
    return aliased


def _symmetric_inverse(matrix: np.ndarray) -> np.ndarray:
    """``L^-T L^-1`` from the Cholesky factor ``L``; exactly symmetric.

    A matrix with no Cholesky factor raises :class:`SingularMatrixError`
    naming its smallest eigenvalue (zero or negative up to rounding) as well
    as its condition number, which can read small for an indefinite matrix.
    """
    try:
        inv_factor = np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(matrix)[0])
        cond = float(np.linalg.cond(matrix))
        raise SingularMatrixError(
            "information matrix is not positive definite on the non-aliased subspace "
            f"(smallest eigenvalue {smallest:.6g}, condition number {cond:.3e})",
            condition_number=cond) from None
    return inv_factor.T @ inv_factor


def _expand(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Scatter active-subspace results into full-size arrays, NaN elsewhere."""
    out = np.full((len(active),) * values.ndim, np.nan)
    out[np.ix_(*[active] * values.ndim)] = values
    return out


def fit(design: DesignMatrix, options: FitOptions | None = None,
        robust: bool = True) -> CoxFit:
    """Newton-Raphson maximization of the stratified log partial likelihood.

    Columns found exactly collinear in the information at the starting point
    are excluded and flagged in ``aliased_mask``.  One inverse ``I^-1`` of the
    information per iterate gives the step ``I^-1 score``, the stop (the
    Newton decrement ``score' I^-1 score`` at most ``gradient_tolerance**2``)
    and, on exit, the model covariance; an ``I`` that is not positive definite
    raises :class:`SingularMatrixError`.  A step that decreases the log
    partial likelihood is halved up to ``STEP_HALVINGS_MAX`` times.  A
    non-converged fit is returned (not raised) with diagnostics, including a
    probable-separation flag when a coefficient runs beyond +-20 with the
    likelihood still increasing.
    """
    options = options or FitOptions()
    engine = _Engine(design, options.tie_method)
    p = design.n_columns

    ev = engine.evaluate(np.zeros(p), np.arange(p))
    aliased = _aliased_columns(ev.info)
    if aliased.all():
        raise EstimationError("all design columns are aliased; nothing to fit")
    active = np.flatnonzero(~aliased)

    beta = np.zeros(active.size)
    ev = ev if active.size == p else engine.evaluate(beta, active)
    ll = ev.ll
    converged = False
    message = ""
    iterations = 0
    for iterations in range(options.max_iterations + 1):
        cov = _symmetric_inverse(ev.info)
        step = cov @ ev.score
        if ev.score @ step <= options.gradient_tolerance ** 2:
            converged = True
            break
        if iterations == options.max_iterations:
            message = f"no convergence in {options.max_iterations} iterations"
            break
        # Near the optimum a productive Newton step moves the likelihood by
        # less than float resolution while the score still shrinks; halve
        # only on a decrease beyond rounding noise.
        slack = 1e-10 * (abs(ll) + 1.0)
        scale_factor = 1.0
        accepted = False
        for _ in range(STEP_HALVINGS_MAX + 1):
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

    sandwich = None
    if robust and converged:
        sandwich = _expand(_sandwich(engine, ev, cov), ~aliased)

    diagnostics = FitDiagnostics(engine.n_strata_used, engine.n_strata_skipped,
                                 engine.n_events, separation, message)
    return CoxFit(
        column_names=design.column_names, coefficients=_expand(beta, ~aliased),
        model_covariance=_expand(cov, ~aliased), robust_covariance=sandwich,
        log_partial_likelihood=ll, iterations=iterations, converged=converged,
        aliased_mask=aliased, options=options, diagnostics=diagnostics,
    )


def _sandwich(engine: _Engine, ev: _Evaluation, a_inv: np.ndarray) -> np.ndarray:
    """``A^-1 M A^-1`` on ``ev``'s columns, given ``A^-1`` at ``ev``'s point.

    The score residuals are summed by cluster in block coordinates, ``G``
    ``(m * p_b, clusters)``.  Cluster sums commute with the block map, so
    ``M = T_c' (G G') T_c`` with ``T_c = T[:, ev.cols]``, the same matrix as
    the outer products of cluster-summed residuals in coefficient columns.
    """
    grouped = np.array([np.bincount(engine.cluster_codes, weights=r)
                        for r in engine.residuals(ev)])
    T = engine.T[:, ev.cols]
    sandwich = a_inv @ (T.T @ (grouped @ grouped.T) @ T) @ a_inv
    return (sandwich + sandwich.T) / 2.0


def robust_covariance(design: DesignMatrix, fit_result: CoxFit) -> np.ndarray:
    """Cluster sandwich ``A^-1 M A^-1`` at the fitted coefficients.

    ``A`` is the observed information and ``M`` sums, over clusters of rows
    sharing ``design.cluster_id`` (the duplicated copies of a subject), the
    outer products of cluster-summed score residuals; the residuals are
    summed in block coordinates and only ``M`` is mapped to the coefficients.
    Aliased positions are NaN, matching the fitted coefficient vector;
    ``A^-1`` is the fit's model covariance.  ``fit`` computes the same matrix
    from its own risk-set index.
    """
    if not fit_result.converged:
        raise EstimationError("robust covariance requires a converged fit")
    active = np.flatnonzero(~fit_result.aliased_mask)
    engine = _Engine(design, fit_result.options.tie_method)
    ev = engine.evaluate(fit_result.coefficients[active], active)
    a_inv = fit_result.model_covariance[np.ix_(active, active)]
    return _expand(_sandwich(engine, ev, a_inv), ~fit_result.aliased_mask)
