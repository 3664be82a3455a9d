"""Stratified Cox partial-likelihood engine.

Maximizes the log partial likelihood of a :class:`~dupcox.design.DesignMatrix`
(row-aligned blocks whose coefficients are ``b = T theta``; a plain design
is one block with ``T = I``) by Newton-Raphson with step halving, handling
tied event times by the Efron (default) or Breslow corrections, left
truncation via the counting-process at-risk rule (a row is at risk at event
time ``t`` iff ``entry < t <= exit``), and cluster correlation via the
sandwich variance built from score residuals.

Baseline hazards are never estimated: the partial likelihood eliminates them.

One engine evaluates a stack of independent problems: designs with the same
blocks, block map and columns, each with its own rows, strata and clusters.
:func:`fit_stack` runs one Newton loop over the stack, and :func:`fit` is
the stack of one.  Each problem keeps its own iterate, step halvings, stop
and failure.

The strata with events are laid out once per stack.  Sorted by size, they are
cut into buckets: a bucket takes strata while its largest has at most twice
the rows of its smallest, so there are at most ``ceil(log2(largest /
smallest)) + 1`` buckets and padding at most doubles one.  In a bucket, each
stratum is a row of padded grids of its rows by decreasing exit and of its
Efron sub-steps (one per event), so running totals restart at each stratum
and one pass evaluates all strata, blocks and problems.  Risk-set sums are
running totals over the rows less those over the rows entering late; the
information and the score residuals both sum sub-step terms over each row's
at-risk window.

A problem's answer does not depend on which other problems share its stack
or its bucket.  Terms are formed per row and running totals are sequential,
with a row's padding after it.  Every other sum over a stratum's rows or
events, or over a problem's clusters, is taken on exactly that segment, by
``np.add.reduceat`` or by a BLAS product over the segment alone, never over
a padded grid row: the padded width would change the blocking of a pairwise
sum or of a BLAS product.  Which of the two forms a stratum's information
follows from its own size.  A problem's strata are then added in label
order, one at a time.

Score residuals stay in block coordinates: the sandwich sums them by cluster
there and maps only its small middle matrix through ``T``.  Mapping each row
through ``T`` would be a product over all rows, which OpenBLAS splits across
its threads, and the woken worker then spins: CPU time for no speed.  They
are streamed one column of one block at a time: each bucket forms its
residuals in its cells, one index gathers the buckets' cells into row
order, and the row is summed by cluster at once.  So the sandwich holds one
row of residuals, never all ``m * p_b`` of them, and every sum keeps the
order it would have in a whole matrix: elementwise terms per cell, running
totals per grid row, ``reduceat`` per segment and ``bincount`` in row
order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix
from .errors import ConfigError, EstimationError, SingularMatrixError, _is_integer, _is_number

TIE_METHODS = ("efron", "breslow")

# Pivot ratio below which a column is declared aliased (exact collinearity),
# relative to its diagonal in the initial information matrix.
ALIASING_PIVOT_RATIO = 1e-10

# Rows from which a stratum's information is formed by BLAS products over its
# own rows; smaller strata share elementwise products, summed per stratum.
OWN_PRODUCT_ROWS = 1024

# Coefficient magnitude beyond which a still-increasing likelihood is taken
# as probable monotone likelihood (separation).
SEPARATION_COEF_BOUND = 20.0

# Most halvings of a Newton step that lowers the log partial likelihood.
STEP_HALVINGS_MAX = 10

# How a Newton problem can stop, and its message, filled with max_iterations;
# the simulation lab counts a failed replicate by these names.
STOPS = {
    "converged": "",
    "not_converged": "no convergence in {} iterations",
    "step_halving_failed": "step halving failed to increase the log partial likelihood",
}


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
        tolerance, iterations = self.gradient_tolerance, self.max_iterations
        if not (_is_number(tolerance) and math.isfinite(tolerance) and tolerance > 0):
            raise ConfigError(f"gradient_tolerance must be a finite number > 0, got {tolerance!r}")
        if not (_is_integer(iterations) and iterations >= 1):
            raise ConfigError(f"max_iterations must be an integer >= 1, got {iterations!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    n_strata_used: int
    n_strata_skipped: int
    n_events: int
    separation_suspected: bool
    message: str = ""
    stop: str = "converged"

    def __post_init__(self):
        if self.stop not in STOPS:
            raise ConfigError(f"stop must be one of {tuple(STOPS)}, got {self.stop!r}")


@dataclass(frozen=True, eq=False)
class CoxFit:
    """Result of a partial-likelihood fit.

    Aliased coefficients (dropped for exact collinearity) are NaN in
    ``coefficients`` and NaN rows/columns in both covariance matrices;
    ``aliased_mask`` marks them.  ``robust_covariance`` is present when the
    fit converged and the cluster sandwich was requested.  How the fit
    stopped is ``diagnostics.stop`` alone; ``converged`` reads it.
    """

    column_names: tuple[str, ...]
    coefficients: np.ndarray
    model_covariance: np.ndarray
    robust_covariance: np.ndarray | None
    log_partial_likelihood: float
    iterations: int
    aliased_mask: np.ndarray
    options: FitOptions
    diagnostics: FitDiagnostics

    @property
    def converged(self) -> bool:
        return self.diagnostics.stop == "converged"

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
    """Running totals in place along a ``(..., S, W)`` grid's rows, flattened."""
    return np.cumsum(grid, axis=-1, out=grid).reshape(grid.shape[:-2] + (-1,))


def _subtract(S0, S1, cells, less) -> None:
    """Subtract, at ``cells`` of the last axis, ``less``'s row 0 from one
    block's ``S0`` ``(k,)`` and its rows ``1:`` from its ``S1`` ``(p_b,
    k)``, in place.  Passed in, ``less`` is freed when the call returns, not
    held through the rest of an evaluation."""
    S0[cells] -= less[0]
    S1[:, cells] -= less[1:]


def _grid(groups, n_groups: int):
    """For items sorted by group: group starts, each item's flat cell in a grid of
    padded rows led by an empty cell (a running total reads 0 there), grid width."""
    counts = np.bincount(groups, minlength=n_groups)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    width = int(counts.max(initial=0)) + 1
    return starts, groups * width + 1 + np.arange(len(groups)) - starts[groups], width


# Bound on the integer keys made unique for a sort; past it, a stable argsort.
SORT_KEY_BOUND = np.iinfo(np.int64).max


def _stable_order(keys, bound: int) -> np.ndarray:
    """The stable sorting order of non-negative integer ``keys`` below
    ``bound``.  Each key made unique by its place in the low bits sorts its
    place along with it, so one sort of values, faster than an argsort, finds
    the order.  Keys that would pass ``SORT_KEY_BOUND`` take a stable argsort."""
    n = len(keys)
    shift = max(n - 1, 0).bit_length()
    if bound << shift > SORT_KEY_BOUND:
        return np.argsort(keys, kind="stable")
    return np.sort(keys << shift | np.arange(n)) & ((1 << shift) - 1)


def _ranks(*times) -> list:
    """Each value's rank among the distinct values of all ``times`` arrays,
    as one array of ranks per array.  Each array is sorted on its own,
    unstably, and the sorted runs are merged by a stable sort, which finds
    them: faster than one sort of all the values, which slows on a value
    repeated many times (an entry time of 0, say)."""
    at = np.cumsum([0] + [len(values) for values in times])
    merged = np.concatenate([np.argsort(values) + a for values, a in zip(times, at)])
    values = np.concatenate(times)
    if len(times) > 1:
        merged = merged[np.argsort(values[merged], kind="stable")]
    values = values[merged]
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[merged] = np.cumsum(np.concatenate(([False], values[1:] != values[:-1])))
    return np.split(ranks, at[1:-1])


def _offset_codes(code_arrays):
    """A stack's codes, each problem's numbered after the previous problem's;
    each problem's first code, and the number of codes."""
    counts = [int(codes.max()) + 1 if codes.size else 0 for codes in code_arrays]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(int)
    return (np.concatenate([codes + s for codes, s in zip(code_arrays, starts)]),
            starts, sum(counts))


class _Bucket:
    """Static risk-set index of ``S`` strata of similar size, shared by every
    evaluation.

    Stratum ``s`` is row ``s`` of an ``(S, L)`` grid of its rows, and its
    events by increasing time are row ``s`` of an ``(S, E)`` grid of Efron
    sub-steps, whose values are kept for the events alone.  Rows entering at
    or after their stratum's first event time (none without left truncation)
    are also gathered into an ``(S, K)`` grid by decreasing entry, so a small
    late risk set is summed from its own few terms, never as the difference
    of two whole-stratum totals.  Empty cells have ``X = 0`` and weight 0.

    ``rows`` are original row numbers by stratum, decreasing exit and row,
    ``s`` their stratum in the bucket, ``strata`` the strata's places in label
    order, ``problem`` their problems, and ``entry`` and ``exit_`` time ranks
    below ``span``; ``entry`` is ``None`` where no row enters late.  ``X``
    ``(m, p_b, S * L)`` gathers the stack's block columns ``cols`` ``(m, p_b,
    n)``, and ``empty`` marks the empty cells; arrays keep the rows last, so
    that every pass runs along them.
    """

    def __init__(self, cols, rows, s, strata, problem, entry, exit_, event, span: int,
                 efron: bool):
        m, p_b, n = cols.shape
        self.strata, self.problem, S = strata, problem, len(strata)
        start, cell, L = _grid(s, S)
        self.rows = np.full(S * L, n)                    # empty cells map past the end
        self.rows[cell] = rows
        empty = self.rows == n
        self.X = np.empty((m, p_b, S * L))
        for j in range(m):  # clipped, an empty cell reads the last row until zeroed
            np.take(cols[j], self.rows, axis=1, out=self.X[j], mode="clip")
        self.X[..., empty] = 0.0
        self.empty = empty.reshape(S, L)

        # Events by stratum and increasing exit: each stratum's run of events
        # in the bucket's order, reversed.
        fail = np.flatnonzero(event)
        fs = s[fail]
        self.f_start, self.fail_step, self.E = _grid(fs, S)
        f_last = np.append(self.f_start[1:], len(fail)) - 1
        fail = fail[self.f_start[fs] + f_last[fs] - np.arange(len(fail))]
        times = exit_[fail]
        self.fail = cell[fail]

        # Each stratum's own cells and sub-steps.  Large strata take BLAS
        # products over them; the rest share elementwise products summed by
        # reduceat, whose even places are the strata's own cells.
        first = np.arange(S) * L + 1
        ends = np.column_stack((first, first + np.diff(start, append=len(s)),
                                self.f_start, np.append(self.f_start[1:], len(fail))))
        self.own = [(k, slice(*ends[k, :2]), slice(*ends[k, 2:]))
                    for k in np.flatnonzero(ends[:, 1] - ends[:, 0] >= OWN_PRODUCT_ROWS)]
        self.segments = ends[:, :2].ravel()
        if self.segments[-1] == S * L:
            self.segments = self.segments[:-1]
        # Each column centred on the midpoint of its range over its stratum's
        # own rows, so its rounding does not grow with its distance from zero
        # and a column constant in the stratum becomes exactly 0; a shift
        # within a stratum leaves that stratum's likelihood unchanged.  Each
        # end is halved first, which is exact, so the sum cannot overflow.
        # Empty cells stay 0.
        mid = (np.maximum.reduceat(self.X, self.segments, axis=2)[..., ::2] / 2
               + np.minimum.reduceat(self.X, self.segments, axis=2)[..., ::2] / 2)
        grid = self.X.reshape(m, p_b, S, L)
        np.subtract(grid, mid[..., None], out=grid, where=~self.empty)
        self.fail_sum = np.add.reduceat(np.take(self.X, self.fail, axis=2), self.f_start, axis=2)

        # The bucket's runs of rows tied in stratum and exit.  An event at time
        # t has the rows up to its run's last at risk (exit >= t); a row's
        # window ends after its stratum's events from its run's first on
        # (time <= exit).
        new = np.empty(len(s), dtype=bool)
        new[0] = True
        np.not_equal(exit_[1:], exit_[:-1], out=new[1:])
        new[1:] |= s[1:] != s[:-1]
        run = np.cumsum(new) - 1
        run_first = np.flatnonzero(new)
        self.exit_at = cell[np.append(run_first[1:], len(s))[run[fail]] - 1]
        before = np.cumsum(event) - event                 # events before each row
        self.window_end = np.zeros(S * L, dtype=int)      # empty cells read 0
        self.window_end[cell] = s * self.E + f_last[s] + 1 - before[run_first[run]]

        # Late-entry rows, by stratum and decreasing entry, and per sub-step
        # those with entry >= t, counted on (stratum, time rank) keys so that
        # strata never mix.  Every other row's window starts at its
        # stratum's empty cell, so without late rows there is no late grid
        # and no window has a start.
        fail_key = fs * span + times
        self.late = self.late_at = self.window_start = None
        late = (np.flatnonzero(entry >= times[self.f_start][s]) if entry is not None
                else np.empty(0, dtype=int))
        if late.size:
            late_key = s[late] * span + (span - 1 - entry[late])
            order = _stable_order(late_key, S * span)
            late, late_key = late[order], late_key[order]
            z_start, late_cell, K = _grid(s[late], S)
            self.late = np.zeros((S, K), dtype=int)
            self.late.flat[late_cell] = cell[late]
            self.late_at = fs * K + np.searchsorted(
                late_key, fs * span + (span - 1 - times), side="right") - z_start[fs]
            self.window_start = np.zeros(S * L, dtype=int)
            self.window_start[cell] = s * self.E
            s_late = s[late]
            self.window_start[cell[late]] = s_late * self.E - self.f_start[s_late] + \
                np.searchsorted(fail_key, s_late * span + entry[late], side="right")

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
        self.tied_sizes = d[self.tied][self.tied_starts]      # events per tied time
        self.J = (self.tied - g_start[group]) / d[self.tied]

    def at_risk_sums(self, per_step):
        """Sums of each block's ``per_step`` ``(m, events)`` over each row's
        at-risk sub-steps, ``(m, S * L)``; at a tied event's own time,
        sub-step ``k`` counts with weight ``1 - J_k``.  Cells are assigned
        block by block: a 1-D fancy assignment is several times faster than
        one over two axes."""
        grid = np.zeros((len(per_step), len(self.strata), self.E))
        for cells, values in zip(grid.reshape(len(per_step), -1), per_step):
            cells[self.fail_step] = values
        total = _running(grid)
        sums = np.take(total, self.window_end, axis=1)
        if self.window_start is not None:
            sums -= np.take(total, self.window_start, axis=1)
        if self.tied.size:
            own = np.add.reduceat(self.J * np.take(per_step, self.tied, axis=1),
                                  self.tied_starts, axis=1)
            own = np.take(own, self.tied_group, axis=1)
            for cells, values in zip(sums, own):
                cells[self.tied_rows] -= values
        return sums

    def risk_set_sums(self, w):
        """Each block's risk-set sums at its sub-steps, ``S0`` ``(m, events)``
        and the ``S1`` rows ``(m, p_b, events)``, at row weights ``w`` ``(m,
        S * L)``, 0 at empty cells: running totals of ``w Z``, ``Z = [1 |
        X]``, by decreasing exit, less the terms of rows entering late and,
        at a tied time's sub-steps, the share ``J`` of its own rows.  Two
        arrays, so that ``S1``, which becomes the residuals' ``xbar``, holds
        no ``S0`` row.  Each block is formed in turn in one buffer, freed on
        return, so that the arrays formed next can take its space."""
        m, p_b, _ = self.X.shape
        wZ = np.empty((1 + p_b, w.shape[1]))
        S0, S1 = np.empty((m, len(self.exit_at))), np.empty((m, p_b, len(self.exit_at)))
        for j in range(m):
            wZ[0] = w[j]
            np.multiply(w[j], self.X[j], out=wZ[1:])
            # Late and tied rows' terms are read before the running total overwrites wZ.
            late = np.take(wZ, self.late, axis=1) if self.late is not None else None
            if self.tied.size:
                tied = np.add.reduceat(np.take(wZ, self.tied_rows, axis=1), self.tied_starts,
                                       axis=1)
            total = _running(wZ.reshape(1 + p_b, *self.empty.shape))
            np.take(total[0], self.exit_at, out=S0[j], mode="clip")
            np.take(total[1:], self.exit_at, axis=1, out=S1[j], mode="clip")
            if late is not None:
                _subtract(S0[j], S1[j], slice(None), np.take(_running(late), self.late_at, axis=1))
            if self.tied.size:
                _subtract(S0[j], S1[j], self.tied, self.J * np.take(tied, self.tied_group, axis=1))
        return S0, S1

    def information(self, w, a, xbar):
        """Each stratum's information in each block, ``(S, m, p_b, p_b)``,
        from its own rows and events alone: the sum over its rows of ``w a X
        X'`` less that over its sub-steps of ``xbar xbar'``.  Each block's
        ``w a X`` is formed in turn in one buffer, whose row 0 holds ``w
        a``."""
        m, p_b, _ = self.X.shape
        info = np.empty((len(self.strata), m, p_b, p_b))
        buf = np.empty((1 + p_b, w.shape[1]))
        small = len(self.own) < len(self.strata)
        if small:  # the upper triangle row by row, the products in two reused buffers
            by_row, by_step = np.empty((p_b, w.shape[1])), np.empty((p_b, xbar.shape[2]))
        for j in range(m):
            X, xb = self.X[j], xbar[j]
            Xwa = np.multiply(X, np.multiply(w[j], a[j], out=buf[0]), out=buf[1:])
            if small:
                for i in range(p_b):
                    rows = np.multiply(Xwa[i, None], X[i:], out=by_row[:p_b - i])
                    steps = np.multiply(xb[i, None], xb[i:], out=by_step[:p_b - i])
                    upper = (np.add.reduceat(rows, self.segments, axis=1)[:, ::2]
                             - np.add.reduceat(steps, self.f_start, axis=1))
                    info[:, j, i, i:] = info[:, j, i:, i] = upper.T
            for k, rows, steps in self.own:
                outer = Xwa[:, rows] @ X[:, rows].T
                info[k, j] = (outer + outer.T) / 2.0 - xb[:, steps] @ xb[:, steps].T
        return info

    def residuals(self, j: int, i: int, part, out) -> None:
        """Column ``i`` of block ``j``: its score residuals at the point of
        ``part``, written to ``out`` ``(S * L,)``: ``delta (X - mbar) - w (a
        X - window sum of xbar / S0)``, where ``mbar`` is ``xbar`` averaged
        over the sub-steps of each tied time.  Every array is one block's
        contiguous row, so no gather copies its source first, and the at-risk
        sums are fresh arrays, never ``a``'s storage."""
        w, a, xbar, lam_fl = part
        x, xbar = self.X[j, i], xbar[j, i]
        resid = self.at_risk_sums((xbar * lam_fl[j])[None])[0]
        resid -= x * a[j]
        np.multiply(resid, w[j], out=out)
        delta = np.take(x, self.fail)
        delta -= xbar
        if self.tied.size:
            tied = np.take(xbar, self.tied)
            means = np.add.reduceat(tied, self.tied_starts) / self.tied_sizes
            delta[self.tied] += tied - np.take(means, self.tied_group)
        delta += np.take(out, self.fail)
        out[self.fail] = delta


# Each problem's log-likelihood, score and information at one point, and what
# the residuals need.
_Evaluation = namedtuple("_Evaluation", "ll score info parts")


class _Engine:
    """Stratified Cox likelihoods of a stack of ``R`` designs of ``m``
    row-aligned blocks.

    The designs share ``p_b`` and the block map ``T``, with per-block
    coefficients ``b = T theta``; their rows, strata and clusters are their
    own.  Each stratum of each block is its own stratum of the likelihood,
    so with ``T``'s rows cut per block as ``T_j``, per problem: ``ll =
    sum_j ll_j``, ``score = sum_j T_j' s_j`` and ``information = sum_j T_j'
    I_j T_j``.
    """

    def __init__(self, designs, tie_method: str):
        self.T, self.R = designs[0].block_map, len(designs)
        self.m, _, self.p_b = designs[0].blocks.shape
        self.n = sum(len(d) for d in designs)
        codes, code_start, n_codes = _offset_codes([d.stratum_codes for d in designs])
        self.cluster_codes, self.cluster_start, self.n_clusters = _offset_codes(
            [d.cluster_codes for d in designs])
        event = np.concatenate([d.event for d in designs])
        size = np.bincount(codes, minlength=n_codes)
        kept = np.flatnonzero(np.bincount(codes, weights=event, minlength=n_codes))
        # Each code's problem; kept strata run by problem, then by label.
        owner = np.repeat(np.arange(self.R), np.diff(code_start, append=n_codes))
        problem = owner[kept]
        kept_count = np.bincount(problem, minlength=self.R)
        # Each kept stratum's cell in a grid of problems by their strata in label order.
        self.stratum_cell = (problem, np.arange(len(kept))
                             - np.searchsorted(problem, np.arange(self.R))[problem])
        self.width = int(kept_count.max())
        # Counted as in the augmented model: one stratum per block.
        self.n_strata_used = self.m * kept_count
        self.n_strata_skipped = self.m * (np.bincount(owner[size > 0], minlength=self.R)
                                          - kept_count)
        self.n_events = self.m * np.array([int(d.event.sum()) for d in designs])
        if not self.n_events.all():
            raise EstimationError("no informative strata: the design contains no events")

        by_size = np.argsort(size[kept], kind="stable")
        s = np.full(n_codes, -1)
        s[kept[by_size]] = np.arange(len(kept))
        s = s[codes]                 # each row's stratum by size; -1 without events
        # Time ranks below span, so that (stratum, time) pairs are integer keys.
        # Entries before every event time put no row in a late risk set, and
        # only the exits are ranked.
        entry = np.concatenate([d.entry for d in designs])
        exit_ = np.concatenate([d.exit for d in designs])
        if entry.max() < exit_[event].min():
            entry, (exit_,) = None, _ranks(exit_)
        else:
            entry, exit_ = _ranks(entry, exit_)
        span = 2 * self.n
        cols = (designs[0].blocks.transpose(0, 2, 1) if self.R == 1 else
                np.concatenate([d.blocks.transpose(0, 2, 1) for d in designs], axis=2))
        rows = np.flatnonzero(s >= 0)
        rows = rows[_stable_order(s[rows] * span + (span - 1 - exit_[rows]), len(kept) * span)]
        size = np.sort(size[kept])
        ends = np.cumsum(size)
        self.buckets, a = [], 0
        while a < len(kept):
            z = int(np.searchsorted(size, 2 * size[a], side="right"))
            r = rows[ends[a] - size[a]:ends[z - 1]]
            self.buckets.append(_Bucket(cols, r, s[r] - a, by_size[a:z], problem[by_size[a:z]],
                                        None if entry is None else entry[r], exit_[r], event[r],
                                        span, tie_method == "efron"))
            a = z

    def evaluate(self, theta) -> _Evaluation:
        """Each problem's evaluation at its row of ``theta`` ``(R, p)``: ``ll``
        ``(R,)``, ``score`` ``(R, p)``, ``info`` ``(R, p, p)``."""
        T = self.T
        b = (T @ theta[..., None]).reshape(self.R, self.m, self.p_b)
        n_kept = len(self.stratum_cell[0])
        ll = np.empty(n_kept)
        score = np.empty((n_kept, self.m, self.p_b))
        info = np.empty((n_kept, self.m, self.p_b, self.p_b))
        parts = []
        for bk in self.buckets:
            ll[bk.strata], score[bk.strata], info[bk.strata], part = self._bucket(bk, b)
            parts.append(part)
        ll, score, info = map(self._per_problem, (ll, score, info))
        T_j = T.reshape(self.m, self.p_b, -1)
        info = (T_j.transpose(0, 2, 1) @ info @ T_j).sum(axis=1)
        return _Evaluation(ll, (T.T @ score.reshape(self.R, -1, 1))[..., 0], info,
                           tuple(parts))

    def _per_problem(self, per_stratum):
        """Each problem's sum of per-stratum values, adding its strata one at a
        time in label order, as a stack of one would."""
        grid = np.zeros((self.R, self.width) + per_stratum.shape[1:])
        grid[self.stratum_cell] = per_stratum
        return np.cumsum(grid, axis=1)[:, -1]

    def _bucket(self, bk: _Bucket, b):
        m = self.m
        b = b[bk.problem].transpose(1, 2, 0)[..., None]  # each stratum's problem's, (m, p_b, S, 1)
        # Term by term, so that a row's value, unlike a matrix product's, does
        # not depend on where it sits or on the other strata.
        lp = np.zeros((m,) + bk.empty.shape)
        lp[:, bk.empty] = -np.inf
        for i in range(self.p_b):
            lp += bk.X[:, i].reshape(lp.shape) * b[:, i]
        lp -= lp.max(axis=2, keepdims=True)  # cancels exactly in the likelihood
        lp_fail = np.add.reduceat(np.take(lp.reshape(m, -1), bk.fail, axis=1), bk.f_start, axis=1)
        w = np.exp(lp, out=lp).reshape(m, -1)
        S0_fl, xbar = bk.risk_set_sums(w)
        xbar /= S0_fl[:, None]

        # Each stratum's own log-likelihood, summed block by block.
        ll = (lp_fail - np.add.reduceat(np.log(S0_fl), bk.f_start, axis=1)).sum(axis=0)
        score = bk.fail_sum - np.add.reduceat(xbar, bk.f_start, axis=2)
        lam_fl = 1.0 / S0_fl
        a = bk.at_risk_sums(lam_fl)
        return ll, score.transpose(2, 0, 1), bk.information(w, a, xbar), (w, a, xbar, lam_fl)

    def residual_rows(self, ev: _Evaluation):
        """Per-row score residuals at ``ev``'s points in block coordinates,
        one ``(n,)`` row at a time, block by block and column by column:
        stacked, ``(m * p_b, n)``; mapped by ``T``, a problem's rows sum to
        its score.  Each bucket writes its cells into one array of
        concatenated cells, which one index gathers into row order; a row of
        a stratum without events reads the zero cell after them.  The index
        is built here, not at set-up, so that it is not held through the
        evaluations."""
        cell_start = np.cumsum([0] + [bk.rows.size for bk in self.buckets])
        cell_of_row = np.full(self.n + 1, cell_start[-1])  # empty cells write past the end
        for bk, at in zip(self.buckets, cell_start):
            cell_of_row[bk.rows] = np.arange(at, at + bk.rows.size)
        cell_of_row = cell_of_row[:-1]
        flat = np.empty(cell_start[-1] + 1)
        flat[-1] = 0.0
        for j in range(self.m):
            for i in range(self.p_b):
                for bk, at, part in zip(self.buckets, cell_start, ev.parts):
                    bk.residuals(j, i, part, flat[at:at + bk.rows.size])
                yield np.take(flat, cell_of_row)

    def cluster_sums(self, ev: _Evaluation) -> np.ndarray:
        """The score residuals at ``ev``'s points summed by cluster in block
        coordinates, ``G`` ``(m * p_b, clusters)``.  Each residual row goes
        into its row of ``G`` as it is formed, by one ``bincount`` in row
        order; each problem's clusters are numbered after the previous
        problem's, so one ``bincount`` serves the stack."""
        C = self.n_clusters
        G = np.empty((self.m * self.p_b, C))
        rows = self.residual_rows(ev)
        for sums in G:  # no row outlives its bincount
            sums[:] = np.bincount(self.cluster_codes, weights=next(rows), minlength=C)
        return G


Evaluation = namedtuple("Evaluation", "log_partial_likelihood score information")


def evaluate(design: DesignMatrix, beta, tie_method: str = "efron") -> Evaluation:
    """The stratified Cox log partial likelihood at ``beta``, its gradient and
    the observed information (negative Hessian), from one evaluation.  The
    likelihood sums, over strata and event times, the event terms less the
    log of the tie-corrected sums over the risk set, the rows of the stratum
    with ``entry < t <= exit``."""
    FitOptions(tie_method=tie_method)  # refuses an unknown tie method
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.n_columns,):
        raise ValueError(f"beta has shape {beta.shape}, expected ({design.n_columns},) "
                         "to match the design columns")
    # Out-of-range coefficients can underflow a risk-set sum to zero: -inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = _Engine([design], tie_method).evaluate(beta[None])
    return Evaluation(float(ev.ll[0]), ev.score[0], ev.info[0])


def _aliased_columns(info: np.ndarray) -> np.ndarray:
    """Mark, in each matrix of an ``(R, p, p)`` stack, the columns whose pivot
    collapses during an in-order Cholesky sweep.

    Keeps the earliest column of any collinear group (mirroring how aliased
    terms surface as NA in common model summaries).  The sweep runs on a copy
    whose row and column ``k`` are scaled by ``2^-e_k``, with ``e_k`` the
    binary exponent of ``sqrt(info_kk)``, so its diagonal is near 1 and its
    products cannot overflow for a column in large units; the scaling is
    exact, so no pivot decision in normal range changes.
    """
    root = np.sqrt(np.abs(np.diagonal(info, axis1=1, axis2=2)))
    scale = np.ldexp(1.0, -np.frexp(root)[1])
    A = info * scale[:, :, None] * scale[:, None, :]
    diag0 = np.diagonal(A, axis1=1, axis2=2).copy()
    aliased = np.zeros(diag0.shape, dtype=bool)
    for k in range(info.shape[1]):
        hit = (A[:, k, k] <= ALIASING_PIVOT_RATIO * diag0[:, k]) | (diag0[:, k] <= 0.0)
        aliased[:, k] = hit
        A[hit, k, :] = 0.0
        A[hit, :, k] = 0.0
        rest = A[~hit, k, k + 1:]
        A[~hit, k + 1:, k + 1:] -= rest[:, :, None] * rest[:, None, :] / A[~hit, k, k, None, None]
    return aliased


def _symmetric_inverse(matrix: np.ndarray) -> np.ndarray:
    """``L^-T L^-1`` from the Cholesky factor ``L`` of each matrix of a
    ``(..., p, p)`` stack; exactly symmetric.

    A matrix with no Cholesky factor raises :class:`SingularMatrixError`
    naming its smallest eigenvalue (zero or negative up to rounding) as well
    as its condition number, which can read small for an indefinite matrix;
    so does one whose factor is not finite (an entry overflowed or is NaN).
    """
    try:
        factor = np.linalg.cholesky(matrix)
        if not np.isfinite(factor).all():
            raise SingularMatrixError("information matrix is not positive definite on the "
                                      "non-aliased subspace: it is not finite",
                                      condition_number=math.inf)
        inv_factor = np.linalg.inv(factor)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(matrix).min())
        cond = float(np.max(np.linalg.cond(matrix)))
        raise SingularMatrixError(
            "information matrix is not positive definite on the non-aliased subspace "
            f"(smallest eigenvalue {smallest:.6g}, condition number {cond:.3e})",
            condition_number=cond) from None
    return np.swapaxes(inv_factor, -1, -2) @ inv_factor


def _inverses(stack: np.ndarray):
    """``_symmetric_inverse`` of each matrix of an ``(R, p, p)`` stack, and
    per matrix ``None`` or, with NaN for its inverse, the error it raised."""
    try:
        return _symmetric_inverse(stack), [None] * len(stack)
    except SingularMatrixError:
        pass
    out, errors = np.full(stack.shape, np.nan), []
    for i in range(len(stack)):
        try:
            out[i] = _symmetric_inverse(stack[i:i + 1])[0]
            errors.append(None)
        except SingularMatrixError as exc:
            errors.append(exc)
    return out, errors


def _pin(matrices: np.ndarray, aliased: np.ndarray) -> np.ndarray:
    """Give each matrix of an ``(R, p, p)`` stack, in place, a unit row and
    column at its ``(R, p)`` aliased positions; the rest of its inverse is the
    inverse of the remaining block."""
    r, k = np.nonzero(aliased)
    matrices[r, k, :] = 0.0
    matrices[r, :, k] = 0.0
    matrices[r, k, k] = 1.0
    return matrices


def _nan_at(matrix: np.ndarray, aliased: np.ndarray) -> np.ndarray:
    """``matrix`` with NaN in the rows and columns of its aliased positions."""
    return np.where(aliased[:, None] | aliased, np.nan, matrix)


def fit(design: DesignMatrix, options: FitOptions | None = None,
        robust: bool = True) -> CoxFit:
    """Newton-Raphson maximization of the stratified log partial likelihood.

    Columns found exactly collinear in the information at the starting point
    are flagged in ``aliased_mask`` and held at zero: before each inverse, the
    information gets a unit row and column there and the score a zero.  One
    inverse ``I^-1`` of the information per iterate gives the step ``I^-1
    score``, the stop (the Newton decrement ``score' I^-1 score`` at most
    ``gradient_tolerance**2``) and, on exit, the model covariance; an ``I``
    that is not positive definite raises :class:`SingularMatrixError`.  A step that decreases the log
    partial likelihood is halved up to ``STEP_HALVINGS_MAX`` times.  A
    non-converged fit is returned (not raised) with diagnostics: how it
    stopped (a key of ``STOPS``) and a probable-separation flag when a
    coefficient runs beyond +-20 with the likelihood still increasing.
    """
    (result,) = fit_stack([design], options, robust)
    if isinstance(result, Exception):
        raise result
    return result


def fit_stack(designs, options: FitOptions | None = None, robust: bool = True) -> list:
    """:func:`fit` of each of a stack of designs, in one Newton loop over one engine.

    The designs share their blocks' width, block map and columns (one
    exposure spec's designs of different cohorts).  Each design's result
    is its :class:`CoxFit`, or the :class:`~dupcox.errors.DupcoxError` that
    :func:`fit` would raise for it.  Every evaluation covers the whole
    stack; a problem that has stopped is evaluated at its last iterate.
    Once the engine is built only the designs' column names are kept, so a
    design that the caller does not hold is freed before the Newton loop.
    """
    options = FitOptions() if options is None else options
    if not isinstance(options, FitOptions):
        raise ConfigError(f"options must be a FitOptions or None, got {options!r}")
    R, p = len(designs), designs[0].n_columns
    names = [design.column_names for design in designs]

    beta = np.zeros((R, p))
    # A column too large for its square overflows the information, which the
    # first inverse then refuses; its sums over events in the set-up overflow
    # alike.
    with np.errstate(over="ignore", invalid="ignore"):
        engine = _Engine(designs, options.tie_method)
        del designs  # the engine holds its own copy of what it reads
        ev = engine.evaluate(beta)
    aliased = _aliased_columns(ev.info)
    ll, score, info = ev.ll.copy(), ev.score.copy(), ev.info.copy()
    cov, step = np.full(info.shape, np.nan), np.zeros(beta.shape)
    scale, halvings, slack = np.ones(R), np.zeros(R, dtype=int), np.zeros(R)
    iterations, stop = np.zeros(R, dtype=int), np.full(R, None)  # a key of STOPS once stopped
    errors = [EstimationError("all design columns are aliased; nothing to fit")
              if a.all() else None for a in aliased]
    live = ~aliased.all(axis=1)    # still iterating
    fresh = live.copy()            # at a new iterate, to take its Newton step
    while True:
        new = np.flatnonzero(fresh)
        if new.size:
            fresh[:] = False
            score[aliased] = 0.0
            cov[new], failed = _inverses(_pin(info, aliased)[new])
            for r, exc in zip(new, failed):
                if exc is not None:
                    errors[r], live[r] = exc, False
            step[new] = (cov[new] @ score[new, :, None])[..., 0]
            decrement = (score[new] * step[new]).sum(axis=1)
            done = live[new] & (decrement <= options.gradient_tolerance ** 2)
            out = live[new] & ~done & (iterations[new] == options.max_iterations)
            stop[new[done]], stop[new[out]] = "converged", "not_converged"
            live[new[done | out]] = False
            # Near the optimum a productive Newton step moves the likelihood by
            # less than float resolution while the score still shrinks; halve
            # only on a decrease beyond rounding noise.
            slack[new] = 1e-10 * (np.abs(ll[new]) + 1.0)
            scale[new], halvings[new] = 1.0, 0
        if not live.any():
            break
        # A stopped problem stays at its iterate, so the last evaluation is at
        # every converged problem's final point.
        cand = beta.copy()
        cand[live] += scale[live, None] * step[live]
        # Out-of-range candidates can underflow a risk-set sum to zero or
        # overflow its inverse; the resulting -inf or NaN, in the likelihood
        # or the information, is rejected here.  So only a starting point's
        # information reaches an inverse that refuses it for not being finite.
        ev = None  # the last evaluation's parts go before the next one's are formed
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ev = engine.evaluate(cand)
        up = (live & np.isfinite(ev.ll) & (ev.ll >= ll - slack)
              & np.isfinite(ev.info).all(axis=(1, 2)))
        beta[up], score[up], info[up] = cand[up], ev.score[up], ev.info[up]
        ll[up] = np.maximum(ev.ll[up], ll[up])
        iterations[up] += 1
        fresh |= up
        down = live & ~up
        scale[down] /= 2.0
        halvings[down] += 1
        exhausted = down & (halvings > STEP_HALVINGS_MAX)
        stop[exhausted], live[exhausted] = "step_halving_failed", False

    converged = stop == "converged"
    sandwich = None
    if robust and converged.any():
        # A problem that failed in the last evaluation sits at its rejected
        # candidate there; its values, perhaps not finite, are not used.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sandwich = _sandwich(engine, ev, cov)
    results = []
    for r in range(R):
        if errors[r] is not None:
            results.append(errors[r])
            continue
        separation = bool(np.abs(beta[r]).max() > SEPARATION_COEF_BOUND)
        message = STOPS[stop[r]].format(options.max_iterations)
        if separation:
            message = (message + "; " if message else "") + (
                f"coefficient magnitude > {SEPARATION_COEF_BOUND:g} with increasing "
                "likelihood: probable separation")
        diagnostics = FitDiagnostics(int(engine.n_strata_used[r]),
                                     int(engine.n_strata_skipped[r]),
                                     int(engine.n_events[r]), separation, message, stop[r])
        results.append(CoxFit(
            column_names=names[r],
            coefficients=np.where(aliased[r], np.nan, beta[r]),
            model_covariance=_nan_at(cov[r], aliased[r]),
            robust_covariance=(_nan_at(sandwich[r], aliased[r])
                               if sandwich is not None and converged[r] else None),
            log_partial_likelihood=float(ll[r]), iterations=int(iterations[r]),
            aliased_mask=aliased[r].copy(), options=options, diagnostics=diagnostics,
        ))
    return results


def _sandwich(engine: _Engine, ev: _Evaluation, a_inv: np.ndarray) -> np.ndarray:
    """Each problem's ``A^-1 M A^-1``, given its ``A^-1`` ``(R, p, p)`` at its
    point in ``ev``.

    The score residuals are streamed one column of one block at a time,
    straight into their cluster sums ``G`` (:meth:`_Engine.cluster_sums`),
    so no ``(m * p_b, n)`` matrix of residuals is ever formed.  Cluster sums
    commute with the block map, so ``M = T' (G G') T``, the same matrix as
    the outer products of cluster-summed residuals in coefficient columns;
    each problem's ``G G'`` is a product over exactly its own clusters.
    """
    C = engine.n_clusters
    G = engine.cluster_sums(ev)
    ends = np.append(engine.cluster_start, C)
    M = np.array([g @ g.T for g in (G[:, a:z] for a, z in zip(ends[:-1], ends[1:]))])
    T = engine.T
    sandwich = a_inv @ (T.T @ M @ T) @ a_inv
    return (sandwich + np.swapaxes(sandwich, 1, 2)) / 2.0


def robust_covariance(design: DesignMatrix, fit_result: CoxFit) -> np.ndarray:
    """Cluster sandwich ``A^-1 M A^-1`` at the fitted coefficients.

    ``A`` is the observed information and ``M`` sums, over clusters of rows
    sharing ``design.cluster_codes`` (the duplicated copies of a subject), the
    outer products of cluster-summed score residuals; the residuals are
    streamed one column of one block at a time into their cluster sums in block
    coordinates, and only ``M`` is mapped to the coefficients.
    Aliased positions are NaN, matching the fitted coefficient vector;
    ``A^-1`` is the fit's model covariance, pinned there as in the fit, with
    those coefficients at 0.  ``fit`` computes the same matrix from its own
    risk-set index.
    """
    if not fit_result.converged:
        raise EstimationError("robust covariance requires a converged fit")
    aliased = fit_result.aliased_mask
    engine = _Engine([design], fit_result.options.tie_method)
    ev = engine.evaluate(np.where(aliased, 0.0, fit_result.coefficients)[None])
    a_inv = _pin(fit_result.model_covariance[None].copy(), aliased[None])
    return _nan_at(_sandwich(engine, ev, a_inv)[0], aliased)
