"""Independent reference computations used to check the package.

Everything here is deliberately naive: direct risk-set enumeration with
Python loops, explicit finite differences, sort-and-split quantiles, dense
matrix arithmetic.  Nothing is shared with the package's vectorized code
paths, except in :func:`block_residuals` and :func:`score_residuals`: the
engine's own residual rows, stacked and mapped to the coefficients, which
the tests hold against the oracles here.
"""

import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from dupcox.cox import CoxFit, _Engine
from dupcox.data import Dataset
from dupcox.design import DesignMatrix
from dupcox.errors import ParseError, SchemaError, ValidationError
from dupcox.inference import _positions


def brute_force_loglik(entry, exit_, event, X, beta, strata=None, tie_method="breslow"):
    """O(n^2) stratified Cox log partial likelihood by interval scanning."""
    entry = np.asarray(entry, dtype=float)
    exit_ = np.asarray(exit_, dtype=float)
    event = np.asarray(event, dtype=bool)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = len(exit_)
    if strata is None:
        strata = ["" for _ in range(n)]
    strata = list(strata)

    ll = 0.0
    for s in sorted(set(strata)):
        rows = [i for i in range(n) if strata[i] == s]
        times = sorted({exit_[i] for i in rows if event[i]})
        for t in times:
            deaths = [i for i in rows if event[i] and exit_[i] == t]
            at_risk = [i for i in rows if entry[i] < t <= exit_[i]]
            eta = {i: float(X[i] @ beta) for i in at_risk}
            d = len(deaths)
            s0 = sum(math.exp(eta[i]) for i in at_risk)
            ll += sum(eta[i] for i in deaths)
            if tie_method == "breslow":
                ll -= d * math.log(s0)
            else:
                s0f = sum(math.exp(eta[i]) for i in deaths)
                ll -= sum(math.log(s0 - (j / d) * s0f) for j in range(d))
    return ll


def brute_force_score_residuals(entry, exit_, event, X, beta, strata=None,
                                tie_method="breslow"):
    """Per-row Cox score residuals by explicit loops over strata, event times
    and Efron sub-steps.

    A row's residual is its covariates less the sub-step mean of the weighted
    means at its own event time, minus, over every sub-step ``k`` at which it
    is at risk, ``c w (x - xbar_k) / S0_k``.  ``c`` is ``1 - k/d`` at the
    row's own tied time under Efron and ``1`` otherwise.
    """
    entry = np.asarray(entry, dtype=float)
    exit_ = np.asarray(exit_, dtype=float)
    event = np.asarray(event, dtype=bool)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n = len(exit_)
    if strata is None:
        strata = ["" for _ in range(n)]
    strata = list(strata)

    resid = np.zeros(X.shape)
    for s in sorted(set(strata)):
        rows = [i for i in range(n) if strata[i] == s]
        times = sorted({exit_[i] for i in rows if event[i]})
        for t in times:
            deaths = [i for i in rows if event[i] and exit_[i] == t]
            at_risk = [i for i in rows if entry[i] < t <= exit_[i]]
            w = {i: math.exp(float(X[i] @ beta)) for i in at_risk}
            d = len(deaths)
            steps = []
            for k in range(d):
                frac = k / d if tie_method == "efron" else 0.0
                c = {i: 1.0 - frac if i in deaths else 1.0 for i in at_risk}
                s0 = sum(c[i] * w[i] for i in at_risk)
                xbar = sum(c[i] * w[i] * X[i] for i in at_risk) / s0
                steps.append((c, s0, xbar))
            mean_xbar = sum(xbar for _, _, xbar in steps) / d
            for i in deaths:
                resid[i] += X[i] - mean_xbar
            for c, s0, xbar in steps:
                for i in at_risk:
                    resid[i] -= c[i] * w[i] * (X[i] - xbar) / s0
    return resid


def central_difference_gradient(f, beta, step=1e-5):
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for i in range(len(beta)):
        up, down = beta.copy(), beta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2 * step)
    return grad


def central_difference_jacobian(f_vec, beta, step=1e-5):
    beta = np.asarray(beta, dtype=float)
    cols = []
    for i in range(len(beta)):
        up, down = beta.copy(), beta.copy()
        up[i] += step
        down[i] -= step
        cols.append((np.asarray(f_vec(up)) - np.asarray(f_vec(down))) / (2 * step))
    return np.column_stack(cols)


def golden_section_max(f, lo, hi, tol=1e-12):
    """Maximize a unimodal scalar function on [lo, hi]."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


@dataclass(frozen=True)
class PrunedFit:
    """Coefficients and covariances with aliased entries removed."""

    names: tuple[str, ...]
    coefficients: np.ndarray
    model_covariance: np.ndarray
    robust_covariance: np.ndarray | None


def prune_aliased(fit_result: CoxFit, required: tuple[str, ...] | None = None) -> PrunedFit:
    """Drop aliased coefficients and their covariance rows/columns.

    If any name in ``required`` was aliased, refuse with an error instead of
    silently testing a reduced hypothesis.
    """
    if required:
        _positions(fit_result, required)
    keep = np.flatnonzero(~fit_result.aliased_mask)
    robust = fit_result.robust_covariance
    return PrunedFit(
        names=tuple(fit_result.column_names[i] for i in keep),
        coefficients=fit_result.coefficients[keep],
        model_covariance=fit_result.model_covariance[np.ix_(keep, keep)],
        robust_covariance=None if robust is None else robust[np.ix_(keep, keep)],
    )


def dense_wald(b, V):
    """Quadratic form b' V^-1 b via explicit dense inversion."""
    b = np.asarray(b, dtype=float)
    V = np.asarray(V, dtype=float)
    return float(b @ np.linalg.inv(V) @ b)


def quantile_categories(values, k):
    """Sort-and-split categorization with type-1 empirical quantile cuts."""
    values = list(values)
    srt = sorted(values)
    n = len(srt)
    cuts = [srt[math.ceil(n * c / k) - 1] for c in range(1, k)]
    cats = []
    for v in values:
        c = 1
        for cut in cuts:
            if v > cut:
                c += 1
        cats.append(c)
    return cats


def per_bin_medians(categories, values):
    """Median of values within each category, assigned back per row."""
    out = []
    for cat, _ in zip(categories, values):
        members = sorted(v for c, v in zip(categories, values) if c == cat)
        mid = len(members) // 2
        if len(members) % 2:
            out.append(members[mid])
        else:
            out.append((members[mid - 1] + members[mid]) / 2.0)
    return out


def block_residuals(engine, ev):
    """The engine's per-row score residuals at ``ev``'s points in block
    coordinates, ``(m * p_b, n)``: the rows it streams into the sandwich's
    cluster sums, one column of one block at a time, stacked."""
    return np.array(list(engine.residual_rows(ev))).reshape(-1, engine.n)


def score_residuals(design, beta, tie_method="efron"):
    """Per-row score residuals of the engine (rows sum to the total score),
    each row's ``m`` blocks summed and mapped to the coefficients by
    ``design.block_map``; rows in strata without events are zero.  Summed
    within clusters, they give the middle matrix of the sandwich."""
    engine = _Engine([design], tie_method)
    ev = engine.evaluate(np.asarray(beta, dtype=float)[None])
    return block_residuals(engine, ev).T @ engine.T


def sandwich_from_residuals(residuals, cluster_ids, information):
    """Dense recomputation of A^-1 M A^-1 from exported per-row residuals."""
    groups = {}
    for resid, cid in zip(np.asarray(residuals), cluster_ids):
        groups.setdefault(cid, np.zeros(len(resid)))
        groups[cid] = groups[cid] + resid
    middle = np.zeros((residuals.shape[1], residuals.shape[1]))
    for g in groups.values():
        middle += np.outer(g, g)
    a_inv = np.linalg.inv(np.asarray(information))
    return a_inv @ middle @ a_inv


def overlapping_subjects(subject_ids, entry, exit_):
    """Subjects with overlapping intervals, by a row-by-row scan.

    Rows are visited by subject (as text) and entry; a row overlaps when it
    enters before the latest exit seen so far for its subject.
    """
    overlapping = []
    order = sorted(range(len(subject_ids)), key=lambda i: (str(subject_ids[i]), entry[i]))
    prev_id, prev_exit = None, -math.inf
    for i in order:
        sid = subject_ids[i]
        if sid == prev_id and entry[i] < prev_exit and sid not in overlapping:
            overlapping.append(sid)
        prev_exit = max(prev_exit, exit_[i]) if sid == prev_id else exit_[i]
        prev_id = sid
    return tuple(overlapping)


def codes_of(labels):
    """Each label's rank among the distinct labels, compared as ``str()``
    text (numpy's fixed-width text would drop a trailing NUL)."""
    return label_tuple_codes(zip(labels))


def label_tuple_codes(rows):
    """Each row of labels' rank among the distinct rows, each row compared as
    the tuple of its labels' ``str()``, in sorted order."""
    keys = [tuple(map(str, row)) for row in rows]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.intp)


def stratum_name_by_labels(labels):
    """A stratum's name, one character at a time: its one label's ``str()``,
    or each label's with a "\\" put before each "\\" and "|", joined by "|"."""
    texts = [str(label) for label in labels]
    if len(texts) == 1:
        return texts[0]
    return "|".join("".join("\\" + c if c in "\\|" else c for c in text) for text in texts)


def plain_design(X, exit_, event, entry=None, strata=None, cluster=None, names=None):
    """Wrap raw arrays into a plain DesignMatrix (one block, identity map).

    ``strata`` and ``cluster`` are per-row labels, numbered by :func:`codes_of`;
    without them every row is in one stratum and its own cluster.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != len(exit_):
        X = X.T
    n, p = X.shape
    return DesignMatrix(
        blocks=X[None],
        block_map=np.eye(p),
        column_names=tuple(names) if names else tuple(f"x{j + 1}" for j in range(p)),
        exposure_main_columns=(),
        interaction_columns=(),
        stratum_codes=codes_of(strata if strata is not None else [""] * n),
        cluster_codes=codes_of(cluster if cluster is not None else [str(i) for i in range(n)]),
        entry=np.asarray(entry, dtype=float) if entry is not None else np.zeros(n),
        exit=np.asarray(exit_, dtype=float),
        event=event,
    )


def random_design(rng, n=6, p=2, ties=False, truncation=True, n_strata=1,
                  event_rate=0.6, scale=1.0):
    """Random small counting-process design with at least one event."""
    while True:
        if ties:
            exit_ = rng.integers(1, max(3, n // 2) + 1, size=n).astype(float)
        else:
            exit_ = scale * (0.5 + rng.uniform(size=n))
        entry = np.zeros(n)
        if truncation:
            entry = rng.uniform(size=n) * exit_ * rng.integers(0, 2, size=n)
        event = rng.uniform(size=n) < event_rate
        if event.sum() >= 1:
            break
    X = rng.standard_normal((n, p))
    strata = [f"s{v}" for v in rng.integers(0, n_strata, size=n)]
    return plain_design(X, exit_, event, entry=entry, strata=strata)


def _parse_float(cell, row, column):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"cannot parse value {cell!r} in column '{column}' at data row {row}",
            row=row, column=column,
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"non-finite value {cell!r} in column '{column}' at data row {row}",
            row=row, column=column,
        )
    return value


@dataclass(frozen=True)
class CohortRow:
    """One counting-process interval (entry, exit] for one subject."""

    subject_id: str
    entry_time: float
    exit_time: float
    event: bool
    exposure_values: dict[str, float]
    covariate_values: dict[str, float]
    strata_values: dict[str, str]


def dataset_from_rows(rows, schema, n_rejected_missing=0):
    """A :class:`Dataset` built from ``CohortRow`` records, one cell at a time."""
    rows = list(rows)
    n = len(rows)
    ids = np.array([r.subject_id for r in rows], dtype=object)
    entry = np.array([r.entry_time for r in rows], dtype=float)
    exit_ = np.array([r.exit_time for r in rows], dtype=float)
    event = np.array([r.event for r in rows], dtype=bool)
    expo = np.empty((n, len(schema.exposure_columns)), dtype=float)
    cov = np.empty((n, len(schema.covariate_columns)), dtype=float)
    strat = np.empty((n, len(schema.strata_columns)), dtype=object)
    for i, r in enumerate(rows):
        for j, name in enumerate(schema.exposure_columns):
            expo[i, j] = r.exposure_values[name]
        for j, name in enumerate(schema.covariate_columns):
            cov[i, j] = r.covariate_values[name]
        for j, name in enumerate(schema.strata_columns):
            strat[i, j] = r.strata_values[name]
    return Dataset(schema, ids, entry, exit_, event, expo, cov, strat,
                   n_rejected_missing=n_rejected_missing)


def _records_by_rows(reader):
    """``reader``'s records; csv's error for a field longer than its field
    size limit is raised as a ParseError naming the record's data row."""
    row = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{exc} at data row {row + 1}", row=row + 1) from None
        row += 1
        yield record


def load_dataset_by_rows(path, schema):
    """Row-by-row cohort loader: one ``CohortRow`` per record, in file order.

    The reference for ``load_dataset``'s data rows.  Its header handling is
    the plain one: no byte-order mark, first of duplicated names.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        if header_line == "":
            raise SchemaError(f"{path}: file is empty, expected a header row")
        delimiter = "\t" if "\t" in header_line else ","
        header = next(csv.reader([header_line], delimiter=delimiter))
        header = [h.strip() for h in header]
        positions = {}
        for name in schema.all_columns():
            if name not in header:
                raise SchemaError(f"{path}: column '{name}' not found in header {header}")
            positions[name] = header.index(name)

        rows = []
        n_rejected = 0
        reader = csv.reader(fh, delimiter=delimiter)

        def cell(record, name):
            return record[positions[name]].strip()

        for row_idx, record in enumerate(_records_by_rows(reader), start=1):
            if not record or all(field.strip() == "" for field in record):
                continue
            if len(record) < len(header):
                raise ParseError(
                    f"data row {row_idx} has {len(record)} fields, expected {len(header)}",
                    row=row_idx,
                )
            values = {}
            missing = False
            for name in schema.exposure_columns + schema.covariate_columns:
                raw = cell(record, name)
                if raw == "":
                    missing = True
                    break
                values[name] = _parse_float(raw, row_idx, name)
            if missing:
                n_rejected += 1
                continue

            subject_id = cell(record, schema.id_column)
            if subject_id == "":
                raise ParseError(f"empty subject id at data row {row_idx}",
                                 row=row_idx, column=schema.id_column)
            entry = 0.0
            if schema.entry_column is not None:
                entry = _parse_float(cell(record, schema.entry_column),
                                     row_idx, schema.entry_column)
            exit_ = _parse_float(cell(record, schema.exit_column), row_idx, schema.exit_column)
            raw_event = cell(record, schema.event_column)
            if raw_event not in ("0", "1"):
                raise ParseError(
                    f"event column must be 0 or 1, got {raw_event!r} at data row {row_idx}",
                    row=row_idx, column=schema.event_column,
                )
            if entry >= exit_:
                raise ValidationError(
                    f"subject {subject_id!r}: entry time {entry} is not before "
                    f"exit time {exit_} (data row {row_idx})"
                )
            rows.append(CohortRow(
                subject_id=subject_id,
                entry_time=entry,
                exit_time=exit_,
                event=raw_event == "1",
                exposure_values={k: values[k] for k in schema.exposure_columns},
                covariate_values={k: values[k] for k in schema.covariate_columns},
                strata_values={k: cell(record, k) for k in schema.strata_columns},
            ))

    if n_rejected:
        warnings.warn(
            f"{path}: rejected {n_rejected} row(s) with missing exposure/covariate values",
            stacklevel=2,
        )
    return dataset_from_rows(rows, schema, n_rejected_missing=n_rejected)


def serialize_by_rows(dataset):
    """CSV text of a dataset written one row at a time; the reference for ``save_dataset``."""
    s = dataset.schema
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(s.all_columns())
    for i in range(len(dataset)):
        record = [dataset.subject_ids[i]]
        if s.entry_column is not None:
            record.append(repr(float(dataset.entry[i])))
        record.append(repr(float(dataset.exit[i])))
        record.append("1" if dataset.event[i] else "0")
        record += [repr(float(v)) for v in dataset.exposures[i]]
        record += [repr(float(v)) for v in dataset.covariates[i]]
        record += [str(v) for v in dataset.strata[i]]
        writer.writerow(record)
    return buf.getvalue()


def fingerprint_by_labels(dataset):
    """SHA-256 of the cohort with every label encoded on its own; the
    reference for ``Dataset.fingerprint``."""
    h = hashlib.sha256()
    h.update(json.dumps([asdict(dataset.schema), len(dataset)], sort_keys=True).encode("utf-8"))
    for block in (dataset.entry, dataset.exit, dataset.exposures, dataset.covariates):
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    h.update(np.asarray(dataset.event, dtype=np.uint8).tobytes())
    for labels in (dataset.subject_ids, dataset.strata.ravel()):
        encoded = [str(label).encode("utf-8") for label in labels]
        for label in encoded:
            h.update(len(label).to_bytes(8, "little"))
        h.update(b"".join(encoded))
    return h.hexdigest()


def bucket_layout(design, strata, L, E, K):
    """One engine bucket's risk-set index of ``design`` by its definitions,
    one stratum and row at a time, comparing times as floats.

    ``strata`` are the bucket's stratum codes in its order and ``L``, ``E``
    and ``K`` the widths of its grids of rows, of sub-steps and of late rows;
    each grid row leads with an empty cell.  A stratum's rows run by
    decreasing exit, then by row; its events by increasing exit, then by
    decreasing row; its late rows (entry at or after its first event time)
    by decreasing entry, then in the order of its rows.  Returns the row in
    each cell (``n`` in an empty one), the events' cells, per event the cell
    of the last row with exit >= t and the late-grid cell of the last late
    row with entry >= t, and per cell its window of sub-steps with entry < t
    <= exit.
    """
    n = len(design)
    entry, exit_, event = design.entry, design.exit, design.event
    rows = np.full((len(strata), L), n)
    late = np.zeros((len(strata), K), dtype=int)
    window = np.zeros((2, len(strata), L), dtype=int)
    fail, exit_at, late_at = [], [], []
    for k, code in enumerate(strata):
        own = np.flatnonzero(design.stratum_codes == code)
        own = own[np.lexsort((own, -exit_[own]))]
        rows[k, 1:len(own) + 1] = own
        cell = {row: k * L + 1 + i for i, row in enumerate(own)}
        events = own[event[own]]
        events = events[np.lexsort((-events, exit_[events]))]
        times = exit_[events]
        fail += [cell[row] for row in events]
        exit_at += [k * L + int((exit_[own] >= t).sum()) for t in times]
        late_rows = sorted((row for row in own if entry[row] >= times[0]),
                           key=lambda row: (-entry[row], cell[row]))
        late[k, 1:len(late_rows) + 1] = [cell[row] for row in late_rows]
        late_at += [k * K + sum(entry[row] >= t for row in late_rows) for t in times]
        for i, row in enumerate(own):
            window[:, k, 1 + i] = (k * E + int((times <= entry[row]).sum()),
                                   k * E + int((times <= exit_[row]).sum()))
    return dict(rows=rows.ravel(), fail=np.array(fail), exit_at=np.array(exit_at),
                window_start=window[0].ravel(), window_end=window[1].ravel(), late=late,
                late_at=np.array(late_at))


def strata_without_events(keys, event):
    """Stratum labels with no event, in first-seen order, one label at a time."""
    # Compared as Python strings: numpy's text would drop a trailing NUL.
    pairs = list(zip(keys, event))
    return tuple(key for key in dict.fromkeys(keys)
                 if not any(flag for other, flag in pairs if other == key))


def per_stratum_evaluation(design, beta, tie_method="efron"):
    """Log-likelihood, score, information and score residuals of ``design``
    at ``beta``, one stratum at a time in sorted label order.

    The reference for the engine's single pass over all strata.  Each stratum
    is indexed on its own: rows by decreasing exit, running totals of the
    weighted rows less those of the rows entering at or after its first event
    time, and one Efron sub-step per event.  Blocks and ``block_map`` are
    handled as in the engine: ``b = T beta`` and ``T_j`` per block.
    """
    T = design.block_map
    blocks = design.blocks
    m, n, p_b = blocks.shape
    b = (T @ np.asarray(beta, dtype=float)).reshape(m, p_b)
    efron = tie_method == "efron"

    def leading_sums(values, counts):
        zero = np.zeros((values.shape[0], 1, values.shape[2]))
        totals = np.concatenate((zero, np.cumsum(values, axis=1)), axis=1)
        return np.take(totals, counts, axis=1)

    ll = 0.0
    score = np.zeros((m, p_b))
    info = np.zeros((m, p_b, p_b))
    resid = np.zeros((n, m, p_b))
    keys = design.stratum_codes
    for key in np.unique(keys):
        rows = np.flatnonzero(keys == key)
        rows = rows[np.argsort(-design.exit[rows], kind="stable")]
        entry, exit_, event = design.entry[rows], design.exit[rows], design.event[rows]
        if not event.any():
            continue
        X = blocks[:, rows]
        fail = np.flatnonzero(event)[::-1]
        times = exit_[fail]
        n_exit = np.searchsorted(-exit_, -times, side="right")
        late = np.flatnonzero(entry >= times[0])
        late = late[np.argsort(-entry[late], kind="stable")]
        n_late = np.searchsorted(-entry[late], -times, side="right")
        lo = np.searchsorted(times, entry, side="right")
        hi = np.searchsorted(times, exit_, side="right")
        _, first, group, d = np.unique(times, return_index=True, return_inverse=True,
                                       return_counts=True)
        frac = (np.arange(len(times)) - first[group]) / d[group] if efron \
            else np.zeros(len(times))
        own_time = np.zeros((len(rows), len(times)), dtype=bool)
        own_time[fail] = times[None, :] == times[:, None]

        lp = (X @ b[:, :, None])[..., 0]
        lp -= lp.max(axis=1, keepdims=True)
        w = np.exp(lp)
        wZ = np.concatenate((w[..., None], w[..., None] * X), axis=2)
        S = leading_sums(wZ, n_exit) - leading_sums(wZ[:, late], n_late)
        own = np.einsum("ik,mif->mkf", own_time.astype(float), wZ)
        S -= frac[None, :, None] * own
        xbar = S[..., 1:] / S[..., :1]

        ll += float(lp[:, fail].sum() - np.log(S[..., 0]).sum())
        score += X[:, fail].sum(axis=1) - xbar.sum(axis=1)
        # weight[i, k]: row i's share of sub-step k (1 - frac at its own time)
        at_risk = (np.arange(len(times))[None, :] >= lo[:, None]) & \
            (np.arange(len(times))[None, :] < hi[:, None])
        weight = at_risk * (1.0 - own_time * frac[None, :])
        a = np.einsum("ik,mk->mi", weight, 1.0 / S[..., 0])
        info += np.einsum("mip,mi,miq->mpq", X, w * a, X) \
            - np.einsum("mkp,mkq->mpq", xbar, xbar)
        mbar = np.stack([xbar[:, group == g].mean(axis=1) for g in range(len(d))], axis=1)
        window = np.einsum("ik,mkp->mip", weight, xbar / S[..., :1])
        r = -w[..., None] * (X * a[..., None] - window)
        r[:, fail] += X[:, fail] - mbar[:, group]
        resid[rows] = r.transpose(1, 0, 2)
    T3 = T.reshape(m, p_b, -1)
    return (ll, T.T @ score.ravel(), (T3.transpose(0, 2, 1) @ info @ T3).sum(axis=0),
            resid.reshape(n, -1) @ T)
