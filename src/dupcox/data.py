"""Counting-process survival data: schema, in-memory cohort, loading, validation.

A cohort is a sequence of (entry, exit] intervals, one or more per subject,
with an event indicator at the interval end, named exposure and covariate
columns, and optional baseline-stratification labels.  Time units are opaque
reals; no calendar parsing happens here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError, ValidationError


@dataclass(frozen=True)
class Schema:
    """Column mapping for a delimited cohort file.

    ``entry_column=None`` means all intervals start at time 0 (right-censored
    data without left truncation).
    """

    id_column: str
    exit_column: str
    event_column: str
    exposure_columns: tuple[str, ...]
    covariate_columns: tuple[str, ...] = ()
    strata_columns: tuple[str, ...] = ()
    entry_column: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "exposure_columns", tuple(self.exposure_columns))
        object.__setattr__(self, "covariate_columns", tuple(self.covariate_columns))
        object.__setattr__(self, "strata_columns", tuple(self.strata_columns))
        names = self.all_columns()
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"schema column names are not pairwise distinct: {dupes}")
        if len(self.exposure_columns) < 2:
            raise SchemaError(
                "at least two exposure columns are required for a comparison, "
                f"got {list(self.exposure_columns)}"
            )

    def all_columns(self) -> list[str]:
        names = [self.id_column]
        if self.entry_column is not None:
            names.append(self.entry_column)
        names += [self.exit_column, self.event_column]
        names += list(self.exposure_columns)
        names += list(self.covariate_columns)
        names += list(self.strata_columns)
        return names


@dataclass(frozen=True)
class Dataset:
    """Immutable cohort backed by column arrays.

    Rows preserve input order.  ``strata`` holds string labels; exposures and
    covariates are float columns aligned with ``schema``.  The derived label
    arrays (``strata_keys()``, ``stratum_codes``, ``subject_codes``) are
    computed once and read-only.
    """

    schema: Schema
    subject_ids: np.ndarray  # object, shape (n,)
    entry: np.ndarray        # float, shape (n,)
    exit: np.ndarray         # float, shape (n,)
    event: np.ndarray        # bool, shape (n,)
    exposures: np.ndarray    # float, shape (n, n_exposures)
    covariates: np.ndarray   # float, shape (n, n_covariates)
    strata: np.ndarray       # object, shape (n, n_strata)
    n_rejected_missing: int = field(default=0, compare=False)

    def __post_init__(self):
        n = len(self.subject_ids)
        for name in ("entry", "exit", "event"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column '{name}' has length != {n}")
        for name in ("exposures", "covariates", "strata"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValidationError(f"column block '{name}' has {arr.shape[0]} rows != {n}")
        if self.exposures.shape[1] != len(self.schema.exposure_columns):
            raise ValidationError("exposure block width does not match schema")
        if self.covariates.shape[1] != len(self.schema.covariate_columns):
            raise ValidationError("covariate block width does not match schema")
        if self.strata.shape[1] != len(self.schema.strata_columns):
            raise ValidationError("strata block width does not match schema")

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and np.array_equal(self.subject_ids, other.subject_ids)
            and np.array_equal(self.entry, other.entry)
            and np.array_equal(self.exit, other.exit)
            and np.array_equal(self.event, other.event)
            and np.array_equal(self.exposures, other.exposures)
            and np.array_equal(self.covariates, other.covariates)
            and np.array_equal(self.strata, other.strata)
        )

    def exposure(self, name: str) -> np.ndarray:
        j = self.schema.exposure_columns.index(name)
        return self.exposures[:, j]

    def strata_keys(self) -> np.ndarray:
        """Per-row composite stratum label from the original strata columns."""
        return self._strata_keys

    @cached_property
    def _strata_keys(self) -> np.ndarray:
        if self.strata.shape[1] == 0:
            return _read_only(np.full(len(self), "", dtype=object))
        return _read_only(join_labels(self.strata.T))

    @cached_property
    def stratum_codes(self) -> np.ndarray:
        """Per-row stratum code: the rank of the row's ``strata_keys()`` label
        among the distinct labels in sorted order."""
        return _read_only(label_codes(self.strata_keys()))

    @cached_property
    def subject_codes(self) -> np.ndarray:
        """Per-row subject code: the rank of ``str()`` of the row's subject id
        among the distinct ids in sorted order."""
        return _read_only(label_codes(self.subject_ids))

    def fingerprint(self) -> str:
        """SHA-256 of the cohort's canonical column bytes.

        The hash covers the schema and row count, the float columns as
        little-endian float64, the event flags as uint8, and ``str()`` of
        every subject id and stratum label as length-prefixed UTF-8.  It is
        stable across a save/load cycle and changes with any cell.
        """
        h = hashlib.sha256()
        h.update(json.dumps([asdict(self.schema), len(self)], sort_keys=True).encode("utf-8"))
        for block in (self.entry, self.exit, self.exposures, self.covariates):
            h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
        h.update(np.asarray(self.event, dtype=np.uint8).tobytes())
        for labels in (self.subject_ids, self.strata.ravel()):
            strs = list(map(str, labels))
            text = "".join(strs)
            data = text.encode()
            # One byte per character: every label is ASCII, its length its byte count.
            lengths = (map(len, strs) if len(data) == len(text)
                       else (len(s.encode()) for s in strs))
            h.update(np.fromiter(lengths, dtype="<u8", count=len(strs)).tobytes())
            h.update(data)
        return h.hexdigest()


def join_labels(columns) -> np.ndarray:
    """Per-row ``"|".join`` of ``str()`` of each label column, as an object array."""
    key = np.asarray(columns[0]).astype(str)
    for column in columns[1:]:
        key = np.char.add(np.char.add(key, "|"), np.asarray(column).astype(str))
    return key.astype(object)


def label_codes(labels) -> np.ndarray:
    """Integer code of each label: the rank of its ``str()`` among the
    distinct labels in sorted order."""
    return np.unique(np.asarray(labels).astype(str), return_inverse=True)[1]


def row_faults(entry, exit_, *blocks) -> tuple[np.ndarray, np.ndarray]:
    """The rows that break a cohort's interval rules, as two masks.

    ``nonfinite``: the entry or exit time, or a value in one of the ``(n, k)``
    ``blocks``, is not finite.  ``misordered``: a finite row whose entry
    time is not before its exit time.
    """
    finite = np.isfinite(entry) & np.isfinite(exit_)
    for block in blocks:
        finite &= np.isfinite(block).all(axis=1)
    return ~finite, finite & ~(entry < exit_)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _parse_float(cell: str, row: int, column: str) -> float:
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


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell.strip())
    except ValueError:
        return math.nan


def _float_column(cells) -> np.ndarray:
    """``float`` of every stripped cell, NaN where a cell does not parse."""
    # float() strips a subset of the whitespace str.strip() does, so a cell it
    # accepts unstripped has the same value stripped; the rest go cell by cell.
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), dtype=float, count=len(cells))


def _label_column(cells) -> np.ndarray:
    return np.fromiter(map(str.strip, cells), dtype=object, count=len(cells))


_EVENT_CODES = {"0": 0, "1": 1}

# Data rows parsed together by load_dataset.
_CHUNK_ROWS = 4096


def _check_row(record: list[str], row: int, width: int, positions: dict[str, int],
               schema: Schema) -> str | None:
    """Apply the loader's row rules to one record, in their order.

    Returns ``"blank"`` for a row to skip, ``"missing"`` for a row rejected for
    an empty exposure or covariate cell, and ``None`` for a good row.  Raises
    the error a bad row gets.
    """
    if not any(field.strip() for field in record):
        return "blank"
    if len(record) < width:
        raise ParseError(f"data row {row} has {len(record)} fields, expected {width}",
                         row=row)

    def cell(name):
        return record[positions[name]].strip()

    for name in schema.exposure_columns + schema.covariate_columns:
        raw = cell(name)
        if raw == "":
            return "missing"
        _parse_float(raw, row, name)
    subject_id = cell(schema.id_column)
    if subject_id == "":
        raise ParseError(f"empty subject id at data row {row}",
                         row=row, column=schema.id_column)
    entry = 0.0
    if schema.entry_column is not None:
        entry = _parse_float(cell(schema.entry_column), row, schema.entry_column)
    exit_ = _parse_float(cell(schema.exit_column), row, schema.exit_column)
    raw_event = cell(schema.event_column)
    if raw_event not in _EVENT_CODES:
        raise ParseError(
            f"event column must be 0 or 1, got {raw_event!r} at data row {row}",
            row=row, column=schema.event_column,
        )
    if entry >= exit_:
        raise ValidationError(
            f"subject {subject_id!r}: entry time {entry} is not before "
            f"exit time {exit_} (data row {row})"
        )
    return None


def load_dataset(path: str | Path, schema: Schema) -> Dataset:
    """Load a delimited cohort file into a :class:`Dataset`.

    The file is UTF-8, with or without a byte-order mark.  The delimiter
    (comma or tab) is auto-detected from the header line.  Cells are stripped
    of surrounding whitespace.  Blank lines are skipped but still counted in
    data row numbers.  The event column must contain only ``0`` or ``1``.
    Rows with a missing exposure or covariate cell are rejected (counted,
    warned about), not imputed.  On a bad file the error is the first bad
    row's, in file order.

    Raises
    ------
    SchemaError
        If a schema column is absent from the header or appears in it more
        than once.
    ParseError
        If a row has fewer fields than the header, a cell cannot be parsed or
        is not finite (``nan``, ``inf``), or a subject id is empty; the error
        names the data row and, for a cell, the column.  Also if the file is
        not UTF-8 text.
    ValidationError
        If a row has ``entry_time >= exit_time``; the error names the subject.
    """
    path = Path(path)
    try:
        chunks, n_rejected = _read_chunks(path, schema)
    except UnicodeDecodeError as exc:
        # The decoder's offset counts from its current chunk, not the file start.
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if n_rejected:
        warnings.warn(
            f"{path}: rejected {n_rejected} row(s) with missing exposure/covariate values",
            stacklevel=2,
        )
    return Dataset(schema, *map(np.concatenate, zip(*chunks)), n_rejected_missing=n_rejected)


def _read_chunks(path: Path, schema: Schema):
    """The parsed column chunks of ``path`` (at least one) and the rejected-row count."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
            if header.count(name) > 1:
                raise SchemaError(f"{path}: column '{name}' appears "
                                  f"{header.count(name)} times in header {header}")
            positions[name] = header.index(name)
        # Records are read and turned into columns a chunk at a time, so that
        # the row lists csv.reader builds die young.
        width = len(header)
        reader = csv.reader(fh, delimiter=delimiter)
        chunks, n_rejected, row = [], 0, 0
        while records := list(itertools.islice(reader, _CHUNK_ROWS)):
            columns, n_missing = _parse_chunk(records, row, width, positions, schema)
            chunks.append(columns)
            n_rejected += n_missing
            row += len(records)
    if not chunks:
        chunks.append(_parse_chunk([], 0, width, positions, schema)[0])
    return chunks, n_rejected


def _parse_chunk(records, row: int, width: int, positions: dict[str, int], schema: Schema):
    """The :class:`Dataset` columns of the good rows among ``records``, which
    follow data row ``row``, and how many rows were rejected for a missing cell.

    A row is kept as parsed unless it is short or one of its checks fails;
    those rows alone go through the row rules, in file order, so a bad file
    raises the first bad row's error and blank or missing rows are dropped.
    """
    full = np.fromiter(map(len, records), dtype=int, count=len(records)) >= width
    rows = records if full.all() else list(itertools.compress(records, full))
    n = len(rows)
    columns = list(zip(*rows)) or [()] * width

    def column(name):
        return columns[positions[name]]

    measured = schema.exposure_columns + schema.covariate_columns
    values = np.empty((n, len(measured)))
    for j, name in enumerate(measured):
        values[:, j] = _float_column(column(name))
    entry = (np.zeros(n) if schema.entry_column is None
             else _float_column(column(schema.entry_column)))
    exit_ = _float_column(column(schema.exit_column))
    event = np.fromiter(map(_EVENT_CODES.get, map(str.strip, column(schema.event_column)),
                            itertools.repeat(-1)), dtype=np.int8, count=n)
    subject_ids = _label_column(column(schema.id_column))
    strata = np.empty((n, len(schema.strata_columns)), dtype=object)
    for j, name in enumerate(schema.strata_columns):
        strata[:, j] = _label_column(column(name))

    nonfinite, misordered = row_faults(entry, exit_, values)
    keep = full.copy()
    keep[full] = ~(nonfinite | misordered) & (event >= 0) & (subject_ids != "")
    n_missing = 0
    for i in np.flatnonzero(~keep):
        status = _check_row(records[i], row + int(i) + 1, width, positions, schema)
        n_missing += status == "missing"
        keep[i] = status is None
    keep = keep[full]
    n_exposures = len(schema.exposure_columns)
    return (subject_ids[keep], entry[keep], exit_[keep], event[keep] == 1,
            values[keep, :n_exposures], values[keep, n_exposures:], strata[keep]), n_missing


def _serialize(dataset: Dataset) -> str:
    """Canonical CSV text for a dataset (used by save_dataset)."""
    s = dataset.schema

    def floats(column):
        return map(repr, np.asarray(column, dtype=float).tolist())

    labels = [dataset.subject_ids.tolist()]
    labels += [list(map(str, dataset.strata[:, j].tolist())) for j in range(dataset.strata.shape[1])]
    columns = labels[:1]
    if s.entry_column is not None:
        columns.append(floats(dataset.entry))
    columns.append(floats(dataset.exit))
    columns.append(np.where(dataset.event, "1", "0").tolist())
    columns += [floats(block[:, j]) for block in (dataset.exposures, dataset.covariates)
                for j in range(block.shape[1])]
    columns += labels[1:]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(s.all_columns())
    # csv quotes a field for a delimiter, quote or line break in it, which
    # float and event text never holds; unless some label does, or is not a
    # string, rows are joined without csv's per-field scan.
    if any(map(_needs_quoting, labels)):
        writer.writerows(zip(*columns))
    else:
        buf.writelines(map("%s\n".__mod__, map(",".join, zip(*columns))))
    return buf.getvalue()


def _needs_quoting(labels: list) -> bool:
    try:
        text = "".join(labels)
    except TypeError:  # a non-string label: leave its text to csv
        return True
    return any(c in text for c in ',"\r\n')


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV so that a reload reproduces it exactly."""
    Path(path).write_text(_serialize(dataset), encoding="utf-8")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    offenders: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate(dataset: Dataset) -> ValidationReport:
    """Run structural checks on a dataset and report findings.

    Pure (never mutates the dataset) and report-style: nothing is raised
    here.  Checks: finite times, exposures and covariates, interval ordering
    (among finite rows), within-subject interval overlap, event count per
    stratum, and constant (zero-variance) exposure/covariate columns.  The
    first two are fatal: :func:`~dupcox.design.block_design` and
    :func:`~dupcox.design.duplicate_augment` refuse a cohort that fails them.
    """
    checks: list[CheckResult] = []

    s = dataset.schema
    names = [s.entry_column or "entry", s.exit_column,
             *s.exposure_columns, *s.covariate_columns]
    values = np.column_stack([dataset.entry, dataset.exit, dataset.exposures, dataset.covariates])
    nonfinite, misordered = row_faults(dataset.entry, dataset.exit, values[:, 2:])
    bad_rows = np.flatnonzero(nonfinite)
    bad_columns = [names[j] for j in np.flatnonzero(~np.isfinite(values[bad_rows]).all(axis=0))]
    checks.append(CheckResult(
        "finite_values", not bad_rows.size,
        "every time, exposure and covariate value is finite" if not bad_rows.size
        else f"{len(bad_rows)} row(s) with non-finite values in column(s): "
             f"{', '.join(bad_columns)}",
        tuple(dataset.subject_ids[bad_rows]),
    ))

    bad_order = dataset.subject_ids[misordered].tolist()
    checks.append(CheckResult(
        "interval_ordering", not bad_order,
        "every interval satisfies entry < exit" if not bad_order
        else f"{len(bad_order)} interval(s) with entry >= exit",
        tuple(bad_order),
    ))

    # In entry order a subject's first overlap is always between neighbours:
    # until then its intervals are disjoint, so the previous one ends last.
    order = np.lexsort((dataset.entry, dataset.subject_codes))
    codes = dataset.subject_codes[order]
    overlaps = (codes[1:] == codes[:-1]) & (dataset.entry[order][1:] < dataset.exit[order][:-1])
    overlapping = list(dict.fromkeys(dataset.subject_ids[order[1:][overlaps]]))
    checks.append(CheckResult(
        "subject_overlap", not overlapping,
        "no overlapping intervals within a subject" if not overlapping
        else f"overlapping intervals for {len(overlapping)} subject(s)",
        tuple(overlapping),
    ))

    _, first = np.unique(dataset.stratum_codes, return_index=True)
    events = np.bincount(dataset.stratum_codes, weights=dataset.event, minlength=len(first))
    seen = np.argsort(first)  # strata in first-seen order
    silent = dataset.strata_keys()[first[seen][events[seen] == 0]].tolist()
    checks.append(CheckResult(
        "stratum_events", not silent,
        "every stratum contains at least one event" if not silent
        else f"{len(silent)} non-informative stratum/strata (no events)",
        tuple(silent),
    ))

    # Exposure and covariate columns follow the two time columns in ``values``.
    constant = [names[2 + j] for j in np.flatnonzero(np.ptp(values[:, 2:], axis=0) == 0)] \
        if len(dataset) else []
    checks.append(CheckResult(
        "constant_columns", not constant,
        "no constant exposure/covariate columns" if not constant
        else f"constant column(s): {', '.join(constant)}",
        tuple(constant),
    ))

    return ValidationReport(tuple(checks))
