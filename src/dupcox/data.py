"""Counting-process survival data: schema, in-memory cohort, loading, validation.

A cohort is a sequence of (entry, exit] intervals, one or more per subject,
with an event indicator at the interval end, named exposure and covariate
columns, and optional baseline-stratification labels.  Time units are opaque
reals; no calendar parsing happens here.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import warnings
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError, ValidationError, _names


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
        for name in ("exposure_columns", "covariate_columns", "strata_columns"):
            object.__setattr__(self, name, _names(getattr(self, name), name, SchemaError))
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
    covariates are float columns aligned with ``schema``.  A cohort is
    refused with a :class:`ValidationError` when it is built if a time,
    exposure or covariate value is not finite, an entry time is not before
    its exit time, or an event flag is not 0 or 1 (read as a boolean, of any
    dtype); :func:`row_faults` names the row rules.  The derived label
    arrays (``strata_keys()``, ``stratum_codes``, ``subject_codes``) are
    derived from the labels once, unless the cohort's maker gave the two
    codes (:meth:`_with_codes`), and read-only.
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
        for name in ("entry", "exit", "exposures", "covariates"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError):
                raise ValidationError(f"column block '{name}' holds a value that is "
                                      f"not a number") from None
        for name in ("subject_ids", "strata"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=object))
        n = len(self.subject_ids)
        for name in ("entry", "exit", "event"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"column '{name}' has length != {n}")
        for name in ("exposures", "covariates", "strata"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValidationError(f"column block '{name}' has {arr.shape[0]} rows != {n}")
        if self.exposures.shape[1:] != (len(self.schema.exposure_columns),):
            raise ValidationError("exposure block width does not match schema")
        if self.covariates.shape[1:] != (len(self.schema.covariate_columns),):
            raise ValidationError("covariate block width does not match schema")
        if self.strata.shape[1:] != (len(self.schema.strata_columns),):
            raise ValidationError("strata block width does not match schema")
        object.__setattr__(self, "event", event_flags(self.event))
        refuse_faults("time, exposure or covariate value",
                      self.entry, self.exit, self.exposures, self.covariates)

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.schema == other.schema and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self) if f.compare and f.name != "schema")

    def exposure(self, name: str) -> np.ndarray:
        j = self.schema.exposure_columns.index(name)
        return self.exposures[:, j]

    def strata_keys(self) -> np.ndarray:
        """Per-row stratum name: :func:`_stratum_name` of the row's labels,
        the name ``validate`` gives an eventless stratum."""
        return self._strata_keys

    @cached_property
    def _strata_keys(self) -> np.ndarray:
        # One name per distinct stratum, from its first row.
        _, first = np.unique(self.stratum_codes, return_index=True)
        names = np.array(list(map(_stratum_name, self.strata[first].tolist())), dtype=object)
        return _read_only(names[self.stratum_codes])

    @cached_property
    def stratum_codes(self) -> np.ndarray:
        """Per-row stratum code: the rank of the row's tuple of labels among
        the distinct tuples in sorted order (see :func:`tuple_codes`)."""
        return _read_only(tuple_codes(self.strata.T))

    @cached_property
    def subject_codes(self) -> np.ndarray:
        """Per-row subject code: the rank of ``str()`` of the row's subject id
        among the distinct ids in sorted order."""
        return _read_only(label_codes(self.subject_ids))

    def _with_codes(self, stratum_codes, subject_codes) -> Dataset:
        """This cohort, with its stratum and subject codes set to the given ones.

        For a caller that knows them without a string pass; they must equal
        what ``stratum_codes`` and ``subject_codes`` would derive from the
        labels.
        """
        self.__dict__.update(
            stratum_codes=_read_only(np.asarray(stratum_codes, dtype=np.intp)),
            subject_codes=_read_only(np.asarray(subject_codes, dtype=np.intp)),
        )
        return self

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
            h.update(np.ascontiguousarray(block, dtype="<f8"))
        h.update(np.ascontiguousarray(self.event, dtype=np.uint8))
        for labels in (self.subject_ids, self.strata.ravel()):
            lengths, data = _label_bytes(labels.tolist())
            h.update(lengths)
            h.update(data)
        return h.hexdigest()


def _label_bytes(labels: list):
    """``str()`` of each label in UTF-8: the byte lengths as ``<u8``, and the
    bytes of all of them in order."""
    # str() of a str is itself, so only other labels are converted.  One join
    # then encodes all of them, and unless a label holds a "\n" of its own,
    # the separators mark where each one ends.
    if not set(map(type, labels)) <= {str}:
        labels = list(map(str, labels))
    data = "\n".join(labels).encode()
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    if len(ends) == len(labels) - 1:
        lengths = np.diff(ends, prepend=-1, append=len(data)) - 1
        return lengths.astype("<u8"), data.replace(b"\n", b"")
    encoded = [label.encode() for label in labels]
    return np.fromiter(map(len, encoded), dtype="<u8", count=len(encoded)), b"".join(encoded)


def label_codes(labels) -> np.ndarray:
    """Integer code of each label: the rank of its ``str()`` among the
    distinct labels in sorted order."""
    labels = np.asarray(labels)
    texts = labels.tolist()
    try:
        joined = "".join(texts)
    except TypeError:  # a label that is not a string
        texts = list(map(str, texts))
        joined = "".join(texts)
    if "\x00" in joined:
        # numpy's fixed-width text drops a trailing NUL, which would give "1"
        # and "1\x00" one code; such labels are ranked as Python strings.
        return np.unique(np.array(texts, dtype=object), return_inverse=True)[1]
    return np.unique(labels.astype(str), return_inverse=True)[1]


def tuple_codes(columns) -> np.ndarray:
    """Integer code of each row of the label ``columns``: the rank of its
    tuple of labels among the distinct tuples in sorted order, compared
    column by column, each column in :func:`label_codes`' order.

    One column gives its :func:`label_codes`; zero columns, as a ``(0, n)``
    array, give all zeros.
    """
    coded = [label_codes(column) for column in columns]
    if not coded:
        return np.zeros(np.shape(columns)[1], dtype=np.intp)
    codes = coded[0]
    for column in coded[1:]:
        # Both codes are below n, so the mixed-radix key is below n**2.
        codes = np.unique(codes * (column.max(initial=0) + 1) + column, return_inverse=True)[1]
    return codes


def row_faults(entry, exit_, *blocks) -> tuple[np.ndarray, np.ndarray]:
    """The rows that break a cohort's interval rules, as two masks.

    ``nonfinite``: the entry or exit time, or a value in one of the ``(n, k)``
    ``blocks``, is not finite.  ``misordered``: a finite row whose entry
    time is not before its exit time.
    """
    finite = np.isfinite(entry) & np.isfinite(exit_)
    for block in blocks:
        cells = np.isfinite(block)
        if not cells.all():  # a reduction per row is slow; most blocks need none
            finite &= cells.all(axis=1)
    return ~finite, finite & ~(entry < exit_)


def refuse_faults(values: str, entry, exit_, *blocks) -> None:
    """Raise :class:`ValidationError` for the first :func:`row_faults` rule
    that a row breaks; ``values`` names what a non-finite row holds."""
    for rows, rule in zip(row_faults(entry, exit_, *blocks),
                          (f"with a non-finite {values}",
                           "whose entry time is not before the exit time")):
        if rows.any():
            raise ValidationError(f"{rows.sum()} row(s) {rule}")


def event_flags(event) -> np.ndarray:
    """``event`` as booleans: 0 and 1 of any dtype are read as False and True,
    and any other value raises :class:`ValidationError`."""
    event = np.asarray(event)
    if event.dtype != bool:
        if not np.isin(event, (0, 1)).all():
            raise ValidationError("event indicators must be 0 or 1 (or False or True)")
        event = event == 1
    return event


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
    (comma or tab) is auto-detected from the header line.  Records follow
    the csv module's rules; while the text holds no quote and no CR they are
    the lines split at the delimiter, and the loader splits them itself.
    Cells are stripped of surrounding whitespace.  Blank lines are skipped
    but still counted in data row numbers.  The event column must contain
    only ``0`` or ``1``.  Rows with a missing exposure or covariate cell are
    rejected (counted, warned about), not imputed.  On a bad file the error
    is the first bad row's, in file order.

    Raises
    ------
    SchemaError
        If a schema column is absent from the header or appears in it more
        than once.
    ParseError
        If a row has fewer fields than the header, a cell cannot be parsed or
        is not finite (``nan``, ``inf``), or a subject id is empty; the error
        names the data row and, for a cell, the column.  Also if a cell is
        longer than ``csv.field_size_limit()`` characters (the error names the
        data row), or the file is not UTF-8 text.
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
        width = len(header)
        chunks, n_rejected, row = [], 0, 0
        try:
            for chunk in _row_chunks(fh, delimiter, width):
                columns, n_missing = _parse_chunk(chunk, row, width, positions, schema)
                chunks.append(columns)
                n_rejected += n_missing
                row += len(chunk.full)
        except csv.Error as exc:  # a field longer than csv.field_size_limit()
            raise ParseError(f"{exc} at data row {row + 1}", row=row + 1) from None
    if not chunks:
        chunks.append(_parse_chunk(_record_chunk([], width), 0, width, positions, schema)[0])
    return chunks, n_rejected


# A chunk of data rows: ``full`` flags the rows with at least the header's
# width of fields, ``column(j)`` gives field ``j`` of every full row and
# ``record(i)`` the fields of row ``i``.
_Chunk = namedtuple("_Chunk", "column full record")


def _row_chunks(fh, delimiter: str, width: int):
    """The data rows of ``fh``, ``_CHUNK_ROWS`` lines or records at a time.

    Rows are read and turned into columns a chunk at a time, so that the
    memory a chunk takes is bounded.  In text without a quote or a CR, csv's
    records are the lines split at the delimiter: a chunk whose lines all
    have the header's width, and none more characters than csv's field size
    limit, is split in one pass and sliced into columns.  Other chunks go
    through ``csv.reader``, and from the first chunk with a quote or a CR on
    csv reads the rest of the file, since a quoted field may span lines.
    """
    limit = csv.field_size_limit()
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        text = "".join(lines)
        if '"' in text or "\r" in text:
            reader = csv.reader(itertools.chain(lines, fh), delimiter=delimiter)
            yield from _record_chunks(reader, width)
            return
        if (max(map(len, lines)) <= limit
                and set(map(str.count, lines, itertools.repeat(delimiter))) == {width - 1}):
            yield _line_chunk(text, lines, delimiter, width)
        else:
            yield from _record_chunks(csv.reader(lines, delimiter=delimiter), width)


def _record_chunks(reader, width: int):
    """The chunks of ``reader``'s records.

    csv's error for a field longer than its field size limit is raised after
    the chunk of the records before it, so that an earlier bad row's error
    wins.
    """
    while True:
        records = []
        try:
            records.extend(itertools.islice(reader, _CHUNK_ROWS))
        except csv.Error:
            # extend kept the records read before the failing one.
            yield _record_chunk(records, width)
            raise
        if not records:
            return
        yield _record_chunk(records, width)


def _line_chunk(text: str, lines: list[str], delimiter: str, width: int) -> _Chunk:
    """The chunk of ``lines``, each ``width`` fields, whose concatenation is ``text``."""
    n = len(lines)
    fields = text.replace("\n", delimiter).split(delimiter)
    return _Chunk(lambda j: fields[j:n * width:width], np.ones(n, dtype=bool),
                  lambda i: lines[i].rstrip("\n").split(delimiter))


def _record_chunk(records: list[list[str]], width: int) -> _Chunk:
    full = np.fromiter(map(len, records), dtype=int, count=len(records)) >= width
    rows = records if full.all() else list(itertools.compress(records, full))
    return _Chunk((list(zip(*rows)) or [()] * width).__getitem__, full, records.__getitem__)


def _parse_chunk(chunk: _Chunk, row: int, width: int, positions: dict[str, int],
                 schema: Schema):
    """The :class:`Dataset` columns of the good rows of ``chunk``, which
    follows data row ``row``, and how many rows were rejected for a missing cell.

    A row is kept as parsed unless it is short or one of its checks fails;
    those rows alone go through the row rules, in file order, so a bad file
    raises the first bad row's error and blank or missing rows are dropped.
    """
    full = chunk.full
    n = int(np.count_nonzero(full))

    def column(name):
        return chunk.column(positions[name])

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
        status = _check_row(chunk.record(i), row + int(i) + 1, width, positions, schema)
        n_missing += status == "missing"
        keep[i] = status is None
    keep = keep[full]
    n_exposures = len(schema.exposure_columns)
    return (subject_ids[keep], entry[keep], exit_[keep], event[keep] == 1,
            values[keep, :n_exposures], values[keep, n_exposures:], strata[keep]), n_missing


def _chunk_columns(dataset: Dataset, rows: slice) -> tuple[list, bool]:
    """The columns of ``rows`` of ``dataset``'s canonical CSV records, as
    sequences of their fields, and whether a label needs csv to write it."""
    s = dataset.schema

    def floats(column):
        return map(repr, np.asarray(column[rows], dtype=float).tolist())

    labels = [dataset.subject_ids[rows].tolist()]
    labels += [list(map(str, dataset.strata[rows, j].tolist()))
               for j in range(dataset.strata.shape[1])]
    columns = labels[:1]
    if s.entry_column is not None:
        columns.append(floats(dataset.entry))
    columns.append(floats(dataset.exit))
    columns.append(np.where(dataset.event[rows], "1", "0").tolist())
    columns += [floats(block[:, j]) for block in (dataset.exposures, dataset.covariates)
                for j in range(block.shape[1])]
    columns += labels[1:]
    return columns, any(map(_needs_quoting, labels))


def _needs_quoting(labels: list) -> bool:
    try:
        text = "".join(labels)
    except TypeError:  # a non-string label: leave its text to csv
        return True
    return any(c in text for c in ',"\r\n')


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset back to CSV so that a reload reproduces it exactly.

    The file is written ``_CHUNK_ROWS`` rows at a time, so the text held in
    memory at once does not grow with the cohort.  A cohort whose schema
    names no entry column is refused with a :class:`ValidationError` unless
    every entry time is +0.0, since the file would not hold them: a reload
    starts every interval at +0.0, and even a -0.0 changes the fingerprint.
    """
    entry = dataset.entry
    if dataset.schema.entry_column is None and (entry.any() or np.signbit(entry).any()):
        signed = np.count_nonzero(np.signbit(entry) & (entry == 0))
        raise ValidationError(
            f"cannot save {np.count_nonzero(entry) + signed} row(s) whose entry time is "
            f"not 0: the schema names no entry column to hold it"
            + (f" ({signed} hold -0.0, which would reload as 0.0)" if signed else ""))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(dataset.schema.all_columns())
        for start in range(0, len(dataset), _CHUNK_ROWS):
            columns, quoting = _chunk_columns(dataset, slice(start, start + _CHUNK_ROWS))
            # csv quotes a field for a delimiter, quote or line break in it,
            # which float and event text never holds; unless some label of
            # the chunk does, or is not a string, its rows are joined without
            # csv's per-field scan.
            if quoting:
                writer.writerows(zip(*columns))
            else:
                fh.write("".join(map("%s\n".__mod__, map(",".join, zip(*columns)))))


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


def _stratum_name(labels: list) -> str:
    """A stratum's name: ``str()`` of its one label, or of each of its labels
    joined by "|", with a "\\" before each "\\" and "|" in a label, so that
    two strata never share a name."""
    if len(labels) == 1:
        return str(labels[0])
    return "|".join(str(label).replace("\\", "\\\\").replace("|", "\\|") for label in labels)


def validate(dataset: Dataset) -> ValidationReport:
    """Run advisory checks on a dataset and report findings.

    Pure (never mutates the dataset) and report-style: nothing is raised
    here.  Checks: within-subject interval overlap, event count per stratum,
    and constant (zero-variance) exposure/covariate columns.  The rules a fit
    needs (finite cells, entry before exit, 0/1 event flags) are the
    :class:`Dataset`'s own: no cohort that breaks them can be built.
    """
    checks: list[CheckResult] = []

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
    silent = list(map(_stratum_name, dataset.strata[first[seen][events[seen] == 0]].tolist()))
    checks.append(CheckResult(
        "stratum_events", not silent,
        "every stratum contains at least one event" if not silent
        else f"{len(silent)} non-informative stratum/strata (no events)",
        tuple(silent),
    ))

    names = dataset.schema.exposure_columns + dataset.schema.covariate_columns
    spans = np.concatenate([np.ptp(block, axis=0) for block in
                            (dataset.exposures, dataset.covariates)]) if len(dataset) else []
    constant = [names[j] for j in np.flatnonzero(np.equal(spans, 0))]
    checks.append(CheckResult(
        "constant_columns", not constant,
        "no constant exposure/covariate columns" if not constant
        else f"constant column(s): {', '.join(constant)}",
        tuple(constant),
    ))

    return ValidationReport(tuple(checks))
