import csv
import io
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
from dupcox import data
from dupcox.errors import DataError, ParseError, SchemaError, ValidationError
from oracles import (
    CohortRow,
    dataset_from_rows,
    fingerprint_by_labels,
    label_tuple_codes,
    load_dataset_by_rows,
    overlapping_subjects,
    serialize_by_rows,
    stratum_name_by_labels,
    strata_without_events,
)

DEMO_COHORT = Path(__file__).resolve().parents[1] / "demos" / "data" / "synthetic_cohort.csv"


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="distinct"):
            dc.Schema(id_column="id", exit_column="id", event_column="y",
                      exposure_columns=("a", "b"))

    def test_single_exposure_rejected(self):
        with pytest.raises(SchemaError, match="two exposure"):
            dc.Schema(id_column="id", exit_column="t", event_column="y",
                      exposure_columns=("a",))


    @pytest.mark.parametrize("columns", ["AB", {"A", "B"}], ids=["str", "set"])
    @pytest.mark.parametrize("name", ["exposure_columns", "covariate_columns", "strata_columns"])
    def test_column_names_that_are_not_a_sequence_are_refused(self, name, columns):
        names = dict(exposure_columns=("a", "b")) | {name: columns}
        with pytest.raises(SchemaError, match=rf"^{name} must be a sequence of names, "):
            dc.Schema(id_column="id", exit_column="t", event_column="y", **names)


class TestLoad:
    def test_four_row_example(self, four_row_dataset):
        ds = four_row_dataset
        assert len(ds) == 4
        assert ds.subject_ids.tolist() == ["1", "2", "3", "4"]
        assert ds.exposure("A").tolist() == [1.0, 0.0, 1.0, 0.0]
        assert ds.exposure("Aprime").tolist() == [1.0, 1.0, 1.0, 0.0]
        assert ds.event.tolist() == [True, False, False, False]
        assert ds.exit.tolist() == [20.0, 19.0, 17.0, 21.0]
        assert ds.entry.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_empty_file_refused(self, tmp_path, four_row_schema):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(SchemaError, match="empty.csv: file is empty, expected a header row"):
            dc.load_dataset(path, four_row_schema)

    def test_header_only_file(self, tmp_path, four_row_schema):
        path = tmp_path / "empty.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n", encoding="utf-8")
        ds = dc.load_dataset(path, four_row_schema)
        assert len(ds) == 0

    def test_unparseable_cell_cites_row_and_column(self, tmp_path, four_row_schema):
        path = tmp_path / "bad.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n1,1,1,1,20,1\n2,0,1,0,abc,1\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="row 2") as err:
            dc.load_dataset(path, four_row_schema)
        assert err.value.row == 2
        assert err.value.column == "time"

    @pytest.mark.parametrize("column, text", [
        ("A", "nan"), ("time", "inf"), ("L1", "-inf"), ("time", "NaN"),
    ])
    def test_non_finite_cell_cites_row_and_column(self, tmp_path, four_row_schema,
                                                  column, text):
        header = ["id", "A", "Aprime", "Y", "time", "L1"]
        bad = dict(zip(header, ["2", "0", "1", "0", "19", "1"]), **{column: text})
        path = tmp_path / "nonfinite.csv"
        path.write_text(",".join(header) + "\n1,1,1,1,20,1\n"
                        + ",".join(bad[h] for h in header) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite .* row 2") as err:
            dc.load_dataset(path, four_row_schema)
        assert err.value.row == 2
        assert err.value.column == column

    def test_non_finite_entry_rejected(self, tmp_path):
        schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                           event_column="y", exposure_columns=("a", "b"))
        path = tmp_path / "entry.csv"
        path.write_text("id,t0,t1,y,a,b\ns1,0,3,1,0,1\ns2,nan,3,1,0,0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="column 't0' at data row 2"):
            dc.load_dataset(path, schema)

    def test_missing_column_named(self, tmp_path, four_row_schema):
        path = tmp_path / "short.csv"
        path.write_text("id,A,Y,time,L1\n1,1,1,20,1\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="Aprime"):
            dc.load_dataset(path, four_row_schema)

    def test_entry_after_exit_names_subject(self, tmp_path):
        schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                           event_column="y", exposure_columns=("a", "b"))
        path = tmp_path / "rev.csv"
        path.write_text("id,t0,t1,y,a,b\ns7,5,3,1,0,0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="s7"):
            dc.load_dataset(path, schema)

    def test_event_strings_rejected(self, tmp_path, four_row_schema):
        path = tmp_path / "ev.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n1,1,1,true,20,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="0 or 1"):
            dc.load_dataset(path, four_row_schema)

    def test_missing_values_rejected_with_count(self, tmp_path, four_row_schema):
        path = tmp_path / "miss.csv"
        path.write_text(
            "id,A,Aprime,Y,time,L1\n1,1,1,1,20,1\n2,,1,0,19,1\n3,1,1,0,17,\n",
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="rejected 2 row"):
            ds = dc.load_dataset(path, four_row_schema)
        assert len(ds) == 1
        assert ds.n_rejected_missing == 2

    def test_short_row_cites_row(self, tmp_path, four_row_schema):
        path = tmp_path / "short_row.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n1,1,1,1,20,1\n2,0,1,0,19\n", encoding="utf-8")
        with pytest.raises(ParseError, match="data row 2 has 5 fields, expected 6") as err:
            dc.load_dataset(path, four_row_schema)
        assert err.value.row == 2

    def test_blank_lines_count_in_row_numbers(self, tmp_path, four_row_schema):
        path = tmp_path / "blank.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n1,1,1,1,20,1\n\n  \n2,0,1,0,abc,1\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="at data row 4") as err:
            dc.load_dataset(path, four_row_schema)
        assert err.value.row == 4

    def test_empty_id_cites_id_column(self, tmp_path, four_row_schema):
        path = tmp_path / "noid.csv"
        path.write_text("id,A,Aprime,Y,time,L1\n1,1,1,1,20,1\n ,0,1,0,19,1\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="empty subject id at data row 2") as err:
            dc.load_dataset(path, four_row_schema)
        assert (err.value.row, err.value.column) == (2, "id")

    def test_first_bad_row_wins(self, tmp_path):
        schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                           event_column="y", exposure_columns=("a", "b"))
        path = tmp_path / "two_bad.csv"
        path.write_text("id,t0,t1,y,a,b\ns1,0,3,1,0,1\ns2,0,3,yes,0,0\ns3,5,3,1,0,0\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="got 'yes' at data row 2") as err:
            dc.load_dataset(path, schema)
        assert (err.value.row, err.value.column) == (2, "y")

    def test_duplicated_header_column_rejected(self, tmp_path):
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"))
        path = tmp_path / "dup.csv"
        path.write_text("id,t,y,a,b,a\n1,1,1,0.5,0,0.1\n2,2,0,0.1,1,0.5\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="column 'a' appears 2 times"):
            dc.load_dataset(path, schema)

    def test_byte_order_mark_ignored(self, tmp_path, four_row_path, four_row_schema):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + four_row_path.read_bytes())
        ds, plain = (dc.load_dataset(p, four_row_schema) for p in (path, four_row_path))
        assert ds == plain
        assert ds.fingerprint() == plain.fingerprint()

    def test_non_utf8_bytes_are_a_parse_error(self, tmp_path, four_row_path, four_row_schema):
        path = tmp_path / "latin.csv"
        path.write_bytes(four_row_path.read_bytes().replace(b"\n3,", b"\n\xff3,"))
        with pytest.raises(ParseError, match=r"latin\.csv: not UTF-8 text \(invalid start byte\)"):
            dc.load_dataset(path, four_row_schema)

    def test_directory_input_is_an_os_error(self, tmp_path, four_row_schema):
        # load_dataset leaves OS failures to the caller; the CLI maps them to DataError.
        with pytest.raises(IsADirectoryError):
            dc.load_dataset(tmp_path, four_row_schema)

    def test_tab_delimiter_autodetected(self, tmp_path, four_row_schema):
        rows = [line.replace(",", "\t")
                for line in ("id,A,Aprime,Y,time,L1", "1,1,1,1,20,1", "2,0,1,0,19,1")]
        path = tmp_path / "cohort.tsv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        ds = dc.load_dataset(path, four_row_schema)
        assert len(ds) == 2


class TestRoundTrip:
    def test_load_save_load_identical(self, four_row_dataset, tmp_path, four_row_schema):
        out = tmp_path / "again.csv"
        dc.save_dataset(four_row_dataset, out)
        again = dc.load_dataset(out, four_row_schema)
        assert again == four_row_dataset
        assert again.fingerprint() == four_row_dataset.fingerprint()

    def test_roundtrip_with_entry_and_strata(self, tmp_path):
        schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                           event_column="y", exposure_columns=("a", "b"),
                           strata_columns=("g",))
        path = tmp_path / "in.csv"
        path.write_text(
            "id,t0,t1,y,a,b,g\nu1,0.5,2.25,1,0.125,3.5,young\nu2,0,9,0,1,2,old\n",
            encoding="utf-8",
        )
        ds = dc.load_dataset(path, schema)
        out = tmp_path / "out.csv"
        dc.save_dataset(ds, out)
        assert dc.load_dataset(out, schema) == ds


# Cells for generated cohort files.  Good cells load, or reject their row when
# an exposure or covariate is empty; every good entry time is before every
# good exit time.  Bad cells raise unless their row is rejected first.
_GOOD = {
    "number": ["0", "1", "2.5", "-0.25", "1e3", " 3 ", "\t4", "\x1f5", "1_0", "", "  "],
    "entry": ["0", "0.5", " 1 "],
    "exit": ["2", "3.5", " 4", "1_0"],
    "event": ["0", "1", " 1 "],
    "id": ["s1", "s2", " s3 ", "a,b", 'q"x'],
    "label": ["x", "y", " z ", "", "a,b"],
}
_BAD = {
    "number": ["abc", "nan", "inf", "-inf"],
    "entry": ["5", "abc", "nan", ""],
    "exit": ["0", "abc", "inf", ""],
    "event": ["true", "2", ""],
    "id": ["", "  "],
    "label": [],
}


@st.composite
def _cohort_files(draw):
    """A schema and the text of a cohort file for it, blank and bad lines included."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    schema = dc.Schema(
        id_column="id", exit_column="t1", event_column="y", exposure_columns=("a", "b"),
        entry_column="t0" if draw(st.booleans()) else None,
        covariate_columns=("c",)[:draw(st.integers(0, 1))],
        strata_columns=("g", "h")[:draw(st.integers(0, 2))],
    )
    header = draw(st.permutations(schema.all_columns() + ["extra"]))
    kinds = {"id": "id", "t0": "entry", "t1": "exit", "y": "event", "g": "label",
             "h": "label", "extra": "label"}
    bad_weight = draw(st.sampled_from([0, 1]))
    pools = {kind: _GOOD[kind] * 3 + _BAD[kind] * bad_weight for kind in _GOOD}
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "delimiters",
                                                    "short", "long"]))
        record = [draw(st.sampled_from(pools[kinds.get(name, "number")])) for name in header]
        if shape == "blank":
            buf.write("\n")
        elif shape == "spaces":
            buf.write("   \n")
        elif shape == "delimiters":
            buf.write(delimiter * (len(header) - 1) + "\n")
        elif shape == "short":
            writer.writerow(record[:draw(st.integers(1, len(record) - 1))])
        else:
            writer.writerow(record + ["zz"] if shape == "long" else record)
    return schema, buf.getvalue()


def _load_outcome(loader, path, schema):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = loader(path, schema)
        except DataError as exc:
            return "raised", (type(exc), str(exc), getattr(exc, "row", None),
                              getattr(exc, "column", None))
    return ds, [str(w.message) for w in caught]


class TestLoaderParity:
    """The columnar loader against the row-by-row reference in ``oracles``."""

    @given(_cohort_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_loader(self, tmp_path_factory, cohort):
        schema, text = cohort
        path = tmp_path_factory.mktemp("parity") / "cohort.csv"
        path.write_text(text, encoding="utf-8")
        got, got_detail = _load_outcome(dc.load_dataset, path, schema)
        want, want_detail = _load_outcome(load_dataset_by_rows, path, schema)
        assert got_detail == want_detail
        if isinstance(want, dc.Dataset):
            assert got == want
            assert got.n_rejected_missing == want.n_rejected_missing
            for name in ("subject_ids", "entry", "exit", "event", "exposures",
                         "covariates", "strata"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.flags.c_contiguous) == \
                    (b.dtype, b.shape, b.flags.c_contiguous)
        else:
            assert got == want

    @staticmethod
    def _long_file(tmp_path, edits):
        """A 9000-row cohort file, longer than one parsing chunk, with
        ``edits`` (data row number -> line) replacing some rows."""
        schema = dc.Schema(id_column="id", exit_column="t", event_column="e",
                           exposure_columns=("A", "B"), covariate_columns=("L",),
                           strata_columns=("g",))
        lines = ["id,t,e,A,B,L,g"]
        for row in range(1, 9001):
            lines.append(edits.get(row, f"{row},{row % 7 + 1}.5,{row % 2},{row % 3},0.{row},"
                                        f"{row % 5},g{row % 4}"))
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, schema

    def test_rows_across_chunks(self, tmp_path):
        edits = {4095: "", 4096: "x,1,0,,1,1,g1", 4097: "y,1,1,1,1,,g1", 8192: " , , ",
                 8193: "z,2,1,1,1,1,g2"}
        path, schema = self._long_file(tmp_path, edits)
        got, got_detail = _load_outcome(dc.load_dataset, path, schema)
        want, want_detail = _load_outcome(load_dataset_by_rows, path, schema)
        assert got_detail == want_detail and got == want
        assert got.n_rejected_missing == want.n_rejected_missing == 2

    @pytest.mark.parametrize("bad_row", [4096, 4097, 8193, 9000])
    def test_first_bad_row_across_chunks(self, tmp_path, bad_row):
        path, schema = self._long_file(tmp_path, {bad_row: "x,1,2,1,1,1,g1",
                                                  bad_row - 1: "x,1,0,,1,1,g1"})
        got = _load_outcome(dc.load_dataset, path, schema)
        assert got == _load_outcome(load_dataset_by_rows, path, schema)
        assert got[1][2] == bad_row

    # Files longer than one parsing chunk: the loader splits lines at the
    # delimiter until the first chunk with a quote or a CR, and csv reads
    # the rest.

    @staticmethod
    def _assert_parity(path, schema, reference=None):
        """``load_dataset`` of ``path`` has the outcome of the row-by-row loader
        of ``reference`` (default ``path``); returns that outcome."""
        got, got_detail = _load_outcome(dc.load_dataset, path, schema)
        want, want_detail = _load_outcome(load_dataset_by_rows, reference or path, schema)
        assert got_detail == want_detail
        assert got == want
        if isinstance(want, dc.Dataset):
            assert got.n_rejected_missing == want.n_rejected_missing
            for name in ("subject_ids", "entry", "exit", "event", "exposures",
                         "covariates", "strata"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape, a.flags.c_contiguous) == \
                    (b.dtype, b.shape, b.flags.c_contiguous)
        return got, got_detail

    @staticmethod
    def _edit_lines(path, edit):
        """Rewrite ``path`` with ``edit`` applied to its lines, line ends kept;
        line ``r`` is data row ``r``."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_bytes("".join(edit(lines)).encode("utf-8"))

    @pytest.mark.parametrize("row", [4097, 5000, 9000])
    def test_first_quote_in_chunk_two(self, tmp_path, row):
        path, schema = self._long_file(tmp_path, {row: '"q,1",1.5,1,1,0.5,1,"g 1"',
                                                  row - 1: "y,1.5,1,1,,1,g1"})
        got, _ = self._assert_parity(path, schema)
        assert "q,1" in got.subject_ids.tolist() and got.n_rejected_missing == 1

    @pytest.mark.parametrize("bad_row", [None, 4097, 6000])
    def test_quoted_newline_straddles_chunk_boundary(self, tmp_path, bad_row):
        edits = {4096: '"a,\nb",1.5,1,1,0.5,1,g1'}
        if bad_row is not None:
            edits[bad_row] = "x,1,2,1,1,1,g1"
        path, schema = self._long_file(tmp_path, edits)
        got, detail = self._assert_parity(path, schema)
        if bad_row is None:
            assert got.subject_ids[4095] == "a,\nb"
        else:
            assert detail[2] == bad_row

    @pytest.mark.parametrize("bad_row", [None, 6000])
    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_carriage_returns_from_chunk_two(self, tmp_path, ending, bad_row):
        path, schema = self._long_file(tmp_path, {} if bad_row is None
                                       else {bad_row: "x,1,2,1,1,1,g1"})

        def edit(lines):
            if ending == "\r\n":
                return lines[:4097] + [line.replace("\n", "\r\n") for line in lines[4097:]]
            return lines[:5000] + [lines[5000].replace("\n", "\r")] + lines[5001:]

        self._edit_lines(path, edit)
        got, detail = self._assert_parity(path, schema)
        if bad_row is None:
            assert len(got) == 9000
        else:
            assert detail[2] == bad_row

    @pytest.mark.parametrize("last", [None, "x,1,2,1,1,1,g1", "x,1.5,1,1,,1,g1",
                                      '"q",1.5,1,1,0.5,1,g1', "x,1.5,1,1,0.5,1,g1,zz",
                                      "x,1.5,1"])
    def test_no_final_newline(self, tmp_path, last):
        path, schema = self._long_file(tmp_path, {} if last is None else {9000: last})
        path.write_bytes(path.read_bytes()[:-1])
        self._assert_parity(path, schema)

    def test_tab_delimited_with_byte_order_mark(self, tmp_path):
        path, schema = self._long_file(tmp_path, {4000: ""})

        def edit(lines):
            lines = [line.replace(",", "\t") for line in lines]
            lines[5000] = "a,b\t1.5\t1\t1\t0.5\t1\tg1\n"
            return lines

        self._edit_lines(path, edit)
        reference = tmp_path / "plain.tsv"
        reference.write_bytes(path.read_bytes())
        path.write_bytes(b"\xef\xbb\xbf" + reference.read_bytes())
        got, _ = self._assert_parity(path, schema, reference)
        assert got.subject_ids[4998] == "a,b" and len(got) == 8999

    @pytest.mark.parametrize("edits", [
        {4096: "x,1.5,1,1,0.5,1,g1,zz"},
        {4097: "x,1.5,1,1,0.5,1,g1,zz", 8193: "y,1.5,1,1,0.5,1,g1,,"},
        {4096: "", 4097: "   "},
        {4096: " \t ", 8192: "", 8193: ""},
        {4096: ",,,,,,", 4097: " , , ,,,,"},
        {4097: "x,1.5,1"},
        {4096: "", 4097: "x,1.5,1,1,0.5,1,g1,zz", 4098: "x,1.5,1"},
    ])
    def test_long_blank_and_short_rows_at_chunk_boundary(self, tmp_path, edits):
        path, schema = self._long_file(tmp_path, edits)
        self._assert_parity(path, schema)

    @pytest.mark.parametrize("row", [10, 5000])
    @pytest.mark.parametrize("line", ["n\x00l,1.5,1,1,0.5,1,g1", "x,1.5,1,1,0.5,1,g\x00",
                                      "x,1.5,1,1\x00,0.5,1,g1", "x,1.5,1,1_000,0.5,1,g1",
                                      "x,1.5,1,١٢,0.5,1,g1"])
    def test_unusual_cells(self, tmp_path, row, line):
        path, schema = self._long_file(tmp_path, {row: line})
        got, detail = self._assert_parity(path, schema)
        if "\x00," in line:
            assert detail[0] is ParseError and detail[2] == row
        else:
            assert got.exposure("A")[row - 1] == {"1_000": 1000.0, "١٢": 12.0}.get(
                line.split(",")[3], 1.0)

    @pytest.mark.parametrize("edits, bad_row", [
        ({10: "BIG"}, 10),
        ({5000: "BIG"}, 5000),
        ({4096: "BIG", 4097: '"q",1.5,1,1,0.5,1,g1'}, 4096),
        ({2: '"q",1.5,1,1,0.5,1,g1', 5000: "BIG"}, 5000),
        ({4100: "x,1,2,1,1,1,g1", 4200: "BIG"}, 4100),
        ({4100: "BIG", 4200: "x,1,2,1,1,1,g1"}, 4100),
    ])
    def test_cell_over_field_limit(self, tmp_path, edits, bad_row):
        # A 200 000-character id cell, beyond csv's default field size limit.
        big = "x" * 200_000 + ",1.5,1,1,0.5,1,g1"
        path, schema = self._long_file(
            tmp_path, {row: big if line == "BIG" else line for row, line in edits.items()})
        _, (kind, message, row, column) = self._assert_parity(path, schema)
        assert (kind, row) == (ParseError, bad_row)
        if edits[bad_row] == "BIG":
            assert message == f"field larger than field limit (131072) at data row {bad_row}"
            assert column is None


class TestSave:
    """``save_dataset`` writes the bytes of the row-by-row writer in ``oracles``."""

    def _assert_same_bytes(self, ds, tmp_path):
        dc.save_dataset(ds, tmp_path / "columns.csv")
        (tmp_path / "rows.csv").write_text(serialize_by_rows(ds), encoding="utf-8")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_demo_cohort(self, tmp_path):
        schema = dc.Schema(id_column="id", exit_column="time", event_column="event",
                           exposure_columns=("A1", "A2"), covariate_columns=("L1",),
                           strata_columns=("stratum",))
        self._assert_same_bytes(dc.load_dataset(DEMO_COHORT, schema), tmp_path)

    @pytest.mark.parametrize("ids, label", [
        (np.array([1, 2, 3, 4], dtype=object), "s1"),
        (np.array(["1", None, "3", "4"], dtype=object), "s1"),
        (np.array(["1", "2", "3", "4"], dtype=object), "s\r1"),
        (np.array(["1", "2", "3", "4"], dtype=object), "s\n1"),
        (np.array(["1", "2", "3", "4"], dtype=object), " s 1 "),
    ])
    def test_labels_csv_would_quote_or_convert(self, tmp_path, ids, label):
        ds = _delayed_entry_cohort()
        strata = ds.strata.copy()
        strata[0, 0] = label
        self._assert_same_bytes(replace(ds, subject_ids=ids, strata=strata), tmp_path)

    def test_left_truncated_cohort_with_quoted_id(self, tmp_path):
        ds = _delayed_entry_cohort()
        ds = replace(ds, subject_ids=np.array(['u,"1"', 'u,"1"', "u2", "u3"], dtype=object))
        self._assert_same_bytes(ds, tmp_path)
        assert dc.load_dataset(tmp_path / "columns.csv", ds.schema) == ds

    def test_entry_times_without_an_entry_column_are_refused(self, tmp_path):
        # The file would have no entry column, so a reload would start every
        # interval at 0.
        ds = _delayed_entry_cohort()
        ds = replace(ds, schema=replace(ds.schema, entry_column=None))
        path = tmp_path / "cohort.csv"
        with pytest.raises(ValidationError, match="^cannot save 3 row[(]s[)] whose entry time "
                                                  "is not 0: the schema names no entry column"):
            dc.save_dataset(ds, path)
        assert not path.exists()
        started = replace(ds, entry=np.zeros(4), exit=ds.exit + 1.0)
        dc.save_dataset(started, path)
        assert dc.load_dataset(path, started.schema) == started

    def test_a_negative_zero_entry_without_an_entry_column_is_refused(self, tmp_path):
        # A reload would read +0.0: equal to -0.0, but with another fingerprint.
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"))
        ds = dc.Dataset(schema, np.array(["1", "2"], dtype=object), np.array([-0.0, 0.0]),
                        np.array([1.0, 2.0]), np.array([True, False]), np.zeros((2, 2)),
                        np.zeros((2, 0)), np.empty((2, 0), dtype=object))
        path = tmp_path / "cohort.csv"
        with pytest.raises(ValidationError, match=r"^cannot save 1 row[(]s[)] whose entry time "
                                                  r"is not 0: .*[(]1 hold -0[.]0, which would "
                                                  r"reload as 0[.]0[)]$"):
            dc.save_dataset(ds, path)
        assert not path.exists()
        positive = replace(ds, entry=np.zeros(2))
        dc.save_dataset(positive, path)
        assert dc.load_dataset(path, schema).fingerprint() == positive.fingerprint()

    def test_each_chunk_quotes_on_its_own(self, tmp_path):
        # Chunk 1 needs no quoting, chunk 2 holds a quoted id and a stratum
        # label with a line break, chunk 3 a non-string id.
        ds = dc.simulate_cohort(dc.SimConfig(n_subjects=10_000, exposure_correlation=0.3,
                                             true_beta=(0.2, 0.1), n_strata=3), 0)
        chunk = data._CHUNK_ROWS
        assert len(ds) > 2 * chunk
        ids, strata = ds.subject_ids.copy(), ds.strata.copy()
        ids[chunk + 5] = 'q,"5"'
        strata[chunk + 9, 0] = "s\n9"
        ids[2 * chunk + 1] = 123456
        ds = replace(ds, subject_ids=ids, strata=strata)
        self._assert_same_bytes(ds, tmp_path)


class TestValidate:
    def test_clean_dataset_passes_all_checks(self, four_row_dataset):
        report = dc.validate(four_row_dataset)
        assert report.all_passed
        assert {c.name for c in report.checks} == {
            "subject_overlap", "stratum_events", "constant_columns",
        }

    def test_overlapping_intervals_flagged(self, four_row_schema):
        rows = [
            CohortRow("s1", 0.0, 5.0, False, {"A": 0, "Aprime": 0}, {"L1": 0}, {}),
            CohortRow("s1", 3.0, 8.0, True, {"A": 1, "Aprime": 1}, {"L1": 1}, {}),
        ]
        ds = dataset_from_rows(rows, four_row_schema)
        report = dc.validate(ds)
        check = report["subject_overlap"]
        assert not check.passed
        assert check.offenders == ("s1",)

    def test_overlap_nested_and_equal_entries(self, four_row_schema):
        # "n": (1,2) and (3,4) nested inside (0,10), given out of entry order;
        # "e": two intervals entering together; "ok": back-to-back intervals.
        intervals = [("ok", 1.0, 2.0), ("n", 3.0, 4.0), ("e", 0.0, 5.0), ("n", 1.0, 2.0),
                     ("ok", 0.0, 1.0), ("e", 0.0, 3.0), ("n", 0.0, 10.0)]
        rows = [CohortRow(sid, t0, t1, False, {"A": 0, "Aprime": 1}, {"L1": 0}, {})
                for sid, t0, t1 in intervals]
        check = dc.validate(dataset_from_rows(rows, four_row_schema))["subject_overlap"]
        assert not check.passed
        assert check.offenders == ("e", "n")
        assert check.detail == "overlapping intervals for 2 subject(s)"

    def test_overlap_matches_row_scan(self):
        schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                           event_column="y", exposure_columns=("a", "b"))
        rng = np.random.default_rng(404)
        for _ in range(50):
            n = 40
            ids = np.array([str(v) for v in rng.integers(0, 12, n)], dtype=object)
            entry = rng.integers(0, 8, n).astype(float)
            exit_ = entry + rng.integers(1, 4, n)
            ds = dc.Dataset(schema, ids, entry, exit_, np.zeros(n, dtype=bool),
                            np.zeros((n, 2)), np.zeros((n, 0)), np.empty((n, 0), dtype=object))
            assert dc.validate(ds)["subject_overlap"].offenders == \
                overlapping_subjects(ids, entry, exit_)

    def test_constant_column_flagged(self, four_row_schema):
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), i == 0,
                      {"A": float(i % 2), "Aprime": float(i % 2)}, {"L1": 1.0}, {})
            for i in range(4)
        ]
        ds = dataset_from_rows(rows, four_row_schema)
        report = dc.validate(ds)
        assert not report["constant_columns"].passed
        assert "L1" in report["constant_columns"].offenders

        # Constant times are not flagged; constant exposures and covariates
        # are, in schema order; an empty cohort has none.
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b", "c"), covariate_columns=("l1", "l2"))

        def cohort(n):
            x = np.arange(n, dtype=float)
            return dc.Dataset(schema, np.array([str(i) for i in range(n)], dtype=object),
                              np.zeros(n), np.full(n, 2.0), np.ones(n, dtype=bool),
                              np.column_stack([x, np.full(n, 3.0), x]),
                              np.column_stack([np.full(n, -1.0), x]),
                              np.empty((n, 0), dtype=object))

        check = dc.validate(cohort(6))["constant_columns"]
        assert check.offenders == ("b", "l1")
        assert check.detail == "constant column(s): b, l1"
        empty = dc.validate(cohort(0))["constant_columns"]
        assert empty.passed and empty.offenders == ()

    def test_eventless_stratum_flagged(self):
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"), strata_columns=("g",))
        rows = [
            CohortRow("1", 0.0, 1.0, True, {"a": 1, "b": 0}, {}, {"g": "x"}),
            CohortRow("2", 0.0, 2.0, False, {"a": 0, "b": 1}, {}, {"g": "y"}),
        ]
        report = dc.validate(dataset_from_rows(rows, schema))
        assert not report["stratum_events"].passed
        assert report["stratum_events"].offenders == ("y",)

    def test_eventless_strata_are_named_apart(self):
        # Joined by a bare "|", both strata would read 'a|b|c'.
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"), strata_columns=("g", "h"))
        strata = np.array([["a|b", "c"], ["a", "b|c"], ["a\\", "b"]], dtype=object)
        ds = dc.Dataset(schema, np.array(["1", "2", "3"], dtype=object), np.zeros(3),
                        np.ones(3), np.zeros(3, dtype=bool), np.zeros((3, 2)),
                        np.zeros((3, 0)), strata)
        check = dc.validate(ds)["stratum_events"]
        assert check.offenders == ("a\\|b|c", "a|b\\|c", "a\\\\|b")

    def test_eventless_strata_match_loop_over_1000_strata(self):
        rng = np.random.default_rng(31)
        n = 6000
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"), strata_columns=("g", "h"))
        code = rng.permutation(n) % 1000
        g, h = (code // 4).astype(str), (code % 4).astype(str)
        event = rng.uniform(size=n) < 0.5
        event[np.isin(g, ["7", "42", "199"])] = False
        ds = dc.Dataset(schema, np.arange(n).astype(str).astype(object), np.zeros(n),
                        rng.uniform(1, 2, size=n), event, rng.standard_normal((n, 2)),
                        np.zeros((n, 0)), np.column_stack([g, h]).astype(object))
        keys = ds.strata_keys()
        want = strata_without_events(keys, event)
        assert len(set(keys)) == 1000 and len(want) >= 12
        check = dc.validate(ds)["stratum_events"]
        assert check.offenders == want
        assert check.detail == f"{len(want)} non-informative stratum/strata (no events)"

    def test_validate_is_pure(self, four_row_dataset):
        before = four_row_dataset.fingerprint()
        dc.validate(four_row_dataset)
        assert four_row_dataset.fingerprint() == before


class _Tagged(str):
    """A label whose ``str()`` is not its characters: the fingerprint hashes
    ``str()`` of each label, so it must not join the characters."""

    def __str__(self):
        return "tag:" + super().__str__()


def _delayed_entry_cohort():
    """Three subjects, one with two intervals, delayed entry, two strata columns."""
    schema = dc.Schema(id_column="id", entry_column="t0", exit_column="t1",
                       event_column="y", exposure_columns=("a", "b"),
                       covariate_columns=("c",), strata_columns=("sex", "site"))
    return dc.Dataset(
        schema=schema,
        subject_ids=np.array(["u1", "u1", "u2", "u3"], dtype=object),
        entry=np.array([0.5, 1.25, 0.0, 0.1]),
        exit=np.array([1.25, 3.0, 2.0, 0.7]),
        event=np.array([False, True, False, True]),
        exposures=np.array([[0.1, 0.2], [0.1, 0.2], [1.5, -0.3], [0.0, 2.0]]),
        covariates=np.array([[1.0], [2.0], [0.0], [1.0 / 3.0]]),
        strata=np.array([["f", "north"], ["f", "north"], ["m", "south"], ["f", "é"]],
                        dtype=object),
    )


def _with_cell(ds, field, index, value):
    column = getattr(ds, field).copy()
    column[index] = value
    return replace(ds, **{field: column})


class TestEquality:
    @pytest.mark.parametrize("field, index, value", [
        ("subject_ids", 2, "u4"),
        ("entry", 3, 0.2),
        ("exit", 0, 1.3),
        ("event", 2, True),
        ("exposures", (1, 1), 0.25),
        ("covariates", (2, 0), 1e-300),
        ("strata", (0, 1), "south"),
    ])
    def test_a_change_in_one_column_makes_cohorts_unequal(self, field, index, value):
        ds = _delayed_entry_cohort()
        assert _with_cell(ds, field, index, value) != ds
        assert _with_cell(ds, field, index, value) == _with_cell(ds, field, index, value)

    def test_a_change_in_the_schema_makes_cohorts_unequal(self):
        ds = _delayed_entry_cohort()
        other = replace(ds, schema=replace(ds.schema, covariate_columns=("d",)))
        assert other != ds
        assert other == replace(ds, schema=replace(ds.schema, covariate_columns=("d",)))

    def test_every_compared_field_is_covered(self):
        covered = {"schema", "subject_ids", "entry", "exit", "event", "exposures",
                   "covariates", "strata"}
        assert {f.name for f in fields(dc.Dataset) if f.compare} == covered

    def test_rejected_row_count_is_ignored(self):
        ds = _delayed_entry_cohort()
        assert replace(ds, n_rejected_missing=3) == ds


# Labels that text joins or numpy's fixed-width text can confuse: "|", "\\",
# NUL (trailing and inner), non-ASCII, empty, and labels that are not str.
_LABELS = st.one_of(
    st.sampled_from(["", "|", "\\", "a|b", "a\\|", "1", "10", "1|0", "a\x00", "\x00a",
                     "a\x00b", "\x00", "é", "日本", None, 1, 10, -0.0, 2.5]),
    st.text(alphabet="ab|\\\x00é1", max_size=3),
    st.integers(-2, 12),
)


class TestLabelCodes:
    """Labels that differ get distinct stratum and subject codes, in the
    cohort and in its augmented and block designs."""

    @staticmethod
    def two_rows(ids, strata):
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"), strata_columns=("g", "h"))
        return dc.Dataset(schema, np.array(ids, dtype=object), np.zeros(2), np.array([1.0, 2.0]),
                          np.ones(2, dtype=bool), np.eye(2), np.zeros((2, 0)),
                          np.array(strata, dtype=object))

    @pytest.mark.parametrize("strata", [
        [["a|b", "c"], ["a", "b|c"]],  # both join to "a|b|c"
        [["g", "c"], ["g\x00", "c"]],  # fixed-width text drops a trailing NUL
        [["g", "c\x00"], ["g", "c"]],
    ], ids=["bar", "nul-first", "nul-last"])
    def test_stratum_tuples_that_join_to_one_key(self, strata):
        ds = self.two_rows(["1", "2"], strata)
        assert sorted(ds.stratum_codes.tolist()) == [0, 1]
        spec = dc.ExposureSpec(kind="continuous", source_columns=("a", "b"))
        augmented = dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)
        assert sorted(augmented.stratum_codes.tolist()) == [0, 1, 2, 3]

    @staticmethod
    def labelled(strata, event):
        """A cohort of ``strata``'s rows, with the given event flags."""
        n, k = strata.shape
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "b"),
                           strata_columns=tuple(f"g{j}" for j in range(k)))
        return dc.Dataset(schema, np.arange(n).astype(str).astype(object), np.zeros(n),
                          np.arange(1.0, n + 1), event,
                          np.column_stack([np.arange(n) % 3, np.arange(n) % 2]),
                          np.zeros((n, 0)), strata)

    def assert_labels_follow_the_rule(self, ds):
        rows = ds.strata.tolist()
        assert np.array_equal(ds.stratum_codes, label_tuple_codes(rows))
        assert ds.strata_keys().tolist() == list(map(stratum_name_by_labels, rows))
        keys = ds.strata_keys()
        assert dc.validate(ds)["stratum_events"].offenders == strata_without_events(keys, ds.event)
        spec = dc.ExposureSpec(kind="continuous", source_columns=("a", "b"))
        aug = dc.duplicate_augment(ds, spec)
        design = dc.build_design_matrix(aug, spec)
        assert np.array_equal(design.stratum_codes,
                              label_tuple_codes(zip(*aug.strata.T, aug.a_type)))

    @given(st.integers(0, 3).flatmap(lambda k: st.lists(
        st.lists(_LABELS, min_size=k, max_size=k), min_size=1, max_size=12)),
        st.data())
    @settings(max_examples=200, deadline=None)
    def test_codes_and_names_follow_the_label_rule(self, rows, data):
        strata = np.empty((len(rows), len(rows[0])), dtype=object)
        for (i, j), _ in np.ndenumerate(strata):
            strata[i, j] = rows[i][j]  # one cell at a time, so numpy casts no label
        event = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                                 max_size=len(rows))))
        event[0] = True
        self.assert_labels_follow_the_rule(self.labelled(strata, event))

    def test_a_label_that_prefixes_another_sorts_first(self):
        # Joined as text, "10|a" sorted before "1|a", since "0" < "|".
        strata = np.array([["1", "a"], ["10", "a"], ["1", "b"]], dtype=object)
        ds = self.labelled(strata, np.array([True, False, True]))
        assert ds.stratum_codes.tolist() == [0, 2, 1]
        assert ds.strata_keys().tolist() == ["1|a", "10|a", "1|b"]
        assert dc.validate(ds)["stratum_events"].offenders == ("10|a",)
        self.assert_labels_follow_the_rule(ds)

    def test_ids_that_differ_by_a_trailing_nul(self):
        ds = self.two_rows(["1", "1\x00"], [["g", "c"]] * 2)
        assert ds.subject_codes.tolist() == [0, 1]
        spec = dc.ExposureSpec(kind="continuous", source_columns=("a", "b"))
        assert dc.block_design(ds, spec).cluster_codes.tolist() == [0, 1]
        augmented = dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)
        assert augmented.cluster_codes.tolist() == [0, 1, 0, 1]



class TestShape:
    """A cohort whose columns do not line up with its rows or its schema."""

    @pytest.mark.parametrize("field, message", [
        ("entry", "column 'entry' has length != 4"),
        ("exit", "column 'exit' has length != 4"),
        ("event", "column 'event' has length != 4"),
        ("exposures", "column block 'exposures' has 3 rows != 4"),
        ("covariates", "column block 'covariates' has 3 rows != 4"),
        ("strata", "column block 'strata' has 3 rows != 4"),
    ])
    def test_a_column_with_a_row_too_few_is_refused(self, field, message):
        ds = _delayed_entry_cohort()
        with pytest.raises(ValidationError, match=re.escape(message)):
            replace(ds, **{field: getattr(ds, field)[:3]})

    @pytest.mark.parametrize("field, block", [("exposures", "exposure"),
                                              ("covariates", "covariate"),
                                              ("strata", "strata")])
    def test_a_block_wider_than_the_schema_is_refused(self, field, block):
        ds = _delayed_entry_cohort()
        column = getattr(ds, field)
        with pytest.raises(ValidationError,
                           match=f"^{block} block width does not match schema$"):
            replace(ds, **{field: np.concatenate([column, column[:, :1]], axis=1)})

    def test_a_block_of_one_dimension_is_refused(self):
        ds = _delayed_entry_cohort()
        with pytest.raises(ValidationError, match="^covariate block width does not match schema$"):
            replace(ds, covariates=ds.covariates[:, 0])


class TestRowRules:
    """Rows that no fit can use are refused when the cohort is built."""

    def test_non_finite_values_are_refused(self, four_row_dataset):
        with pytest.raises(ValidationError, match=r"^2 row\(s\) with a non-finite time, "
                                                  r"exposure or covariate value$"):
            replace(four_row_dataset,
                    exit=np.array([20.0, np.nan, 17.0, 21.0]),
                    covariates=np.array([[1.0], [1.0], [0.0], [np.inf]]))

    def test_misordered_intervals_are_refused(self, four_row_dataset):
        rule = r"row\(s\) whose entry time is not before the exit time$"
        with pytest.raises(ValidationError, match=rf"^2 {rule}"):
            replace(four_row_dataset, entry=np.array([20.0, 1.0, 2.0, 30.0]),
                    exit=np.array([20.0, 19.0, 17.0, 21.0]))
        # A row with a non-finite time breaks the finite rule alone.
        with pytest.raises(ValidationError, match=r"^1 row\(s\) with a non-finite time"):
            replace(four_row_dataset, entry=np.array([0.0, 1.0, np.inf, 2.0]))

    @pytest.mark.parametrize("flags", [[0, 1, 2, 1], [0.0, -1.0, 0.0, 1.0],
                                       [0.0, np.nan, 0.0, 1.0], ["0", "1", "0", "1"]],
                             ids=["two", "minus-one", "nan", "text"])
    def test_event_flags_other_than_0_or_1_are_refused(self, flags):
        with pytest.raises(ValidationError,
                           match=r"^event indicators must be 0 or 1 \(or False or True\)$"):
            replace(_delayed_entry_cohort(), event=np.array(flags))


class TestNumericColumns:
    """Times, exposures and covariates are float arrays, ids and strata object arrays."""

    @pytest.mark.parametrize("field", ["entry", "exit", "exposures", "covariates"])
    def test_a_cell_that_is_not_a_number_is_refused(self, field):
        ds = _delayed_entry_cohort()
        column = getattr(ds, field).astype(object)
        column.flat[1] = "abc"
        with pytest.raises(ValidationError, match=f"^column block '{field}' holds a value "
                                                  f"that is not a number$"):
            replace(ds, **{field: column})

    def test_lists_are_read_as_arrays(self):
        ds = _delayed_entry_cohort()
        lists = replace(ds, **{name: getattr(ds, name).tolist() for name in (
            "subject_ids", "entry", "exit", "event", "exposures", "covariates", "strata")})
        assert lists == ds
        assert lists.fingerprint() == ds.fingerprint()
        for name in ("entry", "exit", "exposures", "covariates"):
            assert getattr(lists, name).dtype == float
        assert lists.subject_ids.dtype == lists.strata.dtype == object
        assert lists.event.dtype == bool

    def test_float_columns_are_not_copied(self):
        ds = _delayed_entry_cohort()
        assert np.shares_memory(replace(ds).exposures, ds.exposures)


class TestFingerprint:
    def test_stable_across_save_and_load(self, tmp_path):
        ds = _delayed_entry_cohort()
        path = tmp_path / "cohort.csv"
        dc.save_dataset(ds, path)
        again = dc.load_dataset(path, ds.schema)
        assert again == ds
        assert again.fingerprint() == ds.fingerprint()
        assert re.fullmatch("[0-9a-f]{64}", ds.fingerprint())

    @pytest.mark.parametrize("field, index, value", [
        ("subject_ids", 2, "u4"),
        ("entry", 3, 0.2),
        ("exit", 0, 1.3),
        ("event", 2, True),
        ("exposures", (1, 1), 0.25),
        ("covariates", (2, 0), 1e-300),
        ("strata", (0, 1), "south"),
    ])
    def test_changes_with_any_single_cell(self, field, index, value):
        ds = _delayed_entry_cohort()
        assert _with_cell(ds, field, index, value).fingerprint() != ds.fingerprint()

    @pytest.mark.parametrize("ids, strata", [
        (["u1", "u1", "u2", "u3"], [["f", "north"], ["f", "north"], ["m", "south"], ["f", "s"]]),
        (["é", "é", "日本", "ü"], [["é", "日本"], ["é", "日本"], ["ß", "日"], ["é", "ø"]]),
        (["u1", "u1", "日本", "u3"], [["f", "north"], ["f", "north"], ["m", "south"], ["f", "é"]]),
        ([1, 1, 2, 30], [["f", "north"], ["f", "north"], ["m", "south"], ["f", "x"]]),
        ([np.str_("u1"), np.str_("u1"), np.str_("ü"), np.str_("u3")],
         [[np.str_("f"), "n"], [np.str_("f"), "n"], ["m", "s"], ["f", "s"]]),
        (["a\nb", "a\nb", "\n", "c"], [["f", "\n"], ["f", "\n"], ["m\n", "s"], ["f", "s"]]),
        (["", "", "x", ""], [["", ""], ["", ""], ["m", ""], ["", "s"]]),
        ([_Tagged("u1"), _Tagged("u1"), "u2", "u3"], [[_Tagged("f"), "n"], [_Tagged("f"), "n"],
                                                     ["m", "s"], ["f", "s"]]),
    ], ids=["ascii", "non-ascii", "mixed", "integer-ids", "numpy-str", "newlines", "empty",
            "str-subclass"])
    def test_equals_per_label_reference(self, ids, strata):
        ds = replace(_delayed_entry_cohort(), subject_ids=np.array(ids, dtype=object),
                     strata=np.array(strata, dtype=object))
        assert ds.fingerprint() == fingerprint_by_labels(ds)

    def test_empty_cohort_equals_per_label_reference(self):
        ds = _delayed_entry_cohort()
        empty = replace(ds, **{name: getattr(ds, name)[:0] for name in (
            "subject_ids", "entry", "exit", "event", "exposures", "covariates", "strata")})
        assert len(empty) == 0
        assert empty.fingerprint() == fingerprint_by_labels(empty)

    def test_label_boundaries_are_hashed(self):
        ds = _delayed_entry_cohort()
        ids = np.array(["1", "23", "x", "y"], dtype=object)
        shifted = np.array(["12", "3", "x", "y"], dtype=object)
        assert (replace(ds, subject_ids=ids).fingerprint()
                != replace(ds, subject_ids=shifted).fingerprint())
