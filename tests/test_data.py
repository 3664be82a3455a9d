import csv
import io
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
from dupcox.errors import DataError, ParseError, SchemaError, ValidationError
from oracles import (
    CohortRow,
    dataset_from_rows,
    fingerprint_by_labels,
    load_dataset_by_rows,
    overlapping_subjects,
    serialize_by_rows,
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


class TestValidate:
    def test_clean_dataset_passes_all_checks(self, four_row_dataset):
        report = dc.validate(four_row_dataset)
        assert report.all_passed
        assert {c.name for c in report.checks} == {
            "finite_values", "interval_ordering", "subject_overlap", "stratum_events",
            "constant_columns",
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

    def test_non_finite_values_flagged(self, four_row_dataset):
        ds = replace(four_row_dataset,
                     exit=np.array([20.0, np.nan, 17.0, 21.0]),
                     covariates=np.array([[1.0], [1.0], [0.0], [np.inf]]))
        report = dc.validate(ds)
        assert not report.all_passed
        check = report["finite_values"]
        assert not check.passed
        assert check.offenders == ("2", "4")
        assert check.detail.endswith("column(s): time, L1")

    def test_interval_ordering_counts_finite_rows(self, four_row_dataset):
        # A row with a non-finite time is a finite_values offender alone.
        ds = replace(four_row_dataset,
                     entry=np.array([20.0, 1.0, np.inf, 30.0]),
                     exit=np.array([20.0, 19.0, 17.0, 21.0]))
        report = dc.validate(ds)
        assert report["finite_values"].offenders == ("3",)
        assert report["interval_ordering"].offenders == ("1", "4")
        assert report["interval_ordering"].detail == "2 interval(s) with entry >= exit"

    def test_validate_is_pure(self, four_row_dataset):
        before = four_row_dataset.fingerprint()
        dc.validate(four_row_dataset)
        assert four_row_dataset.fingerprint() == before


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
    ], ids=["ascii", "non-ascii", "mixed", "integer-ids"])
    def test_equals_per_label_reference(self, ids, strata):
        ds = replace(_delayed_entry_cohort(), subject_ids=np.array(ids, dtype=object),
                     strata=np.array(strata, dtype=object))
        assert ds.fingerprint() == fingerprint_by_labels(ds)

    def test_label_boundaries_are_hashed(self):
        ds = _delayed_entry_cohort()
        ids = np.array(["1", "23", "x", "y"], dtype=object)
        shifted = np.array(["12", "3", "x", "y"], dtype=object)
        assert (replace(ds, subject_ids=ids).fingerprint()
                != replace(ds, subject_ids=shifted).fingerprint())
