import csv
import dataclasses
import json
import random
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dupcox as dc
from dupcox.cli import _build_fit_options, _build_sim_config, main
from dupcox.errors import ConfigError


@pytest.fixture
def cohort_csv(tmp_path):
    cfg = dc.SimConfig(n_subjects=220, exposure_correlation=0.5,
                       true_beta=(0.5, 0.1), covariate_effects=(0.3,),
                       censoring_rate=0.3, n_strata=2, replicate_count=1,
                       master_seed=314)
    path = tmp_path / "cohort.csv"
    dc.save_dataset(dc.simulate_cohort(cfg, 0), path)
    return path


def edited_csv(source, path, edit):
    """A copy of the CSV ``source`` at ``path``, each row (a dict) passed through ``edit``."""
    with open(source, encoding="utf-8", newline="") as fh:
        rows = [edit(row) for row in csv.DictReader(fh)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def compare_config(cohort_csv, tmp_path, **exposure):
    return {
        "input": str(cohort_csv),
        "schema": {
            "id": "id", "exit": "time", "event": "event",
            "exposures": ["A1", "A2"], "covariates": ["L1"],
            "strata": ["stratum"],
        },
        "exposure": exposure or {"kind": "continuous"},
        "output": str(tmp_path / "report.json"),
        "format": "machine",
        "seed": 7,
    }


class TestCompareCommand:
    def test_quintile_run_reports_df_four(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path, kind="categorical", levels=5)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "Q5" in out and "Difference" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["difference_test"]["df"] == 4
        assert report["tool"]["name"] == "dupcox"
        assert report["seed"] == 7
        assert len(report["config_hash"]) == 64

    def test_identical_exposures_p_near_one(self, tmp_path, capsys):
        cfg_sim = dc.SimConfig(n_subjects=150, exposure_correlation=1.0,
                               true_beta=(0.4, 0.4), censoring_rate=0.2,
                               replicate_count=1, master_seed=99)
        csv = tmp_path / "dup.csv"
        dc.save_dataset(dc.simulate_cohort(cfg_sim, 0), csv)
        doc = compare_config(csv, tmp_path)
        doc["schema"]["covariates"] = []
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["difference_test"]["p_value"] > 0.99

    def test_missing_exposure_column_exits_one(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["exposure"]["columns"] = ["A1", "A9"]
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1
        assert "A9" in capsys.readouterr().err

    def test_unknown_config_key_exits_one(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["extranous"] = 1
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: unknown key(s) ['extranous']")

    @pytest.mark.parametrize("fmt", ["Machine", "json", ""])
    def test_unknown_format_exits_one(self, tmp_path, cohort_csv, capsys, fmt):
        doc = compare_config(cohort_csv, tmp_path)
        doc["format"] = fmt
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'format'" in err
        assert not (tmp_path / "report.json").exists()

    def test_command_mismatch_exits_one(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["command"] = "simulate"
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1

    def test_missing_input_file_exits_two(self, tmp_path, capsys):
        doc = compare_config(tmp_path / "nope.csv", tmp_path)
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 2

    def test_non_utf8_input_exits_two(self, tmp_path, cohort_csv, capsys):
        raw = cohort_csv.read_bytes()
        second_row = raw.index(b"\n", raw.index(b"\n") + 1) + 1
        cohort_csv.write_bytes(raw[:second_row] + b"\xff" + raw[second_row:])
        cfg = write_config(tmp_path, compare_config(cohort_csv, tmp_path))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_directory_input_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, compare_config(tmp_path, tmp_path))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot read input file {tmp_path}: ")
        assert "Traceback" not in err

    def test_non_utf8_config_exits_one(self, tmp_path, cohort_csv, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(compare_config(cohort_csv, tmp_path)).encode() + b"\xff")
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not UTF-8 text")

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "absent.json"
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {cfg}: ")

    def test_invalid_json_exits_one(self, tmp_path, cohort_csv, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(compare_config(cohort_csv, tmp_path))[:-1], encoding="utf-8")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: config file {cfg} is not valid JSON: ")

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"seed": ' + "1" * 5000 + "}", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not valid JSON: Exceeds")
        assert "Traceback" not in err

    def test_config_that_is_not_a_key_value_block_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ["compare"])
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: config: expected a key/value block\n"

    def test_block_that_is_not_a_key_value_block_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TestSimulateCommand().simulate_config(tmp_path)
                           | {"simulation": ["n_subjects"]})
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == ("config error: config: 'simulation' must be "
                                           "a key/value block, got [\"n_subjects\"]\n")

    def test_non_finite_cell_exits_two(self, tmp_path, cohort_csv, capsys):
        lines = cohort_csv.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[1] = "nan"  # exit time of data row 3
        lines[3] = ",".join(cells)
        cohort_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, compare_config(cohort_csv, tmp_path))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "'time'" in err and "row 3" in err
        assert "Traceback" not in err

    def test_cell_over_field_limit_exits_two(self, tmp_path, cohort_csv, capsys):
        lines = cohort_csv.read_text(encoding="utf-8").splitlines()
        lines[2] = "x" * 200_000 + lines[2][lines[2].index(","):]  # id of data row 2
        cohort_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, compare_config(cohort_csv, tmp_path))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "field limit" in err and "data row 2" in err and "Traceback" not in err

    def test_quoted_crlf_and_cr_input_give_the_same_report(self, tmp_path, capsys):
        # The demo cohort is split at the delimiter; its copies with every
        # field quoted, with CRLF and with CR line ends are read by csv.  (Cells
        # are stripped, so CRLF lines split at the delimiter would read the
        # same; CR lines would not.)
        repo = Path(__file__).resolve().parents[1]
        demo = repo / "demos" / "data" / "synthetic_cohort.csv"
        lines = demo.read_text(encoding="utf-8").splitlines()
        quoted = tmp_path / "quoted.csv"
        with open(quoted, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                csv.reader(lines))
        copies = [demo, quoted]
        for name, end in (("crlf", "\r\n"), ("cr", "\r")):
            copies.append(tmp_path / f"{name}.csv")
            copies[-1].write_bytes((end.join(lines) + end).encode("utf-8"))
        cfg = repo / "demos" / "configs" / "compare_continuous.json"
        reports = []
        for path in copies:
            out = tmp_path / f"{path.stem}.json"
            assert main(["compare", "--config", str(cfg), "--input", str(path),
                         "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text())["report"])
        capsys.readouterr()
        assert all(report == reports[0] for report in reports[1:])

    def test_run_without_output_prints_and_writes_no_file(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        del doc["output"]
        cfg = write_config(tmp_path, doc)
        files = sorted(tmp_path.iterdir())
        assert main(["compare", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# dupcox ") and "Difference" in out
        assert sorted(tmp_path.iterdir()) == files

    def test_validation_warning_goes_to_stderr(self, tmp_path, cohort_csv, capsys):
        silent = edited_csv(cohort_csv, tmp_path / "silent.csv", lambda row: row | {
            "event": "0" if row["stratum"] == "s1" else row["event"]})
        cfg = write_config(tmp_path, compare_config(silent, tmp_path))
        assert main(["compare", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("warning: stratum_events: "
                                "1 non-informative stratum/strata (no events)\n")
        assert "warning" not in captured.out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["fit"]["converged"] is True

    def test_human_format_writes_table(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["format"] = "human"
        doc["output"] = str(tmp_path / "report.txt")
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "Continuous" in text and "# dupcox" in text

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_gradient_tolerance_exits_one(self, tmp_path, cohort_csv, capsys, value):
        # json writes and reads these as Infinity and NaN.
        doc = compare_config(cohort_csv, tmp_path) | {"fit": {"gradient_tolerance": value}}
        cfg = write_config(tmp_path, doc)
        for command in ("compare", "fit"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: gradient_tolerance must be a finite number > 0")
            assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_scale_exits_one(self, tmp_path, cohort_csv, capsys, value):
        cfg = write_config(tmp_path, compare_config(cohort_csv, tmp_path, scale=value))
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: scale must be a finite number > 0")
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("exposure", [
        {"kind": "categorical", "levels": 5, "scale": "p5-p95"},
        {"kind": "continuous", "scale": "p5-p95"},
        {"confidence": 1.5},
    ], ids=["categorical-scale", "continuous-scale", "confidence"])
    def test_scale_and_confidence_are_checked_before_the_cohort_is_read(
            self, tmp_path, capsys, exposure):
        doc = compare_config(tmp_path / "missing.csv", tmp_path, **exposure)
        cfg = write_config(tmp_path, doc)
        for command in ("compare", "fit"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: "), err
            assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("lines, covariates, exposure, code, message", [
        # A1 is 1 on row 8 alone, so its 10th and 90th percentiles are both 0.
        (["id,time,event,A1,A2"] + [f"{i},{i},{i % 2},{int(i == 8)},{i % 5}"
                                    for i in range(1, 21)],
         [], {"scale": "p10-p90"}, 1,
         "config error: [design] exposure 'A1' has a zero 10th-to-90th percentile increment"),
        # A covariate cell of 1e200 is finite, but its square in the
        # information is not.
        (["id,time,event,A1,A2,L1"] + [f"{i},{i},{i % 2},{i % 3},{i % 5},{i % 7}"
                                       for i in range(1, 21)] + ["21,21,1,1,2,1e200"],
         ["L1"], {}, 2, "data error: [fit] information matrix is not positive definite"),
    ], ids=["zero-width-scale", "covariate-overflow"])
    def test_cohort_the_compare_refuses(self, tmp_path, capsys, lines, covariates, exposure,
                                        code, message):
        path = tmp_path / "cohort.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = compare_config(path, tmp_path, **exposure)
        doc["schema"] |= {"covariates": covariates, "strata": []}
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == code
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(message), err
        assert not (tmp_path / "report.json").exists()

    def test_hazard_ratio_beyond_float_range_reads_na(self, tmp_path, capsys):
        # The demo cohort's exposures in units of 1e-4: e to the coefficient
        # is past float range, so the table reads NA and the JSON null.
        demo = Path(__file__).resolve().parents[1] / "demos" / "data" / "synthetic_cohort.csv"
        fine = edited_csv(demo, tmp_path / "fine.csv", lambda row: {
            **row, "A1": repr(float(row["A1"]) * 1e-4), "A2": repr(float(row["A2"]) * 1e-4)})
        doc = compare_config(fine, tmp_path)
        doc["format"] = "human"
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        table = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in table if line.startswith("A")] == [
            ["A1", "NA"], ["A2", "NA"]]
        doc["format"] = "machine"
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["difference_test"]["p_value"] < 0.05
        for exposure in report["exposures"]:
            assert [term["hazard_ratio"] for term in exposure["terms"]] == [None]

    def test_constant_covariate_is_reported_aliased(self, tmp_path, capsys):
        # A covariate constant over the cohort is aliased, as main term and
        # interaction, and the compare still reports a difference test.  Each
        # column is centred on its stratum's midpoint, so such a column is
        # exactly 0; centred on its mean, 250.19 left rounding noise that the
        # fit refused as not positive definite.
        lines = ["id,time,event,A1,A2,L1,g"] + [
            f"{i},{i},{i % 2},{i % 3},{i * 7 % 11},250.19,{i % 4 // 2}" for i in range(1, 41)]
        path = tmp_path / "constant.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = compare_config(path, tmp_path)
        doc["schema"]["strata"] = ["g"]
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["fit"]["aliased"] == ["L1", "L1:A_type2"]
        assert report["difference_test"] is not None


    @pytest.mark.parametrize("exposure", [
        {"kind": "categorical", "levels": 5},
        {"kind": "trend", "levels": 4, "scale": "p10-p90"},
        {"kind": "continuous", "scale": "p10-p90"},
    ], ids=["quintiles", "trend", "continuous"])
    def test_row_split_invariance(self, tmp_path, capsys, exposure):
        # The demo cohort with an entry column of 0, and a copy in which each
        # subject with A1 > 0.5 has its follow-up cut into three (entry, exit]
        # rows at random times, the event on the last row: the partial
        # likelihood is the same.  Quantiles are taken over one value per
        # subject and distinct value, so every report float outside
        # "dataset" agrees within 1e-10 relative.
        demo = Path(__file__).resolve().parents[1] / "demos" / "data" / "synthetic_cohort.csv"
        with open(demo, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rng = random.Random(22)
        plain, split = [], []
        for row in rows:
            row = dict(row, entry="0")
            plain.append(row)
            if float(row["A1"]) <= 0.5:
                split.append(row)
                continue
            cuts = [0.0, *sorted(rng.uniform(0.0, float(row["time"])) for _ in range(2))]
            ends = [*map(repr, cuts[1:]), row["time"]]
            for k, (entry, end) in enumerate(zip(cuts, ends)):
                split.append(dict(row, entry=repr(entry), time=end,
                                  event=row["event"] if k == 2 else "0"))
        assert len(split) > len(plain)
        schema = {"id": "id", "entry": "entry", "exit": "time", "event": "event",
                  "exposures": ["A1", "A2"], "covariates": ["L1"], "strata": ["stratum"]}
        cfg = write_config(tmp_path, {"schema": schema, "exposure": exposure,
                                      "format": "machine"})
        reports = []
        for name, table in (("plain", plain), ("split", split)):
            path = tmp_path / f"{name}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, list(plain[0]), lineterminator="\n")
                writer.writeheader()
                writer.writerows(table)
            out = tmp_path / f"{name}.out"
            assert main(["compare", "--config", str(cfg), "--input", str(path),
                         "--output", str(out)]) == 0
            report = json.loads(out.read_text())["report"]
            del report["dataset"]
            reports.append(dict(report_floats(report, "report")))
        capsys.readouterr()
        plain, split = reports
        assert plain.keys() == split.keys()
        for path, a in plain.items():
            b = split[path]
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b)), (path, a, b)


def report_floats(value, path):
    """Each float of a report's JSON, by its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from report_floats(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from report_floats(item, f"{path}[{i}]")
    elif isinstance(value, float):
        yield path, value


class TestFitCommand:
    def test_fit_prints_coefficient_table(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["output"] = str(tmp_path / "fit.json")
        cfg = write_config(tmp_path, doc)
        assert main(["fit", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "Exposures:A_type2" in out
        assert "log partial likelihood" in out
        fitdoc = json.loads((tmp_path / "fit.json").read_text())
        assert fitdoc["converged"] is True
        names = [c["term"] for c in fitdoc["coefficients"]]
        assert names == ["Exposures", "L1", "Exposures:A_type2", "L1:A_type2"]

    def test_aliased_column_is_reported(self, tmp_path, cohort_csv, capsys):
        copied = edited_csv(cohort_csv, tmp_path / "copied.csv", lambda row: row | {
            "L2": row["L1"]})
        doc = compare_config(copied, tmp_path)
        doc["schema"]["covariates"] = ["L1", "L2"]
        doc["format"] = "human"
        doc["output"] = str(tmp_path / "fit.txt")
        cfg = write_config(tmp_path, doc)
        assert main(["fit", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert [line.split() for line in lines if line.startswith("L2")] == [
            ["L2", "aliased"], ["L2:A_type2", "aliased"]]
        assert (tmp_path / "fit.txt").read_text() == out
        assert main(["fit", "--config", str(cfg), "--format", "machine"]) == 0
        fitdoc = json.loads((tmp_path / "fit.txt").read_text())
        assert [(c["term"], c["aliased"], c["coefficient"] is None)
                for c in fitdoc["coefficients"]] == [
            ("Exposures", False, False), ("L1", False, False), ("L2", True, True),
            ("Exposures:A_type2", False, False), ("L1:A_type2", False, False),
            ("L2:A_type2", True, True)]

    def test_diagnostics_message_is_printed_and_exits_three(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path) | {"fit": {"max_iterations": 1}}
        doc["output"] = str(tmp_path / "fit.json")
        cfg = write_config(tmp_path, doc)
        assert main(["fit", "--config", str(cfg)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("converged: NO (1 iterations); strata used: 4")
        assert lines[-1] == "no convergence in 1 iterations"
        fitdoc = json.loads((tmp_path / "fit.json").read_text())
        assert fitdoc["converged"] is False and fitdoc["iterations"] == 1


class TestSimulateCommand:
    def simulate_config(self, tmp_path, **overrides):
        doc = {
            "simulation": {
                "n_subjects": 100,
                "exposure_correlation": 0.5,
                "true_beta": [0.4, 0.4],
                "censoring_rate": 0.2,
                "replicate_count": 10,
                "alpha": 0.05,
            },
            "output": str(tmp_path / "sim.json"),
            "format": "machine",
            "seed": 11,
        }
        doc["simulation"].update(overrides)
        return doc

    def test_null_scenario_reports_rate_and_ci(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path))
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "rejection rate" in out
        doc = json.loads((tmp_path / "sim.json").read_text())
        assert doc["result"]["scenario"] == "type1"
        assert doc["result"]["n_replicates"] == 10
        assert len(doc["result"]["mc_ci"]) == 2

    def test_failure_reasons_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(
            tmp_path, n_subjects=15, exposure_correlation=0.3, true_beta=[1.5, 0.2],
            covariate_effects=[0.3], censoring_rate=0.5, n_strata=2, replicate_count=60)
            | {"seed": 5, "format": "human"})
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "failed fits by reason: probable_separation 16\n" in out
        assert "scenario valid: NO (failure fraction > 2%)\n" in out
        assert main(["simulate", "--config", str(cfg), "--format", "machine"]) == 0
        reasons = json.loads((tmp_path / "sim.json").read_text())["result"]["failure_reasons"]
        assert reasons == dict.fromkeys(dc.simlab.FAILURE_REASONS, 0) | {
            "probable_separation": 16}

    def test_include_naive_reports_the_naive_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path, include_naive=True))
        assert main(["simulate", "--config", str(cfg)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        rate = json.loads((tmp_path / "sim.json").read_text())["result"]["naive_rejection_rate"]
        assert last == f"naive (uncorrelated z) rejection rate: {rate:.4f}"

    def test_every_replicate_failing_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path, n_subjects=2))
        assert main(["simulate", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: all 10 replicates failed to fit\n"
        assert captured.out == ""
        assert not (tmp_path / "sim.json").exists()

    def test_seed_repetition_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path))
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = (tmp_path / "sim.json").read_bytes()
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "sim.json").read_bytes() == first

    def test_zero_replicates_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path, replicate_count=0))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "replicate_count" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_n_subjects_past_numpy_sizes_exits_one(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path, n_subjects=n))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: n_subjects must be < 2**63\n"

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path) | {"seed": -1})
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: master_seed must be >= 0, got -1\n"
        cfg = write_config(tmp_path, self.simulate_config(tmp_path))
        assert main(["simulate", "--config", str(cfg), "--seed", "-2"]) == 1
        assert capsys.readouterr().err.startswith("config error: master_seed must be >= 0")

    @pytest.mark.parametrize("key, value", [("true_beta", [0.4, float("nan")]),
                                            ("covariate_effects", [float("inf")])])
    def test_non_finite_effect_exits_one(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path, **{key: value}))
        assert main(["simulate", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be finite")
        assert "Traceback" not in err

    def test_power_scenario_detected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(
            tmp_path, true_beta=[0.8, 0.0], n_subjects=200))
        assert main(["simulate", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "sim.json").read_text())
        assert doc["result"]["scenario"] == "power"

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.simulate_config(tmp_path))
        main(["simulate", "--config", str(cfg)])
        base = json.loads((tmp_path / "sim.json").read_text())
        main(["simulate", "--config", str(cfg), "--seed", "12"])
        bumped = json.loads((tmp_path / "sim.json").read_text())
        assert bumped["seed"] == 12
        assert bumped["config_hash"] != base["config_hash"]


class TestConfigDefaults:
    REQUIRED = {"n_subjects": 50, "exposure_correlation": 0.3, "true_beta": [0.2, 0.2],
                "replicate_count": 4}

    def test_empty_fit_block_gives_fit_option_defaults(self):
        assert _build_fit_options({}) == dc.FitOptions()
        assert _build_fit_options(None) == dc.FitOptions()
        assert _build_fit_options({"ties": "breslow"}) == dc.FitOptions(tie_method="breslow")
        assert _build_fit_options({"max_iterations": 7, "gradient_tolerance": 1e-6}) == \
            dc.FitOptions(max_iterations=7, gradient_tolerance=1e-6)
        with pytest.raises(ConfigError, match=r"fit: unknown key\(s\) \['step_halvings'\]"):
            _build_fit_options({"ties": "breslow", "step_halvings": 3})

    def test_required_simulation_keys_give_sim_config_defaults(self):
        built = _build_sim_config(dict(self.REQUIRED), None)
        assert built == dc.SimConfig(n_subjects=50, exposure_correlation=0.3,
                                     true_beta=(0.2, 0.2), replicate_count=4)
        for f in dataclasses.fields(dc.SimConfig):
            if f.name not in self.REQUIRED:
                assert getattr(built, f.name) == f.default, f.name
        assert _build_sim_config(dict(self.REQUIRED, n_strata=3), 9) == dc.SimConfig(
            n_subjects=50, exposure_correlation=0.3, true_beta=(0.2, 0.2),
            replicate_count=4, n_strata=3, master_seed=9)

    def test_simulation_block_key_errors(self):
        for key in self.REQUIRED:
            block = {k: v for k, v in self.REQUIRED.items() if k != key}
            with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
                _build_sim_config(block, None)
        with pytest.raises(ConfigError, match="master_seed"):
            _build_sim_config(dict(self.REQUIRED, master_seed=1), None)

    def test_empty_fit_block_reports_like_no_fit_block(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        bare = json.loads((tmp_path / "report.json").read_text())["report"]
        doc["fit"] = {}
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        empty = json.loads((tmp_path / "report.json").read_text())["report"]
        assert empty == bare
        assert empty["fit"]["gradient_tolerance"] == dc.FitOptions().gradient_tolerance


class TestConfigTypes:
    """A value of the wrong JSON type is a config error naming its block and key."""

    @pytest.mark.parametrize("block, key, value", [
        ("exposure", "confidence", "0.9"),
        ("exposure", "levels", "5"),
        ("exposure", "levels", 5.5),
        ("exposure", "levels", True),
        ("exposure", "reference", "1"),
        ("exposure", "scale", [1]),
        ("exposure", "columns", ["A1", 2]),
        ("fit", "max_iterations", "10"),
        ("fit", "gradient_tolerance", "x"),
        ("schema", "exposures", "A1,A2"),
        ("config", "seed", "abc"),
        ("config", "fit", [1]),
    ])
    def test_compare_exits_one(self, tmp_path, cohort_csv, capsys, block, key, value):
        doc = compare_config(cohort_csv, tmp_path, kind="categorical", levels=5)
        (doc if block == "config" else doc.setdefault(block, {}))[key] = value
        cfg = write_config(tmp_path, doc)
        for command in ("compare", "fit"):
            assert main([command, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {block}: {key!r} must be ")
            assert "Traceback" not in err

    @pytest.mark.parametrize("block, key", [("fit", "gradient_tolerance"),
                                            ("exposure", "confidence"), ("exposure", "scale")])
    def test_an_integer_past_float_range_is_no_number(self, tmp_path, cohort_csv, capsys,
                                                      block, key):
        doc = compare_config(cohort_csv, tmp_path)
        doc.setdefault(block, {})[key] = 10**400
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}: {key!r} must be a number")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("true_beta", ["a", "b"]),
        ("n_subjects", "400"),
        ("n_subjects", 400.0),
        ("alpha", "0.05"),
        ("n_strata", 2.5),
        ("include_naive", "yes"),
        ("include_naive", 1),
        ("censoring_rate", False),
        ("seed", "abc"),
    ])
    def test_simulate_exits_one(self, tmp_path, capsys, key, value):
        doc = TestSimulateCommand().simulate_config(tmp_path)
        block = "config" if key == "seed" else "simulation"
        (doc if block == "config" else doc[block])[key] = value
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}: {key!r} must be ")
        assert "Traceback" not in err

    def test_message_names_the_expected_type(self, tmp_path, capsys):
        doc = TestSimulateCommand().simulate_config(tmp_path)
        doc["simulation"]["true_beta"] = [0.4, "0.4"]
        assert main(["simulate", "--config", str(write_config(tmp_path, doc))]) == 1
        assert capsys.readouterr().err == (
            "config error: simulation: 'true_beta' must be a list of numbers, "
            "got [0.4, \"0.4\"]\n")

    def test_null_is_like_leaving_an_optional_key_out(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        bare = json.loads((tmp_path / "report.json").read_text())["report"]
        doc["exposure"] = {"kind": None, "levels": None, "reference": None,
                           "scale": None, "confidence": None, "columns": None}
        doc["schema"]["entry"] = None
        doc["fit"] = {"ties": None, "max_iterations": None, "gradient_tolerance": None}
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["report"] == bare
        doc["exposure"] = doc["fit"] = None
        assert main(["compare", "--config", str(write_config(tmp_path, doc))]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["report"] == bare

        sim = TestSimulateCommand().simulate_config(tmp_path)
        del sim["simulation"]["alpha"], sim["simulation"]["censoring_rate"]
        assert main(["simulate", "--config", str(write_config(tmp_path, sim))]) == 0
        bare = json.loads((tmp_path / "sim.json").read_text())["result"]
        sim["simulation"].update(dict.fromkeys(
            ("alpha", "include_naive", "covariate_effects", "censoring_rate", "n_strata")))
        assert main(["simulate", "--config", str(write_config(tmp_path, sim))]) == 0
        assert json.loads((tmp_path / "sim.json").read_text())["result"] == bare

    def test_required_key_may_come_from_the_command_line(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        del doc["input"]
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "config error: config is missing required key 'input'\n"
        assert main(["compare", "--config", str(cfg), "--input", str(cohort_csv)]) == 0
        del doc["schema"]
        assert main(["compare", "--config", str(write_config(tmp_path, doc)),
                     "--input", str(cohort_csv)]) == 1
        assert "missing required key 'schema'" in capsys.readouterr().err


def test_import_loads_no_scipy(tmp_path):
    # A fresh interpreter, so that modules other tests imported do not count.
    # scipy is blocked before dupcox is imported, so an import of it, at
    # module level or on the compare or simulate path, fails the probe.  The
    # configs read demos/data/synthetic_cohort.csv relative to the working
    # directory.
    repo = Path(__file__).resolve().parents[1]
    (tmp_path / "demos" / "data").mkdir(parents=True)
    shutil.copy(repo / "demos" / "data" / "synthetic_cohort.csv", tmp_path / "demos" / "data")
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        sys.path.insert(0, sys.argv[1])
        from dupcox import cli
        runs = [("compare", "compare_continuous"), ("compare", "compare_quintiles"),
                ("simulate", "simulate_null")]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main([command, "--config", f"{sys.argv[2]}/{name}.json"])
                     for command, name in runs]
        print(json.dumps(codes))
    """)
    done = subprocess.run(
        [sys.executable, "-c", probe, str(Path(dc.__file__).parents[1]),
         str(repo / "demos" / "configs")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, 0, 0], done.stderr
