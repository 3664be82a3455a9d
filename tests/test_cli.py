import dataclasses
import json
import subprocess
import sys
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
        assert "extranous" in capsys.readouterr().err

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

    def test_human_format_writes_table(self, tmp_path, cohort_csv, capsys):
        doc = compare_config(cohort_csv, tmp_path)
        doc["format"] = "human"
        doc["output"] = str(tmp_path / "report.txt")
        cfg = write_config(tmp_path, doc)
        assert main(["compare", "--config", str(cfg)]) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "Continuous" in text and "# dupcox" in text


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


def test_import_loads_no_scipy():
    # A fresh interpreter, so that modules other tests imported do not count.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import dupcox, dupcox.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe, str(Path(dc.__file__).parents[1])],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
