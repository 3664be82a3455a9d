"""``dupcox compare --format machine`` reproduces its checked-in reports.

``golden/`` holds the machine JSON of the two demo compare configs, each run
from a directory that holds ``demos/data/synthetic_cohort.csv``, so the
config's relative input and output paths, and hence its hash, are the
config's own.  A report must match: every non-float value exactly, every
float to 1e-12 relative.  A refactor that claims "same answers" keeps these
files unchanged.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

from dupcox.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FLOAT_REL = 1e-12


def assert_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("config, report", [
    ("compare_continuous.json", "continuous_report.json"),
    ("compare_quintiles.json", "quintile_report.json"),
])
def test_demo_compare_matches_golden_report(config, report, tmp_path, monkeypatch, capsys):
    data = tmp_path / "demos" / "data"
    data.mkdir(parents=True)
    shutil.copy(REPO / "demos" / "data" / "synthetic_cohort.csv", data)
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--config", str(REPO / "demos" / "configs" / config)]) == 0
    got = json.loads((tmp_path / report).read_text(encoding="utf-8"))
    want = json.loads((GOLDEN / report).read_text(encoding="utf-8"))
    assert_matches(got, want)


def test_comparison_ignores_float_noise_only():
    want = {"a": [1, 0.5, None, "x", True]}
    assert_matches({"a": [1, 0.5 * (1 + 1e-13), None, "x", True]}, want)
    for bad in ({"a": [1, 0.5 * (1 + 1e-11), None, "x", True]},
                {"a": [1.0, 0.5, None, "x", True]},
                {"a": [1, 0.5, None, "y", True]},
                {"a": [1, 0.5, None, "x", 1]},
                {"a": [1, 0.5, None, "x"]}):
        with pytest.raises(AssertionError):
            assert_matches(bad, want)
