"""File-based workflow: CSV in, JSON report out, via the command line.

Writes a synthetic cohort to CSV, validates it, builds a JSON run config,
and drives the `dupcox compare` entry point exactly as a shell user would.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import dupcox as dc

workdir = Path(tempfile.mkdtemp(prefix="dupcox_demo_"))

config = dc.SimConfig(
    n_subjects=400,
    exposure_correlation=0.6,
    true_beta=(0.5, 0.1),
    covariate_effects=(0.3,),
    censoring_rate=0.3,
    n_strata=3,
    replicate_count=1,
    master_seed=20240906,
)
cohort_path = workdir / "cohort.csv"
dc.save_dataset(dc.simulate_cohort(config, 0), cohort_path)
print(f"wrote {cohort_path} "
      f"({config.n_subjects} subjects, columns id/time/event/A1/A2/L1/stratum)")

schema = dc.Schema(id_column="id", exit_column="time", event_column="event",
                   exposure_columns=("A1", "A2"), covariate_columns=("L1",),
                   strata_columns=("stratum",))
checks = dc.validate(dc.load_dataset(cohort_path, schema))
print("validation:", "all checks pass" if checks.all_passed
      else [c.detail for c in checks.checks if not c.passed])

run_config = {
    "input": str(cohort_path),
    "schema": {
        "id": "id", "exit": "time", "event": "event",
        "exposures": ["A1", "A2"], "covariates": ["L1"], "strata": ["stratum"],
    },
    "exposure": {"kind": "categorical", "levels": 5},
    "output": str(workdir / "report.json"),
    "format": "machine",
    "seed": 1,
}
config_path = workdir / "compare.json"
config_path.write_text(json.dumps(run_config, indent=2), encoding="utf-8")

print(f"\n$ dupcox compare --config {config_path}\n")
proc = subprocess.run(
    [sys.executable, "-m", "dupcox.cli", "compare", "--config", str(config_path)],
    capture_output=True, text=True,
)
print(proc.stdout)
print(f"exit status: {proc.returncode}")

report = json.loads((workdir / "report.json").read_text())
test = report["report"]["difference_test"]
print(f"machine report: df = {test['df']}, p = {test['p_value']:.3g}, "
      f"config hash {report['config_hash'][:12]}...")
sys.exit(proc.returncode)
