"""Time saving, loading and comparing one cohort of a million subjects.

The cohort is ``simulate_cohort(SimConfig(n, rho=0.7, beta=(0.5, 0.3),
gamma=(0.2, -0.1), n_strata=4, master_seed=1), 0)``, compared as two
continuous exposures.  The script simulates it, writes it with
``save_dataset`` to a CSV file in a temporary directory, reads it back with
``load_dataset``, and runs ``compare_exposures`` on the simulated and then on
the loaded cohort.  One JSON line gives each step's wall time and the
process's peak RSS after it, and for each compare the seconds of its engine
set-up (``_setup_s``), of its likelihood evaluations (``_evaluate_s``, with
their count) and of its sandwich (``_sandwich_s``), timed by wrappers that
this script alone installs.  With ``--compare-only`` the script skips the
file and compares the simulated cohort alone, so the peak RSS is that of a
process that only simulates and compares.  The exit code is 1 if the loaded
cohort differs from the saved one or a fit did not converge.

    PYTHONPATH=src python scripts/scale_1m.py --n 1000000
    PYTHONPATH=src python scripts/scale_1m.py --n 1000000 --compare-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import dupcox
from dupcox import cox


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def timed(owner, name: str, totals: dict) -> None:
    """Wrap ``owner.name`` so that each call adds its wall time and a count
    to ``totals[name]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            totals[name][0] += time.perf_counter() - start
            totals[name][1] += 1

    setattr(owner, name, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000, help="subjects in the cohort")
    parser.add_argument("--compare-only", action="store_true",
                        help="compare the simulated cohort alone, without saving or loading it")
    args = parser.parse_args(argv)
    config = dupcox.SimConfig(
        n_subjects=args.n, exposure_correlation=0.7, true_beta=(0.5, 0.3),
        covariate_effects=(0.2, -0.1), n_strata=4, replicate_count=1, master_seed=1,
    )
    spec = config.exposure_spec()
    line = {"n": args.n}

    def step(name, call):
        start = time.perf_counter()
        result = call()
        line[f"{name}_s"] = round(time.perf_counter() - start, 3)
        line[f"{name}_peak_rss_mb"] = peak_rss_mb()
        return result

    cohort = step("simulate", lambda: dupcox.simulate_cohort(config, 0))
    cohorts = [("simulated", cohort)]
    if not args.compare_only:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            step("save", lambda: dupcox.save_dataset(cohort, path))
            line["csv_bytes"] = path.stat().st_size
            loaded = step("load", lambda: dupcox.load_dataset(path, cohort.schema))
        cohorts.append(("loaded", loaded))
    totals = {}
    timed(cox._Engine, "__init__", totals)
    timed(cox._Engine, "evaluate", totals)
    timed(cox, "_sandwich", totals)
    fits = []
    for name, data in cohorts:
        totals.update(__init__=[0.0, 0], evaluate=[0.0, 0], _sandwich=[0.0, 0])
        fits.append(step(f"compare_{name}", lambda: dupcox.compare_exposures(data, spec)).fit)
        line[f"compare_{name}_setup_s"] = round(totals["__init__"][0], 3)
        line[f"compare_{name}_evaluate_s"] = round(totals["evaluate"][0], 3)
        line[f"compare_{name}_evaluations"] = totals["evaluate"][1]
        line[f"compare_{name}_sandwich_s"] = round(totals["_sandwich"][0], 3)
    if not args.compare_only:
        line["same_cohort"] = cohorts[1][1] == cohort
    line["iterations"] = [fit.iterations for fit in fits]
    line["converged"] = all(fit.converged for fit in fits)
    print(json.dumps(line), flush=True)
    return 0 if line.get("same_cohort", True) and line["converged"] else 1


if __name__ == "__main__":
    sys.exit(main())
