"""Time saving, loading and comparing one cohort of a million subjects.

The cohort is ``simulate_cohort(SimConfig(n, rho=0.7, beta=(0.5, 0.3),
gamma=(0.2, -0.1), n_strata=4, master_seed=1), 0)``, compared as two
continuous exposures.  The script simulates it, writes it with
``save_dataset`` to a CSV file in a temporary directory, reads it back with
``load_dataset``, and runs ``compare_exposures`` on the simulated and then on
the loaded cohort.  One JSON line gives each step's wall time and the
process's peak RSS after it.  The exit code is 1 if the loaded cohort differs
from the saved one or a fit did not converge.

    PYTHONPATH=src python scripts/scale_1m.py --n 1000000
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


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000, help="subjects in the cohort")
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        step("save", lambda: dupcox.save_dataset(cohort, path))
        line["csv_bytes"] = path.stat().st_size
        loaded = step("load", lambda: dupcox.load_dataset(path, cohort.schema))
    fits = [step(f"compare_{name}", lambda: dupcox.compare_exposures(data, spec)).fit
            for name, data in (("simulated", cohort), ("loaded", loaded))]
    line["same_cohort"] = loaded == cohort
    line["iterations"] = [fit.iterations for fit in fits]
    line["converged"] = all(fit.converged for fit in fits)
    print(json.dumps(line), flush=True)
    return 0 if line["same_cohort"] and line["converged"] else 1


if __name__ == "__main__":
    sys.exit(main())
