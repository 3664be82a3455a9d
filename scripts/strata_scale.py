"""Time ``compare_exposures`` on one cohort cut into more and more strata.

The cohort is ``simulate_cohort(SimConfig(n, rho=0.7, beta=(0.5, 0.3),
gamma=(0.2, -0.1), n_strata=k, master_seed=1), 0)``, compared as two
continuous exposures.  Each stratum count is simulated once, outside the
timed region, then compared ``--repeats`` times.  One JSON line per count
gives the median and minimum wall time, the fit's iterations and whether it
converged.  The exit code is 1 if any fit did not converge.

    PYTHONPATH=src python scripts/strata_scale.py --n 50000 --strata 4,100,1000,5000
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import dupcox


def run_case(n: int, n_strata: int, repeats: int) -> dict:
    config = dupcox.SimConfig(
        n_subjects=n, exposure_correlation=0.7, true_beta=(0.5, 0.3),
        covariate_effects=(0.2, -0.1), n_strata=n_strata, replicate_count=1,
        master_seed=1,
    )
    cohort = dupcox.simulate_cohort(config, 0)
    spec = config.exposure_spec()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = dupcox.compare_exposures(cohort, spec)
        times.append(time.perf_counter() - start)
    return {
        "n": n,
        "strata": n_strata,
        "strata_used": report.fit.diagnostics.n_strata_used // spec.n_compared,
        "repeats": repeats,
        "compare_s": round(statistics.median(times), 4),
        "compare_min_s": round(min(times), 4),
        "iterations": report.fit.iterations,
        "converged": report.fit.converged,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000, help="subjects per cohort")
    parser.add_argument("--strata", default="4,100,1000,5000",
                        help="comma-separated stratum counts")
    parser.add_argument("--repeats", type=int, default=5, help="compares per stratum count")
    args = parser.parse_args(argv)
    converged = True
    for n_strata in map(int, args.strata.split(",")):
        line = run_case(args.n, n_strata, args.repeats)
        converged &= line["converged"]
        print(json.dumps(line), flush=True)
    return 0 if converged else 1


if __name__ == "__main__":
    sys.exit(main())
