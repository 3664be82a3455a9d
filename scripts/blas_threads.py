"""Check that ``compare_exposures`` keeps to one core when BLAS may use two.

The BLAS thread variables are set to 2 before numpy is imported, as
``bench/run.py`` does.  Each case is a cohort of ``simulate_cohort(SimConfig(n,
rho=0.7, ..., n_strata=4, master_seed=1), 0)`` compared as ``m`` exposures
with ``p_b`` columns per block: quintiles with 2 covariates (``p_b = 6``) and
three continuous exposures with one covariate.  A case is compared once
untimed, then ``--repeats`` times.  One JSON line per case gives the median wall and
process CPU time, the fit's iterations and whether it converged.  The exit
code is 1 if any fit did not converge, or if a case's CPU time exceeds
``1.15 x wall + 0.02 s``: a BLAS call split across threads leaves its worker
spinning, which adds CPU time but no speed.

    PYTHONPATH=src python scripts/blas_threads.py --n 50000 --repeats 5
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import dupcox  # noqa: E402

CPU_RATIO, CPU_SLACK_S = 1.15, 0.02

# (m, exposure kind, exposure terms per block, covariates): p_b = 6 and 2.
CASES = (
    (2, "categorical", 4, 2),
    (3, "continuous", 1, 1),
)


def run_case(n: int, m: int, kind: str, terms: int, n_covariates: int, repeats: int) -> dict:
    config = dupcox.SimConfig(
        n_subjects=n, exposure_correlation=0.7, true_beta=(0.5, 0.3, 0.2)[:m],
        covariate_effects=(0.3, -0.2)[:n_covariates],
        censoring_rate=0.3, n_strata=4, replicate_count=1, master_seed=1,
    )
    cohort = dupcox.simulate_cohort(config, 0)
    spec = dupcox.ExposureSpec(kind=kind, source_columns=config.exposure_columns(),
                               n_levels=terms + 1 if kind == "categorical" else None)
    report = dupcox.compare_exposures(cohort, spec)
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        report = dupcox.compare_exposures(cohort, spec)
        cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - wall)
    wall_s, cpu_s = statistics.median(walls), statistics.median(cpus)
    return {
        "n": n,
        "m": m,
        "p_b": terms + n_covariates,
        "repeats": repeats,
        "wall_s": round(wall_s, 4),
        "cpu_s": round(cpu_s, 4),
        "iterations": report.fit.iterations,
        "converged": report.fit.converged,
        "one_core": cpu_s <= CPU_RATIO * wall_s + CPU_SLACK_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=50_000, help="subjects per cohort")
    parser.add_argument("--repeats", type=int, default=5, help="timed compares per case")
    args = parser.parse_args(argv)
    ok = True
    for case in CASES:
        line = run_case(args.n, *case, args.repeats)
        ok &= line["converged"] and line["one_core"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
