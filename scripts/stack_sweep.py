"""Sweep the simulation lab's stack bound, ``simlab.CHUNK_ROWS``.

Each scenario is the benchmark's null, ``SimConfig(n, rho=0.7, beta=(0.4,
0.4), gamma=(0.3,), censoring_rate=0.3, n_strata=4, master_seed=1)``, with
``100 000 // n`` replicates (200 at n = 500).  For each subject count in
``--n`` and each bound in ``--bounds``, a fresh worker process sets
``simlab.CHUNK_ROWS``, runs ``estimate_type1_error(..., include_naive=True)``
once untimed and then five times timed, and reports its fastest time per
replicate (the least disturbed by other load on the host) and the process's
peak RSS.  Every setting gets ``--rounds`` such processes, in alternating
order, and its line gives the median over them.  One JSON line per setting,
then a summary line that names the smallest bound whose time at n = 500 is
within 5% of the best bound's there.  The exit code is 1 unless, at each n,
every bound gives the same p-values.

    PYTHONPATH=src python scripts/stack_sweep.py
    PYTHONPATH=src python scripts/stack_sweep.py --n 500 --bounds 5000,20000 --rounds 7
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time

import dupcox
from dupcox import simlab

ROWS = 100_000       # rows simulated per setting: 100 000 // n replicates
PICK_AT = 500        # the subject count whose time picks the bound
WITHIN = 0.05        # how far above the best time a picked bound may be
TIMED_CALLS = 5


def measure(n: int, bound: int) -> dict:
    """In a fresh process: the fastest ms per replicate at stack bound
    ``bound``, the peak RSS and the p-values."""
    simlab.CHUNK_ROWS = bound
    config = dupcox.SimConfig(
        n_subjects=n, exposure_correlation=0.7, true_beta=(0.4, 0.4),
        covariate_effects=(0.3,), censoring_rate=0.3, n_strata=4,
        replicate_count=ROWS // n, master_seed=1,
    )
    result = dupcox.estimate_type1_error(config, include_naive=True)
    times = []
    for _ in range(TIMED_CALLS):
        start = time.perf_counter()
        dupcox.estimate_type1_error(config, include_naive=True)
        times.append(time.perf_counter() - start)
    return {
        "ms_per_replicate": min(times) / config.replicate_count * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "p_values": result.p_values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="100,500,2000", help="comma-separated subject counts")
    parser.add_argument("--bounds", default="5000,10000,20000,40000",
                        help="comma-separated stack bounds, in cohort rows")
    parser.add_argument("--rounds", type=int, default=3,
                        help="fresh processes per setting; the median is reported")
    args = parser.parse_args(argv)
    sizes = [int(v) for v in args.n.split(",")]
    bounds = [int(v) for v in args.bounds.split(",")]
    if args.rounds < 1 or min(sizes) < 2 or min(bounds) < 1:
        parser.error("--rounds, --bounds need values >= 1 and --n values >= 2")

    runs = {(n, bound): [] for n in sizes for bound in bounds}
    order = list(runs)
    # One worker at a time, each a fresh interpreter: its peak RSS is its own.
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        for r in range(args.rounds):
            for setting in order if r % 2 == 0 else order[::-1]:
                runs[setting].append(pool.apply(measure, setting))

    same = True
    for n in sizes:
        first = runs[n, bounds[0]][0]["p_values"]
        for bound in bounds:
            got = runs[n, bound]
            agree = all(run["p_values"] == first for run in got)
            same &= agree
            print(json.dumps({
                "n": n, "replicates": ROWS // n, "bound": bound,
                "replicates_per_stack": max(bound // n, 1), "rounds": len(got),
                "ms_per_replicate": round(statistics.median(
                    run["ms_per_replicate"] for run in got), 4),
                "peak_rss_mb": round(statistics.median(run["peak_rss_mb"] for run in got), 1),
                "same_p_values": agree,
            }), flush=True)
    summary = {"same_p_values": same, "chunk_rows": simlab.CHUNK_ROWS}
    if PICK_AT in sizes:
        times = {bound: statistics.median(run["ms_per_replicate"] for run in runs[PICK_AT, bound])
                 for bound in bounds}
        best = min(times.values())
        summary["picked_bound"] = min(b for b, t in times.items() if t <= (1 + WITHIN) * best)
    print(json.dumps(summary), flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
