"""Time saving, loading and comparing one cohort of a million subjects.

The cohort is ``simulate_cohort(SimConfig(n, rho=0.7, beta=(0.5, 0.3),
gamma=(0.2, -0.1), n_strata=4, master_seed=1), 0)``, compared as two
continuous exposures.  The script simulates it, writes it with
``save_dataset`` to a CSV file in a temporary directory, reads it back with
``load_dataset``, derives the loaded cohort's stratum and subject codes
(step ``codes``, which the simulated cohort is given), and runs
``compare_exposures`` on the simulated and then on the loaded cohort.  One
JSON line gives each step's wall time and the process's peak RSS after it,
and for each compare the seconds of its engine set-up (``_setup_s``), of its
likelihood evaluations (``_evaluate_s``, with their count) and of its
sandwich (``_sandwich_s``), timed by wrappers that this script alone
installs.  With ``--compare-only`` the script skips the file and compares
the simulated cohort alone, so the peak RSS is that of a process that only
simulates and compares.

Before the timed run, a fresh worker process simulates the cohort and
compares it with tracemalloc on from the compare's start, so the tracing
slows no timed step.  For each stage, ``traced_<stage>_live_mb`` is the MB
that the compare had allocated and still held when the stage began and
``traced_<stage>_peak_mb`` its traced peak during the stage, each the largest
over the stage's calls; the cohort itself is not counted.  A stage that
never ran has no figures.

With ``--grouped K`` each exit time is moved up to the end of its interval
among K quantile intervals of the exits, so the events are tied at K times,
and the cohort is compared under Efron's and then Breslow's tie correction,
each in a fresh worker process that simulates, groups and compares: each
``compare_<ties>_peak_rss_mb`` is that of a process that did only this.  The
simulate and group figures are the last worker's.  The exit code is 1 if the
loaded cohort differs from the saved one, a fit did not converge or, outside
``--grouped``, a stage of the traced compare never ran.

    PYTHONPATH=src python scripts/scale_1m.py --n 1000000
    PYTHONPATH=src python scripts/scale_1m.py --n 1000000 --compare-only
    PYTHONPATH=src python scripts/scale_1m.py --n 1000000 --grouped 24
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import dupcox
from dupcox import cox


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


# A compare's stages: engine set-up, likelihood evaluations and sandwich.
STAGES = {"setup": (cox._Engine, "__init__"), "evaluate": (cox._Engine, "evaluate"),
          "sandwich": (cox, "_sandwich")}


def wrap_stages(before, after) -> None:
    """Wrap each stage's function so that ``after(stage, before())`` runs
    when a call ends."""
    for stage, (owner, name) in STAGES.items():
        def wrapper(*args, _stage=stage, _original=getattr(owner, name), **kwargs):
            state = before()
            try:
                return _original(*args, **kwargs)
            finally:
                after(_stage, state)

        setattr(owner, name, wrapper)


def cohort_config(n: int):
    return dupcox.SimConfig(
        n_subjects=n, exposure_correlation=0.7, true_beta=(0.5, 0.3),
        covariate_effects=(0.2, -0.1), n_strata=4, replicate_count=1, master_seed=1,
    )


def traced_compare(n: int) -> dict:
    """Simulate, then compare with tracemalloc on from the compare's start:
    each stage's largest traced MB live at a call's start and at a call's
    peak."""
    config = cohort_config(n)
    cohort = dupcox.simulate_cohort(config, 0)
    stages = {}

    def before():
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def after(stage, live):
        most = stages.setdefault(stage, [0, 0])
        most[:] = max(most[0], live), max(most[1], tracemalloc.get_traced_memory()[1])

    wrap_stages(before, after)
    tracemalloc.start()
    try:
        dupcox.compare_exposures(cohort, config.exposure_spec())
    finally:
        tracemalloc.stop()
    return {f"traced_{stage}_{kind}_mb": round(value / 2 ** 20, 1)
            for stage, most in stages.items() for kind, value in zip(("live", "peak"), most)}


class Run:
    """One JSON line of step timings, and the compares' split of their time.
    Making one installs the timing wrappers, so a process makes one."""

    def __init__(self, n: int):
        self.config = cohort_config(n)
        self.line = {"n": n}
        self.totals = {}

        def after(stage, start):
            self.totals[stage][0] += time.perf_counter() - start
            self.totals[stage][1] += 1

        wrap_stages(time.perf_counter, after)

    def step(self, name: str, call):
        """``call()``, with its wall time and the peak RSS after it."""
        start = time.perf_counter()
        result = call()
        self.line[f"{name}_s"] = round(time.perf_counter() - start, 3)
        self.line[f"{name}_peak_rss_mb"] = peak_rss_mb()
        return result

    def compare(self, name: str, data, options=None):
        """The fit of ``data``'s compare, stepped as ``compare_<name>``."""
        spec = self.config.exposure_spec()
        self.totals = {stage: [0.0, 0] for stage in STAGES}
        fit = self.step(f"compare_{name}",
                        lambda: dupcox.compare_exposures(data, spec, options)).fit
        for stage, (seconds, _) in self.totals.items():
            self.line[f"compare_{name}_{stage}_s"] = round(seconds, 3)
        self.line[f"compare_{name}_evaluations"] = self.totals["evaluate"][1]
        return fit


def grouped_exits(exit_: np.ndarray, k: int) -> np.ndarray:
    """Each exit time moved up to the end of its interval among ``k``
    quantile intervals of ``exit_``."""
    ends = np.quantile(exit_, np.arange(1, k + 1) / k)
    return ends[np.searchsorted(ends, exit_)]


def grouped_compare(n: int, k: int, ties: str) -> tuple[dict, int, bool]:
    """Simulate, group the exits into ``k`` intervals and compare under
    ``ties``: the step timings, the iterations and convergence."""
    run = Run(n)
    cohort = run.step("simulate", lambda: dupcox.simulate_cohort(run.config, 0))
    # The labels are unchanged, so the grouped cohort keeps the codes that
    # simulate_cohort gave it, as the untied compare does.
    cohort = run.step("group", lambda: dataclasses.replace(
        cohort, exit=grouped_exits(cohort.exit, k))._with_codes(
            cohort.stratum_codes, cohort.subject_codes))
    run.line["distinct_exits"] = int(np.unique(cohort.exit).size)
    fit = run.compare(ties, cohort, dupcox.FitOptions(tie_method=ties))
    return run.line, fit.iterations, fit.converged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1_000_000, help="subjects in the cohort")
    parser.add_argument("--compare-only", action="store_true",
                        help="compare the simulated cohort alone, without saving or loading it")
    parser.add_argument("--grouped", type=int, metavar="K",
                        help="tie the exits at K quantile times and compare under Efron "
                             "and Breslow, each in its own process")
    args = parser.parse_args(argv)
    if args.grouped is not None:
        if args.grouped < 1:
            parser.error("--grouped needs K >= 1")
        line = {"n": args.n, "grouped": args.grouped}
        iterations, converged = [], True
        # One worker at a time, each a fresh interpreter: its peak RSS is its own.
        with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
            for ties in cox.TIE_METHODS:
                worker, its, ok = pool.apply(grouped_compare, (args.n, args.grouped, ties))
                line.update(worker)
                iterations.append(its)
                converged &= ok
        line["iterations"] = iterations
        line["converged"] = converged
        print(json.dumps(line), flush=True)
        return 0 if converged else 1

    # The traced worker first, while this process holds no cohort.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        traced = pool.apply(traced_compare, (args.n,))
    run = Run(args.n)
    cohort = run.step("simulate", lambda: dupcox.simulate_cohort(run.config, 0))
    cohorts = [("simulated", cohort)]
    if not args.compare_only:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cohort.csv"
            run.step("save", lambda: dupcox.save_dataset(cohort, path))
            run.line["csv_bytes"] = path.stat().st_size
            loaded = run.step("load", lambda: dupcox.load_dataset(path, cohort.schema))
        run.step("codes", lambda: (loaded.stratum_codes, loaded.subject_codes))
        cohorts.append(("loaded", loaded))
    fits = [run.compare(name, data) for name, data in cohorts]
    line = run.line | traced
    if not args.compare_only:
        line["same_cohort"] = cohorts[1][1] == cohort
    line["iterations"] = [fit.iterations for fit in fits]
    line["converged"] = all(fit.converged for fit in fits)
    print(json.dumps(line), flush=True)
    traced_all = len(traced) == 2 * len(STAGES)
    return 0 if line.get("same_cohort", True) and line["converged"] and traced_all else 1


if __name__ == "__main__":
    sys.exit(main())
