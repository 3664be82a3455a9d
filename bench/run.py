"""Closed-loop benchmark of dupcox: one client, one operation at a time.

Run from the repository root:

    python3 bench/run.py --workload compare_large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each operation starts when the previous one returns, for ``--seconds``
seconds (at least a few operations).  Every output is checked.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced operations and reports per-layer metrics.
Results, environment and spans are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("compare_large", "simlab_null", "cli_counting_process")

# BLAS threads stay at or below the two cores the figures were taken on; the
# variables must be set before numpy is first imported.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_OPS = 3             # untraced operations per run, whatever --seconds says
MIN_TRACED_OPS = 2      # traced (and as many untraced) operations per traced run
SETUP_REPEATS = 5       # fresh interpreters timed for setup_s

# (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("subjects_per_s", "1/s", "higher"),
    ("cpu_per_op_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Imports dupcox from the given source tree and times it; run in a fresh
# interpreter so that nothing is cached in the process.
_IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import dupcox, dupcox.cli
elapsed = time.perf_counter() - start
print(elapsed, dupcox.__file__)
"""


class BenchError(Exception):
    """The benchmark cannot run here: no dupcox source tree, or a foreign one."""


def load_dupcox():
    """Import dupcox from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dupcox" / "__init__.py").is_file():
        raise BenchError(f"no dupcox source tree at {SRC}")
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import dupcox
    if not Path(dupcox.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"dupcox was imported from {dupcox.__file__}, not from {SRC}")
    return dupcox


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(dupcox) -> dict:
    import numpy
    import scipy
    return {
        "dupcox": dupcox.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
    }


def measure_setup() -> list[float]:
    """Import time of dupcox in fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, where = done.stdout.strip().split(maxsplit=1)
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"import probe loaded dupcox from {where}")
        samples.append(float(elapsed))
    return samples


def run_op(workload) -> dict:
    """One operation: wall and CPU time, then the output check."""
    error = None
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        result = workload.op()
    except Exception as exc:  # a raising operation is a failed one
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if error is None:
        try:
            error = workload.check(result)
        except Exception as exc:  # a check that cannot read the output fails it
            error = f"check raised {type(exc).__name__}: {exc}"
    return {"wall_s": wall, "cpu_s": cpu, "error": error}


def measure(workload, seconds: float, tracer=None) -> list[dict]:
    """Closed loop for ``seconds``; with a tracer, every second op is traced.

    A first, untimed operation lets lazy imports and first-touch allocation
    finish; it is checked like the others and returned first.
    """
    samples = [run_op(workload) | {"traced": False, "warmup": True}]
    start = time.perf_counter()
    while True:
        timed = len(samples) - 1
        traced = tracer is not None and timed % 2 == 1
        enough = timed >= (2 * MIN_TRACED_OPS if tracer is not None else MIN_OPS)
        if enough and time.perf_counter() - start >= seconds:
            return samples
        if traced:
            with tracer.operation(len(samples)):
                sample = run_op(workload)
        else:
            sample = run_op(workload)
        samples.append(sample | {"traced": traced, "warmup": False})


def end_to_end_metrics(workload, timed, setup_samples) -> dict:
    ok = [s for s in timed if s["error"] is None]
    busy = sum(s["wall_s"] for s in timed)
    return {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(s["wall_s"] for s in timed),
        "subjects_per_s": workload.subjects_per_op * len(ok) / busy,
        "cpu_per_op_s": statistics.median(s["cpu_s"] for s in timed),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> int:
    dupcox = load_dupcox()
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment(dupcox)
    print("env " + json.dumps(env, sort_keys=True))
    setup_samples = [] if args.trace else measure_setup()

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    print(f"inputs {args.workload} " + json.dumps(workload.properties, sort_keys=True))
    tracer = tracing.Tracer() if args.trace else None
    samples = measure(workload, args.seconds, tracer)
    timed = [s for s in samples if not s["warmup"]]

    failed = [s for s in samples if s["error"] is not None]
    for i, s in enumerate(samples):
        if s["error"] is not None:
            print(f"failed op {i}: {s['error']}", file=sys.stderr)
    if args.trace:
        spec = tracing.PER_LAYER
        traced = [s["wall_s"] for s in samples if s["traced"]]
        untraced = [s["wall_s"] for s in timed if not s["traced"]]
        values = tracing.layer_metrics(tracer.spans, traced, untraced)
        counts = {name: len(traced) for name, _, _ in spec}
        counts["trace.untraced_op_s"] = len(untraced)
        for name, seconds in tracing.self_time_by_span(tracer.spans).items():
            print(f"{args.workload} self-time {name:<32} {seconds:.6f} s per op")
    else:
        spec = END_TO_END
        values = end_to_end_metrics(workload, timed, setup_samples)
        counts = {name: len(timed) for name, _, _ in spec}
        counts["setup_s"] = len(setup_samples)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    for name, unit, _ in spec:
        print(f"{args.workload} {name:<28} {values[name]:.6g} {unit} "
              f"(samples {counts[name]})")
    print(f"{args.workload} {'failed_ratio':<28} {len(failed) / len(samples):.6g} ratio "
          f"({len(failed)} of {len(samples)} operations)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "inputs": workload.properties,
        "metrics": metrics, "samples": counts, "operations": samples,
        "setup_samples": setup_samples,
        "spans": tracer.to_json() if tracer is not None else None,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=900)
        status = max(status, done.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            load_dupcox()
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
