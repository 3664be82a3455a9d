"""Self-test of the benchmark: correct results pass, perturbed ones fail.

Run from the repository root:

    python3 bench/selftest.py

Each workload is built at a small size and measured twice through the
benchmark's own loop: once as is, where every operation must pass its
check, and once with each result perturbed just past what the check
tolerates, where every operation must be counted as failed.  It also checks
that BENCHMARK.json lists exactly the metrics the code reports.  Exits
non-zero on any mismatch.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


class Perturbed:
    """A workload whose results pass through ``perturb`` before the check."""

    def __init__(self, workload, perturb):
        self.workload = workload
        self.perturb = perturb
        self.subjects_per_op = workload.subjects_per_op

    def op(self):
        return self.perturb(self.workload.op())

    def check(self, result):
        return self.workload.check(result)


def shift_coefficient(result):
    doc, table = result
    doc["exposures"][1]["terms"][0]["coefficient"] += 1e-5
    return doc, table


def shift_p_value(result):
    calibration, doc = result
    p = calibration.p_values
    return dataclasses.replace(calibration, p_values=(p[0] + 1e-12,) + p[1:]), doc


def main() -> int:
    run.load_dupcox()
    import tracing
    import workloads
    from dupcox.errors import EstimationError

    problems = []

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in declared[key]]
        if listed != list(spec):
            problems.append(f"BENCHMARK.json {key} does not match the code")
    if [w["name"] for w in declared["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads do not match the code")

    def raise_estimation_error(result):
        raise EstimationError("injected failure")

    def touch_output(result):
        out = cli_workload.output
        out.write_bytes(out.read_bytes().rstrip(b"\n") + b" \n")
        return result

    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    cli_workload = workloads.CliCountingProcess(7, workdir, n_subjects=300)
    cases = [
        (workloads.CompareLarge(7, workdir, n_subjects=2000), shift_coefficient),
        (workloads.SimlabNull(7, workdir, replicates=3), shift_p_value),
        (cli_workload, touch_output),
        (workloads.SimlabNull(8, workdir, replicates=2), raise_estimation_error),
    ]
    for workload, perturb in cases:
        label = f"{workload.name} / {perturb.__name__}"
        clean = run.measure(workload, seconds=0)
        errors = [s["error"] for s in clean if s["error"] is not None]
        if errors:
            problems.append(f"{label}: clean run failed: {errors[0]}")
        perturbed = run.measure(Perturbed(workload, perturb), seconds=0)
        passed = [s for s in perturbed if s["error"] is None]
        if passed:
            problems.append(f"{label}: {len(passed)} of {len(perturbed)} perturbed "
                            "operations passed the check")
        print(f"{label}: clean {len(clean) - len(errors)}/{len(clean)} passed, "
              f"perturbed {len(perturbed) - len(passed)}/{len(perturbed)} failed")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
