"""The benchmark's workloads: input generation, one operation, output check.

Each workload builds its inputs once from the seed, outside the timed
region.  ``op()`` is one operation through dupcox's public API or CLI, and
``check(result)`` returns ``None`` when the result is correct or a short
reason when it is not.  Checks use the public API as the oracle.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import dupcox
from dupcox import cli

# Criterion 3 of the acceptance suite: the augmented fit reproduces the
# separate per-exposure fits to this absolute tolerance.
SEPARATE_FIT_TOLERANCE = 1e-6


def _not_converged(fit: dict) -> str:
    """Failure reason of a non-converged fit, from a report's ``fit`` block."""
    return (f"fit did not converge: {fit['message']} (iterations {fit['iterations']}, "
            f"gradient tolerance {fit['gradient_tolerance']:g})")


class CompareLarge:
    """One in-memory ``compare_exposures`` on a large simulated cohort.

    Exists for the latency case: the cost is arithmetic on the m-fold
    duplicated rows (Cox kernel, sandwich, fingerprint) and peak memory.
    """

    name = "compare_large"

    def __init__(self, seed: int, workdir: Path, n_subjects: int = 50_000):
        self.config = dupcox.SimConfig(
            n_subjects=n_subjects, exposure_correlation=0.7, true_beta=(0.5, 0.3),
            covariate_effects=(0.3, -0.2), censoring_rate=0.3, n_strata=4,
            replicate_count=1, master_seed=seed,
        )
        self.cohort = dupcox.simulate_cohort(self.config, 0)
        self.spec = dupcox.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                                        n_levels=5)
        singles = [dupcox.single_exposure_design(self.cohort, self.spec, j)
                   for j in range(self.spec.n_compared)]
        self.separate = [dupcox.fit(d, robust=False) for d in singles]
        self.subjects_per_op = n_subjects
        self.properties = {
            "n": n_subjects,
            "rows": len(self.cohort),
            "events": int(self.cohort.event.sum()),
            "strata": len(set(self.cohort.strata_keys())),
            "m": self.spec.n_compared,
            "p": self.spec.n_compared * singles[0].n_columns,
            "csv_bytes": 0,
        }

    def op(self):
        report = dupcox.compare_exposures(self.cohort, self.spec)
        return report.to_dict(), dupcox.render_table(report)

    def check(self, result) -> str | None:
        doc, table = result
        if not doc["fit"]["converged"]:
            return _not_converged(doc["fit"])
        if doc["difference_test"] is None or doc["difference_test"]["p_value"] is None:
            return "no difference test"
        if "Difference" not in table:
            return "table has no Difference row"
        for j, (exposure, separate) in enumerate(zip(doc["exposures"], self.separate)):
            if not separate.converged:
                return f"separate fit {j} did not converge"
            for t, term in enumerate(exposure["terms"]):
                diff = abs(term["coefficient"] - separate.coefficients[t])
                if not diff <= SEPARATE_FIT_TOLERANCE:
                    return (f"exposure {exposure['name']} term {term['term']} differs "
                            f"from the separate fit by {diff:.3e}")
        return None


class SimlabNull:
    """One ``estimate_type1_error(include_naive=True)`` on the criterion-6 null.

    Exists for the throughput case: many tiny fits, so per-call overhead
    (indexing, fingerprint, per-row Python, naive refits) dominates.
    """

    name = "simlab_null"

    def __init__(self, seed: int, workdir: Path, replicates: int = 20):
        self.config = dupcox.SimConfig(
            n_subjects=500, exposure_correlation=0.7, true_beta=(0.4, 0.4),
            covariate_effects=(0.3,), censoring_rate=0.3, n_strata=4,
            replicate_count=replicates, master_seed=seed,
        )
        self.reference_p_values = None
        self.subjects_per_op = replicates * self.config.n_subjects
        cohorts = [dupcox.simulate_cohort(self.config, r) for r in range(replicates)]
        self.properties = {
            "n": self.config.n_subjects,
            "rows": self.config.n_subjects,
            "replicates": replicates,
            "events": sum(int(c.event.sum()) for c in cohorts),
            "strata": self.config.n_strata,
            "m": self.config.n_exposures,
            "p": self.config.n_exposures * (1 + len(self.config.covariate_effects)),
            "csv_bytes": 0,
        }

    def op(self):
        result = dupcox.estimate_type1_error(self.config, include_naive=True)
        return result, result.to_dict()

    def check(self, result) -> str | None:
        result, doc = result
        if result.n_used + result.n_failures != self.config.replicate_count:
            return (f"n_used {result.n_used} + n_failures {result.n_failures} != "
                    f"{self.config.replicate_count} replicates")
        if doc["naive_rejection_rate"] is None:
            return "no naive rejection rate"
        if self.reference_p_values is None:
            self.reference_p_values = result.p_values
        elif result.p_values != self.reference_p_values:
            return "p-values differ from the first operation with the same seed"
        return None


def write_counting_process_csv(path: Path, seed: int, n_subjects: int) -> None:
    """Three ``(entry, exit]`` intervals per subject with delayed entry.

    Exposures A1..A3 are equicorrelated normals (rho 0.7) fixed per subject;
    L1 changes from one interval to the next; the event, if any, ends the
    last interval.
    """
    rng = np.random.default_rng([seed, 20_000])
    n = n_subjects
    exposures = (math.sqrt(0.7) * rng.standard_normal((n, 1))
                 + math.sqrt(0.3) * rng.standard_normal((n, 3)))
    base = rng.standard_normal(n)
    covariate = base[:, None] + 0.5 * rng.standard_normal((n, 3))
    stratum = rng.integers(0, 4, size=n)
    entry = rng.uniform(0.0, 0.5, size=n)
    eta = exposures @ np.array([0.4, 0.3, 0.2]) + 0.3 * base
    t_event = entry + rng.exponential(1.0, size=n) * np.exp(-eta)
    t_cens = entry + rng.exponential(2.0, size=n)
    exit_ = np.minimum(t_event, t_cens)
    event = t_event <= t_cens
    cuts = np.sort(rng.uniform(0.05, 0.95, size=(n, 2)), axis=1)
    bounds = np.column_stack([entry, entry[:, None] + cuts * (exit_ - entry)[:, None], exit_])

    lines = ["id,entry,exit,event,A1,A2,A3,L1,stratum"]
    rows = zip(bounds.tolist(), event.tolist(), exposures.tolist(), covariate.tolist(),
               stratum.tolist())
    for i, (b, died, a, cov, s) in enumerate(rows, start=1):
        a = ",".join(repr(v) for v in a)
        for k in range(3):
            flag = "1" if (k == 2 and died) else "0"
            lines.append(f"{i},{b[k]!r},{b[k + 1]!r},{flag},{a},{cov[k]!r},s{s}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CliCountingProcess:
    """One in-process ``dupcox compare`` on a counting-process CSV.

    Exists because it is the only workload through ``load_dataset``,
    ``validate``, left-truncated risk sets, multi-row clusters, m = 3 and
    the CLI's machine output.
    """

    name = "cli_counting_process"

    def __init__(self, seed: int, workdir: Path, n_subjects: int = 20_000):
        # Fixed names: each run overwrites the previous run's files.
        self.csv = workdir / "cli_cohort.csv"
        write_counting_process_csv(self.csv, seed, n_subjects)
        self.config = workdir / "cli_config.json"
        self.output = workdir / "cli_report.json"
        self.output.unlink(missing_ok=True)  # so a failed op cannot read a stale report
        self.config.write_text(json.dumps({
            "command": "compare",
            "input": str(self.csv),
            "schema": {"id": "id", "entry": "entry", "exit": "exit", "event": "event",
                       "exposures": ["A1", "A2", "A3"], "covariates": ["L1"],
                       "strata": ["stratum"]},
            "exposure": {"kind": "trend", "levels": 4, "scale": "p10-p90"},
            "format": "machine",
            "seed": seed,
        }), encoding="utf-8")
        self.reference_output = None
        self.subjects_per_op = n_subjects
        self.properties = {
            "n": n_subjects,
            "rows": 3 * n_subjects,
            "events": sum(1 for line in self.csv.read_text().splitlines()[1:]
                          if line.split(",")[3] == "1"),
            "strata": 4,
            "m": 3,
            "p": 3 * 2,
            "csv_bytes": self.csv.stat().st_size,
        }

    def op(self):
        argv = ["compare", "--config", str(self.config), "--format", "machine",
                "--output", str(self.output)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return code, err.getvalue()

    def check(self, result) -> str | None:
        code, stderr = result
        try:
            output = self.output.read_bytes()
            self.output.unlink()
            doc = json.loads(output)
        except (OSError, ValueError) as exc:
            return f"exit code {code}, unreadable output: {exc}; {stderr.strip()[:200]}"
        fit = doc["report"]["fit"]
        if code != 0:
            reason = _not_converged(fit) if not fit["converged"] else stderr.strip()[:200]
            return f"exit code {code}: {reason}"
        if not fit["converged"] or doc["report"]["difference_test"] is None:
            return "report has no converged difference test"
        if self.reference_output is None:
            self.reference_output = output
        elif output != self.reference_output:
            return "output differs from the first operation's bytes"
        return None


WORKLOADS = {w.name: w for w in (CompareLarge, SimlabNull, CliCountingProcess)}
