"""Command-line entry point: ``dupcox {compare,fit,simulate}``.

Runs are driven by a JSON config file (a key/value tree); the command line
carries only the subcommand and common overrides (input, output, seed,
format).  Every output embeds the tool version, a hash of the effective
config, and the seed, so runs are reproducible byte for byte.

Exit codes: 0 success, 1 config error, 2 data/estimation error, 3 fit
non-convergence (the report is still written with diagnostics).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .cox import FitOptions
from .data import Schema, load_dataset, validate
from .design import ExposureSpec, block_design
from .errors import ConfigError, DataError, DupcoxError, EstimationError, _is_integer, _is_number
from .inference import _check_confidence, _check_scale, compare_exposures, render_table
from .simlab import (MAX_FAILURE_FRACTION, SimConfig, _is_null_config, estimate_power,
                     estimate_type1_error)
from . import cox

# Each block's keys and the JSON type of each: str, int, float (any number),
# bool, dict (a key/value block), a one-item list for a list of that type, or
# a tuple of alternatives.  A key may be left out, or be null to the same
# effect, exactly when None is among its alternatives.
_COMMON_KEYS = {"command": (str, None), "output": (str, None), "format": (str, None),
                "seed": (int, None)}
_RUN_KEYS = _COMMON_KEYS | {"input": str, "schema": dict, "exposure": (dict, None),
                            "fit": (dict, None)}
_TOP_KEYS = {"compare": _RUN_KEYS, "fit": _RUN_KEYS,
             "simulate": _COMMON_KEYS | {"simulation": dict}}
_SCHEMA_KEYS = {"id": str, "entry": (str, None), "exit": str, "event": str,
                "exposures": [str], "covariates": ([str], None), "strata": ([str], None)}
_EXPOSURE_KEYS = {"kind": (str, None), "columns": ([str], None), "levels": (int, None),
                  "reference": (int, None), "scale": (float, str, None),
                  "confidence": (float, None)}
# FitOptions fields, named as such but for "ties" (tie_method).
_FIT_KEYS = {"ties": (str, None), "max_iterations": (int, None),
             "gradient_tolerance": (float, None)}
# Simulation keys: SimConfig fields, then the calibration runner's.
_SIM_KEYS = {"n_subjects": int, "exposure_correlation": float, "true_beta": [float],
             "replicate_count": int, "covariate_effects": ([float], None),
             "censoring_rate": (float, None), "n_strata": (int, None)}
_RUNNER_KEYS = {"alpha": (float, None), "include_naive": (bool, None)}
_FORMATS = ("human", "machine")


def _is_type(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is_type(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_type(v, kind[0]) for v in value)
    if kind is None:
        return value is None
    if kind is int:
        return _is_integer(value)
    if kind is float:
        return _is_number(value)
    return isinstance(value, kind)


def _type_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_type_name, kind))
    if isinstance(kind, list):  # "a string" -> "a list of strings"
        return f"a list of {_type_name(kind[0]).split(' ', 1)[1]}s"
    return {str: "a string", int: "an integer", float: "a number", bool: "true or false",
            dict: "a key/value block", None: "null"}[kind]


def _check_keys(block: dict, keys: dict, context: str) -> dict:
    """``block`` without its null values, once every key is known, of its
    type, and present if required.  That a block is a key/value block is
    checked with the keys of the block that holds it."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {unknown}")
    for key, value in block.items():
        if not _is_type(value, keys[key]):
            raise ConfigError(f"{context}: {key!r} must be {_type_name(keys[key])}, "
                              f"got {json.dumps(value)}")
    missing = [key for key, kind in keys.items() if key not in block and not _is_type(None, kind)]
    if missing:
        raise ConfigError(f"{context} is missing required key {missing[0]!r}")
    return {key: value for key, value in block.items() if value is not None}


def _load_config(path: str, command: str, overrides: dict) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text ({exc.reason})") from None
    try:
        config = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config: expected a key/value block")
    config |= {key: value for key, value in overrides.items() if value is not None}
    _check_keys(config, _TOP_KEYS[command], "config")
    if config.get("format") not in (None, *_FORMATS):
        raise ConfigError(f"config: 'format' must be \"human\" or \"machine\", "
                          f"got {json.dumps(config['format'])}")
    declared = config.get("command")
    if declared is not None and declared != command:
        raise ConfigError(
            f"config declares command {declared!r} but {command!r} was invoked"
        )
    config["command"] = command
    return config


def _build_schema(block: dict) -> Schema:
    block = _check_keys(block, _SCHEMA_KEYS, "schema")
    return Schema(
        id_column=block["id"],
        entry_column=block.get("entry"),
        exit_column=block["exit"],
        event_column=block["event"],
        exposure_columns=block["exposures"],
        covariate_columns=block.get("covariates", ()),
        strata_columns=block.get("strata", ()),
    )


def _build_spec(block: dict, schema: Schema) -> ExposureSpec:
    """The spec of an ``exposure`` block that :func:`_check_keys` passed."""
    kind = block.get("kind", "continuous")
    columns = block.get("columns", schema.exposure_columns)
    missing = [c for c in columns if c not in schema.exposure_columns]
    if missing:
        raise ConfigError(f"exposure column(s) {missing} are not declared in the schema")
    return ExposureSpec(
        kind=kind,
        source_columns=columns,
        n_levels=block.get("levels"),
        reference_level=block.get("reference", 1),
    )


def _build_fit_options(block: dict | None) -> FitOptions:
    block = _check_keys({} if block is None else block, _FIT_KEYS, "fit")
    return FitOptions(**{"tie_method" if key == "ties" else key: value
                         for key, value in block.items()})


def _build_sim_config(block: dict, seed: int | None) -> SimConfig:
    """The scenario of a ``simulation`` block; ``seed`` is the master seed if given."""
    block = _check_keys(block, _SIM_KEYS | _RUNNER_KEYS, "simulation")
    fields = {key: block[key] for key in _SIM_KEYS if key in block}
    if seed is not None:
        fields["master_seed"] = seed
    return SimConfig(**fields)


def _emit(config: dict, human: str, machine: dict) -> None:
    """Print a run's human report under its header line, and write the report
    to ``output`` in the configured format, each stamped with the tool
    version, the effective config's hash and the seed."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    meta = {"tool": {"name": "dupcox", "version": __version__},
            "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            "seed": config.get("seed"), "command": config["command"]}
    seed = "-" if meta["seed"] is None else meta["seed"]
    human = (f"# dupcox {__version__}  command={meta['command']}  "
             f"config={meta['config_hash'][:12]}  seed={seed}\n{human}")
    print(human)
    if config.get("output") is not None:
        text = (json.dumps(meta | machine, indent=2, sort_keys=True)
                if config.get("format") == "machine" else human)
        Path(config["output"]).write_text(text + "\n", encoding="utf-8")


def _run_inputs(config: dict):
    """The validated cohort, exposure spec, fit options and compare's
    reporting keys (``scale``, ``confidence``) of a ``compare`` or ``fit``
    run.  Every block, and each reporting key given (for any exposure kind),
    is checked before the cohort is read."""
    schema = _build_schema(config["schema"])
    exposure = _check_keys(config.get("exposure") or {}, _EXPOSURE_KEYS, "exposure")
    spec = _build_spec(exposure, schema)
    checks = {"scale": _check_scale, "confidence": _check_confidence}
    reporting = {key: exposure[key] for key in checks if key in exposure}
    for key, value in reporting.items():
        checks[key](value)
    options = _build_fit_options(config.get("fit"))
    try:
        dataset = load_dataset(config["input"], schema)
    except FileNotFoundError:
        raise DataError(f"input file {config['input']} does not exist") from None
    except OSError as exc:
        raise DataError(f"cannot read input file {config['input']}: {exc.strerror}") from None
    report = validate(dataset)
    for check in report.checks:
        if not check.passed:
            print(f"warning: {check.name}: {check.detail}", file=sys.stderr)
    return dataset, spec, options, reporting


# Each runner returns its exit code, human report and machine document.
def run_compare(config: dict) -> tuple[int, str, dict]:
    dataset, spec, options, reporting = _run_inputs(config)
    report = compare_exposures(dataset, spec, options, seed=config.get("seed"), **reporting)
    return 0 if report.fit.converged else 3, render_table(report), {"report": report.to_dict()}


def run_fit(config: dict) -> tuple[int, str, dict]:
    dataset, spec, options, _ = _run_inputs(config)
    fit_result = cox.fit(block_design(dataset, spec), options)

    rows = []
    for i, name in enumerate(fit_result.column_names):
        if fit_result.aliased_mask[i]:
            rows.append((name, "aliased", "", ""))
            continue
        se_model = fit_result.model_covariance[i, i] ** 0.5
        se_robust = (fit_result.robust_covariance[i, i] ** 0.5
                     if fit_result.robust_covariance is not None else float("nan"))
        rows.append((name, f"{fit_result.coefficients[i]: .6f}",
                     f"{se_robust:.6f}", f"{se_model:.6f}"))
    width = max(len(r[0]) for r in rows) + 2
    lines = [f"{'term':<{width}}{'coef':>12}{'se(robust)':>14}{'se(model)':>14}"]
    lines += [f"{r[0]:<{width}}{r[1]:>12}{r[2]:>14}{r[3]:>14}" for r in rows]
    diag = fit_result.diagnostics
    lines.append(f"log partial likelihood: {fit_result.log_partial_likelihood:.6f}")
    lines.append(
        f"converged: {'yes' if fit_result.converged else 'NO'} "
        f"({fit_result.iterations} iterations); strata used: {diag.n_strata_used} "
        f"(skipped {diag.n_strata_skipped}); events: {diag.n_events}"
    )
    if diag.message:
        lines.append(diag.message)

    machine = {
        "coefficients": [
            {
                "term": name,
                "aliased": bool(fit_result.aliased_mask[i]),
                "coefficient": None if fit_result.aliased_mask[i]
                else float(fit_result.coefficients[i]),
            }
            for i, name in enumerate(fit_result.column_names)
        ],
        "log_partial_likelihood": float(fit_result.log_partial_likelihood),
        "converged": fit_result.converged,
        "iterations": fit_result.iterations,
    }
    return 0 if fit_result.converged else 3, "\n".join(lines), machine


def run_simulate(config: dict) -> tuple[int, str, dict]:
    block = config["simulation"]
    sim_config = _build_sim_config(block, config.get("seed"))
    runner = estimate_type1_error if _is_null_config(sim_config) else estimate_power
    result = runner(sim_config, **{key: block[key] for key in _RUNNER_KEYS
                                   if block.get(key) is not None})

    valid = "yes" if result.valid else f"NO (failure fraction > {MAX_FAILURE_FRACTION:.0%})"
    lines = [
        f"scenario: {result.scenario}  alpha={result.alpha}",
        f"rejection rate: {result.rejection_rate:.4f} "
        f"[{result.ci_lower:.4f}, {result.ci_upper:.4f}] (95% Monte Carlo CI)",
        f"replicates: {result.n_used} used / {result.n_replicates} total "
        f"({result.n_failures} failed fits)",
        "failed fits by reason: " + (", ".join(
            f"{reason} {count}" for reason, count in result.failure_reasons.items() if count)
            or "none"),
        f"scenario valid: {valid}",
        f"per-exposure CI overlap fraction: {result.ci_overlap_fraction:.4f}",
    ]
    if result.naive_rejection_rate is not None:
        lines.append(f"naive (uncorrelated z) rejection rate: "
                     f"{result.naive_rejection_rate:.4f}")
    return 0, "\n".join(lines), {"result": result.to_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dupcox",
        description="Duplication-method comparison of exposure associations "
                    "in stratified Cox models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compare", "test whether exposures associate differently with the outcome"),
        ("fit", "fit the augmented interaction model and print coefficients"),
        ("simulate", "Monte Carlo calibration of the comparison test"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--input", help="override the input path from the config")
        p.add_argument("--output", help="override the output path from the config")
        p.add_argument("--seed", type=int, help="override the seed from the config")
        p.add_argument("--format", choices=_FORMATS,
                       help="override the output format from the config")
    args = parser.parse_args(argv)

    runners = {"compare": run_compare, "fit": run_fit, "simulate": run_simulate}
    try:
        config = _load_config(args.config, args.command, {
            "input": args.input,
            "output": args.output,
            "seed": args.seed,
            "format": args.format,
        })
        code, human, machine = runners[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, EstimationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DupcoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(config, human, machine)
    return code


if __name__ == "__main__":
    sys.exit(main())
