"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Every tolerance is pinned here; Monte Carlo criteria use fixed
master seeds, so their rates are exactly reproducible.
"""

import math
import re
import time

import numpy as np

import dupcox as dc
from oracles import (
    brute_force_loglik,
    central_difference_gradient,
    central_difference_jacobian,
    dense_wald,
    prune_aliased,
    random_design,
)


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_likelihood_matches_brute_force():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(110):
        ties = trial >= 55
        d = random_design(rng, n=int(rng.integers(3, 9)), p=2, ties=ties,
                          truncation=True, n_strata=int(rng.integers(1, 3)))
        beta = rng.standard_normal(2)
        for method in ("breslow", "efron"):
            got = dc.evaluate(d, beta, method).log_partial_likelihood
            want = brute_force_loglik(d.entry, d.exit, d.event, d.X, beta,
                                      d.stratum_codes, method)
            worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    _criterion(
        1, "log partial likelihood matches risk-set enumeration (abs 1e-10)",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst abs diff {worst:.2e}, {elapsed:.1f}s over 110 datasets",
    )


def test_criterion_2_gradient_and_hessian_checks():
    rng = np.random.default_rng(1002)
    worst_score = worst_info = 0.0
    for trial in range(24):
        d = random_design(rng, n=int(rng.integers(5, 10)), p=3,
                          ties=bool(trial % 2), truncation=True,
                          n_strata=int(rng.integers(1, 3)))
        beta = rng.standard_normal(3) * 0.6
        method = "efron" if trial % 2 else "breslow"
        sc = dc.evaluate(d, beta, method).score
        fd = central_difference_gradient(
            lambda b: dc.evaluate(d, b, method).log_partial_likelihood, beta, step=1e-5)
        worst_score = max(worst_score, np.max(np.abs(sc - fd) / (1.0 + np.abs(fd))))
        info = dc.evaluate(d, beta, method).information
        fdj = -central_difference_jacobian(
            lambda b: dc.evaluate(d, b, method).score, beta, step=1e-5)
        worst_info = max(worst_info, np.max(np.abs(info - fdj) / (1.0 + np.abs(fdj))))
    _criterion(
        2, "analytic score/information match finite differences (rel 1e-6 / 1e-5)",
        worst_score <= 1e-6 and worst_info <= 1e-5,
        f"score rel {worst_score:.2e}, information rel {worst_info:.2e}, 24 instances",
    )


def test_criterion_3_separate_fit_equivalence():
    options = dc.FitOptions()
    worst_coef = worst_inter = 0.0
    rhos = (0.3, 0.6, 0.8)
    for seed in range(100):
        categorical = seed % 5 == 4
        cfg = dc.SimConfig(
            n_subjects=300,
            exposure_correlation=rhos[seed % 3],
            true_beta=(0.2 + 0.3 * (seed % 2), 0.4),
            covariate_effects=(0.3,) if seed % 2 else (),
            censoring_rate=0.2 + 0.2 * (seed % 2),
            n_strata=1 + 2 * (seed % 2),
            replicate_count=1,
            master_seed=3000 + seed,
        )
        dataset = dc.simulate_cohort(cfg, 0)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                               n_levels=5) if categorical else cfg.exposure_spec()
        design = dc.build_design_matrix(dc.duplicate_augment(dataset, spec), spec)
        aug = dc.fit(design, options, robust=False)
        assert aug.converged
        separate = [
            dc.fit(dc.single_exposure_design(dataset, spec, j), options, robust=False)
            for j in range(2)
        ]
        terms = design.exposure_main_columns
        for t, term in enumerate(terms):
            main = aug.coefficient(term)
            inter = aug.coefficient(f"{term}:A_type2")
            worst_coef = max(
                worst_coef,
                abs(main - separate[0].coefficients[t]),
                abs(main + inter - separate[1].coefficients[t]),
            )
            if len(terms) == 1:
                worst_inter = max(worst_inter, abs(
                    inter - (separate[1].coefficients[t] - separate[0].coefficients[t])))
    _criterion(
        3, "augmented fit reproduces separate-fit coefficients "
           "(1e-6 abs; interaction = b2 - b1 to 1e-8)",
        worst_coef <= 1e-6 and worst_inter <= 1e-8,
        f"worst coefficient diff {worst_coef:.2e}, worst interaction diff "
        f"{worst_inter:.2e}, 100 cohorts (n=300)",
    )


def test_criterion_4_degenerate_null():
    cfg = dc.SimConfig(n_subjects=150, exposure_correlation=1.0,
                       true_beta=(0.4, 0.4), covariate_effects=(0.3,),
                       censoring_rate=0.25, n_strata=2, replicate_count=25,
                       master_seed=4004)
    spec = cfg.exposure_spec()
    worst_q = 0.0
    all_p_one = True
    for r in range(cfg.replicate_count):
        report = dc.compare_exposures(dc.simulate_cohort(cfg, r), spec)
        worst_q = max(worst_q, report.difference_test.statistic)
        all_p_one = all_p_one and report.difference_test.p_value == 1.0
    _criterion(
        4, "identical exposures give Q = 0 (<= 1e-12) and p = 1 on every instance",
        worst_q <= 1e-12 and all_p_one,
        f"worst Q {worst_q:.2e} over 25 replicates",
    )


def test_criterion_5_wald_arithmetic_oracle():
    cfg = dc.SimConfig(n_subjects=350, exposure_correlation=0.5,
                       true_beta=(0.6, 0.1), covariate_effects=(0.3,),
                       censoring_rate=0.3, n_strata=2, replicate_count=1,
                       master_seed=5005)
    dataset = dc.simulate_cohort(cfg, 0)
    spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=5)
    report = dc.compare_exposures(dataset, spec)
    test = report.difference_test
    pruned = prune_aliased(report.fit)
    idx = [pruned.names.index(n) for n in test.tested_coefficients]
    oracle = dense_wald(pruned.coefficients[idx],
                        pruned.robust_covariance[np.ix_(idx, idx)])
    q_diff = abs(test.statistic - oracle)

    identity_fit = dc.CoxFit(
        column_names=("a", "b"),
        coefficients=np.array([1.0, 1.0]),
        model_covariance=np.eye(2),
        robust_covariance=np.eye(2),
        log_partial_likelihood=0.0, iterations=1,
        aliased_mask=np.zeros(2, dtype=bool), options=dc.FitOptions(),
        diagnostics=dc.FitDiagnostics(1, 0, 1, False),
    )
    p_identity = dc.wald_multivariate(identity_fit, ("a", "b")).p_value
    p_diff = abs(p_identity - math.exp(-1))
    _criterion(
        5, "Wald Q matches dense recomputation (1e-10); identity case p = e^-1 (1e-12)",
        q_diff <= 1e-10 and p_diff <= 1e-12,
        f"Q diff {q_diff:.2e} at df={test.df}, identity p diff {p_diff:.2e}",
    )


def test_criterion_6_type1_error_calibration():
    cfg = dc.SimConfig(n_subjects=500, exposure_correlation=0.7,
                       true_beta=(0.4, 0.4), covariate_effects=(0.3,),
                       censoring_rate=0.3, n_strata=4, replicate_count=2000,
                       master_seed=20260810)
    start = time.time()
    result = dc.estimate_type1_error(cfg, alpha=0.05)
    elapsed = time.time() - start
    ks = dc.ks_uniform_statistic(result.p_values)
    crit = dc.ks_critical_value(len(result.p_values), 0.01)
    _criterion(
        6, "symmetric-H0 rejection rate in [0.035, 0.065] and p-values KS-uniform",
        0.035 <= result.rejection_rate <= 0.065 and ks < crit and result.valid,
        f"rate {result.rejection_rate:.4f}, KS {ks:.4f} < {crit:.4f}, "
        f"{result.n_failures} failures, {elapsed:.0f}s for 2000 replicates",
    )


def test_criterion_7_power_behavior():
    rates = []
    errs = []
    for delta in (0.0, 0.15, 0.30, 0.45):
        cfg = dc.SimConfig(n_subjects=300, exposure_correlation=0.7,
                           true_beta=(0.4 + delta, 0.4), covariate_effects=(0.3,),
                           censoring_rate=0.3, n_strata=2, replicate_count=250,
                           master_seed=606)
        runner = dc.estimate_type1_error if delta == 0.0 else dc.estimate_power
        result = runner(cfg, 0.05)
        rates.append(result.rejection_rate)
        errs.append(math.sqrt(max(result.rejection_rate
                                  * (1 - result.rejection_rate), 1e-4) / result.n_used))
    monotone = all(
        rates[i + 1] >= rates[i] - 2 * math.hypot(errs[i], errs[i + 1])
        for i in range(3)
    )

    overlap_cfg = dc.SimConfig(n_subjects=500, exposure_correlation=0.85,
                               true_beta=(1.0, 0.25), covariate_effects=(0.3,),
                               censoring_rate=0.3, n_strata=2, replicate_count=250,
                               master_seed=707)
    overlap = dc.estimate_power(overlap_cfg, 0.05)
    qualitative = (overlap.ci_overlap_fraction > 0.5
                   and overlap.rejection_rate > 0.8)
    _criterion(
        7, "power monotone over the |b1 - b2| grid; overlapping CIs yet powered test",
        monotone and qualitative,
        f"grid rates {[round(r, 3) for r in rates]}; high-correlation scenario: "
        f"CI overlap {overlap.ci_overlap_fraction:.2f}, "
        f"rejection {overlap.rejection_rate:.2f}",
    )


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(8008)
    sym_ok = psd_ok = True
    for _ in range(10):
        d = random_design(rng, n=25, p=3, ties=True, truncation=True, n_strata=2)
        result = dc.fit(d)
        if not result.converged:
            continue
        for cov in (result.model_covariance, result.robust_covariance):
            live = cov[~np.isnan(cov).any(axis=1)][:, ~np.isnan(cov).any(axis=0)]
            scale = np.max(np.abs(live))
            sym_ok = sym_ok and np.max(np.abs(live - live.T)) <= 1e-10 * scale
            psd_ok = psd_ok and np.linalg.eigvalsh(live).min() >= -1e-10 * scale

    d = random_design(np.random.default_rng(8009), n=30, p=2, ties=False,
                      truncation=True, n_strata=2)
    base = dc.fit(d, robust=False).coefficients
    transform_ok = True
    for f in (lambda t: t ** 3, lambda t: 10.0 * t + 1.0):
        warped = dc.DesignMatrix(
            blocks=d.blocks, block_map=d.block_map, column_names=d.column_names,
            exposure_main_columns=(), interaction_columns=(), stratum_codes=d.stratum_codes,
            cluster_codes=d.cluster_codes, entry=f(d.entry), exit=f(d.exit),
            event=d.event,
        )
        other = dc.fit(warped, robust=False).coefficients
        transform_ok = transform_ok and np.max(np.abs(other - base)) <= 1e-8

    d = random_design(np.random.default_rng(8010), n=24, p=2, ties=True,
                      truncation=True, n_strata=3)
    beta = np.array([0.4, -0.3])
    total = dc.evaluate(d, beta).log_partial_likelihood
    parts = 0.0
    for key in np.unique(d.stratum_codes):
        rows = d.stratum_codes == key
        if not d.event[rows].any():
            continue
        sub = dc.DesignMatrix(
            blocks=d.blocks[:, rows], block_map=d.block_map, column_names=d.column_names,
            exposure_main_columns=(), interaction_columns=(),
            stratum_codes=d.stratum_codes[rows], cluster_codes=d.cluster_codes[rows],
            entry=d.entry[rows], exit=d.exit[rows], event=d.event[rows],
        )
        parts += dc.evaluate(sub, beta).log_partial_likelihood
    separable = total == parts

    _criterion(
        8, "covariances symmetric/PSD; time-transform invariance; "
           "stratum separability",
        sym_ok and psd_ok and transform_ok and separable,
        f"symmetric {sym_ok}, PSD {psd_ok}, transform {transform_ok}, "
        f"separable {separable}",
    )


def test_criterion_9_pipeline_conformance():
    cfg = dc.SimConfig(n_subjects=400, exposure_correlation=0.6,
                       true_beta=(0.5, 0.1), covariate_effects=(0.3,),
                       censoring_rate=0.3, n_strata=2, replicate_count=1,
                       master_seed=9009)
    dataset = dc.simulate_cohort(cfg, 0)
    spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=5)
    report = dc.compare_exposures(dataset, spec)
    table = dc.render_table(report)
    df_ok = report.difference_test.df == 4
    hr_style = re.search(r"\d+\.\d{2} \[\d+\.\d{2}, \d+\.\d{2}\]", table) is not None
    header = table.splitlines()[0]
    layout_ok = all(f"Q{c}" in header for c in range(1, 6)) and "Difference" in table
    _criterion(
        9, "quintile comparison has df = 4 and renders 'HR [lo, hi]' style rows",
        df_ok and hr_style and layout_ok,
        f"df {report.difference_test.df}; sample row rendered: "
        f"{table.splitlines()[1]!r}",
    )
