import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
from dupcox import cox, inference
from dupcox.errors import (AliasedCoefficientError, ConfigError, EstimationError,
                           SingularMatrixError, ValidationError)
from conftest import simulated_cohort
from oracles import dense_wald, prune_aliased


def fake_fit(names, coefs, cov, aliased=None, robust=None):
    p = len(names)
    cov = np.asarray(cov, dtype=float)
    return dc.CoxFit(
        column_names=tuple(names),
        coefficients=np.asarray(coefs, dtype=float),
        model_covariance=cov,
        robust_covariance=cov if robust is None else np.asarray(robust, dtype=float),
        log_partial_likelihood=0.0,
        iterations=1,
        aliased_mask=np.zeros(p, dtype=bool) if aliased is None
        else np.asarray(aliased, dtype=bool),
        options=dc.FitOptions(),
        diagnostics=dc.FitDiagnostics(1, 0, 1, False),
    )


class TestChiSquareTail:
    def test_q_two_df_two_is_exp_minus_one(self):
        assert dc.chi_square_upper_tail(2.0, 2) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_zero_statistic_gives_one(self):
        assert dc.chi_square_upper_tail(0.0, 4) == 1.0

    def test_small_tail_does_not_cancel(self):
        # far in the tail, where 1 - cdf would lose every digit
        p = dc.chi_square_upper_tail(300.0, 4)
        assert 0 < p < 1e-55

    @given(st.floats(min_value=0.01, max_value=50), st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_q(self, q, bump):
        df = 3
        assert dc.chi_square_upper_tail(q + bump, df) < dc.chi_square_upper_tail(q, df)

    def test_matches_scipy_regularized_gamma(self):
        from scipy.special import gammaincc
        qs = np.concatenate([[0.0], np.geomspace(1e-6, 4000.0, 300)])
        for df in [*range(1, 61), 100, 200]:
            got = np.array([dc.chi_square_upper_tail(q, df) for q in qs])
            want = gammaincc(df / 2.0, qs / 2.0)
            tail = want > 1e-300
            np.testing.assert_allclose(got[tail], want[tail], rtol=1e-12, atol=0,
                                       err_msg=f"df={df}")
            assert np.all(np.abs(got[~tail] - want[~tail]) <= 1e-300), f"df={df}"

    def test_edge_values(self):
        for df in (1, 2, 7):
            assert dc.chi_square_upper_tail(math.inf, df) == 0.0
            assert math.isnan(dc.chi_square_upper_tail(math.nan, df))
        with pytest.raises(ConfigError, match="integer"):
            dc.chi_square_upper_tail(1.0, 2.5)
        with pytest.raises(ConfigError, match=">= 1"):
            dc.chi_square_upper_tail(1.0, 0)
        with pytest.raises(ConfigError, match=">= 0"):
            dc.chi_square_upper_tail(-1.0, 2)


def test_interval_quantile_matches_scipy_ndtri():
    from scipy.special import ndtri
    from dupcox.inference import _STANDARD_NORMAL
    for confidence in np.linspace(0.5, 0.999999, 1001):
        p = (1.0 + confidence) / 2.0
        assert _STANDARD_NORMAL.inv_cdf(p) == pytest.approx(float(ndtri(p)), rel=1e-15, abs=0)


class TestWald:
    def test_identity_covariance_unit_coefficients(self):
        fit = fake_fit(["a", "b"], [1.0, 1.0], np.eye(2))
        result = dc.wald_multivariate(fit, ["a", "b"])
        assert result.statistic == pytest.approx(2.0, abs=1e-15)
        assert result.df == 2
        assert result.p_value == pytest.approx(math.exp(-1), abs=1e-12)

    @pytest.mark.parametrize("names", ["b", {"a", "b"}], ids=["str", "set"])
    def test_names_that_are_not_a_sequence_are_refused(self, names):
        fit = fake_fit(["a", "b"], [1.0, 1.0], np.eye(2))
        with pytest.raises(ConfigError, match=r"^test_names must be a sequence of names, "):
            dc.wald_multivariate(fit, names)

    def test_no_names_refused(self):
        fit = fake_fit(["a", "b"], [1.0, 1.0], np.eye(2))
        with pytest.raises(ConfigError, match="^no coefficients to test$"):
            dc.wald_multivariate(fit, ())

    def test_zero_coefficients_give_q_zero_p_one(self):
        fit = fake_fit(["a", "b", "c"], [0.0, 0.0, 0.5], np.eye(3))
        result = dc.wald_multivariate(fit, ["a", "b"])
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_univariate_equals_singleton_multivariate(self):
        fit = fake_fit(["a", "b"], [0.37, -1.2],
                       [[0.04, 0.01], [0.01, 0.09]])
        uni = dc.wald_univariate(fit, "b")
        multi = dc.wald_multivariate(fit, ["b"])
        assert uni.statistic == multi.statistic
        assert uni.p_value == multi.p_value
        assert uni.df == multi.df == 1
        assert uni.statistic == (-1.2) ** 2 / 0.09

    def test_p_near_five_percent_at_1_96_se(self):
        se = 0.31
        fit = fake_fit(["a", "b"], [1.96 * se, 0.0], np.diag([se ** 2, 1.0]))
        assert dc.wald_univariate(fit, "a").p_value == pytest.approx(0.05, abs=1e-3)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(4)
        root = rng.standard_normal((3, 3))
        cov = root @ root.T + np.eye(3)
        fit = fake_fit(["a", "b", "c"], rng.standard_normal(3), cov)
        q1 = dc.wald_multivariate(fit, ["a", "b", "c"]).statistic
        q2 = dc.wald_multivariate(fit, ["c", "a", "b"]).statistic
        assert q1 == pytest.approx(q2, rel=1e-12)

    def test_model_covariance_selectable(self):
        fit = fake_fit(["a", "b"], [1.0, 0.0], np.eye(2), robust=4 * np.eye(2))
        robust = dc.wald_univariate(fit, "a", "robust")
        model = dc.wald_univariate(fit, "a", "model")
        assert robust.statistic == pytest.approx(0.25)
        assert model.statistic == pytest.approx(1.0)
        assert robust.covariance_used == "robust"

    def test_missing_robust_covariance_is_an_estimation_error(self):
        fit = dataclasses.replace(fake_fit(["a", "b"], [1.0, 0.5], np.eye(2)),
                                  robust_covariance=None)
        for call in (lambda: dc.wald_multivariate(fit, ["a", "b"]),
                     lambda: dc.wald_univariate(fit, "a"),
                     lambda: dc.hazard_ratio(fit, "a")):
            with pytest.raises(EstimationError, match="robust covariance was not computed"):
                call()
        assert dc.wald_univariate(fit, "a", "model").statistic == pytest.approx(1.0)
        ds, spec = simulated_cohort(seed=22, n=120)
        unrobust = dc.fit(dc.block_design(ds, spec), robust=False)
        with pytest.raises(EstimationError, match="robust covariance was not computed"):
            dc.wald_univariate(unrobust, "Exposures:A_type2")

    def test_unknown_covariance_kind_or_name_is_a_config_error(self):
        fit = fake_fit(["a", "b"], [1.0, 0.5], np.eye(2))
        with pytest.raises(ConfigError, match="sandwich"):
            dc.wald_univariate(fit, "a", "sandwich")
        with pytest.raises(ConfigError, match="unknown coefficient"):
            dc.hazard_ratio(fit, "z")

    def test_aliased_name_refused_with_prune_aliased_text(self):
        fit = fake_fit(["a", "b"], [1.0, math.nan], np.eye(2), aliased=[False, True])
        with pytest.raises(AliasedCoefficientError) as pruned:
            prune_aliased(fit, required=("b",))
        for call in (lambda: dc.wald_multivariate(fit, ["a", "b"]),
                     lambda: dc.hazard_ratio(fit, "b")):
            with pytest.raises(AliasedCoefficientError) as refused:
                call()
            assert str(refused.value) == str(pruned.value)

    def test_singular_block_reports_condition_number(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = fake_fit(["a", "b"], [1.0, 2.0], cov)
        with pytest.raises(SingularMatrixError):
            dc.wald_multivariate(fit, ["a", "b"])
        # One coefficient with zero variance and a non-zero estimate.
        fit = fake_fit(["a", "b"], [1.0, 2.0], np.eye(2), robust=np.diag([0.0, 1.0]))
        with pytest.raises(SingularMatrixError) as refused:
            dc.wald_multivariate(fit, ["a"])
        assert refused.value.condition_number == np.inf

    def test_stacked_kernel_is_each_fit_alone(self):
        # One pass over a stack gives each fit what wald_multivariate gives it
        # alone (the kernel on a stack of one): a regular fit, a zero estimate
        # along a zero-variance direction (Q from the other two), a nonzero one
        # there (refused), and the fits of simulated 4-level comparisons.
        rng = np.random.default_rng(6)
        u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        zero_along_first = u @ np.diag([0.0, 1.0, 2.0]) @ u.T
        root = rng.standard_normal((3, 3))
        fakes = [fake_fit("abc", rng.standard_normal(3), root @ root.T + np.eye(3),
                          robust=2 * (root @ root.T) + np.eye(3)),
                 fake_fit("abc", u @ [0.0, 0.5, -1.0], zero_along_first),
                 fake_fit("abc", u @ [0.3, 0.5, -1.0], zero_along_first)]
        cfg = dc.SimConfig(n_subjects=80, exposure_correlation=0.5, true_beta=(0.5, 0.2),
                           covariate_effects=(0.3,), n_strata=2, replicate_count=6,
                           master_seed=9)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=4)
        fits = [dc.fit(dc.block_design(dc.simulate_cohort(cfg, r), spec)) for r in range(6)]
        names = dc.block_design(dc.simulate_cohort(cfg, 0), spec).interaction_columns
        refused = 0
        for stack, tested in ((fakes, tuple("abc")), (fits, names)):
            idx = np.array([stack[0].column_names.index(n) for n in tested])
            for covariance in ("robust", "model"):
                got = inference._wald_tests(
                    np.array([f.coefficients for f in stack]),
                    np.array([f.covariance(covariance) for f in stack]),
                    np.array([f.model_covariance for f in stack]), idx, tested, covariance)
                for fit, test in zip(stack, got):
                    try:
                        assert test == dc.wald_multivariate(fit, tested, covariance)
                    except SingularMatrixError as exc:
                        assert type(test) is type(exc) and str(test) == str(exc)
                        assert test.condition_number == exc.condition_number
                        refused += 1
        assert refused == 2
        assert dc.wald_multivariate(fakes[1], tuple("abc")).statistic \
            == pytest.approx(0.5 ** 2 / 1.0 + 1.0 / 2.0, rel=1e-12)

    def test_matches_dense_oracle_on_quintile_pipeline(self):
        ds, _ = simulated_cohort(seed=21, n=300, betas=(0.6, 0.1), rho=0.5)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                               n_levels=5)
        report = dc.compare_exposures(ds, spec)
        test = report.difference_test
        assert test.df == 4
        pruned = prune_aliased(report.fit)
        idx = [pruned.names.index(n) for n in test.tested_coefficients]
        oracle_q = dense_wald(pruned.coefficients[idx],
                              pruned.robust_covariance[np.ix_(idx, idx)])
        assert test.statistic == pytest.approx(oracle_q, abs=1e-10)


class TestPruneAliased:
    def test_identity_when_nothing_aliased(self):
        fit = fake_fit(["a", "b"], [1.0, 2.0], np.eye(2))
        pruned = prune_aliased(fit)
        assert pruned.names == ("a", "b")
        assert pruned.coefficients.tolist() == [1.0, 2.0]

    def test_shrinks_by_one_row_and_column(self):
        fit = fake_fit(["a", "b", "c"], [1.0, math.nan, 2.0], np.eye(3),
                       aliased=[False, True, False])
        pruned = prune_aliased(fit)
        assert pruned.names == ("a", "c")
        assert pruned.model_covariance.shape == (2, 2)

    def test_refuses_when_required_name_aliased(self):
        fit = fake_fit(["a", "b"], [1.0, math.nan], np.eye(2), aliased=[False, True])
        with pytest.raises(AliasedCoefficientError, match="b"):
            prune_aliased(fit, required=("b",))

    def test_aliased_interaction_in_test_set_refused_end_to_end(self):
        # Category 3 never occurs in the second exposure block, so its
        # interaction column is identically zero and gets aliased.
        rng = np.random.default_rng(10)
        n = 60
        cats_a = rng.integers(1, 4, size=n)
        cats_b = rng.integers(1, 3, size=n)
        terms_a, names = dc.dummy_code(cats_a, reference=1, k=3)
        terms_b, _ = dc.dummy_code(cats_b, reference=1, k=3)
        exit_ = rng.uniform(1, 10, size=n)
        event = rng.uniform(size=n) < 0.7
        event[:3] = True
        ids = np.array([str(i) for i in range(n)], dtype=object)
        aug = dc.AugmentedDataset(
            subject_ids=np.concatenate([ids, ids]),
            entry=np.zeros(2 * n),
            exit=np.concatenate([exit_, exit_]),
            event=np.concatenate([event, event]),
            a_type=np.array(["A"] * n + ["B"] * n, dtype=object),
            exposure_terms=np.vstack([terms_a, terms_b]),
            covariates=np.empty((2 * n, 0)),
            strata=np.empty((2 * n, 0), dtype=object),
            term_names=names,
            covariate_names=(),
            a_type_labels=("A", "B"),
        )
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A", "B"), n_levels=3)
        design = dc.build_design_matrix(aug, spec)
        fit = dc.fit(design)
        assert fit.aliased_mask[design.column_names.index("Exposures3:A_type2")]
        with pytest.raises(AliasedCoefficientError, match="Exposures3:A_type2"):
            dc.wald_multivariate(fit, design.interaction_columns)


class TestHazardRatio:
    def test_null_coefficient_gives_unit_ratio(self):
        fit = fake_fit(["a", "b"], [0.0, 1.0], np.eye(2))
        hr = dc.hazard_ratio(fit, "a", scale=3.0)
        assert hr.value == 1.0
        assert hr.ci_lower < 1.0 < hr.ci_upper

    def test_formatting_matches_reporting_style(self):
        assert dc.format_hr_ci(0.83, 0.79, 0.87) == "0.83 [0.79, 0.87]"

    def test_scale_doubling_squares_the_ratio(self):
        fit = fake_fit(["a", "b"], [-0.21, 0.0], np.diag([0.01, 1.0]))
        once = dc.hazard_ratio(fit, "a", scale=1.7)
        twice = dc.hazard_ratio(fit, "a", scale=3.4)
        assert twice.value == pytest.approx(once.value ** 2, rel=1e-14)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_scale_must_be_finite_and_positive(self, scale):
        fit = fake_fit(["a", "b"], [0.2, 1.0], np.eye(2))
        with pytest.raises(ConfigError, match="scale must be a finite number > 0"):
            dc.hazard_ratio(fit, "a", scale=scale)
        ds, spec = simulated_cohort(seed=31, n=200)
        with pytest.raises(ConfigError, match=r"^\[design\] scale must be a finite number > 0"):
            dc.compare_exposures(ds, spec, scale=scale)

    @pytest.mark.parametrize("scale", ["p10-p90", "2.0", None, [1.0]])
    def test_hazard_ratio_refuses_a_scale_that_is_not_a_number(self, scale):
        # hazard_ratio has no design to take a 10th-to-90th percentile from.
        fit = fake_fit(["a", "b"], [0.2, 1.0], np.eye(2))
        with pytest.raises(ConfigError, match="scale must be a finite number > 0"):
            dc.hazard_ratio(fit, "a", scale=scale)

    @pytest.mark.parametrize("scale", [None, b"x"])
    def test_compare_refuses_a_scale_that_is_not_a_number(self, scale):
        ds, spec = simulated_cohort(seed=31, n=200)
        with pytest.raises(ConfigError, match=r"^\[design\] scale must be a finite number > 0"):
            dc.compare_exposures(ds, spec, scale=scale)

    def test_categorical_compare_checks_its_unused_scale(self):
        ds, spec = simulated_cohort(seed=31, n=200)
        spec = dc.ExposureSpec(kind="categorical", source_columns=spec.source_columns,
                               n_levels=3)
        with pytest.raises(ConfigError, match=r"^\[design\] scale must be a positive "
                                              r"number or 'p10-p90', got 'p5-p95'"):
            dc.compare_exposures(ds, spec, scale="p5-p95")
        report = dc.compare_exposures(ds, spec, scale=2.5)
        assert all(t.scale == 1.0 for e in report.exposures for t in e.terms)

    def test_ratio_beyond_float_range_is_inf(self):
        fit = fake_fit(["a", "b"], [800.0, -800.0], np.eye(2))
        high, low = dc.hazard_ratio(fit, "a"), dc.hazard_ratio(fit, "b")
        assert high.value == high.ci_lower == high.ci_upper == math.inf
        assert low.value == low.ci_lower == low.ci_upper == 0.0

    def test_exposures_in_fine_units_report_inf_ratios(self):
        # Exposures written in units of 1e-4 take coefficients in the
        # thousands, whose hazard ratios are past float range: inf, null in
        # the report's JSON and NA in its table.  The Wald test does not move.
        ds, spec = simulated_cohort(seed=1, n=5000)
        fine = dc.compare_exposures(dataclasses.replace(ds, exposures=ds.exposures * 1e-4), spec)
        plain = dc.compare_exposures(ds, spec)
        assert fine.difference_test.statistic == pytest.approx(
            plain.difference_test.statistic, rel=1e-12)
        for summary in fine.exposures:
            (term,) = summary.terms
            assert term.hazard_ratio == term.ci_lower == term.ci_upper == math.inf
        for summary in fine.to_dict()["exposures"]:
            (term,) = summary["terms"]
            assert term["hazard_ratio"] is term["ci_lower"] is term["ci_upper"] is None
        rows = dc.render_table(fine).splitlines()
        assert [row.split()[1] for row in rows[1:3]] == ["NA", "NA"]

    def test_interval_brackets_the_point(self):
        ds, spec = simulated_cohort(seed=31, n=200)
        report = dc.compare_exposures(ds, spec)
        for summary in report.exposures:
            for term in summary.terms:
                assert term.ci_lower <= term.hazard_ratio <= term.ci_upper


class TestCompareExposures:
    def test_identical_exposures_no_difference(self):
        ds, spec = simulated_cohort(seed=41, n=150, betas=(0.4, 0.4), rho=1.0)
        report = dc.compare_exposures(ds, spec)
        assert abs(report.fit.coefficient("Exposures:A_type2")) < 1e-9
        assert report.difference_test.p_value > 0.999

    def test_options_that_are_not_fit_options_are_refused(self):
        ds, spec = simulated_cohort(seed=41, n=60)
        with pytest.raises(ConfigError, match=r"^\[fit\] options must be a FitOptions or "
                                              r"None, got 'efron'$"):
            dc.compare_exposures(ds, spec, "efron")

    def test_quintile_pipeline_has_df_four(self):
        ds, _ = simulated_cohort(seed=42, n=250)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                               n_levels=5)
        report = dc.compare_exposures(ds, spec)
        assert report.difference_test.df == 4
        assert len(report.difference_test.tested_coefficients) == 4

    def test_equivalence_to_separate_fits(self):
        ds, spec = simulated_cohort(seed=43, n=220, betas=(0.5, 0.2), rho=0.4)
        report = dc.compare_exposures(ds, spec)
        options = dc.FitOptions()
        separate = [
            dc.fit(dc.single_exposure_design(ds, spec, j), options, robust=False)
            for j in range(2)
        ]
        main = report.fit.coefficient("Exposures")
        inter = report.fit.coefficient("Exposures:A_type2")
        assert main == pytest.approx(separate[0].coefficients[0], abs=1e-6)
        assert main + inter == pytest.approx(separate[1].coefficients[0], abs=1e-6)
        assert inter == pytest.approx(
            separate[1].coefficients[0] - separate[0].coefficients[0], abs=1e-8)
        # the report's per-exposure estimates are the separate-fit estimates
        assert report.exposures[0].terms[0].coefficient == pytest.approx(
            separate[0].coefficients[0], abs=1e-6)
        assert report.exposures[1].terms[0].coefficient == pytest.approx(
            separate[1].coefficients[0], abs=1e-6)

    def test_trend_comparison_runs_like_continuous(self):
        ds, _ = simulated_cohort(seed=44, n=200)
        spec = dc.ExposureSpec(kind="trend", source_columns=("A1", "A2"), n_levels=5)
        report = dc.compare_exposures(ds, spec)
        assert report.difference_test.df == 1
        assert report.difference_test.tested_coefficients == ("Exposures:A_type2",)

    def test_p10_p90_scale(self):
        ds, spec = simulated_cohort(seed=45, n=200)
        report = dc.compare_exposures(ds, spec, scale="p10-p90")
        width = float(np.quantile(ds.exposure("A1"), 0.9)
                      - np.quantile(ds.exposure("A1"), 0.1))
        assert report.exposures[0].terms[0].scale == pytest.approx(width)

    def test_p10_p90_scale_refuses_a_zero_increment(self):
        # Not constant, but with 19 zeros and one 1 the 10th and 90th
        # percentiles coincide.
        ds, spec = simulated_cohort(seed=45, n=20)
        exposures = ds.exposures.copy()
        exposures[:, 0] = 0.0
        exposures[7, 0] = 1.0
        ds = dataclasses.replace(ds, exposures=exposures)
        with pytest.raises(ConfigError, match=r"^\[design\] exposure 'A1' has a zero "
                                              "10th-to-90th percentile increment"):
            dc.compare_exposures(ds, spec, scale="p10-p90")

    def test_report_serializes_to_json(self):
        ds, spec = simulated_cohort(seed=46, n=120)
        report = dc.compare_exposures(ds, spec, seed=11)
        doc = json.dumps(report.to_dict())
        parsed = json.loads(doc)
        assert parsed["seed"] == 11
        assert parsed["difference_test"]["df"] == 1
        assert parsed["dataset"]["fingerprint"] == ds.fingerprint()

    def test_numpy_integer_levels_serialize_as_json_integers(self):
        ds, _ = simulated_cohort(seed=46, n=120)
        spec = dc.ExposureSpec(kind="trend", source_columns=("A1", "A2"), n_levels=4)
        want = dc.compare_exposures(ds, spec).to_dict()
        doc = dc.compare_exposures(ds, dataclasses.replace(spec, n_levels=np.int64(4))).to_dict()
        assert type(doc["exposure_spec"]["n_levels"]) is int
        assert json.dumps(doc) == json.dumps(want)

    def test_report_json_has_null_for_non_finite_floats(self):
        ds, spec = simulated_cohort(seed=46, n=120)
        report = dc.compare_exposures(ds, spec)
        first = report.exposures[0]
        terms = (dataclasses.replace(first.terms[0], ci_upper=math.inf),) + first.terms[1:]
        report = dataclasses.replace(
            report,
            exposures=(dataclasses.replace(first, terms=terms),) + report.exposures[1:],
            difference_test=dataclasses.replace(report.difference_test, statistic=math.nan))
        doc = report.to_dict()
        assert doc["exposures"][0]["terms"][0]["ci_upper"] is None
        assert doc["exposures"][0]["terms"][0]["ci_lower"] == first.terms[0].ci_lower
        assert doc["difference_test"]["statistic"] is None
        assert doc["difference_test"]["covariance"] == "robust"
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc

    def test_exposure_terms_sum_main_and_interaction(self):
        ds, _ = simulated_cohort(seed=47, n=300, betas=(0.5, 0.2))
        ds = dataclasses.replace(ds, schema=dataclasses.replace(
            ds.schema, exposure_columns=("A1", "A2", "A3")),
            exposures=np.column_stack([ds.exposures, ds.exposures[:, ::-1].sum(axis=1)]))
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2", "A3"),
                               n_levels=3)
        report = dc.compare_exposures(ds, spec)
        fit = report.fit
        for j, summary in enumerate(report.exposures):
            for t in summary.terms:
                names = (t.term,) if j == 0 else (t.term, f"{t.term}:A_type{j + 1}")
                idx = [fit.column_names.index(n) for n in names]
                assert t.coefficient == sum(fit.coefficients[i] for i in idx)
                var = fit.robust_covariance[np.ix_(idx, idx)].sum()
                assert t.se == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_report_hashes_the_cohort_only_when_asked(self, monkeypatch):
        ds, spec = simulated_cohort(seed=48, n=120)
        calls = []
        original = dc.Dataset.fingerprint
        monkeypatch.setattr(dc.Dataset, "fingerprint",
                            lambda self: calls.append(1) or original(self))
        report = dc.compare_exposures(ds, spec)
        assert calls == []
        assert report.n_rows == 120 and report.n_events == int(ds.event.sum())
        assert report.dataset_fingerprint == original(ds)
        assert report.to_dict()["dataset"]["fingerprint"] == original(ds)
        assert len(calls) == 1

    def test_report_bytes_do_not_depend_on_blas_threads(self):
        # Fresh interpreters, so that the thread count is set before numpy loads.
        probe = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import dupcox as dc\n"
            "config = dc.SimConfig(n_subjects=20_000, exposure_correlation=0.7,"
            " true_beta=(0.5, 0.3), covariate_effects=(0.3, -0.2), censoring_rate=0.3,"
            " n_strata=4, replicate_count=1, master_seed=3)\n"
            "spec = dc.ExposureSpec(kind='categorical', source_columns=('A1', 'A2'),"
            " n_levels=5)\n"
            "report = dc.compare_exposures(dc.simulate_cohort(config, 0), spec)\n"
            "print(json.dumps(report.to_dict()))\n")
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", probe, str(Path(dc.__file__).parents[1])], env=env,
                capture_output=True, text=True, timeout=300, check=True)
            outputs.append(done.stdout)
        assert json.loads(outputs[0])["difference_test"] is not None
        assert outputs[0] == outputs[1]

    def test_events_of_any_dtype_read_as_booleans(self):
        ds, spec = simulated_cohort(seed=49, n=150)
        want = dc.compare_exposures(ds, spec).to_dict()
        for dtype in (np.int64, np.int8, float):
            as_dtype = dataclasses.replace(ds, event=ds.event.astype(dtype))
            assert dc.compare_exposures(as_dtype, spec).to_dict() == want
        for bad in (2.0, -1.0, np.nan):
            event = ds.event.astype(float)
            event[0] = bad
            with pytest.raises(ValidationError, match=r"^event indicators must be 0 or 1"):
                dataclasses.replace(ds, event=event)

    def test_covariate_too_large_for_its_square_is_refused(self):
        # Every cell is finite, so the cohort passes its checks; the
        # information overflows and the fit refuses it.
        ds, spec = simulated_cohort(seed=57, n=150)
        covariates = ds.covariates.copy()
        covariates[3, 0] = 1e200
        with pytest.raises(SingularMatrixError, match=r"^\[fit\] information matrix is not "
                                                      r"positive definite .*not finite"):
            dc.compare_exposures(dataclasses.replace(ds, covariates=covariates), spec)

    @pytest.mark.parametrize("unit", [1.0, 1e77, 1e100, 1e-150])
    def test_covariate_unit_leaves_the_test_alone(self, unit):
        # The aliasing sweep scales each column by a power of two first: at
        # 1e77 and 1e100 its products used to overflow, which marked
        # L1:A_type2 aliased and doubled p, with only a warning.
        ds, spec = simulated_cohort(seed=1, n=5000)
        plain = dc.compare_exposures(ds, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = dc.compare_exposures(
                dataclasses.replace(ds, covariates=ds.covariates * unit), spec)
        assert not scaled.fit.aliased_mask.any()
        assert scaled.difference_test.p_value == pytest.approx(
            plain.difference_test.p_value, rel=1e-12)

    def test_aliased_covariate_leaves_exposure_terms_alone(self):
        # A copy of L1 is aliased, as main term and interaction.  The exposure
        # terms' rows of the block map do not touch those columns, so the
        # terms are those of the cohort without the copy.
        ds, spec = simulated_cohort(seed=55, n=200)
        doubled = dataclasses.replace(
            ds, schema=dataclasses.replace(ds.schema, covariate_columns=("L1", "L2")),
            covariates=np.column_stack([ds.covariates, ds.covariates]))
        report = dc.compare_exposures(doubled, spec)
        assert report.fit.aliased_mask.tolist() == [False, False, True, False, False, True]
        want = dc.compare_exposures(ds, spec).exposures
        for summary, expected in zip(report.exposures, want):
            for t, e in zip(summary.terms, expected.terms):
                assert [t.coefficient, t.se, t.ci_lower, t.ci_upper] == pytest.approx(
                    [e.coefficient, e.se, e.ci_lower, e.ci_upper], rel=1e-9)

    @pytest.mark.filterwarnings("ignore:.*unbalanced bins")
    @pytest.mark.parametrize("tied, aliased", [
        ((0, 1), ["Exposures2", "Exposures2:A_type2"]),
        ((0,), ["Exposures2:A_type2"]),
    ], ids=["both-exposures", "first-exposure"])
    def test_aliased_exposure_term_is_refused(self, tied, aliased):
        # Tied values leave quantile category 2 empty.  An aliased main term
        # aliases its interaction too, so the Wald test refuses every cohort
        # in which an exposure term's row of the block map touches an
        # aliased column, before any term is formed.
        ds, _ = simulated_cohort(seed=56, n=300)
        exposures = ds.exposures.copy()
        for j in tied:
            x = exposures[:, j]
            exposures[:, j] = np.where(x < np.quantile(x, 0.75), 0.0, x + 10.0)
        ds = dataclasses.replace(ds, exposures=exposures)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=3)
        fit = dc.fit(dc.block_design(ds, spec))
        assert [n for n, a in zip(fit.column_names, fit.aliased_mask) if a] == aliased
        with pytest.raises(AliasedCoefficientError,
                           match=r"^\[wald\] coefficient\(s\) \['Exposures2:A_type2'\]"):
            dc.compare_exposures(ds, spec)

    def test_stage_labels_on_errors(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A", "Aprime"),
                               n_levels=5)
        with pytest.raises(Exception, match=r"\[design\]"):
            dc.compare_exposures(four_row_dataset, spec)


class TestCompareStack:
    def test_each_cohort_gets_its_own_scales_and_refusal(self):
        first, spec = simulated_cohort(seed=61, n=150)
        second, _ = simulated_cohort(seed=62, n=150)
        flat = second.exposures.copy()
        flat[:, 1] = 0.0
        flat[3, 1] = 1.0
        cohorts = [first, dataclasses.replace(second, exposures=flat), second]
        reports = inference.compare_stack(cohorts, spec, scale="p10-p90", seed=5)
        assert str(reports[1]) == ("[design] exposure 'A2' has a zero 10th-to-90th "
                                   "percentile increment")
        for cohort, report in zip(cohorts[::2], reports[::2]):
            want = dc.compare_exposures(cohort, spec, scale="p10-p90", seed=5)
            assert report.to_dict() == want.to_dict()
        assert reports[0].exposures[0].terms[0].scale \
            != reports[2].exposures[0].terms[0].scale

    def test_a_refused_wald_test_fails_alone_in_a_stack(self):
        # Three subjects give a sandwich of rank at most 2, so the 3 x 3
        # tested block of a 4-exposure compare is singular.
        def cohort(n):
            return dc.simulate_cohort(dc.SimConfig(
                n_subjects=n, exposure_correlation=0.3, true_beta=(0.5,) * 4,
                censoring_rate=0.2, replicate_count=1, master_seed=0), 0)

        spec = dc.ExposureSpec("continuous", ("A1", "A2", "A3", "A4"))
        cohorts = [cohort(80), cohort(3)]
        report, refused = inference.compare_stack(cohorts, spec)
        assert isinstance(refused, SingularMatrixError)
        assert str(refused).startswith("[wald] test covariance block is singular")
        with pytest.raises(SingularMatrixError) as alone:
            dc.compare_exposures(cohorts[1], spec)
        assert str(alone.value) == str(refused)
        assert report.to_dict() == dc.compare_exposures(cohorts[0], spec).to_dict()

    @pytest.mark.parametrize("stage, target", [("design", "block_design"),
                                               ("fit", "fit_stack"),
                                               ("wald", "_wald_tests")])
    def test_an_error_that_is_not_a_dupcox_error_is_raised_with_its_stage(
            self, monkeypatch, stage, target):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("boom")

        first, spec = simulated_cohort(seed=63, n=100)
        second, _ = simulated_cohort(seed=64, n=100)
        monkeypatch.setattr(inference, target, broken)
        with pytest.raises(ZeroDivisionError, match=rf"^\[{stage}\] boom$"):
            inference.compare_stack([first, second], spec)

    @pytest.mark.parametrize("n_cohorts", [1, 4])
    def test_no_design_block_is_alive_in_the_newton_loop(self, monkeypatch, n_cohorts):
        # The engine copies what it reads of the designs at set-up, so their
        # (m, n, p_b) blocks are freed before its first evaluation; so is
        # the design of a cohort refused for its scale.
        cohorts = [simulated_cohort(seed=70 + r, n=150)[0] for r in range(n_cohorts)]
        spec = simulated_cohort(seed=70, n=150)[1]
        if n_cohorts > 1:
            flat = cohorts[-1].exposures.copy()
            flat[:, 1] = 0.0
            flat[3, 1] = 1.0
            cohorts[-1] = dataclasses.replace(cohorts[-1], exposures=flat)
        refs, alive = [], []
        build, evaluate = inference.block_design, cox._Engine.evaluate

        def recorded(dataset, spec):
            design = build(dataset, spec)
            refs.extend(map(weakref.ref, (design.blocks, design.blocks.base)))
            return design

        def first_evaluation(engine, theta):
            if not alive:
                alive.append([ref() is not None for ref in refs])
            return evaluate(engine, theta)

        monkeypatch.setattr(inference, "block_design", recorded)
        monkeypatch.setattr(cox._Engine, "evaluate", first_evaluation)
        if n_cohorts == 1:
            dc.compare_exposures(cohorts[0], spec)
        else:
            *reports, refused = inference.compare_stack(cohorts, spec, scale="p10-p90")
            assert all(report.fit.converged for report in reports)
            assert isinstance(refused, ConfigError)
        assert len(refs) == 2 * n_cohorts
        assert alive == [[False] * len(refs)]


class TestRenderTable:
    def test_continuous_table_layout(self):
        ds, spec = simulated_cohort(seed=51, n=150)
        text = dc.render_table(dc.compare_exposures(ds, spec))
        lines = text.splitlines()
        assert "Continuous" in lines[0]
        assert lines[1].startswith("A1")
        assert lines[2].startswith("A2")
        assert lines[3].startswith("Difference")
        assert "P = " in lines[3] or "P < " in lines[3]

    def test_categorical_table_has_reference_dash(self):
        ds, _ = simulated_cohort(seed=52, n=250)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                               n_levels=5)
        text = dc.render_table(dc.compare_exposures(ds, spec))
        header = text.splitlines()[0]
        assert [f"Q{c}" in header for c in range(1, 6)] == [True] * 5
        row = text.splitlines()[1]
        assert row.split()[1] == "-"

    def test_reference_dash_sits_under_its_level(self):
        ds, _ = simulated_cohort(seed=53, n=300)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"),
                               n_levels=5, reference_level=3)
        report = dc.compare_exposures(ds, spec)
        lines = dc.render_table(report).splitlines()
        starts = [lines[0].index(f"Q{c}") for c in range(1, 6)] + [None]
        for summary, line in zip(report.exposures, lines[1:3]):
            cells = [line[a:b].strip() for a, b in zip(starts, starts[1:])]
            by_level = {int(t.term.removeprefix("Exposures")): t for t in summary.terms}
            assert sorted(by_level) == [1, 2, 4, 5]
            assert cells == [
                "-" if c == 3 else dc.format_hr_ci(by_level[c].hazard_ratio,
                                                   by_level[c].ci_lower,
                                                   by_level[c].ci_upper)
                for c in range(1, 6)]

    @pytest.mark.parametrize("confidence, level", [(0.95, "95"), (0.999, "99.9"),
                                                   (0.975, "97.5")])
    def test_footer_states_the_confidence_level(self, confidence, level):
        ds, spec = simulated_cohort(seed=51, n=150)
        text = dc.render_table(dc.compare_exposures(ds, spec, confidence=confidence))
        assert f"Numbers are hazard ratios [{level}% confidence intervals]." in text.splitlines()

    def test_p_formatting(self):
        assert dc.format_p(0.005) == "P = 0.005"
        assert dc.format_p(5e-5) == "P < 0.0001"
