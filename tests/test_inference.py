import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
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
        converged=True,
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
        assert fit.aliased_mask[design.column("Exposures3:A_type2")]
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

    def test_report_serializes_to_json(self):
        ds, spec = simulated_cohort(seed=46, n=120)
        report = dc.compare_exposures(ds, spec, seed=11)
        doc = json.dumps(report.to_dict())
        parsed = json.loads(doc)
        assert parsed["seed"] == 11
        assert parsed["difference_test"]["df"] == 1
        assert parsed["dataset"]["fingerprint"] == ds.fingerprint()

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
            with pytest.raises(ValidationError, match=r"^\[fit\] event indicators must be 0 or 1"):
                dc.compare_exposures(dataclasses.replace(ds, event=event), spec)

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

    def test_p_formatting(self):
        assert dc.format_p(0.005) == "P = 0.005"
        assert dc.format_p(5e-5) == "P < 0.0001"
