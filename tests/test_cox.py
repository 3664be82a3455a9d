import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dupcox as dc
from dupcox import cox
from dupcox.cox import _inverses, _symmetric_inverse
from dupcox.errors import ConfigError, EstimationError, SingularMatrixError
from conftest import simulated_cohort
from oracles import (
    block_residuals,
    brute_force_loglik,
    brute_force_score_residuals,
    bucket_layout,
    central_difference_gradient,
    central_difference_jacobian,
    golden_section_max,
    per_stratum_evaluation,
    plain_design,
    random_design,
    sandwich_from_residuals,
    score_residuals,
)

# Binary-covariate cohort used throughout: x = (1, 0, 1, 0), events at times
# 1 < 2 < 3, fourth row censored at 4.  Values below were produced by the
# brute-force risk-set oracle before the engine was written.
FOUR_X = np.array([[1.0], [0.0], [1.0], [0.0]])
FOUR_EXIT = np.array([1.0, 2.0, 3.0, 4.0])
FOUR_EVENT = np.array([True, True, True, False])
FOUR_LL_AT_HALF = -2.9356779183378015
FOUR_SCORE_AT_ZERO = 2.0 / 3.0


def four_row_design():
    return plain_design(FOUR_X, FOUR_EXIT, FOUR_EVENT)


class TestLogPartialLikelihood:
    def test_three_rows_beta_zero_counts_risk_sets(self):
        d = plain_design(np.zeros((3, 1)), [1.0, 2.0, 3.0], [1, 1, 1])
        assert dc.evaluate(d, [0.0]).log_partial_likelihood == pytest.approx(-math.log(6),
                                                                             abs=1e-12)

    def test_singleton_risk_set_is_zero(self):
        d = plain_design(np.ones((1, 1)), [5.0], [1])
        assert dc.evaluate(d, [0.0]).log_partial_likelihood == 0.0

    def test_four_row_example_at_half(self):
        d = four_row_design()
        value = dc.evaluate(d, [0.5], "breslow").log_partial_likelihood
        assert value == pytest.approx(FOUR_LL_AT_HALF, abs=1e-12)
        assert dc.evaluate(d, [0.5], "efron").log_partial_likelihood == pytest.approx(
            FOUR_LL_AT_HALF, abs=1e-12)

    def test_no_events_is_an_error(self):
        d = plain_design(np.ones((2, 1)), [1.0, 2.0], [0, 0])
        with pytest.raises(EstimationError, match="no informative strata"):
            dc.evaluate(d, [0.0]).log_partial_likelihood

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("method", ["breslow", "efron"])
    def test_matches_brute_force_enumeration(self, ties, method):
        rng = np.random.default_rng(101 if ties else 202)
        for _ in range(25):
            d = random_design(rng, n=int(rng.integers(3, 9)), p=2, ties=ties,
                              truncation=True, n_strata=int(rng.integers(1, 3)))
            beta = rng.standard_normal(2)
            got = dc.evaluate(d, beta, method).log_partial_likelihood
            want = brute_force_loglik(d.entry, d.exit, d.event, d.X, beta,
                                      d.stratum_codes, method)
            assert got == pytest.approx(want, abs=1e-10)

    def test_efron_equals_breslow_without_ties(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            d = random_design(rng, n=7, p=2, ties=False, truncation=True)
            beta = rng.standard_normal(2)
            assert dc.evaluate(d, beta, "efron").log_partial_likelihood == \
                dc.evaluate(d, beta, "breslow").log_partial_likelihood

    def test_stratified_equals_sum_of_per_stratum(self):
        rng = np.random.default_rng(44)
        d = random_design(rng, n=12, p=2, ties=True, truncation=True, n_strata=3)
        beta = np.array([0.3, -0.2])
        total = dc.evaluate(d, beta).log_partial_likelihood
        parts = 0.0
        for key in np.unique(d.stratum_codes):
            rows = d.stratum_codes == key
            if not d.event[rows].any():
                continue
            sub = plain_design(d.X[rows], d.exit[rows], d.event[rows],
                               entry=d.entry[rows])
            parts += dc.evaluate(sub, beta).log_partial_likelihood
        assert total == parts


class TestScoreInformation:
    def test_score_at_zero_binary_covariate(self):
        got = dc.evaluate(four_row_design(), [0.0]).score
        assert got[0] == pytest.approx(FOUR_SCORE_AT_ZERO, abs=1e-14)

    def test_constant_within_risk_sets_gives_zero(self):
        d = plain_design(np.ones((4, 1)), [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        assert dc.evaluate(d, [0.7]).score[0] == pytest.approx(0.0, abs=1e-14)
        assert dc.evaluate(d, [0.7]).information[0, 0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("method", ["breslow", "efron"])
    def test_score_matches_finite_differences(self, method):
        rng = np.random.default_rng(55)
        for _ in range(10):
            d = random_design(rng, n=8, p=3, ties=True, truncation=True, n_strata=2)
            beta = rng.standard_normal(3) * 0.5
            got = dc.evaluate(d, beta, method).score
            want = central_difference_gradient(
                lambda b: dc.evaluate(d, b, method).log_partial_likelihood, beta)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("method", ["breslow", "efron"])
    def test_information_matches_score_jacobian(self, method):
        rng = np.random.default_rng(66)
        for _ in range(10):
            d = random_design(rng, n=8, p=2, ties=True, truncation=True)
            beta = rng.standard_normal(2) * 0.5
            got = dc.evaluate(d, beta, method).information
            want = -central_difference_jacobian(lambda b: dc.evaluate(d, b, method).score, beta)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("field", ["score", "information", "log_partial_likelihood"])
    def test_beta_of_another_shape_refused(self, field):
        with pytest.raises(ValueError, match=r"^beta has shape \(2,\), expected \(1,\)"):
            getattr(dc.evaluate(four_row_design(), [0.1, 0.2]), field)

    def test_information_symmetric_psd(self):
        rng = np.random.default_rng(77)
        d = random_design(rng, n=10, p=3, ties=True, truncation=True, n_strata=2)
        info = dc.evaluate(d, rng.standard_normal(3)).information
        assert np.max(np.abs(info - info.T)) <= 1e-10 * max(np.max(np.abs(info)), 1.0)
        assert np.linalg.eigvalsh(info).min() >= -1e-10


class TestFitOptions:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, 0.0, -1e-10, True, "1e-6"])
    def test_gradient_tolerance_must_be_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match="gradient_tolerance must be a finite number > 0"):
            dc.FitOptions(gradient_tolerance=value)

    @pytest.mark.parametrize("value", [2.5, 25.0, 0, -3, True, "25"])
    def test_max_iterations_must_be_a_positive_integer(self, value):
        with pytest.raises(ConfigError, match="max_iterations must be an integer >= 1"):
            dc.FitOptions(max_iterations=value)

    def test_unknown_tie_method_refused(self):
        with pytest.raises(ConfigError, match=r"^tie_method must be one of \('efron', 'breslow'\), "
                                              r"got 'exact'"):
            dc.FitOptions(tie_method="exact")

    @pytest.mark.parametrize("options", ["efron", {"tie_method": "efron"}, 25])
    def test_options_that_are_not_fit_options_are_refused(self, options):
        with pytest.raises(ConfigError, match=r"^options must be a FitOptions or None, got "):
            dc.fit(four_row_design(), options)

    def test_numpy_scalars_accepted(self):
        options = dc.FitOptions(max_iterations=np.int64(3), gradient_tolerance=np.float32(1e-6))
        result = dc.fit(four_row_design(), options, robust=False)
        assert result.iterations <= 3


class TestStop:
    """How a fit ended is one value, ``diagnostics.stop``."""

    def test_an_unknown_stop_is_refused(self):
        with pytest.raises(ConfigError, match=r"^stop must be one of \('converged', "
                                              r"'not_converged', 'step_halving_failed'\), "
                                              r"got 'diverged'"):
            dc.FitDiagnostics(1, 0, 1, False, stop="diverged")

    def test_a_converged_fit(self):
        result = dc.fit(four_row_design())
        assert result.converged and result.diagnostics.stop == "converged"
        assert result.diagnostics.message == ""

    def test_a_fit_out_of_iterations(self):
        ds, spec = simulated_cohort(seed=3, n=120)
        result = dc.fit(dc.block_design(ds, spec), dc.FitOptions(max_iterations=1))
        assert result.diagnostics.stop == "not_converged" and not result.converged
        assert result.diagnostics.message == "no convergence in 1 iterations"
        assert result.robust_covariance is None
        with pytest.raises(AttributeError):
            result.converged = True

    def test_evaluate_is_one_evaluation(self):
        d = random_design(np.random.default_rng(5), n=12, p=2, ties=True, truncation=True)
        beta = np.array([0.2, -0.1])
        got = dc.evaluate(d, beta, "breslow")
        assert got._fields == ("log_partial_likelihood", "score", "information")
        want = cox._Engine([d], "breslow").evaluate(beta[None])
        assert got.log_partial_likelihood == want.ll[0]
        np.testing.assert_array_equal(got.score, want.score[0])
        np.testing.assert_array_equal(got.information, want.info[0])


class TestFit:
    def test_one_dimensional_fit_matches_golden_section(self):
        d = four_row_design()
        result = dc.fit(d)
        oracle = golden_section_max(
            lambda b: brute_force_loglik(d.entry, d.exit, d.event, d.X, [b]), -5.0, 5.0)
        assert result.converged
        assert result.coefficients[0] == pytest.approx(oracle, abs=1e-6)

    def test_score_norm_at_optimum_below_tolerance(self):
        # Converged means the Newton decrement s' I^-1 s is at most tol^2.
        rng = np.random.default_rng(88)
        d = random_design(rng, n=30, p=2, ties=True, truncation=False)
        result = dc.fit(d)
        assert result.converged
        beta = result.coefficients
        s = dc.evaluate(d, beta).score
        decrement = s @ np.linalg.solve(dc.evaluate(d, beta).information, s)
        assert 0.0 <= decrement <= result.options.gradient_tolerance ** 2

    def test_information_not_positive_definite_raises(self):
        with pytest.raises(SingularMatrixError) as refused:
            _symmetric_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert refused.value.condition_number > 1e15

    def test_indefinite_information_named_by_its_eigenvalue(self):
        with pytest.raises(SingularMatrixError,
                           match="not positive definite .*smallest eigenvalue -1,") as refused:
            _symmetric_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert refused.value.condition_number == pytest.approx(3.0)

    def test_stacked_inverse_refuses_only_the_singular_matrix(self):
        # The batched Cholesky fails for the whole stack, so each matrix is
        # inverted alone: the positive-definite one as if it had no company.
        good = np.array([[2.0, 0.5], [0.5, 1.0]])
        inverse, errors = _inverses(np.array([good, [[1.0, 1.0], [1.0, 1.0]]]))
        assert np.array_equal(inverse[0], _symmetric_inverse(good))
        assert errors[0] is None
        assert isinstance(errors[1], SingularMatrixError)
        assert np.isnan(inverse[1]).all()

    def test_non_finite_information_is_refused(self):
        # The square of 1e200 overflows; the fit refuses at its first inverse,
        # with no warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError,
                               match="^information matrix is not positive definite .*not finite"):
                dc.fit(plain_design([[1e200], [0], [1], [2]], [1, 2, 3, 4], [1, 1, 1, 0]))

    def test_non_finite_information_fails_alone_in_a_stack(self):
        good = plain_design([[3.0], [0], [1], [2]], [1, 2, 3, 4], [1, 1, 1, 0])
        huge = plain_design([[1e200], [0], [1], [2]], [1, 2, 3, 4], [1, 1, 1, 0])
        failed, fitted = dc.cox.fit_stack([huge, good])
        assert isinstance(failed, SingularMatrixError) and "not finite" in str(failed)
        want = dc.fit(good)
        assert fitted.converged
        for key in ("coefficients", "model_covariance", "robust_covariance"):
            assert np.array_equal(getattr(fitted, key), getattr(want, key))

    def test_perfect_separation_diagnosed(self):
        d = plain_design(np.array([[1.0], [0.0]]), [1.0, 2.0], [1, 0])
        result = dc.fit(d, robust=False)
        assert result.diagnostics.separation_suspected
        assert result.diagnostics.message.endswith(
            "coefficient magnitude > 20 with increasing likelihood: probable separation")

    def test_duplicated_column_aliased(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(12)
        d = plain_design(np.column_stack([x, x]),
                         rng.uniform(1, 5, size=12),
                         rng.integers(0, 2, size=12))
        result = dc.fit(d, robust=False)
        assert result.aliased_mask.tolist() == [False, True]
        assert np.isnan(result.coefficients[1])
        assert result.converged
        assert np.isnan(result.model_covariance[1]).all()

    def test_aliased_design_stacked_fits_as_alone(self):
        # The duplicated column is held at zero in the stack's one Newton loop.
        rng = np.random.default_rng(99)
        x = rng.standard_normal(12)
        designs = [plain_design(np.column_stack([x, x]), rng.uniform(1, 5, size=12),
                                rng.integers(0, 2, size=12)),
                   plain_design(rng.standard_normal((30, 2)), rng.uniform(1, 5, size=30),
                                rng.integers(0, 2, size=30))]
        stacked = dc.cox.fit_stack(designs)
        assert stacked[0].aliased_mask.tolist() == [False, True]
        assert not stacked[1].aliased_mask.any()
        for got, design in zip(stacked, designs):
            want = dc.fit(design)
            assert got.converged and want.converged
            for key in ("coefficients", "model_covariance", "robust_covariance"):
                assert np.array_equal(getattr(got, key), getattr(want, key), equal_nan=True)
            assert np.array_equal(got.aliased_mask, want.aliased_mask)
            assert got.iterations == want.iterations

    def test_wholly_aliased_design_fails_alone_in_a_stack(self):
        rng = np.random.default_rng(7)
        empty = plain_design(np.zeros((10, 2)), rng.uniform(1, 5, size=10), np.ones(10, bool))
        other = plain_design(rng.standard_normal((30, 2)), rng.uniform(1, 5, size=30),
                             rng.integers(0, 2, size=30))
        failed, fitted = dc.cox.fit_stack([empty, other])
        assert isinstance(failed, EstimationError)
        assert "all design columns are aliased" in str(failed)
        with pytest.raises(EstimationError, match="all design columns are aliased"):
            dc.fit(empty)
        want = dc.fit(other)
        for key in ("coefficients", "model_covariance", "robust_covariance"):
            assert np.array_equal(getattr(fitted, key), getattr(want, key))
        assert fitted.iterations == want.iterations

    def test_information_not_positive_definite_fails_alone_in_a_stack(self):
        # A covariate cell of 1e200 overflows the information: it is not
        # finite, and only that problem is refused.
        spec = dc.ExposureSpec("continuous", ("A1", "A2"))
        good, _ = simulated_cohort(seed=31, n=200)
        huge = good.covariates.copy()
        huge[0, 0] = 1e200
        designs = [dc.block_design(good, spec),
                   dc.block_design(replace(good, covariates=huge), spec)]
        fitted, failed = dc.cox.fit_stack(designs)
        assert isinstance(failed, SingularMatrixError)
        assert "information matrix is not positive definite" in str(failed)
        with pytest.raises(SingularMatrixError) as alone:
            dc.fit(designs[1])
        assert str(alone.value) == str(failed)
        want = dc.fit(designs[0])
        assert fitted.converged
        for key in ("coefficients", "model_covariance", "robust_covariance"):
            assert np.array_equal(getattr(fitted, key), getattr(want, key))

    def test_no_events_raises(self):
        d = plain_design(np.ones((2, 1)), [1.0, 2.0], [0, 0])
        with pytest.raises(EstimationError, match="no informative strata"):
            dc.fit(d)

    def test_time_transform_invariance(self):
        rng = np.random.default_rng(111)
        d = random_design(rng, n=20, p=2, ties=False, truncation=True)
        base = dc.fit(d, robust=False)
        warped = plain_design(d.X, d.exit ** 3, d.event, entry=d.entry ** 3,
                              strata=d.stratum_codes)
        other = dc.fit(warped, robust=False)
        assert other.coefficients == pytest.approx(base.coefficients, abs=1e-8)

    def test_zero_event_strata_skipped_with_count(self):
        X = np.array([[0.5], [-0.5], [1.0], [-1.0]])
        d = plain_design(X, [1.0, 2.0, 1.5, 2.5], [1, 1, 0, 0],
                         strata=["a", "a", "b", "b"])
        result = dc.fit(d, robust=False)
        assert result.diagnostics.n_strata_used == 1
        assert result.diagnostics.n_strata_skipped == 1

    def test_strata_counted_from_codes_with_rows(self):
        # Codes a design never uses are no strata.  Rows all coded 3 are one
        # stratum and rows coded 5 and 2 are two; with events in code 5 alone
        # (``silent``) one is used and one skipped.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 1))
        dense = plain_design(X, np.arange(1.0, 9.0), [1, 1, 0, 1, 0, 0, 1, 0],
                             strata=list("aaaabbbb"))
        one = replace(dense, stratum_codes=np.full(8, 3))
        two = replace(dense, stratum_codes=np.repeat([5, 2], 4))
        for design, used in ((one, 1), (two, 2)):
            diagnostics = dc.fit(design, robust=False).diagnostics
            assert (diagnostics.n_strata_used, diagnostics.n_strata_skipped) == (used, 0)
        silent = replace(two, event=np.array([1, 1, 0, 1, 0, 0, 0, 0], dtype=bool))
        assert dc.fit(silent, robust=False).diagnostics.n_strata_skipped == 1
        # In a stack, each problem counts its own codes, gapped or dense.
        base = plain_design(X, np.arange(1.0, 9.0), silent.event, strata=list("aaaabbbb"))
        for stack in ([silent, base], [base, one], [one, silent, base]):
            for design, got in zip(stack, dc.cox.fit_stack(stack, robust=False)):
                want = dc.fit(design, robust=False)
                assert got.diagnostics == want.diagnostics
                assert np.array_equal(got.coefficients, want.coefficients)
        assert dc.fit(base, robust=False).diagnostics.n_strata_skipped == 1
        zero = replace(one, stratum_codes=np.zeros(8, dtype=int))
        assert np.array_equal(dc.fit(one).coefficients, dc.fit(zero).coefficients)


class TestScoreResiduals:
    @pytest.mark.parametrize("method", ["breslow", "efron"])
    def test_residuals_sum_to_score(self, method):
        rng = np.random.default_rng(123)
        for _ in range(10):
            d = random_design(rng, n=9, p=2, ties=True, truncation=True, n_strata=2)
            beta = rng.standard_normal(2) * 0.4
            resid = score_residuals(d, beta, method)
            assert resid.sum(axis=0) == pytest.approx(
                dc.evaluate(d, beta, method).score, abs=1e-10)

    @pytest.mark.parametrize("method", ["breslow", "efron"])
    def test_rows_match_brute_force(self, method):
        rng = np.random.default_rng(55)
        for _ in range(5):
            d = random_design(rng, n=12, p=2, ties=True, truncation=True, n_strata=2)
            beta = rng.standard_normal(2) * 0.4
            want = brute_force_score_residuals(d.entry, d.exit, d.event, d.X, beta,
                                               d.stratum_codes, method)
            assert score_residuals(d, beta, method) == pytest.approx(want, abs=1e-10)

    def test_eventless_stratum_rows_are_zero(self):
        d = plain_design(np.array([[1.0], [0.0], [1.0]]), [1.0, 2.0, 3.0],
                         [1, 0, 0], strata=["a", "a", "b"])
        resid = score_residuals(d, [0.2])
        assert resid[2, 0] == 0.0


class TestRobustCovariance:
    def test_singleton_clusters_match_dense_oracle(self):
        rng = np.random.default_rng(7)
        d = random_design(rng, n=15, p=2, ties=True, truncation=False)
        result = dc.fit(d)
        beta = result.coefficients
        resid = score_residuals(d, beta)
        info = dc.evaluate(d, beta).information
        oracle = sandwich_from_residuals(resid, d.cluster_codes, info)
        assert result.robust_covariance == pytest.approx(oracle, abs=1e-12)

    def test_duplicated_copies_share_cluster(self):
        # Two identical copies of a small cohort, cluster-tied by subject.
        rng = np.random.default_rng(8)
        n = 10
        x = rng.standard_normal(n)
        exit_ = rng.uniform(1, 4, size=n)
        event = rng.uniform(size=n) < 0.6
        event[0] = True
        d = plain_design(
            np.concatenate([x, x]).reshape(-1, 1),
            np.concatenate([exit_, exit_]),
            np.concatenate([event, event]),
            strata=["c1"] * n + ["c2"] * n,
            cluster=[str(i) for i in range(n)] * 2,
        )
        result = dc.fit(d)
        beta = result.coefficients
        resid = score_residuals(d, beta)
        oracle = sandwich_from_residuals(resid, d.cluster_codes, dc.evaluate(d, beta).information)
        assert result.robust_covariance == pytest.approx(oracle, abs=1e-12)

    def test_fit_reuses_index_without_changing_results(self):
        # Left truncation, heavy ties and clusters of three rows: the sandwich
        # and model covariance computed inside fit match the standalone paths.
        rng = np.random.default_rng(21)
        base = random_design(rng, n=60, p=2, ties=True, truncation=True, n_strata=2)
        d = plain_design(base.X, base.exit, base.event, entry=base.entry,
                         strata=base.stratum_codes, cluster=[f"c{i // 3}" for i in range(60)])
        assert np.any(d.entry > 0)
        assert len(np.unique(d.exit[d.event])) < d.event.sum()
        result = dc.fit(d)
        assert result.converged
        assert result.robust_covariance == pytest.approx(
            dc.robust_covariance(d, result), abs=1e-12)
        info = dc.evaluate(d, result.coefficients).information
        assert result.model_covariance == pytest.approx(np.linalg.inv(info), abs=1e-12)

    def test_symmetry_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = random_design(rng, n=12, p=3, ties=True, truncation=True)
            result = dc.fit(d)
            if not result.converged:
                continue
            b = result.robust_covariance
            assert np.max(np.abs(b - b.T)) <= 1e-10 * np.max(np.abs(b))
            assert np.array_equal(result.model_covariance, result.model_covariance.T)

    @pytest.mark.parametrize("method", ["efron", "breslow"])
    def test_cluster_sums_are_those_of_the_residual_rows(self, method):
        # Tied integer times, delayed entry, clusters of three rows and
        # strata of 1 to 600 rows in several buckets, in a stack of three.
        # The sandwich's cluster sums G, streamed one block column at a
        # time, are bit for bit the bincount of the stacked residual rows,
        # and a problem's columns of G are those of its stack of one.
        designs = [many_strata_block_design(seed, n_small=200, n_big=200)
                   for seed in (11, 13, 15)]
        theta = np.random.default_rng(4).standard_normal((3, designs[0].n_columns)) * 0.2
        stack = cox._Engine(designs, method)
        assert len(stack.buckets) > 1
        ev = stack.evaluate(theta)
        G = stack.cluster_sums(ev)
        want = np.array([np.bincount(stack.cluster_codes, weights=row,
                                     minlength=stack.n_clusters)
                         for row in block_residuals(stack, ev)])
        np.testing.assert_array_equal(G, want)
        ends = np.append(stack.cluster_start, stack.n_clusters)
        for r, design in enumerate(designs):
            alone = cox._Engine([design], method)
            np.testing.assert_array_equal(alone.cluster_sums(alone.evaluate(theta[r:r + 1])),
                                          G[:, ends[r]:ends[r + 1]])

    def test_requires_converged_fit(self):
        d = plain_design(np.array([[1.0], [0.0]]), [1.0, 2.0], [1, 0])
        result = dc.fit(d, dc.FitOptions(max_iterations=1), robust=False)
        if result.converged:
            pytest.skip("separation converged unexpectedly fast")
        with pytest.raises(EstimationError, match="converged"):
            dc.robust_covariance(d, result)


class TestConvergenceAtScale:
    """Large cohorts converge at the default tolerance.

    With risk-set sums formed as differences of whole-stratum running totals,
    the score's rounding noise at the optimum stayed above an absolute 1e-9
    score tolerance here and both fits stopped after 25 iterations without
    converging.
    """

    @staticmethod
    def cohort(n, beta, seed):
        config = dc.SimConfig(n_subjects=n, exposure_correlation=0.7, true_beta=beta,
                              covariate_effects=(0.3, -0.2), censoring_rate=0.3,
                              n_strata=4, replicate_count=1, master_seed=seed)
        return dc.simulate_cohort(config, 0)

    def test_100k_continuous_converges(self):
        dataset = self.cohort(100_000, (0.5, 0.3), 1)
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
        result = dc.compare_exposures(dataset, spec).fit
        assert result.options.gradient_tolerance == 1e-10
        assert result.converged, result.diagnostics.message

    def test_50k_quintiles_small_effects_converge(self):
        dataset = self.cohort(50_000, (0.2, 0.2), 10)
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=5)
        result = dc.compare_exposures(dataset, spec).fit
        assert result.options.gradient_tolerance == 1e-10
        assert result.converged, result.diagnostics.message


class TestScaleFreeStop:
    """The stop does not depend on a covariate's units.

    A covariate in raw units, such as energy intake in kcal/day, leaves a
    score whose rounding noise at the optimum grows with the column's scale.
    An absolute 1e-9 bound on the score's max-norm stalled the kcal cohort
    for 25 iterations without converging and took 9 on the rescaled one.
    """

    @staticmethod
    def check(n, n_strata, scale, shift):
        config = dc.SimConfig(n_subjects=n, exposure_correlation=0.7, true_beta=(0.5, 0.3),
                              covariate_effects=(0.2, -0.1), n_strata=n_strata,
                              replicate_count=1, master_seed=1)
        dataset = dc.simulate_cohort(config, 0)
        covariates = dataset.covariates.copy()
        covariates[:, 0] = scale * covariates[:, 0] + shift  # L1
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
        base = dc.compare_exposures(dataset, spec)
        moved = dc.compare_exposures(replace(dataset, covariates=covariates), spec)
        assert moved.fit.converged, moved.fit.diagnostics.message
        assert moved.fit.iterations <= 6
        assert moved.difference_test is not None
        # A coefficient of the rescaled column is the original's over the scale.
        mapped = moved.fit.coefficients * np.array(
            [scale if name.split(":")[0] == "L1" else 1.0 for name in moved.fit.column_names])
        assert mapped == pytest.approx(base.fit.coefficients, rel=1e-8, abs=0.0)

    def test_kcal_units_converge(self):
        self.check(5000, 4, 100.0, 2000.0)

    def test_pure_rescale_converges(self):
        self.check(50_000, 1, 2000.0, 0.0)

    # Columns are centred per stratum, so a shift leaves the rounding of the
    # score and information where it was without one.
    @pytest.mark.parametrize("n, shift", [(5000, 2000.0), (50_000, 2000.0), (50_000, 2e7)])
    def test_shift_converges(self, n, shift):
        self.check(n, 4, 1.0, shift)


class TestConstantCovariateIsAliased:
    """A covariate constant within each stratum is reported aliased, not
    refused: centred on its stratum's midpoint, its column is exactly 0."""

    @staticmethod
    def check(L1):
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
        for seed in range(3):
            config = dc.SimConfig(n_subjects=300, exposure_correlation=0.5,
                                  true_beta=(0.4, 0.2), covariate_effects=(0.3,), n_strata=2,
                                  master_seed=seed)
            dataset = dc.simulate_cohort(config, 0)
            without = dc.compare_exposures(replace(
                dataset, schema=replace(dataset.schema, covariate_columns=()),
                covariates=dataset.covariates[:, :0]), spec)
            for column in L1(dataset):
                report = dc.compare_exposures(replace(dataset, covariates=column[:, None]), spec)
                assert report.to_dict()["fit"]["aliased"] == ["L1", "L1:A_type2"]
                assert report.difference_test.statistic == pytest.approx(
                    without.difference_test.statistic, rel=1e-10, abs=0.0)
                coefficients = [report.fit.coefficient(name) for name in without.fit.column_names]
                assert coefficients == pytest.approx(without.fit.coefficients, rel=1e-10, abs=0.0)

    # Centred on its mean instead, about half of these columns are rounding noise,
    # which the fit refuses as singular.
    CONSTANTS = np.random.default_rng(7).uniform(-1000.0, 1000.0, 30)

    def test_constant_over_the_cohort(self):
        self.check(lambda ds: [np.full(len(ds), c) for c in self.CONSTANTS])

    def test_constant_within_each_stratum(self):
        self.check(lambda ds: [np.where(ds.stratum_codes == 0, c, 0.5 - c)
                               for c in self.CONSTANTS])

    def test_constant_near_float_max_is_aliased_without_a_warning(self):
        # The midpoint halves each end before adding them, so (max + min)
        # cannot overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(lambda ds: [np.full(len(ds), 1.5e308), np.full(len(ds), -1.5e308)])

    def test_values_near_float_max_are_refused_without_a_warning(self):
        # Centred, the column is finite, but its sum over events and its
        # square overflow: the fit refuses the information as not finite.
        dataset, spec = simulated_cohort(seed=0, n=300)
        L1 = np.where(dataset.covariates[:, 0] > 0, 1.5e308, -1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match=r"^\[fit\] information matrix is "
                                                          r"not positive definite .*not finite"):
                dc.compare_exposures(replace(dataset, covariates=L1[:, None]), spec)


def many_strata_cohort(seed, n_small=2000, n_big=1500):
    """Thousands of strata of 1-3 rows, some without events, then one stratum
    of ``n_big`` three-row subjects with delayed entry, on integer times
    (so events tie), as the arguments of a :func:`plain_design` with 3 columns."""
    rng = np.random.default_rng(seed)
    size = rng.integers(1, 4, size=n_small)
    strata = np.repeat([f"a{k:04d}" for k in range(n_small)], size).tolist()
    exit_ = rng.integers(1, 6, size=size.sum()).astype(float)
    entry = np.where(rng.uniform(size=size.sum()) < 0.3, exit_ - 0.5, 0.0)
    event = rng.uniform(size=size.sum()) < 0.5
    # The big stratum's subjects: (e, t1], (t1, t2], (t2, t3] with an event, if
    # any, ending the last interval.
    start = rng.integers(0, 3, size=n_big)
    bounds = start[:, None] + np.cumsum(rng.integers(1, 4, size=(n_big, 3)), axis=1)
    bounds = np.column_stack([start, bounds]).astype(float)
    died = rng.uniform(size=n_big) < 0.6
    strata += ["z"] * (3 * n_big)
    entry = np.concatenate([entry, bounds[:, :-1].ravel()])
    exit_ = np.concatenate([exit_, bounds[:, 1:].ravel()])
    event = np.concatenate([event, np.repeat(died, 3) & np.tile([False, False, True], n_big)])
    cluster = [f"c{i}" for i in range(size.sum())] + [f"s{i // 3}" for i in range(3 * n_big)]
    X = rng.standard_normal((len(exit_), 3))
    return dict(X=X, exit_=exit_, event=event, entry=entry, strata=strata, cluster=cluster)


def many_strata_block_design(seed, n_small, n_big):
    """The block design of :func:`many_strata_cohort` ``seed``, its first
    column a covariate, compared as two continuous exposures drawn from
    ``seed + 1``; subjects of the big stratum are clusters of three rows."""
    cohort = many_strata_cohort(seed, n_small=n_small, n_big=n_big)
    d = plain_design(**cohort)
    rng = np.random.default_rng(seed + 1)
    schema = dc.Schema(id_column="id", entry_column="entry", exit_column="exit",
                       event_column="event", exposure_columns=("A1", "A2"),
                       covariate_columns=("L1",), strata_columns=("g",))
    dataset = dc.Dataset(schema, np.asarray(cohort["cluster"], dtype=object),
                         d.entry, d.exit, d.event,
                         rng.standard_normal((len(d), 2)), d.X[:, :1],
                         np.asarray(cohort["strata"], dtype=object).reshape(-1, 1))
    return dc.block_design(dataset, dc.ExposureSpec("continuous", ("A1", "A2")))


class TestRiskSetIndex:
    """The engine orders rows by sorting integer keys made unique, and finds
    its windows by linear passes; each bucket equals its definition."""

    @staticmethod
    def check(design):
        engine = cox._Engine([design], "efron")
        kept = np.flatnonzero(np.bincount(design.stratum_codes, weights=design.event))
        for bk in engine.buckets:
            (S, L), K = bk.empty.shape, 1 if bk.late is None else bk.late.shape[1]
            want = bucket_layout(design, kept[bk.strata], L, bk.E, K)
            for name in ("rows", "fail", "exit_at", "window_end"):
                np.testing.assert_array_equal(getattr(bk, name), want[name], err_msg=name)
            if bk.late is None:  # no late rows: every window starts at its stratum's empty cell
                assert not want["late"].any()
                empty = np.where(bk.rows < len(design), np.arange(S * L) // L * bk.E, 0)
                np.testing.assert_array_equal(want["window_start"], empty)
            else:
                for name in ("late", "late_at", "window_start"):
                    np.testing.assert_array_equal(getattr(bk, name), want[name], err_msg=name)
        return engine

    @pytest.mark.parametrize("seed", [3, 4])
    def test_delayed_entry_ties_and_many_strata(self, seed):
        self.check(plain_design(**many_strata_cohort(seed, n_small=300, n_big=200)))

    def test_without_delayed_entry(self):
        cohort = many_strata_cohort(5, n_small=300, n_big=200)
        self.check(plain_design(**{**cohort, "entry": np.zeros(len(cohort["exit_"]))}))

    def test_stable_sort_when_keys_would_overflow(self, monkeypatch):
        design = plain_design(**many_strata_cohort(6, n_small=300, n_big=200))
        beta = np.array([0.3, -0.2, 0.1])
        unique = self.check(design).evaluate(beta[None])
        monkeypatch.setattr(cox, "SORT_KEY_BOUND", 1)
        stable = self.check(design).evaluate(beta[None])
        for got, want in zip(stable[:3], unique[:3]):
            np.testing.assert_array_equal(got, want)

    def test_integer_blocks_read_as_floats(self):
        floats = plain_design(**many_strata_cohort(7, n_small=50, n_big=20))
        integers = replace(floats, blocks=np.round(floats.blocks * 10).astype(int))
        beta = np.array([0.03, -0.02, 0.01])
        as_floats = replace(floats, blocks=integers.blocks * 1.0)
        np.testing.assert_array_equal(dc.evaluate(integers, beta).score,
                                      dc.evaluate(as_floats, beta).score)

    def test_ranks_are_those_of_the_distinct_values(self):
        rng = np.random.default_rng(1)
        entry = np.concatenate([np.zeros(300), -np.zeros(50), rng.integers(0, 40, 200) / 4])
        exit_ = np.concatenate([rng.integers(1, 60, 400) / 4, [0.0, -0.0],
                                rng.exponential(size=98)])
        want = np.unique(np.concatenate([entry, exit_]), return_inverse=True)[1]
        for got, expected in zip(cox._ranks(entry, exit_), np.split(want, [len(entry)])):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(cox._ranks(exit_)[0],
                                      np.unique(exit_, return_inverse=True)[1])

    @pytest.mark.parametrize("bound", [None, 1])
    def test_stable_order_is_a_stable_argsort(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(cox, "SORT_KEY_BOUND", bound)
        keys = np.random.default_rng(0).integers(0, 50, size=5000)
        np.testing.assert_array_equal(cox._stable_order(keys, 50),
                                      np.argsort(keys, kind="stable"))
        assert cox._stable_order(keys[:0], 50).size == 0


class TestSinglePassOverStrata:
    """All strata in one layout give what each stratum gives on its own."""

    @staticmethod
    def assert_close(got, want):
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("method", ["efron", "breslow"])
    def test_large_stratum_after_thousands_of_small_ones(self, method):
        d = plain_design(**many_strata_cohort(7))
        assert len(np.unique(d.stratum_codes)) > 2000
        beta = np.array([0.3, -0.2, 0.1])
        ll, score, info, resid = per_stratum_evaluation(d, beta, method)
        got_ll = dc.evaluate(d, beta, method).log_partial_likelihood
        assert abs(got_ll - ll) <= 1e-12 * abs(ll)
        self.assert_close(dc.evaluate(d, beta, method).score, score)
        self.assert_close(dc.evaluate(d, beta, method).information, (info + info.T) / 2)
        self.assert_close(score_residuals(d, beta, method), resid)

    @pytest.mark.parametrize("method", ["efron", "breslow"])
    def test_block_design_with_many_strata(self, method):
        design = many_strata_block_design(8, n_small=600, n_big=300)
        theta = np.array([0.2, -0.1, 0.15, 0.05])
        ll, score, info, resid = per_stratum_evaluation(design, theta, method)
        got_ll = dc.evaluate(design, theta, method).log_partial_likelihood
        assert abs(got_ll - ll) <= 1e-12 * abs(ll)
        self.assert_close(dc.evaluate(design, theta, method).score, score)
        self.assert_close(dc.evaluate(design, theta, method).information, (info + info.T) / 2)
        self.assert_close(score_residuals(design, theta, method), resid)

    @pytest.mark.parametrize("sizes", [[1] * 50 + [1000], [3, 4, 5, 7, 9, 17, 33, 64, 65, 200],
                                       list(range(1, 300)), [40] * 30])
    def test_bucket_rule(self, sizes):
        """At most ceil(log2(largest / smallest)) + 1 buckets, and no bucket's
        grid wider than twice its smallest stratum."""
        rng = np.random.default_rng(len(sizes))
        strata = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(strata)
        n = len(strata)
        d = plain_design(rng.standard_normal((n, 1)), rng.uniform(1, 2, n), np.ones(n, bool),
                         strata=[f"k{v}" for v in strata])
        engine = dc.cox._Engine([d], "efron")
        bound = math.ceil(math.log2(max(sizes) / min(sizes))) + 1
        assert len(engine.buckets) <= bound
        assert sum(len(bk.strata) for bk in engine.buckets) == len(sizes)
        for bk in engine.buckets:
            cells = bk.rows.reshape(len(bk.strata), -1)
            in_stratum = (cells != engine.n).sum(axis=1)
            # Each grid row is one empty leading cell, then the stratum padded.
            assert cells.shape[1] - 1 == in_stratum.max() <= 2 * in_stratum.min()
