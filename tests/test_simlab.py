import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import dupcox as dc
from dupcox import cox, inference, simlab
from dupcox.errors import (AliasedCoefficientError, ConfigError, DupcoxError,
                           SingularMatrixError)


def config(**overrides):
    base = dict(
        n_subjects=120,
        exposure_correlation=0.5,
        true_beta=(0.4, 0.4),
        covariate_effects=(0.3,),
        censoring_rate=0.25,
        n_strata=2,
        replicate_count=20,
        master_seed=123,
    )
    base.update(overrides)
    return dc.SimConfig(**base)


class TestSimConfig:
    def test_zero_replicates_rejected(self):
        with pytest.raises(ConfigError, match="replicate_count"):
            config(replicate_count=0)

    def test_correlation_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="correlation"):
            config(exposure_correlation=1.5)

    def test_negative_equicorrelation_psd_check(self):
        with pytest.raises(ConfigError, match="semidefinite"):
            config(true_beta=(0.1, 0.1, 0.1), exposure_correlation=-0.9)

    def test_censoring_rate_one_rejected(self):
        with pytest.raises(ConfigError, match="censoring_rate"):
            config(censoring_rate=1.0)

    @pytest.mark.parametrize("name", ["n_subjects", "n_strata", "replicate_count",
                                      "master_seed"])
    @pytest.mark.parametrize("value", [100.5, 10.0, True, "10", None])
    def test_integer_fields_refuse_other_types(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            config(**{name: value})

    def test_negative_master_seed_rejected(self):
        with pytest.raises(ConfigError, match="master_seed must be >= 0"):
            config(master_seed=-1)

    @pytest.mark.parametrize("name, values", [("true_beta", (0.4, np.nan)),
                                              ("true_beta", (np.inf, 0.4)),
                                              ("covariate_effects", (-np.inf,)),
                                              ("covariate_effects", (0.3, np.nan))])
    def test_non_finite_effects_rejected(self, name, values):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            config(**{name: values})

    def test_one_exposure_rejected(self):
        with pytest.raises(ConfigError,
                           match="^true_beta needs one entry per exposure, at least two$"):
            config(true_beta=(0.4,))

    @pytest.mark.parametrize("n", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_n_subjects_past_numpy_sizes_rejected(self, n):
        with pytest.raises(ConfigError, match=r"^n_subjects must be < 2\*\*63$"):
            dc.estimate_type1_error(config(n_subjects=n))

    def test_numpy_integers_accepted(self):
        cfg = config(n_subjects=np.int64(30), replicate_count=np.int32(2))
        assert len(dc.simulate_cohort(cfg, 0)) == 30


class TestSimulateCohort:
    def test_fixed_seed_pair_reproduces_exactly(self):
        cfg = config()
        a = dc.simulate_cohort(cfg, 3)
        b = dc.simulate_cohort(cfg, 3)
        assert a == b
        assert a.fingerprint() == b.fingerprint()
        assert dc.simulate_cohort(cfg, 4).fingerprint() != a.fingerprint()

    def test_ids_and_strata_are_plain_string_labels(self):
        ds = dc.simulate_cohort(config(n_subjects=30, n_strata=12), 0)
        assert ds.subject_ids.dtype == object and ds.strata.dtype == object
        assert ds.subject_ids.tolist() == [str(i + 1) for i in range(30)]
        assert all(type(v) is str for v in ds.subject_ids)
        assert all(type(v) is str for v in ds.strata[:, 0])
        # The labels drawn by the row-by-row f"s{v}" construction.
        assert ds.strata[:, 0].tolist() == [
            "s9", "s0", "s11", "s9", "s8", "s3", "s9", "s3", "s10", "s11", "s10", "s4",
            "s10", "s5", "s9", "s11", "s4", "s9", "s11", "s10", "s2", "s5", "s5", "s2",
            "s2", "s0", "s8", "s0", "s1", "s1"]

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_replicate_index_must_be_a_non_negative_integer(self, index):
        with pytest.raises(ConfigError, match="replicate_index must be an integer >= 0"):
            dc.simulate_cohort(config(), index)

    @pytest.mark.parametrize("n_strata", [1, 3, 12])
    @pytest.mark.parametrize("n", [2, 9, 10, 11, 99, 100, 101, 500, 1000])
    def test_cohort_carries_the_codes_its_labels_give(self, n, n_strata):
        # "s10" sorts before "s2", and "10" before "2": the codes are ranks of
        # the labels' text, not of the numbers drawn.
        for replicate in (0, 1):
            given = dc.simulate_cohort(config(n_subjects=n, n_strata=n_strata), replicate)
            derived = dc.Dataset(given.schema, given.subject_ids, given.entry, given.exit,
                                 given.event, given.exposures, given.covariates, given.strata)
            for name in ("stratum_codes", "subject_codes"):
                want = getattr(derived, name)
                got = given.__dict__[name]  # set by simulate_cohort, not derived
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert given.strata_keys().tolist() == derived.strata_keys().tolist()

    def test_codes_skip_a_stratum_the_cohort_lacks(self):
        ds = dc.simulate_cohort(config(n_subjects=9, n_strata=12), 0)
        present = sorted(set(ds.strata[:, 0]))
        assert len(present) < 12
        assert ds.stratum_codes.tolist() == [present.index(v) for v in ds.strata[:, 0]]
        assert ds.subject_codes.tolist() == [sorted(ds.subject_ids).index(v)
                                             for v in ds.subject_ids]

    def test_cohorts_of_a_scenario_share_no_writable_array(self):
        # The ids and codes are built once per scenario; each cohort's ids
        # are its own copy.
        cfg = config(n_subjects=30)
        first = dc.simulate_cohort(cfg, 0)
        first.subject_ids[0] = "changed"
        second = dc.simulate_cohort(cfg, 1)
        assert second.subject_ids[0] == "1"
        assert not second.subject_codes.flags.writeable

    def test_high_censoring_starves_events(self):
        sparse = dc.simulate_cohort(config(censoring_rate=0.97, n_subjects=400), 0)
        dense = dc.simulate_cohort(config(censoring_rate=0.0, n_subjects=400), 0)
        assert sparse.event.mean() < 0.15
        assert dense.event.all()

    def test_null_betas_give_unit_hazard_ratio(self):
        cfg = config(true_beta=(0.0, 0.0), n_subjects=1500, censoring_rate=0.2)
        ds = dc.simulate_cohort(cfg, 0)
        fit = dc.fit(dc.single_exposure_design(ds, cfg.exposure_spec(), 0),
                     robust=False)
        assert abs(fit.coefficients[0]) < 0.1

    def test_exposure_correlation_is_respected(self):
        ds = dc.simulate_cohort(config(n_subjects=4000, exposure_correlation=0.7), 0)
        observed = np.corrcoef(ds.exposures[:, 0], ds.exposures[:, 1])[0, 1]
        assert observed == pytest.approx(0.7, abs=0.05)

    def test_negative_equicorrelation(self):
        cfg = config(n_subjects=20_000, exposure_correlation=-0.4, true_beta=(0.4, 0.4, 0.4))
        exposures = dc.simulate_cohort(cfg, 0).exposures
        corr = np.corrcoef(exposures, rowvar=False)[~np.eye(3, dtype=bool)]
        assert np.abs(corr + 0.4).max() < 0.03
        assert np.array_equal(dc.simulate_cohort(cfg, 0).exposures, exposures)

    def test_rho_one_duplicates_the_exposure(self):
        ds = dc.simulate_cohort(config(exposure_correlation=1.0), 0)
        assert np.array_equal(ds.exposures[:, 0], ds.exposures[:, 1])

    def test_dataset_passes_validation(self):
        report = dc.validate(dc.simulate_cohort(config(), 0))
        assert report.all_passed

    @pytest.mark.parametrize("seed, large, null", [
        (1, "ccc095f42b4108dba9f06ecb2d9183948a5be00895b686bbc966c6dd74bf7751",
         "2b9f7ec9c4d3f7ae5c1863bf7967d6a08bee1ffe0e5fae5eca2bd84e8b95f57a"),
        (2, "aa83114f84f070b6f694de6412f7955d04b33e64282a7d6bedc953fc78f9ec23",
         "eaa1129466c7856c18ca8d95baff7cdcbdfc55f902e602d1eafbd5767d9314a0"),
        (3, "15016b1139c146e7fdbe063f63ba24fd46ce3b6e978b0d3fb08dc71258fe52ae",
         "c229523c7e8dfe3a35996df8cb7de18ec4dc0cee566f397479b6b467e8447419"),
    ])
    def test_benchmark_cohorts_are_pinned(self, seed, large, null):
        # The cohorts of the benchmark's compare_large and simlab_null
        # workloads (replicate 0), byte for byte.
        compare_large = dc.SimConfig(
            n_subjects=50_000, exposure_correlation=0.7, true_beta=(0.5, 0.3),
            covariate_effects=(0.3, -0.2), censoring_rate=0.3, n_strata=4,
            replicate_count=1, master_seed=seed)
        simlab_null = dc.SimConfig(
            n_subjects=500, exposure_correlation=0.7, true_beta=(0.4, 0.4),
            covariate_effects=(0.3,), censoring_rate=0.3, n_strata=4,
            replicate_count=20, master_seed=seed)
        assert dc.simulate_cohort(compare_large, 0).fingerprint() == large
        assert dc.simulate_cohort(simlab_null, 0).fingerprint() == null


class TestCalibration:
    def test_degenerate_null_never_rejects(self):
        cfg = config(exposure_correlation=1.0, n_subjects=80, replicate_count=15)
        result = dc.estimate_type1_error(cfg, alpha=0.05)
        assert result.rejection_rate == 0.0
        assert all(p == 1.0 for p in result.p_values)

    def test_alpha_one_rejects_everything(self):
        cfg = config(n_subjects=80, replicate_count=10)
        result = dc.estimate_type1_error(cfg, alpha=1.0)
        assert result.rejection_rate == 1.0

    def test_non_null_config_refused(self):
        with pytest.raises(ConfigError, match="null"):
            dc.estimate_type1_error(config(true_beta=(0.5, 0.1)))

    def test_doubling_replicates_reproduces_prefix(self):
        short = dc.estimate_type1_error(config(replicate_count=8), 0.05)
        long = dc.estimate_type1_error(config(replicate_count=16), 0.05)
        assert long.p_values[:8] == short.p_values

    def test_power_with_equal_betas_reduces_to_type1(self):
        cfg = config(replicate_count=10)
        power = dc.estimate_power(cfg, 0.05)
        type1 = dc.estimate_type1_error(cfg, 0.05)
        assert power.p_values == type1.p_values

    def test_power_detects_a_large_difference(self):
        cfg = config(true_beta=(0.8, 0.0), exposure_correlation=0.3,
                     n_subjects=300, replicate_count=25)
        result = dc.estimate_power(cfg, alpha=0.05)
        assert result.rejection_rate > 0.9

    def test_naive_baseline_column(self):
        cfg = config(replicate_count=6)
        result = dc.estimate_type1_error(cfg, 0.05, include_naive=True)
        assert result.naive_rejection_rate is not None

    def test_naive_baseline_matches_separate_fits(self):
        # Oracle: fit each exposure alone and z-test b2 - b1 with variance
        # var1 + var2, ignoring the correlation between the two estimates.
        cfg = config(true_beta=(0.6, 0.2), exposure_correlation=0.3,
                     n_subjects=200, replicate_count=12)
        spec = cfg.exposure_spec()
        alpha = 0.2
        oracle = []
        for r in range(cfg.replicate_count):
            dataset = dc.simulate_cohort(cfg, r)
            fits = [dc.fit(dc.single_exposure_design(dataset, spec, j), robust=False)
                    for j in range(2)]
            z_sq = ((fits[0].coefficients[0] - fits[1].coefficients[0]) ** 2
                    / (fits[0].model_covariance[0, 0] + fits[1].model_covariance[0, 0]))
            oracle.append(dc.chi_square_upper_tail(float(z_sq), 1))
            report = dc.compare_exposures(dataset, spec)
            naive = dc.wald_univariate(report.fit, "Exposures:A_type2", "model").p_value
            assert naive == pytest.approx(oracle[-1], abs=1e-8)
        result = dc.estimate_power(cfg, alpha, include_naive=True)
        assert result.n_failures == 0
        rate = sum(p < alpha for p in oracle) / len(oracle)
        assert 0.0 < rate < 1.0
        assert result.naive_rejection_rate == rate

    def test_result_is_json_ready(self):
        import json

        result = dc.estimate_type1_error(config(replicate_count=5), 0.05)
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["scenario"] == "type1"
        assert doc["n_replicates"] == 5


# A scenario with failing replicates: at n = 15, 16 of its 60 replicates stop
# with a coefficient beyond +-20.
FAILING = dict(n_subjects=15, exposure_correlation=0.3, true_beta=(1.5, 0.2),
               covariate_effects=(0.3,), censoring_rate=0.5, n_strata=2,
               replicate_count=60, master_seed=5)


# At n = 8, some designs have a column aliased at the starting point:
# replicate 27 wholly, replicate 49 in part.
ALIASED = dict(n_subjects=8, exposure_correlation=0.3, true_beta=(0.4, 0.4),
               covariate_effects=(0.3,), censoring_rate=0.5, n_strata=2,
               replicate_count=50, master_seed=3)

# At n = 6 with 90% censoring, 13 of 20 cohorts have no event, and
# block_design refuses them.
EVENTLESS = dict(n_subjects=6, exposure_correlation=0.3, true_beta=(0.4, 0.4),
                 censoring_rate=0.9, replicate_count=20, master_seed=1)


def assert_matches_own_compare(cohorts, spec):
    """Each cohort's outcome in one batched pass equals its own compare_exposures:
    the same report and table, with the naive p-value of the model-variance
    test of the first tested coefficient, or an error of the same type and text."""
    reports = inference.compare_stack(cohorts, spec)
    for cohort, got in zip(cohorts, reports):
        try:
            want = dc.compare_exposures(cohort, spec)
        except DupcoxError as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert got.to_dict() == want.to_dict()
        assert dc.render_table(got) == dc.render_table(want)
        if want.difference_test is not None:
            first = want.difference_test.tested_coefficients[0]
            assert simlab._naive_p(got) == dc.wald_univariate(want.fit, first, "model").p_value
    return reports


def stacks_at(monkeypatch, rows):
    """Set the stack bound to ``rows`` cohort rows; the list that each
    ``compare_stack`` call of the simulation lab appends its size to."""
    monkeypatch.setattr(simlab, "CHUNK_ROWS", rows)
    sizes = []

    def counted(cohorts, spec):
        sizes.append(len(cohorts))
        return inference.compare_stack(cohorts, spec)

    monkeypatch.setattr(simlab, "compare_stack", counted)
    return sizes


class TestBatchedReplicates:
    # At n = 500 the 20 replicates are one stack at the default bound, two of
    # 10 at 5 000 rows, and stacks of 3 at 3 * 500 + 50; each replicate alone
    # is the reference.
    @pytest.mark.parametrize("rows, stacks", [(3 * 500 + 50, 7), (5_000, 2),
                                              (simlab.CHUNK_ROWS, 1)])
    def test_p_values_do_not_depend_on_count_or_chunks(self, monkeypatch, rows, stacks):
        cfg = config(n_subjects=500)
        sizes = stacks_at(monkeypatch, rows)
        stacked = dc.estimate_type1_error(cfg, 0.05, include_naive=True)
        assert len(sizes) == stacks
        for count in (1, 7):
            assert dc.estimate_type1_error(config(n_subjects=500, replicate_count=count),
                                           0.05).p_values == stacked.p_values[:count]
        stacks_at(monkeypatch, 1)
        alone = dc.estimate_type1_error(cfg, 0.05, include_naive=True)
        assert len(alone.p_values) == 20
        assert stacked.p_values == alone.p_values
        assert stacked.to_dict() == alone.to_dict()

    @pytest.mark.parametrize("rows", [7 * 15, 5_000, simlab.CHUNK_ROWS])
    def test_failing_scenario_does_not_depend_on_chunks(self, monkeypatch, rows):
        cfg = dc.SimConfig(**FAILING)
        stacks_at(monkeypatch, rows)
        chunked = dc.estimate_power(cfg, 0.05, include_naive=True)
        stacks_at(monkeypatch, 1)
        alone = dc.estimate_power(cfg, 0.05, include_naive=True)
        assert chunked.to_dict() == alone.to_dict()
        assert chunked.p_values == alone.p_values

    def test_each_replicate_matches_its_own_compare(self):
        cfg = dc.SimConfig(**FAILING)
        spec = cfg.exposure_spec()
        cohorts = [dc.simulate_cohort(cfg, r) for r in range(cfg.replicate_count)]
        reports = assert_matches_own_compare(cohorts, spec)
        failed = [r for r, report in enumerate(reports) if report.difference_test is None]
        assert len(failed) == 16
        result = dc.estimate_power(cfg, 0.05)
        assert result.n_failures == 16
        assert result.failure_reasons == dict.fromkeys(simlab.FAILURE_REASONS, 0) | {
            "probable_separation": 16}
        assert result.to_dict()["failure_reasons"] == result.failure_reasons

    def test_aliased_replicates_match_their_own_compare(self):
        cfg = dc.SimConfig(**ALIASED)
        cohorts = [dc.simulate_cohort(cfg, r) for r in range(cfg.replicate_count)]
        reports = assert_matches_own_compare(cohorts, cfg.exposure_spec())
        assert str(reports[27]) == "[fit] all design columns are aliased; nothing to fit"
        assert reports[49].fit.aliased_mask.any()

    def test_eventless_replicates_match_their_own_compare(self):
        cfg = dc.SimConfig(**EVENTLESS)
        cohorts = [dc.simulate_cohort(cfg, r) for r in range(cfg.replicate_count)]
        reports = assert_matches_own_compare(cohorts, cfg.exposure_spec())
        assert str(reports[0]) == "[design] no informative strata: the dataset contains no events"

    @pytest.mark.parametrize("scenario, reasons, n_used", [
        (ALIASED, {"not_converged": 1, "probable_separation": 26, "other": 1}, 22),
        (EVENTLESS, {"probable_separation": 3, "other": 14}, 3),
    ])
    def test_failure_reasons_of_failing_replicates(self, scenario, reasons, n_used):
        result = dc.estimate_power(dc.SimConfig(**scenario), 0.05)
        assert result.failure_reasons == dict.fromkeys(simlab.FAILURE_REASONS, 0) | reasons
        assert result.n_used == n_used
        assert result.n_failures == sum(reasons.values())

    def test_failure_reason_of_an_error_follows_its_type(self):
        assert simlab._failure_reason(SingularMatrixError("x")) == "singular"
        assert simlab._failure_reason(AliasedCoefficientError("x")) == "aliased_tested_term"
        assert simlab._failure_reason(ConfigError("x")) == "other"

    @pytest.mark.parametrize("separation, reason", [(False, "step_halving_failed"),
                                                    (True, "probable_separation")])
    def test_failure_reason_of_a_fit_stopped_by_halvings(self, separation, reason):
        # A fit that step halving stopped counts as probable separation only
        # with a coefficient beyond the bound.
        diagnostics = cox.FitDiagnostics(4, 0, 20, separation, cox.STOPS["step_halving_failed"],
                                         "step_halving_failed")
        outcome = SimpleNamespace(fit=SimpleNamespace(diagnostics=diagnostics))
        assert simlab._failure_reason(outcome) == reason

    @pytest.mark.parametrize("kind, m, rho", [
        ("categorical", 2, 0.5),  # 3 tested interactions: 3 x 3 blocks
        ("trend", 3, 0.5),        # 2 tested interactions: 2 x 2 blocks
        ("continuous", 2, 1.0),   # identical exposures: zero-variance directions
        ("categorical", 3, 1.0),  # ... in 6 x 6 blocks
    ])
    def test_spec_stack_matches_its_own_compare(self, kind, m, rho):
        # At n = 30, 6 of the 4-level categorical replicates at rho = 0.5 stop
        # short of convergence.
        cfg = dc.SimConfig(n_subjects=30, exposure_correlation=rho,
                           true_beta=(0.5,) + (0.2,) * (m - 1), covariate_effects=(0.3,),
                           censoring_rate=0.4, n_strata=2, replicate_count=30, master_seed=1)
        spec = dc.ExposureSpec(kind=kind, source_columns=cfg.exposure_columns(), n_levels=4)
        cohorts = [dc.simulate_cohort(cfg, r) for r in range(cfg.replicate_count)]
        reports = assert_matches_own_compare(cohorts, spec)
        tests = [r.difference_test for r in reports if r.difference_test is not None]
        assert len(tests) >= 24
        assert {t.df for t in tests} == {(m - 1) * (3 if kind == "categorical" else 1)}
        if rho == 1.0:
            assert all(t.statistic == 0.0 and t.p_value == 1.0 for t in tests)

    def test_step_halving_overflow_does_not_warn(self):
        # Replicate 11's rejected candidates overflow 1 / S0; they are rejected
        # by design, silently, alone and among the other replicates.
        cfg = dc.SimConfig(**FAILING | {"n_subjects": 25, "censoring_rate": 0.7})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = dc.compare_exposures(dc.simulate_cohort(cfg, 11), cfg.exposure_spec())
            result = dc.estimate_power(cfg, 0.05)
        assert not report.fit.converged and report.difference_test is None
        assert report.fit.diagnostics.message.startswith(cox.STOPS["step_halving_failed"])
        assert report.fit.diagnostics.stop == "step_halving_failed"
        assert result.n_failures == 4

    @pytest.mark.parametrize("sizes", [(40, 70), (900, 1500), (1100, 2000)])
    def test_stratum_alone_or_in_a_wider_bucket(self, sizes):
        # Each cohort is one stratum; stacked, the first shares a bucket whose
        # grid is the second's width.
        designs = [dc.block_design(dc.simulate_cohort(
            config(n_subjects=n, n_strata=1, master_seed=n), 0), config().exposure_spec())
            for n in sizes]
        stacked = cox._Engine(designs, "efron")
        assert len(stacked.buckets) == 1
        assert stacked.buckets[0].rows.size == 2 * (max(sizes) + 1)
        alone = cox._Engine(designs[:1], "efron")
        theta = np.array([[0.3, -0.2, 0.1, 0.25], [0.5, 0.4, -0.3, 0.2]])
        got, want = stacked.evaluate(theta), alone.evaluate(theta[:1])
        for key in ("ll", "score", "info"):
            assert np.array_equal(getattr(got, key)[:1], getattr(want, key))
        fits = cox.fit_stack(designs)
        one = dc.fit(designs[0])
        for key in ("coefficients", "model_covariance", "robust_covariance"):
            assert np.array_equal(getattr(fits[0], key), getattr(one, key))
        assert fits[0].iterations == one.iterations


class TestKolmogorovSmirnov:
    def test_statistic_on_perfect_grid(self):
        n = 100
        grid = (np.arange(1, n + 1) - 0.5) / n
        assert dc.ks_uniform_statistic(grid) == pytest.approx(0.005, abs=1e-12)

    def test_critical_value_sane(self):
        crit = dc.ks_critical_value(2000, 0.01)
        assert crit == pytest.approx(1.6276 / np.sqrt(2000), rel=0.01)

    @pytest.mark.parametrize("n", [0, -3, 2.5, 10.0, True, "10"])
    def test_critical_value_refuses_a_count_that_is_not_an_integer_of_one_or_more(self, n):
        with pytest.raises(ConfigError, match="n must be an integer >= 1"):
            dc.ks_critical_value(n)

    @pytest.mark.parametrize("n", [2**63, 10**20, 10**400], ids=["2**63", "10**20", "10**400"])
    def test_critical_value_refuses_a_count_past_64_bits(self, n):
        with pytest.raises(ConfigError, match=r"^n must be an integer >= 1 and < 2\*\*63"):
            dc.ks_critical_value(n)

    def test_statistic_refuses_no_p_values(self):
        with pytest.raises(ConfigError, match="^no p-values to test$"):
            dc.ks_uniform_statistic([])

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_critical_value_refuses_a_level_outside_the_unit_interval(self, level):
        with pytest.raises(ConfigError, match=r"level must lie in \(0, 1\)"):
            dc.ks_critical_value(10, level)

    @pytest.mark.parametrize("p_values", [[0.2, float("nan")], [1.5, 0.2], [-0.1, 0.5]])
    def test_statistic_refuses_a_p_value_outside_the_unit_interval(self, p_values):
        with pytest.raises(ConfigError, match=r"NaN or outside \[0, 1\]"):
            dc.ks_uniform_statistic(p_values)

    def test_statistic_takes_the_unit_interval_closed(self):
        assert dc.ks_uniform_statistic([0.0, 1.0]) == pytest.approx(0.5)
