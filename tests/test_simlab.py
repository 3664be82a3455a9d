import numpy as np
import pytest

import dupcox as dc
from dupcox.errors import ConfigError


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

    def test_rho_one_duplicates_the_exposure(self):
        ds = dc.simulate_cohort(config(exposure_correlation=1.0), 0)
        assert np.array_equal(ds.exposures[:, 0], ds.exposures[:, 1])

    def test_dataset_passes_validation(self):
        report = dc.validate(dc.simulate_cohort(config(), 0))
        assert report.all_passed


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


class TestKolmogorovSmirnov:
    def test_statistic_on_perfect_grid(self):
        n = 100
        grid = (np.arange(1, n + 1) - 0.5) / n
        assert dc.ks_uniform_statistic(grid) == pytest.approx(0.005, abs=1e-12)

    def test_critical_value_sane(self):
        crit = dc.ks_critical_value(2000, 0.01)
        assert crit == pytest.approx(1.6276 / np.sqrt(2000), rel=0.01)
