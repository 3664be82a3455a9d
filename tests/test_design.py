import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
from dupcox.errors import ConfigError, SchemaError, ValidationError
from conftest import simulated_cohort
from oracles import CohortRow, dataset_from_rows, per_bin_medians, quantile_categories


class TestCategorizeQuantiles:
    def test_one_to_ten_in_quintiles(self):
        cats, cuts = dc.categorize_quantiles(np.arange(1, 11), k=5)
        assert cats.tolist() == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert cuts.tolist() == [2, 4, 6, 8]

    def test_one_value_per_bin(self):
        cats, _ = dc.categorize_quantiles([1, 2, 3, 4], k=4)
        assert cats.tolist() == [1, 2, 3, 4]

    def test_constant_values_error_names_exposure(self):
        with pytest.raises(ValidationError, match="score_a"):
            dc.categorize_quantiles([3.0, 3.0, 3.0], k=2, name="score_a")

    def test_matches_sort_and_split_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, 6))
            values = rng.standard_normal(n)
            cats, _ = dc.categorize_quantiles(values, k)
            assert cats.tolist() == quantile_categories(values, k)

    def test_tied_cuts_warn_about_unbalanced_bins(self):
        values = [1.0] * 8 + [2.0, 3.0, 4.0, 5.0]
        with pytest.warns(UserWarning, match="unbalanced"):
            cats, _ = dc.categorize_quantiles(values, k=4)
        assert len(np.unique(cats)) < 4

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), unique=True,
                    min_size=5, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_categories_monotone_in_value(self, values):
        cats, _ = dc.categorize_quantiles(values, k=5)
        order = np.argsort(values)
        assert (np.diff(cats[order]) >= 0).all()
        assert cats.min() == 1 and cats.max() == 5


class TestDummyCode:
    def test_level_two_of_three(self):
        matrix, names = dc.dummy_code([2], reference=1, k=3)
        assert names == ("Exposures2", "Exposures3")
        assert matrix.tolist() == [[1.0, 0.0]]

    def test_reference_row_is_all_zero(self):
        matrix, _ = dc.dummy_code([1], reference=1, k=3)
        assert matrix.tolist() == [[0.0, 0.0]]

    def test_enumeration_of_five_levels(self):
        matrix, names = dc.dummy_code([1, 2, 3, 4, 5], reference=1, k=5)
        assert names == ("Exposures2", "Exposures3", "Exposures4", "Exposures5")
        expected = np.vstack([np.zeros(4), np.eye(4)])
        assert np.array_equal(matrix, expected)
        assert matrix[4].tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_unseen_label_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            dc.dummy_code([1, 6], reference=1, k=5)

    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_each_row_has_at_most_one_indicator(self, cats, reference):
        matrix, _ = dc.dummy_code(cats, reference=reference, k=4)
        sums = matrix.sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}
        for cat, row_sum in zip(cats, sums):
            assert row_sum == (0.0 if cat == reference else 1.0)


class TestTrendScores:
    def test_per_bin_median_example(self):
        values = np.arange(1, 11, dtype=float)
        cats, _ = dc.categorize_quantiles(values, k=5)
        scores = dc.trend_scores(cats, values, k=5)
        assert scores.tolist() == [1.5, 1.5, 3.5, 3.5, 5.5, 5.5, 7.5, 7.5, 9.5, 9.5]

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal(37)
        cats, _ = dc.categorize_quantiles(values, k=4)
        scores = dc.trend_scores(cats, values, k=4)
        assert scores.tolist() == pytest.approx(per_bin_medians(cats, values))

    def test_quantile_categories_are_all_nonempty(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values = rng.standard_normal(int(rng.integers(6, 50)))
            cats, _ = dc.categorize_quantiles(values, k=3)
            assert set(cats.tolist()) == {1, 2, 3}


class TestDuplicateAugment:
    def test_four_row_example(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        aug = dc.duplicate_augment(four_row_dataset, spec)
        assert len(aug) == 8
        assert aug.term_names == ("Exposures",)
        assert aug.a_type_labels == ("A", "Aprime")
        # subject 2: exposure 0 under the first type, 1 under the second
        subject2 = aug.subject_ids == "2"
        values = {a: x for a, x in zip(aug.a_type[subject2],
                                       aug.exposure_terms[subject2, 0])}
        assert values == {"A": 0.0, "Aprime": 1.0}

    def test_copies_identical_except_a_type(self):
        # second exposure column carries exactly the first column's values
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("a", "a_copy"))
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), i == 0,
                      {"a": float(i % 2), "a_copy": float(i % 2)}, {}, {})
            for i in range(4)
        ]
        ds = dataset_from_rows(rows, schema)
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("a", "a_copy"))
        aug = dc.duplicate_augment(ds, spec)
        n = len(ds)
        assert np.array_equal(aug.exposure_terms[:n], aug.exposure_terms[n:])
        assert np.array_equal(aug.exit[:n], aug.exit[n:])
        assert np.array_equal(aug.event[:n], aug.event[n:])
        assert set(aug.a_type[:n]) == {"a"} and set(aug.a_type[n:]) == {"a_copy"}

    def test_duplicate_source_columns_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            dc.ExposureSpec(kind="continuous", source_columns=("A", "A"))

    def test_three_exposures_five_rows(self):
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("e1", "e2", "e3"))
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), i % 2 == 0,
                      {"e1": float(i), "e2": float(-i), "e3": float(2 * i)}, {}, {})
            for i in range(5)
        ]
        ds = dataset_from_rows(rows, schema)
        spec = dc.ExposureSpec(kind="continuous", source_columns=("e1", "e2", "e3"))
        aug = dc.duplicate_augment(ds, spec)
        assert len(aug) == 15
        ids, counts = np.unique(aug.subject_ids.astype(str), return_counts=True)
        assert counts.tolist() == [3] * 5
        for label in ("e1", "e2", "e3"):
            block = aug.a_type == label
            assert block.sum() == 5
            assert np.array_equal(aug.exposure_terms[block, 0], ds.exposure(label))

    def test_fewer_than_two_exposures_is_spec_error(self):
        with pytest.raises(ConfigError, match="at least two"):
            dc.ExposureSpec(kind="continuous", source_columns=("only",))

    def test_unknown_source_column(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A", "nope"))
        with pytest.raises(SchemaError, match="nope"):
            dc.duplicate_augment(four_row_dataset, spec)


class TestBuildDesignMatrix:
    def test_dichotomous_one_covariate_columns(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        design = dc.build_design_matrix(dc.duplicate_augment(four_row_dataset, spec), spec)
        assert design.column_names == (
            "Exposures", "L1", "Exposures:A_type2", "L1:A_type2",
        )
        assert design.interaction_columns == ("Exposures:A_type2",)

    def test_five_level_categorical_columns(self):
        ds, _ = simulated_cohort(seed=5, n=60, covs=())
        spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=5)
        design = dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)
        assert design.column_names == (
            "Exposures2", "Exposures3", "Exposures4", "Exposures5",
            "Exposures2:A_type2", "Exposures3:A_type2",
            "Exposures4:A_type2", "Exposures5:A_type2",
        )
        assert len(design.interaction_columns) == 4

    def test_minimal_continuous_design(self):
        ds, spec = simulated_cohort(seed=6, n=40, covs=())
        design = dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)
        assert design.column_names == ("Exposures", "Exposures:A_type2")

    def test_interaction_count_formula(self):
        schema = dc.Schema(id_column="id", exit_column="t", event_column="y",
                           exposure_columns=("e1", "e2", "e3"),
                           covariate_columns=("c1", "c2"))
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), i % 2 == 0,
                      {"e1": float(i), "e2": float(i * i), "e3": float(-i)},
                      {"c1": float(i % 3), "c2": float(i % 2)}, {})
            for i in range(8)
        ]
        ds = dataset_from_rows(rows, schema)
        spec = dc.ExposureSpec(kind="continuous", source_columns=("e1", "e2", "e3"))
        design = dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)
        assert len(design.interaction_columns) == (3 - 1) * 1
        assert design.column_names[-(3 - 1) * 2:] == (
            "c1:A_type2", "c2:A_type2", "c1:A_type3", "c2:A_type3")

    def test_strata_key_includes_a_type(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        design = dc.build_design_matrix(dc.duplicate_augment(four_row_dataset, spec), spec)
        assert set(design.strata_key) == {"A", "Aprime"}
        assert design.cluster_id.tolist() == ["1", "2", "3", "4"] * 2

    def test_strata_key_joins_non_string_labels(self, four_row_dataset):
        strata = np.array([[1, 2.5], [1, None], [20, 2.5], [1, 2.5]], dtype=object)
        schema = dc.Schema(id_column="id", exit_column="time", event_column="Y",
                           exposure_columns=("A", "Aprime"), covariate_columns=("L1",),
                           strata_columns=("g1", "g2"))
        ds = dc.Dataset(schema, four_row_dataset.subject_ids, four_row_dataset.entry,
                        four_row_dataset.exit, four_row_dataset.event,
                        four_row_dataset.exposures, four_row_dataset.covariates, strata)
        assert ds.strata_keys().tolist() == ["|".join(str(v) for v in row) for row in strata]
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        aug = dc.duplicate_augment(ds, spec)
        design = dc.build_design_matrix(aug, spec)
        assert design.strata_key.tolist() == [
            "|".join([str(v) for v in aug.strata[i]] + [str(aug.a_type[i])])
            for i in range(len(aug))
        ]
        assert design.strata_key[0] == "1|2.5|A"

    def test_no_events_is_an_error(self, four_row_schema):
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), False,
                      {"A": float(i % 2), "Aprime": float(i % 2)},
                      {"L1": float(i)}, {})
            for i in range(4)
        ]
        ds = dataset_from_rows(rows, four_row_schema)
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        with pytest.raises(dc.errors.EstimationError, match="no informative strata"):
            dc.build_design_matrix(dc.duplicate_augment(ds, spec), spec)


class TestRowRules:
    """Rows the fit cannot use are refused when the design is built."""

    @pytest.mark.parametrize("field, rows, value, rule", [
        ("exit", [5, 9], np.nan, "2 row(s) with a non-finite time"),
        ("entry", [5], 1e6, "1 row(s) whose entry time is not before the exit time"),
        ("exit", [3], 0.0, "1 row(s) whose entry time is not before the exit time"),
        ("covariates", [7], np.nan, "1 row(s) with a non-finite time, exposure or covariate"),
    ], ids=["nan-exit", "entry-after-exit", "entry-at-exit", "nan-covariate"])
    def test_bad_rows_are_refused(self, field, rows, value, rule):
        ds, spec = simulated_cohort(seed=9, n=80)
        column = getattr(ds, field).copy()
        column[rows] = value
        bad = dataclasses.replace(ds, **{field: column})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the cell
            for build in (dc.block_design, dc.duplicate_augment):
                with pytest.raises(ValidationError, match=re.escape(rule)):
                    build(bad, spec)
            with pytest.raises(ValidationError, match=re.escape(f"[design] {rule}")):
                dc.compare_exposures(bad, spec)


class TestDesignProperties:
    def test_identical_columns_zero_interaction(self):
        ds, _ = simulated_cohort(seed=7, n=150, betas=(0.4, 0.4), rho=1.0)
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
        report = dc.compare_exposures(ds, spec)
        assert abs(report.fit.coefficient("Exposures:A_type2")) < 1e-8

    def test_row_permutation_leaves_estimates_unchanged(self):
        ds, spec = simulated_cohort(seed=8, n=120)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(ds))
        permuted = dc.Dataset(
            schema=ds.schema,
            subject_ids=ds.subject_ids[perm],
            entry=ds.entry[perm],
            exit=ds.exit[perm],
            event=ds.event[perm],
            exposures=ds.exposures[perm],
            covariates=ds.covariates[perm],
            strata=ds.strata[perm],
        )
        original = dc.compare_exposures(ds, spec)
        shuffled = dc.compare_exposures(permuted, spec)
        a = np.asarray(original.fit.coefficients)
        b_names = shuffled.fit.column_names
        b = np.array([shuffled.fit.coefficient(n) for n in original.fit.column_names])
        assert b_names == original.fit.column_names
        assert a == pytest.approx(b, abs=1e-8)


class TestOneDesignType:
    def test_augmented_design_is_one_block_with_identity_map(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        design = dc.build_design_matrix(dc.duplicate_augment(four_row_dataset, spec), spec)
        assert design.blocks.shape == (1, 8, design.n_columns)
        assert np.array_equal(design.block_map, np.eye(design.n_columns))
        assert np.shares_memory(design.X, design.blocks)
        assert len(design) == 8

    def test_block_design_has_no_plain_rows(self):
        ds, spec = simulated_cohort(seed=3, n=60)
        design = dc.block_design(ds, spec)
        assert isinstance(design, dc.DesignMatrix)
        assert len(design) == 60 and design.blocks.shape[0] == 2
        with pytest.raises(ValueError, match="one-block design"):
            design.X

    def test_single_exposure_design_is_block_j(self):
        ds, spec = simulated_cohort(seed=4, n=80)
        full = dc.block_design(ds, spec)
        for j in range(2):
            single = dc.single_exposure_design(ds, spec, j)
            assert np.array_equal(single.X, full.blocks[j])
            assert single.column_names == ("Exposures", "L1")
            assert single.interaction_columns == ()
            assert np.array_equal(single.stratum_codes, full.stratum_codes)
            assert np.array_equal(single.cluster_codes, full.cluster_codes)

    def test_single_exposure_design_refuses_eventless_cohort(self, four_row_schema):
        rows = [
            CohortRow(str(i), 0.0, float(i + 1), False,
                      {"A": float(i % 2), "Aprime": float(i % 2)},
                      {"L1": float(i)}, {})
            for i in range(4)
        ]
        ds = dataset_from_rows(rows, four_row_schema)
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        with pytest.raises(dc.errors.EstimationError, match="no informative strata"):
            dc.single_exposure_design(ds, spec, 0)

    def test_no_second_design_type_is_exported(self):
        assert "BlockDesign" not in dc.__all__
        assert not hasattr(dc.design, "BlockDesign")
        assert not hasattr(dc.cox, "Design")
        # Helpers only the tests use live in tests/oracles.py.
        for name in ("CohortRow", "PrunedFit", "prune_aliased"):
            assert name not in dc.__all__
            assert not hasattr(dc, name)
        assert not hasattr(dc.Dataset, "from_rows")
        # Fields nothing reads and parameters with one value in use.
        fields = {cls: {f.name for f in dataclasses.fields(cls)}
                  for cls in (dc.DesignMatrix, dc.ComparisonReport)}
        assert "covariate_interaction_columns" not in fields[dc.DesignMatrix]
        assert "covariance_used" not in fields[dc.ComparisonReport]
        assert "covariance" not in inspect.signature(dc.compare_exposures).parameters
        # The times' order is all a fit sees, so no baseline-shape knob.
        assert [f.name for f in dataclasses.fields(dc.SimConfig)] == [
            "n_subjects", "exposure_correlation", "true_beta", "covariate_effects",
            "censoring_rate", "n_strata", "replicate_count", "master_seed"]
        for runner in (dc.estimate_type1_error, dc.estimate_power):
            params = inspect.signature(runner).parameters
            assert not {"covariance", "options"} & set(params)
            # An old positional FitOptions must not land in include_naive.
            assert params["include_naive"].kind is inspect.Parameter.KEYWORD_ONLY
