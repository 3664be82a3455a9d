import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dupcox as dc
from dupcox.data import label_codes
from dupcox.design import _quantile_population
from dupcox.errors import ConfigError, SchemaError, ValidationError
from conftest import simulated_cohort
from oracles import (CohortRow, dataset_from_rows, label_tuple_codes, per_bin_medians,
                     plain_design, quantile_categories)


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

    def test_fewer_than_two_categories_refused(self):
        with pytest.raises(ConfigError, match="need k >= 2 quantile categories, got k=1"):
            dc.categorize_quantiles([1.0, 2.0], k=1)

    @pytest.mark.parametrize("k", [2.5, 3.0, "3", True, None])
    def test_k_that_is_not_an_integer_refused(self, k):
        # 2.5 used to give three categories, cut at the 0.4 and 0.8 quantiles.
        with pytest.raises(ConfigError, match=r"^k must be an integer, got "):
            dc.categorize_quantiles(np.arange(10.0), k)

    def test_no_values_refused(self):
        with pytest.raises(ValidationError, match="A1: cannot categorize an empty value sequence"):
            dc.categorize_quantiles([], k=3, name="A1")

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

    @pytest.mark.parametrize("reference", [0, 4])
    def test_reference_outside_the_levels_refused(self, reference):
        with pytest.raises(ConfigError, match=rf"reference level {reference} outside 1\.\.3"):
            dc.dummy_code([1, 2, 3], reference, 3)

    @pytest.mark.parametrize("reference, k, name", [(1, 2.5, "k"), (1, "3", "k"),
                                                     (1.0, 3, "reference"), (True, 3, "reference")])
    def test_levels_that_are_not_integers_refused(self, reference, k, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got "):
            dc.dummy_code([1, 2], reference, k)

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

    def test_misaligned_arrays_refused(self):
        with pytest.raises(ConfigError, match="categories and raw_values must align"):
            dc.trend_scores([1, 2, 2], [0.5, 1.5], k=2)

    @pytest.mark.parametrize("k", [2.5, "2"])
    def test_k_that_is_not_an_integer_refused(self, k):
        with pytest.raises(ConfigError, match=r"^k must be an integer, got "):
            dc.trend_scores([1, 2], [0.5, 1.5], k)

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

    @pytest.mark.parametrize("field, value", [("n_levels", 3.0), ("n_levels", True),
                                              ("n_levels", None), ("reference_level", 1.5),
                                              ("reference_level", False)])
    def test_levels_must_be_integers(self, field, value):
        levels = {"n_levels": 3, "reference_level": 1} | {field: value}
        with pytest.raises(ConfigError, match=f"requires an integer {field}, got {value!r}"):
            dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), **levels)

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

    def test_empty_continuous_cohort_refused(self, four_row_schema):
        spec = dc.ExposureSpec(kind="continuous", source_columns=("A", "Aprime"))
        with pytest.raises(ValidationError, match="^dataset is empty$"):
            dc.block_design(dataset_from_rows([], four_row_schema), spec)

    def test_strata_key_includes_a_type(self, four_row_dataset):
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        design = dc.build_design_matrix(dc.duplicate_augment(four_row_dataset, spec), spec)
        # The type is the only stratum column: copy "A" is stratum 0, "Aprime" 1.
        assert design.stratum_codes.tolist() == [0] * 4 + [1] * 4
        assert design.cluster_codes.tolist() == [0, 1, 2, 3] * 2

    @staticmethod
    def non_string_strata(four_row_dataset):
        """The four-row cohort under two strata columns of ints, floats and None,
        and its augmented copy."""
        strata = np.array([[1, 2.5], [1, None], [20, 2.5], [1, 2.5]], dtype=object)
        schema = dc.Schema(id_column="id", exit_column="time", event_column="Y",
                           exposure_columns=("A", "Aprime"), covariate_columns=("L1",),
                           strata_columns=("g1", "g2"))
        ds = dc.Dataset(schema, four_row_dataset.subject_ids, four_row_dataset.entry,
                        four_row_dataset.exit, four_row_dataset.event,
                        four_row_dataset.exposures, four_row_dataset.covariates, strata)
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A", "Aprime"))
        return ds, spec, dc.duplicate_augment(ds, spec)

    def test_strata_key_joins_non_string_labels(self, four_row_dataset):
        ds, spec, aug = self.non_string_strata(four_row_dataset)
        assert ds.strata_keys().tolist() == ["|".join(str(v) for v in row) for row in ds.strata]
        rows = [[*aug.strata[i], aug.a_type[i]] for i in range(len(aug))]
        assert rows[0] == [1, 2.5, "A"]
        design = dc.build_design_matrix(aug, spec)
        assert design.stratum_codes.tolist() == label_tuple_codes(rows).tolist()

    def test_codes_are_label_codes_of_the_augmented_labels(self, four_row_dataset):
        _, spec, aug = self.non_string_strata(four_row_dataset)
        design = dc.build_design_matrix(aug, spec)
        assert np.array_equal(design.stratum_codes,
                              label_tuple_codes(zip(*aug.strata.T, aug.a_type)))
        assert np.array_equal(design.cluster_codes, label_codes(aug.subject_ids))

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


class TestDesignCodes:
    @staticmethod
    def design():
        return plain_design(np.arange(4.0), [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1],
                            strata=["a", "a", "b", "b"])

    @pytest.mark.parametrize("codes", [
        [0, -1, 0, 1],                             # negative
        np.array([0.0, 0.0, 1.0, 1.0]),            # float, though whole
        np.array([True, True, False, False]),      # bool
        np.array(["0", "0", "1", "1"]),            # text
        [0, 0, 1],                                 # a row short
        np.zeros((4, 1), dtype=int),               # not one per row
    ], ids=["negative", "float", "bool", "text", "short", "column"])
    @pytest.mark.parametrize("name", ["stratum_codes", "cluster_codes"])
    def test_bad_codes_are_refused(self, name, codes):
        with pytest.raises(ValidationError, match=f"{name} must hold one non-negative integer"):
            dataclasses.replace(self.design(), **{name: codes})

    @pytest.mark.parametrize("name", ["entry", "exit", "event"])
    def test_a_time_or_event_array_a_row_short_is_refused(self, name):
        short = getattr(self.design(), name)[:-1]
        with pytest.raises(ValidationError, match=rf"^{name} must hold one value per row "
                                                  rf"of the design \(4 rows\), got shape \(3,\)"):
            dataclasses.replace(self.design(), **{name: short})

    def test_event_flags_other_than_0_or_1_are_refused(self):
        with pytest.raises(ValidationError, match=r"^event indicators must be 0 or 1"):
            plain_design([1.0, 2.0], [1.0, 2.0], [0, 2])
        flags = plain_design([1.0, 2.0], [1.0, 2.0], np.array([0.0, 1.0])).event
        assert flags.dtype == bool and flags.tolist() == [False, True]

    @pytest.mark.parametrize("block_map", [np.eye(2), np.ones((1, 2)), np.ones(1)],
                             ids=["rows", "columns", "vector"])
    def test_a_block_map_of_another_shape_is_refused(self, block_map):
        with pytest.raises(ValidationError, match=r"^block_map must have one row per block "
                                                  r"column \(1 x 1\) and one column per name "
                                                  r"\(1\), got shape"):
            dataclasses.replace(self.design(), block_map=block_map)

    def test_blocks_given_as_a_list_are_refused(self):
        blocks = list(self.design().blocks)
        with pytest.raises(ValidationError, match=r"^blocks must be a 3-D \(m, n, p_b\) array, "
                                                  r"got list"):
            dataclasses.replace(self.design(), blocks=blocks)

    def test_two_dimensional_blocks_are_refused(self):
        with pytest.raises(ValidationError, match=r"^blocks must be a 3-D \(m, n, p_b\) array, "
                                                  r"got ndarray of shape \(4, 1\)"):
            dataclasses.replace(self.design(), blocks=self.design().blocks[0])

    @pytest.mark.parametrize("entry, exit_, rule", [
        ([0, 0, 5, 0, 0, 0], [1, 2, 3, 4, 5, 6],
         "1 row(s) whose entry time is not before the exit time"),
        ([0, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, np.inf],
         "1 row(s) with a non-finite entry or exit time"),
        ([-np.inf, 0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6],
         "1 row(s) with a non-finite entry or exit time"),
    ], ids=["entry-after-exit", "inf-exit", "inf-entry"])
    def test_rows_outside_the_interval_rules_are_refused(self, entry, exit_, rule):
        # Every row an event: the misordered row's event is not in its own risk set.
        with pytest.raises(ValidationError, match=re.escape(rule)):
            plain_design(np.arange(6.0), exit_, np.ones(6, dtype=bool), entry=entry)

    @pytest.mark.parametrize("name", ["entry", "exit", "blocks"])
    def test_values_that_are_not_numbers_are_refused(self, name):
        text = np.full(np.shape(getattr(self.design(), name)), "t")
        with pytest.raises(ValidationError, match=rf"^{name} holds a value that is not a number"):
            dataclasses.replace(self.design(), **{name: text})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_block_value_is_refused(self, value):
        # It used to reach the fit, which refused the information as not finite.
        blocks = self.design().blocks.copy()
        blocks[0, 2, 0] = value
        with pytest.raises(ValidationError, match=re.escape(
                "1 row(s) with a non-finite entry or exit time, or block value")):
            dataclasses.replace(self.design(), blocks=blocks)

    def test_integer_blocks_and_times_become_floats(self):
        design = dataclasses.replace(self.design(), blocks=np.arange(4).reshape(1, 4, 1),
                                     entry=np.zeros(4, dtype=int), exit=np.arange(1, 5))
        assert {a.dtype for a in (design.blocks, design.entry, design.exit)} == {np.dtype(float)}

    def test_integer_codes_are_kept_as_an_array(self):
        design = dataclasses.replace(self.design(), stratum_codes=[1, 1, 0, 0])
        assert isinstance(design.stratum_codes, np.ndarray)
        assert dc.fit(design).coefficients == pytest.approx(dc.fit(self.design()).coefficients)


class TestRowRules:
    """Rows the fit cannot use are refused when the cohort is built."""

    @pytest.mark.parametrize("field, rows, value, rule", [
        ("exit", [5, 9], np.nan, "2 row(s) with a non-finite time"),
        ("entry", [5], 1e6, "1 row(s) whose entry time is not before the exit time"),
        ("exit", [3], 0.0, "1 row(s) whose entry time is not before the exit time"),
        ("covariates", [7], np.nan, "1 row(s) with a non-finite time, exposure or covariate"),
    ], ids=["nan-exit", "entry-after-exit", "entry-at-exit", "nan-covariate"])
    def test_bad_rows_are_refused(self, field, rows, value, rule):
        ds, _ = simulated_cohort(seed=9, n=80)
        column = getattr(ds, field).copy()
        column[rows] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the cell
            with pytest.raises(ValidationError, match=re.escape(rule)):
                dataclasses.replace(ds, **{field: column})


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

    def test_single_exposure_design_owns_its_block(self):
        # A view of block j would keep every exposure's block alive with it.
        ds, spec = simulated_cohort(seed=4, n=80)
        for j in range(2):
            assert dc.single_exposure_design(ds, spec, j).blocks.flags.owndata

    def test_block_design_times_are_read_only_views_of_the_cohort(self):
        ds, spec = simulated_cohort(seed=5, n=80)
        design = dc.block_design(ds, spec)
        for name in ("entry", "exit", "event"):
            values = getattr(design, name)
            assert np.shares_memory(values, getattr(ds, name)), name
            with pytest.raises(ValueError, match="read-only"):
                values[0] = values[0]

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
        # Designs carry strata and clusters as integer codes only.
        assert not {"strata_key", "cluster_id"} & fields[dc.DesignMatrix]
        assert not hasattr(dc.DesignMatrix, "column")
        assert "score_residuals" not in dc.__all__ and not hasattr(dc.cox, "score_residuals")
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


class TestSpecRefusals:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown exposure kind 'ordinal'"):
            dc.ExposureSpec(kind="ordinal", source_columns=("A1", "A2"))

    def test_fewer_than_two_levels(self):
        with pytest.raises(ConfigError, match="kind 'trend' requires n_levels >= 2"):
            dc.ExposureSpec(kind="trend", source_columns=("A1", "A2"), n_levels=1)

    @pytest.mark.parametrize("reference", [0, 4])
    def test_reference_level_outside_the_levels(self, reference):
        with pytest.raises(ConfigError, match=rf"reference level {reference} outside 1\.\.3"):
            dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2"), n_levels=3,
                            reference_level=reference)

    @pytest.mark.parametrize("columns", ["AB", {"A1", "A2", "A3"}, frozenset({"A1", "A2"})],
                             ids=["str", "set", "frozenset"])
    def test_source_columns_that_are_not_a_sequence_are_refused(self, columns):
        # A string was read as its characters, and a set's order, which sets
        # the reference exposure, changed with PYTHONHASHSEED.
        with pytest.raises(ConfigError, match=r"^source_columns must be a sequence of names, "):
            dc.ExposureSpec(kind="continuous", source_columns=columns)

    def test_dichotomous_exposure_with_a_value_other_than_zero_or_one(self):
        ds, _ = simulated_cohort(seed=5, n=40)
        binary = (ds.exposures > 0).astype(float)
        spec = dc.ExposureSpec(kind="dichotomous", source_columns=("A1", "A2"))
        dc.block_design(dataclasses.replace(ds, exposures=binary), spec)
        binary[[3, 8], 1] = [2.0, 0.5]
        with pytest.raises(ValidationError, match=re.escape(
                "dichotomous exposure 'A2' contains values other than 0/1: [0.5, 2.0]")):
            dc.block_design(dataclasses.replace(ds, exposures=binary), spec)


def split_follow_up(ds, chosen, rng, pieces=3):
    """``ds`` with each chosen row's ``(entry, exit]`` cut into ``pieces``
    rows at random times, the event on the last: the same partial likelihood."""
    rows, entry, exit_, event = [], [], [], []
    for i in range(len(ds)):
        bounds = [ds.entry[i], ds.exit[i]]
        if chosen[i]:
            bounds[1:1] = np.sort(rng.uniform(ds.entry[i], ds.exit[i], pieces - 1))
        for k in range(len(bounds) - 1):
            rows.append(i)
            entry.append(bounds[k])
            exit_.append(bounds[k + 1])
            event.append(ds.event[i] and k == len(bounds) - 2)
    rows = np.array(rows)
    return dc.Dataset(schema=ds.schema, subject_ids=ds.subject_ids[rows], entry=np.array(entry),
                      exit=np.array(exit_), event=np.array(event),
                      exposures=ds.exposures[rows], covariates=ds.covariates[rows],
                      strata=ds.strata[rows])


def report_floats(report, path="report"):
    """Each float of a report's JSON tree outside its ``dataset`` block, by path."""
    if isinstance(report, dc.ComparisonReport):
        tree = report.to_dict()
        del tree["dataset"]
        return dict(report_floats(tree, path))
    if isinstance(report, dict):
        return [pair for key, item in report.items()
                for pair in report_floats(item, f"{path}.{key}")]
    if isinstance(report, list):
        return [pair for i, item in enumerate(report)
                for pair in report_floats(item, f"{path}[{i}]")]
    return [(path, report)] if isinstance(report, float) else []


class TestRowSplitInvariance:
    """Quantile cuts, trend medians and p10-p90 scales are taken over one
    value per subject and distinct value, so splitting some subjects'
    follow-up into more rows changes no report."""

    def test_population_is_one_row_per_subject_and_value(self):
        codes = np.array([0, 0, 1, 1, 1, 2])
        for values, want in (([1.0, 1.0, 2.0, 3.0, 3.0, 1.0], [1.0, 2.0, 3.0, 1.0]),
                             ([1.0, 1.0, 2.0, 2.0, 2.0, 1.0], [1.0, 2.0, 1.0])):
            values = np.array(values)
            rows, inverse = _quantile_population(values, codes)
            assert values[rows].tolist() == want
            assert np.array_equal(values[rows][inverse], values)
        values = np.array([3.0, 1.0, 2.0])
        rows, inverse = _quantile_population(values, np.array([2, 0, 1]))
        assert values[rows] is not values and np.array_equal(values[rows][inverse], values)

    @pytest.mark.parametrize("exposure, scale", [
        ({"kind": "categorical", "n_levels": 5}, 1.0),
        ({"kind": "trend", "n_levels": 4}, "p10-p90"),
        ({"kind": "continuous"}, "p10-p90"),
    ], ids=["quintiles", "trend", "continuous"])
    @pytest.mark.parametrize("time_varying", [False, True], ids=["constant", "time-varying"])
    def test_uneven_splits_leave_the_report_unchanged(self, exposure, scale, time_varying):
        rng = np.random.default_rng(14)
        ds, _ = simulated_cohort(seed=14, n=300)
        if time_varying:
            # Every third subject's exposures change halfway through follow-up.
            ds = split_follow_up(ds, np.arange(len(ds)) % 3 == 0, rng, pieces=2)
            ds = dataclasses.replace(ds, exposures=ds.exposures + 0.25 * (ds.entry > 0)[:, None])
        split = split_follow_up(ds, ds.exposure("A1") > 0.5, rng)
        assert len(split) > len(ds)
        spec = dc.ExposureSpec(source_columns=("A1", "A2"), **exposure)
        want = report_floats(dc.compare_exposures(ds, spec, scale=scale))
        got = report_floats(dc.compare_exposures(split, spec, scale=scale))
        assert got.keys() == want.keys()
        for path, value in want.items():
            assert got[path] == pytest.approx(value, rel=1e-10, abs=0), path
