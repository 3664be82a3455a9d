"""The block design fits the duplicated model without duplicating the rows.

``compare_exposures`` fits ``block_design``'s design: one ``[exposure terms |
covariates]`` block per exposure over the cohort's own rows, and a fixed map
from the augmented coefficients to the per-type ones.  The oracle is the
literal construction, ``fit(build_design_matrix(duplicate_augment(...)))``.
"""

import math

import numpy as np
import pytest

import dupcox as dc
from oracles import brute_force_score_residuals, score_residuals

COEF_ABS = 1e-8
COV_REL = 1e-8


def _cohort(seed, m, n=240, ties=False, truncation=False):
    """A cohort with m equicorrelated exposures, one covariate and 3 strata.

    ``ties`` rounds the times to one decimal.  ``truncation`` splits each
    subject's follow-up into (entry, exit] rows after a delayed entry, with
    the covariate changing from row to row.
    """
    rng = np.random.default_rng(seed)
    exposures = (math.sqrt(0.6) * rng.standard_normal((n, 1))
                 + math.sqrt(0.4) * rng.standard_normal((n, m)))
    base = rng.standard_normal(n)
    eta = exposures @ np.linspace(0.5, 0.1, m) + 0.3 * base
    start = rng.uniform(0.0, 0.5, size=n) if truncation else np.zeros(n)
    t_event = start + rng.exponential(1.0, size=n) * np.exp(-eta)
    t_cens = start + rng.exponential(2.0, size=n)
    stop = np.minimum(t_event, t_cens)
    died = t_event <= t_cens
    if ties:
        start, stop = np.round(start, 1), np.round(stop, 1) + 0.1
    strata = np.array([f"s{v}" for v in rng.integers(0, 3, size=n)], dtype=object)
    ids = np.array([f"id{i}" for i in range(n)], dtype=object)

    n_rows = 3 if truncation else 1
    cuts = np.sort(rng.uniform(0.1, 0.9, size=(n, n_rows - 1)), axis=1)
    bounds = np.column_stack([start, start[:, None] + cuts * (stop - start)[:, None], stop])
    row = lambda arr: np.repeat(arr, n_rows, axis=0)
    schema = dc.Schema(
        id_column="id", entry_column="entry" if truncation else None,
        exit_column="exit", event_column="event",
        exposure_columns=tuple(f"A{j + 1}" for j in range(m)),
        covariate_columns=("L1",), strata_columns=("stratum",),
    )
    last = np.tile(np.arange(n_rows) == n_rows - 1, n)
    return dc.Dataset(
        schema=schema,
        subject_ids=row(ids),
        entry=bounds[:, :-1].ravel(),
        exit=bounds[:, 1:].ravel(),
        event=row(died) & last,
        exposures=row(exposures),
        covariates=(row(base) + 0.5 * rng.standard_normal(n * n_rows)).reshape(-1, 1),
        strata=row(strata).reshape(-1, 1),
    )


def _dichotomized(dataset):
    return dc.Dataset(dataset.schema, dataset.subject_ids, dataset.entry, dataset.exit,
                      dataset.event, (dataset.exposures > 0).astype(float),
                      dataset.covariates, dataset.strata)


def _no_events_in_s2(dataset):
    event = dataset.event & (dataset.strata[:, 0] != "s2")
    return dc.Dataset(dataset.schema, dataset.subject_ids, dataset.entry, dataset.exit,
                      event, dataset.exposures, dataset.covariates, dataset.strata)


def _covariate_copies_first_exposure(dataset):
    return dc.Dataset(dataset.schema, dataset.subject_ids, dataset.entry, dataset.exit,
                      dataset.event, dataset.exposures, dataset.exposures[:, :1].copy(),
                      dataset.strata)


CASES = {
    "continuous-m2-efron-eventless-stratum": (lambda: _no_events_in_s2(_cohort(1, 2)),
                                              "continuous", None, "efron"),
    "dichotomous-m2-breslow-ties": (lambda: _dichotomized(_cohort(2, 2, ties=True)),
                                    "dichotomous", None, "breslow"),
    "categorical-m3-efron-ties": (lambda: _cohort(3, 3, ties=True), "categorical", 4, "efron"),
    "trend-m3-breslow-truncation": (lambda: _cohort(4, 3, truncation=True), "trend", 4,
                                    "breslow"),
    "categorical-m2-efron-truncation-ties": (lambda: _cohort(5, 2, ties=True, truncation=True),
                                             "categorical", 3, "efron"),
    "continuous-m2-efron-aliased": (lambda: _covariate_copies_first_exposure(_cohort(6, 2)),
                                    "continuous", None, "efron"),
}


def _relative(a, b):
    live = ~np.isnan(b)
    assert np.array_equal(np.isnan(a), ~live)
    return np.max(np.abs(a[live] - b[live])) / np.max(np.abs(b[live]))


@pytest.mark.parametrize("case", CASES)
def test_compare_matches_augmented_fit(case):
    make, kind, levels, ties = CASES[case]
    dataset = make()
    columns = dataset.schema.exposure_columns
    spec = dc.ExposureSpec(kind=kind, source_columns=columns, n_levels=levels)
    options = dc.FitOptions(tie_method=ties)

    got = dc.compare_exposures(dataset, spec, options).fit
    want = dc.fit(dc.build_design_matrix(dc.duplicate_augment(dataset, spec), spec), options)

    assert got.column_names == want.column_names
    assert np.array_equal(got.aliased_mask, want.aliased_mask)
    assert got.converged and want.converged
    for field in ("n_strata_used", "n_strata_skipped", "n_events"):
        assert getattr(got.diagnostics, field) == getattr(want.diagnostics, field)
    assert got.coefficients == pytest.approx(want.coefficients, abs=COEF_ABS, nan_ok=True)
    assert _relative(got.model_covariance, want.model_covariance) <= COV_REL
    assert _relative(got.robust_covariance, want.robust_covariance) <= COV_REL


def test_cases_cover_what_they_claim():
    for case in CASES:
        dataset = CASES[case][0]()
        if "eventless" in case:
            assert not dataset.event[dataset.strata[:, 0] == "s2"].any()
        if "ties" in case:
            assert len(np.unique(dataset.exit[dataset.event])) < dataset.event.sum()
        if "truncation" in case:
            assert np.any(dataset.entry > 0)
            assert len(np.unique(dataset.subject_ids)) * 3 == len(dataset)
    aliased = CASES["continuous-m2-efron-aliased"][0]()
    spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
    fit = dc.compare_exposures(aliased, spec).fit
    assert [n for n, a in zip(fit.column_names, fit.aliased_mask) if a] == ["L1:A_type2"]


def test_block_map_gives_per_type_coefficients():
    dataset = _cohort(7, 3)
    spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2", "A3"), n_levels=3)
    design = dc.block_design(dataset, spec)
    augmented = dc.build_design_matrix(dc.duplicate_augment(dataset, spec), spec)
    assert design.column_names == augmented.column_names
    assert design.interaction_columns == augmented.interaction_columns
    assert design.blocks.shape == (3, len(dataset), 3)
    # Copy j of the augmented rows is block j times its slice of the map.
    theta = np.arange(1.0, design.n_columns + 1)
    b = (design.block_map @ theta).reshape(3, -1)
    n = len(dataset)
    for j in range(3):
        assert design.blocks[j] @ b[j] == pytest.approx(
            augmented.X[j * n:(j + 1) * n] @ theta, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("ties", ["breslow", "efron"])
def test_score_residuals_match_brute_force_on_augmented_rows(ties):
    dataset = _cohort(8, 2, n=40, ties=True, truncation=True)
    spec = dc.ExposureSpec(kind="continuous", source_columns=("A1", "A2"))
    design = dc.block_design(dataset, spec)
    augmented = dc.build_design_matrix(dc.duplicate_augment(dataset, spec), spec)
    theta = np.random.default_rng(8).standard_normal(design.n_columns) * 0.3
    want = brute_force_score_residuals(augmented.entry, augmented.exit, augmented.event,
                                       augmented.X, theta, augmented.stratum_codes, ties)
    # Augmented row j * n + i is copy j of original row i.
    want = want.reshape(2, len(dataset), -1).sum(axis=0)
    assert score_residuals(design, theta, ties) == pytest.approx(want, abs=1e-10)


def test_sandwich_matches_cluster_sums_in_coefficient_columns():
    # The fit sums score residuals by cluster in block coordinates and maps
    # only the middle matrix; the oracle sums the coefficient-column residuals.
    dataset = _cohort(9, 3, ties=True, truncation=True)
    assert np.any(dataset.entry > 0)
    assert len(np.unique(dataset.exit[dataset.event])) < dataset.event.sum()
    spec = dc.ExposureSpec(kind="categorical", source_columns=("A1", "A2", "A3"), n_levels=3)
    design = dc.block_design(dataset, spec)
    result = dc.fit(design)
    assert result.converged and not result.aliased_mask.any()
    beta = result.coefficients
    clusters, codes = np.unique(dataset.subject_ids.astype(str), return_inverse=True)
    assert len(clusters) * 3 == len(design)
    U = np.zeros((len(clusters), design.n_columns))
    np.add.at(U, codes, score_residuals(design, beta))
    a_inv = np.linalg.inv(dc.evaluate(design, beta).information)
    assert _relative(result.robust_covariance, a_inv @ (U.T @ U) @ a_inv) <= 1e-12
