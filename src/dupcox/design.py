"""Augmented-dataset construction and design-matrix expansion.

The comparison model row-binds one copy of the cohort per exposure, tags each
copy with an exposure-type indicator, and fits a single stratified Cox model
whose exposure-by-type interaction coefficients carry the cross-exposure
contrasts.  This module builds that augmented data and the numeric design
matrix: exposure synthesis (continuous, dichotomous, quantile-categorical, or
trend-scored), type indicators, dummy coding, and interaction expansion.

Because every term is interacted with the type and the type is a stratum,
copy ``j`` of the augmented design only ever multiplies the per-type
coefficients ``b_j = T_j theta`` (main terms for the first type, main +
type-``j`` interactions otherwise).  :class:`DesignMatrix` is that
parameterization: row-aligned blocks and the fixed map ``T``.
:func:`block_design` keeps the model on the original rows, as one
``[exposure terms | covariates]`` block per exposure;
:func:`duplicate_augment` and :func:`build_design_matrix` are the literal
row-bound construction, one block with the identity map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, join_labels, label_codes, row_faults
from .errors import ConfigError, EstimationError, SchemaError, ValidationError

KINDS = ("continuous", "dichotomous", "categorical", "trend")


@dataclass(frozen=True)
class ExposureSpec:
    """How the compared exposure columns are turned into model terms.

    All compared exposures share one ``kind`` and, for categorical/trend
    kinds, the same number of levels; each column is categorized by its own
    empirical distribution.
    """

    kind: str
    source_columns: tuple[str, ...]
    n_levels: int | None = None
    reference_level: int = 1

    def __post_init__(self):
        object.__setattr__(self, "source_columns", tuple(self.source_columns))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown exposure kind {self.kind!r}, expected one of {KINDS}")
        if len(self.source_columns) < 2:
            raise ConfigError(
                f"need at least two exposures to compare, got {list(self.source_columns)}"
            )
        if len(set(self.source_columns)) != len(self.source_columns):
            raise ConfigError(
                f"compared exposure columns must be distinct, got {list(self.source_columns)}"
            )
        if self.kind in ("categorical", "trend"):
            if self.n_levels is None or self.n_levels < 2:
                raise ConfigError(f"kind {self.kind!r} requires n_levels >= 2")
            if not 1 <= self.reference_level <= self.n_levels:
                raise ConfigError(
                    f"reference level {self.reference_level} outside 1..{self.n_levels}"
                )

    @property
    def n_compared(self) -> int:
        return len(self.source_columns)


@dataclass(frozen=True)
class AugmentedDataset:
    """Row-bound duplicated cohort: one block per exposure, in source order.

    ``a_type`` carries the source-column name of each block; the first source
    column is the reference type.  Outcome, times, covariates, and strata are
    identical across the copies of an original row; the raw exposure columns
    themselves are not carried over.
    """

    subject_ids: np.ndarray          # object, (m*n,)
    entry: np.ndarray                # float, (m*n,)
    exit: np.ndarray                 # float, (m*n,)
    event: np.ndarray                # bool, (m*n,)
    a_type: np.ndarray               # object, (m*n,)
    exposure_terms: np.ndarray       # float, (m*n, n_terms)
    covariates: np.ndarray           # float, (m*n, q)
    strata: np.ndarray               # object, (m*n, s)
    term_names: tuple[str, ...]
    covariate_names: tuple[str, ...]
    a_type_labels: tuple[str, ...]   # source columns, reference first

    def __len__(self) -> int:
        return len(self.subject_ids)


@dataclass(frozen=True)
class DesignMatrix:
    """A stratified Cox design as row-aligned blocks and a map to the coefficients.

    ``blocks[j]`` holds the covariates that copy ``j`` of the rows carries,
    and the stacked per-block coefficients are ``b = block_map @ theta``,
    where ``theta`` follows ``column_names``; the likelihood is the sum of
    the blocks' own stratified likelihoods over the same rows.  A plain
    design is one block with the identity map.  The interaction design has
    one ``[exposure terms | covariates]`` block per exposure, and ``b_j`` is
    main for the first type and main + type-``j`` interaction otherwise.

    Column order: exposure main terms, covariate main terms, exposure-by-type
    interactions, covariate-by-type interactions.  There is no type main
    effect: it is absorbed by stratification.  ``cluster_id`` ties a
    subject's rows together for the robust variance.  ``stratum_codes`` and
    ``cluster_codes`` number the distinct ``str()`` of ``strata_key`` and
    ``cluster_id`` in sorted order; they are derived from the labels unless
    given.
    """

    blocks: np.ndarray               # float, (m, n, p_b)
    block_map: np.ndarray            # float, (m * p_b, p)
    column_names: tuple[str, ...]
    exposure_main_columns: tuple[str, ...]
    interaction_columns: tuple[str, ...]
    strata_key: np.ndarray           # object, (n,)
    cluster_id: np.ndarray           # object, (n,)
    entry: np.ndarray                # float, (n,)
    exit: np.ndarray                 # float, (n,)
    event: np.ndarray                # bool, (n,)
    stratum_codes: np.ndarray = field(default=None, repr=False)  # int, (n,)
    cluster_codes: np.ndarray = field(default=None, repr=False)  # int, (n,)

    def __post_init__(self):
        if self.stratum_codes is None:
            object.__setattr__(self, "stratum_codes", label_codes(self.strata_key))
        if self.cluster_codes is None:
            object.__setattr__(self, "cluster_codes", label_codes(self.cluster_id))

    def __len__(self) -> int:
        return self.blocks.shape[1]

    @property
    def n_columns(self) -> int:
        return self.block_map.shape[1]

    @property
    def X(self) -> np.ndarray:
        """The rows of a plain design (one block, identity map), ``(n, p)``."""
        if len(self.blocks) != 1 or not np.array_equal(self.block_map, np.eye(self.n_columns)):
            raise ValueError("only a one-block design with the identity map has a plain X")
        return self.blocks[0]

    def column(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise KeyError(f"no design column named {name!r}") from None


def categorize_quantiles(values, k: int, name: str = "exposure"):
    """Assign each value to one of ``k`` empirical quantile categories.

    Cut points are the type-1 (inverted-CDF) empirical quantiles at
    ``c/k, c = 1..k-1``; value ``v`` lands in category ``c`` iff
    ``q_{(c-1)/k} < v <= q_{c/k}`` with the lowest category closed below.
    Heavily tied data can produce duplicate cut points (and hence unbalanced
    or empty bins); this is allowed but triggers a warning.

    Returns
    -------
    categories : ndarray of int, values in 1..k
    cut_points : ndarray of float, length k - 1
    """
    if k < 2:
        raise ConfigError(f"need k >= 2 quantile categories, got k={k}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValidationError(f"{name}: cannot categorize an empty value sequence")
    n_distinct = len(np.unique(values))
    if n_distinct < k:
        raise ValidationError(
            f"{name}: only {n_distinct} distinct value(s), cannot form {k} quantile categories"
        )
    cuts = np.quantile(values, np.arange(1, k) / k, method="inverted_cdf")
    categories = 1 + np.searchsorted(cuts, values, side="left").astype(int)
    if len(np.unique(cuts)) < len(cuts):
        sizes = np.bincount(categories, minlength=k + 1)[1:]
        warnings.warn(
            f"{name}: tied quantile cut points produce unbalanced bins "
            f"(sizes {sizes.tolist()})",
            stacklevel=2,
        )
    return categories, cuts


def dummy_code(categories, reference: int, k: int):
    """Expand integer categories 1..k into k-1 indicator columns.

    The reference level maps to an all-zero row.  Columns are named
    ``Exposures<c>`` for each non-reference level ``c``.

    Returns
    -------
    matrix : ndarray of float, shape (n, k - 1)
    names : tuple of str
    """
    if not 1 <= reference <= k:
        raise ConfigError(f"reference level {reference} outside 1..{k}")
    categories = np.asarray(categories, dtype=int)
    unseen = np.setdiff1d(np.unique(categories), np.arange(1, k + 1))
    if unseen.size:
        raise ValidationError(f"category label(s) {unseen.tolist()} outside 1..{k}")
    levels = [c for c in range(1, k + 1) if c != reference]
    matrix = np.column_stack([(categories == c).astype(float) for c in levels])
    names = tuple(f"Exposures{c}" for c in levels)
    return matrix, names


def trend_scores(categories, raw_values, k: int) -> np.ndarray:
    """Score each row by the median raw value within its ordinal category.

    The resulting single continuous column makes the downstream comparison
    identical to the continuous-exposure case.
    """
    categories = np.asarray(categories, dtype=int)
    raw_values = np.asarray(raw_values, dtype=float)
    if categories.shape != raw_values.shape:
        raise ConfigError("categories and raw_values must align")
    scores = np.empty_like(raw_values)
    for c in range(1, k + 1):
        mask = categories == c
        if mask.any():
            scores[mask] = np.median(raw_values[mask])
    return scores


def _exposure_term_columns(dataset: Dataset, spec: ExposureSpec):
    """Per-source-column model terms: list of (n, n_terms) arrays plus names.

    A cohort with a row that breaks :func:`~dupcox.data.row_faults`' rules
    is refused with a :class:`ValidationError` naming the rule and the count.
    """
    faults = row_faults(dataset.entry, dataset.exit, dataset.exposures, dataset.covariates)
    for rows, rule in zip(faults, ("with a non-finite time, exposure or covariate value",
                                   "whose entry time is not before the exit time")):
        if rows.any():
            raise ValidationError(f"{rows.sum()} row(s) {rule}")
    for name in spec.source_columns:
        if name not in dataset.schema.exposure_columns:
            raise SchemaError(f"exposure column {name!r} not declared in the dataset schema")
    blocks = []
    names: tuple[str, ...] = ("Exposures",)
    for name in spec.source_columns:
        raw = dataset.exposure(name)
        if spec.kind == "continuous":
            blocks.append(raw.reshape(-1, 1))
        elif spec.kind == "dichotomous":
            bad = np.setdiff1d(np.unique(raw), [0.0, 1.0])
            if bad.size:
                raise ValidationError(
                    f"dichotomous exposure {name!r} contains values other than 0/1: "
                    f"{bad.tolist()}"
                )
            blocks.append(raw.reshape(-1, 1))
        elif spec.kind == "trend":
            categories, _ = categorize_quantiles(raw, spec.n_levels, name=name)
            blocks.append(trend_scores(categories, raw, spec.n_levels).reshape(-1, 1))
        else:  # categorical
            categories, _ = categorize_quantiles(raw, spec.n_levels, name=name)
            matrix, names = dummy_code(categories, spec.reference_level, spec.n_levels)
            blocks.append(matrix)
    return blocks, names


def _column_names(term_names, covariate_names, n_types: int):
    """Augmented design columns: all names, and the exposure interactions.

    Main terms come first, then each non-reference type's exposure
    interactions, then each non-reference type's covariate interactions.
    """
    later = range(2, n_types + 1)
    inter = tuple(f"{term}:A_type{j}" for j in later for term in term_names)
    cov_inter = tuple(f"{cov}:A_type{j}" for j in later for cov in covariate_names)
    return tuple(term_names) + tuple(covariate_names) + inter + cov_inter, inter


def duplicate_augment(dataset: Dataset, spec: ExposureSpec) -> AugmentedDataset:
    """Row-bind one copy of the cohort per compared exposure.

    Block ``j`` carries the model terms synthesized from source column ``j``
    under ``a_type`` equal to that column's name; everything else is copied
    verbatim.  Block order follows ``spec.source_columns`` and each block
    preserves the original row order.
    """
    blocks, term_names = _exposure_term_columns(dataset, spec)
    m = spec.n_compared
    n = len(dataset)
    tile = lambda arr: np.concatenate([arr] * m, axis=0)
    a_type = np.concatenate([
        np.full(n, label, dtype=object) for label in spec.source_columns
    ])
    return AugmentedDataset(
        subject_ids=tile(dataset.subject_ids),
        entry=tile(dataset.entry),
        exit=tile(dataset.exit),
        event=tile(dataset.event),
        a_type=a_type,
        exposure_terms=np.concatenate(blocks, axis=0),
        covariates=tile(dataset.covariates),
        strata=tile(dataset.strata),
        term_names=term_names,
        covariate_names=dataset.schema.covariate_columns,
        a_type_labels=spec.source_columns,
    )


def build_design_matrix(aug: AugmentedDataset, spec: ExposureSpec) -> DesignMatrix:
    """Expand an augmented dataset into the interaction design.

    Interactions are generated for every non-reference type against every
    exposure term and every covariate; combined with type-stratification this
    makes the augmented fit algebraically equivalent to the separate
    per-exposure fits.
    """
    if len(aug) == 0:
        raise ValidationError("augmented dataset is empty")
    if not aug.event.any():
        raise EstimationError("no informative strata: the dataset contains no events")
    expected_terms = spec.n_levels - 1 if spec.kind == "categorical" else 1
    if len(aug.term_names) != expected_terms:
        raise ConfigError(
            f"augmented data carries {len(aug.term_names)} exposure term(s) but the "
            f"{spec.kind} spec implies {expected_terms}"
        )

    indicators = [(aug.a_type == label).astype(float)[:, None]
                  for label in aug.a_type_labels[1:]]
    X = np.column_stack([aug.exposure_terms, aug.covariates]
                        + [aug.exposure_terms * ind for ind in indicators]
                        + [aug.covariates * ind for ind in indicators])
    column_names, inter_names = _column_names(
        aug.term_names, aug.covariate_names, len(aug.a_type_labels))

    return DesignMatrix(
        blocks=X[None],
        block_map=np.eye(X.shape[1]),
        column_names=column_names,
        exposure_main_columns=tuple(aug.term_names),
        interaction_columns=inter_names,
        strata_key=join_labels([*aug.strata.T, aug.a_type]),
        cluster_id=aug.subject_ids.copy(),
        entry=aug.entry.copy(),
        exit=aug.exit.copy(),
        event=aug.event.copy(),
    )


def block_design(dataset: Dataset, spec: ExposureSpec) -> DesignMatrix:
    """The design of :func:`build_design_matrix` without copying the cohort.

    Fitting it gives the augmented fit's coefficients, covariances and
    diagnostics, over ``n`` rows instead of ``m * n``.
    """
    terms, term_names = _exposure_term_columns(dataset, spec)
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    if not dataset.event.any():
        raise EstimationError("no informative strata: the dataset contains no events")
    covariate_names = dataset.schema.covariate_columns
    column_names, inter_names = _column_names(term_names, covariate_names, spec.n_compared)
    # Block j's coefficients: each main term, plus its type-j interaction.
    index = {name: i for i, name in enumerate(column_names)}
    base = tuple(term_names) + covariate_names
    block_map = np.zeros((spec.n_compared, len(base), len(column_names)))
    for j in range(spec.n_compared):
        for k, name in enumerate(base):
            block_map[j, k, index[name]] = 1.0
            if j:
                block_map[j, k, index[f"{name}:A_type{j + 1}"]] = 1.0
    return DesignMatrix(
        blocks=np.stack([np.column_stack([t, dataset.covariates]) for t in terms]),
        block_map=block_map.reshape(-1, len(column_names)),
        column_names=column_names,
        exposure_main_columns=tuple(term_names),
        interaction_columns=inter_names,
        strata_key=dataset.strata_keys(),
        cluster_id=dataset.subject_ids.copy(),
        entry=dataset.entry.copy(),
        exit=dataset.exit.copy(),
        event=dataset.event.copy(),
        stratum_codes=dataset.stratum_codes,
        cluster_codes=dataset.subject_codes,
    )


def single_exposure_design(dataset: Dataset, spec: ExposureSpec, index: int) -> DesignMatrix:
    """Design for fitting one exposure alone on the original cohort.

    Block ``index`` of :func:`block_design` under the identity map, so its
    coefficients are directly comparable with the main(+interaction)
    parameterization of the duplicated fit.
    """
    if not 0 <= index < spec.n_compared:
        raise ConfigError(f"exposure index {index} outside 0..{spec.n_compared - 1}")
    design = block_design(dataset, spec)
    p_b = design.blocks.shape[2]
    return replace(design, blocks=design.blocks[index:index + 1], block_map=np.eye(p_b),
                   column_names=design.column_names[:p_b], interaction_columns=())
