"""Every public entry that takes a numeric setting refuses a value that is not
a number with the same ``ConfigError`` as a number out of range: one rule,
``errors._is_integer`` and ``errors._is_number``, for what counts as one."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import dupcox as dc
from dupcox.errors import ConfigError, _is_integer, _is_number
from conftest import simulated_cohort

NOT_NUMBERS = [None, "0.5", True, Decimal("0.5")]


@pytest.fixture(scope="module")
def cohort():
    return simulated_cohort(seed=22, n=120)


def sim_config(**overrides):
    return dc.SimConfig(**({"n_subjects": 60, "exposure_correlation": 0.5,
                            "true_beta": (0.4, 0.4), "replicate_count": 2} | overrides))


# Each entry: its call with the setting, and the text its refusal starts with.
ENTRIES = {
    "compare_exposures confidence": (
        lambda c, v: dc.compare_exposures(*c, confidence=v), "confidence must be in (0, 1)"),
    "hazard_ratio confidence": (
        lambda c, v: dc.hazard_ratio(dc.compare_exposures(*c).fit, "Exposures", confidence=v),
        "confidence must be in (0, 1)"),
    "SimConfig exposure_correlation": (
        lambda c, v: sim_config(exposure_correlation=v),
        "exposure_correlation must lie in [-1, 1]"),
    "SimConfig censoring_rate": (
        lambda c, v: sim_config(censoring_rate=v), "censoring_rate must lie in [0, 1)"),
    "SimConfig true_beta": (lambda c, v: sim_config(true_beta=v), "true_beta must be finite"),
    "estimate_type1_error alpha": (
        lambda c, v: dc.estimate_type1_error(sim_config(), alpha=v), "alpha must lie in (0, 1]"),
    "ks_critical_value level": (
        lambda c, v: dc.ks_critical_value(10, v), "level must lie in (0, 1)"),
    "chi_square_upper_tail q": (
        lambda c, v: dc.chi_square_upper_tail(v, 1), "chi-square statistic must be >= 0"),
    "chi_square_upper_tail df": (
        lambda c, v: dc.chi_square_upper_tail(1.0, v), "degrees of freedom must be an integer"),
    "single_exposure_design index": (
        lambda c, v: dc.single_exposure_design(*c, v), "exposure index"),
}


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_value_that_is_not_a_number_is_a_config_error(cohort, entry, value):
    call, text = ENTRIES[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}"):
        call(cohort, value)


PAST_FLOAT = [10**400, -10**400, Fraction(10**400)]


@pytest.mark.parametrize("value", PAST_FLOAT, ids=["10**400", "-10**400", "Fraction(10**400)"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_number_past_float_range_is_a_config_error(cohort, entry, value):
    call, text = ENTRIES[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}"):
        call(cohort, value)


# Each call with a setting past float range, and its refusal's start.
PAST_FLOAT_RANGE = {
    "FitOptions gradient_tolerance": (
        lambda c: dc.FitOptions(gradient_tolerance=10**400),
        "gradient_tolerance must be a finite number > 0"),
    "SimConfig true_beta": (lambda c: sim_config(true_beta=(10**400, 0.1)),
                            "true_beta must be finite"),
    "compare_exposures scale": (lambda c: dc.compare_exposures(*c, scale=10**400),
                                "[design] scale must be a finite number > 0"),
    "hazard_ratio scale": (
        lambda c: dc.hazard_ratio(dc.compare_exposures(*c).fit, "Exposures", scale=10**400),
        "scale must be a finite number > 0"),
}


@pytest.mark.parametrize("entry", PAST_FLOAT_RANGE)
def test_a_setting_past_float_range_keeps_its_own_refusal(cohort, entry):
    call, text = PAST_FLOAT_RANGE[entry]
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}"):
        call(cohort)


@pytest.mark.parametrize("effects", [("0.4", "0.4"), "ab", (0.4, Decimal("0.4")),
                                     np.array(0.4), np.array([[0.4, 0.4]])])
def test_simulation_effects_must_be_a_sequence_of_numbers(effects):
    with pytest.raises(ConfigError, match="^true_beta must be finite"):
        sim_config(true_beta=effects)


def test_an_integral_float_is_no_exposure_index(cohort):
    with pytest.raises(ConfigError, match=r"^exposure index 1\.0 outside 0\.\.1"):
        dc.single_exposure_design(*cohort, 1.0)


@pytest.mark.parametrize("scale", [Decimal("2"), np.array(2.0)], ids=repr)
def test_a_scale_must_be_a_number_not_a_decimal_or_an_array(cohort, scale):
    fit = dc.compare_exposures(*cohort).fit
    with pytest.raises(ConfigError, match=r"^scale must be a finite number > 0"):
        dc.hazard_ratio(fit, "Exposures", scale=scale)
    with pytest.raises(ConfigError, match=r"^\[design\] scale must be a finite number > 0"):
        dc.compare_exposures(*cohort, scale=scale)


def test_numpy_scalars_and_fractions_are_numbers(cohort):
    want = dc.compare_exposures(*cohort, confidence=0.9, scale=2.0).to_dict()
    for confidence, scale in ((np.float64(0.9), np.int64(2)), (Fraction(9, 10), np.float32(2))):
        assert dc.compare_exposures(*cohort, confidence=confidence,
                                    scale=scale).to_dict() == want
    cfg = sim_config(exposure_correlation=np.float32(0.5), censoring_rate=np.float64(0.25),
                     true_beta=np.array([0.4, 0.4]), n_subjects=np.int32(60))
    assert cfg == sim_config()
    assert dc.ks_critical_value(np.int64(10), np.float64(0.01)) == dc.ks_critical_value(10)
    assert dc.chi_square_upper_tail(np.float32(2.0), np.int8(3)) \
        == dc.chi_square_upper_tail(2.0, 3)
    assert dc.single_exposure_design(*cohort, np.int64(1)).column_names \
        == dc.single_exposure_design(*cohort, 1).column_names


@pytest.mark.parametrize("value, integer, number", [
    (3, True, True), (np.int64(3), True, True), (3.0, False, True),
    (np.float32(0.5), False, True), (Fraction(1, 2), False, True), (np.nan, False, True),
    (True, False, False), (np.True_, False, False), (Decimal("1"), False, False),
    ("1", False, False), (None, False, False), (np.array(1.0), False, False),
], ids=repr)
def test_the_two_predicates(value, integer, number):
    assert (_is_integer(value), _is_number(value)) == (integer, number)


def test_a_number_past_float_range_is_no_number():
    assert [(_is_integer(v), _is_number(v)) for v in PAST_FLOAT] == [
        (True, False), (True, False), (False, False)]
    assert _is_number(Fraction(1, 10**400))  # float() holds it as 0.0
