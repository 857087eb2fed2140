"""The one number check that every parameter goes through, and the one
config-section check."""

import math

import numpy as np
import pytest

from fiberphoton.errors import InvalidParameter, check_number, check_section


@pytest.mark.parametrize("value, low, high, brackets", [
    (0, 0, 1, "[]"), (1, 0, 1, "[]"), (0, 0, 1, "[)"), (1, 0, 1, "(]"),
    (0.5, 0, 1, "()"), (math.inf, 0, math.inf, "(]"),
    (np.int64(1), 0, 1, "[]"), (np.float32(0.5), 0, 1, "()"),
    (np.float64(1e300), 0, math.inf, "()"),
])
def test_numbers_inside_the_interval_pass(value, low, high, brackets):
    check_number("x", value, low, high, brackets)


@pytest.mark.parametrize("value, low, high, brackets", [
    (0, 0, 1, "()"), (1, 0, 1, "()"), (1, 0, 1, "[)"), (0, 0, 1, "(]"),
    (-1e-300, 0, 1, "[]"), (math.nan, -math.inf, math.inf, "[]"),
    (math.inf, 0, math.inf, "()"), (-math.inf, -math.inf, math.inf, "()"),
    (np.float64(math.nan), 0, 1, "[]"),
    (True, 0, 1, "[]"), (False, 0, 1, "[]"), (np.bool_(True), 0, 1, "[]"),
    ("1", 0, 1, "[]"), (None, 0, 1, "[]"), ([1], 0, 1, "[]"),
    (np.array(0.5), 0, 1, "[]"),
])
def test_everything_else_is_rejected(value, low, high, brackets):
    with pytest.raises(InvalidParameter, match=r"^x must be a number in "):
        check_number("x", value, low, high, brackets)


def test_message_names_the_parameter_its_interval_and_the_value():
    with pytest.raises(InvalidParameter) as exc:
        check_number("w_p", True, 0, math.inf, "()")
    assert str(exc.value) == "w_p must be a number in (0, inf), got True"


def test_integer_beyond_the_float_range_is_rejected():
    """A JSON integer may exceed every float; given as tau_o it would be
    the lower bound of period, which the message cannot format."""
    with pytest.raises(InvalidParameter, match=r"^x must be a number in "):
        check_number("x", 10**400, 0, math.inf, "()")


def test_section_left_out_is_empty_and_a_dict_passes_through():
    assert check_section("s", None, ["a"]) == {}
    section = {"a": 1}
    assert check_section("s", section, ["a", "b"], ["a"]) is section


@pytest.mark.parametrize("section", [False, 0, "", [], [1], 1.5, "{}"])
def test_section_that_is_not_an_object_is_rejected(section):
    with pytest.raises(InvalidParameter,
                       match=r"^the s config must be a JSON object, got "):
        check_section("s", section, ["a"])


def test_section_error_names_every_unknown_and_missing_key_sorted():
    with pytest.raises(InvalidParameter) as exc:
        check_section("s", {"z": 1, "y": 2, "a": 3}, ["a", "b", "c"], ["c", "b"])
    assert str(exc.value) == ("unknown s config keys ['y', 'z']; "
                              "missing s config keys ['b', 'c']")
    with pytest.raises(InvalidParameter, match=r"^missing s config keys \['a'\]$"):
        check_section("s", None, ["a"], ["a"])
