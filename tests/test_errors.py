"""The one number check that every parameter goes through."""

import math

import numpy as np
import pytest

from fiberphoton.errors import InvalidParameter, check_number


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
