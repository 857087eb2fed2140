"""Exception types shared across the package, its one number check and its
one config-section check."""

import numbers
import sys


class FiberPhotonError(Exception):
    """Base class for all package errors."""


class InvalidParameter(FiberPhotonError, ValueError):
    """A physical parameter violates its invariant (negative rate, probability
    outside [0, 1], refractive index <= 1, ...)."""


class DegenerateInput(FiberPhotonError, ValueError):
    """Input is mathematically valid but makes the requested quantity
    undefined (rho = 0 inversion, g2_int <= g2_0, both rates zero, ...)."""


class InsufficientPeaks(FiberPhotonError, ValueError):
    """The bin edges cut the zero pulse peak or hold no whole side peak."""


class MalformedFile(FiberPhotonError, ValueError):
    """A CSV/JSON input file does not match the expected schema."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


def check_number(name, value, low, high, brackets="[]"):
    """Raise InvalidParameter, naming name and its interval, unless value is
    a real number, not a bool, from low to high.  brackets gives the ends of
    the interval: "[" and "]" include low and high, "(" and ")" exclude them.
    NaN lies in no interval, nor does an integer too large for a float."""
    left, right = brackets
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max)
            and (low <= value if left == "[" else low < value)
            and (value <= high if right == "]" else value < high)):
        raise InvalidParameter(f"{name} must be a number in {left}{low:g}, "
                               f"{high:g}{right}, got {value!r}")


def check_section(name, section, allowed, required=()) -> dict:
    """The config section called name, {} when it was left out (None).
    Raise InvalidParameter unless it is None or a dict whose keys are all in
    allowed and include all of required, naming every unknown and every
    missing key, sorted."""
    section = {} if section is None else section
    if not isinstance(section, dict):
        raise InvalidParameter(
            f"the {name} config must be a JSON object, got {section!r}")
    faults = [f"{fault} {name} config keys {keys}" for fault, keys in [
        ("unknown", sorted(section.keys() - set(allowed))),
        ("missing", sorted(set(required) - section.keys()))] if keys]
    if faults:
        raise InvalidParameter("; ".join(faults))
    return section
