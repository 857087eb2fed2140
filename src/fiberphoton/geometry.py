"""Ray-optics calculators for an emitter inside a cylindrical fiber core.

Covers three geometric results for a dielectric cylinder of radius a and
index n with the emitter a distance r from the axis.  Each is a function of
n and at most one length or ratio (a, r/a or a/lambda), and takes just those:

* channeling of emitted photons into the guided (axial) modes, set only by
  the critical angle: eta = 1 - 1/n for both propagation directions combined;
* azimuthal confinement by total internal reflection, which exists only for
  r/a > 1/n and covers the azimuth interval (phi_plus, phi_minus);
* whispering-gallery standing-wave mode numbers m allowed in the confinement
  annulus: 2*pi*r_c < m*lambda/(2n) < 2*pi*a with r_c = a/n.

Lengths are in um.  Each function checks its own inputs (n in (1, inf) for
TIR, r/a in [0, 1], a and lambda in (0, inf)) and raises InvalidParameter.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameter, check_number

#: Tolerance for clamping an arccos argument that rounding pushed past +-1.
_ACOS_CLAMP = 1e-12


def channeling_efficiency(n: float) -> float:
    """Fraction of emitted photons captured into both guided directions.

    The capture cone per direction subtends solid angle 2*pi*(1 - 1/n), so the
    combined efficiency is 1 - 1/n.  About 0.31 for silica at ~1 um.
    """
    check_number("refractive index n", n, 1, math.inf, "()")
    return 1.0 - 1.0 / n


def critical_offset(a: float, n: float) -> float:
    """Minimum emitter offset r_c = a/n that allows total internal reflection."""
    check_number("core radius a", a, 0, math.inf, "()")
    check_number("refractive index n", n, 1, math.inf, "()")
    return a / n


def tir_area_fraction(n: float) -> float:
    """Fraction of the core cross-section beyond r_c: p = 1 - 1/n^2."""
    check_number("refractive index n", n, 1, math.inf, "()")
    return 1.0 - 1.0 / n**2


def _safe_acos(x: float) -> float:
    if abs(x) > 1.0:
        if abs(x) - 1.0 > _ACOS_CLAMP:
            raise InvalidParameter(
                f"arccos argument {x} outside [-1, 1] beyond rounding tolerance"
            )
        x = math.copysign(1.0, x)
    return math.acos(x)


def _azimuths(n: float, r_over_a: float) -> tuple[float, float] | None:
    """Boundary azimuths (phi_plus, phi_minus) of the TIR interval, where the
    internal reflection angle equals the critical angle, with
    0 <= phi_plus <= phi_minus <= pi; None when r/a <= 1/n.

    phi_pm = arccos( (a / (n^2 r)) * [1 +- sqrt(D)] ) with
    D = 1 - n^2 * (1 - (n^2 - 1) r^2 / a^2).  D >= 0 exactly when r/a >= 1/n
    (so never on the axis); at equality the two azimuths coincide
    (confinement of measure zero).
    """
    n2 = n**2
    disc = 1.0 - n2 * (1.0 - (n2 - 1.0) * r_over_a**2)
    if disc < 0:
        return None
    root = math.sqrt(disc)
    pref = 1.0 / (n2 * r_over_a)
    return _safe_acos(pref * (1.0 + root)), _safe_acos(pref * (1.0 - root))


def confinement_efficiency(n: float, r_over_a: float) -> float:
    """Combined (both circulation directions) confinement efficiency
    |phi_minus - phi_plus| / pi; zero when no TIR interval exists."""
    check_number("refractive index n", n, 1, math.inf, "()")
    check_number("emitter offset r/a", r_over_a, 0, 1)
    sol = _azimuths(n, r_over_a)
    return 0.0 if sol is None else abs(sol[1] - sol[0]) / math.pi


def confinement_efficiency_sampled(n: float, r_over_a: float,
                                   num: int = 200_000) -> float:
    """Sampling oracle for the confinement efficiency.

    Evaluates sin(theta) = r sin(phi) / sqrt(a^2 + r^2 - 2 a r cos(phi)) (in
    units of a) on a midpoint grid of phi in (0, pi) and returns the measure
    fraction of the set where sin(theta) exceeds 1/n.  Independent of the
    closed form above.
    """
    check_number("refractive index n", n, 1, math.inf, "()")
    check_number("emitter offset r/a", r_over_a, 0, 1)
    phi = (np.arange(num) + 0.5) * (math.pi / num)
    d = np.sqrt(1.0 + r_over_a**2 - 2.0 * r_over_a * np.cos(phi))
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_theta = np.where(d > 0, r_over_a * np.sin(phi) / d, 0.0)
    return float(np.count_nonzero(sin_theta > 1.0 / n)) / num


def wgm_mode_numbers(a: float, wavelength: float, n: float) -> range:
    """Natural numbers m with 2*pi*r_c < m*lambda/(2n) < 2*pi*a, as a range,
    which holds any count of them in constant memory.

    These are the half-wavelength counts of standing whispering-gallery waves
    fitting the TIR annulus; scale-invariant in a/lambda.
    """
    check_number("core radius a", a, 0, math.inf, "()")
    check_number("wavelength", wavelength, 0, math.inf, "()")
    check_number("refractive index n", n, 1, math.inf, "()")
    # m > 4*pi*a*n/(lambda*n) = 4*pi*a/lambda  and  m < 4*pi*a*n/lambda
    lo = 4.0 * math.pi * a / wavelength
    hi = 4.0 * math.pi * a * n / wavelength
    if hi == math.inf:
        raise InvalidParameter(f"4*pi*a*n/lambda overflows a float for core radius "
                               f"a = {a} and wavelength lambda = {wavelength}")
    return range(math.floor(lo) + 1, math.ceil(hi))


def confinement_sweep(n: float) -> tuple[np.ndarray, np.ndarray]:
    """Confinement efficiency versus r/a on a uniform grid of 101 points in
    [0, 1]; it depends only on n and r/a."""
    ratios = np.linspace(0.0, 1.0, 101)
    eta = np.array([confinement_efficiency(n, x) for x in ratios])
    return ratios, eta
