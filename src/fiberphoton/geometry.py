"""Ray-optics calculators for an emitter inside a cylindrical fiber core.

Covers three geometric results for a dielectric cylinder of radius a and
index n with the emitter a distance r from the axis:

* channeling of emitted photons into the guided (axial) modes, set only by
  the critical angle: eta = 1 - 1/n for both propagation directions combined;
* azimuthal confinement by total internal reflection, which exists only for
  r/a > 1/n and covers the azimuth interval (phi_plus, phi_minus);
* whispering-gallery standing-wave mode numbers m allowed in the confinement
  annulus: 2*pi*r_c < m*lambda/(2n) < 2*pi*a with r_c = a/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidParameter, check_number

#: Tolerance for clamping an arccos argument that rounding pushed past +-1.
_ACOS_CLAMP = 1e-12


@dataclass(frozen=True)
class FiberGeometry:
    """Core radius a (um), refractive index n > 1 (for TIR), emitter offset
    r in [0, a] (um), vacuum wavelength (um); each a finite number."""

    a: float
    n: float
    r: float
    wavelength: float

    def __post_init__(self):
        check_number("core radius a", self.a, 0, math.inf, "()")
        check_number("refractive index n", self.n, 1, math.inf, "()")
        check_number("emitter offset r", self.r, 0, self.a)
        check_number("wavelength", self.wavelength, 0, math.inf, "()")


def channeling_efficiency(n: float) -> float:
    """Fraction of emitted photons captured into both guided directions.

    The capture cone per direction subtends solid angle 2*pi*(1 - 1/n), so the
    combined efficiency is 1 - 1/n.  About 0.31 for silica at ~1 um.
    """
    check_number("refractive index n", n, 1, math.inf, "()")
    return 1.0 - 1.0 / n


def critical_offset(g: FiberGeometry) -> float:
    """Minimum emitter offset r_c = a/n that allows total internal reflection."""
    return g.a / g.n


def tir_area_fraction(g: FiberGeometry) -> float:
    """Fraction of the core cross-section beyond r_c: p = 1 - 1/n^2."""
    return 1.0 - 1.0 / g.n**2


class AzimuthalSolutions(NamedTuple):
    """The two azimuths where the internal reflection angle equals the
    critical angle, with 0 <= phi_plus <= phi_minus <= pi."""

    phi_plus: float
    phi_minus: float


def _safe_acos(x: float) -> float:
    if abs(x) > 1.0:
        if abs(x) - 1.0 > _ACOS_CLAMP:
            raise InvalidParameter(
                f"arccos argument {x} outside [-1, 1] beyond rounding tolerance"
            )
        x = math.copysign(1.0, x)
    return math.acos(x)


def azimuthal_solutions(g: FiberGeometry) -> Optional[AzimuthalSolutions]:
    """Boundary azimuths of the TIR interval, or None when r/a <= 1/n.

    phi_pm = arccos( (a / (n^2 r)) * [1 +- sqrt(D)] ) with
    D = 1 - n^2 * (1 - (n^2 - 1) r^2 / a^2).  D >= 0 exactly when r/a >= 1/n;
    at equality the two azimuths coincide (confinement of measure zero).
    """
    n2 = g.n**2
    if g.r == 0:
        return None
    disc = 1.0 - n2 * (1.0 - (n2 - 1.0) * g.r**2 / g.a**2)
    if disc < 0:
        return None
    root = math.sqrt(disc)
    pref = g.a / (n2 * g.r)
    phi_plus = _safe_acos(pref * (1.0 + root))
    phi_minus = _safe_acos(pref * (1.0 - root))
    return AzimuthalSolutions(phi_plus=phi_plus, phi_minus=phi_minus)


def confinement_efficiency(g: FiberGeometry) -> float:
    """Combined (both circulation directions) confinement efficiency
    |phi_minus - phi_plus| / pi; zero when no TIR interval exists."""
    sol = azimuthal_solutions(g)
    if sol is None:
        return 0.0
    return abs(sol.phi_minus - sol.phi_plus) / math.pi


def confinement_efficiency_sampled(g: FiberGeometry, num: int = 200_000) -> float:
    """Sampling oracle for the confinement efficiency.

    Evaluates sin(theta) = r sin(phi) / sqrt(a^2 + r^2 - 2 a r cos(phi)) on a
    midpoint grid of phi in (0, pi) and returns the measure fraction of the
    set where sin(theta) exceeds 1/n.  Independent of the closed form above.
    """
    phi = (np.arange(num) + 0.5) * (math.pi / num)
    d = np.sqrt(g.a**2 + g.r**2 - 2.0 * g.a * g.r * np.cos(phi))
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_theta = np.where(d > 0, g.r * np.sin(phi) / d, 0.0)
    return float(np.count_nonzero(sin_theta > 1.0 / g.n)) / num


def wgm_mode_numbers(g: FiberGeometry) -> list[int]:
    """Natural numbers m with 2*pi*r_c < m*lambda/(2n) < 2*pi*a.

    These are the half-wavelength counts of standing whispering-gallery waves
    fitting the TIR annulus; scale-invariant in a/lambda.
    """
    # m > 4*pi*a*n/(lambda*n) = 4*pi*a/lambda  and  m < 4*pi*a*n/lambda
    lo = 4.0 * math.pi * g.a / g.wavelength
    hi = 4.0 * math.pi * g.a * g.n / g.wavelength
    first = math.floor(lo) + 1
    last = math.ceil(hi) - 1
    return [m for m in range(max(first, 1), last + 1) if lo < m < hi]


def confinement_sweep(n: float) -> tuple[np.ndarray, np.ndarray]:
    """Confinement efficiency versus r/a on a uniform grid of 101 points in
    [0, 1]; it depends only on n and r/a."""
    ratios = np.linspace(0.0, 1.0, 101)
    eta = np.array([
        confinement_efficiency(FiberGeometry(a=1.0, n=n, r=x, wavelength=1.0))
        for x in ratios
    ])
    return ratios, eta
