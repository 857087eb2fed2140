"""Ray-optics geometry against a sampling oracle and known reference values."""

import math

import numpy as np
import pytest

from fiberphoton.errors import InvalidParameter
from fiberphoton.geometry import (
    FiberGeometry,
    azimuthal_solutions,
    channeling_efficiency,
    confinement_efficiency,
    confinement_efficiency_sampled,
    confinement_sweep,
    critical_offset,
    tir_area_fraction,
    wgm_mode_numbers,
)


def geom(a=1.0, n=1.45, r=0.0, wavelength=1.0):
    return FiberGeometry(a=a, n=n, r=r, wavelength=wavelength)


class TestReferenceValues:
    def test_channeling_silica(self):
        assert channeling_efficiency(1.45) == pytest.approx(0.310345, abs=1e-4)

    def test_critical_offset_ratio(self):
        g = geom()
        assert critical_offset(g) / g.a == pytest.approx(0.689655, abs=1e-4)

    def test_tir_area_fraction(self):
        assert tir_area_fraction(geom()) == pytest.approx(0.524376, abs=1e-4)

    def test_wgm_modes_unit_radius(self):
        assert wgm_mode_numbers(geom(a=1.0, wavelength=1.0)) == [13, 14, 15, 16, 17, 18]

    def test_confinement_near_surface(self):
        assert confinement_efficiency(geom(r=0.9)) == pytest.approx(0.4442, abs=5e-4)
        assert confinement_efficiency(geom(r=0.8)) == pytest.approx(0.3385, abs=5e-4)

    def test_azimuthal_solutions_near_surface(self):
        sol = azimuthal_solutions(geom(r=0.9))
        assert sol.phi_plus == pytest.approx(0.1120, abs=5e-4)
        assert sol.phi_minus == pytest.approx(1.5075, abs=5e-4)
        assert 0.0 <= sol.phi_plus <= sol.phi_minus <= math.pi


class TestSamplingOracle:
    def test_matches_closed_form_over_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.uniform(1.1, 2.0)
            r = rng.uniform(0.0, 1.0)
            g = geom(n=n, r=r)
            closed = confinement_efficiency(g)
            sampled = confinement_efficiency_sampled(g, num=200_000)
            assert abs(closed - sampled) < 1e-3

    def test_boundary_at_critical_offset(self):
        n = 1.45
        rc = 1.0 / n
        below = geom(n=n, r=rc - 1e-9)
        above = geom(n=n, r=rc + 1e-9)
        assert confinement_efficiency(below) == 0.0
        assert confinement_efficiency(above) < 1e-3

    def test_on_axis_and_surface(self):
        assert confinement_efficiency(geom(r=0.0)) == 0.0
        # At the surface the TIR interval is widest: eta ~ 0.5155 for n=1.45.
        assert confinement_efficiency(geom(r=1.0)) == pytest.approx(0.5155, abs=1e-3)

    def test_monotone_in_offset(self):
        n = 1.45
        ratios = np.linspace(0.0, 1.0, 1000)
        eta = np.array([confinement_efficiency(geom(n=n, r=x)) for x in ratios])
        assert np.all(np.diff(eta) >= -1e-12)


class TestSweeps:
    def test_confinement_sweep_shape(self):
        ratios, eta = confinement_sweep(1.45)
        assert ratios.size == eta.size == 101
        assert eta[0] == 0.0
        assert eta[-1] == pytest.approx(0.5155, abs=1e-3)

    def test_wgm_scale_invariance(self):
        m1 = wgm_mode_numbers(geom(a=1.0, wavelength=1.0))
        m2 = wgm_mode_numbers(geom(a=2.5, wavelength=2.5))
        assert m1 == m2

    def test_wgm_strict_inequalities(self):
        for g in (geom(a=1.0, wavelength=1.0), geom(a=0.3, wavelength=0.8)):
            lo = 4.0 * math.pi * g.a / g.wavelength
            hi = lo * g.n
            for m in wgm_mode_numbers(g):
                assert lo < m < hi


class TestValidation:
    def test_invalid_geometry(self):
        with pytest.raises(InvalidParameter):
            FiberGeometry(a=-1.0, n=1.45, r=0.0, wavelength=1.0)
        with pytest.raises(InvalidParameter):
            FiberGeometry(a=1.0, n=0.9, r=0.0, wavelength=1.0)
        with pytest.raises(InvalidParameter):
            FiberGeometry(a=1.0, n=1.45, r=1.5, wavelength=1.0)
        with pytest.raises(InvalidParameter):
            FiberGeometry(a=1.0, n=1.45, r=0.0, wavelength=0.0)

    def test_channeling_requires_index_above_one(self):
        with pytest.raises(InvalidParameter):
            channeling_efficiency(1.0)

    def test_no_solutions_below_critical_offset(self):
        assert azimuthal_solutions(geom(r=0.5)) is None
