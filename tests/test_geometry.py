"""Ray-optics geometry against a sampling oracle and known reference values."""

import math

import numpy as np
import pytest

from fiberphoton.errors import InvalidParameter
from fiberphoton.geometry import (
    _azimuths,
    channeling_efficiency,
    confinement_efficiency,
    confinement_efficiency_sampled,
    confinement_sweep,
    critical_offset,
    tir_area_fraction,
    wgm_mode_numbers,
)


class TestReferenceValues:
    def test_channeling_silica(self):
        assert channeling_efficiency(1.45) == pytest.approx(0.310345, abs=1e-4)

    def test_critical_offset_ratio(self):
        assert critical_offset(1.0, 1.45) == pytest.approx(0.689655, abs=1e-4)
        assert critical_offset(2.5, 1.45) / 2.5 == pytest.approx(0.689655, abs=1e-4)

    def test_tir_area_fraction(self):
        assert tir_area_fraction(1.45) == pytest.approx(0.524376, abs=1e-4)

    def test_wgm_modes_unit_radius(self):
        assert wgm_mode_numbers(1.0, 1.0, 1.45) == range(13, 19)

    def test_confinement_near_surface(self):
        assert confinement_efficiency(1.45, 0.9) == pytest.approx(0.4442, abs=5e-4)
        assert confinement_efficiency(1.45, 0.8) == pytest.approx(0.3385, abs=5e-4)

    def test_azimuthal_solutions_near_surface(self):
        phi_plus, phi_minus = _azimuths(1.45, 0.9)
        assert phi_plus == pytest.approx(0.1120, abs=5e-4)
        assert phi_minus == pytest.approx(1.5075, abs=5e-4)
        assert 0.0 <= phi_plus <= phi_minus <= math.pi


class TestSamplingOracle:
    def test_matches_closed_form_over_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = rng.uniform(1.1, 2.0)
            r = rng.uniform(0.0, 1.0)
            closed = confinement_efficiency(n, r)
            sampled = confinement_efficiency_sampled(n, r, num=200_000)
            assert abs(closed - sampled) < 1e-3

    def test_boundary_at_critical_offset(self):
        n = 1.45
        rc = 1.0 / n
        assert confinement_efficiency(n, rc - 1e-9) == 0.0
        assert confinement_efficiency(n, rc + 1e-9) < 1e-3

    def test_on_axis_and_surface(self):
        assert confinement_efficiency(1.45, 0.0) == 0.0
        # At the surface the TIR interval is widest: eta ~ 0.5155 for n=1.45.
        assert confinement_efficiency(1.45, 1.0) == pytest.approx(0.5155, abs=1e-3)

    def test_monotone_in_offset(self):
        n = 1.45
        ratios = np.linspace(0.0, 1.0, 1000)
        eta = np.array([confinement_efficiency(n, x) for x in ratios])
        assert np.all(np.diff(eta) >= -1e-12)


class TestSweeps:
    def test_confinement_sweep_shape(self):
        ratios, eta = confinement_sweep(1.45)
        assert ratios.size == eta.size == 101
        assert eta[0] == 0.0
        assert eta[-1] == pytest.approx(0.5155, abs=1e-3)

    def test_wgm_scale_invariance(self):
        m1 = wgm_mode_numbers(1.0, 1.0, 1.45)
        m2 = wgm_mode_numbers(2.5, 2.5, 1.45)
        assert m1 == m2

    def test_wgm_strict_inequalities(self):
        n = 1.45
        for a, wavelength in ((1.0, 1.0), (0.3, 0.8)):
            lo = 4.0 * math.pi * a / wavelength
            hi = lo * n
            modes = wgm_mode_numbers(a, wavelength, n)
            assert modes
            for m in modes:
                assert lo < m < hi
            assert list(modes) == [m for m in range(1, math.ceil(hi) + 1)
                                   if lo < m < hi]


class TestValidation:
    def test_invalid_geometry(self):
        """Each function refuses the inputs it reads: a or lambda not in
        (0, inf), n not in (1, inf), r/a not in [0, 1]."""
        with pytest.raises(InvalidParameter, match="core radius a"):
            wgm_mode_numbers(-1.0, 1.0, 1.45)
        with pytest.raises(InvalidParameter, match="core radius a"):
            critical_offset(0.0, 1.45)
        with pytest.raises(InvalidParameter, match="refractive index n"):
            tir_area_fraction(0.9)
        with pytest.raises(InvalidParameter, match="refractive index n"):
            critical_offset(1.0, 0.9)
        with pytest.raises(InvalidParameter, match="emitter offset r/a"):
            confinement_efficiency(1.45, 1.5)
        with pytest.raises(InvalidParameter, match="emitter offset r/a"):
            confinement_efficiency_sampled(1.45, -0.1)
        with pytest.raises(InvalidParameter, match="wavelength"):
            wgm_mode_numbers(1.0, 0.0, 1.45)
        with pytest.raises(InvalidParameter, match="a = 1e\\+300 and wavelength"):
            wgm_mode_numbers(1e300, 1e-10, 1.45)
        with pytest.raises(InvalidParameter, match="refractive index n"):
            confinement_sweep(1.0)

    def test_channeling_requires_index_above_one(self):
        with pytest.raises(InvalidParameter):
            channeling_efficiency(1.0)

    def test_no_solutions_below_critical_offset(self):
        assert _azimuths(1.45, 0.5) is None
        assert _azimuths(1.45, 0.0) is None
