"""Closed-form emitter model against independent numerical oracles."""

import numpy as np
import pytest
from conftest import trapezoid

from fiberphoton.emitter import (
    EmitterParams,
    PulseParams,
    excited_population,
    g2_background_mixed,
    g2_cw,
    g2_cw_reduced,
    g2_integrated_zero,
    g2_pulsed,
    pump_rate_from_integrated,
)
from fiberphoton.errors import DegenerateInput, InvalidParameter


def rk4_population(w_p, gamma, t_end, n_steps=4000):
    """Fixed-step RK4 integration of drho/dt = w_p (1 - rho) - gamma rho from
    rho = 0."""

    def f(rho):
        return w_p * (1.0 - rho) - gamma * rho

    h = t_end / n_steps
    rho = 0.0
    for _ in range(n_steps):
        k1 = f(rho)
        k2 = f(rho + 0.5 * h * k1)
        k3 = f(rho + 0.5 * h * k2)
        k4 = f(rho + h * k3)
        rho += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


class TestExcitedPopulation:
    def test_matches_rk4_over_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w_p = rng.uniform(0.01, 2.0)
            gamma = rng.uniform(0.01, 2.0)
            t = rng.uniform(0.1, 20.0)
            p = EmitterParams(w_p=w_p, gamma=gamma)
            closed = excited_population(p, t)
            numeric = rk4_population(w_p, gamma, t)
            assert abs(closed - numeric) < 1e-6

    def test_initial_value_and_steady_state(self):
        p = EmitterParams(w_p=0.5, gamma=0.25)
        assert excited_population(p, 0.0) == 0.0
        assert excited_population(p, 1e4) == pytest.approx(p.steady_state, abs=1e-12)
        assert p.steady_state == pytest.approx(0.5 / 0.75)

    def test_vectorized_matches_scalar(self):
        p = EmitterParams(w_p=0.5, gamma=1e-6)
        taus = np.linspace(0.0, 10.0, 7)
        vec = excited_population(p, taus)
        assert vec.shape == taus.shape
        for t, v in zip(taus, vec):
            assert excited_population(p, float(t)) == pytest.approx(v, abs=0)

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidParameter):
            excited_population(EmitterParams(w_p=0.5), -1.0)


class TestG2Curves:
    def test_cw_dip_limits(self):
        p = EmitterParams(w_p=0.5, gamma=0.1, g2_0=0.05)
        assert g2_cw(p, 0.0) == pytest.approx(0.05, abs=1e-15)
        assert g2_cw(p, 1e5) == pytest.approx(1.0, abs=1e-12)

    def test_cw_even_in_tau(self):
        p = EmitterParams(w_p=0.3, gamma=0.2)
        taus = np.linspace(0.1, 30.0, 50)
        assert np.allclose(g2_cw(p, taus), g2_cw(p, -taus), atol=0)

    def test_reduced_model_is_cw_with_gamma_zero(self):
        taus = np.linspace(0.0, 40.0, 100)
        p = EmitterParams(w_p=0.4, gamma=0.0, g2_0=0.1)
        assert np.allclose(g2_cw(p, taus), g2_cw_reduced(0.1, 0.4, taus), atol=1e-15)

    def test_pulsed_zero_delay_equals_g2_0(self):
        p = EmitterParams(w_p=0.3, g2_0=0.07)
        pulse = PulseParams(tau_o=6.0, period=100.0)
        assert g2_pulsed(p, pulse, 0.0) == pytest.approx(0.07, abs=1e-15)

    def test_pulsed_envelope_decay(self):
        p = EmitterParams(w_p=50.0, g2_0=0.0)
        pulse = PulseParams(tau_o=6.0, period=100.0)
        # Far from the dip the curve reduces to the bare envelope.
        tau = 12.0
        assert g2_pulsed(p, pulse, tau) == pytest.approx(np.exp(-2 * tau / 6.0),
                                                         rel=1e-9)

    def test_pulsed_rejects_negative_tau(self):
        with pytest.raises(InvalidParameter):
            g2_pulsed(EmitterParams(w_p=0.3), PulseParams(6.0, 100.0), -0.1)


class TestBackgroundMixing:
    def test_poisson_limit(self):
        assert g2_background_mixed(0.0, 0.0) == pytest.approx(1.0, abs=0)

    def test_pure_emitter_limit(self):
        assert g2_background_mixed(0.37, 1.0) == pytest.approx(0.37, abs=0)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = rng.uniform(0.05, 1.0)
            g2 = rng.uniform(0.0, 1.5)
            mixed = g2_background_mixed(g2, rho)
            assert abs((mixed - 1.0 + rho**2) / rho**2 - g2) < 1e-12


class TestIntegratedZero:
    def numeric_g2_int(self, p, pulse):
        """Ratio of envelope-weighted pulsed g2 integral to the bare envelope
        integral, on a dense grid — independent of the closed form."""
        tau = np.linspace(0.0, 40.0 * pulse.tau_o, 400_001)
        num = trapezoid(g2_pulsed(p, pulse, tau), tau)
        den = trapezoid(np.exp(-2.0 * tau / pulse.tau_o), tau)
        return num / den

    def test_matches_numerical_integration(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w_p = rng.uniform(0.01, 1.0)
            g2_0 = rng.uniform(0.0, 0.5)
            tau_o = rng.uniform(2.0, 10.0)
            p = EmitterParams(w_p=w_p, g2_0=g2_0)
            pulse = PulseParams(tau_o=tau_o, period=100.0 * tau_o)
            closed = g2_integrated_zero(p, pulse)
            assert abs(closed - self.numeric_g2_int(p, pulse)) < 1e-3

    def test_reference_inversion_value(self):
        # g2_int = 0.31, g2_0 = 0.1, tau_o = 6 ns -> dip width 19.7 ns.
        width = pump_rate_from_integrated(0.31, 0.1, 6.0)
        assert width == pytest.approx(19.714, abs=0.01)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w_p = rng.uniform(0.01, 1.0)
            g2_0 = rng.uniform(0.0, 0.5)
            tau_o = rng.uniform(2.0, 10.0)
            p = EmitterParams(w_p=w_p, g2_0=g2_0)
            pulse = PulseParams(tau_o=tau_o, period=20.0 * tau_o)
            g2i = g2_integrated_zero(p, pulse)
            width = pump_rate_from_integrated(g2i, g2_0, tau_o)
            assert abs(width - 2.0 / w_p) < 1e-9 * max(1.0, 2.0 / w_p)

    def test_degenerate_inversion(self):
        with pytest.raises(DegenerateInput):
            pump_rate_from_integrated(0.1, 0.1, 6.0)
        with pytest.raises(InvalidParameter):
            pump_rate_from_integrated(0.3, 0.1, -1.0)


class TestValidation:
    def test_emitter_params(self):
        with pytest.raises(InvalidParameter):
            EmitterParams(w_p=0.0)
        with pytest.raises(InvalidParameter):
            EmitterParams(w_p=0.1, gamma=-1.0)
        with pytest.raises(InvalidParameter):
            EmitterParams(w_p=0.1, g2_0=1.5)

    def test_pulse_params(self):
        with pytest.raises(InvalidParameter):
            PulseParams(tau_o=0.0, period=100.0)
        with pytest.raises(InvalidParameter):
            PulseParams(tau_o=6.0, period=5.0)

    def test_background_mix(self):
        with pytest.raises(InvalidParameter):
            g2_background_mixed(0.5, 1.2)
