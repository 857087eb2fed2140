"""Stochastic photon-stream generator: determinism and statistical checks."""

import math

import numpy as np
import pytest

from fiberphoton.emitter import EmitterParams, PulseParams
from fiberphoton.errors import InvalidParameter
from fiberphoton.fit import SaturationParams
from fiberphoton.sim import (
    SimConfig,
    _pulse_hazard_remaining,
    _pulse_invert_hazard,
    detect_hbt,
    pump_for_intensity_curve,
    simulate_emission,
    simulate_streams,
)


# Test oracle: the plain pulsed event loop, with no handoff to the vectorized
# pass, so it is exact by construction for any gamma.
def _pulsed_emissions_sequential(p: EmitterParams, pulse: PulseParams, shape: str,
                                 duration: float,
                                 rng: np.random.Generator) -> np.ndarray:
    """General event loop for pulsed pumping, exact for any gamma.

    Each pump wait inverts the periodic integrated hazard in closed form, so
    idle stretches between pulses cost nothing; suitable when the emission
    count is modest (slow gamma) where the fast path does not apply.
    """
    if p.gamma == 0:
        return np.empty(0)
    h_full = float(_pulse_hazard_remaining(0.0, p.w_p, pulse, shape))
    if h_full <= 0:
        return np.empty(0)
    out = []
    t = 0.0
    excited = p.rho_e0 > 0 and rng.random() < p.rho_e0
    while t <= duration:
        if not excited:
            e = rng.exponential(1.0)
            phase = t % pulse.period
            h0 = float(_pulse_hazard_remaining(phase, p.w_p, pulse, shape))
            if e < h0:
                t_exc = float(_pulse_invert_hazard(phase, e, p.w_p, pulse, shape))
                t = t - phase + t_exc
            else:
                e -= h0
                skip = math.floor(e / h_full)
                e -= skip * h_full
                t = t - phase + (skip + 1) * pulse.period
                t += float(_pulse_invert_hazard(0.0, e, p.w_p, pulse, shape))
            if t > duration:
                break
        t += rng.exponential(1.0 / p.gamma)
        excited = False
        if t <= duration:
            out.append(t)
    return np.asarray(out)


def cw_config(w_p=0.01, gamma=0.02, duration=1e6, seed=0, **kw):
    return SimConfig(emitter=EmitterParams(w_p=w_p, gamma=gamma),
                     duration=duration, seed=seed, **kw)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a1, a2 = simulate_streams(cw_config(seed=5)), simulate_streams(cw_config(seed=5))
        for s, t in zip(a1, a2):
            assert np.array_equal(s.times, t.times)

    def test_different_seed_differs(self):
        a = simulate_streams(cw_config(seed=5))
        b = simulate_streams(cw_config(seed=6))
        assert not np.array_equal(a[0].times, b[0].times)

    def test_pulsed_deterministic(self):
        cfg = SimConfig(emitter=EmitterParams(w_p=1.0, gamma=2.0),
                        pulse=PulseParams(tau_o=6.0, period=100.0),
                        duration=1e6, seed=9)
        assert np.array_equal(simulate_emission(cfg), simulate_emission(cfg))


class TestCwStatistics:
    def test_emission_rate_matches_renewal_mean(self):
        # Mean cycle = 1/w_p + 1/gamma, so the rate is w_p*gamma/(w_p+gamma).
        cfg = cw_config(w_p=0.01, gamma=0.02, duration=5e6, seed=1)
        em = simulate_emission(cfg)
        expected = 0.01 * 0.02 / 0.03
        n_exp = expected * cfg.duration
        assert abs(em.size - n_exp) < 4.0 * np.sqrt(n_exp)

    def test_emissions_sorted_within_duration(self):
        em = simulate_emission(cw_config(seed=2))
        assert np.all(np.diff(em) > 0)
        assert em[0] >= 0 and em[-1] <= 1e6

    def test_zero_gamma_never_emits(self):
        cfg = cw_config(gamma=0.0, seed=3)
        assert simulate_emission(cfg).size == 0

    def test_antibunching_in_waiting_times(self):
        # Successive cw emissions are separated by at least an Exp(w_p) pump
        # wait, so short gaps are suppressed relative to Poisson.
        cfg = cw_config(w_p=0.01, gamma=0.5, duration=2e6, seed=4)
        em = simulate_emission(cfg)
        gaps = np.diff(em)
        # Poisson light at the same mean rate would put ~0.97% of gaps below
        # 1 ns; the emitter must complete a pump + decay cycle first and sits
        # around 0.2% there.
        frac_short = np.mean(gaps < 1.0)
        poisson_frac = 1.0 - np.exp(-1.0 / gaps.mean())
        assert frac_short < 0.5 * poisson_frac


def _segment_counts(times, duration, edges, n_segments=50):
    """Emissions per time segment with in-pulse phase below each edge.

    Rows are segments and columns are edges.  The process regenerates at
    every pulse boundary crossed in the ground state, so segments far longer
    than a cycle give nearly independent rows (batch means).
    """
    segment = np.minimum((times / duration * n_segments).astype(int),
                         n_segments - 1)
    below = (times % 100.0)[:, None] < edges[None, :]
    return np.array([below[segment == k].sum(axis=0) for k in range(n_segments)])


class TestPulsedSamplers:
    @pytest.mark.parametrize("w_p, gamma, shape, duration", [
        (0.5, 0.005, "exponential", 5e6),
        (0.2, 0.03, "exponential", 5e6),
        (0.08, 0.15, "exponential", 1.5e7),
        (1.3, 2.0, "exponential", 1e6),
        (0.3, 0.05, "rectangular", 5e6),
    ], ids=["gp0.5", "gp3", "gp15", "gp200", "rect-gp5"])
    @pytest.mark.parametrize("handoff", [None, 0], ids=["default", "handoff0"])
    def test_matches_event_loop_oracle(self, w_p, gamma, shape, duration, handoff,
                                       monkeypatch):
        # simulate_emission against the plain event loop on independent
        # seeds: the emission count and the count below each pooled phase
        # quantile agree within 5 sigma, sigma from batch means.  Handoff 0
        # starts the vectorized pass at every ground-state boundary, so its
        # cut at spill-overs is exercised in every regime.
        if handoff is not None:
            monkeypatch.setattr("fiberphoton.sim._HANDOFF", handoff)
        p = EmitterParams(w_p=w_p, gamma=gamma)
        pulse = PulseParams(tau_o=6.0, period=100.0)
        oracle = _pulsed_emissions_sequential(p, pulse, shape, duration,
                                              np.random.default_rng(1000))
        em = simulate_emission(SimConfig(emitter=p, pulse=pulse, duration=duration,
                                         seed=2000, pulse_shape=shape))
        assert np.all(np.diff(em) > 0) and em[-1] <= duration
        edges = np.append(np.quantile(np.concatenate([oracle, em]) % 100.0,
                                      [0.1, 0.25, 0.5, 0.75, 0.9]), np.inf)
        a = _segment_counts(oracle, duration, edges)
        b = _segment_counts(em, duration, edges)
        sigma = np.sqrt(a.shape[0] * (a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)))
        assert np.all(np.abs(a.sum(axis=0) - b.sum(axis=0)) < 5.0 * sigma)

    def test_initial_excitation_emits_first(self):
        # rho_e0 = 1 starts every run excited: the first emission follows a
        # plain Exp(gamma) decay from t = 0, long before the weak pump acts.
        firsts = []
        for seed in range(200):
            cfg = SimConfig(emitter=EmitterParams(w_p=1e-3, gamma=2.0, rho_e0=1.0),
                            pulse=PulseParams(tau_o=6.0, period=100.0),
                            duration=50.0, seed=seed)
            em = simulate_emission(cfg)
            assert em.size >= 1
            firsts.append(em[0])
        assert abs(np.mean(firsts) - 0.5) < 5.0 * 0.5 / np.sqrt(200)

    @pytest.mark.parametrize("handoff", [None, 0], ids=["default", "handoff0"])
    def test_last_partial_pulse_is_pumped(self, handoff, monkeypatch):
        # 150 ns holds one full pulse and the first half of the next, which
        # contains nearly all of its pump hazard: twice the 100-ns count.
        # Handoff 0 leaves the partial pulse to the vectorized pass.
        if handoff is not None:
            monkeypatch.setattr("fiberphoton.sim._HANDOFF", handoff)

        def mean_count(duration, seeds):
            p = EmitterParams(w_p=1.3, gamma=2.0)
            counts = [simulate_emission(SimConfig(
                emitter=p, pulse=PulseParams(tau_o=6.0, period=100.0),
                duration=duration, seed=seed)).size for seed in seeds]
            return np.mean(counts), np.std(counts) / np.sqrt(len(counts))

        one, se_one = mean_count(100.0, range(2000))
        two, se_two = mean_count(150.0, range(2000, 4000))
        assert abs(two - 2.0 * one) < 5.0 * np.hypot(se_two, 2.0 * se_one)

    def test_emissions_cluster_after_pulse(self):
        cfg = SimConfig(emitter=EmitterParams(w_p=1.0, gamma=2.0),
                        pulse=PulseParams(tau_o=6.0, period=100.0),
                        duration=1e6, seed=11)
        em = simulate_emission(cfg)
        phase = em % 100.0
        assert np.mean(phase < 20.0) > 0.95

    def test_rectangular_pulse_bounded_phase(self):
        # With a rectangular pulse and fast decay, excitation happens only
        # inside [0, tau_o); emission trails by ~1/gamma.
        cfg = SimConfig(emitter=EmitterParams(w_p=1.0, gamma=5.0),
                        pulse=PulseParams(tau_o=6.0, period=100.0),
                        duration=1e6, seed=12, pulse_shape="rectangular")
        em = simulate_emission(cfg)
        phase = em % 100.0
        assert np.mean(phase < 6.0 + 5.0 / 5.0) > 0.99

    def test_mean_occupancy_matches_first_excitation_probability(self):
        # With a 0.02-ns decay the reset is instant, so excitations form a
        # Poisson process of total hazard w_p*tau_o/2 per exponential pulse:
        # a pulse holds at least one emission with probability
        # 1 - exp(-w_p*tau_o/2), and w_p*tau_o/2 emissions on average.
        w_p, tau_o = 0.06, 6.0
        cfg = SimConfig(emitter=EmitterParams(w_p=w_p, gamma=50.0),
                        pulse=PulseParams(tau_o=tau_o, period=100.0),
                        duration=2e7, seed=13)
        em = simulate_emission(cfg)
        n_pulses = cfg.duration / 100.0
        hazard = w_p * tau_o / 2.0
        p_first = 1.0 - np.exp(-hazard)
        occupied = np.unique((em // 100.0).astype(int)).size / n_pulses
        assert abs(occupied - p_first) < 5.0 * np.sqrt(p_first * (1 - p_first) / n_pulses)
        assert abs(em.size / n_pulses - hazard) < 5.0 * np.sqrt(hazard / n_pulses)


class TestDetectionChain:
    def test_unit_efficiency_conserves_events(self):
        cfg = cw_config(seed=21)
        em = simulate_emission(cfg)
        s1, s2 = detect_hbt(em, cfg)
        assert s1.times.size + s2.times.size == em.size

    def test_splitting_is_balanced(self):
        cfg = cw_config(w_p=0.05, gamma=0.1, duration=2e6, seed=22)
        em = simulate_emission(cfg)
        s1, s2 = detect_hbt(em, cfg)
        n = em.size
        assert abs(s1.times.size - n / 2) < 5.0 * np.sqrt(n / 4)

    def test_efficiency_thins_stream(self):
        cfg = cw_config(duration=2e6, seed=23, detection_efficiency=0.3)
        em = simulate_emission(cfg)
        s1, s2 = detect_hbt(em, cfg)
        kept = s1.times.size + s2.times.size
        assert abs(kept - 0.3 * em.size) < 5.0 * np.sqrt(0.3 * 0.7 * em.size)

    def test_dark_counts_poisson_mean(self):
        cfg = cw_config(w_p=1e-9, gamma=1e-9, duration=1e6, seed=24,
                        dark_rate_per_channel=1e-3)
        s1, s2 = detect_hbt(np.empty(0), cfg)
        for s in (s1, s2):
            assert abs(s.times.size - 1000.0) < 5.0 * np.sqrt(1000.0)

    def test_background_split_between_channels(self):
        cfg = cw_config(w_p=1e-9, gamma=1e-9, duration=1e6, seed=25,
                        background_rate=2e-3)
        s1, s2 = detect_hbt(np.empty(0), cfg)
        total = s1.times.size + s2.times.size
        assert abs(total - 2000.0) < 5.0 * np.sqrt(2000.0)

    def test_jitter_keeps_times_in_range_and_sorted(self):
        cfg = cw_config(duration=1e5, seed=26, jitter_sigma=0.3)
        s1, s2 = detect_hbt(simulate_emission(cfg), cfg)
        for s in (s1, s2):
            assert np.all(np.diff(s.times) > 0)
            assert s.times.size == 0 or (s.times[0] >= 0 and s.times[-1] <= 1e5)

    def test_dead_time_enforced(self):
        cfg = cw_config(w_p=0.5, gamma=1.0, duration=1e5, seed=27, dead_time=5.0)
        s1, s2 = detect_hbt(simulate_emission(cfg), cfg)
        for s in (s1, s2):
            if s.times.size > 1:
                assert np.min(np.diff(s.times)) >= 5.0

    def test_unsorted_emissions_rejected(self):
        cfg = cw_config(seed=28)
        with pytest.raises(InvalidParameter):
            detect_hbt(np.array([2.0, 1.0]), cfg)


class TestSaturationSweep:
    def test_closed_form_curve(self):
        sat = SaturationParams(A=1500.0, P_sat=0.54, beta=100.0)
        data = pump_for_intensity_curve([0.54], None, sat)
        power, intensity = data[0]
        assert intensity == pytest.approx(1500.0 / 2.0 + 100.0 * 0.54)

    def test_simulated_tracks_closed_form(self):
        gamma = 1e-4
        sat = SaturationParams(A=0.5 * gamma * 1e9, P_sat=0.54, beta=0.0)
        cfg = cw_config(w_p=1e-4, gamma=gamma, duration=5e7, seed=30)
        powers = [0.2, 0.54, 2.0]
        sim = pump_for_intensity_curve(powers, cfg, sat, mode="simulate")
        closed = pump_for_intensity_curve(powers, None, sat)
        for (p1, i_sim), (p2, i_cl) in zip(sim, closed):
            assert i_sim == pytest.approx(i_cl, rel=0.1)

    def test_invalid_inputs(self):
        sat = SaturationParams(A=1000.0, P_sat=0.5)
        with pytest.raises(InvalidParameter):
            pump_for_intensity_curve([0.0], None, sat)
        with pytest.raises(InvalidParameter):
            pump_for_intensity_curve([1.0], None, sat, mode="bogus")
        with pytest.raises(InvalidParameter):
            pump_for_intensity_curve([1.0], None, sat, mode="simulate")


class TestConfigValidation:
    def test_bad_config_fields(self):
        with pytest.raises(InvalidParameter):
            cw_config(duration=-1.0)
        with pytest.raises(InvalidParameter):
            cw_config(detection_efficiency=1.5)
        with pytest.raises(InvalidParameter):
            cw_config(dark_rate_per_channel=-1.0)
        with pytest.raises(InvalidParameter):
            cw_config(pulse_shape="triangle")
