"""Stochastic photon-stream generator: determinism and statistical checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberphoton.emitter import (
    EmitterParams,
    PulseParams,
    _pulse_hazard_remaining,
    _pulse_invert_hazard,
    pulse_envelope,
    saturation_model,
)
from fiberphoton import sim
from fiberphoton.errors import InvalidParameter
from fiberphoton.sim import (
    SimConfig,
    _apply_dead_time,
    _rng_children,
    detect_hbt,
    simulate_emission,
    simulate_streams,
)


# Test oracle: the plain pulsed event loop, which follows the emitter event by
# event, so it is exact by construction for any gamma.
def _pulsed_emissions_sequential(p: EmitterParams, pulse: PulseParams,
                                 duration: float,
                                 rng: np.random.Generator) -> np.ndarray:
    """General event loop for pulsed pumping from the ground state.

    Each pump wait inverts the periodic integrated hazard in closed form, so
    idle stretches between pulses cost nothing.
    """
    if p.gamma == 0:
        return np.empty(0)
    h_full = float(_pulse_hazard_remaining(1.0, p.w_p, pulse))
    if h_full <= 0:
        return np.empty(0)
    out = []
    t = 0.0
    while t <= duration:
        e = rng.exponential(1.0)
        phase = t % pulse.period
        u = pulse_envelope(phase, pulse.tau_o)
        h0 = float(_pulse_hazard_remaining(u, p.w_p, pulse))
        if e < h0:
            t_exc = float(_pulse_invert_hazard(u, e, p.w_p, pulse))
            t = t - phase + t_exc
        else:
            e -= h0
            skip = math.floor(e / h_full)
            e -= skip * h_full
            t = t - phase + (skip + 1) * pulse.period
            t += float(_pulse_invert_hazard(1.0, e, p.w_p, pulse))
        if t > duration:
            break
        t += rng.exponential(1.0 / p.gamma)
        if t <= duration:
            out.append(t)
    return np.asarray(out)


# Test oracle: the detection chain with one whole-array draw and one copy per
# step.  detect_hbt draws in chunks into per-channel buffers and must give the
# same bytes.
def _detect_hbt_reference(emissions: np.ndarray, cfg: SimConfig):
    _, det_rng, ch1_rng, ch2_rng, jit_rng = _rng_children(cfg.seed, 5)
    kept = emissions[det_rng.random(emissions.size) < cfg.detection_efficiency]
    to_ch1 = det_rng.random(kept.size) < 0.5
    if cfg.jitter_sigma > 0 and kept.size:
        kept = kept + jit_rng.normal(0.0, cfg.jitter_sigma, kept.size)
    streams = []
    for rng, mine in ((ch1_rng, to_ch1), (ch2_rng, ~to_ch1)):
        times = kept[mine]
        extra_rate = cfg.background_per_channel
        if extra_rate > 0:
            n_extra = rng.poisson(extra_rate * cfg.duration)
            times = np.concatenate([times, rng.uniform(0.0, cfg.duration, n_extra)])
        times = np.sort(times[(times >= 0.0) & (times <= cfg.duration)])
        while times.size > 1:
            ties = np.flatnonzero(np.diff(times) <= 0)
            if ties.size == 0:
                break
            times[ties + 1] = np.nextafter(times[ties], np.inf)
        times = times[times <= cfg.duration]
        if cfg.dead_time > 0:
            times = _apply_dead_time(times, cfg.dead_time)
        streams.append(times)
    return streams


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

    @pytest.mark.parametrize("seed, count", [(59, 127), (285, 128)])
    def test_second_round_continues_the_first(self, seed, count):
        """At w_p 0.2, gamma 0.4 and 750 ns the first round draws
        int(750 / 7.5 * 1.1) + 16 = 126 cycles, and these seeds need more:
        the second round must start where the first one ended."""
        cfg = cw_config(w_p=0.2, gamma=0.4, duration=750.0, seed=seed)
        em = simulate_emission(cfg)
        assert em.size == count
        assert np.all(np.diff(em) > 0)
        assert em[0] >= 0 and em[-1] <= 750.0
        assert em.tobytes() == simulate_emission(cfg).tobytes()
        s1, s2 = detect_hbt(em, cfg)
        assert s1.times.size + s2.times.size > 0

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


def _segment_counts(times, duration, phase_edges, gap_edges, period,
                    n_segments=50):
    """Emissions per time segment with in-pulse phase below each phase edge,
    and with the wait to the next emission below each gap edge.

    Rows are segments and columns are edges.  The process regenerates at
    every pulse boundary crossed in the ground state, so segments far longer
    than a cycle give nearly independent rows (batch means).
    """
    segment = np.minimum((times / duration * n_segments).astype(int),
                         n_segments - 1)
    gaps = np.append(np.diff(times), np.inf)
    below = np.hstack([(times % period)[:, None] < phase_edges[None, :],
                       gaps[:, None] < gap_edges[None, :]])
    return np.array([below[segment == k].sum(axis=0) for k in range(n_segments)])


class TestPulsedSamplers:
    @pytest.mark.parametrize("w_p, gamma, tau_o, period, duration", [
        (0.2, 0.002, 6.0, 100.0, 5e6),
        (0.5, 0.005, 6.0, 100.0, 5e6),
        (0.2, 0.03, 6.0, 100.0, 5e6),
        (0.08, 0.15, 6.0, 100.0, 1.5e7),
        (1.3, 2.0, 6.0, 100.0, 1e6),
        (0.1, 0.05, 40.0, 50.0, 2e6),
    ], ids=["gp0.2", "gp0.5", "gp3", "gp15", "gp200", "tau40"])
    def test_matches_event_loop_oracle(self, w_p, gamma, tau_o, period, duration):
        # simulate_emission against the plain event loop on independent
        # seeds: the emission count and the counts below each pooled phase
        # and gap quantile agree within 5 sigma, sigma from batch means.  At
        # gamma * period <= 0.5 most decays spill into later pulses; at tau_o
        # 40 and period 50 the pump is still on when a pulse ends.
        p = EmitterParams(w_p=w_p, gamma=gamma)
        pulse = PulseParams(tau_o=tau_o, period=period)
        oracle = _pulsed_emissions_sequential(p, pulse, duration,
                                              np.random.default_rng(1000))
        em = simulate_emission(SimConfig(emitter=p, pulse=pulse, duration=duration,
                                         seed=2000))
        assert np.all(np.diff(em) > 0) and em[-1] <= duration
        levels = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9]
        phase_edges = np.append(np.quantile(
            np.concatenate([oracle, em]) % period, levels), np.inf)
        gap_edges = np.quantile(np.concatenate([np.diff(oracle), np.diff(em)]),
                                levels)
        a = _segment_counts(oracle, duration, phase_edges, gap_edges, period)
        b = _segment_counts(em, duration, phase_edges, gap_edges, period)
        sigma = np.sqrt(a.shape[0] * (a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)))
        assert np.all(np.abs(a.sum(axis=0) - b.sum(axis=0)) < 5.0 * sigma)

    @settings(max_examples=150, deadline=None)
    @given(w_p=st.floats(1e-3, 3.0), gamma=st.floats(1e-3, 3.0),
           tau_o=st.floats(0.5, 15.0), period=st.floats(20.0, 200.0),
           duration=st.floats(1e2, 2e5), seed=st.integers(0, 2**32),
           block=st.sampled_from([1, 3, 64, sim._BLOCK]))
    @example(w_p=1.3, gamma=2.0, tau_o=6.0, period=100.0, duration=1e7, seed=0,
             block=sim._BLOCK)
    @example(w_p=0.08, gamma=0.15, tau_o=6.0, period=100.0, duration=1e7,
             seed=0, block=sim._BLOCK)
    @example(w_p=0.2, gamma=0.002, tau_o=6.0, period=100.0, duration=1e6,
             seed=0, block=1)
    def test_sorted_within_duration_and_reproducible(self, w_p, gamma, tau_o,
                                                     period, duration, seed,
                                                     block):
        """For any block size the emissions strictly increase, lie within
        [0, duration], and a re-run gives the same bytes.  Small blocks
        exercise buffer growth and segments whose extra pulses run past
        their block; the last example, with gamma * period 0.2 and one
        segment per block, does so for most emissions.  The other examples
        are criteria 5 and 6, shortened to 1e7 ns."""
        cfg = SimConfig(emitter=EmitterParams(w_p=w_p, gamma=gamma),
                        pulse=PulseParams(tau_o=tau_o, period=period),
                        duration=duration, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_BLOCK", block)
            em = simulate_emission(cfg)
            again = simulate_emission(cfg)
        assert np.all(em[1:] > em[:-1])
        assert em.size == 0 or (em[0] >= 0 and em[-1] <= duration)
        assert em.tobytes() == again.tobytes()

    def test_last_partial_pulse_is_pumped(self):
        # 150 ns holds one full pulse and the first half of the next, which
        # contains nearly all of its pump hazard: twice the 100-ns count.
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
        """Dark counts of 1e-3/ns per channel enter as background_rate 2e-3:
        each channel holds a Poisson number of events of mean 1000."""
        cfg = cw_config(w_p=1e-9, gamma=1e-9, duration=1e6, seed=24,
                        background_rate=2e-3)
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

    def test_tied_emissions_move_by_one_ulp(self):
        # Every emission twice, kept and unjittered: a channel that gets both
        # copies of a time holds it and the next float above it.
        base = np.arange(1.0, 501.0)
        s1, s2 = detect_hbt(np.repeat(base, 2), cw_config(duration=1e3, seed=23))
        for t in (s1.times, s2.times):
            assert np.all(np.diff(t) > 0)
            tied = np.flatnonzero(np.diff(np.round(t)) == 0)
            assert tied.size
            assert np.array_equal(t[tied + 1], np.nextafter(t[tied], np.inf))
            assert np.array_equal(np.delete(t, tied + 1),
                                  np.unique(np.round(t)))
        times = np.concatenate([s1.times, s2.times])
        assert np.array_equal(np.sort(np.round(times)), np.repeat(base, 2))

    def test_unsorted_emissions_rejected(self):
        cfg = cw_config(seed=28)
        with pytest.raises(InvalidParameter):
            detect_hbt(np.array([2.0, 1.0]), cfg)

    def test_emissions_outside_duration_dropped(self):
        """Given emissions below 0 or past the duration are dropped also
        with no jitter, not rejected."""
        s1, s2 = detect_hbt(np.array([-1.0, 5.0, 50.0, 150.0]),
                            cw_config(duration=100.0, seed=0))
        assert sorted(np.concatenate([s1.times, s2.times])) == [5.0, 50.0]

    @settings(max_examples=150, deadline=None)
    @given(emissions=st.lists(st.one_of(st.floats(-20.0, 220.0),
                                        st.integers(-5, 205).map(float)),
                              max_size=300),
           duration=st.sampled_from([100.0, 200.0]),
           efficiency=st.one_of(st.just(1.0), st.floats(0.05, 0.95)),
           jitter=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
           background=st.sampled_from([0.0, 0.1, 0.3]),
           dead_time=st.sampled_from([0.0, 2.0]),
           seed=st.integers(0, 2**32),
           chunk=st.sampled_from([1, 7, sim._CHUNK]))
    @example(emissions=[-1.0, 5.0, 50.0, 150.0], duration=100.0, efficiency=1.0,
             jitter=0.0, background=0.0, dead_time=0.0, seed=0,
             chunk=sim._CHUNK)
    @example(emissions=[0.0] * 8 + [100.0, 100.0], duration=100.0, efficiency=1.0,
             jitter=0.0, background=0.0, dead_time=0.0, seed=1,
             chunk=1)
    def test_same_bytes_as_whole_array_reference(
            self, emissions, duration, efficiency, jitter, background,
            dead_time, seed, chunk):
        """Both streams equal the reference's byte for byte, for any chunk
        size.  Integer times make exact ties; "+ 0.0" drops -0.0, whose
        order against 0.0 no sort fixes.  The second example ties two
        emissions at the duration, which the tie break must not push past
        it."""
        em = np.sort(np.array(emissions, dtype=float) + 0.0)
        cfg = cw_config(duration=duration, seed=seed,
                        detection_efficiency=efficiency, jitter_sigma=jitter,
                        background_rate=background, dead_time=dead_time)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CHUNK", chunk)
            streams = detect_hbt(em, cfg)
        for s, ref in zip(streams, _detect_hbt_reference(em, cfg)):
            assert s.times.tobytes() == ref.tobytes()


class TestMemory:
    @staticmethod
    def _emission_peak(cfg):
        tracemalloc.start()
        try:
            em = simulate_emission(cfg)
            return em, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peaks_are_fixed_multiples_of_the_output(self):
        """Emission peaks at its one output buffer, which holds the rest of
        the acquisition at the running rate once that rate is known, plus
        the arrays of one block's segments still running: at most 1.3 times
        its output at criterion 5 (seed 0), where most pulses are pumped,
        and 1.4 times at criterion 6, where the block's first draws weigh
        more against the few excited pulses.  Detection holds ~1.3 times its
        two streams beyond its input at criterion 5; one copy more of any
        fails."""
        pulse = PulseParams(tau_o=6.0, period=100.0)
        cfg = SimConfig(emitter=EmitterParams(w_p=1.3, gamma=2.0), pulse=pulse,
                        duration=1e8, seed=0)
        em, emit_peak = self._emission_peak(cfg)
        cfg = dataclasses.replace(
            cfg, background_rate=em.size / cfg.duration * 0.08 / 0.92)
        tracemalloc.start()
        try:
            s1, s2 = detect_hbt(em, cfg)
            detect_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert em.size > 3_000_000
        assert emit_peak <= 1.3 * em.nbytes
        assert detect_peak <= 1.5 * (s1.times.nbytes + s2.times.nbytes)
        del em, s1, s2
        em, emit_peak = self._emission_peak(SimConfig(
            emitter=EmitterParams(w_p=0.08, gamma=0.15), pulse=pulse,
            duration=2e8, seed=0))
        assert em.size > 400_000
        assert emit_peak <= 1.4 * em.nbytes

    @pytest.mark.parametrize("w_p, gamma, pulse, duration", [
        (1.3, 2.0, PulseParams(tau_o=6.0, period=100.0), 1e8),
        (0.08, 0.15, PulseParams(tau_o=6.0, period=100.0), 2e8),
        (0.2, 0.4, None, 1e6),
    ], ids=["criterion-5", "criterion-6", "cw"])
    def test_output_holds_no_reserve(self, w_p, gamma, pulse, duration):
        """The emissions own their memory, trimmed in place to their size,
        so no unused reserve of the sampler's buffer stays allocated."""
        em = simulate_emission(SimConfig(emitter=EmitterParams(w_p=w_p, gamma=gamma),
                                         pulse=pulse, duration=duration, seed=0))
        assert em.size > 0
        assert em.base is None and em.nbytes == 8 * em.size

    @pytest.mark.parametrize("pulse", [None, PulseParams(tau_o=6.0, period=100.0)],
                             ids=["cw", "pulsed"])
    def test_acquisition_beyond_physical_memory_refused(self, pulse):
        cfg = SimConfig(emitter=EmitterParams(w_p=0.2, gamma=0.4),
                        duration=1e20, seed=1, pulse=pulse)
        with pytest.raises(InvalidParameter, match="physical memory"):
            simulate_emission(cfg)

    def test_long_lifetime_pulsed_acquisition_simulates(self):
        """A decay of ~1e6 ns lets ~1e5 emissions into 1e11 ns, far below
        the 1.5e9 units of pump hazard in its 1e9 pulses, so the memory check
        passes and the sampler skips the long decays whole."""
        em = simulate_emission(SimConfig(
            emitter=EmitterParams(w_p=0.5, gamma=1e-6),
            pulse=PulseParams(tau_o=6.0, period=100.0), duration=1e11, seed=0))
        assert abs(em.size - 1e5) < 5.0 * math.sqrt(1e5)
        assert np.all(em[1:] > em[:-1]) and em[-1] <= 1e11

    def test_dark_events_beyond_physical_memory_refused(self, monkeypatch):
        # ~2e12 background (dark-count) events: refused before any generator
        # is made, so before any draw, both for given emissions and for the
        # whole acquisition with its ~5e5 emissions.
        cfg = SimConfig(emitter=EmitterParams(w_p=1e-9, gamma=1e-9),
                        duration=1e15, seed=1, background_rate=2e-3)
        made = []
        monkeypatch.setattr("fiberphoton.sim._rng_children",
                            lambda *a: made.append(a))
        with pytest.raises(InvalidParameter, match="physical memory"):
            detect_hbt(np.empty(0), cfg)
        with pytest.raises(InvalidParameter, match="physical memory"):
            simulate_streams(cfg)
        assert made == []


class TestSaturationSweep:
    def test_closed_form_curve(self):
        intensity = saturation_model(0.54, 1500.0, 0.54, 100.0)
        assert intensity == pytest.approx(1500.0 / 2.0 + 100.0 * 0.54)

    def test_simulated_tracks_closed_form(self):
        """Pumped at w_p = gamma * P / P_sat, the detected count rate follows
        the saturation law of plateau A = efficiency * gamma (in counts/s)."""
        gamma, A, P_sat = 1e-4, 0.5e5, 0.54
        powers = [0.2, 0.54, 2.0]
        for i, power in enumerate(powers):
            s1, s2 = simulate_streams(cw_config(
                w_p=gamma * power / P_sat, gamma=gamma, duration=5e7,
                seed=30 + i, detection_efficiency=A / (gamma * 1e9)))
            rate_cps = (s1.times.size + s2.times.size) / 5e7 * 1e9
            assert rate_cps == pytest.approx(
                saturation_model(power, A, P_sat, 0.0), rel=0.1)


class TestConfigValidation:
    def test_bad_config_fields(self):
        with pytest.raises(InvalidParameter):
            cw_config(duration=-1.0)
        with pytest.raises(InvalidParameter):
            cw_config(detection_efficiency=1.5)
        with pytest.raises(InvalidParameter):
            cw_config(background_rate=-1.0)
        with pytest.raises(InvalidParameter, match="shape"):
            SimConfig.from_dict({"emitter": {"w_p": 0.01}, "duration": 1e6,
                                 "seed": 3, "pulse": {"tau_o": 6.0, "period": 100.0,
                                                      "shape": "exponential"}})

    def test_nonzero_g2_0_rejected(self):
        """The simulator draws one ideal emitter and would ignore g2_0."""
        with pytest.raises(InvalidParameter, match="g2_0"):
            SimConfig(emitter=EmitterParams(w_p=0.01, gamma=0.02, g2_0=0.8),
                      duration=1e6, seed=3)
        with pytest.raises(InvalidParameter, match="g2_0"):
            SimConfig.from_dict({"emitter": {"w_p": 0.01, "g2_0": 0.1},
                                 "duration": 1e6, "seed": 3})

    def test_background_per_channel(self):
        cfg = cw_config(background_rate=1.5)
        assert cfg.background_per_channel == 0.75
