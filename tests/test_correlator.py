"""Coincidence correlator against a brute-force all-pairs oracle."""

import numpy as np
import pytest

from fiberphoton.correlate import (
    CoincidenceHistogram,
    background_coincidence_rate,
    cross_correlate,
    integrate_peaks,
    make_edges,
    normalize_cw,
    normalize_pulsed,
)
from fiberphoton.emitter import BackgroundMix
from fiberphoton.errors import (
    DegenerateInput,
    InsufficientPeaks,
    InvalidParameter,
    UnsortedInput,
)
from fiberphoton.sim import TimestampStream


def stream(times, duration, channel=1):
    return TimestampStream(channel=channel, times=np.sort(np.asarray(times, float)),
                           duration=duration)


def random_pair(rng, duration=1000.0, n_max=300):
    t1 = np.unique(rng.uniform(0, duration, rng.integers(1, n_max)))
    t2 = np.unique(rng.uniform(0, duration, rng.integers(1, n_max)))
    return stream(t1, duration, 1), stream(t2, duration, 2)


def brute_force_counts(t1, t2, window, edges):
    """All-pairs delay histogram via an explicit outer difference."""
    delays = (t2[None, :] - t1[:, None]).ravel()
    delays = delays[np.abs(delays) <= window]
    counts, _ = np.histogram(delays, bins=edges)
    return counts.astype(np.int64)


class TestBruteForceOracle:
    def test_exact_equality_on_random_streams(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s1, s2 = random_pair(rng)
            window = float(rng.uniform(5.0, 100.0))
            bw = float(rng.choice([0.5, 1.0, 2.0]))
            h = cross_correlate(s1, s2, window=window, bin_width=bw)
            expected = brute_force_counts(s1.times, s2.times, window, h.bin_edges)
            assert np.array_equal(h.counts, expected)

    def test_mirror_symmetry_on_swap(self):
        rng = np.random.default_rng(23)
        s1, s2 = random_pair(rng)
        h12 = cross_correlate(s1, s2, window=50.0, bin_width=1.0)
        h21 = cross_correlate(s2, s1, window=50.0, bin_width=1.0)
        assert np.array_equal(h12.counts, h21.counts[::-1])

    def test_bin_doubling_conserves_counts(self):
        rng = np.random.default_rng(29)
        s1, s2 = random_pair(rng)
        fine = cross_correlate(s1, s2, window=64.0, bin_width=1.0)
        coarse = cross_correlate(s1, s2, window=64.0, bin_width=2.0)
        assert fine.total_pairs == coarse.total_pairs
        merged = fine.counts.reshape(-1, 2).sum(axis=1)
        assert np.array_equal(merged, coarse.counts)

    def test_chunk_count_is_invisible(self):
        rng = np.random.default_rng(31)
        t1 = np.unique(rng.uniform(0, 1e5, 20_000))
        t2 = np.unique(rng.uniform(0, 1e5, 20_000))
        s1, s2 = stream(t1, 1e5, 1), stream(t2, 1e5, 2)
        base = cross_correlate(s1, s2, window=100.0, bin_width=1.0, n_chunks=1)
        for n in (2, 3, 8, 17):
            h = cross_correlate(s1, s2, window=100.0, bin_width=1.0, n_chunks=n)
            assert np.array_equal(h.counts, base.counts)

    def test_empty_input_flagged(self):
        s1 = stream([], 100.0, 1)
        s2 = stream([1.0, 2.0], 100.0, 2)
        h = cross_correlate(s1, s2, window=10.0)
        assert h.total_pairs == 0
        assert np.all(h.counts == 0)
        assert "empty-input" in h.flags

    def test_duration_mismatch_rejected(self):
        s1 = stream([1.0], 100.0, 1)
        s2 = stream([1.0], 200.0, 2)
        with pytest.raises(InvalidParameter):
            cross_correlate(s1, s2, window=10.0)

    def test_unsorted_rejected(self):
        s1 = stream([1.0, 2.0], 100.0)
        s1.times = np.array([2.0, 1.0])
        s2 = stream([1.0], 100.0, 2)
        with pytest.raises(UnsortedInput):
            cross_correlate(s1, s2, window=10.0)


class TestNormalization:
    def test_poisson_flat_normalizes_to_one(self):
        rng = np.random.default_rng(41)
        T = 2e6
        r = 5e-3
        t1 = np.unique(rng.uniform(0, T, rng.poisson(r * T)))
        t2 = np.unique(rng.uniform(0, T, rng.poisson(r * T)))
        s1, s2 = stream(t1, T, 1), stream(t2, T, 2)
        h = cross_correlate(s1, s2, window=100.0, bin_width=1.0)
        hn = normalize_cw(h, s1.rate, s2.rate)
        pulls = (hn.norm - 1.0) / hn.norm_err
        assert np.mean(np.abs(pulls) <= 3.0) >= 0.99
        assert abs(np.mean(hn.norm) - 1.0) < 0.05

    def test_normalize_requires_positive_rates(self):
        h = CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(10, int), 0, 5.0, 1.0)
        with pytest.raises(DegenerateInput):
            normalize_cw(h, 0.0, 1.0)

    def test_zero_counts_low_statistics_flag(self):
        h = CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(10, int), 0, 5.0, 1.0)
        hn = normalize_cw(h, 1e-3, 1e-3)
        assert "low-statistics" in hn.flags
        assert np.all(hn.norm == 0)
        assert np.all(hn.norm_err > 0)

    def test_pulsed_normalization_requires_side_peaks(self):
        h = CoincidenceHistogram(make_edges(40.0, 1.0), np.ones(80, int), 80,
                                 40.0, 1e6)
        with pytest.raises(InsufficientPeaks):
            normalize_pulsed(h, period=100.0, tau_o=6.0,
                             signal_rates=(1e-3, 1e-3),
                             background_rates=(1e-4, 1e-4))

    def test_pulsed_floor_level(self):
        # Pure flat accidentals at the predicted floor should normalize to
        # 1 - rho^2 on average; add synthetic side peaks to set the scale.
        T = 1e6
        bw = 1.0
        r, b = 2e-3, 1e-3
        floor = ((r + b) ** 2 - r * r) * bw * T
        edges = make_edges(450.0, bw)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.full(centers.size, int(round(floor)))
        peak = 5000.0
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            counts = counts + np.round(
                peak * np.exp(-2.0 * np.abs(centers - 100.0 * k) / 6.0)
            ).astype(int)
        h = CoincidenceHistogram(edges, counts, int(counts.sum()), 450.0, T)
        hn = normalize_pulsed(h, period=100.0, tau_o=6.0,
                              signal_rates=(r, r), background_rates=(b, b))
        rho2 = (r * r) / ((r + b) ** 2)
        mid = np.abs(np.abs(centers) - 50.0) < 15.0
        assert np.mean(hn.norm[mid]) == pytest.approx(1.0 - rho2, abs=0.01)
        # The bin nearest a side peak normalizes to the mixed-envelope value
        # at its center (the apex itself falls between bins).
        apex = np.argmin(np.abs(centers - 100.0))
        expected = 1.0 - rho2 + rho2 * np.exp(-2.0 * abs(centers[apex] - 100.0) / 6.0)
        assert hn.norm[apex] == pytest.approx(expected, abs=0.05)


class TestPeakIntegration:
    def make_pulse_train(self, zero_height, side_height, bg=0.0):
        T = 1e6
        edges = make_edges(450.0, 1.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.full(centers.size, int(bg))
        for k in range(-4, 5):
            height = zero_height if k == 0 else side_height
            counts = counts + np.round(
                height * np.exp(-2.0 * np.abs(centers - 100.0 * k) / 6.0)
            ).astype(int)
        return CoincidenceHistogram(edges, counts, int(counts.sum()), 450.0, T)

    def test_ratio_recovered(self):
        h = self.make_pulse_train(zero_height=310.0, side_height=1000.0)
        pk = integrate_peaks(h, period=100.0, peak_halfwidth=17.5)
        assert pk.g2_int == pytest.approx(0.31, abs=0.01)
        assert pk.zero_peak_sum < min(pk.side_peak_sums)

    def test_background_subtraction(self):
        bg = 50
        h = self.make_pulse_train(zero_height=310.0, side_height=1000.0, bg=bg)
        naive = integrate_peaks(h, period=100.0, peak_halfwidth=17.5)
        corrected = integrate_peaks(h, period=100.0, peak_halfwidth=17.5,
                                    background_per_bin=bg)
        assert corrected.g2_int == pytest.approx(0.31, abs=0.01)
        assert naive.g2_int > corrected.g2_int

    def test_window_must_hold_side_peaks(self):
        edges = make_edges(40.0, 1.0)
        h = CoincidenceHistogram(edges, np.ones(edges.size - 1, int),
                                 edges.size - 1, 40.0, 1e6)
        with pytest.raises(InsufficientPeaks):
            integrate_peaks(h, period=100.0)

    def test_halfwidth_bounded_by_period(self):
        h = self.make_pulse_train(310.0, 1000.0)
        with pytest.raises(InvalidParameter):
            integrate_peaks(h, period=100.0, peak_halfwidth=60.0)


class TestHelpers:
    def test_make_edges_symmetric(self):
        edges = make_edges(10.0, 1.0)
        assert edges[0] == -10.0 and edges[-1] == 10.0
        assert np.allclose(edges, -edges[::-1])
        with pytest.raises(InvalidParameter):
            make_edges(-1.0, 1.0)

    def test_background_coincidence_rate(self):
        # r_tot^2 - r_em^2 cross terms.
        val = background_coincidence_rate(2e-3, 1e-3, 1.0, 1e6)
        assert val == pytest.approx(((3e-3) ** 2 - (2e-3) ** 2) * 1e6)
        with pytest.raises(InvalidParameter):
            background_coincidence_rate(-1.0, 0.0, 1.0, 1.0)

    def test_intensity_ratio(self):
        mix = BackgroundMix.from_intensities(1500.0, 150.0)
        assert mix.rho == pytest.approx(1500.0 / 1650.0)

    def test_histogram_validation(self):
        with pytest.raises(InvalidParameter):
            CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(5, int), 0, 5.0, 1.0)
        bad_edges = np.array([0.0, 1.0, 3.0])
        with pytest.raises(InvalidParameter):
            CoincidenceHistogram(bad_edges, np.zeros(2, int), 0, 3.0, 1.0)
