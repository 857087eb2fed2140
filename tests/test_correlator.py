"""Coincidence correlator against a brute-force all-pairs oracle."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberphoton import correlate
from fiberphoton import io as fio
from fiberphoton.correlate import (
    CoincidenceHistogram,
    background_coincidence_rate,
    check_peaks,
    cross_correlate,
    integrate_peaks,
    make_edges,
    normalize_cw,
    normalize_pulsed,
)
from fiberphoton.errors import (
    DegenerateInput,
    InsufficientPeaks,
    InvalidParameter,
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


def peak_masks(edges, ks, period, peak_halfwidth):
    """{k: bin mask} of the peaks k*period +- peak_halfwidth, k in ks, by the
    rule that a bin is in a peak when its centre is."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    return {k: np.abs(centers - k * period) <= peak_halfwidth for k in ks}


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

    def test_chunk_count_is_invisible(self, monkeypatch):
        """n_chunks caps the threads that sweep the start blocks; the counts
        do not depend on it."""
        monkeypatch.setattr(correlate.os, "cpu_count", lambda: 32)
        monkeypatch.setattr(correlate, "_START_BLOCK", 1000)
        rng = np.random.default_rng(31)
        t1 = np.unique(rng.uniform(0, 1e5, 20_000))
        t2 = np.unique(rng.uniform(0, 1e5, 20_000))
        s1, s2 = stream(t1, 1e5, 1), stream(t2, 1e5, 2)
        base = cross_correlate(s1, s2, window=100.0, bin_width=1.0, n_chunks=1)
        for n in (2, 3, 8, 17, None):
            h = cross_correlate(s1, s2, window=100.0, bin_width=1.0, n_chunks=n)
            assert np.array_equal(h.counts, base.counts)

    @pytest.mark.parametrize("block", [1, 3, 64, correlate._PAIR_BLOCK])
    @settings(max_examples=60, deadline=None)
    @given(t1=st.lists(st.integers(0, 4000), unique=True, max_size=40),
           t2=st.lists(st.integers(0, 4000), unique=True, max_size=80),
           window=st.floats(0.5, 60.0), bin_width=st.floats(0.1, 8.0),
           start_block=st.sampled_from([1, 3, 64, correlate._START_BLOCK]),
           cpus=st.sampled_from([1, 2, 3]))
    # Each start owns 240 pairs, more than the small budgets hold.
    @example(t1=[1000, 2500], t2=list(range(0, 4000, 4)), window=60.0,
             bin_width=4.0, start_block=1, cpus=2)
    @example(t1=[1000, 2500], t2=list(range(0, 4000, 4)), window=60.0,
             bin_width=4.0, start_block=64, cpus=3)
    # Delays -3, -1, 0, 1, 3 ns: on edges, both outermost edges included.
    @example(t1=[1000], t2=[976, 992, 1000, 1008, 1024], window=3.0,
             bin_width=1.0, start_block=1, cpus=1)
    # Start blocks of three whose pair slices of t2 meet at delays on edges.
    @example(t1=[968, 976, 992, 1000, 1008, 1024, 1032],
             t2=list(range(936, 1072, 8)), window=4.0, bin_width=1.0,
             start_block=3, cpus=3)
    def test_block_size_is_invisible(self, block, t1, t2, window, bin_width,
                                     start_block, cpus):
        """Any pair budget, start block and core count gives the brute-force
        counts and those of one thread at the default blocks.  Times are
        multiples of 1/8 ns, so many delays fall exactly on bin edges."""
        assume(1.0 <= window / bin_width <= 400)
        s1 = stream(np.asarray(t1, float) / 8, 500.0, 1)
        s2 = stream(np.asarray(t2, float) / 8, 500.0, 2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlate, "_PAIR_BLOCK", block)
            mp.setattr(correlate, "_START_BLOCK", start_block)
            mp.setattr(correlate.os, "cpu_count", lambda: cpus)
            h = cross_correlate(s1, s2, window=window, bin_width=bin_width)
        expected = brute_force_counts(s1.times, s2.times, window, h.bin_edges)
        assert np.array_equal(h.counts, expected)
        single = cross_correlate(s1, s2, window=window, bin_width=bin_width,
                                 n_chunks=1)
        assert np.array_equal(h.counts, single.counts)

    def test_start_beyond_default_block(self):
        """A start that alone owns more pairs than _PAIR_BLOCK is binned in a
        block of its own, next to starts that share one."""
        block = correlate._PAIR_BLOCK
        t2 = np.arange(1, block + 4097) * (100.0 / block)
        s1 = stream([50.0, 100.5, 300.0], 400.0, 1)
        s2 = stream(t2, 400.0, 2)
        h = cross_correlate(s1, s2, window=60.0, bin_width=1.0)
        expected = brute_force_counts(s1.times, s2.times, 60.0, h.bin_edges)
        assert np.array_equal(h.counts, expected)
        assert h.total_pairs > block

    def test_memory_is_flat_in_pair_count(self):
        """Four times the pairs (window 400 against 100 ns) keep the same peak:
        memory is set by the events and the pair budget per block."""
        rng = np.random.default_rng(37)
        T = 4e6
        t1 = np.unique(rng.uniform(0, T, 200_000))
        t2 = np.unique(rng.uniform(0, T, 200_000))
        s1, s2 = stream(t1, T, 1), stream(t2, T, 2)
        peaks, pairs = [], []
        for window in (100.0, 400.0):
            tracemalloc.start()
            try:
                h = cross_correlate(s1, s2, window=window, bin_width=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
            pairs.append(h.total_pairs)
        assert pairs[0] > correlate._PAIR_BLOCK
        assert pairs[1] > 3.5 * pairs[0]
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] < 60.0

    def test_memory_is_flat_in_event_count(self, monkeypatch):
        """Four times the events at the same density (and so four times the
        pairs) keep the same peak: the sweep holds no array as long as a
        stream."""
        monkeypatch.setattr(correlate.os, "cpu_count", lambda: 2)
        rng = np.random.default_rng(53)
        peaks, pairs = [], []
        for n in (200_000, 800_000):
            T = 20.0 * n
            s1 = stream(np.unique(rng.uniform(0, T, n)), T, 1)
            s2 = stream(np.unique(rng.uniform(0, T, n)), T, 2)
            tracemalloc.start()
            try:
                h = cross_correlate(s1, s2, window=100.0, bin_width=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            finally:
                tracemalloc.stop()
            pairs.append(h.total_pairs)
        assert pairs[1] > 3.5 * pairs[0]
        assert peaks[1] <= 1.25 * peaks[0]

    def test_thread_pool_capped_at_cpu_count(self, monkeypatch):
        """The calling thread sweeps one share of the start blocks and a pool
        of at most os.cpu_count() - 1 workers the others; an input of one
        start block, or n_chunks=1, runs with no pool."""
        seen = []
        real = correlate.ThreadPoolExecutor

        def spy(max_workers):
            seen.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(correlate, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(correlate.os, "cpu_count", lambda: 3)
        rng = np.random.default_rng(43)
        s1, s2 = random_pair(rng)
        base = cross_correlate(s1, s2, window=50.0, bin_width=1.0, n_chunks=1)
        one_block = cross_correlate(s1, s2, window=50.0, bin_width=1.0, n_chunks=64)
        assert seen == []
        monkeypatch.setattr(correlate, "_START_BLOCK", 16)
        assert s1.times.size > 3 * 16
        h = cross_correlate(s1, s2, window=50.0, bin_width=1.0, n_chunks=64)
        two = cross_correlate(s1, s2, window=50.0, bin_width=1.0, n_chunks=2)
        assert seen == [2, 1]
        for other in (one_block, h, two):
            assert np.array_equal(other.counts, base.counts)

    def test_empty_input_flagged(self):
        empty, full = stream([], 100.0, 1), stream([1.0, 2.0], 100.0, 2)
        for s1, s2, n_chunks in ((empty, full, 1), (full, empty, 1),
                                 (empty, empty, 1), (full, empty, 2)):
            h = cross_correlate(s1, s2, window=10.0, n_chunks=n_chunks)
            assert h.total_pairs == 0
            assert np.array_equal(h.bin_edges, make_edges(10.0, 1.0))
            assert np.all(h.counts == 0)
            assert h.flags == ["empty-input"]
        assert cross_correlate(full, full, window=10.0).flags == []

    def test_duration_mismatch_rejected(self):
        s1 = stream([1.0], 100.0, 1)
        s2 = stream([1.0], 200.0, 2)
        with pytest.raises(InvalidParameter):
            cross_correlate(s1, s2, window=10.0)

    @pytest.mark.parametrize("n_chunks", [0, -3])
    def test_chunk_count_below_one_rejected(self, n_chunks):
        s1 = stream([1.0], 100.0, 1)
        s2 = stream([1.0], 100.0, 2)
        with pytest.raises(InvalidParameter, match="n_chunks"):
            cross_correlate(s1, s2, window=10.0, n_chunks=n_chunks)

    def test_unsorted_rejected(self):
        """A stream is checked once, at construction, and cannot be unsorted
        afterwards."""
        with pytest.raises(InvalidParameter):
            TimestampStream(channel=1, times=[2.0, 1.0], duration=100.0)
        times = np.array([1.0, 2.0])
        s1 = TimestampStream(channel=1, times=times, duration=100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s1.times = np.array([2.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            s1.times[0] = 3.0
        assert times.flags.writeable


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

    def test_window_between_bin_edges_has_full_outer_bins(self):
        """A window that is not a whole number of bins ends the edges inside
        it, so the outer bins of a flat pair are not cut short (at 99.6 ns
        with edges at +-100 they normalized to ~0.6)."""
        rng = np.random.default_rng(47)
        T = 2e7
        r = 5e-3
        t1 = np.unique(rng.uniform(0, T, rng.poisson(r * T)))
        t2 = np.unique(rng.uniform(0, T, rng.poisson(r * T)))
        s1, s2 = stream(t1, T, 1), stream(t2, T, 2)
        hn = normalize_cw(cross_correlate(s1, s2, window=99.6, bin_width=1.0),
                          s1.rate, s2.rate)
        assert hn.bin_edges[-1] == 99.0 and hn.bin_edges[0] == -99.0
        for k in (0, -1):
            assert hn.norm[k] == pytest.approx(1.0, abs=5 * hn.norm_err[k])

    def test_normalize_requires_positive_rates(self):
        h = CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(10, int), 1.0)
        with pytest.raises(DegenerateInput):
            normalize_cw(h, 0.0, 1.0)

    @pytest.mark.parametrize("normalize, kwargs", [
        (normalize_cw, dict(rate1=np.nan, rate2=1.0)),
        (normalize_cw, dict(rate1=1.0, rate2=np.inf)),
        (normalize_cw, dict(rate1=True, rate2=1.0)),
        (normalize_pulsed, dict(signal_rates=(np.nan, 1e-3),
                                background_rates=(1e-4, 1e-4))),
        (normalize_pulsed, dict(signal_rates=(1e-3, -np.inf),
                                background_rates=(1e-4, 1e-4))),
        (normalize_pulsed, dict(signal_rates=(1e-3, 1e-3),
                                background_rates=(np.inf, 1e-4))),
        (normalize_pulsed, dict(signal_rates=(1e-3, 1e-3),
                                background_rates=(1e-4, -1e-4))),
    ], ids=["cw-nan", "cw-inf", "cw-bool", "pulsed-signal-nan",
            "pulsed-signal-inf", "pulsed-background-inf",
            "pulsed-background-negative"])
    def test_rates_must_be_finite_numbers(self, normalize, kwargs):
        """NaN used to give an all-NaN norm and inf an all-zero one; a
        finite signal rate <= 0 stays a DegenerateInput."""
        h = CoincidenceHistogram(make_edges(450.0, 1.0), np.ones(900, int), 1e6)
        if normalize is normalize_pulsed:
            kwargs = dict(kwargs, period=100.0, tau_o=6.0)
        with pytest.raises(InvalidParameter, match="rate"):
            normalize(h, **kwargs)

    @pytest.mark.parametrize("kwargs, word", [
        (dict(period=np.nan, tau_o=6.0), "period"),
        (dict(period=0.0, tau_o=6.0), "period"),
        (dict(period=100.0, tau_o=0.0), "tau_o"),
        (dict(period=100.0, tau_o=np.nan), "tau_o"),
    ], ids=["period-nan", "period-zero", "tau_o-zero", "tau_o-nan"])
    def test_pulse_must_be_positive_numbers(self, kwargs, word):
        """A NaN period used to raise a bare ValueError and a zero one an
        OverflowError; a zero or NaN tau_o gave an all-NaN norm."""
        h = CoincidenceHistogram(make_edges(450.0, 1.0), np.ones(900, int), 1e6)
        with pytest.raises(InvalidParameter, match=word):
            normalize_pulsed(h, signal_rates=(1e-3, 1e-3),
                             background_rates=(1e-4, 1e-4), **kwargs)

    def test_zero_counts_low_statistics_flag(self):
        h = CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(10, int), 1.0)
        hn = normalize_cw(h, 1e-3, 1e-3)
        assert "low-statistics" in hn.flags
        assert np.all(hn.norm == 0)
        assert np.all(hn.norm_err > 0)

    def test_pulsed_normalization_requires_side_peaks(self):
        h = CoincidenceHistogram(make_edges(40.0, 1.0), np.ones(80, int), 1e6)
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
        h = CoincidenceHistogram(edges, counts, T)
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

    def test_pulsed_side_peak_cut_short_is_not_used(self):
        """Edges at +-448 ns (a 450.9-ns window in 4-ns bins) cut the peaks
        at +-400 ns short, so the height scale comes from the peaks at
        +-100..300 ns alone, as on edges at +-400 ns."""
        edges = make_edges(450.9, 4.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.full(centers.size, 2000)
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            height = 3000.0 if abs(k) == 4 else 1000.0
            counts += np.round(
                height * np.exp(-2.0 * np.abs(centers - 100.0 * k) / 6.0)
            ).astype(int)
        inner = np.abs(centers) < 400.0
        rates = dict(period=100.0, tau_o=6.0, signal_rates=(2e-3, 2e-3),
                     background_rates=(1e-3, 1e-3))
        hn = normalize_pulsed(CoincidenceHistogram(edges, counts, 1e6), **rates)
        trimmed = normalize_pulsed(
            CoincidenceHistogram(edges[np.abs(edges) <= 400.0], counts[inner],
                                 1e6), **rates)
        assert np.array_equal(hn.norm[inner], trimmed.norm)


class TestPeakLayout:
    @settings(max_examples=300, deadline=None)
    @given(bin_width=st.sampled_from([0.1, 0.3, 1 / 3, 1.0, 2.5])
           | st.floats(0.01, 10.0),
           n_half=st.integers(1, 600) | st.integers(100, 600),
           drop=st.integers(0, 3),
           period=st.sampled_from([0.1, 0.3, 1.0, 1.5, 6.0, 100.0])
           | st.floats(0.01, 100.0),
           in_bins=st.booleans(),
           fraction=st.sampled_from([0.0, 0.35, 0.5, 1.0]) | st.floats(0.0, 1.0))
    @example(bin_width=1.0, n_half=450, drop=0, period=100.0, in_bins=False,
             fraction=0.35)
    @example(bin_width=0.3, n_half=3333, drop=0, period=100.0, in_bins=False,
             fraction=0.35)
    @example(bin_width=0.1, n_half=30, drop=0, period=0.3, in_bins=False,
             fraction=1.0)
    # Centres one ulp inside +-0.5, in peaks -1 and 1 only after rounding.
    @example(bin_width=1 - 2**-53, n_half=5, drop=0, period=1.0, in_bins=False,
             fraction=1.0)
    def test_bin_ranges_match_the_centre_rule(self, bin_width, n_half, drop,
                                              period, in_bins, fraction):
        """check_peaks' (k, lo, hi) holds exactly the bins whose centres
        peak_masks puts in each peak, or check_peaks refuses: for a cut
        zero peak, no side peak, more than 2 * bins peaks or a peak of no
        bin.  in_bins draws the period in bin widths."""
        if in_bins:
            period *= bin_width
        edges = make_edges(n_half * bin_width, bin_width)
        edges = edges[min(drop, edges.size - 2):]
        halfwidth = fraction * period / 2.0
        bins = edges.size - 1
        # The peaks whose ends lie inside the edges, with 1e-9 periods of slack.
        ks = range(int(np.ceil((edges[0] + halfwidth) / period - 1e-9)),
                   int(np.floor((edges[-1] - halfwidth) / period + 1e-9)) + 1)
        if 0 not in ks or len(ks) == 1:
            with pytest.raises(InsufficientPeaks):
                check_peaks(edges, period, halfwidth)
            return
        if len(ks) > 2 * bins:
            with pytest.raises(InvalidParameter, match="no bin"):
                check_peaks(edges, period, halfwidth)
            return
        masks = peak_masks(edges, ks, period, halfwidth)
        if not all(mask.any() for mask in masks.values()):
            with pytest.raises(InvalidParameter, match="no bin centre"):
                check_peaks(edges, period, halfwidth)
            return
        k, lo, hi = check_peaks(edges, period, halfwidth)
        assert k.tolist() == list(masks)
        index = np.arange(bins)
        for kk, a, b in zip(k.tolist(), lo, hi):
            assert np.array_equal((index >= a) & (index < b), masks[kk])

    @pytest.mark.parametrize("period, halfwidth", [(0.1, 0.0), (0.02, 0.0),
                                                   (1.5, 0.25)])
    def test_peak_of_no_bin_refused_at_once(self, period, halfwidth):
        """A period of 0.1 ns in 1-ns bins used to integrate to g2_int = 0.0
        +- 0.0 over 9000 mostly empty peaks, and 0.02 ns to build 45 000
        masks; 1.5 ns puts every other peak between two bin centres."""
        h = CoincidenceHistogram(make_edges(450.0, 1.0), np.full(900, 100), 1e6)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="no bin"):
                integrate_peaks(h, period=period, peak_halfwidth=halfwidth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_zero_peak_cut_by_csv_edges_refused(self, tmp_path):
        """A histogram read back from CSV may start anywhere: edges from
        -10 ns hold four whole side peaks but cut the zero peak at +-17.5 ns,
        which used to be summed in part."""
        edges = np.arange(-10.0, 451.0)
        path = tmp_path / "histogram.csv"
        fio.write_histogram_csv(path, CoincidenceHistogram(
            edges, np.full(edges.size - 1, 100), 1e6))
        h = fio.read_histogram_csv(path)
        with pytest.raises(InsufficientPeaks, match="zero peak"):
            integrate_peaks(h, period=100.0)
        with pytest.raises(InsufficientPeaks, match="zero peak"):
            normalize_pulsed(h, period=100.0, tau_o=6.0,
                             signal_rates=(1e-3, 1e-3),
                             background_rates=(1e-4, 1e-4))

    def test_wide_window_memory_is_bounded(self):
        """At +-50 us in 1-ns bins (999 peaks, 100 000 bins) each peak is a
        bin range, not a mask over all bins: normalize_pulsed and
        integrate_peaks each trace at most 10 MB (one mask per peak took
        ~100 MB)."""
        edges = make_edges(50_000.0, 1.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        phase = np.abs((centers + 50.0) % 100.0 - 50.0)
        counts = np.round(100 + 1000 * np.exp(-phase / 3.0)).astype(np.int64)
        h = CoincidenceHistogram(edges, counts, 1e9)
        calls = [lambda: normalize_pulsed(h, period=100.0, tau_o=6.0,
                                          signal_rates=(1e-3, 1e-3),
                                          background_rates=(1e-4, 1e-4)),
                 lambda: integrate_peaks(h, period=100.0, background_per_bin=100)]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 10e6


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
        return CoincidenceHistogram(edges, counts, T)

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

    def test_side_peaks_cut_short_are_left_out(self):
        """Edges at +-1017 ns (a 1017.6-ns window in 1-ns bins) cut the peaks
        at +-1000 ns one bin short; a flat histogram integrates to exactly 1
        over the 18 whole side peaks."""
        edges = make_edges(1017.6, 1.0)
        h = CoincidenceHistogram(edges, np.full(edges.size - 1, 100), 1e6)
        pk = integrate_peaks(h, period=100.0, peak_halfwidth=17.5)
        assert pk.side_peak_sums == [3600] * 18
        assert pk.zero_peak_sum == 3600
        assert pk.g2_int == 1.0 and type(pk.g2_int) is float

    def test_background_of_each_peak_from_its_own_bins(self):
        """In 0.3-ns bins the zero peak holds 116 bins and the side peaks 116
        or 117, so a flat 100 counts per bin at background 100 per bin is
        pure background; subtracting 116 bins' worth from every side peak
        used to read g2_int = 0.0 +- 0.0."""
        edges = make_edges(1000.0, 0.3)
        h = CoincidenceHistogram(edges, np.full(edges.size - 1, 100), 1e6)
        k, lo, hi = check_peaks(edges, 100.0, 17.5)
        assert (hi - lo)[k == 0].tolist() == [116]
        assert set((hi - lo)[k != 0].tolist()) == {116, 117}
        with pytest.raises(DegenerateInput):
            integrate_peaks(h, period=100.0, peak_halfwidth=17.5,
                            background_per_bin=100)

    def test_window_must_hold_side_peaks(self):
        edges = make_edges(40.0, 1.0)
        h = CoincidenceHistogram(edges, np.ones(edges.size - 1, int), 1e6)
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
        assert make_edges(100.0, 1 / 3).size == 601
        with pytest.raises(InvalidParameter):
            make_edges(-1.0, 1.0)

    def test_background_coincidence_rate(self):
        # r_tot^2 - r_em^2 cross terms.
        val = background_coincidence_rate(2e-3, 1e-3, 1.0, 1e6)
        assert val == pytest.approx(((3e-3) ** 2 - (2e-3) ** 2) * 1e6)
        with pytest.raises(InvalidParameter):
            background_coincidence_rate(-1.0, 0.0, 1.0, 1.0)

    def test_histogram_validation(self):
        with pytest.raises(InvalidParameter):
            CoincidenceHistogram(make_edges(5.0, 1.0), np.zeros(5, int), 1.0)
        bad_edges = np.array([0.0, 1.0, 3.0])
        with pytest.raises(InvalidParameter):
            CoincidenceHistogram(bad_edges, np.zeros(2, int), 1.0)

    @pytest.mark.parametrize("column", ["norm", "norm_err"])
    def test_histogram_norm_columns_hold_one_value_per_bin(self, column):
        # write_histogram_csv zips the columns: a short one would cut the file.
        edges, counts = make_edges(10.0, 1.0), np.arange(20)
        with pytest.raises(InvalidParameter, match=column):
            CoincidenceHistogram(edges, counts, 1e6, **{column: np.ones(5)})
        h = CoincidenceHistogram(edges, counts, 1e6, **{column: np.ones(20)})
        assert getattr(h, column).size == 20

    @pytest.mark.parametrize("duration", [0.0, -1.0, np.nan, np.inf, True, "1"])
    def test_histogram_duration_is_a_finite_number(self, duration):
        with pytest.raises(InvalidParameter, match="duration"):
            CoincidenceHistogram(make_edges(10.0, 1.0), np.arange(20), duration)
