"""Coincidence histograms from pairs of timestamp streams.

Builds the full cross-correlation histogram (every pair within the delay
window) with a sweep over start blocks, normalizes it against the
uncorrelated expectation, and integrates pulse-train peaks with background
subtraction.  The sweep takes the events of stream 1 in blocks of
_START_BLOCK starts and bins their pairs in sub-blocks that hold at most
_PAIR_BLOCK pairs over all threads, so its memory grows with neither the
number of events nor the number of pairs.  The start blocks are dealt to
at most os.cpu_count() threads, each with its own integer counts, and
integer sums do not depend on the order of addition, so the result is
bit-identical for any thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .emitter import pulse_envelope
from .errors import (DegenerateInput, InsufficientPeaks, InvalidParameter,
                     check_number)
from .sim import TimestampStream

#: Default delay window (ns) of the cw dip analysis.
DEFAULT_CW_WINDOW = 100.0
#: Default histogram bin width (ns): resolves few-ns antibunching dips.
DEFAULT_BIN_WIDTH = 1.0
#: Default peak integration half-width (ns), ~35 ns total per peak.
DEFAULT_PEAK_HALFWIDTH = 17.5
#: Starts of stream 1 per start block, the unit of work of one thread.
_START_BLOCK = 1 << 14
#: Most pairs whose delays are held at once over all threads (~24 B each
#: while binned); a start with more pairs than a thread's share is binned alone.
_PAIR_BLOCK = 1 << 17


@dataclass
class CoincidenceHistogram:
    """Binned delay-time coincidences between two detector channels.

    bin_edges are uniform; they alone give the delay extent.  counts[k] is
    the number of pairs with delay t2 - t1 in bin k, and total_pairs their
    sum; duration (ns) is finite and > 0.  norm/norm_err, each None or one
    value per bin, are filled by a normalization step, which records its
    model ('cw' or 'pulsed') in normalization.  flags carries quality markers
    such as 'empty-input' or 'low-statistics'.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    duration: float
    norm: Optional[np.ndarray] = None
    norm_err: Optional[np.ndarray] = None
    flags: list = field(default_factory=list)
    normalization: Optional[str] = None

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.size != self.bin_edges.size - 1:
            raise InvalidParameter("counts length must be len(bin_edges) - 1")
        if np.any(self.counts < 0):
            raise InvalidParameter("counts must be non-negative")
        widths = np.diff(self.bin_edges)
        if widths.size and not np.allclose(widths, widths[0], rtol=1e-9, atol=0):
            raise InvalidParameter("bin width must be uniform")
        if widths.size and widths[0] <= 0:
            raise InvalidParameter("bin width must be positive")
        check_number("duration", self.duration, 0, math.inf, "()")
        for name in ("norm", "norm_err"):
            column = getattr(self, name)
            if column is not None and np.size(column) != self.counts.size:
                raise InvalidParameter(
                    f"{name} must be None or hold one value per bin")

    @property
    def total_pairs(self) -> int:
        return int(self.counts.sum())

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def make_edges(window: float, bin_width: float) -> np.ndarray:
    """Uniform symmetric bin edges covering at most [-window, window].

    The number of bins per side is window / bin_width rounded down (with a
    1e-9 relative tolerance), so no bin reaches past the window, where pairs
    are cut and an outer bin would be only partly filled.  A window or
    bin_width that is not a number in (0, inf), and edges that cannot be
    allocated, raise InvalidParameter.
    """
    check_number("window", window, 0, math.inf, "()")
    check_number("bin_width", bin_width, 0, math.inf, "()")
    n_half = int(np.floor(window / bin_width * (1.0 + 1e-9)))
    if n_half < 1:
        raise InvalidParameter("window must cover at least one bin")
    try:
        return np.arange(-n_half, n_half + 1) * bin_width
    except (MemoryError, ValueError) as exc:  # numpy: "array is too big"
        raise InvalidParameter(
            f"cannot allocate {2 * n_half} bins of window {window:g} / "
            f"bin_width {bin_width:g}: {exc}") from None


def _share_counts(t1: np.ndarray, t2: np.ndarray, window: float,
                  edges: np.ndarray, blocks: range, budget: int) -> np.ndarray:
    """Histogram of delays t2 - t1, |delay| <= window, over the start blocks
    t1[a:a + _START_BLOCK] for a in blocks.

    A block pairs only with the slice of t2 from its first start - window to
    its last start + window, and the bounds of each start's pairs are found in
    that slice alone: t1 is sorted, so they are the same as in all of t2.
    The starts are then binned in sub-blocks that own at most budget pairs
    together, and each sub-block's delays are dropped before the next.
    """
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for a in blocks:
        c = t1[a:a + _START_BLOCK]
        x = int(np.searchsorted(t2, c[0] - window, side="left"))
        near = t2[x:int(np.searchsorted(t2, c[-1] + window, side="right"))]
        lo = np.searchsorted(near, c - window, side="left")
        lens = np.searchsorted(near, c + window, side="right")
        lens -= lo
        ends = np.cumsum(lens)  # pairs owned by starts [0, i] of the block
        i = 0
        while i < c.size:
            done = int(ends[i - 1]) if i else 0
            j = max(int(np.searchsorted(ends, done + budget, side="right")), i + 1)
            total = int(ends[j - 1]) - done
            if total:
                # Flatten the ragged [lo[k], hi[k]) index ranges into one delay array.
                n = lens[i:j]
                idx = np.repeat(lo[i:j] - (ends[i:j] - n - done), n)
                idx += np.arange(total)
                delays = near[idx]
                delays -= np.repeat(c[i:j], n)
                counts += np.histogram(delays, bins=edges)[0]
            i = j
    return counts


def check_n_chunks(n_chunks: Optional[int]):
    """Raise InvalidParameter unless n_chunks is None or a number >= 1."""
    if n_chunks is not None:
        check_number("n_chunks", n_chunks, 1, math.inf, "[)")


def check_peaks(edges: np.ndarray, period: float, peak_halfwidth: float,
                background_per_bin: float = 0.0):
    """(k, lo, hi), integer arrays in ascending k: peak k*period +-
    peak_halfwidth holds the bins lo:hi, whose centres c have |c - k*period|
    <= peak_halfwidth, for every peak, zero included, inside the bin edges.
    Raises InvalidParameter for a number outside its interval or a peak of no
    bin centre, and InsufficientPeaks when the edges cut the zero peak or
    hold no side peak, so it checks a pulse window before any histogram.
    """
    check_number("period", period, 0, math.inf, "()")
    check_number("peak_halfwidth", peak_halfwidth, 0, period / 2.0)
    check_number("background_per_bin", background_per_bin, 0, math.inf, "[)")
    # 1e-9 periods of slack keeps a peak that ends on the outer edge.
    k_lo = np.ceil((edges[0] + peak_halfwidth) / period - 1e-9)
    k_hi = np.floor((edges[-1] - peak_halfwidth) / period + 1e-9)
    if not k_lo <= 0 <= k_hi:
        raise InsufficientPeaks(f"the bin edges cut the zero peak +- "
                                f"{peak_halfwidth:g} ns")
    if k_lo == k_hi:
        raise InsufficientPeaks(f"no side peak k*{period:g} +- {peak_halfwidth:g} "
                                f"ns lies whole inside the bin edges")
    centers = 0.5 * (edges[:-1] + edges[1:])
    # A centre lies in at most two peaks, so of more than 2 * bins one is
    # empty.  Rounding moves a searchsorted end of a run by at most one bin.
    if k_hi - k_lo < 2 * centers.size:
        k = np.arange(int(k_lo), int(k_hi) + 1)
        mid, last = k * period, centers.size - 1
        lo = np.searchsorted(centers, mid - peak_halfwidth)
        hi = np.searchsorted(centers, mid + peak_halfwidth, side="right")
        lo -= (lo > 0) & (centers[lo - 1] - mid >= -peak_halfwidth)
        lo += (lo <= last) & (centers[np.minimum(lo, last)] - mid < -peak_halfwidth)
        hi += (hi <= last) & (centers[np.minimum(hi, last)] - mid <= peak_halfwidth)
        hi -= (hi > 0) & (centers[hi - 1] - mid > peak_halfwidth)
        if np.all(lo < hi):
            return k, lo, hi
    raise InvalidParameter(f"a peak k*{period:g} +- {peak_halfwidth:g} ns holds "
                           f"no bin centre")


def cross_correlate(s1: TimestampStream, s2: TimestampStream, window: float,
                    bin_width: float = DEFAULT_BIN_WIDTH,
                    n_chunks: Optional[int] = None) -> CoincidenceHistogram:
    """Full cross-correlation histogram of two streams.

    Counts every ordered pair (t1 in s1, t2 in s2) with |t2 - t1| <= window
    using a searchsorted sweep over blocks of _START_BLOCK starts, O(N * m)
    in time for the mean occupancy m per window.  Its memory is
    O(threads * (_START_BLOCK + bins) + _PAIR_BLOCK): it grows with neither
    the number of events nor the number of pairs.  Block j is swept by thread
    j mod T, for T = min(os.cpu_count(), start blocks, n_chunks) threads
    (n_chunks=None: every core), and the threads' integer histograms are
    summed, so the result does not depend on T.  An n_chunks that
    check_n_chunks rejects raises InvalidParameter.
    """
    check_n_chunks(n_chunks)
    if abs(s1.duration - s2.duration) > 1e-9 * max(s1.duration, s2.duration):
        raise InvalidParameter(
            f"stream durations differ: {s1.duration} vs {s2.duration}"
        )
    edges = make_edges(window, bin_width)
    t1, t2 = s1.times, s2.times
    n_blocks = -(-t1.size // _START_BLOCK) if t2.size else 0
    cap = n_blocks if n_chunks is None else int(n_chunks)
    threads = max(1, min(os.cpu_count() or 1, n_blocks, cap))
    budget = max(1, _PAIR_BLOCK // threads)

    def share(k: int) -> np.ndarray:
        blocks = range(k * _START_BLOCK, n_blocks * _START_BLOCK,
                       threads * _START_BLOCK)
        return _share_counts(t1, t2, window, edges, blocks, budget)

    if threads == 1:
        counts = share(0)
    else:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            others = pool.map(share, range(1, threads))  # submitted at once
            counts = np.sum([share(0), *others], axis=0, dtype=np.int64)
    empty = t1.size == 0 or t2.size == 0
    return CoincidenceHistogram(edges, counts, s1.duration,
                                flags=["empty-input"] if empty else [])


def normalize_cw(h: CoincidenceHistogram, rate1: float,
                 rate2: float) -> CoincidenceHistogram:
    """Normalize by the uncorrelated expectation rate1*rate2*bin_width*duration.

    rate1/rate2 are per-channel event rates in events/ns: a rate that is not a
    finite number raises InvalidParameter, and one <= 0 DegenerateInput.
    Poissonian input normalizes to 1 in every bin within statistical error.
    Zero-count bins get norm_err equal to the one-count error; a histogram
    whose counts are all zero is flagged low-statistics.
    """
    check_number("rate1", rate1, -math.inf, math.inf, "()")
    check_number("rate2", rate2, -math.inf, math.inf, "()")
    if rate1 <= 0 or rate2 <= 0:
        raise DegenerateInput("per-channel rates must be > 0 to normalize")
    denom = rate1 * rate2 * h.bin_width * h.duration
    norm = h.counts / denom
    err = np.sqrt(np.maximum(h.counts, 1)) / denom
    flags = list(h.flags)
    if np.all(h.counts == 0) and "low-statistics" not in flags:
        flags.append("low-statistics")
    return replace(h, norm=norm, norm_err=err, flags=flags, normalization="cw")


def normalize_pulsed(h: CoincidenceHistogram, period: float, tau_o: float,
                     signal_rates: tuple[float, float],
                     background_rates: tuple[float, float]) -> CoincidenceHistogram:
    """Normalize a pulse-train histogram into background-mixed g2 form.

    The pulsed coincidence profile is a flat accidental floor (background and
    cross pairs) plus pulse-synchronized peaks at multiples of the period.
    This rescales the floor to 1 - rho^2 and the pulse-pair excess to unit
    envelope height so that the central peak reads
        g2_exp(tau) = 1 - rho^2 + rho^2 * e(tau) * g2(tau),
    directly fittable by the pulsed model.  The peak height scale is taken
    from the side peaks (which carry no antibunching) by projecting their
    excess onto the model envelope e(tau) = pulse_envelope(tau, tau_o) over
    each side peak k*period +- period/2 of check_peaks (its errors raised);
    rho comes from the supplied per-channel singles rates of signal and
    background.  Numbers must be finite, period and tau_o > 0 and background
    rates >= 0 (else InvalidParameter); a signal rate <= 0 raises DegenerateInput.
    """
    check_number("tau_o", tau_o, 0, math.inf, "()")
    ks, los, his = check_peaks(h.bin_edges, period, period / 2.0)
    r1, r2 = signal_rates
    b1, b2 = background_rates
    for rate in signal_rates:
        check_number("signal_rates", rate, -math.inf, math.inf, "()")
    for rate in background_rates:
        check_number("background_rates", rate, 0, math.inf, "[)")
    if r1 <= 0 or r2 <= 0:
        raise DegenerateInput("signal rates must be > 0")
    rho2 = (r1 * r2) / ((r1 + b1) * (r2 + b2))
    floor = ((r1 + b1) * (r2 + b2) - r1 * r2) * h.bin_width * h.duration

    centers = h.centers
    excess = h.counts - floor
    heights = []
    for k, lo, hi in zip(ks.tolist(), los, his):
        if k:
            env = pulse_envelope(centers[lo:hi] - k * period, tau_o)
            heights.append(float(np.dot(excess[lo:hi], env) / np.dot(env, env)))
    peak_scale = float(np.mean(heights))
    if peak_scale <= 0:
        raise DegenerateInput("side peaks carry no excess above the floor")

    norm = (1.0 - rho2) + rho2 * excess / peak_scale
    err = rho2 * np.sqrt(np.maximum(h.counts, 1)) / peak_scale
    return replace(h, norm=norm, norm_err=err, flags=list(h.flags),
                   normalization="pulsed")


@dataclass
class PeakIntegration:
    """Result of integrating pulse-train coincidence peaks.

    g2_int is the background-subtracted zero-peak sum divided by the mean
    background-subtracted side-peak sum; g2_int_sigma assumes Poisson counts.
    """

    peak_halfwidth: float
    period: float
    zero_peak_sum: int
    side_peak_sums: list
    background_per_bin: float
    g2_int: float
    g2_int_sigma: float


def integrate_peaks(h: CoincidenceHistogram, period: float,
                    peak_halfwidth: float = DEFAULT_PEAK_HALFWIDTH,
                    background_per_bin: float = 0.0) -> PeakIntegration:
    """Integrate the zero-delay peak against the pulse-train side peaks.

    Sums the counts of every peak of check_peaks, whose errors it raises,
    subtracts from each background_per_bin times its own number of bins, and
    returns the zero-peak to mean-side-peak ratio.
    """
    k, lo, hi = check_peaks(h.bin_edges, period, peak_halfwidth, background_per_bin)
    ends = np.concatenate(([0], np.cumsum(h.counts)))
    sums, n, side = ends[hi] - ends[lo], hi - lo, k != 0
    side_sums, zero_sum = sums[side].tolist(), int(sums[k == 0][0])
    side_mean = float(np.mean(side_sums)) - background_per_bin * float(np.mean(n[side]))
    if side_mean <= 0:
        raise DegenerateInput("side peaks vanish after background subtraction")
    zero_corr = zero_sum - background_per_bin * int(n[k == 0][0])
    g2_int = zero_corr / side_mean
    # Poisson errors on the raw sums; background treated as exact.
    var_zero = max(zero_sum, 1)
    var_side_mean = float(np.sum(side_sums)) / len(side_sums) ** 2
    sigma = abs(g2_int) * np.sqrt(
        var_zero / max(zero_corr, 1.0) ** 2 + var_side_mean / side_mean**2
    )
    return PeakIntegration(
        peak_halfwidth=peak_halfwidth,
        period=period,
        zero_peak_sum=zero_sum,
        side_peak_sums=side_sums,
        background_per_bin=background_per_bin,
        g2_int=g2_int,
        g2_int_sigma=float(sigma),
    )


def background_coincidence_rate(rate_em: float, rate_bg: float,
                                bin_width: float, duration: float) -> float:
    """Expected uncorrelated coincidences per bin from background cross terms.

    With per-channel emitter rate r_em and background rate r_bg, the em x bg,
    bg x em and bg x bg pair terms give (r_tot^2 - r_em^2)*bin_width*duration.
    """
    check_number("rate_em", rate_em, 0, math.inf, "[)")
    check_number("rate_bg", rate_bg, 0, math.inf, "[)")
    r_tot = rate_em + rate_bg
    return (r_tot**2 - rate_em**2) * bin_width * duration

