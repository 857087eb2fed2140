"""Coincidence histograms from pairs of timestamp streams.

Builds the full cross-correlation histogram (every pair within the delay
window) with a two-pointer sweep, normalizes it against the uncorrelated
expectation, and integrates pulse-train peaks with background subtraction.
Histogram counts are integers, and chunked (parallel) construction sums
partial integer histograms, so results are bit-identical for any chunk count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateInput, InsufficientPeaks, InvalidParameter, UnsortedInput
from .sim import TimestampStream

#: Default delay windows (ns): cw dip analysis and pulsed-train analysis.
DEFAULT_CW_WINDOW = 100.0
DEFAULT_PULSED_WINDOW = 1000.0
#: Default histogram bin width (ns): resolves few-ns antibunching dips.
DEFAULT_BIN_WIDTH = 1.0
#: Default peak integration half-width (ns), ~35 ns total per peak.
DEFAULT_PEAK_HALFWIDTH = 17.5


@dataclass
class CoincidenceHistogram:
    """Binned delay-time coincidences between two detector channels.

    bin_edges are uniform and symmetric about zero delay; counts[k] is the
    number of pairs with delay t2 - t1 in bin k.  norm/norm_err are filled by
    a normalization step.  flags carries quality markers such as
    'empty-input' or 'low-statistics'.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_pairs: int
    window: float
    duration: float
    norm: Optional[np.ndarray] = None
    norm_err: Optional[np.ndarray] = None
    flags: list = field(default_factory=list)

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

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _check_stream(s: TimestampStream, name: str):
    if s.times.size and np.any(np.diff(s.times) < 0):
        raise UnsortedInput(f"{name} is not sorted ascending")


def make_edges(window: float, bin_width: float) -> np.ndarray:
    """Uniform symmetric bin edges covering [-window, window]."""
    if window <= 0 or bin_width <= 0:
        raise InvalidParameter("window and bin_width must be > 0")
    n_half = int(round(window / bin_width))
    if n_half < 1:
        raise InvalidParameter("window must cover at least one bin")
    return np.arange(-n_half, n_half + 1) * bin_width


def _partial_counts(t1: np.ndarray, t2: np.ndarray, window: float,
                    edges: np.ndarray) -> np.ndarray:
    """Histogram of delays t2 - t1 for all pairs with |delay| <= window."""
    lo = np.searchsorted(t2, t1 - window, side="left")
    hi = np.searchsorted(t2, t1 + window, side="right")
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.zeros(edges.size - 1, dtype=np.int64)
    # Flatten the ragged [lo[i], hi[i]) index ranges into one delay array.
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    idx = np.repeat(lo - starts, lens) + np.arange(total)
    delays = t2[idx] - np.repeat(t1, lens)
    counts, _ = np.histogram(delays, bins=edges)
    return counts.astype(np.int64)


def cross_correlate(s1: TimestampStream, s2: TimestampStream, window: float,
                    bin_width: float = DEFAULT_BIN_WIDTH,
                    n_chunks: int = 1) -> CoincidenceHistogram:
    """Full cross-correlation histogram of two streams.

    Counts every ordered pair (t1 in s1, t2 in s2) with |t2 - t1| <= window
    using a searchsorted sweep, O(N * m) in the mean occupancy m per window.
    Stream 1 may be partitioned into n_chunks contiguous chunks whose partial
    integer histograms are summed, so the result does not depend on n_chunks.
    """
    _check_stream(s1, "stream 1")
    _check_stream(s2, "stream 2")
    if abs(s1.duration - s2.duration) > 1e-9 * max(s1.duration, s2.duration):
        raise InvalidParameter(
            f"stream durations differ: {s1.duration} vs {s2.duration}"
        )
    edges = make_edges(window, bin_width)
    flags = []
    if s1.times.size == 0 or s2.times.size == 0:
        flags.append("empty-input")
        counts = np.zeros(edges.size - 1, dtype=np.int64)
        return CoincidenceHistogram(edges, counts, 0, window, s1.duration, flags=flags)

    n_chunks = max(1, int(n_chunks))
    bounds = np.linspace(0, s1.times.size, n_chunks + 1).astype(int)
    chunks = [s1.times[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    if n_chunks == 1:
        partials = [_partial_counts(chunks[0], s2.times, window, edges)]
    else:
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            partials = list(
                pool.map(lambda c: _partial_counts(c, s2.times, window, edges), chunks)
            )
    counts = np.sum(partials, axis=0, dtype=np.int64)
    return CoincidenceHistogram(
        edges, counts, int(counts.sum()), window, s1.duration, flags=flags
    )


def normalize_cw(h: CoincidenceHistogram, rate1: float, rate2: float,
                 duration: Optional[float] = None) -> CoincidenceHistogram:
    """Normalize by the uncorrelated expectation rate1*rate2*bin_width*duration.

    rate1/rate2 are per-channel event rates in events/ns.  Poissonian input
    normalizes to 1 in every bin within statistical error.  Zero-count bins
    get norm_err equal to the one-count error and a low-statistics flag.
    """
    if rate1 <= 0 or rate2 <= 0:
        raise DegenerateInput("per-channel rates must be > 0 to normalize")
    T = h.duration if duration is None else duration
    denom = rate1 * rate2 * h.bin_width * T
    norm = h.counts / denom
    err = np.sqrt(np.maximum(h.counts, 1)) / denom
    flags = list(h.flags)
    if np.all(h.counts == 0):
        if "low-statistics" not in flags:
            flags.append("low-statistics")
    return replace(h, norm=norm, norm_err=err, flags=flags)


def normalize_pulsed(h: CoincidenceHistogram, period: float, tau_o: float,
                     signal_rates: tuple[float, float],
                     background_rates: tuple[float, float],
                     duration: Optional[float] = None) -> CoincidenceHistogram:
    """Normalize a pulse-train histogram into background-mixed g2 form.

    The pulsed coincidence profile is a flat accidental floor (background and
    cross pairs) plus pulse-synchronized peaks at multiples of the period.
    This rescales the floor to 1 - rho^2 and the pulse-pair excess to unit
    envelope height so that the central peak reads
        g2_exp(tau) = 1 - rho^2 + rho^2 * e(tau) * g2(tau),
    directly fittable by the pulsed model.  The peak height scale is taken
    from the side peaks (which carry no antibunching) by projecting their
    excess onto the model envelope e(tau) = exp(-2|tau|/tau_o); rho comes from
    the supplied per-channel signal and background rates, which are the
    experimentally accessible singles rates.
    """
    r1, r2 = signal_rates
    b1, b2 = background_rates
    if r1 <= 0 or r2 <= 0:
        raise DegenerateInput("signal rates must be > 0")
    T = h.duration if duration is None else duration
    rho2 = (r1 * r2) / ((r1 + b1) * (r2 + b2))
    floor = ((r1 + b1) * (r2 + b2) - r1 * r2) * h.bin_width * T

    centers = h.centers
    excess = h.counts - floor
    k_max = int(np.floor((h.window - 0.5 * period) / period))
    if k_max < 1:
        raise InsufficientPeaks(
            "window must contain at least one side peak each side to "
            "normalize a pulsed histogram"
        )
    heights = []
    for k in list(range(-k_max, 0)) + list(range(1, k_max + 1)):
        sel = np.abs(centers - k * period) <= period / 2.0
        env = np.exp(-2.0 * np.abs(centers[sel] - k * period) / tau_o)
        heights.append(float(np.dot(excess[sel], env) / np.dot(env, env)))
    peak_scale = float(np.mean(heights))
    if peak_scale <= 0:
        raise DegenerateInput("side peaks carry no excess above the floor")

    norm = (1.0 - rho2) + rho2 * excess / peak_scale
    err = rho2 * np.sqrt(np.maximum(h.counts, 1)) / peak_scale
    return replace(h, norm=norm, norm_err=err, flags=list(h.flags))


@dataclass
class PeakIntegration:
    """Result of integrating pulse-train coincidence peaks.

    g2_int is the background-subtracted zero-peak sum divided by the mean
    background-subtracted side-peak sum; g2_int_sigma assumes Poisson counts.
    """

    peak_window: float
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

    Sums counts within +-peak_halfwidth of each multiple of the period inside
    the window, subtracts the expected uncorrelated background per peak, and
    returns the zero-peak to mean-side-peak ratio.
    """
    if peak_halfwidth > period / 2.0:
        raise InvalidParameter("peak_halfwidth must be <= period/2")
    centers = h.centers
    k_max = int(np.floor((h.window - peak_halfwidth) / period))
    side_ks = [k for k in range(-k_max, k_max + 1) if k != 0]
    if len(side_ks) < 2:
        raise InsufficientPeaks(
            f"window {h.window} ns holds {len(side_ks)} side peaks; need >= 2"
        )

    def peak_sum(k):
        sel = np.abs(centers - k * period) <= peak_halfwidth
        return int(h.counts[sel].sum()), int(np.count_nonzero(sel))

    zero_sum, nbins = peak_sum(0)
    side = [peak_sum(k) for k in side_ks]
    bg_per_peak = background_per_bin * nbins
    side_sums = [s for s, _ in side]
    side_mean = float(np.mean(side_sums)) - bg_per_peak
    if side_mean <= 0:
        raise DegenerateInput("side peaks vanish after background subtraction")
    zero_corr = zero_sum - bg_per_peak
    g2_int = zero_corr / side_mean
    # Poisson errors on the raw sums; background treated as exact.
    var_zero = max(zero_sum, 1)
    var_side_mean = float(np.sum(side_sums)) / len(side_sums) ** 2
    sigma = abs(g2_int) * np.sqrt(
        var_zero / max(zero_corr, 1.0) ** 2 + var_side_mean / side_mean**2
    )
    return PeakIntegration(
        peak_window=peak_halfwidth,
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
    if rate_em < 0 or rate_bg < 0:
        raise InvalidParameter("rates must be >= 0")
    r_tot = rate_em + rate_bg
    return (r_tot**2 - rate_em**2) * bin_width * duration

