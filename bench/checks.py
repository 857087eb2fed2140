"""Correctness checks for the benchmark workloads.

Every check compares a program output with a value obtained apart from the
program: the configured truth with a band derived from the spread over seeds,
a Poisson bound, an all-pairs histogram, or the simulated times a file must
hold.  Each returns a list of failure messages (empty means the output
passed) and takes plain numbers and numpy arrays, so that test_checks.py can
feed it known-wrong outputs.
"""

from __future__ import annotations

import math

import numpy as np

# Bands.  Each holds the truth or the closed form, and is wide enough that a
# correct method fails it with negligible probability; README.md gives the
# spread over seeds each was derived from.
RHO_TRUE = 0.92
RHO_TOL = 0.03
G2_EXP_BAND = (0.1, 0.3)
G2_INT_TRUE = 0.31
G2_INT_TOL = 0.07
#: Decay rate of the closed-form cw dip, w_p + gamma (1/ns).
CW_RATE_TRUE = 0.6
CW_RATE_TOL = 0.04
CW_G2_0_MAX = 0.05
#: Poisson bound on the background-event count, in standard deviations.
POISSON_Z = 6.0
#: The stream CSV keeps 6 decimals: a time read back is off by at most half
#: a unit in the 6th decimal plus the float rounding of the parsed value.
READBACK_TOL = 5e-7


def pulsed_fit(converged: bool, rho: float, g2_exp_0: float) -> list[str]:
    """Criterion-5 figures of merit of a pulsed fit."""
    out = []
    if not converged:
        out.append("pulsed fit did not converge")
    if not abs(rho - RHO_TRUE) <= RHO_TOL:
        out.append(f"rho {rho:.4f} outside {RHO_TRUE} +- {RHO_TOL}")
    lo, hi = G2_EXP_BAND
    if not lo <= g2_exp_0 <= hi:
        out.append(f"g2_exp(0) {g2_exp_0:.4f} outside [{lo}, {hi}]")
    return out


def peak_integrated(g2_int: float) -> list[str]:
    """Criterion-6 figure of merit of the peak integration."""
    if abs(g2_int - G2_INT_TRUE) <= G2_INT_TOL:
        return []
    return [f"g2_int {g2_int:.4f} outside {G2_INT_TRUE} +- {G2_INT_TOL}"]


def cw_fit(report: dict) -> list[str]:
    """A cw fit report (fit.json): converged, dip rate and depth."""
    out = []
    params = report["params"]
    if not report["converged"]:
        out.append("cw fit did not converge")
    if not abs(params["w_p"] - CW_RATE_TRUE) <= CW_RATE_TOL:
        out.append(f"cw dip rate {params['w_p']:.4f} outside "
                   f"{CW_RATE_TRUE} +- {CW_RATE_TOL}")
    if not params["g2_0"] <= CW_G2_0_MAX:
        out.append(f"cw g2_0 {params['g2_0']:.4f} above {CW_G2_0_MAX}")
    return out


def event_budget(n_events: int, n_emissions: int, background_rate: float,
                 duration: float) -> list[str]:
    """With efficiency 1 and no jitter every emission is detected once, so the
    events beyond the emissions are the Poisson background events."""
    lam = background_rate * duration
    n_bg = n_events - n_emissions
    if abs(n_bg - lam) <= POISSON_Z * math.sqrt(max(lam, 1.0)):
        return []
    return [f"{n_events} events - {n_emissions} emissions = {n_bg} background "
            f"events, expected {lam:.0f} +- {POISSON_Z:g} sigma"]


def _edges(window: float, bin_width: float) -> np.ndarray:
    n_half = round(window / bin_width)
    return np.arange(-n_half, n_half + 1) * bin_width


def brute_force_counts(t1: np.ndarray, t2: np.ndarray, window: float,
                       bin_width: float) -> np.ndarray:
    """All-pairs histogram of delays t2 - t1 with |delay| <= window, binned by
    comparison against the edges (the last bin is closed)."""
    edges = _edges(window, bin_width)
    counts = np.zeros(edges.size - 1, dtype=np.int64)
    for i in range(0, t1.size, 256):
        d = (t2[None, :] - t1[i:i + 256, None]).ravel()
        d = d[np.abs(d) <= window]
        k = np.minimum(np.searchsorted(edges, d, side="right") - 1, edges.size - 2)
        counts += np.bincount(k, minlength=edges.size - 1)
    return counts


def histogram_matches_brute_force(counts: np.ndarray, t1: np.ndarray,
                                  t2: np.ndarray, window: float,
                                  bin_width: float) -> list[str]:
    """Correlator counts on a slice must equal the all-pairs histogram."""
    ref = brute_force_counts(t1, t2, window, bin_width)
    if counts.shape == ref.shape and np.array_equal(counts, ref):
        return []
    if counts.shape != ref.shape:
        return [f"histogram has {counts.size} bins, brute force {ref.size}"]
    bad = np.flatnonzero(counts != ref)
    return [f"histogram differs from brute force in {bad.size} bins "
            f"(first at bin {bad[0]}: {counts[bad[0]]} vs {ref[bad[0]]})"]


def stream_readback(simulated: dict, read: dict) -> list[str]:
    """Per channel, the times read from a stream CSV against the simulated
    ones: same count, each within READBACK_TOL plus one float spacing."""
    out = []
    for ch in sorted(simulated):
        sim_t, read_t = simulated[ch], read.get(ch, np.empty(0))
        if sim_t.size != read_t.size:
            out.append(f"channel {ch}: {read_t.size} events read back, "
                       f"{sim_t.size} simulated")
            continue
        err = np.abs(read_t - sim_t) - np.spacing(np.abs(sim_t))
        if err.size and err.max() > READBACK_TOL:
            i = int(np.argmax(err))
            out.append(f"channel {ch}: time {sim_t[i]!r} read back as "
                       f"{read_t[i]!r}")
    return out


def near_edge_pairs(t1: np.ndarray, t2: np.ndarray, window: float,
                    bin_width: float, tol: float) -> np.ndarray:
    """Per bin edge, the number of pairs whose delay t2 - t1 lies within tol
    of that edge.  Walks the k-th following neighbour of every t1, so memory
    stays O(len(t1)) whatever the number of pairs."""
    n_half = round(window / bin_width)
    near = np.zeros(2 * n_half + 1, dtype=np.int64)
    k = np.searchsorted(t2, t1 - window - tol, side="left")
    live = np.arange(t1.size)
    while live.size:
        live = live[k[live] < t2.size]
        d = t2[k[live]] - t1[live]
        inside = d <= window + tol
        live, d = live[inside], d[inside]
        edge = np.rint(d / bin_width)
        hit = np.abs(d - edge * bin_width) <= tol
        near += np.bincount((edge[hit] + n_half).astype(np.int64),
                            minlength=near.size)
        k[live] += 1
    return near


def rebuilt_histogram(rebuilt: np.ndarray, reference: np.ndarray,
                      near: np.ndarray) -> list[str]:
    """A histogram rebuilt from read-back streams against the one built from
    the simulated streams.  Bin k may differ only by the pairs whose delay
    lies near edge k or edge k + 1 (near from near_edge_pairs)."""
    if rebuilt.shape != reference.shape or near.size != reference.size + 1:
        return [f"rebuilt histogram has {rebuilt.size} bins, "
                f"reference {reference.size}"]
    allowed = near[:-1] + near[1:]
    bad = np.flatnonzero(np.abs(rebuilt - reference) > allowed)
    if bad.size == 0:
        return []
    k = bad[0]
    return [f"rebuilt histogram differs in {bad.size} bins beyond the "
            f"near-edge pairs (bin {k}: {rebuilt[k]} vs {reference[k]}, "
            f"{allowed[k]} near-edge pairs)"]


def lossless(written: dict, read: dict) -> list[str]:
    """A write->read round trip must return every time bit for bit."""
    out = []
    for ch in sorted(written):
        if not np.array_equal(written[ch], read.get(ch, np.empty(0))):
            out.append(f"channel {ch}: times changed in the round trip")
    return out
