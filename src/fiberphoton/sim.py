"""Stochastic photon-stream generation.

Event-driven simulation of the pumped three-level emitter (ground state
pumped at w_p, radiative state decaying at gamma), under cw or pulsed
excitation, followed by a beam-splitter detection chain: per-photon detection
efficiency, 50/50 channel routing, Gaussian timing jitter, and independent
Poisson background events per channel, detector dark counts included.

Pulsed emission has one sampler, exact for any gamma.  A pulse boundary
crossed in the ground state is a regeneration point (Lewis & Shedler, Naval
Res. Logist. Q. 26, 403 (1979); Cox, Renewal Theory (1962)), so it cuts the
process into i.i.d. segments of whole pulses.  The sampler runs many
segments side by side, inverting the integrated pump hazard of a pulse in
closed form, and lays them end to end: a decay at or past its pulse's end
moves its segment, and every later one, on by whole pulses.

Everything is deterministic for a fixed SimConfig: all randomness descends
from numpy SeedSequence children of the config seed, with separate
sub-streams for emission, detection, and each channel's additive events.

Memory is bounded by the output, not by scratch copies of it.  Emission
writes into one buffer, which takes the rest of the acquisition in one step
once the running rate of emissions per pulse is known, and holds beyond it
only the arrays of one block's segments still running: a traced peak of 1.16
times its output at criterion 5 and 1.24 times at criterion 6.  Detection
never copies the caller's array and holds beyond it the two channel buffers
and two one-byte masks per emission.  Long draws are made in chunks of
_CHUNK, which consume each stream in the same order as one draw, so the
bytes do not depend on the chunking.  An acquisition whose expected
emissions and background events would not fit in physical memory is refused
before any generator is made; detection checks the emissions it is given in
the same way.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emitter import (EmitterParams, PulseParams, _pulse_hazard_remaining,
                      _pulse_invert_hazard, pulse_envelope)
from .errors import InvalidParameter, check_number

#: Most pulsed segments run side by side in one block.
_BLOCK = 1 << 16

#: Draws longer than this are made chunk by chunk into their destination.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated acquisition.

    pulse=None means cw pumping, else the pump follows the pulse train.
    Rates are events/ns; duration in ns; every number must be a real number,
    not a bool, inside its interval (the seed an integer >= 0).
    background_rate (all uncorrelated events, dark counts included) is split
    evenly between the channels; dead_time is per channel (default 0: off).
    """

    emitter: EmitterParams
    duration: float
    seed: int
    pulse: Optional[PulseParams] = None
    detection_efficiency: float = 1.0
    background_rate: float = 0.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self):
        check_number("duration", self.duration, 0, math.inf, "()")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise InvalidParameter(
                f"seed must be an integer >= 0, got {self.seed!r}")
        check_number("detection_efficiency", self.detection_efficiency, 0, 1)
        for name in ("background_rate", "jitter_sigma", "dead_time"):
            check_number(name, getattr(self, name), 0, math.inf, "[)")
        if self.emitter.g2_0 != 0:
            raise InvalidParameter(
                "the simulator models one ideal emitter, so emitter.g2_0 must "
                f"be 0, got {self.emitter.g2_0}; mix in background instead")

    @property
    def background_per_channel(self) -> float:
        """Half the total background rate, events/ns per channel."""
        return self.background_rate / 2.0

    @classmethod
    def from_dict(cls, d: dict) -> SimConfig:
        """Inverse of dataclasses.asdict (the simulate sidecar); fields with
        defaults may be left out.  A missing, unknown or ill-typed key raises
        InvalidParameter, which names every unknown key of a section."""
        try:
            pulse = d.get("pulse")
            for name, kind, section in [
                    ("simulate", cls, d),
                    ("simulate.emitter", EmitterParams, d["emitter"]),
                    ("simulate.pulse", PulseParams, pulse or {})]:
                unknown = sorted(section.keys() - kind.__dataclass_fields__.keys())
                if unknown:
                    raise InvalidParameter(f"unknown {name} config keys {unknown}")
            return cls(**{**d, "emitter": EmitterParams(**d["emitter"]),
                          "pulse": None if pulse is None else PulseParams(**pulse)})
        except KeyError as exc:
            raise InvalidParameter(f"simulate config lacks key {exc}") from None
        except (AttributeError, TypeError) as exc:
            raise InvalidParameter(f"bad simulate config: {exc}") from None


@dataclass(frozen=True)
class TimestampStream:
    """Sorted detection times (ns) of one channel over an acquisition.

    Immutable once checked: times is a read-only view of the given array, so
    the stream cannot be unsorted through it while the caller's array stays
    writable.  A NaN time or duration fails the checks.
    """

    channel: int
    times: np.ndarray
    duration: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).view()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if self.channel not in (1, 2):
            raise InvalidParameter(f"channel must be 1 or 2, got {self.channel}")
        check_number("duration", self.duration, 0, math.inf, "()")
        if self.times.size:
            if not np.all(self.times[1:] > self.times[:-1]):
                raise InvalidParameter("times must be strictly increasing")
            if not (self.times[0] >= 0 and self.times[-1] <= self.duration):
                raise InvalidParameter("times must lie within [0, duration]")

    @property
    def rate(self) -> float:
        """Mean event rate in events/ns."""
        return self.times.size / self.duration


def _rng_children(seed: int, n: int):
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(c) for c in ss.spawn(n)]


def _chunks(n: int):
    """(slice, length) pairs that cover range(n) in pieces of _CHUNK.  A draw
    per piece consumes a Generator exactly as one draw of n does."""
    return ((slice(i, i + _CHUNK), min(_CHUNK, n - i)) for i in range(0, n, _CHUNK))


def _bernoulli(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """rng.random(n) < p, with no float array of length n."""
    mask = np.empty(n, dtype=bool)
    for sl, m in _chunks(n):
        mask[sl] = rng.random(m) < p
    return mask


def _cw_emissions(p: EmitterParams, duration: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Alternating Exp(w_p) pump waits and Exp(gamma) decay waits."""
    mean_cycle = 1.0 / p.w_p + 1.0 / p.gamma
    out = []
    t = 0.0
    while t <= duration:
        n = max(64, int((duration - t) / mean_cycle * 1.1) + 16)
        times = rng.exponential(1.0 / p.w_p, n)
        for sl, m in _chunks(n):
            times[sl] += rng.exponential(1.0 / p.gamma, m)
        np.cumsum(times, out=times)
        times += t
        k = int(np.searchsorted(times, duration, side="right"))
        times.resize(k, refcheck=False)  # in place: no view of times is alive
        out.append(times)
        if k < n:
            break
        t = times[-1]
    return out[0] if len(out) == 1 else np.concatenate(out)


def _room(buf: np.ndarray, n: int, m: int, ahead: int = 0) -> np.ndarray:
    """buf, or when m values do not fit after its first n, a copy of those n
    into a buffer with room for max(m, ahead) more, grown by at least a
    quarter so that many small writes copy O(n) values in all.  The caller
    holds no other view of buf, so the old buffer is freed when the caller
    rebinds it."""
    if n + m <= buf.size:
        return buf
    grown = np.empty(max(n + m, n + ahead, buf.size + buf.size // 4))
    grown[:n] = buf[:n]
    return grown


def _pulsed_emissions(p: EmitterParams, pulse: PulseParams, h_full: float,
                      duration: float, rng: np.random.Generator) -> np.ndarray:
    """Segments laid end to end from t = 0, in blocks of 1, 2, 4 .. _BLOCK,
    written in time order into one buffer and returned as a slice up to
    duration.  h_full is the pump hazard of one whole pulse.

    Each segment of a block starts in the ground state at its own pulse
    boundary, so the first pass compares its draws with h_full and keeps no
    state for the pulses it leaves idle.  Later passes carry the segments
    still running as aligned arrays of index, draw and envelope value
    u = pulse_envelope(phase, tau_o), one exp per phase.  A decay at or past
    its pulse's end moves its segment on by k = t // period whole pulses, at
    phase t - k period; a segment ends when its draw finds no excitation in
    the rest of its pulse.  Emissions are written at
    (first + index + k) period + t, and once the block is done those of each
    segment move on by the cumsum of the pulses its earlier segments moved
    on, as does the next block.  Each block is sorted in place.  A full
    buffer grows by a quarter until 10 000 emissions fix the running rate of
    emissions per pulse within 4% (four Poisson standard errors), and then
    to hold the rest of the acquisition at that rate.
    """
    n_pulses = math.ceil(duration / pulse.period)
    buf, n, first, size = np.empty(0), 0, 0, 1
    while first < n_pulses:
        nb = min(size, n_pulses - first)
        rate = (n + 1) / (first + 1) * (1 + 4 / math.sqrt(n + 1))
        ahead = math.ceil((n_pulses - first) * rate) if n > 10_000 else 0
        start, owners, moved, pulses, k = n, [], [], [], 0.0
        e = rng.exponential(1.0, nb)
        idx = np.flatnonzero(e < h_full)
        e, u = e[idx], 1.0
        while idx.size:
            t_em = _pulse_invert_hazard(u, e, p.w_p, pulse)
            del e, u
            t_em += rng.exponential(1.0 / p.gamma, idx.size)
            buf = _room(buf, n, idx.size, ahead)
            row = buf[n:n + idx.size]
            np.add(idx, first, out=row)
            row += k
            row *= pulse.period
            row += t_em
            del row
            n += idx.size
            owners.append(idx)
            if t_em.max() >= pulse.period:
                spill, t_em = np.divmod(t_em, pulse.period)
                moved.append(idx[spill > 0])
                pulses.append(spill[spill > 0])
                k = k + spill
                del spill
            e = rng.exponential(1.0, idx.size)
            u = pulse_envelope(t_em, pulse.tau_o)
            del t_em
            excited = e < _pulse_hazard_remaining(u, p.w_p, pulse)
            idx = idx[excited]
            e = e[excited]
            u = u[excited]
            if moved:
                k = k[excited]
            del excited
        shift = 0
        if moved:
            moved, pulses = np.concatenate(moved), np.concatenate(pulses)
            order = np.argsort(moved)
            moved, pulses = moved[order], np.cumsum(pulses[order])
            shift = int(pulses[-1])
            pulses = np.append(0.0, pulses) * pulse.period
            buf[start:n] += pulses[np.searchsorted(moved, np.concatenate(owners))]
        del owners
        buf[start:n].sort()
        first, size = first + nb + shift, min(2 * size, _BLOCK)
    buf.resize(np.searchsorted(buf[:n], duration, side="right"), refcheck=False)
    return buf


def _check_memory(expected: float, what: str):
    """Raise InvalidParameter when 8 bytes per expected value exceed physical
    memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if 8 * expected > memory:
        raise InvalidParameter(
            f"the acquisition expects ~{expected:.3g} {what}, "
            f"{8 * expected / 1e9:.3g} GB, more than the "
            f"{memory / 1e9:.3g} GB of physical memory; shorten the duration")


def simulate_emission(cfg: SimConfig) -> np.ndarray:
    """Emission times (ns) of the emitter over the acquisition.

    cw: alternating exponential pump and decay waits.  Pulsed: the pump rate
    is modulated by the exponential envelope of cfg.pulse (width tau_o,
    emitter.pulse_envelope), restarting every period; the one sampler
    described in the module docstring is exact for any gamma and pumps the
    last partial pulse.  Both start in the ground state at t = 0.

    Raises InvalidParameter, before any generator is made, when 8 bytes per
    expected emission and per expected background event exceed physical
    memory, so that simulate_streams refuses the whole acquisition before it
    draws.  The expected emissions are duration / (1/w_p + 1/gamma) for cw.
    For pulsed they are min(ceil(duration / period) * h_full,
    gamma * duration) + 1, with h_full the pump hazard of one whole pulse:
    an emission needs an excitation, and its Exp(gamma) decay does not
    overlap the others.
    """
    p = cfg.emitter
    if p.gamma == 0:
        return np.empty(0)
    if cfg.pulse is None:
        expected = cfg.duration / (1.0 / p.w_p + 1.0 / p.gamma)
    else:
        h_full = float(_pulse_hazard_remaining(1.0, p.w_p, cfg.pulse))
        if h_full <= 0:
            return np.empty(0)
        expected = min(math.ceil(cfg.duration / cfg.pulse.period) * h_full,
                       p.gamma * cfg.duration) + 1
    _check_memory(expected + cfg.background_rate * cfg.duration,
                  "emissions and background events")
    rng = _rng_children(cfg.seed, 5)[0]
    if cfg.pulse is None:
        return _cw_emissions(p, cfg.duration, rng)
    return _pulsed_emissions(p, cfg.pulse, h_full, cfg.duration, rng)


def _make_strict(times: np.ndarray) -> np.ndarray:
    """Break exact ties of sorted times, in place, so they strictly increase."""
    while True:
        ties = np.flatnonzero(times[1:] <= times[:-1])
        if ties.size == 0:
            return times
        times[ties + 1] = np.nextafter(times[ties], np.inf)


def _apply_dead_time(times: np.ndarray, dead: float) -> np.ndarray:
    keep = np.ones(times.size, dtype=bool)
    last = -np.inf
    for i, t in enumerate(times):
        if t - last < dead:
            keep[i] = False
        else:
            last = t
    return times[keep]


def detect_hbt(emissions: np.ndarray,
               cfg: SimConfig) -> tuple[TimestampStream, TimestampStream]:
    """Pass emissions through the beam-splitter detection chain.

    Each emission is kept with probability detection_efficiency, routed 50/50
    to channel 1 or 2, smeared with Gaussian jitter, and merged with Poisson
    background events at background_per_channel in each channel.  Events
    (jittered or given) outside [0, duration] are dropped.  Exact ties are
    broken by moving each later copy up one ulp, so of a tie at duration
    only the first copy stays.

    Memory: the caller's array is read in chunks and never copied.  Beyond
    it, the peak is one buffer per channel, filled chunk by chunk and sorted
    in place (the streams before dead time), and two masks of one byte per
    emission: 1.3 times the two streams at criterion 5.  When 8 bytes per
    emission and per expected background event exceed physical memory, it
    raises InvalidParameter before any draw.
    """
    emissions = np.asarray(emissions, dtype=float)
    if np.any(emissions[1:] < emissions[:-1]):
        raise InvalidParameter("emissions must be sorted ascending")
    _check_memory(emissions.size + cfg.background_rate * cfg.duration,
                  "detected events")
    _, det_rng, ch1_rng, ch2_rng, jit_rng = _rng_children(cfg.seed, 5)

    keep = _bernoulli(det_rng, emissions.size, cfg.detection_efficiency)
    to_ch1 = _bernoulli(det_rng, int(np.count_nonzero(keep)), 0.5)
    n1 = int(np.count_nonzero(to_ch1))
    extra_rate = cfg.background_per_channel
    bufs = []
    for n, rng in ((n1, ch1_rng), (to_ch1.size - n1, ch2_rng)):
        n_extra = int(rng.poisson(extra_rate * cfg.duration)) if extra_rate > 0 else 0
        buf = np.empty(n + n_extra)
        for sl, m in _chunks(n_extra):
            buf[n:][sl] = rng.uniform(0.0, cfg.duration, m)
        bufs.append(buf)
    # The kept emissions, jittered, go to the fronts of the channel buffers.
    routed, filled = 0, [0, 0]
    for sl, _ in _chunks(emissions.size):
        part = emissions[sl][keep[sl]]
        if cfg.jitter_sigma > 0:
            part += jit_rng.normal(0.0, cfg.jitter_sigma, part.size)
        route = to_ch1[routed:routed + part.size]
        routed += part.size
        for i, mine in enumerate((part[route], part[~route])):
            bufs[i][filled[i]:filled[i] + mine.size] = mine
            filled[i] += mine.size
    del keep, to_ch1

    streams = []
    for channel in (1, 2):
        times = bufs.pop(0)
        times.sort()
        times = _make_strict(times[np.searchsorted(times, 0.0):
                                   np.searchsorted(times, cfg.duration, side="right")])
        times = times[:np.searchsorted(times, cfg.duration, side="right")]
        if cfg.dead_time > 0:
            times = _apply_dead_time(times, cfg.dead_time)
        streams.append(TimestampStream(channel=channel, times=times,
                                       duration=cfg.duration))
    return streams[0], streams[1]


def simulate_streams(cfg: SimConfig) -> tuple[TimestampStream, TimestampStream]:
    """Convenience: simulate emission and run the detection chain."""
    return detect_hbt(simulate_emission(cfg), cfg)
