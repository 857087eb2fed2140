"""Stochastic photon-stream generation.

Event-driven simulation of the pumped three-level emitter (ground state
pumped at w_p, radiative state decaying at gamma), under cw or pulsed
excitation, followed by a beam-splitter detection chain: per-photon detection
efficiency, 50/50 channel routing, Gaussian timing jitter, and independent
Poisson dark and background events per channel.

Pulsed emission has one sampler, exact for any gamma.  An event loop inverts
the periodic integrated pump hazard in closed form (Lewis & Shedler, Naval
Res. Logist. Q. 26, 403 (1979)) and skips idle pulses whole.  After _HANDOFF
emissions in a row that decayed inside their own pulse, it hands the pulses
from the next boundary it crosses in the ground state to a vectorized pass and
resumes at that pass's first spill-over (a decay at or past its pulse's end).
This is exact: a boundary crossed in the ground state is a regeneration point,
and the draws dropped after a spill-over are independent of all before it.

Everything is deterministic for a fixed SimConfig: all randomness descends
from numpy SeedSequence children of the config seed, with separate
sub-streams for emission, detection, and each channel's additive events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emitter import EmitterParams, PulseParams
from .errors import InvalidParameter

#: Pulse envelope shapes for the time-dependent pump rate.
PULSE_SHAPES = ("exponential", "rectangular")

#: Emissions in a row that decay inside their own pulse before the pulsed
#: event loop hands the following pulses to the vectorized pass.
_HANDOFF = 128

_BLOCK = 1 << 19


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated acquisition.

    pulse=None means cw pumping.  Rates are events/ns; duration in ns.
    dead_time reserves a per-channel detector dead time (default 0: off).
    """

    emitter: EmitterParams
    duration: float
    seed: int
    pulse: Optional[PulseParams] = None
    detection_efficiency: float = 1.0
    dark_rate_per_channel: float = 0.0
    background_rate: float = 0.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0
    pulse_shape: str = "exponential"

    def __post_init__(self):
        if not (self.duration > 0):
            raise InvalidParameter(f"duration must be > 0, got {self.duration}")
        if not (0.0 <= self.detection_efficiency <= 1.0):
            raise InvalidParameter("detection_efficiency must lie in [0, 1]")
        for name in ("dark_rate_per_channel", "background_rate",
                     "jitter_sigma", "dead_time"):
            if getattr(self, name) < 0:
                raise InvalidParameter(f"{name} must be >= 0")
        if self.pulse_shape not in PULSE_SHAPES:
            raise InvalidParameter(
                f"pulse_shape must be one of {PULSE_SHAPES}, got {self.pulse_shape!r}"
            )


@dataclass
class TimestampStream:
    """Sorted detection times (ns) of one channel over an acquisition."""

    channel: int
    times: np.ndarray
    duration: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.channel not in (1, 2):
            raise InvalidParameter(f"channel must be 1 or 2, got {self.channel}")
        if self.times.size:
            if np.any(np.diff(self.times) <= 0):
                raise InvalidParameter("times must be strictly increasing")
            if self.times[0] < 0 or self.times[-1] > self.duration:
                raise InvalidParameter("times must lie within [0, duration]")

    @property
    def rate(self) -> float:
        """Mean event rate in events/ns."""
        return self.times.size / self.duration


def _rng_children(seed: int, n: int):
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(c) for c in ss.spawn(n)]


def _cw_emissions(p: EmitterParams, duration: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Alternating Exp(w_p) pump waits and Exp(gamma) decay waits."""
    mean_cycle = 1.0 / p.w_p + 1.0 / p.gamma
    out = []
    t = 0.0
    start_excited = p.rho_e0 > 0 and rng.random() < p.rho_e0
    if start_excited:
        t = rng.exponential(1.0 / p.gamma)
        if t <= duration:
            out.append(np.array([t]))
        else:
            return np.empty(0)
    while t <= duration:
        n = max(64, int((duration - t) / mean_cycle * 1.1) + 16)
        waits = rng.exponential(1.0 / p.w_p, n) + rng.exponential(1.0 / p.gamma, n)
        times = t + np.cumsum(waits)
        keep = times <= duration
        out.append(times[keep])
        if not keep.all():
            break
        t = times[-1]
    return np.concatenate(out) if out else np.empty(0)


def _pulse_hazard_remaining(s, w0, pulse: PulseParams, shape: str):
    """Integrated pump hazard from in-pulse time s to the end of the period."""
    if shape == "exponential":
        return (w0 * pulse.tau_o / 2.0) * (
            np.exp(-2.0 * s / pulse.tau_o) - math.exp(-2.0 * pulse.period / pulse.tau_o)
        )
    return w0 * np.maximum(pulse.tau_o - s, 0.0)


def _pulse_invert_hazard(s, e, w0, pulse: PulseParams, shape: str):
    """In-pulse excitation time given elapsed hazard e from time s."""
    if shape == "exponential":
        arg = np.exp(-2.0 * s / pulse.tau_o) - 2.0 * e / (w0 * pulse.tau_o)
        return -(pulse.tau_o / 2.0) * np.log(arg)
    return s + e / w0


def _pulse_blocks(p: EmitterParams, pulse: PulseParams, shape: str, first: int,
                  n_pulses: int, rng: np.random.Generator):
    """Pulses first .. n_pulses - 1 side by side, in blocks of 1, 2, 4 .. _BLOCK.

    Returns the emission arrays and the first spill-over time (later pulses of
    its block are dropped), or inf if no pulse spilled over.
    """
    out, size = [], 1
    while first < n_pulses:
        nb = min(size, n_pulses - first)
        s, idx, cut = np.zeros(nb), np.arange(nb), nb
        times, owners = [], []
        while idx.size:
            e = rng.exponential(1.0, idx.size)
            excited = e < _pulse_hazard_remaining(s[idx], p.w_p, pulse, shape)
            idx, e = idx[excited], e[excited]
            t_em = (_pulse_invert_hazard(s[idx], e, p.w_p, pulse, shape)
                    + rng.exponential(1.0 / p.gamma, idx.size))
            times.append((first + idx) * pulse.period + t_em)
            owners.append(idx)
            within = t_em < pulse.period
            if not within.all():
                cut = min(cut, int(idx[~within][0]))
            keep = within & (idx < cut)
            idx = idx[keep]
            s[idx] = t_em[keep]
        out.append(np.sort(np.concatenate(times)[np.concatenate(owners) <= cut]))
        if cut < nb:
            return out, float(out[-1][-1])
        first, size = first + nb, min(2 * size, _BLOCK)
    return out, math.inf


def _pulsed_emissions(p: EmitterParams, pulse: PulseParams, shape: str,
                      duration: float, rng: np.random.Generator) -> np.ndarray:
    """The pulsed event loop, handing runs of pulses to _pulse_blocks."""
    h_full = float(_pulse_hazard_remaining(0.0, p.w_p, pulse, shape))
    if h_full <= 0:
        return np.empty(0)
    n_pulses = math.ceil(duration / pulse.period)
    out, run, t, streak = [], [], 0.0, 0
    excited = p.rho_e0 > 0 and rng.random() < p.rho_e0
    while t <= duration:
        if not excited:
            e = rng.exponential(1.0)
            phase = t % pulse.period
            h0 = float(_pulse_hazard_remaining(phase, p.w_p, pulse, shape))
            if e < h0:
                t += float(_pulse_invert_hazard(phase, e, p.w_p, pulse, shape)) - phase
            elif streak >= _HANDOFF:
                blocks, t = _pulse_blocks(p, pulse, shape, int(t // pulse.period) + 1,
                                          n_pulses, rng)
                out += [run, *blocks]
                run, streak = [], 0
                continue
            else:
                skip, e = divmod(e - h0, h_full)
                t += ((skip + 1) * pulse.period - phase
                      + float(_pulse_invert_hazard(0.0, e, p.w_p, pulse, shape)))
        k = t // pulse.period
        t += rng.exponential(1.0 / p.gamma)
        excited, streak = False, (streak + 1 if t // pulse.period == k else 0)
        run.append(t)
    emissions = np.concatenate(out + [run])
    return emissions[emissions <= duration]


def simulate_emission(cfg: SimConfig) -> np.ndarray:
    """Emission times (ns) of the emitter over the acquisition.

    cw: alternating exponential pump and decay waits.  Pulsed: the pump rate
    is modulated by the pulse envelope (one-sided exponential of width tau_o
    by default, rectangular as an option) restarting every period; the one
    sampler described in the module docstring is exact for any gamma, starts
    excited with probability rho_e0 and pumps the last partial pulse.
    """
    rng = _rng_children(cfg.seed, 5)[0]
    p = cfg.emitter
    if p.gamma == 0:
        return np.empty(0)
    if cfg.pulse is None:
        return _cw_emissions(p, cfg.duration, rng)
    return _pulsed_emissions(p, cfg.pulse, cfg.pulse_shape, cfg.duration, rng)


def _make_strict(times: np.ndarray) -> np.ndarray:
    """Sort and break exact ties so times are strictly increasing."""
    times = np.sort(times)
    if times.size < 2:
        return times
    while True:
        ties = np.flatnonzero(np.diff(times) <= 0)
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
    dark and background events of the configured per-channel rates.  Events
    jittered outside [0, duration] are dropped.
    """
    emissions = np.asarray(emissions, dtype=float)
    if emissions.size and np.any(np.diff(emissions) < 0):
        raise InvalidParameter("emissions must be sorted ascending")
    _, det_rng, ch1_rng, ch2_rng, jit_rng = _rng_children(cfg.seed, 5)

    kept = emissions[det_rng.random(emissions.size) < cfg.detection_efficiency]
    to_ch1 = det_rng.random(kept.size) < 0.5
    if cfg.jitter_sigma > 0 and kept.size:
        kept = kept + jit_rng.normal(0.0, cfg.jitter_sigma, kept.size)

    streams = []
    for channel, rng, mine in ((1, ch1_rng, to_ch1), (2, ch2_rng, ~to_ch1)):
        times = kept[mine]
        extra_rate = cfg.dark_rate_per_channel + cfg.background_rate / 2.0
        if extra_rate > 0:
            n_extra = rng.poisson(extra_rate * cfg.duration)
            times = np.concatenate([times, rng.uniform(0.0, cfg.duration, n_extra)])
        times = times[(times >= 0.0) & (times <= cfg.duration)]
        times = _make_strict(times)
        if cfg.dead_time > 0:
            times = _apply_dead_time(times, cfg.dead_time)
        streams.append(TimestampStream(channel=channel, times=times,
                                       duration=cfg.duration))
    return streams[0], streams[1]


def simulate_streams(cfg: SimConfig) -> tuple[TimestampStream, TimestampStream]:
    """Convenience: simulate emission and run the detection chain."""
    return detect_hbt(simulate_emission(cfg), cfg)


def pump_for_intensity_curve(powers, cfg: Optional[SimConfig], sat,
                             mode: str = "closed_form") -> list[tuple[float, float]]:
    """Fluorescence intensity (counts/s) versus excitation power (uW).

    The pump rate is linear in power, w_p = gamma * P / P_sat, so the emitter
    count rate saturates as A * P / (P + P_sat); a linear background beta * P
    is added on top.  mode='closed_form' evaluates the curve directly;
    mode='simulate' runs a cw acquisition per power and uses the detected
    count rate (cfg required; its detection efficiency is derived from sat.A).
    """
    powers = np.asarray(powers, dtype=float)
    if np.any(powers <= 0):
        raise InvalidParameter("powers must be > 0")
    if mode == "closed_form":
        intensity = sat.A * powers / (powers + sat.P_sat) + sat.beta * powers
        return list(zip(powers.tolist(), intensity.tolist()))
    if mode != "simulate":
        raise InvalidParameter(f"unknown mode {mode!r}")
    if cfg is None:
        raise InvalidParameter("simulate mode requires a SimConfig template")
    gamma = cfg.emitter.gamma
    eff = sat.A / (gamma * 1e9)
    if not (0 < eff <= 1.0):
        raise InvalidParameter(
            f"sat.A={sat.A} and gamma={gamma}/ns imply detection efficiency "
            f"{eff:.3g} outside (0, 1]"
        )
    out = []
    for i, power in enumerate(powers):
        w_p = gamma * power / sat.P_sat
        run = SimConfig(
            emitter=EmitterParams(w_p=w_p, gamma=gamma),
            duration=cfg.duration,
            seed=cfg.seed + i,
            detection_efficiency=eff,
            background_rate=sat.beta * power * 1e-9,
        )
        s1, s2 = simulate_streams(run)
        rate_cps = (s1.times.size + s2.times.size) / run.duration * 1e9
        out.append((float(power), float(rate_cps)))
    return out
