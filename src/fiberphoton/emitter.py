"""Closed-form three-level emitter model.

Population dynamics of a pumped emitter that starts in its ground state
(pumped at rate w_p into a radiative state that decays at rate gamma) and the
steady-state second-order autocorrelation curves derived from it: the cw dip,
the pulse envelope exp(-2|tau|/tau_o), its pump hazard and the pulsed dip,
their background mix, and the pulse-integrated zero-delay value; plus the
power-saturation law, whose A, P_sat and beta are plain numbers that
fit.fit_saturation recovers from a measured table.  All rates are in 1/ns and all times in ns; a
millisecond-scale radiative lifetime is simply gamma = 1e-6 /ns.

Each curve is written here only.  The functions accept scalar or ndarray time
arguments and are pure, so they serve as the fit models, the pulsed
normalization's envelope and ground truth for the stochastic simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParameter, check_number

#: Documented default radiative decay rate (1/ns): lifetime ~1 ms.
DEFAULT_GAMMA = 1e-6


@dataclass(frozen=True)
class EmitterParams:
    """Rate-equation parameters of the emitter.

    w_p     -- effective pump rate, ground -> radiative state (1/ns)
    gamma   -- spontaneous decay rate of the radiative state (1/ns)
    g2_0    -- residual autocorrelation at zero delay, in [0, 1]
    """

    w_p: float
    gamma: float = DEFAULT_GAMMA
    g2_0: float = 0.0

    def __post_init__(self):
        check_number("w_p", self.w_p, 0, math.inf, "()")
        check_number("gamma", self.gamma, 0, math.inf, "[)")
        check_number("g2_0", self.g2_0, 0, 1)

    @property
    def total_rate(self) -> float:
        return self.w_p + self.gamma

    @property
    def steady_state(self) -> float:
        """Steady-state excited population w_p / (w_p + gamma)."""
        return self.w_p / (self.w_p + self.gamma)


@dataclass(frozen=True)
class PulseParams:
    """Pump pulse train of envelope exp(-2|tau|/tau_o): width tau_o, period (ns)."""

    tau_o: float
    period: float

    def __post_init__(self):
        check_number("tau_o", self.tau_o, 0, math.inf, "()")
        check_number("period", self.period, self.tau_o, math.inf, "()")


def excited_population(p: EmitterParams, tau):
    """Excited-state population rho_e(tau) for tau >= 0, from the ground state
    at tau = 0:

    rho_e(tau) = ss * (1 - exp(-(w_p+gamma) tau)),  ss = w_p / (w_p + gamma).
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise InvalidParameter("tau must be >= 0")
    out = p.steady_state * (1.0 - np.exp(-p.total_rate * tau))
    return out if out.ndim else float(out)


def g2_cw(p: EmitterParams, tau):
    """Continuous-wave autocorrelation, evaluated symmetrically at |tau|:

    g2(tau) = 1 - (1 - g2_0) * exp(-(w_p + gamma) |tau|)
    """
    return g2_cw_reduced(p.g2_0, p.total_rate, tau)


def g2_cw_reduced(g2_0: float, w_p: float, tau):
    """Reduced cw fit model 1 - (1 - g2_0) exp(-w_p |tau|).

    This is the form used to fit measured cw histograms, and 2/w_p is the
    antibunching dip width.  A fitted w_p is the dip rate w_p + gamma of
    g2_cw, so it equals the pump rate only when gamma << w_p.
    """
    tau = np.abs(np.asarray(tau, dtype=float))
    out = 1.0 - (1.0 - g2_0) * np.exp(-w_p * tau)
    return out if out.ndim else float(out)


def pulse_envelope(tau, tau_o: float):
    """Exponential pulse envelope exp(-2|tau|/tau_o) of the pulsed g2."""
    return np.exp(-2.0 * np.abs(tau) / tau_o)


# The pulsed sampler's pump hazard, of rate w0 * u at in-pulse time s >= 0,
# where u = pulse_envelope(s, tau_o) is the value that the sampler carries.
# The streams' bytes rest on np.exp for u and math.exp of the period term,
# which can differ from np.exp in the last bit: keep both.
def _pulse_hazard_remaining(u, w0, pulse: PulseParams):
    """Integrated pump hazard from envelope value u to the end of the period."""
    return (w0 * pulse.tau_o / 2.0) * (
        u - math.exp(-2.0 * pulse.period / pulse.tau_o))


def _pulse_invert_hazard(u, e, w0, pulse: PulseParams):
    """In-pulse excitation time given elapsed hazard e from envelope value u."""
    return -(pulse.tau_o / 2.0) * np.log(u - 2.0 * e / (w0 * pulse.tau_o))


def g2_pulsed(p: EmitterParams, pulse: PulseParams, tau):
    """Pulsed autocorrelation: exponential pulse envelope times the reduced dip,
    which is g2_pulsed_mixed_model with no background (rho = 1):

    g2(tau) = exp(-2 tau / tau_o) * [1 - (1 - g2_0) exp(-w_p tau)],  tau >= 0.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise InvalidParameter("tau must be >= 0 for the pulsed model")
    out = g2_pulsed_mixed_model(tau, 1.0, p.g2_0, p.w_p, pulse.tau_o)
    return out if out.ndim else float(out)


def g2_pulsed_mixed_model(tau, rho, g2_0, w_p, tau_o):
    """Background-mixed pulsed dip evaluated at |tau|:

    1 - rho^2 + rho^2 * exp(-2|tau|/tau_o) * [1 - (1 - g2_0) exp(-w_p |tau|)]
    """
    return 1.0 - rho**2 + rho**2 * pulse_envelope(tau, tau_o) * g2_cw_reduced(
        g2_0, w_p, tau)


def g2_background_mixed(g2, rho: float):
    """Mix an emitter autocorrelation with Poissonian background, where
    rho = I_em / (I_em + I_bg) in [0, 1] is the emitter-to-total intensity:

    g2_exp = 1 - rho^2 + rho^2 * g2
    """
    check_number("rho", rho, 0, 1)
    g2 = np.asarray(g2, dtype=float)
    if np.any(g2 < 0):
        raise InvalidParameter("g2 must be >= 0")
    out = 1.0 - rho**2 + rho**2 * g2
    return out if out.ndim else float(out)


def g2_integrated_zero(p: EmitterParams, pulse: PulseParams) -> float:
    """Pulse-integrated zero-delay autocorrelation:

    g2_int(0) = 1 - (1 + w_p tau_o / 2)^-1 * (1 - g2_0)
    """
    return 1.0 - (1.0 - p.g2_0) / (1.0 + p.w_p * pulse.tau_o / 2.0)


def pump_rate_from_integrated(g2_int: float, g2_0: float, tau_o: float) -> float:
    """Recover the dip width 2/w_p from the integrated zero-delay value:

    2/w_p = tau_o * (1 - g2_int) / (g2_int - g2_0)

    Exact algebraic inverse of g2_integrated_zero.
    """
    check_number("tau_o", tau_o, 0, math.inf, "()")
    if g2_int <= g2_0:
        raise DegenerateInput(
            f"g2_int ({g2_int}) must exceed g2_0 ({g2_0}) to invert"
        )
    return tau_o * (1.0 - g2_int) / (g2_int - g2_0)


def saturation_model(power, A, P_sat, beta):
    """Saturating emitter plus linear background: A*P/(P+P_sat) + beta*P."""
    power = np.asarray(power, dtype=float)
    return A * power / (power + P_sat) + beta * power
