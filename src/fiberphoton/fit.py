"""Damped least-squares fitting of the emitter and saturation models.

A small Levenberg-Marquardt engine (damped Gauss-Newton with a
multiplicative damping schedule and a forward-difference Jacobian) drives
three front ends: the cw antibunching dip, the background-mixed pulsed dip
with a fixed envelope width, and the power-saturation curve.  Parameter
uncertainties come from the covariance of the linearized problem at the
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .correlate import CoincidenceHistogram
from .emitter import (g2_background_mixed, g2_cw_reduced, g2_pulsed_mixed_model,
                      saturation_model)
from .errors import DegenerateInput, InvalidParameter, check_number

MAX_ITERATIONS = 200
STEP_TOL = 1e-9
GRAD_TOL = 1e-9
SSR_TOL = 1e-10
_FD_REL_STEP = 1e-6


@dataclass
class FitResult:
    """Named parameter estimates with 1-sigma uncertainties.

    sigmas are sqrt of the covariance diagonal of the linearized problem;
    an unidentifiable parameter gets sigma = inf and an 'unidentifiable:...'
    flag, and one that ends exactly on a finite bound an 'at-bound:...' flag.
    residual_norm is the (weighted) sum of squared residuals.
    """

    params: dict
    sigmas: dict
    residual_norm: float
    converged: bool
    iterations: int
    flags: list = field(default_factory=list)


def finite_difference_jacobian(residual: Callable, p: np.ndarray,
                               r0: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward-difference Jacobian of a residual vector function."""
    p = np.asarray(p, dtype=float)
    if r0 is None:
        r0 = residual(p)
    J = np.empty((r0.size, p.size))
    for j in range(p.size):
        h = _FD_REL_STEP * max(abs(p[j]), 1.0)
        pj = p.copy()
        pj[j] += h
        J[:, j] = (residual(pj) - r0) / h
    return J


def _clip(p: np.ndarray, bounds) -> np.ndarray:
    lo, hi = bounds
    return np.minimum(np.maximum(p, lo), hi)


def levenberg_marquardt(residual: Callable, p0: Sequence[float],
                        bounds=None, max_iter: int = MAX_ITERATIONS):
    """Minimize ||residual(p)||^2 by damped Gauss-Newton iteration.

    The normal equations are damped as (J^T J + lam * diag(J^T J)) dp = -J^T r
    with lam decreased on accepted steps and increased on rejected ones, so
    accepted iterations never raise the residual norm.  Parameters are kept
    inside the (lo, hi) box by clipping trial steps.

    Returns (p, cov, ssr, converged, iterations).
    """
    p = np.asarray(p0, dtype=float).copy()
    if bounds is None:
        bounds = (np.full(p.size, -np.inf), np.full(p.size, np.inf))
    else:
        bounds = (np.asarray(bounds[0], dtype=float),
                  np.asarray(bounds[1], dtype=float))
    p = _clip(p, bounds)
    r = residual(p)
    if not np.all(np.isfinite(r)):
        raise InvalidParameter("residual is not finite at the starting point")
    ssr = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        J = finite_difference_jacobian(residual, p, r)
        g = J.T @ r
        # Freeze parameters pinned at a bound whose gradient pushes outward;
        # solving the reduced system keeps the damped step consistent for
        # the remaining parameters instead of being corrupted by clipping.
        pinned = ((p <= bounds[0]) & (g > 0)) | ((p >= bounds[1]) & (g < 0))
        free = ~pinned
        if not free.any() or np.linalg.norm(g[free], ord=np.inf) < GRAD_TOL:
            converged = True
            break
        Jf = J[:, free]
        gf = g[free]
        JtJ = Jf.T @ Jf
        diag = np.diag(JtJ).copy()
        diag[diag == 0] = 1.0
        accepted = False
        for _ in range(50):
            try:
                dpf = np.linalg.solve(JtJ + lam * np.diag(diag), -gf)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            dp = np.zeros_like(p)
            dp[free] = dpf
            p_try = _clip(p + dp, bounds)
            r_try = residual(p_try)
            ssr_try = float(r_try @ r_try)
            if np.isfinite(ssr_try) and ssr_try <= ssr:
                rel_step = np.max(np.abs(p_try - p) / np.maximum(np.abs(p), 1.0))
                improvement = ssr - ssr_try
                p, r, ssr = p_try, r_try, ssr_try
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                # Stop on a negligible step or a negligible SSR gain (the
                # latter catches parameters pinned at a bound, where the
                # gradient never vanishes).
                if rel_step < STEP_TOL or improvement <= SSR_TOL * max(ssr, 1e-300):
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            # Damping saturated: gradient step no longer improves.
            converged = True
            break
        if converged:
            break

    J = finite_difference_jacobian(residual, p, r)
    cov = _covariance(J, r)
    return p, cov, ssr, converged, it


def _covariance(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Covariance of the linearized problem, scaled by the reduced
    chi-square SSR/dof."""
    JtJ = J.T @ J
    n, k = J.shape
    dof = max(n - k, 1)
    try:
        cov = np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(JtJ)
        bad = np.diag(JtJ) <= np.finfo(float).eps * np.max(np.diag(JtJ))
        cov[bad, :] = np.inf
        cov[:, bad] = np.inf
    return cov * (float(r @ r) / dof)


def least_squares_engine(model: Callable, xdata, ydata, initial_params,
                         bounds=None, sigma=None,
                         param_names: Optional[Sequence[str]] = None,
                         max_iter: int = MAX_ITERATIONS) -> FitResult:
    """Fit model(x, *params) to (xdata, ydata) by damped least squares.

    sigma, when given, weights residuals as (y - model)/sigma.  It sets the
    relative weights only: the covariance is always rescaled by the reduced
    chi-square SSR/dof, so the reported uncertainties follow the scatter about
    the fit and do not change when every sigma is multiplied by one factor
    (scipy's curve_fit with absolute_sigma=False).
    """
    xdata = np.asarray(xdata, dtype=float)
    ydata = np.asarray(ydata, dtype=float)
    if not (np.all(np.isfinite(xdata)) and np.all(np.isfinite(ydata))):
        raise InvalidParameter("data must be finite")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise InvalidParameter("sigma values must be > 0")
        weights = 1.0 / sigma
    else:
        weights = np.ones_like(ydata)

    def residual(p):
        return (model(xdata, *p) - ydata) * weights

    p, cov, ssr, converged, iterations = levenberg_marquardt(
        residual, initial_params, bounds=bounds, max_iter=max_iter
    )
    if param_names is None:
        param_names = [f"p{i}" for i in range(len(p))]
    variances = np.diag(cov)
    sigmas = np.sqrt(np.maximum(variances, 0.0))
    sigmas[~np.isfinite(variances)] = np.inf
    flags = []
    for name, s, v in zip(param_names, sigmas, variances):
        if not np.isfinite(v) or v > 1e12 * max(ssr, 1e-300):
            flags.append(f"unidentifiable:{name}")
    if bounds is not None:
        flags += [f"at-bound:{name}" for name, v, lo, hi
                  in zip(param_names, p, *bounds) if v in (lo, hi)]
    if not converged:
        flags.append("max-iterations")
    return FitResult(
        params=dict(zip(param_names, (float(v) for v in p))),
        sigmas=dict(zip(param_names, (float(s) for s in sigmas))),
        residual_norm=float(ssr),
        converged=converged,
        iterations=iterations,
        flags=flags,
    )


def check_fit_halfwidth(fit_halfwidth: Optional[float]):
    """Raise InvalidParameter unless fit_halfwidth is None or a number in
    (0, inf] (a NaN or non-positive half-width would select no bin)."""
    if fit_halfwidth is not None:
        check_number("fit_halfwidth", fit_halfwidth, 0, math.inf, "(]")


def _normalized(h: CoincidenceHistogram, model: str,
                fit_halfwidth: Optional[float]):
    """(tau, g2, err) of a histogram normalized for model, restricted to
    |tau| <= fit_halfwidth when it is given; err may be None."""
    check_fit_halfwidth(fit_halfwidth)
    if h.total_pairs == 0:
        raise DegenerateInput("histogram holds no coincidence pairs to fit; "
                              "widen the window or lengthen the acquisition")
    if h.norm is None:
        raise InvalidParameter("histogram must be normalized before fitting")
    if h.normalization not in (None, model):
        raise InvalidParameter(
            f"a {model} fit needs a {model}-normalized histogram, not a "
            f"{h.normalization}-normalized one (`fiberphoton pipeline` with "
            f"a pulsed fit section writes a pulsed-normalized histogram)")
    tau, y, err = h.centers, h.norm, h.norm_err
    if fit_halfwidth is not None:
        sel = np.abs(tau) <= fit_halfwidth
        tau, y = tau[sel], y[sel]
        err = err[sel] if err is not None else None
    if tau.size < 10:
        raise InvalidParameter(f"need at least 10 bins to fit, got {tau.size}")
    return tau, y, err


def _flat_histogram(y, err) -> bool:
    scale = np.median(err) if err is not None else np.std(y)
    return float(np.max(y) - np.min(y)) < 3.0 * max(scale, 1e-12)


def _with_dip_width(result: FitResult) -> FitResult:
    """Add the dip width 2/w_p and its propagated sigma to a g2 fit."""
    w = result.params["w_p"]
    sw = result.sigmas["w_p"]
    result.params["two_over_wp"] = 2.0 / w
    result.sigmas["two_over_wp"] = 2.0 * sw / w**2 if np.isfinite(sw) else np.inf
    return result


def fit_g2_cw(h: CoincidenceHistogram,
              fit_halfwidth: Optional[float] = None) -> FitResult:
    """Fit the reduced cw dip 1 - (1 - g2_0) exp(-w_p |tau|).

    Reports g2_0 and w_p (plus the derived dip width 2/w_p).  The reported
    w_p is the dip rate w_p + gamma, equal to the pump rate only when
    gamma << w_p.  A flat histogram leaves w_p unidentifiable and is flagged
    'degenerate-data'.
    """
    tau, y, err = _normalized(h, "cw", fit_halfwidth)

    flat = _flat_histogram(y, err)
    g0_init = float(np.clip(np.min(y), 0.0, 1.4))
    if flat:
        wp_init = 1.0
    else:
        # Half-recovery delay of the dip sets the initial rate.
        depth = 1.0 - g0_init
        below = np.abs(tau)[y < 1.0 - 0.5 * depth]
        half_width = float(np.max(below)) if below.size else h.bin_width
        wp_init = np.log(2.0) / max(half_width, h.bin_width / 2.0)
    result = least_squares_engine(
        lambda x, g0, wp: g2_cw_reduced(g0, wp, x), tau, y,
        [g0_init, wp_init], bounds=([0.0, 1e-9], [1.5, np.inf]),
        sigma=err, param_names=["g2_0", "w_p"],
        max_iter=50 if flat else MAX_ITERATIONS,
    )
    if flat:
        result.flags.append("degenerate-data")
    return _with_dip_width(result)


def fit_g2_pulsed(h: CoincidenceHistogram, tau_o_fixed: float,
                  fit_halfwidth: Optional[float] = None) -> FitResult:
    """Fit the background-mixed pulsed dip with the envelope width held fixed.

    Reports rho, g2_0 and w_p (plus 2/w_p).  tau_o_fixed must be a number in
    (0, inf).  fit_halfwidth restricts the fit to |tau| <= fit_halfwidth,
    e.g. to exclude neighboring pulse peaks.
    """
    check_number("tau_o_fixed", tau_o_fixed, 0, math.inf, "()")
    tau, y, err = _normalized(h, "pulsed", fit_halfwidth)

    floor = float(np.median(y[np.abs(tau) > 5.0 * tau_o_fixed])) \
        if np.any(np.abs(tau) > 5.0 * tau_o_fixed) else float(np.min(y))
    rho_init = float(np.sqrt(np.clip(1.0 - floor, 1e-4, 1.0)))
    g0_init = 0.1
    wp_init = 2.0 / tau_o_fixed
    result = least_squares_engine(
        lambda x, rho, g0, wp: g2_pulsed_mixed_model(x, rho, g0, wp, tau_o_fixed),
        tau, y, [rho_init, g0_init, wp_init],
        bounds=([0.0, 0.0, 1e-9], [1.0, 1.5, np.inf]),
        sigma=err, param_names=["rho", "g2_0", "w_p"],
    )
    result = _with_dip_width(result)
    result.params["g2_exp_0"] = g2_background_mixed(result.params["g2_0"],
                                                    result.params["rho"])
    return result


def fit_saturation(data, sigma=None) -> FitResult:
    """Fit I(P) = A*P/(P+P_sat) + beta*P to (power, intensity) points.

    sigma, when given, holds per-point intensity errors (same order as data)
    and weights the fit; count-proportional errors noticeably sharpen P_sat.
    Reports A, P_sat, beta; flags 'non-identifiable' when all powers sit far
    below the fitted saturation power.  The background-subtracted emitter
    curve is A*P/(P+P_sat) with the fitted parameters.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise InvalidParameter("data must be a sequence of (power, intensity)")
    powers, intensity = data[:, 0], data[:, 1]
    if np.unique(powers).size < 4:
        raise InvalidParameter("need at least 4 distinct powers")
    order = np.argsort(powers)
    powers, intensity = powers[order], intensity[order]
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)[order]

    # High-power tail is ~A + beta*P: slope gives beta, intercept gives A.
    k = max(2, powers.size // 3)
    slope, icept = np.polyfit(powers[-k:], intensity[-k:], 1)
    beta0 = max(slope, 0.0)
    A0 = max(icept, 0.1 * float(np.max(intensity)))
    sub = intensity - beta0 * powers
    half = np.flatnonzero(sub >= 0.5 * np.max(sub))
    P0 = float(powers[half[0]]) if half.size else float(np.median(powers))

    result = least_squares_engine(
        saturation_model, powers, intensity, [A0, max(P0, 1e-6), beta0],
        bounds=([1e-12, 1e-12, 0.0], [np.inf, np.inf, np.inf]),
        sigma=sigma, param_names=["A", "P_sat", "beta"],
    )
    # A saturation power well beyond the sampled range means the curvature
    # that pins it down was never measured.
    if result.params["P_sat"] > 3.0 * float(np.max(powers)):
        result.flags.append("non-identifiable")
    return result
