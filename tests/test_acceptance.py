"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria 5 and 6 reproduce the pulsed-measurement statistics at desk scale:
the detected throughput is raised (with the per-pulse occupancy kept well
below one and the signal-to-background ratio rho preserved) so that the
required coincidence counts accumulate within seconds instead of the days a
kHz-rate acquisition would need.  See notes on the run configurations in the
repository history.
"""

import json
import time

import numpy as np
import pytest

from conftest import record_criterion, trapezoid
from fiberphoton.cli import main as cli_main
from fiberphoton.correlate import (
    background_coincidence_rate,
    cross_correlate,
    integrate_peaks,
    normalize_pulsed,
)
from fiberphoton.emitter import (
    EmitterParams,
    PulseParams,
    g2_pulsed,
    g2_integrated_zero,
    pump_rate_from_integrated,
)
from fiberphoton.fit import (
    finite_difference_jacobian,
    fit_g2_pulsed,
    fit_saturation,
    g2_pulsed_mixed_model,
    saturation_model,
)
from fiberphoton.geometry import (
    channeling_efficiency,
    confinement_efficiency,
    confinement_efficiency_sampled,
    critical_offset,
    tir_area_fraction,
    wgm_mode_numbers,
)
from fiberphoton.emitter import g2_cw_reduced
from fiberphoton.sim import SimConfig, detect_hbt, simulate_emission


def test_criterion_1_geometry_exactness():
    t0 = time.time()
    ok = True
    ok &= abs(channeling_efficiency(1.45) - 0.3103) < 1e-4 + 5e-5
    ok &= abs(critical_offset(1.0, 1.45) - 0.6897) < 1e-3  # r_c/a at a = 1
    ok &= abs(tir_area_fraction(1.45) - 0.5244) < 1e-3
    ok &= wgm_mode_numbers(1.0, 1.0, 1.45) == range(13, 19)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    record_criterion(1, bool(ok),
                     f"channeling/critical-offset/area/modes exact, {elapsed:.2f}s")
    assert ok


def test_criterion_2_confinement_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = rng.uniform(1.1, 2.0)
        r = rng.uniform(0.0, 1.0)
        delta = abs(confinement_efficiency(n, r)
                    - confinement_efficiency_sampled(n, r, num=200_000))
        worst = max(worst, delta)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 10.0
    record_criterion(2, ok,
                     f"closed form vs sampling oracle, max |delta|={worst:.2e}, "
                     f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_integrated_g2_self_consistency():
    t0 = time.time()
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        p = EmitterParams(w_p=rng.uniform(0.01, 1.0), g2_0=rng.uniform(0.0, 0.5))
        tau_o = rng.uniform(2.0, 10.0)
        pulse = PulseParams(tau_o=tau_o, period=100.0 * tau_o)
        tau = np.linspace(0.0, 40.0 * tau_o, 100_001)
        numeric = (trapezoid(g2_pulsed(p, pulse, tau), tau)
                   / trapezoid(np.exp(-2.0 * tau / tau_o), tau))
        worst = max(worst, abs(g2_integrated_zero(p, pulse) - numeric))
    width = pump_rate_from_integrated(0.31, 0.1, 6.0)
    elapsed = time.time() - t0
    ok = worst < 1e-3 and abs(width - 19.7) < 0.05 and 4.0 < width < 32.0
    ok = ok and elapsed < 5.0
    record_criterion(3, bool(ok),
                     f"closed form vs integration, max |delta|={worst:.2e}; "
                     f"inverted dip width {width:.1f} ns; {elapsed:.1f}s")
    assert ok


def test_criterion_4_correlator_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(44)

    def brute_force(t1, t2, window, edges):
        counts = np.zeros(edges.size - 1, dtype=np.int64)
        for i in range(0, t1.size, 256):
            d = (t2[None, :] - t1[i:i + 256, None]).ravel()
            d = d[np.abs(d) <= window]
            c, _ = np.histogram(d, bins=edges)
            counts += c.astype(np.int64)
        return counts

    from fiberphoton.sim import TimestampStream

    all_exact = True
    n_streams = 0
    for trial in range(100):
        duration = float(rng.uniform(1e4, 1e5))
        if trial < 2:
            n1 = n2 = 10_000
        else:
            n1 = int(rng.integers(10, 3000))
            n2 = int(rng.integers(10, 3000))
        t1 = np.unique(rng.uniform(0, duration, n1))
        t2 = np.unique(rng.uniform(0, duration, n2))
        s1 = TimestampStream(channel=1, times=t1, duration=duration)
        s2 = TimestampStream(channel=2, times=t2, duration=duration)
        n_streams += 2
        window = float(rng.uniform(10.0, 200.0))
        bw = float(rng.choice([0.5, 1.0, 2.5]))
        h = cross_correlate(s1, s2, window=window, bin_width=bw,
                            n_chunks=int(rng.choice([1, 2, 5])))
        if not np.array_equal(h.counts, brute_force(t1, t2, window, h.bin_edges)):
            all_exact = False
            break
    elapsed = time.time() - t0
    ok = all_exact and elapsed < 30.0
    record_criterion(4, ok,
                     f"sweep equals all-pairs brute force on {n_streams} streams, "
                     f"{elapsed:.1f}s")
    assert ok


def _pulsed_run(seed, w_p, gamma, rho, duration):
    """Shared pulsed pipeline: emit, add background at the rate that realizes
    the requested signal fraction rho, and detect."""
    pulse = PulseParams(tau_o=6.0, period=100.0)
    emitter = EmitterParams(w_p=w_p, gamma=gamma)
    cfg = SimConfig(emitter=emitter, pulse=pulse, duration=duration, seed=seed)
    em = simulate_emission(cfg)
    r_sig = em.size / duration
    bg_rate = r_sig * (1.0 - rho) / rho
    cfg_bg = SimConfig(emitter=emitter, pulse=pulse, duration=duration,
                       seed=seed, background_rate=bg_rate)
    s1, s2 = detect_hbt(em, cfg_bg)
    return s1, s2, r_sig, bg_rate


def test_criterion_5_pulsed_rho_recovery():
    t0 = time.time()
    rho_true = 0.92
    hits = 0
    n_runs = 20
    min_pairs = None
    for seed in range(n_runs):
        s1, s2, r_sig, bg_rate = _pulsed_run(seed, w_p=1.3, gamma=2.0,
                                             rho=rho_true, duration=1e8)
        h = cross_correlate(s1, s2, window=450.0, bin_width=1.0)
        min_pairs = h.total_pairs if min_pairs is None else min(min_pairs,
                                                                h.total_pairs)
        hn = normalize_pulsed(h, period=100.0, tau_o=6.0,
                              signal_rates=(r_sig / 2, r_sig / 2),
                              background_rates=(bg_rate / 2, bg_rate / 2))
        res = fit_g2_pulsed(hn, tau_o_fixed=6.0, fit_halfwidth=49.0)
        rho_fit = res.params["rho"]
        g2_exp_0 = res.params["g2_exp_0"]
        if (res.converged and abs(rho_fit - rho_true) <= 0.03
                and 0.1 <= g2_exp_0 <= 0.3):
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 18 and min_pairs >= 10_000 and elapsed < 300.0
    record_criterion(5, bool(ok),
                     f"rho within 0.92+-0.03 and g2_exp(0) in 0.2+-0.1 in "
                     f"{hits}/{n_runs} runs (>=10^4 pairs each), {elapsed:.0f}s")
    assert ok


def test_criterion_6_peak_integrated_g2():
    t0 = time.time()
    hits = 0
    n_runs = 20
    for seed in range(n_runs):
        s1, s2, r_sig, bg_rate = _pulsed_run(seed, w_p=0.08, gamma=0.15,
                                             rho=0.64, duration=2e8)
        h = cross_correlate(s1, s2, window=1000.0, bin_width=1.0)
        bg_bin = background_coincidence_rate(r_sig / 2, bg_rate / 2, 1.0, 2e8)
        pk = integrate_peaks(h, period=100.0, peak_halfwidth=17.5,
                             background_per_bin=bg_bin)
        if 0.24 <= pk.g2_int <= 0.38:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 16 and elapsed < 300.0
    record_criterion(6, bool(ok),
                     f"background-subtracted g2_int in 0.31+-0.07 in "
                     f"{hits}/{n_runs} runs, {elapsed:.0f}s")
    assert ok


def test_criterion_7_saturation_fit():
    t0 = time.time()
    hits = 0
    n_trials = 100
    # Log-spaced powers straddling P_sat, as a saturation measurement would
    # choose them; 5% proportional noise weighted into the fit.
    powers = np.geomspace(0.03, 20.0, 12)
    truth = saturation_model(powers, 1500.0, 0.54, 50.0)
    for seed in range(n_trials):
        rng = np.random.default_rng(700 + seed)
        noisy = truth * rng.normal(1.0, 0.05, powers.size)
        res = fit_saturation(np.column_stack([powers, noisy]),
                             sigma=0.05 * np.abs(noisy))
        if res.converged and abs(res.params["P_sat"] - 0.54) <= 0.15 * 0.54:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 95 and elapsed < 30.0
    record_criterion(7, ok,
                     f"P_sat within 15% in {hits}/{n_trials} noisy trials, "
                     f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(88)
    x = np.linspace(0.1, 20.0, 50)
    models = [
        (lambda t, p: g2_cw_reduced(p[0], p[1], t),
         lambda: [rng.uniform(0.05, 0.5), rng.uniform(0.1, 1.0)]),
        (lambda t, p: g2_pulsed_mixed_model(t, p[0], p[1], p[2], 6.0),
         lambda: [rng.uniform(0.3, 0.95), rng.uniform(0.05, 0.5),
                  rng.uniform(0.1, 1.0)]),
        (lambda t, p: saturation_model(t, p[0], p[1], p[2]),
         lambda: [rng.uniform(500, 2000), rng.uniform(0.2, 2.0),
                  rng.uniform(10, 200)]),
    ]
    worst = 0.0
    for model, draw in models:
        for _ in range(100):
            p = np.array(draw())

            def residual(q):
                return model(x, q)

            J = finite_difference_jacobian(residual, p)
            Jc = np.empty_like(J)
            for j in range(p.size):
                h = 0.5e-6 * max(abs(p[j]), 1.0)
                pp, pm = p.copy(), p.copy()
                pp[j] += h
                pm[j] -= h
                Jc[:, j] = (residual(pp) - residual(pm)) / (2 * h)
            rel = np.linalg.norm(J - Jc) / np.linalg.norm(Jc)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    record_criterion(8, ok,
                     f"forward vs half-step central Jacobian, max rel err "
                     f"{worst:.1e} at 100 points per model, {elapsed:.1f}s")
    assert ok


def test_criterion_9_pipeline_determinism(tmp_path):
    config = {
        "simulate": {
            "emitter": {"w_p": 0.2, "gamma": 0.4},
            "duration": 2e6,
            "seed": 99,
        },
        "correlate": {"window": 100.0, "bin_width": 1.0},
        "fit": {"model": "cw"},
    }
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(json.dumps(config))

    outputs = {}
    for workers in (1, 2, 8):
        for attempt in ("a", "b"):
            out = tmp_path / f"w{workers}{attempt}"
            code = cli_main(["pipeline", "--config", str(cfg_path),
                             "--workers", str(workers), "--out", str(out)])
            assert code == 0
            outputs[(workers, attempt)] = tuple(
                (out / name).read_bytes()
                for name in ("stream.csv", "stream.config.json",
                             "histogram.csv", "histogram.config.json",
                             "fit.json")
            )
    reference = outputs[(1, "a")]
    ok = all(blob == reference for blob in outputs.values())
    record_criterion(9, ok,
                     "pipeline outputs byte-identical across re-runs and "
                     "worker counts 1/2/8")
    assert ok
