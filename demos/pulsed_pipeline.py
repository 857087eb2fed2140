"""Pulsed single-photon pipeline: simulate, correlate, normalize, fit.

Reproduces the pulsed-excitation analysis chain: a pulse train pumps the
emitter, detections pass a 50/50 splitter with Poissonian background mixed
in, the coincidence histogram shows pulse-train side peaks and a suppressed
zero-delay peak, and two independent analyses extract the single-photon
figure of merit:

  1. a model fit of the normalized central region (returns rho and g2_exp(0));
  2. peak integration against the side peaks (returns g2_int(0)).

Run:
    python3 demos/pulsed_pipeline.py
"""

from fiberphoton import (
    EmitterParams,
    PulseParams,
    SimConfig,
    background_coincidence_rate,
    cross_correlate,
    detect_hbt,
    fit_g2_pulsed,
    integrate_peaks,
    normalize_pulsed,
    simulate_emission,
)

TAU_O = 6.0      # pulse width, ns
PERIOD = 100.0   # repetition period, ns
SEED = 42


def acquire(w_p, gamma, rho, duration):
    """Simulate one pulsed acquisition with background mixed in for the
    requested emitter intensity fraction rho."""
    emitter = EmitterParams(w_p=w_p, gamma=gamma)
    pulse = PulseParams(tau_o=TAU_O, period=PERIOD)
    cfg = SimConfig(emitter=emitter, pulse=pulse, duration=duration, seed=SEED)
    emissions = simulate_emission(cfg)
    r_sig = emissions.size / duration
    bg_rate = r_sig * (1.0 - rho) / rho
    cfg_bg = SimConfig(emitter=emitter, pulse=pulse, duration=duration,
                       seed=SEED, background_rate=bg_rate)
    s1, s2 = detect_hbt(emissions, cfg_bg)
    print(f"  {emissions.size} emissions over {duration / PERIOD:.0f} pulses "
          f"({emissions.size / (duration / PERIOD):.2f} per pulse), "
          f"rho set to {rho}")
    return s1, s2, r_sig, bg_rate


def main():
    print("-- analysis 1: strong pump, normalized model fit (rho, g2_exp) --")
    rho = 0.92
    duration = 5e7
    s1, s2, r_sig, bg_rate = acquire(w_p=1.3, gamma=2.0, rho=rho,
                                     duration=duration)
    h = cross_correlate(s1, s2, window=450.0, bin_width=1.0)
    print(f"  histogram: {h.total_pairs} coincidence pairs in +-450 ns")
    hn = normalize_pulsed(h, period=PERIOD, tau_o=TAU_O,
                          signal_rates=(r_sig / 2, r_sig / 2),
                          background_rates=(bg_rate / 2, bg_rate / 2))
    res = fit_g2_pulsed(hn, tau_o_fixed=TAU_O, fit_halfwidth=49.0)
    print(f"  rho       = {res.params['rho']:.4f} (configured {rho})")
    print(f"  g2(0)     = {res.params['g2_0']:.4f}")
    print(f"  g2_exp(0) = {res.params['g2_exp_0']:.4f}")

    print("\n-- analysis 2: weak pump, zero peak vs side peaks (g2_int) --")
    duration = 1e8
    s1, s2, r_sig, bg_rate = acquire(w_p=0.08, gamma=0.15, rho=0.64,
                                     duration=duration)
    h = cross_correlate(s1, s2, window=1000.0, bin_width=1.0)
    bg_bin = background_coincidence_rate(r_sig / 2, bg_rate / 2, 1.0, duration)
    pk = integrate_peaks(h, period=PERIOD, peak_halfwidth=17.5,
                         background_per_bin=bg_bin)
    print(f"  zero-peak sum  {pk.zero_peak_sum}")
    print(f"  side-peak mean {sum(pk.side_peak_sums) / len(pk.side_peak_sums):.0f} "
          f"({len(pk.side_peak_sums)} peaks)")
    print(f"  g2_int(0) = {pk.g2_int:.4f} +- {pk.g2_int_sigma:.4f} "
          "(after background subtraction)")
    verdict = "single-photon" if pk.g2_int < 0.5 else "not single-photon"
    print(f"  -> {verdict} (threshold 0.5)")


if __name__ == "__main__":
    main()
