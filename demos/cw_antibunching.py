"""Continuous-wave antibunching, end to end.

Simulates a cw-pumped emitter through the beam-splitter detection chain,
builds and normalizes the coincidence histogram, and fits the antibunching
dip 1 - (1 - g2_0) exp(-w_p |tau|) back out of the data.  The recovered dip
width 2/w_p is the number an experiment would quote.  Run:

    python3 demos/cw_antibunching.py
"""

import numpy as np

from fiberphoton import (
    EmitterParams,
    SimConfig,
    cross_correlate,
    fit_g2_cw,
    g2_cw,
    normalize_cw,
    simulate_streams,
)

W_P = 0.2        # pump rate, 1/ns
GAMMA = 0.4      # decay rate, 1/ns
DURATION = 5e6   # ns
SEED = 12


def main():
    emitter = EmitterParams(w_p=W_P, gamma=GAMMA)
    cfg = SimConfig(emitter=emitter, duration=DURATION, seed=SEED,
                    detection_efficiency=0.8, background_rate=2e-5)
    print(f"simulating {DURATION:.0e} ns of cw emission "
          f"(w_p={W_P}/ns, gamma={GAMMA}/ns) ...")
    s1, s2 = simulate_streams(cfg)
    print(f"  channel 1: {s1.times.size} events, channel 2: {s2.times.size}")

    h = cross_correlate(s1, s2, window=60.0, bin_width=1.0)
    h = normalize_cw(h, s1.rate, s2.rate)
    print(f"  histogram: {h.total_pairs} pairs in +-60 ns")

    result = fit_g2_cw(h)
    g0 = result.params["g2_0"]
    wp = result.params["w_p"]
    print("\nfit of the antibunching dip:")
    print(f"  g2(0)      = {g0:.3f} +- {result.sigmas['g2_0']:.3f}")
    print(f"  w_p        = {wp:.3f} +- {result.sigmas['w_p']:.3f} /ns")
    print(f"  dip width  = {result.params['two_over_wp']:.2f} ns "
          f"(true 2/(w_p+gamma) = {2.0 / (W_P + GAMMA):.2f} ns)")
    print(f"  converged in {result.iterations} iterations, flags={result.flags}")

    print("\nmeasured vs model g2(tau):")
    model_params = EmitterParams(w_p=W_P, gamma=GAMMA)
    for tau in (0.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        idx = int(np.argmin(np.abs(h.centers - tau)))
        center = float(h.centers[idx])
        print(f"  tau = {center:5.1f} ns: data {h.norm[idx]:.3f}  "
              f"model {g2_cw(model_params, center):.3f}")


if __name__ == "__main__":
    main()
