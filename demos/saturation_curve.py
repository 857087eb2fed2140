"""Saturation of the fluorescence intensity with excitation power.

Generates a power sweep from the closed-form saturation law (with a linear
background), perturbs it with measurement noise, and fits
I(P) = A*P/(P+P_sat) + beta*P back out, reporting the saturation power with
its uncertainty.  A measured sweep goes through the same fit from the command
line: `fiberphoton fit sat.csv --model saturation`.  Run:

    python3 demos/saturation_curve.py
"""

import numpy as np

from fiberphoton import fit_saturation
from fiberphoton.emitter import saturation_model

A, P_SAT, BETA = 1500.0, 0.54, 50.0  # counts/s, uW, counts/s per uW
NOISE = 0.05


def main():
    powers = np.geomspace(0.03, 20.0, 12)
    curve = saturation_model(powers, A, P_SAT, BETA)
    rng = np.random.default_rng(7)
    data = np.array([(p, i * rng.normal(1.0, NOISE)) for p, i in zip(powers, curve)])

    print("power (uW)   intensity (cps)")
    for p, i in data:
        print(f"  {p:8.3f}   {i:10.1f}")

    res = fit_saturation(data, sigma=NOISE * np.abs(data[:, 1]))
    print("\nfit:")
    for name in ("A", "P_sat", "beta"):
        print(f"  {name:6s} = {res.params[name]:10.3f} "
              f"+- {res.sigmas[name]:.3f}")
    print(f"  converged in {res.iterations} iterations, flags={res.flags}")
    print(f"\ntrue P_sat = {P_SAT} uW; recovered "
          f"{res.params['P_sat']:.3f} uW")

    print("\nbackground-subtracted emitter curve (fit):")
    for p in (0.1, 0.54, 2.0, 10.0):
        i = res.params["A"] * p / (p + res.params["P_sat"])
        frac = i / res.params["A"]
        print(f"  P = {p:6.2f} uW: {i:7.1f} cps  ({frac * 100:.0f}% of plateau)")


if __name__ == "__main__":
    main()
