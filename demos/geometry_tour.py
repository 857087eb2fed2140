"""Tour of the ray-optics results for an emitter inside a bare fiber core.

Walks through the three geometric quantities the package computes for a
dielectric cylinder of radius a and index n: how much emission is channeled
into the guided modes, where total internal reflection confines light
azimuthally, and which whispering-gallery mode numbers fit the confinement
annulus.  Run:

    python3 demos/geometry_tour.py
"""

import numpy as np

from fiberphoton import (
    channeling_efficiency,
    confinement_efficiency,
    confinement_efficiency_sampled,
    critical_offset,
    tir_area_fraction,
    wgm_mode_numbers,
)

N_SILICA = 1.45


def main():
    print("== Channeling into guided modes ==")
    print(f"index n = {N_SILICA}: eta = 1 - 1/n = "
          f"{channeling_efficiency(N_SILICA):.4f} "
          "(both propagation directions combined)")

    print("\n== Azimuthal confinement by total internal reflection ==")
    print(f"critical offset r_c = a/n = {critical_offset(1.0, N_SILICA):.4f} a")
    print(f"core-area fraction beyond r_c: p = {tir_area_fraction(N_SILICA):.4f}")
    for ratio in (0.5, 0.7, 0.8, 0.9, 1.0):
        eta = confinement_efficiency(N_SILICA, ratio)
        oracle = confinement_efficiency_sampled(N_SILICA, ratio, num=100_000)
        print(f"  r/a = {ratio:.1f}: eta = {eta:.4f}  "
              f"(sampled check {oracle:.4f})")

    print("\n== Whispering-gallery mode numbers ==")
    for wavelength in (0.6, 1.0, 1.5):
        modes = wgm_mode_numbers(1.0, wavelength, N_SILICA)
        span = f"{modes[0]}..{modes[-1]}" if modes else "none"
        print(f"  a = 1.0 um, lambda = {wavelength} um: m = {span} "
              f"({len(modes)} modes)")

    print("\nDense confinement profile (r/a, eta):")
    for ratio in np.linspace(0.65, 1.0, 8):
        bar = "#" * int(50 * confinement_efficiency(N_SILICA, ratio))
        print(f"  {ratio:.3f} |{bar}")


if __name__ == "__main__":
    main()
