"""Single-photon-emitter statistics toolkit for emitters in a tapered fiber.

Subpackages:
    emitter    closed-form population dynamics and g2 model curves
    sim        stochastic photon-stream generation and HBT detection chain
    correlate  coincidence histograms, normalization, peak integration
    fit        damped least-squares fitting of the model curves
    geometry   ray-optics channeling/confinement/whispering-gallery results
    io         CSV/JSON file formats
    cli        batch command-line front end
"""

from .emitter import (
    EmitterParams,
    PulseParams,
    excited_population,
    g2_background_mixed,
    g2_cw,
    g2_cw_reduced,
    g2_integrated_zero,
    g2_pulsed,
    pump_rate_from_integrated,
)
from .sim import SimConfig, TimestampStream, detect_hbt, simulate_emission, simulate_streams
from .correlate import (
    CoincidenceHistogram,
    PeakIntegration,
    background_coincidence_rate,
    cross_correlate,
    integrate_peaks,
    normalize_cw,
    normalize_pulsed,
)
from .fit import (
    FitResult,
    fit_g2_cw,
    fit_g2_pulsed,
    fit_saturation,
    least_squares_engine,
)
from .geometry import (
    channeling_efficiency,
    confinement_efficiency,
    confinement_efficiency_sampled,
    critical_offset,
    tir_area_fraction,
    wgm_mode_numbers,
)

__version__ = "0.1.0"
