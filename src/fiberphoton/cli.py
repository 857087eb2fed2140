"""Batch command-line front end.

Subcommands: simulate, correlate, fit, geometry, pipeline.  Every run writes
plot-ready CSV plus JSON sidecars/reports so any output is reproducible from
its config alone.  Exit codes: 0 ok, 2 invalid configuration or input,
3 I/O failure, 4 fit did not converge (report still written).

Every subcommand writes into --out (default: the current directory) under
one fixed set of names, so `simulate`, `correlate` and `fit` in one
directory write what `pipeline` writes: stream.csv (with stream.npz and
stream.config.json), histogram.csv (with histogram.config.json and, given
--period, histogram.peaks.json), fit.json and confinement_sweep.csv.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import correlate as corr
from . import fit as fitmod
from . import geometry as geom
from . import io as fio
from .errors import FiberPhotonError, check_number, check_section
from .sim import SimConfig, simulate_streams

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NO_CONVERGENCE = 4

def _outdir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _given(args, *names) -> dict:
    """The named options that were given on the command line."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _build_sim_config(args) -> SimConfig:
    """The flags' dests are the SimConfig keys; one left out takes its default."""
    return SimConfig.from_dict({
        **_given(args, "duration", "seed", "detection_efficiency",
                 "background_rate", "jitter_sigma"),
        "emitter": _given(args, "w_p", "gamma"),
        "pulse": _given(args, "tau_o", "period") or None,
    })


def _write_streams(stream_path: Path, cfg: SimConfig, streams):
    """Write the streams simulated from cfg and their sidecar."""
    fio.write_stream_csv(stream_path, streams)
    fio.write_sim_sidecar(fio.sidecar_path(stream_path), cfg)


def cmd_simulate(args) -> int:
    cfg = _build_sim_config(args)
    s1, s2 = streams = simulate_streams(cfg)
    stream_path = _outdir(args) / "stream.csv"
    _write_streams(stream_path, cfg, streams)
    print(f"wrote {stream_path} ({s1.times.size} + {s2.times.size} events)")
    return EXIT_OK


def _correlate(s1, s2, window: float, bin_width: float, workers: int | None,
               sim_cfg=None):
    """The coincidence histogram of s1 and s2, normalized pulsed with the pulse
    and background of sim_cfg (a SimConfig) when it is given, else cw when
    both streams hold events."""
    h = corr.cross_correlate(s1, s2, window=window, bin_width=bin_width,
                             n_chunks=workers)
    if h.total_pairs == 0:
        print("warning: no coincidences in window", file=sys.stderr)
    if sim_cfg is not None:
        # The rest of each channel's rate is emitter signal.
        b = sim_cfg.background_per_channel
        return corr.normalize_pulsed(h, period=sim_cfg.pulse.period,
                                     tau_o=sim_cfg.pulse.tau_o,
                                     signal_rates=(s1.rate - b, s2.rate - b),
                                     background_rates=(b, b))
    if s1.times.size and s2.times.size:
        return corr.normalize_cw(h, s1.rate, s2.rate)
    return h


def cmd_correlate(args) -> int:
    peak_opts = _given(args, "peak_halfwidth", "background_per_bin")
    if peak_opts and args.period is None:
        raise FiberPhotonError("--peak-halfwidth/--background-per-bin need --period")
    corr.check_n_chunks(args.workers)
    # Every option fails before a stream is read.
    edges = corr.make_edges(args.window, args.bin)
    if args.period is not None:
        corr.check_peaks(edges, args.period,
                         peak_opts.get("peak_halfwidth", corr.DEFAULT_PEAK_HALFWIDTH),
                         peak_opts.get("background_per_bin", 0.0))
    s1, s2 = fio.read_stream_csv(args.stream)
    h = _correlate(s1, s2, args.window, args.bin, args.workers)
    peaks = (corr.integrate_peaks(h, period=args.period, **peak_opts)
             if args.period is not None else None)
    out = _outdir(args)
    hist_path = out / "histogram.csv"
    fio.write_histogram_csv(hist_path, h)
    print(f"wrote {hist_path} ({h.total_pairs} pairs)")
    if peaks is not None:
        peaks_path = out / "histogram.peaks.json"
        fio.write_peaks_report(peaks_path, peaks)
        print(f"g2_int = {peaks.g2_int:.4f} +- {peaks.g2_int_sigma:.4f} "
              f"-> {peaks_path}")
    return EXIT_OK


def _histogram_fit(model: str, tau_o, fit_halfwidth, tau_o_name="tau_o"):
    """The cw or pulsed g2 fit of a normalized histogram, as a function of the
    histogram, so that a bad model or fit_halfwidth, a bad tau_o (named
    tau_o_name) or a pulsed fit without one fails before any work."""
    fitmod.check_fit_halfwidth(fit_halfwidth)
    if tau_o is not None:
        check_number(tau_o_name, tau_o, 0, math.inf, "()")
    if model == "cw":
        return lambda h: fitmod.fit_g2_cw(h, fit_halfwidth=fit_halfwidth)
    if model != "pulsed":
        raise FiberPhotonError(f"unknown histogram fit model {model!r}")
    if tau_o is None:
        raise FiberPhotonError("a pulsed fit requires tau_o (--tau-o, or a "
                               "simulate.pulse section in a pipeline config)")
    return lambda h: fitmod.fit_g2_pulsed(h, tau_o_fixed=tau_o,
                                          fit_halfwidth=fit_halfwidth)


def _report_fit(report_path: Path, result) -> int:
    fio.write_fit_report(report_path, result)
    summary = ", ".join(f"{k}={v:.4g}" for k, v in result.params.items())
    print(f"{summary} -> {report_path}")
    if not result.converged:
        return _fail(EXIT_NO_CONVERGENCE, "fit did not converge")
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.model == "saturation":
        if _given(args, "tau_o", "fit_halfwidth"):
            raise FiberPhotonError("--tau-o/--fit-halfwidth apply to histogram "
                                   "fits, not to --model saturation")
        result = fitmod.fit_saturation(fio.read_saturation_csv(args.input))
    else:
        fit = _histogram_fit(args.model, args.tau_o, args.fit_halfwidth)
        result = fit(fio.read_histogram_csv(args.input))
    return _report_fit(_outdir(args) / "fit.json", result)


def cmd_geometry(args) -> int:
    if args.geom_cmd == "channeling":
        print(f"{geom.channeling_efficiency(args.n):.6f}")
        return EXIT_OK
    if args.geom_cmd == "modes":
        modes = geom.wgm_mode_numbers(args.a, args.wavelength, args.n)
        # len() of a range beyond sys.maxsize raises OverflowError.
        if modes:
            print(f"m={modes.start}..{modes.stop - 1} "
                  f"count={modes.stop - modes.start}")
        else:
            print("m=none count=0")
        return EXIT_OK
    # confinement
    if args.sweep:
        path = _outdir(args) / "confinement_sweep.csv"
        fio.write_sweep_csv(path, *geom.confinement_sweep(args.n))
        print(f"wrote {path}")
    else:
        print(f"{geom.confinement_efficiency(args.n, args.r_over_a):.6f}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an over-long integer
        raise FiberPhotonError(f"bad configuration: {exc}") from None
    config = check_section("pipeline", config, ["simulate", "correlate", "fit"], ["simulate"])
    cfg = SimConfig.from_dict(config["simulate"])
    cor_cfg = check_section("correlate", config.get("correlate"), ["window", "bin_width"])
    fit_cfg = check_section("fit", config.get("fit"), ["model", "tau_o", "fit_halfwidth"])
    model = fit_cfg.get("model", "cw")
    tau_o = cfg.pulse.tau_o if cfg.pulse else None
    fit = _histogram_fit(model, fit_cfg.get("tau_o", tau_o),
                         fit_cfg.get("fit_halfwidth"), "fit.tau_o")
    corr.check_n_chunks(args.workers)
    if fit_cfg.get("tau_o", tau_o) != tau_o:
        raise FiberPhotonError(
            f"fit.tau_o {fit_cfg['tau_o']} differs from simulate.pulse.tau_o {tau_o}"
            if cfg.pulse else "fit.tau_o needs a simulate.pulse section")
    window = cor_cfg.get("window", corr.DEFAULT_CW_WINDOW)
    bin_width = cor_cfg.get("bin_width", corr.DEFAULT_BIN_WIDTH)
    # A bad window, or a pulsed one check_peaks refuses, fails before simulating.
    edges = corr.make_edges(window, bin_width)
    if model == "pulsed":
        corr.check_peaks(edges, cfg.pulse.period, cfg.pulse.period / 2.0)

    streams = simulate_streams(cfg)
    h = _correlate(*streams, window, bin_width, args.workers,
                   sim_cfg=cfg if model == "pulsed" else None)
    out = _outdir(args)
    _write_streams(out / "stream.csv", cfg, streams)
    fio.write_histogram_csv(out / "histogram.csv", h)
    print(f"pipeline outputs in {out}")
    if config.get("fit") is None:
        return EXIT_OK
    return _report_fit(out / "fit.json", fit(h))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberphoton",
        description="Simulate, correlate, fit and analyze single-photon "
                    "emitter statistics in a tapered fiber.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate detection timestamp streams")
    p.add_argument("--wp", type=float, dest="w_p", required=True,
                   help="pump rate (1/ns)")
    p.add_argument("--gamma", type=float, help="decay rate (1/ns)")
    p.add_argument("--duration", type=float, required=True, help="acquisition (ns)")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--tau-o", type=float, dest="tau_o", help="pulse width (ns)")
    p.add_argument("--period", type=float, help="pulse period (ns)")
    p.add_argument("--efficiency", type=float, dest="detection_efficiency")
    p.add_argument("--background-rate", type=float,
                   help="total uncorrelated events/ns, detector dark counts "
                        "included, split evenly between the channels")
    p.add_argument("--jitter", type=float, dest="jitter_sigma",
                   help="jitter sigma (ns)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="build a coincidence histogram")
    p.add_argument("stream", help="two-channel stream CSV")
    p.add_argument("--window", type=float, default=corr.DEFAULT_CW_WINDOW)
    p.add_argument("--bin", type=float, default=corr.DEFAULT_BIN_WIDTH)
    p.add_argument("--period", type=float, help="pulse period (ns): integrate peaks")
    p.add_argument("--peak-halfwidth", type=float,
                   help=f"ns (default {corr.DEFAULT_PEAK_HALFWIDTH})")
    p.add_argument("--background-per-bin", type=float, help="counts (default 0)")
    p.add_argument("--workers", type=int,
                   help="most correlate threads (default: every core)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("fit", help="fit a histogram or saturation curve")
    p.add_argument("input", help="histogram CSV or saturation CSV")
    p.add_argument("--model", choices=["cw", "pulsed", "saturation"],
                   required=True)
    p.add_argument("--tau-o", type=float, dest="tau_o",
                   help="fixed pulse width for the pulsed model (ns)")
    p.add_argument("--fit-halfwidth", type=float,
                   help="restrict the fit to |tau| below this (ns)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("geometry", help="ray-optics calculators")
    gsub = p.add_subparsers(dest="geom_cmd", required=True)
    g = gsub.add_parser("channeling")
    g.add_argument("--n", type=float, required=True)
    g.set_defaults(func=cmd_geometry)
    g = gsub.add_parser("confinement")
    g.add_argument("--n", type=float, required=True)
    g.add_argument("--r-over-a", type=float, dest="r_over_a", default=0.9)
    g.add_argument("--sweep", action="store_true")
    g.add_argument("--out", default=".", help="output directory")
    g.set_defaults(func=cmd_geometry)
    g = gsub.add_parser("modes")
    g.add_argument("--a", type=float, required=True)
    g.add_argument("--lambda", type=float, dest="wavelength", required=True)
    g.add_argument("--n", type=float, required=True)
    g.set_defaults(func=cmd_geometry)

    p = sub.add_parser("pipeline",
                       help="simulate -> correlate -> fit from one JSON config")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--workers", type=int,
                   help="most correlate threads (default: every core)")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FiberPhotonError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    sys.exit(main())
