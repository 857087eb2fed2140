"""The benchmark workloads: inputs made from the seed, one round of the chain,
and the correctness checks of that round.

Calls go through module attributes (`sim.simulate_emission`, never a name
bound at import) so that the traced run's wrappers see every one of them.
"""

from __future__ import annotations

import contextlib
import io as text_io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from fiberphoton import cli, correlate, emitter, fit, io, sim
from fiberphoton.errors import FiberPhotonError

import checks

PERIOD = 100.0
TAU_O = 6.0
BIN = 1.0
#: Events per channel in the slice that is checked against brute force.
SLICE_EVENTS = 1500


class OperationFailed(Exception):
    """An operation that must succeed did not (an exception or exit code)."""


def pulsed_acquisition(seed: int, w_p: float, gamma: float, rho: float,
                       duration: float):
    """Pulsed emission, then detection with the background rate that makes the
    emitter's share of the light rho (the acceptance suite's recipe)."""
    cfg = sim.SimConfig(emitter=emitter.EmitterParams(w_p=w_p, gamma=gamma),
                        pulse=emitter.PulseParams(tau_o=TAU_O, period=PERIOD),
                        duration=duration, seed=seed)
    emissions = sim.simulate_emission(cfg)
    signal_rate = emissions.size / duration
    background_rate = signal_rate * (1.0 - rho) / rho
    s1, s2 = sim.detect_hbt(emissions, replace(cfg, background_rate=background_rate))
    return emissions.size, signal_rate, background_rate, s1, s2


def acquisition_checks(out: dict, duration: float, window: float) -> list[str]:
    """Checks shared by the pulsed workloads: the event budget and the
    correlator on a slice of the streams."""
    s1, s2 = out["s1"], out["s2"]
    return (checks.event_budget(s1.times.size + s2.times.size, out["n_em"],
                                out["r_bg"], duration)
            + slice_matches_brute_force(s1, s2, window))


def slice_matches_brute_force(s1, s2, window: float) -> list[str]:
    """Correlate a slice of SLICE_EVENTS events per channel from mid-run and
    compare with the all-pairs histogram of the same slice."""
    lo = 0.5 * s1.duration
    hi = lo + SLICE_EVENTS / s1.rate
    t1 = s1.times[(s1.times >= lo) & (s1.times <= hi)]
    t2 = s2.times[(s2.times >= lo) & (s2.times <= hi)]
    h = correlate.cross_correlate(
        sim.TimestampStream(channel=1, times=t1, duration=s1.duration),
        sim.TimestampStream(channel=2, times=t2, duration=s2.duration),
        window=window, bin_width=BIN)
    return checks.histogram_matches_brute_force(h.counts, t1, t2, window, BIN)


class Workload:
    """One workload.  run_round() returns (outputs, failed known-fault
    operations) and raises OperationFailed when any other operation fails;
    check(outputs) returns the failed checks.  `events` is the number of
    detected events (both channels) in one round's acquisition."""

    ops_per_round = 1
    events = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self):
        """Untimed set-up before the first round."""


class PulsedFit(Workload):
    """Criterion 5: simulate -> detect -> correlate -> normalize -> fit."""

    duration = 1e8
    window = 450.0

    def run_round(self):
        n_em, r_sig, r_bg, s1, s2 = pulsed_acquisition(
            self.seed, w_p=1.3, gamma=2.0, rho=checks.RHO_TRUE,
            duration=self.duration)
        h = correlate.cross_correlate(s1, s2, window=self.window, bin_width=BIN)
        hn = correlate.normalize_pulsed(
            h, period=PERIOD, tau_o=TAU_O, signal_rates=(r_sig / 2, r_sig / 2),
            background_rates=(r_bg / 2, r_bg / 2))
        result = fit.fit_g2_pulsed(hn, tau_o_fixed=TAU_O, fit_halfwidth=49.0)
        self.events = s1.times.size + s2.times.size
        return dict(n_em=n_em, r_bg=r_bg, s1=s1, s2=s2, result=result), 0

    def check(self, out):
        res = out["result"]
        return (acquisition_checks(out, self.duration, self.window)
                + checks.pulsed_fit(res.converged, res.params["rho"],
                                    res.params["g2_exp_0"]))


class PulsedPeaks(Workload):
    """Criterion 6: simulate -> detect -> correlate -> integrate peaks."""

    duration = 2e8
    window = 1000.0

    def run_round(self):
        n_em, r_sig, r_bg, s1, s2 = pulsed_acquisition(
            self.seed, w_p=0.08, gamma=0.15, rho=0.64, duration=self.duration)
        h = correlate.cross_correlate(s1, s2, window=self.window, bin_width=BIN)
        bg_bin = correlate.background_coincidence_rate(
            r_sig / 2, r_bg / 2, BIN, self.duration)
        peaks = correlate.integrate_peaks(h, period=PERIOD, peak_halfwidth=17.5,
                                          background_per_bin=bg_bin)
        self.events = s1.times.size + s2.times.size
        return dict(n_em=n_em, r_bg=r_bg, s1=s1, s2=s2, g2_int=peaks.g2_int), 0

    def check(self, out):
        return (acquisition_checks(out, self.duration, self.window)
                + checks.peak_integrated(out["g2_int"]))


#: cw acquisition of the file-based workload.
CW_EMITTER = {"w_p": 0.2, "gamma": 0.4}
CW_DURATION = 1e7
CW_WINDOW = 100.0
#: Known fault (b): a shortened criterion-5 acquisition through `pipeline`
#: with a pulsed fit.  The background rate gives rho = 0.92 at the mean
#: criterion-5 emission rate of 0.03079/ns.  Fixed seed: the inputs of a
#: known-fault operation do not depend on the benchmark seed.
PULSED_PIPELINE = {
    "simulate": {"emitter": {"w_p": 1.3, "gamma": 2.0},
                 "pulse": {"tau_o": TAU_O, "period": PERIOD},
                 "duration": 1e7, "seed": 5,
                 "background_rate": 0.03079 * (1 - 0.92) / 0.92},
    "correlate": {"window": 450.0, "bin_width": BIN},
    "fit": {"model": "pulsed", "tau_o": TAU_O, "fit_halfwidth": 49.0},
}
#: Known fault (a): two events made distinct by the detection chain's
#: nextafter tie-break, which a 6-decimal CSV cannot tell apart.
TIE_TIMES = {1: np.array([1.0, 5e8, np.nextafter(5e8, np.inf)]),
             2: np.array([2.0, 3.0])}


class CliFiles(Workload):
    """The file-based command line: pipeline, correlate, fit, plus the two
    known-fault operations, which count as failed while the faults last."""

    ops_per_round = 5

    def prepare(self):
        d = self.workdir
        self.pipe, self.corr, self.fitdir = d / "pipeline", d / "correlate", d / "fit"
        self.tie_csv = d / "tie" / "stream.csv"
        self.tie_csv.parent.mkdir(parents=True)
        self.pulsed_out = d / "pulsed"
        self.config = d / "pipeline.json"
        self.config.write_text(json.dumps({
            "simulate": {"emitter": CW_EMITTER, "duration": CW_DURATION,
                         "seed": self.seed},
            "correlate": {"window": CW_WINDOW, "bin_width": BIN},
            "fit": {"model": "cw"},
        }))
        self.pulsed_config = d / "pulsed.json"
        self.pulsed_config.write_text(json.dumps(PULSED_PIPELINE))
        self.tie_streams = tuple(
            sim.TimestampStream(channel=ch, times=t, duration=1e9)
            for ch, t in TIE_TIMES.items())
        # The streams the pipeline simulates, to check what the files hold.
        s1, s2 = sim.simulate_streams(sim.SimConfig(
            emitter=emitter.EmitterParams(**CW_EMITTER), duration=CW_DURATION,
            seed=self.seed))
        self.simulated = {1: s1.times, 2: s2.times}
        self.events = s1.times.size + s2.times.size
        # Read-back times are off by <= READBACK_TOL each (plus a float
        # spacing), so a delay moves by at most twice that.
        tol = 2 * checks.READBACK_TOL + 4 * np.spacing(CW_DURATION)
        self.near_edge = checks.near_edge_pairs(s1.times, s2.times, CW_WINDOW,
                                                BIN, tol)

    def _cli(self, *argv) -> int:
        with contextlib.redirect_stdout(text_io.StringIO()):
            return cli.main([str(a) for a in argv])

    def _must(self, *argv):
        code = self._cli(*argv)
        if code != 0:
            raise OperationFailed(f"fiberphoton {argv[0]} exited with {code}")

    def _tie_round_trip(self) -> bool:
        io.write_stream_csv(self.tie_csv, self.tie_streams)
        try:
            back = io.read_stream_csv(self.tie_csv)
        except FiberPhotonError:
            return False
        return not checks.lossless(TIE_TIMES, {s.channel: s.times for s in back})

    def _pulsed_pipeline(self) -> bool:
        if self._cli("pipeline", "--config", self.pulsed_config,
                     "--out", self.pulsed_out) != 0:
            return False
        report = json.loads((self.pulsed_out / "fit.json").read_text())
        return not checks.pulsed_fit(report["converged"], report["params"]["rho"],
                                     report["params"]["g2_exp_0"])

    def run_round(self):
        self._must("pipeline", "--config", self.config, "--workers", 2,
                   "--out", self.pipe)
        self._must("correlate", self.pipe / "stream.csv", "--workers", 2,
                   "--out", self.corr)
        self._must("fit", self.corr / "histogram.csv", "--model", "cw",
                   "--out", self.fitdir)
        failed = (not self._tie_round_trip()) + (not self._pulsed_pipeline())
        return {}, failed

    def check(self, out):
        rows = np.loadtxt(self.pipe / "stream.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        read = {ch: rows[rows[:, 0] == ch, 1] for ch in (1, 2)}
        rebuilt = np.loadtxt(self.corr / "histogram.csv", delimiter=",",
                             skiprows=1, usecols=1, dtype=np.int64)
        reference = np.loadtxt(self.pipe / "histogram.csv", delimiter=",",
                               skiprows=1, usecols=1, dtype=np.int64)
        failures = checks.stream_readback(self.simulated, read)
        failures += checks.rebuilt_histogram(rebuilt, reference, self.near_edge)
        for report in (self.pipe / "fit.json", self.fitdir / "fit.json"):
            failures += checks.cw_fit(json.loads(report.read_text()))
        return failures


WORKLOADS = {"pulsed-fit": PulsedFit, "pulsed-peaks": PulsedPeaks,
             "cli-files": CliFiles}
