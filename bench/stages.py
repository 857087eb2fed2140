"""One timing of each stage of the chain, as in the ROADMAP's Baselines table.

    python3 bench/stages.py

Run from the root of a checkout; prints a Markdown table.  Every figure is a
single run, for orientation: changes are judged by run.py, which repeats
whole rounds and reports medians.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fiberphoton import correlate, emitter, fit, io, sim  # noqa: E402


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def pulsed_config(w_p, gamma, duration):
    return sim.SimConfig(emitter=emitter.EmitterParams(w_p=w_p, gamma=gamma),
                         pulse=emitter.PulseParams(tau_o=6.0, period=100.0),
                         duration=duration, seed=0)


def main():
    rows = []
    c5 = pulsed_config(1.3, 2.0, 1e8)
    em5, t = timed(sim.simulate_emission, c5)
    rows.append(("Emission, fast pulsed sampler", "criterion 5", t,
                 f"{em5.size / 1e6:.2f} M emissions"))
    em6, t = timed(sim.simulate_emission, pulsed_config(0.08, 0.15, 2e8))
    rows.append(("Emission, sequential pulsed sampler", "criterion 6", t,
                 f"{em6.size / 1e3:.0f} k emissions"))
    bg = em5.size / c5.duration * (1 - 0.92) / 0.92
    (s1, s2), t = timed(sim.detect_hbt, em5, replace(c5, background_rate=bg))
    rows.append(("Detection chain", "criterion 5", t, ""))
    h, t = timed(correlate.cross_correlate, s1, s2, 450.0, 1.0)
    tracemalloc.start()
    correlate.cross_correlate(s1, s2, 450.0, 1.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rows.append(("`cross_correlate`, 1 chunk", "criterion 5", t,
                 f"{h.total_pairs / 1e6:.0f} M pairs, {peak / 1e6:.0f} MB "
                 "tracemalloc peak"))
    _, t = timed(correlate.cross_correlate, s1, s2, 450.0, 1.0, n_chunks=2)
    rows.append(("`cross_correlate`, 2 chunks", "criterion 5", t, ""))
    del em5, s1, s2, h

    cw = sim.SimConfig(emitter=emitter.EmitterParams(w_p=0.2, gamma=0.4),
                       duration=1e7, seed=0)
    streams = sim.simulate_streams(cw)
    n = sum(s.times.size for s in streams)
    workdir = ROOT / ".bench_work" / f"stages-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        path = workdir / "stream.csv"
        _, t = timed(io.write_stream_csv, path, streams)
        rows.append(("Stream CSV write", f"{n / 1e6:.2f} M events", t, ""))
        _, t = timed(io.read_stream_csv, path)
        rows.append(("Stream CSV read", f"{n / 1e6:.2f} M events", t, ""))
    finally:
        shutil.rmtree(workdir)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    h = correlate.normalize_cw(
        correlate.cross_correlate(*streams, 100.0, 1.0), streams[0].rate,
        streams[1].rate)
    _, t = timed(fit.fit_g2_cw, h)
    rows.append(("`fit_g2_cw`", "cw pipeline", t, ""))

    dead = replace(cw, duration=1.2e7)
    em = sim.simulate_emission(dead)
    _, plain = timed(sim.detect_hbt, em, dead)
    _, with_dead = timed(sim.detect_hbt, em, replace(dead, dead_time=1.0))
    rows.append(("Dead-time loop", f"{em.size / 1e6:.1f} M events",
                 with_dead - plain, "detect_hbt with minus without dead time"))

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}\n")
    print("| Stage | Config | Time | Other |\n|---|---|---|---|")
    for stage, config, seconds, other in rows:
        shown = f"{seconds * 1e3:.0f} ms" if seconds < 0.1 else f"{seconds:.2f} s"
        print(f"| {stage} | {config} | {shown} | {other} |")


if __name__ == "__main__":
    main()
