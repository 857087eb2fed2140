"""File formats: stream CSV, histogram CSV, saturation CSV, JSON reports.

Stream times are written as their shortest round-trip repr, so a stream CSV
reads back bit for bit; the other floats use fixed formatting.  Identical
data produces byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .correlate import CoincidenceHistogram
from .errors import MalformedFile
from .sim import SimConfig, TimestampStream

STREAM_HEADER = ["channel", "time_ns"]
HISTOGRAM_HEADER = ["tau_ns", "counts", "g2", "norm_err"]
SATURATION_HEADER = ["power_uW", "intensity_cps"]


def write_stream_csv(path, streams: tuple[TimestampStream, TimestampStream]):
    """Write both channels into one CSV: header channel,time_ns."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STREAM_HEADER)
        for s in streams:
            fh.writelines(f"{s.channel},{t!r}\r\n" for t in s.times.tolist())


def read_stream_csv(path) -> tuple[TimestampStream, TimestampStream]:
    """Read a two-channel stream CSV; duration is taken from the sidecar if
    present, else from the latest timestamp."""
    path = Path(path)
    times = {1: [], 2: []}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != STREAM_HEADER:
            raise MalformedFile(f"{path}: expected header {','.join(STREAM_HEADER)}",
                                line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                ch = int(row[0])
                t = float(row[1])
            except (ValueError, IndexError):
                raise MalformedFile(f"{path}: bad stream row {row!r}", line=lineno)
            if ch not in (1, 2):
                raise MalformedFile(f"{path}: channel must be 1 or 2", line=lineno)
            times[ch].append(t)

    duration = None
    sidecar = sidecar_path(path)
    if sidecar.exists():
        duration = json.loads(sidecar.read_text()).get("duration")
    if duration is None:
        hi = max((ts[-1] for ts in times.values() if ts), default=0.0)
        duration = hi if hi > 0 else 1.0
    return tuple(
        TimestampStream(channel=ch, times=np.sort(np.asarray(times[ch])),
                        duration=duration)
        for ch in (1, 2)
    )


def sidecar_path(stream_path) -> Path:
    return Path(stream_path).with_suffix(".config.json")


def write_sim_sidecar(path, cfg: SimConfig):
    """JSON sidecar with the full SimConfig for reproducibility."""
    d = dataclasses.asdict(cfg)
    Path(path).write_text(json.dumps(d, indent=2, sort_keys=True) + "\n")


def write_histogram_csv(path, h: CoincidenceHistogram):
    """Histogram CSV: tau_ns,counts,g2,norm_err (g2 empty when unnormalized)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTOGRAM_HEADER)
        centers = h.centers
        for i in range(h.counts.size):
            g2 = f"{h.norm[i]:.9g}" if h.norm is not None else ""
            err = f"{h.norm_err[i]:.9g}" if h.norm_err is not None else ""
            writer.writerow([f"{centers[i]:.6f}", int(h.counts[i]), g2, err])


def read_histogram_csv(path, window: Optional[float] = None,
                       duration: float = 1.0) -> CoincidenceHistogram:
    path = Path(path)
    centers, counts, norm, err = [], [], [], []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HISTOGRAM_HEADER:
            raise MalformedFile(
                f"{path}: expected header {','.join(HISTOGRAM_HEADER)}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                centers.append(float(row[0]))
                counts.append(int(row[1]))
                norm.append(float(row[2]) if row[2] else np.nan)
                err.append(float(row[3]) if row[3] else np.nan)
            except (ValueError, IndexError):
                raise MalformedFile(f"{path}: bad histogram row {row!r}", line=lineno)
    if len(centers) < 2:
        raise MalformedFile(f"{path}: need at least two bins")
    centers = np.asarray(centers)
    width = centers[1] - centers[0]
    edges = np.concatenate([centers - width / 2.0, [centers[-1] + width / 2.0]])
    if window is None:
        window = float(abs(edges).max())
    has_norm = not np.all(np.isnan(norm))
    return CoincidenceHistogram(
        bin_edges=edges,
        counts=np.asarray(counts, dtype=np.int64),
        total_pairs=int(np.sum(counts)),
        window=window,
        duration=duration,
        norm=np.asarray(norm) if has_norm else None,
        norm_err=np.asarray(err) if has_norm else None,
    )


def write_saturation_csv(path, data):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SATURATION_HEADER)
        for power, intensity in data:
            writer.writerow([f"{power:.6f}", f"{intensity:.6f}"])


def read_saturation_csv(path) -> list[tuple[float, float]]:
    path = Path(path)
    out = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != SATURATION_HEADER:
            raise MalformedFile(
                f"{path}: expected header {','.join(SATURATION_HEADER)}", line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                out.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise MalformedFile(f"{path}: bad saturation row {row!r}", line=lineno)
    return out


def write_fit_report(path, result):
    Path(path).write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    )
