"""File formats: stream, histogram, saturation and sweep CSV; JSON reports.

Every float is written as its shortest round-trip repr, so every table reads
back bit for bit, and identical data produces byte-identical files.  A stream
or histogram CSV has a JSON sidecar (`sidecar_path`) with what its rows do not
hold: a stream's SimConfig, or a histogram's window, duration, flags and
normalization.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .correlate import CoincidenceHistogram
from .errors import MalformedFile
from .sim import SimConfig, TimestampStream

STREAM_HEADER = ["channel", "time_ns"]
HISTOGRAM_HEADER = ["tau_ns", "counts", "g2", "norm_err"]
SATURATION_HEADER = ["power_uW", "intensity_cps"]
SWEEP_HEADER = ["x", "value"]


def _rows(path, header, parse):
    """Yield parse(row) for each non-empty row of a CSV that starts with header.

    A wrong header, or a row that parse rejects with ValueError or
    LookupError, raises MalformedFile with its line number.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise MalformedFile(f"{path}: expected header {','.join(header)}",
                                line=1)
        try:
            for row in reader:
                if row:
                    yield parse(row)
        except (ValueError, LookupError) as exc:
            raise MalformedFile(f"{path}: bad row {row!r}",
                                line=reader.line_num) from exc


def _write_table(path, header, columns):
    """CSV of header and equal-length columns; a None column is left empty.
    Cells become Python numbers, which csv writes as their shortest
    round-trip repr."""
    cells = (repeat("") if c is None else np.asarray(c).tolist() for c in columns)
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".config.json")


def _sidecar(csv_path) -> dict:
    """The JSON sidecar of a CSV, or {} when it has none."""
    path = sidecar_path(csv_path)
    return json.loads(path.read_text()) if path.exists() else {}


def write_stream_csv(path, streams: tuple[TimestampStream, TimestampStream]):
    """Write both channels into one CSV: header channel,time_ns."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerow(STREAM_HEADER)
        # One writelines per channel: about 20% faster than csv.writerows.
        for s in streams:
            fh.writelines(f"{s.channel},{t!r}\r\n" for t in s.times.tolist())


#: A lookup here instead of int() keeps million-row stream reads fast.
_CHANNELS = {"1": 1, "2": 2}


def _stream_row(row):
    return _CHANNELS[row[0]], float(row[1])


def read_stream_csv(path) -> tuple[TimestampStream, TimestampStream]:
    """Read a two-channel stream CSV; duration is taken from the sidecar if
    present, else from the latest timestamp."""
    times = {1: [], 2: []}
    for channel, t in _rows(path, STREAM_HEADER, _stream_row):
        times[channel].append(t)
    duration = _sidecar(path).get("duration")
    if duration is None:
        hi = max((ts[-1] for ts in times.values() if ts), default=0.0)
        duration = hi if hi > 0 else 1.0
    return tuple(
        TimestampStream(channel=ch, times=np.sort(np.asarray(times[ch])),
                        duration=duration)
        for ch in (1, 2)
    )


def write_sim_sidecar(path, cfg: SimConfig):
    """JSON sidecar with the full SimConfig for reproducibility."""
    _write_json(path, dataclasses.asdict(cfg))


def write_histogram_csv(path, h: CoincidenceHistogram):
    """Histogram CSV tau_ns,counts,g2,norm_err (g2 and norm_err empty when
    unnormalized), and its sidecar with window, duration, flags and
    normalization."""
    _write_table(path, HISTOGRAM_HEADER, (h.centers, h.counts, h.norm, h.norm_err))
    _write_json(sidecar_path(path), {
        "window": h.window, "duration": h.duration, "flags": h.flags,
        "normalization": h.normalization,
    })


def _histogram_row(row):
    g2, err = (float(cell) if cell else None for cell in row[2:4])
    return float(row[0]), int(row[1]), g2, err


def _optional_column(values):
    return None if all(v is None for v in values) else np.array(values, dtype=float)


def read_histogram_csv(path) -> CoincidenceHistogram:
    """Read a histogram CSV and its sidecar.  Bin edges are rebuilt from the
    centres.  Without a sidecar the window is the outermost edge and the
    duration 1.0, with no flags and no normalization."""
    rows = list(_rows(path, HISTOGRAM_HEADER, _histogram_row))
    if len(rows) < 2:
        raise MalformedFile(f"{path}: need at least two bins")
    centers, counts, norm, err = zip(*rows)
    centers = np.asarray(centers)
    half = (centers[-1] - centers[0]) / (2 * (centers.size - 1))
    edges = np.append(centers - half, centers[-1] + half)
    meta = _sidecar(path)
    return CoincidenceHistogram(
        bin_edges=edges,
        counts=counts,
        total_pairs=sum(counts),
        window=meta.get("window", float(np.abs(edges).max())),
        duration=meta.get("duration", 1.0),
        norm=_optional_column(norm),
        norm_err=_optional_column(err),
        flags=meta.get("flags", []),
        normalization=meta.get("normalization"),
    )


def write_saturation_csv(path, data):
    _write_table(path, SATURATION_HEADER, np.asarray(data, dtype=float).T)


def read_saturation_csv(path) -> list[tuple[float, float]]:
    return list(_rows(path, SATURATION_HEADER,
                      lambda row: (float(row[0]), float(row[1]))))


def write_sweep_csv(path, x, values):
    """Two-column sweep table: header x,value."""
    _write_table(path, SWEEP_HEADER, (x, values))


def write_fit_report(path, result):
    _write_json(path, result.to_dict())


def write_peaks_report(path, peaks):
    """JSON report of a PeakIntegration."""
    _write_json(path, dataclasses.asdict(peaks))
