"""File formats: stream, histogram and sweep CSV; JSON reports; and the
saturation CSV (power_uW,intensity_cps), a table the user measures and that
is only read.

Every float is written as its shortest round-trip repr, so every table reads
back bit for bit, and identical data produces byte-identical files.  A stream
or histogram CSV has a JSON sidecar (`sidecar_path`) with what its rows do not
hold: a stream's SimConfig, or a histogram's duration, flags and
normalization.  A histogram row holds its bin's exact edges next to its
centre, so the edges, which are the histogram's extent, read back as written.
Every reader raises MalformedFile for input that does not match its format, a
row with a missing or an extra cell and bytes that are not UTF-8 included.

Stream CSVs hold millions of rows, so their rows skip the csv module.  The
writer builds the rows of a block of times in numpy: exact int64 arithmetic
on each time's mantissa finds repr's shortest round-trip digits, and only
times below 1 or from 2**52 up and times midway between two shortest
candidates are formatted by repr itself.  The reader parses the whole body
with one np.loadtxt call.  Only a file that loadtxt rejects, that has a
channel other than 1 or 2, or that holds a NUL byte is scanned row by row to
report the line of the first bad row.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .correlate import CoincidenceHistogram
from .errors import InvalidParameter, MalformedFile, check_number
from .sim import SimConfig, TimestampStream

STREAM_HEADER = ["channel", "time_ns"]
HISTOGRAM_HEADER = ["tau_ns", "counts", "g2", "norm_err", "tau_lo_ns", "tau_hi_ns"]
SATURATION_HEADER = ["power_uW", "intensity_cps"]
SWEEP_HEADER = ["x", "value"]


def _body(fh, path, header):
    """csv.reader over fh past its first row, which must be header; a wrong
    header raises MalformedFile at line 1.  Cells are read unquoted, as the
    writers write them and as np.loadtxt reads stream rows, so '"1"' is a
    three-character cell."""
    reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
    try:
        first = next(reader, None)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if first is None or [h.strip() for h in first] != header:
        raise MalformedFile(f"{path}: expected header {','.join(header)}",
                            line=1)
    return reader


def _rows(path, header, parse):
    """Yield parse(row) for each non-empty row of a CSV that starts with header.

    A wrong header, a row that csv cannot split, or a row that parse
    rejects with ValueError or LookupError raises MalformedFile with its
    line number.  Bytes that are not UTF-8 raise MalformedFile without one:
    the text is decoded in blocks, so their line is not known.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = _body(fh, path, header)
        try:
            for row in reader:
                if row:
                    yield parse(row)
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except (ValueError, LookupError, csv.Error) as exc:
            raise MalformedFile(f"{path}: bad row ({exc!r})",
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
    """The JSON sidecar of a CSV, or {} when it has none.  It must be an
    object, and a duration in it a number in (0, inf)."""
    path = sidecar_path(csv_path)
    try:
        meta = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise MalformedFile(f"{path}: not UTF-8 JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise MalformedFile(f"{path}: not a JSON object")
    try:
        check_number("duration", meta.get("duration", 1.0), 0, math.inf, "()")
    except InvalidParameter as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    return meta


#: Times per fh.write: bounds the row matrix of _stream_rows at ~2.5 MB and
#: each of its int64 temporaries at 0.5 MB.
_WRITE_BLOCK = 2**16
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _shortest_digits(times):
    """The shortest round-trip digits of the float64 times t in [1, 2**52),
    in exact int64 arithmetic.

    With t = M * 2**-b, the integer part is M >> b and the first k fraction
    digits D are floor(r * 10**k / 2**b) for the remainder r = M mod 2**b.
    D / 10**k reads back as t when it lies less than half an ulp (2**-b / 2)
    below t, and (D + 1) / 10**k when that lies less than half an ulp above;
    the first k where either holds is repr's length, and the nearer one its
    digits.  Returns (integer, fraction, k, exact): exact is False, and the
    row is left to repr, for t outside that range and for two candidates
    equally near, where repr breaks the tie.  Every value stays below 2**56.

    Three more cases need no repr.  A power of two, whose ulp below is half
    the ulp above, is an integer here, and its first digit, 0, is exact.  A
    candidate exactly half an ulp from t has b + 1 fraction digits, but some
    k <= b has 10**k / 2 >= 2**b and ends the loop.  A carry, D + 1 = 10**k,
    would write the float (M >> b) + 1, which lies at least one ulp from t.
    """
    bits = times.view(np.int64)
    exponent = bits >> 52                     # negative for a negative time
    exact = (exponent >= 1023) & (exponent <= 1074)
    b = np.where(exact, 1075 - exponent, 1)
    ulp = np.left_shift(1, b)                 # 2**b, one ulp in units of r
    low = ulp - 1
    mantissa = np.where(exact, bits & (2**52 - 1) | 2**52, 0)
    integer = mantissa >> b
    r = mantissa & low
    digits = np.zeros_like(bits)
    out = np.zeros_like(bits)
    k = np.zeros_like(bits)
    todo = exact.copy()
    for n in range(1, 17):                   # 2**52 < 10**16 / 2: done at 16
        r *= 10
        digits *= 10
        digits += r >> b
        r &= low
        half = _POW10[n] // 2
        above = ulp - r
        done = todo & (np.minimum(r, above) <= half)
        if not done.any():
            continue
        np.copyto(out, digits + (above < r), where=done)
        np.copyto(k, n, where=done)
        exact &= ~done | (r != above)
        todo &= ~done
        if not todo.any():
            break
    return integer, out, k, exact


def _stream_rows(prefix: bytes, times) -> bytes:
    """The rows prefix + repr(t) + CRLF of a block of times, built in numpy.

    Each row is a line of a uint8 matrix: prefix | integer digits | "." |
    fraction digits | CRLF, with the unused digit cells left 0; dropping
    every 0 byte leaves the rows.  The matrix is built transposed, so that
    each column write is contiguous.  Rows _shortest_digits leaves inexact
    hold repr(t) after the prefix.
    """
    integer, fraction, k, exact = _shortest_digits(times)
    for a in (integer, fraction, k):
        a[~exact] = 0
    reprs = [repr(t).encode() for t in times[~exact].tolist()]
    width = max(map(len, reprs), default=0)
    n_int, n_frac = len(str(integer.max())), int(k.max())
    body = max(n_int + 1 + n_frac, width)
    p = len(prefix)
    cols = np.zeros((p + body + 2, times.size), dtype=np.uint8)
    cols[:p] = np.frombuffer(prefix, dtype=np.uint8)[:, None]
    q = integer
    for j in range(p + n_int - 1, p - 1, -1):   # last digit first, no zeros ahead
        tens = q // 10
        cols[j] = (q - 10 * tens + ord("0")) * (q > 0)
        q = tens
    cols[p + n_int] = ord(".") * exact
    q = fraction * _POW10[n_frac - k]         # k digits, then 0 cells
    for i in range(n_frac - 1, -1, -1):
        tens = q // 10
        cols[p + n_int + 1 + i] = (q - 10 * tens + ord("0")) * (i < k)
        q = tens
    cols[-2:] = np.frombuffer(b"\r\n", dtype=np.uint8)[:, None]
    if reprs:
        cells = b"".join(s.ljust(width, b"\0") for s in reprs)
        cols[p:p + width, ~exact] = np.frombuffer(cells, np.uint8).reshape(-1, width).T
    rows = np.ascontiguousarray(cols.T)
    return rows[rows != 0].tobytes()


def write_stream_csv(path, streams: tuple[TimestampStream, TimestampStream]):
    """Write both channels into one CSV: header channel,time_ns, then one
    channel,repr(time) row per event, ended by CRLF as csv writes rows.

    The rows of each block of _WRITE_BLOCK times are built in numpy by
    _stream_rows, with repr's shortest round-trip digits; times below 1 or
    from 2**52 up, and times midway between two shortest candidates, are
    written with repr itself.
    """
    with Path(path).open("wb") as fh:
        fh.write((",".join(STREAM_HEADER) + "\r\n").encode())
        for s in streams:
            prefix = f"{s.channel},".encode()
            for i in range(0, s.times.size, _WRITE_BLOCK):
                fh.write(_stream_rows(prefix, s.times[i:i + _WRITE_BLOCK]))


#: A lookup here instead of int() keeps a channel cell exactly "1" or "2".
_CHANNELS = {"1": 1, "2": 2}
#: U2 keeps cells such as "12", "01", " 1" and "1." distinct from "1".
_STREAM_DTYPE = [("channel", "U2"), ("time", "f8")]


def _stream_row(row):
    channel, t = row
    return _CHANNELS[channel], float(t)


def _holds_nul(path) -> bool:
    """Whether the file holds a NUL byte, read in 1 MiB blocks.  np.loadtxt
    drops trailing NULs from a U2 cell, so it reads "1\\0" as "1"."""
    with Path(path).open("rb") as fh:
        return any(b"\0" in block for block in iter(partial(fh.read, 1 << 20), b""))


def _bad_stream_rows(path) -> NoReturn:
    """Raise MalformedFile for a stream CSV that np.loadtxt rejected or that
    holds a bad channel: the row scan names the line of the first bad row."""
    for _ in _rows(path, STREAM_HEADER, _stream_row):
        pass
    raise MalformedFile(f"{path}: unreadable stream rows")


def read_stream_csv(path) -> tuple[TimestampStream, TimestampStream]:
    """Read a two-channel stream CSV; duration is taken from the sidecar if
    present, else from the latest timestamp."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        _body(fh, path, STREAM_HEADER)
    try:
        with warnings.catch_warnings():
            # A header-only file is two empty streams.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                              comments=None, dtype=_STREAM_DTYPE)
    except ValueError:
        _bad_stream_rows(path)
    is_one = rows["channel"] == "1"
    if not np.all(is_one | (rows["channel"] == "2")) or _holds_nul(path):
        _bad_stream_rows(path)
    duration = _sidecar(path).get("duration")
    if duration is None:
        hi = float(rows["time"].max()) if rows.size else 0.0
        duration = hi if hi > 0 else 1.0
    return tuple(
        TimestampStream(channel=ch, times=np.sort(rows["time"][mask]),
                        duration=duration)
        for ch, mask in ((1, is_one), (2, ~is_one))
    )


def write_sim_sidecar(path, cfg: SimConfig):
    """JSON sidecar with the full SimConfig for reproducibility."""
    _write_json(path, dataclasses.asdict(cfg))


def write_histogram_csv(path, h: CoincidenceHistogram):
    """Histogram CSV tau_ns,counts,g2,norm_err,tau_lo_ns,tau_hi_ns (g2 and
    norm_err empty when unnormalized), and its sidecar with duration, flags
    and normalization."""
    edges = h.bin_edges
    _write_table(path, HISTOGRAM_HEADER, (h.centers, h.counts, h.norm, h.norm_err,
                                          edges[:-1], edges[1:]))
    _write_json(sidecar_path(path), {
        "duration": h.duration, "flags": h.flags,
        "normalization": h.normalization,
    })


def _histogram_row(row):
    center, counts, g2, err, lo, hi = row
    g2, err = (float(cell) if cell else None for cell in (g2, err))
    return float(center), int(counts), g2, err, float(lo), float(hi)


def _optional_column(values):
    return None if all(v is None for v in values) else np.array(values, dtype=float)


def read_histogram_csv(path) -> CoincidenceHistogram:
    """Read a histogram CSV and its sidecar.  The bin edges are taken from
    the tau_lo_ns and tau_hi_ns columns, where each bin must start at the end
    of the one before.  Without a sidecar the duration is 1.0, with no flags
    and no normalization."""
    rows = list(_rows(path, HISTOGRAM_HEADER, _histogram_row))
    if len(rows) < 2:
        raise MalformedFile(f"{path}: need at least two bins")
    _, counts, norm, err, lo, hi = zip(*rows)
    if lo[1:] != hi[:-1]:
        raise MalformedFile(f"{path}: each bin's tau_lo_ns must equal the "
                            "tau_hi_ns of the bin before")
    edges = np.array(lo + hi[-1:])
    meta = _sidecar(path)
    return CoincidenceHistogram(
        bin_edges=edges,
        counts=counts,
        duration=meta.get("duration", 1.0),
        norm=_optional_column(norm),
        norm_err=_optional_column(err),
        flags=meta.get("flags", []),
        normalization=meta.get("normalization"),
    )


def _saturation_row(row):
    power, intensity = row
    return float(power), float(intensity)


def read_saturation_csv(path) -> list[tuple[float, float]]:
    return list(_rows(path, SATURATION_HEADER, _saturation_row))


def write_sweep_csv(path, x, values):
    """Two-column sweep table: header x,value."""
    _write_table(path, SWEEP_HEADER, (x, values))


def write_fit_report(path, result):
    """JSON report of a FitResult."""
    _write_json(path, dataclasses.asdict(result))


def write_peaks_report(path, peaks):
    """JSON report of a PeakIntegration."""
    _write_json(path, dataclasses.asdict(peaks))
