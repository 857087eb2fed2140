"""File formats and the command-line front end."""

import argparse
import contextlib
import copy
import dataclasses
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberphoton import correlate as corr
from fiberphoton import io as fio
from fiberphoton.cli import build_parser, main
from fiberphoton.correlate import CoincidenceHistogram, make_edges
from fiberphoton.emitter import EmitterParams, PulseParams
from fiberphoton.errors import InvalidParameter, MalformedFile
from fiberphoton.sim import (SimConfig, TimestampStream, simulate_emission,
                             simulate_streams)


def reference_write_stream_csv(path, streams):
    """The stream writer whose rows were the joined reprs of each block: the
    oracle for the bytes of fio.write_stream_csv."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(fio.STREAM_HEADER) + "\r\n")
        for s in streams:
            prefix = f"{s.channel},"
            for i in range(0, s.times.size, fio._WRITE_BLOCK):
                block = s.times[i:i + fio._WRITE_BLOCK].tolist()
                fh.write(prefix + ("\r\n" + prefix).join(map(repr, block))
                         + "\r\n")


def assert_writes_like_reference(streams):
    with tempfile.TemporaryDirectory() as tmp:
        path, ref = Path(tmp) / "stream.csv", Path(tmp) / "reference.csv"
        fio.write_stream_csv(path, streams)
        reference_write_stream_csv(ref, streams)
        assert path.read_bytes() == ref.read_bytes()


#: Python's own constructor and attribute text, which no config error may hold.
LEAKS = ("__init__", "argument after", "has no attribute", "positional argument")

#: Any JSON value: what a config file may hold at any position.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

#: A simulate section that sets every key of the schema.
FULL_SECTION = {"emitter": {"w_p": 0.2, "gamma": 0.4, "g2_0": 0.0},
                "pulse": {"tau_o": 6.0, "period": 100.0},
                "duration": 1e5, "seed": 1, "detection_efficiency": 1.0,
                "background_rate": 0.0, "jitter_sigma": 0.0, "dead_time": 0.0}

#: Every section and key position of FULL_SECTION, as key paths.
SECTION_POSITIONS = [(), *((key,) for key in FULL_SECTION),
                     *((name, key) for name in ("emitter", "pulse")
                       for key in FULL_SECTION[name])]


def small_config(seed=1):
    return SimConfig(emitter=EmitterParams(w_p=0.01, gamma=0.02),
                     duration=1e5, seed=seed)


class TestStreamCsv:
    def test_round_trip_with_sidecar(self, tmp_path):
        cfg = small_config()
        streams = simulate_streams(cfg)
        path = tmp_path / "stream.csv"
        fio.write_stream_csv(path, streams)
        fio.write_sim_sidecar(fio.sidecar_path(path), cfg)
        back = fio.read_stream_csv(path)
        for orig, rt in zip(streams, back):
            assert rt.duration == cfg.duration
            assert np.array_equal(rt.times, orig.times)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1e9), unique=True),
           st.lists(st.floats(0.0, 1e9), unique=True))
    @example([1.0, 5e8, float(np.nextafter(5e8, np.inf))], [2.0, 3.0])
    def test_round_trip_is_lossless(self, times1, times2):
        streams = tuple(TimestampStream(channel=ch, times=sorted(t), duration=1e9)
                        for ch, t in ((1, times1), (2, times2)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            fio.write_stream_csv(path, streams)
            back = fio.read_stream_csv(path)
        for orig, rt in zip(streams, back):
            assert np.array_equal(rt.times, orig.times)

    def test_duration_fallback_without_sidecar(self, tmp_path):
        cfg = small_config()
        streams = simulate_streams(cfg)
        path = tmp_path / "stream.csv"
        fio.write_stream_csv(path, streams)
        back = fio.read_stream_csv(path)
        last = max(s.times[-1] for s in streams)
        assert back[0].duration == pytest.approx(last, abs=1e-5)

    @pytest.mark.parametrize("duration", ["abc", None, True, -1.0, float("nan")])
    def test_sidecar_duration_must_be_a_positive_number(self, tmp_path, duration):
        path = tmp_path / "stream.csv"
        path.write_text("channel,time_ns\n1,1.0\n2,2.0\n")
        fio.sidecar_path(path).write_text(json.dumps({"duration": duration}))
        with pytest.raises(MalformedFile, match="stream.config.json.*duration"):
            fio.read_stream_csv(path)

    def test_malformed_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2.0\n")
        with pytest.raises(MalformedFile) as err:
            fio.read_stream_csv(path)
        assert err.value.line == 1

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,time_ns\n1,1.0\n1,not-a-number\n")
        with pytest.raises(MalformedFile) as err:
            fio.read_stream_csv(path)
        assert err.value.line == 3

    def test_bad_channel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("channel,time_ns\n3,1.0\n")
        with pytest.raises(MalformedFile):
            fio.read_stream_csv(path)

    def test_writer_bytes(self, tmp_path):
        """CRLF rows of channel,repr(time), channel 1 first."""
        streams = (
            TimestampStream(channel=1, duration=1e17, times=[
                0.0, 1 / 3, 5e8, float(np.nextafter(5e8, np.inf))]),
            TimestampStream(channel=2, times=[2.5e-7, 1e16], duration=1e17),
        )
        path = tmp_path / "stream.csv"
        fio.write_stream_csv(path, streams)
        assert path.read_bytes() == (
            b"channel,time_ns\r\n1,0.0\r\n1,0.3333333333333333\r\n"
            b"1,500000000.0\r\n1,500000000.00000006\r\n"
            b"2,2.5e-07\r\n2,1e+16\r\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False,
                              allow_subnormal=True)
                    # [1, 2**52), where the row builder writes the digits itself
                    | st.floats(1.0, 2.0**52), unique=True))
    @example([0.0, 5e-324, 2.5e-07])                  # below 1: repr
    @example([float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0))])
    @example([1 / 3, 2.0, float(np.nextafter(2.0, 3.0))])   # 2.0: a power of two
    @example([2**52 - 0.5, 2.0**52, float(np.nextafter(2.0**52, np.inf))])
    @example([1e16])                                  # beyond 2**52: repr
    @example([895478557193099.75])                    # a tie: repr
    @example([9999999.999999998, 1e7, float(np.nextafter(1e7, np.inf))])
    @example([5e8, float(np.nextafter(5e8, np.inf))])
    def test_writer_bytes_match_the_repr_join(self, times):
        """The numpy row builder writes the bytes of the repr join."""
        assert_writes_like_reference(tuple(
            TimestampStream(channel=ch, times=sorted(times), duration=1e300)
            for ch in (1, 2)))

    def test_simulated_stream_bytes_match_the_repr_join(self):
        """A cw stream of three write blocks per channel, byte for byte."""
        cfg = SimConfig(emitter=EmitterParams(w_p=0.2, gamma=0.4),
                        duration=3e6, seed=11)
        streams = simulate_streams(cfg)
        assert min(s.times.size for s in streams) > 2 * fio._WRITE_BLOCK
        assert_writes_like_reference(streams)

    def test_round_trip_across_write_blocks(self, tmp_path):
        """Four write blocks and one more event per channel."""
        rng = np.random.default_rng(5)
        n = 4 * fio._WRITE_BLOCK + 1
        streams = tuple(
            TimestampStream(channel=ch, duration=1e9,
                            times=np.cumsum(rng.uniform(1e-3, 1e4, n)))
            for ch in (1, 2))
        path = tmp_path / "stream.csv"
        fio.write_stream_csv(path, streams)
        assert path.read_bytes().count(b"\r\n") == 2 * n + 1
        back = fio.read_stream_csv(path)
        for orig, rt in zip(streams, back):
            assert np.array_equal(rt.times, orig.times)

    @pytest.mark.parametrize("body, line", [
        ("1,1.0\r\n3,2.0\r\n", 3),
        ("01,1.0\r\n", 2),
        (" 1,1.0\r\n", 2),
        ("1.0,1.0\r\n", 2),
        ("2,1.0\r\n12,2.0\r\n", 3),
        ('"1",1.0\r\n', 2),
        ("1,1.0\r\n2,1.0e\r\n", 3),
        ("1,1.0,2.0\r\n", 2),
        ("1,1.0\r\n2\r\n", 3),
        ("1,1.0\r\n\r\n2,bad\r\n", 4),
        ("1,1.0\r\n" + "1" * 200_000 + ",2.0\r\n", 3),
        ("1,1.0\r\n1\x00,2.0\r\n", 3),
    ], ids=["channel-3", "channel-01", "channel-space-1", "channel-1.0",
            "channel-12", "quoted-channel", "bad-float", "three-columns",
            "one-column", "after-blank-line", "oversized-cell",
            "channel-trailing-nul"])
    def test_malformed_stream_row_reports_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(("channel,time_ns\r\n" + body).encode())
        with pytest.raises(MalformedFile) as err:
            fio.read_stream_csv(path)
        assert err.value.line == line

    def test_header_only_is_two_empty_streams(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"channel,time_ns\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = fio.read_stream_csv(path)
        assert [(s.channel, s.times.size, s.duration) for s in back] == [
            (1, 0, 1.0), (2, 0, 1.0)]


#: Times below 1 and from 2**52 up, which repr writes, and the row builder's
#: own range between them.
TWIN_TIMES = st.lists(st.floats(0.0, 1.0) | st.floats(1.0, 2.0**52)
                      | st.floats(2.0**52, 2.0**60), max_size=12)


@st.composite
def stream_pairs(draw):
    """Two streams, either possibly empty, with nextafter ties and times at
    the duration, and whether a sidecar gives that duration."""
    duration = draw(st.sampled_from([1.0, 5e8, 2.0**52, 2.0**60]))
    streams = []
    for ch in (1, 2):
        times = [t for t in draw(TWIN_TIMES) if t <= duration]
        times += [duration] * draw(st.booleans())
        times += [float(np.nextafter(t, np.inf)) for t in times[:draw(st.integers(0, 2))]]
        streams.append(TimestampStream(
            channel=ch, duration=duration,
            times=sorted({t for t in times if t <= duration})))
    return tuple(streams), draw(st.booleans())


def write_pair(path, pair):
    streams, sidecar = pair
    fio.write_stream_csv(path, streams)
    if sidecar:
        fio.sidecar_path(path).write_text(json.dumps({"duration": streams[0].duration}))


def read_outcome(path):
    """What read_stream_csv gives: each stream's channel, duration and time
    bytes, or the type and text of the error it raises."""
    try:
        return [(s.channel, s.duration, s.times.tobytes())
                for s in fio.read_stream_csv(path)]
    except (MalformedFile, InvalidParameter) as exc:
        return type(exc), str(exc)


def parse_outcome(path):
    """What read_stream_csv gives once the twin is gone: the parse alone."""
    twin = path.with_suffix(".npz")
    kept = twin.read_bytes() if twin.exists() else None
    twin.unlink(missing_ok=True)
    try:
        return read_outcome(path)
    finally:
        if kept is not None:
            twin.write_bytes(kept)


class TestStreamTwin:
    """The binary twin <name>.npz that write_stream_csv writes next to a
    stream CSV: read_stream_csv uses it only while it holds the digest of
    the CSV's bytes, and then reads what the parse of the CSV reads."""

    @settings(max_examples=80, deadline=None)
    @given(stream_pairs())
    @example((tuple(TimestampStream(channel=ch, times=[], duration=1.0)
                    for ch in (1, 2)), False))
    @example(((TimestampStream(channel=1, duration=1e9, times=[
        1.0, 5e8, float(np.nextafter(5e8, np.inf)), 1e9]),
        TimestampStream(channel=2, times=[0.0, 0.5], duration=1e9)), True))
    def test_twin_reads_what_the_parse_reads(self, pair):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            write_pair(path, pair)
            assert fio._read_twin(path) is not None
            through_twin = read_outcome(path)
            assert through_twin == parse_outcome(path)
        streams, _ = pair
        assert [t for _, _, t in through_twin] == [s.times.tobytes() for s in streams]

    @settings(max_examples=80, deadline=None)
    @given(stream_pairs(), st.integers(0), st.integers(1, 255))
    def test_an_edited_csv_is_parsed(self, pair, where, delta):
        """After a one-byte edit the twin is not used: the reader returns the
        parse of the edited file, or raises the parse's error."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            write_pair(path, pair)
            data = bytearray(path.read_bytes())
            where %= len(data)
            data[where] = (data[where] + delta) % 256
            path.write_bytes(bytes(data))
            assert fio._read_twin(path) is None
            assert read_outcome(path) == parse_outcome(path)

    @pytest.mark.parametrize("fault", [
        "truncated", "extra-key", "missing-key", "float32-ch1", "2-d-ch1",
        "pickled-ch1", "not-an-npz"])
    @settings(max_examples=25, deadline=None)
    @given(pair=stream_pairs(), cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_a_broken_twin_is_passed_over(self, fault, pair, cut):
        """A twin with the right digest but the wrong contents neither loads
        nor raises: the parse result comes back."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stream.csv"
            write_pair(path, pair)
            twin = path.with_suffix(".npz")
            with np.load(twin) as npz:
                arrays = dict(npz)
            if fault == "truncated":
                data = twin.read_bytes()
                twin.write_bytes(data[:int(cut * len(data))])
            elif fault == "not-an-npz":
                np.save(twin.with_suffix(".npy"), arrays["ch1"])
                twin.with_suffix(".npy").rename(twin)
            else:
                if fault == "extra-key":
                    arrays["ch3"] = arrays["ch2"]
                elif fault == "missing-key":
                    del arrays["ch2"]
                elif fault == "float32-ch1":
                    arrays["ch1"] = arrays["ch1"].astype(np.float32)
                elif fault == "2-d-ch1":
                    arrays["ch1"] = arrays["ch1"][None, :]
                else:
                    arrays["ch1"] = arrays["ch1"].astype(object)
                np.savez(twin, **arrays)
            assert fio._read_twin(path) is None
            assert read_outcome(path) == parse_outcome(path)

    @pytest.mark.parametrize("channels", [(1, 1), (2, 2), (1,), (1, 2, 2)])
    def test_streams_other_than_one_per_channel_are_refused(self, tmp_path,
                                                            channels):
        """The twin holds one array per channel, so the writer refuses what
        the parse would merge or leave empty, and writes no file."""
        streams = tuple(TimestampStream(channel=ch, times=[1.0], duration=10.0)
                        for ch in channels)
        with pytest.raises(InvalidParameter, match="one stream of channel 1"):
            fio.write_stream_csv(tmp_path / "stream.csv", streams)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_csv_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, cpus):
        """Blocks built on any number of threads are written in order."""
        monkeypatch.setattr(fio, "_WRITE_BLOCK", 100)
        monkeypatch.setattr(fio.os, "cpu_count", lambda: cpus)
        rng = np.random.default_rng(7)
        streams = tuple(
            TimestampStream(channel=ch, duration=1e9,
                            times=np.cumsum(rng.uniform(1e-3, 1e4, n)))
            for ch, n in ((1, 1050), (2, 333)))
        assert_writes_like_reference(streams)

    def test_csv_named_like_its_twin_keeps_its_rows(self, tmp_path):
        """A CSV at a .npz path is not overwritten by its twin."""
        path = tmp_path / "stream.npz"
        streams = tuple(TimestampStream(channel=ch, times=[float(ch)], duration=2.0)
                        for ch in (1, 2))
        fio.write_stream_csv(path, streams)
        assert path.read_bytes() == b"channel,time_ns\r\n1,1.0\r\n2,2.0\r\n"


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        edges = make_edges(10.0, 1.0)
        counts = np.arange(20, dtype=np.int64)
        norm = counts / 10.0
        err = np.sqrt(np.maximum(counts, 1)) / 10.0
        h = CoincidenceHistogram(edges, counts, 1e6, norm=norm, norm_err=err)
        path = tmp_path / "hist.csv"
        fio.write_histogram_csv(path, h)
        back = fio.read_histogram_csv(path)
        assert sorted(json.loads(fio.sidecar_path(path).read_text())) == [
            "duration", "flags", "normalization"]
        assert back.duration == 1e6
        assert np.array_equal(back.counts, counts)
        assert np.array_equal(back.bin_edges, edges)
        assert np.array_equal(back.norm, norm)
        assert np.array_equal(back.norm_err, err)

    @settings(max_examples=60, deadline=None)
    @given(bin_width=st.floats(1e-3, 1e3), bins_per_side=st.integers(1, 300),
           window_excess=st.floats(0.0, 0.49), duration=st.floats(1e-3, 1e15),
           flags=st.lists(st.text(max_size=12), max_size=3),
           normalization=st.sampled_from([None, "raw", "cw", "pulsed"]),
           scale=st.floats(1e-300, 1e300), seed=st.integers(0, 2**32 - 1))
    @example(bin_width=1 / 3, bins_per_side=300, window_excess=0.0,
             duration=1e7, flags=["low-statistics"], normalization="cw",
             scale=1e-3, seed=0)
    # Bin centres alone give these edges back up to 1.4e-14 ns off.
    @example(bin_width=0.1, bins_per_side=300, window_excess=0.0, duration=1e6,
             flags=[], normalization=None, scale=1.0, seed=0)
    @example(bin_width=0.7, bins_per_side=142, window_excess=0.0, duration=1e6,
             flags=[], normalization=None, scale=1.0, seed=0)
    def test_round_trip_is_lossless(self, bin_width, bins_per_side,
                                    window_excess, duration, flags,
                                    normalization, scale, seed):
        """normalization None is an unnormalized histogram; "raw" has norm
        values but no recorded normalization model."""
        window = (bins_per_side + window_excess) * bin_width
        edges = make_edges(window, bin_width)
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 1000, edges.size - 1)
        norm = err = None
        if normalization is not None:
            norm, err = rng.random((2, counts.size)) * scale
        h = CoincidenceHistogram(
            edges, counts, duration, norm=norm, norm_err=err, flags=flags,
            normalization=None if normalization == "raw" else normalization)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.csv"
            fio.write_histogram_csv(path, h)
            back = fio.read_histogram_csv(path)
        assert np.array_equal(back.bin_edges, edges)
        assert np.array_equal(back.counts, h.counts)
        assert back.total_pairs == h.total_pairs
        for name in ("norm", "norm_err"):
            if getattr(h, name) is None:
                assert getattr(back, name) is None
            else:
                assert np.array_equal(getattr(back, name), getattr(h, name))
        assert (back.duration, back.flags, back.normalization) \
            == (h.duration, h.flags, h.normalization)

    def test_fallback_without_sidecar(self, tmp_path):
        edges = make_edges(5.2, 0.5)
        h = CoincidenceHistogram(edges, np.ones(20, dtype=np.int64), 1e3,
                                 flags=["low-statistics"])
        path = tmp_path / "hist.csv"
        fio.write_histogram_csv(path, h)
        fio.sidecar_path(path).unlink()
        back = fio.read_histogram_csv(path)
        assert (back.bin_edges[0], back.bin_edges[-1]) == (-5.0, 5.0)
        assert (back.duration, back.flags, back.normalization) == (1.0, [], None)

    @pytest.mark.parametrize("meta", [{"duration": "abc"}, {"duration": 0},
                                      {"duration": float("inf")}, [1e3]])
    def test_bad_sidecar_rejected(self, tmp_path, meta):
        path = tmp_path / "hist.csv"
        fio.write_histogram_csv(path, CoincidenceHistogram(
            make_edges(5.0, 1.0), np.ones(10, dtype=np.int64), 1e3))
        fio.sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(MalformedFile, match="hist.config.json"):
            fio.read_histogram_csv(path)

    def test_unnormalized_round_trip(self, tmp_path):
        edges = make_edges(5.0, 1.0)
        counts = np.ones(10, dtype=np.int64)
        h = CoincidenceHistogram(edges, counts, 1e3)
        path = tmp_path / "hist.csv"
        fio.write_histogram_csv(path, h)
        back = fio.read_histogram_csv(path)
        assert back.norm is None

    def test_malformed(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("nope\n")
        with pytest.raises(MalformedFile):
            fio.read_histogram_csv(path)

    def _write_rows(self, path, *rows):
        path.write_text("\n".join([",".join(fio.HISTOGRAM_HEADER), *rows]) + "\n")

    def test_bins_must_adjoin(self, tmp_path):
        path = tmp_path / "h.csv"
        self._write_rows(path, "-1.5,1,,,-2.0,-1.0", "-0.5,1,,,-0.9,0.0")
        with pytest.raises(MalformedFile, match="tau_lo_ns"):
            fio.read_histogram_csv(path)

    @pytest.mark.parametrize("row", ["-0.5,1,,,-1.0,0.0,junk", "-0.5,1,,"],
                             ids=["extra-cell", "four-columns"])
    def test_wrong_cell_count_reports_line(self, tmp_path, row):
        path = tmp_path / "h.csv"
        self._write_rows(path, "-1.5,1,,,-2.0,-1.0", row)
        with pytest.raises(MalformedFile) as err:
            fio.read_histogram_csv(path)
        assert err.value.line == 3

    def test_four_column_header_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("tau_ns,counts,g2,norm_err\n-4.5,1,,\n-3.5,1,,\n")
        with pytest.raises(MalformedFile) as err:
            fio.read_histogram_csv(path)
        assert err.value.line == 1


class TestSaturationCsv:
    def test_round_trip(self, tmp_path):
        data = [(0.1, 300.0), (0.5, 900.0), (1.0, 1200.0), (2.0, 1400.0)]
        path = tmp_path / "sat.csv"
        path.write_text("power_uW,intensity_cps\n"
                        + "".join(f"{p!r},{i!r}\n" for p, i in data))
        assert fio.read_saturation_csv(path) == data

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "sat.csv"
        path.write_text("power_uW,intensity_cps\n0.1,300\nbad,row\n")
        with pytest.raises(MalformedFile) as err:
            fio.read_saturation_csv(path)
        assert err.value.line == 3

    def test_extra_cell_rejected(self, tmp_path):
        path = tmp_path / "sat.csv"
        path.write_text("power_uW,intensity_cps\n0.1,300,junk\n0.5,900\n")
        with pytest.raises(MalformedFile) as err:
            fio.read_saturation_csv(path)
        assert err.value.line == 2


class TestCliSimulate:
    def test_deterministic_rerun(self, tmp_path):
        args = ["simulate", "--wp", "0.01", "--gamma", "0.02",
                "--duration", "1e5", "--seed", "7", "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "stream.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "stream.csv").read_bytes() == first
        assert fio.sidecar_path(tmp_path / "stream.csv").exists()

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--wp", "0.01"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path):
        code = main(["simulate", "--wp", "-1", "--duration", "1e5",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_acquisition_beyond_memory_exits_2(self, tmp_path, capsys):
        """The expected emissions are checked against physical memory before
        any draw (numpy used to fail with a traceback at 1e20 ns)."""
        out = tmp_path / "out"
        code = main(["simulate", "--wp", "0.2", "--gamma", "0.4",
                     "--duration", "1e20", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_dark_events_beyond_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        """Few emissions but ~2e12 background (dark-count) events: they are
        checked against physical memory before any generator is made (numpy
        used to fail with a traceback allocating 7.28 TiB)."""
        made = []
        monkeypatch.setattr("fiberphoton.sim._rng_children",
                            lambda *a: made.append(a))
        out = tmp_path / "out"
        code = main(["simulate", "--wp", "1e-9", "--gamma", "1e-9",
                     "--duration", "1e15", "--background-rate", "2e-3",
                     "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()
        assert made == []

    def test_pulsed_requires_pulse_flags(self, tmp_path):
        code = main(["simulate", "--wp", "0.5", "--tau-o", "6",
                     "--duration", "1e5", "--seed", "1", "--out", str(tmp_path)])
        assert code == 2

    @settings(max_examples=60, deadline=None)
    @given(pulse=st.one_of(
        st.none(),
        st.builds(PulseParams, tau_o=st.floats(0.1, 50.0),
                  period=st.floats(51.0, 1e4))),
        seed=st.integers(0, 2**32), jitter=st.floats(0.0, 10.0))
    def test_sidecar_dict_round_trips(self, pulse, seed, jitter):
        """The sidecar schema is dataclasses.asdict of the SimConfig."""
        cfg = SimConfig(emitter=EmitterParams(w_p=0.5, gamma=0.3),
                        duration=1e5, seed=seed, pulse=pulse, jitter_sigma=jitter)
        assert SimConfig.from_dict(dataclasses.asdict(cfg)) == cfg

    @settings(max_examples=400, deadline=None)
    @given(path=st.sampled_from(SECTION_POSITIONS), value=JSON_VALUES)
    @example(path=("pulse", "tau_o"), value=10**400)
    def test_from_dict_returns_a_config_or_raises_invalid_parameter(self, path,
                                                                    value):
        """Any JSON value at any position of a simulate section gives a
        SimConfig or an InvalidParameter in the package's own words."""
        section = value
        if path:
            section = copy.deepcopy(FULL_SECTION)
            parent = section if len(path) == 1 else section[path[0]]
            parent[path[-1]] = value
        try:
            cfg = SimConfig.from_dict(section)
        except InvalidParameter as exc:
            assert not any(leak in str(exc) for leak in LEAKS), str(exc)
        else:
            assert isinstance(cfg, SimConfig)

    def test_flags_left_out_take_the_config_defaults(self, tmp_path):
        """The simulate flags restate none of SimConfig's defaults."""
        assert main(["simulate", "--wp", "0.5", "--duration", "1e5",
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / "stream.config.json").read_text())
        assert sidecar == dataclasses.asdict(SimConfig(
            emitter=EmitterParams(w_p=0.5), duration=1e5, seed=1))

    def test_pulse_flag_without_period_names_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--wp", "0.5", "--tau-o", "6", "--duration",
                     "1e5", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "missing simulate.pulse config keys ['period']" in err
        assert not any(leak in err for leak in LEAKS)
        assert not out.exists()


class TestCliCorrelate:
    def _simulate(self, tmp_path, seed=3):
        assert main(["simulate", "--wp", "0.01", "--gamma", "0.02",
                     "--duration", "5e5", "--seed", str(seed),
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "stream.csv"

    def test_correlate_writes_histogram(self, tmp_path):
        stream = self._simulate(tmp_path)
        code = main(["correlate", str(stream), "--window", "100",
                     "--bin", "1", "--out", str(tmp_path)])
        assert code == 0
        h = fio.read_histogram_csv(tmp_path / "histogram.csv")
        assert h.counts.sum() > 0
        assert h.norm is not None
        assert (h.bin_edges[-1], h.duration, h.normalization) == (100.0, 5e5, "cw")

    def test_third_of_a_ns_bins_fit(self, tmp_path):
        stream = self._simulate(tmp_path)
        assert main(["correlate", str(stream), "--window", "100",
                     "--bin", "0.3333333333333333", "--out", str(tmp_path)]) == 0
        assert main(["fit", str(tmp_path / "histogram.csv"), "--model", "cw",
                     "--out", str(tmp_path)]) == 0

    def test_integrate_peaks_report(self, tmp_path):
        assert main(["simulate", "--wp", "0.5", "--gamma", "0.3",
                     "--tau-o", "6", "--period", "100", "--duration", "1e5",
                     "--seed", "4", "--out", str(tmp_path)]) == 0
        assert main(["correlate", str(tmp_path / "stream.csv"), "--window", "1000",
                     "--period", "100",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "histogram.peaks.json").read_text())
        assert sorted(report) == ["background_per_bin", "g2_int", "g2_int_sigma",
                                  "peak_halfwidth", "period", "side_peak_sums",
                                  "zero_peak_sum"]
        assert (report["peak_halfwidth"], report["period"]) == (17.5, 100.0)

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("channel,time_ns\n1,zzz\n")
        assert main(["correlate", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", ["--peak-halfwidth", "--background-per-bin"])
    def test_peak_options_without_period_exit_2(self, tmp_path, capsys, flag):
        stream = self._simulate(tmp_path)
        assert main(["correlate", str(stream), flag, "10",
                     "--out", str(tmp_path)]) == 2
        assert "--period" in capsys.readouterr().err
        assert not (tmp_path / "histogram.csv").exists()

    @pytest.mark.parametrize("options, word", [
        (["--window", "nan"], "window"),
        (["--bin", "0"], "bin_width"),
        (["--period", "nan"], "period"),
        (["--period", "100", "--peak-halfwidth", "60"], "peak_halfwidth"),
        (["--period", "100", "--background-per-bin", "-1"], "background_per_bin"),
        (["--window", "100", "--period", "100"], "no side peak"),
        (["--period", "0.1", "--peak-halfwidth", "0"], "no bin"),
        (["--period", "1.5", "--peak-halfwidth", "0.25"], "no bin centre"),
    ], ids=["window-nan", "bin-zero", "period-nan", "halfwidth-beyond-half-period",
            "negative-background", "window-without-side-peak",
            "period-narrower-than-a-bin", "peak-between-bin-centres"])
    def test_peaks_that_cannot_be_integrated_write_nothing(
            self, tmp_path, capsys, monkeypatch, options, word):
        """A bad histogram or peak option exits 2 before any stream is read or
        correlated."""
        stream = self._simulate(tmp_path)
        calls = []

        def spy(real):
            return lambda *a, **k: calls.append(a) or real(*a, **k)
        monkeypatch.setattr(fio, "read_stream_csv", spy(fio.read_stream_csv))
        monkeypatch.setattr(corr, "cross_correlate", spy(corr.cross_correlate))
        out = tmp_path / "out"
        assert main(["correlate", str(stream), *options, "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("head, tail", [
        (b"channel,time_\xffns\r\n", b""),
        (b"channel,time_ns\r\n1,1.0\r\n", b"\xff,2.0\r\n"),
        (b"channel,time_ns\r\n" + b"1,1.0\r\n" * 5000, b"2,\xff2.0\r\n"),
    ], ids=["header", "first-block", "late-row"])
    def test_non_utf8_stream_exits_2(self, tmp_path, capsys, head, tail):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(head + tail)
        assert main(["correlate", str(bad), "--out", str(tmp_path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_workers_below_one_exits_2(self, tmp_path, capsys, monkeypatch):
        stream = self._simulate(tmp_path)
        reads = []
        monkeypatch.setattr(fio, "read_stream_csv", reads.append)
        out = tmp_path / "out"
        assert main(["correlate", str(stream), "--workers", "0",
                     "--out", str(out)]) == 2
        assert "n_chunks" in capsys.readouterr().err
        assert not out.exists()
        assert reads == []

    @pytest.mark.parametrize("body, duration, word", [
        ("1,1.0\r\n1,nan\r\n2,2.0\r\n2,3.0\r\n", 20.0, "increasing"),
        ("2,1.0\r\n1,nan\r\n", None, "within"),
        ("1,1.0\r\n1,inf\r\n2,2.0\r\n2,3.0\r\n", None, "duration"),
        ("1,-inf\r\n1,1.0\r\n2,2.0\r\n", None, "within"),
    ], ids=["nan-with-sidecar", "lone-nan", "inf", "minus-inf"])
    def test_non_finite_stream_times_exit_2(self, tmp_path, capsys, body,
                                            duration, word):
        stream = tmp_path / "in" / "stream.csv"
        stream.parent.mkdir()
        stream.write_text("channel,time_ns\r\n" + body, newline="")
        if duration is not None:
            fio.sidecar_path(stream).write_text(json.dumps({"duration": duration}))
        out = tmp_path / "out"
        assert main(["correlate", str(stream), "--out", str(out)]) == 2
        assert word in capsys.readouterr().err
        assert not out.exists()

    def test_sidecar_duration_not_a_number_exits_2(self, tmp_path, capsys):
        stream = self._simulate(tmp_path)
        fio.sidecar_path(stream).write_text(json.dumps({"duration": "abc"}))
        out = tmp_path / "out"
        assert main(["correlate", str(stream), "--out", str(out)]) == 2
        assert "stream.config.json" in capsys.readouterr().err
        assert not out.exists()

    def test_more_than_two_stream_paths_exit_2(self, tmp_path):
        stream = str(self._simulate(tmp_path))
        with pytest.raises(SystemExit) as err:
            main(["correlate", stream, stream, stream, "--out", str(tmp_path)])
        assert err.value.code == 2
        assert not (tmp_path / "histogram.csv").exists()

    def test_two_stream_paths_exit_2(self, tmp_path, capsys):
        """correlate takes one two-channel stream CSV; a second path is a
        usage error, and nothing is written."""
        stream = str(self._simulate(tmp_path / "in"))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["correlate", stream, stream, "--out", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_3(self, tmp_path):
        assert main(["correlate", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 3

    def test_empty_input_warns_exits_0(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("channel,time_ns\n")
        code = main(["correlate", str(empty), "--out", str(tmp_path)])
        assert code == 0
        assert "no coincidences" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, word", [
    ("simulate", ["--background-rate", "nan"], "background_rate"),
    ("simulate", ["--jitter", "nan"], "jitter_sigma"),
    ("simulate", ["--background-rate", "inf"], "background_rate"),
    ("simulate", ["--wp", "inf"], "w_p"),
    ("simulate", ["--gamma", "inf"], "gamma"),
    ("simulate", ["--gamma", "nan"], "gamma"),
    ("simulate", ["--duration", "inf"], "duration"),
    ("simulate", ["--tau-o", "6", "--period", "inf"], "period"),
    ("correlate", ["--window", "nan"], "window"),
    ("correlate", ["--window", "inf"], "window"),
    ("correlate", ["--bin", "nan"], "bin_width"),
    ("correlate", ["--window", "1000", "--period", "nan"], "period"),
    ("correlate", ["--window", "1000", "--period", "100",
                   "--peak-halfwidth", "nan"], "peak_halfwidth"),
    ("correlate", ["--window", "1000", "--period", "100",
                   "--background-per-bin", "nan"], "background_per_bin"),
    ("simulate", ["--seed", "-1"], "seed"),
    ("correlate", ["--window", "1e15", "--bin", "1e-3"], "allocate"),
])
def test_non_finite_number_flag_exits_2(tmp_path, capsys, command, flags, word):
    """A NaN or infinite number, a negative seed or a histogram too large to
    allocate is an invalid configuration: exit 2, no file."""
    stream = tmp_path / "in" / "stream.csv"
    assert main(["simulate", "--wp", "0.01", "--gamma", "0.02", "--duration",
                 "1e5", "--seed", "1", "--out", str(stream.parent)]) == 0
    capsys.readouterr()
    given = {"simulate": ["--wp", "0.5", "--duration", "1e5", "--seed", "1"],
             "correlate": [str(stream)]}[command]
    out = tmp_path / "out"
    assert main([command, *given, *flags, "--out", str(out)]) == 2
    assert word in capsys.readouterr().err
    assert not out.exists()


def _parser_options(parser):
    """Every option string of parser and of its subcommands' parsers."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_options(sub)


def test_readme_flags_are_parser_options():
    """Every --flag on a fiberphoton line or a comment of the README's sh
    blocks is an option of some fiberphoton parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    ours = "\n".join(line for line in lines
                     if line.lstrip().startswith(("fiberphoton ", "#")))
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", ours))
    assert "--workers" in flags
    assert flags - set(_parser_options(build_parser())) == set()


def test_parser_options_are_in_the_readme():
    """Every option string of every fiberphoton parser, help aside, appears
    in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    options = set(_parser_options(build_parser())) - {"-h", "--help"}
    missing = {opt for opt in options
               if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)}
    assert missing == set()


def test_readme_library_example_runs(capsys):
    """The README's python block runs as written and prints the fitted g2_0
    and 2/w_p, two finite numbers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "__readme__"})
    values = [float(word) for word in capsys.readouterr().out.split()]
    assert len(values) == 2 and all(map(np.isfinite, values)), values


def test_readme_simulate_schema_is_the_config_fields():
    """The names that the README's simulate bullet quotes before its first
    full stop are exactly the fields of SimConfig, EmitterParams and
    PulseParams."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = re.search(r"^- `simulate` \(required\) holds the `SimConfig` "
                       r"fields:(.*?)\.\s", readme, flags=re.M | re.S).group(1)
    quoted = set(re.findall(r"`(\w+)`", schema)) - {"null"}
    assert quoted == {f.name for cls in (SimConfig, EmitterParams, PulseParams)
                      for f in dataclasses.fields(cls)}


class TestCliFit:
    def test_saturation_fit_and_unknown_model(self, tmp_path, capsys):
        from fiberphoton.fit import saturation_model
        powers = np.linspace(0.05, 3.0, 12)
        data = zip(powers.tolist(),
                   saturation_model(powers, 1500.0, 0.54, 100.0).tolist())
        sat = tmp_path / "sat.csv"
        sat.write_text("power_uW,intensity_cps\n"
                       + "".join(f"{p!r},{i!r}\n" for p, i in data))
        code = main(["fit", str(sat), "--model", "saturation",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["params"]["P_sat"] == pytest.approx(0.54, rel=1e-3)

        with pytest.raises(SystemExit) as err:
            main(["fit", str(sat), "--model", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags", [["--tau-o", "-1"],
                                       ["--fit-halfwidth", "-5"],
                                       ["--fit-halfwidth", "-5", "--tau-o", "-1"]])
    def test_saturation_refuses_histogram_options(self, tmp_path, capsys,
                                                  monkeypatch, flags):
        """--tau-o and --fit-halfwidth set histogram fits only; with
        --model saturation they exit 2 before the input is read."""
        reads = []
        monkeypatch.setattr(fio, "read_saturation_csv", reads.append)
        out = tmp_path / "out"
        assert main(["fit", str(tmp_path / "sat.csv"), "--model", "saturation",
                     *flags, "--out", str(out)]) == 2
        assert "saturation" in capsys.readouterr().err
        assert not out.exists()
        assert reads == []

    def test_pulsed_requires_tau_o(self, tmp_path):
        hist = tmp_path / "h.csv"
        edges = make_edges(10.0, 1.0)
        counts = np.ones(20, dtype=np.int64)
        h = CoincidenceHistogram(edges, counts, 1.0, norm=counts.astype(float),
                                 norm_err=np.ones(20))
        fio.write_histogram_csv(hist, h)
        assert main(["fit", str(hist), "--model", "pulsed",
                     "--out", str(tmp_path)]) == 2

    def test_pulsed_fit_of_cw_normalized_histogram_exits_2(self, tmp_path, capsys):
        """`correlate` normalizes for the cw model; a pulsed fit of its output
        would pin g2_0 and w_p at their bounds."""
        assert main(["simulate", "--wp", "1.3", "--gamma", "2.0",
                     "--tau-o", "6", "--period", "100", "--duration", "1e6",
                     "--seed", "0", "--background-rate", "0.00268",
                     "--out", str(tmp_path)]) == 0
        assert main(["correlate", str(tmp_path / "stream.csv"), "--window", "450",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["fit", str(tmp_path / "histogram.csv"), "--model", "pulsed",
                     "--tau-o", "6", "--fit-halfwidth", "49",
                     "--out", str(tmp_path)]) == 2
        assert "pipeline" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_readme_example_without_pairs_exits_2(self, tmp_path, capsys):
        """A millisecond emitter correlated in a 100-ns window for 1 s has
        no pairs; a fit of them would report g2_0 = 0 from no data."""
        assert main(["simulate", "--wp", "1e-3", "--gamma", "1e-6",
                     "--duration", "1e9", "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert main(["correlate", str(tmp_path / "stream.csv"), "--window", "100",
                     "--out", str(tmp_path)]) == 0
        assert fio.read_histogram_csv(tmp_path / "histogram.csv").total_pairs == 0
        capsys.readouterr()
        assert main(["fit", str(tmp_path / "histogram.csv"), "--model", "cw",
                     "--out", str(tmp_path)]) == 2
        assert "no coincidence pairs" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("where", ["row", "sidecar"])
    def test_non_utf8_histogram_exits_2(self, tmp_path, capsys, where):
        edges = make_edges(10.0, 1.0)
        counts = np.ones(20, dtype=np.int64)
        hist = tmp_path / "h.csv"
        fio.write_histogram_csv(hist, CoincidenceHistogram(
            edges, counts, 1.0, norm=counts.astype(float), norm_err=np.ones(20)))
        path = hist if where == "row" else fio.sidecar_path(hist)
        path.write_bytes(path.read_bytes().replace(b"1", b"\xff1", 1))
        capsys.readouterr()
        assert main(["fit", str(hist), "--model", "cw",
                     "--out", str(tmp_path)]) == 2
        assert "UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("model", ["cw", "pulsed"])
    @pytest.mark.parametrize("halfwidth", ["nan", "-5", "0"])
    def test_bad_fit_halfwidth_exits_2(self, tmp_path, capsys, model, halfwidth):
        edges = make_edges(50.0, 1.0)
        counts = np.ones(edges.size - 1, dtype=np.int64)
        fio.write_histogram_csv(tmp_path / "h.csv", CoincidenceHistogram(
            edges, counts, 1e6, norm=counts.astype(float),
            norm_err=np.ones(counts.size), normalization=model))
        assert main(["fit", str(tmp_path / "h.csv"), "--model", model,
                     "--tau-o", "6", "--fit-halfwidth", halfwidth,
                     "--out", str(tmp_path)]) == 2
        assert "fit_halfwidth" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("tau_o", ["inf", "nan"])
    def test_bad_pulsed_tau_o_exits_2_before_reading(self, tmp_path, capsys,
                                                     monkeypatch, tau_o):
        reads = []
        monkeypatch.setattr(fio, "read_histogram_csv", reads.append)
        out = tmp_path / "out"
        assert main(["fit", str(tmp_path / "h.csv"), "--model", "pulsed",
                     "--tau-o", tau_o, "--out", str(out)]) == 2
        assert "tau_o" in capsys.readouterr().err
        assert not out.exists()
        assert reads == []

    def test_fit_halfwidth_below_ten_bins_exits_2(self, tmp_path, capsys):
        edges = make_edges(50.0, 1.0)
        counts = np.ones(edges.size - 1, dtype=np.int64)
        fio.write_histogram_csv(tmp_path / "h.csv", CoincidenceHistogram(
            edges, counts, 1e6, norm=counts.astype(float),
            norm_err=np.ones(counts.size), normalization="cw"))
        assert main(["fit", str(tmp_path / "h.csv"), "--model", "cw",
                     "--fit-halfwidth", "0.2", "--out", str(tmp_path)]) == 2
        assert "at least 10 bins" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["cw", "pulsed"])
    def test_fit_of_empty_histogram_exits_2(self, tmp_path, capsys, model):
        edges = make_edges(50.0, 1.0)
        zeros = np.zeros(edges.size - 1)
        h = CoincidenceHistogram(edges, zeros.astype(np.int64), 1e6, norm=zeros,
                                 norm_err=np.ones_like(zeros),
                                 normalization=model)
        fio.write_histogram_csv(tmp_path / "h.csv", h)
        assert main(["fit", str(tmp_path / "h.csv"), "--model", model,
                     "--tau-o", "6", "--out", str(tmp_path)]) == 2
        assert "no coincidence pairs" in capsys.readouterr().err

    def test_pair_free_histogram_fit_names_the_missing_pairs(self, tmp_path,
                                                             capsys):
        """A stream with no detections correlates to an unnormalized
        histogram without pairs; its fit fails for having no pairs."""
        assert main(["simulate", "--wp", "0.5", "--duration", "1e5", "--seed",
                     "1", "--efficiency", "0", "--out", str(tmp_path)]) == 0
        assert main(["correlate", str(tmp_path / "stream.csv"),
                     "--out", str(tmp_path)]) == 0
        for model in ("cw", "pulsed"):
            capsys.readouterr()
            assert main(["fit", str(tmp_path / "histogram.csv"), "--model", model,
                         "--tau-o", "6", "--out", str(tmp_path)]) == 2
            assert "no coincidence pairs" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("tau_o", ["-5", "0", "inf"])
    def test_bad_cw_tau_o_exits_2_before_reading(self, tmp_path, capsys,
                                                 monkeypatch, tau_o):
        """A given tau_o is checked for every histogram model."""
        reads = []
        monkeypatch.setattr(fio, "read_histogram_csv", reads.append)
        out = tmp_path / "out"
        assert main(["fit", str(tmp_path / "h.csv"), "--model", "cw",
                     "--tau-o", tau_o, "--out", str(out)]) == 2
        assert "tau_o" in capsys.readouterr().err
        assert not out.exists()
        assert reads == []


class TestCliGeometry:
    def test_channeling_value(self, capsys):
        assert main(["geometry", "channeling", "--n", "1.45"]) == 0
        assert capsys.readouterr().out.strip() == "0.310345"

    def test_modes_summary(self, capsys):
        assert main(["geometry", "modes", "--a", "1.0", "--lambda", "1.0",
                     "--n", "1.45"]) == 0
        assert capsys.readouterr().out.strip() == "m=13..18 count=6"
        assert main(["geometry", "modes", "--a", "0.01", "--lambda", "1",
                     "--n", "1.45"]) == 0
        assert capsys.readouterr().out.strip() == "m=none count=0"
        # Counts of billions and beyond sys.maxsize print at once: the mode
        # numbers are a range, never a list.
        for args, want in [
                ("--a 1000 --lambda 1e-6",
                 "m=12566370615..18221237390 count=5654866776"),
                ("--a 1e10 --lambda 1e-10",
                 "m=1256637061435917074433..1822123739082079600639 "
                 "count=565486677646162526207")]:
            assert main(["geometry", "modes", *args.split(), "--n", "1.45"]) == 0
            assert capsys.readouterr().out.strip() == want, args

    def test_confinement_below_critical_offset(self, capsys):
        assert main(["geometry", "confinement", "--n", "1.45",
                     "--r-over-a", "0.5"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_invalid_geometry_exits_2(self, capsys):
        """Each refusal names the input that the called function checks."""
        for args, name in [
                ("channeling --n 0.5", "refractive index n"),
                ("confinement --n 1.45 --r-over-a 1.5", "emitter offset r/a"),
                ("confinement --n 1.0", "refractive index n"),
                ("modes --a -1 --lambda 1 --n 1.45", "core radius a"),
                ("modes --a 1 --lambda 0 --n 1.45", "wavelength"),
                ("modes --a 1e300 --lambda 1e-10 --n 1.45",
                 "core radius a = 1e+300 and wavelength lambda = 1e-10")]:
            assert main(["geometry", *args.split()]) == 2, args
            assert name in capsys.readouterr().err, args

    def test_confinement_sweep_csv(self, tmp_path):
        assert main(["geometry", "confinement", "--n", "1.45", "--sweep",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "confinement_sweep.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 102


#: A valid cw simulate section.
SIMULATE = {"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1}


class TestCliPipeline:
    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for text in (b"{not json", b'{"simulate": "\xff"}'):
            cfg.write_bytes(text)
            assert main(["pipeline", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    def test_integer_beyond_the_digit_limit_exits_2(self, tmp_path, capsys):
        """json.loads refuses an integer of more than 4300 digits with a
        plain ValueError: a bad configuration, not a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"simulate": {"seed": ' + "1" * 5000 + "}}")
        assert main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "bad configuration" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["pipeline", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 3

    def test_pipeline_writes_what_the_three_commands_write(self, tmp_path):
        """One output layout: a cw pipeline directory holds the same files,
        byte for byte, as simulate, correlate and fit run into one
        directory with the same settings."""
        steps = tmp_path / "steps"
        for argv in (["simulate", "--wp", "0.2", "--gamma", "0.4",
                      "--duration", "1e6", "--seed", "3"],
                     ["correlate", str(steps / "stream.csv"), "--window", "100",
                      "--bin", "1"],
                     ["fit", str(steps / "histogram.csv"), "--model", "cw"]):
            assert main([*argv, "--out", str(steps)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "simulate": {"emitter": {"w_p": 0.2, "gamma": 0.4},
                         "duration": 1e6, "seed": 3},
            "correlate": {"window": 100, "bin_width": 1},
            "fit": {"model": "cw"}}))
        piped = tmp_path / "pipeline"
        assert main(["pipeline", "--config", str(cfg), "--out", str(piped)]) == 0

        def files(d):
            return {p.name: p.read_bytes() for p in d.iterdir()}
        assert sorted(files(piped)) == sorted([
            "stream.csv", "stream.npz", "stream.config.json", "histogram.csv",
            "histogram.config.json", "fit.json"])
        assert files(piped) == files(steps)

    def _pipeline(self, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])

    def test_dead_time_honoured(self, tmp_path):
        section = {"emitter": {"w_p": 0.2, "gamma": 0.4}, "duration": 1e5,
                   "seed": 3, "dead_time": 50.0}
        assert self._pipeline(tmp_path, {"simulate": section}) == 0
        sidecar = json.loads((tmp_path / "out" / "stream.config.json").read_text())
        assert sidecar["dead_time"] == 50.0
        back = fio.read_stream_csv(tmp_path / "out" / "stream.csv")
        cfg = SimConfig(emitter=EmitterParams(w_p=0.2, gamma=0.4), duration=1e5,
                        seed=3, dead_time=50.0)
        for orig, rt in zip(simulate_streams(cfg), back):
            assert np.diff(rt.times).min() >= 50.0
            assert np.array_equal(rt.times, orig.times)

    @pytest.mark.parametrize("section, word", [
        ({"emitter": {"wp": 0.2}, "duration": 1e5, "seed": 1}, "wp"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5}, "seed"),
        ({"duration": 1e5, "seed": 1}, "emitter"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "pulse": {"tau": 6.0, "period": 100.0}}, "tau"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1, "jitter": 0.1},
         "jitter"),
        ([0.2, 1e5, 1], "simulate"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "pulse_shape": "exponential"}, "pulse_shape"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "pulse": {"tau_o": 6.0, "period": 100.0, "shape": "exponential"}},
         "shape"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "dead_time": float("nan")}, "dead_time"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "background_rate": float("inf")}, "background_rate"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1.5}, "seed"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": -1}, "seed"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": True}, "seed"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": "1"}, "seed"),
        ({"emitter": {"w_p": 0.2}, "duration": True, "seed": 1}, "duration"),
        ({"emitter": {"w_p": True}, "duration": 1e5, "seed": 1}, "w_p"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "detection_efficiency": True}, "detection_efficiency"),
        ({"emitter": {"w_p": 0.2, "rho_e0": 0.5}, "duration": 1e5, "seed": 1},
         "rho_e0"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "dark_rate_per_channel": 1e-4}, "dark_rate_per_channel"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1, "jitter": 0.1,
          "dark_rate": 1e-4}, "unknown simulate config keys ['dark_rate', 'jitter']"),
        ({"emitter": {"w_p": 0.2, "wp": 0.2, "rho_e0": 0.5}, "duration": 1e5,
          "seed": 1}, "unknown simulate.emitter config keys ['rho_e0', 'wp']"),
        ({"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1,
          "pulse": {"tau_o": 6.0, "period": 100.0, "shape": "exp", "phase": 0}},
         "unknown simulate.pulse config keys ['phase', 'shape']"),
    ])
    def test_bad_simulate_section_exits_2(self, tmp_path, capsys, section, word):
        assert self._pipeline(tmp_path, {"simulate": section}) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, word", [
        ({"correlate": {"windw": 450.0}}, "windw"),
        ({"fit": {"model": "cw", "halfwidth": 49.0}}, "halfwidth"),
        ({"fti": {"model": "cw"}}, "fti"),
        ({"correlate": [450.0]}, "correlate"),
    ], ids=["correlate-key", "fit-key", "section", "not-an-object"])
    def test_bad_pipeline_section_exits_2(self, tmp_path, capsys, config, word):
        simulate = {"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1}
        assert self._pipeline(tmp_path, {"simulate": simulate, **config}) == 2
        assert word in capsys.readouterr().err
        assert not (tmp_path / "out" / "stream.csv").exists()

    @pytest.mark.parametrize("simulate, config, word", [
        ({}, {"fit": {"model": "pulsd"}}, "pulsd"),
        ({"pulse": {"tau_o": 6.0, "period": 100.0}},
         {"correlate": {"window": 120.0}, "fit": {"model": "pulsed"}},
         "no side peak"),
        ({}, {"fit": {"model": "cw", "fit_halfwidth": float("nan")}},
         "fit_halfwidth"),
        ({}, {"fit": {"model": "cw", "fit_halfwidth": -5}}, "fit_halfwidth"),
        ({"pulse": {"tau_o": 1.0, "period": 100.0}},
         {"fit": {"model": "pulsed", "tau_o": True}}, "fit.tau_o"),
        ({}, {"fit": {"model": "cw", "tau_o": 6.0}},
         "fit.tau_o needs a simulate.pulse section"),
        ({}, {"fit": {"tau_o": 6.0}}, "fit.tau_o needs a simulate.pulse section"),
        ({"pulse": {"tau_o": 6.0, "period": 100.0}},
         {"fit": {"model": "cw", "tau_o": -5}}, "fit.tau_o must be a number"),
        ({"pulse": {"tau_o": 6.0, "period": 100.0}},
         {"fit": {"model": "cw", "tau_o": True}}, "fit.tau_o must be a number"),
    ], ids=["unknown-model", "window-without-side-peak", "nan-fit-halfwidth",
            "negative-fit-halfwidth", "bool-fit-tau_o", "cw-fit-tau_o-without-pulse",
            "fit-tau_o-without-pulse", "cw-negative-fit-tau_o", "cw-bool-fit-tau_o"])
    def test_config_errors_write_nothing(self, tmp_path, capsys, monkeypatch,
                                         simulate, config, word):
        simulated = []
        monkeypatch.setattr("fiberphoton.cli.simulate_streams", simulated.append)
        simulate = {"emitter": {"w_p": 1.3, "gamma": 2.0}, "duration": 1e5,
                    "seed": 1, **simulate}
        assert self._pipeline(tmp_path, {"simulate": simulate, **config}) == 2
        assert word in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))
        assert simulated == []

    def test_workers_below_one_exits_2(self, tmp_path, capsys, monkeypatch):
        simulated = []
        monkeypatch.setattr("fiberphoton.cli.simulate_streams", simulated.append)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {
            "emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1}}))
        assert main(["pipeline", "--config", str(cfg), "--workers", "-3",
                     "--out", str(tmp_path / "out")]) == 2
        assert "n_chunks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert simulated == []

    @pytest.mark.parametrize("value", ["abc", None, True, "1", [1.0]],
                             ids=["abc", "null", "true", "string", "list"])
    @pytest.mark.parametrize("key", ["window", "bin_width"])
    def test_bad_correlate_number_exits_before_simulating(self, tmp_path, capsys,
                                                          monkeypatch, key, value):
        simulated = []
        monkeypatch.setattr("fiberphoton.cli.simulate_streams", simulated.append)
        assert self._pipeline(tmp_path, {
            "simulate": {"emitter": {"w_p": 0.2}, "duration": 1e5, "seed": 1},
            "correlate": {key: value}}) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert simulated == []

    @pytest.mark.parametrize("config, word", [
        ({"simulate": SIMULATE, "fit": False}, "the fit config"),
        ({"simulate": SIMULATE, "fit": 0}, "the fit config"),
        ({"simulate": SIMULATE, "fit": ""}, "the fit config"),
        ({"simulate": SIMULATE, "correlate": []}, "the correlate config"),
        ([], "the pipeline config"),
        ({"simulate": None},
         "missing simulate config keys ['duration', 'emitter', 'seed']"),
        ({"simulate": {"emitter": {"w_p": 0.2}}},
         "missing simulate config keys ['duration', 'seed']"),
        ({"simulate": {**SIMULATE, "emitter": None}},
         "missing simulate.emitter config keys ['w_p']"),
        ({"simulate": {**SIMULATE, "pulse": False}}, "the simulate.pulse config"),
        ({"simulate": {**SIMULATE, "pulse": {}}},
         "missing simulate.pulse config keys ['period', 'tau_o']"),
        ({"simulate": {**SIMULATE, "emitter": [0.2]}},
         "the simulate.emitter config"),
        ({"simulate": {"emitter": {"w_p": 0.2}, "seed": 1, "jitter": 0.1}},
         "unknown simulate config keys ['jitter']; "
         "missing simulate config keys ['duration']"),
    ], ids=["fit-false", "fit-zero", "fit-empty-string", "correlate-list",
            "top-level-list", "simulate-null", "no-duration-no-seed",
            "emitter-null", "pulse-false", "pulse-empty", "emitter-list",
            "unknown-and-missing"])
    def test_ill_formed_section_exits_2_before_simulating(
            self, tmp_path, capsys, monkeypatch, config, word):
        """A section that is not an object, or that lacks a required key,
        exits 2 in the package's own words, and nothing is simulated or
        written."""
        simulated = []
        monkeypatch.setattr("fiberphoton.cli.simulate_streams", simulated.append)
        assert self._pipeline(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert word in err
        assert not any(leak in err for leak in LEAKS)
        assert not (tmp_path / "out").exists()
        assert simulated == []

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["correlate", "fit"]),
           value=JSON_VALUES.filter(lambda v: v is not None
                                    and not isinstance(v, dict)))
    def test_non_object_section_exits_2_before_simulating(self, name, value):
        simulated, err = [], io.StringIO()
        with (tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp,
              contextlib.redirect_stderr(err)):
            mp.setattr("fiberphoton.cli.simulate_streams", simulated.append)
            assert self._pipeline(Path(tmp), {"simulate": SIMULATE, name: value}) == 2
            assert not (Path(tmp) / "out").exists()
        assert f"the {name} config must be a JSON object" in err.getvalue()
        assert simulated == []

    def test_missing_simulate_section_exits_2(self, tmp_path, capsys):
        assert self._pipeline(tmp_path, {"fit": {"model": "cw"}}) == 2
        assert "missing pipeline config keys ['simulate']" in capsys.readouterr().err

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        """Only the package's own errors exit 2; a KeyError is a bug."""
        def broken(cfg):
            raise KeyError("internal")
        monkeypatch.setattr("fiberphoton.cli.simulate_streams", broken)
        with pytest.raises(KeyError):
            self._pipeline(tmp_path, {"simulate": {"emitter": {"w_p": 0.2},
                                                   "duration": 1e5, "seed": 1}})

    def test_internal_type_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        """Nor is a TypeError raised while a config section is read."""
        def broken(params):
            raise TypeError("internal")
        monkeypatch.setattr(EmitterParams, "__post_init__", broken)
        with pytest.raises(TypeError, match="internal"):
            self._pipeline(tmp_path, {"simulate": SIMULATE})

    def test_pulsed_fit_tau_o_comes_from_the_pulse(self, tmp_path, capsys):
        """fit.tau_o may be left out; given, it must equal simulate.pulse.tau_o."""
        config = {"simulate": {"emitter": {"w_p": 1.3, "gamma": 2.0},
                               "pulse": {"tau_o": 6.0, "period": 100.0},
                               "duration": 1e7, "seed": 5,
                               "background_rate": 0.00268},
                  "correlate": {"window": 450.0, "bin_width": 1.0},
                  "fit": {"model": "pulsed", "fit_halfwidth": 49.0}}
        for run in ("without", "with", "other"):
            (tmp_path / run).mkdir()
        assert self._pipeline(tmp_path / "without", config) == 0
        config["fit"]["tau_o"] = 6.0
        assert self._pipeline(tmp_path / "with", config) == 0
        assert ((tmp_path / "with" / "out" / "fit.json").read_bytes()
                == (tmp_path / "without" / "out" / "fit.json").read_bytes())
        config["fit"]["tau_o"] = 3.0
        assert self._pipeline(tmp_path / "other", config) == 2
        assert "tau_o" in capsys.readouterr().err
        assert not (tmp_path / "other" / "out" / "stream.csv").exists()

    def test_simulate_sidecar_is_a_pipeline_section(self, tmp_path):
        assert main(["simulate", "--wp", "0.5", "--gamma", "0.3",
                     "--tau-o", "6", "--period", "100", "--duration", "1e5",
                     "--seed", "4", "--background-rate", "2e-4",
                     "--jitter", "0.3", "--out", str(tmp_path / "sim")]) == 0
        section = json.loads((tmp_path / "sim" / "stream.config.json").read_text())
        assert self._pipeline(tmp_path, {"simulate": section}) == 0
        assert ((tmp_path / "out" / "stream.csv").read_bytes()
                == (tmp_path / "sim" / "stream.csv").read_bytes())

    def test_pulsed_fit_without_pulse_exits_2(self, tmp_path):
        config = {"simulate": {"emitter": {"w_p": 0.2, "gamma": 0.4},
                               "duration": 1e5, "seed": 1},
                  "fit": {"model": "pulsed", "tau_o": 6.0}}
        assert self._pipeline(tmp_path, config) == 2

    def test_a_fit_section_fits_with_its_defaults(self, tmp_path):
        """An empty fit section is a cw fit; a null or absent one runs none."""
        simulate = {"emitter": {"w_p": 0.2, "gamma": 0.4}, "duration": 1e6,
                    "seed": 1}
        reports = {}
        for name, extra in [("empty", {"fit": {}}), ("cw", {"fit": {"model": "cw"}}),
                            ("null", {"fit": None}), ("absent", {})]:
            (tmp_path / name).mkdir()
            assert self._pipeline(tmp_path / name, {"simulate": simulate, **extra}) == 0
            report = tmp_path / name / "out" / "fit.json"
            reports[name] = report.read_bytes() if report.exists() else None
        assert reports["empty"] is not None
        assert reports["empty"] == reports["cw"]
        assert reports["null"] is reports["absent"] is None

    @pytest.mark.parametrize("bin_width", [1 / 3, 0.1, 0.7, 1.0])
    def test_histogram_file_refits_to_the_same_report(self, tmp_path, bin_width):
        config = {"simulate": {"emitter": {"w_p": 0.2, "gamma": 0.4},
                               "duration": 1e6, "seed": 1},
                  "correlate": {"window": 100.0, "bin_width": bin_width},
                  "fit": {"model": "cw"}}
        assert self._pipeline(tmp_path, config) == 0
        assert main(["fit", str(tmp_path / "out" / "histogram.csv"),
                     "--model", "cw", "--out", str(tmp_path / "refit")]) == 0
        assert ((tmp_path / "refit" / "fit.json").read_bytes()
                == (tmp_path / "out" / "fit.json").read_bytes())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pulsed_chain_recovers_rho(self, tmp_path, seed):
        """Criterion 5's emitter and rho = 0.92 through the command line,
        over 1e7 ns instead of 1e8 ns."""
        rho, duration = 0.92, 1e7
        section = {"emitter": {"w_p": 1.3, "gamma": 2.0},
                   "pulse": {"tau_o": 6.0, "period": 100.0},
                   "duration": duration, "seed": seed}
        cfg = SimConfig(emitter=EmitterParams(w_p=1.3, gamma=2.0),
                        pulse=PulseParams(tau_o=6.0, period=100.0),
                        duration=duration, seed=seed)
        r_sig = simulate_emission(cfg).size / duration
        section["background_rate"] = r_sig * (1.0 - rho) / rho
        config = {"simulate": section,
                  "correlate": {"window": 450.0, "bin_width": 1.0},
                  "fit": {"model": "pulsed", "tau_o": 6.0, "fit_halfwidth": 49.0}}
        assert self._pipeline(tmp_path, config) == 0
        report = json.loads((tmp_path / "out" / "fit.json").read_text())
        assert report["converged"]
        assert report["params"]["rho"] == pytest.approx(rho, abs=0.03)
        assert 0.1 <= report["params"]["g2_exp_0"] <= 0.3
        # The pulsed-normalized histogram file refits to the same report.
        assert main(["fit", str(tmp_path / "out" / "histogram.csv"),
                     "--model", "pulsed", "--tau-o", "6", "--fit-halfwidth", "49",
                     "--out", str(tmp_path / "refit")]) == 0
        assert ((tmp_path / "refit" / "fit.json").read_bytes()
                == (tmp_path / "out" / "fit.json").read_bytes())
