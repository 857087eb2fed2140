"""Negative controls: every check rejects a known-wrong output.

Each test first shows that the check accepts a right output, then feeds it a
wrong one, so that no check can pass vacuously.  Run with

    python3 -m pytest bench/test_checks.py
"""

import numpy as np

import checks


def streams(seed=0, n=400, duration=5e3):
    rng = np.random.default_rng(seed)
    t1 = np.unique(rng.uniform(0, duration, n))
    t2 = np.unique(rng.uniform(0, duration, n))
    return t1, t2


def numpy_histogram(t1, t2, window, bin_width):
    d = (t2[None, :] - t1[:, None]).ravel()
    d = d[np.abs(d) <= window]
    edges = np.arange(-round(window / bin_width), round(window / bin_width) + 1)
    counts, _ = np.histogram(d, bins=edges * bin_width)
    return counts.astype(np.int64)


def test_brute_force_agrees_with_numpy_histogram():
    t1, t2 = streams()
    assert np.array_equal(checks.brute_force_counts(t1, t2, 50.0, 1.0),
                          numpy_histogram(t1, t2, 50.0, 1.0))


def test_histogram_with_one_count_moved_one_bin_is_rejected():
    t1, t2 = streams()
    counts = numpy_histogram(t1, t2, 50.0, 1.0)
    assert checks.histogram_matches_brute_force(counts, t1, t2, 50.0, 1.0) == []
    k = int(np.argmax(counts))
    moved = counts.copy()
    moved[k] -= 1
    moved[k + 1] += 1
    assert checks.histogram_matches_brute_force(moved, t1, t2, 50.0, 1.0)
    assert checks.histogram_matches_brute_force(counts[:-1], t1, t2, 50.0, 1.0)


def test_pulsed_fit_off_by_a_tenth_is_rejected():
    assert checks.pulsed_fit(True, 0.92, 0.2) == []
    assert checks.pulsed_fit(True, 0.92 - 0.1, 0.2)
    assert checks.pulsed_fit(True, 0.92, 0.2 + 0.15)
    assert checks.pulsed_fit(False, 0.92, 0.2)
    # What the cw-normalized pipeline gives for a pulsed fit today.
    assert checks.pulsed_fit(True, 0.5, 1.40)


def test_g2_int_off_by_a_tenth_is_rejected():
    assert checks.peak_integrated(0.31) == []
    assert checks.peak_integrated(0.31 + 0.1)
    assert checks.peak_integrated(0.31 - 0.1)


def test_cw_fit_outside_the_band_is_rejected():
    good = {"converged": True, "params": {"w_p": 0.586, "g2_0": 0.0}}
    assert checks.cw_fit(good) == []
    assert checks.cw_fit({**good, "converged": False})
    assert checks.cw_fit({**good, "params": {"w_p": 0.5, "g2_0": 0.0}})
    assert checks.cw_fit({**good, "params": {"w_p": 0.586, "g2_0": 0.1}})


def test_event_count_beyond_the_poisson_bound_is_rejected():
    lam = 1e4
    assert checks.event_budget(50_000 + 10_000, 50_000, lam / 1e3, 1e3) == []
    off = int(checks.POISSON_Z * np.sqrt(lam)) + 2
    assert checks.event_budget(50_000 + 10_000 + off, 50_000, lam / 1e3, 1e3)
    assert checks.event_budget(50_000 + 10_000 - off, 50_000, lam / 1e3, 1e3)


def test_read_back_stream_lacking_an_event_or_off_by_a_microsecond_is_rejected():
    t1, t2 = streams()
    simulated = {1: t1, 2: t2}
    written = {ch: np.array([float(f"{t:.6f}") for t in ts])
               for ch, ts in simulated.items()}
    assert checks.stream_readback(simulated, written) == []
    assert checks.stream_readback(simulated, {1: t1, 2: t2[1:]})
    shifted = t2.copy()
    shifted[7] += 1e-6
    assert checks.stream_readback(simulated, {1: t1, 2: shifted})


def test_round_trip_that_merges_a_tie_is_rejected():
    times = {1: np.array([1.0, 5e8, np.nextafter(5e8, np.inf)])}
    assert checks.lossless(times, {1: times[1].copy()}) == []
    assert checks.lossless(times, {1: np.array([1.0, 5e8, 5e8])})


def test_near_edge_pairs_counts_delays_close_to_an_edge():
    t1 = np.array([10.0, 20.0])
    t2 = np.array([13.0 + 4e-7, 15.5, 22.0 - 4e-7])
    # delays 3+4e-7, 5.5, 12+4e-7 | -7+4e-7, -4.5, 2-4e-7; window 8 drops 12
    near = checks.near_edge_pairs(t1, t2, 8.0, 1.0, 1e-6)
    expected = np.zeros(17, dtype=np.int64)
    expected[[8 + 3, 8 - 7, 8 + 2]] = 1
    assert np.array_equal(near, expected)


def test_rebuilt_histogram_beyond_the_near_edge_pairs_is_rejected():
    reference = np.array([5, 7, 9, 4], dtype=np.int64)
    near = np.zeros(5, dtype=np.int64)
    assert checks.rebuilt_histogram(reference.copy(), reference, near) == []
    moved = reference + np.array([0, 1, -1, 0])
    assert checks.rebuilt_histogram(moved, reference, near)
    near[2] = 1  # one pair on the edge between bins 1 and 2 may move
    assert checks.rebuilt_histogram(moved, reference, near) == []
    assert checks.rebuilt_histogram(reference + np.array([1, 0, 0, 0]),
                                    reference, near)
