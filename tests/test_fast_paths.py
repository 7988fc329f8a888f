"""The linear-time kernels against the slow references they replace.

``simulate`` carries the eigen-coordinates piece by piece, then fills the
samples in one elementwise pass and one product per constant sub-piece
(bit for bit the states of one pass per sub-piece), the sample grid is
merged with ``searchsorted``, noise window energies are summed over
elementary intervals, edge-signal rows are located by ``searchsorted``
ranges, CSV values are formatted by numpy in blocks (in a run of rows with
+0.0 cells, only the other cells), Gramians and reconstructions reuse the
cached factors of full segment pieces, window
scans integrate and diagonalise stacked blocks of windows taken only at the
schedule's kinks and delta-crossings, the incidence matrix is filled by
index arrays, and JSON reports are streamed by ``json.dump``.  Each is
compared here with the straightforward version in ``helpers``: window checks
with a dense scan of starts and with each listed window recomputed alone.
"""

import copy
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from consensuslab import (
    ConsensusLabError,
    EdgeSignalTrace,
    NoiseProcess,
    ObservabilityGramian,
    Trajectory,
    WeightSchedule,
    edge_signals,
    gramian,
    read_trajectory_csv,
    reconstruct,
    simulate,
    transition_matrix,
)
import consensuslab
from consensuslab import _csvtext, graph, observability
from consensuslab.cli import _write_json, load_scenario, main
from consensuslab.dynamics import _merge_grid, _write_csv_rows
from consensuslab.graph import (
    check_joint_connectivity,
    edge_pairs,
    incidence,
    window_starts,
)
from consensuslab.observability import _piece_rows, _window_nodes, uniform_bounds_check
from helpers import (
    check_certificate,
    five_node_schedule,
    per_piece_simulate,
    random_weights,
    reference_connectivity,
    reference_csv_text,
    reference_incidence,
    reference_merge_grid,
    reference_piece_mask,
    reference_simulate,
    reference_uniform_bounds,
    reference_window,
    reference_window_energies,
    reference_write_json,
    uncached_piece_factors,
    uncovered_starts,
    weights,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = ["alternating_triangle", "disconnected_noise", "five_node_reconstruct",
           "isolated_node", "k2_constant", "robust_noise", "signed_triangle"]


def assert_matches_reference(sched, x0, t_end, sample_dt, noise=None):
    traj = simulate(sched, x0, t_end, sample_dt, noise=noise)
    grid, states = reference_simulate(sched, x0, t_end, sample_dt, noise)
    assert np.array_equal(traj.sample_times, grid)
    scale = max(1.0, float(np.abs(states).max()))
    assert np.abs(traj.states - states).max() <= 1e-12 * scale
    assert_matches_per_piece(traj, sched, x0, t_end, sample_dt, noise)
    return traj


def assert_matches_per_piece(traj, sched, x0, t_end, sample_dt, noise):
    """The three passes of ``simulate`` give the per-sub-piece states bit for
    bit (on the int64 view, so -0.0 and +0.0 differ)."""
    expected = per_piece_simulate(sched, x0, t_end, sample_dt, noise)
    assert np.array_equal(traj.states.view(np.int64), expected.view(np.int64))


def random_schedule(rng, n, periodic, segments=4):
    ends = np.cumsum(rng.uniform(0.1, 1.5, segments))
    starts = np.concatenate(([0.0], ends[:-1]))
    return WeightSchedule(
        [(a, b, random_weights(rng, n, density=0.5)) for a, b in zip(starts, ends)],
        periodic=periodic,
    )


# -- simulate ------------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_runs_match_reference(name):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    runs = 0
    for task, params in sc.tasks:
        if task == "simulate":
            x0 = sc.initial_state
        elif task == "robustness":
            x0 = np.zeros(sc.schedule.node_count)  # robustness starts at consensus
        else:
            continue
        assert_matches_reference(sc.schedule, x0, params["t_end"],
                                 params.get("sample_dt", 0.05), sc.noise)
        runs += 1
    assert runs == 1


@pytest.mark.parametrize("n", [3, 10, 30])
@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("noisy", [False, True])
def test_random_schedules_match_reference(n, periodic, noisy):
    rng = np.random.default_rng([n, periodic, noisy])
    sched = random_schedule(rng, n, periodic)
    horizon = 13.7 if periodic else sched.horizon
    noise = NoiseProcess.windowed_random(n, 0.6, 2.0, seed=n, t_end=horizon) if noisy else None
    # t_end on the sample grid, then off it
    for t_end, sample_dt in [(horizon, 0.05), (horizon - 0.0123, 0.07)]:
        assert_matches_reference(sched, rng.standard_normal(n), t_end, sample_dt, noise)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("seed", range(32))
def test_short_segments_match_per_piece_products(seed, noisy):
    # segments from 0.2 to 4 sample steps long: pieces holding 0, 1 or a few
    # samples, so the products of neighbouring pieces differ in row count
    rng = np.random.default_rng([seed, 21])
    n = int(rng.choice([2, 3, 5, 10, 20]))
    sample_dt = 0.05
    ends = np.cumsum(rng.uniform(0.2, 4.0, int(rng.integers(2, 9))) * sample_dt)
    starts = np.concatenate(([0.0], ends[:-1]))
    sched = WeightSchedule([(a, b, random_weights(rng, n, density=0.6))
                            for a, b in zip(starts, ends)], periodic=True)
    t_end = float(rng.uniform(3.0, 6.0))
    noise = (NoiseProcess.windowed_random(n, float(rng.uniform(0.02, 0.3)), 1.0, seed=seed,
                                          t_end=t_end) if noisy else None)
    x0 = rng.standard_normal(n)
    traj = simulate(sched, x0, t_end, sample_dt, noise=noise)
    assert_matches_per_piece(traj, sched, x0, t_end, sample_dt, noise)


def test_simulate_memory_is_the_states_and_one_product():
    # one N = 100 segment to t_end 400: besides the states, the kernel holds
    # one product of the samples and blocks of about 2**16 entries
    rng = np.random.default_rng(3)
    sched = WeightSchedule([(0.0, 400.0, random_weights(rng, 100, density=0.1))])
    sched.spectrum(0)  # cached before the measurement: not part of the run
    x0 = rng.standard_normal(100)
    tracemalloc.start()
    try:
        traj = simulate(sched, x0, 400.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (8001, 100)
    assert peak <= 2.5 * traj.states.nbytes, peak / traj.states.nbytes


@pytest.mark.parametrize("noisy", [False, True])
def test_boundaries_within_tolerance_of_samples(noisy):
    # sample_dt 0.1 gives the merge tolerance 1e-7; each boundary sits
    # within it of a base sample point, so the boundary replaces the sample
    w1 = weights(3, (0, 1, 1.0))
    w2 = weights(3, (1, 2, 2.0), (0, 2, 0.5))
    edges = [0.0, 1.0 + 3e-8, 2.0 - 6e-8, 3.0 + 1e-7, 4.0]
    sched = WeightSchedule(
        [(a, b, w1 if k % 2 == 0 else w2) for k, (a, b) in enumerate(zip(edges[:-1], edges[1:]))]
    )
    noise = NoiseProcess.windowed_random(3, 0.5, 1.0, seed=4, t_end=4.0) if noisy else None
    traj = assert_matches_reference(sched, np.array([1.0, -2.0, 0.5]), 4.0 - 2e-8, 0.1, noise)
    for b in edges[1:-1]:
        assert b in traj.sample_times
    assert traj.sample_times[-1] == 4.0 - 2e-8


def test_run_ending_just_past_a_nonperiodic_horizon():
    # t_end may pass the horizon by its 1e-9 relative tolerance, which is more
    # than the merge tolerance: the last segment carries the final sample
    sched = WeightSchedule([(0.0, 6.0, weights(3, (0, 1, 0.2), (1, 2, 0.1)))])
    traj = assert_matches_reference(sched, np.array([3.0, 1.0, -1.0]), 6.0 + 5e-9, 0.001)
    assert traj.sample_times[-1] == 6.0 + 5e-9 and traj.sample_times[-2] <= 6.0


def test_merge_grid_matches_reference():
    rng = np.random.default_rng(11)
    tol = 1e-3
    for _ in range(200):
        base = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 40))))
        anchors = list(rng.uniform(0.0, 1.0, int(rng.integers(1, 6))))
        # anchors and base points near each other, and chains of close anchors
        anchors += [float(base[0]) + tol * rng.uniform(-1.5, 1.5)]
        anchors += [anchors[0] + tol * 0.6 * k for k in range(1, 4)]
        base = np.sort(np.concatenate((base, anchors[:2] + tol * rng.uniform(-1, 1, 2))))
        assert np.array_equal(_merge_grid(anchors, base, tol),
                              reference_merge_grid(anchors, base, tol))


# -- noise ---------------------------------------------------------------------


@pytest.mark.parametrize("zeta,t_end,steps", [(1.0, 10.0, 4), (0.7, 40.3, 3), (0.25, 9.9, 1)])
def test_windowed_random_energies_match_reference(zeta, t_end, steps):
    noise = NoiseProcess.windowed_random(4, zeta, 2.0, seed=9, t_end=t_end,
                                         steps_per_window=steps)
    fast, slow = noise.window_energies(), reference_window_energies(noise)
    assert len(fast) == len(slow)
    assert np.abs(np.subtract(fast, slow)).max() <= 1e-12 * max(slow)


def test_table_energies_match_reference():
    rng = np.random.default_rng(2)
    steps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.9, 300))))
    values = rng.standard_normal((steps.size - 1, 3))
    # a first breakpoint past 0 shifts the whole window grid
    for breaks in (steps, 0.5 + steps):
        for zeta in (0.33, 1.0, 2.5, float(breaks[-1]) * 2.0):
            noise = NoiseProcess.table(breaks, values, zeta, energy_bound=1e6)
            fast, slow = noise.window_energies(), reference_window_energies(noise)
            assert len(fast) == len(slow)
            assert np.abs(np.subtract(fast, slow)).max() <= 1e-12 * max(slow)


# -- edge-signal row ranges ----------------------------------------------------


def test_row_ranges_match_masks():
    rng = np.random.default_rng(5)
    for _ in range(300):
        times = np.sort(rng.choice(np.round(rng.uniform(0, 5, 30), 1), 40))
        ends = np.concatenate((times, rng.uniform(-1, 6, 5)))
        pieces = [(*np.sort(rng.choice(ends, 2)), 0) for _ in range(rng.integers(0, 6))]
        tol = float(rng.choice([0.0, 1e-9, 0.05, 0.1]))
        lo, hi = _piece_rows(times, pieces, tol)
        assert len(lo) == len(hi) == len(pieces)
        for a, b, (ta, tb, _) in zip(lo, hi, pieces):
            assert np.array_equal(np.arange(a, b), reference_piece_mask(times, ta, tb, tol))


def check_piece_rows_on_a_trace(sched):
    # _window_nodes on the window [0.5, 5.5] and on each of its pieces alone:
    # it keeps the masked rows less every duplicated row at a piece end, and
    # refuses exactly the pieces left with fewer than two rows
    traj = simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 6.0, 0.05)
    times = edge_signals(traj, sched).sample_times
    tol = 5e-8  # 1e-6 times the sample step, as _window_nodes has it
    pieces = sched.pieces(0.5, 5.5)
    expected = []
    for ta, tb, _ in pieces:
        idx = reference_piece_mask(times, ta, tb, tol)
        # every duplicated row at a piece end goes
        while idx.size >= 2 and times[idx[1]] - times[idx[0]] <= tol:
            idx = idx[1:]
        while idx.size >= 2 and times[idx[-1]] - times[idx[-2]] <= tol:
            idx = idx[:-1]
        expected.append(idx)
        if idx.size < 2:
            with pytest.raises(ConsensusLabError, match=f"keeps {idx.size} samples there"):
                _window_nodes(times, sched, ta, tb - ta)
        else:
            ((_, _, _, lo, hi, _),) = _window_nodes(times, sched, ta, tb - ta)
            assert np.array_equal(np.arange(lo, hi), idx)
    sizes = [idx.size for idx in expected]
    if min(sizes) < 2:
        with pytest.raises(ConsensusLabError, match="trace does not cover segment piece"):
            _window_nodes(times, sched, 0.5, 5.0)
        return sizes
    rows = _window_nodes(times, sched, 0.5, 5.0)
    assert [(ta, tb, k) for ta, tb, k, _, _, _ in rows] == pieces
    for (_, _, _, lo, hi, _), idx in zip(rows, expected):
        assert np.array_equal(np.arange(lo, hi), idx)
    return sizes


def test_piece_rows_match_masks_on_a_trace():
    assert min(check_piece_rows_on_a_trace(five_node_schedule())) >= 2


def test_piece_rows_match_masks_around_a_sliver():
    # a 1e-9 segment after 2.0, which the run samples once: three rows at 2.0
    a, b = (seg.weights for seg in five_node_schedule().segments)
    sizes = check_piece_rows_on_a_trace(
        WeightSchedule([(0.0, 2.0, a), (2.0, 2.000000001, b), (2.000000001, 6.0, a)]))
    # the sliver keeps one of them and is refused; its neighbours are not
    assert sizes[1] == 1 and min(sizes[0], sizes[2]) >= 2


@pytest.mark.parametrize("sample_dt", [0.05, 0.3])
def test_edge_signals_bit_identical_to_masks(sample_dt):
    sched = five_node_schedule()
    traj = simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 7.3, sample_dt)
    times = traj.sample_times
    tol = 1e-6 * float(np.diff(times).min())
    out_t, out_z = [], []
    for ta, tb, k in sched.pieces(times[0], times[-1]):
        mask = reference_piece_mask(times, ta, tb, tol)
        out_t.append(times[mask])
        out_z.append(traj.states[mask] @ incidence(sched.segments[k].weights).entries)
    trace = edge_signals(traj, sched)
    assert np.array_equal(trace.sample_times, np.concatenate(out_t))
    # on the int64 view, so that -0.0 and +0.0 count as different
    assert np.array_equal(trace.signals.view(np.int64), np.vstack(out_z).view(np.int64))


def test_edge_signals_hold_one_copy_of_the_trace():
    rng = np.random.default_rng(5)
    sched = WeightSchedule([(float(k), k + 1.0, random_weights(rng, 20, density=0.2))
                            for k in range(16)], periodic=True)
    traj = simulate(sched, rng.standard_normal(20), 16.0, 1 / 104)
    for k in range(len(sched.segments)):
        sched.incidence(k)  # cached before the measurement: not part of the trace
    tracemalloc.start()
    try:
        trace = edge_signals(traj, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.signals.shape == (1680, 190)
    assert peak <= 1.25 * trace.signals.nbytes, peak / trace.signals.nbytes


def test_nan_sample_times_are_refused():
    # the searchsorted row ranges need sorted times, which NaN would break
    times = np.array([0.0, np.nan, 1.0])
    with pytest.raises(ValueError, match="finite"):
        Trajectory(times, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        EdgeSignalTrace(times, np.zeros((3, 1)), ((0, 1),))


# -- CSV text ------------------------------------------------------------------

SPECIAL = np.array([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e22,
                    float(2 ** 53 + 1), 2.0 ** 53 + 2, 0.1, -1.0 / 3.0, 123456789.125,
                    np.nextafter(1.0, 2.0), 1.7976931348623157e308])


def special_rows(width):
    rng = np.random.default_rng(8)
    pool = np.concatenate((SPECIAL, np.logspace(-300, 300, 61), -np.logspace(-300, 300, 61),
                           rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40)))
    rows = -(-pool.size // width)
    return np.resize(pool, (rows, width))


def test_trajectory_csv_bytes_match_fstrings(tmp_path):
    states = special_rows(7)
    times = np.concatenate(([-0.0], np.logspace(-300, 300, states.shape[0] - 1)))
    traj = Trajectory(times, states)
    traj.write_csv(tmp_path / "t.csv")
    header = "t," + ",".join(f"x{i + 1}" for i in range(7))
    expected = reference_csv_text(header, times, states).encode()
    assert (tmp_path / "t.csv").read_bytes() == expected


def test_edge_signal_csv_bytes_match_fstrings(tmp_path):
    pairs = tuple(edge_pairs(4))
    signals = special_rows(len(pairs))
    times = np.repeat(np.linspace(0.0, 1e22, signals.shape[0] // 2 + 1), 2)[:signals.shape[0]]
    trace = EdgeSignalTrace(times, signals, pairs)
    trace.write_csv(tmp_path / "z.csv")
    header = "t," + ",".join(f"z_{i + 1}_{j + 1}" for i, j in pairs)
    expected = reference_csv_text(header, times, signals).encode()
    assert (tmp_path / "z.csv").read_bytes() == expected


def assert_csv_matches_reference(path, table):
    """Write a table whose first column is the time column; compare with the f-strings."""
    header = "t," + ",".join(f"v{i + 1}" for i in range(table.shape[1] - 1))
    _write_csv_rows(path, header, table[:, 0], table[:, 1:])
    expected = reference_csv_text(header, table[:, 0], table[:, 1:]).encode()
    assert path.read_bytes() == expected


def with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))


def adversarial_values():
    rng = np.random.default_rng(11)
    # 18 significant digits ending in 5, exact in binary: ties at 17 digits
    ties = np.concatenate((rng.integers(10 ** 15, 2 ** 51, 40) + 0.25,
                           rng.integers(10 ** 15, 2 ** 51, 40) + 0.75,
                           rng.integers(10 ** 14, 2 ** 50, 40) + 0.125,
                           [1000000000000000.25, 123456789012345675.0]))
    # powers of ten, some stored just below 10**k, whose 17 digits round up
    # into the next decade; and the edges of the fixed layout (d = -5/-4
    # and 16/17) and of the fast range
    edges = [float(f"1e{k}") for k in range(-300, 301)] + [
        9.9999999999999991e-05, 1.2345678901234567e-05, 1.2345678901234567e-04,
        9.9999999999999998e16, 1.2345678901234567e16, 1.2345678901234567e17,
        99999999999999999.0, 0.99999999999999999, 9.9999999999999999e22]
    special = [2.0 ** 53 - 1, 2.0 ** 53 + 1, 2.0 ** 53 + 2, 1e22, 1e23, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
               float("nan"), float("inf")]
    pool = np.concatenate((ties, with_neighbours(edges), special))
    return np.concatenate((pool, -pool))


@pytest.mark.parametrize("width", [2, 7, 101])
def test_csv_text_matches_reference_on_adversarial_values(tmp_path, width):
    values = adversarial_values()
    table = np.resize(values, (-(-values.size // width), width))
    assert_csv_matches_reference(tmp_path / "a.csv", table)


def test_csv_text_matches_reference_across_blocks(tmp_path):
    rows = _csvtext.BLOCK_VALUES // 101
    rng = np.random.default_rng(12)
    zero_free = rng.standard_normal((rows, 101)) * 10.0 ** rng.integers(-30, 30, (rows, 101))
    mixed = np.where(rng.random((rows, 101)) < 0.5, 0.0, zero_free[::-1])
    mixed[rng.random((rows, 101)) < 0.2] = -0.0
    table = np.concatenate((np.zeros((rows, 101)), zero_free, mixed, mixed[::-1],
                            zero_free[: rows // 2], np.zeros((3, 101))))
    assert_csv_matches_reference(tmp_path / "b.csv", table)


def test_csv_text_matches_reference_on_generated_tables(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    elements = (st.floats()  # subnormals, signed zeros, NaN and infinities included
                | st.floats(-1e3, 1e3)
                | st.integers(-10 ** 18, 10 ** 18).map(float)
                | st.tuples(st.integers(-10 ** 17, 10 ** 17), st.integers(0, 40)).map(
                    lambda p: p[0] / 10.0 ** p[1])
                | st.sampled_from(adversarial_values().tolist()))
    tables = arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(2, 9)),
                    elements=elements)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(table=tables)
    def check(table):
        assert_csv_matches_reference(tmp_path / "g.csv", table)

    check()


# values the zero template must splice in: -0.0 and the '%.17g' fallbacks
ZERO_TABLE_EXCEPTIONS = [-0.0, 5e-324, float("nan"), float("inf"), float("-inf"),
                         1000000000000000.25, -123456789012345675.0]


def test_csv_text_matches_reference_on_mostly_zero_tables(tmp_path):
    rng = np.random.default_rng(14)
    exceptions = np.array(ZERO_TABLE_EXCEPTIONS)
    rows_per_chunk = _csvtext.BLOCK_VALUES // 191
    # 190 value columns: sparse rows, all-zero rows, a run of all-zero rows
    # longer than a block, and a dense stretch between mostly-zero ones
    sparse = np.where(rng.random((1200, 190)) < 0.03, rng.standard_normal((1200, 190)), 0.0)
    picks = rng.random((1200, 190)) < 0.01
    sparse[picks] = rng.choice(exceptions, picks.sum())
    sparse[::7] = 0.0
    sparse[5:1200:97, 0] = rng.choice(exceptions, 13)
    sparse[9:1200:89, -1] = rng.choice(exceptions, 14)
    dense = rng.standard_normal((3 * rows_per_chunk, 190))
    zero_rows = 40 * rows_per_chunk
    table = np.concatenate((sparse[:400], np.zeros((zero_rows, 190)), sparse[400:800],
                            dense, sparse[800:]))
    times = np.linspace(0.0, 50.0, table.shape[0])
    times[::5] = 0.0
    times[3::11] = rng.choice(exceptions, times[3::11].size)
    times[400:400 + zero_rows] = 0.0
    assert_csv_matches_reference(tmp_path / "z.csv", np.column_stack((times, table)))
    # narrow tables: the exceptions in the first and the last column
    for width in (2, 3):
        narrow = np.zeros((300, width))
        narrow[::4, 0] = rng.choice(exceptions, 75)
        narrow[1::5, -1] = rng.choice(exceptions, 60)
        assert_csv_matches_reference(tmp_path / "n.csv", narrow)


def test_csv_text_matches_reference_on_generated_mostly_zero_tables(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    elements = st.floats() | st.sampled_from(ZERO_TABLE_EXCEPTIONS + [0.0, -1.5, 2.0 ** 60])
    shapes = st.tuples(st.integers(1, 40), st.integers(2, 200))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(table=shapes.flatmap(lambda s: arrays(np.float64, s, elements=elements)),
           share=st.integers(0, 49), seed=st.integers(0, 2 ** 32 - 1))
    def check(table, share, seed):
        # keep under half of the values, so that the table is mostly +0.0
        table[np.random.default_rng(seed).random(table.shape) * 100 >= share] = 0.0
        assert_csv_matches_reference(tmp_path / "g.csv", table)

    check()


def test_power_table_matches_exact_rationals():
    from fractions import Fraction

    for k, hi, lo in zip(range(_csvtext._POW_MIN, _csvtext._POW_MAX + 1),
                         _csvtext._POW_HI.tolist(), _csvtext._POW_LO.tolist()):
        exact = Fraction(10) ** k
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi))), k


def test_decimal_digits_next_to_every_power_of_ten():
    from fractions import Fraction

    # floor(log10) misses the decade only next to a power of ten; the top of
    # each decade holds values whose 17 digits round up into the next one
    powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
    near = [powers]
    for steps in range(1, 4):
        below, above = powers, powers
        for _ in range(steps):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near += [below, above]
    tops = np.array([float(f"9.99999999999999995e{k}") for k in range(-281, 280)])
    v = np.concatenate(near + [tops])
    v = v[(v >= 1e-280) & (v <= 1e280)]
    num, d, exact = _csvtext._decimal(v)
    margin = Fraction(1, 10 ** 11)
    rounded_up = 0
    for x, n, e, ok in zip(v.tolist(), num.tolist(), d.tolist(), exact.tolist()):
        mantissa, exponent = ("%.16e" % x).split("e")
        if ok:
            assert (n, e) == (int(mantissa.replace(".", "")), int(exponent)), x
        up = Fraction(x) < Fraction(10) ** int(exponent)  # rounded up into the next decade
        rounded_up += up
        scaled = Fraction(x) * Fraction(10) ** (16 - int(exponent) + up)
        # away from a tie, and from the decade's ends, where the double-double
        # error (below 1e-13) may put hi + lo on the other side: 1e20 is one
        if (abs(scaled - int(scaled) - Fraction(1, 2)) > margin
                and 10 ** 16 + margin < scaled < 10 ** 17 - margin):
            assert ok, x
    assert rounded_up >= 13


def test_csv_writer_memory_does_not_grow_with_the_table(tmp_path):
    rng = np.random.default_rng(13)
    times = np.linspace(0.0, 400.0, 8001)
    states = rng.standard_normal((8001, 100))
    tracemalloc.start()
    try:
        _write_csv_rows(tmp_path / "big.csv", "t", times, states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


def test_csv_writer_memory_stays_flat_on_mostly_zero_tables(tmp_path):
    rng = np.random.default_rng(15)
    times = np.linspace(0.0, 400.0, 8001)
    signals = np.where(rng.random((8001, 190)) < 0.02, rng.standard_normal((8001, 190)), 0.0)
    tracemalloc.start()
    try:
        _write_csv_rows(tmp_path / "sparse.csv", "t", times, signals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


def supported_trace(rng, rows, width, piece_rows, pool):
    """Times and values of a trace whose pieces of up to piece_rows rows
    draw random columns (none, the first, the last, all or a few) and hold
    +0.0 elsewhere; a piece may be empty, and a drawn stretch all zeros."""
    values = np.zeros((rows, width))
    r = 0
    while r < rows:
        s = min(rows, r + int(rng.integers(0, piece_rows + 1)))
        kind = rng.integers(6)
        if kind == 0:
            cols = np.arange(0)
        elif kind == 1:
            cols = np.array([0, width - 1][rng.integers(2):][:1])
        elif kind == 2:
            cols = np.arange(width)
        else:
            cols = np.sort(rng.choice(width, int(rng.integers(1, min(width, 8) + 1)),
                                      replace=False))
        if rng.random() < 0.8:
            values[r:s, cols] = rng.choice(pool, (s - r, cols.size))
        r = s
    times = np.repeat(np.linspace(0.0, 50.0, rows // 2 + 1), 2)[:rows]
    return times, values


def test_supported_csv_matches_reference_on_generated_traces(tmp_path):
    rng = np.random.default_rng(17)
    # -0.0, subnormals, decimal ties and the '%.17g' fallbacks, among plain values
    pool = np.concatenate((adversarial_values(), ZERO_TABLE_EXCEPTIONS, [0.0] * 50,
                           rng.standard_normal(200)))
    for width in (1, 2, 3, 10, 190):
        for piece_rows in (1, 5, 40, 3000):
            times, values = supported_trace(rng, 600, width, piece_rows, pool)
            assert_csv_matches_reference(tmp_path / "s.csv", np.column_stack((times, values)))


def counted_template_writes(monkeypatch):
    """Count the calls of the writer's template path."""
    calls = []
    template_lines = _csvtext._support_lines

    def counted(*args):
        calls.append(1)
        return template_lines(*args)

    monkeypatch.setattr(_csvtext, "_support_lines", counted)
    return calls


def assert_trace_csv_matches_reference(path, trace):
    trace.write_csv(path)
    header = "t," + ",".join(f"z_{i + 1}_{j + 1}" for i, j in trace.edge_order)
    assert path.read_bytes() == reference_csv_text(
        header, trace.sample_times, trace.signals).encode()


def test_edge_signals_edited_in_place_are_written(tmp_path):
    # the cells off segment 0's edges are +0.0 when the trace is built; the
    # writer reads the cells as they are when it writes
    sched = five_node_schedule()
    trace = edge_signals(simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 7.3, 0.05), sched)
    off_edges = np.flatnonzero(~reference_incidence(sched.segments[0].weights).any(axis=0))
    assert off_edges.size and not trace.signals[:2, off_edges].view(np.int64).any()
    trace.signals[0, off_edges[0]] = 1.5
    trace.signals[1, off_edges[-1]] = -0.0
    assert_trace_csv_matches_reference(tmp_path / "e.csv", trace)


def _read_edge_signals(path, node_count):
    """The edge-signal trace of ``node_count`` nodes in a CSV file, built as
    a recorded trace is: from its columns and ``edge_pairs``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return EdgeSignalTrace(data[:, 0], data[:, 1:], edge_pairs(node_count))


def test_read_back_trace_rewrites_to_the_same_bytes(tmp_path, monkeypatch):
    sched = five_node_schedule()
    traj = simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 7.3, 0.05)
    trace = edge_signals(traj, sched)
    assert_trace_csv_matches_reference(tmp_path / "a.csv", trace)
    back = _read_edge_signals(tmp_path / "a.csv", sched.node_count)
    assert np.array_equal(back.signals.view(np.int64), trace.signals.view(np.int64))
    # the writer finds the +0.0 runs of the read-back signals too
    calls = counted_template_writes(monkeypatch)
    back.write_csv(tmp_path / "b.csv")
    assert calls and (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    traj.write_csv(tmp_path / "x.csv")
    read_trajectory_csv(tmp_path / "x.csv").write_csv(tmp_path / "y.csv")
    assert (tmp_path / "y.csv").read_bytes() == (tmp_path / "x.csv").read_bytes()


@pytest.mark.parametrize("name,table", [
    # edge_signals.csv is mostly zeros, whose runs the writer finds in the values
    ("five_node_reconstruct", "edge_signals.csv"),
    ("five_node_reconstruct", "trajectory.csv"),
    # its times reach 40: fixed layouts with digits before the point
    ("alternating_triangle", "trajectory.csv"),
])
def test_read_back_golden_table_rewrites_to_the_same_bytes(tmp_path, name, table):
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    assert main(["run", str(scenario), "--output-dir", str(tmp_path / "out")]) == 0
    written = tmp_path / "out" / table
    if table == "edge_signals.csv":
        back = _read_edge_signals(written, load_scenario(scenario).schedule.node_count)
    else:
        back = read_trajectory_csv(written)
    back.write_csv(tmp_path / "rewritten.csv")
    assert written.stat().st_size
    assert (tmp_path / "rewritten.csv").read_bytes() == written.read_bytes()


def test_negative_zero_among_positive_zeros_keeps_its_sign(tmp_path, monkeypatch):
    # -0.0 is not +0.0 on the int64 view, so the templates format it as "-0"
    rng = np.random.default_rng(18)
    values = np.zeros((300, 9))
    values[:, [1, 7]] = rng.standard_normal((300, 2))
    values[:, 4] = -0.0
    values[100:140, 5] = -0.0
    times = np.linspace(0.0, 3.0, 300)
    times[:50] = -0.0
    calls = counted_template_writes(monkeypatch)
    assert_csv_matches_reference(tmp_path / "m.csv", np.column_stack((times, values)))
    assert calls


def test_scattered_zeros_and_non_finite_rows_are_written(tmp_path, monkeypatch):
    rng = np.random.default_rng(19)
    table = rng.standard_normal((4001, 51))
    table[rng.random(table.shape) < 0.05] = 0.0
    # a run of rows per few rows: too many runs for templates
    calls = counted_template_writes(monkeypatch)
    assert_csv_matches_reference(tmp_path / "s.csv", table)
    assert not calls
    sched = five_node_schedule()
    traj = simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 3.0, 0.25)
    traj.states[4, 1] = np.inf  # inf * 0.0 is NaN in the off-edge columns of its row
    traj.states[7, 2] = -np.inf
    with np.errstate(invalid="ignore"):
        trace = edge_signals(traj, sched)
    assert np.isnan(trace.signals).any() and np.isinf(trace.signals).any()
    assert_trace_csv_matches_reference(tmp_path / "n.csv", trace)


def _one_column_trace(rng):
    values = np.zeros((8001, 190))
    values[:, 0] = rng.standard_normal(8001)
    return np.linspace(0.0, 400.0, 8001), values


# 8001 x 190 tables: pieces of random columns, and the template path's
# longest lines, all "0," cells or one text among them
@pytest.mark.parametrize("trace", [
    lambda rng: supported_trace(rng, 8001, 190, 40, rng.standard_normal(100)),
    lambda rng: (np.linspace(0.0, 400.0, 8001), np.zeros((8001, 190))),
    _one_column_trace,
], ids=["supported-trace", "all-zero", "one-column"])
def test_csv_writer_memory_stays_flat_on_supported_traces(tmp_path, trace):
    times, values = trace(np.random.default_rng(16))
    tracemalloc.start()
    try:
        _write_csv_rows(tmp_path / "supported.csv", "t", times, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak


# imports the package and checks that the formatter and its tables were not
# loaded, then the CLI, whose records are named tuples, without dataclasses
_IMPORT_ONLY = """
import sys
import consensuslab
assert "consensuslab._csvtext" not in sys.modules
assert "fractions" not in sys.modules
import consensuslab.cli
assert "dataclasses" not in sys.modules
"""


def test_import_leaves_the_formatter_tables_unbuilt():
    src = str(Path(consensuslab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- window scans --------------------------------------------------------------


def random_signed_schedule(rng, n, periodic, segments=4):
    """Random schedule whose weights take both signs."""
    ends = np.cumsum(rng.uniform(0.1, 1.5, segments))
    starts = np.concatenate(([0.0], ends[:-1]))
    segs = []
    for a, b in zip(starts, ends):
        w = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        segs.append((a, b, w + w.T))
    return WeightSchedule(segs, periodic=periodic)


SCHEDULE_KINDS = {"periodic": lambda rng, n: random_schedule(rng, n, True),
                  "nonperiodic": lambda rng, n: random_schedule(rng, n, False),
                  "signed": lambda rng, n: random_signed_schedule(rng, n, True)}


def golden_schedules():
    return [load_scenario(SCENARIOS / f"{name}.json").schedule for name in GOLDENS]


def assert_certificate_exact(sched, delta, T, cert):
    """Every listed window recomputed alone, every witness checked against
    the schedule, and the verdict of a dense scan."""
    for w in cert.windows:
        assert w == reference_window(sched, delta, T, w.start)
    check_certificate(sched, delta, T, cert.as_dict())
    assert cert.verdict == reference_connectivity(sched, delta, T)
    assert uncovered_starts(sched, delta, T, cert) == []


def assert_bounds_exact(sched, T, bounds):
    """Stacked blocks equal a window-by-window scan of the kinks, and no
    start of a dense scan lies outside [alpha1, alpha2]."""
    assert bounds[:4] == reference_uniform_bounds(sched, T, window_starts(sched, T))[:4]
    dense = reference_uniform_bounds(sched, T)
    tol = 1e-12 * max(1.0, bounds.alpha2)
    assert bounds.alpha1 <= dense.alpha1 + tol and bounds.alpha2 >= dense.alpha2 - tol


@pytest.mark.parametrize("sched", golden_schedules(), ids=GOLDENS)
def test_window_checks_match_reference_on_goldens(sched):
    T = 0.4 * sched.horizon
    for delta in (0.05 * T, 0.3 * T):
        assert_certificate_exact(sched, delta, T, check_joint_connectivity(sched, delta, T))
    assert_bounds_exact(sched, T, uniform_bounds_check(sched, T))


def repeating_schedule(rng, n):
    """Two random graphs alternating on four unit segments (period 4).

    Window s + 2 sees the integrals of window s, so the same threshold
    graphs recur across blocks.
    """
    a, b = random_weights(rng, n, density=0.5), random_weights(rng, n, density=0.5)
    return WeightSchedule([(float(k), k + 1.0, (a, b)[k % 2]) for k in range(4)], periodic=True)


def sliding_schedule(rng, n):
    """Edge k alone, weight 5, on the unit segment [k, k + 1] of a period of 100.

    With T = 40, on each unit interval between kinks one edge leaves the
    window and the next enters it, so for delta = 4 each interval is cut at
    its two delta-crossings into three pieces; the middle one, holding
    neither edge, is inclusion-minimal.
    """
    pairs = edge_pairs(n)
    return WeightSchedule([(float(k), k + 1.0, weights(n, (*pairs[k], 5.0))) for k in range(100)],
                          periodic=True)


CHECK_SCHEDULES = {**SCHEDULE_KINDS, "repeating": repeating_schedule, "distinct": sliding_schedule}
CHECK_CASES = [pytest.param(kind, n, id=f"{kind}-{n}")
               for kind in sorted(SCHEDULE_KINDS) for n in (3, 10, 30)]
CHECK_CASES += [pytest.param("repeating", 10, id="repeating-10"),
                pytest.param("distinct", 15, id="distinct-15")]


@pytest.mark.parametrize("kind,n", CHECK_CASES)
def test_window_checks_match_reference_over_several_blocks(kind, n, monkeypatch):
    rng = np.random.default_rng([n, len(kind), 1])
    sched = CHECK_SCHEDULES[kind](rng, n)
    T = 0.4 * sched.horizon
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 2 * n * n)  # two windows per block
    assert len(window_starts(sched, T)) > 2
    verdicts = []
    for delta in (1e-9, 0.1 * T, 10.0 * T):  # the last leaves every window edgeless
        cert = check_joint_connectivity(sched, delta, T)
        assert len(cert.windows) > 2
        assert_certificate_exact(sched, delta, T, cert)
        verdicts.append(cert.verdict)
        if kind == "distinct" and delta == 4.0:
            assert len(cert.windows) == 100  # the middle piece of each kink interval
            assert {w.connected for w in cert.windows} == {True, False}
    assert_bounds_exact(sched, T, uniform_bounds_check(sched, T))
    assert verdicts[-1] == "not_connected"


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "nonperiodic"])
def test_each_kink_is_integrated_once(periodic, monkeypatch):
    # a block's last kink opens the next block's first interval without a
    # second integral; a period's last interval closes with the integrals at 0
    n = 5
    sched = random_schedule(np.random.default_rng(12), n, periodic, segments=6)
    T = 0.4 * sched.horizon
    kinks = window_starts(sched, T)
    assert len(kinks) >= 6
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 2 * n * n)  # two kinks per block
    starts, pieces = [], WeightSchedule.pieces
    monkeypatch.setattr(WeightSchedule, "pieces",
                        lambda self, t0, t1: starts.append(t0) or pieces(self, t0, t1))
    check_joint_connectivity(sched, 0.1 * T, T)
    assert sorted(starts) == sorted(kinks + kinks[:1] * periodic)
    starts.clear()
    uniform_bounds_check(sched, T)
    assert starts == kinks


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "nonperiodic"])
def test_stacked_bounds_match_reference_at_n_100(periodic):
    # no monkeypatch: 6 kinks a block, so the stacked row sums of the
    # widest benchmark graphs are checked across block seams
    sched = random_schedule(np.random.default_rng(100), 100, periodic, segments=8)
    T = 0.4 * sched.horizon
    starts = window_starts(sched, T)
    assert len(starts) > graph._BLOCK_ENTRIES // 100 ** 2
    bounds = uniform_bounds_check(sched, T)
    assert bounds[:4] == reference_uniform_bounds(sched, T, starts)[:4]


def test_worst_window_is_the_first_minimum(monkeypatch):
    # a constant graph on dyadic times: every window integral is exact and
    # equal, so the first start must be reported, also when the minimum
    # repeats in later blocks
    k3 = weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))
    sched = WeightSchedule([(0.0, 1.0, k3), (1.0, 2.0, k3)], periodic=True)
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 2 * 9)
    bounds = uniform_bounds_check(sched, 0.5)
    assert bounds[:4] == reference_uniform_bounds(sched, 0.5, window_starts(sched, 0.5))[:4]
    assert bounds.worst_window_start == 0.0 and bounds.alpha1 == pytest.approx(0.5)


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_incidence_entries_match_reference(n):
    w = random_weights(np.random.default_rng(n), n, density=0.5)
    h = incidence(w)
    assert np.array_equal(h.entries, reference_incidence(w))
    assert h.edge_order == tuple(edge_pairs(n))
    assert all(type(i) is int and type(j) is int for i, j in h.edge_order)


# -- CLI reports ---------------------------------------------------------------


def test_edge_signals_written_once_per_trajectory(tmp_path):
    data = json.loads((SCENARIOS / "five_node_reconstruct.json").read_text())
    twice = copy.deepcopy(data)
    twice["tasks"].append({"task": "reconstruct", "start": 1.0, "delta": 4.0})
    outputs = {}
    for label, scenario in (("once", data), ("twice", twice)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path), "--output-dir", str(tmp_path / label)]) == 0
        outputs[label] = (tmp_path / label / "edge_signals.csv").read_bytes()
        manifest = json.loads((tmp_path / label / "manifest.json").read_text())
        assert manifest["artifacts"].count("edge_signals.csv") == 1
    assert outputs["once"] == outputs["twice"]


def test_edge_signals_follow_a_new_trajectory(tmp_path):
    # a second simulate replaces the trajectory; its reconstruct rewrites the trace
    data = json.loads((SCENARIOS / "five_node_reconstruct.json").read_text())
    data["tasks"] += [{"task": "simulate", "t_end": 6.0, "sample_dt": 0.015625},
                      {"task": "reconstruct", "start": 2.0, "delta": 4.0}]
    path = tmp_path / "resim.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    rows = np.loadtxt(tmp_path / "out" / "edge_signals.csv", delimiter=",", skiprows=1)
    assert np.isclose(np.diff(rows[:, 0]).max(), 0.015625)


def test_json_report_bytes_match_reference_writer(tmp_path):
    payload = {
        "floats": [0.1, -0.0, 1e-310, 1e22],
        "numpy_scalars": [np.float64(1.0 / 3.0), np.float32(0.1), np.int64(-7), np.intc(3)],
        "arrays": {"matrix": np.arange(6.0).reshape(2, 3) / 7.0, "ints": np.arange(4),
                   "empty": np.zeros((0, 2)), "vector": np.array([0.1, -0.0, 1e-310])},
        "nested": ({"b": (1, 2.5, None), "a": [True, False, "text"]},),
        "\0array": ["\0array", np.arange(3.0)],
        # the writer's edges: lists joined in one pass, and lists it writes item by item
        "int_list": [3, -1, 0, 2 ** 70],
        "int_list_with_bool": [1, True, 0],
        "float_list": [-0.0, 5e-324, 1e22],
        "float_list_whose_sum_overflows": [1.7e308, 1.7e308],
        "ints_and_floats": [1, 2.5, -3],
        "float_tuple": (0.5, -0.0, 1e-310),
        "empty_dict_in_list": [{}],
        "z_last": np.float64(-2.0),
    }
    _write_json(tmp_path / "new.json", payload)
    reference_write_json(tmp_path / "old.json", payload)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    # strict JSON has no NaN or infinity: such a report raises and writes nothing
    for bad in NON_FINITE:
        for value in (bad, np.float64(bad), np.float32(bad), np.array([bad])):
            with pytest.raises(ValueError, match="not JSON compliant"):
                _write_json(tmp_path / "bad.json", {**payload, "bad": value})
    # json would write an int key as a string; a report key is a str or a mistake
    with pytest.raises(TypeError, match="report key 1 is not a string"):
        _write_json(tmp_path / "bad.json", {**payload, "bad": {1: "one"}})
    assert not (tmp_path / "bad.json").exists()
    certificates = []
    for name in GOLDENS:
        sched = load_scenario(SCENARIOS / f"{name}.json").schedule
        certificates.append(check_joint_connectivity(sched, 0.1, 0.4 * sched.horizon))
    # the shape of a large report: N = 20, 16 segments, 132 windows
    sched = random_schedule(np.random.default_rng(20), 20, True, segments=16)
    certificates.append(check_joint_connectivity(sched, 0.2, 2.0))
    assert len(certificates[-1].windows) == 132
    for cert in certificates:
        _write_json(tmp_path / "new.json", cert.as_dict())
        reference_write_json(tmp_path / "old.json", cert.as_dict())
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


HOSTILE_TEXT = ['[', ']', '{', '}', ',', ':', '"', '\\', '\\"', '\n', '\t', '\x00', '\u00e9',
                '\u20ac', '\U0001d11e', '"\\"', ': ', ', ']
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e22, 1e-310]
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def test_json_writer_matches_reference_on_generated_trees(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    text = st.lists(st.sampled_from(HOSTILE_TEXT) | st.characters(), max_size=6).map("".join)
    # finite only: a non-finite leaf is drawn apart and must raise
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_FLOATS)
    floats32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
    numpy_scalars = (floats.map(np.float64) | floats32.map(np.float32)
                     | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                     | st.booleans().map(np.bool_))
    arrays = (floats.map(np.array)  # 0-d
              | st.sampled_from([(0,), (0, 3), (2, 0), (1, 0, 2)]).map(np.zeros)
              | st.lists(floats, max_size=6).map(np.array)
              | st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(
                  lambda v: np.array(v[:len(v) // 2 * 2]).reshape(2, -1)))
    leaves = (st.none() | st.booleans() | st.integers() | floats | text | numpy_scalars
              | arrays)
    trees = st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(text, children, max_size=4)),
        max_leaves=40,
    )

    # a non-finite leaf, alone or inside a float array, is refused as json refuses it
    non_finite = st.sampled_from(NON_FINITE).flatmap(
        lambda v: st.sampled_from([v, np.float64(v), np.float32(v), np.array(v)])
        | st.tuples(st.lists(floats, max_size=4), st.lists(floats, max_size=4)).map(
            lambda ends: np.array(ends[0] + [v] + ends[1])))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(tree=trees, bad=non_finite)
    def check(tree, bad):
        _write_json(tmp_path / "new.json", tree)
        reference_write_json(tmp_path / "old.json", tree)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "new.json", [tree, bad])

    check()


# -- cached piece factors ------------------------------------------------------


def tenths_schedule(rng, n, segments=5):
    """Periodic schedule whose segments end at sums of tenths, such as
    0.30000000000000004: unwrapped across periods, a full piece can last an
    ulp more or less than its segment."""
    ends = np.cumsum(rng.integers(1, 8, segments)) / 10.0
    starts = np.concatenate(([0.0], ends[:-1]))
    return WeightSchedule([(a, b, random_weights(rng, n, density=0.7))
                           for a, b in zip(starts, ends)], periodic=True)


def bits(call):
    """The floats call() returns, as bytes, or its error's class and message."""
    try:
        out = call()
    except (ConsensusLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, ObservabilityGramian):
        return out.entries.tobytes(), out.lambda_min, out.lambda_max
    return np.asarray(getattr(out, "entries", out)).tobytes()


def assert_piece_cache_exact(sched, windows, trace, monkeypatch):
    """gramian, reconstruct and transition_matrix on sched, whose piece cache
    fills as they go, equal the uncached factors on a copy of it, bit for bit."""
    fresh = WeightSchedule([tuple(seg) for seg in sched.segments], periodic=sched.periodic)
    for s, delta in windows:
        calls = [lambda sc: gramian(sc, s, delta),
                 lambda sc: transition_matrix("projected", sc, s, s + delta),
                 lambda sc: transition_matrix("raw", sc, s, s + delta)]
        if trace is not None:
            calls.append(lambda sc: reconstruct(trace, sc, s, delta))
        for call in calls:
            fast = bits(lambda: call(sched))
            with monkeypatch.context() as m:
                m.setattr(observability, "_piece_factors", uncached_piece_factors)
                assert bits(lambda: call(fresh)) == fast, (s, delta)
    assert len(sched._full_pieces) <= len(sched.segments)


@pytest.mark.parametrize("name", GOLDENS)
def test_piece_cache_matches_uncached_factors_on_goldens(name, monkeypatch):
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    sched = scenario.schedule
    tasks = dict(scenario.tasks)
    span = sched.horizon * (3 if sched.periodic else 1)
    windows = [(p["start"], p["delta"]) for t, p in scenario.tasks
               if t in ("gramian", "reconstruct")]
    windows += [(span * a / 16, span * d / 16) for a, d in ((0, 16), (1, 5), (3, 11), (7, 9))]
    trace = None
    if "simulate" in tasks:
        sim = tasks["simulate"]
        traj = simulate(sched, scenario.initial_state, sim["t_end"], sim["sample_dt"])
        trace = edge_signals(traj, sched)
        # windows with both ends on the sample grid, starting every 7 steps
        # in the first half of the run, each 5 steps longer than the last
        step, steps = sim["sample_dt"], int(sim["t_end"] / sim["sample_dt"])
        windows += [(step * a, step * (3 + 5 * i)) for i, a in enumerate(range(0, steps // 2, 7))
                    if a + 3 + 5 * i <= steps]
    assert_piece_cache_exact(sched, windows, trace, monkeypatch)


@pytest.mark.parametrize("seed", range(6))
def test_piece_cache_matches_uncached_factors_on_tenths(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    sched = tenths_schedule(rng, int(rng.integers(3, 7)))
    period = sched.horizon
    t_end = 4.0 * period
    traj = simulate(sched, rng.standard_normal(sched.node_count), t_end, 0.05)
    trace = edge_signals(traj, sched)
    windows = []
    for _ in range(12):
        # window ends on the sample grid, up to three periods long
        a, d = rng.integers(0, 20 * period), rng.integers(1, 60 * period)
        if 0.05 * (a + d) <= t_end:
            windows.append((0.05 * a, 0.05 * d))
    windows += [(period, 3.0 * period), (2.0 * period - 0.05, period + 0.05)]
    assert_piece_cache_exact(sched, windows, trace, monkeypatch)


def test_full_pieces_an_ulp_off_are_built_afresh():
    rng = np.random.default_rng(3)
    sched = tenths_schedule(rng, 4)
    off = 0
    for s in np.arange(0.0, 30.0 * sched.horizon, 0.1):
        for ta, tb, k in sched.pieces(s, s + 2.0 * sched.horizon):
            seg = sched.segments[k]
            length = seg.t_end - seg.t_start
            if tb - ta != length and abs(tb - ta - length) <= 1e-12:
                off += 1
                factors = observability._piece_factors(sched, k, tb - ta)
                assert all(a.flags.writeable for a in factors)
                assert factors is not sched._full_pieces.get(k)
    assert off > 0  # the schedule does unwrap pieces an ulp off


def test_piece_cache_holds_at_most_one_entry_per_segment():
    rng = np.random.default_rng(19)
    sched = tenths_schedule(rng, 5)
    for s, delta in zip(rng.uniform(0.0, 50.0 * sched.horizon, 500),
                        rng.uniform(0.05, 3.0 * sched.horizon, 500)):
        gramian(sched, s, delta)
    assert 0 < len(sched._full_pieces) <= len(sched.segments)
    for k, factors in sched._full_pieces.items():
        assert not any(a.flags.writeable for a in factors)


def test_reconstruct_task_builds_its_gramian_once(tmp_path, monkeypatch):
    builds = []
    holds = observability.negative_link_assumption_holds  # checked once per build

    def counted(sched):
        builds.append(sched)
        return holds(sched)

    monkeypatch.setattr(observability, "negative_link_assumption_holds", counted)
    data = json.loads((SCENARIOS / "five_node_reconstruct.json").read_text())
    data["tasks"] = [t for t in data["tasks"] if t["task"] in ("simulate", "reconstruct")]
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert len(builds) == 1
    report = json.loads((tmp_path / "out" / "reconstruction.json").read_text())
    assert report["lambda_min"] == observability.gramian(load_scenario(path).schedule,
                                                         2.0, 4.0).lambda_min


def test_two_reconstructions_build_each_incidence_once(tmp_path, monkeypatch):
    built, traces = [], []
    build, extract = graph._factor_incidence, observability.edge_signals  # every H is built here

    def counted_incidence(w):
        built.append(id(w))  # segment weights live as long as the run's schedule
        return build(w)

    def counted_signals(traj, sched):
        traces.append(sched)
        return extract(traj, sched)

    monkeypatch.setattr(graph, "_factor_incidence", counted_incidence)
    # count builds made through observability's own namespace as well
    monkeypatch.setattr(observability, "_factor_incidence", counted_incidence, raising=False)
    monkeypatch.setattr(observability, "edge_signals", counted_signals)
    data = json.loads((SCENARIOS / "five_node_reconstruct.json").read_text())
    data["tasks"].append({"task": "reconstruct", "start": 1.0, "delta": 4.0})
    path = tmp_path / "rec2.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    assert built and len(built) == len(set(built))
    assert len(traces) == 1


def test_json_report_encodes_numpy_bools_and_refuses_other_objects(tmp_path):
    _write_json(tmp_path / "b.json", {"flag": np.bool_(True), "flags": np.array([False, True]),
                                      "scalar": np.array(2.5)})
    assert json.loads((tmp_path / "b.json").read_text()) == {
        "flag": True, "flags": [False, True], "scalar": 2.5}
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_json(tmp_path / "c.json", {"x": object()})
