"""The linear-time kernels against the slow references they replace.

``simulate`` propagates all samples of a constant sub-piece in one product,
the sample grid is merged with ``searchsorted``, noise window energies are
summed over elementary intervals, edge-signal rows are located by
``searchsorted`` ranges, CSV rows are formatted by one %-format call, window
scans integrate and diagonalise stacked blocks of windows taken only at the
schedule's kinks and delta-crossings, the incidence matrix is filled by
index arrays, and JSON reports are streamed by ``json.dump``.  Each is
compared here with the straightforward version in ``helpers``: window checks
with a dense scan of starts and with each listed window recomputed alone.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from consensuslab import (
    EdgeSignalTrace,
    NoiseProcess,
    StateVector,
    Trajectory,
    WeightSchedule,
    edge_signals,
    simulate,
)
from consensuslab import graph, observability
from consensuslab.cli import _write_json, load_scenario, main
from consensuslab.dynamics import _merge_grid
from consensuslab.graph import (
    _window_integrals,
    check_joint_connectivity,
    edge_pairs,
    incidence,
    integrated_weights,
    window_starts,
)
from consensuslab.observability import _piece_node_rows, _rows_within, uniform_bounds_check
from helpers import (
    five_node_schedule,
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
    scan_starts,
    uncovered_starts,
    weights,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = ["alternating_triangle", "disconnected_noise", "five_node_reconstruct",
           "isolated_node", "k2_constant", "robust_noise", "signed_triangle"]


def assert_matches_reference(sched, x0_time, x0, t_end, sample_dt, noise=None):
    traj = simulate(sched, StateVector(x0_time, x0), t_end, sample_dt, noise=noise)
    grid, states = reference_simulate(sched, x0_time, x0, t_end, sample_dt, noise)
    assert np.array_equal(traj.sample_times, grid)
    scale = max(1.0, float(np.abs(states).max()))
    assert np.abs(traj.states - states).max() <= 1e-12 * scale
    return traj


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
            noise = sc.build_noise(params["t_end"]) if sc.noise_spec is not None else None
            x0 = sc.initial_state
        elif task == "robustness":
            noise = sc.build_noise(params["t_end"])
            x0 = np.zeros(sc.schedule.node_count)  # robustness starts at consensus
        else:
            continue
        assert_matches_reference(sc.schedule, 0.0, x0, params["t_end"],
                                 params.get("sample_dt", 0.05), noise)
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
    for x0_time, t_end, sample_dt in [(0.0, horizon, 0.05),
                                      (0.83, horizon, 0.1),        # x0.time > 0
                                      (0.0, horizon - 0.0123, 0.07)]:  # t_end off the grid
        assert_matches_reference(sched, x0_time, rng.standard_normal(n), t_end, sample_dt, noise)


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
    traj = assert_matches_reference(sched, 0.0, np.array([1.0, -2.0, 0.5]), 4.0 - 2e-8, 0.1, noise)
    for b in edges[1:-1]:
        assert b in traj.sample_times
    assert traj.sample_times[-1] == 4.0 - 2e-8


def test_run_ending_just_past_a_nonperiodic_horizon():
    # t_end may pass the horizon by its 1e-9 relative tolerance, which is more
    # than the merge tolerance: the last segment carries the final sample
    sched = WeightSchedule([(0.0, 6.0, weights(3, (0, 1, 0.2), (1, 2, 0.1)))])
    traj = assert_matches_reference(sched, 0.0, np.array([3.0, 1.0, -1.0]), 6.0 + 5e-9, 0.001)
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
    noise = NoiseProcess.windowed_random(4, zeta, 2.0, seed=9, t_end=t_end, t_start=0.5,
                                         steps_per_window=steps)
    fast, slow = noise.window_energies(), reference_window_energies(noise)
    assert len(fast) == len(slow)
    assert np.abs(np.subtract(fast, slow)).max() <= 1e-12 * max(slow)


def test_table_energies_match_reference():
    rng = np.random.default_rng(2)
    breaks = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.9, 300))))
    values = rng.standard_normal((breaks.size - 1, 3))
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
        ta, tb = np.sort(rng.choice(np.concatenate((times, rng.uniform(-1, 6, 5))), 2))
        tol = float(rng.choice([0.0, 1e-9, 0.05, 0.1]))
        lo, hi = _rows_within(times, ta, tb, tol)
        assert np.array_equal(np.arange(lo, hi), reference_piece_mask(times, ta, tb, tol))


def test_piece_rows_match_masks_on_a_trace():
    sched = five_node_schedule()
    traj = simulate(sched, [1.0, 0.0, -1.0, 2.0, 0.5], 6.0, 0.05)
    trace = edge_signals(traj, sched)
    times, tol = trace.sample_times, 1e-9
    for ta, tb, _ in sched.pieces(0.5, 5.5):
        idx = reference_piece_mask(times, ta, tb, tol)
        if times[idx[1]] - times[idx[0]] <= tol:
            idx = idx[1:]
        if times[idx[-1]] - times[idx[-2]] <= tol:
            idx = idx[:-1]
        lo, hi = _piece_node_rows(times, ta, tb, tol)
        assert np.array_equal(np.arange(lo, hi), idx)


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
    assert np.array_equal(trace.signals, np.vstack(out_z))


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


def block_size(n):
    return max(1, graph._BLOCK_ENTRIES // (n * n))


def golden_schedules():
    return [load_scenario(SCENARIOS / f"{name}.json").schedule for name in GOLDENS]


def assert_integrals_match(sched, starts, duration):
    """Compare every stacked slice with integrated_weights; return the block count."""
    covered = blocks = 0
    for lo, stack in _window_integrals(sched, starts, duration):
        assert lo == covered and 1 <= len(stack) <= block_size(sched.node_count)
        for r, s in enumerate(starts[lo:lo + len(stack)]):
            assert np.array_equal(stack[r], integrated_weights(sched, s, duration))
        covered += len(stack)
        blocks += 1
    assert covered == len(starts)
    return blocks


@pytest.mark.parametrize("sched", golden_schedules(), ids=GOLDENS)
def test_window_integrals_match_on_goldens(sched):
    for frac in (0.3, 0.5):
        T = frac * sched.horizon
        assert_integrals_match(sched, window_starts(sched, T) + list(scan_starts(sched, T, 17)), T)


@pytest.mark.parametrize("n", [3, 10, 30])
@pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
def test_window_integrals_match_over_several_blocks(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    sched = SCHEDULE_KINDS[kind](rng, n)
    T = 0.4 * sched.horizon
    starts = window_starts(sched, T) + list(scan_starts(sched, T, 3 * block_size(n) // 2))
    assert len(starts) > block_size(n)
    assert assert_integrals_match(sched, starts, T) >= 2
    # windows with no piece at all stack to zeros
    assert assert_integrals_match(sched, starts[:3], 0.0) == 1


def assert_certificate_exact(sched, delta, T, cert):
    """Every listed window recomputed alone, and the verdict of a dense scan."""
    for w in cert.windows:
        assert w == reference_window(sched, delta, T, w.start)
    failing = [w.start for w in cert.windows if not w.connected]
    assert cert.counterexample_window == (failing[0] if failing else None)
    assert cert.verdict == reference_connectivity(sched, delta, T)
    assert uncovered_starts(sched, delta, T, cert) == []


def assert_bounds_exact(sched, T, bounds):
    """Stacked blocks equal a window-by-window scan of the kinks, and no
    start of a dense scan lies outside [alpha1, alpha2]."""
    assert bounds == reference_uniform_bounds(sched, T, window_starts(sched, T))
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


def test_worst_window_is_the_first_minimum(monkeypatch):
    # a constant graph on dyadic times: every window integral is exact and
    # equal, so the first start must be reported, also when the minimum
    # repeats in later blocks
    k3 = weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))
    sched = WeightSchedule([(0.0, 1.0, k3), (1.0, 2.0, k3)], periodic=True)
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 2 * 9)
    bounds = uniform_bounds_check(sched, 0.5)
    assert bounds == reference_uniform_bounds(sched, 0.5, window_starts(sched, 0.5))
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
        "floats": [0.1, -0.0, 1e-310, 1e22, float("nan"), float("inf"), -float("inf")],
        "numpy_scalars": [np.float64(1.0 / 3.0), np.float32(0.1), np.int64(-7), np.intc(3)],
        "arrays": {"matrix": np.arange(6.0).reshape(2, 3) / 7.0, "ints": np.arange(4),
                   "empty": np.zeros((0, 2))},
        "nested": ({"b": (1, 2.5, None), "a": [True, False, "text"]},),
        "z_last": np.float64(-2.0),
    }
    _write_json(tmp_path / "new.json", payload)
    reference_write_json(tmp_path / "old.json", payload)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
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
SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.5e-320,
                  2.2250738585072014e-308, 1e22, 1e-310]


def test_json_writer_matches_reference_on_generated_trees(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    text = st.lists(st.sampled_from(HOSTILE_TEXT) | st.characters(), max_size=6).map("".join)
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    numpy_scalars = (floats.map(np.float64) | st.floats(width=32).map(np.float32)
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

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(tree=trees)
    def check(tree):
        _write_json(tmp_path / "new.json", tree)
        reference_write_json(tmp_path / "old.json", tree)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    check()


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
    build, extract = graph.incidence, observability.edge_signals

    def counted_incidence(w):
        built.append(id(w))  # segment weights live as long as the run's schedule
        return build(w)

    def counted_signals(traj, sched):
        traces.append(sched)
        return extract(traj, sched)

    monkeypatch.setattr(graph, "incidence", counted_incidence)
    # count builds made through observability's own namespace as well
    monkeypatch.setattr(observability, "incidence", counted_incidence, raising=False)
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
