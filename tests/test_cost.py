"""Cost gates: operation counts, not timings, so that a kernel whose work
grows faster than its input fails here whatever the host's speed.

Each count wraps a function where its callers look it up, as the
benchmark's tracer does: the rows that ``WeightSchedule.pieces`` returns
(and its calls, none of which ``validate`` makes for a ``gramian`` window),
the ``np.linalg.eigh`` calls (one per spectrum cache miss), the rows that
``_csvtext.write_rows`` writes, the ``integrated_weights`` calls and the
``np.searchsorted`` calls that find each segment piece's sample rows, the
argument parsers that ``cli.main`` builds, the calls of the JSON report
writer ``cli._json_text`` (one per value, not one per list item), and the
coverage checks and Gramians that a run with a reconstruct task asks for.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from consensuslab import (
    NoiseProcess,
    WeightSchedule,
    _csvtext,
    check_joint_connectivity,
    cli,
    edge_signals,
    graph,
    observability,
    robustness_report,
    simulate,
    uniform_bounds_check,
)
from consensuslab.observability import _window_nodes
from helpers import reference_write_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def counter(monkeypatch):
    """``counter(owner, name, size)`` wraps ``owner.name`` and returns a
    one-item list holding the sum of ``size(args, result)`` over its calls
    since then (one per call by default)."""

    def wrap(owner, name, size=lambda args, out: 1):
        total = [0]
        inner = getattr(owner, name)

        def counted(*args, **kw):
            out = inner(*args, **kw)
            total[0] += size(args, out)
            return out

        monkeypatch.setattr(owner, name, counted)
        return total

    return wrap


def _unit_segments(count, n=6, seed=0):
    """A non-periodic schedule of ``count`` segments of length 1, each with
    random weights in [0.5, 1.5] on about 60 % of the pairs."""
    rng = np.random.default_rng(seed)
    segments = []
    for k in range(count):
        w = np.triu(rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        segments.append((float(k), float(k + 1), w + w.T))
    return WeightSchedule(segments)


@pytest.mark.parametrize("count", [50, 100, 200, 400])
def test_simulate_and_edge_signals_visit_each_segment_twice(counter, count):
    # linear: one piece per segment in each of the two kernels
    sched = _unit_segments(count)
    rows = counter(WeightSchedule, "pieces", lambda args, out: len(out))
    traj = simulate(sched, np.arange(6.0), float(count), 0.25)
    edge_signals(traj, sched)
    assert rows[0] == 2 * count


def test_piece_row_searches_do_not_grow_with_the_pieces(counter):
    # the edge trace of S segments and a coverage window of m of them find
    # their sample rows in as many searchsorted calls at S = 400 as at S = 50
    def searches(count, m):
        sched = _unit_segments(count)
        traj = simulate(sched, np.arange(6.0), float(count), 0.25)
        calls = counter(np, "searchsorted")
        times = edge_signals(traj, sched).sample_times
        assert len(_window_nodes(times, sched, 0.0, float(m))) == m
        return calls[0]

    assert searches(50, 4) == searches(400, 64)


@pytest.mark.parametrize("count", [50, 100, 200, 400])
def test_simulate_decomposes_each_segment_once(counter, count):
    # a fresh schedule caches no spectrum, so each segment costs one eigh
    sched = _unit_segments(count)
    calls = counter(np.linalg, "eigh")
    simulate(sched, np.arange(6.0), float(count), 0.25)
    assert calls[0] == count


@pytest.mark.parametrize("count", [50, 100, 200, 400])
def test_csv_rows_are_the_samples_and_the_trace_rows(counter, tmp_path, count):
    # 4 S + 1 samples at sample_dt 0.25, and 5 trace rows on each segment
    # piece: its 4 steps with both ends
    sched = _unit_segments(count)
    rows = counter(_csvtext, "write_rows", lambda args, out: len(args[1]))
    traj = simulate(sched, np.arange(6.0), float(count), 0.25)
    traj.write_csv(tmp_path / "trajectory.csv")
    edge_signals(traj, sched).write_csv(tmp_path / "edge_signals.csv")
    assert rows[0] == (4 * count + 1) + 5 * count == 9 * count + 1


@pytest.mark.parametrize("m,rows", [(10, 3910), (160, 38560)])
def test_window_scans_visit_the_pieces_of_every_kink(counter, m, rows):
    # the one quadratic count, held as an exemption: on S unit segments each
    # of the S + 1 - m window starts integrates its m pieces, (S + 1 - m) m
    # rows in S + 1 - m integrated_weights calls (391 and 241 here), while
    # the kinks fit in one block.  One prefix table per schedule would make
    # the rows linear in S.
    sched = _unit_segments(400)
    for scan in (lambda: uniform_bounds_check(sched, float(m)),
                 lambda: check_joint_connectivity(sched, 0.5, float(m))):
        pieces = counter(WeightSchedule, "pieces", lambda args, out: len(out))
        integrals = counter(graph, "integrated_weights")
        scan()
        assert pieces[0] == (401 - m) * m == rows
        assert integrals[0] == 401 - m


def test_validate_checks_a_gramian_window_without_its_pieces(counter, tmp_path):
    # a window of 1e4 periods of 4 segments has 40 000 pieces, which only the run walks
    scenario = tmp_path / "long_window.json"
    scenario.write_text(json.dumps({
        "schedule": {"nodes": 2, "periodic": True, "segments": [
            {"t0": k / 4, "t1": (k + 1) / 4, "edges": [{"i": 1, "j": 2, "w": 1.0}]}
            for k in range(4)]},
        "initial_state": [1.0, -1.0],
        "tasks": [{"task": "gramian", "start": 0.0, "delta": 1e4}]}))
    calls = counter(WeightSchedule, "pieces")
    cli.load_scenario(scenario)
    assert calls[0] == 0


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}


def test_main_builds_one_parser_per_process(tmp_path, capsys):
    # a run, an argparse error, list-tasks and the run again share one parser
    cli._parser.cache_clear()
    scenario = str(SCENARIOS / "robust_noise.json")
    assert cli.main(["run", scenario, "--output-dir", str(tmp_path / "first")]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", scenario, "--no-such-flag"])
    assert exc.value.code == 2
    assert cli.main(["list-tasks"]) == 0
    assert cli.main(["run", scenario, "--output-dir", str(tmp_path / "again")]) == 0
    capsys.readouterr()
    assert cli._parser.cache_info().misses == 1
    assert _tree(tmp_path / "first") == _tree(tmp_path / "again")


def test_json_writer_visits_each_key_not_each_item(counter, tmp_path):
    # a robustness report of 8001 samples: its two float lists are joined in
    # one pass, so the writer is called once per value, not once per item
    sched = WeightSchedule([(0.0, 1.0, np.array([[0.0, 1.0], [1.0, 0.0]]))], periodic=True)
    noise = NoiseProcess.windowed_random(2, 1.0, 1.0, 7, 40.0)
    payload = robustness_report(sched, noise, 40.0, sample_dt=0.005)._asdict()
    assert [len(payload[key]) for key in ("sample_times", "errors")] == [8001, 8001]
    calls = counter(cli, "_json_text")
    cli._write_json(tmp_path / "new.json", payload)
    reference_write_json(tmp_path / "old.json", payload)
    assert calls[0] <= 1 + len(payload)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def test_reconstruct_task_asks_for_its_window_once(counter, tmp_path):
    # validate's coverage check and reconstruct's own, and the gramian task's
    # Gramian and the one reconstruct inverts: the task reads its Gramian and
    # truth row from the reconstruction, not from a second request
    windows = counter(observability, "_window_nodes")
    gramians = counter(observability, "gramian")
    scenario = str(SCENARIOS / "five_node_reconstruct.json")
    assert cli.main(["run", scenario, "--output-dir", str(tmp_path / "out")]) == 0
    assert (windows[0], gramians[0]) == (2, 2)
