"""Cost gates: operation counts, not timings, so that a kernel whose work
grows faster than its input fails here whatever the host's speed.

The count is the rows that ``WeightSchedule.pieces`` returns, taken by
wrapping the method where its callers look it up, as the benchmark's
tracer does.
"""

import numpy as np
import pytest

from consensuslab import (
    WeightSchedule,
    check_joint_connectivity,
    edge_signals,
    simulate,
    uniform_bounds_check,
)


@pytest.fixture
def piece_rows(monkeypatch):
    """A one-item list holding the rows that ``pieces`` has returned since
    the last reset."""
    rows = [0]
    pieces = WeightSchedule.pieces

    def counted(self, t0, t1):
        out = pieces(self, t0, t1)
        rows[0] += len(out)
        return out

    monkeypatch.setattr(WeightSchedule, "pieces", counted)
    return rows


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
def test_simulate_and_edge_signals_visit_each_segment_twice(piece_rows, count):
    # linear: one piece per segment in each of the two kernels
    sched = _unit_segments(count)
    traj = simulate(sched, np.arange(6.0), float(count), 0.25)
    edge_signals(traj, sched)
    assert piece_rows[0] == 2 * count


@pytest.mark.parametrize("m,rows", [(10, 3910), (160, 38560)])
def test_window_scans_visit_the_pieces_of_every_kink(piece_rows, m, rows):
    # the one quadratic count, held as an exemption: on S unit segments each
    # of the S + 1 - m window starts integrates its m pieces, (S + 1 - m) m
    # rows, while the kinks fit in one block.  One prefix table per schedule
    # would make it linear in S.
    sched = _unit_segments(400)
    uniform_bounds_check(sched, float(m))
    assert piece_rows[0] == (401 - m) * m == rows
    piece_rows[0] = 0
    check_joint_connectivity(sched, 0.5, float(m))
    assert piece_rows[0] == rows
