"""The package's two number rules, through every library call that reads a
time, a length or a table of numbers.

``graph._number`` takes a time or a length: a finite int or float, positive
where the call asks for it.  ``graph._numbers`` takes a table whose every
entry is such a number.  Each call below reads its argument through one of
them before any arithmetic, so a bool, a numeric string, None, a list, an
int past the float range, NaN and infinity are refused with
ConfigurationError or ValueError: never a TypeError or OverflowError from
the arithmetic, and never a result.
"""

import numpy as np
import pytest

from consensuslab import (
    ConfigurationError,
    NoiseProcess,
    check_joint_connectivity,
    edge_signals,
    fit_exponential_rate,
    gramian,
    integrated_weights,
    reconstruct,
    simulate,
    transition_matrix,
    uniform_bounds_check,
    window_starts,
)
from helpers import alternating_schedule

BAD = {"true": True, "str": "1.5", "none": None, "list": [], "int-401-digits": 10 ** 400,
       "nan": float("nan"), "inf": float("inf")}
NOT_POSITIVE = {"zero": 0, "minus-one": -1}

SCHED = alternating_schedule()  # periodic, 3 nodes: no time is past its horizon
X0 = [1.0, 0.0, -2.0]
TRAJ = simulate(SCHED, X0, 6.0, 0.05)
TRACE = edge_signals(TRAJ, SCHED)


# argument -> (call with the value in its place, whether the rule asks for a
# positive value, whether None is the argument's default and so valid)
ARGUMENTS = {
    "pieces-t0": (lambda v: SCHED.pieces(v, 2.0), False, False),
    "pieces-t1": (lambda v: SCHED.pieces(0.0, v), False, False),
    "segment-index-at-t": (lambda v: SCHED.segment_index_at(v), False, False),
    "window-starts-length": (lambda v: window_starts(SCHED, v), False, False),
    "integrated-weights-s": (lambda v: integrated_weights(SCHED, v, 1.0), False, False),
    "integrated-weights-duration": (lambda v: integrated_weights(SCHED, 0.0, v), False, False),
    "transition-matrix-s": (lambda v: transition_matrix("raw", SCHED, v, 2.0), False, False),
    "transition-matrix-t": (lambda v: transition_matrix("projected", SCHED, 0.0, v), False, False),
    "connectivity-delta": (lambda v: check_joint_connectivity(SCHED, v, 2.0), True, False),
    "connectivity-T": (lambda v: check_joint_connectivity(SCHED, 0.5, v), True, False),
    "bounds-delta-obs": (lambda v: uniform_bounds_check(SCHED, v), True, False),
    "gramian-s": (lambda v: gramian(SCHED, v, 2.0), False, False),
    "gramian-delta": (lambda v: gramian(SCHED, 0.0, v), True, False),
    "reconstruct-s": (lambda v: reconstruct(TRACE, SCHED, v, 2.0), False, False),
    "reconstruct-delta": (lambda v: reconstruct(TRACE, SCHED, 0.0, v), True, False),
    "reconstruct-cond-tol": (lambda v: reconstruct(TRACE, SCHED, 0.0, 2.0, v), True, False),
    "simulate-t-end": (lambda v: simulate(SCHED, X0, v, 0.1), True, False),
    "simulate-sample-dt": (lambda v: simulate(SCHED, X0, 2.0, v), True, False),
    "simulate-x0-entry": (lambda v: simulate(SCHED, [1.0, v, -2.0], 2.0, 0.1), False, False),
    "fit-skip-time": (lambda v: fit_exponential_rate(TRAJ, skip_time=v), False, False),
    "fit-dt": (lambda v: fit_exponential_rate(TRAJ, fit_dt=v), True, True),
    # B0 10 takes any window of these tables whose cells numpy would convert
    "table-breakpoint": (lambda v: NoiseProcess.table([0.0, v, 2.0], [[0.1] * 3] * 2, 1.0, 10.0),
                         False, False),
    "table-value": (lambda v: NoiseProcess.table([0.0, 1.0, 2.0], [[0.1] * 3, [0.0, 0.1, v]],
                                                 1.0, 10.0), False, False),
    "windowed-random-node-count": (lambda v: NoiseProcess.windowed_random(v, 1.0, 1.0, 0, 2.0),
                                   True, False),
    "windowed-random-zeta": (lambda v: NoiseProcess.windowed_random(3, v, 1.0, 0, 2.0),
                             True, False),
    "windowed-random-t-end": (lambda v: NoiseProcess.windowed_random(3, 1.0, 1.0, 0, v),
                              False, False),
}

CASES = [(arg, label, value)
         for arg, (_, positive, none_is_default) in ARGUMENTS.items()
         for label, value in {**BAD, **(NOT_POSITIVE if positive else {})}.items()
         if not (none_is_default and value is None)]


@pytest.mark.parametrize("arg,value", [(arg, value) for arg, _, value in CASES],
                         ids=[f"{arg}-{label}" for arg, label, _ in CASES])
def test_every_number_argument_is_refused_before_any_arithmetic(arg, value):
    with pytest.raises((ConfigurationError, ValueError)):  # not TypeError nor OverflowError
        ARGUMENTS[arg][0](value)


@pytest.mark.parametrize("table", [np.array([[0.1, 0.2, 0.0]]), np.array([[1, 2, 0]])],
                         ids=["float", "int"])
def test_numeric_arrays_are_checked_by_dtype(table, monkeypatch):
    # a numeric array is never walked cell by cell: no cell is asked _is_number
    from consensuslab import graph

    calls = []
    monkeypatch.setattr(graph, "_is_number", lambda v: calls.append(v) or True)
    assert NoiseProcess.table(np.array([0.0, 2.0]), table, 1.0, 10.0).values.dtype == float
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ConfigurationError, match="noise values must be finite numbers, got inf"):
        NoiseProcess.table(np.array([0.0, 2.0]), np.array([[0.1, np.inf, 0.0]]), 1.0, 10.0)
