"""Seeded scenario generation for the benchmark workloads.

Every workload is a list of operations.  An operation is one scenario file
run through ``consensuslab run``; it expects either success (exit 0 with
every listed artifact written) or rejection (exit 2, nothing written).
The same seed always yields byte-identical scenario files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("golden_cli", "long_horizon", "noisy_horizon", "observe_window")

GOLDEN_NAMES = (
    "alternating_triangle",
    "disconnected_noise",
    "five_node_reconstruct",
    "isolated_node",
    "k2_constant",
    "robust_noise",
    "signed_triangle",
)

# connectivity verdicts the golden scenarios were designed to produce
GOLDEN_VERDICTS = {
    "alternating_triangle": "connected",
    "five_node_reconstruct": "connected",
    "isolated_node": "not_connected",
}

LONG_T_ENDS = (50.0, 100.0, 200.0, 400.0)
LONG_NODE_COUNTS = (3, 30, 100)
SWEEP_N = 10
SWEEP_T_END = 200.0
HORIZON_SEGMENTS = 4
HORIZON_SEGMENT_LEN = 1.0
HORIZON_SAMPLE_DT = 0.05


@dataclass
class Operation:
    """One scenario file and what a correct run of it looks like."""

    name: str
    path: Path
    expect: str  # "ok" or "reject"
    meta: dict = field(default_factory=dict)  # sweep point; designed verdict


def _write(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _rng(seed, workload):
    tag = WORKLOADS.index(workload)
    return np.random.default_rng([int(seed), tag])


def _spanning_tree(rng, n):
    order = rng.permutation(n)
    return [tuple(sorted((int(order[k]), int(order[rng.integers(0, k)]))))
            for k in range(1, n)]


def periodic_segments(rng, n, count, seg_len, extra_per_segment, w_lo, w_hi, repeat=1):
    """Sparse random segments whose union over one period is connected.

    The edges of a random spanning tree are dealt round-robin to ``count``
    groups; segment k carries group ``k % count`` (so with ``repeat`` > 1
    every tree edge recurs ``repeat`` times per period), plus
    ``extra_per_segment`` random extra edges.
    """
    groups = [[] for _ in range(count)]
    for pos, edge in enumerate(_spanning_tree(rng, n)):
        groups[pos % count].append(edge)
    segments = []
    for k in range(count * repeat):
        edges = {}
        for i, j in groups[k % count]:
            edges[(i, j)] = float(np.round(rng.uniform(w_lo, w_hi), 3))
        for _ in range(extra_per_segment):
            i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
            edges.setdefault((i, j), float(np.round(rng.uniform(w_lo, w_hi), 3)))
        segments.append({
            "t0": k * seg_len,
            "t1": (k + 1) * seg_len,
            "edges": [{"i": i + 1, "j": j + 1, "w": w} for (i, j), w in sorted(edges.items())],
        })
    return {"nodes": n, "periodic": True, "period": count * repeat * seg_len,
            "segments": segments}


def _initial_state(rng, n):
    return [float(np.round(v, 6)) for v in rng.standard_normal(n)]


# -- golden_cli ---------------------------------------------------------------

def _load_golden(golden_dir, name):
    with open(Path(golden_dir) / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _task_index(data, task):
    return [k for k, t in enumerate(data["tasks"]) if t["task"] == task]


def _mutations(rng, golden_dir):
    """The six malformed variants of the goldens; each must exit 2."""

    def pick(names):
        return str(names[rng.integers(0, len(names))])

    def with_task(task):
        return [n for n in GOLDEN_NAMES if _task_index(_load_golden(golden_dir, n), task)]

    out = []

    name = pick(with_task("simulate"))
    data = _load_golden(golden_dir, name)
    data["tasks"][_task_index(data, "simulate")[0]]["t_end"] = -float(rng.integers(1, 100))
    out.append(("negative_t_end", data))

    name = pick(with_task("simulate"))
    data = _load_golden(golden_dir, name)
    data["tasks"][_task_index(data, "simulate")[0]]["sample_dt"] = 0.0
    out.append(("zero_sample_dt", data))

    name = pick(with_task("connectivity"))
    data = _load_golden(golden_dir, name)
    task = data["tasks"][_task_index(data, "connectivity")[0]]
    task["stride"] = repr(float(rng.choice([0.125, 0.25, 0.5])))
    out.append(("string_stride", data))

    name = pick(with_task("connectivity"))
    data = _load_golden(golden_dir, name)
    data["tasks"][_task_index(data, "connectivity")[0]]["delta"] = -float(rng.integers(1, 10)) / 10.0
    out.append(("negative_delta", data))

    name = pick([n for n in GOLDEN_NAMES if "noise" in _load_golden(golden_dir, n)])
    data = _load_golden(golden_dir, name)
    data["noise"]["zeta"] = True
    out.append(("boolean_zeta", data))

    name = pick(GOLDEN_NAMES)
    data = _load_golden(golden_dir, name)
    seg = data["schedule"]["segments"][rng.integers(0, len(data["schedule"]["segments"]))]
    seg["edges"][rng.integers(0, len(seg["edges"]))]["w"] = float("nan")
    out.append(("nan_weight", data))
    return out


def golden_cli(seed, out_dir, golden_dir):
    rng = _rng(seed, "golden_cli")
    ops = []
    for name in GOLDEN_NAMES:
        path = out_dir / f"{name}.json"
        path.write_bytes((Path(golden_dir) / f"{name}.json").read_bytes())
        verdict = {"verdict": GOLDEN_VERDICTS[name]} if name in GOLDEN_VERDICTS else {}
        ops.append(Operation(name, path, "ok", verdict))
    for label, data in _mutations(rng, golden_dir):
        path = out_dir / f"reject_{label}.json"
        _write(path, data)
        ops.append(Operation(f"reject_{label}", path, "reject"))
    return ops


# -- horizon sweeps -----------------------------------------------------------

def _horizon_schedule(rng, n):
    return periodic_segments(rng, n, HORIZON_SEGMENTS, HORIZON_SEGMENT_LEN,
                             extra_per_segment=max(1, n // 10), w_lo=0.5, w_hi=1.5)


def long_horizon(seed, out_dir, golden_dir=None):
    rng = _rng(seed, "long_horizon")
    points = [(SWEEP_N, t) for t in LONG_T_ENDS] + [(n, SWEEP_T_END) for n in LONG_NODE_COUNTS]
    period = HORIZON_SEGMENTS * HORIZON_SEGMENT_LEN
    ops = []
    for n, t_end in points:
        name = f"n{n}_t{int(t_end)}"
        data = {
            "name": name,
            "schedule": _horizon_schedule(rng, n),
            "initial_state": _initial_state(rng, n),
            "tasks": [
                {"task": "simulate", "t_end": t_end, "sample_dt": HORIZON_SAMPLE_DT},
                {"task": "rate", "skip_time": period, "fit_dt": period},
            ],
        }
        path = out_dir / f"{name}.json"
        _write(path, data)
        ops.append(Operation(name, path, "ok", {"n": n, "t_end": t_end, "verdict": "connected"}))
    return ops


def noisy_horizon(seed, out_dir, golden_dir=None):
    rng = _rng(seed, "noisy_horizon")
    ops = []
    for t_end in LONG_T_ENDS:
        name = f"noisy_t{int(t_end)}"
        data = {
            "name": name,
            "schedule": _horizon_schedule(rng, SWEEP_N),
            "initial_state": {"kind": "consensus", "value": 0.0},
            "noise": {"kind": "windowed-random", "zeta": 1.0, "B0": 1.0,
                      "seed": int(rng.integers(0, 2**31))},
            "tasks": [{"task": "robustness", "t_end": t_end,
                       "sample_dt": HORIZON_SAMPLE_DT}],
        }
        path = out_dir / f"{name}.json"
        _write(path, data)
        ops.append(Operation(name, path, "ok", {"n": SWEEP_N, "t_end": t_end}))
    return ops


# -- observe_window -----------------------------------------------------------

OBSERVE_N = 20
OBSERVE_GROUPS = 8
OBSERVE_SEGMENT_LEN = 0.25
OBSERVE_T = 2.0
OBSERVE_DELTA = 0.2


def observe_window(seed, out_dir, golden_dir=None):
    """One N=20 schedule of 16 segments of 0.25 s (period 4).

    Each tree edge sits in segments k and k + 8 with weight >= 1, so every
    window of length T = 2 (eight segments) holds each tree edge for
    exactly 0.25 s: its integral is >= 0.25 > delta = 0.2, and the designed
    connectivity verdict is "connected".
    """
    rng = _rng(seed, "observe_window")
    sched = periodic_segments(rng, OBSERVE_N, OBSERVE_GROUPS, OBSERVE_SEGMENT_LEN,
                              extra_per_segment=2, w_lo=1.0, w_hi=2.0, repeat=2)
    gram_starts = sorted(float(k) / 16.0 for k in rng.choice(129, size=8, replace=False))
    rec_starts = sorted(float(k) / 8.0 for k in rng.choice(65, size=2, replace=False))
    tasks = [
        {"task": "simulate", "t_end": 12.0, "sample_dt": 1.0 / 128.0},
        {"task": "connectivity", "delta": OBSERVE_DELTA, "T": OBSERVE_T, "stride": 0.01},
        {"task": "bounds", "delta": 2.0, "stride": 0.01},
    ]
    tasks += [{"task": "gramian", "start": s, "delta": 4.0} for s in gram_starts]
    tasks += [{"task": "reconstruct", "start": s, "delta": 4.0} for s in rec_starts]
    data = {
        "name": "observe_window",
        "schedule": sched,
        "initial_state": _initial_state(rng, OBSERVE_N),
        "tasks": tasks,
    }
    path = out_dir / "observe_window.json"
    _write(path, data)
    return [Operation("observe_window", path, "ok", {"verdict": "connected"})]


GENERATORS = {
    "golden_cli": golden_cli,
    "long_horizon": long_horizon,
    "noisy_horizon": noisy_horizon,
    "observe_window": observe_window,
}


def generate(workload, seed, out_dir, golden_dir):
    """Write the workload's scenario files under out_dir; return its operations."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, out_dir, golden_dir)
