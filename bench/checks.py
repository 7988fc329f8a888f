"""Correctness checks on the artifacts of one scenario run.

Every check compares with a tolerance against a reference computed here
by a different method than the program's: trajectories by composed
per-piece matrix exponentials (scipy.linalg.expm, noise included through
the augmented-matrix identity), Gramians in closed form per piece.  A
faster or more exact program therefore still passes; only a wrong one
fails.  The inputs come from the scenario file, except two the program
derives from a seed: a seeded-random initial state is read from the first
trajectory row, and windowed-random noise is drawn with the package's own
generator (its window energies are part of what the reference then
integrates, not something it re-derives).
"""

from __future__ import annotations

import bisect
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg


# Tolerances sit orders of magnitude above what the program reaches today
# (about 1e-13 on states, 1e-8 on Gramian eigenvalues, 5e-8 on
# reconstruction) and far below what a wrong result would show.
SAMPLED_ROWS = 16
AVERAGE_RTOL = 1e-9
STATE_RTOL = 1e-8
GRAMIAN_RTOL = 1e-6
SUP_ERROR_RTOL = 1e-6
RECONSTRUCT_TOL = 1e-6
K2_RATE = 2.0


class Model:
    """Schedule, initial state and noise of a scenario, parsed independently."""

    def __init__(self, data, noise_builder=None):
        sched = data["schedule"]
        n = sched["nodes"]
        self.n = n
        self.periodic = bool(sched.get("periodic", False))
        self.starts, self.laplacians = [], []
        for seg in sched["segments"]:
            w = np.zeros((n, n))
            for e in seg.get("edges", []):
                w[e["i"] - 1, e["j"] - 1] = w[e["j"] - 1, e["i"] - 1] = e["w"]
            self.starts.append(float(seg["t0"]))
            self.laplacians.append(np.diag(w.sum(axis=1)) - w)
        self.horizon = float(sched["segments"][-1]["t1"])
        self.x0 = self._initial_state(data.get("initial_state"))
        self.noise_spec = data.get("noise")
        self.noise_builder = noise_builder
        self._props = {}

    def _initial_state(self, spec):
        if isinstance(spec, list):
            return np.asarray(spec, dtype=float)
        if isinstance(spec, dict) and spec.get("kind") == "consensus":
            return np.full(self.n, float(spec.get("value", 0.0)))
        return None

    def segment_at(self, t):
        tau = math.fmod(t, self.horizon) if self.periodic else min(t, self.horizon)
        return max(bisect.bisect_right(self.starts, tau) - 1, 0)

    def boundaries(self, t_end):
        out = []
        k = 0
        while True:
            base = k * self.horizon
            for s in self.starts:
                if base + s > t_end:
                    return out
                out.append(base + s)
            out.append(base + self.horizon)
            if not self.periodic:
                return out
            k += 1

    def noise_table(self, t_end):
        """(breakpoints, values) of the scenario noise, or None."""
        spec = self.noise_spec
        if spec is None or spec.get("kind") == "zero":
            return None
        if spec["kind"] == "table":
            return np.asarray(spec["breakpoints"], float), np.asarray(spec["values"], float)
        noise = self.noise_builder(spec, self.n, t_end)
        return noise.breakpoints, noise.values

    def _propagator(self, k, h):
        key = (k, round(h, 12))
        if key not in self._props:
            n = self.n
            aug = np.zeros((2 * n, 2 * n))
            aug[:n, :n] = -self.laplacians[k]
            aug[:n, n:] = np.eye(n)
            e = scipy.linalg.expm(aug * h)
            # e[:n, :n] = exp(-L h), e[:n, n:] = int_0^h exp(-L u) du
            self._props[key] = (e[:n, :n], e[:n, n:])
        return self._props[key]

    def states_at(self, x0, times, noise=None):
        """Exact states at the sorted ``times`` (starting from x0 at t = 0)."""
        t_end = float(times[-1])
        events = set(self.boundaries(t_end))
        if noise is not None:
            events |= {float(b) for b in noise[0] if 0.0 < b < t_end}
        events = sorted(events)
        out = np.empty((len(times), self.n))
        x = np.asarray(x0, dtype=float)
        t = 0.0
        pos = 0
        for row, target in enumerate(times):
            while pos < len(events) and events[pos] <= t + 1e-12:
                pos += 1
            stops = []
            while pos < len(events) and events[pos] < target - 1e-9:
                stops.append(events[pos])
                pos += 1
            for b in stops + [float(target)]:
                h = b - t
                if h > 0.0:
                    mid = 0.5 * (t + b)
                    e, phi1 = self._propagator(self.segment_at(mid), h)
                    x = e @ x
                    if noise is not None:
                        j = bisect.bisect_right(noise[0], mid) - 1
                        x = x + phi1 @ noise[1][min(max(j, 0), len(noise[1]) - 1)]
                t = max(t, b)
            out[row] = x
        return out

    def pieces(self, s, t):
        cuts = [b for b in self.boundaries(t) if s < b < t]
        edges = [s] + cuts + [t]
        return [(a, b, self.segment_at(0.5 * (a + b))) for a, b in zip(edges[:-1], edges[1:])]

    def gramian_extremes(self, s, delta):
        """Closed-form observability Gramian of the projected system.

        On a piece of length h with M = L + 11'/N = Q diag(lam) Q' the
        integrand Phi' M Phi integrates to Q diag((1 - exp(-2 lam h)) / 2) Q'.
        """
        n = self.n
        shift = np.full((n, n), 1.0 / n)
        w = np.zeros((n, n))
        phi = np.eye(n)
        for a, b, k in self.pieces(s, s + delta):
            lam, q = scipy.linalg.eigh(self.laplacians[k] + shift)
            h = b - a
            qp = q.T @ phi
            w += qp.T @ (((1.0 - np.exp(-2.0 * lam * h)) / 2.0)[:, None] * qp)
            phi = q @ (np.exp(-lam * h)[:, None] * qp)
        eigs = scipy.linalg.eigvalsh((w + w.T) / 2.0)
        return float(eigs[0]), float(eigs[-1])

    def integrated_laplacian(self, s, delta):
        acc = np.zeros((self.n, self.n))
        for a, b, k in self.pieces(s, s + delta):
            acc += (b - a) * self.laplacians[k]
        return acc


ARTIFACTS = {"simulate": {"trajectory.csv"}, "connectivity": {"certificate.json"},
             "bounds": {"bounds.json"}, "gramian": {"gramian.json"},
             "reconstruct": {"edge_signals.csv", "reconstruction.json"},
             "rate": {"rate.json"}, "robustness": {"robustness.json"}}


def _close(value, ref, rtol, scale=None):
    scale = abs(ref) if scale is None else scale
    return math.isfinite(value) and abs(value - ref) <= rtol * max(scale, 1e-300)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_run(data, out_dir, model, expect_verdict=None):
    """Problems found in the artifacts of a successful run (empty: correct)."""
    out_dir = Path(out_dir)
    problems = []
    manifest = _read_json(out_dir / "manifest.json")
    listed = set(manifest.get("artifacts", []))
    expected = set().union(*(ARTIFACTS[t["task"]] for t in data["tasks"]))
    missing = sorted(expected - listed)
    missing += sorted(a for a in listed if not (out_dir / a).is_file())
    if missing:
        return [f"missing artifacts {missing}"]
    # a task that runs more than once overwrites its report: check the last
    tasks = {t["task"]: t for t in data["tasks"]}
    scale = 1.0 if model.x0 is None else max(1.0, float(np.abs(model.x0).max()))
    if "simulate" in tasks:
        problems += _check_trajectory(out_dir, tasks["simulate"], model, scale)
    if "connectivity" in tasks:
        cert = _read_json(out_dir / "certificate.json")
        if expect_verdict is not None and cert["verdict"] != expect_verdict:
            problems.append(f"certificate verdict {cert['verdict']}, designed {expect_verdict}")
        if not cert["windows"]:
            problems.append("certificate lists no windows")
    if "bounds" in tasks:
        problems += _check_bounds(out_dir, tasks["bounds"], model, expect_verdict)
    if "gramian" in tasks:
        problems += _check_gramian(_read_json(out_dir / "gramian.json"), model, tasks["gramian"])
    if "reconstruct" in tasks:
        rep = _read_json(out_dir / "reconstruction.json")
        task = tasks["reconstruct"]
        lo, hi = model.gramian_extremes(task["start"], task["delta"])
        if not _close(rep["lambda_min"], lo, GRAMIAN_RTOL, hi):
            problems.append(f"reconstruction lambda_min {rep['lambda_min']} vs {lo}")
        err = rep.get("error_vs_truth")
        if err is None or not err <= RECONSTRUCT_TOL * scale:
            problems.append(f"reconstruction error_vs_truth {err}")
    if "rate" in tasks:
        rate = _read_json(out_dir / "rate.json")
        if not math.isfinite(rate["alpha"]):
            problems.append("rate alpha is not finite")
        if data.get("name") == "k2_constant" and not _close(rate["alpha"], K2_RATE, 1e-6):
            problems.append(f"k2 rate {rate['alpha']} != {K2_RATE}")
        if expect_verdict == "connected" and not rate["converged"]:
            problems.append("rate fit did not converge on a connected schedule")
    if "robustness" in tasks:
        problems += _check_robustness(out_dir, tasks["robustness"], model)
    return problems


def _sampled_rows(count):
    if count <= SAMPLED_ROWS:
        return np.arange(count)
    return np.unique(np.linspace(0, count - 1, SAMPLED_ROWS).round().astype(int))


def _check_trajectory(out_dir, task, model, scale):
    data = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    t, x = data[:, 0], data[:, 1:]
    problems = []
    if x.shape[1] != model.n or t[0] != 0.0 or abs(t[-1] - task["t_end"]) > 1e-9 * task["t_end"]:
        return [f"trajectory shape {x.shape} or span [{t[0]}, {t[-1]}] is wrong"]
    if np.any(np.diff(t) <= 0.0):
        return ["trajectory times are not increasing"]
    expected_rows = math.floor(task["t_end"] / task["sample_dt"] + 1e-9) + 1
    if t.size < expected_rows:
        problems.append(f"trajectory has {t.size} rows, needs >= {expected_rows}")
    if model.noise_spec is None:
        drift = float(np.abs(x.mean(axis=1) - x[0].mean()).max())
        if drift > AVERAGE_RTOL * scale:
            problems.append(f"average drifts by {drift:.3e}")
    x0 = model.x0 if model.x0 is not None else x[0]
    rows = _sampled_rows(t.size)
    ref = model.states_at(x0, t[rows], model.noise_table(task["t_end"]))
    err = float(np.abs(ref - x[rows]).max())
    if not err <= STATE_RTOL * scale:
        problems.append(f"trajectory differs from the expm reference by {err:.3e}")
    return problems


def _check_gramian(rep, model, task):
    lo, hi = model.gramian_extremes(task["start"], task["delta"])
    if _close(rep["lambda_min"], lo, GRAMIAN_RTOL, hi) and _close(rep["lambda_max"], hi, GRAMIAN_RTOL):
        return []
    return [f"gramian ({rep['lambda_min']}, {rep['lambda_max']}) vs reference ({lo}, {hi})"]


def _check_bounds(out_dir, task, model, expect_verdict):
    rep = _read_json(out_dir / "bounds.json")
    delta = task["delta"]
    a1, a2 = rep["alpha1"], rep["alpha2"]
    problems = []
    if not (math.isfinite(a1) and math.isfinite(a2) and a1 <= a2):
        return [f"bounds alpha1 {a1}, alpha2 {a2}"]
    if expect_verdict == "connected" and not rep["observable"]:
        problems.append("bounds report a designed-observable schedule unobservable")
    # alpha1/alpha2 are extremes over a start grid containing these starts
    stride = task.get("stride", delta / 8.0)
    shift = np.full((model.n, model.n), delta / model.n)
    span = model.horizon if model.periodic else model.horizon - delta
    for s in np.arange(0.0, span, stride)[:: max(1, int(span / stride) // 8)]:
        eigs = scipy.linalg.eigvalsh(model.integrated_laplacian(float(s), delta) + shift)
        tol = 1e-9 * max(1.0, abs(eigs[-1]))
        if a1 > eigs[0] + tol or a2 < eigs[-1] - tol:
            problems.append(f"bounds ({a1}, {a2}) exclude window start {s}: ({eigs[0]}, {eigs[-1]})")
            break
    return problems


def _check_robustness(out_dir, task, model):
    rep = _read_json(out_dir / "robustness.json")
    t = np.asarray(rep["sample_times"], dtype=float)
    errors = np.asarray(rep["errors"], dtype=float)
    sup = rep["sup_error"]
    if t.size != errors.size or t.size == 0 or not math.isfinite(sup):
        return [f"robustness report malformed: sup_error {sup}"]
    noise = model.noise_table(task["t_end"])
    x0 = np.zeros(model.n)
    ref = model.states_at(x0, t, noise)
    ref_err = np.abs(ref - ref.mean(axis=1, keepdims=True)).max(axis=1)
    ref_sup = float(ref_err.max())
    if not _close(sup, ref_sup, SUP_ERROR_RTOL):
        return [f"sup_error {sup} vs reference {ref_sup}"]
    return []
