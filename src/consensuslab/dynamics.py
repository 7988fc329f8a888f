"""Consensus dynamics over weight schedules.

Runs propagate exactly per segment through the cached symmetric
eigendecomposition of the Laplacian.  The noise is piecewise constant, so
its variation-of-constants integral is exact as well: the phi_1 term of
exponential integrators (Hochbruck & Ostermann, Acta Numerica 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "StateVector",
    "Trajectory",
    "NoiseProcess",
    "TransitionMatrix",
    "simulate",
    "transition_matrix",
    "project",
    "average_drift",
    "read_trajectory_csv",
]


@dataclass(frozen=True)
class StateVector:
    """Node states at one instant."""

    time: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.ndim != 1:
            raise ValueError(f"state must be a 1-D vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state entries must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", float(self.time))


@dataclass
class Trajectory:
    """Sampled node states over a strictly increasing time grid."""

    sample_times: np.ndarray
    states: np.ndarray
    schedule_id: str | None = None
    initial_average: float | None = None

    def __post_init__(self):
        t = np.asarray(self.sample_times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("sample_times and states must have matching lengths")
        if t.size == 0:
            raise ValueError("trajectory must hold at least one sample")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("sample_times must be strictly increasing")
        mean0 = float(x[0].mean())
        if self.initial_average is None:
            self.initial_average = mean0
        elif abs(self.initial_average - mean0) > 1e-9 * max(1.0, abs(mean0)):
            raise ValueError("initial_average does not match the first sample")
        self.sample_times = t
        self.states = x

    @property
    def node_count(self):
        return self.states.shape[1]

    def index_at(self, t, tol=1e-9):
        """Index of the sample at time t, or None if t is not on the grid."""
        k = int(np.searchsorted(self.sample_times, t))
        for idx in (k - 1, k, k + 1):
            if 0 <= idx < self.sample_times.size and abs(self.sample_times[idx] - t) <= tol:
                return idx
        return None

    def write_csv(self, path):
        n = self.node_count
        header = "t," + ",".join(f"x{i + 1}" for i in range(n))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for t, row in zip(self.sample_times, self.states):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def read_trajectory_csv(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(sample_times=data[:, 0], states=data[:, 1:])


class NoiseProcess:
    """Deterministic per-node disturbance w(t) with window energy accounting.

    Non-zero kinds are piecewise constant over their breakpoints.  At
    construction every window [s, s + zeta] on the declared grid
    (s = span start + k * zeta) is verified to carry energy
    int w'w dt <= B0; the integrand is piecewise constant so the check is
    exact.
    """

    def __init__(self, kind, node_count, zeta, energy_bound,
                 breakpoints=None, values=None, seed=None):
        self.kind = kind
        self.node_count = int(node_count)
        self.zeta = None if zeta is None else float(zeta)
        self.energy_bound = float(energy_bound)
        self.seed = seed
        if kind == "zero":
            self.breakpoints = None
            self.values = None
            return
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0.0):
            raise ConfigurationError("noise breakpoints must be increasing, length >= 2")
        if v.shape != (b.size - 1, self.node_count):
            raise ConfigurationError(
                f"noise values must have shape ({b.size - 1}, {self.node_count}), got {v.shape}"
            )
        if self.zeta is None or self.zeta <= 0.0:
            raise ConfigurationError("noise needs a positive window length zeta")
        self.breakpoints = b
        self.values = v
        worst = max(self.window_energies(), default=0.0)
        if worst > self.energy_bound * (1.0 + 1e-12):
            raise ConfigurationError(
                f"noise window energy {worst:.6g} exceeds the bound B0 = {self.energy_bound:.6g}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, node_count):
        return cls("zero", node_count, None, 0.0)

    @classmethod
    def table(cls, breakpoints, values, zeta, energy_bound):
        values = np.asarray(values, dtype=float)
        return cls("table", values.shape[1], zeta, energy_bound,
                   breakpoints=breakpoints, values=values)

    @classmethod
    def windowed_random(cls, node_count, zeta, energy_bound, seed, t_end,
                        steps_per_window=4, margin=0.05, t_start=0.0):
        """Seeded piecewise-constant noise with each full zeta-window scaled
        to carry exactly (1 - margin) * B0 of energy."""
        if zeta <= 0.0:
            raise ConfigurationError("zeta must be positive")
        rng = np.random.default_rng(seed)
        n_windows = max(1, math.ceil((t_end - t_start) / zeta))
        step = zeta / steps_per_window
        breaks = t_start + step * np.arange(n_windows * steps_per_window + 1)
        rows = []
        target = energy_bound * (1.0 - margin)
        for _ in range(n_windows):
            block = rng.standard_normal((steps_per_window, node_count))
            energy = float(np.sum(block * block)) * step
            scale = math.sqrt(target / energy) if energy > 0.0 and target > 0.0 else 0.0
            rows.append(block * scale)
        return cls("windowed-random", node_count, zeta, energy_bound,
                   breakpoints=breaks, values=np.vstack(rows), seed=seed)

    # -- evaluation ---------------------------------------------------------

    @property
    def span(self):
        if self.kind == "zero":
            return None
        return (float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def covers(self, t0, t1):
        if self.kind == "zero":
            return True
        tol = 1e-9 * max(1.0, abs(t1))
        return self.breakpoints[0] <= t0 + tol and t1 <= self.breakpoints[-1] + tol

    def values_at(self, t):
        """Noise vector at time t (right-continuous at breakpoints)."""
        if self.kind == "zero":
            return np.zeros(self.node_count)
        if not self.covers(t, t):
            raise ConfigurationError(f"noise is undefined at t = {t}")
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return self.values[min(max(idx, 0), self.values.shape[0] - 1)]

    def breakpoints_between(self, t0, t1):
        if self.kind == "zero":
            return []
        b = self.breakpoints
        return [float(x) for x in b if t0 < x < t1]

    def _energy(self, t0, t1):
        b, v = self.breakpoints, self.values
        total = 0.0
        for k in range(v.shape[0]):
            overlap = min(t1, b[k + 1]) - max(t0, b[k])
            if overlap > 0.0:
                total += overlap * float(v[k] @ v[k])
        return total

    def window_energies(self):
        """Exact energies of the declared zeta-grid windows."""
        if self.kind == "zero":
            return []
        t0, t1 = self.span
        out = []
        s = t0
        while s < t1 - 1e-12 * max(1.0, abs(t1)):
            out.append(self._energy(s, s + self.zeta))
            s += self.zeta
        return out


def _merge_grid(anchors, base, tol):
    # anchors win over nearby base points so boundary times stay exact
    anchors = sorted(set(anchors))
    merged = list(anchors)
    for t in base:
        if all(abs(t - a) > tol for a in anchors):
            merged.append(float(t))
    merged.sort()
    out = [merged[0]]
    for t in merged[1:]:
        if t - out[-1] > tol:
            out.append(t)
    return np.asarray(out)


def _phi1(z):
    """phi_1(z) = (e^z - 1) / z elementwise, with phi_1(0) = 1."""
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)


def simulate(sched, x0, t_end, sample_dt, noise=None):
    """Integrate dx/dt = -L(t) x + w(t) over [x0.time, t_end].

    Parameters
    ----------
    sched : WeightSchedule
    x0 : StateVector or array_like
        Initial state; a bare vector means time 0.
    t_end, sample_dt : float
        Samples are emitted on the sample_dt grid plus every segment
        boundary (the vector field is discontinuous there).
    noise : NoiseProcess, optional
        Defaults to zero.  Each step is split at the noise breakpoints; on a
        sub-piece of length h with constant w the eigen-coordinates
        c = Q'x advance as c <- e^{-lam h} c + h phi_1(-lam h) Q'w, which is
        exact, so the whole run is exact up to rounding.

    Returns
    -------
    Trajectory
    """
    if not isinstance(x0, StateVector):
        x0 = StateVector(0.0, np.asarray(x0, dtype=float))
    n = sched.node_count
    if x0.values.size != n:
        raise ConfigurationError(
            f"initial state has {x0.values.size} entries for a {n}-node schedule"
        )
    if x0.time < 0.0:
        raise ValueError("initial time must be nonnegative")
    if t_end <= x0.time:
        raise ValueError("t_end must exceed the initial time")
    if sample_dt <= 0.0:
        raise ValueError("sample_dt must be positive")
    if noise is None:
        noise = NoiseProcess.zero(n)
    if noise.node_count != n:
        raise ConfigurationError("noise node count does not match the schedule")
    if not noise.covers(x0.time, t_end):
        raise ConfigurationError(
            "noise window grid does not cover the simulation horizon "
            f"[{x0.time}, {t_end}]"
        )

    t0 = x0.time
    n_steps = int(math.floor((t_end - t0) / sample_dt + 1e-9))
    base = t0 + sample_dt * np.arange(n_steps + 1)
    anchors = [t0, t_end] + sched.boundaries_between(t0, t_end)
    grid = _merge_grid(anchors, base, tol=1e-6 * sample_dt)

    zero_noise = noise.kind == "zero"
    if zero_noise and np.ptp(x0.values) == 0.0:
        # consensus states are equilibria of the noiseless dynamics
        states = np.tile(x0.values, (grid.size, 1))
        return Trajectory(grid, states, sched.name, float(x0.values.mean()))

    states = np.empty((grid.size, n))
    states[0] = x0.values
    for step in range(grid.size - 1):
        ta, tb = grid[step], grid[step + 1]
        lam, q = sched.spectrum(sched.segment_index_at((ta + tb) / 2.0))
        c = q.T @ states[step]
        cuts = [ta] + noise.breakpoints_between(ta, tb) + [tb]
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            z = -lam * (u1 - u0)
            c = np.exp(z) * c
            if not zero_noise:
                c += (u1 - u0) * _phi1(z) * (q.T @ noise.values_at((u0 + u1) / 2.0))
        states[step + 1] = q @ c
    return Trajectory(grid, states, sched.name, float(x0.values.mean()))


@dataclass(frozen=True)
class TransitionMatrix:
    """State transition matrix of the raw (-L) or projected system."""

    from_time: float
    to_time: float
    entries: np.ndarray
    system: str


def _disagreement_flow(lam, q, h):
    """(I - J) e^{-Lh} (I - J) = e^{-Lh} - J for L = Q diag(lam) Q', J = 11'/N.

    The eigenvectors are projected before the product, which leaves the
    undamped consensus mode at rounding squared: products of these factors
    stay accurate relative to their own decaying size.  Adding e^{-h} J
    gives the projected flow e^{-(L+J)h}.
    """
    p = q - q.mean(axis=0)
    return (p * np.exp(-lam * h)) @ p.T


def transition_matrix(system, sched, s, t):
    """Phi(t, s) as an ordered product of per-segment matrix exponentials.

    ``system`` selects the flow: "raw" propagates x through -L(t) and
    satisfies Phi(s, s) = I.  "projected" propagates the disagreement
    y = x - mean(x) through -(L(t) + 11'/N) and is composed with the
    mean-removing projector, so Phi(t, s) (I - 11'/N) = Phi(t, s) holds
    exactly for all t >= s and Phi(s, s) is the projector itself: the
    consensus direction is not part of the projected state space.  Both
    flows satisfy the composition law exactly.  The segment factors come
    from the schedule's cached spectrum (see :func:`_disagreement_flow`).
    """
    if system not in ("raw", "projected"):
        raise ValueError(f"system must be 'raw' or 'projected', got {system!r}")
    if t < s:
        raise ValueError("transition matrix requires t >= s")
    n = sched.node_count
    phi = np.eye(n)
    if system == "projected":
        phi -= 1.0 / n
    for ta, tb, k in sched.pieces(s, t):
        lam, q = sched.spectrum(k)
        if system == "projected":
            phi = _disagreement_flow(lam, q, tb - ta) @ phi
        else:
            phi = (q * np.exp(-lam * (tb - ta))) @ q.T @ phi
    return TransitionMatrix(float(s), float(t), phi, system)


def project(x):
    """Disagreement component y = x - mean(x) (idempotent)."""
    x = np.asarray(x, dtype=float)
    return x - x.mean(axis=-1, keepdims=True)


def average_drift(traj):
    """Max deviation of the running state average from its initial value."""
    means = traj.states.mean(axis=1)
    return float(np.abs(means - traj.initial_average).max())
