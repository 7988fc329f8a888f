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
    initial_average: float | None = None

    def __post_init__(self):
        t = np.asarray(self.sample_times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("sample_times and states must have matching lengths")
        if t.size == 0:
            raise ValueError("trajectory must hold at least one sample")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0.0):
            raise ValueError("sample_times must be finite and strictly increasing")
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
        _write_csv_rows(path, header, self.sample_times, self.states)


def _write_csv_rows(path, header, times, values):
    """Write ``header`` and one ``t,v1,...,vM`` line per row, 17 digits each.

    Each line is a single %-format call on a ``%.17g`` template, which
    gives the same text as formatting every value with ``f"{v:.17g}"``.
    Rows are formatted one at a time, so no copy of the array is made.
    """
    line = ",".join(["%.17g"] * (values.shape[1] + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(line % (t, *row.tolist()) for t, row in zip(times.tolist(), values))


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
        if b.ndim != 1 or b.size < 2 or not np.all(np.isfinite(b)) or np.any(np.diff(b) <= 0.0):
            raise ConfigurationError("noise breakpoints must be finite and increasing, length >= 2")
        if v.shape != (b.size - 1, self.node_count):
            raise ConfigurationError(
                f"noise values must have shape ({b.size - 1}, {self.node_count}), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("noise values must be finite")
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
        if values.ndim != 2:
            raise ConfigurationError(
                f"noise values must be a table of rows, one value per node; got shape {values.shape}"
            )
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

    def window_energies(self):
        """Exact energies of the declared zeta-grid windows.

        The window edges and the breakpoints cut the span into elementary
        intervals, each inside one window and one constant row, so every
        window energy is a short sum of length * |w|^2 terms.
        """
        if self.kind == "zero":
            return []
        b, v = self.breakpoints, self.values
        t0, t1 = self.span
        # starts by repeated addition s <- s + zeta, so window k ends exactly
        # where window k + 1 begins
        count = math.ceil((t1 - t0) / self.zeta) + 2
        starts = np.cumsum(np.concatenate(([t0], np.full(count, self.zeta))))
        starts = starts[starts < t1 - 1e-12 * max(1.0, abs(t1))]
        if starts.size == 0:
            return []
        end = starts[-1] + self.zeta
        cuts = np.unique(np.concatenate((b, starts, [end])))
        cuts = cuts[cuts <= end]
        # |w|^2 of each row, and zero past the last breakpoint
        row_energy = np.append(np.einsum("ij,ij->i", v, v), 0.0)
        pieces = np.diff(cuts) * row_energy[np.searchsorted(b, cuts[:-1], side="right") - 1]
        return np.add.reduceat(pieces, np.searchsorted(cuts, starts)).tolist()


def _merge_grid(anchors, base, tol):
    """Sorted union of anchors and base points, with no two within tol.

    Anchors win over base points within tol of them, so boundary times stay
    exact; among points still within tol of the last kept one, the earlier
    stays.
    """
    anchors = np.unique(np.asarray(anchors, dtype=float))
    k = np.searchsorted(anchors, base)
    near = (np.abs(base - anchors[np.maximum(k - 1, 0)]) <= tol) | (
        np.abs(base - anchors[np.minimum(k, anchors.size - 1)]) <= tol
    )
    merged = np.sort(np.concatenate((anchors, base[~near])))
    keep = np.ones(merged.size, dtype=bool)
    # a point more than tol after its neighbour is always kept; only runs of
    # close points need the walk back to the last kept one
    for i in np.flatnonzero(np.diff(merged) <= tol) + 1:
        j = i - 1
        while not keep[j]:
            j -= 1
        keep[i] = merged[i] - merged[j] > tol
    return merged[keep]


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
        Defaults to zero.  Each segment piece is split at the noise
        breakpoints; on a sub-piece [u0, u1] with constant w the
        eigen-coordinates c = Q'x at every sample time t in (u0, u1] are
        c(t) = e^{-lam tau} c(u0) + tau phi_1(-lam tau) Q'w, tau = t - u0,
        one matrix product for all of them.  This is exact, so the whole
        run is exact up to rounding, and its cost is linear in the number
        of samples, segments and noise breakpoints.

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
    pieces = sched.pieces(t0, t_end)
    anchors = [t0, t_end] + [tb for _, tb, _ in pieces[:-1]]
    grid = _merge_grid(anchors, base, tol=1e-6 * sample_dt)
    if pieces and pieces[-1][1] < grid[-1]:
        # a non-periodic schedule ends at most its horizon tolerance before
        # t_end; its last segment carries the run to the final sample
        ta, _, k = pieces[-1]
        pieces[-1] = (ta, float(grid[-1]), k)

    zero_noise = noise.kind == "zero"
    if zero_noise and np.ptp(x0.values) == 0.0:
        # consensus states are equilibria of the noiseless dynamics
        states = np.tile(x0.values, (grid.size, 1))
        return Trajectory(grid, states, float(x0.values.mean()))

    states = np.empty((grid.size, n))
    states[0] = x0.values
    if not zero_noise:
        breaks, rows = noise.breakpoints, noise.values
        # breakpoints strictly inside each piece, and the noise row at its start
        first = np.searchsorted(breaks, [ta for ta, _, _ in pieces], side="right")
        last = np.searchsorted(breaks, [tb for _, tb, _ in pieces], side="left")
    x = x0.values
    for p, (ta, tb, k) in enumerate(pieces):
        lam, q = sched.spectrum(k)
        c = q.T @ x
        cuts = [ta, tb] if zero_noise else [ta, *breaks[first[p]:last[p]], tb]
        bounds = np.searchsorted(grid, cuts, side="right")
        for i, (u0, u1) in enumerate(zip(cuts[:-1], cuts[1:])):
            # samples in (u0, u1] in one product, then the state at u1
            tau = np.append(grid[bounds[i]:bounds[i + 1]] - u0, u1 - u0)
            z = -lam * tau[:, None]
            coords = np.exp(z) * c
            if not zero_noise:
                w = rows[min(max(first[p] - 1 + i, 0), rows.shape[0] - 1)]
                coords += tau[:, None] * _phi1(z) * (q.T @ w)
            states[bounds[i]:bounds[i + 1]] = coords[:-1] @ q.T
            c = coords[-1]
        x = q @ c
    return Trajectory(grid, states, float(x0.values.mean()))


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
