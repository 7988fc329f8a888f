"""Consensus dynamics over weight schedules.

Runs propagate exactly per segment through the cached symmetric
eigendecomposition of the Laplacian.  The noise is piecewise constant, so
its variation-of-constants integral is exact as well: the phi_1 term of
exponential integrators (Hochbruck & Ostermann, Acta Numerica 2010).
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .graph import _is_number

__all__ = [
    "Trajectory",
    "NoiseProcess",
    "TransitionMatrix",
    "simulate",
    "transition_matrix",
    "project",
    "average_drift",
    "read_trajectory_csv",
]


class Trajectory:
    """Sampled node states over a strictly increasing time grid (``==`` is identity)."""

    def __init__(self, sample_times, states):
        t = np.asarray(sample_times, dtype=float)
        x = np.asarray(states, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("sample_times and states must have matching lengths")
        if t.size == 0:
            raise ValueError("trajectory must hold at least one sample")
        if x.shape[1] == 0:
            raise ValueError("trajectory must hold at least one node")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0.0):
            raise ValueError("sample_times must be finite and strictly increasing")
        self.sample_times = t
        self.states = x

    @property
    def node_count(self):
        return self.states.shape[1]

    def index_at(self, t):
        """Index of the sample within 1e-9 of time t, or None if t is off the grid."""
        k = int(np.searchsorted(self.sample_times, t))
        for idx in (k - 1, k, k + 1):
            if 0 <= idx < self.sample_times.size and abs(self.sample_times[idx] - t) <= 1e-9:
                return idx
        return None

    def write_csv(self, path):
        _write_csv_rows(path, _trajectory_header(self.node_count), self.sample_times, self.states)


def _trajectory_header(node_count):
    """The header line, without its line ending, of a trajectory CSV."""
    return "t," + ",".join(f"x{i + 1}" for i in range(node_count))


def _write_csv_rows(path, header, times, values):
    """Write ``header`` and one ``t,v1,...,vM`` line per row, each value as
    ``'%.17g' % v`` writes it.

    ``_csvtext.write_rows`` builds the text with numpy a block of rows at a
    time, so the memory held stays under 2 MB whatever the table size, and
    finds the runs of rows whose +0.0 cells it need not format.  ``_csvtext``
    is imported here, on the first write, so ``import consensuslab`` neither
    compiles it nor builds its tables.
    """
    from . import _csvtext

    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        _csvtext.write_rows(fh, times, values)


def read_trajectory_csv(path):
    """The trajectory in a CSV file that ``Trajectory.write_csv`` wrote.  A
    file with no rows, ragged rows, a cell that is not a number, a header
    other than the one written for its row width or times that are not
    finite and strictly increasing raises ConfigurationError."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().removesuffix("\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigurationError(f"{path} is not a table of numbers: {exc}") from None
    if data.shape[0] == 0:
        raise ConfigurationError(f"{path} has no rows under its header")
    expected = _trajectory_header(data.shape[1] - 1)
    if header != expected:
        raise ConfigurationError(
            f"{path} has the header {header!r}, not a trajectory's {expected!r}")
    try:
        return Trajectory(sample_times=data[:, 0], states=data[:, 1:])
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not a trajectory: {exc}") from None


class NoiseProcess:
    """Deterministic piecewise-constant per-node disturbance w(t) with
    window energy accounting.

    Row k of ``values`` holds w on [breakpoints[k], breakpoints[k + 1]).
    At construction every window [s, s + zeta] on the declared grid
    (s = breakpoints[0] + k * zeta) is verified to carry energy
    int w'w dt <= B0; the integrand is piecewise constant so the check is
    exact.
    """

    def __init__(self, breakpoints, values, zeta, energy_bound):
        v = np.asarray(values, dtype=float)
        if v.ndim != 2:
            raise ConfigurationError(
                f"noise values must be a table of rows, one value per node; got shape {v.shape}"
            )
        self.node_count = v.shape[1]
        b = np.asarray(breakpoints, dtype=float)
        if b.ndim != 1 or b.size < 2 or not np.all(np.isfinite(b)) or np.any(np.diff(b) <= 0.0):
            raise ConfigurationError("noise breakpoints must be finite and increasing, length >= 2")
        if v.shape != (b.size - 1, self.node_count):
            raise ConfigurationError(
                f"noise values must have shape ({b.size - 1}, {self.node_count}), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("noise values must be finite")
        self.zeta, self.energy_bound = _window_and_bound(zeta, energy_bound)
        self.breakpoints = b
        self.values = v
        worst = max(self.window_energies(), default=0.0)
        if worst > self.energy_bound * (1.0 + 1e-12):
            raise ConfigurationError(
                f"noise window energy {worst:.6g} exceeds the bound B0 = {self.energy_bound:.6g}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def table(cls, breakpoints, values, zeta, energy_bound):
        return cls(breakpoints, values, zeta, energy_bound)

    @classmethod
    def windowed_random(cls, node_count, zeta, energy_bound, seed, t_end,
                        steps_per_window=4, margin=0.05):
        """Seeded noise from t = 0 over whole zeta-windows reaching t_end,
        each scaled to carry exactly (1 - margin) * B0 of energy."""
        zeta, energy_bound = _window_and_bound(zeta, energy_bound)
        if not _is_number(t_end):
            raise ConfigurationError(f"t_end must be finite, got {t_end!r}")
        if not (_is_number(margin) and 0.0 <= margin < 1.0):
            raise ConfigurationError(f"'margin' must lie in [0, 1), got {margin!r}")
        if isinstance(steps_per_window, bool) or not (
                isinstance(steps_per_window, (int, np.integer)) and steps_per_window >= 1):
            raise ConfigurationError(
                f"'steps_per_window' must be a positive integer, got {steps_per_window!r}")
        rng = np.random.default_rng(seed)
        n_windows = max(1, math.ceil(_step_count(t_end, zeta)))
        step = zeta / steps_per_window
        breaks = step * np.arange(n_windows * steps_per_window + 1)
        # one draw for all windows: the same numbers, and window sums, as a draw per window
        blocks = rng.standard_normal((n_windows, steps_per_window, node_count))
        energies = np.sum(blocks * blocks, axis=(1, 2)) * step
        target = energy_bound * (1.0 - margin)
        scales = np.sqrt(np.divide(target, energies, out=np.zeros(n_windows),
                                   where=(energies > 0.0) & (target > 0.0)))
        values = (blocks * scales[:, None, None]).reshape(breaks.size - 1, node_count)
        return cls(breaks, values, zeta, energy_bound)

    # -- evaluation ---------------------------------------------------------

    def covers(self, t0, t1):
        tol = 1e-9 * max(1.0, abs(t1))
        return self.breakpoints[0] <= t0 + tol and t1 <= self.breakpoints[-1] + tol

    def window_energies(self):
        """Exact energies of the declared zeta-grid windows.

        The window edges and the breakpoints cut the span into elementary
        intervals, each inside one window and one constant row, so every
        window energy is a short sum of length * |w|^2 terms.
        """
        b, v = self.breakpoints, self.values
        t0, t1 = float(b[0]), float(b[-1])
        # starts on the declared grid t0 + k * zeta, the grid windowed_random
        # draws its windows on; window k runs to where window k + 1 begins
        count = math.ceil(_step_count(t1 - t0, self.zeta)) + 2
        starts = t0 + self.zeta * np.arange(count + 1)
        starts = starts[starts < t1 - 1e-12 * max(1.0, abs(t1))]
        if starts.size == 0:
            return []
        end = starts[-1] + self.zeta
        cuts = _sorted_distinct(np.concatenate((b, starts, [end])))
        cuts = cuts[cuts <= end]
        # |w|^2 of each row, and zero past the last breakpoint
        row_energy = np.append(np.einsum("ij,ij->i", v, v), 0.0)
        pieces = np.diff(cuts) * row_energy[np.searchsorted(b, cuts[:-1], side="right") - 1]
        return np.add.reduceat(pieces, np.searchsorted(cuts, starts)).tolist()


def _window_and_bound(zeta, energy_bound):
    """The noise window length zeta and energy bound B0 as floats; refused
    unless zeta is a positive and B0 a nonnegative finite number."""
    if not (_is_number(zeta) and zeta > 0.0):
        raise ConfigurationError(f"noise needs a positive, finite window length zeta, got {zeta!r}")
    if not (_is_number(energy_bound) and energy_bound >= 0.0):
        raise ConfigurationError(
            f"noise energy bound B0 must be finite and nonnegative, got {energy_bound!r}")
    return float(zeta), float(energy_bound)


def _step_count(length, step):
    """length / step, refused where a tiny step overflows it to inf, or makes
    it 2**53 or more, where a float no longer counts steps exactly."""
    count = length / step
    if not math.isfinite(count):
        raise ConfigurationError(f"{length} / {step} is not a finite count of steps")
    if count >= 2.0 ** 53:
        raise ConfigurationError(f"{length} / {step} is {count:.3g} steps, 2**53 or more")
    return count


def _sorted_distinct(values):
    """``np.unique`` of finite floats, by its own sort and neighbour test,
    without the numpy.ma import (about 15 ms) its first call makes."""
    v = np.sort(np.asarray(values, dtype=float))
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _merge_grid(anchors, base, tol):
    """Sorted union of anchors and base points, with no two within tol.

    Anchors win over base points within tol of them, so boundary times stay
    exact; among points still within tol of the last kept one, the earlier
    stays.
    """
    anchors = _sorted_distinct(anchors)
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


def _run_pieces(sched, t0, t1):
    """The schedule's pieces of [t0, t1], stretched to hold every sample of a
    run from t0 to t1: a window shorter than the tolerance of ``pieces`` is
    one piece, and a last piece that stops short of t1 (at a non-periodic
    horizon, or before a sliver) is carried to t1."""
    pieces = sched.pieces(t0, t1)
    if not pieces:
        return [(float(t0), float(t1), sched.segment_index_at(t0))]
    if pieces[-1][1] < t1:
        ta, _, k = pieces[-1]
        pieces[-1] = (ta, float(t1), k)
    return pieces


def _sample_grid(sched, t_end, sample_dt):
    """Sample times of a run to t_end, and the pieces of :func:`_run_pieces`
    that hold them: the multiples of sample_dt merged with 0, t_end and
    every segment boundary within 1e-6 * sample_dt."""
    n_steps = int(math.floor(_step_count(t_end, sample_dt) + 1e-9))
    base = sample_dt * np.arange(n_steps + 1)
    pieces = _run_pieces(sched, 0.0, t_end)
    anchors = [0.0, t_end] + [tb for _, tb, _ in pieces[:-1]]
    return _merge_grid(anchors, base, tol=1e-6 * sample_dt), pieces


def _phi1(z):
    """phi_1(z) = (e^z - 1) / z elementwise, with phi_1(0) = 1."""
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises below, once
def simulate(sched, x0, t_end, sample_dt, noise=None):
    """Integrate dx/dt = -L(t) x + w(t) over [0, t_end].

    Parameters
    ----------
    sched : WeightSchedule
    x0 : array_like
        Initial state x(0), one finite entry per node.
    t_end, sample_dt : float
        Samples are emitted on the sample_dt grid plus every segment
        boundary (the vector field is discontinuous there).
    noise : NoiseProcess, optional
        None means no noise.  Each segment piece is split at the noise
        breakpoints; on a sub-piece [u0, u1] with constant w the
        eigen-coordinates c = Q'x at every sample time t in (u0, u1] are
        c(t) = e^{-lam tau} c(u0) + tau phi_1(-lam tau) Q'w, tau = t - u0.
        This is exact, so the whole run is exact up to rounding, and its
        cost is linear in the number of samples, segments and noise
        breakpoints.

    The run takes three passes.  A loop over the sub-pieces carries only
    c from each sub-piece's start to its end (and x = Qc to the next
    piece).  One elementwise pass then writes the c(t) of every sample,
    in blocks of rows, straight into the state table, and one matrix
    product per sub-piece turns its rows into x(t) = Q c(t).  A state
    that overflows raises ValueError.

    Returns
    -------
    Trajectory
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"state must be a 1-D vector, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("state entries must be finite")
    n = sched.node_count
    if x0.size != n:
        raise ConfigurationError(
            f"initial state has {x0.size} entries for a {n}-node schedule"
        )
    for name, v in (("t_end", t_end), ("sample_dt", sample_dt)):
        if not (_is_number(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if noise is not None:
        if noise.node_count != n:
            raise ConfigurationError("noise node count does not match the schedule")
        if not noise.covers(0.0, t_end):
            raise ConfigurationError(
                "noise window grid does not cover the simulation horizon "
                f"[0.0, {t_end}]"
            )

    grid, pieces = _sample_grid(sched, t_end, sample_dt)
    if noise is None and np.ptp(x0) == 0.0:
        # consensus states are equilibria of the noiseless dynamics
        return Trajectory(grid, np.tile(x0, (grid.size, 1)))

    states = np.empty((grid.size, n))
    states[0] = x0
    spans, coords, drives = _carry(sched, pieces, grid, x0, noise)
    _fill_coordinates(sched, states, grid, spans, coords, drives)
    for a, b, k, _ in spans:
        states[a:b] = states[a:b] @ sched.spectrum(k)[1].T
    if not np.isfinite(states).all():
        row = np.isfinite(states).all(axis=1).argmin()
        raise ValueError(f"the state overflows: not finite from t = {grid[row]} on")
    return Trajectory(grid, states)


def _carry(sched, pieces, grid, x, noise):
    """Carry the eigen-coordinates through every sub-piece of the run.

    Returns the sub-pieces that hold samples, as (first row, end row,
    segment index, start time), with their start coordinates c and, under
    noise, their drives Q'w (else None for the drives).  The coordinates at
    a sub-piece end take the same operations as a sample there would.
    """
    spans, coords = [], []
    drives = None if noise is None else []
    steps = {}  # e^{-lam h} and h phi_1(-lam h) by (segment index, h)
    # the sample rows in (u0, u1] of a sub-piece are [row of u0, row of u1);
    # a piece starts where the one before ended, so the gap pieces() leaves
    # around a skipped sliver of a segment holds no unwritten row
    end_rows = np.searchsorted(grid, [tb for _, tb, _ in pieces], side="right").tolist()
    start_rows = [1] + end_rows[:-1]
    breaks = np.empty(0) if noise is None else noise.breakpoints
    # breakpoints strictly inside each piece, and the noise row at its start
    first = np.searchsorted(breaks, [ta for ta, _, _ in pieces], side="right").tolist()
    last = np.searchsorted(breaks, [tb for _, tb, _ in pieces], side="left").tolist()
    break_rows = np.searchsorted(grid, breaks, side="right").tolist()
    breaks = breaks.tolist()
    for p, (ta, tb, k) in enumerate(pieces):
        lam, q = sched.spectrum(k)
        c = q.T @ x
        cuts = [ta, *breaks[first[p]:last[p]], tb]
        bounds = [start_rows[p], *break_rows[first[p]:last[p]], end_rows[p]]
        for i in range(len(cuts) - 1):
            u0, h = cuts[i], cuts[i + 1] - cuts[i]
            if noise is not None:
                qw = q.T @ noise.values[min(max(first[p] - 1 + i, 0), len(noise.values) - 1)]
            if bounds[i] < bounds[i + 1]:
                spans.append((bounds[i], bounds[i + 1], k, u0))
                coords.append(c)
                if noise is not None:
                    drives.append(qw)
            step = steps.get((k, h))
            if step is None:
                z = -lam * h
                step = steps[(k, h)] = (np.exp(z), None if noise is None else h * _phi1(z))
            c = step[0] * c
            if noise is not None:
                c += step[1] * qw
        x = q @ c
    return spans, coords, drives


def _fill_coordinates(sched, states, grid, spans, coords, drives):
    """Write c(t) of every sample row of the spans into ``states``.

    The spans cover rows 1, 2, ... in order.  Rows go in blocks of about
    2**16 entries; each row takes its sub-piece's lam, start coordinates
    and drive by a gather, and every entry takes the operations of
    :func:`_carry`'s end coordinates.
    """
    counts = [b - a for a, b, _, _ in spans]
    owner = np.repeat(np.arange(len(spans)), counts)  # sub-piece of each row
    tau = grid[1:] - np.repeat([u0 for _, _, _, u0 in spans], counts)
    lams = np.array([sched.spectrum(k)[0] for _, _, k, _ in spans])
    coords = np.array(coords)
    if drives is not None:
        drives = np.array(drives)
    step = max(1, (1 << 16) // states.shape[1])
    for r in range(0, owner.size, step):
        own, t = owner[r:r + step], tau[r:r + step, None]
        z = lams[own]
        np.negative(z, out=z)
        z *= t
        out = states[r + 1:r + 1 + own.size]
        np.exp(z, out=out)
        out *= coords[own]
        if drives is not None:
            out += t * _phi1(z) * drives[own]


class TransitionMatrix(NamedTuple):
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
    return float(np.abs(means - traj.states[0].mean()).max())
