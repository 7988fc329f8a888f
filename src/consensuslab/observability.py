"""Observability of the disagreement dynamics.

Gramians of the projected system (drift -(L + J), J = 11'/N, output factor
D with D D' = L + J), the exact integral bounds that certify uniform
complete observability, and reconstruction of shifted node states from edge
signals.  Since L J = J L = 0, flows and Gramians are closed forms in each
segment's cached Laplacian eigenbasis.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, UnobservableWindowError
from .graph import _window_integrals, edge_pairs, negative_link_assumption_holds, window_starts
from .dynamics import _disagreement_flow, _run_pieces, _write_csv_rows

__all__ = [
    "EdgeSignalTrace",
    "ObservabilityGramian",
    "UniformBounds",
    "edge_signals",
    "gramian",
    "uniform_bounds_check",
    "reconstruct",
]

# uniform_bounds_check calls a schedule observable when alpha1 exceeds this
POSITIVE_TOL = 1e-10


class EdgeSignalTrace:
    """Edge signals z(t) = H(t)' x(t), each sqrt(|a_ij|) (x_j - x_i) as H is
    the incidence of |a_ij|, in the fixed lexicographic edge order.

    z jumps when the graph switches, so traces produced by
    :func:`edge_signals` carry two rows at every interior segment boundary:
    the left limit first, then the right limit.  Sample times are therefore
    non-decreasing rather than strictly increasing.  ``==`` is identity.
    """

    def __init__(self, sample_times, signals, edge_order):
        t = np.asarray(sample_times, dtype=float)
        z = np.asarray(signals, dtype=float)
        if t.ndim != 1 or z.ndim != 2 or z.shape[0] != t.size:
            raise ValueError("sample_times and signals must have matching lengths")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0.0):
            raise ValueError("sample_times must be finite and non-decreasing")
        if z.shape[1] != len(edge_order):
            raise ValueError("signal width must match the edge order")
        self.sample_times = t
        self.signals = z
        self.edge_order = tuple(tuple(p) for p in edge_order)

    def write_csv(self, path):
        header = "t," + ",".join(f"z_{i + 1}_{j + 1}" for i, j in self.edge_order)
        _write_csv_rows(path, header, self.sample_times, self.signals)


def _grid_tolerance(times):
    gaps = np.diff(times)
    positive = gaps[gaps > 0.0]
    return 1e-6 * float(positive.min()) if positive.size else 1e-12


def _piece_rows(times, pieces, tol):
    """Row ranges [lo, hi) of the sorted times within tol of each piece
    (ta, tb, k), as the lists lo and hi: two searches for the whole list."""
    lo = np.searchsorted(times, [ta - tol for ta, _, _ in pieces], side="left").tolist()
    hi = np.searchsorted(times, [tb + tol for _, tb, _ in pieces], side="right").tolist()
    return lo, hi


def _trace_rows(sched, times):
    """Rows (lo, hi, k) of the run sampled at ``times`` within the grid
    tolerance of each of its pieces, and the edge-signal trace's times."""
    pieces = _run_pieces(sched, times[0], times[-1])
    ranges = [(lo, hi, k) for lo, hi, (_, _, k)
              in zip(*_piece_rows(times, pieces, _grid_tolerance(times)), pieces)]
    return ranges, np.concatenate([times[lo:hi] for lo, hi, _ in ranges])


def edge_signals(traj, sched):
    """Extract z(t_k) = H' x(t_k), H the incidence of |a_ij|, from a trajectory.

    Interior segment boundaries produce two rows, one per one-sided limit of H.
    A finite trajectory whose signals overflow raises ValueError; inf and
    nan states pass through to the signals.
    """
    if traj.node_count != sched.node_count:
        raise ConfigurationError("trajectory and schedule node counts differ")
    pairs = tuple(edge_pairs(sched.node_count))
    ranges, trace_times = _trace_rows(sched, traj.sample_times)
    # one table, each piece's product written into its rows
    z = np.empty((sum(hi - lo for lo, hi, _ in ranges), len(pairs)))
    r = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, k in ranges:
            np.matmul(traj.states[lo:hi], sched.incidence(k), out=z[r:r + hi - lo])
            r += hi - lo
    if not np.isfinite(z).all() and np.isfinite(traj.states).all():
        row = np.isfinite(z).all(axis=1).argmin()
        raise ValueError(f"the edge signals overflow: not finite at t = {trace_times[row]}")
    return EdgeSignalTrace(trace_times, z, pairs)


class ObservabilityGramian(NamedTuple):
    """W(s, s+delta) = int Phi' D D' Phi dt for the projected system."""

    start: float
    delta: float
    entries: np.ndarray
    lambda_min: float
    lambda_max: float


def _projected_flow(lam, q, h):
    """e^{-(L+J)h} = (e^{-Lh} - J) + e^{-h} J for L = Q diag(lam) Q'."""
    return _disagreement_flow(lam, q, h) + np.exp(-h) / q.shape[0]


def _gramian_increment(lam, q, h):
    """int_0^h e^{-(L+J)t} (L+J) e^{-(L+J)t} dt = (I - e^{-2(L+J)h}) / 2.

    The symmetric case of Van Loan (IEEE TAC 1978) with the output D D'
    equal to the drift, so the Kronecker kernel collapses to a diagonal.
    """
    return (q * (-0.5 * np.expm1(-2.0 * lam * h))) @ q.T - 0.5 * np.expm1(-2.0 * h) / q.shape[0]


def _piece_factors(sched, k, h):
    """Centred basis Q - mean(Q), Gramian increment and projected flow of a
    piece of segment k that lasts h.

    A piece whose h equals the segment's own duration, to the bit, is built
    once and cached read-only on the schedule, one entry per segment like
    its spectrum.  A partial piece, or a full one whose unwrapped ends put
    h an ulp off, is built afresh from the same expressions.
    """
    seg = sched.segments[k]
    full = h == seg.t_end - seg.t_start
    if full and k in sched._full_pieces:
        return sched._full_pieces[k]
    lam, q = sched.spectrum(k)
    factors = (q - q.mean(axis=0), _gramian_increment(lam, q, h), _projected_flow(lam, q, h))
    if full:
        for a in factors:
            a.setflags(write=False)
        sched._full_pieces[k] = factors
    return factors


def gramian(sched, s, delta):
    """Observability Gramian of the projected system over [s, s + delta].

    Exact up to rounding: each constant piece adds Phi' G Phi, where Phi is
    the projected flow from s to the piece start and G the closed-form
    piece Gramian of :func:`_gramian_increment`; each piece's G and flow
    come from :func:`_piece_factors`.  Refuses a schedule that violates the
    Negative-Link Assumption, whose L + J has no real output factor D.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    negative_link_assumption_holds(sched).require()
    n = sched.node_count
    w = np.zeros((n, n))
    phi = np.eye(n)
    for ta, tb, k in sched.pieces(s, s + delta):
        _, increment, flow = _piece_factors(sched, k, tb - ta)
        w += phi.T @ increment @ phi
        phi = flow @ phi
    w = (w + w.T) / 2.0
    eigs = np.linalg.eigvalsh(w)
    return ObservabilityGramian(
        start=float(s),
        delta=float(delta),
        entries=w,
        lambda_min=float(eigs[0]),
        lambda_max=float(eigs[-1]),
    )


class UniformBounds(NamedTuple):
    """Extremes alpha1/alpha2 of the integral of L + 11'/N over windows, and
    the Gramian floor and decay rate they certify (None when unobservable or
    when the Negative-Link Assumption fails)."""

    alpha1: float
    alpha2: float
    worst_window_start: float
    observable: bool
    gramian_floor: float | None
    certified_rate: float | None


def uniform_bounds_check(sched, delta_obs):
    """Extremal eigenvalues of int_s^{s+delta} (L + 11'/N) dt over starts s.

    The integral is exact segment-wise and affine in s between the kinks
    of :func:`consensuslab.graph.window_starts`, where its smallest
    eigenvalue is concave and its largest convex: alpha1 and alpha2 over
    the kinks alone are the extremes over all s >= 0 (the first kink
    attaining alpha1 is the worst window).  The verdict flag is
    alpha1 > POSITIVE_TOL.  Each block of kink integrals w from
    :func:`consensuslab.graph._window_integrals` gives delta/N - w plus the
    row sums of w on the diagonal, with one eigvalsh call per block.

    With Lambda = max(1, max_k lambda_max(L_k)) from the cached spectra,
    every window Gramian of :func:`gramian` has lambda_min at least
    gramian_floor f = alpha1 / (1 + delta Lambda / sqrt 2)^2: L + J = D D'
    makes the flow an output injection of xi' = 0, whose Gramian is the
    integral above, and Cauchy-Schwarz bounds the injected part.  As
    W = (I - Phi' Phi) / 2, each window scales the norm of the disagreement
    by at most sqrt(1 - 2f): certified_rate is -log(1 - 2f) / (2 delta).
    alpha1 <= delta Lambda keeps f <= sqrt(2) / 4, so 1 - 2f > 0.
    """
    if not delta_obs > 0.0:
        raise ValueError("delta_obs must be positive")
    n = sched.node_count
    shift = delta_obs * (np.ones((n, n)) / n)
    starts = window_starts(sched, delta_obs)
    alpha1, alpha2, worst, lo = np.inf, -np.inf, 0.0, 0
    for w in _window_integrals(sched, starts, delta_obs):
        lap = shift - w
        lap.reshape(len(w), -1)[:, ::n + 1] += w.sum(axis=2)  # the diagonals
        eigs = np.linalg.eigvalsh(lap)
        r = int(np.argmin(eigs[:, 0]))
        if eigs[r, 0] < alpha1:
            alpha1 = float(eigs[r, 0])
            worst = float(starts[lo + r])
        alpha2 = max(alpha2, float(eigs[:, -1].max()))
        lo += len(w)
    observable = bool(alpha1 > POSITIVE_TOL)
    floor = rate = None
    if observable and negative_link_assumption_holds(sched):
        lam = max(1.0, *(float(sched.spectrum(k)[0][-1]) for k in range(len(sched.segments))))
        floor = float(alpha1 / (1.0 + delta_obs * lam / np.sqrt(2.0)) ** 2)
        rate = float(-np.log1p(-2.0 * floor)) / (2.0 * delta_obs)
    return UniformBounds(
        alpha1=alpha1,
        alpha2=alpha2,
        worst_window_start=worst,
        observable=observable,
        gramian_floor=floor,
        certified_rate=rate,
    )


def _simpson(y, x):
    """Composite Simpson integral of samples y (axis 0) at increasing x.

    Each pair of consecutive intervals gets the quadratic rule for
    irregular spacing.  An even sample count leaves one interval over,
    integrated by Cartwright's last-interval correction (Cartwright 2017,
    J. Math. Sci. Math. Educ. 12(2)); two samples fall back to the
    trapezoid.
    """
    h = np.diff(x)
    m = h.size - h.size % 2  # intervals covered by full Simpson panels
    h0, h1 = h[0:m:2], h[1:m:2]
    weights = np.zeros(h.size + 1)
    weights[0:m:2] += (h0 + h1) / 6.0 * (2.0 - h1 / h0)
    weights[1:m:2] += (h0 + h1) ** 3 / (6.0 * h0 * h1)
    weights[2:m + 1:2] += (h0 + h1) / 6.0 * (2.0 - h0 / h1)
    if h.size == 1:
        weights += 0.5 * h[0]
    elif h.size % 2:
        a, b = h[-2], h[-1]
        weights[-3:] += [-b ** 3 / (6.0 * a * (a + b)), (b * b + 3.0 * a * b) / (6.0 * a),
                         (2.0 * b * b + 3.0 * a * b) / (6.0 * (a + b))]
    return weights @ y


def _window_nodes(times, sched, s, delta):
    """Each segment piece [ta, tb] of the window [s, s + delta] as (ta, tb,
    k, lo, hi, nodes): the rows of a trace sampled at ``times`` that
    reconstruct integrates, and their times with the ends set to ta and tb.

    The one coverage rule, also run by ``validate`` on the run's sample
    grid, which differs from its trace only by the boundary rows dropped
    here: a piece with fewer than two rows, an end row beyond the tolerance
    or nodes not strictly increasing raises ConfigurationError."""
    tol = max(_grid_tolerance(times), 1e-12 * max(1.0, abs(s) + delta))
    pieces = sched.pieces(s, s + delta)
    out = []
    for lo, hi, (ta, tb, k) in zip(*_piece_rows(times, pieces, tol), pieces):
        # rows duplicated at a boundary, or at a sliver segment's ends: keep the
        # right limit at the piece start and the left limit at the piece end
        while hi - lo >= 2 and times[lo + 1] - times[lo] <= tol:
            lo += 1
        while hi - lo >= 2 and times[hi - 1] - times[hi - 2] <= tol:
            hi -= 1
        nodes = np.concatenate(([ta], times[lo + 1:hi - 1], [tb]))
        if (hi - lo < 2 or abs(times[lo] - ta) > tol or abs(times[hi - 1] - tb) > tol
                or not np.all(np.diff(nodes) > 0.0)):
            raise ConfigurationError(
                f"trace does not cover segment piece [{ta}, {tb}] of the window [{s}, {s + delta}]: "
                f"it keeps {hi - lo} samples there and needs two or more, strictly increasing, "
                f"the first and last within {tol:.3g} of the piece ends")
        out.append((ta, tb, k, lo, hi, nodes))
    return out


def _reconstruct(z, sched, s, delta, cond_tol):
    """:func:`reconstruct`'s estimate, the Gramian it inverts, and the time
    of the trace row where the coverage rule starts the window."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if not cond_tol > 0.0:
        raise ValueError("cond_tol must be positive")
    n = sched.node_count
    if tuple(z.edge_order) != tuple(edge_pairs(n)):
        raise ConfigurationError(
            "edge order of the trace does not match the schedule's lexicographic order"
        )
    pieces = _window_nodes(z.sample_times, sched, s, delta)
    gram = gramian(sched, s, delta)
    if gram.lambda_min <= cond_tol:
        raise UnobservableWindowError(
            f"Gramian eigenvalue {gram.lambda_min:.6e} at or below cond_tol {cond_tol:.1e}; "
            "the window is not jointly connected enough to invert",
            lambda_min=gram.lambda_min,
        )
    corr = np.zeros(n)
    phi = np.eye(n)
    for ta, tb, k, lo, hi, sub_t in pieces:
        finite = np.isfinite(z.signals[lo:hi]).all(axis=1)
        if not finite.all():
            row = lo + finite.argmin()
            raise ValueError(f"the edge signals are not finite at t = {z.sample_times[row]}")
        lam = sched.spectrum(k)[0]
        p, _, flow = _piece_factors(sched, k, tb - ta)
        v = z.signals[lo:hi] @ sched._incidence_pair(k)[1].T  # rows: H S z~(t_j), all in 1-perp
        # rows: e^{-(L+J) tau_j} v_j, which is _disagreement_flow(tau_j) v_j
        flowed = (np.exp(-lam * (sub_t - ta)[:, None]) * (v @ p)) @ p.T
        corr += _simpson(flowed, sub_t) @ phi
        phi = flow @ phi
    lam_w, q_w = np.linalg.eigh(gram.entries)
    return q_w @ ((q_w.T @ corr) / lam_w), gram, z.sample_times[pieces[0][3]]


def reconstruct(z, sched, s, delta, cond_tol=1e-8):
    """Estimate the disagreement y(s) = x(s) - x_ave(s) * 1 from edge signals.

    Computes W^{-1} int_s^{s+delta} Phi'(t, s) H(t) S(t) z~(t) dt where W is
    the exact observability Gramian of :func:`gramian`, Phi the projected
    transition matrix, z~ the trace signals, H the incidence of |a_ij| and S
    the edge signs: H S z~ = L x = (L + J) y, so signed schedules take the
    same path under the Gramian's Negative-Link Assumption.  The correlation
    integrates sampled data, so it is composite Simpson on the trace's own
    sample grid, piecewise per segment: halving the trace sampling step
    halves the quadrature step everywhere.

    The trace must sample every segment piece of the window from end to
    end, as :func:`_window_nodes` checks before any integral, with finite
    signals in the rows it keeps (ValueError names the first row that is
    not).  A Gramian eigenvalue at or below cond_tol raises
    UnobservableWindowError instead of regularizing: a near-singular
    window means joint connectivity fails on it.  :func:`_reconstruct` also returns W and the start row's time.
    """
    return _reconstruct(z, sched, s, delta, cond_tol)[0]
