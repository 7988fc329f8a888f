"""Time-varying weighted graphs.

Piecewise-constant weight schedules, Laplacian and incidence algebra, and
joint (delta, T)-connectivity certificates.  All matrices are dense numpy
arrays; node counts are desk scale.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    HorizonError,
    InvalidSnapshotError,
    NegativeLinkError,
    SignedGraphError,
)

__all__ = [
    "WeightSchedule",
    "IncidenceMatrix",
    "WindowEvidence",
    "ConnectivityCertificate",
    "NegativeLinkReport",
    "edge_pairs",
    "laplacian",
    "incidence",
    "integrated_weights",
    "integrated_laplacian",
    "lambda2",
    "window_starts",
    "check_joint_connectivity",
    "negative_link_assumption_holds",
    "schedule_from_dict",
    "schedule_to_dict",
    "load_schedule",
    "save_schedule",
]


def edge_pairs(node_count):
    """Fixed lexicographic edge order: all pairs (i, j), i < j, 0-based."""
    return [(i, j) for i in range(node_count) for j in range(i + 1, node_count)]


def _checked_weights(weights):
    """Read-only float copy of a weight matrix, checked for use as a graph.

    The matrix must be exactly symmetric with a zero diagonal; negative
    entries are allowed (signed graphs).
    """
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidSnapshotError(f"weight matrix must be square, got shape {w.shape}")
    # finiteness first: NaN != NaN would otherwise read as asymmetry
    if not np.all(np.isfinite(w)):
        raise InvalidSnapshotError("weights must be finite")
    if not np.array_equal(w, w.T):
        raise InvalidSnapshotError("weight matrix must be exactly symmetric")
    if np.any(np.diag(w) != 0.0):
        raise InvalidSnapshotError("weight matrix must have a zero diagonal")
    w.setflags(write=False)
    return w


def laplacian(w):
    """Weighted Laplacian L = D - A of a weight matrix.

    Valid for signed weights as well; L stays symmetric with L @ 1 = 0.
    """
    w = _checked_weights(w)
    return np.diag(w.sum(axis=1)) - w


@dataclass(frozen=True)
class IncidenceMatrix:
    """Weighted incidence matrix with the fixed lexicographic edge order.

    Column for edge (i, j) holds -sqrt(a_ij) at row i and +sqrt(a_ij) at
    row j (i < j is the tail); absent edges keep an all-zero column so the
    shape is always N x N(N-1)/2.  Satisfies entries @ entries.T == laplacian.
    """

    entries: np.ndarray
    edge_order: tuple


def incidence(w):
    """Build the weighted incidence matrix H of a nonnegative weight matrix."""
    w = _checked_weights(w)
    if np.any(w < 0.0):
        raise SignedGraphError("incidence factorization needs nonnegative weights")
    n = w.shape[0]
    rows, cols = np.triu_indices(n, 1)  # the edge_pairs order
    edge = np.arange(rows.size)
    root = np.sqrt(w[rows, cols])
    h = np.zeros((n, rows.size))
    h[rows, edge] = -root
    h[cols, edge] = root
    return IncidenceMatrix(entries=h, edge_order=tuple(edge_pairs(n)))


class Segment(NamedTuple):
    t_start: float
    t_end: float
    weights: np.ndarray


class WeightSchedule:
    """Piecewise-constant symmetric edge-weight function of time.

    Segments tile [0, horizon] contiguously.  A periodic schedule repeats
    with period equal to its horizon; a non-periodic one is undefined past
    it.  ``weight_bound`` is the declared bound A* with |a_ij(t)| <= A*.
    """

    def __init__(self, segments, periodic=False, weight_bound=None, name=None):
        segs = []
        for raw in segments:
            t0, t1, w = raw
            segs.append(Segment(float(t0), float(t1), _checked_weights(w)))
        if not segs:
            raise ConfigurationError("schedule needs at least one segment")
        n = segs[0].weights.shape[0]
        if n < 2:
            raise ConfigurationError("schedule needs at least two nodes")
        if any(s.weights.shape[0] != n for s in segs):
            raise ConfigurationError("all segments must share the node count")
        if segs[0].t_start != 0.0:
            raise ConfigurationError("first segment must start at t = 0")
        for k, s in enumerate(segs):
            if not s.t_end > s.t_start:
                raise ConfigurationError(f"segment {k} has non-positive duration")
            if k > 0 and s.t_start != segs[k - 1].t_end:
                raise ConfigurationError(
                    f"segment {k} starts at {s.t_start}, previous ends at {segs[k - 1].t_end}"
                )
        wmax = max(float(np.abs(s.weights).max()) for s in segs)
        if weight_bound is None:
            weight_bound = wmax if wmax > 0.0 else 1.0
        elif wmax > weight_bound:
            raise ConfigurationError(
                f"weight magnitude {wmax} exceeds the declared bound {weight_bound}"
            )
        self.segments = tuple(segs)
        self.node_count = n
        self.periodic = bool(periodic)
        self.weight_bound = float(weight_bound)
        self.name = name
        self.horizon = segs[-1].t_end
        self.period = self.horizon if self.periodic else None
        self._starts = [s.t_start for s in segs]
        self._spectra = {}
        self._incidences = {}
        self._last_gramian = None  # kept by observability.gramian

    def __len__(self):
        return len(self.segments)

    @property
    def is_nonnegative(self):
        return all(float(s.weights.min()) >= 0.0 for s in self.segments)

    def scaled(self, factor):
        """Same switching pattern with every weight multiplied by ``factor``."""
        return WeightSchedule(
            [(s.t_start, s.t_end, s.weights * factor) for s in self.segments],
            periodic=self.periodic,
            weight_bound=abs(factor) * self.weight_bound,
            name=self.name,
        )

    def spectrum(self, k):
        """Eigendecomposition L_k = Q diag(lam) Q' of segment k's Laplacian.

        Computed on first use and cached on the schedule; returns the
        read-only pair (lam, Q) with lam ascending.  Every exact flow,
        Gramian and noise formula of the package works in this basis.
        """
        pair = self._spectra.get(k)
        if pair is None:
            lam, q = np.linalg.eigh(laplacian(self.segments[k].weights))
            lam.setflags(write=False)
            q.setflags(write=False)
            pair = self._spectra[k] = (lam, q)
        return pair

    def incidence(self, k):
        """Entries of segment k's incidence matrix H_k, with H_k H_k' = L_k.

        Computed on first use and cached read-only on the schedule, like
        :meth:`spectrum`; edge signals and reconstruction share it.
        """
        h = self._incidences.get(k)
        if h is None:
            h = self._incidences[k] = incidence(self.segments[k].weights).entries
            h.setflags(write=False)
        return h

    def _local_index(self, tau):
        idx = bisect.bisect_right(self._starts, tau) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    def segment_index_at(self, t):
        """Segment holding time t; right-continuous at interior boundaries.

        The final instant of a non-periodic schedule maps to the last segment.
        """
        t = float(t)
        if t < 0.0:
            raise HorizonError(f"time {t} is before the schedule start")
        if self.periodic:
            _, tau = divmod(t, self.period)
            return self._local_index(tau)
        tol = 1e-9 * max(1.0, self.horizon)
        if t > self.horizon + tol:
            raise HorizonError(f"time {t} exceeds the horizon {self.horizon}")
        return self._local_index(min(t, self.horizon))

    def pieces(self, t0, t1):
        """Split [t0, t1] at segment boundaries.

        Returns a list of (ta, tb, segment_index) with ta < tb covering the
        window in order.  Periodic schedules unwrap across periods; indices
        refer to the base segments.
        """
        t0, t1 = float(t0), float(t1)
        if t1 < t0:
            raise ValueError(f"window end {t1} precedes start {t0}")
        tiny = 1e-12 * max(1.0, abs(t1))
        if t1 - t0 <= tiny:
            return []
        if t0 < -tiny:
            raise HorizonError(f"window start {t0} is before the schedule start")
        t0 = max(t0, 0.0)
        if not self.periodic:
            tol = 1e-9 * max(1.0, self.horizon)
            if t1 > self.horizon + tol:
                raise HorizonError(
                    f"window [{t0}, {t1}] leaves the horizon {self.horizon} of a non-periodic schedule"
                )
            # t0 <= t1 <= horizon: the walk below stops at the horizon, never wrapping
            t1 = min(t1, self.horizon)
        p = self.horizon
        k0, tau = divmod(t0, p)
        idx = self._local_index(tau)
        abs_end = k0 * p + self.segments[idx].t_end
        out = []
        t = t0
        while t < t1 - tiny:
            tb = min(abs_end, t1)
            if tb > t + tiny:
                out.append((t, tb, idx))
            t = tb
            idx += 1
            if idx == len(self.segments):
                idx = 0
                k0 += 1
            abs_end = k0 * p + self.segments[idx].t_end
        return out


def integrated_weights(sched, s, duration):
    """Per-edge integrals int_s^{s+duration} a_ij(t) dt as an N x N matrix.

    Exact: the integrand is piecewise constant, so this is an overlap sum.
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    acc = np.zeros((sched.node_count, sched.node_count))
    for ta, tb, k in sched.pieces(s, s + duration):
        acc += (tb - ta) * sched.segments[k].weights
    return acc


# windows go through the stacked kernels in blocks of about this many matrix
# entries per (windows, N, N) array, so memory stays flat in the window count
_BLOCK_ENTRIES = 1 << 16


def _window_integrals(sched, starts, duration):
    """Yield (lo, stack): integrated_weights for starts[lo:lo + len(stack)].

    Each block stacks at most max(1, _BLOCK_ENTRIES // N^2) windows, and
    no other array of the scan is larger than one block.  A window's pieces
    are added in their own order, padded to the block's widest window with
    zero durations, so every slice is bit-identical to
    :func:`integrated_weights` (adding +-0.0 is exact).
    """
    if duration < 0.0:
        raise ValueError("duration must be nonnegative")
    n = sched.node_count
    block = max(1, _BLOCK_ENTRIES // (n * n))
    seg_weights = [seg.weights for seg in sched.segments]
    for lo in range(0, len(starts), block):
        pieces = [sched.pieces(s, s + duration) for s in starts[lo:lo + block]]
        width = max(map(len, pieces))
        dur = np.array([[tb - ta for ta, tb, _ in p] + [0.0] * (width - len(p)) for p in pieces])
        idx = np.array([[k for _, _, k in p] + [0] * (width - len(p)) for p in pieces], dtype=int)
        acc = np.zeros((len(pieces), n, n))
        term = np.empty_like(acc)
        for c in range(width):
            np.stack([seg_weights[k] for k in idx[:, c].tolist()], out=term)
            term *= dur[:, c, None, None]
            acc += term
        yield lo, acc


def _laplacians(w):
    """Laplacians of a (windows, N, N) weight stack, laid out like laplacian().

    Built as diag(row sums) minus W by subtraction from zeros, so absent
    edges hold +0.0 exactly as in np.diag(d) - w (a negated W would leave
    -0.0 there, which changes the last bits LAPACK returns).
    """
    lap = np.zeros(w.shape)
    diag = np.arange(w.shape[1])
    lap[:, diag, diag] = w.sum(axis=2)
    lap -= w
    return lap


def integrated_laplacian(sched, s, duration):
    """Exact segment-wise integral of the Laplacian over [s, s+duration]."""
    w = integrated_weights(sched, s, duration)
    return np.diag(w.sum(axis=1)) - w


def lambda2(matrix):
    """Second-smallest eigenvalue of a symmetric matrix (ascending order)."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"expected a square matrix of size >= 2, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh((m + m.T) / 2.0)[1])


def _components_connected(node_count, edges):
    # union-find; exact, no tolerances involved
    parent = list(range(node_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(v) for v in range(node_count)}) == 1


def window_starts(sched, window_length):
    """Kink starts of the windows [s, s + window_length] over all s >= 0.

    These are the starts s where s or s + window_length meets a segment
    boundary; between two consecutive kinks every per-edge window integral
    is affine in s.  Periodic schedules give one period of kinks, the
    others the kinks in [0, horizon - window_length], both ends included.
    """
    if window_length < 0.0:
        raise ValueError("window length must be nonnegative")
    bounds = [seg.t_start for seg in sched.segments] + [sched.horizon]
    tol = 1e-9 * max(1.0, sched.horizon)
    vals = bounds + [b - window_length for b in bounds]
    if sched.periodic:
        vals = [v % sched.period if v % sched.period < sched.period - tol else 0.0 for v in vals]
    elif sched.horizon - window_length < -tol:
        raise HorizonError(f"window length {window_length} exceeds the horizon {sched.horizon}")
    else:
        vals = [min(max(v, 0.0), max(sched.horizon - window_length, 0.0)) for v in vals]
    out = []  # sorted, each at least tol above the previous
    for v in sorted(vals):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


@dataclass(frozen=True)
class WindowEvidence:
    """Threshold graph of one checked window [start, start + T]."""

    start: float
    edges: tuple
    lambda2: float
    connected: bool


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Outcome of a joint (delta, T)-connectivity check.

    ``verdict`` is "connected" only if every checked window's threshold
    graph is connected; otherwise ``counterexample_window`` holds the first
    failing window start.
    """

    delta: float
    T: float
    verdict: str
    windows: tuple
    counterexample_window: float | None = None

    @property
    def connected(self):
        return self.verdict == "connected"

    def as_dict(self):
        return {
            "delta": self.delta,
            "T": self.T,
            "verdict": self.verdict,
            "counterexample_window": self.counterexample_window,
            "windows": [
                {
                    "start": w.start,
                    "edges": [[i + 1, j + 1] for i, j in w.edges],
                    "lambda2": w.lambda2,
                    "connected": w.connected,
                }
                for w in self.windows
            ],
        }


def _deciding_windows(sched, delta, T):
    """Yield (starts, masks) blocks of the windows whose threshold graphs
    decide joint (delta, T)-connectivity for all s >= 0.

    Between consecutive kinks a and b, I_e(a + f (b - a)) is affine in f, so
    the test I_e >= delta flips at most at one delta-crossing per edge, and
    the crossings cut [a, b] into pieces of constant threshold graph.  As the
    test is closed, a cut's graph holds the edges on both sides, and a piece
    whose left cut only adds edges (or right cut only drops them) holds its
    neighbour's.  The other, inclusion-minimal pieces are listed by midpoint,
    max(1, _BLOCK_ENTRIES // N^2) per block; each kink is integrated once.
    """
    kinks = window_starts(sched, T)
    # the last interval of a period ends at the period, whose integrals are
    # those at 0; a lone kink (T equal to the horizon) is a one-point interval
    wrap = sched.periodic or len(kinks) == 1
    pts = np.array(kinks + [sched.period if sched.periodic else kinks[0]] * wrap)
    rows, cols = np.triu_indices(sched.node_count, 1)
    block = max(1, _BLOCK_ENTRIES // sched.node_count ** 2)
    scan = (stack[:, rows, cols] for _, stack in _window_integrals(sched, kinks, T))
    first, prev, lo = next(scan), None, 0  # prev: last row of the previous block
    for vals in itertools.chain([first], scan, [first[:1]] * wrap):
        seq = vals if prev is None else np.concatenate([prev, vals])
        prev, ia, slope = seq[-1:], seq[:-1], seq[1:] - seq[:-1]
        a, span = pts[lo:lo + len(ia)], np.diff(pts[lo:lo + len(ia) + 1])
        lo += len(ia)
        cross = np.divide(delta - ia, slope, out=np.ones_like(slope), where=slope != 0.0)
        # per interval: 0, the crossing fractions in ascending order, 1, with
        # the rising crossings first and the falling last at equal fractions
        frac, sign = cross.clip(0.0, 1.0), np.sign(slope)
        order = np.lexsort((-sign, frac))
        cuts, sign = (np.pad(np.take_along_axis(v, order, 1), ((0, 0), (1, 1)),
                             constant_values=(0.0, 1.0)) for v in (frac, sign))
        r, c = np.nonzero((cuts[:, 1:] > cuts[:, :-1])
                          & ((cuts[:, :-1] == 0.0) | (sign[:, :-1] < 0.0))  # drops an edge
                          & ((cuts[:, 1:] == 1.0) | (sign[:, 1:] > 0.0)))  # adds an edge
        mid = (cuts[r, c] + cuts[r, c + 1]) / 2.0
        for k in range(0, len(mid), block):
            rr, f = r[k:k + block], mid[k:k + block]
            yield a[rr] + f * span[rr], ia[rr] + f[:, None] * slope[rr] >= delta


def check_joint_connectivity(sched, delta, T):
    """Certify joint (delta, T)-connectivity of a weight schedule.

    The edges with int_s^{s+T} a_ij dt >= delta form the threshold graph of
    the window start s.  The certificate lists the windows of
    :func:`_deciding_windows`, whose graphs each other start's graph
    contains, so its verdict holds for every s >= 0.  Connectivity is decided exactly
    by union-find, with the algebraic connectivity of the unweighted
    threshold Laplacian reported as evidence (one stacked call per block).
    """
    if delta <= 0.0 or T <= 0.0:
        raise ValueError("delta and T must be positive")
    n = sched.node_count
    pairs = edge_pairs(n)
    rows, cols = np.triu_indices(n, 1)  # the edge_pairs order
    evidence = []
    counterexample = None
    for starts, mask in _deciding_windows(sched, delta, T):
        thresh = np.zeros((len(mask), n, n))
        thresh[:, rows, cols] = mask
        thresh[:, cols, rows] = mask
        lap = _laplacians(thresh)
        assert np.array_equal(lap, lap.transpose(0, 2, 1)), "threshold Laplacians must be symmetric"
        lam2 = np.linalg.eigvalsh(lap)[:, 1].tolist()
        for s, m, l2 in zip(starts.tolist(), mask, lam2):
            edges = tuple(pairs[e] for e in np.flatnonzero(m).tolist())
            connected = _components_connected(n, edges)
            evidence.append(WindowEvidence(start=s, edges=edges, lambda2=l2, connected=connected))
            if not connected and counterexample is None:
                counterexample = s
    verdict = "connected" if counterexample is None else "not_connected"
    return ConnectivityCertificate(
        delta=float(delta),
        T=float(T),
        verdict=verdict,
        windows=tuple(evidence),
        counterexample_window=counterexample,
    )


@dataclass(frozen=True)
class NegativeLinkReport:
    """Worst instantaneous Laplacian eigenvalue across all segments."""

    holds: bool
    worst_eigenvalue: float
    segment_index: int

    def __bool__(self):
        return self.holds

    def require(self):
        """Raise NegativeLinkError naming the worst segment unless the check holds."""
        if not self.holds:
            raise NegativeLinkError(
                f"segment {self.segment_index} has Laplacian eigenvalue "
                f"{self.worst_eigenvalue:.6e}; Negative-Link Assumption violated",
                eigenvalue=self.worst_eigenvalue,
                segment=self.segment_index,
            )


def negative_link_assumption_holds(sched, tol=None):
    """Check lambda_min(L_k) >= -tol for every segment of the schedule."""
    if tol is None:
        tol = 1e-9 * sched.node_count * sched.weight_bound
    worst = np.inf
    worst_idx = 0
    for k in range(len(sched.segments)):
        lam_min = float(sched.spectrum(k)[0][0])
        if lam_min < worst:
            worst = lam_min
            worst_idx = k
    return NegativeLinkReport(
        holds=bool(worst >= -tol),
        worst_eigenvalue=worst,
        segment_index=worst_idx,
    )


# ---------------------------------------------------------------------------
# schedule file format
#
# { "nodes": N, "bound": A*, "periodic": bool, "period": P, "name": ...,
#   "segments": [ {"t0": .., "t1": .., "edges": [{"i": 1, "j": 2, "w": 0.5}]} ] }
#
# Node indices are 1-based; omitted edges have weight 0.


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def schedule_from_dict(data, name=None):
    if not isinstance(data, dict):
        raise ConfigurationError("schedule must be a JSON object")
    if "nodes" not in data:
        raise ConfigurationError("schedule is missing required field 'nodes'")
    n = data["nodes"]
    if not isinstance(n, int) or n < 2:
        raise ConfigurationError(f"'nodes' must be an integer >= 2, got {n!r}")
    raw_segments = data.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise ConfigurationError("schedule needs a non-empty 'segments' list")
    segments = []
    for k, seg in enumerate(raw_segments):
        if not isinstance(seg, dict) or "t0" not in seg or "t1" not in seg:
            raise ConfigurationError(f"segment {k} needs 't0' and 't1'")
        if not (_is_number(seg["t0"]) and _is_number(seg["t1"])):
            raise ConfigurationError(f"segment {k}: 't0' and 't1' must be finite numbers")
        if not isinstance(seg.get("edges", []), list):
            raise ConfigurationError(f"segment {k}: 'edges' must be a list")
        w = np.zeros((n, n))
        seen = set()
        for e in seg.get("edges", []):
            try:
                i, j, wt = e["i"], e["j"], e["w"]
            except (TypeError, KeyError) as exc:
                raise ConfigurationError(
                    f"segment {k}: each edge needs 'i', 'j', 'w'"
                ) from exc
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (i, j)):
                raise ConfigurationError(f"segment {k}: edge indices must be integers")
            if i >= j:
                raise ConfigurationError(
                    f"segment {k}: edge ({i},{j}) must satisfy i < j (1-based, no self-loops)"
                )
            if i < 1 or j > n:
                raise ConfigurationError(f"segment {k}: edge ({i},{j}) out of range 1..{n}")
            if (i, j) in seen:
                raise ConfigurationError(f"segment {k}: duplicate edge ({i},{j})")
            if not _is_number(wt):
                raise ConfigurationError(
                    f"segment {k}: edge ({i},{j}) weight must be a finite number, got {wt!r}"
                )
            seen.add((i, j))
            w[i - 1, j - 1] = w[j - 1, i - 1] = float(wt)
        segments.append((seg["t0"], seg["t1"], w))
    periodic = data.get("periodic", False)
    if not isinstance(periodic, bool):
        raise ConfigurationError(f"'periodic' must be true or false, got {periodic!r}")
    bound = data.get("bound")
    if bound is not None and not (_is_number(bound) and bound > 0):
        raise ConfigurationError(f"'bound' must be a positive finite number, got {bound!r}")
    if periodic and "period" in data and data["period"] != segments[-1][1]:
        raise ConfigurationError(
            f"declared period {data['period']} differs from the last segment end {segments[-1][1]}"
        )
    return WeightSchedule(
        segments,
        periodic=periodic,
        weight_bound=bound,
        name=data.get("name", name),
    )


def schedule_to_dict(sched):
    segments = []
    for seg in sched.segments:
        edges = []
        for i, j in edge_pairs(sched.node_count):
            if seg.weights[i, j] != 0.0:
                edges.append({"i": i + 1, "j": j + 1, "w": float(seg.weights[i, j])})
        segments.append({"t0": seg.t_start, "t1": seg.t_end, "edges": edges})
    out = {
        "nodes": sched.node_count,
        "bound": sched.weight_bound,
        "periodic": sched.periodic,
        "segments": segments,
    }
    if sched.periodic:
        out["period"] = sched.period
    if sched.name is not None:
        out["name"] = sched.name
    return out


def load_schedule(path):
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return schedule_from_dict(data, name=path.stem)


def save_schedule(sched, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schedule_to_dict(sched), fh, indent=2, sort_keys=True)
        fh.write("\n")
