"""Time-varying weighted graphs.

Piecewise-constant weight schedules, Laplacian and incidence algebra, and
joint (delta, T)-connectivity certificates.  All matrices are dense numpy
arrays; node counts are desk scale.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NegativeLinkError

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
    "window_starts",
    "check_joint_connectivity",
    "negative_link_assumption_holds",
    "schedule_from_dict",
    "load_schedule",
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
        raise ConfigurationError(f"weight matrix must be square, got shape {w.shape}")
    # finiteness first: NaN != NaN would otherwise read as asymmetry
    if not np.all(np.isfinite(w)):
        raise ConfigurationError("weights must be finite")
    if not np.array_equal(w, w.T):
        raise ConfigurationError("weight matrix must be exactly symmetric")
    if np.any(np.diag(w) != 0.0):
        raise ConfigurationError("weight matrix must have a zero diagonal")
    w.setflags(write=False)
    return w


def _laplacian(w):
    return np.diag(w.sum(axis=1)) - w


def laplacian(w):
    """Weighted Laplacian L = D - A of a weight matrix.

    Valid for signed weights as well; L stays symmetric with L @ 1 = 0.
    """
    return _laplacian(_checked_weights(w))


class IncidenceMatrix(NamedTuple):
    """Weighted incidence matrix with the fixed lexicographic edge order.

    Column for edge (i, j) holds -sqrt(a_ij) at row i and +sqrt(a_ij) at
    row j (i < j is the tail); absent edges keep an all-zero column so the
    shape is always N x N(N-1)/2.  Satisfies entries @ entries.T == laplacian.
    """

    entries: np.ndarray
    edge_order: tuple


def _factor_incidence(w):
    """H, the incidence entries of |w|, and H S with S = diag(sign a_ij) over
    the edges, so H S H' = L; the one array H when no weight is negative."""
    n = len(w)
    rows, cols = np.triu_indices(n, 1)  # the edge_pairs order
    edge, a = np.arange(rows.size), w[rows, cols]
    signed = bool(np.any(a < 0.0))
    root = np.sqrt(np.abs(a) if signed else a)
    h = np.zeros((n, rows.size))
    h[rows, edge] = -root
    h[cols, edge] = root
    return h, (h * np.sign(a) if signed else h)


def incidence(w):
    """Build the weighted incidence matrix H of a nonnegative weight matrix."""
    w = _checked_weights(w)
    if np.any(w < 0.0):
        raise ConfigurationError("incidence factorization needs nonnegative weights")
    return IncidenceMatrix(entries=_factor_incidence(w)[0], edge_order=tuple(edge_pairs(len(w))))


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

    def __init__(self, segments, periodic=False, weight_bound=None):
        segs = []
        for k, (t0, t1, w) in enumerate(segments):
            if not (_is_number(t0) and _is_number(t1)):
                raise ConfigurationError(f"segment {k}: 't0' and 't1' must be finite numbers")
            segs.append(Segment(float(t0), float(t1), _checked_weights(w)))
        if not isinstance(periodic, (bool, np.bool_)):
            raise ConfigurationError(f"'periodic' must be true or false, got {periodic!r}")
        if weight_bound is not None and not (_is_number(weight_bound) and weight_bound > 0):
            raise ConfigurationError(
                f"'bound' must be a positive finite number, got {weight_bound!r}")
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
        self.horizon = segs[-1].t_end
        self.period = self.horizon if self.periodic else None
        self._starts = [s.t_start for s in segs]
        self._spectra = {}
        self._incidences = {}
        self._full_pieces = {}  # kept by observability._piece_factors, one entry per segment

    def spectrum(self, k):
        """Eigendecomposition L_k = Q diag(lam) Q' of segment k's Laplacian.

        Computed on first use and cached on the schedule; returns the
        read-only pair (lam, Q) with lam ascending.  Every exact flow,
        Gramian and noise formula of the package works in this basis.
        """
        pair = self._spectra.get(k)
        if pair is None:
            pair = self._spectra[k] = tuple(np.linalg.eigh(_laplacian(self.segments[k].weights)))
            for a in pair:
                a.setflags(write=False)
        return pair

    def incidence(self, k):
        """Entries of H_k, the incidence of |a_ij| on segment k (H_k S_k H_k' = L_k
        with S_k the edge signs), cached read-only like :meth:`spectrum`."""
        return self._incidence_pair(k)[0]

    def _incidence_pair(self, k):
        """(H_k, H_k S_k): one array twice when no weight of segment k is negative."""
        pair = self._incidences.get(k)
        if pair is None:
            pair = self._incidences[k] = _factor_incidence(self.segments[k].weights)
            for a in pair:
                a.setflags(write=False)
        return pair

    def _local_index(self, tau):
        idx = bisect.bisect_right(self._starts, tau) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    def segment_index_at(self, t):
        """Segment holding time t; right-continuous at interior boundaries.

        The final instant of a non-periodic schedule maps to the last segment.
        """
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"time {t} is not finite")
        if t < 0.0:
            raise ConfigurationError(f"time {t} is before the schedule start")
        if self.periodic:
            _, tau = divmod(t, self.period)
            return self._local_index(tau)
        tol = 1e-9 * max(1.0, self.horizon)
        if t > self.horizon + tol:
            raise ConfigurationError(f"time {t} exceeds the horizon {self.horizon}")
        return self._local_index(min(t, self.horizon))

    def pieces(self, t0, t1):
        """Split [t0, t1] at segment boundaries.

        Returns a list of (ta, tb, segment_index) with ta < tb covering the
        window in order.  Periodic schedules unwrap across periods; indices
        refer to the base segments.
        """
        t0, t1 = float(t0), float(t1)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError(f"window [{t0}, {t1}] must have finite ends")
        if t1 < t0:
            raise ValueError(f"window end {t1} precedes start {t0}")
        tiny = 1e-12 * max(1.0, abs(t1))
        if t1 - t0 <= tiny:
            return []
        if t0 < -tiny:
            raise ConfigurationError(f"window start {t0} is before the schedule start")
        t0 = max(t0, 0.0)
        if not self.periodic:
            tol = 1e-9 * max(1.0, self.horizon)
            if t1 > self.horizon + tol:
                raise ConfigurationError(
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


_BLOCK_ENTRIES = 1 << 16


def _block(n):
    """Kinks, or windows, a block of the window checks on n nodes: about
    _BLOCK_ENTRIES entries, so memory stays flat in their number."""
    return max(1, _BLOCK_ENTRIES // n ** 2)


def _window_integrals(sched, starts, length):
    """Yield the :func:`integrated_weights` over [s, s + length] for the starts
    in order, _block(N) a stack: the one integral path of both window checks."""
    block = _block(sched.node_count)
    for lo in range(0, len(starts), block):
        yield np.stack([integrated_weights(sched, s, length) for s in starts[lo:lo + block]])


def window_starts(sched, window_length):
    """Kink starts of the windows [s, s + window_length] over all s >= 0.

    These are the starts s where s or s + window_length meets a segment
    boundary; between two consecutive kinks every per-edge window integral
    is affine in s.  Periodic schedules give one period of kinks, the
    others the kinks in [0, horizon - window_length], both ends included.
    """
    if not (window_length >= 0.0 and math.isfinite(window_length)):
        raise ValueError(f"window length must be finite and nonnegative, got {window_length}")
    bounds = [seg.t_start for seg in sched.segments] + [sched.horizon]
    tol = 1e-9 * max(1.0, sched.horizon)
    vals = bounds + [b - window_length for b in bounds]
    if sched.periodic:
        vals = [v % sched.period if v % sched.period < sched.period - tol else 0.0 for v in vals]
    elif sched.horizon - window_length < -tol:
        raise ConfigurationError(
            f"window length {window_length} exceeds the horizon {sched.horizon}")
    else:
        vals = [min(max(v, 0.0), max(sched.horizon - window_length, 0.0)) for v in vals]
    out = []  # sorted, each at least tol above the previous
    for v in sorted(vals):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


class WindowEvidence(NamedTuple):
    """Threshold graph of one checked window [start, start + T] and the
    witness of its verdict, a parent vector or a cut (see
    check_joint_connectivity)."""

    start: float
    edge_count: int
    connected: bool
    witness: tuple


class ConnectivityCertificate(NamedTuple):
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
                {"start": w.start, "connected": w.connected, "edge_count": w.edge_count,
                 ("parent" if w.connected else "cut"): [v + 1 for v in w.witness]}
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
    neighbour's.  The other, inclusion-minimal pieces are listed by midpoint.
    The kinks' integrals come in blocks from :func:`_window_integrals`, each
    kink once: a block's last row opens the next block's first interval.
    """
    kinks = window_starts(sched, T)
    # the last interval of a period ends at the period, whose integrals are
    # those at 0; a lone kink (T equal to the horizon) is a one-point interval
    wrap = sched.periodic or len(kinks) == 1
    pts = np.array(kinks + [sched.period if sched.periodic else kinks[0]] * wrap)
    ends = kinks + kinks[:1] * wrap  # not the period: pieces(P, P + T) rounds differently
    rows, cols = np.triu_indices(sched.node_count, 1)
    block, lo, seq = _block(sched.node_count), 0, np.empty((0, rows.size))
    for stack in _window_integrals(sched, ends, T):
        seq = np.concatenate((seq[-1:], stack[:, rows, cols]))
        ia, slope = seq[:-1], seq[1:] - seq[:-1]
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
    contains, so its verdict holds for every s >= 0.  One breadth-first
    search from node 0, stacked over each block of windows, decides each
    listed graph and leaves a witness.  A connected window's is a spanning
    tree as a parent vector: the parent p of each node c = 1..N-1, in node
    order, so c's tree edge is (min(c, p), max(c, p)); a reader checks that
    each edge's integral is >= delta and that the N - 1 edges reach every
    node.  A failing window's is a cut: the sorted nodes the search reached;
    a reader checks that it holds node 0 but not every node and that each
    edge leaving it has an integral < delta.  Both checks only compare
    integrals with delta, so no eigenvalue (lambda2) is needed as evidence.
    """
    if not delta > 0.0 or not T > 0.0:
        raise ValueError("delta and T must be positive")
    n = sched.node_count
    rows, cols = np.triu_indices(n, 1)  # the edge_pairs order
    evidence = []
    for starts, mask in _deciding_windows(sched, delta, T):
        adj = np.zeros((len(mask), n, n), dtype=bool)
        adj[:, rows, cols] = adj[:, cols, rows] = mask
        reached = np.zeros((len(mask), n), dtype=bool)
        reached[:, 0] = True
        parent = np.zeros((len(mask), n), dtype=int)
        frontier = reached.copy()
        while frontier.any():
            # each new node's parent: the lowest linked node of the last level
            links = frontier[:, :, None] & adj
            new = links.any(axis=1) & ~reached
            parent[new] = links.argmax(axis=1)[new]
            reached |= new
            frontier = new
        counts, connected = mask.sum(axis=1).tolist(), reached.all(axis=1).tolist()
        parents = parent[:, 1:].tolist()
        for k, s in enumerate(starts.tolist()):
            witness = parents[k] if connected[k] else np.flatnonzero(reached[k]).tolist()
            evidence.append(WindowEvidence(s, counts[k], connected[k], tuple(witness)))
    failing = [w.start for w in evidence if not w.connected]
    return ConnectivityCertificate(
        delta=float(delta),
        T=float(T),
        verdict="not_connected" if failing else "connected",
        windows=tuple(evidence),
        counterexample_window=failing[0] if failing else None,
    )


class NegativeLinkReport(NamedTuple):
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


def negative_link_assumption_holds(sched):
    """Check lambda_min(L_k) >= -1e-9 N A* for every segment of the schedule."""
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
    """Whether v is a finite int or float, numpy's included; an int beyond
    the float range (JSON allows any number of digits) counts as non-finite."""
    if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _refuse_unknown(spec, known, what):
    unknown = set(spec) - known
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {sorted(unknown)}")


def schedule_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigurationError("schedule must be a JSON object")
    _refuse_unknown(data, {"nodes", "bound", "periodic", "period", "name", "segments"}, "schedule")
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
        _refuse_unknown(seg, {"t0", "t1", "edges"}, f"segment {k}")
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
            _refuse_unknown(e, {"i", "j", "w"}, f"segment {k} edge")
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
    sched = WeightSchedule(segments, periodic=data.get("periodic", False),
                           weight_bound=data.get("bound"))
    if "period" in data and not _is_number(data["period"]):
        raise ConfigurationError(f"'period' must be a finite number, got {data['period']!r}")
    if not sched.periodic and "period" in data:
        raise ConfigurationError("'period' is only valid with 'periodic': true")
    if sched.periodic and "period" in data and data["period"] != sched.horizon:
        raise ConfigurationError(
            f"declared period {data['period']} differs from the last segment end {sched.horizon}"
        )
    if "name" in data and not isinstance(data["name"], str):
        raise ConfigurationError(f"'name' must be a string, got {data['name']!r}")
    return sched


def load_schedule(path):
    with open(path, encoding="utf-8") as fh:
        return schedule_from_dict(json.load(fh))
