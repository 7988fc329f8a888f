"""Shared schedule builders and small oracles for the test suite."""

import json

import numpy as np

from consensuslab import UniformBounds, WeightSchedule
from consensuslab.graph import (
    WindowEvidence,
    edge_pairs,
    integrated_laplacian,
    integrated_weights,
    lambda2,
    laplacian,
)


def weights(n, *edges):
    """Dense symmetric weight matrix from (i, j, w) triples, 0-based."""
    w = np.zeros((n, n))
    for i, j, val in edges:
        w[i, j] = w[j, i] = val
    return w


def k2_schedule(weight=1.0, horizon=10.0):
    return WeightSchedule([(0.0, horizon, weights(2, (0, 1, weight)))])


def k3_schedule(horizon=10.0):
    w = np.ones((3, 3)) - np.eye(3)
    return WeightSchedule([(0.0, horizon, w)])


def p3_schedule(horizon=10.0):
    return WeightSchedule([(0.0, horizon, weights(3, (0, 1, 1.0), (1, 2, 1.0)))])


def empty_schedule(n=3, horizon=10.0):
    return WeightSchedule([(0.0, horizon, np.zeros((n, n)))])


def alternating_schedule():
    """Edge {1,2} on [2k, 2k+1), edge {2,3} on [2k+1, 2k+2), unit weights."""
    return WeightSchedule(
        [
            (0.0, 1.0, weights(3, (0, 1, 1.0))),
            (1.0, 2.0, weights(3, (1, 2, 1.0))),
        ],
        periodic=True,
    )


def five_node_schedule():
    """Period-2 switching whose union over one period is the path 1-2-3-4-5."""
    return WeightSchedule(
        [
            (0.0, 1.0, weights(5, (0, 1, 1.0), (2, 3, 1.0))),
            (1.0, 2.0, weights(5, (1, 2, 1.0), (3, 4, 1.0))),
        ],
        periodic=True,
    )


def isolated_schedule(horizon=100.0):
    """Node 3 never linked: edge {1,2} only."""
    return WeightSchedule([(0.0, horizon, weights(3, (0, 1, 1.0)))])


def signed_triangle_symmetric(horizon=60.0):
    """a_12 = a_13 = 1, a_23 = -0.4; Laplacian eigenvalues {0, 0.2, 3}."""
    return WeightSchedule(
        [(0.0, horizon, weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4)))]
    )


def signed_triangle_adversarial(horizon=60.0):
    """a_12 = 3.8, a_13 = 0.6, a_23 = -0.4; eigenvalues {0, 0.2, 7.8}.

    Unlike the symmetric variant, this PSD signed triangle admits initial
    states whose max-min spread transiently grows.
    """
    return WeightSchedule(
        [(0.0, horizon, weights(3, (0, 1, 3.8), (0, 2, 0.6), (1, 2, -0.4)))]
    )


def random_weights(rng, n, bound=1.0, density=0.6):
    """Random nonnegative symmetric weight matrix with zero diagonal."""
    w = rng.uniform(0.0, bound, size=(n, n))
    mask = rng.random((n, n)) < density
    w = np.triu(w * mask, 1)
    return w + w.T

def random_periodic_schedule(rng, n=None, segments=2, bound=1.0, density=0.5,
                             isolate_node=False):
    """Seeded periodic schedule; optionally keeps node 0 isolated throughout."""
    if n is None:
        n = int(rng.integers(3, 7))
    segs = []
    for k in range(segments):
        w = random_weights(rng, n, bound=bound, density=density)
        if isolate_node:
            w[0, :] = 0.0
            w[:, 0] = 0.0
        segs.append((float(k), float(k + 1), w))
    return WeightSchedule(segs, periodic=True, weight_bound=bound)


def quarter_grid_schedule(n, quarters, weight_codes, periodic):
    """Schedule whose segment k lasts quarters[k] / 4 and gives edge e of
    edge_pairs(n) the integer weight weight_codes[k][e].

    With a window length on the same quarter grid, every window integral
    at a kink is a multiple of 1/4 and changes at an integer rate between
    kinks, so for delta an odd multiple of 1/16 every delta-crossing lies
    on the grid of multiples of 1/96.
    """
    ends = np.cumsum(quarters) / 4.0
    segments = []
    for t0, t1, codes in zip(np.concatenate(([0.0], ends[:-1])), ends, weight_codes):
        w = np.zeros((n, n))
        for (i, j), code in zip(edge_pairs(n), codes):
            w[i, j] = w[j, i] = float(code)
        segments.append((t0, t1, w))
    return WeightSchedule(segments, periodic=periodic, weight_bound=3.0)


def quarter_grid_cases():
    """Hypothesis strategy of (schedule, T, delta): a quarter_grid_schedule
    of 3-5 nodes and 2-5 segments, periodic or not, a window length T on the
    quarter grid and delta an odd multiple of 1/16."""
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        n, count = draw(st.integers(3, 5)), draw(st.integers(2, 5))
        quarters = draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        codes = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2)
        weight_codes = draw(st.lists(codes, min_size=count, max_size=count))
        periodic = draw(st.booleans())
        T = draw(st.integers(1, sum(quarters) * (2 if periodic else 1))) / 4.0
        delta = (2 * draw(st.integers(0, int(12 * T))) + 1) / 16.0
        return quarter_grid_schedule(n, quarters, weight_codes, periodic), T, delta

    return cases()


def dense_starts(sched, T):
    """0 and the odd multiples of 1/192 over one period, or over
    [0, horizon - T]: a start inside every gap of the 1/96 grid."""
    span = sched.period if sched.periodic else sched.horizon - T
    return np.concatenate(([0.0], (2 * np.arange(round(96 * span)) + 1) / 192.0))


def union_find_connected(n, weight_matrix, threshold=0.0):
    """Independent connectivity oracle on edges with weight > threshold."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if weight_matrix[i, j] > threshold:
                parent[find(i)] = find(j)
    return len({find(v) for v in range(n)}) == 1


# -- slow references for the vectorised fast paths ---------------------------
#
# These are the straightforward per-sample / per-row versions the package
# used before its linear-time rewrites.  Tests compare the fast paths with
# them; nothing in the package imports them.


def reference_merge_grid(anchors, base, tol):
    """Anchors win over base points within tol; then close points are
    dropped, keeping the earlier one.  O(samples x anchors)."""
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


def _reference_phi1(z):
    safe = np.where(z == 0.0, 1.0, z)
    return np.where(z == 0.0, 1.0, np.expm1(safe) / safe)


def reference_simulate(sched, x0_time, x0_values, t_end, sample_dt, noise=None):
    """(grid, states) from one exact spectral step per sample interval,
    each split at the noise breakpoints inside it."""
    import math

    x0_values = np.asarray(x0_values, dtype=float)
    t0 = float(x0_time)
    n_steps = int(math.floor((t_end - t0) / sample_dt + 1e-9))
    base = t0 + sample_dt * np.arange(n_steps + 1)
    anchors = [t0, t_end] + [tb for _, tb, _ in sched.pieces(t0, t_end)[:-1]]
    grid = reference_merge_grid(anchors, base, tol=1e-6 * sample_dt)
    noisy = noise is not None and noise.kind != "zero"
    states = np.empty((grid.size, x0_values.size))
    states[0] = x0_values
    for step in range(grid.size - 1):
        ta, tb = grid[step], grid[step + 1]
        lam, q = sched.spectrum(sched.segment_index_at((ta + tb) / 2.0))
        c = q.T @ states[step]
        inner = [float(b) for b in noise.breakpoints if ta < b < tb] if noisy else []
        cuts = [ta] + inner + [tb]
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            z = -lam * (u1 - u0)
            c = np.exp(z) * c
            if noisy:
                c += (u1 - u0) * _reference_phi1(z) * (q.T @ noise.values_at((u0 + u1) / 2.0))
        states[step + 1] = q @ c
    return grid, states


def reference_window_energies(noise):
    """Window energies by overlapping every zeta-window with every row."""
    b, v = noise.breakpoints, noise.values
    t0, t1 = float(b[0]), float(b[-1])
    out = []
    s = t0
    while s < t1 - 1e-12 * max(1.0, abs(t1)):
        total = 0.0
        for k in range(v.shape[0]):
            overlap = min(s + noise.zeta, b[k + 1]) - max(s, b[k])
            if overlap > 0.0:
                total += overlap * float(v[k] @ v[k])
        out.append(total)
        s += noise.zeta
    return out


def reference_csv_text(header, times, values):
    """CSV text with every value written by an f-string at 17 digits."""
    lines = [header + "\n"]
    for t, row in zip(times, values):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def reference_piece_mask(times, ta, tb, tol):
    """Indices of the samples within tol of [ta, tb], by a boolean mask."""
    return np.nonzero((times >= ta - tol) & (times <= tb + tol))[0]


def reference_incidence(w):
    """Incidence entries filled one edge column at a time."""
    n = w.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    h = np.zeros((n, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        root = np.sqrt(w[i, j])
        h[i, k] = -root
        h[j, k] = root
    return h


def scan_starts(sched, T, count=401):
    """``count`` evenly spaced window starts over one period, or over
    [0, horizon - T] of a non-periodic schedule (ends included)."""
    if sched.periodic:
        return np.linspace(0.0, sched.period, count, endpoint=False)
    return np.linspace(0.0, sched.horizon - T, count)


def reference_window(sched, delta, T, s):
    """Evidence of the window [s, s + T], recomputed on its own: one
    integral, threshold graph, union-find and lambda2 call."""
    n = sched.node_count
    acc = integrated_weights(sched, s, T)
    edges = tuple((i, j) for i, j in edge_pairs(n) if acc[i, j] >= delta)
    thresh = np.zeros((n, n))
    for i, j in edges:
        thresh[i, j] = thresh[j, i] = 1.0
    return WindowEvidence(start=float(s), edges=edges, lambda2=lambda2(laplacian(thresh)),
                          connected=union_find_connected(n, thresh))


def reference_connectivity(sched, delta, T, starts=None):
    """Verdict of a dense scan: the threshold graph at every start of
    ``starts`` (default :func:`scan_starts`) must be connected."""
    n = sched.node_count
    for s in scan_starts(sched, T) if starts is None else starts:
        if not union_find_connected(n, integrated_weights(sched, s, T) >= delta):
            return "not_connected"
    return "connected"


def uncovered_starts(sched, delta, T, cert, starts=None):
    """Starts of ``starts`` (default :func:`scan_starts`) whose threshold
    graph contains no listed window's graph.  An exact certificate leaves
    none: a graph holding a connected one is connected."""
    listed = [set(w.edges) for w in cert.windows]
    out = []
    for s in scan_starts(sched, T) if starts is None else starts:
        acc = integrated_weights(sched, s, T)
        edges = {(i, j) for i, j in edge_pairs(sched.node_count) if acc[i, j] >= delta}
        if not any(g <= edges for g in listed):
            out.append(float(s))
    return out


def reference_uniform_bounds(sched, delta_obs, starts=None, positive_tol=1e-10):
    """alpha1/alpha2 of a dense scan, one eigvalsh call per start of
    ``starts`` (default :func:`scan_starts`)."""
    n = sched.node_count
    shift = np.ones((n, n)) / n
    alpha1, alpha2, worst = np.inf, -np.inf, 0.0
    for s in scan_starts(sched, delta_obs) if starts is None else starts:
        eigs = np.linalg.eigvalsh(integrated_laplacian(sched, s, delta_obs) + delta_obs * shift)
        if eigs[0] < alpha1:
            alpha1, worst = float(eigs[0]), float(s)
        alpha2 = max(alpha2, float(eigs[-1]))
    return UniformBounds(alpha1=alpha1, alpha2=alpha2, worst_window_start=worst,
                         observable=bool(alpha1 > positive_tol))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())  # a 0-d array lists as its scalar
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def reference_write_json(path, payload):
    """JSON report written by json's pure-Python indent=2 encoder after a
    deep copy into plain Python values."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
