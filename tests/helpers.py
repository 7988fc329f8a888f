"""Shared schedule builders and small oracles for the test suite."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np

from consensuslab import UniformBounds, WeightSchedule, laplacian
from consensuslab.graph import (
    WindowEvidence,
    edge_pairs,
    integrated_weights,
)


def weights(n, *edges):
    """Dense symmetric weight matrix from (i, j, w) triples, 0-based."""
    w = np.zeros((n, n))
    for i, j, val in edges:
        w[i, j] = w[j, i] = val
    return w


def read_csv_text(reader, text):
    """``reader`` called on a CSV file that holds ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text)
        return reader(path)


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


def nla_schedules(periodic=None, signed=True):
    """Hypothesis strategy of schedules that meet the Negative-Link
    Assumption: 2-5 nodes, 1-4 segments lasting 0.2-1.5, periodic or not
    as ``periodic`` says (drawn when None), every weight 0 or in [0.1, 2].

    When ``signed``, on about a third of the segments one absent edge
    inside a component of the positive graph gets the weight -u / R_eff,
    u in [0.1, 0.8] and R_eff the pair's effective resistance there.  Then
    L >= (1 - u) L+, so L is PSD with the null space of L+, and no verdict
    sits at a tolerance.
    """
    from hypothesis import strategies as st

    weight = st.one_of(st.just(0.0), st.floats(0.1, 2.0))

    @st.composite
    def schedules(draw):
        n, count = draw(st.integers(2, 5)), draw(st.integers(1, 4))
        segments, t0 = [], 0.0
        for h in draw(st.lists(st.floats(0.2, 1.5), min_size=count, max_size=count)):
            w = np.zeros((n, n))
            for i, j in edge_pairs(n):
                w[i, j] = w[j, i] = draw(weight)
            reach = np.linalg.matrix_power((w > 0.0) + np.eye(n), n) > 0.0
            free = [(i, j) for i, j in edge_pairs(n) if w[i, j] == 0.0 and reach[i, j]]
            if signed and free and draw(st.integers(0, 2)) == 0:
                i, j = draw(st.sampled_from(free))
                b = np.zeros(n)
                b[i], b[j] = 1.0, -1.0
                r_eff = b @ np.linalg.pinv(laplacian(w)) @ b
                w[i, j] = w[j, i] = -draw(st.floats(0.1, 0.8)) / r_eff
            segments.append((t0, t0 + h, w))
            t0 += h
        is_periodic = draw(st.booleans()) if periodic is None else periodic
        return WeightSchedule(segments, periodic=is_periodic)

    return schedules()


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


def reference_simulate(sched, x0_values, t_end, sample_dt, noise=None):
    """(grid, states) from one exact spectral step per sample interval,
    each split at the noise breakpoints inside it."""
    import math

    x0_values = np.asarray(x0_values, dtype=float)
    n_steps = int(math.floor(t_end / sample_dt + 1e-9))
    base = sample_dt * np.arange(n_steps + 1)
    anchors = [0.0, t_end] + [tb for _, tb, _ in sched.pieces(0.0, t_end)[:-1]]
    grid = reference_merge_grid(anchors, base, tol=1e-6 * sample_dt)
    noisy = noise is not None
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
                k = np.searchsorted(noise.breakpoints, (u0 + u1) / 2.0, side="right") - 1
                c += (u1 - u0) * _reference_phi1(z) * (q.T @ noise.values[k])
        states[step + 1] = q @ c
    return grid, states


def per_piece_simulate(sched, x0, t_end, sample_dt, noise=None):
    """``simulate``'s states from one pass per constant sub-piece: the
    samples in (u0, u1] and the state at u1 in one elementwise block, then
    one matrix product for the samples.  The same operations per entry as
    the three-pass kernel, so its states must agree bit for bit."""
    import math

    from consensuslab.dynamics import _merge_grid, _phi1

    x0 = np.asarray(x0, dtype=float)
    n_steps = int(math.floor(t_end / sample_dt + 1e-9))
    base = sample_dt * np.arange(n_steps + 1)
    pieces = sched.pieces(0.0, t_end)
    anchors = [0.0, t_end] + [tb for _, tb, _ in pieces[:-1]]
    grid = _merge_grid(anchors, base, tol=1e-6 * sample_dt)
    if pieces and pieces[-1][1] < grid[-1]:
        ta, _, k = pieces[-1]
        pieces[-1] = (ta, float(grid[-1]), k)
    if noise is None and np.ptp(x0) == 0.0:
        return np.tile(x0, (grid.size, 1))
    states = np.empty((grid.size, x0.size))
    states[0] = x0
    if noise is not None:
        breaks, rows = noise.breakpoints, noise.values
        first = np.searchsorted(breaks, [ta for ta, _, _ in pieces], side="right")
        last = np.searchsorted(breaks, [tb for _, tb, _ in pieces], side="left")
    x = x0
    for p, (ta, tb, k) in enumerate(pieces):
        lam, q = sched.spectrum(k)
        c = q.T @ x
        cuts = [ta, tb] if noise is None else [ta, *breaks[first[p]:last[p]], tb]
        bounds = np.searchsorted(grid, cuts, side="right")
        for i, (u0, u1) in enumerate(zip(cuts[:-1], cuts[1:])):
            tau = np.append(grid[bounds[i]:bounds[i + 1]] - u0, u1 - u0)
            z = -lam * tau[:, None]
            coords = np.exp(z) * c
            if noise is not None:
                w = rows[min(max(first[p] - 1 + i, 0), rows.shape[0] - 1)]
                coords += tau[:, None] * _phi1(z) * (q.T @ w)
            states[bounds[i]:bounds[i + 1]] = coords[:-1] @ q.T
            c = coords[-1]
        x = q @ c
    return states


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
        s = t0 + noise.zeta * len(out)  # the declared grid t0 + k * zeta
    return out


def reference_windowed_random(node_count, zeta, energy_bound, seed, t_end,
                              steps_per_window=4, margin=0.05):
    """The values of ``NoiseProcess.windowed_random``, drawn and scaled one
    window at a time."""
    rng = np.random.default_rng(seed)
    step = zeta / steps_per_window
    target = energy_bound * (1.0 - margin)
    rows = []
    for _ in range(max(1, math.ceil(t_end / zeta))):
        block = rng.standard_normal((steps_per_window, node_count))
        energy = float(np.sum(block * block)) * step
        scale = math.sqrt(target / energy) if energy > 0.0 and target > 0.0 else 0.0
        rows.append(block * scale)
    return np.vstack(rows)


def reference_csv_text(header, times, values):
    """CSV text with every value written by an f-string at 17 digits."""
    lines = [header + "\n"]
    for t, row in zip(times, values):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def uncached_piece_factors(sched, k, h):
    """``observability._piece_factors`` with no cache: every piece built afresh."""
    from consensuslab.observability import _gramian_increment, _projected_flow

    lam, q = sched.spectrum(k)
    return q - q.mean(axis=0), _gramian_increment(lam, q, h), _projected_flow(lam, q, h)


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


def threshold_edges(sched, delta, T, s):
    """Edges (i, j), i < j, of the threshold graph of the window [s, s + T]."""
    acc = integrated_weights(sched, s, T)
    return {(i, j) for i, j in edge_pairs(sched.node_count) if acc[i, j] >= delta}


def reference_window(sched, delta, T, s):
    """Evidence of the window [s, s + T], recomputed on its own: one
    integral, its threshold graph and a plain breadth-first search from
    node 0 that visits one level at a time, each new node taking as parent
    the lowest linked node of the level before."""
    n = sched.node_count
    edges = threshold_edges(sched, delta, T, s)
    parent, level = {0: None}, [0]
    while level:
        nxt = []
        for v in sorted(set(range(n)) - set(parent)):
            linked = [u for u in level if (min(u, v), max(u, v)) in edges]
            if linked:
                parent[v] = linked[0]
                nxt.append(v)
        level = nxt
    connected = len(parent) == n
    if connected:
        witness = tuple(parent[v] for v in range(1, n))
    else:
        witness = tuple(sorted(parent))
    return WindowEvidence(start=float(s), edge_count=len(edges), connected=connected,
                          witness=witness)


def check_certificate(sched, delta, T, cert):
    """Check a certificate.json dict against the schedule alone, with
    integrated_weights and plain Python: each window's edge count, each
    parent vector (the parents of nodes 2..N, whose N - 1 edges are
    threshold edges that reach all N nodes) and each cut (node 1 and not
    every node, no threshold edge leaving it), and the verdict and
    counterexample these windows give."""
    assert (cert["delta"], cert["T"]) == (delta, T)
    n = sched.node_count
    nodes = set(range(1, n + 1))
    failing = []
    for w in cert["windows"]:
        acc = integrated_weights(sched, w["start"], T).tolist()
        edges = {(i, j) for i in nodes for j in nodes if i < j and acc[i - 1][j - 1] >= delta}
        assert w["edge_count"] == len(edges)
        if w["connected"]:
            assert sorted(w) == ["connected", "edge_count", "parent", "start"]
            assert len(w["parent"]) == n - 1
            tree = [(min(c, p), max(c, p)) for c, p in zip(range(2, n + 1), w["parent"])]
            assert set(tree) <= edges
            reached, grown = {1}, True
            while grown:
                grown = False
                for i, j in tree:
                    if (i in reached) != (j in reached):
                        reached |= {i, j}
                        grown = True
            assert reached == nodes
        else:
            assert sorted(w) == ["connected", "cut", "edge_count", "start"]
            cut = set(w["cut"])
            assert w["cut"] == sorted(cut) and 1 in cut and cut < nodes
            assert not any((i in cut) != (j in cut) for i, j in edges)
            failing.append(w["start"])
    assert cert["verdict"] == ("not_connected" if failing else "connected")
    assert cert["counterexample_window"] == (failing[0] if failing else None)


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
    graph contains the graph of no listed window, each recomputed from the
    window's start alone.  An exact certificate leaves none: a start whose
    graph contains a connected window's graph contains its tree, so it is
    connected."""
    listed = [threshold_edges(sched, delta, T, w.start) for w in cert.windows]
    out = []
    for s in scan_starts(sched, T) if starts is None else starts:
        edges = threshold_edges(sched, delta, T, s)
        if not any(g <= edges for g in listed):
            out.append(float(s))
    return out


def reference_uniform_bounds(sched, delta_obs, starts=None):
    """alpha1/alpha2 of a dense scan, one eigvalsh call per start of
    ``starts`` (default :func:`scan_starts`); the certificate fields are
    None, so compare the first four fields."""
    n = sched.node_count
    shift = np.ones((n, n)) / n
    alpha1, alpha2, worst = np.inf, -np.inf, 0.0
    for s in scan_starts(sched, delta_obs) if starts is None else starts:
        lap = laplacian(integrated_weights(sched, s, delta_obs))
        eigs = np.linalg.eigvalsh(lap + delta_obs * shift)
        if eigs[0] < alpha1:
            alpha1, worst = float(eigs[0]), float(s)
        alpha2 = max(alpha2, float(eigs[-1]))
    return UniformBounds(alpha1=alpha1, alpha2=alpha2, worst_window_start=worst,
                         observable=bool(alpha1 > 1e-10), gramian_floor=None,
                         certified_rate=None)


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
