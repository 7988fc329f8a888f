import json
import re

import numpy as np
import pytest

from consensuslab import (
    ConfigurationError,
    NoiseProcess,
    WeightSchedule,
    WindowEvidence,
    check_joint_connectivity,
    edge_pairs,
    gramian,
    incidence,
    integrated_weights,
    laplacian,
    load_schedule,
    negative_link_assumption_holds,
    schedule_from_dict,
    simulate,
    transition_matrix,
    window_starts,
)
from helpers import (
    alternating_schedule,
    check_certificate,
    dense_starts,
    five_node_schedule,
    isolated_schedule,
    k2_schedule,
    k3_schedule,
    quarter_grid_cases,
    random_weights,
    reference_connectivity,
    reference_window,
    signed_triangle_symmetric,
    uncovered_starts,
    union_find_connected,
    weights,
)


class TestLaplacian:
    def test_single_edge(self):
        assert np.array_equal(laplacian(weights(2, (0, 1, 1.0))), [[1, -1], [-1, 1]])

    def test_k3_unit(self):
        w = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(
            laplacian(w), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_signed_triangle_matrix_and_spectrum(self):
        w = weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4))
        lap = laplacian(w)
        assert np.allclose(lap, [[2, -1, -1], [-1, 0.6, 0.4], [-1, 0.4, 0.6]])
        eigs = np.linalg.eigvalsh(lap)
        assert np.allclose(eigs, [0.0, 0.2, 3.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError):
            laplacian([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ConfigurationError):
            laplacian([[1.0, 1.0], [1.0, 0.0]])


class TestIncidence:
    def test_single_edge_weight_four(self):
        h = incidence(weights(2, (0, 1, 4.0)))
        assert h.entries.shape == (2, 1)
        assert np.array_equal(h.entries[:, 0], [-2.0, 2.0])

    def test_empty_graph(self):
        h = incidence(np.zeros((3, 3)))
        assert h.entries.shape == (3, 3)
        assert np.all(h.entries == 0.0)
        assert h.edge_order == ((0, 1), (0, 2), (1, 2))

    def test_p3_columns_and_factorization(self):
        w = weights(3, (0, 1, 1.0), (1, 2, 1.0))
        h = incidence(w)
        assert np.array_equal(h.entries[:, 0], [-1, 1, 0])
        assert np.array_equal(h.entries[:, 1], [0, 0, 0])
        assert np.array_equal(h.entries[:, 2], [0, -1, 1])
        assert np.abs(h.entries @ h.entries.T - laplacian(w)).max() < 1e-15

    def test_negative_weight_redirects(self):
        with pytest.raises(ConfigurationError, match="nonnegative weights"):
            incidence(weights(2, (0, 1, -1.0)))

    def test_factorization_and_connectivity_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            bound = float(rng.uniform(0.5, 3.0))
            w = random_weights(rng, n, bound=bound)
            h = incidence(w)
            lap = laplacian(w)
            assert np.abs(h.entries @ h.entries.T - lap).max() < 1e-12 * n * bound
            eigs = np.linalg.eigvalsh(lap)
            assert eigs[0] > -1e-12 * n * bound
            # lambda2 > 0 exactly when the positive-edge graph is connected
            assert (eigs[1] > 1e-9) == union_find_connected(n, w)


class TestIntegration:
    def test_constant_window(self):
        acc = laplacian(integrated_weights(k2_schedule(), 0.0, 2.0))
        assert np.allclose(acc, [[2, -2], [-2, 2]], atol=1e-14)

    def test_alternating_overlap(self):
        # hand overlap: a_12 on [0.5,1)+[2,2.5) = 1.0, a_23 on [1,2) = 1.0
        acc = integrated_weights(alternating_schedule(), 0.5, 2.0)
        assert acc[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert acc[1, 2] == pytest.approx(1.0, abs=1e-12)
        assert acc[0, 2] == 0.0

    def test_zero_length_window(self):
        assert np.all(laplacian(integrated_weights(k2_schedule(), 1.0, 0.0)) == 0.0)

    def test_additive_over_adjacent_windows(self):
        sched = alternating_schedule()
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = float(rng.uniform(0.0, 4.0))
            t1 = float(rng.uniform(0.1, 3.0))
            t2 = float(rng.uniform(0.1, 3.0))
            lhs = (laplacian(integrated_weights(sched, s, t1))
                   + laplacian(integrated_weights(sched, s + t1, t2)))
            rhs = laplacian(integrated_weights(sched, s, t1 + t2))
            assert np.abs(lhs - rhs).max() < 1e-12 * 3 * (t1 + t2)

    def test_window_beyond_horizon(self):
        with pytest.raises(ConfigurationError):
            integrated_weights(k2_schedule(horizon=5.0), 4.0, 2.0)


class TestJointConnectivity:
    def test_constant_k3(self):
        cert = check_joint_connectivity(k3_schedule(), 0.5, 1.0)
        assert cert.connected
        assert cert.counterexample_window is None
        # every window holds all three edges; the search from node 0 reaches both others
        assert all(w.edge_count == 3 and w.witness == (0, 0) for w in cert.windows)
        check_certificate(k3_schedule(), 0.5, 1.0, cert.as_dict())

    def test_alternating_certificate(self):
        cert = check_joint_connectivity(alternating_schedule(), 1.0, 2.0)
        assert cert.verdict == "connected"
        # every window accrues exactly 1.0 per edge: its two edges are its tree
        for w in cert.windows:
            assert w.connected and w.edge_count == 2 and w.witness == (0, 1)
        check_certificate(alternating_schedule(), 1.0, 2.0, cert.as_dict())

    def test_isolated_node(self):
        cert = check_joint_connectivity(isolated_schedule(), 0.01, 20.0)
        assert cert.verdict == "not_connected"
        assert cert.counterexample_window is not None

    def test_monotone_in_delta(self):
        sched = alternating_schedule()
        for delta in (1.0, 0.5, 0.1, 0.01):
            assert check_joint_connectivity(sched, delta, 2.0).connected

    def test_window_starts_keep_every_kink(self):
        # edge (1,2) is on during [0, 0.05) of each period 2 and edge (2,3)
        # always: every window of length 1.92 starting in (0.01, 0.12) has
        # less than 0.04 of (1,2); the kinks 0.05 and 0.08 lie inside that run
        sched = WeightSchedule([(0.0, 0.05, weights(3, (0, 1, 1.0), (1, 2, 1.0))),
                                (0.05, 2.0, weights(3, (1, 2, 1.0)))], periodic=True)
        assert np.allclose(window_starts(sched, 1.92), [0.0, 0.05, 0.08, 0.13], rtol=0, atol=1e-12)
        cert = check_joint_connectivity(sched, 0.04, 1.92)
        assert cert.verdict == "not_connected"
        assert cert.counterexample_window == pytest.approx(0.03)  # the middle of (0.01, 0.05)
        check_certificate(sched, 0.04, 1.92, cert.as_dict())

    @pytest.mark.parametrize("delta", [0.52, 0.51, 0.505])
    def test_two_edges_absent_together_between_kinks(self, delta):
        # (1,2) on [0, 1.03), (1,3) on [1.03, 2.06), (2,3) always, T = 1: on
        # the kink interval [0.03, 1.03] the integral of (1,2) falls below
        # delta at 1.03 - delta before the one of (1,3) rises above it at
        # delta + 0.03, so node 1 is isolated in between; the same happens
        # on [1.06, 2.06], the interval that wraps to the next period
        sched = WeightSchedule([(0.0, 1.03, weights(3, (0, 1, 1.0), (1, 2, 1.0))),
                                (1.03, 2.06, weights(3, (0, 2, 1.0), (1, 2, 1.0)))],
                               periodic=True)
        cert = check_joint_connectivity(sched, delta, 1.0)
        assert cert.verdict == "not_connected" == reference_connectivity(sched, delta, 1.0)
        first, second = [w.start for w in cert.windows if not w.connected]
        assert cert.counterexample_window == first and 1.03 - delta < first < delta + 0.03
        assert 2.06 - delta < second < delta + 1.06
        for s in (first, second):
            # the cut {node 0} and one edge: that edge is (1, 2)
            assert reference_window(sched, delta, 1.0, s) == WindowEvidence(s, 1, False, (0,))
        check_certificate(sched, delta, 1.0, cert.as_dict())

    def test_verdict_matches_a_dense_scan(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(data=st.data())
        def check(data):
            sched, T, delta = data.draw(quarter_grid_cases())
            cert = check_joint_connectivity(sched, delta, T)
            # the integrals stay 1/192 or more from delta on this scan, so
            # no example sits on a rounding-level tie
            assert cert.verdict == reference_connectivity(sched, delta, T, dense_starts(sched, T))
            for w in cert.windows:
                assert w == reference_window(sched, delta, T, w.start)
            check_certificate(sched, delta, T, cert.as_dict())
            assert uncovered_starts(sched, delta, T, cert, dense_starts(sched, T)) == []

        check()

    def test_window_longer_than_horizon(self):
        with pytest.raises(ConfigurationError):
            check_joint_connectivity(k2_schedule(horizon=5.0), 0.1, 6.0)


class TestNegativeLinkAssumption:
    def test_nonnegative_schedule(self):
        report = negative_link_assumption_holds(k3_schedule())
        assert report.holds and report.worst_eigenvalue > -1e-12

    def test_signed_triangle_boundary(self):
        report = negative_link_assumption_holds(signed_triangle_symmetric())
        assert report.holds
        assert abs(report.worst_eigenvalue) < 1e-10

    def test_negative_pair_fails(self):
        sched = WeightSchedule([(0.0, 1.0, weights(2, (0, 1, -1.0)))])
        report = negative_link_assumption_holds(sched)
        assert not report.holds
        assert report.worst_eigenvalue == pytest.approx(-2.0, abs=1e-12)
        assert report.segment_index == 0


class TestWeightSchedule:
    def test_rejects_gap(self):
        with pytest.raises(ConfigurationError):
            WeightSchedule([
                (0.0, 1.0, weights(2, (0, 1, 1.0))),
                (1.5, 2.0, weights(2, (0, 1, 1.0))),
            ])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ConfigurationError):
            WeightSchedule([(1.0, 2.0, weights(2, (0, 1, 1.0)))])

    def test_rejects_empty_segment(self):
        with pytest.raises(ConfigurationError):
            WeightSchedule([(0.0, 0.0, weights(2, (0, 1, 1.0)))])

    def test_rejects_bound_violation(self):
        with pytest.raises(ConfigurationError):
            WeightSchedule([(0.0, 1.0, weights(2, (0, 1, 2.0)))], weight_bound=1.0)

    def test_periodic_pieces_unwrap(self):
        sched = alternating_schedule()
        pieces = sched.pieces(0.5, 4.5)
        assert [(round(a, 6), round(b, 6), k) for a, b, k in pieces] == [
            (0.5, 1.0, 0), (1.0, 2.0, 1), (2.0, 3.0, 0), (3.0, 4.0, 1), (4.0, 4.5, 0),
        ]
        total = sum(b - a for a, b, _ in pieces)
        assert total == pytest.approx(4.0, abs=1e-12)

    def test_pieces_match_the_periodic_twin_inside_the_horizon(self):
        # a non-periodic schedule walks [t0, t1] exactly as its periodic twin
        # does while the window stays inside [0, horizon], and refuses to leave it
        rng = np.random.default_rng(2024)
        for _ in range(200):
            ends = np.cumsum(rng.uniform(0.05, 2.0, int(rng.integers(1, 6))))
            starts = np.concatenate(([0.0], ends[:-1]))
            segs = [(a, b, random_weights(rng, 3)) for a, b in zip(starts, ends)]
            sched, twin = WeightSchedule(segs), WeightSchedule(segs, periodic=True)
            h = sched.horizon
            points = np.concatenate((rng.uniform(0.0, h, 8), starts, [h]))
            for _ in range(20):
                t0, t1 = sorted(rng.choice(points, 2))
                assert sched.pieces(t0, t1) == twin.pieces(t0, t1)
            with pytest.raises(ConfigurationError):
                sched.pieces(rng.uniform(0.0, h), h + 1e-6 * max(1.0, h))
            with pytest.raises(ConfigurationError):
                sched.pieces(h + 1.0, h + 2.0)

    def test_incidence_is_cached_and_read_only(self):
        sched = five_node_schedule()
        for k, seg in enumerate(sched.segments):
            h = sched.incidence(k)
            assert sched.incidence(k) is h
            assert np.array_equal(h, incidence(seg.weights).entries)
            with pytest.raises(ValueError):
                h[0, 0] = 1.0
        # signed: H is the incidence of |w|, and H S H' = L with S the edge signs
        w = signed_triangle_symmetric().segments[0].weights
        sched = WeightSchedule([(0.0, 1.0, w), (1.0, 2.0, -w)])
        for k, seg in enumerate(sched.segments):
            h = sched.incidence(k)
            assert sched.incidence(k) is h
            assert np.array_equal(h, incidence(np.abs(seg.weights)).entries)
            signs = np.sign([seg.weights[i, j] for i, j in edge_pairs(3)])
            assert np.abs((h * signs) @ h.T - laplacian(seg.weights)).max() <= 1e-12
            with pytest.raises(ValueError):
                h[0, 0] = 1.0

    def test_right_continuous_lookup(self):
        sched = alternating_schedule()
        assert sched.segment_index_at(1.0) == 1
        assert sched.segment_index_at(2.0) == 0
        assert sched.segment_index_at(0.999999) == 0


class TestScheduleFiles:
    def test_roundtrip(self, tmp_path):
        sched = alternating_schedule()
        path = tmp_path / "sched.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"nodes": 3, "periodic": True, "period": 2.0, "name": "x", "segments": [
                {"t0": 0.0, "t1": 1.0, "edges": [{"i": 1, "j": 2, "w": 1.0}]},
                {"t0": 1.0, "t1": 2.0, "edges": [{"i": 2, "j": 3, "w": 1.0}]}]}, fh)
        loaded = load_schedule(path)
        assert loaded.node_count == 3
        assert loaded.periodic
        assert loaded.period == 2.0
        for a, b in zip(loaded.segments, sched.segments):
            assert np.array_equal(a.weights, b.weights)

    def test_missing_nodes(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            schedule_from_dict({"segments": []})

    def test_rejects_bad_edge_order(self):
        base = {"nodes": 3, "segments": [{"t0": 0, "t1": 1, "edges": [{"i": 2, "j": 1, "w": 1.0}]}]}
        with pytest.raises(ConfigurationError, match="i < j"):
            schedule_from_dict(base)

    def test_rejects_self_loop(self):
        base = {"nodes": 3, "segments": [{"t0": 0, "t1": 1, "edges": [{"i": 2, "j": 2, "w": 1.0}]}]}
        with pytest.raises(ConfigurationError):
            schedule_from_dict(base)

    def test_rejects_duplicate_edge(self):
        base = {"nodes": 3, "segments": [{"t0": 0, "t1": 1, "edges": [
            {"i": 1, "j": 2, "w": 1.0}, {"i": 1, "j": 2, "w": 0.5}]}]}
        with pytest.raises(ConfigurationError, match="duplicate"):
            schedule_from_dict(base)

    def test_rejects_out_of_range(self):
        base = {"nodes": 3, "segments": [{"t0": 0, "t1": 1, "edges": [{"i": 1, "j": 4, "w": 1.0}]}]}
        with pytest.raises(ConfigurationError, match="out of range"):
            schedule_from_dict(base)

    def test_rejects_period_mismatch(self):
        base = {
            "nodes": 2, "periodic": True, "period": 3.0,
            "segments": [{"t0": 0, "t1": 2, "edges": [{"i": 1, "j": 2, "w": 1.0}]}],
        }
        with pytest.raises(ConfigurationError, match="period"):
            schedule_from_dict(base)

    def test_omitted_edges_are_zero(self):
        sched = schedule_from_dict({
            "nodes": 3,
            "segments": [{"t0": 0, "t1": 1, "edges": [{"i": 1, "j": 3, "w": 0.25}]}],
        })
        w = sched.segments[0].weights
        assert w[0, 2] == 0.25 and w[0, 1] == 0.0 and w[1, 2] == 0.0


def test_edge_pairs_order():
    assert edge_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_laplacian_annihilates_ones_both_sides():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lap = laplacian(random_weights(rng, n, bound=2.0))
        ones = np.ones(n)
        assert np.abs(lap @ ones).max() < 1e-13 * n
        assert np.abs(ones @ lap).max() < 1e-13 * n


NON_FINITE_CALLS = {
    "connectivity-delta": lambda s: check_joint_connectivity(s, np.nan, 1.0),
    "connectivity-T": lambda s: check_joint_connectivity(s, 0.5, np.nan),
    "gramian": lambda s: gramian(s, 0.0, np.nan),
    "integrated-weights": lambda s: integrated_weights(s, 0.0, np.nan),
    "transition-matrix": lambda s: transition_matrix("raw", s, 0.0, np.nan),
    "segment-index": lambda s: s.segment_index_at(np.nan),
    "pieces-inf": lambda s: s.pieces(0.0, np.inf),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_times_raise(name):
    sched = alternating_schedule()
    with pytest.raises(ValueError):
        NON_FINITE_CALLS[name](sched)


# lengths of time that are NaN or infinite, each refused with the class its
# call raises for any other bad value of that argument
NON_FINITE_LENGTHS = {
    "window-starts-nan": (ValueError, lambda s: window_starts(s, np.nan)),
    "window-starts-inf": (ValueError, lambda s: window_starts(s, np.inf)),
    "noise-bound-nan": (ConfigurationError,
                        lambda s: NoiseProcess([0.0, 1.0], [[0.1] * 3], 1.0, np.nan)),
    "noise-zeta-inf": (ConfigurationError,
                       lambda s: NoiseProcess([0.0, 1.0], [[0.1] * 3], np.inf, 1.0)),
    "random-noise-zeta-nan": (ConfigurationError,
                              lambda s: NoiseProcess.windowed_random(3, np.nan, 1.0, 0, 4.0)),
    "simulate-t-end-inf": (ValueError, lambda s: simulate(s, [1.0, 0.0, -1.0], np.inf, 0.1)),
    "simulate-t-end-nan": (ValueError, lambda s: simulate(s, [1.0, 0.0, -1.0], np.nan, 0.1)),
    "simulate-sample-dt-nan": (ValueError, lambda s: simulate(s, [1.0, 0.0, -1.0], 2.0, np.nan)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_LENGTHS))
def test_non_finite_lengths_raise(name):
    error, call = NON_FINITE_LENGTHS[name]
    with pytest.raises(error, match="finite"):
        call(alternating_schedule())


# (call, exception class, message fragment) of each refusal no other test reaches
REFUSALS = {
    "weights-not-square": (lambda: laplacian(np.zeros((2, 3))), ConfigurationError,
                           "must be square, got shape (2, 3)"),
    "weights-nan": (lambda: laplacian([[0.0, np.nan], [np.nan, 0.0]]), ConfigurationError,
                    "weights must be finite"),
    "no-segments": (lambda: WeightSchedule([]), ConfigurationError, "at least one segment"),
    "one-node": (lambda: WeightSchedule([(0.0, 1.0, [[0.0]])]), ConfigurationError,
                 "at least two nodes"),
    "node-counts-differ": (lambda: WeightSchedule([(0.0, 1.0, np.zeros((2, 2))),
                                                   (1.0, 2.0, np.zeros((3, 3)))]),
                           ConfigurationError, "share the node count"),
    "time-before-start": (lambda: alternating_schedule().segment_index_at(-0.5),
                          ConfigurationError, "time -0.5 is before the schedule start"),
    "window-reversed": (lambda: alternating_schedule().pieces(1.0, 0.5), ValueError,
                        "window end 0.5 precedes start 1.0"),
    "window-before-start": (lambda: alternating_schedule().pieces(-1.0, 0.5), ConfigurationError,
                            "window start -1.0 is before the schedule start"),
    "negative-duration": (lambda: integrated_weights(alternating_schedule(), 0.0, -1.0),
                          ValueError, "duration must be nonnegative"),
    # the values schedule_from_dict refuses, refused by the constructor itself
    "bound-inf": (lambda: _unit_edge_schedule(weight_bound=np.inf), ConfigurationError,
                  "'bound' must be a positive finite number, got inf"),
    "bound-nan": (lambda: _unit_edge_schedule(weight_bound=np.nan), ConfigurationError,
                  "'bound' must be a positive finite number, got nan"),
    "bound-zero": (lambda: _unit_edge_schedule(weight_bound=0), ConfigurationError,
                   "'bound' must be a positive finite number, got 0"),
    "periodic-string": (lambda: _unit_edge_schedule(periodic="false"), ConfigurationError,
                        "'periodic' must be true or false, got 'false'"),
    "t1-inf": (lambda: _unit_edge_schedule(t1=np.inf), ConfigurationError,
               "segment 0: 't0' and 't1' must be finite numbers"),
    "t0-string": (lambda: _unit_edge_schedule(t0="0.0"), ConfigurationError,
                  "segment 0: 't0' and 't1' must be finite numbers"),
    "t1-boolean": (lambda: _unit_edge_schedule(t1=True), ConfigurationError,
                   "segment 0: 't0' and 't1' must be finite numbers"),
}


def _unit_edge_schedule(t0=0.0, t1=1.0, **options):
    return WeightSchedule([(t0, t1, weights(2, (0, 1, 1.0)))], **options)


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_numpy_times_and_flags_are_accepted():
    sched = _unit_edge_schedule(np.int64(0), np.float32(2.0), periodic=np.bool_(True),
                                weight_bound=np.float64(1.5))
    assert (sched.horizon, sched.period, sched.periodic, sched.weight_bound) == (2.0, 2.0, True, 1.5)
