import numpy as np
import pytest

from consensuslab import (
    ConfigurationError,
    EdgeSignalTrace,
    NegativeLinkError,
    SignedGraphError,
    UnobservableWindowError,
    WeightSchedule,
    check_joint_connectivity,
    edge_signals,
    gramian,
    incidence,
    laplacian,
    read_edge_signals_csv,
    reconstruct,
    simulate,
    uniform_bounds_check,
)
from consensuslab.observability import _simpson
from helpers import (
    alternating_schedule,
    dense_starts,
    empty_schedule,
    five_node_schedule,
    isolated_schedule,
    k2_schedule,
    k3_schedule,
    quarter_grid_cases,
    random_periodic_schedule,
    reference_uniform_bounds,
    signed_triangle_symmetric,
    weights,
)


class TestEdgeSignals:
    def test_consensus_state_gives_zero(self):
        traj = simulate(alternating_schedule(), np.full(3, 1.7), 4.0, 0.5)
        trace = edge_signals(traj, alternating_schedule())
        assert np.abs(trace.signals).max() == 0.0

    def test_k2_weight_four(self):
        sched = k2_schedule(weight=4.0, horizon=1.0)
        traj = simulate(sched, [1.0, -1.0], 1.0, 0.5)
        trace = edge_signals(traj, sched)
        # z = sqrt(4) * (x_2 - x_1) = -4 at t = 0
        assert trace.signals[0, 0] == pytest.approx(-4.0, abs=1e-12)

    def test_p3_by_column_structure(self):
        sched = empty_schedule(3, horizon=1.0)
        sched = type(sched)([(0.0, 1.0, weights(3, (0, 1, 1.0), (1, 2, 1.0)))])
        traj = simulate(sched, [1.0, 0.0, -1.0], 1.0, 1.0)
        trace = edge_signals(traj, sched)
        assert np.allclose(trace.signals[0], [-1.0, 0.0, -1.0], atol=1e-12)
        assert trace.edge_order == ((0, 1), (0, 2), (1, 2))

    def test_signed_schedule_rejected(self):
        sched = signed_triangle_symmetric(horizon=1.0)
        traj = simulate(sched, [1.0, 0.0, -1.0], 1.0, 0.5)
        with pytest.raises(SignedGraphError):
            edge_signals(traj, sched)

    def test_boundary_rows_hold_both_limits(self):
        sched = alternating_schedule()
        traj = simulate(sched, [1.0, 0.0, -1.0], 2.0, 0.25)
        trace = edge_signals(traj, sched)
        at_boundary = np.nonzero(np.abs(trace.sample_times - 1.0) < 1e-12)[0]
        assert at_boundary.size == 2
        left, right = trace.signals[at_boundary]
        x = traj.states[traj.index_at(1.0)]
        assert left[0] == pytest.approx(x[1] - x[0], abs=1e-12)   # edge {1,2} active before
        assert left[2] == 0.0
        assert right[2] == pytest.approx(x[2] - x[1], abs=1e-12)  # edge {2,3} active after
        assert right[0] == 0.0

    def test_csv_roundtrip(self, tmp_path):
        sched = five_node_schedule()
        traj = simulate(sched, np.arange(5.0), 3.0, 0.25)
        trace = edge_signals(traj, sched)
        path = tmp_path / "z.csv"
        trace.write_csv(path)
        back = read_edge_signals_csv(path)
        assert back.edge_order == trace.edge_order
        assert np.array_equal(back.sample_times, trace.sample_times)
        assert np.array_equal(back.signals, trace.signals)
        header = path.read_text().splitlines()[0]
        assert header.startswith("t,z_1_2,z_1_3,z_1_4,z_1_5,z_2_3")


class TestGramian:
    def test_short_window_taylor_limit(self):
        # W = delta * D D' + O(delta^2)
        sched = k2_schedule()
        delta = 1e-4
        g = gramian(sched, 0.0, delta)
        ddt = laplacian(sched.segments[0].weights) + np.ones((2, 2)) / 2  # D D' = L + J
        assert np.abs(g.entries - delta * ddt).max() < 1e-6

    def test_disconnected_direction_in_kernel(self):
        g = gramian(isolated_schedule(horizon=10.0), 0.0, 5.0)
        assert g.lambda_min < 1e-8
        # (1, 1, -2)/sqrt(6) separates node 3 and is invariant: zero quadratic form
        v = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        assert abs(v @ g.entries @ v) < 1e-10

    def test_constant_k3_closed_form(self):
        # commuting constant case: on the consensus direction the integrand is
        # exp(-2t), on its complement 3 exp(-6t); integrals over [0, 1]:
        g = gramian(k3_schedule(), 0.0, 1.0)
        lam_consensus = (1.0 - np.exp(-2.0)) / 2.0
        lam_disagreement = (1.0 - np.exp(-6.0)) / 2.0
        assert g.lambda_min > 0.1
        assert g.lambda_min == pytest.approx(lam_consensus, abs=1e-9)
        assert g.lambda_max == pytest.approx(lam_disagreement, abs=1e-9)

    def test_brute_force_quadrature_oracle(self):
        # independent oracle: trapezoid at step 1e-4 with explicit expm
        sched = k3_schedule()
        lam, q = np.linalg.eigh(laplacian(sched.segments[0].weights) + np.ones((3, 3)) / 3)
        ts = np.linspace(0.0, 1.0, 10001)
        vals = np.empty((ts.size, 3, 3))
        ddt = (q * lam) @ q.T
        for j, t in enumerate(ts):
            phi = (q * np.exp(-lam * t)) @ q.T
            vals[j] = phi.T @ ddt @ phi
        w_oracle = np.trapezoid(vals, x=ts, axis=0)
        g = gramian(sched, 0.0, 1.0)
        assert np.abs(g.entries - w_oracle).max() < 1e-7

    def test_window_outside_horizon(self):
        from consensuslab import HorizonError

        with pytest.raises(HorizonError):
            gramian(k2_schedule(horizon=5.0), 3.0, 4.0)

    def test_negative_link_violation_raises(self):
        # a_23 = -1 gives L the eigenvalue -1: L + 11'/N has no real factor D
        sched = WeightSchedule(
            [(0.0, 2.0, weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0)))]
        )
        with pytest.raises(NegativeLinkError) as err:
            gramian(sched, 0.0, 1.0)
        assert err.value.eigenvalue == pytest.approx(-1.0, abs=1e-12)
        # a signed schedule that keeps L PSD is accepted
        assert gramian(signed_triangle_symmetric(horizon=2.0), 0.0, 1.0).lambda_min > 0.0

    def test_psd_on_random_windows(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            sched = random_periodic_schedule(rng, segments=2)
            s = float(rng.uniform(0.0, 2.0))
            delta = float(rng.uniform(0.5, 3.0))
            g = gramian(sched, s, delta)
            assert g.lambda_min >= -1e-10
            n = sched.node_count
            assert g.lambda_max <= delta * (2 * (n - 1) * sched.weight_bound + 1.0) + 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 65])
def test_simpson_matches_reference(n):
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.05, 1.0, n))
    y = np.column_stack([np.exp(np.sin(x)), 1.0 + x * x, rng.uniform(0.5, 2.0, n)])
    ref = integrate.simpson(y, x=x, axis=0)
    assert np.all(np.abs(_simpson(y, x) - ref) <= 1e-14 * np.abs(ref))


class TestUniformBounds:
    def test_constant_k2(self):
        ub = uniform_bounds_check(k2_schedule(), 1.0)
        # eigenvalues of [[1.5, -.5], [-.5, 1.5]] are {1, 2}
        assert ub.alpha1 == pytest.approx(1.0, abs=1e-12)
        assert ub.alpha2 == pytest.approx(2.0, abs=1e-12)
        assert ub.observable

    def test_tolerance_is_keyword_only(self):
        with pytest.raises(TypeError):
            uniform_bounds_check(k2_schedule(), 1.0, 0.5)
        assert not uniform_bounds_check(k2_schedule(), 1.0, positive_tol=1.5).observable

    def test_empty_graph(self):
        ub = uniform_bounds_check(empty_schedule(3, horizon=5.0), 1.0)
        assert abs(ub.alpha1) < 1e-14
        assert ub.alpha2 == pytest.approx(1.0, abs=1e-12)
        assert not ub.observable

    def test_alternating_positive(self):
        ub = uniform_bounds_check(alternating_schedule(), 2.0)
        assert ub.alpha1 > 0.0
        assert ub.observable

    def test_doubling_weights_does_not_decrease_alpha1(self):
        for sched in (k3_schedule(), alternating_schedule()):
            a1 = uniform_bounds_check(sched, 2.0).alpha1
            a2 = uniform_bounds_check(sched.scaled(2.0), 2.0).alpha1
            assert a2 >= a1 - 1e-12

    def test_incidence_route_matches_laplacian_route(self):
        # the two factorization routes must agree exactly on window integrals
        rng = np.random.default_rng(33)
        for _ in range(20):
            sched = random_periodic_schedule(rng, segments=2)
            n = sched.node_count
            delta = float(rng.uniform(0.5, 3.0))
            s = float(rng.uniform(0.0, 2.0))
            from_incidence = np.zeros((n, n))
            from_laplacian = np.zeros((n, n))
            for ta, tb, k in sched.pieces(s, s + delta):
                h = incidence(sched.segments[k].weights).entries
                d = np.hstack([h, np.ones((n, 1)) / np.sqrt(n)])
                from_incidence += (tb - ta) * (d @ d.T)
                from_laplacian += (tb - ta) * (
                    laplacian(sched.segments[k].weights) + np.ones((n, n)) / n
                )
            assert np.abs(from_incidence - from_laplacian).max() < 1e-10


    def test_bounds_are_the_extremes_over_every_start(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        @given(data=st.data())
        def check(data):
            sched, T, _ = data.draw(quarter_grid_cases())
            bounds = uniform_bounds_check(sched, T)
            # the quarter grid holds every kink; the dense starts lie between
            span = sched.period if sched.periodic else sched.horizon - T + 0.125
            at_kinks = reference_uniform_bounds(sched, T, np.arange(0.0, span, 0.25))
            dense = reference_uniform_bounds(sched, T, dense_starts(sched, T))
            tol = 1e-12 * max(1.0, bounds.alpha2)
            assert abs(bounds.alpha1 - at_kinks.alpha1) <= tol
            assert abs(bounds.alpha2 - at_kinks.alpha2) <= tol
            assert bounds.alpha1 <= dense.alpha1 + tol and bounds.alpha2 >= dense.alpha2 - tol

        check()


class TestConnectivityObservabilityEquivalence:
    def test_alpha1_positive_iff_jointly_connected(self):
        # seeded family, half with a permanently isolated node; zero mismatches
        rng = np.random.default_rng(77)
        mismatches = 0
        for trial in range(20):
            sched = random_periodic_schedule(
                rng, segments=2, density=0.55, isolate_node=(trial % 2 == 1)
            )
            period = sched.period
            ub = uniform_bounds_check(sched, period)
            connected_somewhere = any(
                check_joint_connectivity(sched, delta, T).connected
                for T in (period, 2.0 * period)
                for delta in (1e-3, 1e-2, 0.1)
            )
            if (ub.alpha1 > 1e-10) != connected_somewhere:
                mismatches += 1
        assert mismatches == 0


class TestReconstruct:
    def test_zero_signal_gives_zero_estimate(self):
        sched = alternating_schedule()
        traj = simulate(sched, np.full(3, 2.0), 4.0, 0.05)
        trace = edge_signals(traj, sched)
        est = reconstruct(trace, sched, 0.0, 4.0)
        assert np.abs(est).max() < 1e-12

    def test_k2_roundtrip(self):
        sched = k2_schedule()
        traj = simulate(sched, [1.0, -1.0], 1.0, 1.0 / 256)
        trace = edge_signals(traj, sched)
        est = reconstruct(trace, sched, 0.0, 1.0)
        assert np.abs(est - [1.0, -1.0]).max() < 1e-6

    def test_five_node_roundtrip_and_order(self):
        sched = five_node_schedule()
        rng = np.random.default_rng(777)
        x0 = rng.standard_normal(5)

        def run(dt):
            traj = simulate(sched, x0, 6.0, dt)
            trace = edge_signals(traj, sched)
            est = reconstruct(trace, sched, 2.0, 4.0)
            truth = traj.states[traj.index_at(2.0)] - float(np.mean(x0))
            return float(np.linalg.norm(est - truth))

        err_default = run(1.0 / 128)
        err_halved = run(1.0 / 256)
        assert err_default < 1e-5
        assert err_default / err_halved >= 8.0

    def test_shift_blindness(self):
        sched = five_node_schedule()
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(5)
        estimates = []
        for shift in (0.0, 3.5):
            traj = simulate(sched, x0 + shift, 6.0, 1.0 / 128)
            trace = edge_signals(traj, sched)
            estimates.append(reconstruct(trace, sched, 2.0, 4.0))
        assert np.abs(estimates[0] - estimates[1]).max() < 1e-9

    def test_unobservable_window_raises(self):
        sched = isolated_schedule(horizon=10.0)
        traj = simulate(sched, [0.3, -0.7, 0.4], 5.0, 0.01)
        trace = edge_signals(traj, sched)
        with pytest.raises(UnobservableWindowError) as err:
            reconstruct(trace, sched, 0.0, 5.0)
        assert err.value.lambda_min < 1e-8

    def test_edge_order_mismatch(self):
        sched = k2_schedule()
        traj = simulate(sched, [1.0, -1.0], 1.0, 0.01)
        trace = edge_signals(traj, sched)
        scrambled = EdgeSignalTrace(trace.sample_times, trace.signals, ((1, 0),))
        with pytest.raises(ConfigurationError, match="edge order"):
            reconstruct(scrambled, sched, 0.0, 1.0)

    def test_trace_must_cover_window(self):
        sched = alternating_schedule()
        traj = simulate(sched, [1.0, 0.0, -1.0], 2.0, 0.05)
        trace = edge_signals(traj, sched)
        with pytest.raises(ConfigurationError):
            reconstruct(trace, sched, 0.0, 4.0)

    def test_estimate_is_zero_mean(self):
        sched = five_node_schedule()
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(5) + 2.0
        traj = simulate(sched, x0, 6.0, 1.0 / 128)
        trace = edge_signals(traj, sched)
        est = reconstruct(trace, sched, 2.0, 4.0)
        assert abs(est.mean()) < 1e-12
