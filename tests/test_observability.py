import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from consensuslab import (
    ConfigurationError,
    EdgeSignalTrace,
    NegativeLinkError,
    Trajectory,
    UnobservableWindowError,
    WeightSchedule,
    check_joint_connectivity,
    edge_signals,
    gramian,
    incidence,
    integrated_weights,
    laplacian,
    negative_link_assumption_holds,
    read_edge_signals_csv,
    reconstruct,
    simulate,
    transition_matrix,
    uniform_bounds_check,
)
from consensuslab.observability import POSITIVE_TOL, _simpson
from helpers import (
    alternating_schedule,
    dense_starts,
    empty_schedule,
    five_node_schedule,
    isolated_schedule,
    k2_schedule,
    k3_schedule,
    nla_schedules,
    quarter_grid_cases,
    random_periodic_schedule,
    random_weights,
    reference_uniform_bounds,
    signed_triangle_adversarial,
    signed_triangle_symmetric,
    union_find_connected,
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

    def test_signed_edges_carry_the_weight_magnitude(self):
        # H is the incidence of |a_ij|: each edge reads sqrt(|a_ij|) (x_j - x_i)
        sched = signed_triangle_adversarial(horizon=1.0)
        traj = simulate(sched, [1.52, 1.54, -3.06], 1.0, 0.25)
        trace = edge_signals(traj, sched)
        w = sched.segments[0].weights
        expected = np.column_stack([np.sqrt(abs(w[i, j])) * (traj.states[:, j] - traj.states[:, i])
                                    for i, j in trace.edge_order])
        assert np.abs(trace.signals - expected).max() <= 1e-14
        assert np.abs(trace.signals[0] - [0.02 * np.sqrt(3.8), -4.58 * np.sqrt(0.6),
                                          -4.6 * np.sqrt(0.4)]).max() <= 1e-14

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

    def test_run_just_past_a_nonperiodic_horizon_keeps_its_last_sample(self):
        # t_end is 5e-8 past the horizon, inside its tolerance: the last
        # segment carries the trace, like the run, to the final sample
        sched = WeightSchedule([(0.0, 50.0, weights(3, (0, 1, 1.0))),
                                (50.0, 100.0, weights(3, (1, 2, 1.0)))])
        traj = simulate(sched, [1.0, 0.0, -1.0], 100.0 + 5e-8, 0.01)
        trace = edge_signals(traj, sched)
        assert traj.sample_times.size == 10002
        assert trace.sample_times.size == 10003  # every sample, and t = 50 twice
        assert trace.sample_times[-1] == traj.sample_times[-1] == 100.0 + 5e-8
        assert np.abs(trace.signals[-1] - traj.states[-1] @ sched.incidence(1)).max() <= 1e-15

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

    def test_equality_is_identity(self, tmp_path):
        # array fields: a field-wise == would ask numpy for one truth value
        sched = five_node_schedule()
        trace = edge_signals(simulate(sched, np.arange(5.0), 3.0, 0.25), sched)
        path = tmp_path / "z.csv"
        trace.write_csv(path)
        back = read_edge_signals_csv(path)
        assert trace == trace
        assert not trace == back and trace != back


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
        with pytest.raises(ConfigurationError):
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

    def test_flow_and_gramian_satisfy_the_energy_identity(self):
        # d/dt |y|^2 = -2 y'Ly, so over every window Phi'Phi = P (I - 2W) P
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(n=st.integers(2, 6), periodic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
               lengths=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4),
               start=st.floats(0.0, 0.9), share=st.floats(0.01, 1.0))
        def check(n, periodic, seed, lengths, start, share):
            rng = np.random.default_rng(seed)
            cuts = np.concatenate(([0.0], np.cumsum(lengths)))
            sched = WeightSchedule([(a, b, random_weights(rng, n, bound=3.0))
                                    for a, b in zip(cuts[:-1], cuts[1:])], periodic=periodic)
            span = 3.0 * sched.horizon if periodic else sched.horizon
            s = start * span
            delta = share * (span - s)
            phi = transition_matrix("projected", sched, s, s + delta).entries
            w = gramian(sched, s, delta).entries
            p = np.eye(n) - np.full((n, n), 1.0 / n)
            rhs = p @ (np.eye(n) - 2.0 * w) @ p
            assert np.abs(phi.T @ phi - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())

        check()


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

    def test_verdict_uses_the_fixed_tolerance(self):
        with pytest.raises(TypeError):
            uniform_bounds_check(k2_schedule(), 1.0, 0.5)
        for sched in (k2_schedule(), empty_schedule(3, horizon=5.0)):
            ub = uniform_bounds_check(sched, 1.0)
            assert ub.observable == (ub.alpha1 > POSITIVE_TOL)

    def test_empty_graph(self):
        ub = uniform_bounds_check(empty_schedule(3, horizon=5.0), 1.0)
        assert abs(ub.alpha1) < 1e-14
        assert ub.alpha2 == pytest.approx(1.0, abs=1e-12)
        assert not ub.observable

    def test_alternating_positive(self):
        ub = uniform_bounds_check(alternating_schedule(), 2.0)
        assert ub.alpha1 > 0.0
        assert ub.observable

    def test_signed_triangle_certified_rate(self):
        # alpha1 = 5 * 0.2 and Lambda = 3 at delta = 5; the true rate is 0.2
        ub = uniform_bounds_check(signed_triangle_symmetric(), 5.0)
        assert ub.gramian_floor == pytest.approx(1.0 / (1.0 + 15.0 / np.sqrt(2.0)) ** 2, rel=1e-12)
        assert 0.0 < ub.certified_rate <= 0.2
        assert ub.certified_rate == pytest.approx(0.001496, abs=5e-7)

    def test_certificate_needs_observability_and_the_assumption(self):
        indefinite = WeightSchedule([(0.0, 10.0, weights(2, (0, 1, -1.0)))])
        disconnected = WeightSchedule([(0.0, 10.0, np.zeros((3, 3)))])
        # observable, as the window integral of the pair is 1, yet its
        # second segment breaks the Negative-Link Assumption
        mixed = WeightSchedule([(0.0, 1.0, weights(2, (0, 1, 2.0))),
                                (1.0, 2.0, weights(2, (0, 1, -1.0)))], periodic=True)
        for sched, observable in ((indefinite, False), (disconnected, False), (mixed, True)):
            ub = uniform_bounds_check(sched, 2.0)
            assert ub.observable == observable
            assert ub.gramian_floor is None and ub.certified_rate is None

    def test_doubling_weights_does_not_decrease_alpha1(self):
        for sched in (k3_schedule(), alternating_schedule()):
            a1 = uniform_bounds_check(sched, 2.0).alpha1
            doubled = WeightSchedule(
                [(s.t_start, s.t_end, 2.0 * s.weights) for s in sched.segments],
                periodic=sched.periodic)
            a2 = uniform_bounds_check(doubled, 2.0).alpha1
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

    def test_observable_iff_monodromy_contracts(self):
        # the theorem: uniform complete observability over one period holds
        # exactly when the projected monodromy has spectral radius below 1
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(sched=nla_schedules(periodic=True))
        def check(sched):
            period = sched.period
            monodromy = transition_matrix("projected", sched, 0.0, period).entries
            rho = np.abs(np.linalg.eigvals(monodromy)).max()
            assert uniform_bounds_check(sched, period).observable == (rho < 1.0 - 1e-9)

        check()

    def test_nonnegative_verdicts_agree_with_connectivity(self):
        # on nonnegative periodic schedules two graph verdicts join the two
        # above: the union graph of the edges with a positive integral over a
        # period, and the (delta, P) certificate with delta half the smallest
        # such integral (at the integral itself a window's interpolated
        # integral can land an ulp under delta)
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings

        seen = set()

        @settings(max_examples=150, derandomize=True, database=None, deadline=None)
        @given(sched=nla_schedules(periodic=True, signed=False))
        def check(sched):
            period, n = sched.period, sched.node_count
            monodromy = transition_matrix("projected", sched, 0.0, period).entries
            integrals = integrated_weights(sched, 0.0, period)
            positive = integrals[integrals > 0.0]
            delta = positive.min() / 2.0 if positive.size else 1.0
            verdicts = {np.abs(np.linalg.eigvals(monodromy)).max() < 1.0 - 1e-9,
                        uniform_bounds_check(sched, period).observable,
                        union_find_connected(n, integrals),
                        check_joint_connectivity(sched, delta, period).connected}
            assert len(verdicts) == 1
            seen.update(verdicts)

        check()
        assert seen == {True, False}


class TestCertifiedRate:
    def test_floor_bounds_every_window_gramian(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(sched=nla_schedules(), data=st.data())
        def check(sched, data):
            span = 2.0 if sched.periodic else 1.0
            delta = data.draw(st.floats(0.2, span)) * sched.horizon
            floor = uniform_bounds_check(sched, delta).gramian_floor
            if floor is None:
                return
            last = 2.0 * sched.horizon if sched.periodic else 0.999 * (sched.horizon - delta)
            for s in data.draw(st.lists(st.floats(0.0, last), min_size=1, max_size=10)):
                assert floor <= gramian(sched, s, delta).lambda_min

        check()

    def test_certified_rate_is_below_the_floquet_rate(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(sched=nla_schedules(periodic=True), scale=st.floats(0.2, 2.0))
        def check(sched, scale):
            rate = uniform_bounds_check(sched, scale * sched.period).certified_rate
            if rate is None:
                return
            monodromy = transition_matrix("projected", sched, 0.0, sched.period).entries
            rho = np.abs(np.linalg.eigvals(monodromy)).max()
            assert 0.0 < rate <= -np.log(rho) / sched.period

        check()


def signed_psd_weights(rng, n):
    """Random weights with one negative edge that keeps the Laplacian PSD.

    A positive path through a random node order, random positive extras,
    and -u / R_eff on the pair two steps apart on the path, where R_eff is
    that pair's effective resistance in the positive graph and u < 0.8:
    L = L+ - c b b' stays PSD for c R_eff <= 1."""
    order = rng.permutation(n)
    w = np.triu(rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < 0.4), 1)
    w = w + w.T
    for a, b in zip(order[:-1], order[1:]):
        w[a, b] = w[b, a] = rng.uniform(0.2, 1.0)
    i, j = order[0], order[2]
    w[i, j] = w[j, i] = 0.0
    b = np.zeros(n)
    b[i], b[j] = 1.0, -1.0
    r_eff = b @ np.linalg.pinv(laplacian(w)) @ b
    w[i, j] = w[j, i] = -rng.uniform(0.1, 0.8) / r_eff
    return w


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

    @pytest.mark.parametrize("cond_tol", [-1.0, 0.0, np.nan])
    def test_cond_tol_must_be_positive(self, cond_tol):
        # a cutoff at or below zero would invert the isolated node's singular Gramian
        sched = isolated_schedule(horizon=10.0)
        trace = edge_signals(simulate(sched, [0.3, -0.7, 0.4], 5.0, 0.01), sched)
        with pytest.raises(ValueError, match="cond_tol must be positive"):
            reconstruct(trace, sched, 0.0, 5.0, cond_tol=cond_tol)

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

    def test_signed_roundtrip_is_fourth_order(self):
        # the golden signed triangle (Laplacian eigenvalues 0, 0.2, 7.8) over [0, 1]
        sched = signed_triangle_adversarial()
        errors = []
        for dt in (0.02, 0.01, 0.005):
            traj = simulate(sched, [1.52, 1.54, -3.06], 1.0, dt)
            est = reconstruct(edge_signals(traj, sched), sched, 0.0, 1.0)
            errors.append(float(np.linalg.norm(est - (traj.states[0] - traj.states[0].mean()))))
        assert errors[0] < 5e-5 and errors[-1] < 2e-7, errors
        assert errors[0] / errors[1] >= 12.0 and errors[1] / errors[2] >= 12.0, errors

    def test_signed_roundtrip_on_random_periodic_schedules(self):
        # one period [P, 2P] of schedules that keep every L_k positive semidefinite
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, database=None, deadline=None)
        @given(n=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
               lengths=st.lists(st.floats(0.25, 1.0), min_size=2, max_size=4))
        def check(n, seed, lengths):
            rng = np.random.default_rng(seed)
            cuts = np.concatenate(([0.0], np.cumsum(lengths)))
            sched = WeightSchedule([(a, b, signed_psd_weights(rng, n))
                                    for a, b in zip(cuts[:-1], cuts[1:])], periodic=True)
            assert negative_link_assumption_holds(sched)
            period = sched.period
            x0 = rng.standard_normal(n)
            traj = simulate(sched, x0, 2.0 * period, 0.005)
            est = reconstruct(edge_signals(traj, sched), sched, period, period)
            truth = transition_matrix("projected", sched, 0.0, period).entries @ (x0 - x0.mean())
            assert np.linalg.norm(est - truth) <= 1e-6 * np.linalg.norm(truth)

        check()

    def test_estimate_is_zero_mean(self):
        sched = five_node_schedule()
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(5) + 2.0
        traj = simulate(sched, x0, 6.0, 1.0 / 128)
        trace = edge_signals(traj, sched)
        est = reconstruct(trace, sched, 2.0, 4.0)
        assert abs(est.mean()) < 1e-12


def test_window_outcome_is_the_same_on_the_grid_and_on_the_trace():
    # validate checks reconstruct windows on the run's sample grid; the trace
    # a run writes differs from it only by repeated boundary rows
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from consensuslab.dynamics import _sample_grid
    from consensuslab.errors import ConsensusLabError
    from consensuslab.observability import _trace_rows, _window_nodes

    lengths = st.lists(st.floats(0.05, 1.0) | st.floats(1e-10, 5e-7), min_size=1, max_size=5)

    def pick(data, dt, cuts, lo, hi):
        """A time in [lo, hi]: a sample, a boundary or any time, maybe nudged."""
        kind = data.draw(st.sampled_from(["sample", "sample", "boundary", "boundary", "any"]))
        first, last = int(np.ceil(lo / dt)), int(hi // dt)
        if kind == "sample" and first <= last:
            t = dt * data.draw(st.integers(first, last))
        elif kind == "boundary" and any(lo <= c <= hi for c in cuts):
            t = data.draw(st.sampled_from([c for c in cuts if lo <= c <= hi]))
        else:
            t = data.draw(st.floats(lo, hi))
        return t + data.draw(st.sampled_from([0.0] * 4 + [1e-13, -1e-13, 1e-8 * dt, -1e-8 * dt]))

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data(), lengths=lengths, periodic=st.booleans(), signed=st.booleans(),
           dt=st.sampled_from([1.0 / 128, 0.01, 0.05, 0.25]) | st.floats(1.0 / 128, 0.5))
    def check(data, lengths, periodic, signed, dt):
        if sum(lengths) < 0.05:  # a horizon of 0.05 or more bounds the piece count
            lengths = [*lengths, 0.05]
        cuts = np.concatenate(([0.0], np.cumsum(lengths)))
        w = np.array([[0.0, 1.0, -0.2 if signed else 0.4], [1.0, 0.0, 0.7],
                      [-0.2 if signed else 0.4, 0.7, 0.0]])
        sched = WeightSchedule([(a, b, w if k % 2 else w[::-1, ::-1])
                                for k, (a, b) in enumerate(zip(cuts[:-1], cuts[1:]))],
                               periodic=periodic)
        boundaries = [float(c) for c in cuts]
        if periodic:
            boundaries += [c + sched.period for c in boundaries[1:]]
        t_end = pick(data, dt, boundaries, 0.0, 2.5 * sched.period if periodic else sched.horizon)
        if t_end <= 0.0:
            return
        if not periodic:
            t_end = min(t_end, sched.horizon)
        grid = _sample_grid(sched, t_end, dt)[0]
        trace = _trace_rows(sched, grid)[1]
        s = min(max(0.0, pick(data, dt, boundaries, 0.0, t_end)), t_end)
        end = pick(data, dt, boundaries, s, t_end)
        if end <= s:
            return
        outcomes = []
        for times in (grid, trace):
            try:
                outcomes.append([(ta, tb, k, hi - lo, nodes)
                                 for ta, tb, k, lo, hi, nodes in
                                 _window_nodes(times, sched, s, end - s)])
            except ConsensusLabError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        on_grid, on_trace = outcomes
        if isinstance(on_grid, str) or isinstance(on_trace, str):
            assert on_grid == on_trace
        else:
            assert [p[:4] for p in on_grid] == [p[:4] for p in on_trace]
            assert all(np.array_equal(a[4], b[4]) for a, b in zip(on_grid, on_trace))

    check()


def _read_header(header):
    """read_edge_signals_csv of a one-row file under ``header``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(f"{header}\n0.0,1.0\n")
        return read_edge_signals_csv(path)


# (call, exception class, message fragment) of each refusal no other test reaches
REFUSALS = {
    "trace-lengths": (lambda: EdgeSignalTrace([0.0, 1.0], [[0.0]], [(0, 1)]), ValueError,
                      "sample_times and signals must have matching lengths"),
    "trace-width": (lambda: EdgeSignalTrace([0.0, 1.0], np.zeros((2, 2)), [(0, 1)]), ValueError,
                    "signal width must match the edge order"),
    "signals-node-count": (lambda: edge_signals(simulate(k2_schedule(), [1.0, -1.0], 1.0, 0.5),
                                                k3_schedule()),
                           ConfigurationError, "trajectory and schedule node counts differ"),
    "bounds-delta-obs": (lambda: uniform_bounds_check(k2_schedule(), 0.0), ValueError,
                         "delta_obs must be positive"),
    "reconstruct-delta": (lambda: reconstruct(
        edge_signals(simulate(k2_schedule(), [1.0, -1.0], 1.0, 0.5), k2_schedule()),
        k2_schedule(), 0.0, 0.0), ValueError, "delta must be positive"),
    # x is finite, but x_2 - x_1 is beyond the float range in the first row
    "signals-overflow": (lambda: edge_signals(
        Trajectory([0.0, 0.5], [[1e308, -1e308], [1e307, -1e307]]), k2_schedule()),
        ValueError, "the edge signals overflow: not finite at t = 0.0"),
    "header-three-indices": (lambda: _read_header("t,z_1_2_3"), ConfigurationError,
                             "edge signal column 'z_1_2_3' is not z_<i>_<j>"),
    "header-letters": (lambda: _read_header("t,z_a_b"), ConfigurationError,
                       "edge signal column 'z_a_b' is not z_<i>_<j>"),
    "header-of-a-trajectory": (lambda: _read_header("t,x1"), ConfigurationError,
                               "edge signal column 'x1' is not z_<i>_<j>"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
