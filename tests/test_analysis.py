import re
import tracemalloc

import numpy as np
import pytest

from consensuslab import (
    NoiseProcess,
    Trajectory,
    WeightSchedule,
    consensus_error,
    fit_exponential_rate,
    laplacian,
    max_state_difference,
    robustness_report,
    simulate,
)
from helpers import (
    alternating_schedule,
    isolated_schedule,
    k2_schedule,
    k3_schedule,
    p3_schedule,
    signed_triangle_adversarial,
    signed_triangle_symmetric,
    weights,
)


class TestConsensusError:
    def test_consensus_trajectory(self):
        # zero up to the floating-point error of the mean itself
        traj = simulate(alternating_schedule(), np.full(3, 0.4), 4.0, 0.5)
        assert np.abs(consensus_error(traj)).max() < 1e-15

    def test_k2_closed_form(self):
        traj = simulate(k2_schedule(), [1.0, -1.0], 5.0, 0.01)
        expected = np.exp(-2.0 * traj.sample_times)
        assert np.abs(consensus_error(traj) - expected).max() < 1e-9

    def test_frozen_disconnected_pair(self):
        sched = WeightSchedule([(0.0, 10.0, np.zeros((2, 2)))])
        traj = simulate(sched, [1.0, -1.0], 10.0, 0.5)
        assert np.all(consensus_error(traj) == 1.0)

    def test_holds_one_table_sized_temporary(self):
        # the deviations from the mean are taken absolute in place
        rng = np.random.default_rng(3)
        traj = Trajectory(np.arange(4001) / 20.0, rng.standard_normal((4001, 100)))
        expected = np.abs(traj.states - traj.states.mean(axis=1, keepdims=True)).max(axis=1)
        tracemalloc.start()
        try:
            e = consensus_error(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(e, expected)
        assert peak <= 1.25 * traj.states.nbytes, peak / traj.states.nbytes

    def test_consensus_start_stays(self):
        traj = simulate(signed_triangle_symmetric(), np.full(3, 1.0), 10.0, 0.1)
        assert np.abs(traj.states - 1.0).max() == 0.0


class TestRateFit:
    def test_k2(self):
        traj = simulate(k2_schedule(), [1.0, -1.0], 10.0, 0.01)
        fit = fit_exponential_rate(traj)
        assert fit.alpha == pytest.approx(2.0, abs=1e-6)
        assert fit.beta == pytest.approx(1.0, abs=1e-6)
        assert fit.converged

    def test_k3_rate_equals_lambda2(self):
        traj = simulate(k3_schedule(), [1.0, 0.0, -1.0], 8.0, 0.01)
        fit = fit_exponential_rate(traj)
        assert fit.alpha == pytest.approx(3.0, abs=1e-6)

    def test_disconnected_is_flagged_not_raised(self):
        traj = simulate(isolated_schedule(), [0.0, 0.0, 1.0], 50.0, 0.1)
        fit = fit_exponential_rate(traj)
        assert abs(fit.alpha) < 1e-9
        assert not fit.converged

    def test_prefactor_is_none_from_a_start_at_the_floor(self):
        # noise drives the error up from a consensus start, where e(t0) = 0
        noise = NoiseProcess.windowed_random(3, 1.0, 1.0, seed=31337, t_end=20.0)
        traj = simulate(alternating_schedule(), np.zeros(3), 20.0, 0.05, noise=noise)
        fit = fit_exponential_rate(traj)
        assert consensus_error(traj)[0] == 0.0 and fit.beta is None

    def test_too_few_samples_above_floor(self):
        traj = simulate(k2_schedule(), [1.0, 1.0], 5.0, 0.1)  # e(t) == 0
        with pytest.raises(ValueError, match="floor"):
            fit_exponential_rate(traj)

    @pytest.mark.parametrize("row,first", [(0, 0.0), (7, 0.7)])
    def test_non_finite_trajectory_is_refused_with_its_own_error(self, row, first):
        # inf - mean is nan: the fit names the sample, with no numpy warning
        # (pytest's filterwarnings turns one into an error)
        states = np.tile([1.0, -1.0], (20, 1)) * np.exp(-np.arange(20.0))[:, None]
        states[row:] = [np.inf, 0.0]
        traj = Trajectory(0.1 * np.arange(20), states)
        with pytest.raises(ValueError, match=re.escape(
                f"the consensus error is not finite at t = {first}")):
            fit_exponential_rate(traj)

    def test_constant_graph_rate_and_prefactor(self):
        # projected dynamics of a constant graph decay at lambda2; seeding the
        # slow eigendirection makes the envelope exact with prefactor 1
        for sched in (k3_schedule(), p3_schedule()):
            lap = laplacian(sched.segments[0].weights)
            lam, vecs = np.linalg.eigh(lap)
            x0 = vecs[:, 1]
            traj = simulate(sched, x0, 8.0, 0.01)
            fit = fit_exponential_rate(traj)
            assert fit.alpha == pytest.approx(lam[1], abs=1e-5)
            assert 1.0 - 1e-5 <= fit.beta <= np.sqrt(sched.node_count)

    def test_rate_scales_with_weights(self):
        base = k3_schedule()
        lap = laplacian(base.segments[0].weights)
        x0 = np.linalg.eigh(lap)[1][:, 1]
        alpha1 = fit_exponential_rate(simulate(base, x0, 6.0, 0.01)).alpha
        doubled = WeightSchedule([(s.t_start, s.t_end, 2.0 * s.weights) for s in base.segments])
        alpha2 = fit_exponential_rate(simulate(doubled, x0, 3.0, 0.005)).alpha
        assert alpha2 == pytest.approx(2.0 * alpha1, abs=1e-5)

    def test_switched_fit_on_period_grid(self):
        rng = np.random.default_rng(1)
        traj = simulate(alternating_schedule(), rng.standard_normal(3), 40.0, 0.02)
        fit = fit_exponential_rate(traj, skip_time=2.0, fit_dt=2.0)
        assert fit.converged
        assert fit.residual < 1e-3

    def test_switched_rate_matches_monodromy(self):
        from consensuslab import transition_matrix

        sched = alternating_schedule()
        rng = np.random.default_rng(1)
        traj = simulate(sched, rng.standard_normal(3), 40.0, 0.02)
        fit = fit_exponential_rate(traj, skip_time=2.0, fit_dt=2.0)
        monodromy = transition_matrix("projected", sched, 0.0, 2.0).entries
        rho = np.sort(np.abs(np.linalg.eigvals(monodromy)))[-1]
        assert fit.alpha == pytest.approx(-np.log(rho) / 2.0, abs=1e-6)

    def test_fit_grid_is_tested_in_time_units(self):
        # a huge fit_dt has one multiple, t0, in the run: no grid to fit on
        traj = simulate(alternating_schedule(), [1.0, 0.0, -2.0], 20.0, 0.1)
        assert fit_exponential_rate(traj).sample_count > 2
        with pytest.raises(ValueError, match="fit window is empty"):
            fit_exponential_rate(traj, fit_dt=1e300)
        for fit_dt in (float("inf"), float("nan"), 0.0, -2.0):
            with pytest.raises(ValueError, match="fit_dt must be positive and finite"):
                fit_exponential_rate(traj, fit_dt=fit_dt)

    def test_fit_dt_within_the_grid_tolerance_keeps_every_sample(self):
        # multiples of a fit_dt at most twice the tolerance 1e-9 * 20 lie
        # within it of every time; 5e-324 overflows off / fit_dt
        traj = simulate(alternating_schedule(), [1.0, 0.0, -2.0], 20.0, 0.1)
        plain = fit_exponential_rate(traj, skip_time=1.0)
        for fit_dt in (5e-324, 1e-12, 3e-8):
            assert fit_exponential_rate(traj, skip_time=1.0, fit_dt=fit_dt) == plain
        coarse = fit_exponential_rate(traj, skip_time=1.0, fit_dt=0.2)
        assert coarse.sample_count < plain.sample_count


class TestRobustness:
    def test_zero_noise(self):
        rep = robustness_report(alternating_schedule(), None, 10.0)
        assert rep.sup_error == 0.0

    def test_bounded_and_reproducible_under_seeded_noise(self):
        sched = alternating_schedule()
        noise = NoiseProcess.windowed_random(3, 1.0, 1.0, seed=31337, t_end=50.0)
        rep1 = robustness_report(sched, noise, 50.0)
        noise2 = NoiseProcess.windowed_random(3, 1.0, 1.0, seed=31337, t_end=50.0)
        rep2 = robustness_report(sched, noise2, 50.0)
        assert np.isfinite(rep1.sup_error) and rep1.sup_error < 100.0
        assert abs(rep1.sup_error - rep2.sup_error) < 1e-9

    def test_disconnected_error_grows_linearly(self):
        sched = isolated_schedule(horizon=50.0)
        noise = NoiseProcess.table(
            [0.0, 1.0, 50.0],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.9]],
            zeta=1.0,
            energy_bound=1.0,
        )
        rep = robustness_report(sched, noise, 50.0)
        e5 = rep.errors[np.argmin(np.abs(rep.sample_times - 5.0))]
        e50 = rep.errors[np.argmin(np.abs(rep.sample_times - 50.0))]
        assert e50 > 10.0 * e5

    def test_family_of_admissible_noises_stays_bounded(self):
        sched = alternating_schedule()
        sups = []
        for seed in range(20):
            noise = NoiseProcess.windowed_random(3, 1.0, 1.0, seed=seed, t_end=30.0)
            sups.append(robustness_report(sched, noise, 30.0).sup_error)
        sups = np.asarray(sups)
        assert np.all(sups < 3.0 * np.median(sups))


class TestNecessityDeskForm:
    def test_disconnected_schedules_do_not_converge(self):
        rng = np.random.default_rng(55)
        for _ in range(3):
            w1 = weights(4, (1, 2, float(rng.uniform(0.5, 1.0))))
            w2 = weights(4, (2, 3, float(rng.uniform(0.5, 1.0))))
            sched = WeightSchedule([(0.0, 1.0, w1), (1.0, 2.0, w2)], periodic=True)
            from consensuslab import check_joint_connectivity

            for T in (5.0, 20.0):
                assert not check_joint_connectivity(sched, 0.01, T).connected
            x0 = rng.standard_normal(4)
            traj = simulate(sched, x0, 40.0, 0.05)
            fit = fit_exponential_rate(traj, fit_dt=2.0)
            assert fit.alpha <= 1e-3


class TestMaxStateDifference:
    def test_nonnegative_never_increases(self):
        rng = np.random.default_rng(2)
        for sched in (k3_schedule(), alternating_schedule()):
            for _ in range(5):
                traj = simulate(sched, rng.standard_normal(3), 10.0, 0.05)
                d = max_state_difference(traj)
                assert np.all(np.diff(d) <= 1e-10)

    def test_signed_transient_increase_while_error_decays(self):
        traj = simulate(signed_triangle_adversarial(), [1.52, 1.54, -3.06], 60.0, 0.02)
        d = max_state_difference(traj)
        e = consensus_error(traj)
        both = (np.diff(d) > 1e-12) & (np.diff(e) < -1e-12)
        assert both.any()
        assert e[-1] < 1e-3  # consensus still reached

    def test_consensus_trajectory_is_flat(self):
        traj = simulate(k3_schedule(), np.full(3, -0.3), 5.0, 0.5)
        assert np.all(max_state_difference(traj) == 0.0)
