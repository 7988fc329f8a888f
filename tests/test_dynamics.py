import re

import numpy as np
import pytest

from consensuslab import (
    ConfigurationError,
    NoiseProcess,
    Trajectory,
    WeightSchedule,
    average_drift,
    incidence,
    laplacian,
    project,
    read_trajectory_csv,
    simulate,
    transition_matrix,
)
from helpers import (
    alternating_schedule,
    empty_schedule,
    five_node_schedule,
    k2_schedule,
    k3_schedule,
    random_weights,
    read_csv_text,
    weights,
)


class TestSimulate:
    def test_k2_closed_form(self):
        traj = simulate(k2_schedule(), [1.0, -1.0], 10.0, 0.01)
        expected = np.exp(-2.0 * traj.sample_times)
        assert np.abs(traj.states[:, 0] - expected).max() < 1e-9
        assert np.abs(traj.states[:, 1] + expected).max() < 1e-9

    def test_consensus_is_equilibrium(self):
        traj = simulate(alternating_schedule(), np.full(3, 2.5), 8.0, 0.1)
        assert np.abs(traj.states - 2.5).max() == 0.0

    def test_pure_integrator_under_noise(self):
        noise = NoiseProcess.table([0.0, 5.0], [[1.0, 0.0, 0.0]], zeta=1.0, energy_bound=1.0)
        traj = simulate(empty_schedule(3, horizon=5.0), [0.5, 0.0, 0.0], 5.0, 0.25, noise=noise)
        assert np.abs(traj.states[:, 0] - (0.5 + traj.sample_times)).max() < 1e-12
        assert np.abs(traj.states[:, 1:]).max() < 1e-12

    def test_horizon_shorter_than_the_piece_tolerance(self):
        # t_end 1e-13 is below the 1e-12 of WeightSchedule.pieces, which
        # returns no piece; the ten samples still follow the closed form
        traj = simulate(k2_schedule(), [1.0, -1.0], 1e-13, 1e-14)
        assert traj.sample_times.size == 11
        expected = np.exp(-2.0 * traj.sample_times)
        assert np.abs(traj.states[:, 0] - expected).max() < 1e-15
        assert np.abs(traj.states[:, 1] + expected).max() < 1e-15

    def test_samples_include_boundaries(self):
        traj = simulate(alternating_schedule(), [1.0, 0.0, -1.0], 4.0, 0.3)
        for boundary in (1.0, 2.0, 3.0):
            assert traj.index_at(boundary) is not None

    def test_noise_must_cover_horizon(self):
        noise = NoiseProcess.table([0.0, 2.0], [[0.1, 0.0]], zeta=1.0, energy_bound=1.0)
        with pytest.raises(ConfigurationError, match="cover"):
            simulate(k2_schedule(), [1.0, -1.0], 5.0, 0.1, noise=noise)

    def test_constant_noise_matches_closed_form(self):
        # K2 with weight a under constant noise w: the mean grows as
        # mean(w) t and d = x1 - x2 relaxes as
        # d0 e^{-2at} + (w1 - w2)(1 - e^{-2at}) / (2a); the phi_1 noise term
        # is exact, so only rounding separates the two
        a = 1.5
        sched = k2_schedule(weight=a, horizon=3.0)
        w = np.array([0.3, -0.1])
        noise = NoiseProcess.table([0.0, 3.0], [w], zeta=1.0, energy_bound=0.2)
        traj = simulate(sched, [1.0, -1.0], 3.0, 0.5, noise=noise)
        t = traj.sample_times
        decay = np.exp(-2.0 * a * t)
        d = 2.0 * decay + (w[0] - w[1]) * (1.0 - decay) / (2.0 * a)
        mean = w.mean() * t
        assert np.abs(traj.states[:, 0] - (mean + d / 2.0)).max() <= 1e-13
        assert np.abs(traj.states[:, 1] - (mean - d / 2.0)).max() <= 1e-13


class TestAverageDrift:
    def test_noiseless_conservation(self):
        rng = np.random.default_rng(0)
        for sched in (k2_schedule(), alternating_schedule(), five_node_schedule()):
            x0 = rng.standard_normal(sched.node_count)
            traj = simulate(sched, x0, 10.0, 0.05)
            assert average_drift(traj) < 1e-9

    def test_mean_zero_noise(self):
        noise = NoiseProcess.table(
            [0.0, 10.0], [[0.2, -0.3, 0.1]], zeta=1.0, energy_bound=0.2
        )
        traj = simulate(alternating_schedule(), [1.0, 0.0, -1.0], 10.0, 0.1, noise=noise)
        assert average_drift(traj) < 1e-6

    def test_single_node_noise_drifts_linearly(self):
        noise = NoiseProcess.table([0.0, 1.0], [[1.0, 0.0, 0.0]], zeta=1.0, energy_bound=1.0)
        traj = simulate(empty_schedule(3, horizon=1.0), [0.0, 0.0, 0.0], 1.0, 0.1, noise=noise)
        drift_at_end = abs(traj.states[-1].mean() - traj.states[0].mean())
        assert drift_at_end == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestTransitionMatrix:
    def test_identity_at_equal_times(self):
        tm = transition_matrix("raw", alternating_schedule(), 1.5, 1.5)
        assert np.array_equal(tm.entries, np.eye(3))

    def test_projected_at_equal_times_is_projector(self):
        tm = transition_matrix("projected", alternating_schedule(), 1.5, 1.5)
        assert np.allclose(tm.entries, np.eye(3) - np.ones((3, 3)) / 3)

    def test_raw_k2_spectral_formula(self):
        tm = transition_matrix("raw", k2_schedule(), 0.0, 1.0)
        e = np.exp(-2.0)
        expected = np.array([[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]])
        assert np.abs(tm.entries - expected).max() < 1e-14

    def test_projected_exponential_decay(self):
        # constant connected graph: disagreement decays at the spectral gap,
        # so ||Phi_proj(t,0)|| = exp(-lambda2 t) (= 3 for unit-weight K3)
        sched = k3_schedule(horizon=20.0)
        ts = np.arange(1.0, 11.0)
        norms = [np.linalg.norm(transition_matrix("projected", sched, 0.0, t).entries, 2)
                 for t in ts]
        slope = np.polyfit(ts, np.log(norms), 1)[0]
        assert slope == pytest.approx(-3.0, abs=1e-9)

    def test_semigroup_property(self):
        sched = five_node_schedule()
        rng = np.random.default_rng(9)
        for _ in range(10):
            s, u, t = np.sort(rng.uniform(0.0, 6.0, size=3))
            for system in ("raw", "projected"):
                full = transition_matrix(system, sched, s, t).entries
                split = (transition_matrix(system, sched, u, t).entries
                         @ transition_matrix(system, sched, s, u).entries)
                assert np.abs(full - split).max() < 1e-9

    def test_projection_identity(self):
        sched = alternating_schedule()
        n = 3
        proj = np.eye(n) - np.ones((n, n)) / n
        phi = transition_matrix("projected", sched, 0.5, 4.0).entries
        assert np.abs(phi @ proj - phi).max() < 1e-9

    def test_window_outside_horizon(self):
        with pytest.raises(ConfigurationError):
            transition_matrix("raw", k2_schedule(horizon=5.0), 2.0, 7.0)

    def test_projector_commutes_with_laplacian(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            lap = laplacian(random_weights(rng, n))
            proj = np.eye(n) - np.ones((n, n)) / n
            assert np.abs(proj @ lap - lap @ proj).max() < 1e-12


class TestProject:
    def test_annihilates_consensus(self):
        assert np.array_equal(project(np.full(4, 3.3)), np.zeros(4))

    def test_zero_mean_fixed_point(self):
        assert np.array_equal(project(np.array([1.0, -1.0])), [1.0, -1.0])

    def test_subtracts_mean(self):
        assert np.array_equal(project(np.array([3.0, 1.0, 2.0])), [1.0, -1.0, 0.0])


def _projected_drift(sched, k):
    """-(L_k + 11'/N), rebuilt from the schedule's cached spectrum."""
    lam, q = sched.spectrum(k)
    n = sched.node_count
    return -((q * lam) @ q.T + np.ones((n, n)) / n)


class TestProjectedSystem:
    def test_k2_drift(self):
        assert np.allclose(_projected_drift(k2_schedule(), 0),
                           -np.array([[1.5, -0.5], [-0.5, 1.5]]))

    def test_empty_graph_rank_one(self):
        drift = _projected_drift(empty_schedule(3), 0)
        assert np.allclose(drift, -np.ones((3, 3)) / 3)
        assert np.linalg.matrix_rank(drift) == 1

    def test_k3_spectrum(self):
        sched = k3_schedule()
        assert np.allclose(sched.spectrum(0)[0], [0.0, 3.0, 3.0])
        assert np.allclose(np.linalg.eigvalsh(-_projected_drift(sched, 0)), [1.0, 3.0, 3.0])

    def test_output_factor_identity(self):
        for sched in (k2_schedule(), five_node_schedule(), alternating_schedule()):
            n = sched.node_count
            for k, seg in enumerate(sched.segments):
                d = np.hstack([incidence(seg.weights).entries, np.ones((n, 1)) / np.sqrt(n)])
                assert np.abs(d @ d.T + _projected_drift(sched, k)).max() < 1e-10

    def test_signed_segment_uses_symmetric_root(self):
        sched = WeightSchedule(
            [(0.0, 1.0, weights(3, (0, 1, 1.0), (0, 2, 1.0), (1, 2, -0.4)))]
        )
        target = laplacian(sched.segments[0].weights) + np.ones((3, 3)) / 3
        assert np.abs(target + _projected_drift(sched, 0)).max() < 1e-10

    def test_spectrum_is_cached_and_read_only(self):
        sched = five_node_schedule()
        lam, q = sched.spectrum(1)
        assert sched.spectrum(1)[1] is q
        with pytest.raises(ValueError):
            q[0, 0] = 1.0
        assert np.abs((q * lam) @ q.T - laplacian(sched.segments[1].weights)).max() < 1e-12


class TestProjectedEquivalence:
    def test_projected_flow_matches_projected_trajectory(self):
        sched = alternating_schedule()
        rng = np.random.default_rng(12)
        x0 = rng.standard_normal(3)
        traj = simulate(sched, x0, 6.0, 0.5)
        y0 = project(x0)
        for idx, t in enumerate(traj.sample_times):
            phi = transition_matrix("projected", sched, 0.0, t).entries
            y_t = project(traj.states[idx])
            assert np.abs(phi @ y0 - y_t).max() < 1e-10
            assert np.linalg.norm(y_t) == pytest.approx(
                np.linalg.norm(traj.states[idx] - traj.states[idx].mean()), abs=1e-10
            )


class TestNoiseProcess:
    def test_windowed_random_energy_is_scaled(self):
        noise = NoiseProcess.windowed_random(3, zeta=1.0, energy_bound=1.0,
                                             seed=5, t_end=10.0)
        energies = noise.window_energies()
        assert len(energies) == 10
        assert np.allclose(energies, 0.95, atol=1e-12)

    def test_table_energy_violation(self):
        with pytest.raises(ConfigurationError, match="energy"):
            NoiseProcess.table([0.0, 1.0], [[2.0, 0.0]], zeta=1.0, energy_bound=1.0)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"), float("-inf")])
    def test_windowed_random_refuses_a_non_finite_horizon(self, t_end):
        with pytest.raises(ConfigurationError, match="t_end must be finite"):
            NoiseProcess.windowed_random(3, 1.0, 1.0, seed=0, t_end=t_end)

    @pytest.mark.parametrize("option,value,message", [
        ("margin", 1.0, "'margin' must lie in [0, 1), got 1.0"),
        ("margin", 1.5, "'margin' must lie in [0, 1), got 1.5"),
        ("margin", -0.1, "'margin' must lie in [0, 1), got -0.1"),
        ("margin", float("nan"), "'margin' must lie in [0, 1), got nan"),
        ("steps_per_window", 0, "'steps_per_window' must be a positive integer, got 0"),
        ("steps_per_window", 2.5, "'steps_per_window' must be a positive integer, got 2.5"),
        ("steps_per_window", True, "'steps_per_window' must be a positive integer, got True"),
    ], ids=["margin-one", "margin-above-one", "negative-margin", "nan-margin", "zero-steps",
            "fractional-steps", "boolean-steps"])
    def test_windowed_random_refuses_bad_options(self, option, value, message):
        # a margin of 1 or more once gave all-zero noise; a bad step count
        # once raised ZeroDivisionError or TypeError
        with pytest.raises(ConfigurationError) as info:
            NoiseProcess.windowed_random(3, 1.0, 1.0, 7, 5.0, **{option: value})
        assert str(info.value) == message

    def test_same_seed_reproducible(self):
        a = NoiseProcess.windowed_random(2, 1.0, 1.0, seed=7, t_end=5.0)
        b = NoiseProcess.windowed_random(2, 1.0, 1.0, seed=7, t_end=5.0)
        assert np.array_equal(a.values, b.values)


class TestTrajectoryCsv:
    def test_full_precision_roundtrip(self, tmp_path):
        traj = simulate(k2_schedule(), [1.0, -1.0], 2.0, 0.1)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.sample_times, traj.sample_times)
        assert np.array_equal(back.states, traj.states)

    def test_header(self, tmp_path):
        traj = simulate(k3_schedule(), [1.0, 0.0, -1.0], 1.0, 0.5)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,x1,x2,x3"

    def test_equality_is_identity(self, tmp_path):
        # array fields: a field-wise == would ask numpy for one truth value
        traj = simulate(k2_schedule(), [1.0, -1.0], 2.0, 0.1)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        back = read_trajectory_csv(path)
        assert traj == traj
        assert not traj == back and traj != back


def test_simulate_rejects_bad_initial_state():
    sched = k3_schedule()
    with pytest.raises(ValueError, match="finite"):
        simulate(sched, [1.0, np.inf, 0.0], 1.0, 0.1)
    with pytest.raises(ValueError, match="1-D"):
        simulate(sched, [[1.0, 0.0, -1.0]], 1.0, 0.1)
    with pytest.raises(ConfigurationError, match="2 entries for a 3-node"):
        simulate(sched, [1.0, -1.0], 1.0, 0.1)


def _read_trajectory(text):
    return read_csv_text(read_trajectory_csv, text)


# (call, exception class, message fragment) of each refusal no other test reaches
REFUSALS = {
    "trajectory-lengths": (lambda: Trajectory([0.0, 1.0], [[1.0, -1.0]]), ValueError,
                           "matching lengths"),
    "trajectory-empty": (lambda: Trajectory([], np.zeros((0, 2))), ValueError,
                         "at least one sample"),
    "trajectory-no-node": (lambda: Trajectory([0.0, 1.0], np.zeros((2, 0))), ValueError,
                           "at least one node"),
    "noise-shape": (lambda: NoiseProcess([0.0, 1.0, 2.0], [[0.1, 0.1]], 1.0, 1.0),
                    ConfigurationError, "noise values must have shape (2, 2), got (1, 2)"),
    "simulate-noise-nodes": (lambda: simulate(k3_schedule(), [1.0, 0.0, -1.0], 1.0, 0.5,
                                              noise=NoiseProcess([0.0, 1.0], [[0.1, 0.1]], 1.0, 1.0)),
                             ConfigurationError, "noise node count does not match"),
    # a bool or a string is not a time, though True > 0 and "0.1" converts to a float
    "simulate-t-end-bool": (lambda: simulate(k3_schedule(), [1.0, 0.0, -1.0], True, 0.1),
                            ValueError, "t_end must be positive and finite, got True"),
    "simulate-sample-dt-string": (lambda: simulate(k3_schedule(), [1.0, 0.0, -1.0], 1.0, "0.1"),
                                  ValueError, "sample_dt must be positive and finite, got 0.1"),
    "transition-system": (lambda: transition_matrix("signed", k2_schedule(), 0.0, 1.0),
                          ValueError, "must be 'raw' or 'projected', got 'signed'"),
    "transition-backwards": (lambda: transition_matrix("raw", k2_schedule(), 1.0, 0.5),
                             ValueError, "requires t >= s"),
    # numpy's loadtxt warns on the first two and raises its bare ValueError on the next two
    "csv-empty-file": (lambda: _read_trajectory(""), ConfigurationError,
                       "has no rows under its header"),
    "csv-header-only": (lambda: _read_trajectory("t,x1,x2\n"), ConfigurationError,
                        "has no rows under its header"),
    "csv-ragged-rows": (lambda: _read_trajectory("t,x1,x2\n0.0,1.0,2.0\n0.5,1.0\n"),
                        ConfigurationError,
                        "is not a table of numbers: the number of columns changed"),
    "csv-not-a-number": (lambda: _read_trajectory("t,x1,x2\n0.0,1.0,abc\n"), ConfigurationError,
                         "is not a table of numbers: could not convert string 'abc'"),
    # an edge-signal table of one edge, and a header narrower than its rows
    "csv-edge-header": (lambda: _read_trajectory("t,z_1_2\n0,1,2\n"), ConfigurationError,
                        "has the header 't,z_1_2', not a trajectory's 't,x1,x2'"),
    "csv-narrow-header": (lambda: _read_trajectory("t,x1\n0,1,2\n"), ConfigurationError,
                          "has the header 't,x1', not a trajectory's 't,x1,x2'"),
    # times that go down, and a time that is not a number
    "csv-times-decrease": (lambda: _read_trajectory("t,x1,x2\n1,0,1\n0,1,2\n"),
                           ConfigurationError, "is not a trajectory: sample_times must be finite"),
    "csv-time-nan": (lambda: _read_trajectory("t,x1,x2\n0,0,1\nnan,1,2\n"),
                     ConfigurationError, "is not a trajectory: sample_times must be finite"),
    # a column of times alone, under the header of 0 nodes
    "csv-no-node-column": (lambda: _read_trajectory("t,\n0\n1\n"), ConfigurationError,
                           "is not a trajectory: trajectory must hold at least one node"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals(name):
    call, error, fragment = REFUSALS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_index_at_is_none_off_the_grid():
    traj = Trajectory([0.0, 0.5, 1.0], [[1.0], [0.5], [0.0]])
    assert traj.index_at(0.5 + 5e-10) == 1
    assert traj.index_at(0.25) is None
    assert traj.index_at(1.0 + 1e-8) is None


def test_noise_shorter_than_the_grid_tolerance_has_no_window():
    noise = NoiseProcess([0.0, 1e-13], [[0.1, 0.1]], zeta=1.0, energy_bound=1.0)
    assert noise.window_energies() == []
