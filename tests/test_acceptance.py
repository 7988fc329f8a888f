"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import shutil
import time
from pathlib import Path

import numpy as np

from consensuslab import (
    NoiseProcess,
    WeightSchedule,
    average_drift,
    check_joint_connectivity,
    consensus_error,
    edge_signals,
    fit_exponential_rate,
    incidence,
    laplacian,
    max_state_difference,
    negative_link_assumption_holds,
    read_trajectory_csv,
    reconstruct,
    robustness_report,
    simulate,
    transition_matrix,
    uniform_bounds_check,
)
from consensuslab.cli import load_scenario, main
from helpers import (
    alternating_schedule,
    five_node_schedule,
    isolated_schedule,
    random_periodic_schedule,
    random_weights,
    signed_triangle_adversarial,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_factorization_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        bound = float(rng.uniform(0.5, 4.0))
        w = random_weights(rng, n, bound=bound)
        h = incidence(w).entries
        gap = float(np.abs(h @ h.T - laplacian(w)).max())
        worst = max(worst, gap / (1e-12 * n * bound))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1.0 and elapsed < 1.0,
            f"max normalized |HH' - L| = {worst:.3g} (< 1), runtime {elapsed:.2f}s")


def test_criterion_02_k2_closed_form_decay():
    start = time.perf_counter()
    sched = WeightSchedule([(0.0, 10.0, [[0.0, 1.0], [1.0, 0.0]])])
    traj = simulate(sched, [1.0, -1.0], 10.0, 0.01)
    expected = np.exp(-2.0 * traj.sample_times)
    sim_err = max(
        float(np.abs(traj.states[:, 0] - expected).max()),
        float(np.abs(traj.states[:, 1] + expected).max()),
    )
    fit = fit_exponential_rate(traj)
    elapsed = time.perf_counter() - start
    ok = sim_err < 1e-9 and abs(fit.alpha - 2.0) < 1e-6 and abs(fit.beta - 1.0) < 1e-6
    _report(2, ok and elapsed < 1.0,
            f"traj err {sim_err:.2e} (< 1e-9), alpha {fit.alpha:.9f}, "
            f"beta {fit.beta:.9f}, runtime {elapsed:.2f}s")


def test_criterion_03_theorem1_sufficiency():
    start = time.perf_counter()
    sched = alternating_schedule()
    cert = check_joint_connectivity(sched, 1.0, 2.0)
    cert_double_T = check_joint_connectivity(sched, 1.0, 4.0)
    rng = np.random.default_rng(20260601)
    traj = simulate(sched, rng.standard_normal(3), 40.0, 0.02)
    fit = fit_exponential_rate(traj, skip_time=2.0, fit_dt=2.0)
    elapsed = time.perf_counter() - start
    ok = (cert.connected and cert_double_T.connected
          and fit.alpha > 0.0 and fit.residual < 1e-3)
    _report(3, ok and elapsed < 5.0,
            f"(1,2)-connected: {cert.verdict}, (1,4): {cert_double_T.verdict}, "
            f"alpha {fit.alpha:.4f} (> 0), residual {fit.residual:.2e} (< 1e-3), "
            f"runtime {elapsed:.2f}s")


def test_criterion_04_theorem1_necessity():
    start = time.perf_counter()
    sched = isolated_schedule(horizon=100.0)
    traj = simulate(sched, [0.0, 0.0, 1.0], 100.0, 0.1)
    errors = consensus_error(traj)
    floor_ratio = float((errors / errors[0]).min())
    bounds = uniform_bounds_check(sched, 20.0)
    elapsed = time.perf_counter() - start
    ok = floor_ratio >= 0.9 and bounds.alpha1 < 1e-10
    _report(4, ok and elapsed < 5.0,
            f"min e(t)/e(0) = {floor_ratio:.6f} (>= 0.9), "
            f"alpha1 = {bounds.alpha1:.2e} (< 1e-10), runtime {elapsed:.2f}s")


def test_criterion_05_factorized_window_integral_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        sched = random_periodic_schedule(rng, segments=2)
        n = sched.node_count
        s = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.5, 3.0))
        route_incidence = np.zeros((n, n))
        route_laplacian = np.zeros((n, n))
        for ta, tb, k in sched.pieces(s, s + delta):
            h = incidence(sched.segments[k].weights).entries
            d = np.hstack([h, np.ones((n, 1)) / np.sqrt(n)])
            route_incidence += (tb - ta) * (d @ d.T)
            route_laplacian += (tb - ta) * (
                laplacian(sched.segments[k].weights) + np.ones((n, n)) / n
            )
        worst = max(worst, float(np.abs(route_incidence - route_laplacian).max()))
    elapsed = time.perf_counter() - start
    _report(5, worst < 1e-10 and elapsed < 5.0,
            f"max route gap {worst:.2e} (< 1e-10) over 20 schedules, runtime {elapsed:.2f}s")


def test_criterion_06_reconstruction_roundtrip():
    start = time.perf_counter()
    sched = five_node_schedule()
    rng = np.random.default_rng(777)
    x0 = rng.standard_normal(5)

    def roundtrip(dt):
        traj = simulate(sched, x0, 6.0, dt)
        trace = edge_signals(traj, sched)
        est = reconstruct(trace, sched, 2.0, 4.0)
        truth = traj.states[traj.index_at(2.0)] - float(np.mean(x0))
        return est, float(np.linalg.norm(est - truth))

    est_default, err_default = roundtrip(1.0 / 128)
    _, err_halved = roundtrip(1.0 / 256)
    traj_shift = simulate(sched, x0 + 4.0, 6.0, 1.0 / 128)
    est_shift = reconstruct(edge_signals(traj_shift, sched), sched, 2.0, 4.0)
    shift_gap = float(np.abs(est_default - est_shift).max())
    elapsed = time.perf_counter() - start
    ok = err_default < 1e-5 and err_default / err_halved >= 8.0 and shift_gap < 1e-9
    _report(6, ok and elapsed < 30.0,
            f"err {err_default:.2e} (< 1e-5), shrink x{err_default / err_halved:.1f} (>= 8), "
            f"shift gap {shift_gap:.2e} (< 1e-9), runtime {elapsed:.2f}s")


def test_criterion_07_theorem3_robustness():
    start = time.perf_counter()
    sched = alternating_schedule()
    sups = []
    for _ in range(2):
        noise = NoiseProcess.windowed_random(3, 1.0, 1.0, seed=31337, t_end=50.0)
        sups.append(robustness_report(sched, noise, 50.0).sup_error)
    reproducible = abs(sups[0] - sups[1]) < 1e-9

    disc = isolated_schedule(horizon=50.0)
    push = NoiseProcess.table(
        [0.0, 1.0, 50.0], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.9]],
        zeta=1.0, energy_bound=1.0,
    )
    rep = robustness_report(disc, push, 50.0)
    e5 = float(rep.errors[np.argmin(np.abs(rep.sample_times - 5.0))])
    e50 = float(rep.errors[np.argmin(np.abs(rep.sample_times - 50.0))])
    elapsed = time.perf_counter() - start
    ok = np.isfinite(sups[0]) and reproducible and e50 > 10.0 * e5
    _report(7, ok and elapsed < 30.0,
            f"sup {sups[0]:.4f} finite & reproducible to 1e-9, "
            f"disconnected growth e(50)/e(5) = {e50 / e5:.2f} (> 10), runtime {elapsed:.2f}s")


def test_criterion_08_theorem4_signed_triangle():
    start = time.perf_counter()
    sched = signed_triangle_adversarial()
    report = negative_link_assumption_holds(sched)
    traj = simulate(sched, [1.52, 1.54, -3.06], 60.0, 0.02)
    fit = fit_exponential_rate(traj, skip_time=30.0)
    d = max_state_difference(traj)
    e = consensus_error(traj)
    failure_samples = int(((np.diff(d) > 1e-12) & (np.diff(e) < -1e-12)).sum())
    elapsed = time.perf_counter() - start
    ok = (report.holds and abs(report.worst_eigenvalue) < 1e-10
          and abs(fit.alpha - 0.2) < 1e-5 and failure_samples >= 1)
    _report(8, ok and elapsed < 10.0,
            f"lambda_min {report.worst_eigenvalue:.2e} (|.| < 1e-10), "
            f"alpha {fit.alpha:.7f} (0.2 +/- 1e-5), "
            f"{failure_samples} samples with d up & e down, runtime {elapsed:.2f}s")


def test_criterion_09_transition_matrix_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    n = 5
    sched = five_node_schedule()
    projector = np.eye(n) - np.ones((n, n)) / n
    worst_semigroup = 0.0
    worst_projection = 0.0
    for _ in range(50):
        s, u, t = np.sort(rng.uniform(0.0, 6.0, size=3))
        for system in ("raw", "projected"):
            full = transition_matrix(system, sched, s, t).entries
            split = (transition_matrix(system, sched, u, t).entries
                     @ transition_matrix(system, sched, s, u).entries)
            worst_semigroup = max(worst_semigroup, float(np.abs(full - split).max()))
        phi = transition_matrix("projected", sched, s, t).entries
        worst_projection = max(worst_projection, float(np.abs(phi @ projector - phi).max()))
    elapsed = time.perf_counter() - start
    ok = worst_semigroup < 1e-9 and worst_projection < 1e-9
    _report(9, ok and elapsed < 5.0,
            f"semigroup gap {worst_semigroup:.2e}, projection gap {worst_projection:.2e} "
            f"(both < 1e-9) on 50 triples, runtime {elapsed:.2f}s")


def test_criterion_10_average_conservation_on_goldens(tmp_path):
    start = time.perf_counter()
    worst = 0.0
    checked = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        if scenario.noise_spec is not None:
            continue  # noiseless goldens only
        sim_tasks = [p for name, p in scenario.tasks if name == "simulate"]
        if not sim_tasks:
            continue
        dst = tmp_path / path.name
        shutil.copy(path, dst)
        out = tmp_path / ("out_" + path.stem)
        assert main(["run", str(dst), "--output-dir", str(out)]) == 0
        traj = read_trajectory_csv(out / "trajectory.csv")
        worst = max(worst, average_drift(traj))
        checked.append(path.stem)
    elapsed = time.perf_counter() - start
    ok = bool(checked) and worst < 1e-9
    _report(10, ok and elapsed < 5.0,
            f"max |mean drift| {worst:.2e} (< 1e-9) over {checked}, runtime {elapsed:.2f}s")
