"""Convergence analysis: decay-rate fits, robustness under bounded-energy
noise, and signed-network convergence checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .graph import check_joint_connectivity, negative_link_assumption_holds
from .dynamics import StateVector, simulate

__all__ = [
    "RateFit",
    "RobustnessReport",
    "consensus_error",
    "fit_exponential_rate",
    "robustness_report",
    "signed_convergence_check",
    "max_state_difference",
]


def consensus_error(traj):
    """e(t) = max_i |x_i(t) - mean(x(t))| per sample.

    Measured against the running average; for noiseless runs the average is
    conserved, so this equals the error against the initial average.
    """
    means = traj.states.mean(axis=1, keepdims=True)
    return np.abs(traj.states - means).max(axis=1)


def max_state_difference(traj):
    """d(t) = max_i x_i(t) - min_i x_i(t) per sample.

    Non-increasing along nonnegative-weight dynamics; negative links break
    the monotonicity even when consensus still converges.
    """
    return traj.states.max(axis=1) - traj.states.min(axis=1)


@dataclass(frozen=True)
class RateFit:
    """Log-linear envelope fit e(t) ~ beta * e(t0) * exp(-alpha (t - t0)).

    ``beta`` is normalized by the initial disagreement e(t0) so that an
    exact single-mode decay fits with beta == 1.  ``alpha <= 0`` flags a
    non-decaying trajectory; it is a result, not an error.
    """

    alpha: float
    beta: float
    window: tuple
    residual: float
    sample_count: int

    @property
    def converged(self):
        return self.alpha > 0.0


def fit_exponential_rate(traj, skip_time=0.0, fit_dt=None):
    """Least-squares line through (t, log e(t)) on the trajectory tail.

    The fit uses the second half of the samples whose consensus error
    exceeds the floor guard 100 * eps * ||x(t0)|| (log of numerical noise
    is meaningless), additionally dropping the first ``skip_time`` seconds
    of transients.  For switching schedules pass ``fit_dt`` equal to the
    period: log e(t) of a switched system carries a periodic modulation,
    and sampling the fit at period multiples removes it from the residual.
    """
    e = consensus_error(traj)
    t = traj.sample_times
    t0 = t[0]
    floor = 100.0 * np.finfo(float).eps * float(np.linalg.norm(traj.states[0]))
    eligible = np.nonzero(e > floor)[0]
    if eligible.size < 10:
        raise ValueError(
            f"need at least 10 samples above the error floor, found {eligible.size}"
        )
    tail = eligible[eligible.size // 2:]
    mask = t[tail] >= t0 + skip_time
    if fit_dt is not None:
        steps = (t[tail] - t0) / fit_dt
        mask &= np.abs(steps - np.round(steps)) <= 1e-9 * max(1.0, abs(t[-1]) / fit_dt)
    tail = tail[mask]
    if tail.size < 2:
        raise ValueError("fit window is empty; relax skip_time or fit_dt")
    tt = t[tail] - t0
    log_e = np.log(e[tail])
    slope, intercept = np.polyfit(tt, log_e, 1)
    residual = float(np.sqrt(np.mean((log_e - (slope * tt + intercept)) ** 2)))
    e0 = float(e[0])
    beta = float(np.exp(intercept) / e0) if e0 > floor else float("nan")
    return RateFit(
        alpha=float(-slope),
        beta=beta,
        window=(float(t[tail[0]]), float(t[tail[-1]])),
        residual=residual,
        sample_count=int(tail.size),
    )


@dataclass(frozen=True)
class RobustnessReport:
    """Measured consensus error under one admissible noise realization."""

    zeta: float | None
    energy_bound: float
    sup_error: float
    sample_times: np.ndarray
    errors: np.ndarray


def robustness_report(sched, noise, t_end, sample_dt=0.05, consensus_value=0.0):
    """Run from a consensus initial state and record sup_i,t |x_i - x_ave(t)|.

    The measured supremum is the empirical candidate for the robustness
    bound C(zeta, B0); boundedness is the claim under joint connectivity,
    not any particular value.
    """
    x0 = StateVector(0.0, np.full(sched.node_count, float(consensus_value)))
    traj = simulate(sched, x0, t_end, sample_dt, noise=noise)
    errors = consensus_error(traj)
    return RobustnessReport(
        zeta=noise.zeta,
        energy_bound=noise.energy_bound,
        sup_error=float(errors.max()),
        sample_times=traj.sample_times,
        errors=errors,
    )


def signed_convergence_check(sched, x0, delta, T, *, t_end=60.0, sample_dt=0.02,
                             skip_time=None, fit_dt=None):
    """Simulate a signed schedule and fit its consensus rate.

    Refuses unless the Negative-Link Assumption holds (reporting the worst
    eigenvalue) and joint (delta, T)-connectivity is certified on the
    positive-integral threshold graph.  Under those preconditions the decay
    is guaranteed, so a non-positive fitted rate raises instead of being
    flagged: it indicates a run too short to fit.
    """
    negative_link_assumption_holds(sched).require()
    cert = check_joint_connectivity(sched, delta, T)
    if not cert.connected:
        raise ConfigurationError(
            f"schedule is not jointly ({delta}, {T})-connected; "
            f"counterexample window start {cert.counterexample_window}"
        )
    traj = simulate(sched, x0, t_end, sample_dt)
    fit = fit_exponential_rate(
        traj,
        skip_time=T if skip_time is None else skip_time,
        fit_dt=fit_dt,
    )
    if not fit.converged:
        raise ConfigurationError(
            f"fitted rate {fit.alpha} is not positive despite certified connectivity; "
            "extend t_end"
        )
    return fit
