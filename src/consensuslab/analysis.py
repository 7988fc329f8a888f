"""Convergence analysis: decay-rate fits and robustness under bounded-energy
noise."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dynamics import simulate
from .graph import _number

__all__ = [
    "RateFit",
    "RobustnessReport",
    "consensus_error",
    "fit_exponential_rate",
    "robustness_report",
    "max_state_difference",
]


def consensus_error(traj):
    """e(t) = max_i |x_i(t) - mean(x(t))| per sample.

    Measured against the running average; for noiseless runs the average is
    conserved, so this equals the error against the initial average.
    """
    x = traj.states
    with np.errstate(over="ignore"):
        mean = x.mean(axis=1, keepdims=True)
    big = ~np.isfinite(mean[:, 0])
    if big.any():  # the plain sum overflows: scale the states before adding them
        mean[big] = (x[big] / x.shape[1]).sum(axis=1, keepdims=True)
    dev = x - mean
    return np.abs(dev, out=dev).max(axis=1)  # in place: one table-sized temporary


def max_state_difference(traj):
    """d(t) = max_i x_i(t) - min_i x_i(t) per sample.

    Non-increasing along nonnegative-weight dynamics; negative links break
    the monotonicity even when consensus still converges.
    """
    return traj.states.max(axis=1) - traj.states.min(axis=1)


class RateFit(NamedTuple):
    """Log-linear envelope fit e(t) ~ beta * e(t0) * exp(-alpha (t - t0)).

    ``beta`` is normalized by the initial disagreement e(t0) so that an
    exact single-mode decay fits with beta == 1; it is None when e(t0) is at
    the error floor.  ``converged`` says that the fit resolved a decay: the
    log-drop alpha * (t1 - t0) over the fit window exceeds both twice the
    residual and 1e-9.  A non-decaying trajectory is a result, not an error.
    """

    alpha: float
    beta: float | None
    window: tuple
    residual: float
    sample_count: int
    converged: bool


def _fit_mask(t, rows, skip_time, fit_dt):
    """Which samples t[rows] a fit may use: those from skip_time after t[0]
    on and, given fit_dt, on the grid t[0] + m * fit_dt.  The grid is tested
    in time units, within 1e-9 * max(1, |t[-1]|): a huge fit_dt keeps at
    most the sample at t[0], and a fit_dt of at most twice that tolerance,
    whose multiples are closer than it to every time, keeps every sample.
    """
    t0 = t[0]
    mask = t[rows] >= t0 + skip_time
    tol = 1e-9 * max(1.0, abs(t[-1]))
    if fit_dt is not None and fit_dt > 2.0 * tol:
        off = t[rows] - t0
        mask &= np.abs(off - np.round(off / fit_dt) * fit_dt) <= tol
    return mask


def fit_exponential_rate(traj, skip_time=0.0, fit_dt=None):
    """Least-squares line through (t, log e(t)) on the trajectory tail.

    The fit uses the second half of the samples whose consensus error
    exceeds the floor guard 100 * eps * ||x(t0)|| (log of numerical noise
    is meaningless), additionally dropping the first ``skip_time`` seconds
    of transients.  For switching schedules pass ``fit_dt`` equal to the
    period: log e(t) of a switched system carries a periodic modulation,
    and sampling the fit at period multiples removes it from the residual.  A
    bad skip_time or fit_dt, or a consensus error that is not finite, raises ValueError.
    """
    if fit_dt is not None:
        _number(fit_dt, "fit_dt", positive=True)
    _number(skip_time, "skip_time")
    with np.errstate(invalid="ignore", over="ignore"):
        e = consensus_error(traj)
    t = traj.sample_times
    if not np.isfinite(e).all():
        raise ValueError(f"the consensus error is not finite at t = {t[np.isfinite(e).argmin()]}")
    t0 = t[0]
    x0, scale = traj.states[0], 100.0 * np.finfo(float).eps
    with np.errstate(over="ignore"):
        floor = scale * float(np.linalg.norm(x0))
    if not np.isfinite(floor):  # ||x0|| overflows near the float limit: rescale by max |x0_i|
        big = float(np.abs(x0).max())
        floor = scale * big * float(np.linalg.norm(x0 / big))
    eligible = np.nonzero(e > floor)[0]
    if eligible.size < 10:
        raise ValueError(
            f"need at least 10 samples above the error floor, found {eligible.size}"
        )
    tail = eligible[eligible.size // 2:]
    tail = tail[_fit_mask(t, tail, skip_time, fit_dt)]
    if tail.size < 2:
        raise ValueError("fit window is empty; relax skip_time or fit_dt")
    tt = t[tail] - t0
    log_e = np.log(e[tail])
    slope, intercept = np.polyfit(tt, log_e, 1)
    residual = float(np.sqrt(np.mean((log_e - (slope * tt + intercept)) ** 2)))
    e0 = float(e[0])
    beta = float(np.exp(intercept) / e0) if e0 > floor else None
    alpha, window = float(-slope), (float(t[tail[0]]), float(t[tail[-1]]))
    return RateFit(
        alpha=alpha,
        beta=beta,
        window=window,
        residual=residual,
        sample_count=int(tail.size),
        converged=alpha * (window[1] - window[0]) > max(2.0 * residual, 1e-9),
    )


class RobustnessReport(NamedTuple):
    """Measured consensus error under one admissible noise realization."""

    zeta: float | None
    energy_bound: float
    sup_error: float
    sample_times: np.ndarray
    errors: np.ndarray


def robustness_report(sched, noise, t_end, sample_dt=0.05):
    """Run from x(0) = 0 and record sup_i,t |x_i - x_ave(t)|.

    ``noise`` is a NoiseProcess, or None for no noise (then zeta is None,
    B0 is 0 and the error stays 0).  The measured supremum is the
    empirical candidate for the robustness bound C(zeta, B0); boundedness
    is the claim under joint connectivity, not any particular value.
    """
    traj = simulate(sched, np.zeros(sched.node_count), t_end, sample_dt, noise=noise)
    errors = consensus_error(traj)
    return RobustnessReport(
        zeta=None if noise is None else noise.zeta,
        energy_bound=0.0 if noise is None else noise.energy_bound,
        sup_error=float(errors.max()),
        sample_times=traj.sample_times,
        errors=errors,
    )
