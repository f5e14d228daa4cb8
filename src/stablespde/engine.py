"""Mild-solution time steppers in spectral coordinates.

All steppers are exponential Euler on the variation-of-constants form: the
linear semigroup is applied exactly, the drift is frozen at the left endpoint
of each (sub-)interval, and the linear stochastic convolution is sampled
exactly in law through its closed-form stable scale.  A solve runs on a
uniform time grid, so its per-mode factors form one :class:`MildStepPlan`
built once.  Chain jumps inside a step are resolved by sub-stepping the drift
at the exact jump times; the noise term needs no refinement.  The fast field
of a fast-slow pair steps through the same plan form, for the operator and
noise rescaled by its time scale.  Every solve steps on noise arrays its caller
drew with :func:`draw_noise`; the substream tags and the stream contract are
defined in :mod:`.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .spectral import FieldState, SpectralOperator
from .stable_noise import NoiseWeights, convolution_scale, sample_standard_stable
from .switching import ChainPath


@dataclass(frozen=True)
class MildStepPlan:
    """Precomputed per-mode factors for one step size dt.

    decay = exp(-lam dt), drift_factor = (1 - exp(-lam dt)) / lam, and
    conv_scale the exact stable scale of the stochastic convolution over dt.
    """

    decay: np.ndarray
    drift_factor: np.ndarray
    conv_scale: np.ndarray


def drift_factor(lam, dt: float):
    """(1 - exp(-lam dt)) / lam, stable for small lam dt (limit dt)."""
    lam = np.asarray(lam, dtype=float)
    return -np.expm1(-lam * dt) / lam


def make_step_plan(
    op: SpectralOperator, weights: NoiseWeights, alpha: float, dt: float
) -> MildStepPlan:
    lam = op.eigenvalues
    return MildStepPlan(
        decay=np.exp(-lam * dt),
        drift_factor=drift_factor(lam, dt),
        conv_scale=convolution_scale(weights.weights, lam, alpha, dt),
    )


@dataclass(frozen=True)
class TrajectoryRecord:
    """States recorded on the time grid; optionally the co-evolving chain or fast field."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), k_trunc)
    chain: ChainPath | None = None
    fast_states: np.ndarray | None = None


def _check_noise(noise, shape: tuple) -> None:
    if np.shape(noise) != shape:
        raise ValueError(f"noise must have shape {shape}, got {np.shape(noise)}")


def _check_ergodic(fast_drift, op_b: SpectralOperator) -> None:
    if fast_drift.grad_y_bound >= op_b.lambda_1:
        raise ValueError("ergodicity requires the fast drift gradient bound below mu_1")


def _check_grid(grid) -> tuple[np.ndarray, float]:
    """The grid as an array and its one step size; steps may differ by rounding only."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or grid[-1] <= grid[0]:
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    dt = (grid[-1] - grid[0]) / (grid.size - 1)
    if not np.all(np.abs(np.diff(grid) - dt) <= 1e-9 * dt):
        raise ValueError("time grid must be uniform")
    return grid, dt


def draw_noise(alpha: float, stream: RngStream, *shape: int) -> np.ndarray:
    """Standard stable variates of ``shape``: one flat draw on ``stream`` (see :mod:`.rng`)."""
    return sample_standard_stable(alpha, stream, size=shape)


def _mild_solve(
    x0: FieldState,
    drift,
    op: SpectralOperator,
    weights: NoiseWeights,
    alpha: float,
    grid,
    noise: np.ndarray,
    chain: ChainPath | None = None,
) -> TrajectoryRecord:
    """The exponential-Euler loop shared by every single-field solve.

    Row i of ``noise`` drives grid step i.  Without a chain ``drift`` maps
    state to state; with one it is called as drift(x, regime) and sub-steps at
    the chain's jump times.  One table per solve gives each step its jumps:
    step i spans the chain's intervals lo[i]-1 .. hi[i]-1, where lo[i] is the
    first jump after grid[i] and hi[i] the first at or after grid[i+1].
    """
    grid, dt = _check_grid(grid)
    if chain is not None and grid[-1] > chain.horizon:
        raise ValueError("time grid exceeds the chain horizon")
    x = np.asarray(x0, dtype=float).copy()
    if x.size != op.k_trunc:
        raise ValueError("initial state length must match the truncation level")
    _check_noise(noise, (grid.size - 1, x.size))
    out = np.empty((grid.size, x.size))
    out[0] = x
    plan = make_step_plan(op, weights, alpha, dt)
    kicks = plan.conv_scale * noise  # every step's stochastic convolution
    if chain is None:
        for i in range(grid.size - 1):
            x = plan.decay * x + drift(x) * plan.drift_factor + kicks[i]
            out[i + 1] = x
        return TrajectoryRecord(grid, out)
    lam, times, regimes = op.eigenvalues, chain.times, chain.states
    lo = np.searchsorted(times, grid[:-1], side="right").tolist()
    hi = np.searchsorted(times, grid[1:], side="left").tolist()
    t = grid.tolist()
    for i in range(grid.size - 1):
        if lo[i] == hi[i]:
            x = plan.decay * x + drift(x, int(regimes[lo[i] - 1])) * plan.drift_factor
        else:
            # split the step at its jumps; each piece keeps the regime at its start
            pts = (t[i], *times[lo[i] : hi[i]].tolist(), t[i + 1])
            for a, b, regime in zip(pts[:-1], pts[1:], regimes[lo[i] - 1 : hi[i]].tolist()):
                tau = b - a
                x = np.exp(-lam * tau) * x + drift(x, regime) * drift_factor(lam, tau)
        x = x + kicks[i]
        out[i + 1] = x
    return TrajectoryRecord(grid, out, chain=chain)


def solve_switching_spde(
    x0: FieldState,
    drift,
    op_a: SpectralOperator,
    w_l: NoiseWeights,
    alpha: float,
    chain: ChainPath,
    grid,
    noise: np.ndarray,
) -> TrajectoryRecord:
    """Mild stepper for the regime-switching field; the chain path is exact input.

    ``drift`` is called as drift(x, regime); ``noise`` holds one row per grid step.
    """
    return _mild_solve(x0, drift, op_a, w_l, alpha, grid, noise, chain)


def solve_averaged_spde(
    x0: FieldState,
    averaged_drift,
    op_a: SpectralOperator,
    w_l: NoiseWeights,
    alpha: float,
    grid,
    noise: np.ndarray,
) -> TrajectoryRecord:
    """Mild stepper for the averaged field; ``averaged_drift`` maps state to state."""
    return _mild_solve(x0, averaged_drift, op_a, w_l, alpha, grid, noise)


def solve_frozen_fast(
    z: FieldState,
    y0: FieldState,
    fast_drift,
    op_b: SpectralOperator,
    w_z: NoiseWeights,
    beta: float,
    grid,
    noise: np.ndarray,
) -> TrajectoryRecord:
    """Fast field with the slow variable frozen at ``z`` (no time-scale factor)."""
    _check_ergodic(fast_drift, op_b)
    return _mild_solve(y0, fast_drift.frozen(z), op_b, w_z, beta, grid, noise)


def solve_fast_slow(
    x0: FieldState,
    y0: FieldState,
    slow_drift,
    fast_drift,
    op_a: SpectralOperator,
    op_b: SpectralOperator,
    w_l: NoiseWeights,
    w_z: NoiseWeights,
    alpha: float,
    beta: float,
    eps: float,
    grid,
    noise: np.ndarray,
    noise_z: np.ndarray,
) -> TrajectoryRecord:
    """Joint stepper for the fast-slow pair (slow X, fast Y at rate 1/eps).

    ``slow_drift`` is called as f(x, y), ``fast_drift.frozen(x)`` as y -> f(x, y).
    Row i of ``noise`` drives the slow field's step i, and ``noise_z[i]`` of
    shape (n_sub, k) the fast field's n_sub substeps inside it.  The slow field
    advances once per grid step with both arguments frozen at the step's left
    endpoint; the caller sizes n_sub so that the O(1/eps) drift stays
    resolved.  The fast plan is the mild step of dY = (-B Y + f) / eps dt +
    eps^(-1/beta) dZ: eigenvalues mu_k / eps and noise weights q_k
    eps^(-1/beta), the drift entering as f / eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_ergodic(fast_drift, op_b)
    grid, dt = _check_grid(grid)
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    _check_noise(noise, (grid.size - 1, x.size))
    n_sub = max(1, *np.shape(noise_z)[1:2])  # so that zero substeps fail the shape check
    _check_noise(noise_z, (grid.size - 1, n_sub, y.size))
    slow_plan = make_step_plan(op_a, w_l, alpha, dt)
    fast_plan = make_step_plan(
        SpectralOperator(op_b.eigenvalues / eps),
        NoiseWeights(w_z.weights * eps ** (-1.0 / beta)),
        beta,
        dt / n_sub,
    )
    kicks_x = slow_plan.conv_scale * noise
    kicks_y = fast_plan.conv_scale * noise_z
    out_x = np.empty((grid.size, x.size))
    out_y = np.empty((grid.size, y.size))
    out_x[0], out_y[0] = x, y
    for i in range(grid.size - 1):
        fast_frozen = fast_drift.frozen(x)
        x = slow_plan.decay * x + slow_drift(x, y) * slow_plan.drift_factor + kicks_x[i]
        for kick in kicks_y[i]:
            y = fast_plan.decay * y + fast_frozen(y) / eps * fast_plan.drift_factor + kick
        out_x[i + 1], out_y[i + 1] = x, y
    return TrajectoryRecord(grid, out_x, fast_states=out_y)
