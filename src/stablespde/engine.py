"""Mild-solution time steppers in spectral coordinates.

All steppers are exponential Euler on the variation-of-constants form: the
linear semigroup is applied exactly, the drift is frozen at the left endpoint
of each (sub-)interval, and the linear stochastic convolution is sampled
exactly in law through its closed-form stable scale.  A solve runs on a
uniform time grid, so its per-mode factors form one :class:`MildStepPlan`
built once.  Chain jumps inside a step are resolved by sub-stepping the drift
at the exact jump times; the noise term needs no refinement.  The fast field
of a fast-slow pair steps through the same plan form, for the operator and
noise rescaled by its time scale, calling its drift as f(x, y) at a held x.
Every solve steps on noise arrays its caller drew with :func:`draw_noise`; the
substream tags and the stream contract are defined in :mod:`.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .rng import RngStream
from .spectral import FieldState, SpectralOperator
from .stable_noise import NoiseWeights, convolution_scale, sample_standard_stable
from .switching import ChainPath, sorted_distinct


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
    """States recorded on the time grid; for a fast-slow solve, the fast field's too."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), k_trunc)
    fast_states: np.ndarray | None = None


def _check_ergodic(fast_drift, op_b: SpectralOperator) -> None:
    if fast_drift.mixing_rate(op_b) <= 0:
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


def _setup_field(x0, op: SpectralOperator, weights: NoiseWeights, alpha, dt, noise, rows: tuple):
    """A field's state, step plan and kicks; ``noise`` holds k variates per ``rows`` entry."""
    x = np.asarray(x0, dtype=float).copy()
    if x.size != op.k_trunc:
        raise ValueError("initial state length must match the truncation level")
    if np.shape(noise) != rows + (x.size,):
        raise ValueError(f"noise must have shape {rows + (x.size,)}, got {np.shape(noise)}")
    plan = make_step_plan(op, weights, alpha, dt)
    return x, plan, plan.conv_scale * noise


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
    """The exponential-Euler loop shared by every single-field solve: its record on ``grid``.

    Row i of ``noise`` drives grid step i.  Without a chain ``drift`` maps
    state to state; with one it is called as drift(x, regime) and sub-steps at
    the chain's jump times.  One piece table per solve holds every sub-step:
    the grid points and the jumps between them cut [grid[0], grid[-1]] into
    pieces, step i spans pieces first[i] .. first[i+1]-1, and each piece keeps
    the regime at its start.  A piece's decay and drift factor rows come from
    one vectorised call over all pieces; a piece that is a whole step takes
    the plan's rows instead.
    """
    grid, dt = _check_grid(grid)
    if chain is not None and (grid[0] < 0 or grid[-1] > chain.horizon):
        raise ValueError("time grid must lie inside the chain's [0, horizon]")
    x, plan, kicks = _setup_field(x0, op, weights, alpha, dt, noise, (grid.size - 1,))
    out = np.empty((grid.size, x.size))
    out[0] = x
    if chain is None:
        for i in range(grid.size - 1):
            x = plan.decay * x + drift(x) * plan.drift_factor + kicks[i]
            out[i + 1] = x
        return TrajectoryRecord(grid, out)
    lam, times = op.eigenvalues, chain.times
    pts = sorted_distinct(np.concatenate((grid, times[(times > grid[0]) & (times < grid[-1])])))
    first = np.searchsorted(pts, grid)
    regimes = chain.states[np.searchsorted(times, pts[:-1], side="right") - 1].tolist()
    tau = np.diff(pts)[:, None]
    decay, factor = np.exp(-lam * tau), drift_factor(lam, tau)
    whole = first[:-1][np.diff(first) == 1]
    decay[whole], factor[whole] = plan.decay, plan.drift_factor
    first = first.tolist()
    for i in range(grid.size - 1):
        for j in range(first[i], first[i + 1]):
            x = decay[j] * x + drift(x, regimes[j]) * factor[j]
        x = x + kicks[i]
        out[i + 1] = x
    return TrajectoryRecord(grid, out)


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
    return _mild_solve(y0, partial(fast_drift, z), op_b, w_z, beta, grid, noise)


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

    Row i of ``noise`` drives the slow field's step i, and ``noise_z[i]`` of
    shape (n_sub, k) the fast field's n_sub substeps inside it.  Both drifts are
    called as f(x, y) with x at the step's left endpoint, the slow one with y
    there too; the caller sizes n_sub so that the O(1/eps) drift stays
    resolved.  The fast plan is the mild step of dY = (-B Y + f) / eps dt +
    eps^(-1/beta) dZ: eigenvalues mu_k / eps and noise weights q_k
    eps^(-1/beta), the drift entering as f / eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _check_ergodic(fast_drift, op_b)
    grid, dt = _check_grid(grid)
    x, slow_plan, kicks_x = _setup_field(x0, op_a, w_l, alpha, dt, noise, (grid.size - 1,))
    n_sub = max((1, *np.shape(noise_z)[1:2]))  # so that zero substeps fail the shape check
    fast_op = SpectralOperator(op_b.eigenvalues / eps)
    fast_w = NoiseWeights(w_z.weights * eps ** (-1.0 / beta))
    y, fast_plan, kicks_y = _setup_field(y0, fast_op, fast_w, beta, dt / n_sub, noise_z,
                                         (grid.size - 1, n_sub))
    out_x, out_y = np.empty((grid.size, x.size)), np.empty((grid.size, y.size))
    out_x[0], out_y[0] = x, y
    for i in range(grid.size - 1):
        x_next = slow_plan.decay * x + slow_drift(x, y) * slow_plan.drift_factor + kicks_x[i]
        for kick in kicks_y[i]:
            y = fast_plan.decay * y + fast_drift(x, y) / eps * fast_plan.drift_factor + kick
        x = x_next
        out_x[i + 1], out_y[i + 1] = x, y
    return TrajectoryRecord(grid, out_x, fast_states=out_y)
