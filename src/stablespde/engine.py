"""Mild-solution time steppers in spectral coordinates.

All steppers are exponential Euler on the variation-of-constants form: the
linear semigroup is applied exactly, the drift is frozen at the left endpoint
of each (sub-)interval, and the linear stochastic convolution is sampled
exactly in law through its closed-form stable scale.  Chain jumps inside a
step are resolved by sub-stepping the drift at the exact jump times; the noise
term needs no refinement.

Noise-stream convention (each tag has one owner, so coupled runs on the same
:class:`RngStream` see the identical driving noise):

* substream 0 - slow-field noise L, k_trunc variates per grid step: slow solves
* substream ``CHAIN_TAG`` = 1 - the switching chain: simulated by the harness
* substream 2 - fast-field noise Z: solve_frozen_fast and solve_fast_slow
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .spectral import FieldState, SpectralOperator
from .stable_noise import NoiseWeights, convolution_scale, sample_standard_stable
from .switching import ChainPath

_L_NOISE_TAG = 0
CHAIN_TAG = 1
_Z_NOISE_TAG = 2


@dataclass(frozen=True)
class MildStepPlan:
    """Precomputed per-mode factors for one step size.

    decay = exp(-lam dt), drift_factor = (1 - exp(-lam dt)) / lam, and
    conv_scale the exact stable scale of the stochastic convolution over dt.
    """

    dt: float
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
        dt=dt,
        decay=np.exp(-lam * dt),
        drift_factor=drift_factor(lam, dt),
        conv_scale=convolution_scale(weights.weights, lam, alpha, dt),
    )


def step_ou_mode(x, drift, plan: MildStepPlan, noise):
    """One exponential-Euler step; ``noise`` is a standard stable variate."""
    return plan.decay * x + drift * plan.drift_factor + plan.conv_scale * noise


@dataclass(frozen=True)
class TrajectoryRecord:
    """States recorded on the time grid; optionally the co-evolving chain or fast field."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), k_trunc)
    chain: ChainPath | None = None
    fast_states: np.ndarray | None = None


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    return grid


def _drift_substep(x, lam, t0: float, t1: float, chain: ChainPath, drift):
    """Advance decay+drift over [t0, t1], splitting at exact chain jump times."""
    pts = np.concatenate(([t0], chain.breakpoints_in(t0, t1), [t1]))
    for a, b in zip(pts[:-1], pts[1:]):
        tau = b - a
        bx = drift(x, chain.state_at(a))
        x = np.exp(-lam * tau) * x + bx * drift_factor(lam, tau)
    return x


def _mild_solve(
    x0: FieldState,
    drift,
    op: SpectralOperator,
    weights: NoiseWeights,
    alpha: float,
    grid,
    rng: RngStream,
    chain: ChainPath | None = None,
) -> TrajectoryRecord:
    """The exponential-Euler loop shared by every single-field solve.

    ``rng`` is the noise substream itself.  Without a chain ``drift`` maps
    state to state; with one it is called as drift(x, regime) and sub-steps at
    the chain's jump times.
    """
    grid = _check_grid(grid)
    if chain is not None and grid[-1] > chain.horizon:
        raise ValueError("time grid exceeds the chain horizon")
    x = np.asarray(x0, dtype=float).copy()
    if x.size != op.k_trunc:
        raise ValueError("initial state length must match the truncation level")
    gen = rng.generator()
    out = np.empty((grid.size, x.size))
    out[0] = x
    plan = None
    for i in range(grid.size - 1):
        t0, t1 = grid[i], grid[i + 1]
        if plan is None or plan.dt != t1 - t0:
            plan = make_step_plan(op, weights, alpha, t1 - t0)
        noise = sample_standard_stable(alpha, gen, size=x.size)
        if chain is None:
            x = step_ou_mode(x, drift(x), plan, noise)
        else:
            x = _drift_substep(x, op.eigenvalues, t0, t1, chain, drift) + plan.conv_scale * noise
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
    rng: RngStream,
) -> TrajectoryRecord:
    """Mild stepper for the regime-switching field; the chain path is exact input.

    ``drift`` is called as drift(x, regime).
    """
    return _mild_solve(x0, drift, op_a, w_l, alpha, grid, rng.substream(_L_NOISE_TAG), chain)


def solve_averaged_spde(
    x0: FieldState,
    averaged_drift,
    op_a: SpectralOperator,
    w_l: NoiseWeights,
    alpha: float,
    grid,
    rng: RngStream,
) -> TrajectoryRecord:
    """Mild stepper for the averaged field; ``averaged_drift`` maps state to state."""
    return _mild_solve(x0, averaged_drift, op_a, w_l, alpha, grid, rng.substream(_L_NOISE_TAG))


def solve_frozen_fast(
    z: FieldState,
    y0: FieldState,
    fast_drift,
    op_b: SpectralOperator,
    w_z: NoiseWeights,
    beta: float,
    grid,
    rng: RngStream,
) -> TrajectoryRecord:
    """Fast field with the slow variable frozen at ``z`` (no time-scale factor)."""
    if fast_drift.grad_y_bound >= op_b.lambda_1:
        raise ValueError("ergodicity requires the fast drift gradient bound below mu_1")
    z = np.asarray(z, dtype=float)
    return _mild_solve(
        y0, lambda y: fast_drift(z, y), op_b, w_z, beta, grid, rng.substream(_Z_NOISE_TAG)
    )


def fast_substep_factors(
    op_b: SpectralOperator, w_z: NoiseWeights, beta: float, eps: float, h_f: float
):
    """Per-mode factors of one fast substep of length h_f.

    The effective rates are mu_k/eps, the drift enters as f/eps, and the
    eps^(-1/beta) noise prefactor cancels against the self-similarity rescaling,
    leaving a convolution scale q_k ((1 - exp(-beta mu_k h_f/eps))/(beta mu_k))^(1/beta)
    that does not depend on eps when h_f is proportional to eps.
    """
    mu = op_b.eigenvalues
    decay = np.exp(-mu * h_f / eps)
    # net drift factor: (1/eps) * (1 - exp(-mu h_f/eps)) * eps/mu = (1 - exp(.))/mu
    dfac = -np.expm1(-mu * h_f / eps) / mu
    scale = w_z.weights * (-np.expm1(-beta * mu * h_f / eps) / (beta * mu)) ** (1.0 / beta)
    return decay, dfac, scale


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
    rng: RngStream,
    c_sub: float = 0.5,
) -> TrajectoryRecord:
    """Joint stepper for the fast-slow pair (slow X, fast Y at rate 1/eps).

    ``slow_drift`` and ``fast_drift`` are called as f(x, y).  The slow field
    advances once per grid step with both arguments frozen at the step's left
    endpoint; the fast field sub-steps with h_f = dt / ceil(dt / (c_sub eps))
    so the O(1/eps) drift stays resolved.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if fast_drift.grad_y_bound >= op_b.lambda_1:
        raise ValueError("ergodicity requires the fast drift gradient bound below mu_1")
    grid = _check_grid(grid)
    gen_l = rng.substream(_L_NOISE_TAG).generator()
    gen_z = rng.substream(_Z_NOISE_TAG).generator()
    lam = op_a.eigenvalues
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    out_x = np.empty((grid.size, x.size))
    out_y = np.empty((grid.size, y.size))
    out_x[0], out_y[0] = x, y
    slow_plan = None
    for i in range(grid.size - 1):
        dt = grid[i + 1] - grid[i]
        if slow_plan is None or slow_plan.dt != dt:
            slow_plan = make_step_plan(op_a, w_l, alpha, dt)
            n_sub = max(1, int(np.ceil(dt / (c_sub * eps))))
            h_f = dt / n_sub
            f_decay, f_dfac, f_scale = fast_substep_factors(op_b, w_z, beta, eps, h_f)
        noise_l = sample_standard_stable(alpha, gen_l, size=x.size)
        x_left = x
        x = step_ou_mode(x, slow_drift(x_left, y), slow_plan, noise_l)
        for _ in range(n_sub):
            noise_z = sample_standard_stable(beta, gen_z, size=y.size)
            y = f_decay * y + fast_drift(x_left, y) * f_dfac + f_scale * noise_z
        out_x[i + 1], out_y[i + 1] = x, y
    return TrajectoryRecord(grid, out_x, fast_states=out_y)
