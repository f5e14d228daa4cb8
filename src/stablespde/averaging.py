"""Averaged drifts: stationary-weighted, per-class, and ergodic-estimate.

The invariant measure of the frozen fast equation is never represented
explicitly; its drift average is estimated by time-averaging one long frozen
trajectory per replication (exponential mixing makes time averages far cheaper
than ensembles at a fixed time), with batch-means standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Z_NOISE_TAG, RngStream
from .spectral import FieldState, SpectralOperator
from .stable_noise import NoiseWeights
from .switching import ClassPartition
from .engine import draw_noise, solve_frozen_fast

N_BATCHES = 10  # batches of every batch-means SE: the estimator's and harness.p_moment's


def batch_means(values: np.ndarray) -> np.ndarray:
    """Means of ``values`` over at most N_BATCHES near-equal batches along axis 0."""
    batches = np.array_split(values, min(N_BATCHES, len(values)), axis=0)
    return np.array([b.mean(axis=0) for b in batches])


def nu_average_drift(drift, nu: np.ndarray):
    """Stationary-weighted drift sum_i nu_i b(., i): one regime of ``drift``'s family."""
    nu = np.asarray(nu, dtype=float)
    if nu.size != drift.n_regimes:
        raise ValueError("weight vector length must match the regime count")
    return drift.averaged(nu.reshape(1, -1))


def class_average_drift(drift, partition: ClassPartition, mu_blocks: list[np.ndarray]):
    """The regime drift over classes: class i drifts by sum_j mu_ij b(., s_ij)."""
    weights = np.zeros((len(partition.classes), drift.n_regimes))
    for i, (states, mu) in enumerate(zip(partition.classes, mu_blocks, strict=True)):
        mu = np.asarray(mu, dtype=float)
        if mu.size != len(states):
            raise ValueError("block weight length must match the class size")
        weights[i, list(states)] = mu
    return drift.averaged(weights)


@dataclass(frozen=True)
class ErgodicEstimatorConfig:
    """Burn-in / horizon in units of time; defaults derive from the mixing rate.

    The default burn-in is three e-folds of the exponential-mixing decay and
    the default horizon ten times that, so roughly ten mixing times of data
    survive the transient.
    """

    dt: float = 0.05
    burn_in: float | None = None
    horizon: float | None = None
    n_reps: int = 4

    def resolve(self, mixing_rate: float) -> tuple[float, int]:
        """(burn-in, n_steps): a replication steps n_steps = ceil(horizon / dt) times."""
        if mixing_rate <= 0:
            raise ValueError("mixing rate must be positive")
        burn = self.burn_in if self.burn_in is not None else 3.0 / mixing_rate
        horizon = self.horizon if self.horizon is not None else 30.0 / mixing_rate
        if (horizon - burn) / self.dt < N_BATCHES or not np.isfinite(horizon / self.dt):
            raise ValueError(f"averaging horizon must be finite and exceed the burn-in by "
                             f"{N_BATCHES} dt steps, one per batch of the SE")
        return burn, int(np.ceil(horizon / self.dt))


def _frozen_runs(z, y0, fast_drift, op_b, w_z, beta, grid, n_runs: int, rng: RngStream):
    """States of ``n_runs`` frozen-fast runs from ``y0`` on ``grid``; run r steps on
    noise drawn on ``rng.substream(r).substream(Z_NOISE_TAG)``."""
    for r in range(n_runs):
        noise = draw_noise(beta, rng.substream(r).substream(Z_NOISE_TAG), grid.size - 1,
                           op_b.k_trunc)
        yield solve_frozen_fast(z, y0, fast_drift, op_b, w_z, beta, grid, noise).states


def estimate_ergodic_drift(
    z: FieldState,
    fast_drift,
    observable,
    op_b: SpectralOperator,
    w_z: NoiseWeights,
    beta: float,
    config: ErgodicEstimatorConfig,
    rng: RngStream,
    y0: FieldState | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate int b(z, u) pi_z(du) by time-averaging frozen-fast trajectories.

    ``observable`` is called as b(z, y) on the whole (n_steps, k) array of
    recorded states; a constant observable is broadcast to it.  Returns
    (estimate, standard error) per mode; the SE combines batch means within
    replications across independent replications.
    """
    burn, n_steps = config.resolve(fast_drift.mixing_rate(op_b))
    z = np.asarray(z, dtype=float)
    y0 = np.zeros(op_b.k_trunc) if y0 is None else y0
    grid = np.linspace(0.0, n_steps * config.dt, n_steps + 1)

    rep_means, batch_vars = [], []
    for states in _frozen_runs(z, y0, fast_drift, op_b, w_z, beta, grid, config.n_reps, rng):
        states = states[grid > burn]
        values = np.broadcast_to(observable(z, states), states.shape)
        rep_means.append(values.mean(axis=0))
        batch_vars.append(batch_means(values).var(axis=0, ddof=1) / N_BATCHES)
    estimate = np.mean(rep_means, axis=0)
    se = np.sqrt(np.mean(batch_vars, axis=0) / config.n_reps)
    return estimate, se


def ergodic_decay_probe(
    z: FieldState,
    y: FieldState,
    fast_drift,
    observable,
    op_b: SpectralOperator,
    w_z: NoiseWeights,
    beta: float,
    t_grid,
    n_paths: int,
    rng: RngStream,
    bbar: np.ndarray,
) -> np.ndarray:
    """|E b(z, Y_z(t; y)) - bbar(z)|_H over the grid, by ensemble averaging.

    ``t_grid`` doubles as the stepping grid (must start at 0); ``observable``
    is called as in :func:`estimate_ergodic_drift`.  A deviation within the
    ensemble sum's rounding of ``bbar``, n_paths * eps_mach * |bbar|_H, reads 0.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0:
        raise ValueError("t_grid must start at 0")
    z = np.asarray(z, dtype=float)
    acc = np.zeros((t_grid.size, op_b.k_trunc))
    for states in _frozen_runs(z, y, fast_drift, op_b, w_z, beta, t_grid, n_paths, rng):
        acc += np.broadcast_to(observable(z, states), states.shape)
    deviation = np.linalg.norm(acc / n_paths - bbar, axis=1)
    residue = n_paths * np.finfo(float).eps * np.linalg.norm(bbar)
    return np.where(deviation <= residue, 0.0, deviation)


def fit_decay_rate(t_grid, values) -> float:
    """Exponential decay rate from least squares on (t, log value)."""
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive values to fit a decay rate")
    slope, _ = np.polyfit(t[mask], np.log(v[mask]), 1)
    return float(-slope)
