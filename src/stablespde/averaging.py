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

_N_BATCHES = 10  # batch means per replication in the estimator's standard error


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

    def resolve(self, mixing_rate: float) -> tuple[float, float]:
        if mixing_rate <= 0:
            raise ValueError("mixing rate must be positive")
        burn = self.burn_in if self.burn_in is not None else 3.0 / mixing_rate
        horizon = self.horizon if self.horizon is not None else 30.0 / mixing_rate
        if (horizon - burn) / self.dt < _N_BATCHES:  # else a batch of the SE is empty
            raise ValueError(f"averaging horizon must exceed the burn-in by {_N_BATCHES} dt steps")
        return burn, horizon


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
    mixing = op_b.lambda_1 - fast_drift.grad_y_bound
    burn, horizon = config.resolve(mixing)
    z = np.asarray(z, dtype=float)
    if y0 is None:
        y0 = np.zeros(op_b.k_trunc)
    n_steps = int(np.ceil(horizon / config.dt))
    grid = np.linspace(0.0, n_steps * config.dt, n_steps + 1)
    keep = grid > burn

    rep_means, batch_vars = [], []
    for rep in range(config.n_reps):
        noise = draw_noise(beta, rng.substream(rep).substream(Z_NOISE_TAG), n_steps, op_b.k_trunc)
        rec = solve_frozen_fast(z, y0, fast_drift, op_b, w_z, beta, grid, noise)
        states = rec.states[keep]
        values = np.broadcast_to(observable(z, states), states.shape)
        rep_means.append(values.mean(axis=0))
        batches = np.array_split(values, _N_BATCHES, axis=0)
        bm = np.array([b.mean(axis=0) for b in batches])
        batch_vars.append(bm.var(axis=0, ddof=1) / _N_BATCHES)
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
    is called as in :func:`estimate_ergodic_drift`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0:
        raise ValueError("t_grid must start at 0")
    z = np.asarray(z, dtype=float)
    acc = np.zeros((t_grid.size, op_b.k_trunc))
    for j in range(n_paths):
        stream = rng.substream(j).substream(Z_NOISE_TAG)
        noise = draw_noise(beta, stream, t_grid.size - 1, op_b.k_trunc)
        rec = solve_frozen_fast(z, y, fast_drift, op_b, w_z, beta, t_grid, noise)
        acc += np.broadcast_to(observable(z, rec.states), rec.states.shape)
    mean_obs = acc / n_paths
    return np.linalg.norm(mean_obs - bbar, axis=1)


def fit_decay_rate(t_grid, values) -> float:
    """Exponential decay rate from least squares on (t, log value)."""
    t = np.asarray(t_grid, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > 0
    if mask.sum() < 2:
        raise ValueError("need at least two positive values to fit a decay rate")
    slope, _ = np.polyfit(t[mask], np.log(v[mask]), 1)
    return float(-slope)
