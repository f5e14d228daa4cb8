"""Drift catalog for the steppers.

Two shapes of drift appear: regime drifts b(x, i) indexed by a finite chain
state, and coupled drifts b(x, y) / f(x, y), always called with both fields.
Weighted over its regimes, a regime drift is one of the same family
(``averaged``).  Called without a regime, a drift uses regime 0, so a
one-regime drift maps state to state.

The saturating nonlinearity is tanh: odd, bounded, 1-Lipschitz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LinearRegimeDrift:
    """b(x, i) = c_i * x, one reaction coefficient per regime."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def __call__(self, x: np.ndarray, regime: int = 0) -> np.ndarray:
        return self.coeffs[regime] * x

    @property
    def n_regimes(self) -> int:
        return self.coeffs.size

    def averaged(self, weights) -> LinearRegimeDrift:
        """Regime i of the result is sum_j weights[i, j] b(., j)."""
        return LinearRegimeDrift(weights @ self.coeffs)


@dataclass(frozen=True)
class SaturatingRegimeDrift:
    """b(x, i) = a_i * tanh(x) + o_i, bounded and |a_i|-Lipschitz."""

    gains: np.ndarray
    offsets: np.ndarray  # shape (n_regimes, k_trunc) or (n_regimes,)

    def __post_init__(self):
        object.__setattr__(self, "gains", np.asarray(self.gains, dtype=float))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=float))

    def __call__(self, x: np.ndarray, regime: int = 0) -> np.ndarray:
        return self.gains[regime] * np.tanh(x) + self.offsets[regime]

    @property
    def n_regimes(self) -> int:
        return self.gains.size

    def averaged(self, weights) -> SaturatingRegimeDrift:
        """Regime i of the result is sum_j weights[i, j] b(., j)."""
        return SaturatingRegimeDrift(weights @ self.gains, weights @ self.offsets)


@dataclass(frozen=True)
class SaturatingCoupledDrift:
    """g(x, y) = gain_x * tanh(x) + gain_y * tanh(y) + offset.

    Directional-derivative bounds: |D_x g . h| <= |gain_x| |h| and
    |D_y g . h| <= |gain_y| |h| (tanh acts diagonally with derivative in (0, 1]).
    Uniformly bounded, so usable as the slow drift of the fast-slow system.
    """

    gain_x: float
    gain_y: float
    offset: float = 0.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        g = self.gain_y * np.tanh(y)  # a zero gain_x adds a signed zero, which + offset clears
        return (self.gain_x * np.tanh(x) + g if self.gain_x else g) + self.offset

    @property
    def grad_y_bound(self) -> float:
        return abs(self.gain_y)

    def mixing_rate(self, op_b) -> float:
        """mu_1 - K3: the frozen fast field's exponential mixing rate; ergodic iff positive."""
        return op_b.lambda_1 - self.grad_y_bound

    def bound_for(self, k_trunc: int) -> float:
        return (abs(self.gain_x) + abs(self.gain_y) + abs(self.offset)) * np.sqrt(k_trunc)


@dataclass(frozen=True)
class ZeroCoupledDrift(SaturatingCoupledDrift):
    """g(x, y) = 0: the saturating coupled drift whose gains and offset are 0."""

    gain_x: float = field(default=0.0, init=False)
    gain_y: float = field(default=0.0, init=False)
    offset: float = field(default=0.0, init=False)
