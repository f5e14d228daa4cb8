"""Diagonal dissipative operators in a fixed eigenbasis.

Operators act mode-wise through their eigenvalue sequence; states are plain
coefficient vectors (the H-norm is the Euclidean norm of the coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stable_noise import NoiseWeights, PowerLawRule

# H-valued states are carried as raw coefficient vectors in the shared basis.
FieldState = np.ndarray


def h_norm(x: FieldState) -> float:
    return float(np.linalg.norm(x))


@dataclass(frozen=True)
class SpectralOperator:
    """Self-adjoint operator with discrete spectrum 0 < lam_1 < lam_2 < ..."""

    eigenvalues: np.ndarray
    growth_rule: PowerLawRule | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0 or np.any(np.diff(lam) <= 0):
            raise ValueError("eigenvalues must be finite, positive and strictly increasing")

    @classmethod
    def from_rule(cls, rule: PowerLawRule, k_trunc: int) -> "SpectralOperator":
        return cls(rule.values(k_trunc), growth_rule=rule)

    @property
    def k_trunc(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_1(self) -> float:
        return float(self.eigenvalues[0])


def rod_operator(k_trunc: int) -> SpectralOperator:
    """Dirichlet Laplacian on (0, pi): lambda_k = k^2."""
    return SpectralOperator.from_rule(PowerLawRule(1.0, 2.0), k_trunc)


def _bound_grid(delta: float, t_grid, t_positive: bool) -> np.ndarray:
    """The t grid as a column, after refusing a delta outside (0, 1) or a bad t."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    t = np.atleast_1d(np.asarray(t_grid, dtype=float))[:, None]
    if t_positive and np.any(t <= 0):
        raise ValueError("t must be positive")
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    return t


def smoothing_bound_check(op: SpectralOperator, delta: float, t_grid) -> bool:
    """Check max_k lam_k^delta exp(-lam_k t) <= (delta/e)^delta t^-delta on the grid.

    The supremum of lam^delta exp(-lam t) over lam > 0 sits at lam = delta/t,
    so this is an analytic identity; a False return indicates a bug.
    """
    t, lam = _bound_grid(delta, t_grid, t_positive=True), op.eigenvalues
    lhs = np.max(lam**delta * np.exp(-lam * t), axis=1, keepdims=True)
    bound = np.exp(-delta) * delta**delta * t ** (-delta)
    return not np.any(lhs > bound * (1 + 1e-12))


def hoelder_bound_check(op: SpectralOperator, delta: float, t_grid) -> bool:
    """Check max_k lam_k^-delta (1 - exp(-lam_k t)) <= t^delta on the grid.

    Constant 1 suffices since 1 - exp(-u) <= min(1, u) <= u^delta.
    """
    t, lam = _bound_grid(delta, t_grid, t_positive=False), op.eigenvalues
    lhs = np.max(lam ** (-delta) * -np.expm1(-lam * t), axis=1, keepdims=True)
    return not np.any(lhs > t**delta * (1 + 1e-12))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Summability diagnostics for the noise/operator pairing.

    ``delta`` sums beta_k^alpha / lam_k^(1 - alpha*theta) for the slow pair;
    ``kappa2`` sums q_k^beta / mu_k for the fast pair.  Tail bounds come from
    the integral test when both sequences carry power-law rules, else None.
    ``passed`` also requires alpha*theta in (0, 1).
    """

    delta_partial: float
    delta_tail_bound: float | None
    kappa2_partial: float | None
    kappa2_tail_bound: float | None
    theta: float
    passed: bool


def _weighted_sum(weights: NoiseWeights, op: SpectralOperator, idx: float, lam_exp: float):
    """(partial sum, tail bound, converges) of sum_k w_k^idx / lam_k^lam_exp.

    The tail over k > k_trunc is bounded by the integral test, which needs
    power-law rules on both sides; under them the sum diverges iff s <= 1.
    """
    if op.k_trunc != weights.k_trunc:
        raise ValueError("operator and weights must share the truncation level")
    partial = float(np.sum(weights.weights**idx / op.eigenvalues**lam_exp))
    wr, gr = weights.decay_rule, op.growth_rule
    if wr is None or gr is None:
        return partial, None, True
    s = -wr.exponent * idx + gr.exponent * lam_exp  # the summand is coef * k^-s
    if s <= 1:
        return partial, None, False
    coef = wr.c**idx / gr.c**lam_exp
    return partial, coef * op.k_trunc ** (1 - s) / (s - 1), True


def admissibility(
    op_a: SpectralOperator,
    w_l: NoiseWeights,
    alpha: float,
    theta: float,
    op_b: SpectralOperator | None = None,
    w_z: NoiseWeights | None = None,
    beta: float | None = None,
) -> AdmissibilityReport:
    """Evaluate the summability conditions for the slow (and optionally fast) pair.

    Failure is reported through ``passed``, not raised: callers use the report
    to refuse a run, and a failing configuration is legitimate input.
    """
    delta_partial, delta_tail, converges = _weighted_sum(w_l, op_a, alpha, 1 - alpha * theta)
    passed = converges and 0 < alpha * theta < 1

    kappa2_partial = kappa2_tail = None
    if op_b is not None:
        if w_z is None or beta is None:
            raise ValueError("fast pair requires op_b, w_z and beta together")
        kappa2_partial, kappa2_tail, converges = _weighted_sum(w_z, op_b, beta, 1.0)
        passed = passed and converges

    return AdmissibilityReport(
        delta_partial=delta_partial,
        delta_tail_bound=delta_tail,
        kappa2_partial=kappa2_partial,
        kappa2_tail_bound=kappa2_tail,
        theta=theta,
        passed=passed,
    )
