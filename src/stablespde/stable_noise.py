"""Symmetric alpha-stable variates and the exact scales of stable convolutions.

The sampler uses the Chambers-Mallows-Stuck transform restricted to the
symmetric standard family with stability index in (1, 2]; at index 2 the law
is Normal(0, 2), matching the characteristic function exp(-u^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class PowerLawRule:
    """Sequence rule value_k = c * k**exponent (k = 1, 2, ...).

    Used both for noise weights (negative exponent) and operator eigenvalues
    (positive exponent); carrying the rule lets tail sums be bounded by the
    integral test instead of truncation guesswork.
    """

    c: float
    exponent: float

    def values(self, k_trunc: int) -> np.ndarray:
        """The first ``k_trunc`` values; one that overflows is inf (or nan for c = 0),
        for the sequence's own finite check to refuse."""
        k = np.arange(1, k_trunc + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return self.c * k**self.exponent


@dataclass(frozen=True)
class NoiseWeights:
    """Per-mode weights of a cylindrical stable process."""

    weights: np.ndarray
    decay_rule: PowerLawRule | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-d sequence")
        if not np.all((w > 0) & (w < np.inf)):
            raise ValueError("all noise weights must be positive and finite")

    @classmethod
    def from_rule(cls, rule: PowerLawRule, k_trunc: int) -> "NoiseWeights":
        return cls(rule.values(k_trunc), decay_rule=rule)

    @property
    def k_trunc(self) -> int:
        return self.weights.size


# values per transform chunk: bounds the transform's temporaries
_TRANSFORM_CHUNK = 1 << 14


def check_alpha(alpha: float) -> None:
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"stability index must lie in (1, 2], got {alpha}")


def _cms(alpha, u, w):
    """Chambers-Mallows-Stuck: uniforms on (-pi/2, pi/2) and exponentials to variates."""
    if alpha == 2.0:
        # CMS formula at alpha=2 degenerates to 2 sin(U) sqrt(W): Normal(0, 2).
        return 2.0 * np.sin(u) * np.sqrt(w)
    a = alpha
    return (
        np.sin(a * u)
        / np.cos(u) ** (1.0 / a)
        * (np.cos((1.0 - a) * u) / w) ** ((1.0 - a) / a)
    )


def sample_standard_stable(alpha, rng, size):
    """Draw from the standard symmetric stable law, CF exp(-|u|^alpha).

    ``rng`` may be an :class:`RngStream` or a live ``numpy.random.Generator``.
    ``size`` is an int or a shape of one or more axes.  The draw follows the
    stream contract of :mod:`.rng`: all its uniforms, then all its
    exponentials, so a draw of any shape is the 1-d draw of as many values,
    reshaped.  The transform then runs in chunks of values written back into
    the uniforms.
    """
    check_alpha(alpha)
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    out = gen.uniform(-np.pi / 2, np.pi / 2, size)
    if np.ndim(out) == 0:
        raise ValueError(f"size must have at least one axis, got {size!r}")
    u, w = out.reshape(-1), gen.standard_exponential(out.size)
    for i in range(0, u.size, _TRANSFORM_CHUNK):
        chunk = slice(i, i + _TRANSFORM_CHUNK)
        u[chunk] = _cms(alpha, u[chunk], w[chunk])
    return out


def ecf(samples: np.ndarray, u) -> np.ndarray:
    """Empirical characteristic function mean(exp(i*u*X)) on a grid of u."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.exp(1j * np.outer(u, samples)).mean(axis=1)


def convolution_scale(beta_k, lambda_k, alpha: float, h: float):
    """Exact stable scale of the mode-wise stochastic convolution.

    Returns beta_k * ((1 - exp(-alpha*lambda_k*h)) / (alpha*lambda_k))^(1/alpha),
    the scale of int_0^h exp(-lambda_k (h-s)) dL_k(s).  Vectorized over modes.
    """
    check_alpha(alpha)
    if h < 0:
        raise ValueError("h must be nonnegative")
    lam = np.asarray(lambda_k, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda_k must be positive")
    return np.asarray(beta_k) * (-np.expm1(-alpha * lam * h) / (alpha * lam)) ** (1.0 / alpha)
