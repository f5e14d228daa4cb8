"""Two-time-scale continuous-time Markov chains and their aggregation.

The chain generator splits as Q_eps = Qtilde/eps + Qhat into fast and slow
parts.  Simulation is exact event-driven (no time discretization): the jump
skeleton it produces is consumed directly by the SPDE steppers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream

_ROWSUM_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMatrix:
    """CTMC generator: nonnegative off-diagonals, zero row sums."""

    rates: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("generator must be a square matrix")
        off = q[~np.eye(q.shape[0], dtype=bool)]
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.max(np.abs(q.sum(axis=1))) > _ROWSUM_TOL * max(1.0, np.abs(q).max()):
            raise ValueError("generator rows must sum to zero")

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    @classmethod
    def zero(cls, n: int) -> "GeneratorMatrix":
        return cls(np.zeros((n, n)))


@dataclass(frozen=True)
class ClassPartition:
    """Ordered disjoint blocks of 0-based state indices covering {0..n-1}."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(s) for s in blk) for blk in self.classes)
        object.__setattr__(self, "classes", blocks)
        flat = [s for blk in blocks for s in blk]
        if not blocks or any(len(blk) == 0 for blk in blocks):
            raise ValueError("every class must be nonempty")
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("classes must disjointly cover 0..n-1")

    @property
    def n_states(self) -> int:
        return sum(len(blk) for blk in self.classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_of(self) -> np.ndarray:
        """Lookup array: state index -> class index."""
        out = np.empty(self.n_states, dtype=int)
        for i, blk in enumerate(self.classes):
            out[list(blk)] = i
        return out


@dataclass(frozen=True)
class ChainPath:
    """Piecewise-constant cadlag path: state ``states[i]`` on [times[i], times[i+1])."""

    times: np.ndarray  # jump times, times[0] == 0
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=int)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        if t.size != s.size or t.size == 0:
            raise ValueError("times and states must be nonempty and equal-length")
        if t[0] != 0 or np.any(np.diff(t) <= 0) or t[-1] > self.horizon:
            raise ValueError("jump times must increase from 0 within the horizon")

    def state_at(self, t: float) -> int:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return int(self.states[idx])

    def breakpoints_in(self, t0: float, t1: float) -> np.ndarray:
        """Jump times strictly inside (t0, t1)."""
        lo = np.searchsorted(self.times, t0, side="right")
        hi = np.searchsorted(self.times, t1, side="left")
        return self.times[lo:hi]


def stationary_distribution(qtilde: GeneratorMatrix) -> np.ndarray:
    """Solve nu Qtilde = 0, sum nu = 1 via the augmented dense system."""
    q = qtilde.rates
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0  # replace one equation by the normalization
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    # weak irreducibility <=> exactly one-dimensional null space of Qtilde^T
    if np.linalg.matrix_rank(q) != n - 1:
        raise ValueError("generator is not weakly irreducible")
    nu = np.linalg.solve(a, rhs)
    nu = np.where(np.abs(nu) < 1e-14, 0.0, nu)
    if np.any(nu < 0):
        raise ValueError("stationary solve produced negative entries")
    return nu / nu.sum()


def aggregate_generator(
    qtilde_blocks: list[GeneratorMatrix],
    qhat: GeneratorMatrix,
    partition: ClassPartition,
) -> GeneratorMatrix:
    """Assemble the limit generator Qbar = mu_tilde Qhat I over the class partition."""
    if sum(b.n_states for b in qtilde_blocks) != qhat.n_states:
        raise ValueError("block sizes must sum to the Qhat dimension")
    if partition.n_states != qhat.n_states or partition.n_classes != len(qtilde_blocks):
        raise ValueError("partition inconsistent with blocks")
    n, l = qhat.n_states, partition.n_classes
    mu_tilde = np.zeros((l, n))
    ones = np.zeros((n, l))
    for i, (blk, gen) in enumerate(zip(partition.classes, qtilde_blocks)):
        mu_tilde[i, list(blk)] = stationary_distribution(gen)
        ones[list(blk), i] = 1.0
    return GeneratorMatrix(mu_tilde @ qhat.rates @ ones)


def simulate_chain(
    qtilde: GeneratorMatrix,
    qhat: GeneratorMatrix,
    eps: float,
    r0: int,
    horizon: float,
    rng: RngStream,
) -> ChainPath:
    """Exact Gillespie simulation of the chain with generator Qtilde/eps + Qhat."""
    if eps <= 0 or horizon <= 0:
        raise ValueError("eps and horizon must be positive")
    q = qtilde.rates / eps + qhat.rates
    n = q.shape[0]
    if not 0 <= r0 < n:
        raise ValueError(f"initial state {r0} out of range")
    exit_rates = -np.diag(q)
    # row-wise jump kernel as cumulative probabilities
    kernel = q.copy()
    np.fill_diagonal(kernel, 0.0)
    cum = np.zeros_like(kernel)
    for i in range(n):
        cum[i] = np.cumsum(kernel[i]) / exit_rates[i] if exit_rates[i] > 0 else 1.0

    gen = rng.generator()
    times = [0.0]
    states = [r0]
    t, state = 0.0, r0
    # draw randoms in chunks to keep the event loop lean
    chunk = 4096
    exps = gen.standard_exponential(chunk)
    unis = gen.random(chunk)
    pos = 0
    while True:
        rate = exit_rates[state]
        if rate <= 0:
            break
        if pos >= chunk:
            exps = gen.standard_exponential(chunk)
            unis = gen.random(chunk)
            pos = 0
        t += exps[pos] / rate
        if t >= horizon:
            break
        state = int(np.searchsorted(cum[state], unis[pos], side="right"))
        pos += 1
        times.append(t)
        states.append(state)
    return ChainPath(np.array(times), np.array(states), horizon)


def aggregate_path(path: ChainPath, partition: ClassPartition) -> ChainPath:
    """Map states to class indices, merging consecutive equal-class segments."""
    lookup = partition.class_of()
    classes = lookup[path.states]
    keep = np.concatenate(([True], np.diff(classes) != 0))
    return ChainPath(path.times[keep], classes[keep], path.horizon)


def occupation_fractions(path: ChainPath, n: int) -> np.ndarray:
    """Fraction of the horizon spent in each state; sums to 1."""
    bounds = np.append(path.times, path.horizon)
    durations = np.diff(bounds)
    out = np.zeros(n)
    np.add.at(out, path.states, durations)
    return out / path.horizon
