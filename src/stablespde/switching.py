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
    for i, (blk, gen) in enumerate(zip(partition.classes, qtilde_blocks)):
        mu_tilde[i, list(blk)] = stationary_distribution(gen)
    return GeneratorMatrix(mu_tilde @ qhat.rates @ np.eye(l)[partition.class_of()])


# Stream contract of simulate_chain: draws come in chunks of _CHUNK,
# standard_exponential(_CHUNK) then random(_CHUNK), a new chunk only when the
# chain needs a draw past the end of the last one.
_CHUNK = 4096
_FIRST_BLOCK = 64


def _walk(maps: np.ndarray, s0: int) -> np.ndarray:
    """States s_1..s_m of the walk s_{k+1} = maps[k, s_k] from s_0 = s0.

    Pairwise composition: the maps of draws 2i and 2i+1 compose into one map,
    the walk over those m/2 maps gives the states after the odd draws, and
    one gather from those gives the states after the even draws.  That is
    log2(m) rounds of integer fancy indexing on O(m n) entries in all.  Row k
    of the flattened table starts at k * n.
    """
    m, n = maps.shape
    if m == 1:
        return maps[0, s0 : s0 + 1]
    flat = maps.reshape(-1)
    half = m // 2
    pairs = flat.take(maps[0 : 2 * half : 2] + np.arange(n, 2 * half * n, 2 * n)[:, None])
    out = np.empty(m, dtype=maps.dtype)
    out[1::2] = _walk(pairs, s0)
    before_even = np.concatenate(([s0], out[1 : m - 1 : 2]))
    out[0::2] = flat.take(before_even + np.arange(0, m * n, 2 * n))
    return out


def simulate_chain(
    qtilde: GeneratorMatrix,
    qhat: GeneratorMatrix,
    eps: float,
    r0: int,
    horizon: float,
    rng: RngStream,
) -> ChainPath:
    """Exact Gillespie simulation of the chain with generator Qtilde/eps + Qhat.

    Draw k is the pair (exps[k], unis[k]): the holding time in the current
    state s is exps[k] / exit_rate[s] and the next state is the first index
    whose cumulative jump probability from s exceeds unis[k].  The draws come
    in chunks (see ``_CHUNK``); that order is the stream contract.  Each chunk
    is walked in blocks of 64, 128, ... draws, so a short chain draws few
    maps: a block tabulates the jump map of every state for each of its
    draws, composes the maps pairwise to get the states (:func:`_walk`), and
    sums the holding times with one cumulative sum, which adds in the same
    order as a jump-by-jump loop and so gives the same bits.  The walk stops
    at the first absorbing state or the first jump time at or past the
    horizon.
    """
    if not (eps > 0 and 0 < horizon < np.inf):
        raise ValueError("eps and horizon must be positive and the horizon finite")
    q = qtilde.rates / eps + qhat.rates
    n = q.shape[0]
    if not 0 <= r0 < n:
        raise ValueError(f"initial state {r0} out of range")
    kernel = q.copy()
    np.fill_diagonal(kernel, 0.0)
    # a state with no jump target never leaves, even if rounding left its exit rate > 0
    exit_rates = np.where(kernel.max(axis=1) > 0, -np.diag(q), 0.0)
    # an absorbing state's holding time is discarded; inf keeps it finite
    hold_rates = np.where(exit_rates > 0, exit_rates, np.inf)
    # row-wise jump kernel as cumulative probabilities; from its last target on
    # a row reads exactly 1, so rounding cannot map a draw past the last state
    cum = np.ones_like(kernel)
    for i in np.flatnonzero(exit_rates > 0):
        last = np.flatnonzero(kernel[i])[-1]
        cum[i, :last] = np.cumsum(kernel[i, :last]) / exit_rates[i]

    gen = rng.generator()
    times, states = [np.zeros(1)], [np.array([r0])]
    t, state = 0.0, r0
    pos, block = _CHUNK, _FIRST_BLOCK  # no chunk yet: the loop draws the first
    while exit_rates[state] > 0:
        if pos == _CHUNK:
            exps = gen.standard_exponential(_CHUNK)
            unis = gen.random(_CHUNK)
            pos = 0
        m = min(block, _CHUNK - pos)
        block = min(2 * block, _CHUNK)
        u = unis[pos : pos + m]
        maps = np.empty((m, n), dtype=np.intp)
        for s in range(n):
            maps[:, s] = np.searchsorted(cum[s], u, side="right")
        after = _walk(maps, state)
        before = np.concatenate(([state], after[:-1]))
        t_after = np.cumsum(np.concatenate(([t], exps[pos : pos + m] / hold_rates[before])))[1:]
        taken = (exit_rates[before] > 0) & (t_after < horizon)
        k = m if taken.all() else int(np.argmin(taken))
        times.append(t_after[:k])
        states.append(after[:k])
        if k < m:
            break
        t, state = t_after[-1], after[-1]
        pos += m
    return ChainPath(np.concatenate(times), np.concatenate(states), horizon)


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
