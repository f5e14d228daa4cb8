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
        """Lookup array: state index -> class index, as the smallest unsigned type."""
        out = np.empty(self.n_states, dtype=np.min_scalar_type(self.n_classes - 1))
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
        s = np.asarray(self.states)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)
        if t.size != s.size or t.size == 0:
            raise ValueError("times and states must be nonempty and equal-length")
        # states keep their integer dtype, so simulate_chain's compact codes stay compact
        if not np.issubdtype(s.dtype, np.integer):
            raise ValueError(f"states must be integers, got dtype {s.dtype}")
        if t[0] != 0 or np.any(t[1:] <= t[:-1]) or t[-1] > self.horizon:
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


# Block b of a chain walk takes min(64 * 2**b, 16,384) draws (rng.py states the contract)
_FIRST_BLOCK = 64
_MAX_BLOCK = 16_384
_LOOP_WALK = 32  # a walk of at most this many steps runs as a plain Python loop


def _walk(table: np.ndarray, cols: np.ndarray, s0: int) -> np.ndarray:
    """States s_0..s_m of the walk s_{k+1} = table[s_k, cols[k]] from s_0 = s0.

    Pairwise composition: the maps of draws 2i and 2i+1 compose into one map,
    the walk over those m/2 maps gives the states after the odd draws, and
    one gather from those gives the states after the even draws.  That is
    log2(m) rounds of integer gathers on O(m n) entries in all.  Map k is
    column cols[k] of the table, and entry (s, c) of the flattened table sits
    at s * w + c.
    """
    m = cols.size
    if m <= _LOOP_WALK:
        out = [s0]
        for col in table[:, cols].T.tolist():
            out.append(col[out[-1]])
        return np.array(out, dtype=np.intp)
    w, half = table.shape[1], m // 2
    flat = table.reshape(-1)
    pairs = flat.take(table.take(cols[0 : 2 * half : 2], axis=1) * w + cols[1 : 2 * half : 2])
    out = np.empty(m + 1, dtype=np.intp)
    out[0::2] = _walk(pairs, np.arange(half), s0)
    out[1::2] = flat.take(out[0:m:2] * w + cols[0::2])
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
    whose cumulative jump probability from s exceeds unis[k].  The chain is
    walked in blocks of 64, 128, ... up to 16,384 draws, and each block draws
    its own: ``standard_exponential(m)`` then ``random(m)`` on one fresh
    generator of ``rng`` (the stream contract in :mod:`stablespde.rng`).  Every
    row threshold of the cumulative kernel is one of its distinct values, so
    one searchsorted of a block's uniforms against those values picks, for
    every draw, a row of a threshold table that holds the jump map of every
    state.  The maps compose pairwise into the states (:func:`_walk`), and one
    cumulative sum of the holding times adds them in the same order as a
    jump-by-jump loop and so gives the same bits.  The walk stops at the
    first absorbing state or the first jump time at or past the horizon.

    Each block's kept jump times and states are copied into one output buffer
    per array.  A buffer starts at the one initial entry and grows in place
    (``ndarray.resize``) by exactly the entries each block keeps, so it is
    always the size of the chain so far and the returned arrays own
    exactly-sized data.  States are compact codes of
    ``np.min_scalar_type(n - 1)``: uint8 up to 256 states.
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
    # column b of the table maps every state on a uniform u with edges[b - 1] <= u <
    # edges[b]: cum[s, j] <= u exactly when cum[s, j] <= edges[b - 1], as cum[s, j]
    # is an edge; column 0 serves u below every edge.  The edges are cum's distinct
    # values in increasing order, np.unique's result without its import of numpy.ma
    # (1.6 MB of RSS in a process whose first np.unique call this is)
    edges = np.sort(cum, axis=None)
    edges = edges[np.insert(edges[1:] != edges[:-1], 0, True)]
    table = np.zeros((n, edges.size + 1), dtype=np.intp)
    for s in range(n):
        table[s, 1:] = np.searchsorted(cum[s], edges, side="right")

    gen = rng.generator()
    times = np.zeros(1)
    states = np.full(1, r0, dtype=np.min_scalar_type(n - 1))
    k, t, state, m = 1, 0.0, r0, _FIRST_BLOCK
    while exit_rates[state] > 0:
        exps = gen.standard_exponential(m)
        # cols lives until the next block's replaces it; inlined into the walk call, it
        # left the heap trimmed and regrown per block (1.4x the page faults, 1.2 M jumps)
        cols = np.searchsorted(edges, gen.random(m), side="right")
        walk = _walk(table, cols, state)
        before, after = walk[:-1], walk[1:]
        # the holding times overwrite the exponentials; adding t to the first one
        # gives the bits of a sum that starts at t
        t_after = np.divide(exps, hold_rates[before], out=exps)
        t_after[0] += t
        np.cumsum(t_after, out=t_after)
        live = exit_rates[before] > 0
        last = t_after[-1] >= horizon or not live.all()
        kept = int(np.argmin(live & (t_after < horizon))) if last else m
        # resize reallocates the buffer itself, so no second array of the old size is
        # held.  Blocks are copied in, never drawn into the buffer, so no view of a
        # buffer outlives a block and none is left dangling if resize moves it
        times.resize(k + kept, refcheck=False)
        states.resize(k + kept, refcheck=False)
        times[k : k + kept] = t_after[:kept]
        states[k : k + kept] = after[:kept]
        k += kept
        if last:
            break
        t, state = t_after[-1], int(after[-1])
        m = min(2 * m, _MAX_BLOCK)
        # this block's draws and walk are freed before the next block's are made; held
        # through them, they set the chain's peak RSS, 0.8 MB higher at 1.2 M jumps
        del exps, t_after, walk, before, after
    return ChainPath(times, states, horizon)


_CHUNK = 2**16  # path entries mapped or summed at a time by the two functions below


def aggregate_path(path: ChainPath, partition: ClassPartition) -> ChainPath:
    """Map states to class indices, merging consecutive equal-class segments.

    Entry i is kept when its class differs from entry i - 1's.  The classes are
    looked up _CHUNK entries at a time, so only the keep mask is as long as the
    path.
    """
    lookup, states = partition.class_of(), path.states
    keep = np.empty(states.size, dtype=bool)
    keep[0] = True
    for lo in range(1, states.size, _CHUNK):
        classes = lookup[states[lo - 1 : lo + _CHUNK]]
        np.not_equal(classes[1:], classes[:-1], out=keep[lo : lo + _CHUNK])
    return ChainPath(path.times[keep], lookup[states[keep]], path.horizon)


def occupation_fractions(path: ChainPath, n: int) -> np.ndarray:
    """Fraction of the horizon spent in each state; sums to 1.

    The durations are formed and added _CHUNK at a time in path order, so the
    sums are those of one ``np.add.at`` over all of them while only one chunk
    of durations is held.
    """
    times, size = path.times, path.times.size
    out = np.zeros(n)
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        ends = times[lo + 1 : hi + 1]
        if hi == size:
            ends = np.append(ends, path.horizon)
        np.add.at(out, path.states[lo:hi], ends - times[lo:hi])
    return out / path.horizon
