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


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of ``values`` in increasing order: ``np.unique``'s result.

    Sorted, then kept where a value differs from its predecessor.  np.unique
    does the same but imports numpy.ma on its first call, 1.0 MB of RSS and
    10 ms in a process that has not imported it yet.
    """
    out = np.sort(values, axis=None)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass(frozen=True)
class _ChainLaw:
    """The jump law of Qtilde/eps + Qhat as one chain walk reads it.

    ``table[s, b]`` is the state a draw moves state s to when its uniform u
    has ``edges[b - 1] <= u < edges[b]`` (column 0: u below every edge).
    """

    exit_rates: np.ndarray  # 0 at an absorbing state
    hold_rates: np.ndarray  # inf at an absorbing state: its discarded holding time stays finite
    edges: np.ndarray
    table: np.ndarray


def _chain_law(qtilde: GeneratorMatrix, qhat: GeneratorMatrix, eps: float, r0: int,
               horizon: float) -> _ChainLaw:
    """The law a chain from ``r0`` over [0, ``horizon``] walks, once those are checked."""
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
    # row-wise jump kernel as cumulative probabilities; from its last target on
    # a row reads exactly 1, so rounding cannot map a draw past the last state
    cum = np.ones_like(kernel)
    for i in np.flatnonzero(exit_rates > 0):
        last = np.flatnonzero(kernel[i])[-1]
        cum[i, :last] = np.cumsum(kernel[i, :last]) / exit_rates[i]
    # cum[s, j] <= u exactly when cum[s, j] <= edges[b - 1], as cum[s, j] is an edge
    edges = sorted_distinct(cum)
    table = np.zeros((n, edges.size + 1), dtype=np.intp)
    for s in range(n):
        table[s, 1:] = np.searchsorted(cum[s], edges, side="right")
    return _ChainLaw(exit_rates, np.where(exit_rates > 0, exit_rates, np.inf), edges, table)


def _walk_blocks(law: _ChainLaw, r0: int, rng: RngStream):
    """The walk from ``r0`` on a fresh generator of ``rng``, one (exps, walk) per block.

    Block b draws m = min(64 * 2**b, 16,384) pairs, ``standard_exponential(m)``
    then ``random(m)``, and ``walk`` holds the m + 1 states from the block's
    first to the one after its last draw.  The blocks end at the first
    absorbing state; the caller stops drawing them when its horizon is crossed.
    """
    gen, state, m = rng.generator(), r0, _FIRST_BLOCK
    while law.exit_rates[state] > 0:
        exps = gen.standard_exponential(m)
        # cols lives until the next block's replaces it; inlined into the walk call, it
        # left the heap trimmed and regrown per block (1.4x the page faults, 1.2 M jumps)
        cols = np.searchsorted(law.edges, gen.random(m), side="right")
        walk = _walk(law.table, cols, state)
        state = int(walk[-1])
        yield exps, walk
        m = min(2 * m, _MAX_BLOCK)
        # this block's draws and walk are freed before the next block's are made; held
        # through them, they set the chain's peak RSS, 0.8 MB higher at 1.2 M jumps
        del exps, walk


class _ChainTimes:
    """The jump times and states of one chain, timed and kept block by block.

    A block's holding times are its exponentials divided by the exit rates of
    the states they are spent in, and one cumulative sum, with the previous
    block's last time added to the first, adds them in the order of a
    jump-by-jump loop and so gives its bits.  The kept times and states are
    copied into one buffer per array, which starts at the one initial entry
    and grows in place (``ndarray.resize``) by exactly the entries each block
    keeps, so the returned arrays own exactly-sized data.
    """

    def __init__(self, law: _ChainLaw, r0: int, horizon: float):
        self.law, self.horizon, self.k, self.t = law, horizon, 1, 0.0
        self.times = np.zeros(1)
        self.states = np.full(1, r0, dtype=np.min_scalar_type(law.table.shape[0] - 1))

    def add(self, exps: np.ndarray, walk: np.ndarray, out=None) -> bool:
        """Keep one block's jumps; True when the chain is complete.

        ``out=exps`` times the block in place of its exponentials.
        """
        before, after, k = walk[:-1], walk[1:], self.k
        t_after = np.divide(exps, self.law.hold_rates[before], out=out)
        t_after[0] += self.t
        np.cumsum(t_after, out=t_after)
        live = self.law.exit_rates[before] > 0
        last = t_after[-1] >= self.horizon or not live.all()
        kept = int(np.argmin(live & (t_after < self.horizon))) if last else exps.size
        # resize reallocates the buffer itself, so no second array of the old size is
        # held.  Blocks are copied in, never drawn into the buffer, so no view of a
        # buffer outlives a block and none is left dangling if resize moves it
        self.times.resize(k + kept, refcheck=False)
        self.states.resize(k + kept, refcheck=False)
        self.times[k : k + kept] = t_after[:kept]
        self.states[k : k + kept] = after[:kept]
        self.k, self.t = k + kept, t_after[-1]
        return last

    def path(self) -> ChainPath:
        return ChainPath(self.times, self.states, self.horizon)


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
    state.  The maps compose pairwise into the states (:func:`_walk`), and the
    holding times overwrite the block's exponentials (:class:`_ChainTimes`).
    The walk stops at the first absorbing state or the first jump time at or
    past the horizon.  States are compact codes of ``np.min_scalar_type(n - 1)``:
    uint8 up to 256 states.
    """
    return chain_sampler(qtilde, qhat, [eps], r0, horizon)(rng)[0]


def chain_sampler(qtilde: GeneratorMatrix, qhat: GeneratorMatrix, eps_grid, r0: int,
                  horizon: float):
    """``rng -> [simulate_chain(qtilde, qhat, eps, r0, horizon, rng) for eps in eps_grid]``.

    The law of each eps, and which eps share a walk, are worked out here, once
    for every path the sampler is called on.  When Qhat is zero and every eps
    has the same threshold table and absorbing states, every eps draws the same
    pairs on ``rng`` and visits the same states; only the holding times,
    exponential / (exit_rate / eps), differ.  Those eps then share one walk,
    drawn until the last of them has crossed the horizon, and each times its
    blocks from the shared exponentials.  Otherwise each eps walks its own
    chain.  While one chain alone is open on a walk, it times each block in
    place of the block's exponentials.
    """
    laws = [_chain_law(qtilde, qhat, eps, r0, horizon) for eps in eps_grid]
    shared = not np.any(qhat.rates) and all(
        np.array_equal(law.edges, laws[0].edges)
        and np.array_equal(law.table, laws[0].table)
        and np.array_equal(law.exit_rates > 0, laws[0].exit_rates > 0)
        for law in laws
    )
    groups = [laws] if shared and laws else [[law] for law in laws]

    def sample(rng: RngStream) -> list[ChainPath]:
        chains = []
        for group in groups:
            open_chains = [_ChainTimes(law, r0, horizon) for law in group]
            chains += open_chains
            for exps, walk in _walk_blocks(group[0], r0, rng):
                alone = len(open_chains) == 1
                open_chains = [c for c in open_chains
                               if not c.add(exps, walk, out=exps if alone else None)]
                if not open_chains:
                    break
                del exps, walk  # freed before the next block is drawn (see _walk_blocks)
        return [c.path() for c in chains]

    return sample


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
