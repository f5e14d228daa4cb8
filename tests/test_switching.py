import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablespde.config import load_config
from stablespde.rng import CHAIN_TAG, RngStream
from stablespde.switching import (
    _CHUNK,
    ChainPath,
    ClassPartition,
    GeneratorMatrix,
    _walk,
    aggregate_generator,
    aggregate_path,
    chain_sampler,
    occupation_fractions,
    simulate_chain,
    sorted_distinct,
    stationary_distribution,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SYM2 = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))

# documented 4-state / 2-class instance used across the aggregation tests
QT_BLOCKS = [SYM2, GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))]
QHAT4 = GeneratorMatrix(
    np.array(
        [
            [-1.0, 0.2, 0.5, 0.3],
            [0.1, -0.6, 0.2, 0.3],
            [0.4, 0.1, -0.8, 0.3],
            [0.2, 0.2, 0.1, -0.5],
        ]
    )
)
PART4 = ClassPartition(((0, 1), (2, 3)))
# hand product mu_tilde Qhat I with mu = (1/2,1/2) and (1/3,2/3)
QBAR4 = np.array([[-0.65, 0.65], [13.0 / 30.0, -13.0 / 30.0]])


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))  # bad row sum
    with pytest.raises(ValueError):
        GeneratorMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))  # negative off-diagonal


def test_stationary_symmetric_two_state():
    assert np.allclose(stationary_distribution(SYM2), [0.5, 0.5], atol=1e-12)


def test_stationary_asymmetric_two_state():
    q = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    assert np.allclose(stationary_distribution(q), [1 / 3, 2 / 3], atol=1e-12)


def test_stationary_single_state():
    assert np.allclose(stationary_distribution(GeneratorMatrix(np.array([[0.0]]))), [1.0])


def test_stationary_residual():
    q = GeneratorMatrix(np.array([[-3.0, 1.0, 2.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]]))
    nu = stationary_distribution(q)
    assert np.max(np.abs(nu @ q.rates)) <= 1e-10
    assert abs(nu.sum() - 1.0) <= 1e-12


def test_stationary_rejects_reducible():
    q = GeneratorMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        stationary_distribution(q)


def test_aggregate_generator_singleton_classes():
    qhat = GeneratorMatrix(np.array([[-0.3, 0.3], [0.7, -0.7]]))
    blocks = [GeneratorMatrix(np.array([[0.0]])), GeneratorMatrix(np.array([[0.0]]))]
    part = ClassPartition(((0,), (1,)))
    qbar = aggregate_generator(blocks, qhat, part)
    assert np.allclose(qbar.rates, qhat.rates, atol=1e-14)


def test_aggregate_generator_hand_instance():
    qbar = aggregate_generator(QT_BLOCKS, QHAT4, PART4)
    assert np.max(np.abs(qbar.rates - QBAR4)) <= 1e-12


def test_aggregate_generator_zero_qhat():
    qbar = aggregate_generator(QT_BLOCKS, GeneratorMatrix.zero(4), PART4)
    assert np.allclose(qbar.rates, 0.0)


@st.composite
def _aggregation_cases(draw):
    """Irreducible class blocks, a generator Qhat and a partition whose classes may interleave."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    order = draw(st.permutations(range(sum(sizes))))
    cuts = np.cumsum([0, *sizes])
    partition = ClassPartition(tuple(tuple(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])))

    def generator(m, low):
        off = np.array(draw(st.lists(st.floats(low, 5.0), min_size=m * m, max_size=m * m)))
        off = off.reshape(m, m)
        np.fill_diagonal(off, 0.0)
        return GeneratorMatrix(off - np.diag(off.sum(axis=1)))

    return [generator(m, 0.1) for m in sizes], generator(sum(sizes), 0.0), partition


@settings(max_examples=60, deadline=None)
@given(case=_aggregation_cases())
@example(case=(QT_BLOCKS, QHAT4, ClassPartition(((2, 0), (1, 3)))))
def test_aggregate_generator_is_mu_qhat_indicator_product(case):
    blocks, qhat, partition = case
    n, l = qhat.n_states, partition.n_classes
    mu_tilde, indicator = np.zeros((l, n)), np.zeros((n, l))
    for i, blk in enumerate(partition.classes):
        mu_tilde[i, list(blk)] = stationary_distribution(blocks[i])
        for s in blk:
            indicator[s, i] = 1.0
    qbar = aggregate_generator(blocks, qhat, partition)
    assert qbar.rates.tobytes() == (mu_tilde @ qhat.rates @ indicator).tobytes()


def test_simulate_chain_frozen_when_rates_zero():
    path = simulate_chain(GeneratorMatrix.zero(2), GeneratorMatrix.zero(2), 0.1, 1, 5.0, RngStream(0))
    assert path.states.tolist() == [1]
    assert path.times.tolist() == [0.0]


def test_simulate_chain_occupation_matches_stationary():
    path = simulate_chain(SYM2, GeneratorMatrix.zero(2), 1e-3, 0, 10.0, RngStream(1))
    occ = occupation_fractions(path, 2)
    assert np.max(np.abs(occ - 0.5)) < 0.02


def test_simulate_chain_jump_count_poisson_oracle():
    # constant exit rate 1/eps for the symmetric 2-state chain: jump count over
    # [0, T] is Poisson(T/eps)
    eps, horizon, n_paths = 0.05, 2.0, 1000
    counts = np.array(
        [
            simulate_chain(SYM2, GeneratorMatrix.zero(2), eps, 0, horizon, RngStream(2, j)).states.size
            - 1
            for j in range(n_paths)
        ]
    )
    lam = horizon / eps
    se = np.sqrt(lam / n_paths)
    assert abs(counts.mean() - lam) < 3 * se


def _reference_chain(qtilde, qhat, eps, r0, horizon, rng):
    """The jump-by-jump Gillespie loop that simulate_chain must reproduce bit for bit.

    Its draws follow the chain's stream contract, stated here rather than imported:
    blocks of 64 draws, doubling up to 16,384, each standard_exponential(m) then
    random(m) on one fresh generator.
    """
    q = qtilde.rates / eps + qhat.rates
    n = q.shape[0]
    exit_rates = -np.diag(q)
    kernel = q.copy()
    np.fill_diagonal(kernel, 0.0)
    cum = np.zeros_like(kernel)
    for i in range(n):
        cum[i] = np.cumsum(kernel[i]) / exit_rates[i] if exit_rates[i] > 0 else 1.0
    gen = rng.generator()
    times, states = [0.0], [r0]
    t, state = 0.0, r0
    exps = unis = np.empty(0)
    pos = 0
    while True:
        rate = exit_rates[state]
        if rate <= 0:
            break
        if pos == exps.size:
            block = 64 if exps.size == 0 else min(2 * exps.size, 16384)
            exps = gen.standard_exponential(block)
            unis = gen.random(block)
            pos = 0
        t += exps[pos] / rate
        if t >= horizon:
            break
        state = int(np.searchsorted(cum[state], unis[pos], side="right"))
        pos += 1
        times.append(t)
        states.append(state)
    return np.array(times), np.array(states)


def _assert_matches_reference(qtilde, qhat, eps, r0, horizon, rng):
    path = simulate_chain(qtilde, qhat, eps, r0, horizon, rng)
    times, states = _reference_chain(qtilde, qhat, eps, r0, horizon, rng)
    assert path.times.tobytes() == times.tobytes()
    assert path.states.tolist() == states.tolist()
    return path


def test_simulate_chain_matches_reference_into_capped_blocks():
    # blocks 0-8 hold 64 + 128 + ... + 16,384 = 32,704 draws; every later block is capped
    cfg = load_config(CONFIG_DIR / "aggregate.cfg")
    qt, qh = cfg.generator_pair()
    rng = RngStream(cfg.seed, 0).substream(CHAIN_TAG)
    path = _assert_matches_reference(qt, qh, 1e-3, 0, 30.0, rng)
    assert path.states.size - 1 > 32_704  # 36,487 jumps


# absorbed in state 2 after 30 jumps (inside the first 64-draw block), after
# 64 (its last draw) and after 192 (the last draw of the second block)
ABSORBING3 = GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [0.97, -1.0, 0.03], [0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("seed, n_jumps", [(135, 30), (210, 64), (197, 192)])
def test_simulate_chain_matches_reference_into_absorbing_state(seed, n_jumps):
    zero = GeneratorMatrix.zero(3)
    path = _assert_matches_reference(ABSORBING3, zero, 1.0, 0, 1e6, RngStream(seed))
    assert path.states.size - 1 == n_jumps
    assert path.states[-1] == 2


def test_simulate_chain_matches_reference_absorbed_in_a_capped_block():
    # absorption after 46,970 jumps falls inside block 9, draws 32,705 to 49,088,
    # the first block that the 16,384 cap shortens
    q = GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [0.99996, -1.0, 0.00004], [0.0, 0.0, 0.0]]))
    path = _assert_matches_reference(q, GeneratorMatrix.zero(3), 1.0, 0, 1e6, RngStream(1))
    assert path.states.size - 1 == 46_970
    assert path.states[-1] == 2


@st.composite
def _chain_cases(draw):
    """Generators of 2-6 states with up to n zero rates in each, perhaps an
    absorbing (all-zero) row that only Qhat leads into, at rates of at most
    2e-3, a start outside it, and a horizon of 10 to 40,000 jumps at the
    fastest exit rate."""
    n = draw(st.integers(2, 6))
    absorbing = draw(st.sampled_from([None, *range(n)]))

    def generator(fast):
        off = np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=n * n, max_size=n * n)))
        off[list(draw(st.sets(st.integers(0, n * n - 1), max_size=n)))] = 0.0
        off = off.reshape(n, n)
        np.fill_diagonal(off, 0.0)
        if absorbing is not None:
            off[absorbing] = 0.0
            off[:, absorbing] *= 0.0 if fast else 1e-3
        return GeneratorMatrix(off - np.diag(off.sum(axis=1)))

    qtilde, qhat = generator(True), generator(False)
    eps = draw(st.floats(1e-3, 1.0))
    fastest = np.max(-np.diag(qtilde.rates / eps + qhat.rates))
    jumps = draw(st.sampled_from([10, 100, 1_000, 5_000, 20_000, 40_000]))
    horizon = jumps / fastest if fastest > 0 else 1.0
    r0 = draw(st.sampled_from([s for s in range(n) if s != absorbing]))
    return qtilde, qhat, eps, r0, horizon


# a fast 3-state ring that leaks slowly into the absorbing state 3
RING4 = GeneratorMatrix(
    np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -1.0, 1.0, 0.0],
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
)
LEAK4 = GeneratorMatrix(0.05 * np.array([[-1.0, 0, 0, 1], [0, -1, 0, 1], [0, 0, -1, 1], [0] * 4]))


# the examples stop at the horizon after 12,038 and 30,052 jumps, and in state 3 after 1,775
@settings(max_examples=50, deadline=None)
@given(case=_chain_cases())
@example(case=(SYM2, GeneratorMatrix.zero(2), 1e-3, 0, 12.0))
@example(case=(SYM2, GeneratorMatrix.zero(2), 1e-3, 0, 30.0))
@example(case=(RING4, LEAK4, 1e-3, 0, 50.0))
def test_simulate_chain_matches_reference_on_generated_chains(case):
    _assert_matches_reference(*case, RngStream(7))


def test_walk_matches_a_sequential_loop():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        for m in range(1, 301):
            table = rng.integers(0, n, size=(n, 5))
            cols = rng.integers(0, 5, size=m)
            states = [int(rng.integers(n))]
            for c in cols:
                states.append(int(table[states[-1], c]))
            assert _walk(table, cols, states[0]).tolist() == states


def test_chain_and_class_counts_memory_is_bounded():
    # the aggregate preset's chain at eps = 1e-3, T = 1000: about 1.2 M jumps
    cfg = load_config(CONFIG_DIR / "aggregate.cfg")
    qt, qh = cfg.generator_pair()
    rng = RngStream(cfg.seed, 0).substream(CHAIN_TAG)

    # numpy.random loads on a process's first chain: walk a short one untraced
    simulate_chain(qt, qh, 1e-3, 0, 1.0, rng)

    def extra_peak(call):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        path, chain_peak = extra_peak(lambda: simulate_chain(qt, qh, 1e-3, 0, 1000.0, rng))
        _, aggregate_peak = extra_peak(lambda: aggregate_path(path, cfg.class_partition()))
        _, occupation_peak = extra_peak(lambda: occupation_fractions(path, qt.n_states))
    finally:
        tracemalloc.stop()
    assert path.times.size > 10**6
    assert chain_peak <= 1.8 * (path.times.nbytes + path.states.nbytes)
    assert aggregate_peak <= 1.25 * path.times.nbytes
    assert occupation_peak <= 1.25 * path.times.nbytes
    # one buffer per array grown in place, compact state codes, chunked durations
    assert chain_peak <= 2.0 * path.times.nbytes
    assert aggregate_peak <= 0.4 * path.times.nbytes
    assert occupation_peak <= 0.25 * path.times.nbytes
    assert path.times.base is None and path.states.base is None
    assert path.states.dtype == np.uint8
    # buffers grown by exactly what each block keeps, classes looked up in chunks
    assert chain_peak <= 1.4 * path.times.nbytes
    assert aggregate_peak <= 0.2 * path.times.nbytes


def test_simulate_chain_matches_reference_horizon_on_first_draw():
    path = _assert_matches_reference(SYM2, GeneratorMatrix.zero(2), 1.0, 1, 1e-9, RngStream(3))
    assert path.states.tolist() == [1]


def test_simulate_chain_matches_reference_zero_generator():
    zero = GeneratorMatrix.zero(3)
    _assert_matches_reference(zero, zero, 0.5, 2, 7.0, RngStream(4))


def test_simulate_chain_matches_reference_switching_single():
    cfg = load_config(CONFIG_DIR / "switching_single.cfg")
    qt, qh = cfg.generator_pair()
    for eps in cfg.eps_grid:
        for j in range(3):
            rng = RngStream(cfg.seed, j).substream(CHAIN_TAG)
            _assert_matches_reference(qt, qh, eps, cfg.r0 - 1, cfg.T, rng)


@pytest.mark.parametrize("r0", [-1, 2])
def test_simulate_chain_rejects_initial_state_out_of_range(r0):
    with pytest.raises(ValueError, match="initial state"):
        simulate_chain(SYM2, GeneratorMatrix.zero(2), 0.1, r0, 1.0, RngStream(0))


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_simulate_chain_rejects_non_finite_horizon(horizon):
    with pytest.raises(ValueError, match="horizon"):
        simulate_chain(SYM2, GeneratorMatrix.zero(2), 0.1, 0, horizon, RngStream(0))


class _FixedDraws:
    """A stream whose generator hands out the given exponentials and uniforms."""

    def __init__(self, exps, unis):
        self.exps, self.unis = np.asarray(exps, dtype=float), np.asarray(unis, dtype=float)

    def generator(self):
        return self

    def standard_exponential(self, size):
        return np.resize(self.exps, size)

    def random(self, size):
        return np.resize(self.unis, size)


def test_simulate_chain_draw_above_a_rounded_row_sum_picks_the_last_target():
    # row 0 sums to -1e-13, inside the generator tolerance: its jump probability
    # to state 1 is 1 - 1e-13, and a uniform above that still jumps to state 1
    q = GeneratorMatrix(np.array([[-1.0, 1.0 - 1e-13], [1.0, -1.0]]))
    path = simulate_chain(q, GeneratorMatrix.zero(2), 1.0, 0, 1.5, _FixedDraws([1.0], [1 - 1e-14]))
    assert path.states.tolist() == [0, 1]
    assert path.times.tolist() == [0.0, 1.0]


def test_simulate_chain_state_without_target_holds():
    # row 0 has no jump target but, inside the row-sum tolerance, exit rate 1e-13
    q = GeneratorMatrix(np.array([[-1e-13, 0.0], [1.0, -1.0]]))
    path = _assert_matches_reference(q, GeneratorMatrix.zero(2), 1.0, 0, 5.0, RngStream(5))
    assert path.states.tolist() == [0]


class _RecordingDraws:
    """A stream whose generator records every draw request it serves."""

    def __init__(self, rng):
        self.gen, self.requests = rng.generator(), []

    def generator(self):
        return self

    def standard_exponential(self, size):
        self.requests.append(("standard_exponential", size))
        return self.gen.standard_exponential(size)

    def random(self, size):
        self.requests.append(("random", size))
        return self.gen.random(size)


def test_simulate_chain_draws_block_by_block():
    # about 40,000 jumps: blocks of 64, 128, ..., 16,384 draws (32,704 in all), then
    # one block capped at 16,384, and no draw once the horizon is passed
    stream = _RecordingDraws(RngStream(8))
    path = simulate_chain(SYM2, GeneratorMatrix.zero(2), 1e-3, 0, 40.0, stream)
    sizes = [64 * 2**b for b in range(9)] + [16_384]
    assert stream.requests == [(kind, m) for m in sizes for kind in ("standard_exponential", "random")]
    assert 32_704 < path.states.size - 1 <= 32_704 + 16_384


def test_simulate_chain_over_more_than_256_states_stores_uint16_codes():
    # a 300-state ring with a long chord: every state is one or 97 steps from the next
    n = 300
    rates = np.zeros((n, n))
    weights = np.random.default_rng(10).uniform(0.5, 2.0, size=(2, n))
    rates[np.arange(n), (np.arange(n) + 1) % n] = weights[0]
    rates[np.arange(n), (np.arange(n) + 97) % n] = weights[1]
    q = GeneratorMatrix(rates - np.diag(rates.sum(axis=1)))
    path = _assert_matches_reference(q, GeneratorMatrix.zero(n), 1e-2, 0, 20.0, RngStream(11))
    assert path.states.dtype == np.uint16
    assert path.states.max() > 255


def test_simulate_chain_grows_its_buffers_many_times():
    # 199,423 jumps: from the one initial entry the buffers grow 20 times, once per block
    # (64, 128, ..., 16,384 draws, then 11 capped at 16,384), by exactly what the block
    # keeps, so they end at the 199,424 entries kept
    path = _assert_matches_reference(SYM2, GeneratorMatrix.zero(2), 1e-3, 0, 200.0, RngStream(9))
    assert path.states.size - 1 == 199_423
    assert path.times.base is None and path.states.base is None


@pytest.mark.parametrize(
    "qtilde, r0", [(ABSORBING3, 2), (GeneratorMatrix.zero(3), 1)], ids=["absorbing", "zero"]
)
def test_simulate_chain_that_draws_no_block_returns_its_start(qtilde, r0):
    zero = GeneratorMatrix.zero(3)
    path = _assert_matches_reference(qtilde, zero, 0.5, r0, 7.0, RngStream(4))
    assert path.states.tolist() == [r0] and path.times.tolist() == [0.0]
    assert path.times.base is None and path.states.base is None
    stream = _RecordingDraws(RngStream(4))
    simulate_chain(qtilde, zero, 0.5, r0, 7.0, stream)
    assert stream.requests == []


class _CountingStream:
    """A stream that counts the generators made from it."""

    def __init__(self, rng):
        self.rng, self.generators = rng, 0

    def generator(self):
        self.generators += 1
        return self.rng.generator()


def _assert_chains_match_per_eps(qtilde, qhat, eps_grid, r0, horizon, rng):
    """chain_sampler against one simulate_chain per eps; returns the generators it made."""
    stream = _CountingStream(rng)
    chains = chain_sampler(qtilde, qhat, eps_grid, r0, horizon)(stream)
    assert len(chains) == len(eps_grid)
    for eps, chain in zip(eps_grid, chains):
        alone = simulate_chain(qtilde, qhat, eps, r0, horizon, rng)
        assert chain.times.tobytes() == alone.times.tobytes()
        assert chain.states.tobytes() == alone.states.tobytes()
        assert chain.states.dtype == alone.states.dtype
        assert chain.horizon == alone.horizon
    return stream.generators


# its cumulative jump probabilities round alike at eps 0.1 to 0.005, not at 0.007
RING3 = GeneratorMatrix(np.array([[-3.0, 1.0, 2.0], [1.0, -2.0, 1.0], [2.0, 1.0, -3.0]]))
RING3_EPS = [0.1, 0.05, 0.02, 0.01, 0.005]
# absorbed in state 2 from state 1; alike at eps 0.5 to 0.02
LEAKY3 = GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [0.5, -1.0, 0.5], [0.0, 0.0, 0.0]]))


@pytest.mark.parametrize(
    "qtilde, qhat, eps_grid, horizon, generators",
    [
        (SYM2, GeneratorMatrix.zero(2), [0.1, 0.05, 0.02, 0.01, 0.005], 1.0, 1),
        (SYM2, GeneratorMatrix.zero(2), [0.5, 1e-3, 0.02], 5.0, 1),  # 10 to 5,000 jumps
        (RING3, GeneratorMatrix.zero(3), RING3_EPS, 1.0, 1),
        (RING3, GeneratorMatrix.zero(3), [*RING3_EPS, 0.007], 1.0, 6),  # tables differ
        (QT_BLOCKS[1], GeneratorMatrix(np.array([[-0.5, 0.5], [0.2, -0.2]])), [0.1, 0.01], 2.0, 2),
        (QT_BLOCKS[0], GeneratorMatrix.zero(2), [], 1.0, 0),
        (RING3, GeneratorMatrix.zero(3), [0.01], 1.0, 1),
        (QT_BLOCKS[1], GeneratorMatrix(np.array([[-0.5, 0.5], [0.2, -0.2]])), [0.01], 2.0, 1),
    ],
    ids=["sym2", "sym2-blocks", "ring3", "ring3-differ", "qhat", "empty", "one-eps",
         "one-eps-qhat"],
)
def test_chain_sampler_shares_one_walk_only_where_the_eps_agree(
    qtilde, qhat, eps_grid, horizon, generators
):
    for j in range(5):
        rng = RngStream(14, j)
        assert _assert_chains_match_per_eps(qtilde, qhat, eps_grid, 0, horizon, rng) == generators


def test_chain_sampler_shared_walk_into_an_absorbing_state():
    eps_grid, horizon, zero = [0.5, 0.2, 0.1, 0.05, 0.02], 3.0, GeneratorMatrix.zero(3)
    mixed = 0
    for j in range(20):
        rng = RngStream(15, j)
        assert _assert_chains_match_per_eps(LEAKY3, zero, eps_grid, 0, horizon, rng) == 1
        chains = chain_sampler(LEAKY3, zero, eps_grid, 0, horizon)(rng)
        absorbed = [c.states[-1] == 2 for c in chains]
        mixed += absorbed[-1] and not absorbed[0]
    # on some paths the smallest eps ends absorbed while the largest stops at the horizon
    assert mixed > 0


@st.composite
def _chain_set_cases(draw):
    """Generators of 2-5 states with some zero rates and perhaps an absorbing row,
    Qhat zero or not, a grid of 1-6 eps, any start and a horizon of 0.1 to 2."""
    n = draw(st.integers(2, 5))
    absorbing = draw(st.sampled_from([None, *range(n)]))

    def generator(scale):
        off = scale * np.array(draw(st.lists(st.floats(0.01, 2.0), min_size=n * n,
                                             max_size=n * n)))
        off[list(draw(st.sets(st.integers(0, n * n - 1), max_size=n)))] = 0.0
        off = off.reshape(n, n)
        np.fill_diagonal(off, 0.0)
        if absorbing is not None:
            off[absorbing] = 0.0
        return GeneratorMatrix(off - np.diag(off.sum(axis=1)))

    qtilde = generator(1.0)
    qhat = generator(0.1) if draw(st.booleans()) else GeneratorMatrix.zero(n)
    eps_grid = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6))
    return qtilde, qhat, eps_grid, draw(st.integers(0, n - 1)), draw(st.floats(0.1, 2.0))


@settings(max_examples=60, deadline=None)
@given(case=_chain_set_cases())
@example(case=(SYM2, GeneratorMatrix.zero(2), [0.3, 1e-3, 0.05], 1, 2.0))
@example(case=(RING3, GeneratorMatrix.zero(3), RING3_EPS, 2, 1.0))
@example(case=(RING3, GeneratorMatrix.zero(3), [*RING3_EPS, 0.007], 1, 1.0))
@example(case=(RING3, GeneratorMatrix(0.1 * RING3.rates), RING3_EPS, 0, 1.0))
@example(case=(LEAKY3, GeneratorMatrix.zero(3), [0.5, 0.2, 0.1, 0.05, 0.02], 1, 2.0))
def test_chain_sampler_equals_simulate_chain_per_eps(case):
    _assert_chains_match_per_eps(*case, RngStream(16))


@given(values=st.lists(st.one_of(st.integers(-5, 5), st.floats(-3.0, 3.0)), max_size=30))
@example(values=[])
def test_sorted_distinct_is_np_unique(values):
    values = np.asarray(values, dtype=float)
    assert sorted_distinct(values).tobytes() == np.unique(values).tobytes()


def test_chain_path_keeps_integer_states_dtype():
    path = ChainPath(np.array([0.0, 1.0]), np.array([3, 1], dtype=np.uint8), 2.0)
    assert path.states.dtype == np.uint8


@pytest.mark.parametrize("states", [[0.0, 1.5], [0.0, 1.0], [True, False]])
def test_chain_path_refuses_non_integer_states(states):
    with pytest.raises(ValueError, match="states must be integers"):
        ChainPath(np.array([0.0, 1.0]), np.array(states), 2.0)


@pytest.mark.parametrize("size", [_CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 1])
def test_aggregate_path_in_chunks_matches_one_lookup(size):
    rng = np.random.default_rng(13)
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(size=size - 1))])
    states = rng.integers(0, 4, size=size).astype(np.uint8)
    part = ClassPartition(((0, 2), (1,), (3,)))
    classes = part.class_of()[states]
    keep = np.concatenate([[True], classes[1:] != classes[:-1]])
    agg = aggregate_path(ChainPath(times, states, times[-1] + 1.0), part)
    assert agg.times.tobytes() == times[keep].tobytes()
    assert agg.states.tobytes() == classes[keep].tobytes()
    assert agg.states.dtype == np.uint8


def test_aggregate_path_identity_for_singletons():
    path = ChainPath(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0]), 3.0)
    part = ClassPartition(((0,), (1,)))
    agg = aggregate_path(path, part)
    assert np.array_equal(agg.states, path.states)
    assert np.array_equal(agg.times, path.times)


def test_aggregate_path_single_class_constant():
    path = ChainPath(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0]), 3.0)
    agg = aggregate_path(path, ClassPartition(((0, 1),)))
    assert agg.states.tolist() == [0]


def test_aggregate_path_merges_within_class_jumps():
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    states = np.array([0, 1, 0, 2, 3])  # jumps 0<->1 are inside class 0
    path = ChainPath(times, states, 2.5)
    agg = aggregate_path(path, PART4)
    assert agg.states.tolist() == [0, 1]
    assert agg.times.tolist() == [0.0, 1.5]


def test_occupation_fractions_constant_path():
    path = ChainPath(np.array([0.0]), np.array([2]), 4.0)
    assert np.array_equal(occupation_fractions(path, 3), [0.0, 0.0, 1.0])


def test_occupation_fractions_hand_integration():
    path = ChainPath(np.array([0.0, 1.0, 3.0]), np.array([0, 1, 0]), 4.0)
    occ = occupation_fractions(path, 2)
    assert np.allclose(occ, [0.5, 0.5])
    path2 = ChainPath(np.array([0.0, 0.25, 1.5]), np.array([1, 0, 1]), 2.0)
    assert np.allclose(occupation_fractions(path2, 2), [1.25 / 2.0, 0.75 / 2.0])


@pytest.mark.parametrize("size", [_CHUNK, _CHUNK + 1])
def test_occupation_fractions_in_chunks_matches_one_add_at(size):
    rng = np.random.default_rng(12)
    times = np.concatenate([[0.0], np.cumsum(rng.exponential(size=size - 1))])
    states = rng.integers(0, 5, size=size).astype(np.uint8)
    horizon = times[-1] + 0.5
    expected = np.zeros(5)
    np.add.at(expected, states, np.diff(times, append=horizon))
    got = occupation_fractions(ChainPath(times, states, horizon), 5)
    assert got.tobytes() == (expected / horizon).tobytes()
