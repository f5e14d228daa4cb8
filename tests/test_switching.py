import numpy as np
import pytest

from stablespde import (
    ChainPath,
    ClassPartition,
    GeneratorMatrix,
    RngStream,
    aggregate_generator,
    aggregate_path,
    occupation_fractions,
    simulate_chain,
    stationary_distribution,
)

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
