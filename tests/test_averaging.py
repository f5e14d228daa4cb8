import numpy as np
import pytest

from stablespde.averaging import (
    ErgodicEstimatorConfig,
    class_average_drift,
    ergodic_decay_probe,
    estimate_ergodic_drift,
    fit_decay_rate,
    make_class_averaged,
    make_nu_averaged,
    nu_average_drift,
)
from stablespde.drifts import LinearRegimeDrift, SaturatingCoupledDrift, ZeroCoupledDrift
from stablespde.rng import RngStream
from stablespde.spectral import SpectralOperator
from stablespde.stable_noise import NoiseWeights
from stablespde.switching import ClassPartition

OP1 = SpectralOperator(np.array([1.0]))
W1 = NoiseWeights(np.array([1.0]))


def test_nu_average_point_mass():
    drift = LinearRegimeDrift(np.array([2.0, -5.0]))
    x = np.array([1.0, 3.0])
    assert np.allclose(nu_average_drift(drift, [1.0, 0.0], x), 2.0 * x)
    assert np.allclose(nu_average_drift(drift, [0.0, 1.0], x), -5.0 * x)


def test_nu_average_hand_value():
    # c = (1, 3) under nu = (1/3, 2/3): averaged coefficient 7/3
    drift = LinearRegimeDrift(np.array([1.0, 3.0]))
    avg = make_nu_averaged(drift, np.array([1 / 3, 2 / 3]))
    x = np.array([0.5, -2.0])
    assert np.allclose(avg(x), 7.0 / 3.0 * x, atol=1e-14)


def test_nu_average_antisymmetric_cancels():
    drift = LinearRegimeDrift(np.array([1.0, -1.0]))
    assert np.allclose(nu_average_drift(drift, [0.5, 0.5], np.ones(3)), 0.0, atol=1e-15)


def test_nu_average_rejects_length_mismatch():
    drift = LinearRegimeDrift(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        nu_average_drift(drift, [1.0], np.ones(2))


def test_class_average_singleton_classes():
    drift = LinearRegimeDrift(np.array([2.0, 7.0]))
    part = ClassPartition(((0,), (1,)))
    x = np.ones(2)
    assert np.allclose(class_average_drift(drift, part, [np.array([1.0])] * 2, x, 1), 7.0 * x)


def test_class_average_hand_value():
    # class (2, 3) with mu = (0.25, 0.75) and c = (2, 4): coefficient 3.5
    drift = LinearRegimeDrift(np.array([9.0, 9.0, 2.0, 4.0]))
    part = ClassPartition(((0, 1), (2, 3)))
    blocks = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
    avg = make_class_averaged(drift, part, blocks)
    x = np.array([1.0, -1.0])
    assert np.allclose(avg(x, 1), 3.5 * x, atol=1e-14)


def test_estimator_config_defaults_from_mixing_rate():
    burn, horizon = ErgodicEstimatorConfig().resolve(0.5)
    assert burn == pytest.approx(6.0)
    assert horizon == pytest.approx(60.0)
    with pytest.raises(ValueError):
        ErgodicEstimatorConfig(burn_in=2.0, horizon=1.0).resolve(1.0)
    with pytest.raises(ValueError):
        ErgodicEstimatorConfig().resolve(0.0)


def test_ergodic_estimate_constant_observable_exact():
    est, se = estimate_ergodic_drift(
        np.zeros(1),
        ZeroCoupledDrift(),
        lambda z, y: np.array([3.0]),
        OP1,
        W1,
        1.5,
        ErgodicEstimatorConfig(horizon=5.0, burn_in=1.0),
        RngStream(0),
    )
    assert est[0] == pytest.approx(3.0, abs=1e-14)
    assert se[0] == pytest.approx(0.0, abs=1e-14)


def test_ergodic_estimate_symmetric_mean_zero():
    # f(z, y) = 0.5 tanh(y): pi is symmetric, so the average is 0
    fast = SaturatingCoupledDrift(0.0, 0.5)
    est, se = estimate_ergodic_drift(
        np.zeros(1),
        fast,
        lambda z, y: np.tanh(y),
        OP1,
        W1,
        1.5,
        ErgodicEstimatorConfig(n_reps=6),
        RngStream(1),
    )
    assert se[0] > 0
    assert abs(est[0]) < 4 * se[0] + 0.02


def test_ergodic_estimate_insensitive_to_initial_condition():
    fast = SaturatingCoupledDrift(0.0, 0.5)
    kwargs = dict(
        z=np.zeros(1),
        fast_drift=fast,
        observable=lambda z, y: np.tanh(y),
        op_b=OP1,
        w_z=W1,
        beta=1.5,
        config=ErgodicEstimatorConfig(n_reps=4),
    )
    e1, s1 = estimate_ergodic_drift(rng=RngStream(2), y0=np.array([5.0]), **kwargs)
    e2, s2 = estimate_ergodic_drift(rng=RngStream(3), y0=np.array([-5.0]), **kwargs)
    assert abs(e1[0] - e2[0]) < 4 * np.hypot(s1[0], s2[0]) + 0.02


def test_ergodic_estimate_respects_observable_bound():
    # |tanh| <= 1 per mode, so the time average cannot exceed 1
    fast = SaturatingCoupledDrift(0.0, 0.3)
    est, _ = estimate_ergodic_drift(
        np.zeros(2),
        fast,
        lambda z, y: np.tanh(y),
        SpectralOperator(np.array([1.0, 4.0])),
        NoiseWeights(np.array([1.0, 0.5])),
        1.5,
        ErgodicEstimatorConfig(),
        RngStream(4),
    )
    assert np.max(np.abs(est)) <= 1.0


def test_decay_probe_linear_observable_rate():
    # f = 0, observable b(z, u) = u: E b = y e^{-mu t}, so the fitted rate is mu_1
    t_grid = np.linspace(0.0, 2.0, 21)
    values = ergodic_decay_probe(
        np.zeros(1),
        np.array([4.0]),
        ZeroCoupledDrift(),
        lambda z, u: u,
        OP1,
        W1,
        1.5,
        t_grid,
        2000,
        RngStream(5),
        bbar=np.zeros(1),
    )
    assert values[0] == pytest.approx(4.0)
    rate = fit_decay_rate(t_grid, values)
    assert abs(rate - 1.0) < 0.2


def test_decay_probe_requires_grid_from_zero():
    with pytest.raises(ValueError):
        ergodic_decay_probe(
            np.zeros(1), np.zeros(1), ZeroCoupledDrift(), lambda z, u: u,
            OP1, W1, 1.5, [0.5, 1.0], 10, RngStream(0), bbar=np.zeros(1),
        )


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 16)
    assert fit_decay_rate(t, 5.0 * np.exp(-0.7 * t)) == pytest.approx(0.7, rel=1e-10)


def test_fit_decay_rate_needs_positive_values():
    with pytest.raises(ValueError):
        fit_decay_rate([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
