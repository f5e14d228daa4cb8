import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespde.averaging import (
    ErgodicEstimatorConfig,
    class_average_drift,
    ergodic_decay_probe,
    estimate_ergodic_drift,
    fit_decay_rate,
    nu_average_drift,
)
from stablespde.drifts import (
    LinearRegimeDrift,
    SaturatingCoupledDrift,
    SaturatingRegimeDrift,
    ZeroCoupledDrift,
)
from stablespde.rng import RngStream
from stablespde.spectral import SpectralOperator
from stablespde.stable_noise import NoiseWeights
from stablespde.switching import ClassPartition

OP1 = SpectralOperator(np.array([1.0]))
W1 = NoiseWeights(np.array([1.0]))


def test_nu_average_point_mass():
    drift = LinearRegimeDrift(np.array([2.0, -5.0]))
    x = np.array([1.0, 3.0])
    assert np.allclose(nu_average_drift(drift, [1.0, 0.0])(x), 2.0 * x)
    assert np.allclose(nu_average_drift(drift, [0.0, 1.0])(x), -5.0 * x)


def test_nu_average_hand_value():
    # c = (1, 3) under nu = (1/3, 2/3): averaged coefficient 7/3
    drift = LinearRegimeDrift(np.array([1.0, 3.0]))
    avg = nu_average_drift(drift, np.array([1 / 3, 2 / 3]))
    assert isinstance(avg, LinearRegimeDrift)
    assert avg.n_regimes == 1
    x = np.array([0.5, -2.0])
    assert np.allclose(avg(x), 7.0 / 3.0 * x, atol=1e-14)


def test_nu_average_antisymmetric_cancels():
    drift = LinearRegimeDrift(np.array([1.0, -1.0]))
    assert np.allclose(nu_average_drift(drift, [0.5, 0.5])(np.ones(3)), 0.0, atol=1e-15)


def test_nu_average_rejects_length_mismatch():
    drift = LinearRegimeDrift(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="regime count"):
        nu_average_drift(drift, [1.0])


def test_class_average_singleton_classes():
    drift = LinearRegimeDrift(np.array([2.0, 7.0]))
    part = ClassPartition(((0,), (1,)))
    x = np.ones(2)
    assert np.allclose(class_average_drift(drift, part, [np.array([1.0])] * 2)(x, 1), 7.0 * x)


def test_class_average_hand_value():
    # class (2, 3) with mu = (0.25, 0.75) and c = (2, 4): coefficient 3.5
    drift = LinearRegimeDrift(np.array([9.0, 9.0, 2.0, 4.0]))
    part = ClassPartition(((0, 1), (2, 3)))
    blocks = [np.array([0.5, 0.5]), np.array([0.25, 0.75])]
    avg = class_average_drift(drift, part, blocks)
    assert isinstance(avg, LinearRegimeDrift)
    assert avg.n_regimes == 2
    x = np.array([1.0, -1.0])
    assert np.allclose(avg(x, 1), 3.5 * x, atol=1e-14)


def test_class_average_rejects_length_mismatch():
    drift = LinearRegimeDrift(np.array([9.0, 9.0, 2.0, 4.0]))
    part = ClassPartition(((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="class size"):
        class_average_drift(drift, part, [np.array([0.5, 0.5]), np.array([1.0])])


def _per_regime_sum(drift, weights, x, i):
    """Regime i of the weighted drift as the plain sum sum_j w_ij b(x, j)."""
    return sum(weights[i, j] * drift(x, j) for j in range(drift.n_regimes))


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(["linear", "saturating (n,)", "saturating (n, k)"]),
)
@settings(max_examples=60, deadline=None)
def test_averaged_matches_per_regime_sum(seed, n_regimes, m, family):
    rng = np.random.default_rng(seed)
    k = 4
    if family == "linear":
        drift = LinearRegimeDrift(rng.normal(size=n_regimes))
    else:
        shape = (n_regimes,) if family == "saturating (n,)" else (n_regimes, k)
        drift = SaturatingRegimeDrift(rng.normal(size=n_regimes), rng.normal(size=shape))
    weights = rng.random((m, n_regimes))
    weights /= weights.sum(axis=1, keepdims=True)
    avg = drift.averaged(weights)
    assert type(avg) is type(drift)
    assert avg.n_regimes == m
    x = rng.normal(scale=3.0, size=k)
    for i in range(m):
        ref = _per_regime_sum(drift, weights, x, i)
        # the weighted terms may cancel, so the tolerance scales with their size
        scale = sum(weights[i, j] * np.abs(drift(x, j)) for j in range(n_regimes))
        np.testing.assert_allclose(avg(x, i), ref, rtol=1e-13, atol=1e-13 * scale.max())


def test_zero_coupled_drift_is_saturating_drift_with_zero_coefficients():
    zero = ZeroCoupledDrift()
    assert isinstance(zero, SaturatingCoupledDrift)
    assert (zero.gain_x, zero.gain_y, zero.offset) == (0.0, 0.0, 0.0)
    assert zero.grad_y_bound == 0.0
    assert zero.bound_for(20) == 0.0
    with pytest.raises(TypeError):
        ZeroCoupledDrift(0.5, 0.5)


@pytest.mark.parametrize("gain_y, offset", [(0.5, 0.0), (0.5, 0.3), (0.0, 0.0)])
def test_coupled_drift_without_gain_x_keeps_the_full_formula_bits(gain_y, offset):
    # x has both signs, so the skipped 0 * tanh(x) term would add +0.0 and -0.0
    rng = np.random.default_rng(7)
    x = rng.normal(scale=2.0, size=6)
    g = SaturatingCoupledDrift(0.0, gain_y, offset)
    for y in (rng.normal(scale=2.0, size=6), np.zeros(6), -np.zeros(6), np.full(6, -1e-320)):
        full = 0.0 * np.tanh(x) + gain_y * np.tanh(y) + offset
        assert g(x, y).tobytes() == full.tobytes()


def test_frozen_saturating_drift_hand_value():
    # g(x, y) = 0.3 tanh(x) + 0.5 tanh(y) + 0.2
    x, y = np.array([0.4, -1.0]), np.array([2.0, -0.5])
    g = SaturatingCoupledDrift(0.3, 0.5, 0.2)
    assert np.allclose(g(x, y), 0.3 * np.tanh(x) + 0.5 * np.tanh(y) + 0.2, rtol=1e-15)


def test_estimator_config_defaults_from_mixing_rate():
    burn, n_steps = ErgodicEstimatorConfig().resolve(0.5)
    assert burn == pytest.approx(6.0)
    assert n_steps == 1200  # ceil(horizon 60 / dt 0.05)
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
