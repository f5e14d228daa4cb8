import numpy as np
import pytest
from scipy.special import zeta

from stablespde.engine import make_step_plan
from stablespde.spectral import (
    SpectralOperator,
    admissibility,
    h_norm,
    hoelder_bound_check,
    rod_operator,
    smoothing_bound_check,
)
from stablespde.stable_noise import NoiseWeights, PowerLawRule


def semigroup_apply(op, t, x):
    """exp(-tA) x as the engine applies it: the decay factor of a step plan of length t."""
    return make_step_plan(op, NoiseWeights(np.ones(op.k_trunc)), 2.0, t).decay * x


def test_operator_construction_guards():
    with pytest.raises(ValueError):
        SpectralOperator(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralOperator(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        SpectralOperator(np.array([1.0, np.inf]))
    op = rod_operator(4)
    assert np.allclose(op.eigenvalues, [1, 4, 9, 16])
    assert op.lambda_1 == 1.0


def test_semigroup_identity_at_zero():
    op = rod_operator(3)
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(semigroup_apply(op, 0.0, x), x)


def test_semigroup_rod_example():
    op = rod_operator(3)
    out = semigroup_apply(op, 1.0, np.ones(3))
    assert np.allclose(out, np.exp([-1.0, -4.0, -9.0]), rtol=1e-14)


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError):
        semigroup_apply(rod_operator(2), -0.1, np.ones(2))


def test_semigroup_contraction_randomized():
    op = rod_operator(8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=8)
        t = rng.uniform(0, 3)
        assert h_norm(semigroup_apply(op, t, x)) <= np.exp(-op.lambda_1 * t) * h_norm(x) + 1e-12


def test_semigroup_law():
    op = rod_operator(6)
    rng = np.random.default_rng(1)
    x = rng.normal(size=6)
    for s, t in [(0.3, 0.7), (1.0, 2.0), (0.05, 0.05)]:
        lhs = semigroup_apply(op, s + t, x)
        rhs = semigroup_apply(op, s, semigroup_apply(op, t, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_smoothing_bound_single_point():
    # sup_lam lam^0.5 e^-lam = (0.5/e)^0.5, attained at lam = 0.5
    op = rod_operator(10)
    assert smoothing_bound_check(op, 0.5, [1.0])
    lhs = np.max(op.eigenvalues**0.5 * np.exp(-op.eigenvalues))
    assert lhs <= (0.5 / np.e) ** 0.5


def test_smoothing_bound_late_times():
    assert smoothing_bound_check(rod_operator(10), 0.5, [10.0, 100.0])


def test_smoothing_bound_small_delta():
    assert smoothing_bound_check(rod_operator(10), 1e-6, [0.5, 1.0, 2.0])


def test_hoelder_bound_examples():
    op = SpectralOperator(np.array([1.0]))
    assert hoelder_bound_check(op, 0.5, [1.0])
    assert hoelder_bound_check(op, 0.5, [0.0, 1.0])
    assert -np.expm1(-1.0) <= 1.0
    assert hoelder_bound_check(rod_operator(50), 0.9, [1e-3, 0.1, 1.0, 10.0])


def test_bound_checks_on_grid():
    op = rod_operator(30)
    deltas = np.linspace(0.05, 0.95, 20)
    ts = np.geomspace(1e-3, 10.0, 20)
    for d in deltas:
        assert smoothing_bound_check(op, d, ts)
        assert hoelder_bound_check(op, d, ts)


def test_admissibility_rod_preset_zeta_oracle():
    # beta_k^alpha / lam_k^(1-alpha*theta) = k^-3 / k^0.5 = k^-3.5
    k = 200
    op = SpectralOperator.from_rule(PowerLawRule(1.0, 2.0), k)
    w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), k)
    report = admissibility(op, w, alpha=1.5, theta=0.5)
    assert report.passed
    target = zeta(3.5)
    assert report.delta_partial <= target <= report.delta_partial + report.delta_tail_bound


def test_admissibility_rejects_alpha_theta_out_of_range():
    op = rod_operator(5)
    w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 5)
    report = admissibility(op, w, alpha=1.5, theta=0.8)  # alpha*theta = 1.2
    assert not report.passed


def test_admissibility_single_mode():
    op = SpectralOperator(np.array([1.0]))
    w = NoiseWeights(np.array([1.0]))
    report = admissibility(op, w, alpha=1.5, theta=0.5)
    assert report.delta_partial == pytest.approx(1.0)


def test_admissibility_partial_sum_monotone_in_truncation():
    prev = 0.0
    for k in (5, 10, 20, 40):
        op = SpectralOperator.from_rule(PowerLawRule(1.0, 2.0), k)
        w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), k)
        cur = admissibility(op, w, alpha=1.5, theta=0.5).delta_partial
        assert cur >= prev
        prev = cur


def test_admissibility_divergent_tail_reported():
    op = SpectralOperator.from_rule(PowerLawRule(1.0, 0.5), 10)
    w = NoiseWeights.from_rule(PowerLawRule(1.0, 0.1), 10)  # growing weights
    report = admissibility(op, w, alpha=1.5, theta=0.5)
    assert not report.passed
    assert report.delta_tail_bound is None
    # the same divergent pair as the fast pair fails a convergent slow pair
    rod, decaying = rod_operator(10), NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 10)
    report = admissibility(rod, decaying, 1.5, 0.5, op_b=op, w_z=w, beta=1.5)
    assert not report.passed
    assert report.delta_tail_bound is not None
    assert report.kappa2_tail_bound is None


def test_admissibility_rejects_mismatched_pairs():
    op, w = rod_operator(5), NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 5)
    short = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 4)
    with pytest.raises(ValueError, match="truncation level"):
        admissibility(op, short, alpha=1.5, theta=0.5)
    with pytest.raises(ValueError, match="truncation level"):
        admissibility(op, w, 1.5, 0.5, op_b=op, w_z=short, beta=1.5)
    with pytest.raises(ValueError, match="together"):
        admissibility(op, w, 1.5, 0.5, op_b=op, w_z=w)


@pytest.mark.parametrize("check", [smoothing_bound_check, hoelder_bound_check])
@pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_bound_checks_refuse_delta_outside_unit_interval(check, delta):
    with pytest.raises(ValueError, match="delta must lie in"):
        check(rod_operator(5), delta, [1.0])


@pytest.mark.parametrize(
    "check, bad_t, message",
    [
        (smoothing_bound_check, 0.0, "t must be positive"),
        (smoothing_bound_check, -1.0, "t must be positive"),
        (hoelder_bound_check, -1e-3, "t must be nonnegative"),
    ],
)
def test_bound_checks_refuse_a_bad_t_anywhere_in_the_grid(check, bad_t, message):
    for grid in ([bad_t, 1.0, 2.0], [1.0, bad_t, 2.0], [1.0, 2.0, bad_t]):
        with pytest.raises(ValueError, match=message):
            check(rod_operator(5), 0.5, grid)
