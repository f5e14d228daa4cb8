import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stablespde.rng import RngStream
from stablespde.stable_noise import (
    NoiseWeights,
    PowerLawRule,
    _cms,
    convolution_scale,
    ecf,
    sample_standard_stable,
)

U_GRID = np.array([0.25, 0.5, 1.0, 2.0, 3.0])


def stable_cf(alpha, u, scale=1.0):
    """Oracle: characteristic function exp(-(scale |u|)^alpha) of the symmetric stable law."""
    return np.exp(-((scale * np.abs(u)) ** alpha))


def test_noise_weights_require_positive_entries():
    with pytest.raises(ValueError):
        NoiseWeights(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        NoiseWeights(np.array([1.0, np.inf]))
    w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 5)
    assert np.allclose(w.weights, [1, 0.25, 1 / 9, 1 / 16, 1 / 25])


def test_gaussian_endpoint_moments():
    samples = sample_standard_stable(2.0, RngStream(1), size=200_000)
    assert abs(samples.mean()) < 0.02
    assert abs(samples.var() - 2.0) < 0.05


def test_ecf_matches_closed_form_cf():
    samples = sample_standard_stable(1.5, RngStream(2), size=200_000)
    for u in (0.5, 1.0, 2.0):
        target = np.exp(-abs(u) ** 1.5)
        assert abs(ecf(samples, u)[0] - target) < 0.01


def test_sample_symmetry():
    samples = sample_standard_stable(1.5, RngStream(3), size=100_000)
    e_pos = ecf(samples, U_GRID)
    e_neg = ecf(-samples, U_GRID)
    # negation conjugates the ECF exactly; the laws agree, so the imaginary
    # part is pure sampling noise
    assert np.allclose(e_pos.real, e_neg.real, atol=1e-12)
    assert np.max(np.abs(e_pos - e_neg)) < 0.02


def test_sample_rejects_alpha_out_of_range():
    with pytest.raises(ValueError):
        sample_standard_stable(1.0, RngStream(0), size=1)
    with pytest.raises(ValueError):
        sample_standard_stable(0.5, RngStream(0), size=1)


def test_sample_names_a_size_without_axes():
    with pytest.raises(ValueError, match=r"size .*\(\)"):
        sample_standard_stable(1.5, RngStream(0), size=())
    assert sample_standard_stable(1.5, RngStream(0), size=(0,)).shape == (0,)
    assert sample_standard_stable(1.5, RngStream(0), size=(3, 0)).shape == (3, 0)


def test_stable_cf_values():
    assert stable_cf(1.5, 0.0) == pytest.approx(1.0)
    assert stable_cf(2.0, 1.0) == pytest.approx(np.exp(-1.0))
    assert stable_cf(1.5, 1.0, scale=2.0) == pytest.approx(np.exp(-(2.0**1.5)))


def test_scaling_property():
    # c * X has the CF of a stable law with scale c
    c = 1.7
    samples = c * sample_standard_stable(1.5, RngStream(4), size=200_000)
    target = stable_cf(1.5, U_GRID, scale=c)
    assert np.max(np.abs(ecf(samples, U_GRID) - target)) < 0.01


def test_stability_under_addition():
    a = sample_standard_stable(1.5, RngStream(5), size=200_000)
    b = sample_standard_stable(1.5, RngStream(6), size=200_000)
    # the sum of two independent standard variates has scale 2^(1/alpha)
    target = stable_cf(1.5, U_GRID, scale=2.0 ** (1 / 1.5))
    assert np.max(np.abs(ecf(a + b, U_GRID) - target)) < 0.01


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_stream_determinism(seed, stream_id):
    s = RngStream(seed, stream_id)
    a = sample_standard_stable(1.5, s, size=64)
    b = sample_standard_stable(1.5, s, size=64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (7, 4), (1200, 20), (2, 3, 5), (0,), (3, 0), (2, 0, 3), (4, 4096), (5, 3277)],
    ids=lambda shape: "x".join(map(str, shape)),
)
@pytest.mark.parametrize("live", [False, True], ids=["stream", "generator"])
def test_draw_is_the_flat_draw_reshaped(alpha, shape, live):
    stream = RngStream(8, 1)
    block = sample_standard_stable(alpha, stream.generator() if live else stream, size=shape)
    flat = sample_standard_stable(alpha, stream.generator(), size=math.prod(shape))
    assert block.shape == shape
    assert block.tobytes() == flat.reshape(shape).tobytes()


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("n", [16384, 16385])
def test_flat_draw_is_uniforms_then_exponentials(alpha, n):
    # the transform's chunks around _TRANSFORM_CHUNK leave no trace in the bits
    gen = RngStream(9, 2).generator()
    u = gen.uniform(-np.pi / 2, np.pi / 2, size=n)
    w = gen.standard_exponential(size=n)
    samples = sample_standard_stable(alpha, RngStream(9, 2), size=n)
    assert samples.tobytes() == _cms(alpha, u, w).tobytes()


@pytest.mark.parametrize(
    "alpha, digest",
    [
        (1.5, "fbdcb3146f75c200150419f88265e60e0b3ac8096de6ea7db67aac0e3100e795"),
        (2.0, "42c951fcf03eb45bac64613de97df67e03325365bbf596428b76448eef8fbe29"),
    ],
)
def test_one_dimensional_draw_keeps_its_bytes(alpha, digest):
    # recorded before row-wise draws existed; a 1-d draw takes all its uniforms first
    samples = sample_standard_stable(alpha, RngStream(2024, 3), size=64)
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


def test_substreams_differ():
    s = RngStream(7)
    a = sample_standard_stable(1.5, s.substream(0), size=64)
    b = sample_standard_stable(1.5, s.substream(1), size=64)
    assert not np.array_equal(a, b)


def test_convolution_scale_zero_h():
    assert convolution_scale(1.0, 2.0, 1.5, 0.0) == 0.0


def test_convolution_scale_gaussian_stationary_limit():
    assert convolution_scale(1.0, 1.0, 2.0, 1e3) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_convolution_scale_quadrature_oracle():
    alpha, lam, h = 1.5, 4.0, 0.25
    integral, _ = quad(lambda s: np.exp(-alpha * lam * (h - s)), 0.0, h)
    assert convolution_scale(1.0, lam, alpha, h) == pytest.approx(integral ** (1 / alpha), rel=1e-10)


@given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_convolution_scale_monotone_in_h(h1, h2):
    lo, hi = sorted((h1, h2))
    assert convolution_scale(1.0, 2.0, 1.5, lo) <= convolution_scale(1.0, 2.0, 1.5, hi) + 1e-15


def test_convolution_scale_long_time_limit():
    beta, lam, alpha = 0.7, 3.0, 1.5
    assert convolution_scale(beta, lam, alpha, 1e4) == pytest.approx(
        beta * (alpha * lam) ** (-1 / alpha), rel=1e-12
    )
