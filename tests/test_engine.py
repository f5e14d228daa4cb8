import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespde.averaging import class_average_drift, nu_average_drift
from stablespde.config import fast_substeps, load_config

from stablespde.drifts import (
    LinearRegimeDrift,
    SaturatingCoupledDrift,
    SaturatingRegimeDrift,
    ZeroCoupledDrift,
)
from stablespde.engine import (
    draw_noise,
    drift_factor,
    make_step_plan,
    solve_averaged_spde,
    solve_fast_slow,
    solve_frozen_fast,
    solve_switching_spde,
)
from stablespde.rng import CHAIN_TAG, L_NOISE_TAG, Z_NOISE_TAG, RngStream
from stablespde.spectral import SpectralOperator, rod_operator
from stablespde.stable_noise import (
    NoiseWeights,
    PowerLawRule,
    convolution_scale,
    ecf,
    sample_standard_stable,
)
from stablespde.switching import (
    ChainPath,
    GeneratorMatrix,
    aggregate_path,
    simulate_chain,
    stationary_distribution,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OP3 = rod_operator(3)
W3 = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 3)


def slow_noise(rng, grid, k=3, alpha=1.5):
    """The slow noise of the path on ``rng``: one row per grid step."""
    return draw_noise(alpha, rng.substream(L_NOISE_TAG), len(grid) - 1, k)


def fast_noise(rng, grid, n_sub=1, k=3, beta=1.5):
    """The fast noise of the path on ``rng``: n_sub rows per grid step."""
    return draw_noise(beta, rng.substream(Z_NOISE_TAG), len(grid) - 1, n_sub, k)


def constant_chain(state: int, horizon: float) -> ChainPath:
    return ChainPath(np.array([0.0]), np.array([state]), horizon)


def test_step_pure_decay():
    plan = make_step_plan(OP3, W3, 1.5, 0.1)
    x = np.array([1.0, 2.0, -1.0])
    out = plan.decay * x + np.zeros(3) * plan.drift_factor + plan.conv_scale * np.zeros(3)
    assert np.allclose(out, np.exp(-OP3.eigenvalues * 0.1) * x, rtol=1e-14)


def test_drift_factor_small_lambda_taylor():
    dt = 0.3
    # (1 - exp(-lam dt))/lam -> dt - lam dt^2/2 + O(lam^2)
    for lam in (1e-12, 1e-8, 1e-4):
        assert drift_factor(lam, dt) == pytest.approx(dt - lam * dt**2 / 2, abs=1e-10)


def test_convolution_scale_composition_identity():
    # sigma(2h)^alpha = sigma(h)^alpha (1 + e^{-alpha lam h}), exactly
    for alpha, lam, h in [(1.5, 2.0, 0.1), (2.0, 1.0, 0.5), (1.3, 9.0, 0.02)]:
        s1 = convolution_scale(1.0, lam, alpha, h) ** alpha
        s2 = convolution_scale(1.0, lam, alpha, 2 * h) ** alpha
        assert s2 == pytest.approx(np.exp(-alpha * lam * h) * s1 + s1, rel=1e-12)


def test_one_step_gaussian_ou_law():
    lam, beta, dt, x0 = 1.0, 1.0, 0.4, 2.0
    op = SpectralOperator(np.array([lam]))
    w = NoiseWeights(np.array([beta]))
    plan = make_step_plan(op, w, 2.0, dt)
    gen = RngStream(0).generator()
    noise = sample_standard_stable(2.0, gen, size=100_000)
    outs = plan.decay * x0 + 0.0 * plan.drift_factor + plan.conv_scale * noise
    # driving noise at alpha=2 has variance 2, so Var = beta^2 (1-e^{-2 lam t})/lam
    assert outs.mean() == pytest.approx(np.exp(-lam * dt) * x0, abs=0.01)
    assert outs.var() == pytest.approx(beta**2 * -np.expm1(-2 * lam * dt) / lam, rel=0.02)


def test_drift_free_terminal_law_multi_step():
    # composing exact-law convolution steps reproduces the t-horizon scale
    alpha, t_end = 1.5, 1.0
    grid = np.linspace(0.0, t_end, 11)
    terminal = np.array(
        [
            solve_averaged_spde(
                np.zeros(3), lambda x: 0.0 * x, OP3, W3, alpha, grid,
                slow_noise(RngStream(4, j), grid, alpha=alpha),
            ).states[-1]
            for j in range(20_000)
        ]
    )
    u = np.array([0.5, 1.0, 2.0])
    for k in range(3):
        sigma = convolution_scale(W3.weights[k], OP3.eigenvalues[k], alpha, t_end)
        target = np.exp(-(sigma**alpha) * np.abs(u) ** alpha)
        assert np.max(np.abs(ecf(terminal[:, k], u) - target)) < 0.03


def test_constant_chain_equals_point_mass_average():
    drift = LinearRegimeDrift(np.array([0.4, 0.8]))
    grid = np.linspace(0.0, 1.0, 21)
    x0 = np.array([1.0, 0.5, 0.25])
    noise = slow_noise(RngStream(5, 3), grid)
    rec_sw = solve_switching_spde(x0, drift, OP3, W3, 1.5, constant_chain(1, 1.0), grid, noise)
    point_mass = nu_average_drift(drift, [0.0, 1.0])
    rec_av = solve_averaged_spde(x0, point_mass, OP3, W3, 1.5, grid, noise)
    assert np.array_equal(rec_sw.states, rec_av.states)


def test_switching_moment_bounded():
    # reaction coefficients below lambda_1 keep p-th moments bounded
    drift = LinearRegimeDrift(np.array([0.3, 0.9]))
    qt = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    grid = np.linspace(0.0, 2.0, 41)
    p = 1.2
    norms = []
    for j in range(400):
        rng = RngStream(6, j)
        chain = simulate_chain(qt, GeneratorMatrix.zero(2), 0.05, 0, 2.0, rng.substream(1))
        rec = solve_switching_spde(
            np.ones(3), drift, OP3, W3, 1.5, chain, grid, slow_noise(rng, grid)
        )
        norms.append(np.linalg.norm(rec.states, axis=1).max())
    moment = np.mean(np.asarray(norms) ** p)
    assert np.isfinite(moment)
    assert moment < 50.0


def test_grid_must_stay_inside_chain_horizon():
    drift = LinearRegimeDrift(np.array([0.0]))
    grid = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="chain"):
        solve_switching_spde(
            np.zeros(3), drift, OP3, W3, 1.5, constant_chain(0, 0.5), grid,
            slow_noise(RngStream(0), grid),
        )
    # steps before t = 0 have no chain state; they would run in the chain's last one
    grid = np.linspace(-0.5, 0.5, 11)
    chain = ChainPath(np.array([0.0, 0.3]), np.array([0, 1]), 1.0)
    with pytest.raises(ValueError, match="chain"):
        solve_switching_spde(
            np.zeros(3), LinearRegimeDrift(np.array([0.0, 1.0])), OP3, W3, 1.5, chain, grid,
            slow_noise(RngStream(0), grid),
        )


def test_equal_drift_coupling_cancels_exactly():
    drift = LinearRegimeDrift(np.array([0.5]))
    grid = np.linspace(0.0, 1.0, 11)
    x0 = np.ones(3)
    noise = slow_noise(RngStream(7, 1), grid)
    a = solve_switching_spde(x0, drift, OP3, W3, 1.5, constant_chain(0, 1.0), grid, noise)
    b = solve_averaged_spde(x0, lambda x: 0.5 * x, OP3, W3, 1.5, grid, noise)
    assert np.max(np.abs(a.states - b.states)) <= 1e-12


def test_constant_drift_difference_is_noise_free():
    # state-independent drifts: the coupled difference must match the
    # noise-zeroed difference exactly
    grid = np.linspace(0.0, 1.0, 21)
    x0 = np.zeros(3)
    d1 = lambda x: np.array([1.0, 0.0, -2.0])
    d2 = lambda x: np.array([-1.0, 0.5, 0.0])
    noise = slow_noise(RngStream(8, 2), grid)
    diff_noisy = (
        solve_averaged_spde(x0, d1, OP3, W3, 1.5, grid, noise).states
        - solve_averaged_spde(x0, d2, OP3, W3, 1.5, grid, noise).states
    )
    quiet = NoiseWeights(np.full(3, 1e-300))  # noise-zeroed comparison run
    diff_quiet = (
        solve_averaged_spde(x0, d1, OP3, quiet, 1.5, grid, noise).states
        - solve_averaged_spde(x0, d2, OP3, quiet, 1.5, grid, noise).states
    )
    assert np.max(np.abs(diff_noisy - diff_quiet)) <= 1e-12


def test_fast_substep_scale_independent_of_eps():
    # the fast field's plan is the mild step of B/eps with noise weights
    # q eps^(-1/beta); with h_f proportional to eps its scale does not move
    op_b = rod_operator(4)
    w_z = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 4)
    beta = 1.5
    for eps in (1.0, 0.1, 1e-3):
        h_f = 0.5 * eps
        op_eps = SpectralOperator(op_b.eigenvalues / eps)
        w_eps = NoiseWeights(w_z.weights * eps ** (-1 / beta))
        scale = make_step_plan(op_eps, w_eps, beta, h_f).conv_scale
        ref = w_z.weights * (-np.expm1(-beta * op_b.eigenvalues * 0.5) / (beta * op_b.eigenvalues)) ** (1 / beta)
        assert np.max(np.abs(scale - ref)) <= 1e-15


def test_fast_slow_requires_contractive_fast_drift():
    op = rod_operator(2)
    w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 2)
    bad = SaturatingCoupledDrift(0.0, 2.0)  # K3 = 2 >= mu_1 = 1
    grid = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        solve_fast_slow(
            np.zeros(2), np.zeros(2), ZeroCoupledDrift(), bad, op, op, w, w,
            1.5, 1.5, 0.1, grid, slow_noise(RngStream(0), grid, k=2),
            fast_noise(RngStream(0), grid, k=2),
        )


def test_fast_slow_stationary_mode_scale():
    # f = 0: the fast mode reaches the stationary scale q_k/(beta mu_k)^(1/beta),
    # independent of eps
    op = rod_operator(2)
    w = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), 2)
    beta = 1.5
    eps = 0.1
    grid = np.linspace(0.0, 1.0, 21)
    term = np.array(
        [
            solve_fast_slow(
                np.zeros(2), np.zeros(2), ZeroCoupledDrift(), ZeroCoupledDrift(),
                op, op, w, w, 1.5, beta, eps, grid,
                slow_noise(RngStream(10, j), grid, k=2),
                fast_noise(RngStream(10, j), grid, fast_substeps(0.05, eps, 0.5), k=2),
            ).fast_states[-1]
            for j in range(20_000)
        ]
    )
    u = np.array([0.5, 1.0, 2.0])
    for k in range(2):
        sigma = w.weights[k] / (beta * op.eigenvalues[k]) ** (1 / beta)
        target = np.exp(-(sigma**beta) * np.abs(u) ** beta)
        assert np.max(np.abs(ecf(term[:, k], u) - target)) < 0.03


def _reference_fast_slow_gap(dt, n, eps, c_sub, n_sub):
    """Terminal gap between solve_fast_slow and an independently written
    two-equation exponential Euler stepper taking n_sub fast substeps per step."""
    k = 3
    op_a = rod_operator(k)
    op_b = SpectralOperator(np.array([1.0, 3.0, 5.0]))
    w_l = NoiseWeights.from_rule(PowerLawRule(1.0, -2.0), k)
    w_z = NoiseWeights(np.array([0.8, 0.4, 0.2]))
    alpha = beta = 1.5
    slow = SaturatingCoupledDrift(0.3, 0.2, 0.1)
    fast = SaturatingCoupledDrift(0.2, 0.4, 0.0)
    grid = np.linspace(0.0, dt * n, n + 1)
    rng = RngStream(11, 5)
    noise = slow_noise(rng, grid, k, alpha)
    noise_z = fast_noise(rng, grid, fast_substeps(grid[-1] / n, eps, c_sub), k, beta)
    rec = solve_fast_slow(
        np.ones(k), 0.5 * np.ones(k), slow, fast, op_a, op_b, w_l, w_z,
        alpha, beta, eps, grid, noise, noise_z,
    )

    lam, mu = op_a.eigenvalues, op_b.eigenvalues / eps
    q = w_z.weights * eps ** (-1 / beta)
    h = dt / n_sub
    # step i takes row i of the slow noise and substep j the next k fast values
    zeta_flat = noise_z.reshape(-1)
    x, y = np.ones(k), 0.5 * np.ones(k)
    for i in range(n):
        xi = noise[i]
        bx = slow(x, y)
        x_new = (
            np.exp(-lam * dt) * x
            + bx * (1 - np.exp(-lam * dt)) / lam
            + w_l.weights * ((1 - np.exp(-alpha * lam * dt)) / (alpha * lam)) ** (1 / alpha) * xi
        )
        for j in range(i * n_sub, (i + 1) * n_sub):
            zeta = zeta_flat[j * k : (j + 1) * k]
            fy = fast(x, y) / eps
            y = (
                np.exp(-mu * h) * y
                + fy * (1 - np.exp(-mu * h)) / mu
                + q * ((1 - np.exp(-beta * mu * h)) / (beta * mu)) ** (1 / beta) * zeta
            )
        x = x_new
    return np.max(np.abs(rec.states[-1] - x)), np.max(np.abs(rec.fast_states[-1] - y))


def test_fast_slow_matches_reference_two_block_stepper():
    # eps = 1 with one fast substep per step
    gap_x, gap_y = _reference_fast_slow_gap(0.1, 10, eps=1.0, c_sub=1.0, n_sub=1)
    assert gap_x < 1e-10
    assert gap_y < 1e-10


def test_fast_slow_substep_count_matches_reference():
    # linspace(0, 1, 51) with eps = 0.02 and c_sub = 0.5: dt / (c_sub eps) = 2
    # substeps on every step, whatever the rounding of the grid's differences
    gap_x, gap_y = _reference_fast_slow_gap(0.02, 50, eps=0.02, c_sub=0.5, n_sub=2)
    assert gap_x < 1e-10
    assert gap_y < 1e-10


def test_fast_slow_substep_count_ignores_quotient_rounding():
    # dt / (c_sub eps) = 0.07 / 0.01 evaluates to 7.000000000000001: 7 substeps, not 8
    gap_x, gap_y = _reference_fast_slow_gap(0.07, 3, eps=0.02, c_sub=0.5, n_sub=7)
    assert gap_x < 1e-10
    assert gap_y < 1e-10


def test_fast_substeps_counts_a_near_whole_quotient_as_whole():
    assert fast_substeps(0.07, 0.02, 0.5) == 7  # the quotient evaluates to 7.000000000000001
    assert fast_substeps(0.02, 0.02, 0.5) == 2
    assert fast_substeps(0.02, 0.02, 100.0) == 1
    with pytest.raises(ValueError, match="not finite"):
        fast_substeps(1.0, 1e-300, 1e-300)


def test_non_uniform_grid_rejected():
    grid = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniform"):
        solve_averaged_spde(
            np.zeros(3), lambda x: 0 * x, OP3, W3, 1.5, grid, slow_noise(RngStream(0), grid)
        )


def test_frozen_fast_is_ou_field_without_drift():
    op = SpectralOperator(np.array([1.0]))
    w = NoiseWeights(np.array([1.0]))
    grid = np.linspace(0.0, 5.0, 26)
    term = np.array(
        [
            solve_frozen_fast(
                np.zeros(1), np.zeros(1), ZeroCoupledDrift(), op, w, 2.0, grid,
                draw_noise(2.0, RngStream(12, j).substream(Z_NOISE_TAG), len(grid) - 1, 1),
            ).states[-1, 0]
            for j in range(20_000)
        ]
    )
    # beta = 2: stationary variance = 2 * (1/(2 mu))
    assert term.var() == pytest.approx(1.0, rel=0.05)
    assert term.mean() == pytest.approx(0.0, abs=0.05)


def test_frozen_fast_pathwise_contraction():
    op = SpectralOperator(np.array([1.0]))
    w = NoiseWeights(np.array([1.0]))
    fast = SaturatingCoupledDrift(0.0, 0.5)  # K3 = 0.5, mu_1 = 1
    grid = np.linspace(0.0, 6.0, 121)
    noise = draw_noise(1.5, RngStream(13, 0).substream(Z_NOISE_TAG), len(grid) - 1, 1)
    a = solve_frozen_fast(np.zeros(1), np.array([4.0]), fast, op, w, 1.5, grid, noise)
    b = solve_frozen_fast(np.zeros(1), np.array([-4.0]), fast, op, w, 1.5, grid, noise)
    gap = np.linalg.norm(a.states - b.states, axis=1)
    slope = np.polyfit(grid, np.log(gap), 1)[0]
    assert slope <= -(1.0 - 0.5) + 0.1


def test_record_shapes():
    grid = np.linspace(0.0, 1.0, 6)
    rec = solve_averaged_spde(
        np.zeros(3), lambda x: 0 * x, OP3, W3, 1.5, grid, slow_noise(RngStream(14), grid)
    )
    assert rec.states.shape == (6, 3)
    assert np.array_equal(rec.times, grid)


def test_draw_noise_rows_are_the_flat_draw_in_order():
    # row i holds values i*k .. i*k + k-1 of the 1-d draw on one generator of the stream
    stream = RngStream(15, 2).substream(L_NOISE_TAG)
    noise = draw_noise(1.5, stream, 7, 4)
    flat = sample_standard_stable(1.5, stream.generator(), size=28)
    assert noise.shape == (7, 4)
    for i, row in enumerate(noise):
        assert np.array_equal(row, flat[4 * i : 4 * i + 4])


def test_draw_noise_memory_is_bounded():
    stream = RngStream(16).substream(L_NOISE_TAG)
    tracemalloc.start()
    try:
        noise = draw_noise(1.5, stream, 20000, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * noise.nbytes


def _reference_switching_states(x0, drift, op, weights, alpha, chain, grid, noise):
    """The switching solve as it was stepped before its breakpoint table:
    per step, the chain's jumps inside it and the regime at each piece's start
    come from ``breakpoints_in`` and ``state_at``."""
    dt = (grid[-1] - grid[0]) / (grid.size - 1)
    plan = make_step_plan(op, weights, alpha, dt)
    lam = op.eigenvalues
    x = np.asarray(x0, dtype=float).copy()
    out = [x]
    for i in range(grid.size - 1):
        t0, t1 = grid[i], grid[i + 1]
        jumps = chain.breakpoints_in(t0, t1)
        if jumps.size == 0:
            x = plan.decay * x + drift(x, chain.state_at(t0)) * plan.drift_factor
        else:
            pts = np.concatenate(([t0], jumps, [t1]))
            for a, b in zip(pts[:-1], pts[1:]):
                tau = b - a
                x = np.exp(-lam * tau) * x + drift(x, chain.state_at(a)) * drift_factor(lam, tau)
        x = x + plan.conv_scale * noise[i]
        out.append(x)
    return np.array(out)


GRID11 = np.linspace(0.0, 1.0, 11)
SUB_GRID = np.linspace(0.3, 0.8, 6)  # starts after the chain's 0, ends before its horizon
HAND_CHAINS = {
    "jump_on_grid_point": ([0.0, GRID11[3], 0.61], [0, 2, 1], GRID11),
    "jumps_inside_one_step": ([0.0, 0.42, 0.45, 0.47, 0.48], [1, 0, 2, 0, 1], GRID11),
    "jump_in_last_step": ([0.0, 0.95], [2, 0], GRID11),
    "no_jump": ([0.0], [1], GRID11),
    "sub_grid_jumps_on_both_ends": (
        [0.0, 0.1, SUB_GRID[0], 0.55, SUB_GRID[-1], 0.9], [2, 0, 1, 2, 0, 1], SUB_GRID
    ),
    "sub_grid_jumps_outside_only": ([0.0, 0.2, 0.85], [1, 2, 0], SUB_GRID),
}


def _assert_solve_matches_reference(times, states, grid, seed):
    chain = ChainPath(np.array(times), np.array(states), 1.0)
    drift = SaturatingRegimeDrift(np.array([0.3, -0.8, 0.5]), np.array([0.2, -0.4, 0.1]))
    x0 = np.array([1.0, -0.5, 0.25])
    args = (x0, drift, OP3, W3, 1.5, chain, grid, slow_noise(RngStream(seed), grid))
    ref = _reference_switching_states(*args)
    assert solve_switching_spde(*args).states.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(HAND_CHAINS))
def test_switching_solve_matches_per_step_lookups(name):
    _assert_solve_matches_reference(*HAND_CHAINS[name], 17)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_switching_solve_on_random_chains_matches_per_step_lookups(data):
    n_steps = data.draw(st.integers(1, 12), label="n_steps")
    start = data.draw(st.floats(0.01, 0.4), label="start")
    stop = data.draw(st.floats(start + 0.05, 0.99), label="stop")
    grid = np.linspace(start, stop, n_steps + 1)
    # jumps anywhere in (0, 1), or snapped onto a grid point, the two ends included
    jump = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.sampled_from(grid.tolist()))
    times = np.unique([0.0, *data.draw(st.lists(jump, max_size=15), label="jumps")])
    states = data.draw(st.lists(st.integers(0, 2), min_size=times.size, max_size=times.size))
    _assert_solve_matches_reference(times, states, grid, data.draw(st.integers(0, 2**32)))


def test_class_chain_solve_matches_per_step_lookups():
    # the averaged member of a multiclass pair rides the aggregated class chain
    cfg = load_config(CONFIG_DIR / "switching_multiclass.cfg")
    qt, qh = cfg.generator_pair()
    part = cfg.class_partition()
    mu_blocks = [stationary_distribution(b) for b in cfg.qtilde_blocks()]
    class_drift = class_average_drift(cfg.regime_drift(), part, mu_blocks)
    grid = np.linspace(0.0, cfg.T, round(cfg.T / cfg.dt) + 1)
    args = (cfg.initial_state(), class_drift, cfg.op_a(), cfg.weights_l(), cfg.alpha)
    class_jumps = 0
    for j in range(10):
        stream = RngStream(cfg.seed, j)
        chain = simulate_chain(qt, qh, 0.01, cfg.r0 - 1, cfg.T, stream.substream(CHAIN_TAG))
        classes = aggregate_path(chain, part)
        class_jumps += classes.times.size - 1
        noise = slow_noise(stream, grid, k=cfg.k_trunc, alpha=cfg.alpha)
        rec = solve_switching_spde(*args, classes, grid, noise)
        ref = _reference_switching_states(*args, classes, grid, noise)
        assert rec.states.tobytes() == ref.tobytes()
    assert class_jumps > 0


def test_noise_of_the_wrong_shape_rejected():
    grid = np.linspace(0.0, 1.0, 6)
    drift = lambda x: 0 * x
    with pytest.raises(ValueError, match="noise must have shape"):
        solve_averaged_spde(np.zeros(3), drift, OP3, W3, 1.5, grid, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="noise must have shape"):
        solve_averaged_spde(np.zeros(3), drift, OP3, W3, 1.5, grid, np.zeros((5, 2)))
    pair = (np.zeros(3), np.zeros(3), ZeroCoupledDrift(), ZeroCoupledDrift(), OP3, OP3, W3, W3)
    for noise, noise_z in [
        (np.zeros((6, 3)), np.zeros((5, 2, 3))),  # one slow row too many
        (np.zeros((5, 3)), np.zeros((5, 3))),  # fast noise without a substep axis
        (np.zeros((5, 3)), np.zeros((5, 2, 2))),  # fast noise of the wrong k
        (np.zeros((5, 3)), np.zeros((5, 0, 3))),  # zero substeps
        (np.zeros((5, 3)), np.zeros(5)),  # fast noise without a mode axis
    ]:
        with pytest.raises(ValueError, match="noise must have shape"):
            solve_fast_slow(*pair, 1.5, 1.5, 0.1, grid, noise, noise_z)
    rec = solve_fast_slow(*pair, 1.5, 1.5, 0.1, grid, np.zeros((5, 3)), np.zeros((5, 2, 3)))
    assert rec.fast_states.shape == (6, 3)
    # initial states of the wrong length are blamed on the state, not the noise
    grid_and_noise = (grid, np.zeros((5, 3)), np.zeros((5, 2, 3)))
    for x0, y0 in [(np.zeros(2), np.zeros(3)), (np.zeros(3), np.zeros(4))]:
        with pytest.raises(ValueError, match="initial state length"):
            solve_fast_slow(x0, y0, *pair[2:], 1.5, 1.5, 0.1, *grid_and_noise)
    with pytest.raises(ValueError, match="initial state length"):
        solve_averaged_spde(np.zeros(4), drift, OP3, W3, 1.5, grid, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="eps must be positive"):
        solve_fast_slow(*pair, 1.5, 1.5, 0.0, *grid_and_noise)


# Mode separability: each spectral mode evolves on its own, so modes 1..K of a 2K-mode
# solve whose extra modes get their own noise columns are the K-mode solve, bit for bit.
# Exact batching of paths into one array rests on the same fact.
K_NARROW = 20


def _narrow_and_wide(cfg):
    """``cfg`` at K_NARROW modes and at twice that many."""
    return [replace(cfg, k_trunc=k) for k in (K_NARROW, 2 * K_NARROW)]


@pytest.mark.parametrize("preset", ["switching_single.cfg", "switching_multiclass.cfg"],
                         ids=["linear_drift", "saturating_drift"])
def test_wider_switching_solve_keeps_the_narrow_solve_bit_for_bit(preset):
    cfg = load_config(CONFIG_DIR / preset)
    qt, qh = cfg.generator_pair()
    grid = np.linspace(0.0, cfg.T, round(cfg.T / cfg.dt) + 1)
    jumps = 0
    for j, eps in itertools.product(range(3), cfg.eps_grid):
        stream = RngStream(cfg.seed, j)
        chain = simulate_chain(qt, qh, eps, cfg.r0 - 1, cfg.T, stream.substream(CHAIN_TAG))
        jumps += chain.times.size - 1
        noise = slow_noise(stream, grid, 2 * K_NARROW, cfg.alpha)
        narrow, wide = (
            solve_switching_spde(c.initial_state(), c.regime_drift(), c.op_a(), c.weights_l(),
                                 cfg.alpha, chain, grid, noise[:, : c.k_trunc])
            for c in _narrow_and_wide(cfg)
        )
        assert np.array_equal(wide.states[:, :K_NARROW], narrow.states)
    assert jumps > 0


def test_wider_fast_slow_solve_keeps_the_narrow_solve_bit_for_bit():
    cfg = load_config(CONFIG_DIR / "fast_slow.cfg")
    slow, fast = cfg.slow_coupled_drift(), cfg.fast_coupled_drift()
    grid = np.linspace(0.0, cfg.T, round(cfg.T / cfg.dt) + 1)
    for j, eps in itertools.product(range(3), cfg.eps_grid):
        stream = RngStream(cfg.seed, j)
        noise = slow_noise(stream, grid, 2 * K_NARROW, cfg.alpha)
        n_sub = fast_substeps(cfg.dt, eps, cfg.c_sub)
        noise_z = fast_noise(stream, grid, n_sub, 2 * K_NARROW, cfg.beta)
        narrow, wide = (
            solve_fast_slow(c.initial_state(), c.initial_fast_state(), slow, fast, c.op_a(),
                            c.op_b(), c.weights_l(), c.weights_z(), cfg.alpha, cfg.beta, eps,
                            grid, noise[:, : c.k_trunc], noise_z[..., : c.k_trunc])
            for c in _narrow_and_wide(cfg)
        )
        assert np.array_equal(wide.states[:, :K_NARROW], narrow.states)
        assert np.array_equal(wide.fast_states[:, :K_NARROW], narrow.fast_states)
