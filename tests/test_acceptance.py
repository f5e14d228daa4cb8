"""Acceptance suite: one statistical or exact experiment per release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or on failure) before asserting, so a full run doubles as the release report.
The heavy Monte-Carlo experiments use the shipped preset configurations.
"""

import math
from pathlib import Path

import numpy as np

from stablespde import (
    ClassPartition,
    ErgodicEstimatorConfig,
    GeneratorMatrix,
    NoiseWeights,
    RngStream,
    SpectralOperator,
    ZeroCoupledDrift,
    aggregate_generator,
    cli,
    convolution_scale,
    ecf,
    ergodic_decay_probe,
    estimate_ergodic_drift,
    fit_decay_rate,
    hoelder_bound_check,
    occupation_fractions,
    rod_operator,
    sample_standard_stable,
    simulate_chain,
    smoothing_bound_check,
    solve_averaged_spde,
    solve_switching_spde,
    stationary_distribution,
)
from stablespde.engine import TrajectoryRecord, draw_noise
from stablespde.config import load_config, parse_config
from stablespde.harness import (
    monotone_with_inversions,
    run_aggregate,
    run_converge,
    run_freeze,
)
from stablespde.rng import L_NOISE_TAG
from stablespde.switching import ChainPath

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
U_GRID = np.array([0.25, 0.5, 1.0, 2.0, 3.0])


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_sampler_fidelity():
    worst = 0.0
    for i, alpha in enumerate((1.3, 1.5, 1.8, 2.0)):
        samples = sample_standard_stable(alpha, RngStream(101, i), size=200_000)
        target = np.exp(-np.abs(U_GRID) ** alpha)
        worst = max(worst, float(np.max(np.abs(ecf(samples, U_GRID) - target))))
    report(1, worst < 0.01, f"sup ECF deviation over alpha grid = {worst:.4f} < 0.01")


def test_criterion_2_exact_ou_mode_law():
    # drift-free single mode lam = 1, beta = 1, alpha = 1.5, t = 1; the
    # composed one-step laws must hit the closed-form horizon scale for any dt
    alpha, lam, t_end, n_samples = 1.5, 1.0, 1.0, 200_000
    sigma = convolution_scale(1.0, lam, alpha, t_end)
    target = np.exp(-(sigma**alpha) * np.abs(U_GRID) ** alpha)
    devs = []
    for run, n_steps in enumerate((10, 20)):  # second run halves dt
        dt = t_end / n_steps
        gen = RngStream(102, run).generator()
        x = np.zeros(n_samples)
        step_scale = convolution_scale(1.0, lam, alpha, dt)
        for _ in range(n_steps):
            x = np.exp(-lam * dt) * x + step_scale * sample_standard_stable(
                alpha, gen, size=n_samples
            )
        devs.append(float(np.max(np.abs(ecf(x, U_GRID) - target))))
    ok = max(devs) < 0.01
    report(2, ok, f"terminal ECF deviation dt=0.1: {devs[0]:.4f}, dt=0.05: {devs[1]:.4f} < 0.01")


def test_criterion_3_analytic_operator_bounds():
    op = rod_operator(20)
    deltas = np.linspace(0.04, 0.96, 20)
    ts = np.geomspace(1e-3, 10.0, 20)
    ok = all(smoothing_bound_check(op, d, ts) for d in deltas) and all(
        hoelder_bound_check(op, d, ts) for d in deltas
    )
    report(3, ok, "smoothing and Hoelder bounds hold on the 20x20 (delta, t) grid")


def test_criterion_4_stationary_and_aggregation_algebra():
    qt = GeneratorMatrix(
        np.array([[-3.0, 1.0, 2.0], [0.5, -1.5, 1.0], [2.0, 2.0, -4.0]])
    )
    nu = stationary_distribution(qt)
    resid = float(np.max(np.abs(nu @ qt.rates)))

    blocks = [
        GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])),
        GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]])),
    ]
    qhat = GeneratorMatrix(
        np.array(
            [
                [-1.0, 0.2, 0.5, 0.3],
                [0.1, -0.6, 0.2, 0.3],
                [0.4, 0.1, -0.8, 0.3],
                [0.2, 0.2, 0.1, -0.5],
            ]
        )
    )
    part = ClassPartition(((0, 1), (2, 3)))
    qbar = aggregate_generator(blocks, qhat, part)
    hand = np.array([[-0.65, 0.65], [13.0 / 30.0, -13.0 / 30.0]])
    gap = float(np.max(np.abs(qbar.rates - hand)))
    ok = resid <= 1e-10 and gap <= 1e-12
    report(4, ok, f"|nu Qtilde|_inf = {resid:.2e} <= 1e-10; |Qbar - hand|_max = {gap:.2e} <= 1e-12")


def test_criterion_5_chain_ergodics():
    sym = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    path = simulate_chain(sym, GeneratorMatrix.zero(2), 1e-3, 0, 10.0, RngStream(105))
    occ = occupation_fractions(path, 2)
    occ_gap = float(np.max(np.abs(occ - 0.5)))

    cfg = load_config(CONFIG_DIR / "aggregate.cfg")
    _, qbar, rows, _ = run_aggregate(cfg)
    rel = max(abs(emp - theo) / abs(theo) for _, _, emp, theo in rows)
    ok = occ_gap < 0.02 and rel < 0.10
    report(
        5,
        ok,
        f"occupation gap {occ_gap:.4f} < 0.02; class-rate relative error {rel:.3f} < 0.10 "
        f"(eps=1e-3, T=1e3)",
    )


def test_criterion_6_single_class_averaging_rate():
    cfg = load_config(CONFIG_DIR / "switching_single.cfg")
    _, table, _, fit, _ = run_converge(cfg)
    mono_ok, inversions = monotone_with_inversions(table, se_factor=2.0)
    ok = mono_ok and fit is not None and fit.slope > 0.05 and fit.r_squared > 0.6
    report(
        6,
        ok,
        f"errors {np.round(table.errors, 4).tolist()} over eps {table.eps.tolist()}; "
        f"{inversions} inversion(s); slope {fit.slope:.3f} > 0.05, r2 {fit.r_squared:.3f} > 0.6; "
        f"theoretical exponent bound {fit.theoretical_exponent:.4f} (reported, not asserted)",
    )


def test_criterion_7_multiclass_averaging():
    cfg = load_config(CONFIG_DIR / "switching_multiclass.cfg")
    cfg.eps_grid = [0.1, 0.02, 0.005]
    _, table, _, _, _ = run_converge(cfg)
    gap = table.errors[0] - table.errors[-1]
    band = 3.0 * math.hypot(table.ses[0], table.ses[-1])
    ok = gap > band
    report(
        7,
        ok,
        f"error eps=0.1: {table.errors[0]:.4f} vs eps=0.005: {table.errors[-1]:.4f}; "
        f"gap {gap:.4f} > 3 combined SE = {band:.4f}",
    )


def test_criterion_8_fast_slow_averaging():
    cfg = load_config(CONFIG_DIR / "fast_slow.cfg")
    _, table, _, _, _ = run_converge(cfg)
    decreasing = bool(np.all(np.diff(table.errors) < 0))
    gap = table.errors[0] - table.errors[-1]
    band = 3.0 * math.hypot(table.ses[0], table.ses[-1])

    # averaged-drift estimates from two displaced fast initial conditions
    est_cfg = ErgodicEstimatorConfig()
    common = dict(
        z=cfg.initial_state(),
        fast_drift=cfg.fast_coupled_drift(),
        observable=lambda z, u: cfg.slow_coupled_drift()(z, u),
        op_b=cfg.op_b(),
        w_z=cfg.weights_z(),
        beta=cfg.beta,
        config=est_cfg,
    )
    e1, s1 = estimate_ergodic_drift(rng=RngStream(108, 0), **common)
    e2, s2 = estimate_ergodic_drift(rng=RngStream(108, 1), y0=np.ones(cfg.k_trunc), **common)
    comb = np.sqrt(s1**2 + s2**2)
    y0_gap = float(np.max(np.abs(e1 - e2) / comb))
    ok = decreasing and gap >= band and y0_gap < 3.0
    report(
        8,
        ok,
        f"errors {np.round(table.errors, 4).tolist()} decreasing={decreasing}; "
        f"gap {gap:.4f} >= 3 SE = {band:.4f}; bbar y0 gap {y0_gap:.2f} < 3 SE",
    )


def test_criterion_9_ergodic_decay_rate():
    # f = 0, linear observable on a single mode with mu_1 = 1: the probe decays
    # at exactly the spectral rate
    op = SpectralOperator(np.array([1.0]))
    w = NoiseWeights(np.array([1.0]))
    t_grid = np.linspace(0.0, 2.0, 21)
    values = ergodic_decay_probe(
        np.zeros(1), np.array([4.0]), ZeroCoupledDrift(), lambda z, u: u,
        op, w, 1.5, t_grid, 2000, RngStream(109), bbar=np.zeros(1),
    )
    rate = fit_decay_rate(t_grid, values)
    ok = abs(rate - 1.0) < 0.2
    report(9, ok, f"fitted decay rate {rate:.3f} within 20% of mu_1 = 1")


def test_criterion_10_coupling_and_determinism(tmp_path):
    # equal-drift coupled pair on a shared stream: exact noise cancellation
    op = rod_operator(10)
    w = NoiseWeights(np.arange(1, 11, dtype=float) ** -2.0)
    grid = np.linspace(0.0, 1.0, 51)
    worst = 0.0
    for j in range(50):
        noise = draw_noise(1.5, RngStream(110, j).substream(L_NOISE_TAG), 50, 10)
        chain = ChainPath(np.array([0.0]), np.array([0]), 1.0)
        a = solve_switching_spde(
            np.ones(10), lambda x, i: 0.5 * x, op, w, 1.5, chain, grid, noise
        )
        b = solve_averaged_spde(np.ones(10), lambda x: 0.5 * x, op, w, 1.5, grid, noise)
        worst = max(worst, float(np.max(np.abs(a.states - b.states))))

    # byte-identical repeated CLI runs under a fixed seed
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        (CONFIG_DIR / "switching_single.cfg").read_text(), encoding="utf-8"
    )
    args = ["converge", "--config", str(cfg_path), "--paths", "16", "--quiet"]
    cli.main(args + ["--out", str(tmp_path / "a")])
    cli.main(args + ["--out", str(tmp_path / "b")])
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("converge.csv", "summary.json")
    )
    ok = worst <= 1e-12 and identical
    report(
        10,
        ok,
        f"max per-path coupled error {worst:.2e} <= 1e-12; repeated seeded runs byte-identical: "
        f"{identical}",
    )
