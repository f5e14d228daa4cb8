"""Experiment orchestration: assumption checks, coupled eps-sweeps, rate fits.

Coupling convention: path j draws its slow noise once, on
``RngStream(seed, j).substream(L_NOISE_TAG)`` under the stream contract of
:mod:`.rng`, and both members of every pair (the eps-system and its averaged
limit) step on that one array, so their difference isolates the drift
discrepancy; a fast-slow eps-system draws its fast noise per (path, eps) on the
path's ``Z_NOISE_TAG`` substream.  The same slow noise drives the path at every
eps (common random numbers), which makes the error columns strongly positively
correlated and the monotone decrease visible at desk scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .averaging import (
    class_average_drift,
    estimate_ergodic_drift,
    ergodic_decay_probe,
    fit_decay_rate,
    nu_average_drift,
)
from .config import ConfigError, ExperimentConfig, fast_substeps
from .drifts import SaturatingRegimeDrift
from .engine import draw_noise, solve_averaged_spde, solve_fast_slow, solve_switching_spde
from .rng import CHAIN_TAG, L_NOISE_TAG, Z_NOISE_TAG, RngStream
from .rng import DECAY_PROBE_STREAM, ESTIMATOR_STREAM, Y0_PAIR_STREAMS
from .spectral import admissibility
from .switching import (
    aggregate_generator,
    aggregate_path,
    occupation_fractions,
    simulate_chain,
    stationary_distribution,
)


class ConditionError(RuntimeError):
    """An assumption check failed; experiments refuse to start (exit code 1)."""


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ErrorTable:
    """Rows of the coupled eps-sweep: (eps, p, error, se, n_paths)."""

    eps: np.ndarray
    p: float
    errors: np.ndarray
    ses: np.ndarray
    n_paths: int

    def rows(self):
        for e, err, se in zip(self.eps, self.errors, self.ses):
            yield float(e), self.p, float(err), float(se), self.n_paths


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    theoretical_exponent: float


def theoretical_rate_exponent(alpha: float, p: float, theta: float) -> float:
    """rho * theta with rho at 95% of its admissible supremum (alpha-p)/(alpha-p+p*theta*alpha)."""
    rho = 0.95 * (alpha - p) / (alpha - p + p * theta * alpha)
    return rho * theta


def rate_fit(table: ErrorTable, theoretical: float) -> RateFit:
    """OLS of log error on log eps.  Positive slope = error shrinks with eps."""
    if table.eps.size < 3:
        raise ValueError("fewer than 3 grid points")
    if np.any(table.errors <= 0):
        raise ValueError("nonpositive errors in the table")
    x = np.log(table.eps)
    y = np.log(table.errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return RateFit(float(slope), float(intercept), float(r2), theoretical)


def p_moment(values: np.ndarray, p: float, n_batches: int = 10) -> tuple[float, float]:
    """(E v^p)^(1/p) with a batch-means standard error (delta method for the root)."""
    v = np.asarray(values, dtype=float) ** p
    m = v.mean()
    if m == 0:
        return 0.0, 0.0
    batches = np.array_split(v, min(n_batches, v.size))
    bm = np.array([b.mean() for b in batches])
    se_m = bm.std(ddof=1) / math.sqrt(len(batches))
    return float(m ** (1.0 / p)), float(se_m / p * m ** (1.0 / p - 1.0))


# ----------------------------------------------------------------------
# condition checks
# ----------------------------------------------------------------------


def run_check(cfg: ExperimentConfig):
    """Machine-check every standing assumption; returns (admissibility, checks)."""
    checks: list[ConditionCheck] = []

    def add(name, passed, detail=""):
        checks.append(ConditionCheck(name, bool(passed), detail))

    at = cfg.alpha * cfg.theta
    add("alpha-theta in (0,1)", 0 < at < 1, f"alpha*theta = {at:g}")

    fast = cfg.scenario == "fast-slow"
    fast_pair = dict(op_b=cfg.op_b(), w_z=cfg.weights_z(), beta=cfg.beta) if fast else {}
    report = admissibility(cfg.op_a(), cfg.weights_l(), cfg.alpha, cfg.theta, **fast_pair)
    add(
        "noise admissibility",
        report.passed,
        f"delta = {report.delta_partial:.6g} (+tail <= {report.delta_tail_bound})",
    )

    if cfg.scenario == "switching-single":
        try:
            nu = stationary_distribution(cfg.generator_pair()[0])
            add("weak irreducibility", True, f"nu = {np.round(nu, 6).tolist()}")
        except ValueError as exc:
            add("weak irreducibility", False, str(exc))
    elif cfg.scenario == "switching-multiclass":
        try:
            for blk in cfg.qtilde_blocks():
                stationary_distribution(blk)
            add("block irreducibility", True, f"{cfg.class_partition().n_classes} classes")
        except ValueError as exc:
            add("block irreducibility", False, str(exc))
    elif fast:
        mu1 = cfg.op_b().lambda_1
        k3 = cfg.fast_coupled_drift().grad_y_bound
        add("ergodicity condition K3 < mu_1", k3 < mu1, f"K3 = {k3:g}, mu_1 = {mu1:g}")
        bound = cfg.slow_coupled_drift().bound_for(cfg.k_trunc)
        add("slow drift uniformly bounded", np.isfinite(bound), f"M = {bound:.6g}")
        add(
            "kappa2 finite",
            report.kappa2_partial is not None and np.isfinite(report.kappa2_partial),
            f"kappa2 = {report.kappa2_partial}",
        )

    return report, checks


def require_pass(checks: list[ConditionCheck]) -> None:
    bad = [c for c in checks if not c.passed]
    if bad:
        lines = "; ".join(f"{c.name}: {c.detail}" for c in bad)
        raise ConditionError(f"condition check failed: {lines}")


def _checked(cfg: ExperimentConfig):
    """run_check, refusing with ConditionError if any condition failed."""
    report, checks = run_check(cfg)
    require_pass(checks)
    return report, checks


# ----------------------------------------------------------------------
# coupled convergence experiments
# ----------------------------------------------------------------------


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    n = int(round(cfg.T / cfg.dt))
    return np.linspace(0.0, cfg.T, n + 1)


def _checkpoint_idx(grid: np.ndarray, n_checkpoints: int) -> np.ndarray:
    idx = np.linspace(1, grid.size - 1, n_checkpoints).astype(int)
    return np.unique(np.append(idx[:-1], grid.size - 1))  # the last checkpoint is T


def averaged_fast_slow_drift(cfg: ExperimentConfig, rng: RngStream):
    """Averaged slow drift for the fast-slow scenario.

    The fast drift does not depend on the slow state, so the frozen invariant
    measure is a single law pi and the averaged drift separates into
    gain_x tanh(z) + gain_y * m + offset with m = int tanh(u) pi(du), which is
    estimated once.  Returns (drift, m, se(m)); the drift maps state to state.
    """
    m, se = estimate_ergodic_drift(
        np.zeros(cfg.k_trunc),
        cfg.fast_coupled_drift(),
        lambda z, u: np.tanh(u),
        cfg.op_b(),
        cfg.weights_z(),
        cfg.beta,
        cfg.estimator_config(),
        rng,
    )
    slow = cfg.slow_coupled_drift()
    return SaturatingRegimeDrift([slow.gain_x], [slow.gain_y * m + slow.offset]), m, se


def _slow_noise(cfg: ExperimentConfig, stream: RngStream, grid: np.ndarray) -> np.ndarray:
    """The slow noise of the path on ``stream``: one row per grid step."""
    return draw_noise(cfg.alpha, stream.substream(L_NOISE_TAG), grid.size - 1, cfg.k_trunc)


def _eps_system(cfg: ExperimentConfig, grid: np.ndarray):
    """solve(eps, stream, noise): one path of the eps-system on its stream and slow noise."""
    op_a, w_l, x0 = cfg.op_a(), cfg.weights_l(), cfg.initial_state()
    if cfg.scenario == "fast-slow":
        y0, op_b, w_z = cfg.initial_fast_state(), cfg.op_b(), cfg.weights_z()
        slow, fast, n = cfg.slow_coupled_drift(), cfg.fast_coupled_drift(), grid.size - 1

        def solve(eps, stream, noise):
            shape = (n, fast_substeps(cfg.T / n, eps, cfg.c_sub), cfg.k_trunc)
            noise_z = draw_noise(cfg.beta, stream.substream(Z_NOISE_TAG), *shape)
            return solve_fast_slow(x0, y0, slow, fast, op_a, op_b, w_l, w_z, cfg.alpha, cfg.beta,
                                   eps, grid, noise, noise_z)

        return solve
    qt, qh = cfg.generator_pair()
    drift = cfg.regime_drift()

    def solve(eps, stream, noise):
        chain = simulate_chain(qt, qh, eps, cfg.r0 - 1, cfg.T, stream.substream(CHAIN_TAG))
        return solve_switching_spde(x0, drift, op_a, w_l, cfg.alpha, chain, grid, noise)

    return solve


def _averaged_system(cfg: ExperimentConfig, grid: np.ndarray):
    """solve(rec, noise): the averaged limit coupled to the eps-system record ``rec``."""
    op_a, w_l, x0 = cfg.op_a(), cfg.weights_l(), cfg.initial_state()
    if cfg.scenario == "switching-multiclass":
        part = cfg.class_partition()
        mu_blocks = [stationary_distribution(b) for b in cfg.qtilde_blocks()]
        class_drift = class_average_drift(cfg.regime_drift(), part, mu_blocks)
        # the averaged equation rides the aggregated chain of the same path:
        # a concrete coupling of the limit chain, as the class process of the
        # eps-chain converges weakly to it
        return lambda rec, noise: solve_switching_spde(
            x0, class_drift, op_a, w_l, cfg.alpha, aggregate_path(rec.chain, part), grid, noise
        )
    if cfg.scenario == "switching-single":
        nu = stationary_distribution(cfg.generator_pair()[0])
        averaged = nu_average_drift(cfg.regime_drift(), nu)
    else:
        averaged, _, _ = averaged_fast_slow_drift(cfg, RngStream(cfg.seed, ESTIMATOR_STREAM))
    return lambda rec, noise: solve_averaged_spde(x0, averaged, op_a, w_l, cfg.alpha, grid, noise)


def run_converge(cfg: ExperimentConfig):
    """Coupled eps-sweep.

    Returns ((report, checks), ErrorTable, checkpoint ErrorTable, RateFit|None, notice).
    """
    if cfg.n_paths < 2:
        raise ConfigError(f"converge needs n_paths >= 2 for a standard error, got {cfg.n_paths}")
    checked = _checked(cfg)
    grid = _time_grid(cfg)
    chk = _checkpoint_idx(grid, cfg.checkpoints)
    solve_eps, solve_bar = _eps_system(cfg, grid), _averaged_system(cfg, grid)
    # per (eps, path): terminal (0) and checkpoint-sup (1) H-norm of the pair's difference
    results = np.empty((len(cfg.eps_grid), cfg.n_paths, 2))
    for j in range(cfg.n_paths):
        stream = RngStream(cfg.seed, j)
        noise = _slow_noise(cfg, stream, grid)
        for e, eps in enumerate(cfg.eps_grid):
            rec_eps = solve_eps(eps, stream, noise)
            diff = rec_eps.states - solve_bar(rec_eps, noise).states
            norms = np.linalg.norm(diff[chk], axis=1)
            results[e, j] = norms[-1], norms.max()
    eps_arr = np.asarray(cfg.eps_grid, dtype=float)
    moments = [np.array([p_moment(r[:, c], cfg.p, cfg.n_batches) for r in results]) for c in (0, 1)]
    table, sup_table = (ErrorTable(eps_arr, cfg.p, *m.T, cfg.n_paths) for m in moments)

    theo = theoretical_rate_exponent(cfg.alpha, cfg.p, cfg.theta)
    try:
        fit, notice = rate_fit(table, theo), ""
    except np.linalg.LinAlgError:  # a ValueError subclass: a failed fit, not a refusal
        raise
    except ValueError as exc:
        fit, notice = None, f"rate fit refused: {exc}"
    return checked, table, sup_table, fit, notice


def monotone_with_inversions(table: ErrorTable, se_factor: float = 2.0) -> tuple[bool, int]:
    """Decreasing error column, tolerating inversions within se_factor combined SEs.

    Returns (acceptable, n_inversions) where acceptable means at most one
    inversion and every inversion within the combined-SE band.
    """
    inversions = 0
    ok = True
    for i in range(table.errors.size - 1):
        gap = table.errors[i + 1] - table.errors[i]
        if gap > 0:
            inversions += 1
            band = se_factor * math.hypot(table.ses[i], table.ses[i + 1])
            if gap > band:
                ok = False
    return ok and inversions <= 1, inversions


# ----------------------------------------------------------------------
# frozen-equation / aggregation / single-trajectory runs
# ----------------------------------------------------------------------


def run_freeze(cfg: ExperimentConfig):
    """Averaged-drift estimates over a grid of slow states, plus the decay probe.

    Returns ((report, checks), rows, (t_grid, decay), stats).
    """
    if cfg.scenario != "fast-slow":
        raise ConfigError(f"freeze needs scenario fast-slow, got {cfg.scenario!r}")
    checked = _checked(cfg)
    op_b, w_z = cfg.op_b(), cfg.weights_z()
    fast = cfg.fast_coupled_drift()
    slow = cfg.slow_coupled_drift()
    est_cfg = cfg.estimator_config()
    x0 = cfg.initial_state()
    z_grid = [np.zeros(cfg.k_trunc), x0, 2.0 * x0]

    def estimate(z, stream_id, y0=None):
        return estimate_ergodic_drift(
            z, fast, slow, op_b, w_z, cfg.beta, est_cfg, RngStream(cfg.seed, stream_id), y0=y0
        )

    rows = []  # (z_id, component, bbar, se)
    for z_id, z in enumerate(z_grid):
        est, se = estimate(z, ESTIMATOR_STREAM + z_id)
        for k in range(est.size):
            rows.append((z_id, k, float(est[k]), float(se[k])))

    # initial-condition insensitivity at z = x0: re-estimate from a displaced y0
    y_alt = np.ones(cfg.k_trunc)
    est_a, se_a = estimate(x0, Y0_PAIR_STREAMS[0])
    est_b, se_b = estimate(x0, Y0_PAIR_STREAMS[1], y0=y_alt)
    comb = np.sqrt(se_a**2 + se_b**2)
    y0_gap_in_se = float(np.max(np.abs(est_a - est_b) / np.where(comb > 0, comb, np.inf)))

    mixing = op_b.lambda_1 - fast.grad_y_bound
    t_grid = np.linspace(0.0, 3.0 / mixing, 31)
    decay = ergodic_decay_probe(
        x0, y_alt * 2.0, fast, slow, op_b, w_z, cfg.beta, t_grid, 400,
        RngStream(cfg.seed, DECAY_PROBE_STREAM), bbar=est_a,
    )
    rate = fit_decay_rate(t_grid, decay)
    stats = {"y0_gap_in_combined_se": y0_gap_in_se, "decay_rate": rate}
    return checked, rows, (t_grid, decay), stats


def run_aggregate(cfg: ExperimentConfig):
    """Aggregation diagnostics: empirical class rates and occupations vs the limit.

    Pools transition counts and occupation times over ``n_paths`` independent
    chains (equivalent to one chain of horizon n_paths * T), which tightens the
    empirical-rate estimate without changing eps.  Returns
    ((report, checks), Qbar, rows, per_class).
    """
    if cfg.scenario != "switching-multiclass":
        raise ConfigError(f"aggregate needs scenario switching-multiclass, got {cfg.scenario!r}")
    checked = _checked(cfg)
    qt, qh = cfg.generator_pair()
    part = cfg.class_partition()
    blocks = cfg.qtilde_blocks()
    qbar = aggregate_generator(blocks, qh, part)
    eps = float(min(cfg.eps_grid))
    counts = np.zeros((part.n_classes, part.n_classes))
    class_time = np.zeros(part.n_classes)
    occ = np.zeros(qt.n_states)
    for j in range(cfg.n_paths):
        chain = simulate_chain(
            qt, qh, eps, cfg.r0 - 1, cfg.T, RngStream(cfg.seed, j).substream(CHAIN_TAG)
        )
        agg = aggregate_path(chain, part)
        np.add.at(counts, (agg.states[:-1], agg.states[1:]), 1.0)
        class_time += occupation_fractions(agg, part.n_classes) * cfg.T
        occ += occupation_fractions(chain, qt.n_states) / cfg.n_paths
    rows = []
    for i in range(part.n_classes):
        for j in range(part.n_classes):
            if i != j:
                emp = counts[i, j] / class_time[i] if class_time[i] > 0 else 0.0
                rows.append((i + 1, j + 1, float(emp), float(qbar.rates[i, j])))
    per_class = {}
    for i, blk in enumerate(part.classes):
        blk_occ = occ[list(blk)]
        total = blk_occ.sum()
        mu = stationary_distribution(blocks[i])
        per_class[str(i + 1)] = {
            "occupation": float(total),
            "within_class_empirical": (blk_occ / total).tolist() if total > 0 else None,
            "within_class_stationary": mu.tolist(),
        }
    return checked, qbar, rows, per_class


def run_simulate(cfg: ExperimentConfig):
    """One seeded trajectory of the configured scenario, for inspection.

    Returns ((report, checks), TrajectoryRecord).
    """
    checked = _checked(cfg)
    grid, stream = _time_grid(cfg), RngStream(cfg.seed, 0)
    solve_eps = _eps_system(cfg, grid)
    return checked, solve_eps(cfg.eps_grid[0], stream, _slow_noise(cfg, stream, grid))


def synthesize_point(coeffs: np.ndarray, x: float) -> float:
    """Evaluate the field at a spatial point in the sine eigenbasis on (0, pi)."""
    k = np.arange(1, coeffs.size + 1)
    basis = np.sqrt(2.0 / np.pi) * np.sin(k * x)
    return float(coeffs @ basis)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def write_csv(path: Path, header: str, rows) -> None:
    """One line per row; str of a Python float is its shortest round-trip repr."""
    lines = [header]
    for row in rows:
        lines.append(",".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary(path: Path, payload: dict) -> None:
    # numpy arrays and scalars that are not float subclasses go through .tolist()
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist())
    path.write_text(text + "\n", encoding="utf-8")
