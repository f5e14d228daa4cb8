"""Experiment configuration: flat key = value files with typed keys.

Format: one ``key = value`` per line, ``#`` comments, values in Python literal
syntax (reals, integers, lists, inline matrices as nested bracketed lists).
Unknown keys are hard errors.  The full key schema is the ``_SCHEMA`` table
below and is documented in the README.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, fields

import numpy as np

from .drifts import (
    LinearRegimeDrift,
    SaturatingCoupledDrift,
    SaturatingRegimeDrift,
)
from .spectral import SpectralOperator
from .stable_noise import NoiseWeights, PowerLawRule
from .switching import ClassPartition, GeneratorMatrix


class ConfigError(ValueError):
    """Malformed configuration input (exit code 2 at the CLI)."""


SCENARIOS = ("switching-single", "switching-multiclass", "fast-slow")
DRIFT_KINDS = ("linear-reaction", "bounded-saturating")


@dataclass
class ExperimentConfig:
    scenario: str = "switching-single"
    alpha: float = 1.5
    beta: float = 1.5  # fast-component stability index (fast-slow only)
    theta: float = 0.5
    p: float = 1.2
    k_trunc: int = 20
    T: float = 1.0
    dt: float = 0.02
    n_paths: int = 2000
    seed: int = 20260823
    eps_grid: list = field(default_factory=lambda: [0.1, 0.05, 0.02, 0.01, 0.005])
    # operator / noise power-law rules: [c, exponent]
    operator_a: list = field(default_factory=lambda: [1.0, 2.0])
    noise_l: list = field(default_factory=lambda: [1.0, -2.0])
    operator_b: list = field(default_factory=lambda: [1.0, 2.0])
    noise_z: list = field(default_factory=lambda: [1.0, -2.0])
    # initial condition: explicit coefficients, or k^-x0_decay when absent
    x0: list | None = None
    x0_decay: float = 2.0
    y0: list | None = None
    # switching scenarios
    qtilde: list | None = None
    qhat: list | None = None
    partition: list | None = None  # 1-based state blocks
    r0: int = 1  # 1-based initial state
    drift: str = "linear-reaction"
    drift_coeffs: list | None = None
    drift_gains: list | None = None
    drift_offsets: list | None = None
    # fast-slow scenario
    slow_gain_x: float = 0.4
    slow_gain_y: float = 0.4
    slow_offset: float = 0.0
    fast_gain_y: float = 0.5  # directional-derivative bound K3 of the fast drift
    c_sub: float = 0.5
    est_dt: float = 0.05
    est_burn_in: float | None = None
    est_horizon: float | None = None
    est_reps: int = 4
    # harness knobs
    n_batches: int = 10
    checkpoints: int = 10

    # ------------------------------------------------------------------
    def validate(self) -> None:
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")
        if not 1.0 < self.alpha <= 2.0:
            raise ConfigError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not 1.0 < self.beta <= 2.0:
            raise ConfigError(f"beta must lie in (1, 2], got {self.beta}")
        if not 1.0 < self.p < self.alpha:
            raise ConfigError(f"p must lie in (1, alpha), got p={self.p}, alpha={self.alpha}")
        try:
            eps = np.asarray(self.eps_grid, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"eps_grid must be a list of reals: {exc}") from exc
        if eps.ndim != 1 or eps.size == 0 or not np.all(eps > 0) or np.any(np.diff(eps) >= 0):
            raise ConfigError("eps_grid must be strictly decreasing and positive")
        if self.k_trunc < 1 or self.T <= 0 or self.dt <= 0 or self.n_paths < 1:
            raise ConfigError("k_trunc, T, dt, n_paths must be positive")
        n_steps = self.T / self.dt
        if not np.isfinite(n_steps) or abs(round(n_steps) * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError(f"T = {self.T} is not a whole number of dt = {self.dt} steps")
        if self.drift not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift {self.drift!r}; pick one of {DRIFT_KINDS}")
        if self.scenario in ("switching-single", "switching-multiclass"):
            if self.qtilde is None:
                raise ConfigError(f"scenario {self.scenario} requires qtilde")
            if not 1 <= self.r0 <= len(self.qtilde):
                raise ConfigError(
                    f"r0 = {self.r0} is not a state of the {len(self.qtilde)}-state chain"
                )
        if self.scenario == "switching-multiclass" and self.partition is None:
            raise ConfigError("switching-multiclass requires partition")

    # -- constructors for the domain objects ---------------------------
    def op_a(self) -> SpectralOperator:
        return SpectralOperator.from_rule(PowerLawRule(*self.operator_a), self.k_trunc)

    def op_b(self) -> SpectralOperator:
        return SpectralOperator.from_rule(PowerLawRule(*self.operator_b), self.k_trunc)

    def weights_l(self) -> NoiseWeights:
        return NoiseWeights.from_rule(PowerLawRule(*self.noise_l), self.k_trunc)

    def weights_z(self) -> NoiseWeights:
        return NoiseWeights.from_rule(PowerLawRule(*self.noise_z), self.k_trunc)

    def initial_state(self) -> np.ndarray:
        if self.x0 is not None:
            x = np.asarray(self.x0, dtype=float)
            if x.size != self.k_trunc:
                raise ConfigError("x0 length must equal k_trunc")
            return x
        k = np.arange(1, self.k_trunc + 1, dtype=float)
        return k**-self.x0_decay

    def initial_fast_state(self) -> np.ndarray:
        if self.y0 is not None:
            y = np.asarray(self.y0, dtype=float)
            if y.size != self.k_trunc:
                raise ConfigError("y0 length must equal k_trunc")
            return y
        return np.zeros(self.k_trunc)

    def generator_pair(self) -> tuple[GeneratorMatrix, GeneratorMatrix]:
        try:
            qt = GeneratorMatrix(np.asarray(self.qtilde, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"qtilde: {exc}") from exc
        if self.qhat is None:
            return qt, GeneratorMatrix.zero(qt.n_states)
        try:
            qh = GeneratorMatrix(np.asarray(self.qhat, dtype=float))
        except ValueError as exc:
            raise ConfigError(f"qhat: {exc}") from exc
        if qh.n_states != qt.n_states:
            raise ConfigError("qtilde and qhat dimensions differ")
        return qt, qh

    def class_partition(self) -> ClassPartition:
        try:
            return ClassPartition(tuple(tuple(s - 1 for s in blk) for blk in self.partition))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"partition: {exc}") from exc

    def qtilde_blocks(self) -> list[GeneratorMatrix]:
        qt, _ = self.generator_pair()
        part = self.class_partition()
        blocks = []
        for blk in part.classes:
            idx = np.asarray(blk)
            blocks.append(GeneratorMatrix(qt.rates[np.ix_(idx, idx)]))
        return blocks

    def regime_drift(self):
        if self.drift == "linear-reaction":
            if self.drift_coeffs is None:
                raise ConfigError("linear-reaction drift requires drift_coeffs")
            return LinearRegimeDrift(np.asarray(self.drift_coeffs, dtype=float))
        if self.drift_gains is None:
            raise ConfigError("bounded-saturating drift requires drift_gains")
        gains = np.asarray(self.drift_gains, dtype=float)
        offsets = (
            np.asarray(self.drift_offsets, dtype=float)
            if self.drift_offsets is not None
            else np.zeros(gains.size)
        )
        return SaturatingRegimeDrift(gains, offsets)

    def slow_coupled_drift(self) -> SaturatingCoupledDrift:
        return SaturatingCoupledDrift(self.slow_gain_x, self.slow_gain_y, self.slow_offset)

    def fast_coupled_drift(self) -> SaturatingCoupledDrift:
        # fast drift depends on the fast variable only, so the frozen equation's
        # invariant measure does not vary with the slow state
        return SaturatingCoupledDrift(0.0, self.fast_gain_y, 0.0)


_FIELDS = {f.name for f in fields(ExperimentConfig)}
# field annotation -> accepted Python types; bool is never a number here
_KINDS = {"str": (str,), "int": (int,), "float": (int, float), "list": (list, tuple)}


def _check_type(key: str, annotation: str, value) -> None:
    kinds = annotation.split(" | ")
    if value is None and "None" in kinds:
        return
    accepted = tuple(t for kind in kinds if kind != "None" for t in _KINDS[kind])
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {' or '.join(kinds)}, got {value!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; unknown keys and bad literals are errors."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in ("scenario", "drift"):
            parsed = value.strip("\"'")
        else:
            try:
                parsed = ast.literal_eval(value)
            except (ValueError, SyntaxError) as exc:
                raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {exc}") from exc
        setattr(cfg, key, parsed)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_echo(cfg: ExperimentConfig) -> dict:
    """JSON-serializable echo of the configuration."""
    out = {}
    for f in fields(ExperimentConfig):
        out[f.name] = getattr(cfg, f.name)
    return out
