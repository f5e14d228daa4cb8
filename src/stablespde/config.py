"""Experiment configuration: flat key = value files with typed keys.

Format: one ``key = value`` per line, ``#`` comments, every value one Python literal
(quoted strings, reals, integers, lists, inline matrices as nested bracketed lists), so
``scenario = "fast-slow"`` is quoted and an unquoted string is an error naming its key.
Unknown keys are hard errors, and so is a value off its default under a key that is
neither harness-wide nor read by the constructors the scenario's commands call.
The key schema is the field list of ``ExperimentConfig``, documented in the README."""

from __future__ import annotations

import ast
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .averaging import ErgodicEstimatorConfig
from .drifts import LinearRegimeDrift, SaturatingCoupledDrift, SaturatingRegimeDrift
from .spectral import SpectralOperator
from .stable_noise import NoiseWeights, PowerLawRule, check_alpha
from .switching import ClassPartition, GeneratorMatrix


class ConfigError(ValueError):
    """Malformed configuration input (exit code 2 at the CLI)."""


SCENARIOS = ("switching-single", "switching-multiclass", "fast-slow")
DRIFT_KINDS = ("linear-reaction", "bounded-saturating")
# The most values, steps or chain jumps a run may ask for (aggregate.cfg: 2e6 jumps).
MAX_RUN_SIZE = 10**7


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
    est_dt: float = ErgodicEstimatorConfig.dt
    est_burn_in: float | None = None
    est_horizon: float | None = None
    est_reps: int = ErgodicEstimatorConfig.n_reps

    def validate(self) -> None:
        """Reject malformed input with a ConfigError naming the key (assumptions are
        ``run_check``'s), then build every object the scenario's commands use: a field those
        builds never read must be harness-wide or at its default, not echoed as if used."""
        for f in fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; pick one of {SCENARIOS}")
        with _naming("alpha"):
            check_alpha(self.alpha)
        if not 1.0 < self.p < self.alpha:
            raise ConfigError(f"p must lie in (1, alpha), got p={self.p}, alpha={self.alpha}")
        with _naming("eps_grid"):
            eps = _reals(self.eps_grid)
        if eps.ndim != 1 or eps.size == 0 or not np.all(eps > 0) or np.any(np.diff(eps) >= 0):
            raise ConfigError("eps_grid must be strictly decreasing and positive")
        for key in _POSITIVE:
            if getattr(self, key) is not None and getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key, low in _AT_LEAST.items():
            if getattr(self, key) is not None and getattr(self, key) < low:
                raise ConfigError(f"{key} must be at least {low}, got {getattr(self, key)}")
        n_steps = self.T / self.dt if _is_real(self.T) and _is_real(self.dt) else math.inf
        if not np.isfinite(n_steps) or abs(round(n_steps) * self.dt - self.T) > 1e-9 * self.T:
            raise ConfigError(f"T = {self.T} is not a whole number of dt = {self.dt} steps")
        for f in fields(self):
            value = getattr(self, f.name)
            if "float" in f.type and value is not None and not _is_real(value):
                raise ConfigError(f"{f.name} must be a finite real, got {value!r}")
        if self.drift not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift {self.drift!r}; pick one of {DRIFT_KINDS}")
        if self.scenario != "fast-slow" and self.qtilde is None:
            raise ConfigError(f"scenario {self.scenario} requires qtilde")
        if self.scenario == "switching-multiclass" and self.partition is None:
            raise ConfigError("switching-multiclass requires partition")
        _bound("T / dt grid points x k_trunc modes", (n_steps + 1) * self.k_trunc)
        _bound("n_paths x eps_grid entries", self.n_paths * eps.size)

        reading = _Reading(**vars(self))
        reading.read = set(_HARNESS_WIDE)
        reading._build(n_steps, float(eps.min()))
        for key, value in vars(self).items():
            if key not in reading.read and value != getattr(_DEFAULTS, key):
                raise ConfigError(f"{key} is not read by scenario {self.scenario} as configured; "
                                  f"leave it out or at its default {getattr(_DEFAULTS, key)!r}")

    def _build(self, n_steps: float, eps_min: float) -> None:
        """Build every object the scenario's commands use, checking what they need."""
        k = self.k_trunc
        self.op_a(), self.weights_l(), self.initial_state()
        if self.scenario == "fast-slow":
            with _naming("beta"):
                check_alpha(self.beta)
            with _naming("c_sub"):  # the count the solve takes
                n_sub = fast_substeps(self.dt, eps_min, self.c_sub)
            _bound("fast substeps T / (c_sub x min eps_grid) x k_trunc modes", n_steps * n_sub * k)
            self.weights_z(), self.initial_fast_state(), self.slow_coupled_drift()
            mixing = self.fast_coupled_drift().mixing_rate(self.op_b())
            estimator = self.estimator_config()
            if mixing > 0:  # else the ergodicity condition fails and nothing is estimated
                with _naming("est_dt, est_burn_in, est_horizon"):
                    _, n_est = estimator.resolve(mixing)
                _bound("est_horizon / est_dt steps x k_trunc", float(n_est) * k)
            return
        qt, qh = self.generator_pair()
        diagonals = zip(qt.rates.diagonal().tolist(), qh.rates.diagonal().tolist())
        exit_rate = max(-a / eps_min - b for a, b in diagonals)  # of Qtilde / eps + Qhat
        _bound("expected chain jumps T x the largest exit rate at min eps_grid", self.T * exit_rate)
        n = qt.n_states
        # simulate_chain's threshold table has n rows and at most one column per jump target + 3
        targets = np.count_nonzero(((qt.rates != 0) | (qh.rates != 0)) & ~np.eye(n, dtype=bool))
        _bound("chain jump table n x (nonzero off-diagonal rates of qtilde, qhat + 3)",
               n * (targets + 3))
        if not 1 <= self.r0 <= n:
            raise ConfigError(f"r0 = {self.r0} is not a state of the {n}-state chain")
        drift, linear = self.regime_drift(), self.drift == "linear-reaction"
        if (drift.coeffs if linear else drift.gains).shape != (n,):
            key = "drift_coeffs" if linear else "drift_gains"
            raise ConfigError(f"{key} must have one entry per chain state ({n})")
        if not linear and drift.offsets.shape not in ((n,), (n, self.k_trunc)):
            raise ConfigError(f"drift_offsets must have shape ({n},) or ({n}, k_trunc)")
        if self.scenario == "switching-multiclass":
            if self.class_partition().n_states != n:
                raise ConfigError(f"partition must cover the {n} states of qtilde exactly")
            self.qtilde_blocks()

    # -- constructors for the domain objects ---------------------------
    def op_a(self) -> SpectralOperator:
        return self._power_law("operator_a", SpectralOperator)

    def op_b(self) -> SpectralOperator:
        return self._power_law("operator_b", SpectralOperator)

    def weights_l(self) -> NoiseWeights:
        return self._power_law("noise_l", NoiseWeights)

    def weights_z(self) -> NoiseWeights:
        return self._power_law("noise_z", NoiseWeights)

    def _power_law(self, key: str, sequence):
        """An operator or noise weights from the ``[c, exponent]`` rule under ``key``."""
        with _naming(key):
            rule = PowerLawRule(*_reals(getattr(self, key), (2,)).tolist())
            return sequence.from_rule(rule, self.k_trunc)

    def initial_state(self) -> np.ndarray:
        if self.x0 is not None:
            return self._modes("x0")
        k = np.arange(1, self.k_trunc + 1, dtype=float)
        with np.errstate(over="ignore"):
            x0 = k**-self.x0_decay
        if not np.all(np.isfinite(x0)):
            raise ConfigError(f"x0_decay = {self.x0_decay} makes k^-x0_decay overflow for "
                              f"k <= k_trunc = {self.k_trunc}")
        return x0

    def initial_fast_state(self) -> np.ndarray:
        return self._modes("y0") if self.y0 is not None else np.zeros(self.k_trunc)

    def _modes(self, key: str) -> np.ndarray:
        """The explicit coefficients under ``key``, one per retained mode."""
        with _naming(key):
            x = _reals(getattr(self, key))
        if x.shape != (self.k_trunc,):
            raise ConfigError(f"{key} length must equal k_trunc")
        return x

    def generator_pair(self) -> tuple[GeneratorMatrix, GeneratorMatrix]:
        with _naming("qtilde"):
            qt = GeneratorMatrix(_reals(self.qtilde))
        if self.qhat is None:
            return qt, GeneratorMatrix.zero(qt.n_states)
        with _naming("qhat"):
            return qt, GeneratorMatrix(_reals(self.qhat, qt.rates.shape))

    def class_partition(self) -> ClassPartition:
        with _naming("partition"):
            states = [s for blk in self.partition for s in blk]
            if not all(isinstance(s, int) and not isinstance(s, bool) for s in states):
                raise ValueError(f"states must be integers, got {self.partition!r}")
            return ClassPartition(tuple(tuple(s - 1 for s in blk) for blk in self.partition))

    def qtilde_blocks(self) -> list[GeneratorMatrix]:
        qt, _ = self.generator_pair()
        with _naming("partition"):  # qtilde must be block diagonal over the classes
            return [GeneratorMatrix(qt.rates[np.ix_(b, b)]) for b in self.class_partition().classes]

    def regime_drift(self):
        if self.drift == "linear-reaction":
            if self.drift_coeffs is None:
                raise ConfigError("linear-reaction drift requires drift_coeffs")
            with _naming("drift_coeffs"):
                return LinearRegimeDrift(_reals(self.drift_coeffs))
        if self.drift_gains is None:
            raise ConfigError("bounded-saturating drift requires drift_gains")
        with _naming("drift_gains"):
            gains = _reals(self.drift_gains)
        with _naming("drift_offsets"):
            offsets = np.zeros(gains.size) if self.drift_offsets is None else self.drift_offsets
            return SaturatingRegimeDrift(gains, _reals(offsets))

    def slow_coupled_drift(self) -> SaturatingCoupledDrift:
        return SaturatingCoupledDrift(self.slow_gain_x, self.slow_gain_y, self.slow_offset)

    def fast_coupled_drift(self) -> SaturatingCoupledDrift:
        # fast drift depends on the fast variable only, so the frozen equation's
        # invariant measure does not vary with the slow state
        return SaturatingCoupledDrift(0.0, self.fast_gain_y, 0.0)

    def estimator_config(self) -> ErgodicEstimatorConfig:
        return ErgodicEstimatorConfig(self.est_dt, self.est_burn_in, self.est_horizon, self.est_reps)


def fast_substeps(dt: float, eps: float, c_sub: float) -> int:
    """Fast substeps per step of dt: ceil(dt / (c_sub eps)), at least 1; a quotient
    within 1e-9 relative of a whole number counts as that number, not as its ceiling."""
    ratio = dt / c_sub / eps
    if not np.isfinite(ratio):
        raise ValueError(f"fast substep count dt / (c_sub eps) = {ratio} is not finite")
    whole = round(ratio)
    return max(1, whole if abs(whole - ratio) <= 1e-9 * ratio else int(np.ceil(ratio)))


def _bound(what: str, size: float) -> None:
    """Reject a run whose ``what`` (naming its keys) would exceed MAX_RUN_SIZE."""
    if not size <= MAX_RUN_SIZE:
        raise ConfigError(f"{what} = {size:.3g} exceeds the run size limit {MAX_RUN_SIZE:.0e}")


@contextmanager
def _naming(key: str):
    """Report a constructor's TypeError/ValueError as a ConfigError naming ``key``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _is_real(value) -> bool:
    """A finite int or float; bool is never a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max  # False for inf, nan and ints beyond a float


def _reals(value, shape=None) -> np.ndarray:
    """A (nested) list of finite reals as a float array, of ``shape`` if given."""
    if not all(map(_is_real, np.asarray(value, dtype=object).ravel())):
        raise ValueError(f"entries must be finite reals, got {value!r}")
    if shape is not None and np.shape(value) != shape:
        raise ValueError(f"expected {len(shape)}-d shape {shape}, got {value!r}")
    return np.asarray(value, dtype=float)


_FIELDS = {f.name for f in fields(ExperimentConfig)}
_DEFAULTS = ExperimentConfig()
# keys every scenario reads; validate records which of the others its builds read
_HARNESS_WIDE = {"scenario", "alpha", "theta", "p", "k_trunc", "T", "dt", "n_paths", "seed",
                 "eps_grid"}
_POSITIVE = ("T", "dt", "c_sub", "est_dt", "est_horizon")
_AT_LEAST = {"k_trunc": 1, "n_paths": 1, "seed": 0, "est_reps": 1, "est_burn_in": 0}
# field annotation -> accepted Python types; bool is never a number here
_KINDS = {"str": (str,), "int": (int,), "float": (int, float), "list": (list, tuple)}


def _check_type(key: str, annotation: str, value) -> None:
    kinds = annotation.split(" | ")
    if value is None and "None" in kinds:
        return
    accepted = tuple(t for kind in kinds if kind != "None" for t in _KINDS[kind])
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {' or '.join(kinds)}, got {value!r}")


class _Reading(ExperimentConfig):
    """A config that records in ``read`` the name of each field looked up on it."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


def parse_config(text: str, seed=None, n_paths=None) -> ExperimentConfig:
    """Parse the flat key = value format; unknown keys and bad literals are errors.  ``seed``
    and ``n_paths``, when given, replace the file's values before the one validation."""
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = ast.literal_eval(value)
        except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError) as exc:
            reason = str(exc) or "the parser ran out of memory"  # a MemoryError has no message
            if isinstance(exc, ValueError):  # its text shows an AST node's memory address
                reason = f"{value} is not a Python literal (a string needs quotes)"
            raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {reason}") from exc
        setattr(cfg, key, parsed)
    if seed is not None:
        cfg.seed = seed
    if n_paths is not None:
        cfg.n_paths = n_paths
    cfg.validate()
    return cfg


def load_config(path, seed=None, n_paths=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), seed, n_paths)
