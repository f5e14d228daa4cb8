"""Span tracing for the stablespde benchmark, installed from outside the package.

``install`` replaces the module bindings and methods the package actually
calls (``stablespde.harness.solve_switching_spde``,
``stablespde.engine.sample_standard_stable``, ``ChainPath.state_at``, the drift
classes' ``__call__``, ...) with wrappers that record one span per call: name,
parent span, start, end, path id and a work count.  The path id is the
``RngStream.stream_id`` of the solve, estimator or chain that opened it, and
child spans inherit it.  Spans stay in lists until ``save`` writes them once.

``layer_metrics`` turns saved spans into the per-layer metrics; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import time

import numpy as np

_PLAN_SOLVES = ("engine.solve_averaged", "engine.solve_frozen", "engine.solve_fast_slow")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.path: list[int] = []
        self.count: list[int] = []
        self.stream_keys: set = set()
        self._stack = [-1]

    def wrap(self, name, fn, count=None, path=False):
        """``fn`` with a span around each call; ``count(result)`` gives its work."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        from stablespde.rng import RngStream

        def traced(*args, **kwargs):
            i = len(self.start)
            parent = self._stack[-1]
            pid = self.path[parent] if parent >= 0 else -1
            if path:
                pid = next((a.stream_id for a in args if isinstance(a, RngStream)), pid)
            self.name.append(nid)
            self.parent.append(parent)
            self.path.append(pid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(0)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            self.start[i], self.end[i] = t0, t1
            if count is not None:
                self.count[i] = count(out)
            return out

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            path=np.array(self.path, dtype=np.int64),
            count=np.array(self.count, dtype=np.int64),
            stream_keys=np.array(len(self.stream_keys)),
        )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of an imported stablespde package."""
    from stablespde import averaging, cli, drifts, engine, harness, rng, switching

    def patch(owner, attr, name, **kw):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    patch(cli, "load_config", "config.load")
    patch(harness, "run_check", "harness.check")
    for attr in ("run_converge", "run_freeze", "run_aggregate"):
        patch(harness, attr, "harness.run")
    for attr in ("p_moment", "rate_fit", "fit_decay_rate"):
        patch(harness, attr, "harness.stats")
    for attr in ("write_csv", "write_summary"):
        patch(harness, attr, "harness.write")

    patch(harness, "solve_switching_spde", "engine.solve_switching", count=_intervals, path=True)
    patch(harness, "solve_averaged_spde", "engine.solve_averaged", count=_intervals, path=True)
    patch(harness, "solve_fast_slow", "engine.solve_fast_slow", count=_intervals, path=True)
    patch(averaging, "solve_frozen_fast", "engine.solve_frozen", count=_intervals, path=True)
    patch(engine, "make_step_plan", "engine.plan")
    patch(engine, "sample_standard_stable", "stable_noise.sample", count=np.size)
    patch(engine, "convolution_scale", "stable_noise.conv_scale")

    patch(harness, "simulate_chain", "switching.simulate", count=_intervals, path=True)
    patch(switching.ChainPath, "state_at", "switching.lookup")
    patch(switching.ChainPath, "breakpoints_in", "switching.lookup")
    patch(harness, "aggregate_path", "switching.aggregate")
    patch(harness, "occupation_fractions", "switching.aggregate")

    for cls in (drifts.LinearRegimeDrift, drifts.SaturatingRegimeDrift,
                drifts.SaturatingCoupledDrift, drifts.ZeroCoupledDrift):
        patch(cls, "__call__", "drifts.call")

    patch(harness, "estimate_ergodic_drift", "averaging.estimate", path=True)
    patch(harness, "ergodic_decay_probe", "averaging.decay_probe", path=True)
    patch(averaging, "nu_average_drift", "averaging.avg_drift")
    patch(averaging, "class_average_drift", "averaging.avg_drift")
    fast_slow_averaged = harness.averaged_fast_slow_drift

    def averaged_fast_slow_drift(cfg, stream):
        averaged, m, se = fast_slow_averaged(cfg, stream)
        return tracer.wrap("averaging.avg_drift", averaged), m, se

    harness.averaged_fast_slow_drift = averaged_fast_slow_drift

    generator = rng.RngStream.generator

    def keyed_generator(stream):
        tracer.stream_keys.add((stream.seed, stream.stream_id, stream.lineage))
        return generator(stream)

    rng.RngStream.generator = tracer.wrap("rng.generator", keyed_generator)


def _intervals(record) -> int:
    """Grid steps of a TrajectoryRecord, or jumps of a ChainPath."""
    return record.times.size - 1


def load(path) -> dict:
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


def self_times(spans: dict) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has], dur[has])
    return dur - child


def check_spans(spans: dict, t0: float, t1: float) -> list[str]:
    """Nesting and self-time problems of one traced run timed over [t0, t1]."""
    problems = []
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    if np.any(end < start) or np.any(start < t0) or np.any(end > t1):
        problems.append("span outside the traced call or ending before it starts")
    has = parent >= 0
    p = parent[has]
    if np.any(p >= np.flatnonzero(has)):
        problems.append("parent recorded after its child")
    if np.any(start[has] < start[p]) or np.any(end[has] > end[p]):
        problems.append("child span not nested inside its parent")
    own = self_times(spans)
    if np.any(own < -1e-9):
        problems.append(f"negative self time {own.min():.3g} s")
    if own.sum() > t1 - t0:
        problems.append(f"self times sum {own.sum():.6f} s > traced wall {t1 - t0:.6f} s")
    return problems


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced run."""
    names = list(spans["names"])
    name, count = spans["name"], spans["count"]
    dur = spans["end"] - spans["start"]
    own = self_times(spans)

    def mask(*wanted):
        ids = [names.index(n) for n in wanted if n in names]
        return np.isin(name, ids)

    def calls(*n):
        return int(mask(*n).sum())

    def work(*n):
        return int(count[mask(*n)].sum())

    def self_s(*n):
        return float(own[mask(*n)].sum())

    def incl_s(*n):
        return float(dur[mask(*n)].sum())

    def rate(num, den):
        return num / den if den > 0 else 0.0

    solves = ("engine.solve_switching", *_PLAN_SOLVES)
    variates, jumps, steps = work("stable_noise.sample"), work("switching.simulate"), work(*solves)
    plan_steps = work(*_PLAN_SOLVES)
    generator_calls = calls("rng.generator")
    return {
        "stable_noise.sample_calls": calls("stable_noise.sample"),
        "stable_noise.variates": variates,
        "stable_noise.sample_self_s": self_s("stable_noise.sample"),
        "stable_noise.variates_per_s": rate(variates, self_s("stable_noise.sample")),
        "stable_noise.conv_scale_calls": calls("stable_noise.conv_scale"),
        "stable_noise.conv_scale_self_s": self_s("stable_noise.conv_scale"),
        "switching.chains": calls("switching.simulate"),
        "switching.jumps": jumps,
        "switching.simulate_self_s": self_s("switching.simulate"),
        "switching.jumps_per_s": rate(jumps, self_s("switching.simulate")),
        "switching.lookup_calls": calls("switching.lookup"),
        "switching.lookup_self_s": self_s("switching.lookup"),
        "switching.aggregate_s": incl_s("switching.aggregate"),
        "engine.solves": calls(*solves),
        "engine.steps": steps,
        "engine.self_s": self_s(*solves, "engine.plan"),
        "engine.steps_per_s": rate(steps, incl_s(*solves)),
        "engine.plan_builds": calls("engine.plan"),
        "engine.plan_reuse_ratio": 1.0 - calls("engine.plan") / plan_steps if plan_steps else 0.0,
        "drifts.calls": calls("drifts.call"),
        "drifts.self_s": self_s("drifts.call"),
        "averaging.estimator_calls": calls("averaging.estimate"),
        "averaging.estimator_self_s": self_s("averaging.estimate"),
        "averaging.decay_probe_s": incl_s("averaging.decay_probe"),
        "averaging.avg_drift_calls": calls("averaging.avg_drift"),
        "averaging.avg_drift_self_s": self_s("averaging.avg_drift"),
        "rng.generator_calls": generator_calls,
        "rng.stream_reuse_ratio": rate(int(spans["stream_keys"]), generator_calls),
        "harness.check_calls": calls("harness.check"),
        "harness.check_s": incl_s("harness.check"),
        "config.load_s": incl_s("config.load"),
        "harness.stats_s": incl_s("harness.stats"),
        "harness.write_s": incl_s("harness.write"),
        "harness.self_s": self_s("harness.run"),
    }


def layer_self_shares(spans: dict) -> dict[str, float]:
    """Share of all recorded self time spent in each layer (the name's prefix)."""
    names = np.array([n.split(".")[0] for n in spans["names"]])
    own = self_times(spans)
    total = own.sum()
    layers = names[spans["name"]]
    return {layer: float(own[layers == layer].sum() / total) for layer in sorted(set(names))}
