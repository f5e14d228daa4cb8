"""Workloads of the stablespde benchmark: generated configs, work units, output checks.

Each workload is a shipped preset plus a size.  The benchmark writes one
config file per invocation (preset lines, size overrides, ``seed = <--seed>``)
and passes only that file to the CLI.  Sizes go through the config, not the
``--paths`` flag, because ``aggregate`` and ``freeze`` ignore ``--paths``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# run_freeze makes 5 estimator calls (3 frozen slow states, 2 initial-condition
# runs) and one decay probe of 400 paths on a 31-point grid.
_FREEZE_ESTIMATES = 5
_DECAY_PATHS, _DECAY_STEPS = 400, 30
_DECAY_POINTS = _DECAY_STEPS + 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    preset: str  # file under configs/
    unit: str  # what work_per_s counts
    size: dict  # config overrides of a measured run
    tiny: dict  # config overrides of a self-test run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("switching-sweep", "converge", "switching_single.cfg", "pairs",
                 {"n_paths": 50}, {"n_paths": 3}),
        Workload("class-aggregate", "aggregate", "aggregate.cfg", "chains",
                 {"n_paths": 1}, {"n_paths": 2, "T": 10.0}),
        Workload("frozen-ergodic", "freeze", "fast_slow.cfg", "steps",
                 {}, {"est_burn_in": 1.0, "est_horizon": 4.0, "est_reps": 2}),
    )
}


def _key(line: str) -> str:
    return line.split("#", 1)[0].partition("=")[0].strip()


def make_config(root: Path, w: Workload, seed: int, tiny: bool = False) -> tuple[str, dict]:
    """Config text for one invocation and the values it sets, keyed by name."""
    overrides = {**(w.tiny if tiny else w.size), "seed": seed}
    lines = [
        line
        for line in (root / "configs" / w.preset).read_text(encoding="utf-8").splitlines()
        if _key(line) not in overrides
    ]
    lines += [f"{k} = {v!r}" for k, v in overrides.items()]
    values = {}
    for line in lines:
        key = _key(line)
        if key:
            value = line.split("#", 1)[0].partition("=")[2].strip()
            values[key] = value.strip("\"'") if key in ("scenario", "drift") else ast.literal_eval(value)
    return "\n".join(lines) + "\n", values


def work_units(w: Workload, values: dict) -> int:
    """Work of one CLI call: coupled (path, eps) pairs, chains, or frozen-fast steps."""
    if w.command == "converge":
        return values["n_paths"] * len(values["eps_grid"])
    if w.command == "aggregate":
        return values["n_paths"]
    # freeze: estimator trajectories of ceil(horizon / est_dt) steps, plus the probe
    mixing = values["operator_b"][0] - abs(values["fast_gain_y"])
    horizon = values.get("est_horizon") or 30.0 / mixing
    steps = math.ceil(horizon / values.get("est_dt", 0.05))
    return _FREEZE_ESTIMATES * values.get("est_reps", 4) * steps + _DECAY_PATHS * _DECAY_STEPS


def _table(out: Path, name: str, header: str, n_rows: int, problems: list) -> list:
    path = out / name
    if not path.is_file():
        problems.append(f"{name} missing")
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{name}: header {lines[:1]} != {header!r}")
        return []
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        problems.append(f"{name}: {exc}")
        return []
    if len(rows) != n_rows:
        problems.append(f"{name}: {len(rows)} rows, expected {n_rows}")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append(f"{name}: non-finite value")
    return rows


def check_outputs(w: Workload, values: dict, out: Path) -> list[str]:
    """Problems found in one run's output directory; empty when the run is correct."""
    problems: list[str] = []
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    if w.command == "converge":
        eps = values["eps_grid"]
        rows = _table(out, "converge.csv", "eps,p,error,se,n_paths", len(eps), problems)
        if [r[0] for r in rows] != [float(e) for e in eps]:
            problems.append("converge.csv: eps column differs from the eps grid")
        if any(not r[2] > 0 for r in rows):
            problems.append("converge.csv: non-positive error")
        if any(r[4] != values["n_paths"] for r in rows):
            problems.append("converge.csv: n_paths column differs from the requested size")
    elif w.command == "aggregate":
        n = len(values["partition"])
        rows = _table(out, "aggregate.csv", "from_class,to_class,empirical_rate,qbar_rate",
                      n * (n - 1), problems)
        if any(r[2] < 0 or r[3] < 0 for r in rows):
            problems.append("aggregate.csv: negative class rate")
        occ = [c["occupation"] for c in summary.get("per_class", {}).values()]
        if len(occ) != n or not all(math.isfinite(o) for o in occ):
            problems.append("summary.json: class occupations missing or non-finite")
    else:
        _table(out, "freeze.csv", "z_id,component,bbar,se", 3 * values["k_trunc"], problems)
        _table(out, "freeze_decay.csv", "t,deviation", _DECAY_POINTS, problems)
        for key in ("decay_rate", "y0_gap_in_combined_se"):
            if not math.isfinite(summary.get(key, math.nan)):
                problems.append(f"summary.json: {key} missing or non-finite")
    return problems


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file a run wrote."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
