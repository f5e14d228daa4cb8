"""Benchmark of the stablespde command line (metrics and workloads: NOTES.md).

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: every CLI call runs in a fresh single process, one at
a time, with numeric libraries held to one thread.  The benchmark writes a
config from the workload's preset, size and ``--seed``, checks the outputs of
every call, and prints a table of metrics, an environment stamp and, as the
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0``: for ``--seconds``, a fresh ``check``-equivalent process
(``setup_s``) alternates with an untraced CLI call (``wall_s``, ``work_per_s``,
``peak_rss_mb``); each metric is the median over its processes.  Sharing the
window lets both medians see the same drift in machine speed.
``--trace 1``: untraced and traced calls alternate for ``--seconds``; the
per-layer metrics come from the traced calls' spans (tracer.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKLOADS, check_outputs, digest, make_config, work_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def spawn(*args) -> tuple[dict | None, str]:
    """Run child.py to completion: (its JSON result plus process_s, "") or (None, error)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    process_s = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result line"
    return {**result, "process_s": process_s}, ""


class Session:
    """Runs of one invocation: one workload, one seed, one config file."""

    def __init__(self, workload, config: Path, values: dict, work: Path):
        self.w, self.config, self.values, self.work = workload, config, values, work
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None
        self.counts = None

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failures.append(f"{what} {self.attempted}: {'; '.join(problems)}")
        print(f"FAILED {self.failures[-1]}", file=sys.stderr)

    def setup(self) -> float | None:
        self.attempted += 1
        result, err = spawn("setup", ROOT, self.config)
        if result is None:
            self._fail("setup", [err])
            return None
        return result["process_s"]

    def run(self, traced: bool = False) -> tuple[dict, dict | None] | None:
        """One CLI call: (result, spans or None), or None when the process failed.

        A call whose outputs fail a check still returns its timings; the
        failure is counted in ``failures`` and makes the invocation incorrect.
        """
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        spans_file = self.work / f"spans-{self.attempted}.npz"
        args = [ROOT, self.w.command, self.config, out] + ([spans_file] if traced else [])
        result, err = spawn("trace" if traced else "run", *args)
        spans = None
        if result is None:
            problems = [err]
        else:
            problems = check_outputs(self.w, self.values, out)
            d = digest(out)
            self.digest = self.digest or d
            if d != self.digest:
                problems.append("output bytes differ from an earlier run with the same seed")
            if traced:
                spans = tracer.load(spans_file)
                problems += tracer.check_spans(spans, result["start"], result["end"])
                counts = {k: v for k, v in tracer.layer_metrics(spans).items()
                          if isinstance(v, int)}
                self.counts = self.counts or counts
                if counts != self.counts:
                    problems.append("per-layer counts differ from an earlier traced run")
        shutil.rmtree(out, ignore_errors=True)
        spans_file.unlink(missing_ok=True)
        if problems:
            self._fail("traced run" if traced else "run", problems)
        return None if result is None else (result, spans)


def _median(values):
    return statistics.median(values) if values else None


def measure(s: Session, seconds: float, units: int) -> tuple[dict, list[str], dict]:
    setups, runs = [], []
    t_end = time.perf_counter() + seconds
    while True:
        t = s.setup()
        if t is not None:
            setups.append(t)
        r = s.run()
        if r is not None:
            runs.append(r[0])
        if time.perf_counter() >= t_end:
            break
    walls = [r["wall_s"] for r in runs]
    values = {
        "setup_s": _median(setups),
        "wall_s": _median(walls),
        "work_per_s": _median([units / t for t in walls]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    samples = {"setup_s": setups, "wall_s": walls, "cpu_s": [r["cpu_s"] for r in runs]}
    notes = [
        f"setup_s: median of {len(setups)} setup processes",
        f"wall_s, work_per_s, peak_rss_mb: median of {len(runs)} CLI calls",
        f"work_per_s counts {s.w.unit}: {units} per call",
    ]
    return metrics, notes, samples


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure_traced(s: Session, seconds: float) -> tuple[dict, list[str], dict]:
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while True:
        for is_traced, into in ((False, plain), (True, traced)):
            r = s.run(traced=is_traced)
            if r is not None:
                into.append(r)
        if time.perf_counter() >= t_end:
            break
    if not plain or not traced:
        return {}, [], {}
    per_run = [tracer.layer_metrics(spans) for _, spans in traced]
    # counts are equal across traced calls (Session.run checks), times vary
    metrics = {k: (v if isinstance(v, int) else _median([m[k] for m in per_run]), unit_of(k))
               for k, v in per_run[0].items()}
    metrics["process.cpu_s"] = (_median([r["cpu_s"] for r, _ in plain]), "s")
    metrics["trace.overhead_ratio"] = (
        _median([r["wall_s"] for r, _ in traced]) / _median([r["wall_s"] for r, _ in plain]),
        "ratio",
    )
    shares = tracer.layer_self_shares(traced[0][1])
    notes = [
        f"per-layer metrics: median of {len(traced)} traced calls; "
        f"process.cpu_s and the overhead base: {len(plain)} untraced calls",
        "self-time share by layer: "
        + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
    ]
    samples = {"wall_s": [r["wall_s"] for r, _ in plain],
               "traced_wall_s": [r["wall_s"] for r, _ in traced]}
    return metrics, notes, samples


def _git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _env(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    missing = [p for p in (ROOT / "src" / "stablespde" / "cli.py", ROOT / "configs" / w.preset)
               if not p.is_file()]
    if missing:
        print(f"not a stablespde checkout, missing: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    env = _env(args.seed)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        text, values = make_config(ROOT, w, args.seed)
        config = work / f"{w.name}.cfg"
        config.write_text(text, encoding="utf-8")
        s = Session(w, config, values, work)
        if args.trace:
            metrics, notes, samples = measure_traced(s, args.seconds)
        else:
            metrics, notes, samples = measure(s, args.seconds, work_units(w, values))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]
    failed = len(s.failures)
    if not metrics or any(v is None for v, _ in metrics.values()):
        print(f"no completed call of {w.name}; {failed} of {s.attempted} runs failed",
              file=sys.stderr)
        return 1

    print(f"stablespde benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / s.attempted:>14.6g} ratio "
          f"({failed} failed of {s.attempted} runs)")
    for note in notes:
        print(f"  {note}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {**result, "workload": w.name, "env": env, "notes": notes, "samples": samples,
              "failures": s.failures}
    (ROOT / ".bench_work" / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
