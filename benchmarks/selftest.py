"""Self-test of the benchmark: every workload at tiny size, traced, twice.

    python3 benchmarks/selftest.py

For each workload, both traced calls must pass the output checks of run.py
(exit code, CSV shape, finite values, byte-identical outputs, spans nested in
their parents, self times >= 0 summing to at most the traced wall time,
identical per-layer counts).  On top of that:

- the work units run.py divides by match what the trace counted;
- class-aggregate draws no stable variates, frozen-ergodic no chain jumps;
- BENCHMARK.json names exactly the workloads and metrics run.py reports;
- run.py refuses, without a result line, to run outside a stablespde checkout.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np

import run
import tracer
from workloads import WORKLOADS, make_config, work_units

SEED = 7
_MUST_BE_ZERO = {"class-aggregate": "stable_noise.variates", "frozen-ergodic": "switching.jumps"}


def _pair_solves(spans) -> int:
    """Solves called by the harness itself: two per coupled (path, eps) pair."""
    names = list(spans["names"])
    runs = np.flatnonzero(spans["name"] == names.index("harness.run"))
    solve_ids = [i for i, n in enumerate(names) if n.startswith("engine.solve")]
    return int((np.isin(spans["name"], solve_ids) & np.isin(spans["parent"], runs)).sum())


def check_workload(w, work) -> tuple[list[str], dict]:
    """Problems of two tiny traced calls, and the per-layer metrics of the first."""
    text, values = make_config(run.ROOT, w, SEED, tiny=True)
    config = work / f"{w.name}.cfg"
    config.write_text(text, encoding="utf-8")
    s = run.Session(w, config, values, work)
    results = [s.run(traced=True) for _ in range(2)]
    problems = list(s.failures)
    if None in results:
        return problems, {}
    spans = results[0][1]
    m = tracer.layer_metrics(spans)
    units = work_units(w, values)
    traced_units = {
        "converge": _pair_solves(spans) / 2,
        "aggregate": m["switching.chains"],
        "freeze": m["engine.steps"],
    }[w.command]
    if traced_units != units:
        problems.append(f"the trace counted {traced_units} {w.unit}, run.py divides by {units}")
    zero = _MUST_BE_ZERO.get(w.name)
    if zero and m[zero] != 0:
        problems.append(f"{zero} = {m[zero]}, expected 0")
    return problems, m


def check_benchmark_json(layer_names) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(x["name"] for x in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if {x["name"]: x["unit"] for x in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    reported = {n: run.unit_of(n) for n in (*layer_names, "process.cpu_s", "trace.overhead_ratio")}
    if {x["name"]: x["unit"] for x in spec["per_layer"]} != reported:
        problems.append("BENCHMARK.json per_layer differs from the traced metrics")
    return problems


def check_refuses_bare_directory(work) -> list[str]:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "switching-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py did not refuse a directory without the package"]
    return []


def main() -> int:
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems, names = {}, set()
    try:
        for w in WORKLOADS.values():
            problems[w.name], m = check_workload(w, work)
            names |= m.keys()
        problems["BENCHMARK.json"] = check_benchmark_json(names)
        problems["bare directory"] = check_refuses_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, found in problems.items():
        print(f"[{'FAIL' if found else 'PASS'}] {name}" + "".join(f"\n    {p}" for p in found))
    return 1 if any(problems.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
