"""The benchmark's view of the package: its tracer must still see the work.

``benchmarks/tracer.py`` patches package bindings by name and counts noise
variates at ``engine.sample_standard_stable``.  A refactor that drops a patched
name makes ``install`` raise; one that samples past that binding makes the
traced variate counts fall short.  Each run goes in a subprocess, because
``install`` patches the imported package for good.  Nothing under
``benchmarks/`` is written, not even bytecode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

_TRACED_RUN = """
import json, sys
root, command, config, out, spans = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/benchmarks"]
import tracer
from stablespde import cli
t = tracer.Tracer()
tracer.install(t)
rc = cli.main([command, "--config", config, "--out", out, "--quiet"])
t.save(spans)
print(json.dumps({"rc": rc, **tracer.layer_metrics(tracer.load(spans))}))
"""


def _traced(tmp_path, command, preset, overrides):
    config = tmp_path / preset
    config.write_text((CONFIG_DIR / preset).read_text(encoding="utf-8") + overrides, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN, str(ROOT), command, str(config),
         str(tmp_path / "out"), str(tmp_path / "spans.npz")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["rc"] == 0
    return metrics


def test_traced_converge_counts_every_variate(tmp_path):
    m = _traced(tmp_path, "converge", "switching_single.cfg", "n_paths = 3\n")
    # switching_single: T = 1, dt = 0.02, k_trunc = 20; each path draws its slow noise once
    assert m["stable_noise.variates"] == 3 * 50 * 20
    # one generator per path for its slow noise and one for the chain walk its 5 eps share
    # (switching.chains counts harness.simulate_chain calls, which converge no longer makes)
    assert m["rng.generator_calls"] == 3 * 2
    # the tracer's config.load span wraps cli.load_config, which every command calls once
    assert m["config.load_s"] > 0


def test_traced_aggregate_counts_a_chain_per_path(tmp_path):
    m = _traced(tmp_path, "aggregate", "aggregate.cfg", "n_paths = 2\nT = 10.0\n")
    # aggregate calls harness.simulate_chain once per path, the binding the tracer counts
    assert m["switching.chains"] == 2
    assert m["stable_noise.variates"] == 0
    assert m["rng.generator_calls"] == 2


@pytest.mark.parametrize("preset", ["switching_single.cfg", "switching_multiclass.cfg",
                                    "fast_slow.cfg"])
def test_traced_simulate_draws_each_stream_once(tmp_path, preset):
    m = _traced(tmp_path, "simulate", preset, "")
    # one generator for the path's slow noise and one for its chain walk or, on fast_slow,
    # its fast noise at the first eps
    assert m["rng.generator_calls"] == 2
    # T = 1, dt = 0.02, k_trunc = 20: 50 steps x 20 modes of slow noise, and on fast_slow
    # 50 steps x 1 substep x 20 modes of fast noise at eps = 0.1
    fast = 50 * 1 * 20 if preset == "fast_slow.cfg" else 0
    assert m["stable_noise.variates"] == 50 * 20 + fast


def test_traced_fast_slow_converge_counts_every_variate(tmp_path):
    m = _traced(tmp_path, "converge", "fast_slow.cfg", "n_paths = 3\n")
    # per path one slow draw and one fast draw per eps of [0.1, 0.02, 0.005], plus the
    # estimator's 4 replications for the averaged drift
    assert m["rng.generator_calls"] == 3 * (1 + 3) + 4
    # 50 steps x 20 modes slow, and 1, 2 and 8 fast substeps per step at the three eps;
    # each estimator replication takes 1,200 frozen-fast steps of 20 modes
    assert m["stable_noise.variates"] == 3 * (1000 + 1000 + 2000 + 8000) + 4 * 1200 * 20
    # one eps-system and one averaged solve per (path, eps), plus the 4 frozen-fast runs
    assert m["engine.solves"] == 3 * 3 * 2 + 4


def test_traced_freeze_counts_every_variate(tmp_path):
    m = _traced(
        tmp_path, "freeze", "fast_slow.cfg", "est_burn_in = 1.0\nest_horizon = 4.0\nest_reps = 2\n"
    )
    # every frozen-fast step takes k_trunc = 20 variates
    assert m["engine.steps"] > 0
    assert m["stable_noise.variates"] == m["engine.steps"] * 20
