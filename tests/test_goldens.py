"""Golden outputs: every subcommand on every preset, byte for byte.

Each run copies a shipped preset into a temporary directory with small sizes
appended to the config text (later keys override earlier ones), runs the CLI
under the preset seed and compares the sha256 of every file it writes.  The
hashes pin behaviour across refactors: a change meant to keep outputs must keep
them, and a change meant to move an output must say so when it re-records them.

The hashes are bit-exact to numpy's Philox, ziggurat and SIMD loops; they are
recorded with numpy 2.4.6, the version the CI workflow installs.
"""

import hashlib
from pathlib import Path

import pytest

from stablespde import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL = {
    "switching_single.cfg": "n_paths = 6\n",
    "switching_multiclass.cfg": "n_paths = 6\n",
    "fast_slow.cfg": "n_paths = 6\nest_burn_in = 1.0\nest_horizon = 4.0\n",
    "aggregate.cfg": "n_paths = 6\nT = 10.0\n",
}

GOLDEN = {
    ("check", "switching_single.cfg"): {
        "summary.json": "62986d84f3fb4d9276ded5f79ffe39846550600f8b361dba26c7709ca3d11114",
    },
    ("simulate", "switching_single.cfg"): {
        "simulate.csv": "08cb20f7443dddec9b4a2723d27f305bf39c17bf23ffafa4da527f2694bcf8f2",
        "summary.json": "62986d84f3fb4d9276ded5f79ffe39846550600f8b361dba26c7709ca3d11114",
    },
    ("converge", "switching_single.cfg"): {
        "converge.csv": "bed69099b78ca98a2bb85527318d17446bacd4d7e12ca02f00d71cb79ec91c11",
        "summary.json": "7dd4fe0416ac4d431326bb22475b68bbc66cd148420931c7fa7275748709dc9f",
    },
    ("check", "switching_multiclass.cfg"): {
        "summary.json": "8b0f65b0334b8e6bb3859f0946777d3850c8978a882570c80aef30f04493b3e2",
    },
    ("simulate", "switching_multiclass.cfg"): {
        "simulate.csv": "c6b3064fe2ef852c4cf9ba3d17ef84ba9609f1f35797fd2ae1717ddb2d28c4ae",
        "summary.json": "8b0f65b0334b8e6bb3859f0946777d3850c8978a882570c80aef30f04493b3e2",
    },
    ("converge", "switching_multiclass.cfg"): {
        "converge.csv": "0e8b32ff1f1c63a4df25dac3360845c60fc92bb036770b0245327c5f9bda0d05",
        "summary.json": "8ac047a675b53d8a31ca93538327b8a89290d247170b3b3f50c2b5a4754f0aef",
    },
    ("check", "fast_slow.cfg"): {
        "summary.json": "3b28012062670ba79c1393b82357a0d6d74b6a4bd872f27cb95b648832b141fe",
    },
    ("simulate", "fast_slow.cfg"): {
        "simulate.csv": "12f4821a6ad9f8fb0bd360b2233acb02ca2ea3edbf303e1f2b98ff3cf70e4de3",
        "summary.json": "3b28012062670ba79c1393b82357a0d6d74b6a4bd872f27cb95b648832b141fe",
    },
    ("converge", "fast_slow.cfg"): {
        "converge.csv": "98ba5dc5ed93945826aadc4e8d3a1e4bf3215179c388e537fe4f0d8a9bee9614",
        "summary.json": "0b553643566bdbf7b3e4d33147196805e27d78b79be3aeb52e7d8e5502635698",
    },
    ("freeze", "fast_slow.cfg"): {
        "freeze.csv": "d2400bebf7fc0e4e29b6f5ff3459e41f967329f7e17412880a575fd1a8e19382",
        "freeze_decay.csv": "518cfc0ff25ca14920bae4cc32899b8721381b1e94af897735355283c659ae0c",
        "summary.json": "0062a9eeaceb8fc8a39e56f231045ce378635c8094e28ad572d41e6283e0803e",
    },
    ("check", "aggregate.cfg"): {
        "summary.json": "d515bb33fed12febcbed09a814b5bffbabc8f5692cdcdb924ca317dfdcf93b52",
    },
    ("aggregate", "aggregate.cfg"): {
        "aggregate.csv": "77ff24f7ba184418fdb75e888d019b05bc0c5dfd8c14648e2427d7706d8bb66f",
        "summary.json": "6694d36cb574ee99de854f0221e59248431b6da5cba03b46ee65ca2d79d95729",
    },
}


def _run(tmp_path, command, preset):
    """Run one subcommand on a small copy of a preset; sha256 of each file written."""
    cfg = tmp_path / preset
    cfg.write_text((CONFIG_DIR / preset).read_text() + SMALL[preset], encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("command,preset", list(GOLDEN), ids=lambda v: str(v))
def test_golden_outputs(tmp_path, command, preset):
    assert _run(tmp_path, command, preset) == GOLDEN[(command, preset)]
