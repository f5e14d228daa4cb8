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
        "summary.json": "f49043cc8ea8962d1f3b5e7f2c79a31f93f20b8ebca3002e0810f98255d31908",
    },
    ("simulate", "switching_single.cfg"): {
        "simulate.csv": "08cb20f7443dddec9b4a2723d27f305bf39c17bf23ffafa4da527f2694bcf8f2",
        "summary.json": "f49043cc8ea8962d1f3b5e7f2c79a31f93f20b8ebca3002e0810f98255d31908",
    },
    ("converge", "switching_single.cfg"): {
        "converge.csv": "bed69099b78ca98a2bb85527318d17446bacd4d7e12ca02f00d71cb79ec91c11",
        "summary.json": "7b65785c744095f6192d1b445404b3a5ca52d72f32311d20a01b513cb96ca31c",
    },
    ("check", "switching_multiclass.cfg"): {
        "summary.json": "5fd0625a8de7707d5d5e45e6f0725785889916150d37ab1d83fa373cd0ea25cd",
    },
    ("simulate", "switching_multiclass.cfg"): {
        "simulate.csv": "c6b3064fe2ef852c4cf9ba3d17ef84ba9609f1f35797fd2ae1717ddb2d28c4ae",
        "summary.json": "5fd0625a8de7707d5d5e45e6f0725785889916150d37ab1d83fa373cd0ea25cd",
    },
    ("converge", "switching_multiclass.cfg"): {
        "converge.csv": "0e8b32ff1f1c63a4df25dac3360845c60fc92bb036770b0245327c5f9bda0d05",
        "summary.json": "4237cf8956157c319f17abcced267a89494944cb423af62e03aa045e15de06cb",
    },
    ("check", "fast_slow.cfg"): {
        "summary.json": "36d9f853aaecbb8b9d12ba414ce15ddee3b402c1d7ab0d1778515fb52d7f9bb8",
    },
    ("simulate", "fast_slow.cfg"): {
        "simulate.csv": "12f4821a6ad9f8fb0bd360b2233acb02ca2ea3edbf303e1f2b98ff3cf70e4de3",
        "summary.json": "36d9f853aaecbb8b9d12ba414ce15ddee3b402c1d7ab0d1778515fb52d7f9bb8",
    },
    ("converge", "fast_slow.cfg"): {
        "converge.csv": "98ba5dc5ed93945826aadc4e8d3a1e4bf3215179c388e537fe4f0d8a9bee9614",
        "summary.json": "36363d2e2cdc4a707ca8f30101ec934eed6a1b2b94ff4c7537a70e1b546e997d",
    },
    ("freeze", "fast_slow.cfg"): {
        "freeze.csv": "d2400bebf7fc0e4e29b6f5ff3459e41f967329f7e17412880a575fd1a8e19382",
        "freeze_decay.csv": "518cfc0ff25ca14920bae4cc32899b8721381b1e94af897735355283c659ae0c",
        "summary.json": "98fbe18b0d85fabfdb08a3af01a265cae46d7b726170ee85d80a7bfb6fffd602",
    },
    ("check", "aggregate.cfg"): {
        "summary.json": "418de72663b9d5d7fe86f7808724bb1b4bccffe12d9d53e58fb2e6a566d2df87",
    },
    ("aggregate", "aggregate.cfg"): {
        "aggregate.csv": "77ff24f7ba184418fdb75e888d019b05bc0c5dfd8c14648e2427d7706d8bb66f",
        "summary.json": "bdbe495e522531c011ecadc04f2ed1ce73eddc36e019fc7874a7f4cfd2310d37",
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
