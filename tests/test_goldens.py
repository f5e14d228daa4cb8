"""Golden outputs: every subcommand on every preset, byte for byte.

Each run copies a shipped preset into a temporary directory with small sizes
appended to the config text (later keys override earlier ones), runs the CLI
under the preset seed and compares the sha256 of every file it writes.  The
hashes pin behaviour across refactors: a change meant to keep outputs must keep
them, and a change meant to move an output must say so when it re-records them.
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
        "summary.json": "7a76455b9d1d53b65f247537f9113cb751453415688adbb74c0e66576b07eb1d",
    },
    ("simulate", "switching_single.cfg"): {
        "simulate.csv": "a8f71884bac8b619545d4af0cd51d012026d115151b5adf80ec17464a271b721",
        "summary.json": "7a76455b9d1d53b65f247537f9113cb751453415688adbb74c0e66576b07eb1d",
    },
    ("converge", "switching_single.cfg"): {
        "converge.csv": "d99d72d88284a6facc418c9585f81fd259db732d164752082641811f878ec9cf",
        "summary.json": "6e6b4eddb03f53379d3ffc264dcca41f850ae02fc5ba13a40dad9c21cdb32469",
    },
    ("check", "switching_multiclass.cfg"): {
        "summary.json": "d69ba66557647b54d5de3ffe44835a62ff05c7d165141350b88bb1caa5d4b8bf",
    },
    ("simulate", "switching_multiclass.cfg"): {
        "simulate.csv": "6c640df65d440dc74b57cbf998bc75ed1f197db4808a2299ac4f6e31c28825e8",
        "summary.json": "d69ba66557647b54d5de3ffe44835a62ff05c7d165141350b88bb1caa5d4b8bf",
    },
    ("converge", "switching_multiclass.cfg"): {
        "converge.csv": "a5d56dbe9100e01363cf880c9bed677612ff4f5aa6561ff419ba7e50b054aec2",
        "summary.json": "7f9fef7f07b3a7a2ee62ca7a6d0416b3b956b29908e99afb8526ae00a9d714f9",
    },
    ("check", "fast_slow.cfg"): {
        "summary.json": "e67db2e18167eb5585d3933f496b8f88197ac347dbed2b1029dc777b48ed06d5",
    },
    ("simulate", "fast_slow.cfg"): {
        "simulate.csv": "372878aa1ae5a93c3078da11fd8ded0ec4c6922dba0081e7f7135e3947305f44",
        "summary.json": "e67db2e18167eb5585d3933f496b8f88197ac347dbed2b1029dc777b48ed06d5",
    },
    ("converge", "fast_slow.cfg"): {
        "converge.csv": "c9d409b064d393df2c7a7b51cd849774a02838c40d49cee9cfa11c3dd67d8688",
        "summary.json": "355760134493d24e01a9f1a6d77c9f8bca62fa49a76ba165fff30f0c64641bac",
    },
    ("freeze", "fast_slow.cfg"): {
        "freeze.csv": "03b51490a8f11f75af9d91b41d7389d04c340cc33af13a9e7c054adcbed8773e",
        "freeze_decay.csv": "15c18d7bd75b548a91e919a5c7e4781f7b740dbe5831dcf9e9e12795aa245df3",
        "summary.json": "4c319255b46250bd43127c7b9b69733f9e8667be5b68c65bf8a2c7dce6493ccd",
    },
    ("check", "aggregate.cfg"): {
        "summary.json": "d1a1bfa4b49b230afb04335e5d3dc4a158ce6cb2235625fc6e1577494fb832e7",
    },
    ("aggregate", "aggregate.cfg"): {
        "aggregate.csv": "6b2131e44a13eaae7ce8417b5ad7547119777a822d51898e1dd2e79ca6d7564c",
        "summary.json": "cd08495cb89856c6bc1f1c4cbd728e7fda0586b81b3660605dac331f00f0ccf0",
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
