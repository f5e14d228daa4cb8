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
        "simulate.csv": "e48490513624bfabc0a705814bcd797c4925e674dc776e2d414042565d0b73ed",
        "summary.json": "7a76455b9d1d53b65f247537f9113cb751453415688adbb74c0e66576b07eb1d",
    },
    ("converge", "switching_single.cfg"): {
        "converge.csv": "da5d4bb1a9a229dce76009147e98d8df0a0f3310a42ef1d75620ea359a20998a",
        "summary.json": "2d34e828423e0fa9c92068143342d3c599a035cc72f70e76c4f8ff3c5979e875",
    },
    ("check", "switching_multiclass.cfg"): {
        "summary.json": "d69ba66557647b54d5de3ffe44835a62ff05c7d165141350b88bb1caa5d4b8bf",
    },
    ("simulate", "switching_multiclass.cfg"): {
        "simulate.csv": "bdef0f78c859a3a4556b215687cc9f4e34056d375918dc890ebfd1d0ca443616",
        "summary.json": "d69ba66557647b54d5de3ffe44835a62ff05c7d165141350b88bb1caa5d4b8bf",
    },
    ("converge", "switching_multiclass.cfg"): {
        "converge.csv": "19611808ecbad466d5fdd428d81d6de55b8a1c503c3c3bae20c30042c3ecc106",
        "summary.json": "fd619f1bb5137d9c4bf91fedf0226169e071044b4ff7aae1651a55853038b878",
    },
    ("check", "fast_slow.cfg"): {
        "summary.json": "e67db2e18167eb5585d3933f496b8f88197ac347dbed2b1029dc777b48ed06d5",
    },
    ("simulate", "fast_slow.cfg"): {
        "simulate.csv": "2d1390556d7d0cd2cd9d5083dcee740df21629aa15ccaaeea81a023848e78fe4",
        "summary.json": "e67db2e18167eb5585d3933f496b8f88197ac347dbed2b1029dc777b48ed06d5",
    },
    ("converge", "fast_slow.cfg"): {
        "converge.csv": "957fac6214036a3c0f685c07412c064ce33e0323fc8d0c3f516368596548c77d",
        "summary.json": "1a3827c6abf43fa098eecd1deca78cee689dd0c415e1e005a19234d52f5052e9",
    },
    ("freeze", "fast_slow.cfg"): {
        "freeze.csv": "686b6bd3023abd0c23d819af7fa031869d9a6b8048d9e368162c821cb8f3b195",
        "freeze_decay.csv": "9a9b6b7fac722c98b24e69351a7d7c606fc56387e49ef6dcc85dd3528075cad3",
        "summary.json": "b942004cefc5f7f3ebcc16de785446e584784909f147105543a7ef7c22aa89ef",
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
