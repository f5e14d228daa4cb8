"""What each CLI subcommand prints, checked against the files it writes.

Every run uses a shipped preset with small sizes appended (later keys override
earlier ones).  Each printed line is rebuilt from the run's own CSVs and
summary.json, so the tests pin the form and count of the lines, not values.
"""

import json
from pathlib import Path

import pytest

from stablespde import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL = {
    "switching_single.cfg": "n_paths = 6\n",
    "fast_slow.cfg": "n_paths = 6\nest_burn_in = 1.0\nest_horizon = 4.0\n",
    "aggregate.cfg": "n_paths = 6\nT = 10.0\n",
}

# the one-class config of test_aggregate_zero_qhat_constant_class
ONE_CLASS = """
scenario = "switching-multiclass"
alpha = 1.5
k_trunc = 3
T = 5.0
n_paths = 1
eps_grid = [0.01]
qtilde = [[-1.0, 1.0], [1.0, -1.0]]
partition = [[1, 2]]
drift_coeffs = [0.2, 0.4]
"""


def _run(tmp_path, capsys, command, text, *flags):
    """Run one subcommand on ``text``; (exit code, stdout lines, output dir)."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg), "--out", str(out), *flags])
    return rc, capsys.readouterr().out.splitlines(), out


def _preset(name, extra=""):
    return (CONFIG_DIR / name).read_text() + SMALL[name] + extra


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _summary(out):
    return json.loads((out / "summary.json").read_text())


@pytest.mark.parametrize("preset", ["switching_single.cfg", "fast_slow.cfg", "aggregate.cfg"])
def test_check_prints_one_line_per_condition(tmp_path, capsys, preset):
    rc, lines, out = _run(tmp_path, capsys, "check", _preset(preset))
    assert rc == 0
    conditions = _summary(out)["conditions"]
    assert lines == [f"[PASS] {c['name']}  {c['detail']}" for c in conditions]


def test_check_prints_fail_lines_and_exits_1(tmp_path, capsys):
    rc, lines, out = _run(tmp_path, capsys, "check", _preset("switching_single.cfg", "theta = 0.9\n"))
    assert rc == 1
    conditions = _summary(out)["conditions"]
    assert not all(c["passed"] for c in conditions)
    assert lines == [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}  {c['detail']}" for c in conditions
    ]


@pytest.mark.parametrize("preset", ["switching_single.cfg", "fast_slow.cfg"])
def test_converge_prints_one_line_per_eps_and_the_slope(tmp_path, capsys, preset):
    rc, lines, out = _run(tmp_path, capsys, "converge", _preset(preset))
    assert rc == 0
    rows = _csv_rows(out / "converge.csv")
    fit = _summary(out)["rate_fit"]
    assert len(lines) == len(rows) + 1
    for line, (eps, _, err, se, n) in zip(lines, rows):
        assert line == f"eps={float(eps):<8g} error={float(err):.6g} se={float(se):.3g} (n={n})"
    assert lines[-1] == (
        f"log-log slope {fit['slope']:.4f} (r2={fit['r_squared']:.3f}); "
        f"theoretical exponent bound {fit['theoretical_exponent_bound']:.4f}"
    )


def test_converge_prints_the_notice_when_the_fit_is_refused(tmp_path, capsys):
    text = _preset("switching_single.cfg", "eps_grid = [0.1, 0.05]\n")
    rc, lines, out = _run(tmp_path, capsys, "converge", text)
    assert rc == 0
    summary = _summary(out)
    assert summary["rate_fit"] is None
    assert len(lines) == 3 and all(line.startswith("eps=") for line in lines[:2])
    assert lines[-1] == summary["notice"] == "rate fit refused: fewer than 3 grid points"


def test_freeze_prints_one_line(tmp_path, capsys):
    rc, lines, out = _run(tmp_path, capsys, "freeze", _preset("fast_slow.cfg"))
    assert rc == 0
    s = _summary(out)
    assert lines == [f"decay rate {s['decay_rate']:.4f}; y0 gap {s['y0_gap_in_combined_se']:.2f} SE"]
    assert s["notice"] == ""


def test_freeze_prints_the_notice_when_the_decay_fit_is_refused(tmp_path, capsys):
    # zero slow gains make the observable constant, so every probe deviation is exactly 0
    text = _preset("fast_slow.cfg", "est_reps = 2\nslow_gain_x = 0.0\nslow_gain_y = 0.0\n")
    rc, lines, out = _run(tmp_path, capsys, "freeze", text)
    assert rc == 0
    s = _summary(out)
    assert s["decay_rate"] is None
    assert s["notice"] == "decay fit refused: need at least two positive values to fit a decay rate"
    assert lines == [f"{s['notice']}; y0 gap {s['y0_gap_in_combined_se']:.2f} SE"]


def test_freeze_refuses_a_decay_fit_on_rounding_residue(tmp_path, capsys):
    # a constant observable with an offset leaves only summation rounding as deviation
    extra = "est_reps = 2\nslow_gain_x = 0.0\nslow_gain_y = 0.0\nslow_offset = 0.7\n"
    rc, lines, out = _run(tmp_path, capsys, "freeze", _preset("fast_slow.cfg", extra))
    assert rc == 0
    assert all(float(dev) == 0.0 for _, dev in _csv_rows(out / "freeze_decay.csv"))
    s = _summary(out)
    assert s["decay_rate"] is None
    assert s["notice"] == "decay fit refused: need at least two positive values to fit a decay rate"
    assert lines == [f"{s['notice']}; y0 gap {s['y0_gap_in_combined_se']:.2f} SE"]


def test_aggregate_prints_one_line_per_class_pair(tmp_path, capsys):
    rc, lines, out = _run(tmp_path, capsys, "aggregate", _preset("aggregate.cfg"))
    assert rc == 0
    rows = _csv_rows(out / "aggregate.csv")
    assert len(rows) == 2
    assert lines == [
        f"class {i}->{j}: empirical {float(emp):.4f} vs limit {float(theo):.4f}"
        for i, j, emp, theo in rows
    ]


def test_aggregate_prints_nothing_for_one_class(tmp_path, capsys):
    rc, lines, out = _run(tmp_path, capsys, "aggregate", ONE_CLASS)
    assert rc == 0
    assert _csv_rows(out / "aggregate.csv") == []
    assert lines == []


def test_simulate_prints_the_csv_it_wrote(tmp_path, capsys):
    rc, lines, out = _run(tmp_path, capsys, "simulate", _preset("switching_single.cfg"))
    assert rc == 0
    n = len(_csv_rows(out / "simulate.csv"))
    assert lines == [f"wrote {n} checkpoints to {out / 'simulate.csv'}"]


@pytest.mark.parametrize(
    "command,preset",
    [
        ("check", "switching_single.cfg"),
        ("simulate", "switching_single.cfg"),
        ("converge", "switching_single.cfg"),
        ("freeze", "fast_slow.cfg"),
        ("aggregate", "aggregate.cfg"),
    ],
)
def test_quiet_prints_nothing(tmp_path, capsys, command, preset):
    rc, lines, out = _run(tmp_path, capsys, command, _preset(preset), "--quiet")
    assert rc == 0
    assert lines == []
    assert (out / "summary.json").exists()


# subcommands with their help strings, in the order --help lists them
COMMAND_HELP = [
    ("check", "reject malformed input, then evaluate every standing assumption"),
    ("simulate", "dump one seeded trajectory"),
    ("converge", "coupled eps-sweep with rate fit"),
    ("freeze", "frozen-equation averaged-drift estimates and decay probe"),
    ("aggregate", "multiclass aggregation diagnostics"),
]
FLAG_HELP = [
    "--config CONFIG path to the experiment config",
    "--seed SEED override the config seed",
    "--out OUT output directory",
    "--paths PATHS override n_paths",
    "--quiet",
]


def _help(capsys, argv):
    """The help ``argv`` prints, whitespace normalised (argparse wraps at the terminal width)."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    return " ".join(capsys.readouterr().out.split())


def test_help_lists_every_subcommand_in_order(capsys):
    text = _help(capsys, ["--help"])
    assert "{" + ",".join(name for name, _ in COMMAND_HELP) + "}" in text
    assert " ".join(f"{name} {help_}" for name, help_ in COMMAND_HELP) in text


@pytest.mark.parametrize("command", [name for name, _ in COMMAND_HELP])
def test_subcommand_help_lists_every_flag(capsys, command):
    text = _help(capsys, [command, "--help"])
    assert text.startswith(f"usage: stablespde {command} ")
    for flag in FLAG_HELP:
        assert flag in text
