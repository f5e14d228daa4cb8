import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablespde
from stablespde import cli
from stablespde.config import ExperimentConfig, parse_config
from stablespde.harness import (
    ConditionError,
    ErrorTable,
    monotone_with_inversions,
    p_moment,
    rate_fit,
    require_pass,
    run_aggregate,
    run_check,
    run_converge,
    run_freeze,
    run_simulate,
    synthesize_point,
    theoretical_rate_exponent,
)

SMALL_SWITCHING = """
scenario = "switching-single"
alpha = 1.5
theta = 0.5
p = 1.2
k_trunc = 5
T = 0.5
dt = 0.05
n_paths = 16
seed = 7
eps_grid = [0.1, 0.05, 0.02]
qtilde = [[-1.0, 1.0], [1.0, -1.0]]
drift_coeffs = [0.3, 0.9]
"""

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# an explicit initial state for the 20-mode presets
X0_20 = str([0.5] * 20)

SMALL_FAST_SLOW = """
scenario = "fast-slow"
alpha = 1.5
beta = 1.5
theta = 0.5
p = 1.2
k_trunc = 4
T = 0.5
dt = 0.05
n_paths = 12
seed = 7
eps_grid = [0.1, 0.05, 0.02]
fast_gain_y = 0.5
est_horizon = 8.0
est_burn_in = 2.0
est_reps = 2
"""


def test_theoretical_exponent_arithmetic():
    # alpha = 1.5, p = 1.2, theta = 0.5: sup rho = 0.3/1.2 = 0.25, so the
    # reported exponent 0.95 * 0.25 * 0.5 stays below the supremum value 0.125
    value = theoretical_rate_exponent(1.5, 1.2, 0.5)
    assert value == pytest.approx(0.95 * 0.125)
    assert value < 0.125


def test_rate_fit_exact_power_law():
    eps = np.array([0.1, 0.05, 0.02, 0.01])
    table = ErrorTable(eps, 1.2, eps**0.3, np.zeros(4), 100)
    fit = rate_fit(table, 0.125)
    assert fit.slope == pytest.approx(0.3, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.theoretical_exponent == 0.125


def test_rate_fit_constant_errors():
    eps = np.array([0.1, 0.05, 0.02])
    fit = rate_fit(ErrorTable(eps, 1.2, np.full(3, 0.7), np.zeros(3), 10), 0.1)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_preconditions():
    eps2 = np.array([0.1, 0.05])
    with pytest.raises(ValueError, match="3 grid points"):
        rate_fit(ErrorTable(eps2, 1.2, np.ones(2), np.zeros(2), 10), 0.1)
    eps3 = np.array([0.1, 0.05, 0.02])
    with pytest.raises(ValueError, match="positive errors"):
        rate_fit(ErrorTable(eps3, 1.2, np.array([1.0, 0.0, 0.5]), np.zeros(3), 10), 0.1)


def test_p_moment_constant_values():
    m, se = p_moment(np.full(100, 2.0), 1.2)
    assert m == pytest.approx(2.0, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)
    assert p_moment(np.zeros(50), 1.5) == (0.0, 0.0)


def test_p_moment_matches_direct_formula():
    gen = np.random.default_rng(0)
    v = gen.uniform(0.1, 2.0, size=1000)
    m, se = p_moment(v, 1.3)
    assert m == pytest.approx(np.mean(v**1.3) ** (1 / 1.3), rel=1e-12)
    assert se > 0


def test_monotone_with_inversions_cases():
    eps = np.array([0.1, 0.05, 0.02])
    dec = ErrorTable(eps, 1.2, np.array([3.0, 2.0, 1.0]), np.full(3, 0.1), 10)
    assert monotone_with_inversions(dec) == (True, 0)
    one_small = ErrorTable(eps, 1.2, np.array([3.0, 3.05, 1.0]), np.full(3, 0.1), 10)
    ok, n = monotone_with_inversions(one_small)
    assert ok and n == 1
    big_jump = ErrorTable(eps, 1.2, np.array([3.0, 9.0, 1.0]), np.full(3, 0.1), 10)
    assert monotone_with_inversions(big_jump)[0] is False


def test_run_check_rod_preset_passes():
    cfg = parse_config(SMALL_SWITCHING)
    report, checks = run_check(cfg)
    assert report.passed
    assert all(c.passed for c in checks)
    require_pass(checks)  # no raise


def test_run_check_flags_alpha_theta_violation():
    cfg = parse_config(SMALL_SWITCHING + "\ntheta = 0.9\n")  # alpha*theta = 1.35
    _, checks = run_check(cfg)
    failed = {c.name for c in checks if not c.passed}
    assert "alpha-theta in (0,1)" in failed
    with pytest.raises(ConditionError, match="alpha-theta"):
        require_pass(checks)


def test_run_check_flags_ergodicity_violation():
    cfg = parse_config(SMALL_FAST_SLOW + "\nfast_gain_y = 2.0\n")  # K3 = 2 mu_1
    _, checks = run_check(cfg)
    failed = {c.name for c in checks if not c.passed}
    assert "ergodicity condition K3 < mu_1" in failed


def test_failed_check_blocks_converge():
    cfg = parse_config(SMALL_SWITCHING + "\ntheta = 0.9\n")
    with pytest.raises(ConditionError):
        run_converge(cfg)


def test_converge_point_mass_drift_errors_vanish():
    # single-regime chain (point-mass nu): the coupled pair solves the same
    # equation step for step, so every per-path error cancels to rounding noise
    cfg = parse_config(
        SMALL_SWITCHING.replace("[[-1.0, 1.0], [1.0, -1.0]]", "[[0.0]]").replace(
            "[0.3, 0.9]", "[0.5]"
        )
    )
    cfg.n_paths = 8
    _, table, sup_table, fit, notice = run_converge(cfg)
    assert np.max(table.errors) <= 1e-12
    assert np.max(sup_table.errors) <= 1e-12
    assert fit is None
    assert notice == "rate fit refused: nonpositive errors in the table"


def test_converge_degenerate_grid_refuses_fit():
    cfg = parse_config(SMALL_SWITCHING.replace("[0.1, 0.05, 0.02]", "[0.1]"))
    cfg.n_paths = 8
    _, table, _, fit, notice = run_converge(cfg)
    assert table.errors.size == 1
    assert fit is None
    assert "fewer than 3" in notice


def test_converge_switching_table_shape_and_determinism():
    cfg = parse_config(SMALL_SWITCHING)
    _, t1, s1, fit, _ = run_converge(cfg)
    _, t2, _, _, _ = run_converge(cfg)
    assert np.array_equal(t1.errors, t2.errors)
    assert np.array_equal(t1.ses, t2.ses)
    assert t1.errors.size == 3
    assert np.all(t1.errors > 0)
    assert np.all(s1.errors >= t1.errors - 1e-15)  # sup dominates terminal
    assert fit is not None


def test_converge_terminal_error_does_not_depend_on_checkpoints():
    # the error-at-T column is read at the last checkpoint, which is T for any count
    tables = []
    for n in (1, 10):
        cfg = parse_config(SMALL_SWITCHING + f"checkpoints = {n}\n")
        tables.append(run_converge(cfg)[1])
    assert np.array_equal(tables[0].errors, tables[1].errors)
    assert np.array_equal(tables[0].ses, tables[1].ses)


def test_converge_fast_slow_runs():
    cfg = parse_config(SMALL_FAST_SLOW)
    _, table, _, fit, _ = run_converge(cfg)
    assert np.all(table.errors > 0)
    assert fit is not None


def test_freeze_constant_observable_exact():
    # slow drift constant in both arguments: zero-variance averaged estimate
    cfg = parse_config(
        SMALL_FAST_SLOW + "\nslow_gain_x = 0.0\nslow_gain_y = 0.0\nslow_offset = 0.7\n"
    )
    _, rows, (t_grid, decay), stats = run_freeze(cfg)
    assert {r[0] for r in rows} == {0, 1, 2}
    for _, _, bbar, se in rows:
        assert bbar == pytest.approx(0.7, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)
    assert stats["y0_gap_in_combined_se"] == 0.0


def test_freeze_estimates_insensitive_to_y0():
    cfg = parse_config(SMALL_FAST_SLOW)
    _, rows, (t_grid, decay), stats = run_freeze(cfg)
    assert stats["y0_gap_in_combined_se"] < 3.0
    assert stats["decay_rate"] > 0
    assert len(rows) == 3 * cfg.k_trunc


def test_aggregate_singleton_classes_recover_qhat():
    cfg = parse_config(
        """
        scenario = "switching-multiclass"
        alpha = 1.5
        k_trunc = 3
        T = 200.0
        n_paths = 2
        eps_grid = [0.01]
        qtilde = [[0.0, 0.0], [0.0, 0.0]]
        qhat = [[-0.8, 0.8], [0.5, -0.5]]
        partition = [[1], [2]]
        drift_coeffs = [0.2, 0.4]
        """
    )
    _, qbar, rows, per_class = run_aggregate(cfg)
    assert np.allclose(qbar.rates, [[-0.8, 0.8], [0.5, -0.5]], atol=1e-14)
    for _, _, emp, theo in rows:
        assert emp == pytest.approx(theo, rel=0.2)


def test_aggregate_zero_qhat_constant_class():
    cfg = parse_config(
        """
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
    )
    _, qbar, rows, per_class = run_aggregate(cfg)
    assert qbar.rates.shape == (1, 1)
    assert rows == []
    assert per_class["1"]["occupation"] == pytest.approx(1.0)


def test_simulate_record_and_synthesis():
    cfg = parse_config(SMALL_SWITCHING)
    _, rec = run_simulate(cfg)
    assert rec.states.shape == (11, 5)
    assert np.all(np.isfinite(rec.states))
    coeffs = rec.states[-1]
    k = np.arange(1, 6)
    by_hand = float(np.sum(coeffs * np.sqrt(2 / np.pi) * np.sin(k * np.pi / 2)))
    assert synthesize_point(coeffs, np.pi / 2) == pytest.approx(by_hand, rel=1e-14)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


@pytest.fixture()
def small_cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_SWITCHING, encoding="utf-8")
    return path


def test_cli_check_ok(small_cfg_file, tmp_path, capsys):
    rc = cli.main(["check", "--config", str(small_cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert (tmp_path / "o" / "summary.json").exists()


def test_cli_check_condition_failure_exit_1(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_SWITCHING + "\ntheta = 0.9\n", encoding="utf-8")
    rc = cli.main(["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 1


def test_cli_input_error_exit_2(tmp_path, capsys):
    missing = cli.main(["check", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("alphaa = 1\n", encoding="utf-8")
    assert cli.main(["check", "--config", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"# \xe9\n")
    for unreadable in (latin1, tmp_path):  # not UTF-8; a directory
        assert cli.main(["check", "--config", str(unreadable)]) == 2
        assert "input error" in capsys.readouterr().err
    ok = tmp_path / "ok.cfg"
    ok.write_text(SMALL_SWITCHING, encoding="utf-8")
    assert cli.main(["check", "--config", str(ok), "--out", str(bad), "--quiet"]) == 2  # a file
    assert "input error" in capsys.readouterr().err


def test_cli_out_naming_a_file_is_input_error_before_the_run(tmp_path, capsys, monkeypatch):
    def never(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli.harness, "run_converge", never)
    cfg, out = tmp_path / "ok.cfg", tmp_path / "a_file"
    cfg.write_text(SMALL_SWITCHING, encoding="utf-8")
    out.write_text("", encoding="utf-8")
    assert cli.main(["converge", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "input error: --out" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == ""


def test_cli_converge_outputs_deterministic(small_cfg_file, tmp_path):
    args = ["converge", "--config", str(small_cfg_file), "--paths", "8", "--quiet"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == rc2 == 0
    for name in ("converge.csv", "summary.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2
    header = (tmp_path / "a" / "converge.csv").read_text().splitlines()[0]
    assert header == "eps,p,error,se,n_paths"


def test_cli_seed_flag_changes_output(small_cfg_file, tmp_path):
    args = ["converge", "--config", str(small_cfg_file), "--paths", "8", "--quiet"]
    cli.main(args + ["--out", str(tmp_path / "a")])
    cli.main(args + ["--out", str(tmp_path / "b"), "--seed", "99"])
    assert (tmp_path / "a" / "converge.csv").read_bytes() != (
        tmp_path / "b" / "converge.csv"
    ).read_bytes()


def test_cli_simulate_csv(small_cfg_file, tmp_path):
    rc = cli.main(
        ["simulate", "--config", str(small_cfg_file), "--out", str(tmp_path / "s"), "--quiet"]
    )
    assert rc == 0
    lines = (tmp_path / "s" / "simulate.csv").read_text().splitlines()
    assert lines[0].startswith("t,h_norm,coef_1")
    assert len(lines) == 12  # header + 11 grid points
    row = lines[-1].split(",")
    coeffs = np.array(list(map(float, row[2:-1])))
    assert float(row[-1]) == pytest.approx(synthesize_point(coeffs, np.pi / 2), rel=1e-12)


def test_cli_freeze_csv(tmp_path):
    path = tmp_path / "fs.cfg"
    path.write_text(SMALL_FAST_SLOW, encoding="utf-8")
    rc = cli.main(["freeze", "--config", str(path), "--out", str(tmp_path / "f"), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "f" / "freeze.csv").read_text().splitlines()
    assert lines[0] == "z_id,component,bbar,se"
    assert len(lines) == 1 + 3 * 4  # three slow states, four modes


SMALL_AGGREGATE = """
scenario = "switching-multiclass"
alpha = 1.5
k_trunc = 3
T = 20.0
n_paths = 1
eps_grid = [0.01]
qtilde = [[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -2.0, 2.0], [0.0, 0.0, 1.0, -1.0]]
qhat = [[-1.0, 0.2, 0.5, 0.3], [0.1, -0.6, 0.2, 0.3], [0.4, 0.1, -0.8, 0.3], [0.2, 0.2, 0.1, -0.5]]
partition = [[1, 2], [3, 4]]
drift_coeffs = [0.3, 0.9, 0.2, 0.7]
"""


def test_cli_aggregate_csv(tmp_path):
    path = tmp_path / "agg.cfg"
    path.write_text(SMALL_AGGREGATE, encoding="utf-8")
    rc = cli.main(["aggregate", "--config", str(path), "--out", str(tmp_path / "g"), "--quiet"])
    assert rc == 0
    lines = (tmp_path / "g" / "aggregate.csv").read_text().splitlines()
    assert lines[0] == "from_class,to_class,empirical_rate,qbar_rate"
    assert len(lines) == 3  # header + off-diagonal pairs of a 2-class chain


def test_cli_paths_flag_matches_n_paths_in_config(tmp_path):
    # aggregate pools n_paths chains, so --paths must reach it, not only converge
    flag = tmp_path / "flag.cfg"
    flag.write_text(SMALL_AGGREGATE + "n_paths = 3\n", encoding="utf-8")
    plain = tmp_path / "plain.cfg"
    plain.write_text(SMALL_AGGREGATE, encoding="utf-8")
    args = ["aggregate", "--quiet", "--config"]
    assert cli.main(args + [str(flag), "--paths", "1", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + [str(plain), "--out", str(tmp_path / "b")]) == 0
    for name in ("aggregate.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_paths_flag_is_validated(small_cfg_file, tmp_path, capsys):
    args = ["converge", "--config", str(small_cfg_file), "--paths", "0", "--quiet"]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "n_paths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "horizon", ["T = 1.0\ndt = 0.3", "T = 1e999"], ids=["three_tenths_step", "infinite_T"]
)
def test_cli_horizon_off_the_step_grid_is_input_error(tmp_path, capsys, horizon):
    path = tmp_path / "off.cfg"
    path.write_text(SMALL_SWITCHING + horizon + "\n", encoding="utf-8")
    args = ["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    assert cli.main(args) == 2
    assert not (tmp_path / "o").exists()
    assert "dt" in capsys.readouterr().err


def test_cli_converge_single_path_is_input_error(small_cfg_file, tmp_path, capsys):
    # one path has no standard error; aggregate at one path stays valid
    # (test_cli_paths_flag_matches_n_paths_in_config)
    args = ["converge", "--config", str(small_cfg_file), "--paths", "1", "--quiet"]
    assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "converge.csv").exists()
    assert "n_paths" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "aggregate"])
@pytest.mark.parametrize("r0", [0, 9])
def test_cli_initial_state_out_of_range_is_input_error(tmp_path, capsys, command, r0):
    path = tmp_path / "agg.cfg"
    path.write_text(SMALL_AGGREGATE + f"r0 = {r0}\n", encoding="utf-8")
    args = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    assert cli.main(args) == 2
    assert not (tmp_path / "o").exists()
    assert "r0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, key",
    [
        ('alpha = "x"', "alpha"),
        ("eps_grid = 0.1", "eps_grid"),
        ('eps_grid = [0.1, "a"]', "eps_grid"),
        ("k_trunc = 2.5", "k_trunc"),
        ("r0 = 1.0", "r0"),
    ],
    ids=["alpha_text", "eps_grid_scalar", "eps_grid_text_entry", "k_trunc_real", "r0_real"],
)
def test_cli_mistyped_value_is_input_error(tmp_path, capsys, line, key):
    path = tmp_path / "typo.cfg"
    path.write_text(SMALL_SWITCHING + line + "\n", encoding="utf-8")
    args = ["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    assert cli.main(args) == 2
    assert not (tmp_path / "o").exists()
    assert key in capsys.readouterr().err


# (preset, appended config lines, CLI flags, key the message names, a later
# command that crashed or misreported on this input before it was rejected at load)
MALFORMED = [
    pytest.param("switching_single.cfg", 'qtilde = [[-1.0, "a"], [1.0, -1.0]]', [], "qtilde", None,
                 id="qtilde_text_entry"),
    pytest.param("switching_multiclass.cfg", "qhat = [[-1.0, 1.0], [1.0, -1.0]]", [], "qhat", None,
                 id="qhat_other_size"),
    pytest.param("switching_multiclass.cfg", "partition = [[1, 2], [3]]", [], "partition", None,
                 id="partition_short"),
    pytest.param("switching_multiclass.cfg", "partition = [1, 2]", [], "partition", None,
                 id="partition_flat"),
    pytest.param("aggregate.cfg", "drift_coeffs = [0.3, 0.9]", [], "drift_coeffs", None,
                 id="drift_coeffs_short"),
    pytest.param("aggregate.cfg", 'drift_coeffs = ["a", 1, 2, 3]', [], "drift_coeffs", None,
                 id="drift_coeffs_text_entry"),
    pytest.param("switching_single.cfg", "operator_a = [1.0, -2.0]", [], "operator_a", None,
                 id="operator_a_decreasing"),
    pytest.param("switching_single.cfg", "operator_a = [1.0]", [], "operator_a", None,
                 id="operator_a_one_entry"),
    pytest.param("switching_single.cfg", "noise_l = [-1.0, -2.0]", [], "noise_l", None,
                 id="noise_l_negative"),
    pytest.param("switching_single.cfg", "checkpoints = 0", [], "checkpoints", "converge",
                 id="checkpoints_zero"),
    pytest.param("switching_single.cfg", "n_batches = 0", [], "n_batches", "converge",
                 id="n_batches_zero"),
    pytest.param("switching_single.cfg", "n_batches = 1", [], "n_batches", "converge",
                 id="n_batches_one"),
    pytest.param("switching_single.cfg", "dt = 1e999", [], "dt", "converge", id="dt_infinite"),
    pytest.param("switching_single.cfg", "seed = -1", [], "seed", "converge", id="seed_negative"),
    pytest.param("switching_single.cfg", "", ["--seed", "-5"], "seed", "converge",
                 id="seed_flag_negative"),
    pytest.param("switching_single.cfg", "eps_grid = [True]", [], "eps_grid", "converge",
                 id="eps_grid_bool"),
    pytest.param("fast_slow.cfg", "c_sub = 0.0", [], "c_sub", "converge", id="c_sub_zero"),
    pytest.param("fast_slow.cfg", "est_reps = 0", [], "est_reps", "freeze", id="est_reps_zero"),
    pytest.param("fast_slow.cfg", "est_dt = 0.0", [], "est_dt", "freeze", id="est_dt_zero"),
    pytest.param("fast_slow.cfg", "est_burn_in = 5.0\nest_horizon = 4.0", [], "est_horizon",
                 "freeze", id="est_burn_in_past_horizon"),
    pytest.param("fast_slow.cfg", "est_horizon = 0.0\nest_burn_in = -1.0", [], "est_horizon",
                 "freeze", id="est_horizon_zero"),
    # one est_dt step after the burn-in: ten empty batch means, an SE of nan and exit 0
    pytest.param("fast_slow.cfg", "est_burn_in = 1.0\nest_horizon = 1.01", [], "est_horizon",
                 "freeze", id="est_window_under_ten_steps"),
    # valid sizes beyond config.MAX_RUN_SIZE: each failed or never ended after passing check
    pytest.param("switching_single.cfg", "dt = 1e-300", [], "dt", "converge", id="dt_tiny"),
    pytest.param("switching_single.cfg", "T = 1e12", [], "T", "converge", id="T_huge"),
    pytest.param("fast_slow.cfg", "c_sub = 1e-300", [], "c_sub", "converge", id="c_sub_tiny"),
    pytest.param("fast_slow.cfg", "est_dt = 1e-300", [], "est_dt", "freeze", id="est_dt_tiny"),
    pytest.param("fast_slow.cfg", "est_horizon = 1e300", [], "est_horizon", "freeze",
                 id="est_horizon_huge"),
    pytest.param("aggregate.cfg", "eps_grid = [1e-300]", [], "eps_grid", "aggregate",
                 id="eps_grid_tiny"),
    pytest.param("switching_single.cfg", "k_trunc = 1000000000", [], "k_trunc", None,
                 id="k_trunc_huge"),
    pytest.param("switching_single.cfg", "", ["--paths", "1000000000000"], "n_paths", "converge",
                 id="paths_flag_huge"),
    pytest.param("fast_slow.cfg", "slow_gain_x = 1e999", [], "slow_gain_x", None,
                 id="slow_gain_x_infinite"),
    pytest.param("switching_multiclass.cfg", "drift_offsets = [0.5, -0.5, 0.4]", [],
                 "drift_offsets", None, id="drift_offsets_short"),
    pytest.param("switching_multiclass.cfg", "drift_gains = None", [], "drift_gains", None,
                 id="drift_gains_missing"),
    pytest.param("switching_multiclass.cfg", "partition = [[1.5, 2], [3, 4]]", [], "partition",
                 None, id="partition_non_integer"),
    pytest.param("fast_slow.cfg", "beta = 2.5", [], "beta", "freeze", id="beta_above_two"),
    # values that overflow a float: numpy's overflow warning used to come first
    pytest.param("switching_single.cfg", "x0_decay = -300.0", [], "x0_decay", "simulate",
                 id="x0_decay_overflowing"),
    pytest.param("switching_single.cfg", "operator_a = [1.0, 400.0]", [], "operator_a", None,
                 id="operator_a_overflowing"),
    # keys the scenario never reads: each passed and was echoed into summary.json as if used
    pytest.param("switching_single.cfg", "operator_b = [1.0, 400.0]", [], "operator_b",
                 "converge", id="operator_b_unread"),
    pytest.param("switching_single.cfg", "noise_z = [1.0, -400.0]", [], "noise_z", "converge",
                 id="noise_z_unread"),
    pytest.param("switching_single.cfg", "y0 = [1.0]", [], "y0", "simulate", id="y0_unread"),
    pytest.param("fast_slow.cfg", "qtilde = [[1.0]]", [], "qtilde", "converge",
                 id="qtilde_unread"),
    pytest.param("fast_slow.cfg", "drift_coeffs = ['a']", [], "drift_coeffs", "freeze",
                 id="drift_coeffs_unread"),
    # keys the drift kind or the initial-state form never reads: each passed the same way
    pytest.param("switching_single.cfg", "drift_offsets = [5.0, 7.0]", [], "drift_offsets",
                 "converge", id="drift_offsets_on_linear_drift"),
    pytest.param("switching_single.cfg", "drift_gains = [1.0, 2.0]", [], "drift_gains",
                 "converge", id="drift_gains_on_linear_drift"),
    pytest.param("switching_single.cfg", f"x0 = {X0_20}\nx0_decay = 7.0", [], "x0_decay",
                 "converge", id="x0_decay_beside_explicit_x0"),
    pytest.param("switching_multiclass.cfg", "drift_coeffs = [0.1, 0.2, 0.3, 0.4]", [],
                 "drift_coeffs", "aggregate", id="drift_coeffs_on_saturating_drift"),
]


@pytest.mark.parametrize("preset, lines, flags, key, later", MALFORMED)
def test_cli_malformed_input_is_input_error(tmp_path, capsys, preset, lines, flags, key, later):
    path = tmp_path / preset
    path.write_text((CONFIG_DIR / preset).read_text() + lines + "\n", encoding="utf-8")
    for command in ["check"] + ([later] if later else []):
        out = tmp_path / command
        args = [command, "--config", str(path), "--out", str(out), "--quiet", *flags]
        assert cli.main(args) == 2
        assert not out.exists()
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, preset",
    [
        ("freeze", "switching_single.cfg"),
        ("aggregate", "switching_single.cfg"),
        ("aggregate", "fast_slow.cfg"),
    ],
    ids=["freeze_single", "aggregate_single", "aggregate_fast_slow"],
)
def test_cli_command_on_another_scenario_is_input_error(tmp_path, capsys, command, preset):
    out = tmp_path / "o"
    args = [command, "--config", str(CONFIG_DIR / preset), "--out", str(out), "--quiet"]
    assert cli.main(args) == 2
    assert not out.exists()
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, lines, condition, commands",
    [
        ("switching_single.cfg", "qtilde = [[0.0, 0.0], [0.0, 0.0]]", "weak irreducibility",
         ["converge"]),
        (
            "switching_multiclass.cfg",
            "qtilde = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -2, 2], [0, 0, 1, -1]]",
            "block irreducibility",
            ["converge", "aggregate"],
        ),
        ("fast_slow.cfg", "fast_gain_y = 1.5", "ergodicity condition K3 < mu_1",
         ["freeze", "converge", "simulate"]),
        # the estimator keys count as read although nothing is estimated
        ("fast_slow.cfg", "fast_gain_y = 1.5\nest_reps = 8\nest_burn_in = 1.0",
         "ergodicity condition K3 < mu_1", ["freeze", "converge", "simulate"]),
    ],
    ids=["single", "multiclass", "fast_slow_not_ergodic", "fast_slow_not_ergodic_est_keys"],
)
def test_cli_reducible_qtilde_is_condition_failure(
    tmp_path, capsys, preset, lines, condition, commands
):
    # named for its first two cases; the fast-slow one fails the ergodicity condition instead
    path = tmp_path / preset
    path.write_text((CONFIG_DIR / preset).read_text() + lines + "\n", encoding="utf-8")
    args = ["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    assert cli.main(args) == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert [c["name"] for c in summary["conditions"] if not c["passed"]] == [condition]
    # every experiment refuses to start: exit 1, the failure on stderr, no output directory
    for command in commands:
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("condition failure:")
        assert not out.exists()


@pytest.mark.parametrize(
    "preset, lines",
    [
        ("fast_slow.cfg", "beta = 1.7"),
        ("fast_slow.cfg", "slow_gain_x = 0.7"),
        ("fast_slow.cfg", "slow_offset = 0.1"),
        ("fast_slow.cfg", f"x0 = {X0_20}"),
        ("fast_slow.cfg", f"y0 = {X0_20}"),
        ("switching_single.cfg", f"x0 = {X0_20}"),
        ("switching_single.cfg", "qhat = [[-0.5, 0.5], [0.5, -0.5]]\nr0 = 2"),
    ],
    ids=["beta", "slow_gain_x", "slow_offset", "fast_slow_x0", "y0", "single_x0", "qhat_r0"],
)
def test_cli_keys_the_scenario_reads_pass_check(tmp_path, preset, lines):
    # each key is read by a constructor the scenario's commands call, so none is refused
    path = tmp_path / preset
    path.write_text((CONFIG_DIR / preset).read_text() + lines + "\n", encoding="utf-8")
    args = ["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"]
    assert cli.main(args) == 0


def _cli_subprocess(*args):
    """Run the CLI in a subprocess, where numpy's overflow warnings stay warnings."""
    env = {**os.environ, "PYTHONPATH": str(Path(stablespde.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "stablespde.cli", *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "coeff, bad_eps", [("20000.0", "0.1, 0.05, 0.02, 0.01, 0.005"), ("900.0", "0.005")]
)
def test_cli_converge_refuses_non_finite_results(tmp_path, coeff, bad_eps):
    # a reaction far above lambda_1 overflows: inf norms at 20000, an inf SE at 900 and
    # eps = 0.005.
    path = tmp_path / "exp.cfg"
    extra = f"n_paths = 4\ndrift_coeffs = [{coeff}, {coeff}]\n"
    path.write_text((CONFIG_DIR / "switching_single.cfg").read_text() + extra, encoding="utf-8")
    out = tmp_path / "out"
    proc = _cli_subprocess("converge", "--config", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert (
        f"condition failure: non-finite pair norms or error table entries at eps = {bad_eps}\n"
        in proc.stderr
    )
    assert not out.exists()


def test_cli_simulate_refuses_non_finite_checkpoints(tmp_path):
    # at reaction 20000 the coefficients reach 2.8e158 by t = 0.98, and their H-norm overflows
    path = tmp_path / "exp.cfg"
    extra = "drift_coeffs = [20000.0, 20000.0]\n"
    path.write_text((CONFIG_DIR / "switching_single.cfg").read_text() + extra, encoding="utf-8")
    out = tmp_path / "out"
    proc = _cli_subprocess("simulate", "--config", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "condition failure: non-finite values in the checkpoint at t = 0.98\n" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "line, key, commands",
    [("x0_decay = -300.0", "x0_decay", ["check", "simulate", "converge"]),
     ("operator_a = [1.0, 400.0]", "operator_a", ["check"])],
    ids=["x0_decay", "operator_a"],
)
def test_cli_overflowing_input_prints_only_its_message(tmp_path, line, key, commands):
    # outside pytest numpy's overflow warnings stay warnings: none may reach stderr
    path = tmp_path / "exp.cfg"
    path.write_text((CONFIG_DIR / "switching_single.cfg").read_text() + line + "\n",
                    encoding="utf-8")
    for command in commands:
        out = tmp_path / command
        proc = _cli_subprocess(command, "--config", str(path), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"input error: {key}")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert not out.exists()


def test_saturating_drift_without_offsets_runs(tmp_path):
    # the bounded-saturating drift with drift_offsets absent: zero offsets, and a run that ends
    path = tmp_path / "exp.cfg"
    text = (CONFIG_DIR / "switching_multiclass.cfg").read_text() + "drift_offsets = None\n"
    path.write_text(text, encoding="utf-8")
    drift = parse_config(text).regime_drift()
    assert np.array_equal(drift.offsets, np.zeros(4))
    out = tmp_path / "out"
    assert cli.main(["check", "--config", str(path), "--out", str(out / "c"), "--quiet"]) == 0
    args = ["converge", "--config", str(path), "--out", str(out / "v"), "--paths", "3", "--quiet"]
    assert cli.main(args) == 0
    table = np.loadtxt(out / "v" / "converge.csv", delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == (5, 5) and np.isfinite(table).all()


def test_cli_aggregate_refuses_a_class_it_never_visits(tmp_path):
    # over T = 0.02 the chain, started in class 1, stays there: class 2's rates are undefined
    path = tmp_path / "exp.cfg"
    path.write_text((CONFIG_DIR / "aggregate.cfg").read_text() + "T = 0.02\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = _cli_subprocess("aggregate", "--config", str(path), "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "condition failure: zero occupation time in class 2\n" in proc.stderr
    assert not out.exists()


# Builders each scenario's commands call on a config that passed the input gate.
_BUILDERS = {
    "switching-single": ("generator_pair", "regime_drift"),
    "switching-multiclass": ("generator_pair", "regime_drift", "class_partition", "qtilde_blocks"),
    "fast-slow": ("op_b", "weights_z", "initial_fast_state", "estimator_config"),
}
# small ints (k_trunc among them), finite and infinite reals, short strings,
# short and nested lists, None and a bool, as config literals
_VALUES = [
    "-1", "0", "1", "3", "-1.0", "0.0", "0.5", "2.0", "1e999", "-1e999", "'a'", "'fast-slow'",
    "[]", "[1]", "[0.5, 2.0]", "[1.0, -2.0]", "['a', 1]", "[[1, 2], [3]]", "[[1], [2]]",
    "[[-1.0, 1.0], [1.0, -1.0]]", "[[0.0, 0.0], [0.0, 0.0]]", "None", "True",
]


@given(
    base=st.sampled_from([SMALL_SWITCHING, SMALL_AGGREGATE, SMALL_FAST_SLOW]),
    overrides=st.dictionaries(
        st.sampled_from(sorted(vars(ExperimentConfig()))), st.sampled_from(_VALUES),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=150, deadline=None)
def test_cli_check_exit_code_is_0_1_or_2(base, overrides):
    text = base + "".join(f"{k} = {v}\n" for k, v in overrides.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        rc = cli.main(["check", "--config", str(path), "--out", str(Path(tmp) / "o"), "--quiet"])
    assert rc in (0, 1, 2)
    if rc != 2:
        cfg = parse_config(text)
        for name in ("op_a", "weights_l", "initial_state", *_BUILDERS[cfg.scenario]):
            getattr(cfg, name)()


def test_package_imports_without_scipy():
    src = Path(stablespde.__file__).resolve().parent.parent
    code = "import sys, stablespde; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
