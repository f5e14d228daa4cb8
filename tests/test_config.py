import json
import re
from pathlib import Path

import numpy as np
import pytest

from stablespde import cli
from stablespde.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_parse_minimal_switching():
    cfg = parse_config(
        """
        scenario = "switching-single"
        qtilde = [[-1.0, 1.0], [1.0, -1.0]]
        drift_coeffs = [0.3, 0.9]
        """
    )
    assert cfg.alpha == 1.5
    assert cfg.generator_pair()[0].n_states == 2
    assert cfg.regime_drift().n_regimes == 2


def test_parse_comments_and_blank_lines():
    cfg = parse_config(
        """
        # a comment
        alpha = 1.8   # trailing comment

        qtilde = [[-1.0, 1.0], [1.0, -1.0]]
        drift_coeffs = [0.1, 0.2]
        """
    )
    assert cfg.alpha == 1.8


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'alphaa'"):
        parse_config("alpha = 1.5\nalphaa = 2.0")


def test_bad_literal_reports_key():
    with pytest.raises(ConfigError, match="cannot parse value for 'alpha'"):
        parse_config("alpha = one point five")


def test_unquoted_string_names_the_value_not_an_ast_node():
    # literal_eval's text for a bare name shows an AST node's memory address, new every run
    with pytest.raises(ConfigError) as info:
        parse_config("scenario = fast-slow")
    message = str(info.value)
    assert "fast-slow" in message and "quote" in message
    assert not re.search(r"0x[0-9a-f]+", message)


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("alpha 1.5")


def test_validation_alpha_range():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 2.5\nqtilde = [[0.0]]\ndrift_coeffs = [0.1]")


def test_validation_p_range():
    with pytest.raises(ConfigError, match="p must lie"):
        parse_config("alpha = 1.5\np = 1.6\nqtilde = [[0.0]]\ndrift_coeffs = [0.1]")


def test_validation_eps_grid_decreasing():
    with pytest.raises(ConfigError, match="eps_grid"):
        parse_config("eps_grid = [0.01, 0.1]\nqtilde = [[0.0]]")


def test_validation_requires_generator_for_switching():
    with pytest.raises(ConfigError, match="requires qtilde"):
        parse_config('scenario = "switching-single"')


def test_validation_multiclass_requires_partition():
    with pytest.raises(ConfigError, match="requires partition"):
        parse_config('scenario = "switching-multiclass"\nqtilde = [[0.0]]')


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config('scenario = "warp-drive"')


def test_default_initial_state_power_law():
    cfg = ExperimentConfig(k_trunc=4)
    assert np.allclose(cfg.initial_state(), [1.0, 0.25, 1 / 9, 1 / 16])
    cfg2 = ExperimentConfig(k_trunc=2, x0=[0.5, 0.5])
    assert np.allclose(cfg2.initial_state(), [0.5, 0.5])
    with pytest.raises(ConfigError, match="x0 length"):
        ExperimentConfig(k_trunc=3, x0=[1.0]).initial_state()


def test_generator_pair_defaults_qhat_to_zero():
    cfg = ExperimentConfig(qtilde=[[-1.0, 1.0], [1.0, -1.0]])
    qt, qh = cfg.generator_pair()
    assert np.allclose(qh.rates, 0.0)
    bad = ExperimentConfig(qtilde=[[-1.0, 0.5], [1.0, -1.0]])
    with pytest.raises(ConfigError, match="qtilde"):
        bad.generator_pair()


def test_partition_one_based_translation():
    cfg = ExperimentConfig(partition=[[1, 2], [3]])
    part = cfg.class_partition()
    assert part.classes == ((0, 1), (2,))


def test_qtilde_blocks_extraction():
    cfg = ExperimentConfig(
        qtilde=[
            [-1.0, 1.0, 0.0],
            [2.0, -2.0, 0.0],
            [0.0, 0.0, 0.0],
        ],
        partition=[[1, 2], [3]],
    )
    blocks = cfg.qtilde_blocks()
    assert np.allclose(blocks[0].rates, [[-1.0, 1.0], [2.0, -2.0]])
    assert blocks[1].rates.shape == (1, 1)


def test_drift_selection():
    lin = ExperimentConfig(drift_coeffs=[0.1, 0.2]).regime_drift()
    assert lin.n_regimes == 2
    sat = ExperimentConfig(
        drift="bounded-saturating", drift_gains=[0.5, 0.5], drift_offsets=[0.0, 1.0]
    ).regime_drift()
    assert sat(np.zeros(2), 1).tolist() == [1.0, 1.0]
    with pytest.raises(ConfigError, match="drift_coeffs"):
        ExperimentConfig().regime_drift()


def test_fast_drift_is_slow_state_independent():
    fast = ExperimentConfig(fast_gain_y=0.5).fast_coupled_drift()
    y = np.array([0.3, -0.7])
    assert np.array_equal(fast(np.zeros(2), y), fast(np.ones(2) * 9, y))
    assert fast.grad_y_bound == 0.5


def test_shipped_presets_parse_and_validate():
    for name in (
        "switching_single.cfg",
        "switching_multiclass.cfg",
        "fast_slow.cfg",
        "aggregate.cfg",
    ):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.k_trunc == 20


def test_config_echo_roundtrips_through_defaults(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("alpha = 1.7\nqtilde = [[0.0]]\ndrift_coeffs = [0.3]", encoding="utf-8")
    cli.main(["check", "--config", str(path), "--out", str(tmp_path / "o"), "--quiet"])
    echo = json.loads((tmp_path / "o" / "summary.json").read_text())["config"]
    assert echo["alpha"] == 1.7
    assert echo["scenario"] == "switching-single"
    assert set(echo) >= {"eps_grid", "seed", "k_trunc", "dt"}


def test_size_gate_counts_the_fast_substeps_the_solve_takes():
    # 3 steps x 7 substeps x 450,000 modes = 9.45e6 values, under MAX_RUN_SIZE;
    # a gate that takes the ceiling of 7.000000000000001 counts 1.08e7 and refuses
    extra = (
        "T = 0.21\ndt = 0.07\neps_grid = [0.02]\nc_sub = 0.5\nk_trunc = 450000\n"
        "est_burn_in = 0.0\nest_horizon = 0.5\n"
    )
    cfg = parse_config((CONFIG_DIR / "fast_slow.cfg").read_text() + extra)
    assert cfg.k_trunc == 450000


def test_size_gate_counts_the_jump_targets_of_qtilde_and_qhat():
    # a 220-state ring has 440 jump targets: a table of 220 x 443 entries passes; a dense
    # qhat adds every other target, 220 x (220 x 219 + 3) = 1.06e7 entries, and is refused
    n = 220
    ring = np.zeros((n, n))
    ring[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    ring[np.arange(n), (np.arange(n) - 1) % n] = 1.0
    np.fill_diagonal(ring, -2.0)
    dense = np.full((n, n), 0.01)
    np.fill_diagonal(dense, -0.01 * (n - 1))
    text = (CONFIG_DIR / "switching_single.cfg").read_text()
    text += f"qtilde = {ring.tolist()}\ndrift_coeffs = {[0.5] * n}\n"
    assert parse_config(text).qhat is None
    with pytest.raises(ConfigError, match=r"qtilde, qhat \+ 3\) = 1\.06e\+07 exceeds"):
        parse_config(text + f"qhat = {dense.tolist()}\n")


@pytest.mark.parametrize(
    "preset, lines, key",
    [
        ("switching_single.cfg", "drift_offsets = [5.0, 7.0]", "drift_offsets"),
        ("switching_single.cfg", f"x0 = {[0.5] * 20}\nx0_decay = 7.0", "x0_decay"),
        ("switching_multiclass.cfg", "drift_coeffs = [0.1, 0.2, 0.3, 0.4]", "drift_coeffs"),
        ("fast_slow.cfg", "r0 = 2", "r0"),
    ],
    ids=["drift_offsets_on_linear", "x0_decay_beside_x0", "drift_coeffs_on_saturating",
         "r0_on_fast_slow"],
)
def test_unread_key_is_refused_naming_key_and_scenario(preset, lines, key):
    text = (CONFIG_DIR / preset).read_text() + lines + "\n"
    scenario = load_config(CONFIG_DIR / preset).scenario
    with pytest.raises(ConfigError, match=f"^{key} is not read by scenario {scenario}"):
        parse_config(text)
