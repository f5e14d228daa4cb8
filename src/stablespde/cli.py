"""Command-line surface: check | simulate | converge | freeze | aggregate.

Exit codes: 0 success, 1 condition failure, 2 input error.  Outputs are CSV
files plus one summary.json per run; fixed seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .config import ConfigError, config_echo, load_config
from .harness import ConditionError
from .spectral import h_norm

EXIT_OK = 0
EXIT_CONDITION = 1
EXIT_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablespde",
        description="Two-time-scale stable-noise SPDE simulation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("check", "reject malformed input, then evaluate every standing assumption"),
        ("simulate", "dump one seeded trajectory"),
        ("converge", "coupled eps-sweep with rate fit"),
        ("freeze", "frozen-equation averaged-drift estimates and decay probe"),
        ("aggregate", "multiclass aggregation diagnostics"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--quiet", action="store_true")
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.paths is not None:
        cfg.n_paths = args.paths
    cfg.validate()
    return cfg


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _summary(cfg, report, checks):
    """Config echo and condition report shared by every summary.json."""
    return {
        "config": config_echo(cfg),
        "admissibility": {
            "delta_partial": report.delta_partial,
            "delta_tail_bound": report.delta_tail_bound,
            "kappa2_partial": report.kappa2_partial,
            "kappa2_tail_bound": report.kappa2_tail_bound,
            "theta": report.theta,
            "passed": report.passed,
        },
        "conditions": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }


def cmd_check(args) -> int:
    cfg = _load(args)
    report, checks = harness.run_check(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_summary(out / "summary.json", _summary(cfg, report, checks))
    all_ok = all(c.passed for c in checks)
    for c in checks:
        _say(args, f"[{'PASS' if c.passed else 'FAIL'}] {c.name}  {c.detail}")
    return EXIT_OK if all_ok else EXIT_CONDITION


def cmd_converge(args) -> int:
    cfg = _load(args)
    checked, table, sup_table, fit, notice = harness.run_converge(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv(out / "converge.csv", "eps,p,error,se,n_paths", table.rows())
    payload = {
        **_summary(cfg, *checked),
        "error_table": [list(r) for r in table.rows()],
        "sup_error_table": [list(r) for r in sup_table.rows()],
        "rate_fit": None
        if fit is None
        else {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "theoretical_exponent_bound": fit.theoretical_exponent,
        },
        "notice": notice,
    }
    harness.write_summary(out / "summary.json", payload)
    for eps, p, err, se, n in table.rows():
        _say(args, f"eps={eps:<8g} error={err:.6g} se={se:.3g} (n={n})")
    if fit is not None:
        _say(
            args,
            f"log-log slope {fit.slope:.4f} (r2={fit.r_squared:.3f}); "
            f"theoretical exponent bound {fit.theoretical_exponent:.4f}",
        )
    elif notice:
        _say(args, notice)
    return EXIT_OK


def cmd_freeze(args) -> int:
    cfg = _load(args)
    checked, rows, (t_grid, decay), stats = harness.run_freeze(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv(out / "freeze.csv", "z_id,component,bbar,se", rows)
    harness.write_csv(
        out / "freeze_decay.csv", "t,deviation", zip(map(float, t_grid), map(float, decay))
    )
    payload = {**_summary(cfg, *checked), **stats}
    harness.write_summary(out / "summary.json", payload)
    _say(args, f"decay rate {stats['decay_rate']:.4f}; y0 gap {stats['y0_gap_in_combined_se']:.2f} SE")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    cfg = _load(args)
    checked, qbar, rows, per_class = harness.run_aggregate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_csv(
        out / "aggregate.csv", "from_class,to_class,empirical_rate,qbar_rate", rows
    )
    payload = {
        **_summary(cfg, *checked),
        "qbar": qbar.rates.tolist(),
        "per_class": per_class,
    }
    harness.write_summary(out / "summary.json", payload)
    for i, j, emp, theo in rows:
        _say(args, f"class {i}->{j}: empirical {emp:.4f} vs limit {theo:.4f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    checked, rec = harness.run_simulate(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    k = rec.states.shape[1]
    header = "t,h_norm," + ",".join(f"coef_{i + 1}" for i in range(k)) + ",u_mid"
    rows = (
        [float(t), h_norm(s), *map(float, s), harness.synthesize_point(s, np.pi / 2)]
        for t, s in zip(rec.times, rec.states)
    )
    harness.write_csv(out / "simulate.csv", header, rows)
    harness.write_summary(out / "summary.json", _summary(cfg, *checked))
    _say(args, f"wrote {rec.times.size} checkpoints to {out / 'simulate.csv'}")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "freeze": cmd_freeze,
    "aggregate": cmd_aggregate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConditionError as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return EXIT_CONDITION


if __name__ == "__main__":
    sys.exit(main())
