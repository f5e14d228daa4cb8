"""Command-line surface: check | simulate | converge | freeze | aggregate.

Exit codes: 0 success, 1 condition failure, 2 input error.  Outputs are CSV
files plus one summary.json per run; fixed seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import harness
from .config import ConfigError, load_config
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
    for name, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--paths", type=int, default=None, help="override n_paths")
        p.add_argument("--quiet", action="store_true")
    return parser


# Each subcommand runs its experiment and returns ((report, checks), its CSVs
# as {file name: (header, rows)}, its summary.json keys beyond the shared
# ones, and the lines it prints).


def _check(cfg, out):
    report, checks = harness.run_check(cfg)
    lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}  {c.detail}" for c in checks]
    return (report, checks), {}, {}, lines


def _converge(cfg, out):
    checked, table, sup_table, fit, notice = harness.run_converge(cfg)
    rows = list(table.rows())
    lines = [f"eps={eps:<8g} error={err:.6g} se={se:.3g} (n={n})" for eps, _, err, se, n in rows]
    fit_block = None
    if fit is not None:
        lines.append(
            f"log-log slope {fit.slope:.4f} (r2={fit.r_squared:.3f}); "
            f"theoretical exponent bound {fit.theoretical_exponent:.4f}"
        )
        fit_block = asdict(fit)
        fit_block["theoretical_exponent_bound"] = fit_block.pop("theoretical_exponent")
    else:
        lines.append(notice)
    extra = {
        "error_table": [list(r) for r in rows],
        "sup_error_table": [list(r) for r in sup_table.rows()],
        "rate_fit": fit_block,
        "notice": notice,
    }
    return checked, {"converge.csv": ("eps,p,error,se,n_paths", rows)}, extra, lines


def _freeze(cfg, out):
    checked, rows, (t_grid, decay), stats = harness.run_freeze(cfg)
    csvs = {
        "freeze.csv": ("z_id,component,bbar,se", rows),
        "freeze_decay.csv": ("t,deviation", zip(map(float, t_grid), map(float, decay))),
    }
    rate = stats["notice"] or f"decay rate {stats['decay_rate']:.4f}"
    line = f"{rate}; y0 gap {stats['y0_gap_in_combined_se']:.2f} SE"
    return checked, csvs, stats, [line]


def _aggregate(cfg, out):
    checked, qbar, rows, per_class = harness.run_aggregate(cfg)
    csvs = {"aggregate.csv": ("from_class,to_class,empirical_rate,qbar_rate", rows)}
    lines = [f"class {i}->{j}: empirical {emp:.4f} vs limit {theo:.4f}" for i, j, emp, theo in rows]
    return checked, csvs, {"qbar": qbar.rates.tolist(), "per_class": per_class}, lines


def _simulate(cfg, out):
    checked, rec = harness.run_simulate(cfg)
    k = rec.states.shape[1]
    header = "t,h_norm," + ",".join(f"coef_{i + 1}" for i in range(k)) + ",u_mid"
    rows = [
        [float(t), h_norm(s), *map(float, s), harness.synthesize_point(s, np.pi / 2)]
        for t, s in zip(rec.times, rec.states)
    ]
    bad = [row[0] for row in rows if not np.isfinite(row).all()]
    if bad:
        raise ConditionError(f"non-finite values in the checkpoint at t = {bad[0]:g}")
    line = f"wrote {rec.times.size} checkpoints to {out / 'simulate.csv'}"
    return checked, {"simulate.csv": (header, rows)}, {}, [line]


# subcommand -> (adapter, help), in the order --help lists them
_COMMANDS = {
    "check": (_check, "reject malformed input, then evaluate every standing assumption"),
    "simulate": (_simulate, "dump one seeded trajectory"),
    "converge": (_converge, "coupled eps-sweep with rate fit"),
    "freeze": (_freeze, "frozen-equation averaged-drift estimates and decay probe"),
    "aggregate": (_aggregate, "multiclass aggregation diagnostics"),
}


def _run(args) -> int:
    """Load the config, ``--seed``/``--paths`` replacing its values before the one validation;
    run the subcommand, write its files, print its lines.

    Every condition that failed makes exit code 1; only ``check`` returns
    with one, the other experiments raise ConditionError before running,
    ``converge`` and ``simulate`` also when their results are not finite, and
    ``aggregate`` when a class has no occupation time.
    """
    cfg = load_config(args.config, args.seed, args.paths)
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    (report, checks), csvs, extra, lines = _COMMANDS[args.command][0](cfg, out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in csvs.items():
        harness.write_csv(out / name, header, rows)
    summary = {
        "config": asdict(cfg),
        "admissibility": asdict(report),
        "conditions": [asdict(c) for c in checks],
        **extra,
    }
    harness.write_summary(out / "summary.json", summary)
    if not args.quiet:
        for line in lines:
            print(line)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CONDITION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConditionError as exc:
        print(f"condition failure: {exc}", file=sys.stderr)
        return EXIT_CONDITION


if __name__ == "__main__":
    sys.exit(main())
