"""Command line interface.

    qcs-sim <subcommand> --config <path> --out <dir> [--seed S] [--trials N]
    qcs-sim sweep --protocol P --config <path> --out <dir> [--seed S] [--trials N]
                  --sweep-param NAME --sweep-values V1,V2,...

Subcommands: qcs, beat, syntonize, esct, compare, sweep. Only the sweep
subcommand takes --protocol, to choose what runs at each grid point, and the
--sweep-param/--sweep-values grid. --seed/--trials override the values stored
in the config file, once, through ScenarioConfig.with_run.

Exit codes: 0 success, 2 configuration/validation error, 3 runtime error.
"""
from __future__ import annotations

import argparse
import sys
from decimal import Decimal

from .config import ScenarioConfig, _schema, load_config
from .errors import ConfigError
from .harness import SUBCOMMANDS, SWEEP_PROTOCOLS, run_experiment


def _parse_values(text: str, param: str | None = None) -> list[float]:
    """The grid of `param` as floats.

    An integer that its float does not hold exactly is a ConfigError: an
    integer literal for any parameter, and for an integer field (`seed`,
    `trials`, `ensemble_size`) any integral entry, such as
    9007199254740993.0. On a float field, 1e30 runs as its float.
    """
    tokens = [tok.strip() for tok in text.split(",") if tok.strip() != ""]
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"--sweep-values must be comma-separated numbers, got {text!r}")
    int_field = _schema(ScenarioConfig)[0].get(param) is int
    for tok, value in zip(tokens, values):
        try:
            exact = int(tok)
        except ValueError:  # not an integer literal
            exact = Decimal(tok)  # exact, without expanding an exponent such as 1e999999
            if not (int_field and exact == exact.to_integral_value()):
                continue
        if exact != value:
            field = f"{param}: " if param else ""
            raise ConfigError(f"{field}--sweep-values entry {tok!r} is an integer that no "
                              f"float holds exactly; it would run as {value!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcs-sim",
        description="Monte Carlo simulator of entanglement-based clock "
        "synchronization and its slow-clock-transport baseline",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="u64 seed (overrides config)")
        p.add_argument("--trials", type=int, default=None, help="trial count (overrides config)")
        if name == "sweep":
            p.add_argument("--sweep-param", default=None, help="parameter path to sweep")
            p.add_argument("--sweep-values", default=None, help="comma-separated grid values")
            p.add_argument(
                "--protocol", default=None, choices=SWEEP_PROTOCOLS,
                help="protocol to run at each grid point",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        values = getattr(args, "sweep_values", None)
        summary = run_experiment(
            args.subcommand,
            cfg,
            args.out,
            seed=args.seed,
            trials=args.trials,
            protocol=getattr(args, "protocol", None),
            sweep_param=getattr(args, "sweep_param", None),
            sweep_values=_parse_values(values, args.sweep_param) if values else None,
        )
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if "ratio" in summary and summary.get("ratio") is not None:
        print(
            f"rms_qcs={summary['rms_qcs']:.6e} rms_esct={summary['rms_esct']:.6e} "
            f"ratio={summary['ratio']:.4f}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
