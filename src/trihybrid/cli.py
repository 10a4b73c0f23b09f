"""Command-line front end.

Subcommands::

    run      Monte-Carlo batch over trials x power points x modes
    sweep    power sweep (all modes; 0..30 dBm in 5 dB steps by default)
    trace    per-iteration convergence trace for one seed
    project  apply a candidate pattern set to the configured runs

Each subcommand takes only the flags it reads, and a config file that sets a
field the subcommand never reads is a configuration error.  Values come from
the subcommand's defaults, then the config file, then the flags.  Exit codes:
0 success, 1 configuration error, 2 batch finished with failed trials
(flagged as NaN rows in the CSV) or an argparse usage error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from .harness import (
    ConfigError,
    convergence_trace,
    emit_csv,
    emit_trace_csv,
    load_candidate_set,
    parse_config,
    run_trials,
)
from .projection import PatternLoadError

SWEEP_DBM = tuple(float(p) for p in range(0, 31, 5))

# Per subcommand: its description; the RunConfig fields it never reads, for
# which it has no flag and which its config file may not set; and its
# defaults, which the file and the flags override.  A default of a field the
# file may not set and no flag sets is fixed.
SUBCOMMANDS = {
    "run": ("run a Monte-Carlo batch and write one CSV row per trial", (), {}),
    "sweep": (
        "run a transmit-power sweep over all modes",
        ("mode",),
        {"mode": "all", "pmax_dbm": SWEEP_DBM},
    ),
    "trace": (
        "write the per-iteration convergence trace for one seed",
        ("trials", "mode", "workers", "patterns_path", "refit"),
        {"out_path": "trace.csv"},
    ),
    "project": (
        "project optimized patterns onto a candidate set",
        ("mode",),
        {"mode": "projected"},
    ),
}

# The flag of each RunConfig field the command line sets, and its argparse
# spec; the parsed value lands under the field's name, None when not given.
FLAGS = {
    "seed": ("--seed", dict(type=int, help="base seed (trial t uses seed+t)")),
    "pmax_dbm": (
        "--pmax-dbm",
        dict(type=float, nargs="+", metavar="DBM", help="transmit power budget(s) in dBm"),
    ),
    "out_path": ("--out", dict(metavar="PATH", help="output CSV path")),
    "trials": ("--trials", dict(type=int, help="number of Monte-Carlo trials")),
    "mode": (
        "--mode",
        dict(choices=("trihybrid", "hybrid", "projected", "all"),
             help="which pipeline(s) to run"),
    ),
    "patterns_path": ("--patterns", dict(metavar="FILE", help="candidate pattern set file")),
    "refit": (
        "--no-refit",
        dict(action="store_false", default=None,
             help="skip re-optimizing the digital precoder after projection"),
    ),
    "workers": ("--workers", dict(type=int, help="parallel trial workers")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trihybrid",
        description="Multi-user precoding simulator with reconfigurable radiation patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, unread, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=desc, description=desc)
        sp.add_argument("--config", metavar="FILE", help="JSON config file")
        for field, (flag, spec) in FLAGS.items():
            if field not in unread:
                sp.add_argument(flag, dest=field, **spec)
        sp.add_argument("-v", "--verbose", action="store_true", help="log per-trial info")
    return parser


def _print_summary(records, config) -> None:
    """Mean sum rate per power point (rows) and mode (columns) over the
    successful trials; projected rows report the rate after projection."""
    modes = config.modes()
    print(f"mean sum rate (bits/s/Hz) over {config.trials} trial(s), failures excluded")
    print(f"{'P_max [dBm]':>12}" + "".join(f"{mode:>12}" for mode in modes))
    for pmax in config.pmax_dbm:
        cells = []
        for mode in modes:
            rates = [
                r.projected_sum_rate if mode == "projected" else r.sum_rate
                for r in records
                if r.mode == mode and r.pmax_dbm == pmax and r.error is None
            ]
            cells.append(sum(rates) / len(rates) if rates else math.nan)
        print(f"{pmax:>12g}" + "".join(f"{cell:>12.4f}" for cell in cells))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    _, unread, defaults = SUBCOMMANDS[args.command]
    overrides = {k: v for k, v in vars(args).items() if k in FLAGS}
    try:
        config = parse_config(args.config, overrides, defaults=defaults, unread=unread)
        # an output that cannot be written fails here, not after the batch
        out, out_dir = config.out_path, os.path.dirname(config.out_path) or "."
        if os.path.isdir(out) or not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
            raise ConfigError(f"out_path: {out!r} is not a file in a writable directory")
        if args.command == "trace":
            rows = convergence_trace(config, config.seed)
            emit_trace_csv(rows, config.out_path)
            for row in {r.mode: r for r in rows}.values():  # last row of each mode
                print(
                    f"{row.mode}: {row.iteration} iterations, final sum rate "
                    f"{row.sum_rate:.4f} bits/s/Hz"
                )
            print(f"wrote {len(rows)} trace rows to {config.out_path}")
            return 0

        if "projected" in config.modes():
            load_candidate_set(config)  # fail fast on a bad pattern file
        records = run_trials(config)
        emit_csv(records, config.out_path)
        failures = sum(1 for r in records if r.error is not None)
        _print_summary(records, config)
        print(f"wrote {len(records)} records to {config.out_path}")
        if failures:
            print(f"{failures} trial(s) failed; see log", file=sys.stderr)
            return 2
        return 0
    except (ConfigError, PatternLoadError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
