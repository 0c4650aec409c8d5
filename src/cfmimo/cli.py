"""Command-line front end.

Four subcommands: ``sweep`` runs the antenna-split experiment and writes
CSV plus sidecar, ``drop`` inspects a single drop, ``validate`` runs the
closed-form versus brute-force oracle suite, ``show-config`` prints the
resolved configuration.  Exit codes: 0 success, 1 configuration problems
(including bad arguments), 2 numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__, experiment, oracle
from .channel import NumericalError
from .scenario import ConfigError, ScenarioConfig, derive_site_count, \
    load_config

QUICK_FACTOR = 10          # --quick divides drops and oracle samples by this


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for numerical
    # failures here, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{flag} expects comma-separated {noun}, "
                          f"got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cfmimo",
                     description="cell-free massive MIMO rate and "
                                 "cost-effectiveness simulator")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, drops=True):
        p.add_argument("--config", metavar="PATH",
                       help="JSON scenario config (defaults apply if omitted)")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the master seed")
        if drops:
            p.add_argument("--drops", type=int, metavar="N",
                           help="override the drop count")
        p.add_argument("--quick", action="store_true",
                       help=f"scale drops and oracle samples down "
                            f"{QUICK_FACTOR}x for smoke runs")

    p_sweep = sub.add_parser("sweep", help="antenna-split sweep to CSV")
    common(p_sweep)
    p_sweep.add_argument("--output", metavar="PATH", default="sweep.csv")
    p_sweep.add_argument("--nt", metavar="LIST",
                         help="comma-separated antennas-per-site values")
    p_sweep.add_argument("--ratios", metavar="LIST",
                         help="comma-separated per-antenna/per-site cost ratios")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (results identical for any N)")

    p_drop = sub.add_parser("drop", help="inspect a single drop")
    common(p_drop)
    p_drop.add_argument("--index", type=int, default=0, metavar="I")

    p_val = sub.add_parser("validate",
                           help="closed-form versus brute-force oracle suite")
    common(p_val, drops=False)         # validate inspects drop 0 only
    p_val.add_argument("--output", metavar="PATH",
                       help="also write the report as CSV")
    p_val.add_argument("--samples", type=int, metavar="N",
                       help=f"oracle sample count "
                            f"(default {oracle.REFERENCE_SAMPLES})")

    p_show = sub.add_parser("show-config", help="print the resolved config")
    common(p_show)
    return parser


def _resolve_config(args, default=ScenarioConfig) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else default()
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "drops", None) is not None:   # validate has no --drops
        changes["drops"] = args.drops
    if args.quick and hasattr(args, "drops"):       # nor drops to scale
        changes["drops"] = max(1, changes.get("drops", cfg.drops)
                               // QUICK_FACTOR)
    if changes:
        cfg = dataclasses.replace(cfg, **changes)
    return cfg


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    nt_list = None if args.nt is None else _parse_list(args.nt, "--nt", int)
    ratios = None if args.ratios is None \
        else _parse_list(args.ratios, "--ratios", float)

    def progress(n_t, done, total):
        print(f"\r  n_t={n_t}: drop {done}/{total}", end="",
              file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

    records = experiment.sweep(cfg, nt_list, ratios, jobs=args.jobs,
                               progress=progress)
    experiment.write_records_csv(records, args.output)
    experiment.write_metadata(args.output, cfg, records)
    print(f"wrote {len(records)} records to {args.output} "
          f"(+ {experiment.metadata_path(args.output)})")
    return 0


def _cmd_drop(args) -> int:
    cfg = _resolve_config(args)
    if args.index < 0 or args.index >= cfg.drops:
        raise ConfigError(f"drop index {args.index} outside [0, {cfg.drops})")
    reports = experiment.run_drop(cfg, args.index)
    print(f"drop {args.index} (seed {cfg.master_seed}, "
          f"n_t={cfg.antennas_per_ap}, {derive_site_count(cfg)} sites, "
          f"{cfg.num_users} users)")
    for rep in reports:
        users = "  ".join(f"{se:7.4f}" for se in rep.per_user_se)
        print(f"  {rep.scheme:<7} sum {rep.sum_rate:8.4f} bit/s/Hz | "
              f"per user: {users}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _resolve_config(args, oracle.reference_config)
    n = oracle.REFERENCE_SAMPLES if args.samples is None else args.samples
    if args.quick:
        # the 1000-sample floor never raises an explicit, smaller count
        n = min(n, max(1000, n // QUICK_FACTOR))
    rows = oracle.validate_instance(cfg, n)
    print(oracle.rows_to_text(rows))
    if args.output:
        oracle.rows_to_csv(rows, args.output)
        print(f"wrote report to {args.output}")
    if not all(r.passed for r in rows):
        raise NumericalError("oracle validation failed, see report above")
    return 0


def _cmd_show_config(args) -> int:
    import json
    cfg = _resolve_config(args)
    print(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True))
    return 0


_COMMANDS = {"sweep": _cmd_sweep, "drop": _cmd_drop,
             "validate": _cmd_validate, "show-config": _cmd_show_config}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"cfmimo: error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"cfmimo: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"cfmimo: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
