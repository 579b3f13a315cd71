"""Command-line harness: parses arguments, runs the ``experiment`` functions
and prints or writes their reports.

Subcommands: gen-data, train, unlearn, benchmark, verify-theory, ldp.  Each
takes only the flags it reads, as ``COMMANDS`` lists them; any other flag is
a usage error (exit 2).  Log level via UNLEARN_FORGE_LOG.

Exit codes: 0 success, 2 config error, 3 domain error, 4 solver error.  A
file that cannot be opened is a config error naming the flag or key that gave
its path; an ``--out`` path with no directory to write in is refused before
any work starts.

The report commands (benchmark, verify-theory, ldp) share one output rule
(see ``_emit``).  The machine benchmark report excludes wall-clock timings,
so identical (config, seeds) runs produce byte-identical files; timings
appear in the table.  ``unlearn --model FILE`` unlearns FILE's model, whose
kind decides which methods may run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import __version__, data, metrics, privacy, unlearn
from .config import default_config, file_named_by, parse_config, parse_seeds, validate
from .errors import ConfigError, SolverError, UnlearnForgeError
from .experiment import (build_datasets, cell_record, check_method, methods, run_benchmark,
                         run_verify_theory, train_original, unlearn_cell)
from .experiment import build_split, theory_instance  # noqa: F401  (read by bench/workloads.py)
from .modelio import load_model, save_model

log = logging.getLogger("unlearn_forge")


def _setup_logging():
    level = os.environ.get("UNLEARN_FORGE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"UNLEARN_FORGE_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def benchmark_table(report: dict) -> str:
    """Aligned human-readable table mirroring the comparison-table layout."""
    header = (f"{'method':<14}{'UA':>14}{'MIA':>14}{'RA':>14}{'TA':>14}"
              f"{'AddMIA':>14}{'AvgGap':>9}{'Sum':>14}{'RTE(s)':>10}")
    lines = [header, "-" * len(header)]

    def cell(pair):
        mean, std = pair
        if mean is None:
            return "-"
        return f"{mean:.2f}" if std is None else f"{mean:.2f}±{std:.2f}"

    for m in report["methods"]:
        s = report["summary"][m]
        gap = "-" if s["avg_gap"] is None else f"{s['avg_gap']:.2f}"
        lines.append(
            f"{m:<14}{cell(s['ua']):>14}{cell(s['mia']):>14}{cell(s['ra']):>14}"
            f"{cell(s['ta']):>14}{cell(s['additional_mia']):>14}{gap:>9}"
            f"{cell(s['sum']):>14}{report['rte_seconds'][m][0]:>10.3f}")
    return "\n".join(lines)


def _machine_report(report: dict) -> dict:
    """The benchmark report without its one wall-clock key."""
    return {k: v for k, v in report.items() if k != "rte_seconds"}


def _emit(args, doc: dict, table: str):
    """The one output rule of the report commands: ``doc``'s JSON goes to
    ``--out`` when it is given, else to stdout under ``--format machine``;
    under ``--format table`` stdout gets ``table``, with or without ``--out``."""
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.out:
        with file_named_by("--out", args.out), open(args.out, "w") as fh:
            fh.write(text)
    elif args.format == "machine":
        sys.stdout.write(text)
    if args.format == "table":
        sys.stdout.write(table + "\n")


def _check_out(path: str):
    """Refuses an ``--out`` path that cannot be written, before any work."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path}: is a directory")


def _load_cfg(args) -> dict:
    if not args.config:
        cfg = default_config()
    else:
        with file_named_by("--config", args.config):
            cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seeds"] = str(args.seed)
    if getattr(args, "seeds", None) is not None:
        cfg["seeds"] = args.seeds
    return validate(cfg)


def cmd_gen_data(args) -> int:
    if not args.out:
        raise ConfigError("gen-data requires --out")
    ds, _ = build_datasets(_load_cfg(args))
    with file_named_by("--out", args.out):
        data.save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.K} classes, dim {ds.d}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    if not args.out:
        raise ConfigError("train requires --out")
    cfg = _load_cfg(args)
    ds, _ = build_datasets(cfg)
    model = train_original(cfg, ds)
    with file_named_by("--out", args.out):
        save_model(model, args.out)
    acc = metrics.accuracy(model, ds)
    print(f"trained {model.kind} model, train accuracy {acc:.2f}, saved to {args.out}")
    return 0


def cmd_unlearn(args) -> int:
    cfg = _load_cfg(args)
    model = None
    if args.model:
        with file_named_by("--model", args.model):
            model = load_model(args.model)
    kind = ((cfg["model.kind"], "model.kind") if model is None
            else (model.kind, f"the model in {args.model}"))
    method = (check_method(args.method, "--method", *kind) if args.method
              else methods(cfg, *kind)[0])
    seeds = parse_seeds(cfg["seeds"])
    seed = seeds[0]
    result, report = unlearn_cell(cfg, method, seed, model, args.model)
    if len(seeds) > 1:
        print(f"warning: seeds = {cfg['seeds']} names {len(seeds)} seeds and unlearn runs one, "
              f"the first ({seed}); pick it with --seed", file=sys.stderr)
    if args.out:
        with file_named_by("--out", args.out):
            save_model(result.model, args.out)
    print(json.dumps(cell_record(method, seed, report), sort_keys=True))
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load_cfg(args)
    report = run_benchmark(cfg, parse_seeds(cfg["seeds"]), jobs=args.jobs)
    _emit(args, _machine_report(report), benchmark_table(report))
    return 0


def cmd_verify_theory(args) -> int:
    report = run_verify_theory(_load_cfg(args))
    s = report["summary"]
    _emit(args, report, f"instances: {s['count']}\n"
                        f"exists ga_cannot_help: {s['exists_ga_cannot_help']}\n"
                        f"exists ga_helps:       {s['exists_ga_helps']}\n"
                        f"fraction inner<=0:     {s['fraction_inner_nonpositive']:.2f}")
    return 0


def cmd_ldp(args) -> int:
    params = privacy.LdpParams(K=args.k, alpha=args.alpha, gamma1=args.gamma1, gamma2=args.gamma2)
    report = privacy.verify_ratio_bound(params)
    _emit(args, {**dataclasses.asdict(params), **dataclasses.asdict(report)},
          f"epsilon = {report.epsilon:.6g}\n"
          f"p_target = {report.p_target:.6g}, p_other = {report.p_other:.6g}\n"
          f"empirical max log ratio = {report.empirical_max_log_ratio:.6g}")
    return 0


# every flag a subcommand may take, with its argparse keywords
FLAGS: dict[str, dict] = {
    "--config": {"help": "run configuration file"},
    "--seed": {"type": int, "help": "the one seed to run (overrides config)"},
    "--seeds": {"help": "seed list, e.g. 3, 0,1,5 or 2..5 (overrides config)"},
    "--jobs": {"type": int, "default": 1,
               "help": "parallel processes, one (method, seed group) run each"},
    "--out": {"help": "output file"},
    "--format": {"choices": ["table", "machine"], "default": "table"},
    "--model": {"help": "trained model file (otherwise trains from config)"},
    "--method": {"choices": unlearn.METHODS, "help": "method (default: first configured)"},
    "--k": {"type": int, "required": True},
    "--alpha": {"type": float, "required": True},
    "--gamma1": {"type": float, "required": True},
    "--gamma2": {"type": float, "required": True},
}

# subcommand -> (handler, help, the flags it reads)
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a synthetic dataset CSV", ("--config", "--out")),
    "train": (cmd_train, "train the original model and save it", ("--config", "--out")),
    "unlearn": (cmd_unlearn, "run one unlearning method",
                ("--config", "--seed", "--out", "--model", "--method")),
    "benchmark": (cmd_benchmark, "run all configured methods and report the table",
                  ("--config", "--seeds", "--jobs", "--out", "--format")),
    "verify-theory": (cmd_verify_theory, "numerically verify the unlearning theorems",
                      ("--config", "--out", "--format")),
    "ldp": (cmd_ldp, "label-LDP epsilon calculator",
            ("--k", "--alpha", "--gamma1", "--gamma2", "--out", "--format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unlearn-forge",
                                     description="Machine unlearning toolkit with smoothed-label "
                                                 "gradient methods, theory verifiers, and metrics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        # no abbreviations: --seed must not pass for --seeds
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        if args.out:  # every command takes --out
            _check_out(args.out)
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 4
    except UnlearnForgeError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
