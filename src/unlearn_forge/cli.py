"""Command-line harness.

Subcommands: gen-data, train, unlearn, benchmark, verify-theory, ldp.
Shared flags: --config PATH, --seed N, --seeds N..M, --jobs N, --out PATH,
--format {table|machine}.  Log level via UNLEARN_FORGE_LOG.

Exit codes: 0 success, 2 config error, 3 domain error, 4 solver error.

The machine-readable benchmark report deliberately excludes wall-clock
timings so that identical (config, seeds) runs produce byte-identical
files; timings appear in the human-readable table.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, data, influence, metrics, models, privacy, unlearn
from .config import default_config, parse_config, parse_seeds
from .errors import ConfigError, SolverError, UnlearnForgeError
from .modelio import load_model, save_model
from .numcore import rng_stream
from .smoothing import SmoothingPolicy

log = logging.getLogger("unlearn_forge")


def _setup_logging():
    level = os.environ.get("UNLEARN_FORGE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"UNLEARN_FORGE_LOG must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def build_datasets(cfg: dict) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Training and test sets; test drawn from a disjoint RNG stream."""
    if cfg["data.file"]:
        ds = data.load_dataset(cfg["data.file"])
        test = data.gen_blobs(ds.K, cfg["data.test_per_class"], ds.d, cfg["data.spread"],
                              cfg["data.subgroups"], rng_stream(cfg["data.seed"], 11))
        return ds, test
    ds = data.gen_blobs(cfg["data.k"], cfg["data.per_class"], cfg["data.dim"],
                        cfg["data.spread"], cfg["data.subgroups"], rng_stream(cfg["data.seed"], 10))
    test = data.gen_blobs(cfg["data.k"], cfg["data.test_per_class"], cfg["data.dim"],
                          cfg["data.spread"], cfg["data.subgroups"], rng_stream(cfg["data.seed"], 11))
    return ds, test


def build_split(cfg: dict, ds: data.LabeledDataset,
                test: data.LabeledDataset) -> tuple[data.ForgetSplit, data.LabeledDataset]:
    paradigm = cfg["split.paradigm"]
    if paradigm == "classwise":
        split, adjusted = data.split_classwise(ds, cfg["split.class"], test)
        return split, adjusted
    if paradigm == "random":
        split = data.split_random(ds, cfg["split.fraction"], rng_stream(cfg["split.seed"], 12))
        return split, test
    if paradigm == "group":
        ids = [int(g) for g in cfg["split.groups"].split(",") if g.strip() != ""]
        return data.split_group(ds, ids), test
    raise ConfigError(f"unknown paradigm {paradigm!r}")


def train_original(cfg: dict, ds: data.LabeledDataset) -> models.Model:
    model = models.init_model(cfg["model.kind"], ds.d, ds.K, cfg["model.l2"],
                              cfg["model.hidden"], rng_stream(cfg["train.seed"], 13))
    tc = models.TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"],
                            lr=cfg["train.lr"], seed=cfg["train.seed"])
    trained, _ = models.sgd_train(model, ds.X, ds.y, tc)
    return trained


def unlearn_config(cfg: dict, method: str, seed: int) -> unlearn.UnlearnConfig:
    policy = SmoothingPolicy(mode=cfg["smooth.mode"], alpha=cfg["smooth.alpha"],
                             beta=cfg["smooth.beta"])
    return unlearn.UnlearnConfig(method=method, epochs=cfg["unlearn.epochs"],
                                 lr=cfg["unlearn.lr"], p=cfg["unlearn.p"],
                                 batch_size=cfg["unlearn.batch_size"], seed=seed,
                                 damping=cfg["unlearn.damping"], smoothing=policy)


def _bench_cell(task):
    """One (method, seed) benchmark cell; module-level for multiprocessing."""
    (method, seed, cfg, ds, test, split, model) = task
    ucfg = unlearn_config(cfg, method, seed)
    tc = models.TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"],
                            lr=cfg["train.lr"], seed=seed)
    result = unlearn.run_method(method, model, ds, split, ucfg, train_cfg=tc)
    forget = ds.subset(split.forget_idx)
    retain = ds.subset(split.retain_idx)
    report = metrics.evaluate(result.model, forget, retain, test,
                              rte_seconds=result.rte_seconds, seed=seed,
                              with_additional_mia=True)
    return method, seed, report


def run_benchmark(cfg: dict, seeds: list[int], jobs: int = 1) -> dict:
    """All configured methods over all seeds, with retrain as the gap reference."""
    ds, test = build_datasets(cfg)
    split, eval_test = build_split(cfg, ds, test)
    model = train_original(cfg, ds)
    methods = [m.strip() for m in cfg["unlearn.methods"].split(",") if m.strip()]
    for m in methods:
        if m not in unlearn.METHODS:
            raise ConfigError(f"unknown method {m!r} in unlearn.methods")
    tasks = [(m, s, cfg, ds, eval_test, split, model) for m in methods for s in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            cells = list(ex.map(_bench_cell, tasks))
    else:
        cells = [_bench_cell(t) for t in tasks]
    cells.sort(key=lambda c: (methods.index(c[0]), c[1]))

    per_method: dict[str, list] = {m: [] for m in methods}
    for method, seed, report in cells:
        per_method[method].append((seed, report))

    def agg(vals):
        mean = float(statistics.fmean(vals))
        std = float(statistics.stdev(vals)) if len(vals) >= 2 else None
        return mean, std

    summary = {}
    for m in methods:
        reports = [r for _, r in per_method[m]]
        summary[m] = {
            name: agg([getattr(r, name) for r in reports])
            for name in ("ua", "mia", "ra", "ta", "additional_mia")
        }
        summary[m]["sum"] = agg([r.sum for r in reports])
        summary[m]["rte_seconds"] = agg([r.rte_seconds for r in reports])

    if "retrain" in methods:
        retrain_ref = metrics.MetricsReport(
            ua=summary["retrain"]["ua"][0], mia=summary["retrain"]["mia"][0],
            ra=summary["retrain"]["ra"][0], ta=summary["retrain"]["ta"][0])
        for m in methods:
            rep = metrics.MetricsReport(ua=summary[m]["ua"][0], mia=summary[m]["mia"][0],
                                        ra=summary[m]["ra"][0], ta=summary[m]["ta"][0])
            summary[m]["avg_gap"] = None if m == "retrain" else metrics.avg_gap(rep, retrain_ref)
    else:
        for m in methods:
            summary[m]["avg_gap"] = None

    return {
        "tool_version": __version__,
        "config": cfg,
        "seeds": seeds,
        "methods": methods,
        "cells": [
            {"method": m, "seed": s,
             "ua": r.ua, "mia": r.mia, "ra": r.ra, "ta": r.ta,
             "sum": r.sum, "additional_mia": r.additional_mia}
            for m, s, r in cells
        ],
        "summary": summary,
        "rte_seconds": {m: summary[m]["rte_seconds"] for m in methods},
    }


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
            f"{cell(s['sum']):>14}{s['rte_seconds'][0]:>10.3f}")
    return "\n".join(lines)


def _machine_report(report: dict) -> str:
    """Deterministic JSON: strips wall-clock fields."""
    doc = dict(report)
    doc.pop("rte_seconds", None)
    doc["summary"] = {
        m: {k: v for k, v in s.items() if k != "rte_seconds"}
        for m, s in report["summary"].items()
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def run_verify_theory(cfg: dict) -> dict:
    """Theorem checks over seeded convex instances."""
    n_inst = cfg["theory.instances"]
    if n_inst < 1:
        raise ConfigError("theory.instances must be >= 1")
    grid = np.linspace(cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"])
    rows = []
    for i in range(n_inst):
        rep, *_ = theory_instance(cfg, i, grid)
        rows.append({
            "instance": i,
            "dist_ga": rep.dist_ga,
            "dist_noop": rep.dist_noop,
            "inner": rep.inner,
            "ga_cannot_help": rep.ga_cannot_help,
            "condition_met": rep.condition_met,
            "best_alpha": rep.best_alpha,
            "dist_gls_at_best_alpha": rep.dist_gls_at_best_alpha,
            "closed_form_alpha": rep.closed_form_alpha,
            "theorem1_residual": rep.theorem1_residual,
            "grad_norm_tr": rep.grad_norm_tr,
            "grad_norm_r": rep.grad_norm_r,
            "warnings": rep.warnings,
        })
    return {
        "tool_version": __version__,
        "config": cfg,
        "damping": cfg["theory.damping"],
        "instances": rows,
        "summary": {
            "count": n_inst,
            "exists_ga_cannot_help": any(r["ga_cannot_help"] for r in rows),
            "exists_ga_helps": any(not r["ga_cannot_help"] for r in rows),
            "fraction_inner_nonpositive": float(np.mean([r["inner"] <= 0 for r in rows])),
        },
    }


def theory_instance(cfg: dict, index: int, grid: np.ndarray):
    """One convex instance: blobs, a random forget split, Newton-trained
    optima, and the theorem-2 report."""
    rng = rng_stream(cfg["theory.seed"], 100 + index)
    K = 3
    d = 3
    spread = float(rng.uniform(0.6, 3.0))
    ds = data.gen_blobs(K, 30, d, spread, 1, rng)
    split = data.split_random(ds, 0.2, rng)
    retain = ds.subset(split.retain_idx)
    forget = ds.subset(split.forget_idx)
    template = models.init_model("logistic", d, K, cfg["model.l2"])
    theta_tr = models.newton_optimize(template, ds.X, models.onehot(ds.y, K))
    theta_r = models.newton_optimize(template, retain.X, models.onehot(retain.y, K))
    rep = influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, grid,
                                   cfg["theory.damping"])
    return rep, theta_tr, theta_r, ds, retain, forget


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--seed", type=int, help="single seed (overrides config)")
    p.add_argument("--seeds", help="seed list, e.g. 0,1,2 or 0..4")
    p.add_argument("--jobs", type=int, default=1, help="parallel (method, seed) cells")
    p.add_argument("--out", help="output path (defaults to stdout)")
    p.add_argument("--format", choices=["table", "machine"], default="table")


def _load_cfg(args) -> dict:
    cfg = parse_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg["seeds"] = str(args.seed)
    if getattr(args, "seeds", None):
        cfg["seeds"] = args.seeds
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    ds, _ = build_datasets(cfg)
    if not args.out:
        raise ConfigError("gen-data requires --out")
    data.save_dataset(ds, args.out)
    print(f"wrote {ds.n} rows ({ds.K} classes, dim {ds.d}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    ds, _ = build_datasets(cfg)
    model = train_original(cfg, ds)
    if not args.out:
        raise ConfigError("train requires --out")
    save_model(model, args.out)
    acc = metrics.accuracy(model, ds)
    print(f"trained {model.kind} model, train accuracy {acc:.2f}, saved to {args.out}")
    return 0


def cmd_unlearn(args) -> int:
    cfg = _load_cfg(args)
    ds, test = build_datasets(cfg)
    split, eval_test = build_split(cfg, ds, test)
    model = load_model(args.model) if args.model else train_original(cfg, ds)
    method = args.method or [m.strip() for m in cfg["unlearn.methods"].split(",")][0]
    seed = parse_seeds(cfg["seeds"])[0]
    ucfg = unlearn_config(cfg, method, seed)
    tc = models.TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"],
                            lr=cfg["train.lr"], seed=seed)
    result = unlearn.run_method(method, model, ds, split, ucfg, train_cfg=tc)
    rep = metrics.evaluate(result.model, ds.subset(split.forget_idx),
                           ds.subset(split.retain_idx), eval_test,
                           rte_seconds=result.rte_seconds, seed=seed,
                           with_additional_mia=True)
    if args.out:
        save_model(result.model, args.out)
    fragment = {"method": method, "seed": seed, "ua": rep.ua, "mia": rep.mia,
                "ra": rep.ra, "ta": rep.ta, "sum": rep.sum,
                "additional_mia": rep.additional_mia}
    print(json.dumps(fragment, sort_keys=True))
    return 0


def cmd_benchmark(args) -> int:
    cfg = _load_cfg(args)
    seeds = parse_seeds(cfg["seeds"])
    report = run_benchmark(cfg, seeds, jobs=args.jobs)
    if args.format == "machine":
        _write_or_print(_machine_report(report), args.out)
    else:
        table = benchmark_table(report) + "\n"
        if args.out:
            _write_or_print(_machine_report(report), args.out)
            sys.stdout.write(table)
        else:
            sys.stdout.write(table)
    return 0


def cmd_verify_theory(args) -> int:
    cfg = _load_cfg(args)
    report = run_verify_theory(cfg)
    if args.format == "machine" or args.out:
        _write_or_print(json.dumps(report, sort_keys=True, indent=1) + "\n", args.out)
        if args.out:
            print(f"wrote theory report for {report['summary']['count']} instances to {args.out}")
    else:
        s = report["summary"]
        print(f"instances: {s['count']}")
        print(f"exists ga_cannot_help: {s['exists_ga_cannot_help']}")
        print(f"exists ga_helps:       {s['exists_ga_helps']}")
        print(f"fraction inner<=0:     {s['fraction_inner_nonpositive']:.2f}")
    return 0


def cmd_ldp(args) -> int:
    params = privacy.LdpParams(K=args.k, alpha=args.alpha, gamma1=args.gamma1, gamma2=args.gamma2)
    report = privacy.verify_ratio_bound(params)
    doc = {"K": args.k, "alpha": args.alpha, "gamma1": args.gamma1, "gamma2": args.gamma2,
           "epsilon": report.epsilon, "p_target": report.p_target, "p_other": report.p_other,
           "empirical_max_log_ratio": report.empirical_max_log_ratio}
    if args.format == "machine" or args.out:
        _write_or_print(json.dumps(doc, sort_keys=True, indent=1) + "\n", args.out)
    else:
        print(f"epsilon = {report.epsilon:.6g}")
        print(f"p_target = {report.p_target:.6g}, p_other = {report.p_other:.6g}")
        print(f"empirical max log ratio = {report.empirical_max_log_ratio:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unlearn-forge",
                                     description="Machine unlearning toolkit with smoothed-label "
                                                 "gradient methods, theory verifiers, and metrics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train the original model and save it")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("unlearn", help="run one unlearning method")
    _add_common(p)
    p.add_argument("--model", help="trained model file (otherwise trains from config)")
    p.add_argument("--method", choices=unlearn.METHODS, help="method (default: first configured)")
    p.set_defaults(fn=cmd_unlearn)

    p = sub.add_parser("benchmark", help="run all configured methods and report the table")
    _add_common(p)
    p.set_defaults(fn=cmd_benchmark)

    p = sub.add_parser("verify-theory", help="numerically verify the unlearning theorems")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_theory)

    p = sub.add_parser("ldp", help="label-LDP epsilon calculator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(fn=cmd_ldp)
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
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
