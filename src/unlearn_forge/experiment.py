"""Experiment runners: datasets, forget splits and the original model built
from a run configuration, one (method, seed) unlearning cell, the benchmark
report over all configured methods and seeds, and the theory verifier."""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, data, influence, metrics, models, unlearn
from .errors import ConfigError
from .numcore import rng_stream
from .smoothing import SmoothingPolicy

# MetricsReport fields of a benchmark cell, and those its summary aggregates
CELL_FIELDS = ("ua", "mia", "ra", "ta", "sum", "additional_mia")
SUMMARY_FIELDS = CELL_FIELDS + ("rte_seconds",)
# TheoryReport fields of one verify-theory row
THEORY_FIELDS = ("dist_ga", "dist_noop", "inner", "ga_cannot_help", "condition_met",
                 "best_alpha", "dist_gls_at_best_alpha", "closed_form_alpha",
                 "theorem1_residual", "grad_norm_tr", "grad_norm_r", "warnings")


def build_datasets(cfg: dict) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Training and test sets with ``data.k`` classes, the training rows read
    from ``data.file`` when set; test drawn from a disjoint RNG stream."""
    K = cfg["data.k"]
    if cfg["data.file"]:
        ds = data.load_dataset(cfg["data.file"], K)
    else:
        ds = data.gen_blobs(K, cfg["data.per_class"], cfg["data.dim"], cfg["data.spread"],
                            cfg["data.subgroups"], rng_stream(cfg["data.seed"], 10))
    test = data.gen_blobs(K, cfg["data.test_per_class"], ds.d, cfg["data.spread"],
                          cfg["data.subgroups"], rng_stream(cfg["data.seed"], 11))
    return ds, test


def build_split(cfg: dict, ds: data.LabeledDataset,
                test: data.LabeledDataset) -> tuple[data.ForgetSplit, data.LabeledDataset]:
    """The configured forget split and the test set to evaluate it on."""
    paradigm = cfg["split.paradigm"]
    if paradigm == "classwise":
        return data.split_classwise(ds, cfg["split.class"], test)
    if paradigm == "random":
        split = data.split_random(ds, cfg["split.fraction"], rng_stream(cfg["split.seed"], 12))
        return split, test
    if paradigm == "group":
        try:
            ids = [int(g) for g in cfg["split.groups"].split(",") if g.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"split.groups: {exc}") from exc
        return data.split_group(ds, ids), test
    raise ConfigError(f"unknown paradigm {paradigm!r}")


def train_original(cfg: dict, ds: data.LabeledDataset) -> models.Model:
    model = models.init_model(cfg["model.kind"], ds.d, ds.K, cfg["model.l2"],
                              cfg["model.hidden"], rng_stream(cfg["train.seed"], 13))
    tc = models.TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"],
                            lr=cfg["train.lr"], seed=cfg["train.seed"])
    trained, _ = models.sgd_train(model, ds.X, ds.y, tc)
    return trained


def methods(cfg: dict) -> list[str]:
    """The names in ``unlearn.methods``, in order; at least one, all known,
    and each able to run on ``model.kind``."""
    names = [m.strip() for m in cfg["unlearn.methods"].split(",") if m.strip()]
    if not names:
        raise ConfigError("unlearn.methods names no method")
    return [check_method(cfg, m, "unlearn.methods") for m in names]


def check_method(cfg: dict, name: str, source: str) -> str:
    """``name``, once it is a known method able to run on ``model.kind``;
    the ConfigError otherwise names ``source``, where the name came from."""
    if name not in unlearn.METHODS:
        raise ConfigError(f"unknown method {name!r} in {source}")
    if name == "iu" and cfg["model.kind"] != "logistic":
        raise ConfigError(f"{source} names iu, which needs the exact Hessian of "
                          f"model.kind = logistic, not {cfg['model.kind']!r}")
    return name


def run_cell(cfg: dict, method: str, seed: int, ds: data.LabeledDataset,
             test: data.LabeledDataset, split: data.ForgetSplit,
             model: models.Model) -> tuple[unlearn.UnlearnResult, metrics.MetricsReport]:
    """Unlearn ``split`` from ``model`` with one method at one seed and
    evaluate the result on the forget, retain and test sets."""
    policy = SmoothingPolicy(mode=cfg["smooth.mode"], alpha=cfg["smooth.alpha"],
                             beta=cfg["smooth.beta"])
    # retrain reruns the original training schedule; the others run the unlearning one
    sched = "train" if method == "retrain" else "unlearn"
    ucfg = unlearn.UnlearnConfig(method=method, epochs=cfg[f"{sched}.epochs"],
                                 lr=cfg[f"{sched}.lr"], p=cfg["unlearn.p"],
                                 batch_size=cfg[f"{sched}.batch_size"], seed=seed,
                                 damping=cfg["unlearn.damping"], smoothing=policy)
    result = unlearn.run_method(model, ds, split, ucfg)
    report = metrics.evaluate(result.model, ds.subset(split.forget_idx),
                              ds.subset(split.retain_idx), test,
                              rte_seconds=result.rte_seconds, seed=seed)
    return result, report


def cell_record(method: str, seed: int, report: metrics.MetricsReport) -> dict:
    """One cell of the machine report (no wall-clock fields)."""
    return {"method": method, "seed": seed, **{f: getattr(report, f) for f in CELL_FIELDS}}


def _bench_cell(task):
    """One (method, seed) benchmark cell; module-level for multiprocessing."""
    cfg, method, seed, *inputs = task
    return method, seed, run_cell(cfg, method, seed, *inputs)[1]


def _mean_std(vals: list[float]) -> tuple[float, float | None]:
    std = float(statistics.stdev(vals)) if len(vals) >= 2 else None
    return float(statistics.fmean(vals)), std


def _mean_report(summary: dict) -> metrics.MetricsReport:
    return metrics.MetricsReport(*(summary[f][0] for f in ("ua", "mia", "ra", "ta")))


def run_benchmark(cfg: dict, seeds: list[int], jobs: int = 1) -> dict:
    """All configured methods over all seeds, with retrain as the gap reference."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    names = methods(cfg)
    ds, test = build_datasets(cfg)
    split, eval_test = build_split(cfg, ds, test)
    model = train_original(cfg, ds)
    tasks = [(cfg, m, s, ds, eval_test, split, model) for m in names for s in seeds]
    # the pool forks all its workers at the first submit, so no more than there are cells
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            cells = list(ex.map(_bench_cell, tasks))
    else:
        cells = [_bench_cell(t) for t in tasks]
    cells.sort(key=lambda c: (names.index(c[0]), c[1]))

    summary = {m: {f: _mean_std([getattr(r, f) for cm, _, r in cells if cm == m])
                   for f in SUMMARY_FIELDS}
               for m in names}
    ref = summary.get("retrain")
    for m, s in summary.items():
        s["avg_gap"] = (None if ref is None or m == "retrain"
                        else metrics.avg_gap(_mean_report(s), _mean_report(ref)))

    return {
        "tool_version": __version__,
        "config": cfg,
        "seeds": seeds,
        "methods": names,
        "cells": [cell_record(m, s, r) for m, s, r in cells],
        "summary": summary,
        "rte_seconds": {m: summary[m]["rte_seconds"] for m in names},
    }


def run_verify_theory(cfg: dict) -> dict:
    """Theorem checks over seeded convex instances."""
    n_inst = cfg["theory.instances"]
    grid = np.linspace(cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"])
    rows = []
    for i in range(n_inst):
        rep = theory_instance(cfg, i, grid)[0]
        rows.append({"instance": i, **{f: getattr(rep, f) for f in THEORY_FIELDS}})
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
