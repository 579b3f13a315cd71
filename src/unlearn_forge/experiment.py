"""Experiment runners: datasets, forget splits and the original model built
from a run configuration, one method's cells at a group of seeds (or the
``unlearn`` command's one), the benchmark report and the theory verifier.

The benchmark runs each method once per group of seeds, all the group's
seeds stepped in lockstep (see ``unlearn``); every cell keeps the bits of its
own single run.  A cell's RTE, its share of the group's wall-clock, stays on
its ``UnlearnResult`` and reaches only the report's ``rte_seconds`` key.
``--jobs`` spreads the (method, seed group) runs over processes.

The theory verifier works the same way on its convex instances: each run of
consecutive instances finds all its θ_tr with one stacked ``newton_optimize``
run and all its θ_r with another (see ``models``), then makes all its reports
with one stacked ``check_theorem2`` call (see ``influence``); each instance
keeps the bits of its own solo run.  Both kinds of group are sized by the
one rule of ``GROUP_ENTRIES``.  A failing group of either kind reruns its
members one at a time, so it raises what its first failing member does; the
fallback logs one DEBUG record on the ``unlearn_forge`` logger.
"""

from __future__ import annotations

import logging
import statistics
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, data, influence, metrics, models, unlearn
from .config import file_named_by, validate
from .errors import ConfigError, DomainError, UnlearnForgeError
from .numcore import rng_stream
from .smoothing import SmoothingPolicy

log = logging.getLogger("unlearn_forge")

# MetricsReport fields of a benchmark cell, each averaged in its summary
CELL_FIELDS = ("ua", "mia", "ra", "ta", "sum", "additional_mia")
# Float64 entries per lockstep group, counted as a member's stacked rows x
# (d + K), its rows and their labels: a seed's training set, or a
# verify-theory instance's.  2**16 entries are 512 KiB; the default config
# (300 rows, d + K = 8) fits 27 seeds per group, K = 10, 1000 rows per class
# and d = 20 fit one, and ``_THEORY_SHAPE`` (90 rows, d + K = 6) fits 121
# instances.  The count sizes the groups; it does not bound a group's memory.
GROUP_ENTRIES = 2 ** 16
# (classes, rows per class, features) of every verify-theory instance
_THEORY_SHAPE = (3, 30, 3)
# TheoryReport fields of one verify-theory row
THEORY_FIELDS = ("dist_ga", "dist_noop", "inner", "ga_cannot_help", "condition_met",
                 "best_alpha", "dist_gls_at_best_alpha", "closed_form_alpha",
                 "theorem1_residual", "grad_norm_tr", "grad_norm_r", "warnings")


def build_datasets(cfg: dict) -> tuple[data.LabeledDataset, data.LabeledDataset]:
    """Training and test sets with ``data.k`` classes, the training rows read
    from ``data.file`` when set; test drawn from a disjoint RNG stream."""
    K = cfg["data.k"]
    if cfg["data.file"]:
        with file_named_by("data.file", cfg["data.file"]):
            ds = data.load_dataset(cfg["data.file"], K)
    else:
        ds = data.gen_blobs(K, cfg["data.per_class"], cfg["data.dim"], cfg["data.spread"],
                            cfg["data.subgroups"], rng_stream(cfg["data.seed"], 10))
    test = data.gen_blobs(K, cfg["data.test_per_class"], ds.d, cfg["data.spread"],
                          cfg["data.subgroups"], rng_stream(cfg["data.seed"], 11))
    return ds, test


def build_split(cfg: dict, ds: data.LabeledDataset,
                test: data.LabeledDataset) -> tuple[data.ForgetSplit, data.LabeledDataset]:
    """The configured forget split and the test set to evaluate it on.  A
    split the data cannot make (see ``data.split_*``) or one that leaves no
    retain row is a ConfigError naming its key, raised before any training."""
    paradigm = cfg["split.paradigm"]
    key = {"classwise": "split.class", "random": "split.fraction",
           "group": "split.groups"}.get(paradigm)
    if key is None:
        raise ConfigError(f"unknown paradigm {paradigm!r}")
    try:
        if paradigm == "classwise":
            split, test = data.split_classwise(ds, cfg[key], test)
        elif paradigm == "random":
            split = data.split_random(ds, cfg[key], rng_stream(cfg["split.seed"], 12))
        else:
            split = data.split_group(ds, [int(g) for g in cfg[key].split(",") if g.strip() != ""])
    except (DomainError, ValueError) as exc:  # a ValueError comes only from the int() parse
        given = [f"data.k = {cfg['data.k']}"] if paradigm == "classwise" else []
        given += [f"data.file {cfg['data.file']}"] if cfg["data.file"] else []
        with_given = f" with {' and '.join(given)}" if given else ""
        raise ConfigError(f"{key} = {cfg[key]}{with_given} cannot split the data: {exc}") from exc
    if split.retain_idx.size == 0:
        # a random split keeps rows of every class, since split.fraction < 1
        raise ConfigError(f"split.paradigm = {paradigm} with {key} = {cfg[key]} forgets all "
                          f"{ds.n} training rows and leaves no retain row")
    return split, test


def train_original(cfg: dict, ds: data.LabeledDataset) -> models.Model:
    model = models.init_model(cfg["model.kind"], ds.d, ds.K, cfg["model.l2"],
                              cfg["model.hidden"], rng_stream(cfg["train.seed"], 13))
    tc = models.TrainConfig(epochs=cfg["train.epochs"], batch_size=cfg["train.batch_size"],
                            lr=cfg["train.lr"], seed=cfg["train.seed"])
    trained, _ = models.sgd_train(model, ds.X, ds.y, tc)
    return trained


def methods(cfg: dict, kind: str | None = None, kind_source: str = "model.kind") -> list[str]:
    """The names in ``unlearn.methods``, in order; at least one, each known,
    named once and able to run on a ``kind`` model (by default
    ``model.kind``'s)."""
    names = [m.strip() for m in cfg["unlearn.methods"].split(",") if m.strip()]
    if not names:
        raise ConfigError("unlearn.methods names no method")
    repeated = [m for i, m in enumerate(names) if m in names[:i]]
    if repeated:
        raise ConfigError(f"unlearn.methods names {repeated[0]!r} more than once")
    return [check_method(m, "unlearn.methods", kind or cfg["model.kind"], kind_source)
            for m in names]


def check_method(name: str, source: str, kind: str, kind_source: str) -> str:
    """``name``, once it is a known method able to run on a ``kind`` model;
    the ConfigError otherwise names ``source``, where the name came from,
    and ``kind_source``, where the kind did."""
    if name not in unlearn.METHODS:
        raise ConfigError(f"unknown method {name!r} in {source}")
    if name == "iu" and kind != "logistic":
        raise ConfigError(f"{source} names iu, which needs the exact Hessian of a logistic "
                          f"model, and {kind_source} is {kind!r}")
    return name


def _groups(items, entries_per_item: int) -> list:
    """``items`` in order, cut into lockstep groups of at most
    ``GROUP_ENTRIES`` stacked entries each (and at least one item)."""
    size = max(1, GROUP_ENTRIES // entries_per_item)
    return [items[i:i + size] for i in range(0, len(items), size)]


def seed_groups(ds: data.LabeledDataset, seeds: list[int]) -> list[list[int]]:
    """``_groups`` of ``seeds``, each counting rows x (d + K) training entries."""
    return _groups(seeds, ds.n * (ds.d + ds.K))


def _each_alone_on_failure(run, items: list) -> list:
    """``run(items)``, one output per item; if that raises, each item reruns
    alone, so the error is the one the first failing item raises alone.  The
    fallback logs one DEBUG record naming the group's size and its error."""
    try:
        return run(items)
    except UnlearnForgeError as exc:
        if len(items) == 1:
            raise
        log.debug("lockstep group of %d failed, rerunning each alone: %s: %s",
                  len(items), type(exc).__name__, exc)
        return [out for item in items for out in run([item])]


def run_cells(cfg: dict, method: str, seeds: list[int], ds: data.LabeledDataset,
              test: data.LabeledDataset, split: data.ForgetSplit,
              model: models.Model) -> list[tuple[unlearn.UnlearnResult, metrics.MetricsReport]]:
    """Unlearn ``split`` from ``model`` with one method at each of ``seeds``,
    in lockstep (see ``_each_alone_on_failure``), and evaluate the results on
    the forget, retain and test sets in one stacked ``metrics.evaluate``."""
    policy = SmoothingPolicy(mode=cfg["smooth.mode"], alpha=cfg["smooth.alpha"],
                             beta=cfg["smooth.beta"])
    # retrain reruns the original training schedule; the others run the unlearning one
    sched = "train" if method == "retrain" else "unlearn"
    ucfg = unlearn.UnlearnConfig(method=method, epochs=cfg[f"{sched}.epochs"],
                                 lr=cfg[f"{sched}.lr"], p=cfg["unlearn.p"],
                                 batch_size=cfg[f"{sched}.batch_size"],
                                 damping=cfg["unlearn.damping"], smoothing=policy)
    results = _each_alone_on_failure(
        lambda group: unlearn.run_method(model, ds, split, ucfg, group), seeds)
    forget, retain = ds.subset(split.forget_idx), ds.subset(split.retain_idx)
    stack = model.with_stack(np.stack([r.model.theta for r in results]))
    return list(zip(results, metrics.evaluate(stack, forget, retain, test, seeds)))


def run_cell(cfg: dict, method: str, seed: int, ds: data.LabeledDataset,
             test: data.LabeledDataset, split: data.ForgetSplit,
             model: models.Model) -> tuple[unlearn.UnlearnResult, metrics.MetricsReport]:
    """``run_cells`` at the one seed ``seed``."""
    return run_cells(cfg, method, [seed], ds, test, split, model)[0]


def unlearn_cell(cfg: dict, method: str, seed: int, model: models.Model | None = None,
                 model_file: str | None = None):
    """``run_cell`` on the configured data and split, unlearning ``model``
    (read from ``model_file``) or, when it is None, the original model."""
    ds, test = build_datasets(cfg)
    split, eval_test = build_split(cfg, ds, test)
    if model is None:
        model = train_original(cfg, ds)
    elif (model.d, model.K) != (ds.d, ds.K):
        raise ConfigError(f"model {model_file} has (d, K) = ({model.d}, {model.K}), "
                          f"the data has ({ds.d}, {ds.K})")
    return run_cell(cfg, method, seed, ds, eval_test, split, model)


def cell_record(method: str, seed: int, report: metrics.MetricsReport) -> dict:
    """One cell of the machine report (no wall-clock fields)."""
    return {"method": method, "seed": seed, **{f: getattr(report, f) for f in CELL_FIELDS}}


def _bench_group(task):
    """The benchmark cells of one method at one group of seeds, each with
    its result's RTE; module-level for multiprocessing."""
    cfg, method, seeds, *inputs = task
    return [(method, s, report, result.rte_seconds)
            for s, (result, report) in zip(seeds, run_cells(cfg, method, seeds, *inputs))]


def _mean_std(vals: list[float]) -> tuple[float, float | None]:
    std = float(statistics.stdev(vals)) if len(vals) >= 2 else None
    return float(statistics.fmean(vals)), std


def _mean_report(summary: dict) -> metrics.MetricsReport:
    return metrics.MetricsReport(*(summary[f][0] for f in ("ua", "mia", "ra", "ta")))


def run_benchmark(cfg: dict, seeds: list[int], jobs: int = 1) -> dict:
    """All configured methods over all seeds, with retrain as the gap reference."""
    validate(cfg)
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    names = methods(cfg)
    ds, test = build_datasets(cfg)
    split, eval_test = build_split(cfg, ds, test)
    model = train_original(cfg, ds)
    tasks = [(cfg, m, g, ds, eval_test, split, model) for m in names for g in seed_groups(ds, seeds)]
    # the pool forks all its workers at the first submit, so no more than there are groups
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            groups = list(ex.map(_bench_group, tasks))
    else:
        groups = [_bench_group(t) for t in tasks]
    cells = [cell for group in groups for cell in group]
    cells.sort(key=lambda c: (names.index(c[0]), c[1]))

    summary = {m: {f: _mean_std([getattr(r, f) for cm, _, r, _ in cells if cm == m])
                   for f in CELL_FIELDS}
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
        "cells": [cell_record(m, s, r) for m, s, r, _ in cells],
        "summary": summary,
        "rte_seconds": {m: _mean_std([rte for cm, _, _, rte in cells if cm == m]) for m in names},
    }


def run_verify_theory(cfg: dict) -> dict:
    """Theorem checks over seeded convex instances.

    Consecutive instances are solved in lockstep groups (see
    ``theory_groups`` and ``_each_alone_on_failure``), with the rows and
    errors of solving them one at a time."""
    validate(cfg)
    n_inst = cfg["theory.instances"]
    grid = np.linspace(cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"])
    rows = []
    for group in theory_groups(cfg):
        indices, problems = zip(*group)
        done = _each_alone_on_failure(lambda ps: theory_instances(cfg, ps, grid), list(problems))
        rows += [{"instance": i, **{f: getattr(rep, f) for f in THEORY_FIELDS}}
                 for i, (rep, *_) in zip(indices, done)]
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


def theory_data(cfg: dict, index: int):
    """The data of convex instance ``index``: blobs and a random forget
    split, as (ds, retain, forget)."""
    rng = rng_stream(cfg["theory.seed"], 100 + index)
    K, per_class, d = _THEORY_SHAPE
    spread = float(rng.uniform(0.6, 3.0))
    ds = data.gen_blobs(K, per_class, d, spread, 1, rng)
    split = data.split_random(ds, 0.2, rng)
    return ds, ds.subset(split.retain_idx), ds.subset(split.forget_idx)


def theory_groups(cfg: dict):
    """Every instance's ``theory_data`` in index order, cut by ``_groups``
    into lists of (index, data) pairs, each instance counting its n x (d + K)
    entries as a seed does; data is built as groups are taken, so one
    group's is held at a time.  A group's probabilities and stacked products
    grow with it: ``theory.instances = 100`` makes one group, whose
    tracemalloc peak above the call's start reads up to 1,318 KiB in a
    stacked Newton and 1,583 KiB in its stacked theorem check (seeds 0 and
    7)."""
    K, per_class, d = _THEORY_SHAPE
    for group in _groups(range(cfg["theory.instances"]), K * per_class * (d + K)):
        yield [(i, theory_data(cfg, i)) for i in group]


def theory_instances(cfg: dict, problems: list, grid: np.ndarray) -> list[tuple]:
    """Newton-trained optima and the theorem-2 report of equal-shaped
    ``theory_data`` problems, as ``theory_instance`` tuples; one stacked
    ``newton_optimize`` call finds every problem's θ_tr, one its θ_r, and
    one stacked ``check_theorem2`` call makes every report."""
    d, K = problems[0][0].d, problems[0][0].K
    template = models.init_model("logistic", d, K, cfg["model.l2"])
    stack = template.with_stack(np.zeros((len(problems), template.theta.size)))

    def optima(sets):
        X = np.stack([s.X for s in sets])
        return models.newton_optimize(stack, X, models.onehot(np.stack([s.y for s in sets]), K))
    sets, retains, forgets = zip(*problems)
    theta_tr, theta_r = optima(sets), optima(retains)
    reports = influence.check_theorem2(theta_tr, theta_r, sets, retains, forgets, grid,
                                       cfg["theory.damping"])
    return [(rep, template.with_theta(tr), template.with_theta(r), *problem)
            for rep, tr, r, problem in zip(reports, theta_tr.theta, theta_r.theta, problems)]


def theory_instance(cfg: dict, index: int, grid: np.ndarray):
    """One convex instance: blobs, a random forget split, Newton-trained
    optima, and the theorem-2 report, as (report, theta_tr, theta_r, ds,
    retain, forget)."""
    return theory_instances(cfg, [theory_data(cfg, index)], grid)[0]
