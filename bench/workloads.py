"""The benchmark's workloads: what each one feeds the program, why it was
chosen, and which layer metric should move which end-to-end metric.

Every workload is serial and closed-loop: a single client issues one
command, waits for it to finish, checks its output and only then issues the
next.  The program receives only generated inputs -- a config file, an
optional CSV and a seed list -- all derived from the workload seed, and the
benchmark calls the package's public entry points in-process from outside
(``cli.run_benchmark``, ``cli.run_verify_theory``, the ``ldp`` subcommand).

Workload seed 0 reproduces the package defaults (the default config is
``classwise-small`` at seed 0); reference outputs in ``reference/`` are
recorded at that seed.

Rationale, one entry per workload (BENCHMARK.json carries the one-line
``why`` of each definition below):

classwise-small
    Default config (K=3, 100 rows/class, d=5, logistic), all 7 methods,
    10 seeds.  Batches of 32x5 keep every numpy call to microseconds, so
    time goes to per-call Python and validation overhead (``_check_soft``,
    ``with_theta``, per-step ``onehot``).  Second-order work is negligible
    (P=18).

classwise-large
    The ROADMAP large scale (K=10, 1000 rows/class, d=20,
    ``train.epochs=10``), all 7 methods, 1 seed.  Training rows are read
    from a CSV written during set-up (``data.file``).  The dense Hessian
    (n=10^4, P=210), the MIA sweeps over about 10^4 losses, GEMM-sized
    batches and CSV parsing all sit on the timed path.

theory
    ``verify-theory`` with ``theory.instances=100`` plus ``ldp`` at K=100
    for three smooth rates.  No SGD: time goes to damped Newton (about
    1,900 small Hessians), ``nontarget_grad_sum``'s single-row grads and
    the O(K^3) ratio brute force.

A fourth workload, random-mlp (random 10% forget on a 32-unit MLP, no
``iu``, 5 seeds: the tanh kernel with no Hessian path), was dropped: on a
2-vCPU host whose speed drifts by up to 2x over minutes, four workloads
leave each run too short for a steady median.  Every module is still timed
by the three above; the MLP branch of ``models.grad`` is not.

Which end-to-end metric each layer metric should move, and where ("benchmark
workloads" are the two that run the ``benchmark`` command):

| layer metric                                  | moves                  | exercised on                                       | predicted no change on         |
| --------------------------------------------- | ---------------------- | -------------------------------------------------- | ------------------------------ |
| models.grad.self_s, models.grad_b32.us        | wall_s                 | all three, most on classwise-small                 | -                              |
| models.hessian.s, models.hessian_full.s       | wall_s, peak_rss_mb    | classwise-large, theory                            | classwise-small (P=18)         |
| models.newton_optimize.iters/.s,              | wall_s                 | theory                                             | all benchmark workloads        |
|   numcore.solve_damped.s                      |                        |                                                    |                                |
| influence.nontarget_grad_sum.s,               | wall_s                 | theory                                             | -                              |
|   models.grad.calls                           |                        |                                                    |                                |
| metrics.mia_*.s, metrics.mia_sweep.s          | wall_s                 | classwise-large, classwise-small                   | theory                         |
| smoothing.*.s, unlearn.ugradsl*.rte_s         | wall_s                 | benchmark workloads                                | theory                         |
| data.load_dataset.s / data.save_dataset.s     | wall_s / setup_s       | classwise-large                                    | others                         |
| privacy.verify_ratio_bound.s                  | wall_s                 | theory                                             | benchmark workloads            |
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from unlearn_forge import cli, config, data, models
from unlearn_forge.numcore import rng_stream

DEFAULT_SEED = 0

# ldp subcommand inputs for the theory workload; gamma1=2, gamma2=1 keep the
# closed form's log argument 100/|alpha| - 99 above 1 for |alpha| <= 0.9
LDP_K = 100
LDP_GAMMAS = (2.0, 1.0)
LDP_ALPHAS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "benchmark" | "theory"
    overrides: dict = field(default_factory=dict)
    seeds_per_run: int = 1
    from_csv: bool = False  # training rows written to a CSV during set-up

    def config(self, seed: int, workdir: str) -> dict:
        """Config overrides for one workload seed; seed 0 is the default."""
        cfg = dict(self.overrides)
        if self.kind == "theory":
            cfg["theory.seed"] = seed
            return cfg
        cfg["data.seed"] = seed
        cfg["split.seed"] = seed
        cfg["train.seed"] = seed
        cfg["split.class"] = seed % cfg.get("data.k", 3)
        if self.from_csv:
            cfg["data.file"] = os.path.join(workdir, "train.csv")
        return cfg

    def seeds(self, seed: int) -> str:
        """Program seeds for a workload seed s: s*n .. s*n + n - 1."""
        first = seed * self.seeds_per_run
        return f"{first}..{first + self.seeds_per_run - 1}"

    def methods(self) -> list[str]:
        spec = self.overrides.get("unlearn.methods", config.SCHEMA["unlearn.methods"][1])
        return [m.strip() for m in spec.split(",") if m.strip()]


WORKLOADS = {w.name: w for w in (
    Workload(
        "classwise-small",
        "Default config at 10 seeds: microsecond numpy calls, so per-call Python and "
        "validation overhead dominate; second-order work is negligible (P=18).",
        "benchmark", {}, seeds_per_run=10),
    Workload(
        "classwise-large",
        "K=10, 1000 rows/class, d=20 from a CSV: dense Hessian at n=10^4, MIA sweeps "
        "over 10^4 losses, GEMM-sized batches and CSV parsing on the timed path.",
        "benchmark",
        {"data.k": 10, "data.per_class": 1000, "data.dim": 20, "train.epochs": 10},
        seeds_per_run=1, from_csv=True),
    Workload(
        "theory",
        "verify-theory on 100 instances plus ldp at K=100: damped Newton, about 1,900 "
        "small Hessians, single-row grads and the O(K^3) ratio brute force; no SGD.",
        "theory", {"theory.instances": 100}),
)}


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload seed, as files the program reads."""
    config_path: str
    seeds: str
    ldp_args: list = field(default_factory=list)  # (alpha, gamma1, gamma2, out_path)


def _write_config(path: str, cfg: dict) -> None:
    with open(path, "w") as fh:
        for key in sorted(cfg):
            val = cfg[key]
            fh.write(f"{key} = {val!r}\n" if isinstance(val, float) else f"{key} = {val}\n")


def make_inputs(wl: Workload, seed: int, workdir: str) -> Inputs:
    """Write the workload's config (and CSV) for ``seed`` into ``workdir``."""
    cfg = wl.config(seed, workdir)
    path = os.path.join(workdir, "run.cfg")
    _write_config(path, cfg)
    if "data.file" in cfg:
        # the same rows build_datasets would generate in memory
        full = config.default_config()
        full.update(cfg)
        ds = data.gen_blobs(full["data.k"], full["data.per_class"], full["data.dim"],
                            full["data.spread"], full["data.subgroups"],
                            rng_stream(full["data.seed"], 10))
        data.save_dataset(ds, cfg["data.file"])
    ldp_args = []
    if wl.kind == "theory":
        rng = np.random.default_rng(seed)
        for i in range(LDP_ALPHAS):
            alpha = -float(rng.uniform(0.1, 0.9))
            ldp_args.append((alpha, *LDP_GAMMAS, os.path.join(workdir, f"ldp{i}.json")))
    return Inputs(path, wl.seeds(seed), ldp_args)


def run_command(wl: Workload, inputs: Inputs) -> dict:
    """The workload's command, run in-process; returns the program's report."""
    cfg = config.parse_config(inputs.config_path)
    if wl.kind == "benchmark":
        cfg["seeds"] = inputs.seeds
        return cli.run_benchmark(cfg, config.parse_seeds(cfg["seeds"]))
    report = cli.run_verify_theory(cfg)
    report["ldp"] = []
    for alpha, g1, g2, out in inputs.ldp_args:
        code = cli.main(["ldp", "--k", str(LDP_K), "--alpha", repr(alpha), "--gamma1", repr(g1),
                         "--gamma2", repr(g2), "--format", "machine", "--out", out])
        if code != 0:
            raise RuntimeError(f"ldp --alpha {alpha!r} exited with code {code}")
        with open(out) as fh:
            report["ldp"].append(json.load(fh))
    return report


def payload(wl: Workload, report: dict) -> dict:
    """The part of a report the correctness check compares, as plain JSON."""
    if wl.kind == "benchmark":
        doc = {"methods": report["methods"], "seeds": report["seeds"], "cells": report["cells"]}
    else:
        doc = {"instances": report["instances"], "summary": report["summary"],
               "ldp": report["ldp"]}
    return json.loads(json.dumps(doc))


def rte_seconds(report: dict) -> dict[str, float]:
    """Mean per-method RTE over the run's seeds, from the untraced report."""
    return {m: pair[0] for m, pair in report.get("rte_seconds", {}).items()}


def split_sizes(wl: Workload) -> dict[str, int]:
    """Row counts behind each percentage of a class-wise benchmark cell."""
    cfg = config.default_config()
    cfg.update(wl.overrides)
    K, per_class = cfg["data.k"], cfg["data.per_class"]
    return {"forget": per_class, "retain": (K - 1) * per_class,
            "test": (K - 1) * cfg["data.test_per_class"]}


@dataclass
class MicroInputs:
    """A workload's own data and model for the single-layer microtimings."""
    model: models.Model
    X: np.ndarray
    y: np.ndarray
    train_cfg: models.TrainConfig
    damping: float
    forget: data.LabeledDataset | None = None
    retain: data.LabeledDataset | None = None
    test: data.LabeledDataset | None = None  # None: no membership-inference split


def micro_inputs(wl: Workload, seed: int, inputs: Inputs) -> MicroInputs:
    cfg = config.parse_config(inputs.config_path)
    if wl.kind == "theory":
        grid = np.linspace(cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"])
        _, theta_tr, _, ds, _, _ = cli.theory_instance(cfg, 0, grid)
        tc = models.TrainConfig(epochs=1, batch_size=cfg["train.batch_size"],
                                lr=cfg["train.lr"], seed=seed)
        return MicroInputs(theta_tr, ds.X, ds.y, tc, cfg["theory.damping"])
    ds, test = cli.build_datasets(cfg)
    split, eval_test = cli.build_split(cfg, ds, test)
    model = cli.train_original(cfg, ds)
    tc = models.TrainConfig(epochs=1, batch_size=cfg["train.batch_size"], lr=cfg["train.lr"],
                            seed=cfg["train.seed"])
    return MicroInputs(model, ds.X, ds.y, tc, cfg["unlearn.damping"],
                       ds.subset(split.forget_idx), ds.subset(split.retain_idx), eval_test)

