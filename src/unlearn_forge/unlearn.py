"""The unlearning method family behind one interface.

Methods: retrain, finetune (FT), gradient_ascent (GA), random_label (RL),
influence_unlearn (IU), ugradsl, ugradsl_plus.  Each returns an
UnlearnResult with the unlearned model, wall-clock seconds of the unlearning
call only, and per-epoch loss history.

Every iterative method runs on the one minibatch loop ``models.minibatch_sgd``,
FT and RL through ``models.sgd_train``, the others with their own batch gradients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import models, smoothing
from .data import ForgetSplit, LabeledDataset
from .errors import DomainError, UnsupportedModelError
from .models import Model, TrainConfig, onehot
from .numcore import DEFAULT_DAMPING, rng_stream, solve_damped
from .smoothing import SmoothingPolicy

METHODS = ("retrain", "ft", "ga", "rl", "iu", "ugradsl", "ugradsl_plus")


@dataclass(frozen=True)
class UnlearnConfig:
    method: str = "ugradsl"
    epochs: int = 10
    lr: float = 0.01
    p: float = 0.5
    batch_size: int = 32
    seed: int = 0
    damping: float = DEFAULT_DAMPING  # IU only
    smoothing: SmoothingPolicy = field(default_factory=SmoothingPolicy)

    def __post_init__(self):
        if self.method not in METHODS:
            raise DomainError(f"unknown unlearning method {self.method!r}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError("p must be in [0, 1]")
        if self.epochs < 0 or self.lr < 0 or self.batch_size < 1 or self.damping < 0:
            raise DomainError("invalid unlearning configuration")


@dataclass(frozen=True)
class UnlearnResult:
    model: Model
    rte_seconds: float
    history: list[float]


def _timed(fn):
    t0 = time.perf_counter()
    model, history = fn()
    return UnlearnResult(model, time.perf_counter() - t0, history)


def _require_nonempty(split: ForgetSplit, retain=True, forget=True):
    if retain and split.retain_idx.size == 0:
        raise DomainError("retain set is empty")
    if forget and split.forget_idx.size == 0:
        raise DomainError("forget set is empty")


def retrain(ds: LabeledDataset, split: ForgetSplit, train_cfg: TrainConfig,
            model_template: Model) -> UnlearnResult:
    """Train from a fresh initialization on the retain rows only."""
    _require_nonempty(split)
    retain = ds.subset(split.retain_idx)

    def run():
        fresh = models.init_model(model_template.kind, model_template.d, model_template.K,
                                  model_template.l2, model_template.hidden,
                                  rng_stream(train_cfg.seed, 1))
        return models.sgd_train(fresh, retain.X, retain.y, train_cfg)
    return _timed(run)


def finetune(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Continue SGD on the retain rows from the trained parameters."""
    _require_nonempty(split, forget=False)
    retain = ds.subset(split.retain_idx)
    tc = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed)
    return _timed(lambda: models.sgd_train(model, retain.X, retain.y, tc))


def gradient_ascent(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """SGD on the negated loss over the forget rows only."""
    _require_nonempty(split, retain=False)
    forget = ds.subset(split.forget_idx)
    labels = onehot(forget.y, model.K)
    return _timed(lambda: models.minibatch_sgd(
        model, forget.n, cfg, rng_stream(cfg.seed, 2),
        lambda m, idx: -models._grad(m, forget.X[idx], labels[idx]),
        lambda m: models.ce_loss(m, forget.X, labels), "ga"))


def random_label(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Relabel the forget rows with uniformly random wrong labels, then
    descend on retain plus relabeled forget rows."""
    _require_nonempty(split)
    if model.K < 2:
        raise DomainError("need K >= 2")
    rng = rng_stream(cfg.seed, 3)
    y_new = ds.y.copy()
    for i in split.forget_idx:
        wrong = [c for c in range(ds.K) if c != ds.y[i]]
        y_new[i] = wrong[rng.integers(len(wrong))]
    idx = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
    X, y = ds.X[idx], y_new[idx]
    tc = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed)
    return _timed(lambda: models.sgd_train(model, X, y, tc, rng))


def influence_unlearn(model: Model, ds: LabeledDataset, split: ForgetSplit,
                      damping: float = DEFAULT_DAMPING) -> UnlearnResult:
    """Single closed-form influence update, no iterations.

    theta_u = theta + [H_tr - H_f + damping I]^{-1} g_f with sum Hessians
    over the train/forget rows and g_f the summed forget gradient (the
    forget-weight -1 direction).  Per-example losses include the l2 term.
    """
    if model.kind != "logistic":
        raise UnsupportedModelError("influence unlearning needs the exact logistic Hessian")
    _require_nonempty(split, retain=False)

    def run():
        tr_idx = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
        Xtr, ytr = ds.X[tr_idx], ds.y[tr_idx]
        Xf, yf = ds.X[split.forget_idx], ds.y[split.forget_idx]
        n_tr, n_f = Xtr.shape[0], Xf.shape[0]
        # sum-objective Hessians and gradient (mean * n); l2 attributed per example
        H_tr = n_tr * models.hessian(model, Xtr, onehot(ytr, model.K))
        H_f = n_f * models.hessian(model, Xf, onehot(yf, model.K))
        g_f = n_f * models.grad(model, Xf, onehot(yf, model.K))
        delta = solve_damped(H_tr - H_f, g_f, damping)
        return model.with_theta(model.theta + delta), []
    return _timed(run)


def _ugradsl_run(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                 retain_driven: bool) -> UnlearnResult:
    """Shared runner for ugradsl (forget-driven) and ugradsl_plus (retain-driven).

    The driving set is iterated in shuffled batches each epoch; the other set
    is re-sampled with replacement to the same batch size each step.
    """
    _require_nonempty(split)
    retain = ds.subset(split.retain_idx)
    forget = ds.subset(split.forget_idx)
    labels = onehot(forget.y, model.K)
    drive_n, other_n = (retain.n, forget.n) if retain_driven else (forget.n, retain.n)
    rng = rng_stream(cfg.seed, 4)

    def batch_grad(m, d_idx):
        o_idx = rng.integers(other_n, size=d_idx.size)
        r_idx, f_idx = (d_idx, o_idx) if retain_driven else (o_idx, d_idx)
        Xr, Xf = retain.X[r_idx], forget.X[f_idx]
        alphas = smoothing.batch_alphas(cfg.smoothing, Xr, Xf)
        soft_f = smoothing.gls_labels(forget.y[f_idx], model.K, alphas)
        return smoothing.mixed_grad(m, Xr, retain.y[r_idx], Xf, soft_f, cfg.p)
    return _timed(lambda: models.minibatch_sgd(model, drive_n, cfg, rng, batch_grad,
                                               lambda m: models.ce_loss(m, forget.X, labels),
                                               "ugradsl_plus" if retain_driven else "ugradsl"))


def ugradsl(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Gradient-mixed smoothed-label unlearning, forget-set driven."""
    return _ugradsl_run(model, ds, split, cfg, retain_driven=False)


def ugradsl_plus(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Gradient-mixed smoothed-label unlearning, retain-set driven."""
    return _ugradsl_run(model, ds, split, cfg, retain_driven=True)


def run_method(method: str, model: Model, ds: LabeledDataset, split: ForgetSplit,
               cfg: UnlearnConfig, train_cfg: TrainConfig | None = None) -> UnlearnResult:
    """Dispatch a method name to its implementation."""
    if method == "retrain":
        if train_cfg is None:
            raise DomainError("retrain needs the original training configuration")
        return retrain(ds, split, train_cfg, model)
    if method == "ft":
        return finetune(model, ds, split, cfg)
    if method == "ga":
        return gradient_ascent(model, ds, split, cfg)
    if method == "rl":
        return random_label(model, ds, split, cfg)
    if method == "iu":
        return influence_unlearn(model, ds, split, cfg.damping)
    if method == "ugradsl":
        return ugradsl(model, ds, split, cfg)
    if method == "ugradsl_plus":
        return ugradsl_plus(model, ds, split, cfg)
    raise DomainError(f"unknown unlearning method {method!r}")
