"""The unlearning method family behind one interface.

Methods: retrain, finetune (FT), gradient_ascent (GA), random_label (RL),
influence_unlearn (IU), ugradsl, ugradsl_plus.  Each is called as
``fn(model, ds, split, cfg)`` and returns an UnlearnResult with the unlearned
model, wall-clock seconds of the unlearning call only, and per-epoch loss
history.  ``run_method`` picks the function named by ``cfg.method``.

Every iterative method runs on the one minibatch loop ``models.minibatch_sgd``,
FT and RL through ``models.sgd_train``, GA and UGradSL(+) with their own
``epoch_grad``: once per epoch it gathers the rows of that epoch's shuffled
order (for UGradSL also the partner rows, the smooth rates and the smoothed
labels), and each step takes the gradient on a slice of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import influence, models, smoothing
from .data import ForgetSplit, LabeledDataset
from .errors import DomainError
from .models import Model, TrainConfig, onehot
from .numcore import DEFAULT_DAMPING, rng_stream
from .numcore import solve_damped  # noqa: F401  (bench/selftest.py reads unlearn.solve_damped)
from .smoothing import SmoothingPolicy


@dataclass(frozen=True)
class UnlearnConfig(TrainConfig):
    """The SGD schedule of a ``TrainConfig`` plus the unlearning knobs."""
    epochs: int = 10
    lr: float = 0.01
    method: str = "ugradsl"
    p: float = 0.5
    damping: float = DEFAULT_DAMPING  # IU only
    smoothing: SmoothingPolicy = field(default_factory=SmoothingPolicy)

    def __post_init__(self):
        super().__post_init__()
        if self.method not in METHODS:
            raise DomainError(f"unknown unlearning method {self.method!r}")
        if not (0.0 <= self.p <= 1.0):
            raise DomainError("p must be in [0, 1]")
        if self.damping < 0:
            raise DomainError("damping must be nonnegative")


@dataclass(frozen=True)
class UnlearnResult:
    model: Model
    rte_seconds: float
    history: list[float]


def _timed(fn):
    t0 = time.perf_counter()
    model, history = fn()
    return UnlearnResult(model, time.perf_counter() - t0, history)


def _require_retain(split: ForgetSplit):
    """For the methods whose retain rows reach no ``sgd_train`` empty-data check."""
    if split.retain_idx.size == 0:
        raise DomainError("retain set is empty")


def retrain(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: TrainConfig) -> UnlearnResult:
    """Train a fresh model of ``model``'s shape on the retain rows only."""
    retain = ds.subset(split.retain_idx)

    def run():
        fresh = models.init_model(model.kind, model.d, model.K, model.l2, model.hidden,
                                  rng_stream(cfg.seed, 1))
        return models.sgd_train(fresh, retain.X, retain.y, cfg)
    return _timed(run)


def finetune(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Continue SGD on the retain rows from the trained parameters."""
    retain = ds.subset(split.retain_idx)
    return _timed(lambda: models.sgd_train(model, retain.X, retain.y, cfg))


def gradient_ascent(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """SGD on the negated loss over the forget rows only."""
    forget = ds.subset(split.forget_idx)
    labels = onehot(forget.y, model.K)

    def epoch_grad(order):
        Xo, So = forget.X[order], labels[order]
        return lambda m, lo, hi: -models._grad(m, Xo[lo:hi], So[lo:hi])
    return _timed(lambda: models.minibatch_sgd(
        model, forget.n, cfg, rng_stream(cfg.seed, 2), epoch_grad,
        lambda m: models.ce_loss(m, forget.X, labels), "ga"))


def random_label(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Relabel the forget rows with uniformly random wrong labels, then
    descend on retain plus relabeled forget rows."""
    _require_retain(split)
    idx = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
    rows = ds.subset(idx)
    rng = rng_stream(cfg.seed, 3)
    y_new = ds.y.copy()
    # the r-th class other than y, for r uniform in [0, K-1)
    r = rng.integers(ds.K - 1, size=split.forget_idx.size)
    y_new[split.forget_idx] = r + (r >= ds.y[split.forget_idx])
    y = y_new[idx]
    return _timed(lambda: models.sgd_train(model, rows.X, y, cfg, rng))


def influence_unlearn(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Single closed-form influence update, no iterations:
    theta_u = theta + influence.delta_f with ``cfg.damping`` (logistic only)."""
    def run():
        retain, forget = ds.subset(split.retain_idx), ds.subset(split.forget_idx)
        return model.with_theta(model.theta + influence.delta_f(model, retain, forget, cfg.damping)), []
    return _timed(run)


def _ugradsl_run(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                 retain_driven: bool) -> UnlearnResult:
    """Shared runner for ugradsl (forget-driven) and ugradsl_plus (retain-driven).

    The driving set is iterated in shuffled batches each epoch; each batch is
    paired with as many rows of the other set, drawn with replacement.  One
    ``rng.integers(other_n, size=drive_n)`` per epoch gives the same partners
    as one draw per batch, so the epoch's pairs, smooth rates and smoothed
    labels are all built before its first step.
    """
    _require_retain(split)
    retain = ds.subset(split.retain_idx)
    forget = ds.subset(split.forget_idx)
    labels = onehot(forget.y, model.K)
    drive_n, other_n = (retain.n, forget.n) if retain_driven else (forget.n, retain.n)
    rng = rng_stream(cfg.seed, 4)

    def epoch_grad(order):
        partners = rng.integers(other_n, size=drive_n)
        r_idx, f_idx = (order, partners) if retain_driven else (partners, order)
        Xr, yr, Xf = retain.X[r_idx], retain.y[r_idx], forget.X[f_idx]
        alphas = smoothing.epoch_alphas(cfg.smoothing, Xr, Xf, cfg.batch_size)
        soft_f = smoothing.gls_labels(forget.y[f_idx], model.K, alphas)
        return lambda m, lo, hi: smoothing.mixed_grad(m, Xr[lo:hi], yr[lo:hi], Xf[lo:hi],
                                                      soft_f[lo:hi], cfg.p)
    return _timed(lambda: models.minibatch_sgd(model, drive_n, cfg, rng, epoch_grad,
                                               lambda m: models.ce_loss(m, forget.X, labels),
                                               "ugradsl_plus" if retain_driven else "ugradsl"))


def ugradsl(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Gradient-mixed smoothed-label unlearning, forget-set driven."""
    return _ugradsl_run(model, ds, split, cfg, retain_driven=False)


def ugradsl_plus(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Gradient-mixed smoothed-label unlearning, retain-set driven."""
    return _ugradsl_run(model, ds, split, cfg, retain_driven=True)


_RUNNERS = {"retrain": retrain, "ft": finetune, "ga": gradient_ascent, "rl": random_label,
            "iu": influence_unlearn, "ugradsl": ugradsl, "ugradsl_plus": ugradsl_plus}
METHODS = tuple(_RUNNERS)


def run_method(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig) -> UnlearnResult:
    """Run the method named by ``cfg.method``."""
    return _RUNNERS[cfg.method](model, ds, split, cfg)
