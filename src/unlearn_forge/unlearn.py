"""The unlearning method family behind one interface.

Methods: retrain, finetune (FT), gradient_ascent (GA), random_label (RL),
influence_unlearn (IU), ugradsl, ugradsl_plus.  Each is called as
``fn(model, ds, split, cfg)`` and returns an UnlearnResult with the unlearned
model, wall-clock seconds of the whole method call, and per-epoch loss
history.  ``run_method`` picks the function named by ``cfg.method``.

Each also runs several seeds in lockstep: ``fn(model, ds, split, cfg,
seeds=[...])`` returns one result per seed, each with the bits of that seed's
own run, and charges each the call's wall-clock divided by the number of
seeds.  Every iterative method runs on the one minibatch loop
``models.minibatch_sgd`` with all the seeds' parameter vectors stacked:
retrain, FT, RL and GA (negated) through ``sgd_train``'s body, UGradSL(+)
with its own ``epoch_grad``, each naming its method when it diverges.  Each
seed keeps its own generator; a method draws every seed's randomness
(shuffles, UGradSL partners, RL's wrong labels, an MLP's initial weights) and
stacks it.  Once per epoch ``epoch_grad`` gathers the rows of that epoch's
shuffled orders (for UGradSL also the partner rows, the smooth rates and the
smoothed labels), and each step takes the gradient on a slice of them.  IU
draws nothing, so it computes its update once for all seeds.  A method body
returns only the stacked model and one history per seed: the ``_lockstep``
wrapper around it is the one reader of the clock.
"""

from __future__ import annotations

import functools
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
        if not 0 <= self.damping < np.inf:  # false for nan too
            raise DomainError(f"damping is {self.damping}: negative or not finite")


@dataclass(frozen=True)
class UnlearnResult:
    model: Model
    rte_seconds: float
    history: list[float]


def _lockstep(run):
    """The public form of a method ``run(model, ds, split, cfg, seeds)``,
    which returns the stacked model and one history per seed: it times the
    whole call and returns one result per seed, each charged an equal share
    of it; without ``seeds`` it runs ``cfg.seed`` alone and returns that one
    result.  An empty ``seeds`` is a DomainError."""
    @functools.wraps(run)
    def method(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg, seeds=None):
        group = [cfg.seed] if seeds is None else list(seeds)
        if not group:
            raise DomainError("seeds is empty: a method runs at one seed or more")
        t0 = time.perf_counter()
        stacked, histories = run(model, ds, split, cfg, group)
        share = (time.perf_counter() - t0) / len(group)
        results = [UnlearnResult(stacked.with_stack(stacked.theta[i]), share, history)
                   for i, history in enumerate(histories)]
        return results[0] if seeds is None else results
    return method


def _stack(model: Model, seeds) -> Model:
    """``model`` as the start of one run per seed."""
    return model.with_stack(np.tile(model.theta, (len(seeds), 1)))


def _require_retain(split: ForgetSplit):
    """For the methods whose retain rows reach no ``models._sgd`` empty-data check."""
    if split.retain_idx.size == 0:
        raise DomainError("retain set is empty")


@_lockstep
def retrain(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: TrainConfig, seeds):
    """Train a fresh model of ``model``'s shape on the retain rows only."""
    retain = ds.subset(split.retain_idx)
    fresh = [models.init_model(model.kind, model.d, model.K, model.l2, model.hidden,
                               rng_stream(s, 1)).theta for s in seeds]
    return models._sgd(model.with_stack(np.stack(fresh)), retain.X, retain.y, cfg,
                       [rng_stream(s, 0) for s in seeds], "retrain")


@_lockstep
def finetune(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig, seeds):
    """Continue SGD on the retain rows from the trained parameters."""
    retain = ds.subset(split.retain_idx)
    return models._sgd(_stack(model, seeds), retain.X, retain.y, cfg,
                       [rng_stream(s, 0) for s in seeds], "ft")


@_lockstep
def gradient_ascent(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                    seeds):
    """SGD on the negated loss over the forget rows only."""
    forget = ds.subset(split.forget_idx)
    return models._sgd(_stack(model, seeds), forget.X, forget.y, cfg,
                       [rng_stream(s, 2) for s in seeds], "ga", ascent=True)


@_lockstep
def random_label(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                 seeds):
    """Relabel the forget rows with uniformly random wrong labels, then
    descend on retain plus relabeled forget rows."""
    _require_retain(split)
    idx = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
    rows = ds.subset(idx)
    rngs = [rng_stream(s, 3) for s in seeds]
    y_new = np.repeat(ds.y[None], len(seeds), axis=0)
    for y, rng in zip(y_new, rngs):
        # the r-th class other than y, for r uniform in [0, K-1)
        r = rng.integers(ds.K - 1, size=split.forget_idx.size)
        y[split.forget_idx] = r + (r >= ds.y[split.forget_idx])
    return models._sgd(_stack(model, seeds), rows.X, y_new[:, idx], cfg, rngs, "rl")


@_lockstep
def influence_unlearn(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                      seeds):
    """Single closed-form influence update, no iterations:
    theta_u = theta + influence.delta_f with ``cfg.damping`` (logistic only),
    under the engine's ``np.errstate``: the solve's and the softmax's typed
    errors name an overflow."""
    retain, forget = ds.subset(split.retain_idx), ds.subset(split.forget_idx)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = model.theta + influence.delta_f(model, retain, forget, cfg.damping)
    return _stack(model.with_theta(theta), seeds), [[] for _ in seeds]


def _ugradsl_run(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
                 seeds, retain_driven: bool) -> tuple[Model, list[list[float]]]:
    """Shared runner for ugradsl (forget-driven) and ugradsl_plus (retain-driven).

    The driving set is iterated in shuffled batches each epoch; each batch is
    paired with as many rows of the other set, drawn with replacement.  One
    ``rng.integers(other_n, size=drive_n)`` per seed and epoch gives the same
    partners as one draw per batch, so the epoch's pairs, smooth rates and
    smoothed labels are all built before its first step.
    """
    _require_retain(split)
    retain = ds.subset(split.retain_idx)
    forget = ds.subset(split.forget_idx)
    labels = onehot(forget.y, model.K)
    drive_n, other_n = (retain.n, forget.n) if retain_driven else (forget.n, retain.n)
    rngs = [rng_stream(s, 4) for s in seeds]

    def epoch_grad(orders):
        partners = np.stack([rng.integers(other_n, size=drive_n) for rng in rngs])
        r_idx, f_idx = (orders, partners) if retain_driven else (partners, orders)
        Xr, yr, Xf = retain.X[r_idx], retain.y[r_idx], forget.X[f_idx]
        alphas = smoothing.epoch_alphas(cfg.smoothing, Xr, Xf, cfg.batch_size)
        soft_f = smoothing.gls_labels(forget.y[f_idx], model.K, alphas)
        return lambda m, lo, hi: smoothing.mixed_grad(m, Xr[:, lo:hi], yr[:, lo:hi], Xf[:, lo:hi],
                                                      soft_f[:, lo:hi], cfg.p)
    return models.minibatch_sgd(_stack(model, seeds), drive_n, cfg, rngs, epoch_grad,
                                (forget.X, labels), "ugradsl_plus" if retain_driven else "ugradsl")


@_lockstep
def ugradsl(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig, seeds):
    """Gradient-mixed smoothed-label unlearning, forget-set driven."""
    return _ugradsl_run(model, ds, split, cfg, seeds, retain_driven=False)


@_lockstep
def ugradsl_plus(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig, seeds):
    """Gradient-mixed smoothed-label unlearning, retain-set driven."""
    return _ugradsl_run(model, ds, split, cfg, seeds, retain_driven=True)


_RUNNERS = {"retrain": retrain, "ft": finetune, "ga": gradient_ascent, "rl": random_label,
            "iu": influence_unlearn, "ugradsl": ugradsl, "ugradsl_plus": ugradsl_plus}
METHODS = tuple(_RUNNERS)


def run_method(model: Model, ds: LabeledDataset, split: ForgetSplit, cfg: UnlearnConfig,
               seeds=None) -> UnlearnResult | list[UnlearnResult]:
    """Run the method named by ``cfg.method`` at ``cfg.seed``, or at each of
    ``seeds`` in lockstep (one result per seed)."""
    return _RUNNERS[cfg.method](model, ds, split, cfg, seeds)
