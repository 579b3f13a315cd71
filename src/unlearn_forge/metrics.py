"""Evaluation suite: unlearning/remaining/testing accuracy, loss-threshold
membership inference, combined metrics, and the forget-vs-test prediction
distribution comparison; no wall-clock (RTE stays on ``UnlearnResult``).

The membership attack is a 1-D threshold stump on per-example cross-entropy
losses; the threshold is chosen by exhaustive sweep over the observed values,
so scores depend only on the ordering of the losses.  ``evaluate`` scores a
seed group's models together, with one forward per set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .data import LabeledDataset
from .errors import DimensionError, DomainError
from .models import Model
from .numcore import rng_stream


@dataclass(frozen=True)
class MetricsReport:
    ua: float
    mia: float
    ra: float
    ta: float
    additional_mia: float | None = None

    @property
    def sum(self) -> float:
        return sum_metric(self)


def example_losses(model: Model, ds: LabeledDataset) -> np.ndarray:
    """Per-example cross-entropy of the true label (no l2 term)."""
    return _label_losses(models.forward(model, ds.X), ds.y)


def _label_losses(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``example_losses`` from the probabilities ``p`` of the rows labelled
    ``y``, over p's leading axes."""
    picked = p[..., np.arange(len(y)), y]
    return -np.log(np.maximum(picked, 1e-300))


def accuracy(model: Model, ds: LabeledDataset) -> float:
    """Percentage of correct argmax predictions."""
    if ds.n == 0:
        raise DomainError("empty dataset")
    return 100.0 * float(np.mean(models.predict(model, ds.X) == ds.y))


def ua(model: Model, forget: LabeledDataset) -> float:
    """Unlearning accuracy: error percentage on the forget rows."""
    return 100.0 - accuracy(model, forget)


def _sweep(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate thresholds (-inf, then the sorted unique losses) and, for
    each, how many rows the rule ``loss > tau -> non-member`` gets right."""
    candidates = np.concatenate([[-np.inf], np.unique(np.concatenate([member_losses, nonmember_losses]))])
    members_le = np.searchsorted(np.sort(member_losses), candidates, side="right")
    nonmembers_le = np.searchsorted(np.sort(nonmember_losses), candidates, side="right")
    return candidates, members_le + (nonmember_losses.size - nonmembers_le)


def _best_threshold(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Threshold maximizing member/non-member accuracy for the rule
    ``loss > tau -> non-member``; smallest maximizer wins ties."""
    candidates, correct = _sweep(member_losses, nonmember_losses)
    return float(candidates[np.argmax(correct)])


def mia_score(model: Model, forget: LabeledDataset, retain: LabeledDataset,
              test: LabeledDataset, seed: int = 0, losses=None) -> float:
    """True-negative rate of the loss-threshold attack on the forget rows.

    The threshold is fit on a seeded half of the retain rows (members) vs
    the test rows (non-members); the score is the percentage of forget rows
    the attack calls non-member.  Higher means better forgotten.  ``losses``
    are ``model``'s ``example_losses`` on (forget, retain, test) when the
    caller has them; otherwise they are computed here.
    """
    if forget.n == 0 or retain.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    forget_losses, retain_losses, test_losses = losses or (
        example_losses(model, ds) for ds in (forget, retain, test))
    rng = rng_stream(seed, 5)
    half = max(1, retain.n // 2)
    member_idx = rng.choice(retain.n, size=half, replace=False)
    # a row's probabilities do not depend on the rows computed with it, so
    # the members' losses are those of their rows in the whole retain set
    tau = _best_threshold(retain_losses[member_idx], test_losses)
    return 100.0 * float(np.mean(forget_losses > tau))


def mia_accuracy_additional(model: Model, forget: LabeledDataset, test: LabeledDataset,
                            losses=None) -> float:
    """Balanced seen-vs-unseen attack accuracy (TP + TN) / (|D_f| + |D_te|).

    Forget rows count as seen; the sweep tries both threshold orientations
    and reports the best achievable raw accuracy.  ``losses`` are
    ``model``'s ``example_losses`` on (forget, test) when the caller has
    them; otherwise they are computed here.
    """
    if forget.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    forget_losses, test_losses = losses or (example_losses(model, ds) for ds in (forget, test))
    _, correct = _sweep(forget_losses, test_losses)
    n = forget.n + test.n
    return 100.0 * float(np.maximum(correct, n - correct).max() / n)


def avg_gap(report: MetricsReport, retrain_report: MetricsReport) -> float:
    """Mean absolute gap in UA, MIA, RA, TA versus the retrain reference."""
    gaps = [abs(report.ua - retrain_report.ua), abs(report.mia - retrain_report.mia),
            abs(report.ra - retrain_report.ra), abs(report.ta - retrain_report.ta)]
    return float(np.mean(gaps))


def sum_metric(report: MetricsReport) -> float:
    """UA + MIA + RA + TA (complete-unlearning objective)."""
    return report.ua + report.mia + report.ra + report.ta


def streisand(model: Model, forget: LabeledDataset, test: LabeledDataset) -> dict:
    """Predicted-class histograms on forget and test rows plus their
    total-variation distance (reporting only)."""
    if forget.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    K = model.K
    hf = np.bincount(models.predict(model, forget.X), minlength=K) / forget.n
    ht = np.bincount(models.predict(model, test.X), minlength=K) / test.n
    return {
        "forget_hist": hf,
        "test_hist": ht,
        "tv_distance": 0.5 * float(np.abs(hf - ht).sum()),
    }


def evaluate(model: Model, forget: LabeledDataset, retain: LabeledDataset, test: LabeledDataset,
             seed: int | list[int] = 0) -> MetricsReport | list[MetricsReport]:
    """Full metric bundle for one unlearned model.

    In lockstep form ``model.theta`` is an (S, P) stack and ``seed`` a list
    of S seeds, and the result is one report per row, each the bits of that
    row's own call.  Either way one ``forward`` per set gives every row's
    probabilities, from which the accuracies and the attacks' per-example
    losses are taken; the attacks then run once per row.  A forward that
    fails raises its DomainError naming the set it ran on."""
    if forget.n == 0 or retain.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    single = model.theta.ndim == 1
    stack = model.with_stack(model.theta[None]) if single else model
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(stack.theta):
        raise DimensionError(f"{len(seeds)} seeds for {len(stack.theta)} models")
    sets = (forget, retain, test)
    probs = []
    # like the engine, let the typed error name an overflow, here with its set
    with np.errstate(over="ignore", invalid="ignore"):
        for name, ds in zip(("forget", "retain", "test"), sets):
            try:
                probs.append(models.forward(stack, ds.X))
            except DomainError as exc:
                raise type(exc)(f"evaluating on the {name} rows: {exc}") from exc
    hits = [np.argmax(p, axis=-1) == ds.y for p, ds in zip(probs, sets)]
    losses = [_label_losses(p, ds.y) for p, ds in zip(probs, sets)]
    reports = []
    for s, row_seed in enumerate(seeds):
        row = stack.with_stack(stack.theta[s])
        forget_acc, ra, ta = (100.0 * float(np.mean(h[s])) for h in hits)
        lf, lr, lt = (l[s] for l in losses)
        reports.append(MetricsReport(
            ua=100.0 - forget_acc,
            mia=mia_score(row, forget, retain, test, row_seed, losses=(lf, lr, lt)),
            ra=ra,
            ta=ta,
            additional_mia=mia_accuracy_additional(row, forget, test, losses=(lf, lt)),
        ))
    return reports[0] if single else reports
