"""Evaluation suite: unlearning/remaining/testing accuracy, loss-threshold
membership inference, combined metrics, and the forget-vs-test prediction
distribution comparison.

The membership attack is a 1-D threshold stump on per-example cross-entropy
losses; the threshold is chosen by exhaustive sweep over the observed values,
so scores depend only on the ordering of the losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .data import LabeledDataset
from .errors import DomainError
from .models import Model
from .numcore import rng_stream


@dataclass(frozen=True)
class MetricsReport:
    ua: float
    mia: float
    ra: float
    ta: float
    rte_seconds: float = 0.0
    additional_mia: float | None = None

    @property
    def sum(self) -> float:
        return sum_metric(self)


def example_losses(model: Model, ds: LabeledDataset) -> np.ndarray:
    """Per-example cross-entropy of the true label (no l2 term)."""
    p = models.forward(model, ds.X)
    picked = p[np.arange(ds.n), ds.y]
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
              test: LabeledDataset, seed: int = 0) -> float:
    """True-negative rate of the loss-threshold attack on the forget rows.

    The threshold is fit on a seeded half of the retain rows (members) vs
    the test rows (non-members); the score is the percentage of forget rows
    the attack calls non-member.  Higher means better forgotten.
    """
    if forget.n == 0 or retain.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    rng = rng_stream(seed, 5)
    half = max(1, retain.n // 2)
    member_idx = rng.choice(retain.n, size=half, replace=False)
    member_losses = example_losses(model, retain.subset(member_idx))
    nonmember_losses = example_losses(model, test)
    tau = _best_threshold(member_losses, nonmember_losses)
    forget_losses = example_losses(model, forget)
    return 100.0 * float(np.mean(forget_losses > tau))


def mia_accuracy_additional(model: Model, forget: LabeledDataset, test: LabeledDataset) -> float:
    """Balanced seen-vs-unseen attack accuracy (TP + TN) / (|D_f| + |D_te|).

    Forget rows count as seen; the sweep tries both threshold orientations
    and reports the best achievable raw accuracy.
    """
    if forget.n == 0 or test.n == 0:
        raise DomainError("empty dataset")
    _, correct = _sweep(example_losses(model, forget), example_losses(model, test))
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


def evaluate(model: Model, forget: LabeledDataset, retain: LabeledDataset,
             test: LabeledDataset, rte_seconds: float = 0.0, seed: int = 0) -> MetricsReport:
    """Full metric bundle for one unlearned model."""
    return MetricsReport(
        ua=ua(model, forget),
        mia=mia_score(model, forget, retain, test, seed),
        ra=accuracy(model, retain),
        ta=accuracy(model, test),
        rte_seconds=rte_seconds,
        additional_mia=mia_accuracy_additional(model, forget, test),
    )
