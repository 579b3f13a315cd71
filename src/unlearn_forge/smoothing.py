"""Generalized label smoothing and the gradient-mixed unlearning loss.

The smoothed label for class ``y`` with rate ``alpha`` is
``(1 - alpha) * onehot(y) + (alpha / K) * ones``; ``alpha < 0`` gives
negative smoothing (target weight above 1, others below 0).  The adaptive
rate assigns each forget example the fraction of its paired retain batch
that lies within a distance threshold ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DimensionError, DomainError
from .models import Model, onehot


@dataclass(frozen=True)
class SmoothingPolicy:
    mode: str = "fixed"  # "fixed" | "adaptive"
    alpha: float = 0.0   # fixed mode; any alpha <= 1, may be negative
    beta: float = 0.5    # adaptive mode; distance threshold in [0, 1]

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise DomainError(f"unknown smoothing mode {self.mode!r}")
        if self.mode == "fixed" and self.alpha > 1:
            raise DomainError("fixed smooth rate must be <= 1")
        if self.mode == "adaptive" and not (0.0 <= self.beta <= 1.0):
            raise DomainError("beta must be in [0, 1]")


def gls_labels(y: np.ndarray, K: int, alphas: np.ndarray) -> np.ndarray:
    """Row-wise smoothed labels for per-example rates."""
    y = np.asarray(y, dtype=np.int64)
    alphas = np.broadcast_to(np.asarray(alphas, dtype=np.float64), y.shape)
    if np.any(alphas > 1):
        raise DomainError("smooth rate must be <= 1")
    return (1.0 - alphas)[:, None] * onehot(y, K) + (alphas / K)[:, None]


def pairwise_distance(Xr: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """Scaled cosine distance (1 - cos)/2 in [0, 1]; zero vectors map to 0.5."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    Xf = np.atleast_2d(np.asarray(Xf, dtype=np.float64))
    if Xr.shape[1] != Xf.shape[1]:
        raise DimensionError("feature dimensions differ")
    nr = np.linalg.norm(Xr, axis=1)
    nf = np.linalg.norm(Xf, axis=1)
    denom = np.outer(nr, nf)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0, (Xr @ Xf.T) / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip((1.0 - cos) / 2.0, 0.0, 1.0)


def adaptive_rates(Xr: np.ndarray, Xf: np.ndarray, beta: float) -> np.ndarray:
    """Per-forget-row smooth rates c_i / |B_f| in [0, 1], with c_i the number
    of retain rows strictly within distance beta."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    Xf = np.atleast_2d(np.asarray(Xf, dtype=np.float64))
    if Xr.shape[0] == 0 or Xf.shape[0] == 0:
        raise DomainError("empty batch")
    d = pairwise_distance(Xr, Xf)
    counts = (d < beta).sum(axis=0)
    return counts / float(Xf.shape[0])


def batch_alphas(policy: SmoothingPolicy, Xr: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """Effective smooth rates for the ascent term of the mixed loss.

    Adaptive rates enter negated: ascending the smoothed forget loss moves
    the target logit by alpha * (1 - 1/K) per unit step, so only alpha < 0
    actually pushes the forget targets down, and the push should grow with
    how entangled the forget row is with the retain batch.  Fixed mode passes
    the signed rate through unchanged (positive/negative smoothing ablations).
    """
    if policy.mode == "fixed":
        return np.full(np.atleast_2d(Xf).shape[0], policy.alpha)
    return -adaptive_rates(Xr, Xf, policy.beta)


def mixed_grad(model: Model, Xr: np.ndarray, yr: np.ndarray,
               Xf: np.ndarray, soft_f: np.ndarray, p: float) -> np.ndarray:
    """Analytic gradient of p * mean retain loss - (1-p) * mean smoothed forget
    loss w.r.t. theta; the minus sign is gradient ascent on the forget term."""
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1]")
    gr = models.grad(model, Xr, onehot(yr, model.K))
    gf = models.grad(model, Xf, soft_f)
    return p * gr - (1.0 - p) * gf
