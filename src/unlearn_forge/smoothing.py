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

# Distance entries per stacked batch_alphas call in epoch_alphas.  2**15
# float64 entries are 256 KiB: on a 9,000-row epoch at batch 32 this kept peak
# RSS where one call per batch had it, and one call for the whole epoch
# raised it by 8 MiB.
ALPHA_BLOCK_ENTRIES = 2 ** 15


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
    """Row-wise smoothed labels for per-example rates, of shape y.shape + (K,)."""
    y = np.asarray(y, dtype=np.int64)
    alphas = np.broadcast_to(np.asarray(alphas, dtype=np.float64), y.shape)
    if np.any(alphas > 1):
        raise DomainError("smooth rate must be <= 1")
    return (1.0 - alphas)[..., None] * onehot(y, K) + (alphas / K)[..., None]


def pairwise_distance(Xr: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """Scaled cosine distance (1 - cos)/2 in [0, 1]; zero vectors map to 0.5.
    Dimensions before the last two index independent batches."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    Xf = np.atleast_2d(np.asarray(Xf, dtype=np.float64))
    if Xr.shape[-1] != Xf.shape[-1]:
        raise DimensionError("feature dimensions differ")
    nr = np.linalg.norm(Xr, axis=-1)
    nf = np.linalg.norm(Xf, axis=-1)
    denom = nr[..., :, None] * nf[..., None, :]
    dots = Xr @ np.swapaxes(Xf, -1, -2)
    # the rest runs in place: a stacked UGradSL epoch's distance block is its
    # largest buffer, so each extra copy would add to peak memory
    nonzero = denom > 0
    dist = np.divide(dots, denom, out=dots, where=nonzero)
    dist[~nonzero] = 0.0
    np.subtract(1.0, dist, out=dist)
    dist /= 2.0
    return np.clip(dist, 0.0, 1.0, out=dist)


def adaptive_rates(Xr: np.ndarray, Xf: np.ndarray, beta: float) -> np.ndarray:
    """Per-forget-row smooth rates c_i / |B_f| in [0, 1], with c_i the number
    of retain rows strictly within distance beta.  Dimensions before the last
    two index independent (retain, forget) batch pairs."""
    Xr = np.atleast_2d(np.asarray(Xr, dtype=np.float64))
    Xf = np.atleast_2d(np.asarray(Xf, dtype=np.float64))
    if Xr.shape[-2] == 0 or Xf.shape[-2] == 0:
        raise DomainError("empty batch")
    d = pairwise_distance(Xr, Xf)
    counts = (d < beta).sum(axis=-2)
    return counts / float(Xf.shape[-2])


def batch_alphas(policy: SmoothingPolicy, Xr: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """Effective smooth rates for the ascent term of the mixed loss, one per
    forget row; dimensions before the last two index independent batches.

    Adaptive rates enter negated: ascending the smoothed forget loss moves
    the target logit by alpha * (1 - 1/K) per unit step, so only alpha < 0
    actually pushes the forget targets down, and the push should grow with
    how entangled the forget row is with the retain batch.  Fixed mode passes
    the signed rate through unchanged (positive/negative smoothing ablations).
    """
    if policy.mode == "fixed":
        return np.full(np.atleast_2d(Xf).shape[:-1], policy.alpha)
    return -adaptive_rates(Xr, Xf, policy.beta)


def epoch_alphas(policy: SmoothingPolicy, Xr: np.ndarray, Xf: np.ndarray,
                 batch: int) -> np.ndarray:
    """``batch_alphas`` of every ``batch``-row slice of the paired rows
    ``Xr[..., i, :]``, ``Xf[..., i, :]``, equal to one call per slice, in row
    order; leading axes (one per lockstep run) come first in the result.

    The full batches go to ``batch_alphas`` stacked as (..., batches, batch,
    d), at most ``ALPHA_BLOCK_ENTRIES`` distance entries (and at least one
    batch) per call, so memory stays bounded whatever the epoch length.  A
    short last batch goes alone: its rates divide by its own row count.
    """
    *lead, n, d = Xf.shape
    runs = int(np.prod(lead))
    full = n - n % batch
    step = max(1, ALPHA_BLOCK_ENTRIES // (runs * batch * batch)) * batch
    parts = []
    for lo in range(0, full, step):
        hi = min(lo + step, full)
        parts.append(batch_alphas(policy, Xr[..., lo:hi, :].reshape(*lead, -1, batch, d),
                                  Xf[..., lo:hi, :].reshape(*lead, -1, batch, d)
                                  ).reshape(*lead, hi - lo))
    if full < n:
        parts.append(batch_alphas(policy, Xr[..., full:, :], Xf[..., full:, :]))
    return np.concatenate(parts, axis=-1)


def mixed_grad(model: Model, Xr: np.ndarray, yr: np.ndarray,
               Xf: np.ndarray, soft_f: np.ndarray, p: float) -> np.ndarray:
    """Analytic gradient of p * mean retain loss - (1-p) * mean smoothed forget
    loss w.r.t. theta; the minus sign is gradient ascent on the forget term."""
    if not (0.0 <= p <= 1.0):
        raise DomainError("p must be in [0, 1]")
    Xr = np.asarray(Xr, dtype=np.float64)
    Yr = onehot(yr, model.K)
    if Yr.shape[:-1] != Xr.shape[:-1]:
        raise DimensionError(f"{Yr[..., 0].size} retain labels for {Xr[..., 0].size} retain rows")
    # one-hot rows sum to 1 by construction: only the forget labels need _check_soft
    gr = models._grad(model, Xr, Yr)
    gf = models.grad(model, Xf, soft_f)
    return p * gr - (1.0 - p) * gf
