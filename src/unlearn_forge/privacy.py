"""Label-level local differential privacy induced by negatively smoothed
gradient-ascent unlearning.

With learning weight gamma1, unlearning weight gamma2 and smooth rate
alpha < 0, the per-example unlearning risk is

    A * (-log p_y) - (alpha * gamma2 / K) * sum_{y' != y} (-log p_{y'})

with A = gamma1 - gamma2 * (1 + (1-K)/K * alpha) required positive.  Its
minimizer over the simplex puts mass A / (A - (K-1) alpha gamma2 / K) on the
target label and (-alpha gamma2 / K) / (A - (K-1) alpha gamma2 / K) on each
other label; the privacy budget is

    epsilon = | log( (K/alpha) (1 - gamma1/gamma2) + 1 - K ) |.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class LdpParams:
    K: int
    alpha: float
    gamma1: float
    gamma2: float

    def __post_init__(self):
        if self.K < 2:
            raise DomainError("need K >= 2")
        for name in ("alpha", "gamma1", "gamma2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} is {getattr(self, name)}, not a finite number")
        if self.alpha >= 0:
            raise DomainError("smooth rate must be negative")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise DomainError("gamma weights must be positive")
        if self.A <= 0:
            raise DomainError(
                f"precondition gamma1 - gamma2*(1 + (1-K)/K * alpha) = {self.A:.6g} must be positive")

    @property
    def A(self) -> float:
        return self.gamma1 - self.gamma2 * (1.0 + (1.0 - self.K) / self.K * self.alpha)


@dataclass(frozen=True)
class LdpReport:
    epsilon: float
    p_target: float
    p_other: float
    empirical_max_log_ratio: float


def label_ldp_epsilon(params: LdpParams) -> float:
    """Privacy budget |log((K/alpha)(1 - gamma1/gamma2) + 1 - K)|."""
    arg = (params.K / params.alpha) * (1.0 - params.gamma1 / params.gamma2) + 1.0 - params.K
    if arg <= 0:
        raise DomainError(f"log argument {arg:.6g} is nonpositive")
    return abs(math.log(arg))


def optimal_prediction_distribution(params: LdpParams) -> tuple[float, float]:
    """(p_target, p_other) minimizing the weighted unlearning risk."""
    K, a, g2 = params.K, params.alpha, params.gamma2
    A = params.A
    denom = A - (K - 1) * a * g2 / K
    p_target = A / denom
    p_other = (-a * g2 / K) / denom
    return float(p_target), float(p_other)


def verify_ratio_bound(params: LdpParams) -> LdpReport:
    """Check of the privacy definition against the closed-form epsilon.

    Takes the max log probability ratio P[y, y_pred] / P[y', y_pred] over all
    (y, y', y_pred) label triples of the K x K optimal prediction table P,
    in O(1): for each prediction the largest ratio over (y, y') pairs is
    column max / column min, and every column holds p_target once and
    p_other K - 1 times, so each is max(p_target, p_other) / min(p_target,
    p_other).
    """
    eps = label_ldp_epsilon(params)
    p_target, p_other = optimal_prediction_distribution(params)
    low = min(p_target, p_other)
    # a p_other that underflowed to 0.0 gives an infinite ratio, as IEEE division does
    max_log_ratio = math.log(max(p_target, p_other) / low) if low > 0.0 else math.inf
    if max_log_ratio > eps + 1e-9:
        raise DomainError(
            f"empirical log ratio {max_log_ratio:.12g} exceeds epsilon {eps:.12g}")
    return LdpReport(epsilon=eps, p_target=p_target, p_other=p_other,
                     empirical_max_log_ratio=max_log_ratio)
