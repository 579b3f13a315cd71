"""Influence-function machinery and numerical verifiers for the
gradient-ascent and label-smoothing unlearning theory.

All quantities are computed on the convex logistic model with exact
Hessians.  Per-example losses include the l2 term, so the sum objective over
a dataset D is sum_D ce(z) + |D| * l2/2 * ||theta||^2 and its stationary
point coincides with the mean training objective's.

Directions (damped solves throughout):

* delta_r = (sum_{D_tr} H(theta_r))^{-1} sum_{D_tr} g(theta_r)
* delta_f = (sum_{D_r} H(theta_tr))^{-1} sum_{D_f} g(theta_tr)
* delta_n = 1/(K-1) (sum_{D_r} H(theta_tr))^{-1} sum_{D_f} sum_{y' != y} g_{y'}(theta_tr)

The smoothed-unlearning distance as a function of the smooth rate a is
||delta_r - delta_f + ((1-K)/K) * a * (delta_n - delta_f)||, a quadratic
in a minimized in closed form for cross-checking the grid search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import LabeledDataset
from .errors import DomainError, UnsupportedModelError
from .models import Model, onehot
from .numcore import DEFAULT_DAMPING, solve_damped

STATIONARITY_WARN = 1e-3


def _check_logistic(model: Model):
    if model.kind != "logistic":
        raise UnsupportedModelError("theory checks require the logistic model")


def _sum_hessian(model: Model, X, y) -> np.ndarray:
    return X.shape[0] * models.hessian(model, X, onehot(y, model.K))


def _sum_grad(model: Model, X, y) -> np.ndarray:
    return X.shape[0] * models.grad(model, X, onehot(y, model.K))


@dataclass
class TheoryReport:
    delta_r: np.ndarray | None = None
    delta_f: np.ndarray | None = None
    delta_n: np.ndarray | None = None
    dist_ga: float = 0.0
    dist_noop: float = 0.0
    inner: float = 0.0
    theorem1_residual: float = 0.0
    ga_cannot_help: bool = False
    condition_met: bool = False
    best_alpha: float | None = None
    dist_gls_at_best_alpha: float | None = None
    closed_form_alpha: float | None = None
    damping: float = DEFAULT_DAMPING
    grad_norm_tr: float = 0.0
    grad_norm_r: float = 0.0
    warnings: list[str] = field(default_factory=list)


def influence_of(z: tuple[np.ndarray, int], model: Model, ds: LabeledDataset,
                 damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """-(H + damping I)^{-1} grad l(theta, z) with H the Hessian of the
    dataset objective at a near-stationary theta."""
    _check_logistic(model)
    x, y = z
    g_full = models.grad(model, ds.X, onehot(ds.y, model.K))
    if np.linalg.norm(g_full) > 1e-4:
        raise DomainError("model is not stationary on the dataset (grad norm > 1e-4)")
    H = models.hessian(model, ds.X, onehot(ds.y, model.K))
    g = models.grad(model, np.atleast_2d(x), onehot(np.array([y]), model.K))
    return -solve_damped(H, g, damping)


def delta_r(theta_r_model: Model, tr: LabeledDataset,
            damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Learning-gap direction evaluated at the retrained optimum."""
    _check_logistic(theta_r_model)
    H = _sum_hessian(theta_r_model, tr.X, tr.y)
    g = _sum_grad(theta_r_model, tr.X, tr.y)
    return solve_damped(H, g, damping)


def delta_f(theta_tr_model: Model, retain: LabeledDataset, forget: LabeledDataset,
            damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Backtracked unlearning direction evaluated at the trained optimum."""
    _check_logistic(theta_tr_model)
    H = _sum_hessian(theta_tr_model, retain.X, retain.y)
    g = _sum_grad(theta_tr_model, forget.X, forget.y)
    return solve_damped(H, g, damping)


def nontarget_grad_sum(model: Model, forget: LabeledDataset) -> np.ndarray:
    """sum over forget rows of sum_{y' != y} grad ce(x, y'), l2 included per term.

    grad is linear in the soft label: one call on rows (1 - onehot(y))/(K-1)."""
    nontarget = (1.0 - onehot(forget.y, model.K)) / (model.K - 1)
    return forget.n * (model.K - 1) * models.grad(model, forget.X, nontarget)


def delta_n(theta_tr_model: Model, retain: LabeledDataset, forget: LabeledDataset,
            damping: float = DEFAULT_DAMPING) -> np.ndarray:
    """Non-target-label smoothing direction (1/(K-1) normalized)."""
    _check_logistic(theta_tr_model)
    H = _sum_hessian(theta_tr_model, retain.X, retain.y)
    g = nontarget_grad_sum(theta_tr_model, forget)
    return solve_damped(H, g, damping) / (theta_tr_model.K - 1)


def gls_distance(dr: np.ndarray, df: np.ndarray, dn: np.ndarray, K: int, alpha: float) -> float:
    """||delta_r - delta_f + ((1-K)/K) * alpha * (delta_n - delta_f)||."""
    u = dr - df
    v = dn - df
    c = (1.0 - K) / K
    return float(np.linalg.norm(u + c * alpha * v))


def closed_form_best_alpha(dr: np.ndarray, df: np.ndarray, dn: np.ndarray, K: int) -> float | None:
    """Unconstrained minimizer of the quadratic alpha -> gls_distance^2."""
    u = dr - df
    v = dn - df
    c = (1.0 - K) / K
    denom = c * c * float(v @ v)
    if denom == 0.0:
        return None
    return -c * float(u @ v) / denom


def _stationarity(model: Model, ds: LabeledDataset) -> float:
    return float(np.linalg.norm(models.grad(model, ds.X, onehot(ds.y, model.K))))


def check_theorem1(theta_tr_model: Model, theta_r_model: Model,
                   tr: LabeledDataset, retain: LabeledDataset, forget: LabeledDataset,
                   damping: float = DEFAULT_DAMPING) -> TheoryReport:
    """Exact-unlearning condition residual plus the GA-distance comparison.

    Reports dist_ga = ||delta_r - delta_f||, dist_noop = ||delta_r|| and
    flags the regime where gradient ascent moves the model further from the
    retrained optimum than doing nothing.
    """
    _check_logistic(theta_tr_model)
    rep = TheoryReport(damping=damping)
    rep.grad_norm_tr = _stationarity(theta_tr_model, tr)
    rep.grad_norm_r = _stationarity(theta_r_model, retain)
    if rep.grad_norm_tr > STATIONARITY_WARN:
        rep.warnings.append(f"theta_tr not stationary (grad norm {rep.grad_norm_tr:.2e})")
    if rep.grad_norm_r > STATIONARITY_WARN:
        rep.warnings.append(f"theta_r not stationary (grad norm {rep.grad_norm_r:.2e})")
    rep.delta_r = delta_r(theta_r_model, tr, damping)
    rep.delta_f = delta_f(theta_tr_model, retain, forget, damping)
    rep.dist_ga = float(np.linalg.norm(rep.delta_r - rep.delta_f))
    rep.dist_noop = float(np.linalg.norm(rep.delta_r))
    rep.ga_cannot_help = rep.dist_ga > rep.dist_noop
    # residual of: sum_{D_f} g(theta_r) + H_tr(theta_r) H_r(theta_tr)^{-1} sum_{D_f} g(theta_tr)
    g_f_at_r = _sum_grad(theta_r_model, forget.X, forget.y)
    H_tr_at_r = _sum_hessian(theta_r_model, tr.X, tr.y)
    rep.theorem1_residual = float(np.linalg.norm(g_f_at_r + H_tr_at_r @ rep.delta_f))
    return rep


def check_theorem2(theta_tr_model: Model, theta_r_model: Model,
                   tr: LabeledDataset, retain: LabeledDataset, forget: LabeledDataset,
                   alpha_grid: np.ndarray, damping: float = DEFAULT_DAMPING) -> TheoryReport:
    """Smoothing-helps condition and the best negative smooth rate on a grid.

    When <delta_r - delta_f, delta_n - delta_f> <= 0 the distance as a
    function of the smooth rate decreases for some alpha < 0; the grid
    argmin is recorded together with the closed-form quadratic minimizer.
    """
    alpha_grid = np.asarray(alpha_grid, dtype=np.float64)
    if alpha_grid.size == 0:
        raise DomainError("empty alpha grid")
    if np.any(alpha_grid >= 0):
        raise DomainError("alpha grid must be all negative")
    rep = check_theorem1(theta_tr_model, theta_r_model, tr, retain, forget, damping)
    rep.delta_n = delta_n(theta_tr_model, retain, forget, damping)
    u = rep.delta_r - rep.delta_f
    v = rep.delta_n - rep.delta_f
    rep.inner = float(u @ v)
    rep.condition_met = rep.inner <= 0.0
    K = theta_tr_model.K
    rep.closed_form_alpha = closed_form_best_alpha(rep.delta_r, rep.delta_f, rep.delta_n, K)
    dists = np.array([gls_distance(rep.delta_r, rep.delta_f, rep.delta_n, K, a) for a in alpha_grid])
    if rep.condition_met:
        i = int(np.argmin(dists))
        rep.best_alpha = float(alpha_grid[i])
        rep.dist_gls_at_best_alpha = float(dists[i])
    return rep


def inner_product_survey(instances, damping: float = DEFAULT_DAMPING) -> dict:
    """Inner products over (theta_tr, theta_r, datasets) instances and the
    fraction that satisfy the smoothing-helps condition."""
    inners = []
    for theta_tr_model, theta_r_model, tr, retain, forget in instances:
        rep = check_theorem2(theta_tr_model, theta_r_model, tr, retain, forget,
                             np.array([-1.0]), damping)
        inners.append(rep.inner)
    if not inners:
        raise DomainError("need at least one instance")
    inners = np.array(inners)
    return {
        "inner_products": inners,
        "fraction_nonpositive": float(np.mean(inners <= 0.0)),
    }
