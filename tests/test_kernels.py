"""The logistic and MLP kernels equal their plain-expression oracles bit for bit.

``tests/oracles.py`` keeps each kernel as it was written with fresh
temporaries; the shipped kernels reuse buffers and take fast paths, which
must change no bit of any result and accept or reject exactly the same
soft-label rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ce_loss_ref, check_soft_ref, grad_ref, hessian_ref, softmax_rows_ref

from unlearn_forge import models, smoothing
from unlearn_forge.errors import DimensionError, DomainError
from unlearn_forge.models import onehot
from unlearn_forge.numcore import softmax_rows

ROWS = (0, 1, 31, 32, 33, 1025)
CLASSES = (2, 3, 10)
LABELS = ("onehot", "gls_negative", "zero_rows")
TOL = 1e-9 + 1e-5


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def instance(seed, n, K, labels, kind="logistic", d=4, scale=1.0):
    """A model with random parameters and ``n`` rows with soft labels of the
    given kind: one-hot, smoothed with negative rates, or smoothed with about
    a third of the rows all zero."""
    rng = np.random.default_rng(seed)
    m = models.init_model(kind, d, K, l2=1e-2, hidden=5)
    m = m.with_theta(scale * rng.standard_normal(m.theta.size))
    X = rng.standard_normal((n, d))
    y = rng.integers(K, size=n)
    if labels == "onehot":
        soft = onehot(y, K)
    else:
        soft = smoothing.gls_labels(y, K, -rng.uniform(0.0, 3.0, size=n))
        if labels == "zero_rows":
            soft[rng.random(n) < 1 / 3] = 0.0
    return m, X, soft


kernel_cases = given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from(ROWS),
                     K=st.sampled_from(CLASSES), labels=st.sampled_from(LABELS))


class TestBitForBit:
    @kernel_cases
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows(self, seed, n, K, labels):
        m, X, _ = instance(seed, n, K, labels, scale=30.0)  # saturated rows too
        Z = models.logits(m, X)
        assert same_bits(softmax_rows(Z), softmax_rows_ref(Z))

    @kernel_cases
    @settings(max_examples=60, deadline=None)
    def test_logistic_grad(self, seed, n, K, labels):
        m, X, soft = instance(seed, n, K, labels)
        expected = grad_ref(m, X, soft)
        assert same_bits(models.grad(m, X, soft), expected)
        assert same_bits(models._grad(m, X, soft), expected)

    @kernel_cases
    @settings(max_examples=40, deadline=None)
    def test_mlp_grad(self, seed, n, K, labels):
        m, X, soft = instance(seed, n, K, labels, kind="mlp")
        assert same_bits(models.grad(m, X, soft), grad_ref(m, X, soft))

    @kernel_cases
    @settings(max_examples=60, deadline=None)
    def test_ce_loss(self, seed, n, K, labels):
        for kind in ("logistic", "mlp"):
            m, X, soft = instance(seed, n, K, labels, kind=kind, scale=10.0)
            assert same_bits(models.ce_loss(m, X, soft), ce_loss_ref(m, X, soft))

    @kernel_cases
    @settings(max_examples=40, deadline=None)
    def test_hessian(self, seed, n, K, labels):
        m, X, soft = instance(seed, n, K, labels)
        assert same_bits(models.hessian(m, X, soft), hessian_ref(m, X, soft))

    def test_hessian_index_is_shared_read_only(self):
        (rows, cols), reorder = models._hessian_index(3, 4)
        assert models._hessian_index(3, 4)[1] is reorder
        with pytest.raises(ValueError):
            rows[0, 0] = 1

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from(ROWS[1:]), K=st.sampled_from(CLASSES),
           p=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_mixed_grad(self, seed, n, K, p):
        m, Xf, soft_f = instance(seed, n, K, "gls_negative")
        _, Xr, soft_r = instance(seed + 1, n, K, "onehot")
        yr = soft_r.argmax(axis=1)
        expected = p * grad_ref(m, Xr, soft_r) - (1.0 - p) * grad_ref(m, Xf, soft_f)
        assert same_bits(smoothing.mixed_grad(m, Xr, yr, Xf, soft_f, p), expected)


class TestMixedGradChecks:
    def test_retain_labels_must_match_rows(self):
        m, X, soft = instance(0, 6, 3, "onehot")
        with pytest.raises(DimensionError, match="5 retain labels for 6 retain rows"):
            smoothing.mixed_grad(m, X, np.zeros(5, dtype=int), X, soft, 0.5)

    def test_retain_labels_must_be_classes(self):
        m, X, soft = instance(0, 6, 3, "onehot")
        with pytest.raises(DomainError, match="label outside"):
            smoothing.mixed_grad(m, X, np.full(6, 3), X, soft, 0.5)

    def test_forget_labels_still_checked(self):
        m, X, soft = instance(0, 6, 3, "onehot")
        soft[2, 0] += 0.5
        with pytest.raises(DomainError, match="sum to 1"):
            smoothing.mixed_grad(m, X, np.zeros(6, dtype=int), X, soft, 0.5)


# edges of the accepted row sums: |s - 1| <= 1e-9 + 1e-5, or |s| <= 1e-12
EDGES = (1.0 + TOL, 1.0 - TOL, 1e-12, -1e-12)
# each edge and one ulp either side of it, some plain sums and non-finite ones
EDGE_SUMS = [math.nextafter(e, toward) for e in EDGES for toward in (-math.inf, e, math.inf)] + [
    1.0, 0.0, -0.0, 0.5, 2.0, math.nan, math.inf, -math.inf]


def _soft_rows(draw_sums, K, rng):
    """One row per sum: the whole sum in one random column, or (for a finite
    sum) split as sum - 1 in one column and 1 in another."""
    soft = np.zeros((len(draw_sums), K))
    for i, s in enumerate(draw_sums):
        j = rng.integers(K)
        if math.isfinite(s) and rng.random() < 0.5:
            soft[i, j], soft[i, (j + 1) % K] = s - 1.0, 1.0
        else:
            soft[i, j] = s
    return soft


class TestCheckSoft:
    @given(seed=st.integers(0, 2 ** 32 - 1), K=st.sampled_from(CLASSES),
           sums=st.lists(st.sampled_from(EDGE_SUMS), min_size=0, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_accepts_and_rejects_the_rows_the_old_mask_did(self, seed, K, sums):
        rng = np.random.default_rng(seed)
        soft = _soft_rows(sums, K, rng)
        m = models.init_model("logistic", 2, K)
        X = np.zeros((soft.shape[0], 2))
        try:
            expected = check_soft_ref(m, X, soft)
        except DomainError:
            with pytest.raises(DomainError):
                models._check_soft(m, X, soft)
        else:
            assert same_bits(models._check_soft(m, X, soft), expected)

    @pytest.mark.parametrize("edge", EDGES)
    def test_edge_neighbours_straddle_the_boundary(self, edge):
        m = models.init_model("logistic", 2, 2)
        X = np.zeros((1, 2))
        accepted = set()
        for s in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            try:
                check_soft_ref(m, X, np.array([[s, 0.0]]))
                accepted.add(True)
            except DomainError:
                accepted.add(False)
        assert accepted == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_a_summing_row(self, bad):
        m = models.init_model("logistic", 2, 3)
        soft = onehot(np.array([0, 1, 2]), 3)
        soft[1] = [bad, 1.0, 0.0]
        with pytest.raises(DomainError):
            models._check_soft(m, np.zeros((3, 2)), soft)
