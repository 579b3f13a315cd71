"""The logistic and MLP kernels equal their plain-expression oracles bit for bit.

``tests/oracles.py`` keeps each kernel as it was written with fresh
temporaries; the shipped kernels reuse buffers and take fast paths, which
must change no bit of any result and accept or reject exactly the same
soft-label rows.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (ce_loss_ref, check_soft_ref, forward_ref, grad_ref, hessian_ref,
                     softmax_rows_ref)

from unlearn_forge import models, numcore, smoothing
from unlearn_forge.errors import DimensionError, DomainError
from unlearn_forge.models import onehot
from unlearn_forge.numcore import row_max, row_sum, softmax_rows

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


def same_reduction(got, expected) -> bool:
    """``same_bits``, except that a NaN matches any NaN."""
    got, expected = np.asarray(got), np.asarray(expected)
    nan = np.isnan(expected)
    return (got.shape == expected.shape and got.dtype == expected.dtype
            and (np.isnan(got) == nan).all() and same_bits(got[~nan], expected[~nan]))


def reduction_input(seed, shape, fill):
    """Entries of both signs over sixteen decades; ``zero_rows`` makes about
    a third of the rows all 0.0 or all -0.0, ``specials`` sprinkles ±0.0,
    ±inf and NaN entries."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if fill == "zero_rows":
        rows = rng.random(shape[:-1]) < 1 / 3
        a[rows] = rng.choice([0.0, -0.0], size=(rows.sum(), 1))
    elif fill == "specials":
        hit = rng.random(shape) < 0.3
        a[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=hit.sum())
    return a


# (n, K) and (S, n, K) row layouts, empty ones included
REDUCTION_SHAPES = ((0,), (1,), (33,), (3, 0), (3, 17))


class TestRowReductions:
    """``row_max``/``row_sum`` have the bits of numpy's ``max``/``sum(axis=-1)``
    on both sides of the pairwise block: column passes below it, numpy's own
    reduction from it on."""
    @pytest.mark.parametrize("fill", ["mixed", "zero_rows", "specials"])
    @pytest.mark.parametrize("K", range(1, 17))
    def test_equal_numpy_reductions(self, K, fill):
        for i, lead in enumerate(REDUCTION_SHAPES):
            a = reduction_input(100 * K + i, lead + (K,), fill)
            for layout in (a, np.asfortranarray(a)):
                before = layout.copy()
                with np.errstate(invalid="ignore"):  # inf - inf in a row sum
                    got_max, got_sum = row_max(layout), row_sum(layout)
                    want_sum = layout.sum(axis=-1)
                assert same_reduction(got_max, layout.max(axis=-1))
                assert same_reduction(got_sum, want_sum)
                assert same_bits(layout, before)
                assert not np.shares_memory(got_max, layout)
                assert not np.shares_memory(got_sum, layout)

    @pytest.mark.parametrize("K", range(1, 8))
    def test_signed_zero_rows(self, K):
        for row in ([-0.0] * K, [0.0] * K, [-0.0, 0.0] * K, [0.0, -0.0] * K):
            a = np.array([row[:K]])
            assert same_bits(row_max(a), a.max(axis=-1))
            assert same_bits(row_sum(a), a.sum(axis=-1))


STACK_CLASSES = (2, 3, 5, 7, 8, 10)


def stacked_instances(seed, S, n, K, labels, kind):
    """S ``instance`` draws of one shape as a model with an (S, P) theta
    stack, (S, n, d) rows and (S, n, K) soft labels, and the 2-D instances."""
    parts = [instance(seed + s, n, K, labels, kind=kind, scale=3.0) for s in range(S)]
    ms, Xs, softs = zip(*parts)
    stack = ms[0].with_stack(np.stack([m.theta for m in ms]))
    return stack, np.stack(Xs), np.stack(softs), parts


class TestStackedBitForBit:
    """Each slice of a stacked kernel call has its 2-D oracle's bits, for
    class counts on both sides of the pairwise block."""
    @pytest.mark.parametrize("K", STACK_CLASSES)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from((0, 1, 33)),
           labels=st.sampled_from(LABELS))
    @settings(max_examples=10, deadline=None)
    def test_logistic_kernels(self, K, seed, n, labels):
        stack, X, soft, parts = stacked_instances(seed, 3, n, K, labels, "logistic")
        probs = softmax_rows(models.logits(stack, X))
        loss, g, H = (models.ce_loss(stack, X, soft), models.grad(stack, X, soft),
                      models.hessian(stack, X, soft))
        for s, (m, Xs, soft_s) in enumerate(parts):
            assert same_bits(probs[s], softmax_rows_ref(models.logits(m, Xs)))
            assert same_bits(loss[s], ce_loss_ref(m, Xs, soft_s))
            assert same_bits(g[s], grad_ref(m, Xs, soft_s))
            assert same_bits(H[s], hessian_ref(m, Xs, soft_s))

    @pytest.mark.parametrize("K", STACK_CLASSES)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from((0, 1, 33)),
           labels=st.sampled_from(LABELS))
    @settings(max_examples=5, deadline=None)
    def test_mlp_kernels(self, K, seed, n, labels):
        stack, X, soft, parts = stacked_instances(seed, 3, n, K, labels, "mlp")
        loss, g = models.ce_loss(stack, X, soft), models.grad(stack, X, soft)
        for s, (m, Xs, soft_s) in enumerate(parts):
            assert same_bits(loss[s], ce_loss_ref(m, Xs, soft_s))
            assert same_bits(g[s], grad_ref(m, Xs, soft_s))


class TestEmptyStackedBatch:
    """An (S, 0, d) batch on a 1-D theta gives S results like any stacked
    call: the gradient l2 * theta, the loss 0.5 * l2 * theta . theta and the
    Hessian l2 * I, each with the bits of its 2-D call."""
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_shapes_and_values(self, kind):
        m, _, _ = instance(11, 0, 3, "onehot", kind=kind, scale=3.0)
        S, P = 4, m.theta.size
        X, soft = np.zeros((S, 0, m.d)), np.zeros((S, 0, m.K))
        g, loss = models.grad(m, X, soft), models.ce_loss(m, X, soft)
        assert (g.shape, loss.shape) == ((S, P), (S,))
        for s in range(S):
            assert same_bits(g[s], m.l2 * m.theta)
            assert same_bits(g[s], models.grad(m, X[s], soft[s]))
            assert same_bits(loss[s], ce_loss_ref(m, X[s], soft[s]))
            assert same_bits(loss[s], models.ce_loss(m, X[s], soft[s]))
        if kind == "logistic":
            H = models.hessian(m, X, soft)
            assert H.shape == (S, P, P)
            assert all(same_bits(H[s], m.l2 * np.eye(P)) for s in range(S))

    def test_2d_calls_keep_their_bits(self):
        m, X, soft = instance(12, 0, 3, "onehot", scale=3.0)
        assert same_bits(models.grad(m, X, soft), grad_ref(m, X, soft))
        loss = models.ce_loss(m, X, soft)
        assert type(loss) is float and same_bits(loss, ce_loss_ref(m, X, soft))
        assert same_bits(models.hessian(m, X, soft), hessian_ref(m, X, soft))


class TestOneHotGradient:
    """``_grad`` told that its labels are one-hot (``sums`` = 1.0) skips the
    scaling by the row sums and keeps the scaled form's bits."""
    @pytest.mark.parametrize("n", [1, 31, 32, 33])
    @pytest.mark.parametrize("K", [2, 3, 10])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_equals_the_scaled_form(self, kind, K, n):
        for seed in range(3):
            m, X, soft = instance(seed, n, K, "onehot", kind=kind, scale=3.0)
            expected = grad_ref(m, X, soft)
            assert same_bits(models._grad(m, X, soft), expected)
            assert same_bits(models._grad(m, X, soft, 1.0), expected)
            out = np.full(m.theta.shape, np.nan)
            assert models._grad(m, X, soft, 1.0, out) is out
            assert same_bits(out, expected)

    @pytest.mark.parametrize("n", [1, 31, 32, 33])
    @pytest.mark.parametrize("K", [2, 3, 10])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_stacked(self, kind, K, n):
        stack, X, soft, parts = stacked_instances(n * K, 4, n, K, "onehot", kind)
        out = np.empty(stack.theta.shape)
        g = models._grad(stack, X, soft, 1.0, out)
        assert same_bits(g, models._grad(stack, X, soft))
        for s, (m, Xs, soft_s) in enumerate(parts):
            assert same_bits(g[s], grad_ref(m, Xs, soft_s))

    def test_given_sums_are_the_computed_ones(self):
        m, X, soft = instance(5, 33, 3, "gls_negative")
        assert same_bits(models._grad(m, X, soft, row_sum(soft)), grad_ref(m, X, soft))


# (n, d, K) of the row sets the attack's members are drawn from: the default
# config's, the benchmark's large scale and shapes between
SUBSET_SHAPES = [(77, 4, 3), (200, 5, 3), (300, 5, 3), (8100, 20, 10), (9000, 20, 10)]


class TestRowSubsets:
    """A row's probabilities do not depend on the rows computed with it:
    ``forward`` on a row subset has the bits of the same rows of ``forward``
    on the whole set, stacked or not.  BLAS may round by layout, so this is
    pinned on the shapes ``metrics.evaluate`` meets."""
    @pytest.mark.parametrize("S", [1, 10])
    @pytest.mark.parametrize("n, d, K", SUBSET_SHAPES)
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_subset_rows_of_the_full_forward(self, kind, n, d, K, S):
        rng = np.random.default_rng(n + S)
        m = models.init_model(kind, d, K, hidden=16)
        stack = m.with_stack(rng.standard_normal((S, m.theta.size)))
        X = rng.standard_normal((n, d))
        full = models.forward(stack, X)
        for _ in range(2):
            idx = rng.choice(n, size=max(1, n // 2), replace=False)
            assert same_bits(full[:, idx], models.forward(stack, X[idx]))
            for s in range(S):
                row = stack.with_stack(stack.theta[s])
                assert same_bits(full[s, idx], models.forward(row, X[idx]))


class TestLogitViews:
    """``logits`` keeps theta's views on the model: they follow theta stepped
    in place and never reach a model of another theta."""
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_another_theta_gets_its_own_views(self, kind):
        rng = np.random.default_rng(0)
        m = models.init_model(kind, 4, 3, hidden=5)
        m = m.with_theta(rng.standard_normal(m.theta.size))
        X = rng.standard_normal((9, 4))
        t2 = rng.standard_normal(m.theta.size)
        models.logits(m, X)
        fresh = models.init_model(kind, 4, 3, hidden=5).with_theta(t2.copy())
        assert same_bits(models.logits(m.with_theta(t2), X), models.logits(fresh, X))
        stack = np.stack([t2, -t2])
        assert same_bits(models.logits(m.with_stack(stack), X)[0], models.logits(fresh, X))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_views_follow_theta_stepped_in_place(self, kind):
        rng = np.random.default_rng(1)
        m = models.init_model(kind, 4, 3, hidden=5)
        theta = rng.standard_normal((2, m.theta.size))
        m = m.with_stack(theta)
        X = rng.standard_normal((9, 4))
        models.logits(m, X)
        theta -= 0.5
        fresh = m.with_stack(theta.copy())
        assert same_bits(models.logits(m, X), models.logits(fresh, X))

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_a_pickled_model_builds_its_own_views(self, kind):
        # what a --jobs worker receives
        rng = np.random.default_rng(2)
        m = models.init_model(kind, 4, 3, hidden=5)
        m = m.with_stack(rng.standard_normal((2, m.theta.size)))
        X = rng.standard_normal((9, 4))
        models.logits(m, X)
        copy = pickle.loads(pickle.dumps(m))
        assert "_logit_views" not in copy.__dict__
        copy.theta[...] = rng.standard_normal(copy.theta.shape)
        fresh = m.with_stack(copy.theta.copy())
        assert same_bits(models.logits(copy, X), models.logits(fresh, X))


CROSSOVER = numcore.COLUMN_PASS_ROWS
# class counts around numpy's 8-sum block (8, 16) and its 128-entry pairwise
# block (128); column passes run at 8 <= K < 16 only
PASS_CLASSES = (8, 9, 10, 15, 16, 17, 64, 128, 129)


def _lead_shapes(n):
    """Leading shapes holding ``n`` rows: one axis, and a stack of the
    smallest divisor of ``n`` (beyond 1) row sets."""
    S = next(s for s in range(2, n + 1) if n % s == 0)
    return (n,), (S, n // S)


def _filled(seed, shape, fill):
    """``reduction_input``, or with ``signed_zeros`` only 0.0 and -0.0."""
    if fill == "signed_zeros":
        return np.random.default_rng(seed).choice([0.0, -0.0], size=shape)
    return reduction_input(seed, shape, fill)


def _column_pass_layouts(seed, lead, K, fill):
    """The (..., K) arrays of one fill a call may hand the reductions:
    C order, rows a step apart, Fortran order and a last axis with a step."""
    a = _filled(seed, lead + (K,), fill)
    return {"C": a, "row-strided": _filled(seed + 1, (2 * lead[0],) + lead[1:] + (K,), fill)[::2],
            "Fortran": np.asfortranarray(a),
            "strided-last": _filled(seed + 2, lead + (2 * K,), fill)[..., ::2]}


class TestColumnPassRows:
    """From ``COLUMN_PASS_ROWS`` rows on, counted over every leading axis,
    ``row_max``/``row_sum`` reduce 8 to 15 columns as column passes; on
    either side of that row count, at every class count and layout, they
    keep numpy's bits, leave the input alone and return a fresh array."""
    @pytest.mark.parametrize("fill", ["mixed", "zero_rows", "specials", "signed_zeros"])
    @pytest.mark.parametrize("K", PASS_CLASSES)
    def test_equal_numpy_reductions(self, K, fill):
        for n in (CROSSOVER - 1, CROSSOVER, CROSSOVER + 1):
            for lead in _lead_shapes(n):
                layouts = _column_pass_layouts(K * n + len(lead), lead, K, fill)
                for name, a in layouts.items():
                    before = a.copy()
                    with np.errstate(invalid="ignore"):  # inf - inf in a row sum
                        got_max, got_sum = row_max(a), row_sum(a)
                        want_sum = a.sum(axis=-1)
                    assert same_reduction(got_max, a.max(axis=-1)), (name, lead)
                    assert same_reduction(got_sum, want_sum), (name, lead)
                    assert same_bits(a, before)
                    assert not np.shares_memory(got_max, a)
                    assert not np.shares_memory(got_sum, a)

    @pytest.mark.parametrize("K", PASS_CLASSES)
    def test_signed_zero_rows_mixed_with_values(self, K):
        # rows of 0.0 and -0.0 in every order beside rows with a nonzero max
        rows = [[-0.0] * K, [0.0] * K, ([-0.0, 0.0] * K)[:K], ([0.0, -0.0] * K)[:K],
                [-1.0] + [-0.0] * (K - 1), [0.0] * (K - 1) + [-2.0]]
        a = np.array(rows * (CROSSOVER // len(rows) + 1))
        assert same_bits(row_max(a), a.max(axis=-1))
        assert same_bits(row_sum(a), a.sum(axis=-1))

    @pytest.mark.parametrize("n", [9000, 10000])
    @pytest.mark.parametrize("labels", LABELS)
    def test_kernels_on_the_large_scale(self, n, labels):
        m, X, soft = instance(n, n, 10, labels, d=20, scale=3.0)
        Z = models.logits(m, X)
        assert same_bits(softmax_rows(Z), softmax_rows_ref(Z))
        assert same_bits(models.forward(m, X), forward_ref(m, X))
        assert same_bits(models.ce_loss(m, X, soft), ce_loss_ref(m, X, soft))
