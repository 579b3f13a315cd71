import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_grad
from unlearn_forge.errors import DimensionError, DomainError, SolverError
from unlearn_forge.numcore import rng_stream, softmax_rows, solve_damped


class TestSolveDamped:
    def test_identity_system(self):
        x = solve_damped(np.eye(3), np.array([1.0, 2.0, 3.0]), 0.0)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_scaled_identity(self):
        x = solve_damped(2.0 * np.eye(2), np.array([4.0, 6.0]), 0.0)
        np.testing.assert_allclose(x, [2.0, 3.0], atol=1e-12)

    def test_singular_plus_damping_matches_reference(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([1.0, 1.0])
        x = solve_damped(A, b, 1e-3)
        ref = np.linalg.solve(A + 1e-3 * np.eye(2), b)
        np.testing.assert_allclose(x, ref, rtol=1e-12)

    def test_singular_without_damping_raises(self):
        with pytest.raises(SolverError):
            solve_damped(np.zeros((2, 2)), np.array([1.0, 1.0]), 0.0)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            solve_damped(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionError):
            solve_damped(np.eye(3), np.ones(2))

    def test_negative_damping_rejected(self):
        with pytest.raises(DomainError):
            solve_damped(np.eye(2), np.ones(2), -1.0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_residual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        M = rng.standard_normal((n, n))
        A = M @ M.T + 0.1 * np.eye(n)  # symmetric PD
        b = rng.standard_normal(n)
        damping = float(rng.uniform(0, 1e-2))
        x = solve_damped(A, b, damping)
        res = np.linalg.norm((A + damping * np.eye(n)) @ x - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))


class TestSoftmaxRows:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3)))[0], np.full(3, 1 / 3), atol=1e-15)

    def test_saturation_without_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-300)

    def test_direct_arithmetic(self):
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax_rows(np.array([[1.0, 2.0, 3.0]]))[0], e / e.sum(), rtol=1e-14)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            softmax_rows(np.array([[np.inf, 0.0]]))

    @given(st.lists(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=6),
                    min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows))
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestRngStream:
    def test_identical_pairs_identical_draws(self):
        a = rng_stream(42, 7).random(10_000)
        b = rng_stream(42, 7).random(10_000)
        assert a.tobytes() == b.tobytes()

    def test_distinct_streams_differ(self):
        assert rng_stream(42, 0).random(16).tobytes() != rng_stream(42, 1).random(16).tobytes()


class TestFiniteDiffGrad:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), 1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        g = finite_diff_grad(lambda v: 7.0, np.array([1.0, -1.0, 3.0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_bad_step(self):
        with pytest.raises(DomainError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_nonfinite_evaluation(self):
        with pytest.raises(DomainError):
            finite_diff_grad(lambda v: float("nan"), np.zeros(1))
