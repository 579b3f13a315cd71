import numpy as np
import pytest

from conftest import make_blobs, random_model
from oracles import finite_diff_grad, hessian_einsum
from unlearn_forge import cli, models
from unlearn_forge.errors import DimensionError, DomainError, SolverError, UnsupportedModelError
from unlearn_forge.modelio import load_model
from unlearn_forge.models import Model, TrainConfig, ce_loss, forward, grad, hessian, onehot
from unlearn_forge.smoothing import gls_labels


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestForward:
    def test_zero_theta_uniform(self):
        m = models.init_model("logistic", 4, 3)
        out = forward(m, np.random.default_rng(0).standard_normal((5, 4)))
        np.testing.assert_allclose(out, 1 / 3, atol=1e-15)

    def test_duplicate_rows_identical(self, rng):
        m = random_model(rng)
        x = rng.standard_normal(4)
        out = forward(m, np.vstack([x, x]))
        assert out[0].tobytes() == out[1].tobytes()

    def test_matches_direct_softmax(self, rng):
        m = random_model(rng, d=3, K=4)
        W = m.theta[:12].reshape(4, 3)
        b = m.theta[12:]
        x = rng.standard_normal(3)
        z = W @ x + b
        ref = np.exp(z - z.max())
        ref /= ref.sum()
        np.testing.assert_allclose(forward(m, x[None])[0], ref, rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            forward(random_model(rng, d=4), np.zeros((2, 5)))

    def test_rows_sum_to_one_mlp(self, rng):
        m = random_model(rng, kind="mlp", d=4, K=3)
        out = forward(m, rng.standard_normal((6, 4)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestCeLoss:
    def test_perfect_prediction_leaves_l2_only(self, rng):
        # huge logit margin toward the true class makes CE ~ 0
        d, K = 2, 2
        theta = np.array([50.0, 0.0, -50.0, 0.0, 0.0, 0.0])
        m = Model(kind="logistic", theta=theta, d=d, K=K, l2=0.1)
        X = np.array([[1.0, 0.0]])
        loss = ce_loss(m, X, onehot(np.array([0]), K))
        assert loss == pytest.approx(0.5 * 0.1 * float(theta @ theta), abs=1e-12)

    def test_uniform_everything_gives_log_k(self):
        m = models.init_model("logistic", 3, 5, l2=0.0)
        X = np.zeros((4, 3))
        soft = np.full((4, 5), 0.2)
        assert ce_loss(m, X, soft) == pytest.approx(np.log(5), rel=1e-12)

    def test_nls_soft_label_hand_evaluation(self, rng):
        m = random_model(rng, d=3, K=2, l2=0.0)
        x = rng.standard_normal((1, 3))
        p = forward(m, x)[0]
        expected = 1.5 * (-np.log(p[0])) - 0.5 * (-np.log(p[1]))
        assert ce_loss(m, x, np.array([[1.5, -0.5]])) == pytest.approx(expected, rel=1e-12)

    def test_one_hot_equals_standard_ce(self, rng):
        m = random_model(rng, d=4, K=3, l2=0.0)
        X = rng.standard_normal((8, 4))
        y = rng.integers(3, size=8)
        p = forward(m, X)
        standard = -np.mean(np.log(p[np.arange(8), y]))
        assert abs(ce_loss(m, X, onehot(y, 3)) - standard) <= 1e-12

    def test_bad_soft_rows_rejected(self, rng):
        m = random_model(rng, d=2, K=2)
        with pytest.raises(DomainError):
            ce_loss(m, np.zeros((1, 2)), np.array([[0.7, 0.7]]))

    def test_row_sum_tolerance_matches_isclose(self, rng):
        # row sums on both sides of each tolerance edge, plus non-finite sums
        m = random_model(rng, d=2, K=2)
        edge1, edge0 = 1e-9 + 1e-5, 1e-12
        sums = [1.0, 1.0 + edge1, np.nextafter(1.0 + edge1, 2.0), 1.0 - edge1,
                np.nextafter(1.0 - edge1, 0.0), 0.0, edge0, np.nextafter(edge0, 1.0), -edge0,
                np.nextafter(-edge0, -1.0), 0.5, np.inf, -np.inf, np.nan]
        for s in sums:
            expected = bool(np.isclose(s, 1.0, atol=1e-9) | np.isclose(s, 0.0, atol=1e-12))
            soft = np.array([[s, 0.0]])
            if expected:
                ce_loss(m, np.zeros((1, 2)), soft)
            else:
                with pytest.raises(DomainError):
                    ce_loss(m, np.zeros((1, 2)), soft)


class TestGrad:
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_matches_finite_differences(self, rng, kind):
        m = random_model(rng, kind=kind, d=3, K=3)
        X = rng.standard_normal((6, 3))
        soft = onehot(rng.integers(3, size=6), 3)
        g = grad(m, X, soft)
        fd = finite_diff_grad(lambda t: ce_loss(m.with_theta(t), X, soft), m.theta)
        assert rel_err(g, fd) <= 1e-5

    def test_soft_labels_may_be_negative(self, rng):
        m = random_model(rng, d=3, K=2)
        X = rng.standard_normal((4, 3))
        soft = np.tile([1.5, -0.5], (4, 1))
        g = grad(m, X, soft)
        fd = finite_diff_grad(lambda t: ce_loss(m.with_theta(t), X, soft), m.theta)
        assert rel_err(g, fd) <= 1e-5

    def test_stationarity_at_optimum(self):
        ds = make_blobs(seed=3, K=2, per_class=15, d=3)
        m = models.init_model("logistic", 3, 2)
        opt = models.newton_optimize(m, ds.X, onehot(ds.y, 2))
        assert np.linalg.norm(grad(opt, ds.X, onehot(ds.y, 2))) <= 1e-6

    def test_zero_weight_rows_give_l2_theta(self, rng):
        m = random_model(rng, d=3, K=2, l2=0.05)
        g = grad(m, rng.standard_normal((3, 3)), np.zeros((3, 2)))
        np.testing.assert_allclose(g, 0.05 * m.theta, rtol=1e-12)


class TestNewtonFailures:
    def test_iteration_budget_exhausted_raises(self, monkeypatch):
        ds = make_blobs(seed=3, K=2, per_class=15, d=3)
        monkeypatch.setattr(models, "NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError, match="after 1 iterations"):
            models.newton_optimize(models.init_model("logistic", 3, 2), ds.X, onehot(ds.y, 2))

    def test_no_descent_step_raises(self, monkeypatch):
        ds = make_blobs(seed=3, K=2, per_class=15, d=3)
        solve = models.solve_damped
        monkeypatch.setattr(models, "solve_damped", lambda A, b, damping: -solve(A, b, damping))
        with pytest.raises(SolverError, match="no descent step"):
            models.newton_optimize(models.init_model("logistic", 3, 2), ds.X, onehot(ds.y, 2))

    def test_cli_exit_code_4(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(models, "NEWTON_MAX_ITER", 1)
        p = tmp_path / "theory.cfg"
        p.write_text("theory.instances = 1\n")
        assert cli.main(["verify-theory", "--config", str(p), "--format", "machine"]) == 4
        assert "newton_optimize" in capsys.readouterr().err


class TestHessian:
    def test_binary_single_example_hand_derivation(self):
        # p = [0.5, 0.5] at theta = 0: per-logit Hessian S*(diag(p)-pp^T),
        # kron with augmented feature outer product, plus l2*I
        d, K, l2 = 2, 2, 0.01
        m = models.init_model("logistic", d, K, l2)
        x = np.array([[1.0, 2.0]])
        H = hessian(m, x, onehot(np.array([0]), K))
        xt = np.array([1.0, 2.0, 1.0])  # augmented with bias
        A = np.array([[0.25, -0.25], [-0.25, 0.25]])
        ref_aug = np.kron(A, np.outer(xt, xt))
        perm = [0, 1, 3, 4, 2, 5]  # [w0, w1, b] flat layout
        ref = ref_aug[np.ix_(perm, perm)] + l2 * np.eye(6)
        np.testing.assert_allclose(H, ref, atol=1e-12)

    def test_symmetry(self, rng):
        m = random_model(rng, d=3, K=3)
        X = rng.standard_normal((5, 3))
        H = hessian(m, X, onehot(rng.integers(3, size=5), 3))
        assert np.array_equal(H, H.T)

    def test_matches_finite_difference_of_grad(self, rng):
        m = random_model(rng, d=2, K=3)
        X = rng.standard_normal((4, 2))
        soft = onehot(rng.integers(3, size=4), 3)
        H = hessian(m, X, soft)
        h = 1e-6
        for j in range(0, m.theta.size, 3):
            tp, tm = m.theta.copy(), m.theta.copy()
            tp[j] += h
            tm[j] -= h
            col = (grad(m.with_theta(tp), X, soft) - grad(m.with_theta(tm), X, soft)) / (2 * h)
            np.testing.assert_allclose(H[:, j], col, atol=1e-4)

    def test_psd_plus_l2(self, rng):
        m = random_model(rng, d=4, K=3, l2=1e-2)
        X = rng.standard_normal((10, 4))
        H = hessian(m, X, onehot(rng.integers(3, size=10), 3))
        assert np.linalg.eigvalsh(H).min() >= 1e-2 - 1e-9

    @pytest.mark.parametrize("K", [2, 10])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_matches_einsum_oracle(self, rng, n, K):
        # n straddles the row-chunk edges; alpha = -0.4 rows plus all-zero (S = 0) rows
        m = random_model(rng, d=5, K=K)
        X = rng.standard_normal((n, 5))
        soft = gls_labels(rng.integers(K, size=n), K, -0.4)
        soft[1::3] = 0.0
        H = hessian(m, X, soft)
        assert np.array_equal(H, H.T)
        assert rel_err(H, hessian_einsum(m, X, soft)) <= 1e-12

    def test_no_rows_is_l2_identity(self, rng):
        m = random_model(rng, d=4, K=3, l2=0.03)
        H = hessian(m, np.zeros((0, 4)), np.zeros((0, 3)))
        assert np.array_equal(H, 0.03 * np.eye(m.theta.size))

    def test_mlp_rejected(self, rng):
        m = random_model(rng, kind="mlp")
        with pytest.raises(UnsupportedModelError):
            hessian(m, np.zeros((1, 4)), np.array([[1.0, 0.0, 0.0]]))


class TestSgdTrain:
    def test_separable_blobs_high_accuracy(self):
        ds = make_blobs(seed=1, K=2, per_class=25, d=4, spread=0.5)
        m = models.init_model("logistic", 4, 2)
        trained, history = models.sgd_train(m, ds.X, ds.y, TrainConfig(epochs=50, lr=0.1, seed=0))
        acc = np.mean(models.predict(trained, ds.X) == ds.y)
        assert acc >= 0.99
        assert len(history) == 50

    def test_lr_zero_leaves_theta(self, rng):
        ds = make_blobs(seed=2, K=2, per_class=5, d=3)
        m = random_model(rng, d=3, K=2)
        trained, _ = models.sgd_train(m, ds.X, ds.y, TrainConfig(epochs=3, lr=0.0, seed=0))
        assert np.array_equal(trained.theta, m.theta)

    def test_same_seed_bit_identical(self):
        ds = make_blobs(seed=4, K=3, per_class=10, d=3)
        m = models.init_model("logistic", 3, 3)
        cfg = TrainConfig(epochs=5, lr=0.1, seed=9)
        a, _ = models.sgd_train(m, ds.X, ds.y, cfg)
        b, _ = models.sgd_train(m, ds.X, ds.y, cfg)
        assert a.theta.tobytes() == b.theta.tobytes()

    def test_empty_dataset_rejected(self):
        m = models.init_model("logistic", 2, 2)
        with pytest.raises(DomainError):
            models.sgd_train(m, np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig())


class TestModelValidation:
    def test_theta_length_checked(self):
        with pytest.raises(DimensionError):
            Model(kind="logistic", theta=np.zeros(5), d=2, K=2)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Model(kind="tree", theta=np.zeros(6), d=2, K=2)

    @pytest.mark.parametrize("l2", [-1.0, -1e-300, np.nan, np.inf])
    def test_l2_must_be_finite_and_nonnegative(self, l2):
        with pytest.raises(DomainError, match="l2 is"):
            Model(kind="logistic", theta=np.zeros(6), d=2, K=2, l2=l2)

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_with_theta_checks_shape_and_keeps_fields(self, kind):
        m = models.init_model(kind, 3, 2, l2=0.5, hidden=4)
        before = m.theta.copy()
        for bad in (np.zeros(m.theta.size + 1), np.zeros((1, m.theta.size))):
            with pytest.raises(DimensionError):
                m.with_theta(bad)
        new = m.with_theta(list(range(m.theta.size)))
        assert new.theta.dtype == np.float64
        assert new.theta.tolist() == list(range(m.theta.size))
        assert (new.kind, new.d, new.K, new.l2, new.hidden) == (m.kind, m.d, m.K, m.l2, m.hidden)
        assert m.theta.tobytes() == before.tobytes()  # the original is untouched

    def test_train_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_mlp_needs_a_hidden_unit(self, tmp_path, hidden):
        with pytest.raises(DomainError, match="hidden >= 1"):
            models.init_model("mlp", 3, 2, hidden=hidden)
        with pytest.raises(DomainError, match="hidden >= 1"):
            Model(kind="mlp", theta=np.zeros(2), d=3, K=2, hidden=hidden)
        p = tmp_path / "h.model"
        p.write_text(f"unlearn-forge-model v1\nkind mlp\nd 3\nK 2\nhidden {hidden}\nl2 0.01\n"
                     "theta 2\n0\n0\n")
        with pytest.raises(DomainError, match="hidden >= 1"):
            load_model(p)
