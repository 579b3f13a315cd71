import numpy as np
import pytest

from conftest import make_blobs
from unlearn_forge import data, influence, models, smoothing, unlearn
from unlearn_forge.errors import DimensionError, DomainError, UnsupportedModelError
from unlearn_forge.models import TrainConfig, onehot
from unlearn_forge.numcore import rng_stream
from unlearn_forge.smoothing import SmoothingPolicy
from unlearn_forge.unlearn import UnlearnConfig


@pytest.fixture(scope="module")
def setup():
    ds = make_blobs(seed=0, K=3, per_class=20, d=5)
    split, _ = data.split_classwise(ds, 0)
    model = models.init_model("logistic", 5, 3)
    trained, _ = models.sgd_train(model, ds.X, ds.y, TrainConfig(epochs=30, lr=0.1, seed=0))
    return ds, split, trained


def cfg(**kw):
    return UnlearnConfig(**{"method": "ga", "epochs": 5, "lr": 0.01, "seed": 0, **kw})


class TestRetrain:
    def test_same_seed_identical(self, setup):
        ds, split, trained = setup
        tc = TrainConfig(epochs=10, lr=0.1, seed=3)
        a = unlearn.retrain(trained, ds, split, tc)
        b = unlearn.retrain(trained, ds, split, tc)
        assert a.model.theta.tobytes() == b.model.theta.tobytes()

    def test_classwise_forget_never_predicted(self, setup):
        ds, split, trained = setup
        tc = TrainConfig(epochs=40, lr=0.1, seed=0)
        res = unlearn.retrain(trained, ds, split, tc)
        forget = ds.subset(split.forget_idx)
        assert np.all(models.predict(res.model, forget.X) != forget.y)

    def test_rte_positive(self, setup):
        ds, split, trained = setup
        res = unlearn.retrain(trained, ds, split, TrainConfig(epochs=2, lr=0.1, seed=0))
        assert res.rte_seconds > 0


class TestFinetune:
    def test_zero_epochs_unchanged(self, setup):
        ds, split, trained = setup
        res = unlearn.finetune(trained, ds, split, cfg(method="ft", epochs=0))
        assert np.array_equal(res.model.theta, trained.theta)

    def test_zero_lr_unchanged(self, setup):
        ds, split, trained = setup
        res = unlearn.finetune(trained, ds, split, cfg(method="ft", lr=0.0))
        assert np.array_equal(res.model.theta, trained.theta)

    def test_retain_accuracy_preserved(self, setup):
        ds, split, trained = setup
        retain = ds.subset(split.retain_idx)
        before = np.mean(models.predict(trained, retain.X) == retain.y)
        res = unlearn.finetune(trained, ds, split, cfg(method="ft", epochs=5))
        after = np.mean(models.predict(res.model, retain.X) == retain.y)
        assert after >= before - 0.01


class TestGradientAscent:
    def test_zero_epochs_unchanged(self, setup):
        ds, split, trained = setup
        res = unlearn.gradient_ascent(trained, ds, split, cfg(epochs=0))
        assert np.array_equal(res.model.theta, trained.theta)

    def test_forget_loss_nondecreasing(self, setup):
        ds, split, trained = setup
        forget = ds.subset(split.forget_idx)
        base = models.ce_loss(trained, forget.X, onehot(forget.y, 3))
        res = unlearn.gradient_ascent(trained, ds, split,
                                      cfg(epochs=6, lr=1e-3, batch_size=forget.n))
        losses = [base] + res.history
        assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_ua_increases(self, setup):
        ds, split, trained = setup
        forget = ds.subset(split.forget_idx)
        res = unlearn.gradient_ascent(trained, ds, split, cfg(epochs=10, lr=0.1))
        acc_before = np.mean(models.predict(trained, forget.X) == forget.y)
        acc_after = np.mean(models.predict(res.model, forget.X) == forget.y)
        assert acc_after < acc_before


class TestRandomLabel:
    def test_relabels_never_original(self, setup):
        ds, split, trained = setup
        # reproduce the internal relabeling stream and check the constraint
        rng = rng_stream(0, 3)
        for i in split.forget_idx:
            wrong = [c for c in range(ds.K) if c != ds.y[i]]
            assert wrong[rng.integers(len(wrong))] != ds.y[i]

    def test_binary_is_deterministic_flip(self):
        ds = make_blobs(seed=1, K=2, per_class=10, d=3)
        split, _ = data.split_classwise(ds, 0)
        m = models.init_model("logistic", 3, 2)
        res = unlearn.random_label(m, ds, split, cfg(method="rl", epochs=1, lr=0.0))
        assert np.array_equal(res.model.theta, m.theta)  # lr 0: only relabel happened

    def test_same_seed_identical(self, setup):
        ds, split, trained = setup
        a = unlearn.random_label(trained, ds, split, cfg(method="rl", seed=5))
        b = unlearn.random_label(trained, ds, split, cfg(method="rl", seed=5))
        assert a.model.theta.tobytes() == b.model.theta.tobytes()


class TestInfluenceUnlearn:
    def test_mlp_rejected(self, setup):
        ds, split, _ = setup
        m = models.init_model("mlp", 5, 3, hidden=4)
        with pytest.raises(UnsupportedModelError):
            unlearn.influence_unlearn(m, ds, split, cfg(method="iu"))

    def test_single_point_matches_loo_direction(self):
        ds = make_blobs(seed=6, K=2, per_class=25, d=3)
        template = models.init_model("logistic", 3, 2, l2=0.1)
        theta_tr = models.newton_optimize(template, ds.X, onehot(ds.y, 2))
        split = data.ForgetSplit(np.arange(1, ds.n), np.array([0]))
        res = unlearn.influence_unlearn(theta_tr, ds, split, cfg(method="iu", damping=1e-6))
        retain = ds.subset(split.retain_idx)
        theta_loo = models.newton_optimize(template, retain.X, onehot(retain.y, 2))
        d_iu = res.model.theta - theta_tr.theta
        d_true = theta_loo.theta - theta_tr.theta
        cos = d_iu @ d_true / (np.linalg.norm(d_iu) * np.linalg.norm(d_true))
        assert cos >= 0.95

    @pytest.mark.parametrize("paradigm", ["classwise", "random"])
    def test_equals_theta_plus_delta_f(self, setup, paradigm):
        ds, split, trained = setup
        if paradigm == "random":
            split = data.split_random(ds, 0.3, rng_stream(2, 12))
        res = unlearn.influence_unlearn(trained, ds, split, cfg(method="iu", damping=1e-3))
        df = influence.delta_f(trained, ds.subset(split.retain_idx), ds.subset(split.forget_idx), 1e-3)
        assert res.model.theta.tobytes() == (trained.theta + df).tobytes()

    def test_more_damping_shrinks_update(self, setup):
        ds, split, trained = setup
        small = unlearn.influence_unlearn(trained, ds, split, cfg(method="iu", damping=1e-3))
        big = unlearn.influence_unlearn(trained, ds, split, cfg(method="iu", damping=1.0))
        step_small = np.linalg.norm(small.model.theta - trained.theta)
        step_big = np.linalg.norm(big.model.theta - trained.theta)
        assert step_big < step_small


class TestUGradSL:
    def test_p_one_step_is_finetune_step(self, setup):
        # with p=1 the mixed gradient on any batch equals the plain retain
        # gradient, so one update coincides with one fine-tune update
        ds, split, trained = setup
        retain = ds.subset(split.retain_idx)
        forget = ds.subset(split.forget_idx)
        soft_f = onehot(forget.y[:4], 3)
        g_mixed = smoothing.mixed_grad(trained, retain.X[:4], retain.y[:4],
                                       forget.X[:4], soft_f, 1.0)
        g_ft = models.grad(trained, retain.X[:4], onehot(retain.y[:4], 3))
        np.testing.assert_allclose(g_mixed, g_ft, atol=1e-12)

    def test_p_zero_alpha_zero_is_ga_gradient(self, setup):
        ds, split, trained = setup
        retain = ds.subset(split.retain_idx)
        forget = ds.subset(split.forget_idx)
        soft_f = onehot(forget.y[:4], 3)  # alpha = 0
        g_mixed = smoothing.mixed_grad(trained, retain.X[:4], retain.y[:4],
                                       forget.X[:4], soft_f, 0.0)
        g_ga = models.grad(trained, forget.X[:4], soft_f)
        np.testing.assert_allclose(g_mixed, -g_ga, atol=1e-12)

    def test_beats_ga_on_classwise(self, setup):
        ds, split, trained = setup
        forget = ds.subset(split.forget_idx)
        common = dict(epochs=10, lr=0.02, seed=0)
        ga = unlearn.gradient_ascent(trained, ds, split, cfg(**common))
        ug = unlearn.ugradsl(trained, ds, split,
                             cfg(method="ugradsl", smoothing=SmoothingPolicy(mode="adaptive", beta=0.9),
                                 **common))
        ua = lambda m: 100 * (1 - np.mean(models.predict(m, forget.X) == forget.y))
        assert ua(ug.model) > ua(ga.model)

    def test_deterministic(self, setup):
        ds, split, trained = setup
        c = cfg(method="ugradsl_plus", smoothing=SmoothingPolicy(mode="adaptive", beta=0.9))
        a = unlearn.ugradsl_plus(trained, ds, split, c)
        b = unlearn.ugradsl_plus(trained, ds, split, c)
        assert a.model.theta.tobytes() == b.model.theta.tobytes()

    def test_equal_steps_when_sets_equal(self):
        ds = make_blobs(seed=2, K=2, per_class=10, d=3)
        half = np.arange(ds.n // 2)
        split = data.ForgetSplit(np.arange(ds.n // 2, ds.n), half)
        m = models.init_model("logistic", 3, 2)
        c = cfg(method="ugradsl", epochs=3, batch_size=4)
        a = unlearn.ugradsl(m, ds, split, c)
        b = unlearn.ugradsl_plus(m, ds, split, c)
        assert len(a.history) == len(b.history) == 3


class TestRunMethod:
    def test_all_methods_deterministic(self, setup):
        ds, split, trained = setup
        for method in unlearn.METHODS:
            c = UnlearnConfig(method=method, epochs=3, lr=0.01, seed=1)
            a = unlearn.run_method(trained, ds, split, c)
            b = unlearn.run_method(trained, ds, split, c)
            assert a.model.theta.tobytes() == b.model.theta.tobytes(), method

    def test_unknown_method(self, setup):
        ds, split, trained = setup
        with pytest.raises(DomainError):
            UnlearnConfig(method="scrub")

    def test_forget_index_past_rows_raises_dimension_error(self):
        ds = make_blobs(seed=0, K=3, per_class=10, d=5)
        split = data.ForgetSplit(np.arange(5), np.array([100]))
        with pytest.raises(DimensionError, match="row index 100 outside a dataset of n = 30 rows"):
            unlearn.run_method(models.init_model("logistic", 5, 3), ds, split, UnlearnConfig())

    @pytest.mark.parametrize("method", unlearn.METHODS)
    def test_split_past_rows_raises_before_any_step(self, method):
        ds = make_blobs(seed=0, K=3, per_class=10, d=5)
        split = data.ForgetSplit(np.array([0, 1, 2, 3, 4, 200]), np.array([5, 100]))
        with pytest.raises(DimensionError, match="outside a dataset of n = 30 rows"):
            unlearn.run_method(models.init_model("logistic", 5, 3), ds, split,
                               UnlearnConfig(method=method, epochs=2))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            UnlearnConfig(p=1.5)
        with pytest.raises(DomainError):
            UnlearnConfig(batch_size=0)


class TestEmptyRetain:
    def test_which_methods_need_retain_rows(self):
        X = make_blobs(seed=3, K=2, per_class=6, d=3).X
        ds = data.LabeledDataset(X, np.zeros(len(X), dtype=np.int64), 2)  # one class of two
        split, _ = data.split_classwise(ds, 0)
        assert split.retain_idx.size == 0
        m = models.init_model("logistic", 3, 2)
        for method in unlearn.METHODS:
            c = UnlearnConfig(method=method, epochs=2, seed=0)
            if method in ("ga", "iu"):
                res = unlearn.run_method(m, ds, split, c)
                assert np.isfinite(res.model.theta).all(), method
            else:
                with pytest.raises(DomainError, match="empty"):
                    unlearn.run_method(m, ds, split, c)


class TestUnlearnConfig:
    def test_is_a_train_config(self):
        c = UnlearnConfig()
        assert isinstance(c, TrainConfig)
        assert (c.epochs, c.lr, c.batch_size, c.seed) == (10, 0.01, 32, 0)

    @pytest.mark.parametrize("field", ["epochs", "lr", "damping"])
    def test_negative_rejected(self, field):
        with pytest.raises(DomainError):
            UnlearnConfig(**{field: -1})
