"""The one minibatch engine against naive reference loops.

The oracles below write out shuffle -> batch -> step by hand, with the
public (checked) gradients and one RNG draw order: a permutation per epoch,
then, for UGradSL, the partner indices of each batch.  The random-label
oracle first draws one wrong label per forget row, row by row, from the RNG
it then trains with.  Every engine caller must reproduce them bit for bit,
so any change to the RNG draws, the batch slicing or the update arithmetic
shows up here.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from unlearn_forge import cli, data, experiment, models, smoothing, unlearn
from unlearn_forge.config import default_config
from unlearn_forge.errors import DomainError
from unlearn_forge.models import TrainConfig, onehot
from unlearn_forge.numcore import rng_stream
from unlearn_forge.smoothing import SmoothingPolicy
from unlearn_forge.unlearn import UnlearnConfig


def oracle_sgd_train(model, X, y, cfg, rng):
    labels = onehot(y, model.K)
    theta = model.theta.copy()
    history = []
    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            theta = theta - cfg.lr * models.grad(model.with_theta(theta), X[idx], labels[idx])
        history.append(models.ce_loss(model.with_theta(theta), X, labels))
    return theta, history


def oracle_gradient_ascent(model, forget, cfg):
    labels = onehot(forget.y, model.K)
    rng = rng_stream(cfg.seed, 2)
    theta = model.theta.copy()
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(forget.n)
        for start in range(0, forget.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            theta = theta + cfg.lr * models.grad(model.with_theta(theta), forget.X[idx], labels[idx])
        history.append(models.ce_loss(model.with_theta(theta), forget.X, labels))
    return theta, history


def oracle_ugradsl(model, retain, forget, cfg, retain_driven):
    rng = rng_stream(cfg.seed, 4)
    theta = model.theta.copy()
    history = []
    drive = retain if retain_driven else forget
    other = forget if retain_driven else retain
    for _ in range(cfg.epochs):
        order = rng.permutation(drive.n)
        for start in range(0, drive.n, cfg.batch_size):
            d_idx = order[start:start + cfg.batch_size]
            o_idx = rng.integers(other.n, size=d_idx.size)
            r_idx, f_idx = (d_idx, o_idx) if retain_driven else (o_idx, d_idx)
            Xr, yr = retain.X[r_idx], retain.y[r_idx]
            Xf, yf = forget.X[f_idx], forget.y[f_idx]
            alphas = smoothing.batch_alphas(cfg.smoothing, Xr, Xf)
            soft_f = smoothing.gls_labels(yf, model.K, alphas)
            m = model.with_theta(theta)
            theta = theta - cfg.lr * smoothing.mixed_grad(m, Xr, yr, Xf, soft_f, cfg.p)
        history.append(models.ce_loss(model.with_theta(theta), forget.X, onehot(forget.y, model.K)))
    return theta, history


def oracle_random_label(model, ds, split, cfg):
    rng = rng_stream(cfg.seed, 3)
    y_new = ds.y.copy()
    for i in split.forget_idx:
        wrong = [c for c in range(ds.K) if c != ds.y[i]]
        y_new[i] = wrong[rng.integers(len(wrong))]
    idx = np.sort(np.concatenate([split.retain_idx, split.forget_idx]))
    tc = TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=cfg.seed)
    return oracle_sgd_train(model, ds.X[idx], y_new[idx], tc, rng)


@pytest.fixture(scope="module")
def setup():
    ds = make_blobs(seed=4, K=3, per_class=23, d=4)
    split = data.split_random(ds, 0.25, rng_stream(4, 7))
    model = models.init_model("logistic", 4, 3)
    trained, _ = models.sgd_train(model, ds.X, ds.y, TrainConfig(epochs=5, lr=0.1, seed=0))
    return ds, split, trained


def assert_same(result_theta, result_history, oracle):
    theta, history = oracle
    assert result_theta.tobytes() == theta.tobytes()
    assert result_history == history


class TestEngineMatchesOracle:
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 500])
    def test_sgd_train(self, kind, batch_size):
        ds = make_blobs(seed=1, K=3, per_class=17, d=4)
        model = models.init_model(kind, 4, 3, hidden=5, rng=rng_stream(0, 9))
        cfg = TrainConfig(epochs=3, batch_size=batch_size, lr=0.2, seed=5)
        trained, history = models.sgd_train(model, ds.X, ds.y, cfg)
        assert_same(trained.theta, history, oracle_sgd_train(model, ds.X, ds.y, cfg, rng_stream(5, 0)))

    @pytest.mark.parametrize("batch_size", [4, 32])
    def test_finetune(self, setup, batch_size):
        ds, split, trained = setup
        cfg = UnlearnConfig(method="ft", epochs=3, lr=0.05, batch_size=batch_size, seed=6)
        r = unlearn.finetune(trained, ds, split, cfg)
        retain = ds.subset(split.retain_idx)
        assert_same(r.model.theta, r.history,
                    oracle_sgd_train(trained, retain.X, retain.y, cfg, rng_stream(6, 0)))

    @pytest.mark.parametrize("batch_size", [4, 32])
    def test_gradient_ascent(self, setup, batch_size):
        ds, split, trained = setup
        cfg = UnlearnConfig(method="ga", epochs=3, lr=0.05, batch_size=batch_size, seed=3)
        r = unlearn.gradient_ascent(trained, ds, split, cfg)
        assert_same(r.model.theta, r.history,
                    oracle_gradient_ascent(trained, ds.subset(split.forget_idx), cfg))

    @pytest.mark.parametrize("K", [2, 3, 10])
    def test_random_label(self, K):
        ds = make_blobs(seed=6, K=K, per_class=9, d=4)
        split = data.split_random(ds, 0.4, rng_stream(6, 7))
        model = models.init_model("logistic", 4, K)
        cfg = UnlearnConfig(method="rl", epochs=2, lr=0.05, batch_size=5, seed=8)
        r = unlearn.random_label(model, ds, split, cfg)
        assert_same(r.model.theta, r.history, oracle_random_label(model, ds, split, cfg))

    @pytest.mark.parametrize("policy", [SmoothingPolicy(mode="fixed", alpha=-0.5),
                                        SmoothingPolicy(mode="fixed", alpha=0.4),
                                        SmoothingPolicy(mode="adaptive", beta=0.9)],
                             ids=["fixed-negative", "fixed-positive", "adaptive"])
    @pytest.mark.parametrize("method", ["ugradsl", "ugradsl_plus"])
    def test_ugradsl(self, setup, method, policy):
        ds, split, trained = setup
        cfg = UnlearnConfig(method=method, epochs=3, lr=0.05, p=0.3, batch_size=6, seed=2,
                            smoothing=policy)
        r = unlearn.run_method(trained, ds, split, cfg)
        oracle = oracle_ugradsl(trained, ds.subset(split.retain_idx), ds.subset(split.forget_idx),
                                cfg, retain_driven=method == "ugradsl_plus")
        assert_same(r.model.theta, r.history, oracle)

    # with 54 retain and 15 forget rows these give even splits (1, 6 and 54 for
    # ugradsl_plus; 1, 5 and 15 for ugradsl), short last batches and batches
    # larger than the driving set
    @pytest.mark.parametrize("batch_size", [1, 5, 6, 15, 54, 500])
    @pytest.mark.parametrize("policy", [SmoothingPolicy(mode="fixed", alpha=-0.5),
                                        SmoothingPolicy(mode="fixed", alpha=0.4),
                                        SmoothingPolicy(mode="adaptive", beta=0.9)],
                             ids=["fixed-negative", "fixed-positive", "adaptive"])
    @pytest.mark.parametrize("method", ["ugradsl", "ugradsl_plus"])
    def test_ugradsl_edge_batch_sizes(self, setup, method, policy, batch_size):
        ds, split, trained = setup
        assert (split.retain_idx.size, split.forget_idx.size) == (54, 15)
        cfg = UnlearnConfig(method=method, epochs=2, lr=0.05, p=0.3, batch_size=batch_size,
                            seed=7, smoothing=policy)
        r = unlearn.run_method(trained, ds, split, cfg)
        oracle = oracle_ugradsl(trained, ds.subset(split.retain_idx), ds.subset(split.forget_idx),
                                cfg, retain_driven=method == "ugradsl_plus")
        assert_same(r.model.theta, r.history, oracle)

    @pytest.mark.parametrize("batch_size", [1, 5, 15, 500])
    def test_gradient_ascent_edge_batch_sizes(self, setup, batch_size):
        ds, split, trained = setup
        cfg = UnlearnConfig(method="ga", epochs=2, lr=0.05, batch_size=batch_size, seed=7)
        r = unlearn.gradient_ascent(trained, ds, split, cfg)
        assert_same(r.model.theta, r.history,
                    oracle_gradient_ascent(trained, ds.subset(split.forget_idx), cfg))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    @pytest.mark.parametrize("method", ["ga", "ugradsl", "ugradsl_plus"])
    def test_ascent_raises_naming_method_and_epoch(self, setup, method):
        ds, split, trained = setup
        cfg = UnlearnConfig(method=method, epochs=3, lr=1e306)
        with pytest.raises(DomainError, match=rf"^{method} diverged in epoch 1\b"):
            unlearn.run_method(trained, ds, split, cfg)

    def test_cli_exit_code_3(self, tmp_path, capsys):
        p = tmp_path / "diverge.cfg"
        p.write_text("data.per_class = 20\ndata.test_per_class = 10\ntrain.epochs = 2\n"
                     "unlearn.lr = 1e306\n")
        assert cli.main(["unlearn", "--config", str(p), "--method", "ugradsl"]) == 3
        assert "ugradsl diverged in epoch 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOneDivergenceRule:
    """The engine decides divergence once per epoch and names it once, for
    parameters, logits and loss alike."""
    @pytest.mark.parametrize("method", ["ugradsl", "ugradsl_plus"])
    def test_overflowing_logits_name_the_method(self, method):
        # on the default config's data a step at lr = 1e307 leaves theta
        # finite and the next step's logits overflow
        cfg = {**default_config(), "unlearn.lr": 1e307}
        ds, test = experiment.build_datasets(cfg)
        split, eval_test = experiment.build_split(cfg, ds, test)
        trained = experiment.train_original(cfg, ds)
        with pytest.raises(DomainError, match=rf"^{method} diverged in epoch 1: logits must be finite$"):
            experiment.run_cell(cfg, method, 0, ds, eval_test, split, trained)

    @pytest.mark.parametrize("method", ["ga", "ugradsl", "ugradsl_plus"])
    def test_cli_names_method_and_epoch_at_lr_1e307(self, tmp_path, capsys, method):
        p = tmp_path / "diverge.cfg"
        p.write_text("unlearn.lr = 1e307\n")
        assert cli.main(["unlearn", "--config", str(p), "--method", method]) == 3
        assert f"error: domain: {method} diverged in epoch 1: " in capsys.readouterr().err

    def test_train_on_a_huge_row_names_sgd_train(self, tmp_path, capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text("f0,f1,label\n0.5,1.0,0\n1e160,1e160,1\n-0.3,0.2,0\n0.9,-1,1\n")
        p = tmp_path / "huge.cfg"
        p.write_text(f"data.file = {csv}\ndata.k = 2\n")
        assert cli.main(["train", "--config", str(p), "--out", str(tmp_path / "m.model")]) == 3
        assert "sgd_train diverged in epoch 1: logits must be finite" in capsys.readouterr().err

    @staticmethod
    def run_engine(l2, step_grad, epochs=2):
        """``minibatch_sgd`` on a stack of 3 runs of a d = 2, K = 2 logistic
        model, 6 rows in batches of 2, each step taking ``step_grad(S, P)``;
        its loss rows are empty, so each loss is the l2 term alone."""
        template = models.init_model("logistic", 2, 2, l2=l2)
        model = template.with_stack(np.zeros((3, template.theta.size)))
        cfg = TrainConfig(epochs=epochs, batch_size=2, lr=0.5)
        rngs = [rng_stream(s, 0) for s in range(3)]

        def epoch_grad(orders):
            return lambda m, lo, hi: step_grad(*m.theta.shape)
        return models.minibatch_sgd(model, 6, cfg, rngs, epoch_grad,
                                    (np.zeros((0, 2)), np.zeros((0, 2))), "engine")

    @pytest.mark.parametrize("l2", [1e-2, 0.0])
    def test_infinite_gradient_of_one_run(self, l2):
        def step_grad(S, P):
            g = np.zeros((S, P))
            g[1, 0] = np.inf
            return g
        with pytest.raises(DomainError,
                           match=r"^engine diverged in epoch 1: parameters are no longer finite$"):
            self.run_engine(l2, step_grad)

    def test_finite_parameters_with_an_overflowing_loss(self):
        # theta reaches 1.5e200 per entry: finite, but theta . theta overflows
        with pytest.raises(DomainError, match=r"^engine diverged in epoch 1: loss is inf$"):
            self.run_engine(1e-2, lambda S, P: np.full((S, P), -1e200))

    def test_history_is_the_loss_on_the_given_rows(self):
        _, history = self.run_engine(1e-2, lambda S, P: np.full((S, P), -1.0), epochs=3)
        # after epoch e each of the 6 entries is 1.5 e, so the l2 term is 0.5 l2 6 (1.5 e)^2
        expected = [0.5 * 1e-2 * 6 * (1.5 * e) ** 2 for e in (1, 2, 3)]
        assert history == [pytest.approx(expected, rel=1e-15)] * 3


class TestDivergenceOutput:
    """A divergent run names its own method, and the one ``error:`` line is
    all that reaches stderr: numpy warns of nothing ahead of it."""
    @staticmethod
    def run_cli(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert [str(w.message) for w in caught] == []
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("method, reason", [
        ("ft", "parameters are no longer finite"), ("rl", "parameters are no longer finite"),
        ("ga", "parameters are no longer finite"), ("ugradsl", "logits must be finite"),
        ("ugradsl_plus", "logits must be finite")])
    def test_unlearn_at_lr_1e307(self, tmp_path, capsys, method, reason):
        p = tmp_path / "diverge.cfg"
        p.write_text("unlearn.lr = 1e307\n")
        code, err = self.run_cli(["unlearn", "--config", str(p), "--method", method], capsys)
        assert (code, err) == (3, f"error: domain: {method} diverged in epoch 1: {reason}\n")

    def test_retrain_of_a_model_file_at_train_lr_1e307(self, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert cli.main(["train", "--out", str(model)]) == 0
        capsys.readouterr()
        p = tmp_path / "diverge.cfg"
        p.write_text("train.lr = 1e307\n")
        code, err = self.run_cli(["unlearn", "--config", str(p), "--model", str(model),
                                  "--method", "retrain"], capsys)
        assert (code, err) == (3, "error: domain: retrain diverged in epoch 1: "
                                  "logits must be finite\n")

    def test_train_on_a_huge_row(self, tmp_path, capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text("f0,f1,label\n0.5,1.0,0\n1e160,1e160,1\n-0.3,0.2,0\n0.9,-1,1\n")
        p = tmp_path / "huge.cfg"
        p.write_text(f"data.file = {csv}\ndata.k = 2\n")
        code, err = self.run_cli(["train", "--config", str(p), "--out", str(tmp_path / "m.model")],
                                 capsys)
        assert (code, err) == (3, "error: domain: sgd_train diverged in epoch 1: "
                                  "logits must be finite\n")

    def test_stderr_of_the_command(self, tmp_path):
        p = tmp_path / "diverge.cfg"
        p.write_text("unlearn.lr = 1e307\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-m", "unlearn_forge.cli", "unlearn", "--config",
                              str(p), "--method", "ft"], capture_output=True, text=True, env=env,
                             timeout=120)
        assert out.returncode == 3
        assert out.stderr == ("error: domain: ft diverged in epoch 1: "
                              "parameters are no longer finite\n")
