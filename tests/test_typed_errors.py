"""Typed errors at the library's input boundaries: each bad input raises the
package error that names it, not a numpy or Python error from deeper in."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs, random_model
from unlearn_forge import cli, data, models, smoothing, unlearn
from unlearn_forge.errors import DimensionError, DomainError, SolverError, UnsupportedModelError
from unlearn_forge.metrics import mia_accuracy_additional, mia_score, streisand
from unlearn_forge.modelio import save_model
from unlearn_forge.numcore import solve_damped


class TestLabeledDataset:
    def test_x_not_2d(self):
        with pytest.raises(DimensionError, match="X must be"):
            data.LabeledDataset(np.zeros(4), np.zeros(4, dtype=np.int64), 2)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_k(self, label):
        with pytest.raises(DomainError, match=r"label outside \[0, K\)"):
            data.LabeledDataset(np.zeros((2, 3)), np.array([0, label]), 2)

    def test_group_vector_of_wrong_length(self):
        with pytest.raises(DimensionError, match="one id per row"):
            data.LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2, np.array([0, 1]))


def test_split_classwise_on_data_lacking_the_class():
    ds = make_blobs(K=3, per_class=5)
    two = ds.subset(np.flatnonzero(ds.y < 2))
    with pytest.raises(DomainError, match="class 2 absent"):
        data.split_classwise(two, 2)


# each float a constructor checks, built with value v; a library caller who
# skips config reaches these, so each accepts exactly its SCHEMA interval
# ("[0, inf)", and "(-inf, 1]" for the fixed smooth rate): a NaN, which
# passes a lone `v < 0`, and the infinities stop there
FLOAT_FIELDS = {
    "TrainConfig.lr": lambda v: models.TrainConfig(lr=v),
    "UnlearnConfig.damping": lambda v: unlearn.UnlearnConfig(method="iu", damping=v),
    "SmoothingPolicy.alpha": lambda v: smoothing.SmoothingPolicy(mode="fixed", alpha=v),
    "gen_blobs.spread": lambda v: data.gen_blobs(2, 2, 1, v, 1, np.random.default_rng(0)),
    "solve_damped.damping": lambda v: solve_damped(np.eye(2), np.ones(2), v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_non_finite_float_stops_at_its_constructor(field, value):
    with pytest.raises(DomainError):
        FLOAT_FIELDS[field](value)


@pytest.mark.parametrize("field, value", [
    ("TrainConfig.lr", 0.0), ("UnlearnConfig.damping", 0.0), ("SmoothingPolicy.alpha", 1.0),
    ("SmoothingPolicy.alpha", -1e308), ("gen_blobs.spread", 0.0), ("solve_damped.damping", 0.0)])
def test_closed_and_finite_ends_are_accepted(field, value):
    FLOAT_FIELDS[field](value)


def test_load_dataset_with_unnamed_feature_columns(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x0,label\n0.5,1\n")
    with pytest.raises(DomainError, match="malformed dataset header: 'x0,label'"):
        data.load_dataset(path, 2)


class TestModel:
    def test_fewer_than_two_classes(self):
        with pytest.raises(DomainError, match="at least 2 classes"):
            models.Model("logistic", np.zeros(4), 3, 1)

    def test_with_stack_wrong_last_axis(self, rng):
        model = random_model(rng)
        with pytest.raises(DimensionError, match=rf"expected \(\.\.\., {model.theta.size}\)"):
            model.with_stack(np.zeros((2, model.theta.size + 1)))

    def test_grad_with_soft_labels_of_wrong_shape(self, rng):
        model = random_model(rng, d=4, K=3)
        with pytest.raises(DimensionError, match="soft labels have shape"):
            models.grad(model, np.zeros((5, 4)), np.full((5, 2), 0.5))

    def test_newton_optimize_on_an_mlp(self, rng):
        model = random_model(rng, kind="mlp", d=4, K=3)
        with pytest.raises(UnsupportedModelError, match="requires the logistic model"):
            models.newton_optimize(model, np.zeros((5, 4)), models.onehot(np.zeros(5), 3))


class TestSmoothing:
    def test_gls_labels_rate_above_one(self):
        with pytest.raises(DomainError, match="smooth rate must be <= 1"):
            smoothing.gls_labels(np.array([0, 1]), 3, np.array([0.5, 1.5]))

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_mixed_grad_p_outside_unit_interval(self, rng, p):
        model = random_model(rng, d=4, K=3)
        X, y = np.zeros((2, 4)), np.array([0, 1])
        with pytest.raises(DomainError, match=r"p must be in \[0, 1\]"):
            smoothing.mixed_grad(model, X, y, X, models.onehot(y, 3), p)


class TestMetricsOnEmptySets:
    @pytest.fixture
    def sets(self, rng):
        ds = make_blobs(K=3, per_class=5, d=4)
        return random_model(rng, d=4, K=3), ds, ds.subset([])

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_mia_score(self, sets, empty):
        model, full, none = sets
        args = [full, full, full]
        args[empty] = none
        with pytest.raises(DomainError, match="empty dataset"):
            mia_score(model, *args)

    @pytest.mark.parametrize("fn", [mia_accuracy_additional, streisand])
    @pytest.mark.parametrize("empty", [0, 1])
    def test_forget_or_test_empty(self, sets, fn, empty):
        model, full, none = sets
        args = [full, full]
        args[empty] = none
        with pytest.raises(DomainError, match="empty dataset"):
            fn(model, *args)


class TestUnlearnOverflow:
    """Influence unlearning on a model whose parameters are 1e200: an
    overflow is a typed error, and its one ``error:`` line is all that
    reaches stderr."""
    @staticmethod
    def huge_model(tmp_path):
        path = tmp_path / "huge.model"
        m = models.init_model("logistic", 5, 3, 1e-2)
        save_model(m.with_theta(np.full(m.theta.size, 1e200)), path)
        return str(path)

    @staticmethod
    def run_cli(argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv)
        assert [str(w.message) for w in caught] == []
        return code, capsys.readouterr().err

    def test_solve_of_an_overflowing_rhs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"^\|\|b\|\| is not finite, so the residual "
                                                  r"cannot be checked$"):
                solve_damped(np.eye(3), np.full(3, 1e200))

    def test_stacked_solve_names_the_overflowing_system(self):
        b = np.ones((3, 3))
        b[2] = 1e200
        with pytest.raises(SolverError, match=r"cannot be checked in system 2$"):
            solve_damped(np.stack([np.eye(3)] * 3), b)

    def test_iu_exit_4(self, tmp_path, capsys):
        code, err = self.run_cli(["unlearn", "--model", self.huge_model(tmp_path),
                                  "--method", "iu"], capsys)
        assert (code, err) == (4, "error: solver: ||b|| is not finite, so the residual "
                                  "cannot be checked\n")

    def test_iu_on_a_huge_row_exit_3(self, tmp_path, capsys):
        ds = make_blobs(K=3, per_class=10, d=5)
        ds.X[4] = 1e160
        csv = tmp_path / "huge.csv"
        data.save_dataset(ds, csv)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"data.file = {csv}\n")
        code, err = self.run_cli(["unlearn", "--config", str(cfg), "--model",
                                  self.huge_model(tmp_path), "--method", "iu"], capsys)
        assert (code, err) == (3, "error: domain: logits must be finite\n")

    def test_evaluation_overflow_names_its_set(self, tmp_path, capsys):
        # training rows scaled by 1e-300 keep the logits finite; the generated
        # test rows overflow them
        path = tmp_path / "max.model"
        m = models.init_model("logistic", 5, 3, 0.0)
        save_model(m.with_theta(np.full(m.theta.size, 1e308)), path)
        ds = make_blobs(K=3, per_class=20, d=5)
        csv = tmp_path / "tiny.csv"
        data.save_dataset(data.LabeledDataset(ds.X * 1e-300, ds.y, 3), csv)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"model.l2 = 0.0\ndata.file = {csv}\n")
        code, err = self.run_cli(["unlearn", "--config", str(cfg), "--model", str(path),
                                  "--method", "iu"], capsys)
        assert (code, err) == (3, "error: domain: evaluating on the test rows: "
                                  "logits must be finite\n")

    def test_stderr_of_the_command(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-m", "unlearn_forge.cli", "unlearn", "--model",
                              self.huge_model(tmp_path), "--method", "iu"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert (out.returncode, out.stdout) == (4, "")
        assert out.stderr == ("error: solver: ||b|| is not finite, so the residual "
                              "cannot be checked\n")
