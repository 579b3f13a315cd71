"""Typed errors at the library's input boundaries: each bad input raises the
package error that names it, not a numpy or Python error from deeper in."""

import numpy as np
import pytest

from conftest import make_blobs, random_model
from unlearn_forge import data, models, smoothing
from unlearn_forge.errors import DimensionError, DomainError, UnsupportedModelError
from unlearn_forge.metrics import mia_accuracy_additional, mia_score, streisand


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


def test_load_dataset_with_unnamed_feature_columns(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("x0,label\n0.5,1\n")
    with pytest.raises(DomainError, match="malformed dataset header: 'x0,label'"):
        data.load_dataset(path)


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
