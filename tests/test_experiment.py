import json

import numpy as np
import pytest

from conftest import make_blobs
from unlearn_forge import cli, config, data, experiment, unlearn
from unlearn_forge.config import default_config
from unlearn_forge.errors import ConfigError, DomainError
from unlearn_forge.models import TrainConfig


def csv_without_top_class(tmp_path):
    ds = make_blobs(K=3, per_class=20)
    path = tmp_path / "two.csv"
    data.save_dataset(ds.subset(np.flatnonzero(ds.y < 2)), path)
    return str(path)


class TestBuildDatasets:
    def test_file_keeps_configured_k(self, tmp_path):
        cfg = default_config()
        cfg["data.file"] = csv_without_top_class(tmp_path)
        ds, test = experiment.build_datasets(cfg)
        assert ds.K == test.K == 3
        assert set(np.unique(ds.y)) == {0, 1}

    def test_file_label_past_k_is_domain_error(self, tmp_path):
        cfg = default_config()
        cfg["data.file"] = csv_without_top_class(tmp_path)
        cfg["data.k"] = 1
        with pytest.raises(DomainError, match="label 1 >= K=1"):
            experiment.build_datasets(cfg)


class TestMethods:
    def test_configured_order(self):
        cfg = default_config()
        cfg["unlearn.methods"] = " ga, retrain ,,iu"
        assert experiment.methods(cfg) == ["ga", "retrain", "iu"]

    @pytest.mark.parametrize("spec", ["bogus", "ga,bogus", "", " , "])
    def test_unknown_or_empty_is_config_error(self, spec):
        cfg = default_config()
        cfg["unlearn.methods"] = spec
        with pytest.raises(ConfigError, match="unlearn.methods"):
            experiment.methods(cfg)


def test_unlearn_fragment_is_the_benchmark_cell(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("data.per_class = 20\ndata.test_per_class = 20\ntrain.epochs = 15\n"
                 "unlearn.methods = ga,ugradsl\nseeds = 1\n")
    assert cli.main(["benchmark", "--config", str(p), "--format", "machine"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    for cell in cells:
        assert cli.main(["unlearn", "--config", str(p), "--method", cell["method"]]) == 0
        assert json.loads(capsys.readouterr().out) == cell


def test_retrain_cell_reruns_the_training_schedule():
    cfg = {**default_config(), "data.per_class": 20, "data.test_per_class": 20,
           "train.epochs": 7, "train.lr": 0.2}
    ds, test = experiment.build_datasets(cfg)
    split, eval_test = experiment.build_split(cfg, ds, test)
    model = experiment.train_original(cfg, ds)
    cell, _ = experiment.run_cell(cfg, "retrain", 2, ds, eval_test, split, model)
    direct = unlearn.retrain(model, ds, split, TrainConfig(epochs=7, lr=0.2,
                                                           batch_size=cfg["train.batch_size"], seed=2))
    assert cell.model.theta.tobytes() == direct.model.theta.tobytes()
    assert cell.history == direct.history
    again, _ = experiment.run_cell({**cfg, "unlearn.epochs": 3, "unlearn.lr": 0.5}, "retrain", 2,
                                   ds, eval_test, split, model)
    assert again.model.theta.tobytes() == cell.model.theta.tobytes()


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


# 2 methods x 2 seeds, both seeds in one lockstep group: two (method, group) runs
@pytest.mark.parametrize("jobs, sizes", [(1, []), (3, [2]), (64, [2])])
def test_pool_never_larger_than_the_cells(monkeypatch, jobs, sizes):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "sizes", [])
    cfg = {**default_config(), "data.per_class": 20, "data.test_per_class": 20,
           "train.epochs": 3, "unlearn.methods": "ga,ft"}
    report = experiment.run_benchmark(cfg, [0, 1], jobs=jobs)
    assert SerialPool.sizes == sizes
    assert len(report["cells"]) == 4


class TestValidate:
    def test_verify_theory_rejects_out_of_domain_instances(self):
        with pytest.raises(ConfigError, match="theory.instances"):
            experiment.run_verify_theory({**default_config(), "theory.instances": 0})

    def test_benchmark_rejects_out_of_domain_p_before_work(self, monkeypatch):
        def fail(*_):
            raise AssertionError("called before the config was validated")
        monkeypatch.setattr(experiment, "build_datasets", fail)
        with pytest.raises(ConfigError, match="unlearn.p"):
            experiment.run_benchmark({**default_config(), "unlearn.p": 2}, [0])

    @pytest.mark.parametrize("key, value, message", [
        ("unlearn.bogus", 1, "unknown key 'unlearn.bogus'"),
        ("train.epochs", 2.5, "'train.epochs': 2.5 is not of type int"),
        ("train.epochs", True, "'train.epochs': True is not of type int"),
        ("model.kind", 3, "'model.kind': 3 is not of type str"),
        ("smooth.beta", float("nan"), "'smooth.beta': nan is outside"),
        ("data.seed", -1, "'data.seed': -1 is outside")])
    def test_names_the_key(self, key, value, message):
        with pytest.raises(ConfigError, match=message):
            config.validate({**default_config(), key: value})

    def test_missing_key(self):
        cfg = default_config()
        del cfg["unlearn.lr"]
        with pytest.raises(ConfigError, match="missing key 'unlearn.lr'"):
            config.validate(cfg)

    def test_accepts_defaults_and_numbers_of_the_right_kind(self):
        cfg = {**default_config(), "unlearn.p": 1, "train.epochs": np.int64(4),
               "smooth.beta": np.float64(0.25)}
        assert config.validate(cfg) is cfg


@pytest.mark.parametrize("spec, name", [("ga,ga", "'ga'"), ("retrain, iu,retrain", "'retrain'")])
def test_method_named_twice_is_config_error(spec, name):
    cfg = default_config()
    cfg["unlearn.methods"] = spec
    with pytest.raises(ConfigError, match=rf"unlearn.methods names {name} more than once"):
        experiment.methods(cfg)


@pytest.mark.parametrize("key", ["model.kind", "smooth.mode"])
def test_unknown_choice_is_config_error_naming_key(key):
    with pytest.raises(ConfigError, match=rf"key '{key}': unknown .* 'foo'"):
        config.validate({**default_config(), key: "foo"})
