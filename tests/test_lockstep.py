"""Lockstep seeds: a stacked run gives every seed the bits of its own run.

The benchmark steps all the seeds of a lockstep group as one (S, P)
parameter stack.  Each seed's parameters, loss history and benchmark cell
must equal, byte for byte, what that seed computes alone, on every paradigm,
model kind and batch-size edge; the kernels must give each stacked row the
bits of its 2-D call.
"""

import itertools
import json
import statistics
from types import SimpleNamespace

import numpy as np
import pytest

from unlearn_forge import cli, data, experiment, models, smoothing, unlearn
from unlearn_forge.config import default_config
from unlearn_forge.errors import DomainError
from unlearn_forge.models import onehot

SEEDS = [0, 3, 7]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def small_cfg(**overrides):
    # 36 rows: every paradigm below forgets 12 and retains 24
    return {**default_config(), "data.per_class": 12, "data.test_per_class": 6,
            "data.dim": 4, "train.epochs": 3, "unlearn.epochs": 2, "model.hidden": 5,
            **overrides}


def inputs(cfg):
    ds, test = experiment.build_datasets(cfg)
    split, eval_test = experiment.build_split(cfg, ds, test)
    return ds, eval_test, split, experiment.train_original(cfg, ds)


class TestLockstepEqualsSingleRuns:
    # 5 gives a short last batch on every driving set, 1 a batch per row and
    # 64 a batch larger than every driving set
    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("paradigm", [{"split.paradigm": "classwise"},
                                          {"split.paradigm": "random", "split.fraction": 0.34},
                                          {"split.paradigm": "group", "split.groups": "0,3"}],
                             ids=["classwise", "random", "group"])
    def test_every_method(self, paradigm, kind, batch):
        cfg = small_cfg(**paradigm, **{"model.kind": kind, "unlearn.batch_size": batch,
                                       "train.batch_size": batch})
        ds, test, split, model = inputs(cfg)
        names = [m for m in unlearn.METHODS if not (m == "iu" and kind == "mlp")]
        for method in names:
            for mode in ("adaptive", "fixed") if method.startswith("ugradsl") else ("adaptive",):
                c = {**cfg, "smooth.mode": mode}
                group = experiment.run_cells(c, method, SEEDS, ds, test, split, model)
                assert len(group) == len(SEEDS)
                for seed, (result, report) in zip(SEEDS, group):
                    alone, alone_report = experiment.run_cell(c, method, seed, ds, test, split, model)
                    assert result.model.theta.shape == model.theta.shape
                    assert same_bits(result.model.theta, alone.model.theta), (method, mode, seed)
                    assert result.history == alone.history
                    assert (experiment.cell_record(method, seed, report)
                            == experiment.cell_record(method, seed, alone_report))

    def test_sgd_train_with_per_seed_labels_and_starts(self):
        cfg = small_cfg(**{"model.kind": "mlp"})
        ds, _, _, model = inputs(cfg)
        rng = np.random.default_rng(5)
        starts = rng.standard_normal((3, model.theta.size))
        labels = rng.integers(ds.K, size=(3, ds.n))
        tc = models.TrainConfig(epochs=2, batch_size=7, lr=0.1)
        stacked, histories = models.sgd_train(model.with_stack(starts), ds.X, labels, tc,
                                              [np.random.default_rng(s) for s in SEEDS])
        for i, seed in enumerate(SEEDS):
            alone, history = models.sgd_train(model.with_theta(starts[i]), ds.X, labels[i], tc,
                                               np.random.default_rng(seed))
            assert same_bits(stacked.theta[i], alone.theta)
            assert histories[i] == history

    def test_zero_epochs_gives_an_empty_history_per_seed(self):
        cfg = small_cfg(**{"unlearn.epochs": 0})
        ds, test, split, model = inputs(cfg)
        for result, _ in experiment.run_cells(cfg, "ga", SEEDS, ds, test, split, model):
            assert result.history == []
            assert same_bits(result.model.theta, model.theta)

    @pytest.mark.parametrize("method", unlearn.METHODS)
    def test_rte_is_the_group_time_shared(self, monkeypatch, method):
        ticks = iter([10.0, 16.0])
        monkeypatch.setattr(unlearn, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        cfg = small_cfg()
        ds, _, split, model = inputs(cfg)
        ucfg = unlearn.UnlearnConfig(method=method, epochs=1)
        results = unlearn.run_method(model, ds, split, ucfg, SEEDS)
        assert [r.rte_seconds for r in results] == [2.0, 2.0, 2.0]

    @pytest.mark.parametrize("method", unlearn.METHODS)
    def test_an_empty_seed_list_is_a_domain_error(self, method):
        cfg = small_cfg()
        ds, _, split, model = inputs(cfg)
        ucfg = unlearn.UnlearnConfig(method=method, epochs=1)
        with pytest.raises(DomainError, match="seeds"):
            unlearn.run_method(model, ds, split, ucfg, [])


class TestWallClock:
    # one group of three seeds, or one group per seed (so the shares differ)
    @pytest.mark.parametrize("entries", [experiment.GROUP_ENTRIES, 1],
                             ids=["one-group", "group-per-seed"])
    def test_rte_is_the_one_key_the_clock_changes(self, monkeypatch, entries):
        monkeypatch.setattr(experiment, "GROUP_ENTRIES", entries)
        run_method = unlearn.run_method
        results = []

        def spy(model, ds, split, ucfg, seeds):
            out = run_method(model, ds, split, ucfg, seeds)
            results.extend((ucfg.method, r) for r in out)
            return out
        monkeypatch.setattr(unlearn, "run_method", spy)
        reports = []
        for scale in (1.0, 2.5):
            ticks = (scale * k * k for k in itertools.count())
            monkeypatch.setattr(unlearn, "time",
                                SimpleNamespace(perf_counter=lambda: next(ticks)))
            results.clear()
            report = experiment.run_benchmark(small_cfg(), SEEDS)
            for m in report["methods"]:
                shares = [r.rte_seconds for name, r in results if name == m]
                assert len(shares) == len(SEEDS)
                assert report["rte_seconds"][m] == (statistics.fmean(shares),
                                                    statistics.stdev(shares))
                assert "rte_seconds" not in report["summary"][m]
            reports.append(report)
        a, b = reports
        assert a["rte_seconds"] != b["rte_seconds"]
        assert ({k: v for k, v in a.items() if k != "rte_seconds"}
                == {k: v for k, v in b.items() if k != "rte_seconds"})
        assert cli._machine_report(a) == cli._machine_report(b)


class TestStackedKernels:
    @pytest.mark.parametrize("S", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 13, 32, 500])
    @pytest.mark.parametrize("d, K", [(4, 3), (5, 3), (20, 10)])
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_each_row_is_its_2d_call(self, kind, d, K, n, S):
        rng = np.random.default_rng(S * 1000 + n)
        m = models.init_model(kind, d, K, hidden=6)
        thetas = rng.standard_normal((S, m.theta.size))
        X = rng.standard_normal((S, n, d))
        soft = smoothing.gls_labels(rng.integers(K, size=(S, n)), K, -rng.uniform(0, 2, (S, n)))
        stack = m.with_stack(thetas)
        Z, g, loss = models.logits(stack, X), models.grad(stack, X, soft), models.ce_loss(stack, X, soft)
        # one shared row set against the whole stack, as the epoch losses take it
        shared = models.ce_loss(stack, X[0], soft[0])
        for s in range(S):
            ms = m.with_theta(thetas[s])
            assert same_bits(Z[s], models.logits(ms, X[s]))
            assert same_bits(g[s], models.grad(ms, X[s], soft[s]))
            assert loss[s] == models.ce_loss(ms, X[s], soft[s])
            assert shared[s] == models.ce_loss(ms, X[0], soft[0])

    def test_stacked_onehot_and_smoothing(self):
        rng = np.random.default_rng(2)
        y = rng.integers(3, size=(4, 9))
        alphas = rng.uniform(-1, 1, (4, 9))
        Xr, Xf = rng.standard_normal((4, 9, 5)), rng.standard_normal((4, 9, 5))
        policy = smoothing.SmoothingPolicy(mode="adaptive", beta=0.6)
        soft = smoothing.gls_labels(y, 3, alphas)
        rates = smoothing.epoch_alphas(policy, Xr, Xf, 4)
        for s in range(4):
            assert same_bits(onehot(y, 3)[s], onehot(y[s], 3))
            assert same_bits(soft[s], smoothing.gls_labels(y[s], 3, alphas[s]))
            assert same_bits(rates[s], smoothing.epoch_alphas(policy, Xr[s], Xf[s], 4))


class TestDivergence:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_benchmark_raises_what_the_first_seed_raises_alone(self):
        cfg = small_cfg(**{"unlearn.lr": 1e306, "unlearn.methods": "ga,ugradsl"})
        ds, test, split, model = inputs(cfg)
        with pytest.raises(DomainError) as alone:
            experiment.run_cell(cfg, "ga", SEEDS[0], ds, test, split, model)
        with pytest.raises(DomainError) as group:
            experiment.run_benchmark(cfg, SEEDS)
        assert str(group.value) == str(alone.value)

    def test_a_failing_group_reruns_its_seeds_in_order(self, monkeypatch):
        run_method = unlearn.run_method

        def fail_groups_and_seed_3(model, ds, split, cfg, seeds=None):
            if len(seeds) > 1:
                raise DomainError("the group failed")
            if seeds == [3]:
                raise DomainError("seed 3 failed")
            return run_method(model, ds, split, cfg, seeds)
        monkeypatch.setattr(experiment.unlearn, "run_method", fail_groups_and_seed_3)
        with pytest.raises(DomainError, match="^seed 3 failed$"):
            experiment.run_benchmark(small_cfg(**{"unlearn.methods": "ga"}), SEEDS)

    def test_reruns_give_the_lockstep_report(self, monkeypatch):
        cfg = small_cfg(**{"unlearn.methods": "ft,ugradsl"})
        lockstep = experiment.run_benchmark(cfg, SEEDS)
        run_method = unlearn.run_method

        def fail_groups(model, ds, split, cfg, seeds=None):
            if len(seeds) > 1:
                raise DomainError("the group failed")
            return run_method(model, ds, split, cfg, seeds)
        monkeypatch.setattr(experiment.unlearn, "run_method", fail_groups)
        serial = experiment.run_benchmark(cfg, SEEDS)
        assert json.dumps(serial["cells"]) == json.dumps(lockstep["cells"])


class TestSeedGroups:
    @staticmethod
    def shaped(n, d, K):
        return data.LabeledDataset(np.zeros((n, d)), np.arange(n) % K, K)

    def test_classwise_large_runs_one_seed_per_group(self):
        assert experiment.seed_groups(self.shaped(10_000, 20, 10), [4, 5, 6]) == [[4], [5], [6]]

    def test_classwise_small_runs_ten_seeds_in_one_group(self):
        seeds = list(range(10, 20))
        assert experiment.seed_groups(self.shaped(300, 5, 3), seeds) == [seeds]

    def test_groups_keep_order_and_budget(self):
        ds = self.shaped(300, 5, 3)
        per_group = experiment.GROUP_ENTRIES // (300 * 8)
        seeds = list(range(2 * per_group + 1))
        groups = experiment.seed_groups(ds, seeds)
        assert [len(g) for g in groups] == [per_group, per_group, 1]
        assert sum(groups, []) == seeds
