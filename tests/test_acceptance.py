"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line.

Each criterion is a self-contained pytest test; the line is emitted outside
capture so it is visible in a plain `pytest -v` run.
"""

import contextlib
import time

import numpy as np
import pytest

from oracles import finite_diff_grad, gls_label, gls_loss, mixed_loss, simplex_oracle
from unlearn_forge import cli, data, influence, metrics, models, privacy, smoothing, unlearn
from unlearn_forge.models import TrainConfig, onehot
from unlearn_forge.numcore import rng_stream
from unlearn_forge.smoothing import SmoothingPolicy
from unlearn_forge.unlearn import UnlearnConfig


@contextlib.contextmanager
def report(capsys, num, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num:2d}: {title}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {num:2d}: {title} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_01_gradient_fidelity(capsys):
    with report(capsys, 1, "mixed-loss gradients match finite differences (rel err <= 1e-5)"):
        rng = np.random.default_rng(0)
        kinds = ["logistic", "mlp"]
        ps = [0.0, 0.5, 1.0]
        alphas = [-1.0, 0.0, 0.5]
        for case in range(50):
            kind = kinds[case % 2]
            p = ps[case % 3]
            alpha = alphas[case % 3 if case % 2 else (case + 1) % 3]
            m = models.init_model(kind, 3, 3, hidden=6)
            m = m.with_theta(rng.standard_normal(m.theta.size))
            Xr = rng.standard_normal((4, 3))
            yr = rng.integers(3, size=4)
            Xf = rng.standard_normal((4, 3))
            soft = smoothing.gls_labels(rng.integers(3, size=4), 3, np.full(4, alpha))
            g = smoothing.mixed_grad(m, Xr, yr, Xf, soft, p)
            fd = finite_diff_grad(
                lambda t: mixed_loss(m.with_theta(t), Xr, yr, Xf, soft, p), m.theta)
            assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-5


def test_criterion_02_gls_decomposition(capsys):
    with report(capsys, 2, "GLS loss equals CE against the smoothed label (<= 1e-10)"):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            m = models.init_model("logistic", d, K)
            m = m.with_theta(rng.standard_normal(m.theta.size))
            x = rng.standard_normal(d)
            y = int(rng.integers(K))
            alpha = float(rng.uniform(-2.0, 1.0))
            direct = models.ce_loss(m, x[None], gls_label(y, K, alpha)[None])
            assert abs(gls_loss(m, x, y, alpha) - direct) <= 1e-10


def test_criterion_03_influence_loo_oracle(capsys):
    with report(capsys, 3, "influence predicts LOO retrain deltas (cos >= 0.95, "
                           "norm err <= 25%, for >= 90% of 50 points)"):
        K, d, n_per, l2 = 2, 5, 100, 0.1
        ds = data.gen_blobs(K, n_per, d, 1.5, 1, rng_stream(0, 10))  # n = 200
        template = models.init_model("logistic", d, K, l2)
        theta_star = models.newton_optimize(template, ds.X, onehot(ds.y, K))
        idx = rng_stream(0, 20).choice(ds.n, size=50, replace=False)
        good = 0
        for i in idx:
            infl = influence.influence_of((ds.X[i], int(ds.y[i])), theta_star, ds, damping=1e-9)
            predicted = -infl / ds.n
            keep = np.delete(np.arange(ds.n), i)
            loo = models.newton_optimize(theta_star, ds.X[keep], onehot(ds.y[keep], K))
            actual = loo.theta - theta_star.theta
            na, np_ = np.linalg.norm(actual), np.linalg.norm(predicted)
            cos = predicted @ actual / (na * np_)
            if cos >= 0.95 and abs(np_ - na) / na <= 0.25:
                good += 1
        assert good >= 45


def _theory_instances(count):
    for i in range(count):
        rng = rng_stream(0, 1000 + i)
        K, d = 3, 3
        spread = float(rng.uniform(0.4, 3.5))
        frac = float(rng.uniform(0.1, 0.4))
        ds = data.gen_blobs(K, 20, d, spread, 1, rng)
        split = data.split_random(ds, frac, rng)
        retain = ds.subset(split.retain_idx)
        forget = ds.subset(split.forget_idx)
        template = models.init_model("logistic", d, K)
        theta_tr = models.newton_optimize(template, ds.X, onehot(ds.y, K))
        theta_r = models.newton_optimize(template, retain.X, onehot(retain.y, K))
        yield theta_tr, theta_r, ds, retain, forget


def test_criterion_04_theorem1_regimes(capsys):
    with report(capsys, 4, "both GA regimes (helps / cannot help) occur over 100 instances"):
        flags = []
        for theta_tr, theta_r, ds, retain, forget in _theory_instances(100):
            rep = influence.check_theorem1(theta_tr, theta_r, ds, retain, forget, damping=1e-6)
            flags.append(rep.ga_cannot_help)
        assert any(flags), "no instance in the ga-cannot-help regime"
        assert not all(flags), "no instance where GA helps"


def test_criterion_05_theorem2_smoothing_helps(capsys):
    with report(capsys, 5, "negative smoothing strictly improves the GA distance "
                           "whenever the inner-product condition holds"):
        grid = np.linspace(-5.0, -1e-6, 501)
        step = grid[1] - grid[0]
        checked = 0
        for theta_tr, theta_r, ds, retain, forget in _theory_instances(40):
            rep = influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, grid,
                                           damping=1e-6)
            if rep.inner >= -1e-8:
                continue
            checked += 1
            assert rep.condition_met
            assert rep.best_alpha is not None and rep.best_alpha < 0
            assert rep.dist_gls_at_best_alpha < rep.dist_ga
            target = float(np.clip(rep.closed_form_alpha, grid[0], grid[-1]))
            assert abs(rep.best_alpha - target) <= step + 1e-12
        assert checked >= 1, "no instance satisfied the condition strictly"


def test_criterion_06_theorem3_ldp(capsys):
    with report(capsys, 6, "label-LDP epsilon matches brute force; endpoint gives 0; "
                           "simplex oracle agrees"):
        rng = np.random.default_rng(2)
        tested = 0
        while tested < 200:
            K = int(rng.integers(2, 12))
            alpha = float(rng.uniform(-5.0, -1e-3))
            gamma2 = float(rng.uniform(0.1, 5.0))
            gamma1 = float(rng.uniform(0.1, 5.0))
            try:
                params = privacy.LdpParams(K=K, alpha=alpha, gamma1=gamma1, gamma2=gamma2)
            except Exception:
                continue
            rep = privacy.verify_ratio_bound(params)
            assert abs(rep.empirical_max_log_ratio - rep.epsilon) <= 1e-6
            tested += 1
        # (b) endpoint alpha = 1 - gamma1/gamma2
        for g1, g2, K in [(2.0, 1.0, 10), (3.0, 2.0, 4), (1.5, 1.0, 2)]:
            params = privacy.LdpParams(K=K, alpha=1.0 - g1 / g2, gamma1=g1, gamma2=g2)
            assert privacy.label_ldp_epsilon(params) <= 1e-9
        # (c) simplex oracle vs closed form
        for K, a, g1, g2 in [(4, -0.8, 2.5, 1.0), (3, -1.5, 4.0, 1.0), (6, -0.3, 2.0, 1.5)]:
            params = privacy.LdpParams(K=K, alpha=a, gamma1=g1, gamma2=g2)
            pt, po = privacy.optimal_prediction_distribution(params)
            numeric = simplex_oracle(params)
            assert abs(numeric[0] - pt) <= 1e-6
            assert np.all(np.abs(numeric[1:] - po) <= 1e-6)


@pytest.fixture(scope="module")
def classwise_run():
    """3-class blobs (n=300), class 0 forgotten; original + retrain models."""
    K, per_class, d = 3, 100, 5
    ds = data.gen_blobs(K, per_class, d, 1.0, 1, rng_stream(0, 10))
    test = data.gen_blobs(K, 50, d, 1.0, 1, rng_stream(0, 11))
    split, adjusted_test = data.split_classwise(ds, 0, test)
    model = models.init_model("logistic", d, K)
    tc = TrainConfig(epochs=60, batch_size=32, lr=0.1, seed=0)
    trained, _ = models.sgd_train(model, ds.X, ds.y, tc)
    retrained = unlearn.retrain(trained, ds, split, tc)
    return ds, test, adjusted_test, split, trained, retrained


def test_criterion_07_classwise_trend(capsys, classwise_run):
    with report(capsys, 7, "class-wise trend: retrain UA=100; UGradSL UA>=90 with "
                           "RA drop <= 5; UGradSL beats GA at equal epochs"):
        ds, _, _, split, trained, retrained = classwise_run
        forget = ds.subset(split.forget_idx)
        retain = ds.subset(split.retain_idx)
        assert metrics.ua(retrained.model, forget) == 100.0
        ra_orig = metrics.accuracy(trained, retain)
        common = dict(epochs=10, lr=0.01, batch_size=32, seed=0)
        ga = unlearn.gradient_ascent(trained, ds, split, UnlearnConfig(method="ga", **common))
        ug = unlearn.ugradsl(trained, ds, split,
                             UnlearnConfig(method="ugradsl",
                                           smoothing=SmoothingPolicy(mode="adaptive", beta=0.9),
                                           **common))
        ua_ug = metrics.ua(ug.model, forget)
        assert ua_ug >= 90.0
        assert metrics.accuracy(ug.model, retain) >= ra_orig - 5.0
        assert ua_ug > metrics.ua(ga.model, forget)


def test_criterion_08_sum_avg_gap_arithmetic(capsys):
    with report(capsys, 8, "Sum and Avg.Gap reproduce the reference-table arithmetic"):
        rep = metrics.MetricsReport(ua=100.0, mia=100.0, ra=98.19, ta=94.50)
        assert metrics.sum_metric(rep) == pytest.approx(392.69, abs=1e-9)
        a = metrics.MetricsReport(ua=100.0, mia=100.0, ra=97.12, ta=94.71)
        assert metrics.avg_gap(a, rep) == pytest.approx(0.32, abs=1e-9)


def test_criterion_09_additional_mia_sanity(capsys, classwise_run):
    with report(capsys, 9, "additional MIA: ~100 for class-wise forgetting, 50+/-10 for random"):
        ds, test, adjusted_test, split, trained, retrained = classwise_run
        forget = ds.subset(split.forget_idx)
        classwise = metrics.mia_accuracy_additional(retrained.model, forget, adjusted_test)
        assert classwise >= 90.0
        # random forgetting: train and test carved from one pool (shared blob
        # centers) and equal-sized sets, so the exchangeability argument behind
        # the 50% chance level actually applies
        big = data.gen_blobs(3, 150, 5, 1.0, 1, rng_stream(1, 10))
        tr_idx = np.concatenate([np.flatnonzero(big.y == c)[:100] for c in range(3)])
        te_idx = np.concatenate([np.flatnonzero(big.y == c)[100:] for c in range(3)])
        pool_train, pool_test = big.subset(tr_idx), big.subset(te_idx)
        tc = TrainConfig(epochs=60, batch_size=32, lr=0.1, seed=0)
        base, _ = models.sgd_train(models.init_model("logistic", 5, 3),
                                   pool_train.X, pool_train.y, tc)
        rsplit = data.split_random(pool_train, 0.5, rng_stream(0, 12))
        r = unlearn.retrain(base, pool_train, rsplit, tc)
        rand = metrics.mia_accuracy_additional(r.model, pool_train.subset(rsplit.forget_idx),
                                               pool_test)
        assert 40.0 <= rand <= 60.0


def test_criterion_10_benchmark_determinism(capsys, tmp_path):
    with report(capsys, 10, "benchmark reports are byte-identical across reruns"):
        cfgp = tmp_path / "bench.cfg"
        cfgp.write_text("data.per_class = 30\ndata.test_per_class = 30\ntrain.epochs = 20\n"
                        "unlearn.lr = 0.02\nseeds = 0,1\n")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["benchmark", "--config", str(cfgp), "--format", "machine",
                         "--out", str(out1)]) == 0
        assert cli.main(["benchmark", "--config", str(cfgp), "--format", "machine",
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
