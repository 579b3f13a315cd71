import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_blobs, random_model
from unlearn_forge import data, metrics, models
from unlearn_forge.errors import DomainError
from unlearn_forge.metrics import (MetricsReport, accuracy, avg_gap, example_losses,
                                   mia_accuracy_additional, mia_score, streisand, sum_metric, ua)


def const_dataset(X, y, K=2):
    return data.LabeledDataset(np.asarray(X, dtype=float), np.asarray(y, dtype=np.int64), K)


class TestAccuracy:
    def test_all_correct(self):
        ds = make_blobs(seed=0, K=2, per_class=20, d=3, spread=0.3)
        m = models.init_model("logistic", 3, 2)
        trained, _ = models.sgd_train(m, ds.X, ds.y, models.TrainConfig(epochs=40, lr=0.1, seed=0))
        assert accuracy(trained, ds) == 100.0

    def test_adversarial_permutation_zero(self):
        ds = make_blobs(seed=0, K=2, per_class=20, d=3, spread=0.3)
        m = models.init_model("logistic", 3, 2)
        trained, _ = models.sgd_train(m, ds.X, ds.y, models.TrainConfig(epochs=40, lr=0.1, seed=0))
        flipped = data.LabeledDataset(ds.X, 1 - ds.y, 2)
        assert accuracy(trained, flipped) == 0.0

    def test_seven_of_ten(self):
        # model that always predicts class 0 against 7 zeros and 3 ones
        m = models.init_model("logistic", 2, 2).with_theta(np.array([0.0, 0, 0, 0, 1.0, 0]))
        ds = const_dataset(np.zeros((10, 2)), [0] * 7 + [1] * 3)
        assert accuracy(m, ds) == 70.0

    def test_empty_rejected(self):
        m = models.init_model("logistic", 2, 2)
        with pytest.raises(DomainError):
            accuracy(m, const_dataset(np.zeros((0, 2)), []))

    def test_ua_complement(self):
        m = models.init_model("logistic", 2, 2).with_theta(np.array([0.0, 0, 0, 0, 1.0, 0]))
        ds = const_dataset(np.zeros((10, 2)), [0] * 7 + [1] * 3)
        assert ua(m, ds) == 30.0


class TestMiaScore:
    def _sets(self, seed=0):
        ds = make_blobs(seed=seed, K=2, per_class=30, d=3)
        test = make_blobs(seed=seed + 50, K=2, per_class=20, d=3)
        return ds, test

    def test_fully_forgotten_scores_100(self, rng):
        # push forget-set losses far above every member/test loss by giving
        # the model huge confidence on a wrong class for the forget rows
        retain = const_dataset(np.tile([5.0, 0.0], (10, 1)), [0] * 10)
        test = const_dataset(np.tile([4.0, 0.5], (8, 1)), [0] * 8)
        forget = const_dataset(np.tile([-5.0, 0.0], (6, 1)), [0] * 6)
        m = models.init_model("logistic", 2, 2).with_theta(np.array([2.0, 0, -2.0, 0, 0, 0]))
        assert mia_score(m, forget, retain, test) == 100.0

    def test_fully_memorized_scores_low(self):
        # forget losses identical to member losses and below all test losses
        retain = const_dataset(np.tile([5.0, 0.0], (10, 1)), [0] * 10)
        forget = const_dataset(np.tile([5.0, 0.0], (6, 1)), [0] * 6)
        test = const_dataset(np.tile([-5.0, 0.0], (8, 1)), [0] * 8)
        m = models.init_model("logistic", 2, 2).with_theta(np.array([2.0, 0, -2.0, 0, 0, 0]))
        assert mia_score(m, forget, retain, test) == 0.0

    def test_matches_bruteforce_sweep(self, rng):
        ds, test = self._sets()
        m = random_model(rng, d=3, K=2)
        retain = ds.subset(np.arange(0, 40))
        forget = ds.subset(np.arange(40, 60))
        score = mia_score(m, forget, retain, test, seed=7)
        # independent sweep: recompute with the same seeded member sample
        from unlearn_forge.numcore import rng_stream
        member_idx = rng_stream(7, 5).choice(retain.n, size=retain.n // 2, replace=False)
        ml = example_losses(m, retain.subset(member_idx))
        nl = example_losses(m, test)
        best_acc, best_tau = -1.0, None
        for tau in np.concatenate([[-np.inf], np.sort(np.unique(np.concatenate([ml, nl])))]):
            acc = (np.sum(ml <= tau) + np.sum(nl > tau)) / (ml.size + nl.size)
            if acc > best_acc:
                best_acc, best_tau = acc, tau
        fl = example_losses(m, forget)
        assert score == pytest.approx(100.0 * np.mean(fl > best_tau), abs=1e-12)

    def test_monotone_loss_transform_invariance(self, rng):
        # the attack depends only on the ordering of losses; scaling every
        # feature (hence shifting all logits monotonically) with a fixed
        # threshold refit must keep the score when order is preserved
        ds, test = self._sets(seed=3)
        retain = ds.subset(np.arange(0, 40))
        forget = ds.subset(np.arange(40, 60))
        m = random_model(rng, d=3, K=2)
        s1 = mia_score(m, forget, retain, test, seed=1)
        scaled = m.with_theta(m.theta * 3.0)  # logits scale by 3: order of CE losses preserved
        s2 = mia_score(scaled, forget, retain, test, seed=1)
        assert s1 == pytest.approx(s2, abs=1e-12)


class TestAdditionalMia:
    def test_identical_distributions_near_half(self):
        X = np.tile([1.0, 0.0], (20, 1))
        forget = const_dataset(X, [0] * 20)
        test = const_dataset(X.copy(), [0] * 20)
        m = models.init_model("logistic", 2, 2)
        assert mia_accuracy_additional(m, forget, test) == pytest.approx(50.0, abs=1e-9)

    def test_separated_distributions_100(self):
        forget = const_dataset(np.tile([-5.0, 0.0], (10, 1)), [0] * 10)
        test = const_dataset(np.tile([5.0, 0.0], (10, 1)), [0] * 10)
        m = models.init_model("logistic", 2, 2).with_theta(np.array([2.0, 0, -2.0, 0, 0, 0]))
        assert mia_accuracy_additional(m, forget, test) == 100.0

    def test_matches_bruteforce_sweep_with_ties(self, rng):
        # a few distinct rows repeated across both sets, so losses tie within
        # and across the forget and test rows
        base = make_blobs(seed=5, K=3, per_class=3, d=3)
        forget = base.subset(rng.integers(base.n, size=23))
        test = base.subset(rng.integers(base.n, size=17))
        m = random_model(rng, d=3, K=3)
        lf, lt = example_losses(m, forget), example_losses(m, test)
        assert np.intersect1d(lf, lt).size > 0
        best = 0.0
        for tau in np.concatenate([[-np.inf], np.unique(np.concatenate([lf, lt]))]):
            seen_low = (np.sum(lf <= tau) + np.sum(lt > tau)) / (lf.size + lt.size)
            seen_high = (np.sum(lf > tau) + np.sum(lt <= tau)) / (lf.size + lt.size)
            best = max(best, seen_low, seen_high)
        assert mia_accuracy_additional(m, forget, test) == 100.0 * best


class TestAggregates:
    def test_avg_gap_identical_zero(self):
        r = MetricsReport(ua=10.0, mia=20.0, ra=30.0, ta=40.0)
        assert avg_gap(r, r) == 0.0

    def test_avg_gap_paper_row(self):
        a = MetricsReport(ua=100.0, mia=100.0, ra=97.12, ta=94.71)
        b = MetricsReport(ua=100.0, mia=100.0, ra=98.19, ta=94.50)
        assert avg_gap(a, b) == pytest.approx((0 + 0 + 1.07 + 0.21) / 4, abs=1e-9)
        assert avg_gap(a, b) == pytest.approx(0.32, abs=1e-9)

    def test_avg_gap_single_metric(self):
        a = MetricsReport(ua=4.0, mia=0.0, ra=0.0, ta=0.0)
        b = MetricsReport(ua=0.0, mia=0.0, ra=0.0, ta=0.0)
        assert avg_gap(a, b) == 1.0

    def test_avg_gap_symmetric(self, rng):
        vals = rng.uniform(0, 100, size=8)
        a = MetricsReport(*vals[:4])
        b = MetricsReport(*vals[4:])
        assert avg_gap(a, b) == avg_gap(b, a)

    def test_sum_paper_row(self):
        r = MetricsReport(ua=100.0, mia=100.0, ra=98.19, ta=94.50)
        assert sum_metric(r) == pytest.approx(392.69, abs=1e-9)

    def test_sum_trivials(self):
        assert sum_metric(MetricsReport(0, 0, 0, 0)) == 0.0
        assert sum_metric(MetricsReport(25, 25, 25, 25)) == 100.0
        r = MetricsReport(1.5, 2.5, 3.5, 4.5)
        assert r.sum == pytest.approx(1.5 + 2.5 + 3.5 + 4.5, abs=1e-9)


class TestStreisand:
    def test_identical_sets_tv_zero(self):
        ds = make_blobs(seed=0, K=3, per_class=10, d=3)
        m = models.init_model("logistic", 3, 3)
        out = streisand(m, ds, ds)
        assert out["tv_distance"] == 0.0

    def test_disjoint_predictions_tv_one(self):
        forget = const_dataset(np.tile([5.0, 0.0], (5, 1)), [0] * 5)
        test = const_dataset(np.tile([-5.0, 0.0], (5, 1)), [0] * 5)
        m = models.init_model("logistic", 2, 2).with_theta(np.array([1.0, 0, -1.0, 0, 0, 0]))
        out = streisand(m, forget, test)
        assert out["tv_distance"] == 1.0

    def test_histograms_normalized(self, rng):
        ds = make_blobs(seed=2, K=3, per_class=10, d=3)
        m = random_model(rng, d=3, K=3)
        out = streisand(m, ds, ds.subset(np.arange(10)))
        assert out["forget_hist"].sum() == pytest.approx(1.0, abs=1e-12)
        assert out["test_hist"].sum() == pytest.approx(1.0, abs=1e-12)


@given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100),
       st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_sum_is_componentwise(ua_, mia_, ra_, ta_):
    r = MetricsReport(ua=ua_, mia=mia_, ra=ra_, ta=ta_)
    assert abs(r.sum - (ua_ + mia_ + ra_ + ta_)) <= 1e-9
