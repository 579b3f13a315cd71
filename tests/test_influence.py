import numpy as np
import pytest

from conftest import make_blobs, newton_instance
from unlearn_forge import data, influence, models, unlearn
from unlearn_forge.errors import DomainError, UnsupportedModelError
from unlearn_forge.models import onehot
from unlearn_forge.unlearn import UnlearnConfig


@pytest.fixture(scope="module")
def instance():
    return newton_instance(seed=0)


class TestInfluenceOf:
    def test_loo_prediction_direction(self):
        ds = make_blobs(seed=11, K=2, per_class=25, d=3)
        template = models.init_model("logistic", 3, 2, l2=0.1)
        theta_star = models.newton_optimize(template, ds.X, onehot(ds.y, 2))
        infl = influence.influence_of((ds.X[0], int(ds.y[0])), theta_star, ds, damping=1e-6)
        predicted = -infl / ds.n  # removing z shifts theta by +H^-1 g / n
        loo = models.newton_optimize(template, ds.X[1:], onehot(ds.y[1:], 2))
        actual = loo.theta - theta_star.theta
        cos = predicted @ actual / (np.linalg.norm(predicted) * np.linalg.norm(actual))
        assert cos >= 0.95

    def test_nonstationary_rejected(self, rng):
        ds = make_blobs(seed=12, K=2, per_class=10, d=3)
        m = models.init_model("logistic", 3, 2).with_theta(rng.standard_normal(8))
        with pytest.raises(DomainError):
            influence.influence_of((ds.X[0], int(ds.y[0])), m, ds)

    def test_mlp_rejected(self):
        ds = make_blobs(seed=12, K=2, per_class=10, d=3)
        m = models.init_model("mlp", 3, 2, hidden=4)
        with pytest.raises(UnsupportedModelError):
            influence.influence_of((ds.X[0], 0), m, ds)


class TestDeltaDirections:
    def test_delta_r_zero_when_nothing_forgotten(self, instance):
        theta_tr, _, ds, *_ = instance
        # theta_tr is stationary on the full set, so the direction vanishes
        d = influence.delta_r(theta_tr, ds, damping=1e-9)
        assert np.linalg.norm(d) <= 1e-6

    def test_delta_r_tracks_learning_gap(self):
        # delta_r = H^-1 g at theta_r approximates theta_r - theta_tr (one
        # Newton step on the full-set objective undoes the gap)
        theta_tr, theta_r, ds, *_ = newton_instance(seed=0, l2=0.1)  # well-conditioned
        d = influence.delta_r(theta_r, ds, damping=1e-9)
        gap = theta_r.theta - theta_tr.theta
        residual = np.linalg.norm(d - gap)
        assert residual <= 0.10 * np.linalg.norm(gap)

    def test_delta_r_invariant_to_duplication(self, instance):
        _, theta_r, ds, *_ = instance
        doubled = data.LabeledDataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]), ds.K)
        a = influence.delta_r(theta_r, ds, damping=0.0)
        b = influence.delta_r(theta_r, doubled, damping=0.0)
        np.testing.assert_allclose(a, b, atol=1e-8)

    def test_delta_f_aligns_with_ga_direction(self, instance):
        theta_tr, _, ds, retain, forget, split = instance
        d = influence.delta_f(theta_tr, retain, forget)
        res = unlearn.gradient_ascent(theta_tr, ds, split,
                                      UnlearnConfig(method="ga", epochs=3, lr=1e-3, seed=0,
                                                    batch_size=forget.n))
        ga_move = res.model.theta - theta_tr.theta
        assert d @ ga_move > 0

    def test_delta_n_k2_single_flipped_label(self):
        theta_tr, _, ds, retain, forget, _ = newton_instance(seed=1, K=2, d=3)
        flipped = data.LabeledDataset(forget.X, 1 - forget.y, 2)
        expected = influence.delta_f(theta_tr, retain, flipped)  # (K-1)=1 term
        np.testing.assert_allclose(influence.delta_n(theta_tr, retain, forget), expected, atol=1e-10)

    def test_label_gradient_sum_vanishes_at_uniform(self, instance):
        # with uniform predictions (zero parameters) the CE gradients summed
        # over all K labels cancel: sum_y (p - e_y) = K*p - 1 = 0
        _, _, ds, *_ = instance
        zero = models.init_model("logistic", ds.d, ds.K)
        x = ds.X[:1]
        total = sum(models.grad(zero, x, onehot(np.array([y]), ds.K)) for y in range(ds.K))
        np.testing.assert_allclose(total, 0.0, atol=1e-12)

    @pytest.mark.parametrize("K", [2, 3, 7])
    def test_nontarget_grad_sum_matches_per_label_loop(self, K):
        # reference: one single-row gradient per (forget row, wrong label);
        # the one-call form sums in another order, so allow float64 rounding
        # over every summed term
        theta_tr, _, ds, retain, forget, _ = newton_instance(seed=2, K=K, d=3)
        terms = [models.grad(theta_tr, forget.X[i:i + 1], onehot(np.array([yp]), K))
                 for i in range(forget.n) for yp in range(K) if yp != forget.y[i]]
        tol = len(terms) * np.finfo(np.float64).eps * np.abs(terms).sum(axis=0)
        got = influence.nontarget_grad_sum(theta_tr, forget)
        assert np.all(np.abs(got - np.sum(terms, axis=0)) <= tol)

    def test_delta_n_order_invariant(self, instance):
        theta_tr, _, ds, retain, forget, _ = instance
        perm = np.random.default_rng(0).permutation(forget.n)
        shuffled = forget.subset(perm)
        np.testing.assert_allclose(influence.delta_n(theta_tr, retain, forget),
                                   influence.delta_n(theta_tr, retain, shuffled), atol=1e-12)


class TestGlsDistance:
    def test_quadratic_in_alpha(self, rng):
        dr, df, dn = rng.standard_normal((3, 7))
        alphas = np.array([-3.0, -2.0, -1.0])
        vals = [influence.gls_distance(dr, df, dn, 4, a) ** 2 for a in alphas]
        coeffs = np.polyfit(alphas, vals, 2)
        probe = -1.7
        fit = np.polyval(coeffs, probe)
        assert abs(fit - influence.gls_distance(dr, df, dn, 4, probe) ** 2) <= 1e-10

    def test_degenerate_direction_alpha_independent(self, rng):
        dr, df = rng.standard_normal((2, 5))
        dn = df.copy()
        d1 = influence.gls_distance(dr, df, dn, 3, -0.5)
        d2 = influence.gls_distance(dr, df, dn, 3, -5.0)
        assert d1 == pytest.approx(d2, abs=1e-12)
        assert influence.closed_form_best_alpha(dr, df, dn, 3) is None

    def test_closed_form_minimizes(self, rng):
        dr, df, dn = rng.standard_normal((3, 6))
        a_star = influence.closed_form_best_alpha(dr, df, dn, 3)
        base = influence.gls_distance(dr, df, dn, 3, a_star)
        for eps in (-1e-3, 1e-3):
            assert influence.gls_distance(dr, df, dn, 3, a_star + eps) >= base


class TestTheoremChecks:
    def test_theorem1_report_fields(self, instance):
        theta_tr, theta_r, ds, retain, forget, _ = instance
        rep = influence.check_theorem1(theta_tr, theta_r, ds, retain, forget)
        assert rep.dist_ga >= 0 and rep.dist_noop >= 0
        assert rep.ga_cannot_help == (rep.dist_ga > rep.dist_noop)
        assert rep.grad_norm_tr <= 1e-6 and rep.grad_norm_r <= 1e-6
        assert not rep.warnings

    def test_nonstationary_inputs_warn(self, instance, rng):
        theta_tr, theta_r, ds, retain, forget, _ = instance
        bad = theta_tr.with_theta(theta_tr.theta + 0.5 * rng.standard_normal(theta_tr.theta.size))
        rep = influence.check_theorem1(bad, theta_r, ds, retain, forget)
        assert any("not stationary" in w for w in rep.warnings)

    def test_theorem2_grid_matches_closed_form(self, instance):
        theta_tr, theta_r, ds, retain, forget, _ = instance
        grid = np.linspace(-5.0, -1e-6, 401)
        rep = influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, grid)
        assert rep.condition_met == (rep.inner <= 0)
        if rep.condition_met:
            step = grid[1] - grid[0]
            target = np.clip(rep.closed_form_alpha, grid[0], grid[-1])
            assert abs(rep.best_alpha - target) <= step + 1e-12

    def test_grid_validation(self, instance):
        theta_tr, theta_r, ds, retain, forget, _ = instance
        with pytest.raises(DomainError):
            influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, np.array([]))
        with pytest.raises(DomainError):
            influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, np.array([-1.0, 0.5]))
