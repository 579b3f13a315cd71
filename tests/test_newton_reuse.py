"""Damped Newton reuses each accepted try's probabilities for the next
gradient and Hessian: one ``forward`` per backtracking try, plus the checked
first loss and the first iterate's, and every problem of a stack still ends
on the bits of its solo run and of the plain loop below.
"""

import numpy as np
import pytest

from conftest import make_blobs
from unlearn_forge import experiment, influence, models, numcore, smoothing
from unlearn_forge.config import default_config
from unlearn_forge.errors import DomainError, SolverError
from unlearn_forge.models import onehot


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def newton_ref(model, X, soft):
    """Solo damped Newton from the public kernels, one call each per use:
    the final theta, the accepted step sizes and the number of tries."""
    theta, f = model.theta.copy(), models.ce_loss(model, X, soft)
    sizes, tries = [], 0
    for _ in range(models.NEWTON_MAX_ITER + 1):
        g = models.grad(model.with_theta(theta), X, soft)
        if np.linalg.norm(g) <= models.NEWTON_TOL:
            return theta, sizes, tries
        H = models.hessian(model.with_theta(theta), X, soft)
        step = numcore.solve_damped(H, g, models.NEWTON_DAMPING)
        t = 1.0
        while True:
            tries += 1
            f_cand = models.ce_loss(model.with_theta(theta - t * step), X, soft)
            if f_cand <= f:
                theta, f = theta - t * step, f_cand
                sizes.append(t)
                break
            t *= 0.5
    raise AssertionError("the reference did not converge")


def stack():
    """Four problems: random starts make them backtrack to different step
    sizes, and problem 2 starts at its own optimum, so it is done at once."""
    sets = [make_blobs(seed=s, K=3, per_class=20, d=3, spread=sp)
            for s, sp in enumerate([0.5, 1.0, 2.0, 1.0])]
    template = models.init_model("logistic", 3, 3, l2=1e-3)
    X, soft = np.stack([ds.X for ds in sets]), onehot(np.stack([ds.y for ds in sets]), 3)
    start = np.random.default_rng(1).standard_normal((4, template.theta.size)) * [[3], [10], [0], [10]]
    start[2] = models.newton_optimize(template, X[2], soft[2]).theta
    return template, start, X, soft


def count(monkeypatch, name) -> list:
    calls = []
    fn = getattr(models, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    monkeypatch.setattr(models, name, counted)
    return calls


class TestForwardCount:
    def test_solo_run_makes_two_forwards_plus_one_per_try(self, monkeypatch):
        template, start, X, soft = stack()
        model = template.with_theta(start[1])
        _, sizes, tries = newton_ref(model, X[1], soft[1])
        assert tries > len(sizes)  # some step is cut back
        forwards = count(monkeypatch, "forward")
        models.newton_optimize(model, X[1], soft[1])
        # the checked loss, the first iterate, then one per try
        assert len(forwards) == 1 + 1 + tries

    def test_stacked_run_makes_two_forwards_plus_one_per_try(self, monkeypatch):
        template, start, X, soft = stack()
        forwards = count(monkeypatch, "forward")
        hessians = count(monkeypatch, "hessian")
        losses = count(monkeypatch, "_ce_loss")  # the checked first loss, then one per try
        models.newton_optimize(template.with_stack(start), X, soft)
        iterations, tries = len(hessians), len(losses) - 1
        assert tries > iterations > 0
        assert len(forwards) == 1 + 1 + tries

    def test_a_problem_done_at_its_start_takes_the_checked_loss_and_one_gradient(self, monkeypatch):
        template, start, X, soft = stack()
        forwards = count(monkeypatch, "forward")
        models.newton_optimize(template.with_theta(start[2]), X[2], soft[2])
        assert len(forwards) == 2

    def test_the_first_loss_is_the_one_checked_ce_loss_call(self, monkeypatch):
        template, start, X, soft = stack()
        checked = count(monkeypatch, "ce_loss")
        models.newton_optimize(template.with_stack(start), X, soft)
        assert len(checked) == 1


class TestHessianReadsP:
    """``hessian`` given ``p = forward(model, X)`` runs no forward of its own,
    gives the bits of the call without it and leaves ``p`` as it was."""

    @pytest.mark.parametrize("S", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 90, 1025])  # 1025 crosses a chunk boundary
    @pytest.mark.parametrize("d, K", [(3, 3), (20, 10)])
    def test_equals_the_call_that_runs_its_own_forward(self, monkeypatch, d, K, n, S):
        rng = np.random.default_rng(S * 10_000 + n * 10 + K)
        m = models.init_model("logistic", d, K).with_stack(rng.standard_normal((S, K * d + K)))
        X = rng.standard_normal((S, n, d))
        soft = smoothing.gls_labels(rng.integers(K, size=(S, n)), K, -rng.uniform(0, 2, (S, n)))
        want = models.hessian(m, X, soft)
        p = models.forward(m, X)
        kept = p.copy()
        p.flags.writeable = False  # a write raises
        forwards = count(monkeypatch, "forward")
        assert same_bits(models.hessian(m, X, soft, p), want)
        assert same_bits(p, kept) and not forwards


class TestTheoremCheckForwards:
    def test_a_stacked_theorem2_check_makes_seven_forwards(self, monkeypatch):
        cfg = {**default_config(), "theory.instances": 4}
        sets, retains, forgets = zip(*(experiment.theory_data(cfg, i) for i in range(4)))
        d, K = sets[0].d, sets[0].K
        stack = models.init_model("logistic", d, K, cfg["model.l2"]).with_stack(np.zeros((4, K * d + K)))

        def optimum(parts):
            return models.newton_optimize(stack, np.stack([s.X for s in parts]),
                                          onehot(np.stack([s.y for s in parts]), K))
        theta_tr, theta_r = optimum(sets), optimum(retains)
        forwards = count(monkeypatch, "forward")
        influence.check_theorem2(theta_tr, theta_r, sets, retains, forgets, np.array([-0.5, -0.1]))
        # six distinct (theta, rows) pairs; (theta_tr, forget) serves two traced calls
        assert len(forwards) == 7


class TestTheoryTraffic:
    """On the theory workload every Newton iteration accepts the full step for
    every live problem, so each iteration makes exactly one backtracking try."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_verify_theory_makes_one_try_per_iteration(self, monkeypatch, seed):
        hessians, losses = count(monkeypatch, "hessian"), count(monkeypatch, "_ce_loss")
        newton = models.newton_optimize
        iterations = tries = 0

        def counted(*args):  # the theorem checks' own Hessians are not counted
            nonlocal iterations, tries
            h, c = len(hessians), len(losses)
            solved = newton(*args)
            iterations += len(hessians) - h
            tries += len(losses) - c - 1  # less the checked first loss
            return solved
        monkeypatch.setattr(models, "newton_optimize", counted)
        experiment.run_verify_theory({**default_config(), "theory.instances": 100,
                                      "theory.seed": seed})
        assert tries == iterations > 0


class TestSoloBits:
    def test_each_problem_ends_on_its_solo_bits(self):
        template, start, X, soft = stack()
        runs = [newton_ref(template.with_theta(start[s]), X[s], soft[s]) for s in range(4)]
        sizes = [sorted(set(r[1])) for r in runs]
        # backtracking accepts different step sizes in different problems
        assert len({tuple(s) for s in sizes}) >= 3 and min(min(s) for s in sizes if s) < 0.5
        assert len({len(r[1]) for r in runs}) >= 3 and len(runs[2][1]) == 0
        stacked = models.newton_optimize(template.with_stack(start), X, soft)
        for s in range(4):
            solo = models.newton_optimize(template.with_theta(start[s]), X[s], soft[s])
            assert same_bits(solo.theta, runs[s][0])
            assert same_bits(stacked.theta[s], runs[s][0])

    def test_the_last_problem_left_ends_on_its_solo_bits(self):
        # problems leave the stack one by one, and the slowest steps alone
        template, start, X, soft = stack()
        order = np.argsort([len(newton_ref(template.with_theta(start[s]), X[s], soft[s])[1])
                            for s in range(4)])
        stacked = models.newton_optimize(template.with_stack(start[order]), X[order], soft[order])
        for i, s in enumerate(order):
            assert same_bits(stacked.theta[i], newton_ref(template.with_theta(start[s]), X[s], soft[s])[0])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_any_layout_of_x_gives_the_bits_of_its_c_ordered_copy(self, layout):
        ds = make_blobs(seed=4, K=3, per_class=30, d=64, spread=1.0)
        template = models.init_model("logistic", 64, 3, l2=1e-3)
        start = np.random.default_rng(2).standard_normal((2, template.theta.size))
        X = np.stack([ds.X, ds.X[::-1]])
        soft = onehot(np.stack([ds.y, ds.y[::-1]]), 3)
        if layout == "fortran":
            odd = np.asfortranarray(X)
        else:
            odd = np.repeat(X, 2, axis=-1)[..., ::2]
        assert not odd.flags.c_contiguous and same_bits(odd, X)
        want = models.newton_optimize(template.with_stack(start), X, soft)
        assert same_bits(models.newton_optimize(template.with_stack(start), odd, soft).theta, want.theta)


class TestBacktrackingErrors:
    def test_overflowed_logits_raise_the_softmax_domain_error(self, monkeypatch):
        template, start, X, soft = stack()
        solve = models.solve_damped

        def huge(A, b, damping):  # each problem's largest entry becomes 1e308
            step = solve(A, b, damping)
            return step / np.abs(step).max(axis=-1, keepdims=True) * 1e308
        monkeypatch.setattr(models, "solve_damped", huge)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match=r"^logits must be finite$"):
                models.newton_optimize(template.with_stack(start), X, soft)
            with pytest.raises(DomainError, match=r"^logits must be finite$"):
                models.newton_optimize(template.with_theta(start[0]), X[0], soft[0])

    def test_a_step_that_never_descends_names_its_gradient_norm(self, monkeypatch):
        template, start, X, soft = stack()
        norms = [np.linalg.norm(models.grad(template.with_theta(start[s]), X[s], soft[s]))
                 for s in range(4)]
        solve = models.solve_damped
        monkeypatch.setattr(models, "solve_damped", lambda A, b, damping: -solve(A, b, damping))
        with pytest.raises(SolverError) as solo:
            models.newton_optimize(template.with_theta(start[1]), X[1], soft[1])
        assert str(solo.value) == f"newton_optimize: no descent step at gradient norm {norms[1]:.3e}"
        with pytest.raises(SolverError) as stacked:
            models.newton_optimize(template.with_stack(start), X, soft)
        assert str(stacked.value) == (f"newton_optimize: no descent step at gradient norm "
                                      f"{norms[0]:.3e} (problem 0)")


class TestNanGradient:
    """A NaN gradient norm never counts as converged: its problem stays on
    the stack, and the damped solve refuses its gradient."""

    @staticmethod
    def poison_first_gradient(monkeypatch, row):
        grad, calls = models._grad, []

        def poisoned(*args, **kwargs):
            g = grad(*args, **kwargs)
            if not calls:
                g[row, 0] = np.nan
            calls.append(1)
            return g
        monkeypatch.setattr(models, "_grad", poisoned)

    def test_a_solo_problem_raises(self, monkeypatch):
        template, start, X, soft = stack()
        self.poison_first_gradient(monkeypatch, 0)
        with pytest.raises(SolverError, match=r"^\|\|b\|\| is not finite"):
            models.newton_optimize(template.with_theta(start[1]), X[1], soft[1])

    def test_one_problem_of_a_stack_raises(self, monkeypatch):
        template, start, X, soft = stack()
        self.poison_first_gradient(monkeypatch, 1)
        with pytest.raises(SolverError, match=r"^\|\|b\|\| is not finite"):
            models.newton_optimize(template.with_stack(start), X, soft)
