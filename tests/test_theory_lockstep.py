"""Lockstep Newton: stacked damped-Newton problems end on the bits of their
solo runs, and ``verify-theory`` solves its instances in lockstep groups with
the report and the errors of the one-at-a-time loop.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from unlearn_forge import cli, experiment, influence, models, numcore, smoothing
from unlearn_forge.config import default_config
from unlearn_forge.errors import DimensionError, DomainError, SolverError
from unlearn_forge.models import onehot

GOLDEN = Path(__file__).parent / "golden" / "verify-theory-default.json"


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def grid(cfg):
    return np.linspace(cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"])


def count_newton_iterations(monkeypatch) -> list:
    """Patch ``models.hessian`` to record its calls; Newton makes one per iteration."""
    calls = []
    hessian = models.hessian

    def counted(*args):
        calls.append(1)
        return hessian(*args)
    monkeypatch.setattr(models, "hessian", counted)
    return calls


class TestStackedSecondOrderKernels:
    @pytest.mark.parametrize("S", [1, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 90, 1025])  # 1025 crosses a chunk boundary
    @pytest.mark.parametrize("d, K", [(3, 3), (20, 10)])
    def test_each_slice_is_its_2d_call(self, d, K, n, S):
        rng = np.random.default_rng(S * 10_000 + n * 10 + K)
        m = models.init_model("logistic", d, K)
        thetas = rng.standard_normal((S, m.theta.size))
        X = rng.standard_normal((S, n, d))
        soft = smoothing.gls_labels(rng.integers(K, size=(S, n)), K, -rng.uniform(0, 2, (S, n)))
        H = models.hessian(m.with_stack(thetas), X, soft)
        g = rng.standard_normal((S, m.theta.size))
        x = numcore.solve_damped(H, g, models.NEWTON_DAMPING)
        assert H.shape == (S, m.theta.size, m.theta.size) and x.shape == g.shape
        damped = H + models.NEWTON_DAMPING * np.eye(m.theta.size)
        for s in range(S):
            assert same_bits(H[s], models.hessian(m.with_theta(thetas[s]), X[s], soft[s]))
            assert same_bits(x[s], numcore.solve_damped(H[s], g[s], models.NEWTON_DAMPING))
            assert same_bits(x[s], np.linalg.solve(damped[s], g[s]))  # the plain 1-D solve

    def test_no_rows_gives_an_l2_identity_per_slice(self):
        m = models.init_model("logistic", 4, 3, l2=0.03)
        H = models.hessian(m.with_stack(np.ones((2, m.theta.size))), np.zeros((2, 0, 4)),
                           np.zeros((2, 0, 3)))
        assert same_bits(H, np.stack([0.03 * np.eye(m.theta.size)] * 2))

    def test_2d_errors_are_unchanged(self):
        with pytest.raises(DimensionError, match=r"^expected square matrix, got shape \(2, 3\)$"):
            numcore.solve_damped(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionError, match=r"^rhs length \(2,\) does not match matrix \(3, 3\)$"):
            numcore.solve_damped(np.eye(3), np.ones(2))
        with pytest.raises(SolverError, match=r"^singular system"):
            numcore.solve_damped(np.zeros((2, 2)), np.ones(2))

    def test_stacked_rhs_must_match_the_stack(self):
        with pytest.raises(DimensionError):
            numcore.solve_damped(np.stack([np.eye(3)] * 2), np.ones(3))
        with pytest.raises(DimensionError):
            numcore.solve_damped(np.stack([np.eye(3)] * 2), np.ones((3, 3)))

    def test_residual_error_names_the_first_failing_system(self, monkeypatch):
        solve = np.linalg.solve

        def off_in_system_1(M, b):
            x = solve(M, b)
            x[1] += 1.0
            return x
        monkeypatch.setattr(numcore.np.linalg, "solve", off_in_system_1)
        with pytest.raises(SolverError, match=r"above tolerance .* in system 1$"):
            numcore.solve_damped(np.stack([np.eye(3)] * 3), np.ones((3, 3)))


class TestLockstepNewton:
    @staticmethod
    def problems():
        """Four logistic problems on different data: the spreads make them
        converge at different iterations."""
        sets = [make_blobs(seed=s, K=3, per_class=20, d=3, spread=sp)
                for s, sp in enumerate([0.5, 1.5, 3.0, 1.0])]
        return (models.init_model("logistic", 3, 3), np.stack([ds.X for ds in sets]),
                onehot(np.stack([ds.y for ds in sets]), 3))

    def test_each_problem_gets_its_solo_bits(self, monkeypatch):
        template, X, soft = self.problems()
        # problem 3 starts at its own optimum, so it is done before any step
        start = np.zeros((len(X), template.theta.size))
        start[3] = models.newton_optimize(template, X[3], soft[3]).theta
        calls = count_newton_iterations(monkeypatch)
        solo, iterations = [], []
        for s in range(len(X)):
            del calls[:]
            solo.append(models.newton_optimize(template.with_theta(start[s]), X[s], soft[s]))
            iterations.append(len(calls))
        assert iterations[3] == 0 and len(set(iterations)) >= 3
        del calls[:]
        stacked = models.newton_optimize(template.with_stack(start), X, soft)
        assert len(calls) == max(iterations)  # one stacked iteration for all problems
        assert stacked.theta.shape == start.shape
        for s in range(len(X)):
            assert same_bits(stacked.theta[s], solo[s].theta)

    def test_a_2d_call_is_the_one_problem_stack(self):
        template, X, soft = self.problems()
        alone = models.newton_optimize(template, X[0], soft[0])
        stack = models.newton_optimize(template.with_stack(np.zeros((1, template.theta.size))),
                                       X[:1], soft[:1])
        assert alone.theta.shape == template.theta.shape
        assert same_bits(alone.theta, stack.theta[0])

    def test_iteration_budget_names_the_first_failing_problem(self, monkeypatch):
        template, X, soft = self.problems()
        start = np.zeros((len(X), template.theta.size))
        start[0] = models.newton_optimize(template, X[0], soft[0]).theta
        monkeypatch.setattr(models, "NEWTON_MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"after 1 iterations \(problem 1\)$"):
            models.newton_optimize(template.with_stack(start), X, soft)

    def test_no_descent_names_the_first_failing_problem(self, monkeypatch):
        template, X, soft = self.problems()
        start = np.zeros((len(X), template.theta.size))
        start[:2] = [models.newton_optimize(template, X[s], soft[s]).theta for s in range(2)]
        solve = models.solve_damped
        monkeypatch.setattr(models, "solve_damped", lambda A, b, damping: -solve(A, b, damping))
        with pytest.raises(SolverError, match=r"no descent step .* \(problem 2\)$"):
            models.newton_optimize(template.with_stack(start), X, soft)

    def test_inputs_must_hold_one_problem_per_row(self):
        template, X, soft = self.problems()
        with pytest.raises(DimensionError, match="one problem for each of the 4 parameter rows"):
            models.newton_optimize(template.with_stack(np.zeros((4, template.theta.size))),
                                   X[0], soft[0])


class TestVerifyTheoryGroups:
    def test_default_machine_report_is_the_golden_file(self, capsys):
        assert cli.main(["verify-theory", "--format", "machine"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_100_instances_equal_the_one_at_a_time_loop(self):
        cfg = {**default_config(), "theory.instances": 100}
        report = experiment.run_verify_theory(cfg)
        loop = [experiment.theory_instance(cfg, i, grid(cfg))[0] for i in range(100)]
        rows = [{"instance": i, **{f: getattr(rep, f) for f in experiment.THEORY_FIELDS}}
                for i, rep in enumerate(loop)]
        assert json.dumps(report["instances"]) == json.dumps(rows)

    def test_groups_fill_the_budget(self):
        cfg = {**default_config(), "theory.instances": 100}
        ds = experiment.theory_data(cfg, 0)[0]
        assert experiment.GROUP_ENTRIES // (2 * ds.n * ds.K * (ds.d + 1)) == 30
        groups = [[i for i, _ in group] for group in experiment.theory_groups(cfg)]
        assert [len(g) for g in groups] == [30, 30, 30, 10]
        assert sum(groups, []) == list(range(100))

    def test_a_failing_group_raises_the_serial_error(self, monkeypatch):
        cfg = {**default_config(), "theory.instances": 20}
        calls = count_newton_iterations(monkeypatch)
        needed = []  # Newton iterations of each instance's slower problem
        for i in range(20):
            del calls[:]
            models.newton_optimize(*self.solo_problem(cfg, i, "tr"))
            tr = len(calls)
            del calls[:]
            models.newton_optimize(*self.solo_problem(cfg, i, "r"))
            needed.append(max(tr, len(calls)))
        # a budget instance 0 meets and a later instance does not
        budget = needed[0]
        assert max(needed) > budget
        monkeypatch.setattr(models, "NEWTON_MAX_ITER", budget)
        with pytest.raises(SolverError) as serial:
            for i in range(20):
                experiment.theory_instance(cfg, i, grid(cfg))
        with pytest.raises(SolverError) as grouped:
            experiment.run_verify_theory(cfg)
        assert str(grouped.value) == str(serial.value)
        assert "problem" not in str(grouped.value)

    @staticmethod
    def solo_problem(cfg, index, which):
        ds, retain, _ = experiment.theory_data(cfg, index)
        rows = ds if which == "tr" else retain
        return models.init_model("logistic", ds.d, ds.K, cfg["model.l2"]), rows.X, onehot(rows.y, ds.K)


def test_check_theorem2_rejects_a_nan_in_the_alpha_grid():
    cfg = default_config()
    rep, theta_tr, theta_r, ds, retain, forget = experiment.theory_instance(cfg, 0, grid(cfg))
    with pytest.raises(DomainError, match="all negative"):
        influence.check_theorem2(theta_tr, theta_r, ds, retain, forget, np.array([-1.0, np.nan]))
