"""Lockstep Newton: stacked damped-Newton problems end on the bits of their
solo runs, and ``verify-theory`` solves its instances in lockstep groups with
the report and the errors of the one-at-a-time loop.  The theorem checks
take the same stacks: each stacked report is the instance's 2-D report, bit
for bit.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blobs
from oracles import theory_report_ref
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

    def test_a_2d_calls_input_errors_name_its_own_shapes(self):
        template = models.init_model("logistic", 3, 3)
        with pytest.raises(DimensionError, match=r"^X has shape \(90, 4\), expected \(n, 3\)$"):
            models.newton_optimize(template, np.zeros((90, 4)), onehot(np.zeros(90, int), 3))

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

    def test_a_failing_group_builds_each_instances_data_once(self, monkeypatch):
        cfg = {**default_config(), "theory.instances": 35}
        built = []
        theory_data, theory_instances = experiment.theory_data, experiment.theory_instances

        def counted(cfg, index):
            built.append(index)
            return theory_data(cfg, index)

        def solo_only(cfg, problems, grid):
            if len(problems) > 1:
                raise SolverError("lockstep group refused")
            return theory_instances(cfg, problems, grid)
        monkeypatch.setattr(experiment, "theory_data", counted)
        monkeypatch.setattr(experiment, "theory_instances", solo_only)
        report = experiment.run_verify_theory(cfg)
        assert built == list(range(35))
        monkeypatch.undo()
        assert report["instances"] == experiment.run_verify_theory(cfg)["instances"]

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


def same_report(a, b) -> bool:
    """Every TheoryReport field equal: arrays byte for byte, the rest by type
    and repr (which round-trips a float exactly)."""
    for f in dataclasses.fields(influence.TheoryReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not same_bits(x, y):
                return False
        elif type(x) is not type(y) or repr(x) != repr(y):
            return False
    return True


def stack(models_):
    """One model carrying the (S, P) stack of ``models_``' parameters."""
    return models_[0].with_stack(np.stack([m.theta for m in models_]))


@pytest.fixture(scope="module")
def solved():
    """The first 30 default-config ``theory_data`` instances (one full group)
    with θ_tr and θ_r from solo Newton runs."""
    cfg = {**default_config(), "theory.instances": 30}
    out = []
    for i in range(30):
        ds, retain, forget = experiment.theory_data(cfg, i)
        template = models.init_model("logistic", ds.d, ds.K, cfg["model.l2"])
        tr = models.newton_optimize(template, ds.X, onehot(ds.y, ds.K))
        r = models.newton_optimize(template, retain.X, onehot(retain.y, ds.K))
        out.append((tr, r, ds, retain, forget))
    return cfg, out


class TestStackedTheoremChecks:
    @staticmethod
    def pick(solved, S):
        """S instances; at S = 3 a spread of them, the middle one moved off
        its optimum so that it carries stationarity warnings."""
        cfg, inst = solved
        if S != 3:
            return inst[:S]
        tr, r, *sets = inst[17]
        moved = tr.with_theta(tr.theta + 0.5 * np.random.default_rng(3).standard_normal(tr.theta.size))
        return [inst[4], (moved, r, *sets), inst[29]]

    @pytest.mark.parametrize("S", [1, 3, 30])
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_each_instance_gets_its_2d_report(self, solved, S, theorem):
        cfg, _ = solved
        picked = self.pick(solved, S)
        tr, r, ds, retain, forget = zip(*picked)
        damping = cfg["theory.damping"]
        alpha = (grid(cfg),) if theorem == 2 else ()
        check = influence.check_theorem2 if theorem == 2 else influence.check_theorem1
        reports = check(stack(tr), stack(r), ds, retain, forget, *alpha, damping)
        assert isinstance(reports, list) and len(reports) == S
        for rep, one in zip(reports, picked):
            alone = check(*one, *alpha, damping)
            assert isinstance(alone, influence.TheoryReport)
            assert same_report(rep, alone)
            assert same_report(rep, theory_report_ref(*one, damping, *alpha))
        if S == 3:
            assert [bool(rep.warnings) for rep in reports] == [False, True, False]

    @pytest.mark.parametrize("bad, message", [([], "empty alpha grid"),
                                              ([-1.0, 0.5], "all negative"),
                                              ([-1.0, np.nan], "all negative")])
    def test_a_bad_grid_is_rejected_before_any_kernel_runs(self, solved, monkeypatch, bad, message):
        tr, r, ds, retain, forget = zip(*self.pick(solved, 3))

        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")
        monkeypatch.setattr(models, "grad", no_kernel)
        monkeypatch.setattr(models, "hessian", no_kernel)
        monkeypatch.setattr(influence, "solve_damped", no_kernel)
        with pytest.raises(DomainError, match=message):
            influence.check_theorem2(stack(tr), stack(r), ds, retain, forget, np.array(bad))

    def test_the_data_must_hold_one_instance_per_row(self, solved):
        tr, r, ds, retain, forget = zip(*self.pick(solved, 3))
        with pytest.raises(DimensionError, match=r"one instance for each row of theta_tr \(3, 12\)$"):
            influence.check_theorem1(stack(tr), stack(r), ds[:2], retain[:2], forget[:2])
        with pytest.raises(DimensionError, match=r"one instance for each row of theta_tr \(3, 12\)$"):
            influence.check_theorem1(stack(tr), stack(r[:2]), ds, retain, forget)
        with pytest.raises(DimensionError, match=r"one instance for each row of theta_tr \(12,\)$"):
            influence.check_theorem1(tr[0], r[0], ds[:1], retain[:1], forget[:1])
        with pytest.raises(DimensionError, match=r"^X has shape \(90, 4\), expected \(n, 3\)$"):
            influence.check_theorem1(tr[0], r[0], make_blobs(K=3, d=4), retain[0], forget[0])
        with pytest.raises(DimensionError, match="datasets of one shape"):
            influence.check_theorem1(stack(tr), stack(r), ds, retain, (forget[0], forget[1], retain[2]))

    @pytest.mark.parametrize("seed", [1, 2])  # seed 0: test_100_instances_equal_the_one_at_a_time_loop
    def test_100_instances_equal_the_loop_at_other_seeds(self, seed):
        cfg = {**default_config(), "theory.instances": 100, "theory.seed": seed}
        report = experiment.run_verify_theory(cfg)
        loop = [experiment.theory_instance(cfg, i, grid(cfg))[0] for i in range(100)]
        rows = [{"instance": i, **{f: getattr(rep, f) for f in experiment.THEORY_FIELDS}}
                for i, rep in enumerate(loop)]
        assert json.dumps(report["instances"]) == json.dumps(rows)

    def test_a_failing_solve_raises_the_serial_error(self, monkeypatch):
        """Instances 7 and 12 of one group of 20 get a NaN sum Hessian
        H_r(θ_tr) in the checks' solves (``influence.solve_damped``, the name
        the checks call); the group's stacked call names system 7, and
        ``run_verify_theory`` raises what instance 7 raises alone."""
        cfg = {**default_config(), "theory.instances": 20}
        targets = []
        for i in (7, 12):
            _, tr, _, _, retain, _ = experiment.theory_instance(cfg, i, grid(cfg))
            targets.append(influence._sum_hessian(tr, retain.X, retain.y).tobytes())
        solve = numcore.solve_damped

        def failing(A, b, damping):
            A = A.copy()
            for s in np.ndindex(A.shape[:-2]):
                if A[s].tobytes() in targets:
                    A[s] = np.nan
            return solve(A, b, damping)
        monkeypatch.setattr(influence, "solve_damped", failing)
        group = [problem for _, problem in next(experiment.theory_groups(cfg))]
        assert len(group) == 20
        with pytest.raises(SolverError, match=r" in system 7$"):
            experiment.theory_instances(cfg, group, grid(cfg))
        with pytest.raises(SolverError) as alone:
            experiment.theory_instance(cfg, 7, grid(cfg))
        with pytest.raises(SolverError) as serial:
            for i in range(20):
                experiment.theory_instance(cfg, i, grid(cfg))
        with pytest.raises(SolverError) as grouped:
            experiment.run_verify_theory(cfg)
        assert str(grouped.value) == str(serial.value) == str(alone.value)
        assert "system" not in str(grouped.value)


class TestContiguousStackedHessian:
    def test_a_slice_takes_the_2d_products_bits(self):
        """The stacked Hessian is C-ordered, so a matrix-vector product on one
        slice runs the BLAS route of the 2-D result's product."""
        cfg = {**default_config(), "theory.instances": 30}
        sets = [experiment.theory_data(cfg, i)[0] for i in range(30)]
        rng = np.random.default_rng(5)
        m = models.init_model("logistic", 3, 3)
        thetas = rng.standard_normal((30, m.theta.size))
        v = rng.standard_normal((30, m.theta.size))
        H = models.hessian(m.with_stack(thetas), np.stack([ds.X for ds in sets]),
                           onehot(np.stack([ds.y for ds in sets]), 3))
        assert H.flags.c_contiguous
        for s, ds in enumerate(sets):
            alone = models.hessian(m.with_theta(thetas[s]), ds.X, onehot(ds.y, 3))
            assert same_bits(H[s] @ v[s], alone @ v[s])

    def test_a_one_system_stack_names_no_system(self):
        A = np.full((1, 3, 3), np.nan)
        with pytest.raises(SolverError, match=r"above tolerance [0-9.e+-]+$"):
            numcore.solve_damped(A, np.ones((1, 3)))
        with pytest.raises(SolverError, match=r"above tolerance [0-9.e+-]+$"):
            numcore.solve_damped(A[0], np.ones(3))
