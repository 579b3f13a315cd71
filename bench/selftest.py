"""Self-test of the benchmark itself (not part of the package's test suite):

    python3 -m pytest bench/selftest.py -q

Shows that tracing leaves every workload's output unchanged, that the
correctness check flags perturbed reports, that the golden machine report is
still byte-identical, that BENCHMARK.json names exactly the metrics and
workloads the benchmark emits, and that the benchmark refuses to run without
the program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.load_program()

import checks  # noqa: E402
import record  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from unlearn_forge import cli, numcore, unlearn  # noqa: E402

SEED = workloads.DEFAULT_SEED
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"

_COMMON = {"models.grad", "models.ce_loss", "models.hessian", "numcore.solve_damped",
           "data.gen_blobs"}
_BENCH = _COMMON | {"models.sgd_train", "smoothing.mixed_grad", "smoothing.batch_alphas",
                    "unlearn.run_method", "metrics.evaluate", "metrics.mia_score",
                    "metrics.mia_accuracy_additional", "cli.train_original"}
REACHED = {
    "classwise-small": _BENCH,
    "classwise-large": _BENCH | {"data.load_dataset", "data.save_dataset"},
    "theory": _COMMON | {"models.newton_optimize", "influence.check_theorem2",
                         "influence.nontarget_grad_sum", "privacy.verify_ratio_bound"},
}


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as d:
        yield d


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_output_equals_untraced(name, workdir):
    wl = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(wl, SEED, workdir)
    untraced = workloads.payload(wl, workloads.run_command(wl, inputs))
    assert checks.check(wl, SEED, untraced) == []

    tracer = spans.Tracer()
    with tracer.active(0):
        workloads.make_inputs(wl, SEED, workdir)
        traced = workloads.payload(wl, workloads.run_command(wl, inputs))
    assert traced == untraced
    assert unlearn.solve_damped is numcore.solve_damped  # originals restored

    layer = tracer.layer_metrics(0)
    reached = {n for n in spans.NAMES if layer[f"{n}.calls"] > 0}
    assert reached == REACHED[name]
    for n in spans.NAMES:
        assert -1e-6 <= layer[f"{n}.self_s"] <= layer[f"{n}.s"] + 1e-12
    newton = layer[f"{spans.NEWTON}.iters"]
    assert (newton > 0) == (name == "theory")


def test_check_flags_one_flipped_prediction():
    wl = workloads.WORKLOADS["classwise-small"]
    ref = checks.load_reference(wl.name)
    assert checks.check(wl, SEED, ref) == []
    doc = copy.deepcopy(ref)
    cell = doc["cells"][0]
    step = 100.0 / workloads.split_sizes(wl)["forget"]  # one forget row changes class
    step = step if cell["ua"] < 100.0 else -step
    cell["ua"] += step
    cell["sum"] += step
    assert checks.invariants(wl, SEED, doc) == []  # still a well-formed report
    assert checks.check(wl, SEED, doc) != []


def test_check_float_tolerance():
    wl = workloads.WORKLOADS["theory"]
    ref = checks.load_reference(wl.name)
    assert checks.check(wl, SEED, ref) == []
    for factor, flagged in ((1 + 10 * checks.RTOL, True), (1 + checks.RTOL / 10, False)):
        doc = copy.deepcopy(ref)
        doc["instances"][0]["dist_ga"] *= factor
        doc["ldp"][0]["epsilon"] *= factor
        assert (checks.compare(ref, doc) != []) == flagged
    doc = copy.deepcopy(ref)
    doc["instances"][0]["condition_met"] = not doc["instances"][0]["condition_met"]
    assert checks.check(wl, SEED, doc) != []


def test_golden_machine_report_is_byte_identical(workdir):
    out = Path(workdir) / "report.json"
    assert cli.main(record.GOLDEN_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == record.GOLDEN.read_bytes()


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, run.unit(n)) for n in run.per_layer_names()]
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "theory", "--seed", "1",
                          "--seconds", "0", "--trace", str(trace)],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads(BENCHMARK_JSON.read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}


def test_refuses_to_run_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as d:
        shutil.copy(BENCHMARK_JSON, d)
        shutil.copytree(run.BENCH, Path(d) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".bench_work-*"))
        out = subprocess.run([sys.executable, "bench/run.py", "--workload", "theory", "--seed", "0",
                              "--seconds", "1", "--trace", "0"],
                             cwd=d, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
