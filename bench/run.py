"""Repository benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Workloads and their rationale are in
``workloads.py``; the correctness check is in ``checks.py``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median wall-clock
of the workload's command over the run's repeats), ``setup_s`` (median of
importing ``unlearn_forge`` in a fresh interpreter plus generating the
workload inputs, set up several times) and ``peak_rss_mb`` (``ru_maxrss`` of
this process).  ``--trace 1`` alternates untraced and traced commands and
prints the per-layer metrics: ``<module>.<function>.calls/.s/.self_s`` per
traced repeat (median over repeats), Newton iteration and loss-evaluation
counts, per-method RTE from the untraced reports, single-layer microtimings
on the workload's own inputs, and ``trace_overhead_s``.

BLAS is pinned to one thread so that the harness and the program stay
within two cores.  The line before the last holds the details: samples and
their counts, the failed ratio with its base count, the first problems found
and the machine the numbers come from.  The last line is the result.
"""

from __future__ import annotations

import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"  # before numpy is imported anywhere

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_REPEATS = 3        # untraced commands per run, at least
MIN_TRACED_PAIRS = 2   # (untraced, traced) command pairs per traced run, at least
GRAD_LOOPS = 200       # grad calls per microtiming sample

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
MICRO = ("models.grad_b32.us", "models.sgd_epoch.s", "models.hessian_full.s",
         "numcore.solve_damped_full.s", "metrics.mia_sweep.s")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import unlearn_forge; print(time.perf_counter() - t)")


def load_program():
    """Import the package from this checkout's ``src/``; exit if it is absent."""
    if not (SRC / "unlearn_forge" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'unlearn_forge'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import unlearn_forge
    if Path(unlearn_forge.__file__).resolve().parent != SRC / "unlearn_forge":
        sys.exit(f"bench: imported unlearn_forge from {unlearn_forge.__file__}, not {SRC}")


def per_layer_names() -> list[str]:
    import spans
    from unlearn_forge import unlearn
    return ([f"{n}.{s}" for n in spans.NAMES for s in spans.STATS]
            + [f"{spans.NEWTON}.iters", f"{spans.NEWTON}.loss_evals"]
            + [f"unlearn.{m}.rte_s" for m in unlearn.METHODS]
            + list(MICRO) + ["trace_overhead_s"])


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".iters", ".loss_evals")):
        return "count"
    return "us" if name.endswith(".us") else "s"


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_PINS}}


def import_seconds() -> float:
    """Time of ``import unlearn_forge`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def median_time(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def repeat_until(seconds: float, min_repeats: int, step) -> None:
    """Call ``step(i)`` at least ``min_repeats`` times, and again while the
    next call is expected to end within ``seconds`` of the first."""
    start, last, i = time.perf_counter(), 0.0, 0
    while i < min_repeats or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        step(i)
        last = time.perf_counter() - t0
        i += 1


class Client:
    """The single closed-loop client: one command at a time, each checked."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first = None

    def command(self, inputs):
        """Run and check one command; returns (wall seconds, report or None)."""
        import checks
        import workloads
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = workloads.run_command(self.wl, inputs)
        except Exception as exc:  # a failing command is counted, the run goes on
            self._fail([f"command raised {type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        doc = workloads.payload(self.wl, report)
        problems = checks.check(self.wl, self.seed, doc)
        if self.first is None:
            self.first = doc
        elif doc != self.first:
            problems.append("output differs from the run's first command")
        if problems:
            self._fail(problems)
        return wall, report

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[: 20 - len(self.problems)])


def run_untraced(wl, seed: int, seconds: float, workdir: str, client: Client):
    import workloads
    import_seconds()  # compiles bytecode, so the samples time the import alone
    setup = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(wl, seed, workdir)
        setup.append(t_import + time.perf_counter() - t0)
    walls = []
    repeat_until(seconds, MIN_REPEATS, lambda i: walls.append(client.command(inputs)[0]))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"wall_s": walls, "setup_s": setup}


def run_traced(wl, seed: int, seconds: float, workdir: str, client: Client):
    import spans
    import workloads
    from unlearn_forge import unlearn
    inputs = workloads.make_inputs(wl, seed, workdir)
    tracer = spans.Tracer()
    untraced, traced, rtes = [], [], []

    def pair(i):
        wall, report = client.command(inputs)
        untraced.append(wall)
        if report is not None:
            rtes.append(workloads.rte_seconds(report))
        with tracer.active(i):
            workloads.make_inputs(wl, seed, workdir)  # set-up work is traced too
            traced.append(client.command(inputs)[0])

    repeat_until(seconds, MIN_TRACED_PAIRS, pair)
    per_repeat = [tracer.layer_metrics(i) for i in range(len(traced))]
    metrics = {k: (statistics.median_low if unit(k) == "count" else statistics.median)(
        [r[k] for r in per_repeat]) for k in per_repeat[0]}
    for m in unlearn.METHODS:
        metrics[f"unlearn.{m}.rte_s"] = statistics.median(r.get(m, 0.0) for r in rtes) if rtes else 0.0
    metrics.update(microtimings(wl, seed, inputs))
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, {"wall_s": untraced, "traced_wall_s": traced}


def microtimings(wl, seed: int, inputs) -> dict[str, float]:
    """ROADMAP single-layer timings on the workload's own data and model;
    the MIA sweep reads zero on the theory workload, which has no
    membership-inference split."""
    import workloads
    from unlearn_forge import metrics, models, numcore
    mi = workloads.micro_inputs(wl, seed, inputs)
    soft = models.onehot(mi.y, mi.model.K)
    idx = numcore.rng_stream(seed, 99).permutation(mi.y.size)[:32]
    Xb, Sb = mi.X[idx], soft[idx]

    def grad_loop():
        for _ in range(GRAD_LOOPS):
            models.grad(mi.model, Xb, Sb)

    out = dict.fromkeys(MICRO, 0.0)
    out["models.grad_b32.us"] = median_time(grad_loop, 5) / GRAD_LOOPS * 1e6
    out["models.sgd_epoch.s"] = median_time(
        lambda: models.sgd_train(mi.model, mi.X, mi.y, mi.train_cfg), 3)
    H = models.hessian(mi.model, mi.X, soft)
    g = models.grad(mi.model, mi.X, soft)
    out["models.hessian_full.s"] = median_time(lambda: models.hessian(mi.model, mi.X, soft), 3)
    out["numcore.solve_damped_full.s"] = median_time(
        lambda: numcore.solve_damped(H, g, mi.damping), 5)
    if mi.test is not None:
        out["metrics.mia_sweep.s"] = median_time(
            lambda: (metrics.mia_score(mi.model, mi.forget, mi.retain, mi.test, seed),
                     metrics.mia_accuracy_additional(mi.model, mi.forget, mi.test)), 3)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import workloads
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    client = Client(wl, args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        run = run_traced if args.trace else run_untraced
        values, samples = run(wl, args.seed, args.seconds, workdir, client)

    names = per_layer_names() if args.trace else list(END_TO_END)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "samples": samples, "sample_counts": {k: len(v) for k, v in samples.items()},
        "failed_ratio": {"value": client.failed / client.attempted,
                         "failed": client.failed, "attempted": client.attempted},
        "problems": client.problems, "environment": environment(),
    }
    result = {
        "correct": client.failed == 0, "attempted": client.attempted, "failed": client.failed,
        "metrics": {n: {"value": values[n], "unit": unit(n)} for n in names},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
