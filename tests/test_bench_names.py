"""Every package name the benchmark scripts in ``bench/`` read still exists.

``bench/spans.py`` traces functions by module attribute, and
``bench/workloads.py`` and ``bench/selftest.py`` call a few names that the
package itself does not use (re-exports kept for them).  Deleting one would
only fail at benchmark time, so this test pins them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from unlearn_forge import cli, numcore, unlearn

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
CLI_NAMES = ("main", "theory_instance", "train_original", "build_datasets", "build_split",
             "run_benchmark", "run_verify_theory")


def traced_pairs():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, name", traced_pairs(), ids=lambda v: v)
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"unlearn_forge.{module}"), name))


@pytest.mark.parametrize("name", CLI_NAMES)
def test_cli_name_the_bench_calls_exists(name):
    assert callable(getattr(cli, name))


def test_unlearn_re_exports_the_solver():
    assert unlearn.solve_damped is numcore.solve_damped
