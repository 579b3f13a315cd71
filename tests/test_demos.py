"""Each demo script, and the README quick start, runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the python block under the README's "Quick start" heading
QUICK_START = ((ROOT / "README.md").read_text().split("## Quick start", 1)[1]
               .split("```python\n", 1)[1].split("```", 1)[0])
# the python arguments that run each input
SCRIPTS = {**{d.stem: [str(d)] for d in DEMOS}, "readme_quick_start": ["-c", QUICK_START]}


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", SCRIPTS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *SCRIPTS[demo]], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
