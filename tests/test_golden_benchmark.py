"""The default config's ``benchmark --seeds 0..2 --format machine`` report is
byte-identical to the golden file the benchmark scripts keep, serial and
with ``--jobs 2``.  The file is only read here; ``bench/record.py`` writes it."""

from pathlib import Path

import pytest

from unlearn_forge import cli

GOLDEN = (Path(__file__).resolve().parent.parent / "bench" / "golden"
          / "benchmark-default-seeds-0..2.json")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_machine_report_is_the_golden_file(capsys, jobs):
    assert cli.main(["benchmark", "--seeds", "0..2", "--format", "machine", "--jobs", jobs]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
