"""Record the benchmark's reference outputs and the golden machine report.

    python3 bench/record.py

Writes ``reference/<workload>.json`` (each workload's checked payload at the
default workload seed) and ``golden/benchmark-default-seeds-0..2.json``
(the byte-exact ``unlearn-forge benchmark --seeds 0..2 --format machine``
report of the default config, which refactors diff against).  Re-record only
when a change is meant to alter what the program computes.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

GOLDEN = run.BENCH / "golden" / "benchmark-default-seeds-0..2.json"
GOLDEN_ARGS = ["benchmark", "--seeds", "0..2", "--format", "machine"]


def main() -> int:
    run.load_program()
    import checks
    import workloads
    from unlearn_forge import cli
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as workdir:
        for wl in workloads.WORKLOADS.values():
            inputs = workloads.make_inputs(wl, workloads.DEFAULT_SEED, workdir)
            doc = workloads.payload(wl, workloads.run_command(wl, inputs))
            problems = checks.invariants(wl, workloads.DEFAULT_SEED, doc)
            if problems:
                sys.exit(f"{wl.name}: output breaks an invariant: {problems[:5]}")
            with open(checks.reference_path(wl.name), "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {checks.reference_path(wl.name)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    if cli.main(GOLDEN_ARGS + ["--out", str(GOLDEN)]) != 0:
        sys.exit("golden benchmark run failed")
    print(f"recorded {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
