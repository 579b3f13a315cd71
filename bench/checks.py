"""Correctness check behind ``failed``: a command fails when it raises or
when its output fails one of these checks.

At the default workload seed the output is compared with the reference
recorded in ``reference/``.  Integer-derived and boolean fields (UA, MIA,
RA, TA, Sum, additional MIA, ``ga_cannot_help``, ``condition_met``, the
theory summary) must match exactly; float fields (theory distances, inner
products, smooth rates, residuals, stationarity norms, epsilon and the LDP
probabilities) must match within ``|a - b| <= RTOL * max(|a|, |b|) + ATOL``.
ATOL covers the stationarity norms, which damped Newton drives below 1e-8
and which carry no digits beyond that.  A byte-exact comparison would fail
a change that alters only the last bits of a solve.

At every seed the output must also satisfy invariants the program's
definitions imply; they are listed in ``invariants``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from unlearn_forge import config

import workloads

RTOL = 1e-6
ATOL = 1e-8

TOLERANT = frozenset({
    "dist_ga", "dist_noop", "inner", "best_alpha", "dist_gls_at_best_alpha",
    "closed_form_alpha", "theorem1_residual", "grad_norm_tr", "grad_norm_r",
    "epsilon", "p_target", "p_other", "empirical_max_log_ratio",
})

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def compare(ref, got, where: str = "report", key: str = "") -> list[str]:
    """Differences between a reference payload and an actual one."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}", k)]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: length {len(got)} != {len(ref)}"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{where}[{i}]", key)]
    if key in TOLERANT and type(ref) is float and type(got) is float:
        if abs(ref - got) <= RTOL * max(abs(ref), abs(got)) + ATOL:
            return []
        return [f"{where}: {got!r} differs from reference {ref!r} beyond tolerance"]
    if type(ref) is not type(got) or ref != got:
        return [f"{where}: {got!r} != reference {ref!r}"]
    return []


def _count_pct(value: float, n: int) -> bool:
    """True when value is 100 * k / n for a whole k in [0, n]."""
    k = value * n / 100.0
    return 0.0 <= value <= 100.0 and abs(k - round(k)) < 1e-6


def check(wl: workloads.Workload, seed: int, doc: dict) -> list[str]:
    """Every problem with one command's payload; empty when it is correct."""
    problems = invariants(wl, seed, doc)
    if seed == workloads.DEFAULT_SEED:
        problems += compare(load_reference(wl.name), doc)
    return problems


def invariants(wl: workloads.Workload, seed: int, doc: dict) -> list[str]:
    """Seed-independent checks on a payload.

    Benchmark cells: one per (method, seed) in order; UA and MIA are whole
    percentages of the forget rows, RA of the retain rows, TA of the test
    rows, additional MIA of forget plus test rows and at least 50; Sum is
    UA + MIA + RA + TA.  Theory: ``condition_met`` iff inner <= 0,
    ``ga_cannot_help`` iff dist_ga > dist_noop, a grid alpha exactly when the
    condition holds and within one grid step of the clipped closed form (the
    workload keeps the default grid), no stationarity warnings, and a summary
    consistent with the rows.  LDP: epsilon equals the closed form, the
    empirical max log ratio equals epsilon, and the prediction distribution
    sums to 1.
    """
    if wl.kind == "benchmark":
        return _benchmark_invariants(doc, workloads.split_sizes(wl), wl.methods(),
                                     config.parse_seeds(wl.seeds(seed)))
    return _theory_invariants(doc)


def _benchmark_invariants(doc, sizes, methods, seeds) -> list[str]:
    problems = []
    if doc["methods"] != methods or doc["seeds"] != seeds:
        problems.append(f"methods/seeds {doc['methods']}/{doc['seeds']} != {methods}/{seeds}")
    expected = [(m, s) for m in methods for s in seeds]
    if [(c["method"], c["seed"]) for c in doc["cells"]] != expected:
        problems.append("cells are not one per (method, seed) in order")
    nf, nr, nt = sizes["forget"], sizes["retain"], sizes["test"]
    for c in doc["cells"]:
        tag = f"cell {c['method']}/{c['seed']}"
        for field, n in (("ua", nf), ("mia", nf), ("ra", nr), ("ta", nt), ("additional_mia", nf + nt)):
            if not _count_pct(c[field], n):
                problems.append(f"{tag}: {field}={c[field]!r} is not a whole percentage of {n} rows")
        if c["additional_mia"] < 50.0:
            problems.append(f"{tag}: additional MIA {c['additional_mia']!r} below 50")
        if abs(c["sum"] - (c["ua"] + c["mia"] + c["ra"] + c["ta"])) > 1e-9:
            problems.append(f"{tag}: sum {c['sum']!r} != UA + MIA + RA + TA")
    return problems


def _theory_invariants(doc) -> list[str]:
    problems = []
    cfg = config.default_config()
    lo, hi, points = cfg["theory.alpha_grid_min"], -1e-6, cfg["theory.alpha_grid_points"]
    step = (hi - lo) / (points - 1)
    rows = doc["instances"]
    for r in rows:
        tag = f"instance {r['instance']}"
        if r["condition_met"] != (r["inner"] <= 0.0):
            problems.append(f"{tag}: condition_met disagrees with inner {r['inner']!r}")
        if r["ga_cannot_help"] != (r["dist_ga"] > r["dist_noop"]):
            problems.append(f"{tag}: ga_cannot_help disagrees with the distances")
        if (r["best_alpha"] is not None) != r["condition_met"]:
            problems.append(f"{tag}: grid alpha present iff the condition holds")
        elif r["condition_met"]:
            target = min(max(r["closed_form_alpha"], lo), hi)
            if abs(r["best_alpha"] - target) > step:
                problems.append(f"{tag}: grid alpha {r['best_alpha']!r} far from closed form {target!r}")
        if r["warnings"]:
            problems.append(f"{tag}: warnings {r['warnings']}")
    s = doc["summary"]
    summary = {
        "count": len(rows),
        "exists_ga_cannot_help": any(r["ga_cannot_help"] for r in rows),
        "exists_ga_helps": any(not r["ga_cannot_help"] for r in rows),
        "fraction_inner_nonpositive": float(np.mean([r["inner"] <= 0 for r in rows])),
    }
    if s != summary:
        problems.append(f"summary {s} != {summary} recomputed from the rows")
    for e in doc["ldp"]:
        K, a, g1, g2 = e["K"], e["alpha"], e["gamma1"], e["gamma2"]
        eps = abs(math.log((K / a) * (1.0 - g1 / g2) + 1.0 - K))
        tag = f"ldp alpha={a!r}"
        if abs(e["epsilon"] - eps) > 1e-9 * (1.0 + eps):
            problems.append(f"{tag}: epsilon {e['epsilon']!r} != closed form {eps!r}")
        if abs(e["empirical_max_log_ratio"] - eps) > 1e-9 * (1.0 + eps):
            problems.append(f"{tag}: empirical ratio {e['empirical_max_log_ratio']!r} != epsilon")
        if abs(e["p_target"] + (K - 1) * e["p_other"] - 1.0) > 1e-9:
            problems.append(f"{tag}: prediction distribution does not sum to 1")
    return problems
