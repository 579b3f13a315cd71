"""Span tracer installed from outside the package.

Each traced function is replaced, at module-attribute level, by a wrapper
that records a span ``[name, parent, start, end]``; ``parent`` is the index
of the enclosing span in the same repeat's list, or -1.  Names a module
imported by value (``unlearn.solve_damped``, ``influence.solve_damped``) are
replaced too, so every call is seen whichever module makes it.  Spans stay in
memory until the run ends; self time is derived from the parent links.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, function) pairs timed by the traced run
TRACED = (
    ("models", "grad"), ("models", "ce_loss"), ("models", "hessian"),
    ("models", "sgd_train"), ("models", "newton_optimize"),
    ("numcore", "solve_damped"),
    ("smoothing", "mixed_grad"), ("smoothing", "batch_alphas"),
    ("unlearn", "run_method"),
    ("influence", "check_theorem2"), ("influence", "nontarget_grad_sum"),
    ("metrics", "evaluate"), ("metrics", "mia_score"), ("metrics", "mia_accuracy_additional"),
    ("data", "gen_blobs"), ("data", "load_dataset"), ("data", "save_dataset"),
    ("privacy", "verify_ratio_bound"),
    ("cli", "train_original"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
STATS = ("calls", "s", "self_s")
NEWTON = "models.newton_optimize"


class Tracer:
    def __init__(self):
        self.spans: dict[int, list[list]] = {}  # repeat -> spans of that repeat

    @staticmethod
    def _wrap(name: str, fn, spans: list, stack: list):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][3] = clock()
                stack.pop()
        return traced

    @contextmanager
    def active(self, repeat: int):
        """Trace every listed function while the block runs, as ``repeat``."""
        spans = self.spans.setdefault(repeat, [])
        stack: list[int] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "unlearn_forge" or n.startswith("unlearn_forge."))]
        saved = []
        try:
            for mod, fn in TRACED:
                orig = getattr(sys.modules[f"unlearn_forge.{mod}"], fn)
                wrapper = self._wrap(f"{mod}.{fn}", orig, spans, stack)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, orig in reversed(saved):
                setattr(m, attr, orig)

    def layer_metrics(self, repeat: int) -> dict[str, float]:
        """``<name>.calls/.s/.self_s`` for every traced name (zero when not
        reached) plus Newton iterations and loss evaluations, for one repeat.

        Newton iterations count Hessian spans under a Newton span; loss
        evaluations count ``ce_loss`` spans under one (backtracking work)."""
        spans = self.spans.get(repeat, [])
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {f"{name}.{stat}": 0 if stat == "calls" else 0.0 for name in NAMES for stat in STATS}
        out[f"{NEWTON}.iters"] = 0
        out[f"{NEWTON}.loss_evals"] = 0
        for i, (name, parent, t0, t1) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[i]
            if name in ("models.hessian", "models.ce_loss") and _has_ancestor(spans, parent, NEWTON):
                out[f"{NEWTON}.iters" if name == "models.hessian" else f"{NEWTON}.loss_evals"] += 1
        return out


def _has_ancestor(spans: list, i: int, name: str) -> bool:
    while i >= 0:
        if spans[i][0] == name:
            return True
        i = spans[i][1]
    return False
