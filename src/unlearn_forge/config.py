"""Flat ``key = value`` run configuration with dotted sections.

Unknown keys are rejected with the offending line named; command-line flags
override file values.  The full schema with defaults is in ``SCHEMA``.
"""

from __future__ import annotations

from .errors import ConfigError

# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = {
    "data.file": (str, ""),
    "data.k": (int, 3),
    "data.per_class": (int, 100),
    "data.dim": (int, 5),
    "data.spread": (float, 1.0),
    "data.subgroups": (int, 2),
    "data.seed": (int, 0),
    "data.test_per_class": (int, 100),
    "split.paradigm": (str, "classwise"),
    "split.class": (int, 0),
    "split.fraction": (float, 0.1),
    "split.groups": (str, ""),
    "split.seed": (int, 0),
    "model.kind": (str, "logistic"),
    "model.hidden": (int, 16),
    "model.l2": (float, 1e-2),
    "train.epochs": (int, 60),
    "train.batch_size": (int, 32),
    "train.lr": (float, 0.1),
    "train.seed": (int, 0),
    "unlearn.methods": (str, "retrain,ft,ga,rl,iu,ugradsl,ugradsl_plus"),
    "unlearn.epochs": (int, 10),
    "unlearn.lr": (float, 0.01),
    "unlearn.p": (float, 0.5),
    "unlearn.batch_size": (int, 32),
    "unlearn.damping": (float, 1e-3),
    "smooth.mode": (str, "adaptive"),
    "smooth.alpha": (float, -0.5),
    "smooth.beta": (float, 0.9),
    "theory.instances": (int, 20),
    "theory.damping": (float, 1e-3),
    "theory.alpha_grid_min": (float, -5.0),
    "theory.alpha_grid_points": (int, 201),
    "theory.seed": (int, 0),
    "seeds": (str, "0"),
}


def default_config() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items()}


def _coerce(key: str, raw: str, lineno: int):
    typ = SCHEMA[key][0]
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc


def parse_config(path) -> dict:
    """Read a config file into a fully-defaulted dict."""
    cfg = default_config()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            cfg[key] = _coerce(key, raw, lineno)
    return cfg


def parse_seeds(spec: str) -> list[int]:
    """Seed list: '3', '0,1,2', or inclusive range '0..4'; at least one seed."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in spec.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad seed list {spec!r}: {exc}") from exc
    if not seeds:
        raise ConfigError(f"seed list {spec!r} names no seed")
    return seeds
