"""Flat ``key = value`` run configuration with dotted sections.

Unknown keys are rejected with the offending line named; command-line flags
override file values.  The full schema with defaults is in ``SCHEMA``.  A
config dict built in code gets the same checks from ``validate``.
"""

from __future__ import annotations

from numbers import Integral, Real

from .errors import ConfigError

# key -> (type, default, domain or None).  A domain is an interval in the
# usual notation, "[" / "]" closed and "(" / ")" open at that end, e.g.
# "[0, 1]", "(0, 1)" or "[1, inf)"; a value outside it is a ConfigError.
# Each key has one domain, whatever the mode or paradigm that reads it.
SCHEMA: dict[str, tuple[type, object, str | None]] = {
    "data.file": (str, "", None),
    "data.k": (int, 3, "[2, inf)"),
    "data.per_class": (int, 100, "[2, inf)"),
    "data.dim": (int, 5, None),
    "data.spread": (float, 1.0, "[0, inf)"),
    "data.subgroups": (int, 2, "[1, inf)"),
    "data.seed": (int, 0, "[0, inf)"),
    "data.test_per_class": (int, 100, "[2, inf)"),
    "split.paradigm": (str, "classwise", None),
    "split.class": (int, 0, "[0, inf)"),
    "split.fraction": (float, 0.1, "(0, 1)"),
    "split.groups": (str, "", None),
    "split.seed": (int, 0, "[0, inf)"),
    "model.kind": (str, "logistic", None),
    "model.hidden": (int, 16, None),
    "model.l2": (float, 1e-2, "[0, inf)"),
    "train.epochs": (int, 60, "[0, inf)"),
    "train.batch_size": (int, 32, "[1, inf)"),
    "train.lr": (float, 0.1, "[0, inf)"),
    "train.seed": (int, 0, "[0, inf)"),
    "unlearn.methods": (str, "retrain,ft,ga,rl,iu,ugradsl,ugradsl_plus", None),
    "unlearn.epochs": (int, 10, "[0, inf)"),
    "unlearn.lr": (float, 0.01, "[0, inf)"),
    "unlearn.p": (float, 0.5, "[0, 1]"),
    "unlearn.batch_size": (int, 32, "[1, inf)"),
    "unlearn.damping": (float, 1e-3, "[0, inf)"),
    "smooth.mode": (str, "adaptive", None),
    "smooth.alpha": (float, -0.5, "(-inf, 1]"),
    "smooth.beta": (float, 0.9, "[0, 1]"),
    "theory.instances": (int, 20, "[1, inf)"),
    "theory.damping": (float, 1e-3, "[0, inf)"),
    "theory.alpha_grid_min": (float, -5.0, "(-inf, 0)"),
    "theory.alpha_grid_points": (int, 201, "[1, inf)"),
    "theory.seed": (int, 0, "[0, inf)"),
    "seeds": (str, "0", None),
}


def default_config() -> dict:
    return {k: v for k, (_, v, _) in SCHEMA.items()}


def _in_domain(value, domain: str) -> bool:
    """Whether ``value`` lies in the interval ``domain``; nan lies in none."""
    low, high = (float(bound) for bound in domain[1:-1].split(","))
    above = value > low if domain[0] == "(" else value >= low
    below = value < high if domain[-1] == ")" else value <= high
    return above and below


def _check_domain(key: str, value, where: str = "") -> None:
    domain = SCHEMA[key][2]
    if domain is not None and not _in_domain(value, domain):
        raise ConfigError(f"{where}key {key!r}: {value} is outside {domain}")


def _coerce(key: str, raw: str, lineno: int):
    try:
        value = SCHEMA[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: key {key!r}: {exc}") from exc
    _check_domain(key, value, f"line {lineno}: ")
    return value


# the values each schema type accepts in a config dict built in code
_ACCEPTS = {int: Integral, float: Real, str: str}


def validate(cfg: dict) -> dict:
    """``cfg``, once it holds every key of ``SCHEMA`` and no other, each
    value of its key's type and inside its domain; a ConfigError names the
    first key that does not."""
    for key, value in cfg.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        typ = SCHEMA[key][0]
        if isinstance(value, bool) or not isinstance(value, _ACCEPTS[typ]):
            raise ConfigError(f"key {key!r}: {value!r} is not of type {typ.__name__}")
        _check_domain(key, value)
    missing = [key for key in SCHEMA if key not in cfg]
    if missing:
        raise ConfigError(f"missing key {missing[0]!r}")
    return cfg


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
    """Seed list: '3', '0,1,2', or inclusive range '0..4'; at least one seed,
    none negative."""
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
    if min(seeds) < 0:
        raise ConfigError(f"seed list {spec!r} names a negative seed")
    return seeds
