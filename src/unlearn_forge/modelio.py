"""Text serialization of models: versioned header, dims, then one parameter
per line at 17 significant digits (exact float64 round-trip).  Every line,
the last included, ends in a newline, so a file cut short is detectable.
``load_model`` checks the format; the description's rules are ``Model``'s."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError
from .models import Model

MAGIC = "unlearn-forge-model v1"


def save_model(model: Model, path) -> None:
    with open(path, "w") as fh:
        fh.write(MAGIC + "\n")
        fh.write(f"kind {model.kind}\n")
        fh.write(f"d {model.d}\n")
        fh.write(f"K {model.K}\n")
        fh.write(f"hidden {model.hidden}\n")
        fh.write(f"l2 {model.l2!r}\n")
        fh.write(f"theta {model.theta.size}\n")
        for v in model.theta:
            fh.write("%.17g\n" % v)


def load_model(path) -> Model:
    with open(path) as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0] != MAGIC:
        raise ConfigError(f"not a model file (bad header): {path}")
    if not text.endswith("\n"):
        raise ConfigError(f"model file {path}: truncated, the last line has no newline")
    fields = {}
    try:
        for line in lines[1:7]:
            key, val = line.split(" ", 1)
            fields[key] = val
        kind = fields["kind"]
        d = int(fields["d"])
        K = int(fields["K"])
        hidden = int(fields["hidden"])
        l2 = float(fields["l2"])
        count = int(fields["theta"])
        theta = np.array([float(v) for v in lines[7:7 + count]], dtype=np.float64)
    except (KeyError, ValueError, IndexError) as exc:
        raise ConfigError(f"malformed model file {path}: {exc}") from exc
    if theta.size != count:
        raise ConfigError(f"model file {path}: theta {count}, but {theta.size} parameter lines")
    if len(lines) > 7 + count:
        raise ConfigError(f"model file {path}: a line after the theta {count} parameters")
    if not np.isfinite(theta).all():
        i = int(np.argmin(np.isfinite(theta)))
        raise ConfigError(f"model file {path}: parameter {i} is {theta[i]}, not finite")
    try:
        return Model(kind=kind, theta=theta, d=d, K=K, l2=l2, hidden=hidden)
    except DomainError as exc:
        raise ConfigError(f"model file {path}: {exc}") from exc
