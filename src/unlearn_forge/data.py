"""Synthetic blob datasets, the three forgetting paradigms, and CSV I/O.

A dataset is features ``X`` (n x d), integer labels ``y`` in [0, K), and
optional per-row integer group ids (class ``c`` subgroup ``s`` gets id
``c * subgroups_per_class + s``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StratificationError

CSV_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class LabeledDataset:
    X: np.ndarray
    y: np.ndarray
    K: int
    groups: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise DimensionError("X must be (n, d) with matching label vector")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.K):
            raise DomainError("label outside [0, K)")
        if self.groups is not None and self.groups.shape != self.y.shape:
            raise DimensionError("groups must have one id per row")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "LabeledDataset":
        """The rows ``idx``, each of which must lie in [0, n)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise DimensionError(f"row index {bad} outside a dataset of n = {self.n} rows")
        groups = self.groups[idx] if self.groups is not None else None
        return LabeledDataset(self.X[idx], self.y[idx], self.K, groups)


@dataclass(frozen=True)
class ForgetSplit:
    retain_idx: np.ndarray
    forget_idx: np.ndarray

    def __post_init__(self):
        if self.forget_idx.size == 0:
            raise DomainError("forget set is empty")
        both = np.concatenate([self.retain_idx, self.forget_idx])
        if both.min() < 0 or np.unique(both).size != both.size:
            raise DomainError("split indices must be nonnegative, distinct and not in both sets")


def gen_blobs(K: int, per_class: int, d: int, spread: float,
              subgroups_per_class: int, rng: np.random.Generator) -> LabeledDataset:
    """Gaussian clusters; each class is split into subgroups with offset means."""
    if K < 2 or per_class < 2 or d < 1 or subgroups_per_class < 1:
        raise DomainError("need K >= 2, per_class >= 2, d >= 1, subgroups_per_class >= 1")
    if spread < 0:
        raise DomainError("spread must be nonnegative")
    X_parts, y_parts, g_parts = [], [], []
    scale = 4.0
    for c in range(K):
        # class means on distinct coordinate axes shifted into the positive
        # orthant when the dimension allows (a class removed from training
        # then scores uniformly low on its own blob), else on a circle
        mean = np.full(d, 0.5 * scale)
        if d >= K:
            mean[c] += scale
        else:
            angle = 2.0 * np.pi * c / K
            mean[0] += scale * np.cos(angle)
            if d > 1:
                mean[1] += scale * np.sin(angle)
        counts = np.full(subgroups_per_class, per_class // subgroups_per_class)
        counts[: per_class % subgroups_per_class] += 1
        for s in range(subgroups_per_class):
            offset = rng.normal(0.0, 1.0, size=d)
            center = mean + offset
            pts = center + spread * rng.standard_normal((counts[s], d))
            X_parts.append(pts)
            y_parts.append(np.full(counts[s], c, dtype=np.int64))
            g_parts.append(np.full(counts[s], c * subgroups_per_class + s, dtype=np.int64))
    return LabeledDataset(np.vstack(X_parts), np.concatenate(y_parts), K, np.concatenate(g_parts))


def split_classwise(ds: LabeledDataset, cls: int,
                    test: LabeledDataset | None = None) -> tuple[ForgetSplit, LabeledDataset | None]:
    """Forget a whole class; the test set has that class's rows removed."""
    if cls < 0 or cls >= ds.K:
        raise DomainError(f"class {cls} outside [0, {ds.K})")
    forget = np.flatnonzero(ds.y == cls)
    if forget.size == 0:
        raise DomainError(f"class {cls} absent from the dataset")
    adjusted = test.subset(np.flatnonzero(test.y != cls)) if test is not None else None
    return ForgetSplit(np.flatnonzero(ds.y != cls), forget), adjusted


def split_random(ds: LabeledDataset, fraction: float, rng: np.random.Generator) -> ForgetSplit:
    """Stratified random forgetting: floor(fraction * n_c) rows per class."""
    if not (0.0 < fraction < 1.0):
        raise DomainError("fraction must be in (0, 1)")
    forget_parts = []
    for c in range(ds.K):
        rows = np.flatnonzero(ds.y == c)
        take = int(np.floor(fraction * rows.size))
        if take < 1:
            raise StratificationError(f"fraction {fraction} gives no forget rows for class {c}")
        forget_parts.append(rng.choice(rows, size=take, replace=False))
    forget = np.sort(np.concatenate(forget_parts))
    mask = np.ones(ds.n, dtype=bool)
    mask[forget] = False
    return ForgetSplit(np.flatnonzero(mask), forget)


def split_group(ds: LabeledDataset, group_ids) -> ForgetSplit:
    """Forget every row whose group id is listed."""
    if ds.groups is None:
        raise DomainError("dataset carries no group ids")
    ids = [int(g) for g in group_ids]
    if not ids:
        raise DomainError("empty group id list")
    present = set(np.unique(ds.groups).tolist())
    unknown = [g for g in ids if g not in present]
    if unknown:
        raise DomainError(f"unknown group ids {unknown}")
    mask = np.isin(ds.groups, ids)
    return ForgetSplit(np.flatnonzero(~mask), np.flatnonzero(mask))


def save_dataset(ds: LabeledDataset, path) -> None:
    """CSV with header f0..f{d-1},label[,group]; 17 significant digits."""
    cols = [f"f{i}" for i in range(ds.d)] + ["label"]
    ids = [ds.y]
    if ds.groups is not None:
        cols.append("group")
        ids.append(ds.groups)
    fmt = ",".join([CSV_FLOAT_FMT] * ds.d + ["%d"] * len(ids)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        # one row at a time: a whole-array tolist() would hold every value as a Python float
        for x, *row_ids in zip(ds.X, *ids):
            fh.write(fmt % (*x.tolist(), *row_ids))


def load_dataset(path, K: int | None = None) -> LabeledDataset:
    """Inverse of save_dataset; K defaults to max(label) + 1."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[-1] not in ("label", "group"):
            raise DomainError(f"malformed dataset header: {header!r}")
        has_group = cols[-1] == "group"
        d = len(cols) - (2 if has_group else 1)
        if cols[:d] != [f"f{i}" for i in range(d)] or cols[d] != "label":
            raise DomainError(f"malformed dataset header: {header!r}")
        X_rows, y_rows, g_rows, linenos = [], [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            linenos.append(lineno)
            parts = line.split(",")
            if len(parts) != len(cols):
                raise DomainError(f"line {lineno}: expected {len(cols)} fields, got {len(parts)}")
            try:
                X_rows.append([float(v) for v in parts[:d]])
                y_rows.append(int(parts[d]))
                if has_group:
                    g_rows.append(int(parts[d + 1]))
            except ValueError as exc:
                raise DomainError(f"line {lineno}: {exc}") from exc
    X = np.array(X_rows, dtype=np.float64).reshape(len(X_rows), d)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise DomainError(f"line {linenos[int(np.argmin(finite))]}: non-finite feature value")
    y = np.array(y_rows, dtype=np.int64)
    if K is None:
        K = int(y.max()) + 1 if y.size else 2
    if y.size and y.max() >= K:
        raise DomainError(f"label {int(y.max())} >= K={K}")
    groups = np.array(g_rows, dtype=np.int64) if has_group else None
    return LabeledDataset(X, y, K, groups)
