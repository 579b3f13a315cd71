"""Synthetic blob datasets, the three forgetting paradigms, and CSV I/O.

A dataset is features ``X`` (n x d), integer labels ``y`` in [0, K), and
optional per-row integer group ids (class ``c`` subgroup ``s`` gets id
``c * subgroups_per_class + s``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, StratificationError

CSV_FLOAT_FMT = "%.17g"
_CSV_BLOCK_ROWS = 256  # rows per format call of save_dataset
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


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
        # one count per row index: the indices are rows, so their largest bounds it
        if both.min() < 0 or np.bincount(both).max() > 1:
            raise DomainError("split indices must be nonnegative, distinct and not in both sets")


def gen_blobs(K: int, per_class: int, d: int, spread: float,
              subgroups_per_class: int, rng: np.random.Generator) -> LabeledDataset:
    """Gaussian clusters; each class is split into subgroups with offset means."""
    if K < 2 or per_class < 2 or d < 1 or subgroups_per_class < 1:
        raise DomainError("need K >= 2, per_class >= 2, d >= 1, subgroups_per_class >= 1")
    if not 0 <= spread < np.inf:  # false for nan too
        raise DomainError(f"spread is {spread}: negative or not finite")
    counts = np.full(subgroups_per_class, per_class // subgroups_per_class)
    counts[: per_class % subgroups_per_class] += 1
    scale = 4.0
    # class means on distinct coordinate axes shifted into the positive
    # orthant when the dimension allows (a class removed from training then
    # scores uniformly low on its own blob), else on a circle
    means = np.full((K, d), 0.5 * scale)
    if d >= K:
        for c in range(K):
            means[c, c] += scale
    else:
        angle = 2.0 * np.pi * np.arange(K) / K
        means[:, 0] += scale * np.cos(angle)
        if d > 1:
            means[:, 1] += scale * np.sin(angle)
    # each subgroup's rows are drawn straight into X, then scaled and shifted
    # in place: spread * z + (mean + offset), the bits of the sum written out
    X = np.empty((K * per_class, d))
    lo = 0
    for mean in means:
        for n in counts:
            offset = rng.normal(0.0, 1.0, size=d)
            rows = X[lo:lo + n]
            rng.standard_normal(out=rows)
            rows *= spread
            rows += mean + offset
            lo += n
    y = np.repeat(np.arange(K, dtype=np.int64), per_class)
    groups = np.repeat(np.arange(K * subgroups_per_class, dtype=np.int64), np.tile(counts, K))
    return LabeledDataset(X, y, K, groups)


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
    # each class's rows in increasing order, from one stable sort of the labels
    by_class = np.argsort(ds.y, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ds.y, minlength=ds.K))))
    forget_parts = []
    for c in range(ds.K):
        rows = by_class[bounds[c]:bounds[c + 1]]
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
        # _CSV_BLOCK_ROWS rows per % call, their values in one object array
        # (Python floats and ints, row by row); a whole-array one would hold
        # every value of the file as a Python object
        for lo in range(0, ds.n, _CSV_BLOCK_ROWS):
            block = np.empty((min(_CSV_BLOCK_ROWS, ds.n - lo), len(cols)), dtype=object)
            block[:, :ds.d] = ds.X[lo:lo + _CSV_BLOCK_ROWS]
            for j, col in enumerate(ids, start=ds.d):
                block[:, j] = col[lo:lo + _CSV_BLOCK_ROWS]
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def load_dataset(path, K: int) -> LabeledDataset:
    """Inverse of save_dataset.  K always comes from the caller, and every
    label is checked against it.  Every DomainError names the file and a bad
    row's line: ``<path>: line 3: label -1 < 0``."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            cols = header.split(",")
            has_group = cols[-1] == "group"
            d = len(cols) - (2 if has_group else 1)
            # f0, ..., f{d-1}, label[, group] with at least one feature column
            if d < 1 or cols[:d] != [f"f{i}" for i in range(d)] or cols[d] != "label":
                raise DomainError(f"malformed dataset header: {header!r}")
            start = fh.tell()
            rows = _parse_rows(fh, d, has_group, K)
            if rows is None:
                fh.seek(start)
                rows = _parse_rows_by_line(fh, d, has_group, K)
        X, y, groups = rows
        return LabeledDataset(X, y, K, groups)
    except DomainError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_rows(fh, d: int, has_group: bool, K: int):
    """The rows after the header through numpy's C parser, as (X, y, groups);
    None when it rejects a row, a feature is not finite or a label is outside
    [0, K), for ``_parse_rows_by_line`` to name the line."""
    fields = [("x", "f8", (d,)), ("y", "i8")] + ([("g", "i8")] if has_group else [])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no rows
            rows = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    X = np.ascontiguousarray(rows["x"]).reshape(rows.size, d)
    y = rows["y"]
    if not np.isfinite(X).all() or y.size and (y.min() < 0 or y.max() >= K):
        return None
    return X, y.copy(), rows["g"].copy() if has_group else None


def _parse_rows_by_line(fh, d: int, has_group: bool, K: int):
    """``_parse_rows`` one line at a time, naming the first bad line."""
    n_ids = 2 if has_group else 1
    X_rows, id_rows = [], []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + n_ids:
            raise DomainError(f"line {lineno}: expected {d + n_ids} fields, got {len(parts)}")
        try:
            X_rows.append([float(v) for v in parts[:d]])
            id_rows.append([int(v) for v in parts[d:]])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
        if not all(_INT64_MIN <= v <= _INT64_MAX for v in id_rows[-1]):
            raise DomainError(f"line {lineno}: label or group id outside the int64 range")
        if not all(map(math.isfinite, X_rows[-1])):
            raise DomainError(f"line {lineno}: non-finite feature value")
        label = id_rows[-1][0]
        if label < 0:
            raise DomainError(f"line {lineno}: label {label} < 0")
        if label >= K:
            raise DomainError(f"line {lineno}: label {label} >= K={K}")
    X = np.array(X_rows, dtype=np.float64).reshape(len(X_rows), d)
    ids = np.array(id_rows, dtype=np.int64).reshape(len(id_rows), n_ids)
    return X, ids[:, 0].copy(), ids[:, 1].copy() if has_group else None
