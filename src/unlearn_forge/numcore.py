"""Dense 64-bit numerics: damped solves, stable softmax, reductions over the
last (class) axis and seeded RNG streams.

All arrays are plain numpy float64; matrices are row-major 2-D arrays and
vectors are 1-D arrays, or stacks of them along leading axes where a
function says so.

``row_max`` and ``row_sum`` reduce the last axis with the bits of numpy's
``max``/``sum(axis=-1)``.  numpy reduces a short last axis one row at a time,
its slowest loop; the two helpers instead make one elementwise pass per
column over all rows at once, by the shape of the call:

- below ``PAIRWISE_BLOCK`` columns, always;
- from ``PAIRWISE_BLOCK`` to twice that, on a contiguous last axis and at
  least ``COLUMN_PASS_ROWS`` rows (counted over every leading axis);
- otherwise never: numpy's loop is faster on few rows, and on wide rows
  each strided column pass misses the cache.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, SolverError

DEFAULT_DAMPING = 1e-3
# numpy's pairwise-summation block: it sums a contiguous row shorter than
# this left to right from 0.0; a row of up to 128 entries in 8 partial sums,
# r_j = a[j] + a[j+8] + ..., combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
# then the K mod 8 tail left to right (Higham 1993 describes the method)
PAIRWISE_BLOCK = 8
# the fewest rows on which column passes beat numpy's loop at 8 <= K < 16:
# the max breaks even near 300 rows of 10 classes, the sum near 500
COLUMN_PASS_ROWS = 512


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream_id); identical pairs give
    identical sequences across runs."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),)))


def solve_damped(A: np.ndarray, b: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Solve (A + damping*I) x = b with a direct dense factorization.

    A must be square and symmetric-shaped; the residual is checked against
    1e-8 * (1 + ||b||) and a SolverError is raised if it is exceeded or if
    ||b|| is not finite.

    A stack of systems, A of shape (..., P, P) and b of shape (..., P), is
    solved in one call; each x has the bits of its own 2-D call, each
    residual is checked on its own, and the error of a stack of two or more
    systems names the first failing one.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected square matrix, got shape {A.shape}")
    if b.shape != A.shape[:-1]:
        raise DimensionError(f"rhs length {b.shape} does not match matrix {A.shape}")
    if not 0 <= damping < np.inf:  # false for nan too
        raise DomainError(f"damping is {damping}: negative or not finite")
    M = A + damping * np.eye(A.shape[-1])
    try:
        # each b goes in as one (P, 1) right-hand side: numpy reads a
        # stacked b of shape (..., P) as matrices
        x = np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular system: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        r = (M @ x[..., None])[..., 0] - b
        residual = np.sqrt(row_dot(r))
        tol = 1e-8 * (1.0 + np.sqrt(row_dot(b)))
    unchecked = ~np.isfinite(tol)
    bad = unchecked | ~(residual <= tol)  # a NaN residual fails too
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        where = f" in system {', '.join(map(str, first))}" if bad.size > 1 else ""
        if unchecked[first]:
            raise SolverError(f"||b|| is not finite, so the residual cannot be checked{where}")
        raise SolverError(f"solve residual {residual[first]:.3e} above tolerance "
                          f"{tol[first]:.3e}{where}")
    return x


def row_dot(v: np.ndarray) -> np.ndarray:
    """v @ v over the last axis; each row-by-column product is the BLAS dot
    np.dot(v, v) takes, which ``np.linalg.norm`` squares a 1-D vector with."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, bit for bit, as one ``np.maximum`` pass per column
    where the module docstring's shape rule allows (a max is exact in any
    order).  From ``PAIRWISE_BLOCK`` columns on, the passes and numpy's
    SIMD max can differ in the sign of a zero maximum of a row that mixes
    0.0 and -0.0, so numpy reduces those rows again; on a contiguous last
    axis it gives them the bits it gives the whole array."""
    K = a.shape[-1]
    short = 0 < K < PAIRWISE_BLOCK
    if not short and (a.size < COLUMN_PASS_ROWS * K or not PAIRWISE_BLOCK <= K < 2 * PAIRWISE_BLOCK
                      or a.strides[-1] != a.itemsize):
        return a.max(axis=-1)
    m = a[..., 0].copy()
    for k in range(1, K):
        np.maximum(m, a[..., k], out=m)
    if not short:
        zero = m == 0.0
        if zero.any():
            m[zero] = a[zero].max(axis=-1)
    return m


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)``, bit for bit, as one pass per column where the
    module docstring's shape rule allows.  Below ``PAIRWISE_BLOCK`` columns
    the passes add as numpy sums such a row, ``0.0 + a[..., 0] + a[..., 1] +
    ...``.  From ``PAIRWISE_BLOCK`` to twice that, each of numpy's 8 partial
    sums is one column, combined in its order with the tail added after;
    the final ``+ 0.0`` is numpy adding the row's sum to its identity, which
    turns an all -0.0 row's -0.0 into 0.0.  A last axis that is not
    contiguous, Fortran order among them, numpy sums left to right, so it
    keeps numpy's own reduction."""
    K = a.shape[-1]
    if 0 < K < PAIRWISE_BLOCK:
        s = 0.0 + a[..., 0]
        for k in range(1, K):
            s += a[..., k]
        return s
    if (a.size < COLUMN_PASS_ROWS * K or not PAIRWISE_BLOCK <= K < 2 * PAIRWISE_BLOCK
            or a.strides[-1] != a.itemsize):
        return a.sum(axis=-1)
    # below 16 columns the partial sum r_j is column j itself
    s = a[..., 0] + a[..., 1]
    s += a[..., 2] + a[..., 3]
    t = a[..., 4] + a[..., 5]
    t += a[..., 6] + a[..., 7]
    s += t
    for k in range(PAIRWISE_BLOCK, K):
        s += a[..., k]
    s += 0.0
    return s


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift; rows sum to 1 within 1e-12."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise DomainError("logits must be finite")
    e = logits - row_max(logits)[..., None]
    np.exp(e, out=e)
    e /= row_sum(e)[..., None]
    return e
