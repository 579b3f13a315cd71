"""Dense 64-bit numerics: damped solves, stable softmax and seeded RNG
streams.

All arrays are plain numpy float64; matrices are row-major 2-D arrays and
vectors are 1-D arrays, or stacks of them along leading axes where a
function says so.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, SolverError

DEFAULT_DAMPING = 1e-3


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream_id); identical pairs give
    identical sequences across runs."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),)))


def solve_damped(A: np.ndarray, b: np.ndarray, damping: float = 0.0) -> np.ndarray:
    """Solve (A + damping*I) x = b with a direct dense factorization.

    A must be square and symmetric-shaped; the residual is checked against
    1e-8 * (1 + ||b||) and a SolverError is raised if it is exceeded.

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
    if damping < 0:
        raise DomainError("damping must be nonnegative")
    M = A + damping * np.eye(A.shape[-1])
    try:
        # each b goes in as one (P, 1) right-hand side: numpy reads a
        # stacked b of shape (..., P) as matrices
        x = np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular system: {exc}") from exc
    r = (M @ x[..., None])[..., 0] - b
    residual = np.sqrt(row_dot(r))
    tol = 1e-8 * (1.0 + np.sqrt(row_dot(b)))
    bad = ~(residual <= tol)  # a NaN residual fails too
    if bad.any():
        first = tuple(np.argwhere(bad)[0])
        where = f" in system {', '.join(map(str, first))}" if bad.size > 1 else ""
        raise SolverError(f"solve residual {residual[first]:.3e} above tolerance "
                          f"{tol[first]:.3e}{where}")
    return x


def row_dot(v: np.ndarray) -> np.ndarray:
    """v @ v over the last axis; each row-by-column product is the BLAS dot
    np.dot(v, v) takes, which ``np.linalg.norm`` squares a 1-D vector with."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift; rows sum to 1 within 1e-12."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise DomainError("logits must be finite")
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
