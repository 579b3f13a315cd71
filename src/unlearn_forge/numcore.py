"""Dense 64-bit numerics: damped solves, stable softmax and seeded RNG
streams.

All arrays are plain numpy float64; matrices are row-major 2-D arrays and
vectors are 1-D arrays.
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
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected square matrix, got shape {A.shape}")
    if b.ndim != 1 or b.shape[0] != A.shape[0]:
        raise DimensionError(f"rhs length {b.shape} does not match matrix {A.shape}")
    if damping < 0:
        raise DomainError("damping must be nonnegative")
    M = A + damping * np.eye(A.shape[0])
    try:
        x = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular system: {exc}") from exc
    residual = np.linalg.norm(M @ x - b)
    tol = 1e-8 * (1.0 + np.linalg.norm(b))
    if not np.isfinite(residual) or residual > tol:
        raise SolverError(f"solve residual {residual:.3e} above tolerance {tol:.3e}")
    return x


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift; rows sum to 1 within 1e-12."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise DomainError("logits must be finite")
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e
