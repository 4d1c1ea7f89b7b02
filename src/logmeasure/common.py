"""Array coercion, RNG plumbing, and shared tolerances."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Default seed for every sampled check in the package (CLI, l_p ascent,
# classifiers, certificate family, grid falsifier). Overridable per call.
DEFAULT_SEED = 0xC0FFEE

# Agreement tolerance for exact routes (closed forms, polyhedral paths).
TOL_EXACT = 1e-9

# Dedup tolerance for polytope vertices.
TOL_VERTEX = 1e-9


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator (None -> DEFAULT_SEED)."""
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {v.shape[0]}")
    return v


def as_square_matrix(A, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite square 2-D float array, optionally checking its size."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    if dim is not None and M.shape[0] != dim:
        raise DimensionMismatch(f"expected size {dim}x{dim}, got {M.shape[0]}")
    return M


def diag_entries(D, dim: int | None = None) -> np.ndarray:
    """Extract diagonal entries from a diagonal matrix or a flat entry list.

    Raises if a 2-D argument has nonzero off-diagonal entries.
    """
    arr = np.asarray(D, dtype=float)
    if arr.ndim == 1:
        d = arr
    elif arr.ndim == 2:
        M = as_square_matrix(arr, dim)
        off = M - np.diag(np.diag(M))
        if np.any(np.abs(off) > 0):
            raise ValueError("matrix has nonzero off-diagonal entries")
        d = np.diag(M)
    else:
        raise DimensionMismatch(f"expected diagonal entries or matrix, got ndim {arr.ndim}")
    if not np.all(np.isfinite(d)):
        raise ValueError("diagonal entries must be finite")
    if dim is not None and d.shape[0] != dim:
        raise DimensionMismatch(f"expected {dim} diagonal entries, got {d.shape[0]}")
    return d
