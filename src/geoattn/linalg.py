"""Dense float64 matrix helpers shared by every other module.

All functions are pure and operate on 2-D numpy arrays of float64.
``matmul`` is the BLAS product.  Its summation order is the BLAS
library's, so each entry is within the standard forward error bound
gamma_k * (|A| @ |B|) of the exact product (gamma_k = k u / (1 - k u),
u = 2^-53, k the inner dimension), not bit-identical to a scalar loop.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "matmul",
    "softmax_rows",
]


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate user input as a finite 2-D float64 array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Validate user input as a finite 1-D float64 array."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` through BLAS, after a shape check.

    The summation order is the BLAS library's, so results agree with a
    scalar triple loop to rounding error, not bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul size mismatch: {a.shape} x {b.shape}"
        )
    return a @ b


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for stability.

    Each output row sums to 1; entries lie in (0, 1].  Shift invariance
    (adding a constant to a row) holds to rounding error.  ``m`` is left
    untouched; the result is the only n x m array allocated.
    """
    m = np.asarray(m, dtype=np.float64)
    out = m - m.max(axis=1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out
