"""Input validation shared by every other module.

``as_matrix`` and ``as_vector`` turn user input into finite float64
arrays of the stated rank, and ``as_index`` into an int, or raise a
``ValueError`` that names it.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["as_index", "as_matrix", "as_vector"]


def _as_finite(data, ndim: int, name: str) -> np.ndarray:
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Validate user input as a finite 2-D float64 array."""
    return _as_finite(data, 2, name)


def as_vector(data, name: str = "vector") -> np.ndarray:
    """Validate user input as a finite 1-D float64 array."""
    return _as_finite(data, 1, name)


def as_index(value, name: str) -> int:
    """Validate user input as an integer (``operator.index``), as an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
