"""Oblique manifold OM(n, g): matrices whose columns all have unit 2-norm.

The manifold is a product of unit spheres.  Geodesic distance between two
configurations Q, K is sqrt(sum_i arccos^2(q_i . k_i)) over the g column
pairs.  The attention kernels treat each embedded feature row as a
single-column point, so the per-pair distance reduces to arccos of the
clipped cosine.

Dot products feeding arccos are clipped to [-1 + eps, 1 - eps] with
eps = ``EPS_CLIP`` = 1e-4, a fixed constant.  A deliberate consequence: the
self-distance of a point is arccos(1 - eps) ~ 0.014142 rather than 0.  This
clip floor is documented and tested, not hidden.

Rows are normalized once, in the private ``_unit_rows``, which returns the
unit rows and a bool mask of dead rows (set to e1).  The attention kernels
call it directly; :func:`project` is its checked column case.

A configuration is a plain n x g float64 array with unit columns, and a
tangent vector at it a plain array of the same shape.  The manifold API
(:func:`geodesic_distance`, :func:`tangent_project`, :func:`retract`)
checks each such argument at every call, so an array changed after
:func:`project` returned it is refused, not trusted.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .linalg import as_matrix, as_vector

__all__ = [
    "EPS_CLIP",
    "project",
    "geodesic_distance",
    "pairwise_distances",
    "tangent_project",
    "retract",
    "distance_gradient",
]

EPS_CLIP = 1e-4

# Column norms this close to 1 count as on-manifold.
_NORM_TOL = 1e-12
# |w_i . xi_i| / max(1, |xi_i|) at most this counts as tangent: the
# rounding tangent_project leaves grows with |xi_i| once it passes 1.
_TANGENT_TOL = 1e-10


def _unit_rows(v):
    """Each row of ``v`` scaled to unit norm, and the bool mask of dead rows.

    A row with norm < 1e-12 is dead: it cannot be normalized and becomes
    e1.  A row whose squared norm overflows is first scaled by its largest
    absolute entry; every other row is normalized as it is.  ``v`` must be
    finite, have at least one column, and is never written.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt((v * v).sum(axis=1))
    dead = norms < 1e-12
    out = v / np.where(dead, 1.0, norms)[:, None]
    out[dead] = 0.0
    out[dead, 0] = 1.0
    big = np.isinf(norms)
    if big.any():
        w = v[big] / np.abs(v[big]).max(axis=1, keepdims=True)
        out[big] = w / np.sqrt((w * w).sum(axis=1, keepdims=True))
    return out, dead


def project(m) -> tuple[np.ndarray, np.ndarray]:
    """Normalize each column to unit norm: returns (w, degenerate).

    ``w`` is a new array, never a view of ``m``.  Columns with norm
    < 1e-12 cannot be normalized; they are replaced by the unit vector e1
    and flagged in the bool mask ``degenerate``.  Attention pipelines must
    not abort on a single dead feature.  An input with no rows has no unit
    vector to give and raises ``ValueError``.  This is the checked column
    case of the kernels' row function: the columns of ``m`` are its rows.
    """
    m = as_matrix(m, name="projection input")
    if m.shape[0] == 0:
        raise ValueError("projection input has no rows: a zero-width column has "
                         "no unit vector")
    out, dead = _unit_rows(m.T)
    return out.T, dead


def _point(w, name: str) -> np.ndarray:
    """``w`` checked as a finite 2-D array with at least one row whose
    columns have unit norm within ``_NORM_TOL``.  The test is NaN-safe:
    [[1e200], [0]], whose squared norm overflows, fails it.  An array with
    rows and no columns, which :func:`project` returns for one, passes."""
    w = as_matrix(w, name=name)
    if w.shape[0] == 0:
        raise ValueError(f"{name} has no rows: a zero-width column has no "
                         f"unit vector")
    with np.errstate(over="ignore"):
        err = float(np.abs(np.sqrt((w * w).sum(axis=0)) - 1.0).max(initial=0.0))
    if not err <= _NORM_TOL:
        raise ValueError(f"{name} columns are not unit-norm "
                         f"(max |norm - 1| = {err:.3e})")
    return w


def _clip(t, out=None):
    return np.clip(t, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP, out=out)


def geodesic_distance(q, k) -> float:
    """sqrt(sum_i arccos^2(q_i . k_i)) over the g column pairs.

    Each column-wise dot product is clipped to [-1 + eps, 1 - eps] before
    arccos, so identical configurations have distance sqrt(g) * arccos(1 - eps)
    rather than 0 (the clip floor).
    """
    q = _point(q, "geodesic_distance: q")
    k = _point(k, "geodesic_distance: k")
    if q.shape != k.shape:
        raise ValueError(f"geodesic_distance: shape mismatch: q {q.shape} "
                         f"vs k {k.shape}")
    dots = _clip((q * k).sum(axis=0))
    return float(np.sqrt((np.arccos(dots) ** 2).sum()))


def pairwise_distances(q_rows, k_rows, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise arccos distances between unit-norm rows.

    Each row is a single-column oblique point, so D_ij = arccos(clip(q_i . k_j)).
    All entries land in [arccos(1 - eps), arccos(-1 + eps)].  The product
    q @ k.T is written into ``out`` (n x m, numpy-style) or a fresh array,
    and clip and arccos run in place on it.
    """
    q = as_matrix(q_rows, name="q rows")
    k = as_matrix(k_rows, name="k rows")
    if q.shape[1] != k.shape[1]:
        raise ValueError(
            f"feature dim mismatch: q has {q.shape[1]}, k has {k.shape[1]}"
        )
    d = np.matmul(q, k.T, out=out)
    return np.arccos(_clip(d, out=d), out=d)


def tangent_project(w, grad) -> np.ndarray:
    """Project an ambient gradient onto the tangent space at ``w``.

    Per column: xi_i = g_i - (w_i . g_i) w_i.  By the orthogonal
    decomposition this never increases the Frobenius norm.  A result past
    the float64 limit raises ``ValueError``.
    """
    w = _point(w, "tangent_project: w")
    g = as_matrix(grad, name="tangent_project: grad")
    if g.shape != w.shape:
        raise ValueError(f"tangent_project: shape mismatch: w {w.shape} "
                         f"vs grad {g.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        xi = g - w * (w * g).sum(axis=0)
    if not np.isfinite(xi).all():
        raise ValueError("tangent_project: the projection of grad is past the "
                         "float64 limit")
    return xi


def retract(w, xi, step: float) -> np.ndarray:
    """Metric-projection retraction: renormalize w + step * xi.

    ``xi`` must be tangent at ``w`` within ``_TANGENT_TOL``, ``step`` finite
    and w + step * xi within the float64 limit, or ``ValueError`` names
    the breach.
    """
    w = _point(w, "retract: w")
    xi = as_matrix(xi, name="retract: xi")
    if xi.shape != w.shape:
        raise ValueError(f"retract: shape mismatch: w {w.shape} vs xi {xi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        dots = np.abs((w * xi).sum(axis=0))
        dots /= np.maximum(1.0, np.sqrt((xi * xi).sum(axis=0)))
    worst = float(dots.max(initial=0.0))
    if not worst <= _TANGENT_TOL:
        raise ValueError(f"retract: xi is not tangent at w (max |w_i . xi_i| / "
                         f"max(1, |xi_i|) = {worst:.3e})")
    step = float(step)
    if not math.isfinite(step):
        raise ValueError(f"retract: step must be finite, got {step}")
    with np.errstate(over="ignore"):
        moved = w + step * xi
    if not np.isfinite(moved).all():
        raise ValueError(f"retract: w + step * xi is past the float64 limit "
                         f"(step {step:g})")
    return project(moved)[0]


def distance_gradient(q_row, k_row) -> np.ndarray:
    """Gradient of arccos(clip(q . k)) with respect to q.

    d/dq arccos(t) = -k / sqrt(1 - t^2) with t the clipped dot product;
    clipping keeps the magnitude finite at coincident or antipodal pairs.
    Both rows must be finite and 1-D.
    """
    q = as_vector(q_row, name="q row")
    k = as_vector(k_row, name="k row")
    if q.shape != k.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {k.shape}")
    t = float(_clip(np.dot(q, k)))
    return -k / math.sqrt(1.0 - t * t)
