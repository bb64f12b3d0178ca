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
call it directly; :func:`project` is its checked column case and builds
the validated :class:`ObliqueMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import as_matrix

__all__ = [
    "EPS_CLIP",
    "ObliqueMatrix",
    "ObliqueTangent",
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
# |w_i . delta_i| / max(1, |delta_i|) below this counts as tangent.
_TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class ObliqueMatrix:
    """An n x g matrix with unit-norm columns.

    ``degenerate`` flags columns that were zero (or near-zero) before
    projection and were replaced by e1.
    """

    inner: np.ndarray
    degenerate: tuple[bool, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = as_matrix(self.inner, name="oblique matrix")
        norms = np.sqrt((m * m).sum(axis=0))
        if np.abs(norms - 1.0).max(initial=0.0) > _NORM_TOL:
            worst = float(np.abs(norms - 1.0).max())
            raise ValueError(
                f"columns are not unit-norm (max |norm - 1| = {worst:.3e})"
            )
        object.__setattr__(self, "inner", m)
        if self.degenerate is None:
            object.__setattr__(self, "degenerate", (False,) * m.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.inner.shape


@dataclass(frozen=True)
class ObliqueTangent:
    """A tangent vector at ``base``: each column orthogonal to the base column."""

    base: ObliqueMatrix
    delta: np.ndarray

    def __post_init__(self):
        d = as_matrix(self.delta, name="tangent delta")
        if d.shape != self.base.shape:
            raise ValueError(
                f"tangent shape {d.shape} does not match base {self.base.shape}"
            )
        # The rounding left by tangent_project grows with |g_i|, so the dot
        # product is judged relative to the column's norm once it passes 1.
        dots = np.abs((self.base.inner * d).sum(axis=0))
        dots /= np.maximum(1.0, np.sqrt((d * d).sum(axis=0)))
        if dots.max(initial=0.0) > _TANGENT_TOL:
            raise ValueError(
                f"delta is not tangent (max |w_i . d_i| / max(1, |d_i|) = "
                f"{dots.max():.3e})"
            )
        object.__setattr__(self, "delta", d)


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


def project(m) -> ObliqueMatrix:
    """Normalize each column to unit norm.

    Columns with norm < 1e-12 cannot be normalized; they are replaced
    by the unit vector e1 and flagged in ``degenerate``.  Attention pipelines
    must not abort on a single dead feature.  An input with no rows has no
    unit vector to give and raises ``ValueError``.  This is the checked
    column case of the kernels' row function: the columns of ``m`` are
    its rows.
    """
    m = as_matrix(m, name="projection input")
    if m.shape[0] == 0:
        raise ValueError("projection input has no rows: a zero-width column has "
                         "no unit vector")
    out, dead = _unit_rows(m.T)
    return ObliqueMatrix(out.T, degenerate=tuple(dead.tolist()))


def _clip(t, out=None):
    return np.clip(t, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP, out=out)


def geodesic_distance(q: ObliqueMatrix, k: ObliqueMatrix) -> float:
    """sqrt(sum_i arccos^2(q_i . k_i)) over the g column pairs.

    Each column-wise dot product is clipped to [-1 + eps, 1 - eps] before
    arccos, so identical configurations have distance sqrt(g) * arccos(1 - eps)
    rather than 0 (the clip floor).
    """
    if q.shape != k.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {k.shape}")
    dots = _clip((q.inner * k.inner).sum(axis=0))
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


def tangent_project(w: ObliqueMatrix, grad) -> ObliqueTangent:
    """Project an ambient gradient onto the tangent space at ``w``.

    Per column: xi_i = g_i - (w_i . g_i) w_i.  By the orthogonal
    decomposition this never increases the Frobenius norm.
    """
    g = as_matrix(grad, name="gradient")
    if g.shape != w.shape:
        raise ValueError(f"shape mismatch: w {w.shape} vs grad {g.shape}")
    dots = (w.inner * g).sum(axis=0)
    return ObliqueTangent(w, g - w.inner * dots)


def retract(t: ObliqueTangent, step: float) -> ObliqueMatrix:
    """Metric-projection retraction: renormalize base + step * delta."""
    return project(t.base.inner + step * t.delta)


def distance_gradient(q_row, k_row) -> np.ndarray:
    """Gradient of arccos(clip(q . k)) with respect to q.

    d/dq arccos(t) = -k / sqrt(1 - t^2) with t the clipped dot product;
    clipping keeps the magnitude finite at coincident or antipodal pairs.
    """
    q = np.asarray(q_row, dtype=np.float64)
    k = np.asarray(k_row, dtype=np.float64)
    if q.shape != k.shape:
        raise ValueError(f"shape mismatch: {q.shape} vs {k.shape}")
    t = float(_clip(np.dot(q, k)))
    return -k / math.sqrt(1.0 - t * t)
