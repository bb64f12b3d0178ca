"""Lorentz hyperboloid model of hyperbolic space with curvature -c.

Points live on the upper sheet of <x, x>_L = -1/c in Minkowski space,
where <x, y>_L = x_space . y_space - x_time * y_time.  All exponential and
logarithmic maps go through the origin O = [0, 1/sqrt(c)]; base points
elsewhere are out of scope.

Numerical conventions:

* The sinc-like factor sinh(t)/t is evaluated by its Taylor series for
  t < 1e-4, avoiding 0/0.  The series and its per-entry selection run only
  for arrays that hold such an entry; otherwise the closed form is used
  directly, with the same result.
* The log map uses the identity arcosh(sqrt(1 + s^2)) = asinh(s) with
  s = sqrt(c) * ||x_space||, which is accurate near the origin where the
  printed arcosh/sqrt form loses digits.  Under this curvature-normalized
  reading, log(exp(u)) = u for every c.
* The time component comes from each row's lift factor f and norm |m_i|
  as sqrt(1/c + (f |m_i|)^2), never from input arithmetic and with no
  second pass over the space part.
* Geodesic distance clips the arcosh argument to [1 + eps, inf) with
  eps = ``EPS_CLIP`` = 1e-15, a fixed constant, so self-distance is
  arcosh(1 + 1e-15)/sqrt(c) ~ 4.712e-8/sqrt(c) (the clip floor), never NaN.
* The lift, the key layout, the distance and its gradient are each
  written once, for stacked rows, in ``_lift``, ``_keys``, ``_distances``
  and ``_distance_grads``; :func:`lift_rows` and
  :func:`pairwise_distance_matrix` are checked wrappers.  A lift writes
  its rows once, as [s | t], into the buffer the distance product reads,
  and ``_keys`` turns lifted rows into that product's keys [-c s | c t].
  ``_lift`` also returns its row factors sqrt(c) r and sinh(sqrt(c) r) /
  (sqrt(c) r), which ``_distance_grads`` takes instead of computing them
  again.  The point API (:func:`exp_origin`, :func:`geodesic_distance`,
  :func:`distance_gradient`, which take and give tangent vectors as plain
  1-D arrays) is their checked one-row case: it checks its inputs but is
  not an independent oracle for them; ``diffcheck``'s scalar loops are.
* Hyperboloid membership is checked with a scale-normalized residual
  |<x,x>_L + 1/c| / max(1, x_time^2).  Far from the origin x_time^2 can
  exceed 1e50 and an absolute residual below rounding error of x_time is
  not representable in float64; the normalized residual coincides with the
  absolute one for points near the origin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import as_vector

__all__ = [
    "MIN_CURVATURE",
    "EPS_CLIP",
    "LorentzPoint",
    "check_curvature",
    "origin",
    "hyperboloid_residual",
    "exp_origin",
    "log_origin",
    "geodesic_distance",
    "distance_gradient",
    "lift_rows",
    "pairwise_distance_matrix",
]

MIN_CURVATURE = 1e-3
EPS_CLIP = 1e-15

_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)

# Off-manifold tolerance on the (normalized) constraint residual: roomy
# enough for float64 rounding, tight enough to catch construction bugs.
_MEMBERSHIP_TOL = 1e-6


def check_curvature(c: float) -> float:
    """Validate a curvature parameter (the manifold has curvature -c)."""
    c = float(c)
    if not math.isfinite(c) or c < MIN_CURVATURE:
        raise ValueError(f"curvature must satisfy c >= {MIN_CURVATURE}, got {c}")
    return c


@dataclass(frozen=True)
class LorentzPoint:
    """A point on the hyperboloid, split into space and time components."""

    space: np.ndarray
    time: float

    def __post_init__(self):
        object.__setattr__(self, "space", as_vector(self.space, name="space part"))
        object.__setattr__(self, "time", float(self.time))

    @property
    def dim(self) -> int:
        return self.space.shape[0]


def origin(n: int, c: float) -> LorentzPoint:
    """The hyperboloid origin O = [0, 1/sqrt(c)]."""
    c = check_curvature(c)
    return LorentzPoint(np.zeros(n), 1.0 / math.sqrt(c))


def hyperboloid_residual(x: LorentzPoint, c: float) -> float:
    """Scale-normalized membership residual |<x,x>_L + 1/c| / max(1, time^2)."""
    c = check_curvature(c)
    raw = abs(float(np.dot(x.space, x.space)) - x.time * x.time + 1.0 / c)
    return raw / max(1.0, x.time * x.time)


def _require_on_manifold(x: LorentzPoint, c: float, what: str) -> None:
    res = hyperboloid_residual(x, c)
    if res > _MEMBERSHIP_TOL or x.time <= 0:
        raise ValueError(
            f"{what}: point off the hyperboloid (normalized residual {res:.3e}, "
            f"time {x.time:.6g})"
        )


def _sinhc(t):
    """sinh(t)/t elementwise, by its Taylor series below t = 1e-4 (no 0/0).

    Accepts a scalar or an array of nonnegative t; a scalar gives a scalar.
    The series and the per-entry selection run only when some entry is
    below the switch; otherwise the closed form is returned directly, the
    same values the selection would pick.
    """
    t = np.asarray(t, dtype=np.float64)
    small = t < 1e-4
    if not small.any():
        return (np.sinh(t) / t)[()]
    t2 = t * t
    safe_t = np.where(small, 1.0, t)
    return np.where(small, 1.0 + t2 / 6.0 + t2 * t2 / 120.0,
                    np.sinh(safe_t) / safe_t)[()]


def _asinhc(s: float) -> float:
    """asinh(s)/s with the s -> 0 limit handled by Taylor series."""
    if s < 1e-4:
        s2 = s * s
        return 1.0 - s2 / 6.0 + 3.0 * s2 * s2 / 40.0
    return math.asinh(s) / s


def _lift(m: np.ndarray, c: float, scale: float, out: np.ndarray, what: str):
    """Lift the rows of ``m * scale`` into ``out`` as [s | t], unchecked;
    errors name ``what`` and ``m`` is never written.

    Each row is scaled once by f = scale * sinh(t) / t, with t =
    sqrt(c) |scale| r and r its norm, and its time is sqrt(1/c + (f r)^2).
    Returns (space, time, t, sc): out's column views and sc = sinh(t) / t.
    """
    r = np.sqrt(np.einsum("ij,ij->i", m, m))
    a = math.sqrt(c) * abs(scale)
    t = r if a == 1.0 else a * r
    t_max = t.max(initial=0.0)
    limit = math.asinh(math.sqrt(c) * _SQRT_FLOAT_MAX)
    if t_max > limit:
        raise ValueError(
            f"{what}: largest sqrt(c) * r is {t_max:.6g}, past the float64 "
            f"limit {limit:.6g} at c = {c:g} (r is the scaled row norm)"
        )
    sc = _sinhc(t)
    f = sc if scale == 1.0 else scale * sc
    space = np.multiply(m, f[:, None], out=out[:, :-1])
    time = np.multiply(f, r, out=out[:, -1])
    return space, np.sqrt(time * time + 1.0 / c, out=time), t, sc


def exp_origin(u, c: float) -> LorentzPoint:
    """Exponential map at the origin: the one-row case of :func:`lift_rows`.

    space = sinh(sqrt(c) r) / (sqrt(c) r) * u with r = ||u||; time comes
    from the same factor.  Past the float64 limit it raises the same
    ValueError as :func:`lift_rows`, naming ``exp_origin``.
    """
    c = check_curvature(c)
    u = as_vector(u, name="tangent")
    space, time = _lift(u[None], c, 1.0, np.empty((1, u.size + 1)), "exp_origin")[:2]
    return LorentzPoint(space[0], time[0])


def log_origin(x: LorentzPoint, c: float) -> np.ndarray:
    """Logarithmic map at the origin, inverse of :func:`exp_origin`.

    Returns the tangent vector asinh(s)/s * x_space with
    s = sqrt(c) ||x_space||.  Equals the arcosh form since
    -c <x, O>_L = sqrt(1 + s^2).
    """
    c = check_curvature(c)
    _require_on_manifold(x, c, "log_origin")
    s = math.sqrt(c) * float(np.linalg.norm(x.space))
    return _asinhc(s) * x.space


def geodesic_distance(x: LorentzPoint, y: LorentzPoint, c: float) -> float:
    """Geodesic distance, the checked one-row case of the pairwise matrix.

    Computed by :func:`pairwise_distance_matrix`, clip floor included.
    """
    c = check_curvature(c)
    _require_on_manifold(x, c, "geodesic_distance (first argument)")
    _require_on_manifold(y, c, "geodesic_distance (second argument)")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(pairwise_distance_matrix(x.space[None], [x.time],
                                          y.space[None], [y.time], c)[0, 0])


def pairwise_distance_matrix(space_x: np.ndarray, time_x: np.ndarray,
                             space_y: np.ndarray, time_y: np.ndarray,
                             c: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Pairwise geodesic distances from stacked space/time components.

    D_ij = (1/sqrt(c)) arcosh(max(-c <x_i, y_j>_L, 1 + EPS_CLIP)).  The clip
    keeps the arcosh argument >= 1, so coincident points get the floor
    distance arcosh(1 + eps)/sqrt(c) instead of NaN.

    The product, clip, arcosh and scale run in :func:`_distances`, into
    ``out`` (n x m, numpy-style) or a fresh array; this checked wrapper
    packs both sides for it.
    """
    c = check_curvature(c)
    keys = np.column_stack((space_y, time_y))
    _keys(keys, c, out=keys)
    return _distances(np.column_stack((space_x, time_x)), keys, c, out)


def _keys(x: np.ndarray, c: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Lifted rows [s | t] as the keys [-c s | c t] of :func:`_distances`,
    written into ``out`` (``x`` itself for in place) or a fresh array."""
    keys = np.multiply(x, -c, out=out)
    np.negative(keys[:, -1], out=keys[:, -1])
    return keys


def _distances(queries: np.ndarray, keys: np.ndarray, c: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Distances from lifted queries [s_x | t_x] to keys packed as
    [-c s_y | c t_y], unchecked.

    arcosh(max(queries @ keys.T, 1 + EPS_CLIP)) / sqrt(c), since
    queries @ keys.T = -c <x, y>_L, the product written into ``out`` or a
    fresh array and the rest in place on it; at c = 1 the scale is exact
    and skipped.  The one Lorentz distance formula: every caller lifts its
    rows by :func:`_lift` and packs its keys by :func:`_keys`.
    """
    beta = np.matmul(queries, keys.T, out=out)
    np.maximum(beta, 1.0 + EPS_CLIP, out=beta)
    np.arccosh(beta, out=beta)
    if c != 1.0:
        beta /= math.sqrt(c)
    return beta


def lift_rows(m: np.ndarray, c: float, scale: float = 1.0,
              out: Optional[np.ndarray] = None):
    """Lift each row of ``m`` through the exponential map at the origin.

    Returns (space, time) arrays; ``scale`` plays the role of the tangent
    scale alpha and must be finite.  Vectorized counterpart of mapping
    each row separately; the factor is :func:`_sinhc`, Taylor branch
    included.

    The squared norm of a lifted row's space part is sinh^2(sqrt(c) r) / c,
    which overflows float64 once sqrt(c) r passes
    asinh(sqrt(c * float_max)), about 355.6 + ln(c) / 2.  A row past that
    limit raises ValueError instead of producing inf or NaN coordinates.

    The rows are written once, as [space | time], into ``out`` (n x (d+1),
    numpy-style) or a fresh array, and space and time are its column
    views.  ``m`` is never written.
    """
    c = check_curvature(c)
    scale = float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"lift_rows: scale must be finite, got {scale}")
    m = np.asarray(m, dtype=np.float64)
    if out is None:
        out = np.empty((m.shape[0], m.shape[1] + 1))
    return _lift(m, c, scale, out, "lift_rows")[:2]


def _sinhc_deriv_over_r(t):
    """(d/dt sinh(t)/t) / t = (t cosh t - sinh t) / t^3, elementwise.

    Below t = 1e-4 the Taylor series 1/3 + t^2 / 30 replaces the cancelling
    closed form.  Accepts a scalar or an array of nonnegative t.
    """
    t = np.asarray(t, dtype=np.float64)
    small = t < 1e-4
    if not small.any():
        return ((t * np.cosh(t) - np.sinh(t)) / t ** 3)[()]
    safe_t = np.where(small, 1.0, t)
    return np.where(small, 1.0 / 3.0 + t * t / 30.0,
                    (safe_t * np.cosh(safe_t) - np.sinh(safe_t)) / safe_t ** 3)[()]


def _distance_grads(u, t, sc, y, d, w, c: float) -> np.ndarray:
    """sum_j w_ij times the gradient in u_i of d_ij, for each row i, unchecked.

    ``u`` holds the query-side tangent rows and ``t``, ``sc`` their lift
    factors sqrt(c) r and sinh(t) / t from :func:`_lift`; ``y`` holds the
    other side's lifted rows [s_j | time_j] and ``d`` the distances, from
    :func:`_distances`.  With a = sqrt(c), space_i = sc_i u_i and
    h = (t cosh t - sinh t) / t^3, the gradient in u_i of
    cosh(a d_ij) = c (time_i time_j - space_i . s_j) is
    (a^3 sc_i time_j - a^4 h_i (u_i . s_j)) u_i - a^2 sc_i s_j.  With
    v = w / sinh(a d) and [P_s | P_t] = v @ y, one product, the sum is
    (a^2 sc P_t - a^3 h (u . P_s)) u - a sc P_s; at c = 1 no power of a is
    applied.  :func:`distance_gradient` is its checked one-row case.
    """
    a = math.sqrt(c)
    # dd/d(cosh(a d)) = 1 / (a sinh(a d)).
    v = np.sinh(d if c == 1.0 else a * d)
    np.divide(w, v, out=v)
    p = v @ y
    ps, pt = p[:, :-1], p[:, -1]
    g = _sinhc_deriv_over_r(t) * np.einsum("ij,ij->i", u, ps)
    if c != 1.0:
        g *= a ** 3
        sc = a * sc
        pt = a * pt
    grad = (sc * pt - g)[:, None] * u
    grad -= sc[:, None] * ps
    return grad


def distance_gradient(u, w, c: float) -> np.ndarray:
    """Gradient of d(exp_O(u), exp_O(w)) with respect to u: the checked
    one-row case of :func:`_distance_grads`.

    ``u`` and ``w`` are lifted together by :func:`_lift`, so past the
    float64 limit this raises the lift's ValueError, naming
    ``distance_gradient``; their distance comes from :func:`_distances`.
    Undefined at (near-)coincident points, cosh(sqrt(c) d) <= 1 + 1e-12
    (the clip floor included), which raise.
    """
    c = check_curvature(c)
    u = as_vector(u, name="tangent")
    w = as_vector(w, name="tangent")
    if u.shape != w.shape:
        raise ValueError(f"tangent shape mismatch: {u.shape} vs {w.shape}")
    x = np.empty((2, u.size + 1))
    t, sc = _lift(np.stack((u, w)), c, 1.0, x, "distance_gradient")[2:]
    d = _distances(x[:1], _keys(x[1:], c), c)
    if math.sqrt(c) * d[0, 0] <= math.acosh(1.0 + 1e-12):
        raise ValueError(
            f"distance gradient undefined at (near-)coincident points "
            f"(distance {d[0, 0]!r})"
        )
    return _distance_grads(u[None], t[:1], sc[:1], x[1:], d, np.ones((1, 1)), c)[0]
