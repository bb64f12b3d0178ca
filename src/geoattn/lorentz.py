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
  ``_lift`` also returns its row factors t = sqrt(c) |scale| r and
  sinh(t) / t, which ``_distance_grads`` takes instead of computing them
  again.  A point is one such row [s | t], as a 1-D array.  The point API
  (:func:`exp_origin`, :func:`geodesic_distance`, :func:`distance_gradient`
  and the rest) is its checked one-row case, not an independent oracle
  for it; ``diffcheck``'s scalar loops are.
* Hyperboloid membership is checked with a scale-normalized residual
  |<x,x>_L + 1/c| / max(1, x_time^2).  Far from the origin x_time^2 can
  exceed 1e50 and an absolute residual below rounding error of x_time is
  not representable in float64; the normalized residual coincides with the
  absolute one for points near the origin.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from .linalg import as_index, as_vector

__all__ = [
    "MIN_CURVATURE",
    "EPS_CLIP",
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

# The clip floor at c = 1, as :func:`_distances` computes it: numpy's
# arccosh, which can differ from math.acosh in the last bit.
_D_FLOOR = float(np.arccosh(1.0 + EPS_CLIP))

# Off-manifold tolerance on the (normalized) constraint residual: roomy
# enough for float64 rounding, tight enough to catch construction bugs.
_MEMBERSHIP_TOL = 1e-6


def check_curvature(c: float) -> float:
    """Validate a curvature parameter (the manifold has curvature -c)."""
    c = float(c)
    if not math.isfinite(c) or c < MIN_CURVATURE:
        raise ValueError(f"curvature must satisfy c >= {MIN_CURVATURE}, got {c}")
    return c


def origin(n: int, c: float) -> np.ndarray:
    """The hyperboloid origin O = [0 | 1/sqrt(c)], a row of n + 1 entries."""
    c, n = check_curvature(c), as_index(n, "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return np.append(np.zeros(n), 1.0 / math.sqrt(c))


def _point(x, c: float, name: str, on_sheet: bool):
    """``x`` checked as a finite row [s | t], and its residual: finite, and
    at most ``_MEMBERSHIP_TOL`` with t > 0 ``on_sheet``.  The test is
    NaN-safe: [1e200 | 1e200], whose squares overflow, fails it."""
    x = as_vector(x, name=name)
    if x.size == 0:
        raise ValueError(f"{name} is empty: a point [s | t] has at least its time")
    s, t = x[:-1], float(x[-1])
    with np.errstate(over="ignore"):
        ss = float(np.dot(s, s))
    res = abs(ss - t * t + 1.0 / c) / max(1.0, t * t)
    tol = _MEMBERSHIP_TOL if on_sheet else sys.float_info.max
    if not res <= tol or on_sheet and t <= 0:
        raise ValueError(
            f"{name} is off the hyperboloid (normalized residual {res:.3e}, "
            f"time {t:.6g})"
        )
    return x, res


def hyperboloid_residual(x, c: float) -> float:
    """Scale-normalized membership residual |<x,x>_L + 1/c| / max(1, t^2)
    of the row x = [s | t]; a residual past the float64 limit raises."""
    c = check_curvature(c)
    return _point(x, c, "hyperboloid_residual: x", False)[1]


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


def exp_origin(u, c: float) -> np.ndarray:
    """Exponential map at the origin: the one-row case of :func:`lift_rows`.

    Returns the row [s | t] with s = sinh(sqrt(c) r) / (sqrt(c) r) * u,
    r = ||u||, and t from the same factor.  Past the float64 limit it
    raises the same ValueError as :func:`lift_rows`, naming ``exp_origin``.
    """
    c = check_curvature(c)
    u = as_vector(u, name="exp_origin: u")
    x = np.empty((1, u.size + 1))
    _lift(u[None], c, 1.0, x, "exp_origin")
    return x[0]


def log_origin(x, c: float) -> np.ndarray:
    """Logarithmic map at the origin, inverse of :func:`exp_origin`.

    Returns the tangent vector asinh(q)/q * s of the row x = [s | t],
    with q = sqrt(c) ||s||.  Equals the arcosh form since
    -c <x, O>_L = sqrt(1 + q^2).
    """
    c = check_curvature(c)
    s = _point(x, c, "log_origin: x", True)[0][:-1]
    return _asinhc(math.sqrt(c) * float(np.linalg.norm(s))) * s


def geodesic_distance(x, y, c: float) -> float:
    """Geodesic distance between the rows x and y, the checked one-row case
    of :func:`_distances`, clip floor included."""
    c = check_curvature(c)
    x = _point(x, c, "geodesic_distance: x", True)[0]
    y = _point(y, c, "geodesic_distance: y", True)[0]
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.size - 1} vs {y.size - 1}")
    return float(_distances(x[None], _keys(y[None], c), c)[0, 0])


def pairwise_distance_matrix(space_x: np.ndarray, time_x: np.ndarray,
                             space_y: np.ndarray, time_y: np.ndarray,
                             c: float) -> np.ndarray:
    """Pairwise geodesic distances from stacked space/time components.

    D_ij = (1/sqrt(c)) arcosh(max(-c <x_i, y_j>_L, 1 + EPS_CLIP)).  The clip
    keeps the arcosh argument >= 1, so coincident points get the floor
    distance arcosh(1 + eps)/sqrt(c) instead of NaN.

    The product, clip, arcosh and scale run in :func:`_distances`; this
    wrapper packs both sides for it.  It checks ``c`` but not that the
    components are finite: they come from :func:`lift_rows`.
    """
    c = check_curvature(c)
    keys = np.column_stack((space_y, time_y))
    _keys(keys, c, out=keys)
    return _distances(np.column_stack((space_x, time_x)), keys, c)


def _keys(x: np.ndarray, c: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Lifted rows [s | t], stacked or not, as the keys [-c s | c t] of
    :func:`_distances`, written into ``out`` (``x`` itself for in place) or
    a fresh array."""
    keys = np.multiply(x, -c, out=out)
    np.negative(keys[..., -1], out=keys[..., -1])
    return keys


def _distances(queries: np.ndarray, keys: np.ndarray, c: float,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Distances from lifted queries [s_x | t_x] to keys packed as
    [-c s_y | c t_y], unchecked.

    arcosh(max(queries @ keys.T, 1 + EPS_CLIP)) / sqrt(c), since
    queries @ keys.T = -c <x, y>_L, the product written into ``out`` or a
    fresh array and the rest in place on it; at c = 1 the scale is exact
    and skipped.  Operands may be stacked, (g, n, d + 1) queries against
    (g, m, d + 1) keys giving (g, n, m) distances in one product and one
    pass, each 2-D slice as it would be alone.  The one Lorentz distance
    formula: every caller lifts its rows by :func:`_lift` and packs its
    keys by :func:`_keys`.
    """
    beta = np.matmul(queries, keys.swapaxes(-1, -2), out=out)
    np.maximum(beta, 1.0 + EPS_CLIP, out=beta)
    np.arccosh(beta, out=beta)
    if c != 1.0:
        beta /= math.sqrt(c)
    return beta


def lift_rows(m: np.ndarray, c: float, scale: float = 1.0,
              out: Optional[np.ndarray] = None):
    """Lift each row of ``m`` through the exponential map at the origin.

    Returns (space, time) arrays; ``scale`` is the tangent scale (the
    attention kernels pass 1/sqrt(head_dim)) and must be finite.
    Vectorized counterpart of mapping each row separately; the factor is
    :func:`_sinhc`, Taylor branch included.

    The squared norm of a lifted row's space part is sinh^2(sqrt(c) r) / c,
    which overflows float64 once sqrt(c) r passes
    asinh(sqrt(c * float_max)), about 355.6 + ln(c) / 2.  A row past that
    limit raises ValueError instead of producing inf or NaN coordinates.

    The rows are written once, as [space | time], into ``out`` (n x (d+1),
    numpy-style) or a fresh array, and space and time are its column
    views.  ``m`` is never written.  ``c`` and ``scale`` are checked, but
    not that ``m`` is finite.
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
    applied.  A pair at the clip floor gets v = 0: its distance does not
    move with u, and dividing by sinh(a floor), about 4.7e-8, would
    amplify its weight instead.  :func:`distance_gradient` is its checked
    one-row case.
    """
    a = math.sqrt(c)
    # dd/d(cosh(a d)) = 1 / (a sinh(a d)).
    v = np.sinh(d if c == 1.0 else a * d)
    np.divide(w, v, out=v)
    np.copyto(v, 0.0, where=d <= (_D_FLOOR if c == 1.0 else _D_FLOOR / a))
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
    u = as_vector(u, name="distance_gradient: u")
    w = as_vector(w, name="distance_gradient: w")
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
