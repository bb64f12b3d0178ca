"""Lorentz hyperboloid model of hyperbolic space with curvature -c.

Points live on the upper sheet of <x, x>_L = -1/c in Minkowski space,
where <x, y>_L = x_space . y_space - x_time * y_time.  All exponential and
logarithmic maps go through the origin O = [0, 1/sqrt(c)]; base points
elsewhere are out of scope.

Numerical conventions:

* The sinc-like factor sinh(t)/t is evaluated by its Taylor series for
  small t, avoiding 0/0.
* The log map uses the identity arcosh(sqrt(1 + s^2)) = asinh(s) with
  s = sqrt(c) * ||x_space||, which is accurate near the origin where the
  printed arcosh/sqrt form loses digits.  Under this curvature-normalized
  reading, log(exp(u)) = u for every c.
* The time component is always recomputed from the space component, never
  trusted from input arithmetic.
* Geodesic distance clips the arcosh argument to [1 + eps, inf) with
  eps = ``EPS_CLIP`` = 1e-15, a fixed constant, so self-distance is
  arcosh(1 + 1e-15)/sqrt(c) ~ 4.47e-8/sqrt(c) (the clip floor), never NaN.
* Tangent vectors at the origin are plain 1-D arrays: ``exp_origin`` and
  ``distance_gradient`` take them and ``log_origin`` returns one.
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

import numpy as np

from .linalg import as_vector

__all__ = [
    "MIN_CURVATURE",
    "EPS_CLIP",
    "LorentzPoint",
    "check_curvature",
    "origin",
    "lorentz_inner",
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


def lorentz_inner(x: LorentzPoint, y: LorentzPoint) -> float:
    """Lorentzian inner product: space dot product minus time product."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return float(np.dot(x.space, y.space) - x.time * y.time)


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
    """
    t = np.asarray(t, dtype=np.float64)
    small = t < 1e-4
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


def _check_lift_limit(t_max: float, c: float, what: str) -> None:
    """Raise ValueError if sqrt(c) r = ``t_max`` lifts past float64.

    A lifted point's squared space norm is sinh^2(sqrt(c) r) / c, which
    overflows once sqrt(c) r passes asinh(sqrt(c * float_max)), about
    355.6 + ln(c) / 2.
    """
    limit = math.asinh(math.sqrt(c) * _SQRT_FLOAT_MAX)
    if t_max > limit:
        raise ValueError(
            f"{what}: largest sqrt(c) * r is {t_max:.6g}, past the float64 "
            f"limit {limit:.6g} at c = {c:g} (r is the scaled row norm)"
        )


def exp_origin(u, c: float) -> LorentzPoint:
    """Exponential map at the origin.

    space = sinh(sqrt(c) r) / (sqrt(c) r) * u with r = ||u||; time is
    recomputed from space.  Past the float64 limit of :func:`lift_rows` it
    raises the same ValueError.
    """
    c = check_curvature(c)
    u = as_vector(u, name="tangent")
    t = math.sqrt(c) * float(np.linalg.norm(u))
    _check_lift_limit(t, c, "exp_origin")
    space = _sinhc(t) * u
    time = math.sqrt(1.0 / c + float(np.dot(space, space)))
    return LorentzPoint(space, time)


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
    """(1/sqrt(c)) arcosh(max(-c <x,y>_L, 1 + EPS_CLIP)).

    The clip keeps the arcosh argument strictly >= 1, so coincident points
    get the floor distance arcosh(1 + eps)/sqrt(c) instead of NaN.
    """
    c = check_curvature(c)
    _require_on_manifold(x, c, "geodesic_distance (first argument)")
    _require_on_manifold(y, c, "geodesic_distance (second argument)")
    arg = max(-c * lorentz_inner(x, y), 1.0 + EPS_CLIP)
    return math.acosh(arg) / math.sqrt(c)


def pairwise_distance_matrix(space_x: np.ndarray, time_x: np.ndarray,
                             space_y: np.ndarray, time_y: np.ndarray,
                             c: float) -> np.ndarray:
    """Pairwise geodesic distances from stacked space/time components.

    The result is a fresh array; every step after the product runs in place
    on it.
    """
    c = check_curvature(c)
    beta = space_x @ space_y.T
    beta -= np.outer(time_x, time_y)
    beta *= -c
    np.maximum(beta, 1.0 + EPS_CLIP, out=beta)
    np.arccosh(beta, out=beta)
    beta /= math.sqrt(c)
    return beta


def lift_rows(m: np.ndarray, c: float, scale: float = 1.0):
    """Lift each row of ``m`` through the exponential map at the origin.

    Returns (space, time) arrays; ``scale`` plays the role of the tangent
    scale alpha.  Vectorized counterpart of mapping each row separately;
    the factor is :func:`_sinhc`, Taylor branch included.

    The squared norm of a lifted row's space part is sinh^2(sqrt(c) r) / c,
    which overflows float64 once sqrt(c) r passes
    asinh(sqrt(c * float_max)), about 355.6 + ln(c) / 2.  A row past that
    limit raises ValueError instead of producing inf or NaN coordinates.
    """
    c = check_curvature(c)
    v = np.asarray(m, dtype=np.float64) * scale
    r = np.sqrt((v * v).sum(axis=1))
    t = math.sqrt(c) * r
    _check_lift_limit(t.max(initial=0.0), c, "lift_rows")
    space = _sinhc(t)[:, None] * v
    time = np.sqrt(1.0 / c + (space * space).sum(axis=1))
    return space, time


def _sinhc_deriv_over_r(r, a: float):
    """(d/dr sinh(a r)/r) / r = (a r cosh(a r) - sinh(a r)) / r^3, elementwise.

    Below a r = 1e-4 the Taylor series a^3 (1/3 + (a r)^2 / 30) replaces the
    cancelling closed form.  Accepts a scalar or an array of nonnegative r.
    """
    r = np.asarray(r, dtype=np.float64)
    t = a * r
    small = t < 1e-4
    safe_r = np.where(small, 1.0, r)
    safe_t = a * safe_r
    return np.where(small, a ** 3 * (1.0 / 3.0 + t * t / 30.0),
                    (safe_t * np.cosh(safe_t) - np.sinh(safe_t)) / safe_r ** 3)[()]


def distance_gradient(u, w, c: float) -> np.ndarray:
    """Gradient of d(exp_O(u), exp_O(w)) with respect to u.

    Writes the arcosh argument as
    beta(u, w) = cosh(a r_u) cosh(a r_w) - (u . w) a^2 S(a r_u) S(a r_w)
    with a = sqrt(c), S(t) = sinh(t)/t, then differentiates
    d = arcosh(beta)/a by the chain rule.  All sinc-like factors keep their
    r -> 0 limits finite.  Undefined at coincident points (the clip floor),
    which raise.
    """
    c = check_curvature(c)
    u = as_vector(u, name="tangent")
    w = as_vector(w, name="tangent")
    if u.shape != w.shape:
        raise ValueError(f"tangent shape mismatch: {u.shape} vs {w.shape}")
    a = math.sqrt(c)
    ru = float(np.linalg.norm(u))
    rw = float(np.linalg.norm(w))
    cu, cw = math.cosh(a * ru), math.cosh(a * rw)
    sc_u = _sinhc(a * ru)  # sinh(a r_u) / (a r_u)
    sc_w = _sinhc(a * rw)
    dot = float(np.dot(u, w))
    beta = cu * cw - dot * a * a * sc_u * sc_w
    if beta <= 1.0 + 1e-12:
        raise ValueError(
            f"distance gradient undefined at (near-)coincident points (beta = {beta!r})"
        )
    grad_beta = (
        a * a * sc_u * cw * u
        - a * a * sc_u * sc_w * w
        - dot * a * sc_w * _sinhc_deriv_over_r(ru, a) * u
    )
    return grad_beta / (a * math.sqrt(beta * beta - 1.0))
