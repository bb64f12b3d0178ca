"""Independent numerical oracles.

Two kinds: central finite differences (checks analytic distance
gradients), and a scalar transliteration of the oblique, Lorentz and
Euclidean attention kernels (checks the optimized ones).  The reference
deliberately shares no code with the optimized paths - plain Python
floats, ``math`` calls, and nested loops only - so an agreement to 1e-12
is meaningful evidence; its scalar Lorentz lift and distance also check
``lorentz``'s row code.  It writes its clip floors, 1e-4 and 1e-15, and
its head check as its own code rather than importing ``oblique.EPS_CLIP``,
``lorentz.EPS_CLIP`` or ``attention``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["finite_diff_gradient", "naive_attention_reference"]

_SIZE_CAP = 256


def finite_diff_gradient(f, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient g_i = (f(x + h e_i) - f(x - h e_i)) / 2h.

    h is ``step``, which must be positive.
    """
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=np.float64)
    h = step
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += h
        fp = f(xp)
        xm = x.copy()
        xm[i] -= h
        fm = f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(
                f"non-finite function value while differencing coordinate {i}: "
                f"f(x+h)={fp}, f(x-h)={fm}"
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def _softmax_row(row):
    m = max(row)
    e = [math.exp(t - m) for t in row]
    s = sum(e)
    return [t / s for t in e]


def _oblique_rows(rows):
    """Row-normalize; zero rows become e1 (mirrors the projection policy)."""
    out = []
    for row in rows:
        norm = math.sqrt(sum(t * t for t in row))
        if norm < 1e-12:
            unit = [0.0] * len(row)
            unit[0] = 1.0
            out.append(unit)
        else:
            out.append([t / norm for t in row])
    return out


# Not imported from the kernels: if either EPS_CLIP changes, the 1e-12 gate fails.
_OBLIQUE_CLIP = 1e-4
_LORENTZ_CLIP = 1e-15


def _oblique_dist(a, b):
    dot = 0.0
    for x, y in zip(a, b):
        dot += x * y
    dot = min(max(dot, -1.0 + _OBLIQUE_CLIP), 1.0 - _OBLIQUE_CLIP)
    return math.acos(dot)


def _lift_row(row, c, scale):
    v = [scale * t for t in row]
    r = math.sqrt(sum(t * t for t in v))
    t = math.sqrt(c) * r
    factor = math.sinh(t) / t if t > 0 else 1.0
    space = [factor * t_ for t_ in v]
    time = math.sqrt(1.0 / c + sum(t_ * t_ for t_ in space))
    return space, time


def _lorentz_dist(p, q, c):
    space_p, time_p = p
    space_q, time_q = q
    inner = -time_p * time_q
    for x, y in zip(space_p, space_q):
        inner += x * y
    arg = max(-c * inner, 1.0 + _LORENTZ_CLIP)
    return math.acosh(arg) / math.sqrt(c)


def naive_attention_reference(q, k, v, space: str, cfg) -> np.ndarray:
    """Scalar ground truth for the three attention kernels.

    ``space`` selects the geometry: "oblique", "lorentz", or "euclidean"
    for scaled dot products; ``cfg`` is an AttentionConfig.  Triple-nested
    scalar loops, per head, small sizes only (n, m <= 256).
    """
    q = [list(map(float, row)) for row in np.asarray(q, dtype=np.float64)]
    k = [list(map(float, row)) for row in np.asarray(k, dtype=np.float64)]
    v = [list(map(float, row)) for row in np.asarray(v, dtype=np.float64)]
    n, m = len(q), len(k)
    if n > _SIZE_CAP or m > _SIZE_CAP:
        raise ValueError(f"reference capped at {_SIZE_CAP} rows, got {n} x {m}")
    if space not in ("oblique", "lorentz", "euclidean"):
        raise ValueError(f"unknown space {space!r}")
    if len(q[0]) % cfg.heads or len(v[0]) % cfg.heads:
        raise ValueError(f"feature dims {len(q[0])} and {len(v[0])} are not "
                         f"divisible by {cfg.heads} heads")
    dq = len(q[0]) // cfg.heads
    dv = len(v[0]) // cfg.heads
    out = [[0.0] * len(v[0]) for _ in range(n)]
    for h in range(cfg.heads):
        qh = [row[h * dq:(h + 1) * dq] for row in q]
        kh = [row[h * dq:(h + 1) * dq] for row in k]
        vh = [row[h * dv:(h + 1) * dv] for row in v]
        if space == "oblique":
            qn = _oblique_rows(qh)
            kn = _oblique_rows(kh)
            scores = [
                [-_oblique_dist(qn[i], kn[j]) / cfg.tau_obl
                 for j in range(m)]
                for i in range(n)
            ]
        elif space == "euclidean":
            scale = math.sqrt(dq)
            scores = [
                [sum(x * y for x, y in zip(qh[i], kh[j])) / scale
                 for j in range(m)]
                for i in range(n)
            ]
        else:
            c = cfg.curvature
            tangent = 1.0 / math.sqrt(dq)
            qp = [_lift_row(row, c, tangent) for row in qh]
            kp = [_lift_row(row, c, tangent) for row in kh]
            scores = [
                [math.exp(-_lorentz_dist(qp[i], kp[j], c) / cfg.tau_lor)
                 for j in range(m)]
                for i in range(n)
            ]
        for i in range(n):
            weights = _softmax_row(scores[i])
            for jj in range(dv):
                acc = 0.0
                for j in range(m):
                    acc += weights[j] * vh[j][jj]
                out[i][h * dv + jj] = acc
    return np.array(out)
