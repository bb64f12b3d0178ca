"""Geodesic attention kernels.

Two mechanisms:

* Oblique self attention - queries and keys are row-normalized onto the
  unit sphere (single-column oblique points), attention scores are the
  negated pairwise arccos distances, values stay Euclidean (v = x).
* Lorentz cross attention - queries and keys are lifted through the
  exponential map at the hyperboloid origin, scores come from hyperbolic
  geodesic distances, and weights are softmax(exp(-D/tau)).  The double
  exponential is deliberate: softmax(exp(-D/tau)) is NOT the same function
  as softmax(-D/tau), and the former is what is implemented here.

Both kernels split the value/output stream across heads; geodesic
distances are computed per head on the head-sliced q/k, with each head's
slice re-projected (oblique) or re-lifted (lorentz).  The bidirectional
wiring runs the Lorentz kernel in both directions: object-aware context
(instance as Q, context as K/V) and context-aware object (context as Q,
instance as K/V), with the latter mean-pooled when a two-slice context is
supplied.  Geodesic distance is symmetric, so both directions share one
lift of each side and one distance pass per head: cao's scores are the
transpose of oac's, and its softmax runs over the columns of oac's score
matrix.

All three kernels, the Euclidean baseline included, share one per-head
skeleton.  Each kernel supplies only a function that returns a fresh n x m
score matrix for one head.  Score matrices are consumed in place: the
temperature, exp and mask steps overwrite that matrix rather than copying
it.  Inputs (q, k, v and the mask) are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import lorentz, oblique
from .linalg import as_matrix, matmul, softmax_rows

__all__ = [
    "AttentionConfig",
    "fourier_pe",
    "default_embed",
    "oblique_attention",
    "oblique_self_attention",
    "lorentz_cross_attention",
    "bidirectional_attention",
    "euclidean_attention",
]

EmbedFn = Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class AttentionConfig:
    """Shared configuration for both kernels.

    ``alpha`` is the tangent scale used when lifting onto the hyperboloid;
    ``None`` means 1/sqrt(head_dim).  ``log_alpha`` may be supplied instead
    and is exponentiated once here (the scale is a stored parameter, not a
    learned one).
    """

    heads: int = 4
    tau_obl: float = 1.0
    tau_lor: float = 0.1
    curvature: float = 1.0
    eps_oblique: float = 1e-4
    eps_lorentz: float = 1e-15
    alpha: Optional[float] = None
    log_alpha: Optional[float] = None

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if not (self.tau_obl > 0 and self.tau_lor > 0):
            raise ValueError(
                f"temperatures must be positive, got tau_obl={self.tau_obl}, "
                f"tau_lor={self.tau_lor}"
            )
        lorentz.check_curvature(self.curvature)
        if self.log_alpha is not None:
            if self.alpha is not None:
                raise ValueError("give either alpha or log_alpha, not both")
            object.__setattr__(self, "alpha", math.exp(self.log_alpha))

    def head_dim(self, d: int) -> int:
        if d % self.heads != 0:
            raise ValueError(
                f"feature dim {d} is not divisible by {self.heads} heads"
            )
        return d // self.heads


def fourier_pe(pos, num_freqs: int, out_dim: Optional[int] = None) -> np.ndarray:
    """3D Fourier positional encoding.

    Per coordinate x and frequency f_j = 2^j (j = 0..num_freqs-1), emits
    sin(f_j x), cos(f_j x), interleaved coordinate-major:
    [sin(f_0 x_0), cos(f_0 x_0), sin(f_1 x_0), ..., sin(f_0 x_1), ...].
    The natural width is 3 * 2 * num_freqs; a different ``out_dim`` is met
    by zero-padding or truncating on the right.
    """
    pos = as_matrix(pos, name="positions")
    if pos.shape[1] != 3:
        raise ValueError(f"positions must be n x 3, got {pos.shape}")
    freqs = 2.0 ** np.arange(num_freqs)
    # shape n x 3 x num_freqs
    phases = pos[:, :, None] * freqs[None, None, :]
    pairs = np.stack([np.sin(phases), np.cos(phases)], axis=-1)
    enc = pairs.reshape(pos.shape[0], 3 * 2 * num_freqs)
    if out_dim is None or out_dim == enc.shape[1]:
        return enc
    if out_dim < enc.shape[1]:
        return enc[:, :out_dim]
    padded = np.zeros((pos.shape[0], out_dim))
    padded[:, : enc.shape[1]] = enc
    return padded


def default_embed(num_freqs: int = 4) -> EmbedFn:
    """Identity-plus-positional-encoding embedding for tests and demos.

    Concatenates the features with the Fourier encoding of the positions;
    with no positions it is the identity.
    """

    def embed(x: np.ndarray, pos: Optional[np.ndarray]) -> np.ndarray:
        x = as_matrix(x, name="features")
        if pos is None:
            return x
        return np.concatenate([x, fourier_pe(pos, num_freqs)], axis=1)

    return embed


def _head_slices(m: np.ndarray, heads: int):
    d = m.shape[1]
    if d % heads != 0:
        raise ValueError(f"feature dim {d} is not divisible by {heads} heads")
    step = d // heads
    return [m[:, h * step:(h + 1) * step] for h in range(heads)]


def _check_mask(mask, shape) -> Optional[np.ndarray]:
    """The additive mask as float64, rejected if it cannot give finite weights.

    A NaN or +inf entry, or a row with no finite entry (every key masked
    out), would make that row's softmax NaN; each raises and names the row.
    """
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {shape}")
    bad = np.isnan(mask) | (mask == np.inf)
    if bad.any():
        row = int(np.flatnonzero(bad.any(axis=1))[0])
        raise ValueError(f"mask row {row} has a NaN or +inf entry")
    empty = ~np.isfinite(mask).any(axis=1)
    if empty.any():
        row = int(np.flatnonzero(empty)[0])
        raise ValueError(f"mask row {row} has no finite entry (every key is masked out)")
    return mask


def _multihead(q, k, v, cfg: AttentionConfig, mask: Optional[np.ndarray],
               head_scores: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Validation, head split, mask, softmax and value product of every kernel.

    ``head_scores(qh, kh)`` returns one head's n x m pre-softmax scores as a
    fresh array, which is consumed here: the mask is added into it in place.
    """
    q = as_matrix(q, name="q")
    k = as_matrix(k, name="k")
    v = as_matrix(v, name="v")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"q/k feature dims differ: {q.shape[1]} vs {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"k has {k.shape[0]} rows but v has {v.shape[0]}")
    mask = _check_mask(mask, (q.shape[0], k.shape[0]))
    outs = []
    for qh, kh, vh in zip(_head_slices(q, cfg.heads),
                          _head_slices(k, cfg.heads),
                          _head_slices(v, cfg.heads)):
        scores = head_scores(qh, kh)
        if mask is not None:
            scores += mask
        outs.append(matmul(softmax_rows(scores), vh))
    return np.concatenate(outs, axis=1)


def oblique_attention(q, k, v, cfg: AttentionConfig,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Oblique-distance attention on already-embedded q/k.

    Per head: rows of the q/k slices are projected onto the unit sphere,
    D_ij = arccos(clip(q_i . k_j)), weights = softmax(-D / tau_obl), output
    = weights @ v_head.  tau_obl = 1 reproduces plain softmax(-D).
    """

    def head_scores(qh, kh):
        qn = oblique.project(qh.T).inner.T
        kn = oblique.project(kh.T).inner.T
        d = oblique.pairwise_distances(qn, kn, cfg.eps_oblique)
        # d / -tau is -d / tau exactly: negation commutes with rounding.
        return np.divide(d, -cfg.tau_obl, out=d)

    return _multihead(q, k, v, cfg, mask, head_scores)


def oblique_self_attention(x, pos, emb: Optional[EmbedFn],
                           cfg: AttentionConfig,
                           mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Self attention: q = k = embedded-and-projected features, v = x."""
    x = as_matrix(x, name="x")
    if emb is None:
        emb = default_embed()
    qk = as_matrix(emb(x, pos), name="embedded features")
    if qk.shape[0] != x.shape[0]:
        raise ValueError(
            f"embedding changed the row count: {x.shape[0]} -> {qk.shape[0]}"
        )
    return oblique_attention(qk, qk, x, cfg, mask=mask)


def _lorentz_scores(qh, kh, cfg: AttentionConfig) -> np.ndarray:
    """One head's Lorentz scores exp(-D / tau_lor) as a fresh n x m array.

    q/k row slices are lifted with tangent scale alpha (default
    1/sqrt(head_dim)); the distance matrix is then consumed in place.
    """
    c = cfg.curvature
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / math.sqrt(qh.shape[1])
    sq, tq = lorentz.lift_rows(qh, c, scale=alpha)
    sk, tk = lorentz.lift_rows(kh, c, scale=alpha)
    d = lorentz.pairwise_distance_matrix(sq, tq, sk, tk, c, cfg.eps_lorentz)
    # d / -tau is -d / tau exactly: negation commutes with rounding.
    np.divide(d, -cfg.tau_lor, out=d)
    return np.exp(d, out=d)


def lorentz_cross_attention(q, k, v, cfg: AttentionConfig,
                            mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Cross attention through hyperbolic geodesic distances.

    Per head: q/k row slices are lifted onto the hyperboloid with tangent
    scale alpha (default 1/sqrt(head_dim)), D is the pairwise geodesic
    distance matrix, and A = softmax(exp(-D / tau_lor)) - the double
    exponential, exactly as specified.  Values are never lifted.
    """
    return _multihead(q, k, v, cfg, mask,
                      lambda qh, kh: _lorentz_scores(qh, kh, cfg))


def bidirectional_attention(instance, context, cfg: AttentionConfig):
    """Bidirectional Lorentz wiring.

    oac (object-aware context) attends from instance rows to context rows;
    cao (context-aware object) attends from context rows to instance rows.
    ``context`` may be a single matrix or a sequence of two equally-shaped
    slices; in the two-slice case oac uses the stacked slices as keys and
    values, and cao is computed per slice and mean-pooled over the slice
    axis.

    Both directions share one distance pass per head.  Geodesic distance
    is symmetric, so cao's score matrix is the transpose of oac's: each
    head lifts the instance slice and the (stacked) context slice once,
    builds one n x m score matrix S = exp(-D / tau_lor), and takes
    oac = softmax_rows(S) @ context and cao = softmax_rows(S.T) @ instance,
    i.e. cao's softmax runs over the columns of S.  The results equal
    separate ``lorentz_cross_attention`` calls per direction up to the
    summation order of the column softmax and the value product.
    """
    instance = as_matrix(instance, name="instance")
    pooled = isinstance(context, (list, tuple))
    if pooled:
        slices = [as_matrix(s, name="context slice") for s in context]
        if len(slices) != 2 or slices[0].shape != slices[1].shape:
            raise ValueError("two-slice context must be two equally-shaped matrices")
        context = np.concatenate(slices, axis=0)
    else:
        context = as_matrix(context, name="context")
    if instance.shape[1] != context.shape[1]:
        raise ValueError(f"instance/context feature dims differ: "
                         f"{instance.shape[1]} vs {context.shape[1]}")
    n_cao = context.shape[0] // 2 if pooled else context.shape[0]
    oac = np.empty(instance.shape)
    cao = np.empty((n_cao, instance.shape[1]))
    step = instance.shape[1] // cfg.heads
    for h, (inst_h, ctx_h) in enumerate(zip(_head_slices(instance, cfg.heads),
                                            _head_slices(context, cfg.heads))):
        cols = slice(h * step, (h + 1) * step)
        scores = _lorentz_scores(inst_h, ctx_h, cfg)
        oac[:, cols] = matmul(softmax_rows(scores), ctx_h)
        out = matmul(softmax_rows(scores.T), inst_h)
        del scores  # free this head's n x m arrays before the next distance pass
        if pooled:
            out = (out[:n_cao] + out[n_cao:]) / 2.0
        cao[:, cols] = out
    return oac, cao


def euclidean_attention(q, k, v, cfg: AttentionConfig,
                        mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain scaled dot-product attention, the benchmark baseline."""

    def head_scores(qh, kh):
        scores = qh @ kh.T
        scores /= math.sqrt(qh.shape[1])
        return scores

    return _multihead(q, k, v, cfg, mask, head_scores)
