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
query and key slice projected (oblique) or lifted (lorentz) once.  The
bidirectional wiring runs the Lorentz kernel in both directions:
object-aware context (instance as Q, context as K/V) and context-aware
object (context as Q, instance as K/V), with the latter mean-pooled when a
two-slice context is supplied.  Geodesic distance is symmetric, so both
directions share one lift of each side and one distance pass per head:
cao's scores are the transpose of oac's, and its softmax runs over the
columns of oac's score matrix.

All three kernels, the Euclidean baseline included, share one per-head
skeleton that evaluates query rows in blocks.  Each kernel supplies two
functions: one that prepares a head's query or key slice (projection,
lift, or nothing) once per head, and one that returns a fresh rows x m
score block for a block of prepared query rows against all prepared keys.
Softmax is row-local, so blocking is exact.  A block holds about
``_BLOCK_BYTES`` (1 MiB) of scores, so a head's score temporaries are
O(rows * m) whatever the number of queries.  Score blocks are consumed in
place: the temperature, exp and mask steps overwrite that block rather
than copying it.  Inputs (q, k, v and the mask) are never written.
``bidirectional_attention`` is not blocked: its reverse direction
normalizes over full columns of the score matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

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

# Target size of one query block's score array; see _multihead.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class AttentionConfig:
    """Shared configuration for both kernels.

    ``alpha`` is the tangent scale used when lifting onto the hyperboloid:
    finite and > 0, or ``None`` for 1/sqrt(head_dim).  The clip floors are
    not settings: they are the constants ``oblique.EPS_CLIP`` and
    ``lorentz.EPS_CLIP``.
    """

    heads: int = 4
    tau_obl: float = 1.0
    tau_lor: float = 0.1
    curvature: float = 1.0
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if not (self.tau_obl > 0 and self.tau_lor > 0):
            raise ValueError(
                f"temperatures must be positive, got tau_obl={self.tau_obl}, "
                f"tau_lor={self.tau_lor}"
            )
        lorentz.check_curvature(self.curvature)
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be None or finite and > 0, got {self.alpha}")


def fourier_pe(pos, num_freqs: int) -> np.ndarray:
    """3D Fourier positional encoding, n x (3 * 2 * num_freqs).

    Per coordinate x and frequency f_j = 2^j (j = 0..num_freqs-1), emits
    sin(f_j x), cos(f_j x), interleaved coordinate-major:
    [sin(f_0 x_0), cos(f_0 x_0), sin(f_1 x_0), ..., sin(f_0 x_1), ...].
    """
    pos = as_matrix(pos, name="positions")
    if pos.shape[1] != 3:
        raise ValueError(f"positions must be n x 3, got {pos.shape}")
    freqs = 2.0 ** np.arange(num_freqs)
    # shape n x 3 x num_freqs
    phases = pos[:, :, None] * freqs[None, None, :]
    pairs = np.stack([np.sin(phases), np.cos(phases)], axis=-1)
    return pairs.reshape(pos.shape[0], 3 * 2 * num_freqs)


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


def _check_mask(mask, shape, rows: int) -> Optional[np.ndarray]:
    """The additive mask as float64, rejected if it cannot give finite weights.

    A NaN or +inf entry, or a row with no finite entry (every key masked
    out), would make that row's softmax NaN; each raises and names the
    first such row, NaN or +inf taking precedence.  The mask is checked
    ``rows`` rows at a time, so its temporaries do not grow with n.
    """
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {shape}")
    empty_row = None
    for start in range(0, shape[0], rows):
        blk = mask[start:start + rows]
        bad = (np.isnan(blk) | (blk == np.inf)).any(axis=1)
        if bad.any():
            row = start + int(np.argmax(bad))
            raise ValueError(f"mask row {row} has a NaN or +inf entry")
        empty = ~np.isfinite(blk).any(axis=1)
        if empty_row is None and empty.any():
            empty_row = start + int(np.argmax(empty))
    if empty_row is not None:
        raise ValueError(
            f"mask row {empty_row} has no finite entry (every key is masked out)")
    return mask


def _multihead(q, k, v, cfg: AttentionConfig, mask: Optional[np.ndarray],
               prepare: Callable[[np.ndarray], tuple],
               block_scores: Callable[..., np.ndarray]) -> np.ndarray:
    """Validation, head split, mask, softmax and value product of every kernel.

    Per head, ``prepare(xh)`` runs once on the query slice and once on the
    key slice and returns a tuple of row-aligned arrays (the projected or
    lifted rows).  Query rows are then taken in blocks of
    ``max(1, _BLOCK_BYTES // (8 * m))`` rows: ``block_scores(*query_block,
    *keys)`` returns that block's rows x m pre-softmax scores as a fresh
    array, the block's mask rows are added into it in place, and its
    softmax and value product are written into the output.  Softmax is
    row-local, so blocking is exact; the per-head score temporaries are
    O(rows * m), about ``_BLOCK_BYTES`` each, whatever n is.
    """
    q = as_matrix(q, name="q")
    k = as_matrix(k, name="k")
    v = as_matrix(v, name="v")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"q/k feature dims differ: {q.shape[1]} vs {k.shape[1]}")
    if q.shape[1] == 0:
        raise ValueError("q and k have zero-width features: attention needs at "
                         "least one feature column to compare rows")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"k has {k.shape[0]} rows but v has {v.shape[0]}")
    n, m = q.shape[0], k.shape[0]
    if m == 0:
        raise ValueError("k has no rows: attention needs at least one key")
    rows = max(1, _BLOCK_BYTES // (8 * m))
    mask = _check_mask(mask, (n, m), rows)
    out = np.empty((n, v.shape[1]))
    for qh, kh, vh, oh in zip(_head_slices(q, cfg.heads), _head_slices(k, cfg.heads),
                              _head_slices(v, cfg.heads), _head_slices(out, cfg.heads)):
        qp, kp = prepare(qh), prepare(kh)
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            scores = block_scores(*(a[blk] for a in qp), *kp)
            if mask is not None:
                scores += mask[blk]
            oh[blk] = matmul(softmax_rows(scores), vh)
            del scores  # free this block's rows x m arrays before the next one
    return out


def oblique_attention(q, k, v, cfg: AttentionConfig,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Oblique-distance attention on already-embedded q/k.

    Per head: rows of the q/k slices are projected onto the unit sphere,
    D_ij = arccos(clip(q_i . k_j)), weights = softmax(-D / tau_obl), output
    = weights @ v_head.  tau_obl = 1 reproduces plain softmax(-D).
    """

    def block_scores(qn, kn):
        d = oblique.pairwise_distances(qn, kn)
        # d / -tau is -d / tau exactly: negation commutes with rounding.
        return np.divide(d, -cfg.tau_obl, out=d)

    return _multihead(q, k, v, cfg, mask,
                      lambda xh: (oblique.project(xh.T).inner.T,), block_scores)


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


def _lorentz_lift(cfg: AttentionConfig, xh):
    """One head's q or k slice lifted onto the hyperboloid as (space, time).

    The tangent scale is alpha, default 1/sqrt(head_dim).
    """
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / math.sqrt(xh.shape[1])
    return lorentz.lift_rows(xh, cfg.curvature, scale=alpha)


def _lorentz_scores(cfg: AttentionConfig, sq, tq, sk, tk) -> np.ndarray:
    """Lorentz scores exp(-D / tau_lor) of lifted rows as a fresh n x m array.

    The distance matrix is consumed in place.
    """
    d = lorentz.pairwise_distance_matrix(sq, tq, sk, tk, cfg.curvature)
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
    return _multihead(q, k, v, cfg, mask, partial(_lorentz_lift, cfg),
                      partial(_lorentz_scores, cfg))


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
    if instance.shape[1] == 0:
        raise ValueError("instance and context have zero-width features: both "
                         "directions need at least one feature column")
    for name, side in (("instance", instance), ("context", context)):
        if side.shape[0] == 0:
            raise ValueError(f"{name} has no rows: both directions need at "
                             f"least one instance row and one context row")
    n_cao = context.shape[0] // 2 if pooled else context.shape[0]
    oac = np.empty(instance.shape)
    cao = np.empty((n_cao, instance.shape[1]))
    for inst_h, ctx_h, oac_h, cao_h in zip(
            _head_slices(instance, cfg.heads), _head_slices(context, cfg.heads),
            _head_slices(oac, cfg.heads), _head_slices(cao, cfg.heads)):
        scores = _lorentz_scores(cfg, *_lorentz_lift(cfg, inst_h),
                                 *_lorentz_lift(cfg, ctx_h))
        oac_h[:] = matmul(softmax_rows(scores), ctx_h)
        out = matmul(softmax_rows(scores.T), inst_h)
        del scores  # free this head's n x m arrays before the next distance pass
        cao_h[:] = (out[:n_cao] + out[n_cao:]) / 2.0 if pooled else out
    return oac, cao


def euclidean_attention(q, k, v, cfg: AttentionConfig,
                        mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain scaled dot-product attention, the benchmark baseline."""

    def block_scores(qb, kh):
        scores = qb @ kh.T
        scores /= math.sqrt(qb.shape[1])
        return scores

    return _multihead(q, k, v, cfg, mask, lambda xh: (xh,), block_scores)
