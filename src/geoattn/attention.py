"""Geodesic attention kernels.

* Oblique attention: queries and keys are row-normalized onto the unit
  sphere and scored by negated arccos distances; values stay Euclidean.
* Lorentz cross attention: queries and keys are lifted through the
  exponential map at the hyperboloid origin, and weights are
  softmax(exp(-D/tau)).  The double exponential is deliberate: it is not
  the same function as softmax(-D/tau), and it is what is implemented.
* Bidirectional wiring: the Lorentz kernel from instance to context rows
  (oac) and back (cao, mean-pooled over a two-slice context), sharing one
  lift of each side and one distance pass per head.

Every kernel, the Euclidean baseline included, runs in one skeleton,
``_multihead``: per head it prepares the query and key slices once and
scores query rows in blocks of about ``_BLOCK_BYTES`` (1 MiB), so score
temporaries are O(rows * m) whatever n is.  One stage, ``_softmax_value``,
exps a block in place after a shift and divides ``E @ v`` by the row sums
of E, on rows x dv entries rather than rows x m.  The shift is a bound on
the scores where one is known (Lorentz scores lie in (0, 1], oblique ones
under the clip floor), else the row max.  With a constant shift E serves
column sums too, so cao accumulates over blocks and is divided at the
end.  Inputs (q, k, v and the mask) are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from . import lorentz, oblique
# softmax_rows is not called here.  It stays bound because perfbench's
# ``linalg.softmax_rows`` probe wraps ``geoattn.attention.softmax_rows``.
from .linalg import as_matrix, matmul, softmax_rows  # noqa: F401

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

# exp(-_EXP_SPAN) is a normal float64, so no row underflows under a shift
# within this span of its max.  Lorentz scores lie in (0, 1]: no shift.
_EXP_SPAN = 700.0
_LORENTZ_SHIFT = 0.0


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


def _softmax_value(scores: np.ndarray, vh: np.ndarray,
                   shift: Optional[float]) -> np.ndarray:
    """softmax_rows(scores) @ vh as (E @ vh) / rowsum(E), E = exp(scores - shift).

    E overwrites ``scores``.  ``shift`` is None for each row's max, or a
    constant at or above every score and within ``_EXP_SPAN`` of every row's max.
    """
    if shift is None:
        scores -= scores.max(axis=1, keepdims=True)
    elif shift:
        scores -= shift
    np.exp(scores, out=scores)
    out = matmul(scores, vh)
    out /= scores.sum(axis=1, keepdims=True)
    return out


def _multihead(q, k, v, cfg: AttentionConfig, mask: Optional[np.ndarray],
               prepare: Callable[[np.ndarray], tuple],
               block_scores: Callable[..., np.ndarray],
               shift: Optional[float] = None, reverse: Optional[np.ndarray] = None,
               names: tuple = ("q", "k")) -> np.ndarray:
    """Validation, head split, mask, softmax and value product of every kernel.

    Per head, ``prepare(xh)`` runs once on the query slice and once on the
    key slice and returns a tuple of row-aligned arrays.  Query rows are
    taken in blocks of ``max(1, _BLOCK_BYTES // (8 * m))``:
    ``block_scores(*query_block, *keys)`` returns a fresh rows x m score
    array, the block's mask rows are added in place, and ``_softmax_value``
    with ``shift`` (the row max under a mask) gives its output rows.

    ``names`` name q and k in errors.  Given ``reverse`` (m x d_q zeros),
    a constant shift and no mask, each block's E also adds ``E.T @ q_block``
    to the head's slice of it and ``E.sum(0)`` to column sums that divide
    it at the end: the key-to-query attention with q as values.
    """
    qn, kn = names
    q, k, v = as_matrix(q, name=qn), as_matrix(k, name=kn), as_matrix(v, name="v")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"{qn}/{kn} feature dims differ: {q.shape[1]} vs {k.shape[1]}")
    if q.shape[1] == 0:
        raise ValueError(f"{qn} and {kn} have zero-width features: attention needs "
                         "at least one feature column to compare rows")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"k has {k.shape[0]} rows but v has {v.shape[0]}")
    n, m = q.shape[0], k.shape[0]
    if m == 0:
        raise ValueError(f"{kn} has no rows: attention needs at least one key")
    rows = max(1, _BLOCK_BYTES // (8 * m))
    mask = _check_mask(mask, (n, m), rows)
    if mask is not None:
        shift = None
    out = np.empty((n, v.shape[1]))
    rev = _head_slices(reverse, cfg.heads) if reverse is not None else [None] * cfg.heads
    for qh, kh, vh, oh, rh in zip(*(_head_slices(a, cfg.heads) for a in (q, k, v, out)), rev):
        qp, kp = prepare(qh), prepare(kh)
        colsum = np.zeros(m) if rh is not None else None
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            scores = block_scores(*(a[blk] for a in qp), *kp)
            if mask is not None:
                scores += mask[blk]
            oh[blk] = _softmax_value(scores, vh, shift)
            if rh is not None:
                colsum += scores.sum(axis=0)
                rh += matmul(scores.T, qh[blk])
            del scores  # free this block's rows x m arrays before the next one
        if rh is not None:
            rh /= colsum[:, None]
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

    # Distances lie in [floor, pi - floor]: scores are at most -floor / tau,
    # and each row's max is within (pi - floor) / tau of that.
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    shift = -floor / cfg.tau_obl if (math.pi - floor) / cfg.tau_obl < _EXP_SPAN else None
    return _multihead(q, k, v, cfg, mask,
                      lambda xh: (oblique.project(xh.T).inner.T,), block_scores, shift)


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
    """One head's q or k slice lifted as (space, time), scaled by alpha."""
    alpha = cfg.alpha if cfg.alpha is not None else 1.0 / math.sqrt(xh.shape[1])
    return lorentz.lift_rows(xh, cfg.curvature, scale=alpha)


def _lorentz_scores(cfg: AttentionConfig, sq, tq, sk, tk) -> np.ndarray:
    """exp(-D / tau_lor) of lifted rows, computed in place on a fresh D."""
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
                      partial(_lorentz_scores, cfg), _LORENTZ_SHIFT)


def bidirectional_attention(instance, context, cfg: AttentionConfig):
    """Bidirectional Lorentz wiring.

    oac (object-aware context) attends from instance rows to context rows;
    cao (context-aware object) attends from context rows to instance rows.
    ``context`` may be a single matrix or a sequence of two equally-shaped
    slices; then oac uses the stacked slices as keys and values, and cao
    is computed per slice and mean-pooled over the slice axis.

    Per head, blocks of instance rows are scored against all context rows
    in one distance pass.  The scores lie in (0, 1], so E = exp(S) needs
    no shift and serves both directions: oac = (E @ context) / rowsum(E)
    per block, and cao = (sum of E.T @ instance) / (sum of colsum(E)).
    This equals separate ``lorentz_cross_attention`` calls per direction
    up to the summation order of those sums.
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
    if instance.shape[0] == 0:
        raise ValueError("instance has no rows: both directions need at least "
                         "one instance row and one context row")
    cao = np.zeros((context.shape[0], instance.shape[1]))
    oac = _multihead(instance, context, context, cfg, None, partial(_lorentz_lift, cfg),
                     partial(_lorentz_scores, cfg), _LORENTZ_SHIFT, cao,
                     ("instance", "context"))
    if pooled:
        half = context.shape[0] // 2
        cao = (cao[:half] + cao[half:]) / 2.0
    return oac, cao


def euclidean_attention(q, k, v, cfg: AttentionConfig,
                        mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain scaled dot-product attention, the benchmark baseline."""

    def block_scores(qb, kh):
        scores = qb @ kh.T
        scores /= math.sqrt(qb.shape[1])
        return scores

    return _multihead(q, k, v, cfg, mask, lambda xh: (xh,), block_scores)
