"""Geodesic attention kernels.

* Oblique attention: queries and keys are row-normalized onto the unit
  sphere by ``oblique._unit_rows``, the row function whose checked column
  case is ``oblique.project``, and scored by negated arccos distances;
  values stay Euclidean.
* Lorentz cross attention: queries and keys are lifted through the
  exponential map at the hyperboloid origin, straight into the score
  product's layout, and weights are softmax(exp(-D/tau)).  The double
  exponential is deliberate: it is not the same function as
  softmax(-D/tau), and it is what is implemented.
* Bidirectional wiring: the Lorentz kernel from instance to context rows
  (oac) and back (cao, mean-pooled over a two-slice context), sharing
  each block's lift and distance pass.

Every kernel, the Euclidean baseline included, runs in one skeleton,
``_multihead``: per head it prepares the key slice once, in the form the
kernel's score product consumes, and scores query rows in blocks of about
``_BLOCK_BYTES`` (1 MiB), each block prepared where it is scored and
written into one score buffer that every block of the call reuses, so
apart from its inputs and its n x dv output a kernel holds
O(rows * m + m * d) memory whatever n is.  One stage, ``softmax_rows``,
the package's only softmax, exps a block in place after a shift and
divides ``E @ v`` (numpy's ``matmul``, a module global that a tracer can
wrap) by the row sums of E, on rows x dv entries, not rows x m.
No kernel spends a pass over the scores on the shift where a bound is
known: Lorentz scores lie in (0, 1] and oblique ones under -floor/tau_obl
< 0, so both use shift 0 (oblique while its scores span less than
``_EXP_SPAN``), and the Euclidean product already subtracts each row's
Cauchy-Schwarz bound, its keys carrying the scale 1/sqrt(d) and the
bound's key factor as an extra column.  Otherwise (a mask, too wide a
span) the shift is the row max.  With a constant shift E serves column
sums too (from BLAS, as ones @ E), so cao accumulates over blocks and is
divided at the end.
Inputs (q, k, v and the mask) are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy import matmul

from . import lorentz, oblique
from .linalg import as_matrix

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
# within this span of its max.
_EXP_SPAN = 700.0


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


def softmax_rows(scores: np.ndarray, vh: np.ndarray,
                 shift: Optional[float]) -> np.ndarray:
    """Row softmax of ``scores`` times ``vh``, as (E @ vh) / rowsum(E).

    E = exp(scores - shift) overwrites ``scores``, which holds E on return;
    with ``vh`` the identity the result is the softmax weights themselves.
    ``shift`` is None for each row's max, or a constant at or above every
    score and within ``_EXP_SPAN`` of every row's max.
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
               prepare_keys: Callable[[np.ndarray], tuple],
               prepare: Callable[[np.ndarray], tuple],
               block_scores: Callable[..., None], shift: Optional[float],
               reverse: Optional[np.ndarray] = None,
               names: tuple = ("q", "k")) -> np.ndarray:
    """Validation, head split, mask, softmax and value product of every kernel.

    Per head, ``prepare_keys(kh)`` runs once on the key slice and returns
    the key arguments of ``block_scores``, already in the form its product
    consumes.  ``prepare(xh)`` returns a tuple of arrays aligned with the
    rows of xh, each row prepared on its own; it runs once per block of
    ``rows = max(1, _BLOCK_BYTES // (8 * m))`` query rows, never on all n.
    One ``min(rows, n) x m`` score buffer serves every block of the call:
    ``block_scores(out, *prepare(query_block), *keys)`` writes a block of
    r rows into ``out``, the buffer's first r rows, the block's mask rows
    are added in place, and ``softmax_rows`` with ``shift`` (the row max
    under a mask) gives its output rows.

    ``names`` name q and k in errors.  Given ``reverse`` (m x d_q zeros),
    a constant shift and no mask, each block's E also adds ``E.T @ q_block``
    to the head's slice of it and its column sums ``ones @ E`` to sums
    that divide it at the end: the key-to-query attention with q as values.
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
    buf = np.empty((min(rows, n), m))
    rev = _head_slices(reverse, cfg.heads) if reverse is not None else [None] * cfg.heads
    for qh, kh, vh, oh, rh in zip(*(_head_slices(a, cfg.heads) for a in (q, k, v, out)), rev):
        kp = prepare_keys(kh)
        colsum = np.zeros(m) if rh is not None else None
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            qb = qh[blk]
            scores = buf[:qb.shape[0]]
            block_scores(scores, *prepare(qb), *kp)
            if mask is not None:
                scores += mask[blk]
            oh[blk] = softmax_rows(scores, vh, shift)
            if rh is not None:
                colsum += np.ones(qb.shape[0]) @ scores
                rh += matmul(scores.T, qb)
        if rh is not None:
            rh /= colsum[:, None]
        del kp  # free this head's keys before the next head prepares its own
    return out


def oblique_attention(q, k, v, cfg: AttentionConfig,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Oblique-distance attention on already-embedded q/k.

    Per head: rows of the q/k slices are projected onto the unit sphere,
    D_ij = arccos(clip(q_i . k_j)), weights = softmax(-D / tau_obl), output
    = weights @ v_head.  tau_obl = 1 reproduces plain softmax(-D).
    """

    def block_scores(out, qn, kn):
        oblique.pairwise_distances(qn, kn, out=out)
        # One multiply by -1/tau: within 1 ulp of d / -tau.
        np.multiply(out, -1.0 / cfg.tau_obl, out=out)

    # Distances lie in [floor, pi - floor]: scores are at most -floor / tau
    # < 0, and each row's max is at least -(pi - floor) / tau.
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    shift = 0.0 if (math.pi - floor) / cfg.tau_obl < _EXP_SPAN else None

    def unit_rows(xh):
        return oblique._unit_rows(xh)[:1]

    return _multihead(q, k, v, cfg, mask, unit_rows, unit_rows, block_scores, shift)


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


def _lorentz_alpha(cfg: AttentionConfig, xh) -> float:
    """The tangent scale: cfg.alpha, or 1/sqrt(head_dim) when it is None."""
    return cfg.alpha if cfg.alpha is not None else 1.0 / math.sqrt(xh.shape[1])


def _lorentz_lift(cfg: AttentionConfig, xh) -> tuple:
    """One head's rows lifted once, with tangent scale alpha, as [s | t]."""
    x = np.empty((xh.shape[0], xh.shape[1] + 1))
    lorentz.lift_rows(xh, cfg.curvature, _lorentz_alpha(cfg, xh), out=x)
    return (x,)


def _lorentz_keys(cfg: AttentionConfig, kh):
    """One head's key slice lifted once and turned, in place, into [-c s | c t]."""
    (x,) = _lorentz_lift(cfg, kh)
    return (lorentz._keys(x, cfg.curvature, out=x),)


def _lorentz_scores(cfg: AttentionConfig, out, x, keys) -> None:
    """exp(-D / tau_lor) of a lifted query block ``x``, written into ``out``."""
    lorentz._distances(x, keys, cfg.curvature, out=out)
    # One multiply by -1/tau: within 1 ulp of d / -tau.
    np.multiply(out, -1.0 / cfg.tau_lor, out=out)
    np.exp(out, out=out)


def lorentz_cross_attention(q, k, v, cfg: AttentionConfig,
                            mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Cross attention through hyperbolic geodesic distances.

    Per head: q/k row slices are lifted onto the hyperboloid with tangent
    scale alpha (default 1/sqrt(head_dim)), D is the pairwise geodesic
    distance matrix, and A = softmax(exp(-D / tau_lor)) - the double
    exponential, exactly as specified.  Values are never lifted.
    """
    # Scores lie in (0, 1]: exp needs no shift.
    return _multihead(q, k, v, cfg, mask, partial(_lorentz_keys, cfg),
                      partial(_lorentz_lift, cfg), partial(_lorentz_scores, cfg), 0.0)


def bidirectional_attention(instance, context, cfg: AttentionConfig):
    """Bidirectional Lorentz wiring.

    oac (object-aware context) attends from instance rows to context rows;
    cao (context-aware object) attends from context rows to instance rows.
    ``context`` may be a single matrix or a sequence of two equally-shaped
    slices; then oac uses the stacked slices as keys and values, and cao
    is computed per slice and mean-pooled over the slice axis.

    Per head, each block of instance rows is lifted and scored against all
    context rows in one distance pass, so memory apart from the inputs and
    outputs is O(rows * m + m * d) whatever the instance count.  The scores
    lie in (0, 1], so E = exp(S) needs no shift and serves both directions:
    oac = (E @ context) / rowsum(E) per block, and cao = (sum of
    E.T @ instance) / (sum of colsum(E)).
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
    oac = _multihead(instance, context, context, cfg, None, partial(_lorentz_keys, cfg),
                     partial(_lorentz_lift, cfg), partial(_lorentz_scores, cfg), 0.0,
                     cao, ("instance", "context"))
    if pooled:
        half = context.shape[0] // 2
        cao = (cao[:half] + cao[half:]) / 2.0
    return oac, cao


def euclidean_attention(q, k, v, cfg: AttentionConfig,
                        mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Plain scaled dot-product attention, the benchmark baseline.

    Per head the keys are packed once as [k / sqrt(d) | -K] with
    K = max_j |k_j| / sqrt(d), so one product of a query block packed as
    [q | |q_i|] gives q.k / sqrt(d) - B_i.  B_i = |q_i| K bounds every
    score of row i (Cauchy-Schwarz), so each row lies in [-2 B_i, 0] and
    the softmax needs no shift while 2 B_i is within ``_EXP_SPAN``.  A
    block with a wider row, or a norm that overflows, takes the plain
    product and its row max instead.
    """

    def prepare_keys(kh):
        keys = np.empty((kh.shape[0], kh.shape[1] + 1))
        scaled = np.divide(kh, math.sqrt(kh.shape[1]), out=keys[:, :-1])
        bound = math.sqrt(np.einsum("ij,ij->i", scaled, scaled).max())
        keys[:, -1] = -bound
        return keys, bound

    def block_scores(out, qb, keys, bound):
        norms = np.sqrt(np.einsum("ij,ij->i", qb, qb))
        # Python floats: an inf or NaN product fails the test without a warning.
        if 2.0 * float(norms.max()) * bound <= _EXP_SPAN:
            packed = np.empty((qb.shape[0], qb.shape[1] + 1))
            packed[:, :-1] = qb
            packed[:, -1] = norms
            np.matmul(packed, keys.T, out=out)
        else:
            np.matmul(qb, keys[:, :-1].T, out=out)
            out -= out.max(axis=1, keepdims=True)

    return _multihead(q, k, v, cfg, mask, prepare_keys, lambda xh: (xh,),
                      block_scores, 0.0)
