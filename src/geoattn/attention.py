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
``_multihead``, as two stages: a key stage, run once per head, puts the
key slice in the form the kernel's score product consumes, and a block
stage prepares a block of query rows, at most ``_BLOCK_BYTES`` (1 MiB) of
scores and at most ``_BLOCK_ROWS`` (512) rows, where it scores them, into
one score buffer that every block of the call reuses: ``rows =
max(1, min(512, _BLOCK_BYTES // (8 * m)))``.  So apart from its inputs
and its n x dv output a kernel holds O(rows * m + m * d) memory whatever
n is.  The row cap keeps a skinny head's products (64 keys, 16 columns)
within OpenBLAS's small-matrix path, M * N * K <= 10^6: E @ v took
34 ns/row at 976 rows and 60 ns/row from 977 rows up (OpenBLAS 0.3.31,
1 thread).  The skeleton then runs ``softmax_rows``, the package's only
softmax: it exps a block in place, less each row's max where asked, and
divides ``E @ v`` (numpy's ``matmul``, a module global that a tracer can
wrap) by the row sums of E (from BLAS, as E @ ones), on rows x dv
entries, not rows x m, writing the quotient straight into the head's
output rows.  No kernel spends a pass over the scores on the row max
where a bound is known: Lorentz scores lie in (0, 1] and oblique ones
under -floor/tau_obl < 0, so both exp them as they are (oblique while
its scores span less than ``_EXP_SPAN``), and the Euclidean product
already subtracts each row's Cauchy-Schwarz bound, its keys carrying the
scale 1/sqrt(d) and the bound's key factor as an extra column.
Otherwise (a mask, too wide a span) the row max is subtracted.  Without
it E serves column sums too (from BLAS, as ones @ E), so cao accumulates
over blocks and is divided at the end.
``footprint`` counts the entries a call holds besides its inputs, and
``geoattn bench``'s size guard adds only its q, k and v to that count.
Inputs (q, k, v and the mask) are never written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Any, Callable, Optional

import numpy as np
from numpy import matmul

from . import lorentz, oblique
from .linalg import as_index, as_matrix

__all__ = [
    "AttentionConfig",
    "fourier_pe",
    "oblique_attention",
    "oblique_self_attention",
    "lorentz_cross_attention",
    "bidirectional_attention",
    "euclidean_attention",
    "footprint",
]

# Target size of one query block's score array; see _multihead.
_BLOCK_BYTES = 1 << 20

# Cap on the query rows of one block, below OpenBLAS's small-matrix
# bound for skinny heads; see _multihead.
_BLOCK_ROWS = 512

# exp(-_EXP_SPAN) is a normal float64, so a row whose max is at least
# -_EXP_SPAN keeps a normal row sum without the row max subtracted.
_EXP_SPAN = 700.0


@dataclass(frozen=True)
class AttentionConfig:
    """Shared configuration for the four kernels.

    The clip floors are not settings: they are the constants
    ``oblique.EPS_CLIP`` and ``lorentz.EPS_CLIP``.  Nor is the Lorentz
    tangent scale, always 1/sqrt(head_dim).
    """

    heads: int = 4
    tau_obl: float = 1.0
    tau_lor: float = 0.1
    curvature: float = 1.0

    def __post_init__(self):
        if as_index(self.heads, "heads") < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if not (self.tau_obl > 0 and self.tau_lor > 0):
            raise ValueError(
                f"temperatures must be positive, got tau_obl={self.tau_obl}, "
                f"tau_lor={self.tau_lor}"
            )
        lorentz.check_curvature(self.curvature)


def fourier_pe(pos, num_freqs: int) -> np.ndarray:
    """3D Fourier positional encoding, n x (3 * 2 * num_freqs).

    Per coordinate x and frequency f_j = 2^j (j = 0..num_freqs-1), emits
    sin(f_j x), cos(f_j x), interleaved coordinate-major:
    [sin(f_0 x_0), cos(f_0 x_0), sin(f_1 x_0), ..., sin(f_0 x_1), ...].
    ``num_freqs`` is an integer >= 0.  Positions whose phase f_j x passes
    the float64 limit raise ValueError, naming the largest |x| and the
    first such j.
    """
    num_freqs = as_index(num_freqs, "num_freqs")
    if num_freqs < 0:
        raise ValueError(f"num_freqs must be >= 0, got {num_freqs}")
    pos = as_matrix(pos, name="positions")
    if pos.shape[1] != 3:
        raise ValueError(f"positions must be n x 3, got {pos.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = 2.0 ** np.arange(num_freqs)
        # shape n x 3 x num_freqs
        phases = pos[:, :, None] * freqs[None, None, :]
    overflow = ~np.isfinite(phases).all(axis=(0, 1))
    if overflow.any():
        raise ValueError(
            f"positions up to |x| = {np.abs(pos).max():.4g} times the frequency "
            f"2^{int(overflow.argmax())} pass the float64 limit "
            f"{np.finfo(np.float64).max:.4g}")
    pairs = np.stack([np.sin(phases), np.cos(phases)], axis=-1)
    return pairs.reshape(pos.shape[0], 3 * 2 * num_freqs)


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


def softmax_rows(scores: np.ndarray, vh: np.ndarray, row_max: bool,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row softmax of ``scores`` times ``vh``, as (E @ vh) / rowsum(E).

    E = exp(scores - each row's max) with ``row_max``, else exp(scores),
    overwrites ``scores``, which holds E on return; with ``vh`` the
    identity the result is the softmax weights themselves.  Without
    ``row_max`` every score must be at most 1 (the kernels' are) and
    every row's max at least -``_EXP_SPAN``.  The row sums come from
    BLAS, as E @ ones, and the quotient is written into ``out`` (any
    rows x dv view, such as a head's output rows) and returned, or into
    a new array without it.  ``_multihead`` passes blocks of at most
    ``_block_rows(m)`` rows (512 for m <= 256 keys), so a skinny head's
    E @ vh stays under OpenBLAS's small-matrix bound, M * N * K <= 10^6.
    """
    if row_max:
        scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    sums = scores @ np.ones(scores.shape[1])
    return np.divide(matmul(scores, vh), sums[:, None], out=out)


def _block_rows(m: int) -> int:
    """Query rows per block for ``m`` keys: at most ``_BLOCK_BYTES`` of
    scores and at most ``_BLOCK_ROWS`` rows, at least one row."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * m)))


def footprint(n: int, m: int, d: int) -> int:
    """Float64 entries one kernel call on n x d queries and m x d keys and
    values holds besides its inputs: the n x d output, one head's keys (at
    most m x (d + 1)) and the ``min(rows, n) x m`` score buffer of
    ``_multihead``, none without keys."""
    scores = min(_block_rows(m), n) * m if m > 0 else 0
    return n * d + m * (d + 1) + scores


def _multihead(q, k, v, cfg: AttentionConfig, mask: Optional[np.ndarray],
               prepare_keys: Callable[[np.ndarray], Any],
               block_scores: Callable[[np.ndarray, np.ndarray, Any], None],
               row_max: bool, reverse: Optional[np.ndarray] = None,
               names: tuple = ("q", "k")) -> np.ndarray:
    """Validation, head split, mask, softmax and value product of every kernel.

    A kernel has two stages.  The key stage, ``prepare_keys(kh)``, runs
    once per head on the key slice and returns its keys, in whatever form
    the kernel's score product consumes.  The block stage,
    ``block_scores(out, query_block, keys)``, runs once per block of
    ``rows = _block_rows(m) = max(1, min(512, _BLOCK_BYTES // (8 * m)))``
    query rows, never on all n: it prepares the block's rows (each on its
    own) and writes their r x m scores into ``out``.  The 512-row cap
    keeps every product of a skinny head's block (64 keys, 16 columns:
    about 5.2e5 multiply-adds) under OpenBLAS's small-matrix bound of
    M * N * K <= 10^6; at 2048 rows each product was packed and took about
    1.75x as long.  One ``min(rows, n) x m`` score buffer serves every
    block of the call, ``out`` being its first r rows; the block's mask
    rows are added in place, and ``softmax_rows`` with ``row_max`` (True
    under a mask) writes its output rows straight into the head's slice
    of the output.

    ``names`` name q and k in errors.  Given ``reverse`` (m x d_q zeros),
    no row max and no mask, each block's E also adds ``E.T @ q_block``
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
    rows = _block_rows(m)
    mask = _check_mask(mask, (n, m), rows)
    if mask is not None:
        row_max = True
    out = np.empty((n, v.shape[1]))
    buf = np.empty((min(rows, n), m))
    rev = _head_slices(reverse, cfg.heads) if reverse is not None else repeat(None)
    for qh, kh, vh, oh, rh in zip(*(_head_slices(a, cfg.heads) for a in (q, k, v, out)), rev):
        keys = prepare_keys(kh)
        colsum = np.zeros(m) if rh is not None else None
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            qb = qh[blk]
            scores = buf[:qb.shape[0]]
            block_scores(scores, qb, keys)
            if mask is not None:
                scores += mask[blk]
            softmax_rows(scores, vh, row_max, out=oh[blk])
            if rh is not None:
                colsum += np.ones(qb.shape[0]) @ scores
                rh += matmul(scores.T, qb)
        if rh is not None:
            rh /= colsum[:, None]
        del keys  # free this head's keys before the next head prepares its own
    return out


def oblique_attention(q, k, v, cfg: AttentionConfig,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Oblique-distance attention on already-embedded q/k.

    Per head: rows of the q/k slices are projected onto the unit sphere,
    D_ij = arccos(clip(q_i . k_j)), weights = softmax(-D / tau_obl), output
    = weights @ v_head.  tau_obl = 1 reproduces plain softmax(-D).
    """

    def block_scores(out, qb, kn):
        oblique.pairwise_distances(oblique._unit_rows(qb)[0], kn, out=out)
        # One multiply by -1/tau: within 1 ulp of d / -tau.
        np.multiply(out, -1.0 / cfg.tau_obl, out=out)

    # Distances lie in [floor, pi - floor]: scores are at most -floor / tau
    # < 0, and each row's max is at least -(pi - floor) / tau.
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    row_max = (math.pi - floor) / cfg.tau_obl >= _EXP_SPAN
    return _multihead(q, k, v, cfg, mask, lambda kh: oblique._unit_rows(kh)[0],
                      block_scores, row_max)


def oblique_self_attention(x, pos, cfg: AttentionConfig,
                           mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Self attention: q = k = [x | fourier_pe(pos, 4)], or x alone when
    ``pos`` is None, and v = x.

    Another embedding is ``qk = emb(x, pos); oblique_attention(qk, qk, x, cfg)``.
    """
    qk = x = as_matrix(x, name="x")
    if pos is not None:
        pe = fourier_pe(pos, 4)
        if pe.shape[0] != x.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but positions have {pe.shape[0]}")
        qk = np.concatenate([x, pe], axis=1)
    return oblique_attention(qk, qk, x, cfg, mask=mask)


def _lorentz_lift(cfg: AttentionConfig, xh) -> np.ndarray:
    """One head's rows lifted once as [s | t], with tangent scale 1/sqrt(head_dim)."""
    x = np.empty((xh.shape[0], xh.shape[1] + 1))
    lorentz.lift_rows(xh, cfg.curvature, 1.0 / math.sqrt(xh.shape[1]), out=x)
    return x


def _lorentz_keys(cfg: AttentionConfig, kh) -> np.ndarray:
    """One head's key slice lifted once and turned, in place, into [-c s | c t]."""
    x = _lorentz_lift(cfg, kh)
    return lorentz._keys(x, cfg.curvature, out=x)


def _lorentz_scores(cfg: AttentionConfig, out, qb, keys) -> None:
    """exp(-D / tau_lor) of a query block ``qb``, lifted here, written into ``out``."""
    lorentz._distances(_lorentz_lift(cfg, qb), keys, cfg.curvature, out=out)
    # One multiply by -1/tau: within 1 ulp of d / -tau.
    np.multiply(out, -1.0 / cfg.tau_lor, out=out)
    np.exp(out, out=out)


def lorentz_cross_attention(q, k, v, cfg: AttentionConfig,
                            mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Cross attention through hyperbolic geodesic distances.

    Per head: q/k row slices are lifted onto the hyperboloid with tangent
    scale 1/sqrt(head_dim), D is the pairwise geodesic
    distance matrix, and A = softmax(exp(-D / tau_lor)) - the double
    exponential, exactly as specified.  Values are never lifted.
    """
    # Scores lie in (0, 1]: exp needs no row max.
    return _multihead(q, k, v, cfg, mask, partial(_lorentz_keys, cfg),
                      partial(_lorentz_scores, cfg), False)


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
    lie in (0, 1], so E = exp(S) needs no row max and serves both directions:
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
                     partial(_lorentz_scores, cfg), False, cao, ("instance", "context"))
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
    the softmax needs no row max while 2 B_i is within ``_EXP_SPAN``.  A
    block with a wider row, or a norm that overflows, takes the plain
    product and its row max instead; a score of that product past the
    float64 limit raises ``ValueError``.
    """

    def prepare_keys(kh):
        keys = np.empty((kh.shape[0], kh.shape[1] + 1))
        scaled = np.divide(kh, math.sqrt(kh.shape[1]), out=keys[:, :-1])
        bound = math.sqrt(np.einsum("ij,ij->i", scaled, scaled).max())
        keys[:, -1] = -bound
        return keys, bound

    def block_scores(out, qb, keys_bound):
        keys, bound = keys_bound
        norms = np.sqrt(np.einsum("ij,ij->i", qb, qb))
        # Python floats: an inf or NaN product fails the test without a warning.
        if 2.0 * float(norms.max()) * bound <= _EXP_SPAN:
            packed = np.empty((qb.shape[0], qb.shape[1] + 1))
            packed[:, :-1] = qb
            packed[:, -1] = norms
            np.matmul(packed, keys.T, out=out)
        else:
            with np.errstate(over="ignore"):
                np.matmul(qb, keys[:, :-1].T, out=out)
            if not np.isfinite(out).all():
                raise ValueError("a score q.k / sqrt(d) is past the float64 limit")
            out -= out.max(axis=1, keepdims=True)

    return _multihead(q, k, v, cfg, mask, prepare_keys, block_scores, False)
