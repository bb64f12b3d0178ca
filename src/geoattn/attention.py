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
``_multihead``, as two stages, over groups of heads whose scores fit in
one block together: g = ``_head_group(heads, m)``, the largest divisor
of ``heads`` with g * rows * m * 8 <= ``_BLOCK_BYTES`` (1 MiB), so four
skinny heads of 64 keys score as one group and a head of 256 keys or
more alone.  A key stage, run once per group, puts the group's key
slices in the form the kernel's score product consumes, and a block
stage prepares a block of the group's query rows, at most
``_BLOCK_ROWS`` (512) rows, where it scores them, into one g x rows x m
score buffer of at most 1 MiB that every block of the call reuses:
``rows = max(1, min(512, _BLOCK_BYTES // (8 * m)))``.  The Lorentz stage
lifts a group's block in one call and scores it in one stacked distance
pass; the others loop over the group's heads.  So apart from its inputs
and its n x dv output a kernel holds O(g * rows * m + m * d) memory
whatever n is.  The row cap keeps a skinny head's products (64 keys, 16
columns) within OpenBLAS's small-matrix path, M * N * K <= 10^6: E @ v
took 34 ns/row at 976 rows and 60 ns/row from 977 rows up (OpenBLAS
0.3.31, 1 thread).  The skeleton then runs ``softmax_rows``, the
package's only softmax, head by head: it exps a head's block in place,
less each row's max where asked, and divides ``E @ v`` (numpy's
``matmul``, a module global that a tracer can wrap) by the row sums of
E (from BLAS, as E @ ones), on rows x dv entries, not rows x m, writing
the quotient straight into the head's output rows.  No kernel spends a pass over the scores on the row max
where a bound is known: Lorentz scores lie in (0, 1] and oblique ones
under -floor/tau_obl < 0, so both exp them as they are (oblique while
its scores span less than ``_EXP_SPAN``), and the Euclidean product
already subtracts each row's Cauchy-Schwarz bound, its keys carrying the
scale 1/sqrt(d) and the bound's key factor as an extra column.
Otherwise (a mask, too wide a span) the row max is subtracted.  Without
it E serves column sums too (from BLAS, as ones @ E), so cao accumulates
over blocks and is divided at the end.
``footprint`` counts the entries a call holds besides its inputs, a head
group's score buffer and keys among them, and ``geoattn bench``'s size
guard adds only its q, k and v to that count.
Inputs (q, k, v and the mask) are never written.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
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

# The largest finite Lorentz distance at c = 1: arccosh of the float64 max.
_ACOSH_MAX = float(np.arccosh(sys.float_info.max))

# exp(-_EXP_SPAN) is a normal float64, so a row whose max is at least
# -_EXP_SPAN keeps a normal row sum without the row max subtracted.
_EXP_SPAN = 700.0


@dataclass(frozen=True)
class AttentionConfig:
    """Shared configuration for the four kernels.

    The clip floors are not settings: they are the constants
    ``oblique.EPS_CLIP`` and ``lorentz.EPS_CLIP``.  Nor is the Lorentz
    tangent scale, always 1/sqrt(head_dim).

    A kernel scores a distance D as D * (-1 / tau), so each temperature
    must keep its kernel's largest distance times 1 / tau finite, or a
    ``ValueError`` names it: pi for oblique (tau_obl >= about 1.7e-308),
    and for Lorentz arccosh(float64 max) / sqrt(c), the largest finite
    distance (tau_lor >= about 4e-306 at c = 1, 1.3e-304 at c = 1e-3).
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
        c = lorentz.check_curvature(self.curvature)
        for name, tau, d_max in (("tau_obl", self.tau_obl, math.pi),
                                 ("tau_lor", self.tau_lor, _ACOSH_MAX / math.sqrt(c))):
            if not math.isfinite(d_max * (1.0 / tau)):
                raise ValueError(
                    f"{name} = {tau} is too small: distances up to {d_max:.6g} "
                    f"times 1/{name} pass the float64 limit; it must be at least "
                    f"about {d_max / sys.float_info.max:.3g}")


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


def _head_slices(x: np.ndarray, heads: int) -> np.ndarray:
    """The head slices of ``x``'s columns as one (heads, rows, d / heads) view."""
    d = x.shape[1]
    if d % heads != 0:
        raise ValueError(f"feature dim {d} is not divisible by {heads} heads")
    return x.reshape(x.shape[0], heads, d // heads).swapaxes(0, 1)


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


def _head_group(heads: int, m: int) -> int:
    """Heads scored together for ``m`` keys: the largest divisor g of
    ``heads`` whose g blocks of ``_block_rows(m)`` rows of scores fit in
    ``_BLOCK_BYTES``, at least 1."""
    fit = _BLOCK_BYTES // (8 * m * _block_rows(m))
    return next((g for g in range(min(heads, fit), 1, -1) if heads % g == 0), 1)


def footprint(n: int, m: int, d: int, heads: int) -> int:
    """Float64 entries one kernel call on n x d queries and m x d keys and
    values in ``heads`` heads holds besides its inputs: the n x d output,
    and for a group of g = ``_head_group(heads, m)`` heads its keys (at
    most m x (d + g)) and the g x ``min(rows, n)`` x m score buffer of
    ``_multihead``, none without keys."""
    if m == 0:
        return n * d
    g = _head_group(heads, m)
    return n * d + m * (d + g) + g * min(_block_rows(m), n) * m


def _multihead(q, k, v, cfg: AttentionConfig, mask: Optional[np.ndarray],
               prepare_keys: Callable[[np.ndarray], Any],
               block_scores: Callable[[np.ndarray, np.ndarray, Any], None],
               row_max: bool, reverse: bool = False, names: tuple = ("q", "k")):
    """Validation, head split, mask, softmax and value product of every kernel.

    The heads run in groups of g = ``_head_group(heads, m)``: the largest
    divisor of ``heads`` whose g blocks of scores fit in ``_BLOCK_BYTES``
    together, so skinny heads (64 keys: g = 4 of 4 heads) share each stage
    call and wide ones (256 keys or more) run one at a time.  A kernel has
    two stages, each given a group's (g, rows, head_dim) slices.  The key
    stage, ``prepare_keys(ks)``, runs once per group on its key slices and
    returns their keys, in whatever form the kernel's score product
    consumes.  The block stage, ``block_scores(out, query_blocks, keys)``,
    runs once per block of ``rows = _block_rows(m) = max(1, min(512,
    _BLOCK_BYTES // (8 * m)))`` query rows of the group, never on all n: it
    prepares the block's rows (each on its own) and writes each head's
    r x m scores into ``out[j]``.  The 512-row cap keeps every product of a
    skinny head's block (64 keys, 16 columns: about 5.2e5 multiply-adds)
    under OpenBLAS's small-matrix bound of M * N * K <= 10^6; at 2048 rows
    each product was packed and took about 1.75x as long.  One
    g x ``min(rows, n)`` x m score buffer serves every block of the call,
    ``out`` being a (g, r, m) view of its start; the block's mask rows are
    added in place, and head by head ``softmax_rows`` with ``row_max``
    (True under a mask) writes its output rows straight into the head's
    slice of the output.

    ``names`` name q and k in errors, and v that is k is checked once, as
    k.  With ``reverse``, no row max and no mask, q needs a row, and the
    call returns (out, rev): each block's E adds ``E.T @ q_block`` to the
    head's slice of the m x d_q ``rev`` and its column sums ``ones @ E`` to
    sums that divide it at the end, the key-to-query attention with q as
    values.
    """
    qn, kn = names
    shared = v is k
    q, k = as_matrix(q, name=qn), as_matrix(k, name=kn)
    v = k if shared else as_matrix(v, name="v")
    if reverse and q.shape[0] == 0:
        raise ValueError(f"{qn} has no rows: both directions need at least "
                         f"one {qn} row and one {kn} row")
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
    heads = cfg.heads
    qs, ks, vs = (_head_slices(a, heads) for a in (q, k, v))
    rows = _block_rows(m)
    mask = _check_mask(mask, (n, m), rows)
    if mask is not None:
        row_max = True
    out = np.empty((n, v.shape[1]))
    outs = _head_slices(out, heads)
    rev = np.zeros((m, q.shape[1])) if reverse else None
    revs = _head_slices(rev, heads) if reverse else None
    g = _head_group(heads, m)
    buf = np.empty(g * min(rows, n) * m)
    for h in range(0, heads, g):
        group = slice(h, h + g)
        keys = prepare_keys(ks[group])
        colsum = np.zeros((g, m)) if reverse else None
        for start in range(0, n, rows):
            blk = slice(start, start + rows)
            qb = qs[group, blk]
            r = qb.shape[1]
            scores = buf[:g * r * m].reshape(g, r, m)
            block_scores(scores, qb, keys)
            if mask is not None:
                scores += mask[blk]
            for j in range(g):
                softmax_rows(scores[j], vs[h + j], row_max, out=outs[h + j, blk])
                if reverse:
                    revs[h + j] += matmul(scores[j].T, qb[j])
            if reverse:
                colsum += np.ones(r) @ scores
        if reverse:
            revs[group] /= colsum[:, :, None]
        del keys  # free this group's keys before the next group prepares its own
    return (out, rev) if reverse else out


def _each_head(prepare_keys, head_scores):
    """A kernel's per-head key and block stages as ``_multihead``'s group
    stages, which loop over the group's heads."""

    def block_scores(out, qb, keys):
        for scores, qh, kh in zip(out, qb, keys):
            head_scores(scores, qh, kh)

    return (lambda ks: [prepare_keys(kh) for kh in ks]), block_scores


def oblique_attention(q, k, v, cfg: AttentionConfig,
                      mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Oblique-distance attention on already-embedded q/k.

    Per head: rows of the q/k slices are projected onto the unit sphere,
    D_ij = arccos(clip(q_i . k_j)), weights = softmax(-D / tau_obl), output
    = weights @ v_head.  tau_obl = 1 reproduces plain softmax(-D).
    """

    def head_scores(out, qb, kn):
        oblique.pairwise_distances(oblique._unit_rows(qb)[0], kn, out=out)
        # One multiply by -1/tau: within 1 ulp of d / -tau.
        np.multiply(out, -1.0 / cfg.tau_obl, out=out)

    # Distances lie in [floor, pi - floor]: scores are at most -floor / tau
    # < 0, and each row's max is at least -(pi - floor) / tau.
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    row_max = (math.pi - floor) / cfg.tau_obl >= _EXP_SPAN
    return _multihead(q, k, v, cfg, mask,
                      *_each_head(lambda kh: oblique._unit_rows(kh)[0], head_scores),
                      row_max)


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


def _lorentz_lift(cfg: AttentionConfig, xs) -> np.ndarray:
    """A head group's (g, r, head_dim) rows lifted in one call as [s | t],
    with tangent scale 1/sqrt(head_dim), returned as a (g, r, head_dim + 1)
    view.  The rows are lifted row by row of the input, head by head within
    a row, so they are read in place where the group spans the input's
    columns, and copied first only where it does not."""
    g, r, dh = xs.shape
    x = np.empty((r, g, dh + 1))
    lorentz.lift_rows(xs.swapaxes(0, 1).reshape(r * g, dh), cfg.curvature,
                      1.0 / math.sqrt(dh), out=x.reshape(r * g, dh + 1))
    return x.swapaxes(0, 1)


def _lorentz_keys(cfg: AttentionConfig, ks) -> np.ndarray:
    """A head group's key slices lifted once and turned, in place, into [-c s | c t]."""
    x = _lorentz_lift(cfg, ks)
    return lorentz._keys(x, cfg.curvature, out=x)


def _lorentz_scores(cfg: AttentionConfig, out, qb, keys) -> None:
    """exp(-D / tau_lor) of a group's query blocks ``qb``, lifted here,
    written into ``out`` in one distance pass."""
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

    Per head group, each block of instance rows is lifted and scored
    against all context rows in one distance pass, so memory apart from the
    inputs and outputs is O(g * rows * m + m * d) whatever the instance
    count.  The scores
    lie in (0, 1], so E = exp(S) needs no row max and serves both directions:
    oac = (E @ context) / rowsum(E) per block, and cao = (sum of
    E.T @ instance) / (sum of colsum(E)).
    This equals separate ``lorentz_cross_attention`` calls per direction
    up to the summation order of those sums.  ``_multihead`` checks the
    instance and the context, once each.
    """
    pooled = isinstance(context, (list, tuple))
    if pooled:
        slices = [as_matrix(s, name="context slice") for s in context]
        if len(slices) != 2 or slices[0].shape != slices[1].shape:
            raise ValueError("two-slice context must be two equally-shaped matrices")
        context = np.concatenate(slices, axis=0)
    oac, cao = _multihead(instance, context, context, cfg, None, partial(_lorentz_keys, cfg),
                          partial(_lorentz_scores, cfg), False, True, ("instance", "context"))
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

    def head_scores(out, qb, keys_bound):
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
            # A row of finite scores can span past the float64 max: its
            # least entries become -inf, and exp gives them weight 0.
            with np.errstate(over="ignore"):
                out -= out.max(axis=1, keepdims=True)

    return _multihead(q, k, v, cfg, mask, *_each_head(prepare_keys, head_scores), False)
