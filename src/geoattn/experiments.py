"""Desk-scale geometric studies.

Two experiments:

* Tree embedding - embed a rooted b-ary tree into Euclidean space or the
  Lorentz hyperboloid by stress minimization, and compare distortions.
  Hyperbolic volume grows like sinh^(n-1)(sqrt(c) r), so deep hierarchies
  fit a 2-D hyperbolic plane far better than a 2-D Euclidean one; only the
  inequality between arms is asserted, never absolute values.
* Descent demo - minimize x^T A x with A = diag(1, kappa) once with plain
  gradient descent, once restricted to the unit circle via the oblique
  projection/tangent/retract pipeline.  The sphere restriction isotropizes
  the landscape, giving a near-straight descent path; the demo claims only
  this qualitative effect.

Both experiments are deterministic given their seed, and both compute
without writing a file: ``geoattn`` writes their records.  In the tree
embedding each stress evaluation is one vectorized pairwise-distance pass,
and the gradient at an accepted point reuses that pass instead of computing
the distances again.  An evaluation forms its errors err = d - lam * t in
place from the tree distances t and the phase's scale lam, without a
targets array, so a run holds about 4.2 n x n arrays at its peak: t, one
evaluation's d and err, and one gradient temporary.  Each step searches,
with monotone backtracking, along an L-BFGS direction (Liu & Nocedal 1989)
from the phase's last 8 point and gradient differences, its first trial
capped so that no coordinate moves more than 0.5 (0.5 / sqrt(c) for
Lorentz); a step with no pair yet, a phase's first, takes the gradient
step at ``step_size`` instead, and a search that finds no descent gives
the phase up.  Backtracking cuts a
rejected multiplier to the minimiser of a quadratic fitted to the stress,
its slope along the direction and the rejected trial's stress, clamped to
0.1-0.5 of the old one (Nocedal & Wright 2006, section 3.5).  The step
budget is a cap: the stops that end a phase sooner, and their tolerances,
are stated once, at ``_STALL_RTOL``.  One function, ``_expansion_phase``,
runs every phase and holds the one live evaluation: a phase that does not
give up leaves it to the next, whose targets reuse its distances, and the
last phase's is the final one.  The Lorentz arm takes its lift, keys,
distances (clip floor included) and gradient from lorentz; the gradient is
lorentz._distance_grads with weights err, doubled; the tests check it
against a plain-math per-pair sum and against finite differences.  A trial
point past the lift's float64 limit, or whose distance product overflows,
counts as a rejected trial.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import lorentz, oblique
from .linalg import as_index
from .lorentz import check_curvature

__all__ = [
    "TreeSpec",
    "PhaseTrace",
    "EmbeddingRun",
    "DescentRun",
    "tree_distance_matrix",
    "embed_tree",
    "descent_demo",
]


@dataclass(frozen=True)
class TreeSpec:
    """A complete ``branching``-ary tree of the given depth.

    Both fields must be integers (a ValueError names the field).  Its
    (b^(depth+1) - 1) / (b - 1) nodes are counted in Python ints, and a
    tree whose n x n float64 distance matrix cannot exist (n * n * 8 bytes
    past ``sys.maxsize``) is rejected, so no int64 count can wrap.
    """

    branching: int = 2
    depth: int = 5

    def __post_init__(self):
        b, depth = as_index(self.branching, "branching"), as_index(self.depth, "depth")
        if b < 2:
            raise ValueError(f"branching must be >= 2, got {b}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        nodes = (b ** (depth + 1) - 1) // (b - 1)
        if nodes * nodes * 8 > sys.maxsize:
            count = nodes if nodes < 10 ** 30 else "more than 10^30"
            raise ValueError(
                f"a tree with branching {b} and depth {depth} "
                f"has {count} nodes; an n x n float64 distance matrix of that "
                f"size exceeds sys.maxsize bytes"
            )


@dataclass(frozen=True)
class PhaseTrace:
    """What one expansion phase of :func:`embed_tree` did.

    ``evaluations`` counts stress evaluations at trial points, so it equals
    ``accepted + backoffs + gave_up``; the evaluation at the phase's start
    point is not counted.  ``backoffs`` counts every rejected trial but a
    give-up's last; after each, the line search cuts the multiplier to
    between a tenth and a half of the rejected one.  ``converged`` is 1
    when one of the stops stated at ``_STALL_RTOL`` ended the phase.
    ``gave_up`` is 1 when a line search found no descent; when both are 0
    the phase spent its step budget.  ``final_step`` is the multiplier of
    the last accepted step, after the line search's cuts: at most
    ``step_size`` for a gradient step, at most 1 for a quasi-Newton step,
    and 0 when the phase accepted none.
    """

    lam: float  # scale of the target distances
    accepted: int
    evaluations: int
    backoffs: int
    gave_up: int
    converged: int
    start_stress: float
    end_stress: float
    final_step: float


@dataclass
class EmbeddingRun:
    """Parameters and results of one tree-embedding arm.

    ``step_size`` is the gradient step's first multiplier, taken on a
    phase's first step, which holds no quasi-Newton pair yet.
    Quasi-Newton steps start at multiplier 1 with each coordinate's move
    capped at 0.5 (0.5 / sqrt(c) for Lorentz), so ``step_size`` does not
    scale them.  Each search cuts a rejected multiplier by the quadratic
    model of :func:`_line_search`.  ``steps`` caps the accepted steps of
    the whole run.  ``backtracking`` must be True, the one search there is;
    :func:`embed_tree` rejects False.
    """

    space: str = "lorentz"  # "euclidean" or "lorentz"
    curvature: float = 1.0
    dim: int = 2
    steps: int = 3000
    step_size: float = 0.05
    seed: int = 0
    backtracking: bool = True
    final_distortion: Optional[float] = None
    worst_ratio: Optional[float] = None
    final_stress: Optional[float] = None
    phases: list = field(default_factory=list)  # one PhaseTrace per phase


@dataclass
class DescentRun:
    """Parameters and results of the constrained-descent demo."""

    condition_number: float = 100.0
    tol: float = 1e-6
    seed: int = 0
    iters_unconstrained: Optional[int] = None
    iters_oblique: Optional[int] = None
    converged_unconstrained: bool = False
    converged_oblique: bool = False
    trajectory_unconstrained: list = field(default_factory=list)  # (x, y, f)
    trajectory_oblique: list = field(default_factory=list)


def _seed(value) -> int:
    """``value`` checked as a seed, an integer >= 0; else ValueError naming it."""
    seed = as_index(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def tree_distance_matrix(spec: TreeSpec) -> np.ndarray:
    """Hop-count distances, as float64, for all node pairs.

    Closed form for the complete b-ary tree in BFS numbering, where node i
    has parent (i - 1) // b: hops(i, j) = depth_i + depth_j - 2 depth(lca).
    Row l of the ancestor table holds each node's ancestor at level l
    (-1 at levels deeper than the node), and the lca's depth is one less than
    the number of levels on which two nodes' ancestors agree.  Besides the
    result, the pass holds one n x n bool mask.
    """
    b, levels = spec.branching, spec.depth + 1
    first = (b ** np.arange(levels + 1) - 1) // (b - 1)  # first node of each level
    node = np.arange(first[-1])
    depth = np.searchsorted(first, node, side="right") - 1
    anc = np.empty((levels, node.size), dtype=np.int64)
    anc[-1] = np.where(depth == levels - 1, node, -1)
    for lvl in range(levels - 1, 0, -1):
        # (-1 - 1) // b is -1 again, so the marker passes up unchanged.
        anc[lvl - 1] = np.where(depth == lvl - 1, node, (anc[lvl] - 1) // b)
    # hops = depth_i + depth_j + 2 - 2 (levels matched), in one float64 array
    # whose integers are exact: the sums as the K = 2 product
    # [depth | 1] @ [1 | depth + 2].T, which takes no broadcasting buffer,
    # then 2 off per matched level.
    left, right = np.ones((node.size, 2)), np.ones((2, node.size))
    left[:, 0] = depth
    right[1] = depth + 2
    hops = left @ right
    same = np.empty(hops.shape, dtype=bool)
    for col in anc:
        np.equal.outer(col, col, out=same)
        same[col < 0] = False
        np.subtract(hops, 2.0, out=hops, where=same)
    return hops


class _StressEval(NamedTuple):
    """One stress evaluation: the stress and what its gradient reuses.

    ``parts`` is (c, x, t, sc) for the Lorentz space: the curvature, the
    rows lifted by :func:`lorentz._lift` as [s | t], and their lift
    factors t = sqrt(c) r and sc = sinh(t) / t.  None for Euclidean.
    """

    stress: float
    d: Optional[np.ndarray]    # pairwise distances
    err: Optional[np.ndarray]  # d - lam * t, zero diagonal
    parts: Optional[tuple] = None


def _stress_eval(d, t, lam, parts=None, err=None) -> _StressEval:
    """The stress of distances ``d`` against the targets ``lam * t``.

    err = d - lam * t is formed in ``err`` (a fresh array when None) as
    t * (-lam) + d, with no targets array: negation is exact and
    a + (-b) is a - b in IEEE arithmetic, so the bits are those of the
    subtraction.
    """
    if err is None:
        err = np.empty_like(d)
    np.multiply(t, -lam, out=err)
    err += d
    flat = err.reshape(-1)
    flat[::len(err) + 1] = 0.0  # the diagonal
    stress = 0.5 * float(np.dot(flat, flat))  # each unordered pair once
    return _StressEval(stress, d, err, parts)


def _euclidean_distances(x, t, lam=1.0) -> _StressEval:
    """Stress of ``x`` against ``lam * t`` from one distance pass.

    The n x n squared distances are summed one coordinate column at a time.
    Each column's differences x_ik - x_jk are the K = 2 product
    [x_k | 1] @ [1 | -x_k].T: two exact products and one rounding, so the
    bits of the subtraction, without the two buffers a broadcasting
    subtraction allocates.  The first column's are written into ``d``,
    the others into the array that then holds the evaluation's errors.
    """
    n = len(x)
    d = np.empty((n, n))
    err = np.empty_like(d)
    left, right = np.ones((n, 2)), np.ones((2, n))
    for k in range(x.shape[1]):
        left[:, 0] = x[:, k]
        np.negative(x[:, k], out=right[1])
        sq = np.matmul(left, right, out=err if k else d)
        sq *= sq
        if k:
            d += sq
    np.sqrt(d, out=d)
    return _stress_eval(d, t, lam, err=err)


def _euclidean_stress_grad(x, ev: _StressEval) -> np.ndarray:
    """Stress gradient at ``x`` from its evaluation ``ev``.

    grad_i = sum_j coef_ij (x_i - x_j) = x_i rowsum(coef)_i - (coef @ x)_i
    with coef = 2 err / d, and 0 at coincident points: one row sum and one
    product, doubled at the end (exactly).
    """
    coef = np.zeros_like(ev.d)
    np.divide(ev.err, ev.d, out=coef, where=ev.d > 1e-12)
    grad = x * coef.sum(axis=1)[:, None]
    grad -= coef @ x
    grad *= 2.0
    return grad


def _lorentz_distances(u, t, c, lam=1.0) -> _StressEval:
    """Stress of ``u``'s rows, lifted onto the hyperboloid, against ``lam * t``.

    The rows are lifted once by :func:`lorentz._lift`, straight into the
    [s | t] queries of :func:`lorentz._distances`, and packed as its keys
    by :func:`lorentz._keys`.  A point past the lift's float64 limit has
    infinite stress, so the line search backs off from it, and so has a
    pair of rows each inside the limit whose product -c<x, y>_L overflows
    (opposite rows at sqrt(c) r = 355.5, say), with no warning.
    """
    x = np.empty((u.shape[0], u.shape[1] + 1))
    try:
        factors = lorentz._lift(u, c, 1.0, x, "embed_tree")[2:]
    except ValueError:
        return _StressEval(math.inf, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        d = lorentz._distances(x, lorentz._keys(x, c), c)
    ev = _stress_eval(d, t, lam, (c, x, *factors))
    return ev if math.isfinite(ev.stress) else _StressEval(math.inf, None, None)


def _lorentz_stress_grad(u, ev: _StressEval) -> np.ndarray:
    """Stress gradient at ``u`` from its evaluation ``ev``.

    Row i is sum_j 2 err_ij times the gradient in u_i of d_ij: one call of
    :func:`lorentz._distance_grads` with weights err, which reuses the
    evaluation's lift, lift factors and distances, doubled at the end
    (exactly).  The diagonal's err is 0, so it adds nothing.
    """
    c, x, t, sc = ev.parts
    grad = lorentz._distance_grads(u, t, sc, x, ev.d, ev.err, c)
    grad *= 2.0
    return grad


def _distortion(d: np.ndarray, t: np.ndarray):
    """Mean relative error and worst ratio of ``d`` to ``t`` over the pairs
    i < j, gathered by a bool mask (row-major, the order of
    ``np.triu_indices``) and divided in place."""
    upper = np.tri(len(t), k=-1, dtype=bool).T
    ds, ts = d[upper], t[upper]
    del upper
    ratio = np.subtract(ds, ts)
    np.abs(ratio, out=ratio)
    ratio /= ts
    mean_rel = float(np.mean(ratio))
    with np.errstate(divide="ignore"):
        np.divide(ds, ts, out=ratio)
        np.divide(ts, np.maximum(ds, 1e-300, out=ds), out=ts)
    np.maximum(ratio, ts, out=ratio)
    return mean_rel, float(ratio.max())


def _lbfgs_direction(grad: np.ndarray, pairs) -> np.ndarray:
    """The quasi-Newton direction -H grad, by the two-loop recursion.

    ``pairs`` holds (s, y, 1 / s.y), oldest first, each with s.y > 0, so H
    is positive definite and the direction descends.  The initial inverse
    Hessian is the newest pair's s.y / y.y times the identity (Liu &
    Nocedal, Math. Programming 1989).
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * np.vdot(s, q)
        q -= a * y
        alphas.append(a)
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * np.vdot(y, y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * np.vdot(y, q)) * s
    return np.negative(q, out=q)


def _line_search(evaluate, x, direction, mult, stress, slope):
    """Trial points x + mult * direction, reducing ``mult`` until the
    stress is at most ``stress`` or ``_HALVINGS`` reductions are spent.

    ``slope`` is the stress's derivative along ``direction`` at ``x``.
    After a rejected finite trial at multiplier a with stress f, the next
    multiplier minimises the quadratic through ``stress`` and ``slope`` at
    0 and f at a, -slope a^2 / (2 (f - stress - slope a)), clamped to
    [0.1 a, 0.5 a] (Nocedal & Wright, Numerical Optimization, 2nd ed.,
    section 3.5).  A NaN or infinite trial stress (a Lorentz trial past the
    float64 limit), or a slope that is not negative, halves a instead.

    Returns (trial, evaluation, mult, reductions taken).  The caller holds
    no evaluation while this runs, and a rejected trial's is dropped
    before the next is made, so at most one is alive.
    """
    trial = x + mult * direction
    ev = evaluate(trial)
    tries = 0
    while not ev.stress <= stress and tries < _HALVINGS:
        if slope < 0.0 and math.isfinite(ev.stress):
            fit = -slope * mult * mult / (2.0 * (ev.stress - stress - slope * mult))
            mult = min(max(fit, 0.1 * mult), 0.5 * mult)
        else:
            mult *= 0.5
        trial = x + mult * direction
        ev = None
        ev = evaluate(trial)
        tries += 1
    return trial, ev, mult, tries


# Target distances are ramped up in phases so the layout untangles while
# still small; direct descent on the full-scale targets strands deep trees
# in crossed-branch local minima.
_EXPANSION_PHASES = (0.25, 0.5, 0.75, 1.0)

# The phase rules of embed_tree, stated here once.  The step budget is a
# cap; a phase ends sooner, with PhaseTrace.converged = 1, at either stop:
# * a descending L-BFGS direction d whose full step predicts a decrease
#   -(grad . d) / 2 of at most the phase's tolerance times the stress, before
#   d is searched: the standard quasi-Newton stopping test (Nocedal & Wright
#   2006, ch. 6).  An uphill d is searched, as any other;
# * _STALL_STEPS accepted steps in a row that each changed the stress by at
#   most the tolerance of its value.  A larger change resets the count, so a
#   phase of fewer steps never stops this way.  This window is the only stop
#   of a phase that holds no L-BFGS pair, and it ends phases whose model
#   keeps predicting more decrease than the steps achieve.
# The last phase's tolerance is _STALL_RTOL; the phases before it only
# supply a start point and stop at _PHASE_RTOL (Nocedal & Wright 2006,
# Framework 17.1: loose inner tolerances, tightened at the end).  On the
# depth-5 tree (seeds 0-19, c = 1) these keep the final stress within 2e-11
# relative of running every phase to 750 steps; a one-step window, or 10
# steps at 1e-10, in every phase moved it by about 1e-9.  Of seeds 0-99,
# _PHASE_RTOL = 1e-8 ends 3 Lorentz runs in another local minimum (mean
# distortion unchanged to 4 digits).  Without the window the Lorentz arm took
# 132074 evaluations at c = 30 (seeds 0-19), against 47768, and 226972 at
# c = 1000 (seeds 0-5), against 11609; c = 1 was unchanged.
_STALL_RTOL = 1e-12
_PHASE_RTOL = 1e-8
_STALL_STEPS = 10

# The line search gives up after this many reductions of one step's
# multiplier, each at least a halving.
_HALVINGS = 40

# The quasi-Newton direction of embed_tree: the last _LBFGS_PAIRS (s, y)
# pairs of the phase, and a first trial that moves no coordinate more than
# _MOVE_CAP (Lorentz: _MOVE_CAP / sqrt(c), the same hyperbolic length).
# Without the cap the depth-5 tree at c = 1000, seeds 0-5, ended 13% worse
# (mean distortion 0.6455 against 0.5718).
_LBFGS_PAIRS = 8
_MOVE_CAP = 0.5


def _expansion_phase(x, t, evaluate, gradient, move_cap, steps, step_size):
    """The expansion schedule of :func:`embed_tree` from ``x``: phase i
    descends against lam * t, lam = ``_EXPANSION_PHASES[i]``, for at most
    (steps + i) // 4 accepted steps, so the phases sum to ``steps``, with
    the stops stated at ``_STALL_RTOL``.

    ``ev`` is the one evaluation alive between searches.  Each phase
    re-targets it, its distances serving the new targets instead of a new
    pass and its errors rewritten in place; a give-up drops it, as its last
    evaluation is a rejected trial's, and the next phase evaluates its
    start afresh.  No phase holds a targets array: each evaluation forms
    its errors from ``t`` and lam.  A start whose stress is not finite (a
    Lorentz start past the lift's limit) raises ValueError.  Returns the
    last point, its evaluation against t (None when the last phase gave
    up), and one :class:`PhaseTrace` per phase.  The pairs are freed on
    return.
    """
    phases, ev = [], None
    for i, lam in enumerate(_EXPANSION_PHASES):
        rtol = _STALL_RTOL if i == len(_EXPANSION_PHASES) - 1 else _PHASE_RTOL
        at = functools.partial(evaluate, t=t, lam=lam)
        ev = at(x) if ev is None else _stress_eval(ev.d, t, lam, ev.parts, ev.err)
        stress = start_stress = ev.stress
        if not math.isfinite(stress):
            raise ValueError(
                "stress diverged to NaN/Inf at the start point; try a smaller curvature"
            )
        pairs = deque(maxlen=_LBFGS_PAIRS)  # (s, y, 1 / s.y), oldest first
        last = None  # the last accepted point and its gradient
        accepted = evaluations = backoffs = gave_up = converged = stalled = 0
        final_step = 0.0
        for _ in range((steps + i) // len(_EXPANSION_PHASES)):
            grad = gradient(x, ev)
            if last is not None:
                s, y = x - last[0], grad - last[1]
                sy = float(np.vdot(s, y))
                if sy > 0.0:
                    pairs.append((s, y, 1.0 / sy))
            last = x, grad
            if pairs:
                direction = _lbfgs_direction(grad, pairs)
                slope = float(np.vdot(grad, direction))
                # The first stop stated at _STALL_RTOL; the window below is the second.
                if 0.0 <= -slope <= 2.0 * rtol * stress:
                    converged = 1
                    break
                peak = float(np.abs(direction).max())
                mult = 1.0 if peak <= move_cap else move_cap / peak
            else:
                direction, mult = -grad, step_size
                slope = -float(np.vdot(grad, grad))
            ev = None  # keep one evaluation alive during a search, not two
            trial, ev, mult, tries = _line_search(at, x, direction, mult, stress, slope)
            evaluations += 1 + tries
            backoffs += tries
            if not ev.stress <= stress:
                gave_up, ev = 1, None
                break
            x = trial
            final_step = mult
            change = abs(stress - ev.stress)
            stalled = stalled + 1 if change <= rtol * stress else 0
            stress = ev.stress
            accepted += 1
            if stalled == _STALL_STEPS:
                converged = 1
                break
        phases.append(PhaseTrace(lam, accepted, evaluations, backoffs, gave_up,
                                 converged, start_stress, stress, final_step))
    return x, ev, phases


def embed_tree(spec: TreeSpec, run: EmbeddingRun) -> EmbeddingRun:
    """Minimize stress sum_(i<j) (d_space - d_tree)^2 by L-BFGS with a
    monotone, interpolating backtracking line search.

    Node coordinates (ambient for Euclidean, tangent-at-origin for Lorentz)
    start from a seeded Gaussian.  The step budget is split over a
    progressive-expansion schedule, phase i of 4 taking (steps + i) // 4
    steps, so the phases sum to ``run.steps``: each phase descends against
    scaled-down target distances, ending at the true targets.  The stress
    is non-increasing within a phase.

    Each step searches along one of two directions:

    * the quasi-Newton direction of :func:`_lbfgs_direction`, over the
      phase's last ``_LBFGS_PAIRS`` (8) pairs of point and gradient
      differences (s, y), a pair with s.y <= 0 skipped.  Its first trial
      takes multiplier 1, reduced so that no coordinate moves more than
      ``_MOVE_CAP`` (0.5), or 0.5 / sqrt(c) for Lorentz;
    * the negative gradient, at multiplier ``run.step_size``, while the
      phase holds no pair (its first step).

    Either search cuts a rejected multiplier as :func:`_line_search` says,
    with the slope grad . direction.  The pairs are dropped at every phase
    end, because the targets change.

    ``run.steps`` is a cap, not a count: a phase ends sooner by the stops
    stated at ``_STALL_RTOL``, and gives up when a search spends its
    ``_HALVINGS`` (40) reductions without descent.

    Each stress evaluation is one pairwise-distance pass.  An accepted
    trial point's evaluation is kept and its gradient reuses it, so no
    point's distances are computed twice; a rejected trial's is dropped.
    :func:`_expansion_phase` runs every phase and holds the one live
    evaluation: a phase that does not give up leaves it to the next, which
    only recomputes the errors against its own targets, and the last
    phase's gives the final stress and distortion; after a give-up the
    point is evaluated afresh.
    ``phases`` in the result holds one :class:`PhaseTrace` per phase.
    Deterministic given the seed.  Raises ValueError, naming the field,
    when ``run.dim``, ``run.steps`` or ``run.seed`` is not an integer,
    ``run.seed`` is negative or ``run.backtracking`` is not True, and when
    the seeded start's stress is not finite (a Lorentz start past the
    lift's float64 limit).
    """
    dim, steps = as_index(run.dim, "dim"), as_index(run.steps, "steps")
    seed = _seed(run.seed)
    if dim < 2:
        raise ValueError(f"embedding dim must be >= 2, got {dim}")
    if not (math.isfinite(run.step_size) and run.step_size > 0):
        raise ValueError(f"step_size must be finite and > 0, got {run.step_size}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if run.space not in ("euclidean", "lorentz"):
        raise ValueError(f"unknown space {run.space!r}")
    if run.backtracking is not True:
        raise ValueError(f"backtracking must be True, the one search embed_tree "
                         f"has; got {run.backtracking!r}")
    if run.space == "euclidean":
        evaluate, gradient = _euclidean_distances, _euclidean_stress_grad
        move_cap = _MOVE_CAP
    else:
        c = check_curvature(run.curvature)
        evaluate = functools.partial(_lorentz_distances, c=c)
        gradient = _lorentz_stress_grad
        move_cap = _MOVE_CAP / math.sqrt(c)
    t = tree_distance_matrix(spec)
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=0.1, size=(t.shape[0], dim))

    x, final, phases = _expansion_phase(x, t, evaluate, gradient, move_cap,
                                        steps, run.step_size)
    if final is None:  # the last phase gave up
        final = evaluate(x, t)
    d, stress = final.d, final.stress
    del final  # its errors, so that they are not alive beside _distortion's arrays
    mean_rel, worst = _distortion(d, t)
    return dataclasses.replace(
        run, final_distortion=mean_rel, worst_ratio=worst,
        final_stress=stress, phases=phases,
    )


_DESCENT_MAX_ITERS = 100_000


def _descend(start, value, update, floor: float, tol: float):
    """Record ``value(p)`` = (x, y, f) from p = ``start`` on, stopping once
    f - floor <= tol and else stepping p = ``update(p)``.

    Returns the trajectory, the iteration count and whether it converged
    before ``_DESCENT_MAX_ITERS`` (the count it reports when not).
    """
    p, traj = start, []
    for it in range(_DESCENT_MAX_ITERS + 1):
        traj.append(value(p))
        if traj[-1][2] - floor <= tol:
            return traj, it, True
        p = update(p)
    return traj, _DESCENT_MAX_ITERS, False


def descent_demo(run: DescentRun) -> DescentRun:
    """Run both descent arms on f(x) = x^T diag(1, kappa) x.

    The unconstrained arm descends in the plane until f <= tol.  The
    oblique arm restricts the direction variable to the unit circle and
    descends h(w) = w^T A w via tangent projection + retraction until
    h - lambda_min <= tol (the restricted objective's minimum is
    lambda_min = 1, not 0).  Both arms take the step 1 / (2 kappa).
    Non-convergence at the iteration cap, ``_DESCENT_MAX_ITERS``, is
    flagged, not raised; a seed that is not an integer >= 0 raises ValueError.
    """
    kappa = run.condition_number
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"condition number must be finite and >= 1, got {kappa}")
    if not run.tol >= 0:
        raise ValueError(f"tol must be >= 0, got {run.tol}")
    a_diag = np.array([1.0, kappa])
    step = 1.0 / (2.0 * kappa)
    rng = np.random.default_rng(_seed(run.seed))
    theta = rng.uniform(0.0, 2.0 * math.pi)
    x0 = 2.0 * np.array([math.cos(theta), math.sin(theta)])

    def value(xy):
        return float(xy[0]), float(xy[1]), float(xy @ (a_diag * xy))

    def circle_step(w):
        grad = (2.0 * a_diag * w[:, 0]).reshape(2, 1)
        return oblique.retract(w, oblique.tangent_project(w, -grad), step)

    plane = _descend(x0, value, lambda x: x - step * 2.0 * a_diag * x, 0.0, run.tol)
    # The direction variable on the unit circle.
    circle = _descend(oblique.project(x0.reshape(2, 1))[0], lambda w: value(w[:, 0]),
                      circle_step, float(a_diag.min()), run.tol)
    return dataclasses.replace(
        run, trajectory_unconstrained=plane[0], iters_unconstrained=plane[1],
        converged_unconstrained=plane[2], trajectory_oblique=circle[0],
        iters_oblique=circle[1], converged_oblique=circle[2])
