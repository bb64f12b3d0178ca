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

Both experiments are deterministic given their seed.  In the tree
embedding each stress evaluation is one vectorized pairwise-distance pass,
and the gradient at an accepted point reuses that pass instead of computing
the distances again.  Its step budget is a cap: each expansion phase ends
once 10 accepted steps in a row have each changed the stress by at most
1e-12 of its value (``_STALL_STEPS``, ``_STALL_RTOL``).  The Lorentz arm
lifts each point once, by lorentz._lift, into the [s | t] queries of
lorentz._distances, which gives its distances, clip floor included; its
gradient in those lifted coordinates reuses the lift's row factors and is,
per pair, 2 err_ij * lorentz.distance_gradient(u_i, u_j, c); the tests
check it against that sum and against finite differences.  A trial point
past the lift's float64 limit counts as a rejected trial.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import lorentz, oblique
from .lorentz import _sinhc_deriv_over_r, check_curvature

__all__ = [
    "TreeSpec",
    "PhaseTrace",
    "EmbeddingRun",
    "DescentRun",
    "tree_distance_matrix",
    "embed_tree",
    "descent_demo",
    "export_trajectories",
]


@dataclass(frozen=True)
class TreeSpec:
    """A complete ``branching``-ary tree of the given depth.

    Its (b^(depth+1) - 1) / (b - 1) nodes are counted in Python ints, and a
    tree whose n x n float64 distance matrix cannot exist (n * n * 8 bytes
    past ``sys.maxsize``) is rejected, so no int64 count can wrap.
    """

    branching: int = 2
    depth: int = 5
    edge_length: float = 1.0

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not (math.isfinite(self.edge_length) and self.edge_length > 0):
            raise ValueError(f"edge_length must be finite and > 0, got {self.edge_length}")
        nodes = (self.branching ** (self.depth + 1) - 1) // (self.branching - 1)
        if nodes * nodes * 8 > sys.maxsize:
            count = nodes if nodes < 10 ** 30 else "more than 10^30"
            raise ValueError(
                f"a tree with branching {self.branching} and depth {self.depth} "
                f"has {count} nodes; an n x n float64 distance matrix of that "
                f"size exceeds sys.maxsize bytes"
            )


@dataclass(frozen=True)
class PhaseTrace:
    """What one expansion phase of :func:`embed_tree` did.

    ``evaluations`` counts stress evaluations at trial points, so it equals
    ``accepted + backoffs + gave_up``; the evaluation at the phase's start
    point is not counted.  ``converged`` is 1 when the stall stop ended the
    phase (``_STALL_STEPS`` accepted steps in a row changed the stress by at
    most ``_STALL_RTOL`` relative), and ``gave_up`` is 1 when the line
    search found no descent; when both are 0 the phase spent its step
    budget.
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
    """Parameters and results of one tree-embedding arm."""

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


def tree_distance_matrix(spec: TreeSpec) -> np.ndarray:
    """Hop-count distances scaled by edge_length, for all node pairs.

    Closed form for the complete b-ary tree in BFS numbering, where node i
    has parent (i - 1) // b: hops(i, j) = depth_i + depth_j - 2 depth(lca).
    Column l of the ancestor table holds each node's ancestor at level l
    (-1 at levels deeper than the node), and the lca's depth is one less than
    the number of levels on which two nodes' ancestors agree.
    """
    b, levels = spec.branching, spec.depth + 1
    first = (b ** np.arange(levels + 1) - 1) // (b - 1)  # first node of each level
    node = np.arange(first[-1])
    depth = np.searchsorted(first, node, side="right") - 1
    anc = np.empty((node.size, levels), dtype=np.int64)
    anc[:, -1] = np.where(depth == levels - 1, node, -1)
    for lvl in range(levels - 1, 0, -1):
        # (-1 - 1) // b is -1 again, so the marker passes up unchanged.
        anc[:, lvl - 1] = np.where(depth == lvl - 1, node, (anc[:, lvl] - 1) // b)
    lca = np.full((node.size, node.size), -1)
    for col in anc.T:
        lca += (col[:, None] == col) & (col >= 0)[:, None]
    return float(spec.edge_length) * (depth[:, None] + depth - 2 * lca)


class _StressEval(NamedTuple):
    """One stress evaluation: the stress and what its gradient reuses.

    ``parts`` is (c, x, t, sc) for the Lorentz space: the curvature, the
    rows lifted by :func:`lorentz._lift` as [s | t], and their lift
    factors t = sqrt(c) r and sc = sinh(t) / t.  None for Euclidean.
    """

    stress: float
    d: Optional[np.ndarray]    # pairwise distances
    err: Optional[np.ndarray]  # d - targets, zero diagonal
    parts: Optional[tuple] = None


def _stress_eval(d, targets, parts=None) -> _StressEval:
    err = d - targets
    flat = err.reshape(-1)
    flat[::len(err) + 1] = 0.0  # the diagonal
    stress = 0.5 * float(np.dot(flat, flat))  # each unordered pair once
    return _StressEval(stress, d, err, parts)


def _euclidean_distances(x, targets) -> _StressEval:
    """Stress of ``x`` against ``targets`` from one distance pass.

    The n x n squared distances are summed one coordinate column at a time,
    each column's differences written into the same buffer.
    """
    d = np.zeros((len(x), len(x)))
    dk = np.empty_like(d)
    for k in range(x.shape[1]):
        np.subtract(x[:, k, None], x[None, :, k], out=dk)
        dk *= dk
        d += dk
    np.sqrt(d, out=d)
    return _stress_eval(d, targets)


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


def _lorentz_distances(u, targets, c) -> _StressEval:
    """Stress of ``u``'s rows, lifted onto the hyperboloid, against ``targets``.

    The rows are lifted once by :func:`lorentz._lift`, straight into the
    [s | t] queries of :func:`lorentz._distances`; its keys [-c s | c t]
    are those rows times [-c ... -c | c].  A point past the lift's float64
    limit has infinite stress, so the line search backs off from it.
    """
    x = np.empty((u.shape[0], u.shape[1] + 1))
    try:
        t, sc = lorentz._lift(u, c, 1.0, x, "embed_tree")[2:]
    except ValueError:
        return _StressEval(math.inf, None, None)
    keys = np.multiply(x, -c)
    np.negative(keys[:, -1], out=keys[:, -1])
    d = lorentz._distances(x, keys, c)
    return _stress_eval(d, targets, (c, x, t, sc))


def _lorentz_stress_grad(u, ev: _StressEval) -> np.ndarray:
    """Stress gradient at ``u`` from its evaluation ``ev``.

    Per pair this is 2 err_ij times lorentz.distance_gradient(u_i, u_j, c),
    taken in lifted coordinates with the lift's own factors: with
    a = sqrt(c), t = a r, sc = sinh(t)/t, space_i = sc_i u_i and
    h = (t cosh t - sinh t) / t^3, the gradient in u_i of
    cosh(a D_ij) = c (time_i time_j - space_i . space_j) is
    (a^3 sc_i time_j - a^4 h_i (u_i . space_j)) u_i - a^2 sc_i space_j.
    With w = err / sinh(a D) and [P_s | P_t] = w @ [space | time], one
    product, the gradient is 2 ((a^2 sc P_t - a^3 h (u . P_s)) u - a sc P_s);
    at c = 1 no power of a is applied.
    """
    c, x, t, sc = ev.parts
    a = math.sqrt(c)
    # dD/d(cosh(a D)) = 1 / (a sinh(a D)); the diagonal's err, so its w, is 0.
    w = np.sinh(ev.d if c == 1.0 else a * ev.d)
    np.divide(ev.err, w, out=w)
    p = w @ x
    ps, pt = p[:, :-1], p[:, -1]
    # h(t) is the derivative helper at a = 1.
    g = _sinhc_deriv_over_r(t, 1.0) * np.einsum("ij,ij->i", u, ps)
    if c != 1.0:
        g *= a ** 3
        sc = a * sc
        pt = a * pt
    grad = (sc * pt - g)[:, None] * u
    grad -= sc[:, None] * ps
    grad *= 2.0
    return grad


def _distortion(d: np.ndarray, t: np.ndarray):
    iu = np.triu_indices_from(t, k=1)
    ds, ts = d[iu], t[iu]
    mean_rel = float(np.mean(np.abs(ds - ts) / ts))
    with np.errstate(divide="ignore"):
        worst = float(np.max(np.maximum(ds / ts, ts / np.maximum(ds, 1e-300))))
    return mean_rel, worst


# Target distances are ramped up in phases so the layout untangles while
# still small; direct descent on the full-scale targets strands deep trees
# in crossed-branch local minima.
_EXPANSION_PHASES = (0.25, 0.5, 0.75, 1.0)

# The stall stop of embed_tree.  On the depth-5 tree (seeds 0-19) these keep
# the final stress within 2e-11 relative of running every phase to 750
# steps; a one-step window, or 10 steps at 1e-10, moved it by about 1e-9.
_STALL_RTOL = 1e-12
_STALL_STEPS = 10


def embed_tree(spec: TreeSpec, run: EmbeddingRun) -> EmbeddingRun:
    """Minimize stress sum_(i<j) (d_space - d_tree)^2 by gradient descent.

    Node coordinates (ambient for Euclidean, tangent-at-origin for Lorentz)
    start from a seeded Gaussian.  The step budget is split evenly over a
    progressive-expansion schedule: each phase descends against scaled-down
    target distances, ending at the true targets.  With backtracking
    enabled the stress is non-increasing within a phase.

    ``run.steps`` is a cap, not a count: a phase also ends once
    ``_STALL_STEPS`` (10) accepted steps in a row have each changed the
    stress by at most ``_STALL_RTOL`` (1e-12) of its value, and when the
    line search finds no descent.  A larger change resets the count, so a
    phase with fewer than ``_STALL_STEPS`` steps never stops this way.

    Each stress evaluation is one pairwise-distance pass.  An accepted
    trial point's evaluation is kept and its gradient reuses it, so no
    point's distances are computed twice; a rejected trial's is dropped.
    ``phases`` in the result holds one :class:`PhaseTrace` per phase.
    Deterministic given the seed.
    """
    if run.dim < 2:
        raise ValueError(f"embedding dim must be >= 2, got {run.dim}")
    if not (math.isfinite(run.step_size) and run.step_size > 0):
        raise ValueError(f"step_size must be finite and > 0, got {run.step_size}")
    if run.steps < 0:
        raise ValueError(f"steps must be >= 0, got {run.steps}")
    if run.space not in ("euclidean", "lorentz"):
        raise ValueError(f"unknown space {run.space!r}")
    if run.space == "euclidean":
        evaluate, gradient = _euclidean_distances, _euclidean_stress_grad
    else:
        c = check_curvature(run.curvature)
        evaluate = functools.partial(_lorentz_distances, c=c)
        gradient = _lorentz_stress_grad
    t = tree_distance_matrix(spec)
    rng = np.random.default_rng(run.seed)
    x = rng.normal(scale=0.1, size=(t.shape[0], run.dim))

    steps_per_phase = -(-run.steps // len(_EXPANSION_PHASES))  # ceil; 0 stays 0
    phases = []
    for lam in _EXPANSION_PHASES:
        targets = lam * t
        step = run.step_size
        ev = None  # keep one evaluation alive, not two
        ev = evaluate(x, targets)
        stress = start_stress = ev.stress
        accepted = evaluations = backoffs = gave_up = converged = stalled = 0
        for _ in range(steps_per_phase):
            if not math.isfinite(stress):
                raise ValueError(
                    "stress diverged to NaN/Inf; try a smaller step_size"
                )
            grad = gradient(x, ev)
            ev = None  # keep one evaluation alive, not two
            trial = x - step * grad
            ev = evaluate(trial, targets)
            evaluations += 1
            if run.backtracking:
                # A NaN or infinite trial stress (a Lorentz trial past the
                # lift's float64 limit) is rejected like a higher one.
                tries = 0
                while not ev.stress <= stress and tries < 40:
                    step *= 0.5
                    trial = x - step * grad
                    ev = None
                    ev = evaluate(trial, targets)
                    tries += 1
                evaluations += tries
                backoffs += tries
                if not ev.stress <= stress:
                    gave_up = 1
                    break  # no descent direction progress left
                if tries == 0:
                    step = min(step * 1.2, run.step_size)
            elif not math.isfinite(ev.stress):
                raise ValueError(
                    "stress diverged to NaN/Inf; try a smaller step_size"
                )
            x = trial
            change = abs(stress - ev.stress)
            stalled = stalled + 1 if change <= _STALL_RTOL * stress else 0
            stress = ev.stress
            accepted += 1
            if stalled == _STALL_STEPS:
                converged = 1
                break
        phases.append(PhaseTrace(lam, accepted, evaluations, backoffs, gave_up,
                                 converged, start_stress, stress, step))

    ev = None
    final = evaluate(x, t)
    mean_rel, worst = _distortion(final.d, t)
    return dataclasses.replace(
        run, final_distortion=mean_rel, worst_ratio=worst,
        final_stress=final.stress, phases=phases,
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
    flagged, not raised.
    """
    kappa = run.condition_number
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"condition number must be finite and >= 1, got {kappa}")
    if not run.tol >= 0:
        raise ValueError(f"tol must be >= 0, got {run.tol}")
    a_diag = np.array([1.0, kappa])
    step = 1.0 / (2.0 * kappa)
    rng = np.random.default_rng(run.seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    x0 = 2.0 * np.array([math.cos(theta), math.sin(theta)])

    def value(xy):
        return float(xy[0]), float(xy[1]), float(xy @ (a_diag * xy))

    def circle_step(w):
        grad = (2.0 * a_diag * w.inner[:, 0]).reshape(2, 1)
        return oblique.retract(oblique.tangent_project(w, -grad), step)

    plane = _descend(x0, value, lambda x: x - step * 2.0 * a_diag * x, 0.0, run.tol)
    # The direction variable on the unit circle.
    circle = _descend(oblique.project(x0.reshape(2, 1)), lambda w: value(w.inner[:, 0]),
                      circle_step, float(a_diag.min()), run.tol)
    return dataclasses.replace(
        run, trajectory_unconstrained=plane[0], iters_unconstrained=plane[1],
        converged_unconstrained=plane[2], trajectory_oblique=circle[0],
        iters_oblique=circle[1], converged_oblique=circle[2])


def export_trajectories(run: DescentRun, out_dir) -> list:
    """Write one ``iter,x,y,f`` CSV per arm into ``out_dir``.

    Returns the written paths.  Values round-trip at 17 significant digits.
    """
    if not os.path.isdir(out_dir):
        raise ValueError(f"output directory does not exist: {out_dir}")
    paths = []
    for name, traj in (
        ("descent_unconstrained.csv", run.trajectory_unconstrained),
        ("descent_oblique.csv", run.trajectory_oblique),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("iter,x,y,f\n")
            for it, (x, y, fv) in enumerate(traj):
                f.write(f"{it},{x:.17g},{y:.17g},{fv:.17g}\n")
        paths.append(path)
    return paths
