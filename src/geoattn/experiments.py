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
the distances again.  The Lorentz arm takes its lift and distances, clip
floor included, from lorentz.lift_rows and pairwise_distance_matrix, and
its gradient in those lifted coordinates is, per pair, 2 err_ij *
lorentz.distance_gradient(u_i, u_j, c); the tests check it against that
sum and against finite differences.
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
from .lorentz import _sinhc, _sinhc_deriv_over_r, check_curvature

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
    point is not counted.  ``gave_up`` is 1 when the line search found no
    descent and ended the phase early, else 0.
    """

    lam: float  # scale of the target distances
    accepted: int
    evaluations: int
    backoffs: int
    gave_up: int
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
    step_size: Optional[float] = None  # default 1 / (2 * condition_number)
    seed: int = 0
    max_iters: int = 100_000
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

    ``parts`` is (c, space, time): the curvature and the rows lifted by
    :func:`lorentz.lift_rows` for the Lorentz space, None for Euclidean.
    """

    stress: float
    d: np.ndarray    # pairwise distances
    err: np.ndarray  # d - targets, zero diagonal
    parts: Optional[tuple] = None


def _stress_eval(d, targets, parts=None) -> _StressEval:
    err = d - targets
    np.fill_diagonal(err, 0.0)
    stress = 0.5 * float((err * err).sum())  # each unordered pair once
    return _StressEval(stress, d, err, parts)


def _euclidean_distances(x, targets) -> _StressEval:
    """Stress of ``x`` against ``targets`` from one distance pass.

    The n x n squared distances are summed one coordinate column at a time.
    """
    d = np.zeros((len(x), len(x)))
    for k in range(x.shape[1]):
        dk = x[:, k, None] - x[None, :, k]
        dk *= dk
        d += dk
    np.sqrt(d, out=d)
    return _stress_eval(d, targets)


def _euclidean_stress_grad(x, ev: _StressEval) -> np.ndarray:
    """Stress gradient at ``x`` from its evaluation ``ev``.

    grad_i = sum_j coef_ij (x_i - x_j).  coef is exactly symmetric and the
    difference column exactly antisymmetric, so summing over i (axis 0) and
    negating adds the same terms in the same order as summing over j.
    """
    # coef = 2 err / d, and 0 at coincident points (doubling is exact)
    coef = np.zeros_like(ev.d)
    np.divide(ev.err, ev.d, out=coef, where=ev.d > 1e-12)
    coef *= 2.0
    grad = np.empty_like(x)
    for k in range(x.shape[1]):
        dk = x[:, k, None] - x[None, :, k]
        dk *= coef
        grad[:, k] = dk.sum(axis=0)
    np.negative(grad, out=grad)
    return grad


def _lorentz_distances(u, targets, c) -> _StressEval:
    """Stress of ``u``'s rows, lifted by :func:`lorentz.lift_rows`, against
    ``targets`` from one :func:`lorentz.pairwise_distance_matrix` pass."""
    space, time = lorentz.lift_rows(u, c)
    d = lorentz.pairwise_distance_matrix(space, time, space, time, c)
    return _stress_eval(d, targets, (c, space, time))


def _lorentz_stress_grad(u, ev: _StressEval) -> np.ndarray:
    """Stress gradient at ``u`` from its evaluation ``ev``.

    Per pair this is 2 err_ij times lorentz.distance_gradient(u_i, u_j, c),
    taken in lifted coordinates: with a = sqrt(c), space_i = sc_i u_i
    (sc = sinh(a r)/(a r)) and g = (d/dr sinh(a r)/r) / r, the gradient in
    u_i of cosh(a D_ij) = c (time_i time_j - space_i . space_j) is
    (a^3 sc_i time_j - a g_i (u_i . space_j)) u_i - a^2 sc_i space_j.
    """
    c, space, time = ev.parts
    a = math.sqrt(c)
    # dD/d(cosh(a D)) = 1 / (a sinh(a D)); zero out the (clipped) diagonal.
    w = 2.0 * ev.err / (a * np.sinh(a * ev.d))
    np.fill_diagonal(w, 0.0)
    r = np.sqrt((u * u).sum(axis=1))
    sc, g = _sinhc(a * r), _sinhc_deriv_over_r(r, a)
    p = w @ space
    coef_ui = a ** 3 * sc * (w @ time) - a * g * (u * p).sum(axis=1)
    return coef_ui[:, None] * u - (a * a * sc)[:, None] * p


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


def embed_tree(spec: TreeSpec, run: EmbeddingRun) -> EmbeddingRun:
    """Minimize stress sum_(i<j) (d_space - d_tree)^2 by gradient descent.

    Node coordinates (ambient for Euclidean, tangent-at-origin for Lorentz)
    start from a seeded Gaussian.  The step budget is split evenly over a
    progressive-expansion schedule: each phase descends against scaled-down
    target distances, ending at the true targets.  With backtracking
    enabled the stress is non-increasing within a phase.

    Each stress evaluation is one pairwise-distance pass.  An accepted
    trial point's evaluation is kept and its gradient reuses it, so no
    point's distances are computed twice; a rejected trial's is dropped.
    ``phases`` in the result holds one :class:`PhaseTrace` per phase.
    Deterministic given the seed.
    """
    if run.dim < 2:
        raise ValueError(f"embedding dim must be >= 2, got {run.dim}")
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
        ev = evaluate(x, targets)
        stress = start_stress = ev.stress
        accepted = evaluations = backoffs = gave_up = 0
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
                tries = 0
                while ev.stress > stress and tries < 40:
                    step *= 0.5
                    trial = x - step * grad
                    ev = None
                    ev = evaluate(trial, targets)
                    tries += 1
                evaluations += tries
                backoffs += tries
                if ev.stress > stress:
                    gave_up = 1
                    break  # no descent direction progress left
                if tries == 0:
                    step = min(step * 1.2, run.step_size)
            x = trial
            stress = ev.stress
            accepted += 1
        phases.append(PhaseTrace(lam, accepted, evaluations, backoffs, gave_up,
                                 start_stress, stress, step))

    ev = None
    final = evaluate(x, t)
    mean_rel, worst = _distortion(final.d, t)
    return dataclasses.replace(
        run, final_distortion=mean_rel, worst_ratio=worst,
        final_stress=final.stress, phases=phases,
    )


def descent_demo(run: DescentRun) -> DescentRun:
    """Run both descent arms on f(x) = x^T diag(1, kappa) x.

    The unconstrained arm descends in the plane until f <= tol.  The
    oblique arm restricts the direction variable to the unit circle and
    descends h(w) = w^T A w via tangent projection + retraction until
    h - lambda_min <= tol (the restricted objective's minimum is
    lambda_min = 1, not 0).  Non-convergence at the iteration cap is
    flagged, not raised.
    """
    kappa = run.condition_number
    if kappa < 1:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    a_diag = np.array([1.0, kappa])
    step = run.step_size if run.step_size is not None else 1.0 / (2.0 * kappa)
    rng = np.random.default_rng(run.seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    x0 = 2.0 * np.array([math.cos(theta), math.sin(theta)])

    out = dataclasses.replace(run)

    # Unconstrained arm.
    x = x0.copy()
    traj = []
    iters = None
    for it in range(run.max_iters + 1):
        f = float(x @ (a_diag * x))
        traj.append((float(x[0]), float(x[1]), f))
        if f <= run.tol:
            iters = it
            break
        x = x - step * 2.0 * a_diag * x
    out.trajectory_unconstrained = traj
    out.converged_unconstrained = iters is not None
    out.iters_unconstrained = iters if iters is not None else run.max_iters

    # Oblique arm: direction variable on the unit circle.
    w = oblique.project(x0.reshape(2, 1))
    traj = []
    iters = None
    fmin = float(a_diag.min())
    for it in range(run.max_iters + 1):
        wv = w.inner[:, 0]
        f = float(wv @ (a_diag * wv))
        traj.append((float(wv[0]), float(wv[1]), f))
        if f - fmin <= run.tol:
            iters = it
            break
        grad = (2.0 * a_diag * wv).reshape(2, 1)
        tangent = oblique.tangent_project(w, -grad)
        w = oblique.retract(tangent, step)
    out.trajectory_oblique = traj
    out.converged_oblique = iters is not None
    out.iters_oblique = iters if iters is not None else run.max_iters
    return out


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
