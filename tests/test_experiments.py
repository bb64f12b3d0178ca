import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest

import geoattn
from geoattn import experiments, lorentz
from geoattn.diffcheck import _lift_row, _lorentz_dist, finite_diff_gradient
from geoattn.experiments import (DescentRun, EmbeddingRun, TreeSpec,
                                 descent_demo, embed_tree, export_trajectories,
                                 tree_distance_matrix)


def test_tree_distance_matrix_depth1():
    t = tree_distance_matrix(TreeSpec(branching=2, depth=1))
    want = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=float)
    assert np.array_equal(t, want)


def test_tree_distance_matrix_shape_and_symmetry():
    spec = TreeSpec(branching=3, depth=2, edge_length=0.5)
    t = tree_distance_matrix(spec)
    assert t.shape == (13, 13)  # 1 + 3 + 9 nodes
    assert np.array_equal(t, t.T)
    assert t.max() == 0.5 * 4  # leaf to leaf through the root


def _bfs_tree_distances(spec):
    """Plain-Python oracle: grow the tree frontier by frontier, then BFS."""
    adj = {0: []}
    frontier = [0]
    for _ in range(spec.depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(spec.branching):
                child = len(adj)
                adj[child] = [parent]
                adj[parent].append(child)
                new_frontier.append(child)
        frontier = new_frontier
    n = len(adj)
    t = np.zeros((n, n))
    for src in range(n):
        hops = {src: 0}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nb in adj[node]:
                if nb not in hops:
                    hops[nb] = hops[node] + 1
                    queue.append(nb)
        for dst, h in hops.items():
            t[src, dst] = spec.edge_length * h
    return t


@pytest.mark.parametrize("branching, depth, edge_length", [
    (2, 1, 1.0), (2, 5, 1.0), (3, 2, 0.5), (3, 4, 1.0), (4, 3, 1.0),
    (2, 8, 1.0), (5, 2, 1.0),
])
def test_tree_distance_matrix_matches_bfs(branching, depth, edge_length):
    spec = TreeSpec(branching=branching, depth=depth, edge_length=edge_length)
    assert np.array_equal(tree_distance_matrix(spec), _bfs_tree_distances(spec))


def test_import_loads_no_third_party_module_but_numpy():
    # A fresh interpreter, so modules loaded by other tests do not count.
    src = os.path.dirname(os.path.dirname(geoattn.__file__))
    probe = (
        "import sys, numpy; before = set(sys.modules); import geoattn; "
        "new = {name.split('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'geoattn'}))"
    )
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


def test_spec_validation():
    with pytest.raises(ValueError, match="branching"):
        TreeSpec(branching=1)
    with pytest.raises(ValueError, match="depth"):
        TreeSpec(depth=0)
    for edge_length in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="edge_length"):
            TreeSpec(edge_length=edge_length)


@pytest.mark.parametrize("branching, depth, nodes", [
    (2, 63, 2 ** 64 - 1),                  # wrapped to 0 nodes in int64
    (3, 40, (3 ** 41 - 1) // 2),           # wrapped to a negative count
    (10, 19, (10 ** 20 - 1) // 9),         # wrapped to a bogus 8.6e17
    (2, 30, 2 ** 31 - 1),                  # fits int64, but not n * n * 8 bytes
])
def test_spec_rejects_trees_too_large_for_float64_matrix(branching, depth, nodes):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"branching {branching} and depth "
                                             rf"{depth} has {nodes} nodes"):
            TreeSpec(branching=branching, depth=depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # the check allocates no array


def test_euclidean_stress_grad_matches_fd():
    rng = np.random.default_rng(0)
    t = tree_distance_matrix(TreeSpec(depth=1))
    x = rng.normal(size=(3, 2))

    def stress(flat):
        return experiments._euclidean_distances(flat.reshape(3, 2), t).stress

    grad = experiments._euclidean_stress_grad(
        x, experiments._euclidean_distances(x, t))
    fd = finite_diff_gradient(stress, x.ravel()).reshape(3, 2)
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5


def test_euclidean_stress_grad_is_sum_over_pairs():
    # grad_i = sum_j 2 err_ij (x_i - x_j) / d_ij, pair by pair, with the
    # coefficient of a coincident pair (here nodes 5 and 6) taken as 0.
    rng = np.random.default_rng(5)
    t = tree_distance_matrix(TreeSpec(depth=2))
    x = rng.normal(size=(t.shape[0], 2))
    x[6] = x[5]
    got = experiments._euclidean_stress_grad(x, experiments._euclidean_distances(x, t))
    want = np.zeros_like(x)
    for i in range(len(x)):
        for j in range(len(x)):
            d = math.dist(x[i], x[j])
            if d > 0.0:
                want[i] += 2.0 * (d - t[i, j]) * (x[i] - x[j]) / d
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_lorentz_stress_grad_matches_fd():
    rng = np.random.default_rng(1)
    t = tree_distance_matrix(TreeSpec(depth=1))
    x = rng.normal(size=(3, 2))
    c = 1.3

    def stress(flat):
        return experiments._lorentz_distances(flat.reshape(3, 2), t, c).stress

    grad = experiments._lorentz_stress_grad(
        x, experiments._lorentz_distances(x, t, c))
    fd = finite_diff_gradient(stress, x.ravel()).reshape(3, 2)
    assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-5


def _distance_gradient_loop(u, w, c):
    # Gradient in u of d(exp_O(u), exp_O(w)) in plain math, independent of
    # lorentz.py: d = arcosh(beta) / a with a = sqrt(c) and
    # beta = cosh(a r_u) cosh(a r_w) - (u . w) a^2 S(a r_u) S(a r_w),
    # S(t) = sinh(t) / t, differentiated by the chain rule.
    def sinhc(t):
        return 1.0 + t * t / 6.0 + t ** 4 / 120.0 if t < 1e-4 else math.sinh(t) / t

    def sinhc_deriv_over_r(r):  # (d/dr sinh(a r) / r) / r
        t = a * r
        if t < 1e-4:
            return a ** 3 * (1.0 / 3.0 + t * t / 30.0)
        return (t * math.cosh(t) - math.sinh(t)) / r ** 3

    a = math.sqrt(c)
    ru = math.sqrt(sum(x * x for x in u))
    rw = math.sqrt(sum(x * x for x in w))
    dot = sum(x * y for x, y in zip(u, w))
    sc_u, sc_w = sinhc(a * ru), sinhc(a * rw)
    beta = math.cosh(a * ru) * math.cosh(a * rw) - dot * a * a * sc_u * sc_w
    coef_u = a * a * sc_u * math.cosh(a * rw) - dot * a * sc_w * sinhc_deriv_over_r(ru)
    coef_w = -a * a * sc_u * sc_w
    scale = a * math.sqrt(beta * beta - 1.0)
    return np.array([(coef_u * x + coef_w * y) / scale for x, y in zip(u, w)])


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_lorentz_stress_grad_is_sum_of_distance_gradients(c):
    # d stress / d u_i = sum_j 2 err_ij grad_u d(exp_O(u_i), exp_O(u_j)),
    # each term from the plain-math loop, not from lorentz.py.
    rng = np.random.default_rng(2)
    t = tree_distance_matrix(TreeSpec(depth=2))
    u = rng.normal(scale=0.5, size=(t.shape[0], 2))
    u[0] = 0.0  # the root at the origin takes both Taylor branches
    ev = experiments._lorentz_distances(u, t, c)
    got = experiments._lorentz_stress_grad(u, ev)
    want = np.zeros_like(u)
    for i in range(len(u)):
        for j in range(len(u)):
            if i != j:
                want[i] += 2.0 * ev.err[i, j] * _distance_gradient_loop(u[i], u[j], c)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3, 30.0])
def test_distance_gradient_matches_plain_math_loop(c):
    # lorentz.distance_gradient is the one-row case of the stress gradient's
    # formula; the loop is the scalar formula it replaced.
    rng = np.random.default_rng(5)
    for _ in range(50):
        u, w = rng.normal(scale=0.5, size=(2, 3))
        got = lorentz.distance_gradient(u, w, c)
        want = _distance_gradient_loop(u, w, c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # the origin takes both Taylor branches
    got = lorentz.distance_gradient(np.zeros(3), w, c)
    want = _distance_gradient_loop(np.zeros(3), w, c)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("c", [0.5, 1.0, 1.3])
def test_lorentz_distances_match_scalar_geodesic_distance(c):
    rng = np.random.default_rng(3)
    t = tree_distance_matrix(TreeSpec(depth=2))
    u = rng.normal(scale=0.5, size=(t.shape[0], 2))
    u[0] = 0.0  # the root at the origin
    got = experiments._lorentz_distances(u, t, c).d
    # diffcheck's scalar lift and distance share no code with lorentz.py
    points = [_lift_row(row.tolist(), c, 1.0) for row in u]
    want = np.array([[_lorentz_dist(x, y, c) for y in points] for x in points])
    off = ~np.eye(len(u), dtype=bool)
    assert np.all(np.abs(got - want)[off] <= 1e-12 * want[off])
    # Self-distances are rounding noise at or just above the clip floor, so
    # they are bounded, not compared; the root's is the floor itself.
    floor = math.acosh(1.0 + 1e-15) / math.sqrt(c)
    assert want[0, 0] == floor and abs(got[0, 0] - floor) <= 1e-12 * floor
    assert np.all(np.diag(got) < 1e-6)


def test_lorentz_stress_uses_one_lift_and_one_distance_pass(monkeypatch):
    calls = {"lifted_rows": 0, "distances": 0}
    lift, distances = lorentz._lift, lorentz._distances

    def counted_lift(v, *args, **kwargs):
        calls["lifted_rows"] += v.shape[0]
        return lift(v, *args, **kwargs)

    def counted_distances(*args, **kwargs):
        calls["distances"] += 1
        return distances(*args, **kwargs)

    monkeypatch.setattr(lorentz, "_lift", counted_lift)
    monkeypatch.setattr(lorentz, "_distances", counted_distances)
    t = tree_distance_matrix(TreeSpec(depth=2))
    u = np.random.default_rng(4).normal(scale=0.5, size=(t.shape[0], 2))
    ev = experiments._lorentz_distances(u, t, 1.0)
    assert calls == {"lifted_rows": t.shape[0], "distances": 1}
    # The gradient reuses the evaluation's lift, factors and distances.
    monkeypatch.setattr(lorentz, "_lift", None)
    monkeypatch.setattr(lorentz, "_distances", None)
    monkeypatch.setattr(lorentz, "_sinhc", None)
    experiments._lorentz_stress_grad(u, ev)


@pytest.mark.parametrize("c", [30.0, 1000.0])
def test_embed_tree_trial_past_lift_limit_is_a_backoff(c):
    # At high curvature a full step can carry a point past the lift's
    # float64 limit; that trial is rejected and the step halved, so the
    # run finishes and every phase keeps its counts.
    out = embed_tree(TreeSpec(depth=3), EmbeddingRun(space="lorentz", curvature=c, seed=0))
    assert math.isfinite(out.final_stress) and math.isfinite(out.final_distortion)
    for p in out.phases:
        assert p.evaluations == p.accepted + p.backoffs + p.gave_up
        assert p.end_stress <= p.start_stress
    assert sum(p.backoffs for p in out.phases) > 0
    assert out.phases[-1].end_stress == out.final_stress


def test_lorentz_trial_past_lift_limit_has_infinite_stress(monkeypatch):
    t = tree_distance_matrix(TreeSpec(depth=1))
    far = np.array([[0.0, 0.0], [400.0, 0.0], [0.0, 1.0]])
    assert experiments._lorentz_distances(far, t, 1.0).stress == math.inf
    # Without backtracking such a trial is divergence, not a lift error,
    # even on the last step: one step per phase, and only the last one
    # (the fourth gradient) leaves the origin.
    grads = []

    def last_step_diverges(u, ev):
        grads.append(ev)
        return np.full_like(u, -1e6 if len(grads) == 4 else 0.0)

    monkeypatch.setattr(experiments, "_lorentz_stress_grad", last_step_diverges)
    with pytest.raises(ValueError, match="stress diverged"):
        embed_tree(TreeSpec(depth=1),
                   EmbeddingRun(space="lorentz", steps=4, backtracking=False))
    assert len(grads) == 4


@pytest.mark.filterwarnings("error")
def test_lorentz_product_overflow_inside_lift_limit_has_infinite_stress():
    # Each row is inside the lift limit (355.585 at c = 1), but -c<x, y>_L
    # of the opposite pair is about cosh(711), past float64.
    ev = experiments._lorentz_distances(np.array([[355.5, 0.0], [-355.5, 0.0]]),
                                        np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    assert ev.stress == math.inf and ev.d is None


@pytest.mark.filterwarnings("error")
def test_embed_tree_trial_with_overflowing_product_is_a_backoff():
    # At c = 30, seed 4, a trial reaches the overflowing product above.
    out = embed_tree(TreeSpec(depth=5), EmbeddingRun(space="lorentz", curvature=30.0, seed=4))
    assert math.isfinite(out.final_stress) and math.isfinite(out.final_distortion)


def _dense_bfgs_direction(grad, pairs):
    # -H grad with H built pair by pair, oldest first, by the dense BFGS
    # update H <- V^T H V + rho s s^T, V = I - rho y s^T, rho = 1 / s.y,
    # from H0 = (s.y / y.y) I of the newest pair.
    g = grad.ravel()
    s, y = pairs[-1][0].ravel(), pairs[-1][1].ravel()
    h = (s @ y) / (y @ y) * np.eye(g.size)
    for s, y, _ in pairs:
        s, y = s.ravel(), y.ravel()
        rho = 1.0 / (s @ y)
        v = np.eye(g.size) - rho * np.outer(y, s)
        h = v.T @ h @ v + rho * np.outer(s, s)
    return -(h @ g).reshape(grad.shape)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_lbfgs_direction_matches_dense_bfgs_update(k):
    rng = np.random.default_rng(k)
    a = rng.normal(size=(12, 12))
    a = a @ a.T / 12 + np.eye(12)  # the pairs of a convex quadratic
    pairs = []
    for _ in range(k):
        s = rng.normal(size=(6, 2))
        y = (a @ s.ravel()).reshape(6, 2)
        pairs.append((s, y, 1.0 / np.vdot(s, y)))
    grad = rng.normal(size=(6, 2))
    got = experiments._lbfgs_direction(grad, pairs)
    want = _dense_bfgs_direction(grad, pairs)
    assert got.shape == grad.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.vdot(got, grad) < 0.0  # a descent direction


@pytest.mark.parametrize("space, c", [("euclidean", 1.0), ("lorentz", 1.0),
                                      ("lorentz", 30.0)])
def test_embed_tree_quasi_newton_trial_moves_at_most_the_cap(monkeypatch, space, c):
    # A direction scaled up a million-fold still starts its search with
    # no coordinate moving more than 0.5 (0.5 / sqrt(c) for Lorentz).
    directions, first_moves = [], []
    direction, search = experiments._lbfgs_direction, experiments._line_search

    def scaled(grad, pairs):
        directions.append(1e6 * direction(grad, pairs))
        return directions[-1]

    def recorded(evaluate, x, d, mult, *args):
        if d is (directions[-1] if directions else None):
            first_moves.append(mult * np.abs(d).max())
        return search(evaluate, x, d, mult, *args)

    monkeypatch.setattr(experiments, "_lbfgs_direction", scaled)
    monkeypatch.setattr(experiments, "_line_search", recorded)
    embed_tree(TreeSpec(depth=3), EmbeddingRun(space=space, curvature=c, steps=200, seed=1))
    cap = 0.5 / math.sqrt(c) if space == "lorentz" else 0.5
    assert len(first_moves) == len(directions) > 0
    assert max(first_moves) <= cap * (1.0 + 1e-15)


def test_embed_tree_quasi_newton_failure_retries_gradient_step(monkeypatch):
    # An uphill quasi-Newton direction fails all 40 halvings; the pairs are
    # dropped and the gradient step is retried, so no phase gives up.  The
    # retry's evaluations, its first trial included, are backoffs.
    calls = []

    def uphill(grad, pairs):
        calls.append(len(pairs))
        return 1e6 * grad

    monkeypatch.setattr(experiments, "_lbfgs_direction", uphill)
    out = embed_tree(TreeSpec(depth=2), EmbeddingRun(space="euclidean", steps=40, seed=0))
    assert calls and set(calls) == {1}  # every search drops the pairs
    for p in out.phases:
        assert p.gave_up == 0 and p.accepted == 10
        assert p.evaluations == p.accepted + p.backoffs + p.gave_up
        assert p.end_stress < p.start_stress
        assert 0.0 < p.final_step <= 0.05  # only gradient steps are accepted
    # Each of the 9 failed searches after a phase's first step adds its 40
    # halvings and its retry's first trial to the backoffs.
    assert all(p.backoffs >= 9 * 41 for p in out.phases)
    assert len(calls) == 4 * 9


def test_embed_tree_deterministic():
    spec = TreeSpec(depth=2)
    run = EmbeddingRun(space="lorentz", steps=200, seed=5)
    a = embed_tree(spec, run)
    b = embed_tree(spec, run)
    assert a.final_distortion == b.final_distortion
    assert a.final_stress == b.final_stress


def test_embed_tree_zero_steps_keeps_init():
    spec = TreeSpec(depth=2)
    out = embed_tree(spec, EmbeddingRun(space="euclidean", steps=0, seed=1))
    # untouched Gaussian(0.1) init is far off the unit-edge tree
    assert out.final_distortion > 0.5
    assert len(out.phases) == 4
    for p in out.phases:
        assert (p.accepted, p.evaluations, p.backoffs, p.gave_up, p.converged) == \
            (0, 0, 0, 0, 0)
        assert p.end_stress == p.start_stress


def test_embed_tree_validation():
    spec = TreeSpec(depth=1)
    with pytest.raises(ValueError, match="dim"):
        embed_tree(spec, EmbeddingRun(dim=1))
    with pytest.raises(ValueError, match="unknown space"):
        embed_tree(spec, EmbeddingRun(space="poincare"))
    with pytest.raises(ValueError, match="curvature"):
        embed_tree(spec, EmbeddingRun(space="lorentz", curvature=0.0))
    for step_size in (math.nan, math.inf, -0.05, 0.0):
        with pytest.raises(ValueError, match="step_size must be finite and > 0"):
            embed_tree(spec, EmbeddingRun(space="euclidean", step_size=step_size))
    with pytest.raises(ValueError, match="steps must be >= 0, got -4"):
        embed_tree(spec, EmbeddingRun(steps=-4))


def test_embed_tree_reduces_stress():
    spec = TreeSpec(depth=2)
    start = embed_tree(spec, EmbeddingRun(space="euclidean", steps=0, seed=2))
    done = embed_tree(spec, EmbeddingRun(space="euclidean", steps=300, seed=2))
    assert done.final_stress < start.final_stress
    assert done.final_distortion < start.final_distortion


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_phase_trace(space):
    spec = TreeSpec(depth=3)
    out = embed_tree(spec, EmbeddingRun(space=space, steps=400, seed=4))
    assert [p.lam for p in out.phases] == list(experiments._EXPANSION_PHASES)
    for p in out.phases:
        assert p.evaluations == p.accepted + p.backoffs + p.gave_up
        assert p.accepted + p.gave_up <= 100  # 400 steps over four phases
        assert p.converged in (0, 1) and p.gave_up in (0, 1)
        assert not (p.converged and p.gave_up)
        if p.converged:
            assert p.accepted < 100
        assert p.end_stress <= p.start_stress
        assert 0.0 < p.final_step <= 1.0  # a gradient step's is at most 0.05
    assert any(p.converged for p in out.phases)
    assert out.phases[-1].end_stress == out.final_stress
    # Nine steps per phase are fewer than the stall stop needs.
    assert experiments._STALL_STEPS > 9
    short = embed_tree(spec, EmbeddingRun(space=space, steps=36, seed=4))
    assert [p.converged for p in short.phases] == [0, 0, 0, 0]
    assert [p.accepted + p.gave_up for p in short.phases] == [9, 9, 9, 9]


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_stall_stop_is_a_fixed_point(space):
    # On the depth-5 tree at seed 0 every phase stalls well inside a budget
    # of 750 steps, so doubling the budget changes nothing, to the bit.
    spec = TreeSpec(depth=5)
    a = embed_tree(spec, EmbeddingRun(space=space, steps=3000, seed=0))
    b = embed_tree(spec, EmbeddingRun(space=space, steps=6000, seed=0))
    assert [p.converged for p in a.phases] == [1, 1, 1, 1]
    assert a.phases == b.phases
    assert (a.final_stress, a.final_distortion, a.worst_ratio) == \
        (b.final_stress, b.final_distortion, b.worst_ratio)


def test_embed_tree_phase_trace_gave_up(monkeypatch):
    # A huge uphill gradient makes every trial, even after 40 halvings,
    # raise the stress, so the line search gives up at the phase's start.
    grad = experiments._euclidean_stress_grad
    monkeypatch.setattr(experiments, "_euclidean_stress_grad",
                        lambda x, ev: -1e30 * grad(x, ev))
    out = embed_tree(TreeSpec(depth=2),
                     EmbeddingRun(space="euclidean", steps=40, seed=0))
    for p in out.phases:
        assert (p.accepted, p.backoffs, p.gave_up, p.evaluations, p.converged) == \
            (0, 40, 1, 41, 0)
        assert p.end_stress == p.start_stress


def test_descent_demo_converges_and_decreases():
    run = descent_demo(DescentRun(seed=0))
    assert run.converged_unconstrained and run.converged_oblique
    fs = [f for _, _, f in run.trajectory_unconstrained]
    assert all(b < a for a, b in zip(fs, fs[1:]))
    assert fs[-1] <= run.tol
    # restricted arm stops at the sphere minimum, not at zero
    f_obl = run.trajectory_oblique[-1][2]
    assert f_obl - 1.0 <= run.tol


def test_descent_demo_condition_one():
    run = descent_demo(DescentRun(condition_number=1.0, seed=0))
    # isotropic landscape: the oblique start already sits at the minimum
    assert run.iters_oblique == 0
    for kappa in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="condition number must be finite and >= 1"):
            descent_demo(DescentRun(condition_number=kappa))
    for tol in (-1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            descent_demo(DescentRun(tol=tol))


@pytest.mark.parametrize("kappa", [1e6, 1e7])
def test_descent_demo_oblique_arm_at_large_condition_number(kappa):
    # the circle arm's gradient has norm about 2 kappa; its tangent
    # projection must still pass the tangency check
    run = descent_demo(DescentRun(seed=0, condition_number=kappa))
    assert run.converged_oblique
    assert run.trajectory_oblique[-1][2] - 1.0 <= run.tol


def test_export_trajectories(tmp_path):
    run = descent_demo(DescentRun(seed=3))
    paths = export_trajectories(run, tmp_path)
    assert len(paths) == 2
    for path, traj in zip(paths, (run.trajectory_unconstrained,
                                  run.trajectory_oblique)):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0] == "iter,x,y,f"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == traj[0][2]
    with pytest.raises(ValueError, match="does not exist"):
        export_trajectories(run, tmp_path / "missing")
