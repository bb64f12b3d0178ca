import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import deque

import numpy as np
import pytest

import geoattn
from geoattn import experiments, lorentz
from geoattn.diffcheck import _lift_row, _lorentz_dist, finite_diff_gradient
from geoattn.experiments import (DescentRun, EmbeddingRun, TreeSpec,
                                 descent_demo, embed_tree, tree_distance_matrix)


def test_tree_distance_matrix_depth1():
    t = tree_distance_matrix(TreeSpec(branching=2, depth=1))
    want = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=float)
    assert np.array_equal(t, want)


def test_tree_distance_matrix_shape_and_symmetry():
    t = tree_distance_matrix(TreeSpec(branching=3, depth=2))
    assert t.shape == (13, 13)  # 1 + 3 + 9 nodes
    assert t.dtype == np.float64
    assert np.array_equal(t, t.T)
    assert t.max() == 4.0  # leaf to leaf through the root


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
            t[src, dst] = h
    return t


@pytest.mark.parametrize("branching, depth", [
    (2, 1), (2, 5), (3, 2), (3, 4), (4, 3), (2, 8), (5, 2),
])
def test_tree_distance_matrix_matches_bfs(branching, depth):
    spec = TreeSpec(branching=branching, depth=depth)
    t = tree_distance_matrix(spec)
    assert t.dtype == np.float64
    assert np.array_equal(t, _bfs_tree_distances(spec))


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


def test_lorentz_trial_past_lift_limit_has_infinite_stress():
    t = tree_distance_matrix(TreeSpec(depth=1))
    far = np.array([[0.0, 0.0], [400.0, 0.0], [0.0, 1.0]])
    assert experiments._lorentz_distances(far, t, 1.0).stress == math.inf


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
def test_embed_tree_start_past_lift_limit_diverges(steps):
    # At c = 1e8 the seeded start is past the lift's float64 limit, so the
    # first phase reports divergence, whether or not any phase has a step.
    with pytest.raises(ValueError, match="stress diverged"):
        embed_tree(TreeSpec(depth=5),
                   EmbeddingRun(space="lorentz", curvature=1e8, steps=steps))


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


def _search_along_line(stress_at, stress, slope, mult=1.0):
    # _line_search on a 1-D line from 0 along +1, so each trial point is
    # its multiplier; returns the multipliers tried and the search's result.
    tried = []

    def evaluate(trial):
        tried.append(float(trial[0]))
        return experiments._StressEval(stress_at(tried[-1]), None, None)

    out = experiments._line_search(evaluate, np.zeros(1), np.ones(1), mult,
                                   stress, slope)
    return tried, out


def test_line_search_takes_the_quadratic_models_minimiser():
    # Along q(a) = 1 - a + k a^2 the model through q(0), q'(0) = -1 and
    # q(a) is q itself, so after the rejected trial at 1 the next is its
    # minimiser 1 / (2k) = 0.3, inside [0.1, 0.5], and is accepted.
    k = 1.0 / 0.6
    tried, (_, ev, mult, tries) = _search_along_line(lambda a: 1.0 - a + k * a * a,
                                                     1.0, -1.0)
    assert tried[0] == 1.0 and tried[1] == pytest.approx(0.3, rel=1e-15)
    assert (len(tried), tries, mult) == (2, 1, tried[1])
    assert ev.stress <= 1.0


def test_line_search_clamps_the_models_minimiser():
    # k = 50 puts the minimiser at 0.01, so the second trial is clamped to
    # 0.1 a; rejected again, the third is the minimiser, 0.1 of the second.
    tried, (_, ev, mult, tries) = _search_along_line(lambda a: 1.0 - a + 50.0 * a * a,
                                                     1.0, -1.0)
    assert tried[:2] == [1.0, 0.1]
    assert tried[2] == pytest.approx(0.01, rel=1e-14) and mult == tried[2]
    assert tries == 2 and ev.stress <= 1.0
    # A rejected trial puts the minimiser below 0.5 a, so the upper end
    # binds only on rounding: here the unclamped fit is one ulp above it.
    stress, slope, a = 1e-6, -1.0, 0.1
    above = np.nextafter(stress, np.inf)
    assert -slope * a * a / (2.0 * (above - stress - slope * a)) > 0.5 * a
    tried, _ = _search_along_line(lambda t: above if t == a else 0.0, stress, slope, a)
    assert tried == [a, 0.5 * a]
    # Each reduction is at least 2x, so 40 of them span at least 2^40.
    tried, (_, ev, mult, tries) = _search_along_line(lambda a: 1e300, 1.0, -1.0)
    assert tries == 40 and len(tried) == 41 and ev.stress == 1e300
    assert all(b <= 0.5 * a for a, b in zip(tried, tried[1:]))
    assert tried[1] == 0.1  # the huge stress puts the minimiser far below 0.1


@pytest.mark.parametrize("slope, stress_at", [
    (-1.0, lambda a: math.inf if a == 1.0 else 0.0),   # an infinite trial
    (-1.0, lambda a: math.nan if a == 1.0 else 0.0),   # a NaN trial
    (0.0, lambda a: 2.0 if a == 1.0 else 0.0),         # a flat slope
    (1.0, lambda a: 2.0 if a == 1.0 else 0.0),         # an uphill slope
])
def test_line_search_halves_without_a_model(slope, stress_at):
    tried, (_, ev, mult, tries) = _search_along_line(stress_at, 1.0, slope)
    assert tried == [1.0, 0.5] and (mult, tries, ev.stress) == (0.5, 1, 0.0)


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_takes_at_most_steps(space):
    # Phase i takes (steps + i) // 4 steps, so a budget that is not a
    # multiple of 4 is still a cap on the whole run.
    for steps in range(1, 8):
        out = embed_tree(TreeSpec(depth=2), EmbeddingRun(space=space, steps=steps, seed=0))
        assert sum(p.accepted for p in out.phases) <= steps
        assert [p.accepted + p.gave_up for p in out.phases] == \
            [(steps + i) // 4 for i in range(4)]


@pytest.mark.parametrize("c, seed", [(30.0, 1), (30.0, 7), (1000.0, 2)])
def test_embed_tree_no_phase_gives_up_at_high_curvature(c, seed):
    # At c = 30, with halving alone, phase 4 gave up at seeds 1 and 7 after
    # 267 and 53 accepted steps.  At c = 1000, seed 2 gave up in every
    # phase while pairs at the clip floor still weighted the gradient.
    out = embed_tree(TreeSpec(depth=5), EmbeddingRun(space="lorentz", curvature=c,
                                                     seed=seed))
    assert [p.gave_up for p in out.phases] == [0, 0, 0, 0]
    assert math.isfinite(out.final_distortion)


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
    # A direction whose full step predicts no descent ends its phase
    # unsearched, so at most one per phase goes without a search.
    assert 0 < len(first_moves) <= len(directions) <= len(first_moves) + 4
    assert max(first_moves) <= cap * (1.0 + 1e-15)


def test_embed_tree_quasi_newton_failure_gives_up(monkeypatch):
    # Each phase accepts its first step, a gradient step; the uphill
    # quasi-Newton direction after it fails all 40 reductions, and the
    # phase gives up.
    calls, tries = [], []
    search = experiments._line_search

    def uphill(grad, pairs):
        calls.append(len(pairs))
        return 1e6 * grad

    def recorded(*args):
        found = search(*args)
        tries.append(found[3])
        return found

    monkeypatch.setattr(experiments, "_lbfgs_direction", uphill)
    monkeypatch.setattr(experiments, "_line_search", recorded)
    out = embed_tree(TreeSpec(depth=2), EmbeddingRun(space="euclidean", steps=40, seed=0))
    assert calls == [1] * 4  # one quasi-Newton search per phase
    assert tries[1::2] == [experiments._HALVINGS] * 4
    for p, gradient_tries in zip(out.phases, tries[::2]):
        assert (p.accepted, p.gave_up, p.converged) == (1, 1, 0)
        assert p.backoffs == gradient_tries + experiments._HALVINGS
        assert p.evaluations == p.accepted + p.backoffs + p.gave_up
        assert p.end_stress < p.start_stress
        assert 0.0 < p.final_step <= 0.05  # the gradient step's


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_gradient_search_starts_at_step_size(monkeypatch, space):
    # Holding no L-BFGS pair, a phase takes gradient steps alone, and each
    # search starts at step_size, whatever the cuts of the search before.
    first = []
    search = experiments._line_search

    def recorded(evaluate, x, direction, mult, *args):
        first.append(mult)
        return search(evaluate, x, direction, mult, *args)

    monkeypatch.setattr(experiments, "_LBFGS_PAIRS", 0)
    monkeypatch.setattr(experiments, "_line_search", recorded)
    out = embed_tree(TreeSpec(depth=5), EmbeddingRun(space=space, steps=40, seed=4))
    assert sum(p.accepted + p.gave_up for p in out.phases) == len(first) == 40
    assert first == [0.05] * 40


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
    with pytest.raises(ValueError, match="backtracking must be True.*got False"):
        embed_tree(spec, EmbeddingRun(backtracking=False))


def test_embed_tree_reduces_stress():
    spec = TreeSpec(depth=2)
    start = embed_tree(spec, EmbeddingRun(space="euclidean", steps=0, seed=2))
    done = embed_tree(spec, EmbeddingRun(space="euclidean", steps=300, seed=2))
    assert done.final_stress < start.final_stress
    assert done.final_distortion < start.final_distortion


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_phase_trace(monkeypatch, space):
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
    # Holding no L-BFGS pair, a phase takes gradient steps alone, so only
    # the stall window can end it, and nine steps per phase are fewer than
    # it needs.
    monkeypatch.setattr(experiments, "_LBFGS_PAIRS", 0)
    assert experiments._STALL_STEPS > 9
    short = embed_tree(spec, EmbeddingRun(space=space, steps=36, seed=4))
    assert [p.converged for p in short.phases] == [0, 0, 0, 0]
    assert [p.accepted + p.gave_up for p in short.phases] == [9, 9, 9, 9]


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_stall_stop_is_a_fixed_point(space):
    # On the depth-5 tree at seed 0 every phase stops well inside a budget
    # of 750 steps, so doubling the budget changes nothing, to the bit.
    spec = TreeSpec(depth=5)
    a = embed_tree(spec, EmbeddingRun(space=space, steps=3000, seed=0))
    b = embed_tree(spec, EmbeddingRun(space=space, steps=6000, seed=0))
    assert [p.converged for p in a.phases] == [1, 1, 1, 1]
    assert a.phases == b.phases
    assert (a.final_stress, a.final_distortion, a.worst_ratio) == \
        (b.final_stress, b.final_distortion, b.worst_ratio)


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_stops_keep_the_stress_of_a_full_budget(monkeypatch, space):
    # Ending a phase when the quasi-Newton step predicts no descent, or on
    # the stall window, at 1e-8 in the first three phases and 1e-12 in the
    # last, keeps the final stress within 2e-11 relative of running every
    # phase to its 750 steps.
    spec, run = TreeSpec(depth=5), EmbeddingRun(space=space, steps=3000, seed=0)
    stopped = embed_tree(spec, run)
    if space == "euclidean":
        # The Euclidean optimum scales with the targets, so phases 2 and 3,
        # which start within 1e-8 of their optimum, are solved in a step or
        # two.  The last phase tightens phase 1's 1e-8 to 1e-12: 17 accepted
        # steps at this seed, against 45 for phase 1 from the random start.
        assert all(p.accepted <= 3 for p in stopped.phases[1:-1])
        assert stopped.phases[-1].accepted <= 20
    monkeypatch.setattr(experiments, "_STALL_STEPS", run.steps + 1)
    monkeypatch.setattr(experiments, "_STALL_RTOL", -1.0)
    monkeypatch.setattr(experiments, "_PHASE_RTOL", -1.0)
    full = embed_tree(spec, run)
    assert [p.converged for p in full.phases] == [0, 0, 0, 0]
    assert abs(stopped.final_stress - full.final_stress) <= 2e-11 * full.final_stress


def _count_distance_passes(monkeypatch, space):
    """Wrap the distance pass of ``space``.  The returned list gets one entry
    per pass: how many distance arrays of earlier passes are alive as it
    starts."""
    calls, refs = [], []
    name = f"_{space}_distances"
    helper = getattr(experiments, name)

    def counted(*args, **kwargs):
        refs[:] = [r for r in refs if r() is not None]
        calls.append(len(refs))
        ev = helper(*args, **kwargs)
        if ev.d is not None:
            refs.append(weakref.ref(ev.d))
        return ev

    monkeypatch.setattr(experiments, name, counted)
    return calls


@pytest.mark.parametrize("steps", [3000, 8, 0])
@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_hands_each_phase_its_last_evaluation(monkeypatch, space, steps):
    # One distance pass at the start and one per trial: each later phase
    # starts from the last evaluation of the phase before, whether a stop
    # ended it (3000 steps) or its budget (8 or 0), and the last phase's
    # evaluation is the final one.
    calls = _count_distance_passes(monkeypatch, space)
    out = embed_tree(TreeSpec(depth=5), EmbeddingRun(space=space, steps=steps, seed=0))
    assert len(calls) == sum(p.evaluations for p in out.phases) + 1
    spent = [not (p.converged or p.gave_up) for p in out.phases]
    assert any(spent) == (steps < 3000)
    assert out.phases[-1].end_stress == out.final_stress


@pytest.mark.parametrize("steps", [3000, 8])
@pytest.mark.parametrize("space, c", [("euclidean", 1.0), ("lorentz", 1.0),
                                      ("lorentz", 30.0), ("lorentz", 1000.0)])
def test_embed_tree_keeps_one_evaluation_alive(monkeypatch, space, c, steps):
    # No earlier distance array is alive when a distance pass starts: the
    # one live evaluation is dropped before each search, and no caller of
    # the phase loop holds a reference to it.
    calls = _count_distance_passes(monkeypatch, space)
    embed_tree(TreeSpec(depth=5),
               EmbeddingRun(space=space, curvature=c, steps=steps, seed=0))
    assert len(calls) > 4 and not any(calls)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("space", ["euclidean", "lorentz"])
def test_embed_tree_peak_memory(space):
    # At depth 7 (n = 255) a run holds the tree distances, one evaluation's
    # distances and errors, and one gradient temporary with its bool mask:
    # about 4.3 n x n float64 arrays at its peak.  A targets array, a
    # broadcasting subtraction's buffers, a re-targeted phase's second
    # errors array or the final errors kept alive through the distortion
    # each takes it past 4.5.
    run = EmbeddingRun(space=space, steps=3000, seed=0)
    # A first run's imports (numpy.random) are not the run's allocations.
    embed_tree(TreeSpec(depth=2), run)
    n = 255
    peak = _peak_bytes(lambda: embed_tree(TreeSpec(depth=7), run))
    assert peak < 4.5 * n * n * 8, peak / (n * n * 8)


def test_tree_distance_matrix_peak_memory():
    # The hops are built in the result itself, beside one n x n bool mask.
    tree_distance_matrix(TreeSpec(depth=2))
    n = 255
    peak = _peak_bytes(lambda: tree_distance_matrix(TreeSpec(depth=7)))
    assert peak < 1.5 * n * n * 8, peak / (n * n * 8)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
def test_stress_eval_errors_are_the_subtraction_bit_for_bit(lam):
    # err is formed as t * (-lam) + d, without a targets array.
    t = tree_distance_matrix(TreeSpec(branching=3, depth=3))
    rng = np.random.default_rng(7)
    d = np.abs(rng.normal(scale=3.0, size=t.shape))
    want = d - lam * t
    np.fill_diagonal(want, 0.0)
    ev = experiments._stress_eval(d, t, lam)
    assert _same_bits(ev.err, want)
    flat = want.reshape(-1)
    assert ev.stress == 0.5 * float(np.dot(flat, flat))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_euclidean_distances_match_the_broadcast_loop_bit_for_bit(dim):
    t = tree_distance_matrix(TreeSpec(depth=5))
    rng = np.random.default_rng(dim)
    x = rng.normal(scale=10.0 ** rng.integers(-3, 4, size=dim), size=(len(t), dim))
    x[7] = x[3]  # a coincident pair
    want = np.zeros(t.shape)
    for k in range(dim):
        dk = x[:, k, None] - x[None, :, k]
        want += dk * dk
    np.sqrt(want, out=want)
    assert _same_bits(experiments._euclidean_distances(x, t).d, want)


def test_distortion_matches_the_triu_indices_form_bit_for_bit():
    t = tree_distance_matrix(TreeSpec(depth=4))
    rng = np.random.default_rng(11)
    d = experiments._euclidean_distances(rng.normal(size=(len(t), 2)), t).d
    d[2, 9] = d[9, 2] = 0.0  # the 1e-300 guard
    iu = np.triu_indices_from(t, k=1)
    ds, ts = d[iu], t[iu]
    mean_rel = float(np.mean(np.abs(ds - ts) / ts))
    worst = float(np.max(np.maximum(ds / ts, ts / np.maximum(ds, 1e-300))))
    got = experiments._distortion(d, t)
    assert got == (mean_rel, worst)
    assert worst == t[2, 9] / 1e-300


def test_embed_tree_does_not_hand_on_a_give_ups_evaluation(monkeypatch):
    # A phase that gives up ends on a rejected trial's evaluation, so the
    # next phase and the final stress evaluate their point afresh.
    grad = experiments._euclidean_stress_grad
    monkeypatch.setattr(experiments, "_euclidean_stress_grad",
                        lambda x, ev: -1e30 * grad(x, ev))
    calls = _count_distance_passes(monkeypatch, "euclidean")
    out = embed_tree(TreeSpec(depth=2),
                     EmbeddingRun(space="euclidean", steps=40, seed=0))
    assert [p.gave_up for p in out.phases] == [1, 1, 1, 1]
    assert len(calls) == sum(p.evaluations for p in out.phases) + 5
    assert out.phases[-1].end_stress == out.final_stress


def test_embed_tree_phase_trace_gave_up(monkeypatch):
    # A huge uphill gradient makes every trial, even after 40 reductions,
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


@pytest.mark.parametrize("kappa", [100.0, 1e6, 1e7])
def test_descent_demo_oblique_points_stay_on_the_circle(kappa):
    # The oblique arm runs tangent_project and retract at every step: each
    # recorded point is a unit vector, and each step lowers f.
    for seed in (0, 1, 333, 777):
        traj = descent_demo(DescentRun(seed=seed, condition_number=kappa)).trajectory_oblique
        assert max(abs(math.hypot(x, y) - 1.0) for x, y, _ in traj) <= 1e-15
        fs = [f for _, _, f in traj]
        assert all(b < a for a, b in zip(fs, fs[1:]))


@pytest.mark.parametrize("make", [
    lambda: embed_tree(TreeSpec(depth=1), EmbeddingRun(seed=-1)),
    lambda: descent_demo(DescentRun(seed=-1)),
], ids=["EmbeddingRun.seed", "DescentRun.seed"])
def test_negative_seed_names_itself(make):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        make()


@pytest.mark.parametrize("field, make", [
    ("branching", lambda: TreeSpec(branching=2.5)),
    ("depth", lambda: TreeSpec(depth=2.5)),
    ("dim", lambda: embed_tree(TreeSpec(depth=1), EmbeddingRun(dim=2.0))),
    ("steps", lambda: embed_tree(TreeSpec(depth=1), EmbeddingRun(steps=10.5))),
    ("seed", lambda: embed_tree(TreeSpec(depth=1), EmbeddingRun(seed=1.5))),
    ("seed", lambda: descent_demo(DescentRun(seed=1.5))),
], ids=["TreeSpec.branching", "TreeSpec.depth", "EmbeddingRun.dim",
        "EmbeddingRun.steps", "EmbeddingRun.seed", "DescentRun.seed"])
def test_integer_fields_name_themselves(field, make):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        make()
