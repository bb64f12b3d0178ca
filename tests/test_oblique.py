import math

import numpy as np
import pytest

from geoattn import diffcheck, oblique

# Frozen oracle values (30-digit scalar evaluation, rounded to float64).
ACOS_1_MINUS_EPS = 0.014142253477512878      # arccos(1 - 1e-4)
ACOS_NEG1_PLUS_EPS = 3.1274504001122804      # arccos(-1 + 1e-4)
ROT30_TWO_COLS = 0.7404804896930610          # sqrt(2) * pi / 6


def _unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_project_unit_columns():
    rng = np.random.default_rng(0)
    out = oblique.project(rng.normal(size=(6, 9)) * 100.0)
    norms = np.sqrt((out.inner ** 2).sum(axis=0))
    assert np.abs(norms - 1.0).max() < 1e-12
    assert out.degenerate == (False,) * 9


def test_project_idempotent():
    rng = np.random.default_rng(1)
    once = oblique.project(rng.normal(size=(4, 5))).inner
    twice = oblique.project(once).inner
    assert np.abs(twice - once).max() < 1e-15


def test_project_scale_invariance():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 4))
    base = oblique.project(m).inner
    for lam in (1e-6, 0.5, 7.0, 1e6, 1e200):
        assert np.abs(oblique.project(lam * m).inner - base).max() < 1e-12


def test_project_zero_column_policy():
    m = np.array([[0.0, 3.0], [0.0, 4.0]])
    out = oblique.project(m)
    assert out.degenerate == (True, False)
    assert np.allclose(out.inner[:, 0], [1.0, 0.0])
    assert np.allclose(out.inner[:, 1], [0.6, 0.8])
    # project is the checked column case of the kernels' row function,
    # which leaves its input as it was.
    m = np.random.default_rng(5).normal(size=(6, 9))
    m[:, 3] = 0.0
    before = m.copy()
    rows, dead = oblique._unit_rows(m.T)
    assert m.tobytes() == before.tobytes()
    out = oblique.project(m)
    assert out.inner.tobytes() == rows.T.tobytes()
    assert out.degenerate == tuple(dead) == (False,) * 3 + (True,) + (False,) * 5


def test_oblique_matrix_rejects_non_unit():
    with pytest.raises(ValueError, match="unit-norm"):
        oblique.ObliqueMatrix(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_geodesic_distance_identical_configs():
    # clipping makes the self-distance sqrt(g) * arccos(1 - eps), not 0
    rng = np.random.default_rng(3)
    for g in (1, 2, 5):
        q = oblique.project(rng.normal(size=(4, g)))
        d = oblique.geodesic_distance(q, q)
        assert abs(d - math.sqrt(g) * ACOS_1_MINUS_EPS) < 1e-12


def test_geodesic_distance_rotated_columns():
    theta = math.pi / 6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    q = oblique.ObliqueMatrix(np.eye(2))
    k = oblique.ObliqueMatrix(rot @ np.eye(2))
    assert abs(oblique.geodesic_distance(q, k) - ROT30_TWO_COLS) < 1e-12


def test_geodesic_distance_symmetry_and_shapes():
    rng = np.random.default_rng(4)
    q = oblique.project(rng.normal(size=(3, 4)))
    k = oblique.project(rng.normal(size=(3, 4)))
    assert oblique.geodesic_distance(q, k) == oblique.geodesic_distance(k, q)
    with pytest.raises(ValueError, match="shape mismatch"):
        oblique.geodesic_distance(q, oblique.project(np.ones((2, 2))))


def test_pairwise_diagonal_clip_floor():
    rng = np.random.default_rng(5)
    q = _unit_rows(rng, 8, 5)
    d = oblique.pairwise_distances(q, q)
    assert np.abs(np.diag(d) - ACOS_1_MINUS_EPS).max() < 1e-12


def test_pairwise_antipodal():
    u = np.array([[0.6, 0.8]])
    d = oblique.pairwise_distances(u, -u)
    assert abs(d[0, 0] - ACOS_NEG1_PLUS_EPS) < 1e-12


def test_pairwise_matches_double_loop():
    rng = np.random.default_rng(6)
    q = _unit_rows(rng, 64, 7)
    k = _unit_rows(rng, 64, 7)
    d = oblique.pairwise_distances(q, k)
    for i in range(0, 64, 9):
        for j in range(0, 64, 9):
            dot = min(max(float(np.dot(q[i], k[j])), -1.0 + 1e-4), 1.0 - 1e-4)
            assert abs(d[i, j] - math.acos(dot)) < 1e-12


def test_pairwise_writes_into_out():
    rng = np.random.default_rng(9)
    q, k = _unit_rows(rng, 6, 4), _unit_rows(rng, 3, 4)
    out = np.empty((6, 3))
    assert oblique.pairwise_distances(q, k, out=out) is out
    assert np.array_equal(out, oblique.pairwise_distances(q, k))


def test_pairwise_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, c = _unit_rows(rng, 3, 4)
        dots = [a @ b, b @ c, a @ c]
        if max(abs(t) for t in dots) > 1.0 - 1e-4:
            continue  # clip region distorts the metric
        dab = oblique.pairwise_distances(a[None], b[None])[0, 0]
        dbc = oblique.pairwise_distances(b[None], c[None])[0, 0]
        dac = oblique.pairwise_distances(a[None], c[None])[0, 0]
        assert dac <= dab + dbc + 1e-9


def test_tangent_project_never_grows():
    rng = np.random.default_rng(8)
    for _ in range(200):
        w = oblique.project(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 3)) * 10.0
        t = oblique.tangent_project(w, g)
        assert np.linalg.norm(t.delta) <= np.linalg.norm(g) + 1e-12
        dots = (w.inner * t.delta).sum(axis=0)
        assert np.abs(dots).max() < 1e-10


def test_tangent_project_idempotent_on_tangent():
    rng = np.random.default_rng(9)
    w = oblique.project(rng.normal(size=(4, 2)))
    t = oblique.tangent_project(w, rng.normal(size=(4, 2)))
    again = oblique.tangent_project(w, t.delta)
    assert np.abs(again.delta - t.delta).max() < 1e-12


def test_tangent_validation():
    w = oblique.ObliqueMatrix(np.eye(2))
    with pytest.raises(ValueError, match="not tangent"):
        oblique.ObliqueTangent(w, np.eye(2))
    # a unit-norm delta off tangency by 1e-6 still fails the relative check
    off = np.array([[1e-6, 1.0], [math.sqrt(1.0 - 1e-12), 0.0]])
    with pytest.raises(ValueError, match="not tangent"):
        oblique.ObliqueTangent(w, off)
    with pytest.raises(ValueError, match="shape mismatch"):
        oblique.tangent_project(w, np.zeros((3, 3)))


def test_retract_zero_step():
    rng = np.random.default_rng(10)
    w = oblique.project(rng.normal(size=(4, 3)))
    t = oblique.tangent_project(w, rng.normal(size=(4, 3)))
    assert np.abs(oblique.retract(t, 0.0).inner - w.inner).max() < 1e-12


def test_retract_first_order():
    rng = np.random.default_rng(11)
    w = oblique.project(rng.normal(size=(4, 3)))
    t = oblique.tangent_project(w, rng.normal(size=(4, 3)))
    step = 1e-8
    moved = oblique.retract(t, step)
    assert np.linalg.norm(moved.inner - w.inner) <= 2 * step * np.linalg.norm(t.delta)
    norms = np.sqrt((moved.inner ** 2).sum(axis=0))
    assert np.abs(norms - 1.0).max() < 1e-12


def test_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        q, k = _unit_rows(rng, 2, 6)
        if abs(float(q @ k)) > 0.99:
            continue
        analytic = oblique.distance_gradient(q, k)
        fd = diffcheck.finite_diff_gradient(
            lambda x: math.acos(min(max(float(x @ k), -1 + 1e-4), 1 - 1e-4)), q)
        rel = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert rel < 1e-5
