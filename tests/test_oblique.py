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
    w, degenerate = oblique.project(rng.normal(size=(6, 9)) * 100.0)
    norms = np.sqrt((w ** 2).sum(axis=0))
    assert np.abs(norms - 1.0).max() < 1e-12
    assert degenerate.dtype == bool and not degenerate.any() and degenerate.shape == (9,)


def test_project_idempotent():
    rng = np.random.default_rng(1)
    once = oblique.project(rng.normal(size=(4, 5)))[0]
    twice = oblique.project(once)[0]
    assert np.abs(twice - once).max() < 1e-15


def test_project_scale_invariance():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 4))
    base = oblique.project(m)[0]
    for lam in (1e-6, 0.5, 7.0, 1e6, 1e200):
        assert np.abs(oblique.project(lam * m)[0] - base).max() < 1e-12


def test_project_zero_column_policy():
    m = np.array([[0.0, 3.0], [0.0, 4.0]])
    w, degenerate = oblique.project(m)
    assert degenerate.tolist() == [True, False]
    assert np.allclose(w[:, 0], [1.0, 0.0])
    assert np.allclose(w[:, 1], [0.6, 0.8])
    # project is the checked column case of the kernels' row function,
    # which leaves its input as it was.
    m = np.random.default_rng(5).normal(size=(6, 9))
    m[:, 3] = 0.0
    before = m.copy()
    rows, dead = oblique._unit_rows(m.T)
    assert m.tobytes() == before.tobytes()
    w, degenerate = oblique.project(m)
    assert w.tobytes() == rows.T.tobytes()
    assert degenerate.tolist() == dead.tolist() == [False] * 3 + [True] + [False] * 5


def test_project_returns_a_new_array():
    m = np.eye(3) * 2.0
    w = oblique.project(m)[0]
    assert not np.shares_memory(w, m)
    m[:] = 5.0
    assert np.array_equal(w, np.eye(3))


# (call taking a configuration, the argument's name in errors)
POINT_ARGUMENTS = {
    "geodesic_distance-q": (lambda a: oblique.geodesic_distance(a, a), "geodesic_distance: q"),
    "geodesic_distance-k": (lambda a: oblique.geodesic_distance(np.eye(2), a),
                            "geodesic_distance: k"),
    "tangent_project": (lambda a: oblique.tangent_project(a, np.zeros(a.shape)),
                        "tangent_project: w"),
    "retract": (lambda a: oblique.retract(a, np.zeros(a.shape), 0.1), "retract: w"),
}


# A column whose squared norm overflows fails the check too, before any
# overflow warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, err", [([[1.0, 2.0], [0.0, 0.0]], r"1\.000e\+00"),
                                      ([[1e200], [0.0]], "inf")])
@pytest.mark.parametrize("api", POINT_ARGUMENTS)
def test_point_arguments_reject_non_unit_columns(api, bad, err):
    call, name = POINT_ARGUMENTS[api]
    with pytest.raises(ValueError, match=rf"^{name} columns are not unit-norm "
                                         rf"\(max \|norm - 1\| = {err}\)$"):
        call(np.array(bad))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
@pytest.mark.parametrize("api", POINT_ARGUMENTS)
def test_point_arguments_reject_no_rows(api, shape):
    call, name = POINT_ARGUMENTS[api]
    with pytest.raises(ValueError, match=rf"^{name} has no rows: a zero-width "
                                         rf"column has no unit vector$"):
        call(np.zeros(shape))


def test_configuration_with_rows_and_no_columns_is_accepted():
    # project returns an n x 0 configuration for an n x 0 input.
    w = oblique.project(np.zeros((3, 0)))[0]
    assert w.shape == (3, 0)
    assert oblique.geodesic_distance(w, w) == 0.0
    assert oblique.tangent_project(w, w).shape == (3, 0)
    assert oblique.retract(w, w, 0.1).shape == (3, 0)


@pytest.mark.parametrize("api", POINT_ARGUMENTS)
def test_configuration_changed_after_project_is_refused(api):
    # Every call checks its configuration: none is trusted for having
    # once come out of project.
    call, name = POINT_ARGUMENTS[api]
    w = oblique.project(np.eye(2))[0]
    call(w)
    w[:] = 5.0
    with pytest.raises(ValueError, match=f"^{name} columns are not unit-norm"):
        call(w)


def test_geodesic_distance_identical_configs():
    # clipping makes the self-distance sqrt(g) * arccos(1 - eps), not 0
    rng = np.random.default_rng(3)
    for g in (1, 2, 5):
        q = oblique.project(rng.normal(size=(4, g)))[0]
        d = oblique.geodesic_distance(q, q)
        assert abs(d - math.sqrt(g) * ACOS_1_MINUS_EPS) < 1e-12


def test_geodesic_distance_rotated_columns():
    theta = math.pi / 6
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    # Plain arrays with unit columns are configurations as they are.
    assert abs(oblique.geodesic_distance(np.eye(2), rot) - ROT30_TWO_COLS) < 1e-12
    assert abs(oblique.geodesic_distance([[1.0, 0.0], [0.0, 1.0]], rot.tolist())
               - ROT30_TWO_COLS) < 1e-12


def test_geodesic_distance_symmetry_and_shapes():
    rng = np.random.default_rng(4)
    q = oblique.project(rng.normal(size=(3, 4)))[0]
    k = oblique.project(rng.normal(size=(3, 4)))[0]
    assert oblique.geodesic_distance(q, k) == oblique.geodesic_distance(k, q)
    with pytest.raises(ValueError, match=r"^geodesic_distance: shape mismatch: "
                                         r"q \(3, 4\) vs k \(2, 2\)$"):
        oblique.geodesic_distance(q, oblique.project(np.ones((2, 2)))[0])


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
        w = oblique.project(rng.normal(size=(5, 3)))[0]
        g = rng.normal(size=(5, 3)) * 10.0
        xi = oblique.tangent_project(w, g)
        assert np.linalg.norm(xi) <= np.linalg.norm(g) + 1e-12
        dots = (w * xi).sum(axis=0)
        assert np.abs(dots).max() < 1e-10


def test_tangent_project_idempotent_on_tangent():
    rng = np.random.default_rng(9)
    w = oblique.project(rng.normal(size=(4, 2)))[0]
    xi = oblique.tangent_project(w, rng.normal(size=(4, 2)))
    again = oblique.tangent_project(w, xi)
    assert np.abs(again - xi).max() < 1e-12


def test_tangent_validation():
    w = np.eye(2)
    with pytest.raises(ValueError, match="^retract: xi is not tangent at w"):
        oblique.retract(w, np.eye(2), 0.1)
    # a unit-norm xi off tangency by 1e-6 still fails the relative check
    off = np.array([[1e-6, 1.0], [math.sqrt(1.0 - 1e-12), 0.0]])
    with pytest.raises(ValueError, match="^retract: xi is not tangent at w"):
        oblique.retract(w, off, 0.1)
    # a tangent xi that changes after tangent_project returned it is refused
    xi = oblique.tangent_project(w, [[0.0, 1.0], [1.0, 0.0]])
    oblique.retract(w, xi, 0.1)
    xi[:] = 7.0
    with pytest.raises(ValueError, match="^retract: xi is not tangent at w"):
        oblique.retract(w, xi, 0.1)
    with pytest.raises(ValueError, match="^tangent_project: shape mismatch"):
        oblique.tangent_project(w, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^retract: shape mismatch"):
        oblique.retract(w, np.zeros((3, 3)), 0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_retract_names_a_non_finite_step(step):
    with pytest.raises(ValueError, match=r"^retract: step must be finite, got "):
        oblique.retract(np.eye(2), np.zeros((2, 2)), step)


@pytest.mark.filterwarnings("error")
def test_results_past_the_float64_limit_name_their_function():
    w = oblique.project(np.ones((2, 2)))[0]
    with pytest.raises(ValueError, match="^tangent_project: the projection of grad is "
                                         "past the float64 limit$"):
        oblique.tangent_project(w, np.full((2, 2), 1.7e308))
    xi = np.array([[1.0, 0.0], [0.0, 1.0]]) * 1e300
    with pytest.raises(ValueError, match=r"^retract: w \+ step \* xi is past the "
                                         r"float64 limit \(step 1e\+10\)$"):
        oblique.retract(np.array([[0.0, 1.0], [1.0, 0.0]]), xi, 1e10)


def test_retract_zero_step():
    rng = np.random.default_rng(10)
    w = oblique.project(rng.normal(size=(4, 3)))[0]
    xi = oblique.tangent_project(w, rng.normal(size=(4, 3)))
    assert np.abs(oblique.retract(w, xi, 0.0) - w).max() < 1e-12


def test_retract_first_order():
    rng = np.random.default_rng(11)
    w = oblique.project(rng.normal(size=(4, 3)))[0]
    xi = oblique.tangent_project(w, rng.normal(size=(4, 3)))
    step = 1e-8
    moved = oblique.retract(w, xi, step)
    assert np.linalg.norm(moved - w) <= 2 * step * np.linalg.norm(xi)
    norms = np.sqrt((moved ** 2).sum(axis=0))
    assert np.abs(norms - 1.0).max() < 1e-12


def test_distance_gradient_validates_its_rows():
    with pytest.raises(ValueError, match="q row contains NaN or Inf entries"):
        oblique.distance_gradient([math.nan, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="k row contains NaN or Inf entries"):
        oblique.distance_gradient([1.0, 0.0], [0.0, math.inf])
    with pytest.raises(ValueError, match=r"q row must be 1-D, got shape \(1, 2\)"):
        oblique.distance_gradient([[1.0, 0.0]], [[0.0, 1.0]])


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
