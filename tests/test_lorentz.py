import math
import tracemalloc

import numpy as np
import pytest

from geoattn import diffcheck, lorentz

SINH_1 = 1.1752011936438014
COSH_1 = 1.5430806348152437
SINH_2 = 3.6268604078470188
CLIP_FLOOR_C1 = 4.4721359549995794e-08       # arcosh(1 + 1e-15)


def _rand_point(rng, n, c, rmax=5.0):
    u = rng.normal(size=n)
    u *= rng.uniform(0, rmax) / np.linalg.norm(u)
    return lorentz.exp_origin(u, c)


def test_check_curvature():
    assert lorentz.check_curvature(1.0) == 1.0
    with pytest.raises(ValueError, match="curvature"):
        lorentz.check_curvature(1e-4)
    with pytest.raises(ValueError, match="curvature"):
        lorentz.check_curvature(float("nan"))


def test_origin_is_on_manifold():
    for c in (1e-3, 0.5, 1.0, 10.0):
        o = lorentz.origin(4, c)
        assert lorentz.hyperboloid_residual(o, c) < 1e-15
        assert o.time == 1.0 / math.sqrt(c)


def test_lorentz_inner_against_origin():
    # -<x, o>_L = cosh 1, read back through the distance arcosh(-c <x, o>_L)
    x = lorentz.LorentzPoint(np.array([SINH_1]), COSH_1)
    o = lorentz.origin(1, 1.0)
    assert abs(math.cosh(lorentz.geodesic_distance(x, o, 1.0)) - COSH_1) < 1e-12
    with pytest.raises(ValueError, match="dimension mismatch"):
        lorentz.geodesic_distance(x, lorentz.origin(2, 1.0), 1.0)


def test_exp_origin_unit_tangent():
    p = lorentz.exp_origin(np.array([1.0, 0.0, 0.0]), 1.0)
    assert abs(p.space[0] - SINH_1) < 1e-12
    assert abs(p.space[1]) == 0.0 and abs(p.space[2]) == 0.0
    assert abs(p.time - COSH_1) < 1e-12


def test_exp_origin_membership_sweep():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        c = rng.uniform(1e-3, 10.0)
        p = _rand_point(rng, 3, c, rmax=20.0)
        worst = max(worst, lorentz.hyperboloid_residual(p, c))
    assert worst < 1e-9


def test_log_origin_example():
    x = lorentz.LorentzPoint(np.array([SINH_2]), math.cosh(2.0))
    u = lorentz.log_origin(x, 1.0)
    assert abs(u[0] - 2.0) < 1e-9


def test_exp_log_roundtrip_sweep():
    rng = np.random.default_rng(1)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        for _ in range(1000 // 3):
            u = rng.normal(size=4)
            u *= rng.uniform(0, 10.0) / np.linalg.norm(u)
            back = lorentz.log_origin(lorentz.exp_origin(u, c), c)
            worst = max(worst, float(np.abs(back - u).max()))
    assert worst < 1e-9


def test_radial_isometry():
    rng = np.random.default_rng(2)
    for c in (0.5, 1.0, 2.0):
        o = lorentz.origin(3, c)
        for _ in range(100):
            u = rng.normal(size=3)
            u *= rng.uniform(0.1, 10.0) / np.linalg.norm(u)
            d = lorentz.geodesic_distance(o, lorentz.exp_origin(u, c), c)
            assert abs(d - np.linalg.norm(u)) < 1e-9


def test_self_distance_clip_floor():
    # at the origin beta = 1 exactly, so the distance is the clip floor as
    # float64 computes it: acosh(fl(1 + 1e-15)) with fl(1 + 1e-15) a few
    # ulps above the ideal, hence 4.71e-8 instead of 4.47e-8
    o = lorentz.origin(2, 1.0)
    d0 = lorentz.geodesic_distance(o, o, 1.0)
    assert d0 == np.arccosh(1.0 + 1e-15)
    assert abs(d0 - CLIP_FLOOR_C1) < 1e-6
    # generic points pick up rounding in beta of order eps * time^2,
    # comparable to the 1e-15 clip itself; only the scale is pinned
    p = lorentz.exp_origin(np.array([0.3, -0.4]), 1.0)
    d = lorentz.geodesic_distance(p, p, 1.0)
    assert math.isfinite(d)
    assert abs(d - CLIP_FLOOR_C1) < 1e-6


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    c = 1.0
    for _ in range(1000):
        x, y, z = (_rand_point(rng, 3, c) for _ in range(3))
        dxy = lorentz.geodesic_distance(x, y, c)
        assert dxy == lorentz.geodesic_distance(y, x, c)
        dyz = lorentz.geodesic_distance(y, z, c)
        dxz = lorentz.geodesic_distance(x, z, c)
        assert dxz <= dxy + dyz + 1e-9


def test_curvature_scaling():
    # d_c(exp_c(u), exp_c(w)) = d_1(exp_1(sqrt(c) u), exp_1(sqrt(c) w)) / sqrt(c)
    rng = np.random.default_rng(4)
    for c in (0.5, 2.0, 5.0):
        a = math.sqrt(c)
        for _ in range(50):
            u, w = rng.normal(size=(2, 3))
            d_c = lorentz.geodesic_distance(
                lorentz.exp_origin(u, c), lorentz.exp_origin(w, c), c)
            d_1 = lorentz.geodesic_distance(
                lorentz.exp_origin(a * u, 1.0), lorentz.exp_origin(a * w, 1.0), 1.0)
            assert abs(d_c - d_1 / a) < 1e-9


def _stacked(points):
    return np.stack([p.space for p in points]), np.array([p.time for p in points])


def _scalar(p):
    return p.space.tolist(), p.time


@pytest.mark.parametrize("c", [1e-3, 1.0, 30.0])
def test_pairwise_matches_scalar_loop(c):
    # the augmented rows carry the factor c, so every curvature is checked
    rng = np.random.default_rng(5)
    xs = [_rand_point(rng, 3, c) for _ in range(64)]
    d = lorentz.pairwise_distance_matrix(*_stacked(xs), *_stacked(xs), c)
    for i in range(0, 64, 7):
        for j in range(0, 64, 7):
            if i == j:
                # -c <x, x>_L is 1 up to rounding of order eps * c * time^2,
                # which the arcosh magnifies to its square root (ROADMAP
                # item 4), so the self-distance is bounded, not compared
                noise = 8.0 * np.finfo(float).eps * c * xs[i].time ** 2
                assert np.arccosh(1.0 + 1e-15) / math.sqrt(c) <= d[i, i]
                assert d[i, i] <= np.arccosh(1.0 + max(noise, 1e-15)) / math.sqrt(c)
            else:
                want = diffcheck._lorentz_dist(_scalar(xs[i]), _scalar(xs[j]), c)
                assert abs(d[i, j] - want) < 1e-12


def test_pairwise_singleton_clip_floor():
    p = lorentz.exp_origin(np.array([1.0, 1.0]), 1.0)
    d = lorentz.pairwise_distance_matrix(*_stacked([p]), *_stacked([p]), 1.0)
    assert d.shape == (1, 1)
    assert abs(d[0, 0] - CLIP_FLOOR_C1) < 1e-6


def test_lift_rows_matches_exp_origin():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(10, 4))
    # a zero row and rows on both sides of the sinhc Taylor switch (1e-4)
    for t in (0.0, 5e-5, 1e-4, 2e-4):
        m = np.vstack([m, [t / (0.3 * math.sqrt(2.0)), 0.0, 0.0, 0.0]])
    space, time = lorentz.lift_rows(m, 2.0, scale=0.3)
    for i in range(m.shape[0]):
        # diffcheck's scalar lift, sinh(t)/t with no Taylor branch
        p_space, p_time = diffcheck._lift_row(m[i].tolist(), 2.0, 0.3)
        assert np.abs(space[i] - p_space).max() < 1e-12
        assert abs(time[i] - p_time) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 0.3])
def test_lift_writes_no_input(scale):
    # the lift runs in place on its own copy, never on the caller's rows
    rng = np.random.default_rng(8)
    m = rng.normal(size=(6, 3))
    u = rng.normal(size=3)
    m_before, u_before = m.copy(), u.copy()
    space, _ = lorentz.lift_rows(m, 2.0, scale=scale)
    p = lorentz.exp_origin(u, 2.0)
    assert not np.shares_memory(space, m) and not np.shares_memory(p.space, u)
    assert np.array_equal(m, m_before) and np.array_equal(u, u_before)


def test_lift_rows_peak_memory_is_one_array():
    # the scaled copy becomes the space part; row norms come without an
    # n x d square, so the peak stays near one n x d array
    n, d = 1024, 64
    m = np.random.default_rng(9).normal(size=(n, d))
    tracemalloc.start()
    try:
        lorentz.lift_rows(m, 1.0, scale=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8, peak / (n * d * 8)


@pytest.mark.parametrize("scale", [0.3, -0.3])
def test_lift_rows_writes_out_once_as_space_then_time(scale):
    m = np.random.default_rng(12).normal(size=(7, 4))
    out = np.full((7, 5), np.nan)
    space, time = lorentz.lift_rows(m, 30.0, scale=scale, out=out)
    # the returned arrays are out's columns [space | time], nothing else
    assert np.shares_memory(space, out) and np.shares_memory(time, out)
    assert np.array_equal(out[:, :-1], space) and np.array_equal(out[:, -1], time)
    want_space, want_time = lorentz.lift_rows(m, 30.0, scale=scale)
    assert np.array_equal(space, want_space) and np.array_equal(time, want_time)


@pytest.mark.parametrize("c", [1e-3, 1.0, 30.0])
def test_exp_origin_is_the_one_row_lift(c):
    rng = np.random.default_rng(13)
    for u in (np.zeros(3), np.array([5e-5, 0.0, 0.0]), *rng.normal(size=(5, 3))):
        p = lorentz.exp_origin(u, c)
        space, time = lorentz.lift_rows(u[None], c)
        assert np.array_equal(p.space, space[0]) and p.time == time[0]


@pytest.mark.parametrize("c", [1e-3, 1.0, 30.0])
@pytest.mark.parametrize("scale", [0.7, -0.7])
def test_lift_rows_residual_stays_at_rounding_level(c, scale):
    # The time part comes from each row's factor and norm, not from the
    # written space part, so check the two against each other up to
    # sqrt(c) r = 350, just inside the float64 limit.
    rng = np.random.default_rng(14)
    d = 5
    dirs = rng.normal(size=(200, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.concatenate([[0.0, 5e-5, 1e-4], np.geomspace(1e-3, 350.0, 197)])
    m = dirs * (radii / (math.sqrt(c) * abs(scale)))[:, None]
    space, time = lorentz.lift_rows(m, c, scale=scale)
    assert np.all(time > 0) and np.all(np.sign(space) == np.sign(scale * m))
    res = [lorentz.hyperboloid_residual(lorentz.LorentzPoint(s, t), c)
           for s, t in zip(space, time)]
    assert max(res) <= 4 * (d + 1) * np.finfo(float).eps


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_lift_rows_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match=f"lift_rows: scale must be finite, got {scale}"):
        lorentz.lift_rows(np.ones((2, 3)), 1.0, scale=scale)


def _sinhc_loop(t):
    if t < 1e-4:
        return 1.0 + t * t / 6.0 + t ** 4 / 120.0
    return math.sinh(t) / t


def _sinhc_deriv_over_r_loop(t):
    if t < 1e-4:
        return 1.0 / 3.0 + t * t / 30.0
    return (t * math.cosh(t) - math.sinh(t)) / t ** 3


def test_sinhc_helpers_array_form_matches_per_element_loop():
    # zero, both sides of the Taylor switch at 1e-4, and large arguments;
    # then entries all at or above the switch, which take the closed form
    # without the per-entry selection
    for ts in (np.array([0.0, 0.99e-4, 1.01e-4, 1.0, 10.0, 300.0]),
               np.array([1e-4, 1.01e-4, 1.0, 10.0, 300.0])):
        sc = lorentz._sinhc(ts)
        g = lorentz._sinhc_deriv_over_r(ts)
        # the array form picks each element's branch as a scalar call does
        assert np.array_equal(sc, [lorentz._sinhc(float(t)) for t in ts])
        assert np.array_equal(g, [lorentz._sinhc_deriv_over_r(float(t)) for t in ts])
        for t, got_sc, got_g in zip(ts, sc, g):
            assert abs(got_sc / _sinhc_loop(t) - 1.0) <= 1e-15
            # above the switch t cosh t - sinh t ~ t^3 / 3 cancels: one ulp of
            # sinh(t) moves it by about 3 u / t^2 relative
            tol = 1e-15 * max(1.0, 3.0 / t ** 2) if t >= 1e-4 else 1e-15
            assert abs(got_g / _sinhc_deriv_over_r_loop(t) - 1.0) <= tol


def test_lift_rows_keeps_finite_output_below_float64_limit():
    # sqrt(c) r = 350 is just inside the limit of about 355.58 at c = 1
    m = np.array([[210.0, 280.0], [0.3, 0.4]])
    space, time = lorentz.lift_rows(m, 1.0)
    assert np.isfinite(space).all() and np.isfinite(time).all()
    for i in range(2):
        p_space, p_time = diffcheck._lift_row(m[i].tolist(), 1.0, 1.0)
        assert np.abs(space[i] - p_space).max() <= 1e-14 * np.abs(p_space).max()
        assert abs(time[i] - p_time) <= 1e-14 * p_time


@pytest.mark.parametrize("c, r", [(1.0, 400.0), (1.0, 1000.0), (4.0, 500.0)])
def test_lift_rows_past_float64_limit_raises(c, r):
    # sinh^2(sqrt(c) r) / c, the lifted squared norm, would overflow
    m = np.array([[0.3, 0.4], [0.6 * r, 0.8 * r]])
    limit = math.asinh(math.sqrt(c) * math.sqrt(np.finfo(float).max))
    message = (rf"largest sqrt\(c\) \* r is {math.sqrt(c) * r:g}, "
               rf"past the float64 limit {limit:.6g}")
    with pytest.raises(ValueError, match=message):
        lorentz.lift_rows(m, c)


@pytest.mark.filterwarnings("error")  # raises before any overflow warning
@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("t", [400.0, 1000.0])
def test_exp_origin_past_float64_limit_raises(c, t):
    # tangent vector u with sqrt(c) * ||u|| = t
    u = np.array([0.6, 0.8]) * t / math.sqrt(c)
    limit = math.asinh(math.sqrt(c) * math.sqrt(np.finfo(float).max))
    message = (rf"exp_origin: largest sqrt\(c\) \* r is {t:g}, "
               rf"past the float64 limit {limit:.6g}")
    with pytest.raises(ValueError, match=message):
        lorentz.exp_origin(u, c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1.0, 4.0])
def test_exp_origin_keeps_finite_output_below_float64_limit(c):
    u = np.array([0.6, 0.8]) * 350.0 / math.sqrt(c)
    p = lorentz.exp_origin(u, c)
    assert np.isfinite(p.space).all() and math.isfinite(p.time)
    assert lorentz.hyperboloid_residual(p, c) <= 1e-12


def test_distance_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    c = 1.3
    for _ in range(20):
        u, w = rng.normal(size=(2, 4))
        analytic = lorentz.distance_gradient(u, w, c)
        fd = diffcheck.finite_diff_gradient(
            lambda x: lorentz.geodesic_distance(
                lorentz.exp_origin(x, c), lorentz.exp_origin(w, c), c), u)
        rel = np.abs(analytic - fd).max() / np.abs(fd).max()
        assert rel < 1e-5


@pytest.mark.parametrize("c", [1.0, 30.0])
def test_distance_grads_coincident_pair_adds_nothing(c):
    # Rows 0 and 1 lift onto the same point, at the clip floor, where their
    # distance does not move; their weight adds nothing to either gradient
    # rather than being divided by sinh of the floor (about 4.7e-8).
    u = np.array([[0.1, -0.05], [0.1, -0.05], [0.3, 0.2]]) / math.sqrt(c)
    x = np.empty((3, 3))
    t, sc = lorentz._lift(u, c, 1.0, x, "test")[2:]
    d = lorentz._distances(x, lorentz._keys(x, c), c)
    assert d[0, 1] == d[1, 0] == float(np.arccosh(1.0 + 1e-15)) / math.sqrt(c)
    w = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, -2.0], [1.0, -2.0, 0.0]])
    apart = w.copy()
    apart[0, 1] = apart[1, 0] = 0.0
    got = lorentz._distance_grads(u, t, sc, x, d, w, c)
    assert np.array_equal(got, lorentz._distance_grads(u, t, sc, x, d, apart, c))
    assert np.all(got[:2] != 0.0)


def test_distance_gradient_coincident_raises():
    u = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="coincident"):
        lorentz.distance_gradient(u, u.copy(), 1.0)


@pytest.mark.filterwarnings("error")  # raises before any overflow warning
@pytest.mark.parametrize("c", [1.0, 4.0])
@pytest.mark.parametrize("t", [400.0, 1000.0])
@pytest.mark.parametrize("far_first", [True, False])
def test_distance_gradient_past_float64_limit_raises(c, t, far_first):
    # one tangent vector with sqrt(c) * ||.|| = t, the other near the origin
    far = np.array([0.6, 0.8]) * t / math.sqrt(c)
    near = np.array([0.3, 0.4])
    u, w = (far, near) if far_first else (near, far)
    limit = math.asinh(math.sqrt(c) * math.sqrt(np.finfo(float).max))
    message = (rf"distance_gradient: largest sqrt\(c\) \* r is {t:g}, "
               rf"past the float64 limit {limit:.6g}")
    with pytest.raises(ValueError, match=message):
        lorentz.distance_gradient(u, w, c)


def test_off_manifold_rejected():
    bad = lorentz.LorentzPoint(np.array([1.0, 0.0]), 1.0)  # residual = 1
    with pytest.raises(ValueError, match="off the hyperboloid"):
        lorentz.geodesic_distance(bad, lorentz.origin(2, 1.0), 1.0)
    with pytest.raises(ValueError, match="off the hyperboloid"):
        lorentz.log_origin(bad, 1.0)
