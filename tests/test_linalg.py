import math
import re

import numpy as np
import pytest

from geoattn import lorentz, oblique
from geoattn.attention import softmax_rows
from geoattn.linalg import as_matrix, as_vector

O2 = lorentz.origin(2, 1.0)
U = np.array([0.3, -0.4])
ROWS = np.array([[0.6, 0.8], [1.0, 0.0]])
# A configuration with unit columns, and a tangent vector at it.
W = ROWS.T
XI = np.array([[-0.8, 0.0], [0.6, 1.0]])

# (call taking the argument under test, a valid value of it, its name in errors)
POINT_AND_MANIFOLD_API = {
    "lorentz.exp_origin": (lambda a: lorentz.exp_origin(a, 1.0), U, "exp_origin: u"),
    "lorentz.log_origin": (lambda a: lorentz.log_origin(a, 1.0), O2, "log_origin: x"),
    "lorentz.geodesic_distance-x": (lambda a: lorentz.geodesic_distance(a, O2, 1.0), O2,
                                    "geodesic_distance: x"),
    "lorentz.geodesic_distance-y": (lambda a: lorentz.geodesic_distance(O2, a, 1.0), O2,
                                    "geodesic_distance: y"),
    "lorentz.hyperboloid_residual": (lambda a: lorentz.hyperboloid_residual(a, 1.0), O2,
                                     "hyperboloid_residual: x"),
    "lorentz.distance_gradient-u": (lambda a: lorentz.distance_gradient(a, -U, 1.0), U,
                                    "distance_gradient: u"),
    "lorentz.distance_gradient-w": (lambda a: lorentz.distance_gradient(U, a, 1.0), -U,
                                    "distance_gradient: w"),
    "oblique.project": (oblique.project, ROWS, "projection input"),
    "oblique.geodesic_distance-q": (lambda a: oblique.geodesic_distance(a, W), W,
                                    "geodesic_distance: q"),
    "oblique.geodesic_distance-k": (lambda a: oblique.geodesic_distance(W, a), W,
                                    "geodesic_distance: k"),
    "oblique.tangent_project-w": (lambda a: oblique.tangent_project(a, ROWS), W,
                                  "tangent_project: w"),
    "oblique.tangent_project-grad": (lambda a: oblique.tangent_project(W, a), ROWS,
                                     "tangent_project: grad"),
    "oblique.retract-w": (lambda a: oblique.retract(a, np.zeros((2, 2)), 0.1), W,
                          "retract: w"),
    "oblique.retract-xi": (lambda a: oblique.retract(W, a, 0.1), XI, "retract: xi"),
    "oblique.pairwise_distances-q": (lambda a: oblique.pairwise_distances(a, ROWS), ROWS,
                                     "q rows"),
    "oblique.pairwise_distances-k": (lambda a: oblique.pairwise_distances(ROWS, a), ROWS,
                                     "k rows"),
    "oblique.distance_gradient-q": (lambda a: oblique.distance_gradient(a, ROWS[1]), ROWS[0],
                                    "q row"),
    "oblique.distance_gradient-k": (lambda a: oblique.distance_gradient(ROWS[0], a), ROWS[1],
                                    "k row"),
}


def _weights(m):
    """The kernels' softmax stage, shifted by the row max, with identity values."""
    return softmax_rows(m, np.eye(m.shape[1]), True)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    m = rng.uniform(-700, 700, size=(50, 20))
    w = _weights(m)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    assert (w >= 0).all() and (w <= 1).all()
    # strict positivity holds when row spreads stay clear of exp underflow
    w2 = _weights(rng.uniform(-50, 50, size=(50, 20)))
    assert (w2 > 0).all()


def test_softmax_rows_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 8))
    shifted = m + rng.normal(size=(10, 1))  # per-row constant
    assert np.abs(_weights(m) - _weights(shifted)).max() < 1e-12


def test_softmax_single_column_is_one():
    assert np.array_equal(_weights(np.array([[3.0], [-5.0]])),
                          np.ones((2, 1)))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="2-D"):
        as_matrix(np.zeros(3))
    with pytest.raises(ValueError, match="NaN or Inf"):
        as_matrix([[1.0, float("nan")]])


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="NaN or Inf"):
        as_vector([math.inf])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("api", POINT_AND_MANIFOLD_API)
def test_point_and_manifold_api_name_a_non_finite_argument(api, bad):
    # The last entry is a Lorentz point's time.  lift_rows and
    # pairwise_distance_matrix check c and scale only: their rows come
    # from the lift.
    call, good, name = POINT_AND_MANIFOLD_API[api]
    call(good)
    spoiled = np.array(good, dtype=np.float64)
    spoiled.flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)} contains NaN or Inf entries$"):
        call(spoiled)


@pytest.mark.filterwarnings("error")  # raises before any overflow warning
@pytest.mark.parametrize("api", ["lorentz.log_origin", "lorentz.geodesic_distance-x",
                                 "lorentz.geodesic_distance-y",
                                 "lorentz.hyperboloid_residual"])
@pytest.mark.parametrize("point", [[0.0, 1e200, 1e200], [0.0, 1e200, 1.0]])
def test_point_whose_residual_overflows_is_off_the_hyperboloid(api, point):
    # Finite entries whose squares pass the float64 limit give a NaN or inf
    # residual, which fails the membership test instead of passing it.
    call, _, name = POINT_AND_MANIFOLD_API[api]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} is off the hyperboloid "
                                         r"\(normalized residual (nan|inf), "):
        call(np.array(point))
