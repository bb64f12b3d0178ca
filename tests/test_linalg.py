import math

import numpy as np
import pytest

from geoattn.attention import softmax_rows
from geoattn.linalg import as_matrix, as_vector


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
