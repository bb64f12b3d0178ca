import math

import numpy as np
import pytest

from geoattn.linalg import as_matrix, as_vector, matmul, softmax_rows


def _triple_loop_matmul(a, b):
    n, k, m = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


@pytest.mark.parametrize("n, k, m", [(7, 5, 9), (33, 70, 17)])
def test_matmul_within_forward_error_of_triple_loop(n, k, m):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, k))
    # a column slice, as the kernels pass each head's values
    b = rng.normal(size=(k, 3 * m))[:, m:2 * m]
    got = matmul(a, b)
    want = _triple_loop_matmul(a, b)
    # Each side is within gamma_k * (|A| @ |B|) of the exact product
    # (gamma_k = k u / (1 - k u), u = 2^-53), whatever its summation order.
    gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
    assert (np.abs(got - want) <= 2.0 * gamma * (np.abs(a) @ np.abs(b))).all()


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=(6, 6)) for _ in range(3))
    lhs = matmul(matmul(a, b), c)
    rhs = matmul(a, matmul(b, c))
    rel = np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1.0)
    assert rel < 1e-10


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    m = rng.uniform(-700, 700, size=(50, 20))
    w = softmax_rows(m)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
    assert (w >= 0).all() and (w <= 1).all()
    # strict positivity holds when row spreads stay clear of exp underflow
    w2 = softmax_rows(rng.uniform(-50, 50, size=(50, 20)))
    assert (w2 > 0).all()


def test_softmax_rows_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 8))
    shifted = m + rng.normal(size=(10, 1))  # per-row constant
    assert np.abs(softmax_rows(m) - softmax_rows(shifted)).max() < 1e-12


def test_softmax_single_column_is_one():
    assert np.array_equal(softmax_rows(np.array([[3.0], [-5.0]])),
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
