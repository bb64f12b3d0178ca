import math

import numpy as np
import pytest

from geoattn.diffcheck import finite_diff_gradient, naive_attention_reference
from geoattn.attention import AttentionConfig


def test_quadratic_gradient():
    grad = finite_diff_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
    assert np.abs(grad - [2.0, 4.0]).max() < 1e-6


def test_constant_function():
    grad = finite_diff_gradient(lambda x: 3.0, np.array([0.1, -0.5, 2.0]))
    assert np.abs(grad).max() < 1e-9


def test_config_validation():
    for step in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="step must be positive"):
            finite_diff_gradient(lambda x: 0.0, np.array([1.0]), step=step)


def test_nonfinite_reported_with_coordinate():
    def f(x):
        return math.sqrt(x[1])  # negative under perturbation -> nan domain error

    with pytest.raises(ValueError, match="coordinate 1"):
        finite_diff_gradient(lambda x: float("nan") if x[1] < 0 else 1.0,
                             np.array([1.0, 0.0]))


def test_step_size_tradeoff():
    # coarser step degrades a cubic's gradient; h=1e-6 stays ~1e-10 accurate
    f = lambda x: float(x[0] ** 3)
    x = np.array([1.5])
    fine = finite_diff_gradient(f, x, step=1e-6)
    coarse = finite_diff_gradient(f, x, step=1e-2)
    exact = 3 * 1.5 ** 2
    assert abs(fine[0] - exact) < 1e-8
    assert abs(coarse[0] - exact) > abs(fine[0] - exact)


def test_reference_rejects_bad_inputs():
    cfg = AttentionConfig(heads=1)
    big = np.zeros((300, 4))
    with pytest.raises(ValueError, match="capped"):
        naive_attention_reference(big, big, big, "oblique", cfg)
    small = np.ones((2, 2))
    with pytest.raises(ValueError, match="unknown space"):
        naive_attention_reference(small, small, small, "euclidean", cfg)


def test_reference_weight_rows_sum_to_one():
    # reconstructed from outputs: reference(q, k, ones) should be all ones
    rng = np.random.default_rng(0)
    q = rng.normal(size=(5, 4))
    k = rng.normal(size=(6, 4))
    ones = np.ones((6, 4))
    cfg = AttentionConfig(heads=2)
    for space in ("oblique", "lorentz"):
        out = naive_attention_reference(q, k, ones, space, cfg)
        assert np.abs(out - 1.0).max() < 1e-12
