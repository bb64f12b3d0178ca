import math

import numpy as np
import pytest

from geoattn import attention
from geoattn.attention import (AttentionConfig, bidirectional_attention,
                               default_embed, euclidean_attention, fourier_pe,
                               lorentz_cross_attention, oblique_attention,
                               oblique_self_attention)
from geoattn.diffcheck import naive_attention_reference
from geoattn.linalg import softmax_rows

KERNELS = [oblique_attention, lorentz_cross_attention, euclidean_attention]


def test_config_validation():
    with pytest.raises(ValueError, match="heads"):
        AttentionConfig(heads=0)
    with pytest.raises(ValueError, match="temperatures"):
        AttentionConfig(tau_lor=0.0)
    with pytest.raises(ValueError, match="curvature"):
        AttentionConfig(curvature=-1.0)
    with pytest.raises(ValueError, match="either alpha or log_alpha"):
        AttentionConfig(alpha=1.0, log_alpha=0.0)


def test_config_log_alpha():
    cfg = AttentionConfig(log_alpha=0.5)
    assert abs(cfg.alpha - math.exp(0.5)) < 1e-15


def test_head_dim_divisibility():
    cfg = AttentionConfig(heads=3)
    with pytest.raises(ValueError, match="divisible"):
        cfg.head_dim(8)
    assert cfg.head_dim(9) == 3


def test_fourier_pe_values():
    pos = np.array([[0.5, 0.0, 2.0]])
    enc = fourier_pe(pos, num_freqs=2)
    assert enc.shape == (1, 12)
    # coordinate-major, (sin, cos) per frequency f_j = 2^j
    assert abs(enc[0, 0] - math.sin(0.5)) < 1e-15
    assert abs(enc[0, 1] - math.cos(0.5)) < 1e-15
    assert abs(enc[0, 2] - math.sin(1.0)) < 1e-15
    assert abs(enc[0, 4] - math.sin(0.0)) < 1e-15
    assert abs(enc[0, 9] - math.cos(2.0)) < 1e-15


def test_fourier_pe_pad_truncate():
    pos = np.zeros((3, 3))
    assert fourier_pe(pos, 2, out_dim=5).shape == (3, 5)
    padded = fourier_pe(pos, 2, out_dim=20)
    assert padded.shape == (3, 20)
    assert np.array_equal(padded[:, 12:], np.zeros((3, 8)))
    with pytest.raises(ValueError, match="n x 3"):
        fourier_pe(np.zeros((2, 2)), 2)


@pytest.mark.parametrize("heads", [1, 4])
def test_oblique_matches_naive_reference(heads):
    rng = np.random.default_rng(10 + heads)
    q = rng.normal(size=(16, 8))
    k = rng.normal(size=(12, 8))
    v = rng.normal(size=(12, 8))
    cfg = AttentionConfig(heads=heads)
    got = oblique_attention(q, k, v, cfg)
    want = naive_attention_reference(q, k, v, "oblique", cfg)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("heads", [1, 4])
def test_lorentz_matches_naive_reference(heads):
    rng = np.random.default_rng(20 + heads)
    q = rng.normal(size=(16, 8))
    k = rng.normal(size=(12, 8))
    v = rng.normal(size=(12, 8))
    cfg = AttentionConfig(heads=heads)
    got = lorentz_cross_attention(q, k, v, cfg)
    want = naive_attention_reference(q, k, v, "lorentz", cfg)
    assert np.abs(got - want).max() < 1e-12


def test_lorentz_two_point_example():
    # one feature, antipodal tangents at unit radius: geodesic distances
    # are (clip floor, 1.0), giving row weights softmax(e^0, e^-1)
    cfg = AttentionConfig(heads=1, tau_lor=1.0, alpha=1.0, curvature=1.0)
    q = np.array([[0.5], [-0.5]])
    v = np.array([[1.0], [0.0]])
    out = lorentz_cross_attention(q, q, v, cfg)
    assert abs(out[0, 0] - 0.6529701368564691) < 1e-4
    assert abs(out[1, 0] - 0.3470298631435309) < 1e-4


def test_self_attention_uses_raw_values():
    rng = np.random.default_rng(30)
    x = rng.normal(size=(6, 4))
    pos = rng.normal(size=(6, 3))
    cfg = AttentionConfig(heads=2)
    emb = default_embed(num_freqs=1)
    got = oblique_self_attention(x, pos, emb, cfg)
    qk = emb(x, pos)
    assert np.array_equal(got, oblique_attention(qk, qk, x, cfg))


def test_self_attention_embedding_must_keep_rows():
    cfg = AttentionConfig(heads=1)
    with pytest.raises(ValueError, match="row count"):
        oblique_self_attention(np.ones((3, 2)), None,
                               lambda x, pos: np.ones((4, 2)), cfg)


@pytest.mark.parametrize("kernel", KERNELS)
def test_permutation_equivariance(kernel):
    rng = np.random.default_rng(40)
    q = rng.normal(size=(10, 8))
    k = rng.normal(size=(7, 8))
    v = rng.normal(size=(7, 8))
    cfg = AttentionConfig(heads=2)
    base = kernel(q, k, v, cfg)
    perm_q = rng.permutation(10)
    assert np.abs(kernel(q[perm_q], k, v, cfg) - base[perm_q]).max() < 1e-12
    perm_kv = rng.permutation(7)
    assert np.abs(kernel(q, k[perm_kv], v[perm_kv], cfg) - base).max() < 1e-12


def test_degenerate_inputs_stay_finite():
    cfg = AttentionConfig(heads=1)
    same = np.ones((4, 3))
    out = oblique_attention(same, same, same, cfg)
    assert np.isfinite(out).all()
    anti = np.vstack([np.ones((2, 3)), -np.ones((2, 3))])
    assert np.isfinite(oblique_attention(anti, anti, anti, cfg)).all()
    assert np.isfinite(lorentz_cross_attention(anti, anti, anti, cfg)).all()
    # zero rows go through the degenerate-column policy, not a crash
    assert np.isfinite(oblique_attention(np.zeros((2, 3)), anti[:2], anti[:2], cfg)).all()


def test_mask_is_additive():
    rng = np.random.default_rng(50)
    q = rng.normal(size=(4, 6))
    k = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    cfg = AttentionConfig(heads=1)
    mask = np.zeros((4, 5))
    mask[:, 2] = -1e30  # effectively removes key 2
    out = oblique_attention(q, k, v, cfg, mask=mask)
    out_dropped = oblique_attention(q, np.delete(k, 2, axis=0),
                                    np.delete(v, 2, axis=0), cfg)
    assert np.abs(out - out_dropped).max() < 1e-12
    with pytest.raises(ValueError, match="mask shape"):
        oblique_attention(q, k, v, cfg, mask=np.zeros((2, 2)))


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("entry, message", [
    (math.nan, r"mask row 2 has a NaN or \+inf entry"),
    (math.inf, r"mask row 2 has a NaN or \+inf entry"),
    (-math.inf, r"mask row 2 has no finite entry"),
])
def test_mask_rejects_rows_without_finite_weights(kernel, entry, message):
    rng = np.random.default_rng(52)
    q, k, v = rng.normal(size=(3, 4, 6))
    mask = np.zeros((4, 4))
    if entry == -math.inf:
        mask[2, :] = entry
    else:
        mask[2, 1] = entry
    with pytest.raises(ValueError, match=message):
        kernel(q, k, v, AttentionConfig(heads=2), mask=mask)


@pytest.mark.parametrize("kernel", KERNELS)
def test_mask_minus_inf_drops_a_key(kernel):
    rng = np.random.default_rng(53)
    q, k, v = rng.normal(size=(3, 4, 6))
    cfg = AttentionConfig(heads=2)
    mask = np.zeros((4, 4))
    mask[:, 1] = -math.inf
    out = kernel(q, k, v, cfg, mask=mask)
    dropped = kernel(q, np.delete(k, 1, axis=0), np.delete(v, 1, axis=0), cfg)
    assert np.abs(out - dropped).max() < 1e-12


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_write_no_input(kernel, monkeypatch):
    rng = np.random.default_rng(54)
    q, k, v = rng.normal(size=(3, 5, 6))
    mask = rng.normal(size=(5, 5))
    mask[0, 1] = -math.inf
    before = [a.copy() for a in (q, k, v, mask)]
    pure = []

    def checked_softmax(m):
        m_before = m.copy()
        out = softmax_rows(m)
        pure.append(np.array_equal(m, m_before))
        return out

    monkeypatch.setattr(attention, "softmax_rows", checked_softmax)
    cfg = AttentionConfig(heads=2)
    kernel(q, k, v, cfg, mask=mask)
    kernel(q, q, q, cfg)  # q is k is v, as in self attention
    assert pure == [True] * 4
    for got, want in zip((q, k, v, mask), before):
        assert np.array_equal(got, want)


def test_lorentz_lift_past_float64_limit_raises():
    cfg = AttentionConfig(heads=1, alpha=1.0, curvature=1.0)
    q = np.array([[0.3, 0.4], [600.0, 800.0]])  # sqrt(c) r = 1000
    with pytest.raises(ValueError, match="largest sqrt.*is 1000, past the float64 limit"):
        lorentz_cross_attention(q, q, q, cfg)


def test_bidirectional_single_context():
    rng = np.random.default_rng(60)
    inst = rng.normal(size=(5, 4))
    ctx = rng.normal(size=(7, 4))
    cfg = AttentionConfig(heads=2)
    oac, cao = bidirectional_attention(inst, ctx, cfg)
    assert np.array_equal(oac, lorentz_cross_attention(inst, ctx, ctx, cfg))
    assert np.array_equal(cao, lorentz_cross_attention(ctx, inst, inst, cfg))


def test_bidirectional_two_slice_context():
    rng = np.random.default_rng(61)
    inst = rng.normal(size=(5, 4))
    s0 = rng.normal(size=(6, 4))
    s1 = rng.normal(size=(6, 4))
    cfg = AttentionConfig(heads=2)
    oac, cao = bidirectional_attention(inst, (s0, s1), cfg)
    stacked = np.vstack([s0, s1])
    assert np.array_equal(oac, lorentz_cross_attention(inst, stacked, stacked, cfg))
    want = (lorentz_cross_attention(s0, inst, inst, cfg)
            + lorentz_cross_attention(s1, inst, inst, cfg)) / 2.0
    assert np.array_equal(cao, want)
    with pytest.raises(ValueError, match="two-slice"):
        bidirectional_attention(inst, (s0, s1[:3]), cfg)


def test_shape_validation():
    cfg = AttentionConfig(heads=1)
    with pytest.raises(ValueError, match="feature dims differ"):
        oblique_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)), cfg)
    with pytest.raises(ValueError, match="rows"):
        lorentz_cross_attention(np.ones((2, 4)), np.ones((3, 4)), np.ones((2, 4)), cfg)
