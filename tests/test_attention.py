import itertools
import math
import tracemalloc

import numpy as np
import pytest

from geoattn import attention, lorentz, oblique
from geoattn.attention import (AttentionConfig, bidirectional_attention,
                               default_embed, euclidean_attention, fourier_pe,
                               lorentz_cross_attention, oblique_attention,
                               oblique_self_attention)
from geoattn.diffcheck import naive_attention_reference

KERNELS = [oblique_attention, lorentz_cross_attention, euclidean_attention]


def test_config_validation():
    with pytest.raises(ValueError, match="heads"):
        AttentionConfig(heads=0)
    with pytest.raises(ValueError, match="temperatures"):
        AttentionConfig(tau_lor=0.0)
    with pytest.raises(ValueError, match="curvature"):
        AttentionConfig(curvature=-1.0)
    for alpha in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="alpha"):
            AttentionConfig(alpha=alpha)


@pytest.mark.parametrize("kernel", [*KERNELS, bidirectional_attention])
def test_kernels_reject_indivisible_heads(kernel):
    cfg = AttentionConfig(heads=3)
    x = np.ones((4, 8))
    with pytest.raises(ValueError, match="divisible"):
        kernel(x, x, cfg) if kernel is bidirectional_attention else kernel(x, x, x, cfg)


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
    # the width is always 3 * 2 * num_freqs: no padding or truncation
    pos = np.zeros((3, 3))
    for num_freqs in (1, 2, 5):
        assert fourier_pe(pos, num_freqs).shape == (3, 6 * num_freqs)
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


def _checked_stage(monkeypatch, inputs):
    """Wrap the softmax-value stage; each call records that it may write
    only its own score block: the block shares no memory with ``inputs``
    and the values it reads are left as they were."""
    stage, calls = attention._softmax_value, []

    def checked(scores, vh, shift):
        owned = not any(np.shares_memory(scores, a) for a in inputs)
        vh_before = vh.copy()
        out = stage(scores, vh, shift)
        calls.append(owned and np.array_equal(vh, vh_before))
        return out

    monkeypatch.setattr(attention, "_softmax_value", checked)
    return calls


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_write_no_input(kernel, monkeypatch):
    rng = np.random.default_rng(54)
    q, k, v = rng.normal(size=(3, 5, 6))
    mask = rng.normal(size=(5, 5))
    mask[0, 1] = -math.inf
    before = [a.copy() for a in (q, k, v, mask)]
    pure = _checked_stage(monkeypatch, (q, k, v, mask))
    cfg = AttentionConfig(heads=2)
    kernel(q, k, v, cfg, mask=mask)
    kernel(q, q, q, cfg)  # q is k is v, as in self attention
    assert pure == [True] * 4  # once per head per block
    for got, want in zip((q, k, v, mask), before):
        assert np.array_equal(got, want)


def test_lorentz_lift_past_float64_limit_raises():
    cfg = AttentionConfig(heads=1, alpha=1.0, curvature=1.0)
    q = np.array([[0.3, 0.4], [600.0, 800.0]])  # sqrt(c) r = 1000
    with pytest.raises(ValueError, match="largest sqrt.*is 1000, past the float64 limit"):
        lorentz_cross_attention(q, q, q, cfg)


@pytest.mark.filterwarnings("error")  # an overflow or invalid-value warning fails
def test_config_envelope_gives_finite_output_or_names_float64_limit():
    # every AttentionConfig field at its extremes, at three input scales
    rng = np.random.default_rng(0)
    base = rng.normal(size=(3, 6, 8))

    def bidirectional(q, k, v, cfg):
        return bidirectional_attention(q, [k[:3], k[3:]], cfg)

    calls = limits = 0
    for heads, tau_obl, tau_lor, c, alpha, scale in itertools.product(
            (1, 2, 4), (1e-3, 1.0, 1e3), (1e-3, 0.1, 1e3), (1e-3, 1.0, 1e3),
            (None, 1e-3, 10.0), (1e-6, 1.0, 1e4)):
        cfg = AttentionConfig(heads=heads, tau_obl=tau_obl, tau_lor=tau_lor,
                              curvature=c, alpha=alpha)
        q, k, v = scale * base
        for kernel in (*KERNELS, bidirectional):
            calls += 1
            try:
                out = kernel(q, k, v, cfg)
            except ValueError as exc:
                assert "float64 limit" in str(exc), (cfg, scale, exc)
                limits += 1
                continue
            for o in out if isinstance(out, tuple) else (out,):
                assert np.isfinite(o).all(), (cfg, scale)
    assert calls == 2916 and 0 < limits < calls


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


def test_bidirectional_writes_no_input(monkeypatch):
    rng = np.random.default_rng(62)
    inst = rng.normal(size=(5, 4))
    s0, s1, ctx = rng.normal(size=(3, 6, 4))
    before = [a.copy() for a in (inst, s0, s1, ctx)]
    pure = _checked_stage(monkeypatch, (inst, s0, s1, ctx))
    cfg = AttentionConfig(heads=2)
    bidirectional_attention(inst, (s0, s1), cfg)
    bidirectional_attention(inst, ctx, cfg)
    bidirectional_attention(inst, inst, cfg)  # instance as its own context
    assert pure == [True] * 6  # once per head per block, for both directions
    for got, want in zip((inst, s0, s1, ctx), before):
        assert np.array_equal(got, want)


def test_bidirectional_feature_dims_must_match():
    cfg = AttentionConfig(heads=2)
    with pytest.raises(ValueError, match="instance/context feature dims differ: 4 vs 6"):
        bidirectional_attention(np.ones((5, 4)), np.ones((3, 6)), cfg)
    with pytest.raises(ValueError, match="instance/context feature dims differ: 4 vs 6"):
        bidirectional_attention(np.ones((5, 4)), (np.ones((3, 6)), np.ones((3, 6))), cfg)


@pytest.mark.parametrize("alpha", [None, 0.7])
def test_bidirectional_matches_per_direction_calls(alpha):
    # large enough that the column softmax and the value product may sum
    # in another order than the separate calls do
    rng = np.random.default_rng(63)
    inst = rng.normal(size=(512, 64))
    s0, s1 = rng.normal(size=(2, 16, 64))
    cfg = AttentionConfig(heads=4, alpha=alpha)
    oac, cao = bidirectional_attention(inst, (s0, s1), cfg)
    stacked = np.vstack([s0, s1])
    assert np.abs(oac - lorentz_cross_attention(inst, stacked, stacked, cfg)).max() <= 1e-12
    want = (lorentz_cross_attention(s0, inst, inst, cfg)
            + lorentz_cross_attention(s1, inst, inst, cfg)) / 2.0
    assert np.abs(cao - want).max() <= 1e-12
    oac, cao = bidirectional_attention(inst, s0, cfg)
    assert np.abs(oac - lorentz_cross_attention(inst, s0, s0, cfg)).max() <= 1e-12
    assert np.abs(cao - lorentz_cross_attention(s0, inst, inst, cfg)).max() <= 1e-12


@pytest.mark.parametrize("two_slice", [False, True])
def test_bidirectional_one_distance_pass_per_head(two_slice, monkeypatch):
    counts = {"distance_calls": 0, "lifted_rows": 0}
    lift_rows, distances = lorentz.lift_rows, lorentz.pairwise_distance_matrix

    def counted_lift(m, *args, **kwargs):
        counts["lifted_rows"] += m.shape[0]
        return lift_rows(m, *args, **kwargs)

    def counted_distances(*args, **kwargs):
        counts["distance_calls"] += 1
        return distances(*args, **kwargs)

    monkeypatch.setattr(lorentz, "lift_rows", counted_lift)
    monkeypatch.setattr(lorentz, "pairwise_distance_matrix", counted_distances)
    rng = np.random.default_rng(64)
    inst = rng.normal(size=(9, 8))
    context = tuple(rng.normal(size=(2, 3, 8))) if two_slice else rng.normal(size=(5, 8))
    n_ctx = 6 if two_slice else 5
    cfg = AttentionConfig(heads=4)
    bidirectional_attention(inst, context, cfg)
    assert counts == {"distance_calls": 4, "lifted_rows": 4 * (9 + n_ctx)}


@pytest.mark.parametrize("two_slice", [False, True])
def test_bidirectional_blocks_match_per_direction_calls(two_slice, monkeypatch):
    # 32 context rows and 64-row blocks: 300 instance rows are 4 x 64 + 44
    monkeypatch.setattr(attention, "_BLOCK_BYTES", 8 * 32 * 64)
    blocks = _checked_stage(monkeypatch, ())
    rng = np.random.default_rng(65)
    inst = rng.normal(size=(300, 16))
    s0, s1 = rng.normal(size=(2, 16, 16))
    stacked = np.vstack([s0, s1])
    cfg = AttentionConfig(heads=4)
    oac, cao = bidirectional_attention(inst, (s0, s1) if two_slice else stacked, cfg)
    assert len(blocks) == 4 * 5
    assert np.abs(oac - lorentz_cross_attention(inst, stacked, stacked, cfg)).max() <= 1e-12
    if two_slice:
        want = (lorentz_cross_attention(s0, inst, inst, cfg)
                + lorentz_cross_attention(s1, inst, inst, cfg)) / 2.0
    else:
        want = lorentz_cross_attention(stacked, inst, inst, cfg)
    assert np.abs(cao - want).max() <= 1e-12


def test_shape_validation():
    cfg = AttentionConfig(heads=1)
    with pytest.raises(ValueError, match="feature dims differ"):
        oblique_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 4)), cfg)
    with pytest.raises(ValueError, match="rows"):
        lorentz_cross_attention(np.ones((2, 4)), np.ones((3, 4)), np.ones((2, 4)), cfg)


@pytest.mark.parametrize("kernel", [*KERNELS, bidirectional_attention])
def test_empty_key_set_names_its_cause(kernel):
    cfg = AttentionConfig(heads=2)
    rows, none = np.ones((3, 4)), np.empty((0, 4))
    if kernel is bidirectional_attention:
        for inst, ctx, side in ((none, rows, "instance"), (rows, none, "context"),
                                (rows, (none, none), "context")):
            with pytest.raises(ValueError, match=f"{side} has no rows"):
                kernel(inst, ctx, cfg)
        return
    with pytest.raises(ValueError, match="k has no rows: attention needs at least one key"):
        kernel(rows, none, none, cfg)
    assert kernel(none, rows, rows, cfg).shape == (0, 4)


@pytest.mark.parametrize("kernel", [*KERNELS, bidirectional_attention])
def test_zero_width_features_name_their_cause(kernel):
    cfg = AttentionConfig(heads=1)
    q, k = np.empty((2, 0)), np.empty((3, 0))
    with np.errstate(all="raise"):
        if kernel is bidirectional_attention:
            for ctx in (k, (k, k)):
                with pytest.raises(ValueError, match="instance and context have "
                                                     "zero-width features"):
                    kernel(q, ctx, cfg)
            return
        with pytest.raises(ValueError, match="q and k have zero-width features"):
            kernel(q, k, np.ones((3, 4)), cfg)


def test_project_without_rows_names_its_cause():
    for cols in (0, 3):
        with pytest.raises(ValueError, match="projection input has no rows"):
            oblique.project(np.zeros((0, cols)))


def _blocked_inputs(seed, n=150, m=2048, d=16):
    """m = 2048 keys make 64-row query blocks: 150 rows are 64 + 64 + 22."""
    assert attention._BLOCK_BYTES // (8 * m) == 64
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.normal(size=(m, d))


@pytest.mark.parametrize("kernel", KERNELS)
def test_query_blocks_are_exact_across_ragged_blocks(kernel):
    q, k, v = _blocked_inputs(70)
    rng = np.random.default_rng(71)
    mask = rng.normal(size=(q.shape[0], k.shape[0]))
    mask[rng.random(mask.shape) < 0.2] = -math.inf
    cfg = AttentionConfig(heads=4)
    full = kernel(q, k, v, cfg, mask=mask)
    for i in (0, 63, 64, 127, 128, 149):
        alone = kernel(q[i:i + 1], k, v, cfg, mask=mask[i:i + 1])
        np.testing.assert_allclose(full[i], alone[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad_rows, message", [
    ({10: -math.inf, 100: math.nan}, r"mask row 100 has a NaN or \+inf entry"),
    ({70: -math.inf, 140: -math.inf}, r"mask row 70 has no finite entry"),
])
def test_mask_check_names_first_bad_row_across_blocks(bad_rows, message):
    # NaN or +inf anywhere is reported before a fully masked row in an
    # earlier block, as a check of the whole mask at once would.
    q, k, v = _blocked_inputs(74)
    mask = np.zeros((q.shape[0], k.shape[0]))
    for row, entry in bad_rows.items():
        if entry == -math.inf:
            mask[row, :] = entry
        else:
            mask[row, 5] = entry
    with pytest.raises(ValueError, match=message):
        lorentz_cross_attention(q, k, v, AttentionConfig(heads=4), mask=mask)


def test_query_blocks_prepare_keys_once_per_head(monkeypatch):
    counts = {"lifted_rows": 0, "distance_calls": 0, "pairs": 0, "projections": 0}
    lift_rows, distances = lorentz.lift_rows, lorentz.pairwise_distance_matrix
    project = oblique.project

    def counted_lift(m, *args, **kwargs):
        counts["lifted_rows"] += m.shape[0]
        return lift_rows(m, *args, **kwargs)

    def counted_distances(*args, **kwargs):
        d = distances(*args, **kwargs)
        counts["distance_calls"] += 1
        counts["pairs"] += d.size
        return d

    def counted_project(*args, **kwargs):
        counts["projections"] += 1
        return project(*args, **kwargs)

    monkeypatch.setattr(lorentz, "lift_rows", counted_lift)
    monkeypatch.setattr(lorentz, "pairwise_distance_matrix", counted_distances)
    monkeypatch.setattr(oblique, "project", counted_project)
    q, k, v = _blocked_inputs(72)
    (n, m), heads = (q.shape[0], k.shape[0]), 4
    cfg = AttentionConfig(heads=heads)
    lorentz_cross_attention(q, k, v, cfg)
    oblique_attention(q, k, v, cfg)
    assert counts == {"lifted_rows": heads * (n + m), "distance_calls": heads * 3,
                      "pairs": heads * n * m, "projections": 2 * heads}


def test_lorentz_peak_memory_is_independent_of_query_count():
    rng = np.random.default_rng(73)
    m, d = 1024, 64
    k, v = rng.normal(size=(2, m, d))
    cfg = AttentionConfig(heads=4)
    extra = []
    for n in (1024, 4096):
        q = rng.normal(size=(n, d))
        tracemalloc.start()
        try:
            out = lorentz_cross_attention(q, k, v, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert abs(extra[1] - extra[0]) < 1 << 20, extra


def test_masked_peak_memory_is_independent_of_query_count():
    rng = np.random.default_rng(75)
    m, d = 1024, 64
    k, v = rng.normal(size=(2, m, d))
    cfg = AttentionConfig(heads=4)
    extra = []
    for n in (1024, 4096):
        q = rng.normal(size=(n, d))
        mask = np.zeros((n, m))
        tracemalloc.start()
        try:
            out = lorentz_cross_attention(q, k, v, cfg, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert abs(extra[1] - extra[0]) < 1 << 20, extra


def test_bidirectional_peak_memory_is_independent_of_instance_rows():
    # The lifted instance rows are O(n * d / heads), under 0.5 MiB apart
    # here; an n x m score matrix per head would be 6 MiB apart.
    rng = np.random.default_rng(76)
    ctx = tuple(rng.normal(size=(2, 32, 16)))
    cfg = AttentionConfig(heads=4)
    extra = []
    for n in (4096, 16384):
        inst = rng.normal(size=(n, 16))
        tracemalloc.start()
        try:
            oac, cao = bidirectional_attention(inst, ctx, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - oac.nbytes - cao.nbytes)
    assert abs(extra[1] - extra[0]) < 1 << 20, extra


# The oblique kernel shifts by its score bound only while
# (pi - floor) / tau_obl < 700: on either side of that temperature and far
# below it, and at Lorentz's extreme temperatures, every row stays finite.
_FLOOR = math.acos(1.0 - oblique.EPS_CLIP)
_TAU_EDGE = (math.pi - _FLOOR) / 700.0


@pytest.mark.filterwarnings("error")  # an overflow or invalid-value warning fails
@pytest.mark.parametrize("space, tau", [
    ("oblique", _TAU_EDGE * 1.001), ("oblique", _TAU_EDGE * 0.999), ("oblique", 1e-3),
    ("lorentz", 1e-3), ("lorentz", 1e3)])
def test_score_bound_shift_keeps_every_row(space, tau):
    rng = np.random.default_rng(77)
    # Per head, every key lies within 0.005 rad of u: query row 0 (-u)
    # meets only clipped distances pi - floor, the smallest possible row
    # max, and row 1 (u) the largest.
    u = rng.normal(size=(2, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    k = np.repeat(u, 8, axis=0) + 0.001 * rng.normal(size=(16, 4))
    k = k.reshape(2, 8, 4).transpose(1, 0, 2).reshape(8, 8)
    q = np.vstack([-u.reshape(1, 8), u.reshape(1, 8), rng.normal(size=(4, 8))])
    v = rng.normal(size=(8, 8))
    key_sets = [rng.normal(size=(8, 8))]
    if space == "oblique":
        cfg = AttentionConfig(heads=2, tau_obl=tau)
        kernel = oblique_attention
        key_sets.append(k)
    else:
        # Lorentz exps lie in (1, e] at any temperature.  The clustered keys
        # are left out: row 1's near-coincident pairs meet the cancellation
        # in arccosh(-c <x, y>_L), not the shift.
        cfg = AttentionConfig(heads=2, tau_lor=tau)
        kernel = lorentz_cross_attention
    for keys in key_sets:
        out = kernel(q, keys, v, cfg)
        assert np.isfinite(out).all()
        ref = naive_attention_reference(q, keys, v, space, cfg)
        assert np.abs(out - ref).max() <= 1e-12
