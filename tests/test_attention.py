import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from geoattn import attention, lorentz, oblique
from geoattn.attention import (AttentionConfig, bidirectional_attention,
                               euclidean_attention, fourier_pe,
                               lorentz_cross_attention, oblique_attention,
                               oblique_self_attention)
from geoattn.diffcheck import naive_attention_reference

KERNELS = [oblique_attention, lorentz_cross_attention, euclidean_attention]


def test_config_validation():
    for heads in (0, 2.5, 4.0):
        with pytest.raises(ValueError, match="heads"):
            AttentionConfig(heads=heads)
    assert AttentionConfig(heads=np.int64(2)).heads == 2
    with pytest.raises(ValueError, match="temperatures"):
        AttentionConfig(tau_lor=0.0)
    with pytest.raises(ValueError, match="curvature"):
        AttentionConfig(curvature=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("curvature", [1e-3, 1.0, 30.0])
@pytest.mark.parametrize("tau", [1e-300, 2e-308, 1e-308, 1e-320, 5e-324])
def test_tiny_temperature_gives_finite_output_or_names_itself(tau, curvature):
    # Row 0 of q is antipodal to row 0 of k: oblique's largest distance.
    rng = np.random.default_rng(41)
    k, v = rng.normal(size=(2, 6, 8))
    q = np.vstack([-k[:1], rng.normal(size=(4, 8))])
    floor = {"tau_obl": math.pi / sys.float_info.max,
             "tau_lor": float(np.arccosh(sys.float_info.max)) / math.sqrt(curvature)
             / sys.float_info.max}
    for field, kernel in (("tau_obl", lambda cfg: [oblique_attention(q, k, v, cfg)]),
                          ("tau_lor", lambda cfg: [lorentz_cross_attention(q, k, v, cfg)]),
                          ("tau_lor", lambda cfg: bidirectional_attention(q, k, cfg))):
        if tau < floor[field]:
            with pytest.raises(ValueError, match=rf"^{field} = {tau!r} is too small: "):
                AttentionConfig(heads=2, curvature=curvature, **{field: tau})
            continue
        for out in kernel(AttentionConfig(heads=2, curvature=curvature, **{field: tau})):
            assert np.isfinite(out).all()


@pytest.mark.parametrize("kernel", [*KERNELS, bidirectional_attention])
def test_kernels_reject_indivisible_heads(kernel):
    # A head count past the feature dim is rejected before anything is
    # allocated per head.
    x = np.ones((4, 8))
    for heads in (3, 2 ** 62):
        cfg = AttentionConfig(heads=heads)
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
    assert fourier_pe(pos, np.int64(2)).shape == (3, 12)
    assert fourier_pe(pos, 0).shape == (3, 0)
    with pytest.raises(ValueError, match="n x 3"):
        fourier_pe(np.zeros((2, 2)), 2)
    for num_freqs in (-1, 2.5, 2.0, None):
        with pytest.raises(ValueError, match="num_freqs"):
            fourier_pe(pos, num_freqs)
    # A phase past the float64 limit is named, not a NaN encoding (or an
    # overflow warning under -W error).
    for x, j in ((1e308, 1), (3e307, 3), (-3e307, 3)):
        with pytest.raises(ValueError, match=rf"frequency 2\^{j} pass the float64 limit") as err:
            fourier_pe([[0.0, x, 0.0]], 4)
        assert f"|x| = {abs(x):.4g}" in str(err.value)
    assert np.isfinite(fourier_pe([[2e307, 0.0, 0.0]], 4)).all()


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


# At c = 1e-3 and tau_lor = 0.1 with 2-wide heads, the kernel and the
# oracle both compute arccosh(-c <x, y>_L), which cancels for near pairs
# (ROADMAP item 1): each is about 2.6e-12 from a 60-digit mpmath value.
_ORACLE_CANCELS = pytest.mark.xfail(
    strict=True, reason="arccosh(-c <x, y>_L) cancels at small c (ROADMAP item 1)")


@pytest.mark.parametrize("heads, curvature, tau_lor", [
    pytest.param(*case, marks=_ORACLE_CANCELS) if case == (4, 1e-3, 0.1) else case
    for case in itertools.product((1, 4), (1e-3, 1.0, 30.0), (1e-3, 0.1))])
def test_lorentz_matches_naive_reference(heads, curvature, tau_lor):
    # the keys carry c, the queries do not
    rng = np.random.default_rng(20 + heads)
    q = rng.normal(size=(16, 8))
    k = rng.normal(size=(12, 8))
    v = rng.normal(size=(12, 8))
    cfg = AttentionConfig(heads=heads, curvature=curvature, tau_lor=tau_lor)
    got = lorentz_cross_attention(q, k, v, cfg)
    want = naive_attention_reference(q, k, v, "lorentz", cfg)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("heads", [1, 4])
def test_euclidean_matches_naive_reference(heads):
    rng = np.random.default_rng(40 + heads)
    q = rng.normal(size=(16, 8))
    k = rng.normal(size=(12, 8))
    v = rng.normal(size=(12, 8))
    cfg = AttentionConfig(heads=heads)
    got = euclidean_attention(q, k, v, cfg)
    want = naive_attention_reference(q, k, v, "euclidean", cfg)
    assert np.abs(got - want).max() < 1e-12


def test_lorentz_two_point_example():
    # one feature, antipodal tangents at unit radius: geodesic distances
    # are (clip floor, 1.0), giving row weights softmax(e^0, e^-1)
    cfg = AttentionConfig(heads=1, tau_lor=1.0, curvature=1.0)
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
    qk = np.concatenate([x, fourier_pe(pos, 4)], axis=1)
    assert np.array_equal(oblique_self_attention(x, pos, cfg),
                          oblique_attention(qk, qk, x, cfg))
    assert np.array_equal(oblique_self_attention(x, None, cfg),
                          oblique_attention(x, x, x, cfg))


def test_self_attention_positions_must_match_rows():
    cfg = AttentionConfig(heads=1)
    with pytest.raises(ValueError, match="x has 3 rows but positions have 4"):
        oblique_self_attention(np.ones((3, 2)), np.ones((4, 3)), cfg)


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
    only its own score block and output rows: neither shares memory with
    ``inputs``, and the values it reads are left as they were."""
    stage, calls = attention.softmax_rows, []

    def checked(scores, vh, row_max, out=None):
        owned = not any(np.shares_memory(w, a) for w in (scores, out) if w is not None
                        for a in inputs)
        vh_before = vh.copy()
        result = stage(scores, vh, row_max, out=out)
        calls.append(owned and np.array_equal(vh, vh_before))
        return result

    monkeypatch.setattr(attention, "softmax_rows", checked)
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
    cfg = AttentionConfig(heads=1, curvature=1.0)
    # tangent scale 1/sqrt(2): sqrt(c) r = 1000
    q = np.array([[0.3, 0.4], [600.0 * math.sqrt(2), 800.0 * math.sqrt(2)]])
    with pytest.raises(ValueError, match="largest sqrt.*is 1000, past the float64 limit"):
        lorentz_cross_attention(q, q, q, cfg)


@pytest.mark.filterwarnings("error")  # an overflow or invalid-value warning fails
def test_config_envelope_gives_finite_output_or_names_float64_limit():
    # every AttentionConfig field at its extremes, at six input scales:
    # 1e-9 gives tiny lifts, 30 large ones (finite up to c = 1, past the
    # limit at c = 1e3), and at 1e160 the squared norms and q.k overflow
    rng = np.random.default_rng(0)
    base = rng.normal(size=(3, 6, 8))

    def bidirectional(q, k, v, cfg):
        return bidirectional_attention(q, [k[:3], k[3:]], cfg)

    calls = limits = 0
    for heads, tau_obl, tau_lor, c, scale in itertools.product(
            (1, 2, 4), (1e-3, 1.0, 1e3), (1e-3, 0.1, 1e3), (1e-3, 1.0, 1e3),
            (1e-9, 1e-6, 1.0, 30.0, 1e4, 1e160)):
        cfg = AttentionConfig(heads=heads, tau_obl=tau_obl, tau_lor=tau_lor,
                              curvature=c)
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
    assert calls == 1944 and 0 < limits < calls


def _bidirectional_draws(seed):
    """300 random instance/context pairs of 2-11 rows and 2-8 features,
    for two heads."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        n, m = rng.integers(2, 12, size=2)
        d = 2 * int(rng.integers(1, 5))
        yield rng.normal(size=(n, d)), rng.normal(size=(m, d))


def _within_summation_order(fused, separate, values):
    """Only the order of the sums differs: a few ulps of the values' scale."""
    return np.abs(fused - separate).max() <= 4 * np.finfo(float).eps * np.abs(values).max()


def test_bidirectional_single_context():
    # oac runs the separate call's arithmetic, so it matches to the bit;
    # cao sums each head's columns by BLAS (ones @ E) where the separate
    # call sums rows, so it matches up to that order.
    cfg = AttentionConfig(heads=2)
    for inst, ctx in _bidirectional_draws(60):
        oac, cao = bidirectional_attention(inst, ctx, cfg)
        assert np.array_equal(oac, lorentz_cross_attention(inst, ctx, ctx, cfg))
        assert _within_summation_order(cao, lorentz_cross_attention(ctx, inst, inst, cfg),
                                       inst)


def test_bidirectional_two_slice_context():
    cfg = AttentionConfig(heads=2)
    for inst, ctx in _bidirectional_draws(61):
        s0, s1 = ctx, ctx[::-1] + 0.5
        oac, cao = bidirectional_attention(inst, (s0, s1), cfg)
        stacked = np.vstack([s0, s1])
        assert np.array_equal(oac, lorentz_cross_attention(inst, stacked, stacked, cfg))
        want = (lorentz_cross_attention(s0, inst, inst, cfg)
                + lorentz_cross_attention(s1, inst, inst, cfg)) / 2.0
        assert _within_summation_order(cao, want, inst)
    with pytest.raises(ValueError, match="two-slice"):
        bidirectional_attention(inst, (s0, s1[:1]), cfg)


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


def test_each_input_is_checked_once(monkeypatch):
    # A context that serves as keys and values is checked once, as k, and
    # the bidirectional wrapper leaves the instance and a single context to
    # _multihead; two slices are checked each, then their stack once.
    names = []
    check = attention.as_matrix

    def counted(data, name="matrix"):
        names.append(name)
        return check(data, name)

    monkeypatch.setattr(attention, "as_matrix", counted)
    rng = np.random.default_rng(66)
    inst, ctx = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    cfg = AttentionConfig(heads=2)
    for run, want in (
            (lambda: bidirectional_attention(inst, ctx, cfg), ["instance", "context"]),
            (lambda: bidirectional_attention(inst, (ctx, ctx), cfg),
             ["context slice", "context slice", "instance", "context"]),
            (lambda: lorentz_cross_attention(inst, ctx, ctx, cfg), ["q", "k"]),
            (lambda: lorentz_cross_attention(inst, ctx, ctx.copy(), cfg), ["q", "k", "v"])):
        names.clear()
        run()
        assert names == want


def test_bidirectional_feature_dims_must_match():
    cfg = AttentionConfig(heads=2)
    with pytest.raises(ValueError, match="instance/context feature dims differ: 4 vs 6"):
        bidirectional_attention(np.ones((5, 4)), np.ones((3, 6)), cfg)
    with pytest.raises(ValueError, match="instance/context feature dims differ: 4 vs 6"):
        bidirectional_attention(np.ones((5, 4)), (np.ones((3, 6)), np.ones((3, 6))), cfg)


@pytest.mark.parametrize("scale", [1.0, 0.7 * math.sqrt(16)])
@pytest.mark.parametrize("curvature", [1.0, 30.0])
def test_bidirectional_matches_per_direction_calls(scale, curvature):
    # large enough that the column softmax and the value product may sum
    # in another order than the separate calls do; at c = 30 a row's key
    # lift carries c and its query lift does not.  The second scale lifts
    # the 16-wide heads with tangent scale 0.7.
    rng = np.random.default_rng(63)
    inst = scale * rng.normal(size=(512, 64))
    s0, s1 = scale * rng.normal(size=(2, 16, 64))
    cfg = AttentionConfig(heads=4, curvature=curvature)
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
    # Query blocks and keys both lift through lorentz.lift_rows, so through
    # lorentz._lift, and every distance pass is lorentz._distances: one pass
    # per head group and block, where the 4 heads make one group unless
    # _BLOCK_BYTES holds one head's block only.
    counts = {"distance_calls": 0, "lifted_rows": 0}
    lift, distances = lorentz._lift, lorentz._distances

    def counted_lift(m, *args, **kwargs):
        counts["lifted_rows"] += m.shape[0]
        return lift(m, *args, **kwargs)

    def counted_distances(*args, **kwargs):
        counts["distance_calls"] += 1
        return distances(*args, **kwargs)

    monkeypatch.setattr(lorentz, "_lift", counted_lift)
    monkeypatch.setattr(lorentz, "_distances", counted_distances)
    rng = np.random.default_rng(64)
    inst = rng.normal(size=(9, 8))
    context = tuple(rng.normal(size=(2, 3, 8))) if two_slice else rng.normal(size=(5, 8))
    n_ctx = 6 if two_slice else 5
    cfg = AttentionConfig(heads=4)
    bidirectional_attention(inst, context, cfg)
    assert counts == {"distance_calls": 1, "lifted_rows": 4 * (9 + n_ctx)}
    counts.update(distance_calls=0, lifted_rows=0)
    monkeypatch.setattr(attention, "_BLOCK_BYTES", 8 * 512 * n_ctx)
    bidirectional_attention(inst, context, cfg)
    assert counts == {"distance_calls": 4, "lifted_rows": 4 * (9 + n_ctx)}


def _check_bidirectional_blocks(monkeypatch, rng, n, slice_rows, blocks_per_head,
                                two_slice):
    """bidirectional_attention on n instance rows, in ``blocks_per_head``
    blocks per head, against separate per-direction calls."""
    blocks = _checked_stage(monkeypatch, ())
    inst = rng.normal(size=(n, 16))
    s0, s1 = rng.normal(size=(2, slice_rows, 16))
    stacked = np.vstack([s0, s1])
    cfg = AttentionConfig(heads=4)
    oac, cao = bidirectional_attention(inst, (s0, s1) if two_slice else stacked, cfg)
    assert len(blocks) == 4 * blocks_per_head
    assert np.abs(oac - lorentz_cross_attention(inst, stacked, stacked, cfg)).max() <= 1e-12
    if two_slice:
        want = (lorentz_cross_attention(s0, inst, inst, cfg)
                + lorentz_cross_attention(s1, inst, inst, cfg)) / 2.0
    else:
        want = lorentz_cross_attention(stacked, inst, inst, cfg)
    assert np.abs(cao - want).max() <= 1e-12


@pytest.mark.parametrize("two_slice", [False, True])
def test_bidirectional_blocks_match_per_direction_calls(two_slice, monkeypatch):
    # 32 context rows and 64-row blocks: 300 instance rows are 4 x 64 + 44
    monkeypatch.setattr(attention, "_BLOCK_BYTES", 8 * 32 * 64)
    _check_bidirectional_blocks(monkeypatch, np.random.default_rng(65), 300, 16, 5,
                                two_slice)


@pytest.mark.parametrize("two_slice", [False, True])
def test_bidirectional_blocks_at_the_row_cap_match_per_direction_calls(two_slice,
                                                                      monkeypatch):
    # 64 context rows and the unpatched 512-row cap: 1100 instance rows are
    # 512 + 512 + 76
    _check_bidirectional_blocks(monkeypatch, np.random.default_rng(69), 1100, 32, 3,
                                two_slice)


@pytest.mark.parametrize("case", ["euclidean", "oblique", "lorentz", "masked", "bidirectional"])
def test_score_blocks_share_one_buffer(case, monkeypatch):
    # 32 keys and 8-row blocks: 20 query rows are 8 + 8 + 4 per head
    monkeypatch.setattr(attention, "_BLOCK_BYTES", 8 * 32 * 8)
    stage, blocks = attention.softmax_rows, []

    def recorded(scores, vh, row_max, out=None):
        blocks.append(scores)
        return stage(scores, vh, row_max, out=out)

    monkeypatch.setattr(attention, "softmax_rows", recorded)
    rng = np.random.default_rng(66)
    q = rng.normal(size=(20, 8))
    k, v = rng.normal(size=(2, 32, 8))
    cfg = AttentionConfig(heads=2)
    if case == "bidirectional":
        bidirectional_attention(q, (k[:16], k[16:]), cfg)
    else:
        kernel = {"euclidean": euclidean_attention, "oblique": oblique_attention}.get(
            case, lorentz_cross_attention)
        mask = rng.normal(size=(20, 32)) if case == "masked" else None
        if mask is not None:
            mask[:, 1] = -math.inf
        kernel(q, k, v, cfg, mask=mask)
    assert [b.shape for b in blocks] == [(8, 32), (8, 32), (4, 32)] * 2
    assert all(np.shares_memory(b, blocks[0]) for b in blocks)


@pytest.mark.parametrize("m, n, rows", [
    (64, 1100, [512, 512, 76]),   # the 512-row cap, not _BLOCK_BYTES's 2048 rows
    (1024, 300, [128, 128, 44]),  # _BLOCK_BYTES's 128 rows, under the cap
])
def test_block_rows_are_capped(m, n, rows, monkeypatch):
    stage, shapes = attention.softmax_rows, []

    def recorded(scores, vh, row_max, out=None):
        shapes.append(scores.shape)
        return stage(scores, vh, row_max, out=out)

    monkeypatch.setattr(attention, "softmax_rows", recorded)
    rng = np.random.default_rng(67)
    q = rng.normal(size=(n, 8))
    k, v = rng.normal(size=(2, m, 8))
    lorentz_cross_attention(q, k, v, AttentionConfig(heads=2))
    # Two heads of 64 keys fit 1 MiB of scores together, two of 1024 do not.
    # Head groups run one after another, each block by block and a block
    # head by head.
    g = 2 if m == 64 else 1
    assert shapes == [(r, m) for _ in range(2 // g) for r in rows for _ in range(g)]


@pytest.mark.parametrize("heads, m, g", [(4, 1024, 1), (4, 256, 1), (4, 64, 4),
                                         (6, 64, 3), (2, 16, 2)])
def test_head_group_is_the_largest_divisor_within_the_score_budget(heads, m, g):
    # 256 keys fill 1 MiB with one head's 512 rows; 64 keys take a quarter,
    # so 4 of 4 heads fit but only 3 of 6, the largest divisor under 4.
    assert attention._head_group(heads, m) == g


def _grouped_and_ungrouped(monkeypatch, call):
    """``call()`` with the default score budget, four heads of 64 keys in
    one group, and again at 256 KiB, where each head is its own group; the
    block rows are 512 in both."""
    assert attention._head_group(4, 64) == 4 and attention._block_rows(64) == 512
    grouped = call()
    with monkeypatch.context() as patched:
        patched.setattr(attention, "_BLOCK_BYTES", 256 << 10)
        assert attention._head_group(4, 64) == 1 and attention._block_rows(64) == 512
        alone = call()
    return grouped, alone


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_head_groups_give_the_bits_of_heads_alone(kernel, masked, monkeypatch):
    # 1100 query rows are ragged blocks of 512 + 512 + 76.
    rng = np.random.default_rng(75)
    q = rng.normal(size=(1100, 32))
    k, v = rng.normal(size=(2, 64, 32))
    mask = None
    if masked:
        mask = rng.normal(size=(1100, 64))
        mask[rng.random(mask.shape) < 0.2] = -math.inf
        mask[:, 0] = 0.0
    cfg = AttentionConfig(heads=4, curvature=30.0)
    grouped, alone = _grouped_and_ungrouped(monkeypatch,
                                            lambda: kernel(q, k, v, cfg, mask=mask))
    assert np.array_equal(grouped, alone)


@pytest.mark.parametrize("two_slice", [False, True])
def test_bidirectional_head_groups_give_the_bits_of_heads_alone(two_slice, monkeypatch):
    rng = np.random.default_rng(76)
    inst = rng.normal(size=(1100, 32))
    ctx = rng.normal(size=(64, 32))
    context = (ctx[:32], ctx[32:]) if two_slice else ctx
    cfg = AttentionConfig(heads=4)
    grouped, alone = _grouped_and_ungrouped(
        monkeypatch, lambda: bidirectional_attention(inst, context, cfg))
    for got, want in zip(grouped, alone):
        assert np.array_equal(got, want)


def test_softmax_rows_writes_into_a_strided_view():
    rng = np.random.default_rng(68)
    scores = -rng.random((37, 64))
    vh = rng.normal(size=(64, 48))[:, 16:32]
    e = np.exp(scores)
    want = (e @ vh) / e.sum(axis=1, keepdims=True)
    target = np.zeros((37, 48))
    view = target[:, 16:32]
    assert attention.softmax_rows(scores.copy(), vh, False, out=view) is view
    np.testing.assert_allclose(view, want, rtol=4 * np.finfo(float).eps, atol=0)
    assert not target[:, :16].any() and not target[:, 32:].any()
    block = scores.copy()
    fresh = attention.softmax_rows(block, vh, False)
    assert not any(np.shares_memory(fresh, a) for a in (block, vh, target))
    np.testing.assert_allclose(fresh, want, rtol=4 * np.finfo(float).eps, atol=0)


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
    # Query rows are prepared block by block and keys once per head, so
    # every row is lifted or projected once and m-row calls count heads.
    q, k, v = _blocked_inputs(72)
    (n, m), heads = (q.shape[0], k.shape[0]), 4
    counts = {"lifted_rows": 0, "key_lifts": 0, "distance_calls": 0, "pairs": 0,
              "projected_rows": 0, "key_projections": 0}
    lift, distances = lorentz._lift, lorentz._distances
    unit_rows = oblique._unit_rows

    def counted_lift(x, *args, **kwargs):
        counts["lifted_rows"] += x.shape[0]
        counts["key_lifts"] += x.shape[0] == m
        return lift(x, *args, **kwargs)

    def counted_distances(*args, **kwargs):
        d = distances(*args, **kwargs)
        counts["distance_calls"] += 1
        counts["pairs"] += d.size
        return d

    def counted_unit_rows(x):
        counts["projected_rows"] += x.shape[0]
        counts["key_projections"] += x.shape[0] == m
        return unit_rows(x)

    monkeypatch.setattr(lorentz, "_lift", counted_lift)
    monkeypatch.setattr(lorentz, "_distances", counted_distances)
    monkeypatch.setattr(oblique, "_unit_rows", counted_unit_rows)
    # The kernels normalize rows and lift keys into their packed layout
    # directly: they call none of these checked wrappers.
    monkeypatch.setattr(oblique, "project", None)
    monkeypatch.setattr(lorentz, "pairwise_distance_matrix", None)
    cfg = AttentionConfig(heads=heads)
    lorentz_cross_attention(q, k, v, cfg)
    oblique_attention(q, k, v, cfg)
    assert counts == {"lifted_rows": heads * (n + m), "key_lifts": heads,
                      "distance_calls": heads * 3, "pairs": heads * n * m,
                      "projected_rows": heads * (n + m), "key_projections": heads}


@pytest.mark.parametrize("case", ["euclidean", "oblique", "lorentz", "masked", "bidirectional"])
def test_peak_memory_is_independent_of_query_count(case):
    # 256 keys make 512-row query blocks, so both counts are whole blocks.
    # Preparing a head's whole query slice (or checking the whole mask)
    # would put about 2 MiB between them here.
    rng = np.random.default_rng(73)
    m, d = 256, 64
    k, v = rng.normal(size=(2, m, d))
    cfg = AttentionConfig(heads=4)
    kernel = {"euclidean": euclidean_attention, "oblique": oblique_attention}.get(
        case, lorentz_cross_attention)
    extra = []
    for n in (1024, 8192):
        q = rng.normal(size=(n, d))
        mask = np.zeros((n, m)) if case == "masked" else None
        tracemalloc.start()
        try:
            if case == "bidirectional":
                outs = bidirectional_attention(q, (k[:m // 2], k[m // 2:]), cfg)
            else:
                outs = (kernel(q, k, v, cfg, mask=mask),)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - sum(o.nbytes for o in outs))
    assert abs(extra[1] - extra[0]) < 1 << 18, extra


# footprint is what geoattn bench's size guard counts for a kernel call.
# Peaks measured 0.65-1.15 of it at these shapes; the rest is per-block
# temporaries it omits.  A full n x m or n x d buffer would pass the bound.
@pytest.mark.parametrize("n, m, d, heads", [(1024, 1024, 256, 4), (4096, 64, 64, 4),
                                            (3000, 300, 16, 1), (100, 5000, 32, 4)])
@pytest.mark.parametrize("kernel", KERNELS, ids=lambda f: f.__name__)
def test_footprint_bounds_a_call_peak(kernel, n, m, d, heads):
    rng = np.random.default_rng(71)
    q, k, v = rng.normal(size=(n, d)), rng.normal(size=(m, d)), rng.normal(size=(m, d))
    cfg = AttentionConfig(heads=heads)
    tracemalloc.start()
    try:
        kernel(q, k, v, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * attention.footprint(n, m, d, heads) + (64 << 10), peak


@pytest.mark.filterwarnings("error")  # an overflow warning fails
def test_euclidean_row_max_shift_past_float64_gives_weight_zero():
    # Each row's scores q.k / sqrt(1) are 1e308 and -1e308: finite, but
    # their span is not, so the shift by the row max takes the least one to
    # -inf, weight 0.
    q = np.array([[1e154], [1e154]])
    k = np.array([[1e154], [-1e154]])
    v = np.array([[1.0], [2.0]])
    out = euclidean_attention(q, k, v, AttentionConfig(heads=1))
    assert np.array_equal(out, [[1.0], [1.0]])


# The oblique kernel exps its scores without the row max only while
# (pi - floor) / tau_obl < 700: on either side of that temperature and far
# below it, and at Lorentz's extreme temperatures, every row stays finite.
# The Euclidean kernel subtracts each row's bound B_i in its product while
# every 2 B_i of the block is within 700: at default scale, with rows 0 and
# 1 scaled past that (row 0's max is then about 2 B_0 below B_0, so the
# bound would underflow it), and with 1e160 queries against 1e-160 keys,
# whose squared norms overflow.
_FLOOR = math.acos(1.0 - oblique.EPS_CLIP)
_TAU_EDGE = (math.pi - _FLOOR) / 700.0
_EUCLIDEAN_SCALES = {"bound": (1.0, 1.0, 1.0), "wide rows": (1e3, 1.0, 1.0),
                     "overflowing norms": (1e160, 1e160, 1e-160)}


@pytest.mark.filterwarnings("error")  # an overflow or invalid-value warning fails
@pytest.mark.parametrize("space, setting", [
    ("oblique", _TAU_EDGE * 1.001), ("oblique", _TAU_EDGE * 0.999), ("oblique", 1e-3),
    ("lorentz", 1e-3), ("lorentz", 1e3),
    *(("euclidean", case) for case in _EUCLIDEAN_SCALES)])
def test_score_bound_shift_keeps_every_row(space, setting):
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
        cfg = AttentionConfig(heads=2, tau_obl=setting)
        kernel = oblique_attention
        key_sets.append(k)
    elif space == "lorentz":
        # Lorentz exps lie in (1, e] at any temperature.  The clustered keys
        # are left out: row 1's near-coincident pairs meet the cancellation
        # in arccosh(-c <x, y>_L), not the shift.
        cfg = AttentionConfig(heads=2, tau_lor=setting)
        kernel = lorentz_cross_attention
    else:
        cfg = AttentionConfig(heads=2)
        kernel = euclidean_attention
        first_rows, other_rows, key_scale = _EUCLIDEAN_SCALES[setting]
        q[:2] *= first_rows
        q[2:] *= other_rows
        key_sets = [key_scale * keys for keys in (*key_sets, k)]
    for keys in key_sets:
        out = kernel(q, keys, v, cfg)
        assert np.isfinite(out).all()
        ref = naive_attention_reference(q, keys, v, space, cfg)
        assert np.abs(out - ref).max() <= 1e-12
