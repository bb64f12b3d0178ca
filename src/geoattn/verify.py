"""Runtime property suite behind the ``verify`` CLI command.

Each property re-checks one documented invariant on freshly drawn random
data and reports its measured worst error.  The suite intentionally
overlaps the pytest tests: it is the self-contained, installable way to
demonstrate the library's mathematical claims without a test harness.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffcheck, experiments, lorentz, oblique
from .attention import (AttentionConfig, lorentz_cross_attention, oblique_attention,
                        softmax_rows)

__all__ = ["PropertyResult", "run_properties", "ALL_PROPERTIES"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def _unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _prop_project_idempotent(rng, cfg):
    worst = 0.0
    for _ in range(50):
        p = oblique.project(rng.normal(size=(8, 5)))
        p2 = oblique.project(p.inner)
        worst = max(worst, float(np.abs(p2.inner - p.inner).max()))
    return worst, 1e-15


def _prop_project_scale_invariance(rng, cfg):
    worst = 0.0
    for _ in range(50):
        m = rng.normal(size=(6, 4))
        lam = float(rng.uniform(1e-3, 1e3))
        diff = oblique.project(lam * m).inner - oblique.project(m).inner
        worst = max(worst, float(np.abs(diff).max()))
    return worst, 1e-12


def _prop_oblique_symmetry(rng, cfg):
    worst = 0.0
    for _ in range(50):
        q = oblique.project(rng.normal(size=(7, 3)))
        k = oblique.project(rng.normal(size=(7, 3)))
        worst = max(worst, abs(oblique.geodesic_distance(q, k) -
                               oblique.geodesic_distance(k, q)))
    return worst, 0.0


def _prop_oblique_triangle(rng, cfg):
    worst = -np.inf
    count = 0
    while count < 1000:
        rows = _unit_rows(rng, 3, 5)
        dots = rows @ rows.T
        off = dots[np.triu_indices(3, k=1)]
        if np.abs(off).max() > 1.0 - 2 * oblique.EPS_CLIP:
            continue  # stay inside the clip region
        d = oblique.pairwise_distances(rows, rows)
        worst = max(worst, float(d[0, 2] - d[0, 1] - d[1, 2]))
        count += 1
    return worst, 1e-9


def _prop_tangent_bound(rng, cfg):
    worst = 0.0
    for _ in range(10_000):
        w = oblique.project(rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 3))
        xi = oblique.tangent_project(w, g).delta
        worst = max(worst, float(np.linalg.norm(xi) - np.linalg.norm(g)))
    return worst, 0.0


def _prop_oblique_clip_floor(rng, cfg):
    rows = _unit_rows(rng, 8, 6)
    d = oblique.pairwise_distances(rows, rows)
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    err = float(np.abs(np.diag(d) - floor).max())
    return err, 1e-12, f"floor = {floor:.6e}"


def _prop_lorentz_membership(rng, cfg):
    worst = 0.0
    for _ in range(2000):
        c = float(rng.uniform(1e-3, 10.0))
        u = rng.normal(size=3)
        u *= rng.uniform(0, 20) / max(np.linalg.norm(u), 1e-12)
        x = lorentz.exp_origin(u, c)
        worst = max(worst, lorentz.hyperboloid_residual(x, c))
    return worst, 1e-9


def _prop_lorentz_roundtrip(rng, cfg):
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(0.5, 2.0))
        u = rng.normal(size=4)
        u *= rng.uniform(0, 10) / max(np.linalg.norm(u), 1e-12)
        back = lorentz.log_origin(lorentz.exp_origin(u, c), c)
        worst = max(worst, float(np.linalg.norm(back - u)))
    return worst, 1e-9


def _prop_lorentz_radial_isometry(rng, cfg):
    worst = 0.0
    for _ in range(1000):
        c = float(rng.uniform(0.5, 2.0))
        u = rng.normal(size=3)
        u *= rng.uniform(0, 10) / max(np.linalg.norm(u), 1e-12)
        o = lorentz.origin(3, c)
        d = lorentz.geodesic_distance(o, lorentz.exp_origin(u, c), c)
        worst = max(worst, abs(d - float(np.linalg.norm(u))))
    return worst, 1e-9


def _prop_lorentz_triangle(rng, cfg):
    worst = -np.inf
    for _ in range(1000):
        c = float(rng.uniform(0.5, 2.0))
        pts = []
        for _ in range(3):
            u = rng.normal(size=3)
            u *= rng.uniform(0.1, 5.0) / np.linalg.norm(u)
            pts.append(lorentz.exp_origin(u, c))
        d01 = lorentz.geodesic_distance(pts[0], pts[1], c)
        d12 = lorentz.geodesic_distance(pts[1], pts[2], c)
        d02 = lorentz.geodesic_distance(pts[0], pts[2], c)
        worst = max(worst, d02 - d01 - d12)
    return worst, 1e-9


def _prop_lorentz_curvature_scaling(rng, cfg):
    worst = 0.0
    for _ in range(200):
        c = float(rng.uniform(0.5, 4.0))
        u, w = rng.normal(size=3), rng.normal(size=3)
        d_c = lorentz.geodesic_distance(
            lorentz.exp_origin(u, c), lorentz.exp_origin(w, c), c)
        d_1 = lorentz.geodesic_distance(
            lorentz.exp_origin(math.sqrt(c) * u, 1.0),
            lorentz.exp_origin(math.sqrt(c) * w, 1.0), 1.0)
        worst = max(worst, abs(d_c - d_1 / math.sqrt(c)))
    return worst, 1e-9


def _prop_lorentz_clip_floor(rng, cfg):
    c = cfg.curvature
    u = rng.normal(size=3)
    x = lorentz.exp_origin(u, c)
    d = lorentz.geodesic_distance(x, x, c)
    floor = math.acosh(1.0 + lorentz.EPS_CLIP) / math.sqrt(c)
    return abs(d - floor), 1e-12, f"floor = {floor:.6e}"


def _prop_gradients_match_fd(rng, cfg):
    worst = 0.0
    for _ in range(100):
        q, k = _unit_rows(rng, 2, 4)
        if abs(float(q @ k)) > 0.9:
            continue
        analytic = oblique.distance_gradient(q, k)
        fd = diffcheck.finite_diff_gradient(
            lambda z: math.acos(float(np.clip(z @ k, -1 + oblique.EPS_CLIP,
                                              1 - oblique.EPS_CLIP))), q)
        worst = max(worst, float(np.linalg.norm(analytic - fd) /
                                 np.linalg.norm(fd)))
    for _ in range(100):
        u, w = rng.normal(size=3), rng.normal(size=3)
        analytic = lorentz.distance_gradient(u, w, cfg.curvature)
        fd = diffcheck.finite_diff_gradient(
            lambda z: lorentz.geodesic_distance(
                lorentz.exp_origin(z, cfg.curvature),
                lorentz.exp_origin(w, cfg.curvature), cfg.curvature), u)
        worst = max(worst, float(np.linalg.norm(analytic - fd) /
                                 np.linalg.norm(fd)))
    return worst, 1e-5


def _weights(scores, row_max=True):
    """The kernels' softmax stage with identity values: the weights of a copy."""
    return softmax_rows(scores.copy(), np.eye(scores.shape[1]), row_max)


def _prop_softmax_row_sums(rng, cfg):
    sums = _weights(rng.uniform(-700, 700, size=(50, 40))).sum(axis=1)
    return float(np.abs(sums - 1.0).max()), 1e-12


def _euclidean_scores(rng):
    """Scaled dot products of random rows, minus each row's Cauchy-Schwarz
    bound |q_i| max_j |k_j| / sqrt(d): the scores the Euclidean kernel
    hands the softmax with no row max."""
    q, k = rng.normal(size=(30, 8)), rng.normal(size=(20, 8))
    bound = np.linalg.norm(q, axis=1, keepdims=True) * np.linalg.norm(k, axis=1).max()
    return (q @ k.T - bound) / math.sqrt(8)


def _prop_softmax_shift_invariance(rng, cfg):
    # Per-row shifts leave the weights alone, and so do the kernels' bounds
    # in place of the row max: none on oblique scores, which lie in
    # [-(pi - floor), -floor] / tau_obl, and on Lorentz scores in (0, 1],
    # and the Euclidean row bound subtracted in the product.
    m = rng.normal(size=(30, 20))
    floor = math.acos(1.0 - oblique.EPS_CLIP)
    obl = -rng.uniform(floor, math.pi - floor, size=(30, 20)) / cfg.tau_obl
    lor = 1.0 - rng.uniform(size=(30, 20))
    euc = _euclidean_scores(rng)
    pairs = ((_weights(m + rng.normal(size=(30, 1))), _weights(m)),
             (_weights(obl, False), _weights(obl)),
             (_weights(lor, False), _weights(lor)),
             (_weights(euc, False), _weights(euc)))
    return max(float(np.abs(a - b).max()) for a, b in pairs), 1e-12


def _prop_attention_row_sums(rng, cfg):
    # With all-ones values every output entry is one row's weight sum.
    q, k, ones = rng.normal(size=(10, 8)), rng.normal(size=(12, 8)), np.ones((12, 8))
    err = max(float(np.abs(kernel(q, k, ones, cfg) - 1.0).max())
              for kernel in (oblique_attention, lorentz_cross_attention))
    return err, 1e-12


def _prop_kernel_oracle_equivalence(rng, cfg):
    worst = 0.0
    for heads in (1, 4):
        hcfg = dataclasses.replace(cfg, heads=heads)
        for _ in range(10):
            q = rng.normal(size=(12, 8))
            k = rng.normal(size=(9, 8))
            v = rng.normal(size=(9, 8))
            fast_o = oblique_attention(q, k, v, hcfg)
            ref_o = diffcheck.naive_attention_reference(q, k, v, "oblique", hcfg)
            fast_l = lorentz_cross_attention(q, k, v, hcfg)
            ref_l = diffcheck.naive_attention_reference(q, k, v, "lorentz", hcfg)
            worst = max(worst, float(np.abs(fast_o - ref_o).max()),
                        float(np.abs(fast_l - ref_l).max()))
    return worst, 1e-12


def _prop_clip_safety(rng, cfg):
    # Coincident and antipodal rows are exactly the cases the clips guard.
    u = rng.normal(size=8)
    u /= np.linalg.norm(u)
    q = np.stack([u, -u, u])
    v = rng.normal(size=(3, 8))
    out_o = oblique_attention(q, q, v, dataclasses.replace(cfg, heads=1))
    out_l = lorentz_cross_attention(q, q, v, dataclasses.replace(cfg, heads=1))
    bad = (~np.isfinite(out_o)).sum() + (~np.isfinite(out_l)).sum()
    return float(bad), 0.0


def _prop_weight_monotonicity(rng, cfg):
    # Oblique scores go with and without the row max, Lorentz scores
    # without, and Euclidean scores, lowered by the bump from their row
    # bound, with and without.
    d = np.abs(rng.normal(size=(5, 6))) + 0.1
    euc = _euclidean_scores(rng)[:5, :6]
    obl, lor = (lambda x: -x / cfg.tau_obl), (lambda x: np.exp(-x / cfg.tau_lor))
    cases = ((obl, False), (obl, True), (lor, False),
             (lambda x: euc - x, False), (lambda x: euc - x, True))
    worst = 0.0
    for bump in (0.01, 0.1, 1.0):
        d2 = d.copy()
        d2[2, 3] += bump
        for score, row_max in cases:
            w1 = _weights(score(d), row_max)
            w2 = _weights(score(d2), row_max)
            worst = max(worst, float(w2[2, 3] - w1[2, 3]))
    return worst, 0.0


def _prop_embed_determinism(rng, cfg):
    spec = experiments.TreeSpec(depth=2)
    run = experiments.EmbeddingRun(space="lorentz", steps=100, seed=7)
    a = experiments.embed_tree(spec, run)
    b = experiments.embed_tree(spec, run)
    same = a.final_distortion == b.final_distortion
    return 0.0 if same else 1.0, 0.0


def _prop_stress_monotone(rng, cfg):
    # Backtracking never accepts a step that raises the stress, so each
    # phase ends at or below the stress it started from.
    spec = experiments.TreeSpec(depth=2)
    run = experiments.EmbeddingRun(space="euclidean", steps=150, seed=3)
    phases = experiments.embed_tree(spec, run).phases
    worst = max(p.end_stress - p.start_stress for p in phases)
    return max(0.0, worst), 0.0


def _prop_descent_strict_decrease(rng, cfg):
    run = experiments.descent_demo(experiments.DescentRun(seed=1))
    fs = [f for _, _, f in run.trajectory_unconstrained]
    worst = max((b - a for a, b in zip(fs, fs[1:])), default=0.0)
    return worst, 0.0


ALL_PROPERTIES: dict[str, Callable] = {
    "oblique.project_idempotent": _prop_project_idempotent,
    "oblique.project_scale_invariance": _prop_project_scale_invariance,
    "oblique.distance_symmetry": _prop_oblique_symmetry,
    "oblique.triangle_inequality": _prop_oblique_triangle,
    "oblique.tangent_projection_bound": _prop_tangent_bound,
    "oblique.clip_floor": _prop_oblique_clip_floor,
    "lorentz.membership": _prop_lorentz_membership,
    "lorentz.exp_log_roundtrip": _prop_lorentz_roundtrip,
    "lorentz.radial_isometry": _prop_lorentz_radial_isometry,
    "lorentz.triangle_inequality": _prop_lorentz_triangle,
    "lorentz.curvature_scaling": _prop_lorentz_curvature_scaling,
    "lorentz.clip_floor": _prop_lorentz_clip_floor,
    "gradients.finite_difference_agreement": _prop_gradients_match_fd,
    "attention.softmax_row_sums": _prop_softmax_row_sums,
    "attention.softmax_shift_invariance": _prop_softmax_shift_invariance,
    "attention.weight_row_sums": _prop_attention_row_sums,
    "attention.kernel_oracle_equivalence": _prop_kernel_oracle_equivalence,
    "attention.clip_safety": _prop_clip_safety,
    "attention.weight_monotonicity": _prop_weight_monotonicity,
    "experiments.embed_determinism": _prop_embed_determinism,
    "experiments.stress_monotone": _prop_stress_monotone,
    "experiments.descent_strict_decrease": _prop_descent_strict_decrease,
}


def run_properties(filter_substring: str = "", seed: int = 0) -> list[PropertyResult]:
    """Run all (or filtered) properties under the default AttentionConfig.

    Returns one result per property.
    """
    cfg = AttentionConfig()
    results = []
    for name, fn in ALL_PROPERTIES.items():
        if filter_substring and filter_substring not in name:
            continue
        rng = np.random.default_rng(seed)
        out = fn(rng, cfg)
        detail = ""
        if len(out) == 3:
            err, tol, detail = out
        else:
            err, tol = out
        results.append(PropertyResult(name, err <= tol, float(err), detail))
    return results
