"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS/FAIL line (visible
with ``pytest -s``; the ``-v`` test status carries the same verdict).
Values asserted here were frozen from independent high-precision scalar
evaluation, never from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest

from geoattn import cli, diffcheck, experiments, lorentz, oblique
from geoattn.attention import (AttentionConfig, lorentz_cross_attention,
                               oblique_attention, softmax_rows)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_manifold_invariants():
    """Unit columns after projection; hyperboloid membership after lifting.

    The membership residual is scale-normalized by max(1, time^2): at
    tangent radius 20 and c = 10 the time component reaches ~1e27, where
    float64 spacing alone exceeds any absolute 1e-9 bound.  Near the
    origin (time <= 1e3) the absolute residual is additionally held to
    the same 1e-9.
    """
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst_norm = 0.0
    for _ in range(100):
        m = rng.normal(size=(8, 12)) * 10.0 ** rng.integers(-6, 6)
        norms = np.sqrt((oblique.project(m).inner ** 2).sum(axis=0))
        worst_norm = max(worst_norm, float(np.abs(norms - 1.0).max()))
    worst_res = worst_abs_near = 0.0
    for _ in range(10_000):
        c = rng.uniform(1e-3, 10.0)
        u = rng.normal(size=3)
        u *= rng.uniform(0.0, 20.0) / np.linalg.norm(u)
        p = lorentz.exp_origin(u, c)
        res = lorentz.hyperboloid_residual(p, c)
        worst_res = max(worst_res, res)
        if p.time <= 1e3:
            raw = abs(float(p.space @ p.space) - p.time ** 2 + 1.0 / c)
            worst_abs_near = max(worst_abs_near, raw)
    elapsed = time.time() - t0
    ok = worst_norm < 1e-12 and worst_res < 1e-9 and worst_abs_near < 1e-9 \
        and elapsed < 10.0
    _report(1, "manifold invariants", ok,
            f"col-norm err {worst_norm:.1e}, normalized residual {worst_res:.1e}, "
            f"near-origin absolute residual {worst_abs_near:.1e}, {elapsed:.1f}s")


def test_criterion_02_exp_log_roundtrip():
    rng = np.random.default_rng(1)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        for _ in range(1000):
            u = rng.normal(size=4)
            u *= rng.uniform(0.0, 10.0) / np.linalg.norm(u)
            back = lorentz.log_origin(lorentz.exp_origin(u, c), c)
            worst = max(worst, float(np.linalg.norm(back - u)))
    _report(2, "exp/log roundtrip", worst <= 1e-9, f"max error {worst:.1e}")


def test_criterion_03_radial_isometry():
    rng = np.random.default_rng(2)
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        o = lorentz.origin(4, c)
        for _ in range(1000):
            u = rng.normal(size=4)
            u *= rng.uniform(0.01, 10.0) / np.linalg.norm(u)
            d = lorentz.geodesic_distance(o, lorentz.exp_origin(u, c), c)
            worst = max(worst, abs(d - float(np.linalg.norm(u))))
    _report(3, "radial isometry", worst <= 1e-9, f"max error {worst:.1e}")


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(3)
    worst = 0.0
    done = 0
    while done < 500:  # oblique arm, clip neighborhoods excluded
        q, k = rng.normal(size=(2, 6))
        q /= np.linalg.norm(q)
        k /= np.linalg.norm(k)
        if abs(float(q @ k)) > 0.99:
            continue
        analytic = oblique.distance_gradient(q, k)
        fd = diffcheck.finite_diff_gradient(
            lambda x: math.acos(min(max(float(x @ k), -1 + 1e-4), 1 - 1e-4)), q)
        worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))
        done += 1
    done = 0
    c = 1.0
    while done < 500:  # hyperbolic arm
        u, w = rng.normal(size=(2, 4))
        if np.linalg.norm(u - w) < 1e-2:
            continue
        analytic = lorentz.distance_gradient(u, w, c)
        fd = diffcheck.finite_diff_gradient(
            lambda x: lorentz.geodesic_distance(
                lorentz.exp_origin(x, c), lorentz.exp_origin(w, c), c), u)
        worst = max(worst, float(np.abs(analytic - fd).max() / np.abs(fd).max()))
        done += 1
    _report(4, "gradient checks", worst <= 1e-5, f"max relative error {worst:.1e}")


def test_criterion_05_tangent_projection_bound():
    rng = np.random.default_rng(4)
    violations = 0
    for _ in range(10_000):
        w = oblique.project(rng.normal(size=(5, 3)))
        g = rng.normal(size=(5, 3)) * 10.0 ** rng.integers(-3, 4)
        t = oblique.tangent_project(w, g)
        if np.linalg.norm(t.delta) > np.linalg.norm(g) * (1 + 1e-15):
            violations += 1
    _report(5, "tangent projection bound", violations == 0,
            f"{violations} violations in 10000 draws")


def test_criterion_06_kernel_oracle_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for case in range(100):
        heads = 1 if case % 2 == 0 else 4
        n = int(rng.integers(4, 65))
        m = int(rng.integers(4, 65))
        q = rng.normal(size=(n, 8))
        k = rng.normal(size=(m, 8))
        v = rng.normal(size=(m, 8))
        cfg = AttentionConfig(heads=heads)
        for kernel, space in ((oblique_attention, "oblique"),
                              (lorentz_cross_attention, "lorentz")):
            got = kernel(q, k, v, cfg)
            want = diffcheck.naive_attention_reference(q, k, v, space, cfg)
            worst = max(worst, float(np.abs(got - want).max()))
    _report(6, "kernel/oracle equivalence", worst <= 1e-12,
            f"max absolute deviation {worst:.1e}")


def test_criterion_07_stability_clips():
    cfg = AttentionConfig(heads=1)
    same = np.ones((3, 4))
    anti = np.vstack([np.ones((2, 4)), -np.ones((2, 4))])
    finite = True
    for q, k in ((same, same), (anti, anti), (same, -same)):
        finite &= bool(np.isfinite(oblique_attention(q, k, k, cfg)).all())
        finite &= bool(np.isfinite(lorentz_cross_attention(q, k, k, cfg)).all())
    u = np.array([[0.6, 0.8]])
    obl_floor = float(oblique.pairwise_distances(u, u)[0, 0])
    p = lorentz.exp_origin(np.array([1.0, 2.0]), 1.0)
    lor_floor = lorentz.geodesic_distance(p, p, 1.0)
    obl_err = abs(obl_floor - 0.014142253477512878)
    lor_err = abs(lor_floor - 4.4721359549995794e-08)
    ok = finite and obl_err < 1e-6 and lor_err < 1e-6
    _report(7, "stability clips", ok,
            f"finite={finite}, floor errors {obl_err:.1e} / {lor_err:.1e}")


def test_criterion_08_attention_algebra():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(9, 8))
    k = rng.normal(size=(7, 8))
    v = rng.normal(size=(7, 8))
    cfg = AttentionConfig(heads=2)
    # row sums: with all-ones values every output entry is a row sum
    ones = np.ones((7, 8))
    row_err = max(
        float(np.abs(oblique_attention(q, k, ones, cfg) - 1.0).max()),
        float(np.abs(lorentz_cross_attention(q, k, ones, cfg) - 1.0).max()))
    perm_err = 0.0
    for kernel in (oblique_attention, lorentz_cross_attention):
        base = kernel(q, k, v, cfg)
        pq = rng.permutation(9)
        pkv = rng.permutation(7)
        perm_err = max(perm_err,
                       float(np.abs(kernel(q[pq], k, v, cfg) - base[pq]).max()),
                       float(np.abs(kernel(q, k[pkv], v[pkv], cfg) - base).max()))
    # monotonicity: growing one distance must never grow its weight; the
    # kernels' softmax stage with identity values and the row max gives weights
    d = np.abs(rng.normal(size=(5, 6))) + 0.1
    eye = np.eye(6)
    mono_ok = True
    for bump in (1e-3, 0.1, 1.0):
        d2 = d.copy()
        d2[1, 4] += bump
        w_obl = softmax_rows(-d / cfg.tau_obl, eye, True)[1, 4]
        w_obl2 = softmax_rows(-d2 / cfg.tau_obl, eye, True)[1, 4]
        w_lor = softmax_rows(np.exp(-d / cfg.tau_lor), eye, True)[1, 4]
        w_lor2 = softmax_rows(np.exp(-d2 / cfg.tau_lor), eye, True)[1, 4]
        mono_ok &= w_obl2 < w_obl and w_lor2 < w_lor
    ok = row_err < 1e-12 and perm_err < 1e-12 and mono_ok
    _report(8, "attention algebra", ok,
            f"row-sum err {row_err:.1e}, perm err {perm_err:.1e}, monotone={mono_ok}")


def test_criterion_09_tree_embedding():
    t0 = time.time()
    spec = experiments.TreeSpec(branching=2, depth=5)
    lines = []
    ok = True
    for seed in (0, 333, 777):
        eu = experiments.embed_tree(
            spec, experiments.EmbeddingRun(space="euclidean", dim=2, seed=seed))
        lo = experiments.embed_tree(
            spec, experiments.EmbeddingRun(space="lorentz", curvature=1.0,
                                           dim=2, seed=seed))
        ok &= lo.final_distortion < eu.final_distortion
        lines.append(f"seed {seed}: lorentz {lo.final_distortion:.3f} "
                     f"vs euclidean {eu.final_distortion:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _report(9, "tree-embedding distortion", ok,
            "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_10_descent_demo():
    t0 = time.time()
    ok = True
    details = []
    for seed in (0, 333, 777):
        run = experiments.descent_demo(
            experiments.DescentRun(condition_number=100.0, tol=1e-6, seed=seed))
        ok &= run.converged_unconstrained and run.converged_oblique
        ok &= run.iters_oblique <= run.iters_unconstrained
        details.append(f"seed {seed}: {run.iters_oblique} vs "
                       f"{run.iters_unconstrained} iters")
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report(10, "constrained descent", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_11_bench_command(tmp_path, capsys):
    args = ["bench", "--n", "256", "--m", "256", "--d", "256",
            "--heads", "4", "--repeats", "3"]
    rc_csv = cli.main(args)
    csv_out = capsys.readouterr().out
    json_path = tmp_path / "bench.json"
    rc_json = cli.main(args + ["--format", "json", "--output", str(json_path)])
    ok = rc_csv == 0 and rc_json == 0
    lines = [l for l in csv_out.splitlines() if not l.startswith("#")]
    ok &= lines[0].split(",")[0] == "kernel" and len(lines) == 4
    records = json.loads(json_path.read_text())
    ok &= {r["kernel"] for r in records} == {"euclidean", "oblique", "lorentz"}
    ok &= all(r["mean_ns"] > 0 and r["n"] == 256 for r in records)
    _report(11, "bench command", ok,
            f"csv rows {len(lines) - 1}, json records {len(records)}")
