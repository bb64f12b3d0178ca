"""The three benchmark workloads: inputs, one op, output checks, and the gate.

Each workload builds its inputs from the workload seed alone, calls the
public functions of ``geoattn.attention`` and ``geoattn.experiments``
through their module attributes (so the tracer's wrappers apply when
installed), and checks every output it times.
"""

from __future__ import annotations

import math
import time

import numpy as np

from geoattn import attention, diffcheck, experiments

GATE_TOL = 1e-12  # kernel vs oracle, and cao vs the mean of its slices
# Outputs are convex combinations of value rows; allow rounding slack
# relative to the largest value magnitude.
RANGE_SLACK = 1e-10


def _check_convex(out, values, shape, what) -> list[str]:
    """Finite, right shape, and inside each value column's [min, max]."""
    if out.shape != shape:
        return [f"{what}: shape {out.shape}, expected {shape}"]
    if not np.isfinite(out).all():
        return [f"{what}: non-finite entries"]
    slack = RANGE_SLACK * max(1.0, float(np.abs(values).max()))
    lo = values.min(axis=0) - slack
    hi = values.max(axis=0) + slack
    if (out < lo).any() or (out > hi).any():
        return [f"{what}: output outside the value columns' range"]
    return []


def euclidean_reference(q, k, v, heads: int) -> np.ndarray:
    """Float64 scaled dot-product attention with BLAS products, per head."""
    dq, dv = q.shape[1] // heads, v.shape[1] // heads
    out = np.empty((q.shape[0], v.shape[1]))
    for h in range(heads):
        qh, kh = q[:, h * dq:(h + 1) * dq], k[:, h * dq:(h + 1) * dq]
        s = qh @ kh.T / math.sqrt(dq)
        w = np.exp(s - s.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        out[:, h * dv:(h + 1) * dv] = w @ v[:, h * dv:(h + 1) * dv]
    return out


def _oracle_err(q, k, v, space: str, cfg) -> float:
    if space == "euclidean":
        ref = euclidean_reference(q, k, v, cfg.heads)
        got = attention.euclidean_attention(q, k, v, cfg)
    else:
        ref = diffcheck.naive_attention_reference(q, k, v, space, cfg)
        kernel = (attention.oblique_attention if space == "oblique"
                  else attention.lorentz_cross_attention)
        got = kernel(q, k, v, cfg)
    return float(np.abs(got - ref).max())


def _gate_errors(errs: dict) -> list[str]:
    return [f"gate {name}: max |kernel - oracle| = {e:.3e} > {GATE_TOL:g}"
            for name, e in errs.items() if not e <= GATE_TOL]


class SquareRound:
    """n = m = 1024, d = 256, 4 heads: one round of all three kernels."""

    name = "square-1k"
    why = ("ROADMAP's baseline shape: fixed-order value product, dense n*m "
           "distance and softmax temporaries; shows BLAS, head batching and "
           "query blocking")
    calibration = ("wide_outer", "matmul", "block")  # memory-bound (calib.py)
    n = m = 1024
    d = 256
    kernels = (("euclidean", "euclidean_attention"),
               ("oblique", "oblique_attention"),
               ("lorentz", "lorentz_cross_attention"))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.q = rng.standard_normal((self.n, self.d))
        self.k = rng.standard_normal((self.m, self.d))
        self.v = rng.standard_normal((self.m, self.d))
        self.cfg = attention.AttentionConfig(heads=4, tau_obl=1.0, tau_lor=0.1,
                                             curvature=1.0)

    def inputs(self):
        return {"q": self.q, "k": self.k, "v": self.v}

    def warm_up(self) -> None:
        q, k, v = self.q[:64], self.k[:64], self.v[:64]
        for _, fn in self.kernels:
            getattr(attention, fn)(q, k, v, self.cfg)

    def op(self, i: int):
        """Returns ({part: ns}, outputs)."""
        parts, outs = {}, {}
        for part, fn in self.kernels:
            kernel = getattr(attention, fn)
            t0 = time.perf_counter_ns()
            outs[part] = kernel(self.q, self.k, self.v, self.cfg)
            parts[part] = time.perf_counter_ns() - t0
        return parts, outs

    def check(self, outs) -> list[str]:
        errors = []
        for part, out in outs.items():
            errors += _check_convex(out, self.v, (self.n, self.d), part)
        return errors

    def gate(self, last_outs):
        q, k, v = self.q[:8], self.k[:256], self.v[:256]
        errs = {s: _oracle_err(q, k, v, s, self.cfg)
                for s in ("euclidean", "oblique", "lorentz")}
        return _gate_errors(errs), max(errs.values()), {}


class BidirContext:
    """4096-row instance, two 32-row context slices, d = 64, 4 heads."""

    name = "bidir-ctx"
    why = ("the paper's bidirectional wiring on skinny shapes: per-call and "
           "per-iteration Python overhead in matmul, lift_rows and 12 per-head "
           "calls, not memory bandwidth")
    calibration = ("small_outer", "exp", "matmul")  # interpreter-bound (calib.py)
    rows, ctx_rows, d = 4096, 32, 64

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.instance = rng.standard_normal((self.rows, self.d))
        self.ctx = [rng.standard_normal((self.ctx_rows, self.d)) for _ in range(2)]
        self.stacked = np.concatenate(self.ctx, axis=0)
        self.cfg = attention.AttentionConfig(heads=4, curvature=1.0)

    def inputs(self):
        return {"instance": self.instance, "ctx_a": self.ctx[0], "ctx_b": self.ctx[1]}

    def warm_up(self) -> None:
        attention.bidirectional_attention(self.instance[:64], self.ctx, self.cfg)

    def op(self, i: int):
        oac, cao = attention.bidirectional_attention(self.instance, self.ctx, self.cfg)
        return {}, {"oac": oac, "cao": cao}

    def check(self, outs) -> list[str]:
        return (_check_convex(outs["oac"], self.stacked, (self.rows, self.d), "oac")
                + _check_convex(outs["cao"], self.instance, (self.ctx_rows, self.d), "cao"))

    def gate(self, last_outs):
        errs = {
            "oac-slice": _oracle_err(self.instance[:8], self.stacked, self.stacked,
                                     "lorentz", self.cfg),
            "cao-slice": _oracle_err(self.ctx[0][:8], self.instance[:256],
                                     self.instance[:256], "lorentz", self.cfg),
        }
        per_slice = [attention.lorentz_cross_attention(s, self.instance, self.instance,
                                                       self.cfg) for s in self.ctx]
        errors = _gate_errors(errs)
        cao_err = float(np.abs(last_outs["cao"] - (per_slice[0] + per_slice[1]) / 2.0).max())
        if not cao_err <= GATE_TOL:
            errors.append(f"gate cao: differs from the mean of the per-slice calls "
                          f"by {cao_err:.3e}")
        return errors, max(errs.values()), {}


class TreeEmbed:
    """Binary tree of depth 5 (63 nodes) into 2-D, Euclidean then Lorentz."""

    name = "tree-embed"
    why = ("the paper's experiment, time to solution: stress evaluations in "
           "experiments do the work and attention/linalg none, so kernel "
           "changes must not move it")
    calibration = ("small_outer", "exp", "matmul")  # interpreter-bound (calib.py)
    spec = experiments.TreeSpec(branching=2, depth=5)
    arms = ("euclidean", "lorentz")

    def __init__(self, seed: int):
        self.seed = seed
        self.distortion = {arm: [] for arm in self.arms}

    def embed_seed(self, i: int) -> int:
        """The embedding seed of op ``i`` (ops count from 1; 0 is the warm-up)."""
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def inputs(self):
        return {"embed_seeds": [self.embed_seed(i) for i in range(1, 5)]}

    def _run(self, arm: str, seed: int, steps: int):
        return experiments.embed_tree(self.spec, experiments.EmbeddingRun(
            space=arm, curvature=1.0, dim=2, steps=steps, step_size=0.05,
            seed=seed, backtracking=True))

    def warm_up(self) -> None:
        for arm in self.arms:
            self._run(arm, self.embed_seed(0), steps=8)

    def op(self, i: int):
        parts, outs = {}, {}
        seed = self.embed_seed(i)
        for arm in self.arms:
            t0 = time.perf_counter_ns()
            outs[arm] = self._run(arm, seed, steps=3000)
            parts[arm] = time.perf_counter_ns() - t0
        return parts, outs

    def check(self, outs) -> list[str]:
        errors = [f"{arm}: final stress {run.final_stress}, distortion {run.final_distortion}"
                  for arm, run in outs.items()
                  if not (math.isfinite(run.final_stress) and run.final_distortion > 0
                          and math.isfinite(run.final_distortion))]
        if not errors:
            for arm, run in outs.items():
                self.distortion[arm].append(run.final_distortion)
        return errors

    def gate(self, last_outs):
        # On about one embedding seed in ten the Lorentz arm stops in a worse
        # local minimum than the Euclidean one, so the inequality is gated on
        # the run's means and the per-seed misses are counted, not failed.
        eu, lo = self.distortion["euclidean"], self.distortion["lorentz"]
        worse = sum(b >= a for a, b in zip(eu, lo))
        errors = []
        if not np.mean(lo) < np.mean(eu):
            errors.append(f"gate: mean Lorentz distortion {np.mean(lo):.4f} is not "
                          f"below the Euclidean {np.mean(eu):.4f}")
        extra = {"lorentz_distortion": float(np.mean(lo)),
                 "euclidean_distortion": float(np.mean(eu)),
                 "distortion_seeds": len(lo),
                 "lorentz_not_better_seeds": int(worse)}
        return errors, 0.0, extra


WORKLOADS = {w.name: w for w in (SquareRound, BidirContext, TreeEmbed)}
