"""Where the tracer wraps geoattn, and how spans become per-layer metrics.

Every probe names the module its caller looks the function up in.  Work
counts are *computed* from argument and result shapes or values (matmul
flops, distance pairs, softmax bytes, clip fractions, lift residuals); they
are not hardware counters, and no roofline is claimed from them.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import Probe, self_times_ns

ATTENTION_KERNELS = ("euclidean_attention", "oblique_attention",
                     "lorentz_cross_attention", "bidirectional_attention")


def _arg(args, kwargs, i: int, name: str, default=None):
    """Argument ``i`` of the wrapped call, passed by position or by name."""
    return args[i] if len(args) > i else kwargs.get(name, default)


def _matmul(args, kwargs, out):
    (n, m), dh = np.shape(_arg(args, kwargs, 0, "a")), np.shape(_arg(args, kwargs, 1, "b"))[1]
    return {"gflop": 2.0 * n * m * dh / 1e9}


def _softmax(args, kwargs, out):
    return {"mb": 2.0 * out.size * 8 / 1e6}  # reads one n*m array, writes one


def _project(args, kwargs, out):
    return {"degenerate": sum(out.degenerate)}


def _oblique_distances(args, kwargs, out):
    eps = _arg(args, kwargs, 2, "eps_clip", 1e-4)
    floor, ceil = np.arccos(1.0 - eps), np.arccos(-1.0 + eps)
    return {"pairs": out.size,
            "clipped": int(np.count_nonzero((out <= floor) | (out >= ceil)))}


def _lift(args, kwargs, out):
    space, time_ = out
    c = float(_arg(args, kwargs, 1, "c"))
    t2 = time_ * time_
    res = np.abs((space * space).sum(axis=1) - t2 + 1.0 / c) / np.maximum(1.0, t2)
    return {"rows": space.shape[0], "max_residual": float(res.max(initial=0.0))}


def _lorentz_distances(args, kwargs, out):
    c = float(_arg(args, kwargs, 4, "c"))
    eps = _arg(args, kwargs, 5, "eps_clip", 1e-15)
    floor = np.arccosh(1.0 + eps) / math.sqrt(c)
    return {"pairs": out.size, "clipped": int(np.count_nonzero(out <= floor))}


PROBES = (
    Probe("geoattn.attention", "matmul", "linalg.matmul", _matmul),
    Probe("geoattn.attention", "softmax_rows", "linalg.softmax_rows", _softmax),
    Probe("geoattn.oblique", "project", "oblique.project", _project),
    Probe("geoattn.oblique", "pairwise_distances", "oblique.pairwise_distances",
          _oblique_distances),
    Probe("geoattn.lorentz", "lift_rows", "lorentz.lift_rows", _lift),
    Probe("geoattn.lorentz", "pairwise_distance_matrix",
          "lorentz.pairwise_distance_matrix", _lorentz_distances),
    *(Probe("geoattn.attention", k, f"attention.{k}") for k in ATTENTION_KERNELS),
    Probe("geoattn.experiments", "embed_tree", "experiments.embed_tree"),
    Probe("geoattn.experiments", "tree_distance_matrix",
          "experiments.tree_distance_matrix"),
    Probe("geoattn.experiments", "_euclidean_stress_grad", "experiments.stress_grad"),
    Probe("geoattn.experiments", "_lorentz_stress_grad", "experiments.stress_grad"),
    # The Euclidean gradient computes its distances through the same helper;
    # that pass belongs to the gradient, not to a stress-only evaluation.
    Probe("geoattn.experiments", "_euclidean_distances", "experiments.stress_eval",
          skip_under="experiments.stress_grad"),
    Probe("geoattn.experiments", "_lorentz_distances", "experiments.stress_eval",
          skip_under="experiments.stress_grad"),
)

# name -> (unit, better).  The run reports each one per traced op.
METRICS = {
    "linalg.matmul.ms": ("ms", "lower"),
    "linalg.matmul.calls": ("count", "lower"),
    "linalg.matmul.gflop": ("GFLOP", "lower"),
    "linalg.matmul.gflop_per_s": ("GFLOP/s", "higher"),
    "linalg.softmax_rows.ms": ("ms", "lower"),
    "linalg.softmax_rows.calls": ("count", "lower"),
    "linalg.softmax_rows.mb": ("MB", "lower"),
    "oblique.project.ms": ("ms", "lower"),
    "oblique.project.calls": ("count", "lower"),
    "oblique.project.degenerate": ("count", "lower"),
    "oblique.pairwise_distances.ms": ("ms", "lower"),
    "oblique.pairwise_distances.pairs": ("count", "lower"),
    "oblique.pairwise_distances.clip_frac": ("fraction", "lower"),
    "lorentz.lift_rows.ms": ("ms", "lower"),
    "lorentz.lift_rows.rows": ("count", "lower"),
    "lorentz.lift_rows.max_residual": ("1", "lower"),
    "lorentz.pairwise_distance_matrix.ms": ("ms", "lower"),
    "lorentz.pairwise_distance_matrix.pairs": ("count", "lower"),
    "lorentz.pairwise_distance_matrix.clip_frac": ("fraction", "lower"),
    **{f"attention.{k}.ms": ("ms", "lower") for k in ATTENTION_KERNELS},
    "attention.self_ms": ("ms", "lower"),
    "attention.calls": ("count", "lower"),
    "experiments.stress_grad.ms": ("ms", "lower"),
    "experiments.stress_grad.calls": ("count", "lower"),
    "experiments.stress_eval.ms": ("ms", "lower"),
    "experiments.stress_eval.calls": ("count", "lower"),
    "experiments.eval_per_grad": ("ratio", "lower"),
    "experiments.tree_distance_matrix.ms": ("ms", "lower"),
    "experiments.self_ms": ("ms", "lower"),
    "diffcheck.max_abs_err": ("1", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
# Work counts derived from argument shapes and returned arrays, not measured.
COMPUTED = {m for m in METRICS if m.rsplit(".", 1)[1] in
            ("gflop", "mb", "pairs", "rows", "degenerate", "clip_frac", "max_residual")}


def kernel_span_errors(spans) -> list[str]:
    """Errors for any attention span whose direct children outlast it."""
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.duration_ns + s.tail_ns
    return [f"span {i} ({s.name}): children {child_ns[i]} ns > span {s.duration_ns} ns"
            for i, s in enumerate(spans)
            if s.name.startswith("attention.") and child_ns.get(i, 0) > s.duration_ns]


def layer_metrics(spans, ops: int) -> dict:
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    ``<span>.<key>`` is the total of that key over the span's calls, divided
    by ``ops``; ratios and maxima are not divided.  Layers a workload never
    calls read 0.  ``diffcheck.*`` and ``trace.overhead_pct`` come from the
    gate and the untraced ops, and the caller fills them in.
    """
    total: dict[str, dict] = {}
    for s, own in zip(spans, self_times_ns(spans)):
        t = total.setdefault(s.name, {"ms": 0.0, "calls": 0, "self_ms": 0.0})
        t["ms"] += s.duration_ns / 1e6
        t["calls"] += 1
        t["self_ms"] += own / 1e6
        for key, val in s.counts.items():
            t[key] = max(t.get(key, 0.0), val) if key == "max_residual" else t.get(key, 0) + val

    def get(name, key):
        return total.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    kernels = [f"attention.{k}" for k in ATTENTION_KERNELS]
    special = {
        "linalg.matmul.gflop_per_s": ratio(get("linalg.matmul", "gflop"),
                                           get("linalg.matmul", "ms") / 1e3),
        "lorentz.lift_rows.max_residual": get("lorentz.lift_rows", "max_residual"),
        "attention.self_ms": sum(get(k, "self_ms") for k in kernels) / ops,
        "attention.calls": sum(get(k, "calls") for k in kernels) / ops,
        "experiments.eval_per_grad": ratio(get("experiments.stress_eval", "calls"),
                                           get("experiments.stress_grad", "calls")),
        "experiments.self_ms": get("experiments.embed_tree", "self_ms") / ops,
        "trace.op_ms": get("op", "ms") / ops,
        "diffcheck.max_abs_err": 0.0,
        "trace.overhead_pct": 0.0,
    }
    for name in ("oblique.pairwise_distances", "lorentz.pairwise_distance_matrix"):
        special[f"{name}.clip_frac"] = ratio(get(name, "clipped"), get(name, "pairs"))
    out = {}
    for metric in METRICS:
        if metric in special:
            out[metric] = special[metric]
        else:
            name, _, key = metric.rpartition(".")
            out[metric] = get(name, key) / ops
    return out


def largest_children(spans) -> dict:
    """For each kernel name: the child layer with the most time, summed over calls."""
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name.startswith("attention."):
            per = totals.setdefault(spans[s.parent].name, {})
            per[s.name] = per.get(s.name, 0.0) + s.duration_ns / 1e6
    return {k: max(v, key=v.get) for k, v in totals.items()}
