"""Command-line surface: verify, bench, tree-embed, descent.

Exit codes: 0 success, 1 failure or an ``error:`` line on stderr, 2 usage error.
GEOATTN_SEED overrides the default seed.  Every file is written here,
through ``_emit``, as UTF-8; the library modules write none.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from . import experiments, lorentz
from .attention import (AttentionConfig, euclidean_attention, footprint,
                        lorentz_cross_attention, oblique_attention)
from .verify import run_properties

_BENCH_FIELDS = ["kernel", "n", "m", "d", "heads", "space",
                 "mean_ns", "p50_ns", "p95_ns", "repeats"]
# Cap, checked before any allocation, on the float64 entries bench holds at
# once: the q, k and v it draws and attention.footprint of one kernel call,
# whose score block holds a head group's scores within 1 MiB.
_SIZE_GUARD = 2 ** 24
# Cap, checked with it, on bench's work: three kernels, each run 3 + repeats
# times, each call scoring n * m pairs at about heads + d / 32 units a pair
# (a distance per head, a product per 32 feature columns).  A unit took
# 3.6-5.3 ns from d = 8 to 2048 and 1 to 256 heads (1 BLAS thread, 2-vCPU
# Xeon VM), so the cap is about a minute: --n 7700 --m 7700 --d 8, just
# under it, ran in 47 s.
_WORK_GUARD = 10 ** 10


def _parse_items(flag: str, text: str, parse, kind: str, skip_blank: bool = False):
    """Parse a comma-separated flag value; a bad item's error names the flag."""
    values = []
    for t in text.split(","):
        if skip_blank and not t.strip():
            continue
        try:
            values.append(parse(t))
        except ValueError:
            raise ValueError(f"{flag} item {t!r} is not {kind}, got {text!r}") from None
    return values


def _parse_seeds(text: str) -> list[int]:
    seeds = _parse_items("--seeds", text, int, "an integer", skip_blank=True)
    if not seeds:
        raise ValueError(f"--seeds names no seed, got {text!r}")
    for seed in seeds:
        if seed < 0:
            raise ValueError(f"--seeds item {seed} must be >= 0, got {text!r}")
    return seeds


def cmd_verify(args) -> int:
    results = run_properties(filter_substring=args.filter or "", seed=args.seed)
    if not results:
        print(f"no properties match filter {args.filter!r}", file=sys.stderr)
        return 1
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        print(f"{status}  {r.name:45s} max_err={r.max_error:.3e}{extra}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


def cmd_bench(args) -> int:
    n, m, d, heads, repeats = args.n, args.m, args.d, args.heads, args.repeats
    cfg = AttentionConfig(heads=heads, tau_obl=args.tau, curvature=args.curvature)
    held = n * d + 2 * m * d + footprint(n, m, d, heads)
    if held > _SIZE_GUARD:
        print(f"n={n}, m={m}, d={d} would hold {held} float64 entries, past the "
              f"{_SIZE_GUARD} guard", file=sys.stderr)
        return 1
    work = n * m * (heads + d / 32) * 3 * (3 + repeats)
    if work > _WORK_GUARD:
        print(f"n={n}, m={m}, d={d}, heads={heads}, repeats={repeats} would take "
              f"{work:.3g} units of work (n * m * (heads + d / 32) * 3 kernels * "
              f"(3 + repeats) calls), past the {_WORK_GUARD:.3g} work guard",
              file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    q = rng.normal(size=(args.n, args.d))
    k = rng.normal(size=(args.m, args.d))
    v = rng.normal(size=(args.m, args.d))
    kernels = [
        ("euclidean", "euclidean", lambda: euclidean_attention(q, k, v, cfg)),
        ("oblique", "oblique", lambda: oblique_attention(q, k, v, cfg)),
        ("lorentz", "lorentz", lambda: lorentz_cross_attention(q, k, v, cfg)),
    ]
    records = []
    for name, space, fn in kernels:
        for _ in range(3):  # warmup
            fn()
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
        records.append({
            "kernel": name, "n": args.n, "m": args.m, "d": args.d,
            "heads": args.heads, "space": space,
            "mean_ns": statistics.fmean(times),
            "p50_ns": np.percentile(times, 50),
            "p95_ns": np.percentile(times, 95),
            "repeats": args.repeats,
        })
    _emit(records, _BENCH_FIELDS, args.format, args.output,
          comment="timings in nanoseconds")
    return 0


def _emit(records, fields, fmt, output, comment=None):
    if fmt == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = []
        if comment:
            lines.append(f"# {comment}")
        lines.append(",".join(fields))
        for r in records:
            lines.append(",".join(_fmt_value(r[f]) for f in fields))
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def cmd_tree_embed(args) -> int:
    spec = experiments.TreeSpec(branching=args.branching, depth=args.depth)
    seeds = _parse_seeds(args.seeds)
    curvatures = [lorentz.check_curvature(c) for c in
                  _parse_items("--curvature", args.curvature, float, "a number")]
    arms = [("euclidean", None)] + [("lorentz", c) for c in curvatures]
    records = []
    for space, c in arms:
        distortions = []
        for seed in seeds:
            run = experiments.EmbeddingRun(
                space=space, curvature=c if c is not None else 1.0,
                dim=args.dim, steps=args.steps, step_size=args.step_size,
                seed=seed)
            out = experiments.embed_tree(spec, run)
            records.append({
                "space": space, "curvature": c if c is not None else "",
                "seed": seed, "distortion": out.final_distortion,
                "worst_ratio": out.worst_ratio, "stress": out.final_stress,
                "evaluations": sum(p.evaluations for p in out.phases),
                "gave_up": sum(p.gave_up for p in out.phases),
                "converged": sum(p.converged for p in out.phases),
            })
            distortions.append(out.final_distortion)
        label = space if c is None else f"{space}(c={c})"
        print(f"{label:20s} mean distortion over seeds: "
              f"{statistics.fmean(distortions):.4f}")
    fields = ["space", "curvature", "seed", "distortion", "worst_ratio", "stress",
              "evaluations", "gave_up", "converged"]
    if args.output:
        _emit(records, fields, args.format, args.output)
    return 0


def cmd_descent(args) -> int:
    run = experiments.descent_demo(experiments.DescentRun(
        condition_number=args.condition_number, tol=args.tol, seed=args.seed))
    ratio = run.iters_oblique / max(run.iters_unconstrained, 1)
    print(f"unconstrained iterations: {run.iters_unconstrained} "
          f"(converged={run.converged_unconstrained})")
    print(f"oblique iterations:       {run.iters_oblique} "
          f"(converged={run.converged_oblique})")
    print(f"oblique/unconstrained ratio: {ratio:.4f}")
    for name, traj in (("descent_unconstrained.csv", run.trajectory_unconstrained),
                       ("descent_oblique.csv", run.trajectory_oblique)):
        path = os.path.join(args.out_dir, name)
        records = [{"iter": it, "x": x, "y": y, "f": f}
                   for it, (x, y, f) in enumerate(traj)]
        _emit(records, ["iter", "x", "y", "f"], "csv", path)
        print(f"wrote {path}")
    ok = run.converged_unconstrained and run.converged_oblique
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geoattn",
                                description="Geodesic attention kernels: "
                                            "verification, benchmarks, experiments")
    # argparse converts a string default with ``type``, so a bad
    # GEOATTN_SEED is a usage error that names --seed.
    p.add_argument("--seed", type=int, default=os.environ.get("GEOATTN_SEED", "0"))
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the invariant/property suite")
    v.add_argument("--filter", help="only run properties containing this substring")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="micro-benchmark the three kernels")
    b.add_argument("--n", type=int, default=256)
    b.add_argument("--m", type=int, default=256)
    b.add_argument("--d", type=int, default=256)
    b.add_argument("--heads", type=int, default=4)
    b.add_argument("--tau", type=float, default=1.0,
                   help="tau_obl of the oblique kernel; tau_lor keeps its default")
    b.add_argument("--curvature", type=float, default=1.0)
    b.add_argument("--repeats", type=int, default=10)
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--output", help="write records here instead of stdout")
    b.set_defaults(fn=cmd_bench)

    t = sub.add_parser("tree-embed", help="tree-embedding distortion study")
    t.add_argument("--branching", type=int, default=2)
    t.add_argument("--depth", type=int, default=5)
    t.add_argument("--dim", type=int, default=2)
    t.add_argument("--steps", type=int, default=3000,
                   help="cap on accepted descent steps; see "
                        "geoattn.experiments.embed_tree")
    t.add_argument("--step-size", type=float, default=0.05,
                   help="first multiplier of each phase's gradient step; see "
                        "geoattn.experiments.embed_tree")
    t.add_argument("--seeds", default="0,333,777")
    t.add_argument("--curvature", default="1.0",
                   help="comma-separated curvature sweep for the lorentz arms")
    t.add_argument("--format", choices=["csv", "json"], default="csv")
    t.add_argument("--output")
    t.set_defaults(fn=cmd_tree_embed)

    d = sub.add_parser("descent", help="constrained-descent trajectory demo")
    d.add_argument("--condition-number", type=float, default=100.0)
    d.add_argument("--tol", type=float, default=1e-6)
    d.add_argument("--out-dir", default=".")
    d.set_defaults(fn=cmd_descent)
    return p


def _check_args(args) -> None:
    """Refuse a bad seed or size or a missing output location before any work."""
    opts = vars(args)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed} (GEOATTN_SEED "
                         f"sets its default)")
    for flag in ("n", "m", "d"):
        if opts.get(flag, 0) < 0:
            raise ValueError(f"--{flag} must be >= 0, got {opts[flag]}")
    if opts.get("repeats", 1) < 1:
        raise ValueError(f"--repeats must be at least 1, got {args.repeats}")
    if opts.get("output"):
        folder = os.path.dirname(args.output) or "."
        if not os.path.isdir(folder):
            raise ValueError(f"--output {args.output!r}: directory {folder!r} "
                             f"does not exist")
    if "out_dir" in opts and not os.path.isdir(args.out_dir):
        raise ValueError(f"--out-dir {args.out_dir!r} does not exist or is not "
                         f"a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        return args.fn(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
