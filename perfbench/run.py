"""geoattn benchmark: three workloads, end-to-end metrics, outside-in traced run.

Run from the repository root (the library is imported from ``./src``)::

    python3 perfbench/run.py --workload square-1k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 -m pytest perfbench -q        # tests of the benchmark itself

One process, one closed-loop caller: each op starts when the previous one
has returned, and the benchmark starts no threads.  BLAS runs one thread
unless ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` say otherwise; the
record states the count.  Inputs come from ``--seed`` only.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Above it are one line per metric (name, value, unit, sample count) and a
``record`` line with the run's metadata (numpy, BLAS name, version and
thread count, thread variables, CPU count, Python, git commit, seed) and
every figure.  Traced runs also write their spans to
``.perfbench/spans-<workload>-seed<seed>.json``.  The process exits 1 if any
op or the correctness gate fails, and 2 if ``./src/geoattn`` is missing.

Workloads (why each was chosen)
-------------------------------
square-1k   One round on the same q, k, v (1024 x 256, standard normal, 4
            heads of 64): euclidean_attention, oblique_attention,
            lorentz_cross_attention; c = 1, tau_obl = 1, tau_lor = 0.1.
            ROADMAP's baseline shape.  The fixed-order ``linalg.matmul``
            value product dominates each kernel; distance and softmax take
            most of the rest, and dense n*m temporaries make peak memory
            large.  Exercises BLAS value products, head batching and query
            blocking.
bidir-ctx   One bidirectional_attention(instance, [ctx_a, ctx_b]) call;
            instance 4096 x 64, slices 32 x 64, 4 heads of 16, c = 1.  The
            paper's wiring on skinny shapes: in the reverse direction 32
            queries attend over 4096 keys, so matmul pays Python overhead on
            each of 4096 iterations, and lift_rows loops over rows.  It uses
            ``linalg`` for per-iteration overhead rather than bandwidth, so a
            gain for one use that costs the other shows.
tree-embed  embed_tree on a binary tree of depth 5 (63 nodes), dim 2, 3000
            steps, step 0.05, backtracking; Euclidean arm then Lorentz arm
            at c = 1.  Op i uses an embedding seed derived from (seed, i).
            The paper's experiment, timed to solution: the stress passes in
            ``experiments`` do the work and ``attention``/``linalg`` none,
            so a kernel change must not move it.

End-to-end metrics (untraced ops; lower is better unless marked higher)
-----------------------------------------------------------------------
The shared hosts this runs on change speed by 20-60% over minutes, which
moves every wall-clock time by as much from one run to the next.  So a
fixed calibration loop (calib.py) of the workload's kind of work (small
numpy calls from Python for bidir-ctx, tree-embed and set-up, memory-bound
updates for square-1k) is timed before the first op and after each one
(one pass per started second of the op, median), and each op's wall time
is also reported scaled to a machine on which that loop takes its
reference time ``calib.REF_MS``: the ``*_norm*`` metrics and setup_s.
Over two sets of ten seeds on a 2-vCPU Xeon VM, the spread (IQR /
median) of op_p50_norm_ms was 0.018-0.026 on bidir-ctx, 0.053-0.062 on
square-1k and 0.059-0.075 on tree-embed, where wall-clock op_p50_ms had
spread 0.28-0.33 on bidir-ctx.  A pass takes 4-7 ms and is excluded from
every op time and from ops_per_s.  The wall-clock figures are printed and
recorded next to the scaled ones.

setup_s           s     Import of numpy and geoattn, input generation,
                        tree construction and warm-up, up to the first
                        timed op, in a fresh process; each of 7 such
                        processes is scaled by the mean of the calibration
                        passes this process makes right before and right
                        after it, and the median is reported.  Gate
                        excluded.
ops_per_s_norm    1/s   higher.  1000 / mean normalised op time in ms.
op_p50_norm_ms    ms    Median normalised op time, with its sample count
                        and the run's median calibration time.
op_tail_norm_ms   ms    op_tail_ms's percentile of the normalised op times.
peak_mib          MiB   tracemalloc peak during one op, in a pass of its own
                        outside the timed and traced ops.
setup_wall_s      s     setup_s in wall-clock seconds, unscaled.
ops_per_s         1/s   higher.  Ops completed / time spent in ops and their
                        checks, wall clock.
op_p50_ms         ms    Median op time, wall clock, with its sample count.
op_tail_ms        ms    Highest percentile with at least ten ops beyond it,
                        wall clock; the record states which and how many.
                        Below 20 ops it is the median, and the record says
                        so.
euclidean_p50_ms, oblique_p50_ms, lorentz_p50_ms   ms   square-1k only:
                        median time of each kernel within the rounds.
error_rate        1     Failed ops / attempted ops, both counts stated.
lorentz_distortion, euclidean_distortion   1   tree-embed only: mean
                        relative distortion over the run's embedding seeds.

The first five are listed in BENCHMARK.json and bounded: they are defined
on every workload, and steady enough for a bound (peak_mib repeats
exactly).  The others are printed and recorded (``n/a`` where a workload
does not define them).  ``error_rate`` is carried
by ``attempted``/``failed`` in the last line.

Per-layer metrics (``--trace 1``; totals per traced op; see layers.py)
------------------------------------------------------------------------
Odd-numbered ops run with the tracer's wrappers installed, even-numbered
ops without, so ``trace.overhead_pct`` compares traced with untraced op
medians from the same run.  Work counts are computed from shapes and
returned arrays, not read from hardware; no roofline is claimed.  A probe
whose function no longer exists is reported ``absent`` and reads 0, so time
moved by an inlined helper shows up as its parent's self time; a probe whose
counts can no longer be computed (a changed signature) is reported
``uncounted`` and its op still runs.

Layer metric -> the end-to-end metric it should move, and predictions
(op_p50_ms and ops_per_s stand for the wall-clock and the normalised
figure alike):

linalg.matmul.{ms,calls,gflop,gflop_per_s}   (gflop = 2 n m dh per call)
    -> *_p50_ms, ops_per_s, op_p50_ms on square-1k and bidir-ctx.  It is the
    largest child of each geodesic kernel on square-1k.  tree-embed: no
    change.
linalg.softmax_rows.{ms,calls,mb}   (mb = bytes of the n*m input and output)
    -> all three *_p50_ms and peak_mib on square-1k.
oblique.project.{ms,calls,degenerate},
oblique.pairwise_distances.{ms,pairs,clip_frac}
    -> oblique_p50_ms on square-1k; nothing on the other two workloads.
lorentz.lift_rows.{ms,rows,max_residual}
    -> op_p50_ms on bidir-ctx; small on square-1k.
lorentz.pairwise_distance_matrix.{ms,pairs,clip_frac}
    -> lorentz_p50_ms on square-1k; on tree-embed too once the experiments
    route their distances through it.
attention.<kernel>.ms, attention.self_ms, attention.calls
    (self = kernel span minus child spans: validation, head split, exp,
    mask, concat) -> op_p50_ms on bidir-ctx, where per-call overhead is a
    large share; peak_mib on square-1k.
experiments.stress_grad.{ms,calls}, experiments.stress_eval.{ms,calls},
experiments.eval_per_grad (stress-only passes per gradient pass: the cost
of backtracking), experiments.tree_distance_matrix.ms, experiments.self_ms
(embed_tree minus its children)
    -> op_p50_ms and ops_per_s on tree-embed, where stress_grad plus
    stress_eval take at least 80% of the op; nothing on the kernel
    workloads.  Distance reuse in embed_tree should lower eval_per_grad's
    cost or the pass count; a stable Lorentz distance moves stress_*.ms.
diffcheck.max_abs_err   kernels vs oracle on the gate slice; informational.
trace.op_ms, trace.overhead_pct   traced op time, and traced vs untraced
    op_p50_ms in percent.

Correctness gate (counted into attempted/failed; any failure exits 1)
---------------------------------------------------------------------
Every timed output is finite, has the right shape and lies inside each value
column's [min, max] (attention outputs are convex combinations).  After the
timed phase, on an 8-query x 256-key slice, oblique and Lorentz kernels
agree with ``diffcheck.naive_attention_reference`` and the Euclidean kernel
with a float64 reference to 1e-12.  bidir-ctx: cao equals the mean of the two
per-slice lorentz_cross_attention calls.  tree-embed: final stress and
distortions are finite, and the run's mean Lorentz distortion is below the
Euclidean one; the number of seeds where the Lorentz arm is not better is
recorded.  In traced runs, no attention span's children outlast it.
"""

import time

_T0 = time.perf_counter()  # set-up time starts before numpy and geoattn load

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread unless the caller sets one: OpenBLAS's default second
# thread spins between calls, doubling CPU time on bidir-ctx and tying op
# time to what else runs on the shared core.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("square-1k", "bidir-ctx", "tree-embed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "geoattn" / "__init__.py").is_file():
        print(f"perfbench: no geoattn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.setup_only:
        bench.WORKLOADS[args.workload](args.seed).warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        records.append(bench.run_workload(args, name))
        bench.print_record(records[-1], bool(args.trace))
    result = bench.result_line(records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
