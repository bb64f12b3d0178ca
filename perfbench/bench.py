"""Measurement loop, statistics and output for perfbench/run.py."""

import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

from calib import Calibration
from layers import (COMPUTED, METRICS, PROBES, kernel_span_errors,
                    largest_children, layer_metrics)
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 7
# Set-up is imports and small inputs: interpreter-bound work (calib.py).
SETUP_CALIBRATION = ("small_outer", "exp", "matmul")

# name -> (unit, better); the first five are defined on every workload and
# are the bounded ones.  setup_s and the "norm" times are scaled to the
# reference machine speed (calib.py); the wall-clock figures follow.
E2E = {
    "setup_s": ("s", "lower"),
    "ops_per_s_norm": ("1/s", "higher"),
    "op_p50_norm_ms": ("ms", "lower"),
    "op_tail_norm_ms": ("ms", "lower"),
    "peak_mib": ("MiB", "lower"),
    "setup_wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "euclidean_p50_ms": ("ms", "lower"),
    "oblique_p50_ms": ("ms", "lower"),
    "lorentz_p50_ms": ("ms", "lower"),
    "error_rate": ("1", "lower"),
    "lorentz_distortion": ("1", "lower"),
    "euclidean_distortion": ("1", "lower"),
}
E2E_ALL_WORKLOADS = ("setup_s", "ops_per_s_norm", "op_p50_norm_ms", "op_tail_norm_ms",
                     "peak_mib", "setup_wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms")
E2E_BOUNDED = E2E_ALL_WORKLOADS[:5]


def tail_percentile(samples):
    """(percentile, value, ops beyond it) for the highest whole percentile
    with at least ten samples beyond it by nearest rank; the median when
    there are fewer than 20 samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50, statistics.median(xs), n - math.ceil(n / 2)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads():
    """OpenBLAS's own thread count, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode argument
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "git_commit": _git_commit(),
    }


def _setup_probe_times(name: str, seed: int, cal: Calibration) -> list[tuple]:
    """(set-up seconds, calibration ms) of fresh interpreters run one after
    another; the calibration is the mean of this process's passes right
    before and right after each."""
    cal.ms()  # warm-up
    times, cal_before = [], cal.ms()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        cal_after = cal.ms()
        times.append((json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"],
                      (cal_before + cal_after) / 2))
        cal_before = cal_after
    return times


class Run:
    """One workload's measurement: peak pass, timed phase, gate."""

    def __init__(self, workload, trace: bool):
        self.wl = workload
        self.cal = Calibration(workload.calibration)
        self.cal.ms()  # warm-up
        self.tracer = Tracer(PROBES) if trace else None
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []
        self.next_op = 1
        self.last_outs = None

    def _run_op(self, traced: bool):
        i, self.next_op = self.next_op, self.next_op + 1
        self.attempted += 1
        outs, parts = None, {}
        with self.tracer.installed() if traced else nullcontext():
            t0 = time.perf_counter_ns()
            try:
                with self.tracer.span("op") if traced else nullcontext():
                    parts, outs = self.wl.op(i)
            except Exception:  # a failed op is counted, and the loop goes on
                self.errors.append(f"op {i}: {traceback.format_exc().strip()}")
            ns = time.perf_counter_ns() - t0
        errors = self.wl.check(outs) if outs is not None else ["no output"]
        if errors:
            self.failed += 1
            self.errors += [f"op {i}: {e}" for e in errors]
        else:
            self.last_outs = outs
        return ns, parts

    def peak_pass(self) -> float:
        tracemalloc.start()
        try:
            self._run_op(traced=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2 ** 20

    def timed_phase(self, seconds: float) -> float:
        """Runs ops until ``seconds`` have passed, with calibration before
        the first op and after each (the median of one pass per started
        second of the op, so long ops get a steadier reading); returns the
        seconds spent in ops and their checks, calibration excluded."""
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        cal_before, cal_total = self.cal.ms(), 0
        while True:
            traced = self.tracer is not None and len(self.ops) % 2 == 1
            ns, parts = self._run_op(traced)
            t1 = time.perf_counter_ns()
            passes = [self.cal.ms() for _ in range(1 + ns // 10 ** 9)]
            cal_total += time.perf_counter_ns() - t1
            cal_after = statistics.median(passes)
            self.ops.append({"ns": ns, "parts": parts, "traced": traced,
                             "cal_ms": (cal_before + cal_after) / 2})
            cal_before = cal_after
            if time.perf_counter_ns() >= deadline and (
                    self.tracer is None or len(self.ops) >= 2):
                return (time.perf_counter_ns() - start - cal_total) / 1e9

    def gate(self):
        self.attempted += 1
        try:
            if self.last_outs is None:
                raise RuntimeError("no op produced a checked output")
            errors, max_err, extra = self.wl.gate(self.last_outs)
        except Exception:
            errors, max_err, extra = [traceback.format_exc().strip()], float("nan"), {}
        if self.tracer is not None:
            errors += kernel_span_errors(self.tracer.spans)
        if errors:
            self.failed += 1
            self.errors += errors
        return max_err, extra


def run_workload(args, name: str):
    wl = WORKLOADS[name](args.seed)
    wl.warm_up()
    run = Run(wl, trace=bool(args.trace))
    marks = [time.perf_counter()]
    setup_cal = Calibration(SETUP_CALIBRATION)
    setups = [] if args.trace else _setup_probe_times(name, args.seed, setup_cal)
    marks.append(time.perf_counter())
    peak_mib = None if args.trace else run.peak_pass()
    marks.append(time.perf_counter())
    elapsed = run.timed_phase(args.seconds)
    marks.append(time.perf_counter())
    max_err, extra = run.gate()
    marks.append(time.perf_counter())
    phase_s = dict(zip(("setup_probes", "peak_pass", "timed", "gate"),
                       (b - a for a, b in zip(marks, marks[1:]))))

    plain = [o["ns"] / 1e6 for o in run.ops if not o["traced"]]
    traced = [o["ns"] / 1e6 for o in run.ops if o["traced"]]
    plain_cal = [o["cal_ms"] for o in run.ops if not o["traced"]]
    norm = [run.cal.normalised(ms, c) for ms, c in zip(plain, plain_cal)]
    p50 = statistics.median(plain)
    tail_p, tail, beyond = tail_percentile(plain)
    norm_tail_p, norm_tail, _ = tail_percentile(norm)
    e2e = {name_: None for name_ in E2E}
    notes = {"op_p50_ms": f"n={len(plain)}",
             "op_tail_ms": f"p{tail_p}, {beyond} ops beyond, n={len(plain)}"
                           + (" (fewer than 20 ops: coincides with the median)"
                              if len(plain) < 20 else ""),
             "op_p50_norm_ms": f"n={len(plain)}, calibration median "
                               f"{statistics.median(plain_cal):.3f} ms, "
                               f"reference {run.cal.ref_ms:g} ms",
             "op_tail_norm_ms": f"p{norm_tail_p}, n={len(plain)}",
             "error_rate": f"{run.failed} failed of {run.attempted} attempted"}
    e2e.update(op_p50_ms=p50, op_tail_ms=tail, error_rate=run.failed / run.attempted,
               op_p50_norm_ms=statistics.median(norm), op_tail_norm_ms=norm_tail)
    if not args.trace:
        e2e.update(setup_s=statistics.median(setup_cal.normalised(s, c) for s, c in setups),
                   setup_wall_s=statistics.median(s for s, _ in setups),
                   peak_mib=peak_mib,
                   ops_per_s=len(run.ops) / elapsed,
                   ops_per_s_norm=1e3 / statistics.mean(norm))
        notes["setup_s"] = (f"median of {len(setups)} fresh processes, each scaled by "
                            f"the calibration around it")
        notes["setup_wall_s"] = f"median of {len(setups)} fresh processes"
        notes["ops_per_s"] = f"{len(run.ops)} ops in {elapsed:.2f} s"
        notes["ops_per_s_norm"] = "1000 / mean normalised op ms"
    parts: dict[str, list] = {}
    for o in run.ops:
        if not o["traced"]:
            for part, ns in o["parts"].items():
                parts.setdefault(part, []).append(ns / 1e6)
    parts_p50 = {part: statistics.median(v) for part, v in parts.items()}
    if name == "square-1k":  # tree-embed's parts are its two arms, not kernels
        for part, v in parts.items():
            e2e[f"{part}_p50_ms"] = parts_p50[part]
            notes[f"{part}_p50_ms"] = f"n={len(v)}"
    for key in ("lorentz_distortion", "euclidean_distortion"):
        if key in extra:
            e2e[key] = extra[key]
            notes[key] = f"mean over {extra['distortion_seeds']} seeds"

    record = {"meta": metadata(args), "workload": name, "why": wl.why,
              "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors[:20], "gate": extra, "e2e": e2e, "notes": notes,
              "parts_p50_ms": parts_p50, "setup_samples_s": setups, "phase_s": phase_s,
              "op_ms": [round(o["ns"] / 1e6, 3) for o in run.ops],
              "cal_ms": [round(o["cal_ms"], 3) for o in run.ops]}
    if args.trace:
        spans = run.tracer.spans
        layer = layer_metrics(spans, ops=len(traced))
        layer["diffcheck.max_abs_err"] = max_err
        layer["trace.overhead_pct"] = 100.0 * (statistics.median(traced) - p50) / p50
        record.update(layer=layer, absent=run.tracer.absent,
                      uncounted=sorted(run.tracer.uncounted),
                      largest_child=largest_children(spans),
                      traced_ops=len(traced), untraced_ops=len(plain))
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{name}-seed{args.seed}.json", "w") as f:
            json.dump([[s.name, s.start_ns, s.end_ns, s.parent, s.tail_ns, s.counts]
                       for s in spans], f)
    return record


def print_record(rec, trace: bool) -> None:
    name = rec["workload"]
    for metric, (unit, better) in E2E.items():
        value = rec["e2e"][metric]
        shown = "n/a" if value is None else f"{value:.6g} {unit}"
        missing = ("not measured in traced runs" if trace and metric in E2E_ALL_WORKLOADS
                   else "not defined on this workload")
        note = rec["notes"].get(metric, missing if value is None else "")
        print(f"{name:11s} e2e   {metric:22s} {shown:>18s}  {better:6s} {note}")
    if trace:
        for metric, (unit, better) in METRICS.items():
            shown = f"{rec['layer'][metric]:.6g} {unit}"
            absent = any(metric.startswith(a + ".") for a in rec["absent"])
            uncounted = metric in COMPUTED and any(metric.startswith(u + ".")
                                                   for u in rec["uncounted"])
            label = (("  computed" if metric in COMPUTED else "")
                     + ("  absent" if absent else "") + ("  uncounted" if uncounted else ""))
            print(f"{name:11s} layer {metric:42s} {shown:>18s}{label}")
        print(f"{name:11s} largest child per kernel: {rec['largest_child']}")
    for err in rec["errors"]:
        print(f"{name:11s} ERROR {err}", file=sys.stderr)
    print("record " + json.dumps(rec, default=str))


def result_line(records, trace: bool) -> dict:
    names = list(METRICS) if trace else list(E2E_BOUNDED)
    units = METRICS if trace else E2E
    metrics = {}
    for rec in records:
        values = rec["layer"] if trace else rec["e2e"]
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for m in names:
            metrics[prefix + m] = {"value": values[m], "unit": units[m][0]}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


