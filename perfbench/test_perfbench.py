"""Tests for the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Probe, Span, Tracer, self_times_ns  # noqa: E402
from workloads import WORKLOADS, SquareRound  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_nested_spans():
    spans = [
        Span("op", 0, 100),
        Span("a", 10, 40, parent=0, tail_ns=5),   # covers 10..45 of op
        Span("b", 15, 35, parent=1),
        Span("c", 50, 70, parent=0),
        Span("d", 60, 80, parent=0),              # overlaps c: 70..80 is new
    ]
    assert self_times_ns(spans) == [100 - 35 - 20 - 10, 30 - 20, 20, 20, 20]


def test_self_time_clips_children_to_parent():
    spans = [Span("op", 0, 10), Span("a", 5, 12, parent=0)]
    assert self_times_ns(spans) == [5, 7]


def _fake_layer():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    return mod


def test_absent_probes_and_restore():
    mod = _fake_layer()
    originals = (mod.inner, mod.outer)
    tracer = Tracer([
        Probe(mod.__name__, "outer", "fake.outer"),
        Probe(mod.__name__, "inner", "fake.inner", count=lambda a, k, r: {"n": r}),
        Probe(mod.__name__, "renamed_away", "fake.gone"),
        Probe("perfbench_no_such_module", "f", "fake.nomodule"),
    ])
    with tracer.installed():
        assert mod.outer is not originals[1]
        with tracer.span("op"):
            assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    assert mod.inner is originals[0] and mod.outer is originals[1]
    assert tracer.absent == ["fake.gone", "fake.nomodule"]
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("op", -1), ("fake.outer", 0), ("fake.inner", 1)]
    assert tracer.spans[2].counts == {"n": 2}


def test_failing_count_keeps_the_result():
    mod = _fake_layer()
    tracer = Tracer([Probe(mod.__name__, "inner", "fake.inner", count=lambda a, k, r: 1 / 0)])
    with tracer.installed():
        assert mod.inner(1) == 2
    assert tracer.uncounted == {"fake.inner"} and tracer.spans[0].counts == {}


def test_skip_under_leaves_nested_call_unrecorded():
    mod = _fake_layer()
    tracer = Tracer([Probe(mod.__name__, "outer", "fake.outer"),
                     Probe(mod.__name__, "inner", "fake.inner", skip_under="fake.outer")])
    with tracer.installed():
        mod.outer(1)
        mod.inner(1)
    assert [s.name for s in tracer.spans] == ["fake.outer", "fake.inner"]
    assert tracer.spans[1].parent == -1


class _SmallRound(SquareRound):
    n = m = 16
    d = 8


def test_traced_op_restores_every_wrapper():
    lookups = [(sys.modules[p.module], p.attr) for p in layers.PROBES
               if p.module in sys.modules]
    before = [getattr(mod, attr) for mod, attr in lookups]
    r = bench.Run(_SmallRound(3), trace=True)
    r._run_op(traced=True)
    assert [getattr(mod, attr) for mod, attr in lookups] == before
    assert all(getattr(mod, attr) is f for (mod, attr), f in zip(lookups, before))
    assert r.failed == 0 and r.tracer.absent == []
    names = {s.name for s in r.tracer.spans}
    assert {"op", "linalg.matmul", "attention.oblique_attention",
            "lorentz.lift_rows"} <= names
    assert layers.kernel_span_errors(r.tracer.spans) == []
    metrics = layers.layer_metrics(r.tracer.spans, ops=1)
    assert set(metrics) == set(layers.METRICS)
    assert metrics["linalg.matmul.calls"] == 12
    assert metrics["linalg.matmul.gflop"] == pytest.approx(12 * 2 * 16 * 16 * 2 / 1e9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    def flat(inputs):
        return {k: np.asarray(v) for k, v in inputs.items()}

    a, b, c = (flat(WORKLOADS[name](s).inputs()) for s in (5, 5, 6))
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert all(not np.array_equal(a[k], c[k]) for k in a)


def test_every_timed_op_gets_a_calibration():
    r = bench.Run(_SmallRound(3), trace=False)
    r.timed_phase(0.05)
    assert r.ops and all(o["cal_ms"] > 0 for o in r.ops)
    ref = calib.REF_MS["wide_outer"] + calib.REF_MS["matmul"] + calib.REF_MS["block"]
    assert r.cal.ref_ms == ref
    assert r.cal.normalised(250.0, ref) == 250.0
    assert r.cal.normalised(250.0, 2 * ref) == 125.0


def test_tail_percentile():
    assert bench.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0, 1)
    p, value, beyond = bench.tail_percentile(list(range(1, 101)))
    assert (p, value, beyond) == (90, 90, 10)


def test_metric_names_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    names = (list(bench.E2E) + list(layers.METRICS) + e2e + per_layer
             + [w["name"] for w in spec["workloads"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert e2e == list(bench.E2E_BOUNDED)
    assert per_layer == list(layers.METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == bench.E2E[m["name"]]
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.METRICS[m["name"]]


def test_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bidir-ctx",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
