import json

import numpy as np
import pytest

from geoattn import cli, experiments


def test_verify_all_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert "properties passed" in out


def test_verify_filter(capsys):
    assert cli.main(["verify", "--filter", "lorentz"]) == 0
    out = capsys.readouterr().out
    checks = [l for l in out.splitlines() if l.startswith("PASS")]
    assert checks and all("lorentz" in l for l in checks)


def test_verify_unknown_filter(capsys):
    assert cli.main(["verify", "--filter", "no-such-property"]) == 1
    assert "no properties match" in capsys.readouterr().err


def test_bench_csv(capsys):
    assert cli.main(["bench", "--n", "8", "--m", "8", "--d", "8",
                     "--heads", "2", "--repeats", "2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[:4] == ["kernel", "n", "m", "d"]
    kernels = {l.split(",")[0] for l in lines[1:]}
    assert kernels == {"euclidean", "oblique", "lorentz"}
    for l in lines[1:]:
        fields = l.split(",")
        assert float(fields[6]) > 0  # mean_ns


def test_bench_json(tmp_path):
    out_file = tmp_path / "bench.json"
    assert cli.main(["bench", "--n", "4", "--m", "4", "--d", "4",
                     "--heads", "1", "--repeats", "2", "--format", "json",
                     "--output", str(out_file)]) == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 3
    assert all(r["p50_ns"] <= r["p95_ns"] for r in records)


def test_bench_size_guard(capsys):
    assert cli.main(["bench", "--n", "65536", "--m", "65536"]) == 1
    assert "guard" in capsys.readouterr().err


def test_bench_size_guard_counts_what_bench_holds(capsys):
    # n * m = 2^22 is under the guard, but q and the output alone hold
    # 2 * 2^25 float64 entries.
    assert cli.main(["bench", "--n", "4194304", "--m", "1", "--d", "8"]) == 1
    assert "guard" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("the command started its work")


def _no_bench_work(monkeypatch):
    for name in ("euclidean_attention", "oblique_attention", "lorentz_cross_attention"):
        monkeypatch.setattr(cli, name, _never)
    monkeypatch.setattr(cli.np.random, "default_rng", _never)


def test_bench_work_guard_refuses_before_running(capsys, monkeypatch):
    # About 2.8M float64 entries pass the size guard, but 13 calls of each
    # kernel on 65536^2 pairs would take most of an hour.
    _no_bench_work(monkeypatch)
    assert cli.main(["bench", "--n", "65536", "--m", "65536", "--d", "8"]) == 1
    err = capsys.readouterr().err
    assert "work guard" in err
    for part in ("n=65536", "m=65536", "repeats=10", f"{cli._WORK_GUARD:.3g}"):
        assert part in err


def test_bench_without_keys_is_a_named_error(capsys):
    assert cli.main(["bench", "--n", "4", "--m", "0", "--d", "4"]) == 1
    assert "k has no rows" in capsys.readouterr().err


def test_bench_rejects_zero_repeats(capsys):
    assert cli.main(["bench", "--n", "4", "--m", "4", "--d", "4",
                     "--repeats", "0"]) == 1
    assert "error: --repeats must be at least 1, got 0" in capsys.readouterr().err


def test_tree_embed_rejects_empty_seed_list(capsys):
    assert cli.main(["tree-embed", "--depth", "1", "--seeds", ","]) == 1
    assert "error: --seeds names no seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "a", "--seeds item 'a' is not an integer, got 'a'"),
    ("--seeds", "0,1.5", "--seeds item '1.5' is not an integer, got '0,1.5'"),
    ("--curvature", ",", "--curvature item '' is not a number, got ','"),
    ("--curvature", "1.0,x", "--curvature item 'x' is not a number, got '1.0,x'"),
])
def test_tree_embed_names_flag_and_item_of_malformed_list(capsys, flag, value, message):
    assert cli.main(["tree-embed", "--depth", "1", flag, value]) == 1
    captured = capsys.readouterr()
    assert "mean distortion" not in captured.out
    assert f"error: {message}" in captured.err


def test_tree_embed_checks_curvatures_before_any_arm(capsys):
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "100", "--seeds", "0",
                     "--curvature", "1.0,0"]) == 1
    captured = capsys.readouterr()
    assert "mean distortion" not in captured.out
    assert "error: curvature must satisfy" in captured.err
    assert "got 0.0" in captured.err


def test_tree_embed_rejects_nan_step_size(capsys):
    assert cli.main(["tree-embed", "--depth", "2", "--seeds", "0",
                     "--step-size", "nan"]) == 1
    captured = capsys.readouterr()
    assert "mean distortion" not in captured.out
    assert "error: step_size must be finite and > 0, got nan" in captured.err


def test_tree_embed_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "embed.csv"
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "100",
                     "--seeds", "0,1", "--output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "euclidean" in out and "lorentz" in out
    lines = out_file.read_text().splitlines()
    assert lines[0] == ("space,curvature,seed,distortion,worst_ratio,stress,"
                        "evaluations,gave_up,converged")
    assert len(lines) == 1 + 2 * 2  # two arms x two seeds
    # Each run's evaluations total its phases' trial-point stress
    # evaluations, gave_up counts its phases that gave up, and converged
    # those that a stop ended.
    run = experiments.embed_tree(experiments.TreeSpec(depth=2),
                                 experiments.EmbeddingRun(space="euclidean",
                                                          steps=100, seed=0))
    assert lines[1].split(",")[-3:] == [str(sum(p.evaluations for p in run.phases)),
                                        str(sum(p.gave_up for p in run.phases)),
                                        str(sum(p.converged for p in run.phases))]


def test_tree_embed_json_records_evaluations(tmp_path, capsys):
    out_file = tmp_path / "embed.json"
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "100", "--seeds", "0",
                     "--format", "json", "--output", str(out_file)]) == 0
    records = json.loads(out_file.read_text())
    assert [r["space"] for r in records] == ["euclidean", "lorentz"]
    for r in records:
        assert isinstance(r["evaluations"], int) and 0 < r["evaluations"]


def test_tree_embed_records_phases_that_gave_up(monkeypatch, tmp_path, capsys):
    # A huge uphill Euclidean gradient makes every phase of that arm give up.
    grad = experiments._euclidean_stress_grad
    monkeypatch.setattr(experiments, "_euclidean_stress_grad",
                        lambda x, ev: -1e30 * grad(x, ev))
    out_file = tmp_path / "embed.json"
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "40", "--seeds", "0",
                     "--format", "json", "--output", str(out_file)]) == 0
    euclidean_arm, lorentz_arm = json.loads(out_file.read_text())
    run = experiments.embed_tree(experiments.TreeSpec(depth=2),
                                 experiments.EmbeddingRun(space="euclidean", steps=40,
                                                          seed=0))
    assert euclidean_arm["gave_up"] == sum(p.gave_up for p in run.phases) == 4
    assert lorentz_arm["gave_up"] == 0


def test_descent_writes_trajectories(tmp_path, capsys):
    assert cli.main(["descent", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "oblique/unconstrained ratio" in out
    assert (tmp_path / "descent_unconstrained.csv").exists()
    assert (tmp_path / "descent_oblique.csv").exists()


def test_descent_at_large_condition_number_writes_both_arms(tmp_path, capsys):
    # Exit 1 is by design here: the unconstrained arm stops at its
    # iteration cap (converged=False).  The oblique arm converges, and no
    # error line is printed.
    assert cli.main(["descent", "--condition-number", "1e6",
                     "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    assert "unconstrained iterations: 100000 (converged=False)" in captured.out
    assert "oblique iterations:" in captured.out
    assert "(converged=True)" in captured.out
    assert (tmp_path / "descent_unconstrained.csv").exists()
    assert (tmp_path / "descent_oblique.csv").exists()


def test_descent_csvs_hold_every_trajectory_point(tmp_path, capsys):
    assert cli.main(["--seed", "3", "descent", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    run = experiments.descent_demo(experiments.DescentRun(seed=3))
    for name, traj in (("descent_unconstrained.csv", run.trajectory_unconstrained),
                       ("descent_oblique.csv", run.trajectory_oblique)):
        path = tmp_path / name
        assert f"wrote {path}" in out
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iter,x,y,f"
        assert len(lines) == 1 + len(traj)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == traj[0][2]
        # 17 significant digits round-trip every value
        assert [tuple(map(float, l.split(",")[1:])) for l in lines[1:]] == traj


def test_descent_missing_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.experiments, "descent_demo", _never)
    assert cli.main(["descent", "--out-dir", str(tmp_path / "nope")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --out-dir") and "does not exist" in err


@pytest.mark.parametrize("command", [
    ["bench", "--n", "4", "--m", "4", "--d", "4"],
    ["tree-embed", "--depth", "2", "--seeds", "0"],
])
def test_missing_output_directory_is_refused_before_any_work(command, tmp_path, capsys,
                                                             monkeypatch):
    _no_bench_work(monkeypatch)
    monkeypatch.setattr(cli.experiments, "embed_tree", _never)
    target = tmp_path / "missing" / "out.csv"
    assert cli.main(command + ["--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --output") and "does not exist" in err


@pytest.mark.parametrize("flag", ["--n", "--m", "--d"])
def test_bench_refuses_a_negative_size(flag, capsys, monkeypatch):
    _no_bench_work(monkeypatch)
    sizes = {"--n": "4", "--m": "4", "--d": "4", flag: "-5"}
    assert cli.main(["bench"] + [a for kv in sizes.items() for a in kv]) == 1
    assert f"error: {flag} must be >= 0, got -5" in capsys.readouterr().err


def test_failed_write_is_an_error_line(tmp_path, capsys):
    # The directory exists, but the output names the directory itself.
    assert cli.main(["bench", "--n", "4", "--m", "4", "--d", "4", "--heads", "1",
                     "--repeats", "1", "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("GEOATTN_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    # parser defaults are bound at build time, so rebuild after setenv
    assert args.seed == 123


def test_bad_seed_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("GEOATTN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_value_error_becomes_exit_1(capsys, monkeypatch):
    assert cli.main(["tree-embed", "--dim", "1", "--depth", "1",
                     "--steps", "1"]) == 1
    assert "error:" in capsys.readouterr().err

    # numpy's failed allocations raise a MemoryError subclass
    def no_memory(spec):
        raise MemoryError("Unable to allocate 142. TiB")

    monkeypatch.setattr(cli.experiments, "tree_distance_matrix", no_memory)
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "1",
                     "--seeds", "0"]) == 1
    assert "error: Unable to allocate" in capsys.readouterr().err
