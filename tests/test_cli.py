import json

import numpy as np
import pytest

from geoattn import cli


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


def test_tree_embed_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "embed.csv"
    assert cli.main(["tree-embed", "--depth", "2", "--steps", "100",
                     "--seeds", "0,1", "--output", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "euclidean" in out and "lorentz" in out
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("space,curvature,seed")
    assert len(lines) == 1 + 2 * 2  # two arms x two seeds


def test_descent_writes_trajectories(tmp_path, capsys):
    assert cli.main(["descent", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "oblique/unconstrained ratio" in out
    assert (tmp_path / "descent_unconstrained.csv").exists()
    assert (tmp_path / "descent_oblique.csv").exists()


def test_descent_missing_dir(tmp_path, capsys):
    assert cli.main(["descent", "--out-dir", str(tmp_path / "nope")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("GEOATTN_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["verify"])
    # parser defaults are bound at build time, so rebuild after setenv
    assert cli._default_seed() == 123


def test_value_error_becomes_exit_1(capsys):
    assert cli.main(["tree-embed", "--dim", "1", "--depth", "1",
                     "--steps", "1"]) == 1
    assert "error:" in capsys.readouterr().err
