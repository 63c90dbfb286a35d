"""tools/bench_emit.py on synthetic harness results; no benchmark is run."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_emit.py"


def result(correct=True):
    """A result file's content in the form perfbench/run.py writes it."""
    return {
        "seed": 42,
        "provenance": {"nproc": 2, "git_commit": "abc"},
        "workload": "em-long",
        "correct": correct,
        "metrics": {"setup_s": {"value": 0.25, "unit": "s"},
                    "peak_rss_mb": {"value": 45.5, "unit": "MB"}},
        "samples": {"wall_setup_s": [0.4, 0.1, 0.3, 0.2, 0.5], "peak_rss_mb": [45.5],
                    "reference_s": []},
        "golden": "match",
        "hashes": {"csv": "00ff"},
    }


def emit(results_dir, out_dir, tag="t", tool=TOOL):
    return subprocess.run([sys.executable, str(tool), tag, "--results", str(results_dir),
                           "--out-dir", str(out_dir)], capture_output=True, text=True, timeout=60)


def copy_tree(dst):
    """A copy of the tool and of the files it hashes under dst, mtimes kept; the copied tool."""
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src/polystab", "perfbench"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    for name in ("BENCHMARK.json", "tools/bench_emit.py"):
        (dst / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / name, dst / name)
    return dst / "tools" / "bench_emit.py"


def test_writes_metrics_sample_statistics_golden_and_provenance(tmp_path):
    (tmp_path / "em-long.result.json").write_text(json.dumps(result()))
    proc = emit(tmp_path, tmp_path, "pr")
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_pr.json").read_text())
    assert bench["tag"] == "pr" and list(bench["workloads"]) == ["em-long"]
    em = bench["workloads"]["em-long"]
    assert em["metrics"] == result()["metrics"]
    assert em["samples"] == {
        "wall_setup_s": {"median": 0.3, "q1": 0.2, "q3": 0.4, "n": 5},
        "peak_rss_mb": {"median": 45.5, "q1": 45.5, "q3": 45.5, "n": 1},
        "reference_s": {"median": None, "q1": None, "q3": None, "n": 0},
    }
    assert (em["seed"], em["golden"], em["hashes"]) == (42, "match", {"csv": "00ff"})
    assert em["provenance"] == {"nproc": 2, "git_commit": "abc"}


def test_refuses_a_result_that_is_not_correct(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    (results / "em-long.result.json").write_text(json.dumps(result()))
    (results / "bem-2d.result.json").write_text(json.dumps(result(correct=False)))
    proc = emit(results, tmp_path)
    assert proc.returncode == 1
    assert "bem-2d.result.json" in proc.stderr
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("content", ["{", json.dumps({"seed": 1}), "[]"])
def test_malformed_result_is_a_usage_error(tmp_path, content):
    (tmp_path / "em-long.result.json").write_text(content)
    proc = emit(tmp_path, tmp_path)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert not (tmp_path / "BENCH_t.json").exists()


def test_no_results_is_a_usage_error(tmp_path):
    proc = emit(tmp_path, tmp_path)
    assert proc.returncode == 2 and "no *.result.json" in proc.stderr


def tree_record(root):
    """The tree record that the tool copied under root writes for one correct result."""
    results = root / ".perfbench"
    results.mkdir()
    path = results / "em-long.result.json"
    path.write_text(json.dumps(result()))
    later = time.time_ns() + 10**9  # after every source file, as a run's results are
    os.utime(path, ns=(later, later))
    proc = emit(results, root, tool=root / "tools" / "bench_emit.py")
    assert proc.returncode == 0, proc.stderr
    return json.loads((root / "BENCH_t.json").read_text())["tree"]


def test_tree_digest_changes_with_one_byte(tmp_path):
    for name in "abc":
        copy_tree(tmp_path / name)
    source = tmp_path / "c" / "src" / "polystab" / "checks.py"
    data = bytearray(source.read_bytes())
    data[-2] ^= 1
    source.write_bytes(data)
    a, b, c = (tree_record(tmp_path / name) for name in "abc")
    assert a == b
    assert c["files"] == a["files"] > 3 and c["sha256"] != a["sha256"]


def test_refuses_results_older_than_a_source_file(tmp_path):
    tool = copy_tree(tmp_path)
    (tmp_path / "em-long.result.json").write_text(json.dumps(result()))
    source = tmp_path / "perfbench" / "run.py"
    before = source.stat().st_mtime_ns - 10**9
    os.utime(tmp_path / "em-long.result.json", ns=(before, before))
    proc = emit(tmp_path, tmp_path, tool=tool)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: newer than the oldest result")
    assert "perfbench/run.py" in proc.stderr
    assert not (tmp_path / "BENCH_t.json").exists()
