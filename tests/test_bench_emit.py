"""tools/bench_emit.py on synthetic harness results; no benchmark is run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_emit.py"


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


def emit(results_dir, out_dir, tag="t"):
    return subprocess.run([sys.executable, str(TOOL), tag, "--results", str(results_dir),
                           "--out-dir", str(out_dir)], capture_output=True, text=True, timeout=60)


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
