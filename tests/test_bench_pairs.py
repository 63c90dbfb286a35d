"""tools/bench_pairs.py's verdict and argument checks; no benchmark is run."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    """The tool as a module, with a run_once that fails the test if it is called."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_emit beside it
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_run(*args):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(module, "run_once", no_run)
    return module


def checkout(path):
    """A directory the tool accepts as a checkout, with this repository's BENCHMARK.json."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "src" / "polystab").mkdir(parents=True)
    (path / "src" / "polystab" / "__init__.py").write_text("")
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


# ten parent runs with median 100 and quartiles [98.25, 101.75]: a spread of 3.5
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


class TestVerdict:
    def test_nine_of_ten_wins_beyond_the_spread(self, tool):
        change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
        m = tool.compare(list(zip(PARENT, change)), "higher")
        assert (m["wins"], m["pairs"]) == (9, 10)
        assert m["parent"]["q3"] - m["parent"]["q1"] == 3.5
        assert m["change"]["median"] - m["parent"]["median"] > 3.5 and m["gain"]

    def test_eight_of_ten_wins_is_no_gain(self, tool):
        change = [p + 50.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
        m = tool.compare(list(zip(PARENT, change)), "higher")
        assert m["wins"] == 8 and not m["gain"]

    def test_every_pair_won_by_less_than_the_spread_is_no_gain(self, tool):
        change = [p + 1.0 for p in PARENT]
        m = tool.compare(list(zip(PARENT, change)), "higher")
        assert m["wins"] == 10 and not m["gain"]

    def test_lower_is_better(self, tool):
        change = [p - 10.0 for p in PARENT]
        m = tool.compare(list(zip(PARENT, change)), "lower")
        assert m["wins"] == 10 and m["gain"]
        m = tool.compare(list(zip(PARENT, change)), "higher")
        assert m["wins"] == 0 and not m["gain"]

    def test_ties_and_failed_runs_count_for_neither(self, tool):
        pairs = [(1.0, 1.0), (1.0, None), (None, 2.0), (1.0, 2.0)]
        m = tool.compare(pairs, "higher")
        assert m["wins"] == 1 and (m["parent"]["n"], m["change"]["n"]) == (3, 3)
        assert not tool.compare([(None, 2.0)], "higher")["gain"]


class TestParseRun:
    SUMMARY = {"correct": True, "attempted": 3, "failed": 0,
               "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}

    def test_passing_run(self, tool):
        stdout = "== bem-2d\nprovenance: {}\n" + json.dumps(self.SUMMARY) + "\n"
        assert tool.parse_run(0, stdout) == ({"run_s": 0.5}, None)

    @pytest.mark.parametrize("returncode,stdout", [
        (1, json.dumps(SUMMARY)),
        (0, ""),
        (0, json.dumps(SUMMARY) + "\ntrailing text"),
        (0, json.dumps({"correct": True})),
        (0, json.dumps(dict(SUMMARY, correct=False))),
    ], ids=["exit-status", "no-output", "not-last", "no-metrics", "not-correct"])
    def test_failed_run(self, tool, returncode, stdout):
        values, why = tool.parse_run(returncode, stdout)
        assert values is None and why


class TestArguments:
    @pytest.mark.parametrize("missing", ["parent", "change"])
    def test_missing_checkout(self, tool, tmp_path, capsys, missing):
        roots = {side: tmp_path / side for side in ("parent", "change")}
        checkout(roots["change" if missing == "parent" else "parent"])
        with pytest.raises(SystemExit) as exc:
            tool.main([str(roots["parent"]), str(roots["change"]), "--workload", "bem-2d"])
        assert exc.value.code == 2
        assert f"{roots[missing]} is not a polystab checkout" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--workload", "nope"],
        ["--workload", "bem-2d", "--pairs", "0"],
        ["--workload", "bem-2d", "--seconds", "nan"],
        ["--workload", "bem-2d", "--claim", "solve_2d_us"],
    ], ids=["workload", "pairs", "seconds", "claim"])
    def test_refused(self, tool, tmp_path, extra):
        roots = [str(checkout(tmp_path / side)) for side in ("parent", "change")]
        with pytest.raises(SystemExit) as exc:
            tool.main(roots + extra)
        assert exc.value.code == 2


def test_sides_alternate_and_the_claim_is_judged(tool, tmp_path, monkeypatch, capsys):
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    order = []

    def fake_run(root, command, workload, seed, seconds):
        assert (command, workload, seed, seconds) == (["python3", "perfbench/run.py"],
                                                      "bem-2d", 7, 1.5)
        side = "parent" if root == parent.resolve() else "change"
        order.append(side)
        pair = sum(1 for s in order if s == side) - 1
        value = PARENT[pair] + (10.0 if side == "change" else 0.0)
        return {"path_steps_per_s": value, "run_s": 1.0}, None

    monkeypatch.setattr(tool, "run_once", fake_run)
    out = tmp_path / "pairs.json"
    code = tool.main([str(parent), str(change), "--workload", "bem-2d", "--pairs", "4",
                      "--seconds", "1.5", "--seed", "7", "--claim", "path_steps_per_s",
                      "--out", str(out)])
    assert order == ["parent", "change", "change", "parent"] * 2
    assert code == 0 and "claim path_steps_per_s: gain shown" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["gain_shown"] is True and len(report["runs"]) == 8
    assert report["metrics"]["run_s"]["wins"] == 0
