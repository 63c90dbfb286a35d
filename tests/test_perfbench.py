"""A smoke run of the benchmark harness: one traced bem-2d child, as perfbench/run.py starts it."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_prints_one_json_line(tmp_path):
    # a print to stdout anywhere in the run, or a call that the traced
    # harness (spans.py, micro.py) no longer matches, breaks this line
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "bem-2d", "42", str(tmp_path),
           "1", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    assert json.loads(lines[0])["errors"] == []
