"""Summarise perfbench results into one BENCH_<tag>.json.

Usage, from the root of a checkout after `python3 perfbench/run.py ...`:

    python3 tools/bench_emit.py TAG [--results .perfbench] [--out-dir .]

Reads every <name>.result.json in the results directory and writes
BENCH_<TAG>.json to the output directory. For each result it gives the
harness's metric values as written, the median, quartiles and count of each
per-run sample list, the golden-hash status, the output hashes, the seed and
the provenance. A top-level tree record names the tree the results are of:
the file count and a SHA-256 over the relative path and bytes of every file
in src/polystab/ and perfbench/ (no __pycache__) and of BENCHMARK.json, in
the checkout this script lives in. A result whose run was not correct is
refused: the file is not written and the exit code is 1. So are results
when one of those files is newer than the oldest of them, since they may be
of another tree. Missing or malformed results exit 2. Nothing here starts a
benchmark run or imports a harness file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
from pathlib import Path

KEYS = ("seed", "provenance", "correct", "metrics", "samples", "golden", "hashes")
SUFFIX = ".result.json"
ROOT = Path(__file__).resolve().parents[1]
TREE = ("src/polystab", "perfbench", "BENCHMARK.json")  # what a benchmark run builds from


def tree_files(root: Path) -> list[Path]:
    """The files of TREE under root, no __pycache__, sorted by relative path."""
    files = []
    for name in TREE:
        path = root / name
        files += [path] if path.is_file() else [
            f for f in path.rglob("*")
            if f.is_file() and "__pycache__" not in f.relative_to(root).parts]
    return sorted(files, key=lambda f: f.relative_to(root).as_posix())


def tree(root: Path, files: list[Path]) -> dict:
    """The file count and a SHA-256 over each file's relative path and bytes, both length-prefixed."""
    digest = hashlib.sha256()
    for f in files:
        name, data = f.relative_to(root).as_posix().encode(), f.read_bytes()
        digest.update(b"%d:%s%d:%s" % (len(name), name, len(data), data))
    return {"files": len(files), "sha256": digest.hexdigest()}


def summary(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and count of values; None statistics when empty."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else [values[0]] * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def entry(result: dict) -> dict:
    """The BENCH entry of one harness result."""
    return {
        "seed": result["seed"],
        "metrics": result["metrics"],
        "samples": {name: summary(values) for name, values in result["samples"].items()},
        "golden": result["golden"],
        "hashes": result["hashes"],
        "provenance": result["provenance"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag", help="names the output, BENCH_<tag>.json")
    parser.add_argument("--results", type=Path, default=Path(".perfbench"),
                        help="the directory of <name>.result.json files")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)

    paths = sorted(args.results.glob(f"*{SUFFIX}"))
    if not paths:
        print(f"error: no *{SUFFIX} in {args.results}", file=sys.stderr)
        return 2
    entries = {}
    refused = []
    for path in paths:
        try:
            result = json.loads(path.read_text(encoding="utf-8"))
            missing = [key for key in KEYS if key not in result]
            if missing:
                raise ValueError(f"missing keys {missing}")
            entries[path.name[: -len(SUFFIX)]] = entry(result)
        except (AttributeError, OSError, TypeError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        if result["correct"] is not True:
            refused.append(path.name)
    if refused:
        print(f"error: not correct, nothing written: {', '.join(refused)}", file=sys.stderr)
        return 1
    files = tree_files(ROOT)
    oldest = min(path.stat().st_mtime_ns for path in paths)
    newer = [f.relative_to(ROOT).as_posix() for f in files if f.stat().st_mtime_ns > oldest]
    if newer:
        print(f"error: newer than the oldest result, nothing written: {', '.join(newer)}",
              file=sys.stderr)
        return 1
    out = args.out_dir / f"BENCH_{args.tag}.json"
    bench = {"tag": args.tag, "tree": tree(ROOT, files), "workloads": entries}
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
