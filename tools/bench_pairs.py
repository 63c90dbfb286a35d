"""Alternating perfbench runs of two checkouts, with the gain verdict.

Usage:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds 30] [--seed 42] [--claim METRIC] [--out FILE]

Each pair runs the benchmark command of PARENT's BENCHMARK.json (`python3
perfbench/run.py`) with `--workload W --seed S --seconds T --trace 0` once in
each checkout, one process at a time. The parent runs first in odd pairs and
the change in even ones. A run fails when it exits non-zero, when its last
stdout line is not the harness's JSON summary, or when that summary reports
`correct` false; failed runs are listed, and their values count for neither
side. For every end-to-end metric of PARENT's BENCHMARK.json the report gives
each side's median and quartiles (inclusive method) and the pairs the change
wins in the metric's better direction; a tie, or a pair with a failed run,
counts for neither. With --claim METRIC the verdict is "gain shown" only when
the change wins at least nine tenths of the pairs run and its median is
better than the parent's by more than the parent's quartile spread (q3 - q1).
--out writes every run's values and the summary as JSON. Exit status: 2 for
bad arguments, 1 when a run failed or a claimed gain is not shown, else 0.
Nothing here imports a harness file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_emit import summary

SIDES = ("parent", "change")
# beyond --seconds: the harness's last run, which may start just before the
# time is up, and its output checks
RUN_MARGIN_S = 300.0


def checkout_error(root: Path) -> str | None:
    """Why root is not a checkout the benchmark can run in, or None."""
    for rel in ("BENCHMARK.json", "perfbench/run.py", "src/polystab/__init__.py"):
        if not (root / rel).is_file():
            return f"{root} is not a polystab checkout: it has no {rel}"
    return None


def parse_run(returncode: int, stdout: str) -> tuple[dict | None, str | None]:
    """(metric values, None) for a harness run that passed, else (None, why it failed)."""
    if returncode:
        return None, f"exit status {returncode}"
    try:
        last = json.loads(stdout.strip().splitlines()[-1])
        correct = last["correct"]
        values = {name: m["value"] for name, m in last["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return None, "its last stdout line is not the harness's summary"
    if correct is not True:
        return None, "it reports correct false"
    return values, None


def run_once(root: Path, command: list, workload: str, seed: int, seconds: float):
    """One harness invocation in root; parse_run's result."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {seconds + RUN_MARGIN_S:g} s"
    return parse_run(proc.returncode, proc.stdout)


def compare(pairs: list, better: str) -> dict:
    """One metric over pairs [(parent value, change value)], None for a failed run."""
    sign = 1.0 if better == "higher" else -1.0
    parent = summary([p for p, _ in pairs if p is not None])
    change = summary([c for _, c in pairs if c is not None])
    wins = sum(1 for p, c in pairs if p is not None and c is not None and sign * (c - p) > 0)
    gain = (parent["n"] > 0 and change["n"] > 0 and 10 * wins >= 9 * len(pairs)
            and sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"])
    return {"better": better, "parent": parent, "change": change, "wins": wins,
            "pairs": len(pairs), "gain": gain}


def stats(s: dict) -> str:
    if not s["n"]:
        return "no runs"
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout measured as the baseline")
    parser.add_argument("change", type=Path, help="the checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--claim", help="the end-to-end metric a gain is claimed on")
    parser.add_argument("--out", type=Path, help="write the runs and the summary here as JSON")
    args = parser.parse_args(argv)

    roots = (args.parent.resolve(), args.change.resolve())
    for root in roots:
        why = checkout_error(root)
        if why:
            parser.error(why)
    bench = json.loads((roots[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.claim is not None and args.claim not in directions:
        parser.error(f"--claim must be one of {', '.join(directions)}")

    runs, values = [], []
    for i in range(args.pairs):
        pair = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            pair[side], why = run_once(roots[side], bench["command"], args.workload,
                                       args.seed, args.seconds)
            runs.append({"pair": i + 1, "side": SIDES[side], "values": pair[side],
                         "failure": why})
            print(f"pair {i + 1}/{args.pairs} {SIDES[side]}: {why or 'ok'}", flush=True)
        values.append(pair)
    failed = [r for r in runs if r["failure"]]
    metrics = {
        name: compare([tuple(None if v is None else v.get(name) for v in pair)
                       for pair in values], better)
        for name, better in directions.items()
    }

    print(f"{args.workload}: {args.pairs} pairs at {args.seconds:g} s, seed {args.seed}, "
          f"{len(failed)} of {len(runs)} runs failed")
    for r in failed:
        print(f"   FAILED: pair {r['pair']} {r['side']}: {r['failure']}")
    print(f"   {'metric':<18} {'better':<7} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} change wins")
    for name, m in metrics.items():
        print(f"   {name:<18} {m['better']:<7} {stats(m['parent']):<34} "
              f"{stats(m['change']):<34} {m['wins']}/{m['pairs']}")
    shown = None
    if args.claim is not None:
        shown = metrics[args.claim]["gain"]
        print(f"claim {args.claim}: {'gain shown' if shown else 'gain not shown'} (needs at least "
              f"9/10 of the pairs won and a median gap beyond the parent's quartile spread)")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "parent": str(roots[0]), "change": str(roots[1]), "workload": args.workload,
            "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
            "runs": runs, "metrics": metrics, "claim": args.claim, "gain_shown": shown,
        }, indent=2) + "\n", encoding="utf-8")
    return 1 if failed or shown is False else 0


if __name__ == "__main__":
    sys.exit(main())
