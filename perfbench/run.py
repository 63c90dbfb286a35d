"""polystab benchmark: seeded EM/BEM ensembles, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload em-long --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table
    python3 perfbench/run.py --workload all --record-golden   # re-pin output hashes

Closed loop, one client: runs go back to back, each in a fresh Python process
(so set-up time and peak RSS are per run) with POLYSTAB_THREADS unset,
BLAS/OpenMP pools pinned to one thread and every process pinned to one CPU.
Runs start while they are expected to end within --seconds (at least three).
Every run checks its own outputs; all runs of one seed must write
byte-identical files, which must match perfbench/golden.json at its seed
when the Python, numpy and scipy versions match the recorded ones.

Timings are reported in reference seconds. A shared 2-core box changes speed
by 20-40% within minutes (the 20-second medians of a fixed pure-Python loop
spread 28% between quartiles), so before and after each run this script times
a fixed Python + numpy job that touches no polystab code, on the same CPU,
and scales the runs' mean wall times by REF_NOMINAL_S / (mean reference
time). A change to polystab moves the scaled times exactly as it moves wall
time; a change in machine speed mostly cancels. Wall-clock medians, and for
set-up and run time the highest percentile with ten samples beyond it, are
printed beside each metric; every sample is kept in the result file.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced runs: the traced ones wrap polystab's public callables from outside
and report the per-layer metrics, and the difference of the two run_s
medians is the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Full results, per-run samples and a provenance record go
to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("em-long", "em-wide", "bem-scalar", "bem-2d")
TOOLCHAIN = ("python", "numpy", "scipy")  # the versions golden hashes are tied to
DEFAULT_SEED = 42
MIN_RUNS = 3
RUN_TIMEOUT_S = 120.0
DEADLINE_S = 170.0  # one invocation must end within 180 s
REF_NOMINAL_S = 0.25  # about the reference job's wall time on a 2-core Xeon box running fast
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "path_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "paths_ok_fraction": "fraction",
    "runs_ok_fraction": "fraction",
}
TIMINGS = ("setup_s", "run_s")
PER_LAYER = {
    "ensemble.simulate_s": "s",
    "ensemble.self_s": "s",
    "ensemble.brownian_increment_us": "us",
    "ensemble.write_s": "s",
    "cli.self_s": "s",
    "problems.drift_calls": "count",
    "problems.drift_evals_per_path_step": "evals/path-step",
    "problems.drift_s": "s",
    "problems.diffusion_s": "s",
    "integrators.em_step_ns_per_path": "ns",
    "integrators.solve_scalar_ns_per_lane": "ns",
    "integrators.solve_2d_us": "us",
    "integrators.solve_drift_calls": "count",
    "integrators.max_residual": "1",
    "analysis.check_s": "s",
    "trace.overhead_s": "s",
}


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "POLYSTAB_THREADS"}
    env.update(THREAD_ENV, PYTHONPATH=str(root / "src"))
    return env


def run_child(root: Path, name: str, seed: int, traced: bool, timeout: float) -> dict:
    out_dir = root / ".perfbench" / "out" / name
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), str(out_dir),
           "1" if traced else "0", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": traced, "errors": [f"run timed out after {timeout:.0f} s"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"trace": traced, "errors": [f"run exited {proc.returncode}: " + " | ".join(tail)]}
    if proc.returncode != 0 and not result["errors"]:
        result["errors"].append(f"run exited {proc.returncode}")
    return result


def reference_s() -> float:
    """Wall time of a fixed job that does the workloads' kinds of work but no polystab code.

    Interpreter loops and numpy calls on engine-chunk (256) and per-path (2)
    sized arrays: on a shared box, these slow down together with every
    workload. Passes over arrays larger than the cache do not track the
    workloads' slowdowns and are left out.
    """
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(12_000):
        x = np.where(x > 0.5, np.sqrt(x * x + 1e-3) - 0.25, x + 1e-3)
    y = np.array([0.3, -0.2])
    for _ in range(30_000):
        y = np.sqrt(np.abs(y) + 1e-3) * 0.5
    acc = 0
    for i in range(1_100_000):
        acc += i * i
    return time.perf_counter() - t0


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_outputs(name: str, seed: int, runs: list[dict], golden: dict | None) -> str:
    """Flag runs whose output hashes differ from the golden ones or, failing those, the first run's."""
    done = [r for r in runs if "hashes" in r]
    if not done:
        return "no outputs"
    want = done[0]["hashes"]
    if golden is None:
        status = "being recorded"
    elif seed != golden["seed"]:
        status = f"not checked: pinned at seed {golden['seed']}"
    elif {k: done[0]["versions"][k] for k in TOOLCHAIN} != golden["versions"]:
        status = f"not checked: recorded under {golden['versions']}"
    elif name not in golden["hashes"]:
        status = "not checked: none recorded for this workload"
    else:
        want, status = golden["hashes"][name], "checked"
    for r in done:
        if r["hashes"] != want:
            r["errors"].append(f"output hashes {r['hashes']} differ from {want}")
    return status


def percentile_note(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"median {statistics.median(values):.6g} (n={n}; no percentile has 10 samples beyond it)"
    ordered = sorted(values)
    return (f"median {statistics.median(values):.6g}, p{100.0 * (n - 10) / n:.0f} "
            f"{ordered[n - 11]:.6g} (n={n})")


def end_to_end(runs: list[dict], ok: list[dict], refs: list[float]) -> tuple[dict, dict]:
    samples = {
        "wall_setup_s": [r["setup_s"] for r in ok],
        "wall_run_s": [r["run_s"] for r in ok],
        "wall_path_steps_per_s": [r["path_steps"] / r["simulate_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "reference_s": refs,
    }
    metrics = {}
    if ok:
        # Means, not medians: within seconds, runs and reference jobs flip between
        # a fast and a slow mode of the shared box, and a median of a few such
        # samples jumps between the modes while a mean tracks the window's speed.
        speed = REF_NOMINAL_S / statistics.fmean(refs)
        simulate_s = statistics.fmean(r["simulate_s"] for r in ok)
        metrics = {
            "setup_s": statistics.fmean(samples["wall_setup_s"]) * speed,
            "run_s": statistics.fmean(samples["wall_run_s"]) * speed,
            "path_steps_per_s": ok[0]["path_steps"] / (simulate_s * speed),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "paths_ok_fraction": 1.0 - sum(r["failed_paths"] for r in ok) / sum(r["paths"] for r in ok),
        }
    metrics["runs_ok_fraction"] = len(ok) / len(runs)
    return metrics, samples


def per_layer(ok: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in ok if r["trace"]]
    plain = [r for r in ok if not r["trace"]]
    samples = {k: [r["layers"][k] for r in traced] for k in PER_LAYER if k != "trace.overhead_s"}
    metrics = {k: statistics.median(v) for k, v in samples.items() if v}
    if traced and plain:
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in plain))
    return metrics, samples


def bench(root: Path, name: str, seed: int, seconds: float, trace: bool,
          golden: dict | None) -> dict:
    runs = []
    refs = [reference_s()]
    t_start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        # start another run only if it should end inside the window
        if len(runs) >= MIN_RUNS and elapsed + last > seconds:
            break
        remaining = DEADLINE_S - elapsed
        if remaining < 5.0:
            break
        traced = trace and len(runs) % 2 == 1
        runs.append(run_child(root, name, seed, traced, min(RUN_TIMEOUT_S, remaining)))
        refs.append(reference_s())
        last = time.monotonic() - t_start - elapsed
    golden_status = check_outputs(name, seed, runs, golden)
    ok = [r for r in runs if not r["errors"]]
    metrics, samples = per_layer(ok) if trace else end_to_end(runs, ok, refs)
    units = PER_LAYER if trace else END_TO_END
    failed = len(runs) - len(ok)
    return {
        "workload": name,
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "samples": samples,
        "errors": [e for r in runs for e in r["errors"]],
        "hashes": next((r["hashes"] for r in runs if "hashes" in r), None),
        "golden": golden_status,
        "versions": next((r["versions"] for r in runs if "versions" in r), None),
    }


def provenance(root: Path, versions: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "versions": versions,
        "git_commit": commit,
        "thread_env": dict(THREAD_ENV, POLYSTAB_THREADS="unset"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "ref_nominal_s": REF_NOMINAL_S,
        "closed_loop": "1 client, runs back to back, 1 fresh process per run",
    }


def report(result: dict, trace: bool) -> None:
    print(f"== {result['workload']}: {result['attempted']} runs, {result['failed']} failed; "
          f"golden hashes {result['golden']}")
    for e in result["errors"]:
        print(f"   FAILED: {e}")
    samples = result["samples"]
    for k, m in result["metrics"].items():
        wall = samples.get(f"wall_{k}")
        note = ""
        if not trace and k in TIMINGS:
            note = f"  [wall clock: {percentile_note(wall)}]"
        elif wall:
            note = f"  [wall clock: median {statistics.median(wall):.6g}]"
        print(f"   {k} = {m['value']:.6g} {m['unit']}{note}")
    if "reference_s" in samples:
        print(f"   reference job: mean {statistics.fmean(samples['reference_s']):.6g} s "
              f"(n={len(samples['reference_s'])}; {REF_NOMINAL_S} s is one reference second)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write the runs' output hashes to perfbench/golden.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polystab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/polystab; run from the root of a polystab checkout",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    (root / ".perfbench").mkdir(exist_ok=True)
    golden = None if args.record_golden else load_golden()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [bench(root, n, args.seed, args.seconds, bool(args.trace), golden) for n in names]

    prov = provenance(root, results[0]["versions"])
    out = root / ".perfbench"
    suffix = "-trace" if args.trace else ""
    for r in results:
        report(r, bool(args.trace))
        (out / f"{r['workload']}{suffix}.result.json").write_text(
            json.dumps({"seed": args.seed, "provenance": prov, **r}, indent=2) + "\n",
            encoding="utf-8")
    print("provenance: " + json.dumps(prov))

    if args.record_golden:
        if not all(r["correct"] for r in results):
            print("error: not recording golden hashes from failed runs", file=sys.stderr)
            return 1
        old = load_golden() if GOLDEN.is_file() else {}
        versions = {k: prov["versions"][k] for k in TOOLCHAIN}
        same = (old.get("seed"), old.get("versions")) == (args.seed, versions)
        hashes = dict(old["hashes"]) if same else {}
        hashes.update({r["workload"]: r["hashes"] for r in results})
        golden = {"seed": args.seed, "versions": versions, "hashes": hashes}
        GOLDEN.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}")

    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({k: results[0][k] for k in keys}))
    else:
        print(json.dumps({r["workload"]: {k: r[k] for k in keys} for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
