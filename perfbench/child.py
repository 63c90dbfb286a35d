"""One benchmark run in a fresh process: set up, simulate, write, verify.

Started by run.py from the checkout root as

    child.py <workload> <seed> <out_dir> <trace 0|1> <spawn time, time.monotonic()>

with PYTHONPATH=src. Prints one JSON object as the last line of stdout and
exits 0 when every output check passed, 3 when one failed. Set-up time runs
from the parent's spawn time (CLOCK_MONOTONIC is shared across processes)
until polystab is imported and the problem and SimConfig are built.
"""

import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import polystab as ps
from polystab import analysis, cli, ensemble, problems

import micro
from spans import Tracer
from workloads import WORKLOADS, check_series, problem_2d, sha256


def instrument(tracer: Tracer, workload, problem):
    """Wrap the problem's callables and polystab's public entry points; return the wrapped problem."""
    dim = problem.dimension
    traced = dataclasses.replace(
        problem,
        drift=tracer.wrap("problems.drift", problem.drift, lambda args: np.size(args[0]) // dim),
        diffusion=tracer.wrap("problems.diffusion", problem.diffusion),
    )
    if workload.via_cli:
        problems.PROBLEM_BUILDERS[workload.problem] = lambda: traced
    cls = ensemble.MomentSeries
    cls.write_csv = tracer.wrap("ensemble.write_csv", cls.write_csv)
    cls.write_config_json = tracer.wrap("ensemble.write_config_json", cls.write_config_json)
    for name in ("estimate_decay_exponent", "em_recurrence_bound"):
        setattr(analysis, name, tracer.wrap(f"analysis.{name}", getattr(analysis, name)))
    cli.main = tracer.wrap("cli.main", cli.main)
    return traced


def layer_metrics(tracer: Tracer, path_steps: int) -> dict:
    """Per-layer figures of the traced run, from its spans."""
    t = tracer.totals()
    sim, drift = t["ensemble.simulate_ensemble"], t["problems.drift"]
    return {
        "ensemble.simulate_s": sim["s"],
        "ensemble.self_s": sim["self_s"],
        "ensemble.write_s": t["ensemble.write_csv"]["s"] + t["ensemble.write_config_json"]["s"],
        "problems.drift_calls": drift["calls"],
        "problems.drift_evals_per_path_step": drift["work"] / path_steps,
        "problems.drift_s": drift["s"],
        "problems.diffusion_s": t["problems.diffusion"]["s"],
        "analysis.check_s": t["analysis.estimate_decay_exponent"]["s"]
        + t["analysis.em_recurrence_bound"]["s"],
    }


def main(argv) -> int:
    name, seed, out_dir, trace, t_spawn = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1", float(argv[4])
    workload = WORKLOADS[name]
    problem, config = workload.build(seed)
    setup_s = time.monotonic() - t_spawn

    src = (Path.cwd() / "src").resolve()
    if src not in Path(ps.__file__).resolve().parents:
        raise RuntimeError(f"polystab imported from {ps.__file__}, not from {src}")

    tracer = Tracer()
    captured = []
    simulate = ensemble.simulate_ensemble

    def simulate_and_keep(*args, **kwargs):
        series = simulate(*args, **kwargs)
        captured.append(series)
        return series

    # the one span kept with tracing off: it gives simulate_ensemble's wall time
    ensemble.simulate_ensemble = tracer.wrap("ensemble.simulate_ensemble", simulate_and_keep)
    run_problem = instrument(tracer, workload, problem) if trace else problem

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    config_path = out_dir / f"{name}_config.json"
    errors = []

    t0 = time.perf_counter()
    if workload.via_cli:
        code = cli.main(workload.cli_argv(seed, out_dir))
        if code != 0:
            raise RuntimeError(f"polystab simulate exited {code}")
    else:
        series = ensemble.simulate_ensemble(run_problem, config)
        series.write_csv(csv_path)
        series.write_config_json(config_path)
    (series,) = captured
    errors += check_series(workload, problem, config, series, csv_path)
    echoed = json.loads(config_path.read_text(encoding="utf-8"))
    if echoed.pop("problem") != problem.label or ps.SimConfig.from_json_dict(echoed) != config:
        errors.append("config JSON does not echo the run's problem and SimConfig")
    hashes = {"csv": sha256(csv_path), "config": sha256(config_path)}
    run_s = time.perf_counter() - t0

    path_steps = config.num_paths * config.num_steps
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "errors": errors,
        "setup_s": setup_s,
        "run_s": run_s,
        "simulate_s": tracer.totals()["ensemble.simulate_ensemble"]["s"],
        "path_steps": path_steps,
        "paths": config.num_paths,
        "failed_paths": int(series.failed_paths),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hashes": hashes,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "polystab": ps.__version__,
        },
    }
    if trace:
        layers = layer_metrics(tracer, path_steps)
        tracer.dump(out_dir / f"{name}.spans.json")
        layers.update(micro.run(seed, problem_2d(), out_dir))
        if layers["integrators.max_residual"] > 1e-12:
            errors.append(f"solver residual {layers['integrators.max_residual']!r} > 1e-12")
        result["layers"] = layers
    print(json.dumps(result))
    return 3 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
