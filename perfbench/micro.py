"""Microbenchmarks of polystab's public layer functions at the workloads' shapes.

Inputs are drawn from the benchmark seed. One counted pass checks every
solve's residual and counts drift calls; timed passes then run on the
unwrapped problems and report the median pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import statistics
from time import perf_counter

import numpy as np

import polystab as ps
from polystab import cli, ensemble

MIN_SECONDS = 0.15  # per microbenchmark
MIN_PASSES = 5


def _median_pass_s(fn) -> float:
    times = []
    t_end = perf_counter() + MIN_SECONDS
    while len(times) < MIN_PASSES or perf_counter() < t_end:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _residual(problem, t, b, dt, x) -> float:
    f = np.asarray(problem.drift(x, t), dtype=float)
    return float(np.max(np.abs(x - dt * f - b)))


def _cli_self_s(seed: int, out_dir) -> float:
    """polystab simulate's own time per call: wall time minus simulate_ensemble's.

    Measured on a 1-path, 1-step linear run so that every workload reports
    it; only em-long goes through the CLI, and there the layer's cost does
    not depend on the run's size beyond the CSV rows.
    """
    argv = ["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
            "--steps", "1", "--paths", "1", "--seed", str(seed),
            "--out-dir", str(out_dir), "--prefix", "cli-probe"]
    simulate, inner = ensemble.simulate_ensemble, []

    def timed(*args, **kwargs):
        t0 = perf_counter()
        series = simulate(*args, **kwargs)
        inner.append(perf_counter() - t0)
        return series

    ensemble.simulate_ensemble = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            total = _median_pass_s(lambda: cli.main(argv))
    finally:
        ensemble.simulate_ensemble = simulate
    return total - statistics.median(inner)


def run(seed: int, problem_2d, out_dir) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    linear = ps.linear_example()
    scalar = ps.bem_example()

    # em_step on one engine chunk: 256 paths x 1, steps from em-long's range
    x = rng.normal(size=(256, 1))
    db = rng.normal(scale=math.sqrt(0.1), size=(256, 1))
    em_ks = [int(k) for k in rng.integers(0, 20_000, size=64)]

    def em_pass():
        for k in em_ks:
            ps.em_step(linear, x, ps.StepContext(k=k, dt=0.1, db=db), validate=False)

    # solve_implicit: bem-scalar's 256-lane batch and bem-2d's per-path vector
    scalar_cases = [(0.3 * (k + 1), rng.normal(scale=1.0, size=(256, 1)))
                    for k in rng.integers(0, 10_000, size=16)]
    cases_2d = [(0.3 * (k + 1), rng.normal(scale=1.0, size=2))
                for k in rng.integers(0, 500, size=32)]

    def solve_pass(problem, cases):
        return [ps.solve_implicit(problem, t, b, 0.3) for t, b in cases]

    calls = [0]

    def counting(drift):
        def counted(x, t):
            calls[0] += 1
            return drift(x, t)
        return counted

    max_residual = 0.0
    for problem, cases in ((scalar, scalar_cases), (problem_2d, cases_2d)):
        counted = dataclasses.replace(problem, drift=counting(problem.drift))
        for (t, b), x_sol in zip(cases, solve_pass(counted, cases)):
            max_residual = max(max_residual, _residual(problem, t, b, 0.3, x_sol))

    paths = [int(p) for p in rng.integers(0, 100_000, size=100)]
    steps = [int(k) for k in rng.integers(0, 20_000, size=100)]

    def noise_pass():
        for p, k in zip(paths, steps):
            ps.brownian_increment(seed, p, k, 0.1)

    return {
        "cli.self_s": _cli_self_s(seed, out_dir),
        "ensemble.brownian_increment_us": _median_pass_s(noise_pass) / len(paths) * 1e6,
        "integrators.em_step_ns_per_path": _median_pass_s(em_pass) / len(em_ks) / 256 * 1e9,
        "integrators.solve_scalar_ns_per_lane":
            _median_pass_s(lambda: solve_pass(scalar, scalar_cases)) / len(scalar_cases) / 256 * 1e9,
        "integrators.solve_2d_us":
            _median_pass_s(lambda: solve_pass(problem_2d, cases_2d)) / len(cases_2d) * 1e6,
        "integrators.solve_drift_calls": calls[0],
        "integrators.max_residual": max_residual,
    }
