"""The benchmark's workloads, its own 2-D problem, and the checks on each run's outputs.

Each workload stresses a different layer of polystab; sizes were set so one
run takes 2-5 s on a 2-core x86 box. Every check here works at any seed; the
golden hashes in golden.json (checked by run.py) pin the bytes at one seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polystab as ps
from polystab import analysis, ensemble

N_SIGMA = 4.0


def _drift_2d(x, t):
    x = np.asarray(x, dtype=float)
    return -(3.0 + np.sum(x * x, axis=-1, keepdims=True)) * x / (1.0 + t) ** 2


def _diffusion_2d(x, t):
    return 5.0 * np.sin(np.asarray(x, dtype=float)) / (1.0 + t) ** 4


def problem_2d() -> ps.SdeProblem:
    """dx = -(3+|x|^2) x/(1+t)^2 dt + 5 sin(x)/(1+t)^4 dB in R^2, Kbar = 0.

    The drift is minus the gradient of a convex function scaled by (1+t)^-2,
    so it is one-sided Lipschitz with Kbar = 0 and the implicit solve is well
    posed at every step size. K1 and C mirror bem-example's claims.
    """
    return ps.SdeProblem(
        dimension=2, drift=_drift_2d, diffusion=_diffusion_2d, k1=3.0,
        c=5.0 * math.sqrt(2.0), kbar=0.0, satisfies_linear_growth=False, label="bem-2d",
    )


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # built-in label, or "bem-2d" for the benchmark's own problem
    scheme: str
    dt: float
    paths: int
    steps: int
    x0: tuple[float, ...]
    every_step: bool = False  # checkpoint at every step instead of ~50 geometric ones
    via_cli: bool = False  # run through polystab.cli.main, as in the README example

    def build(self, seed: int):
        """(problem, SimConfig) for this seed; the 2-D problem is audited first."""
        if self.problem == "bem-2d":
            problem = problem_2d()
            audit = ps.audit_conditions(problem)
            if not audit.one_sided_lipschitz.passed:
                raise RuntimeError(
                    "bem-2d fails the one-sided Lipschitz audit at Kbar=0; refusing to run it\n"
                    + audit.summary()
                )
        else:
            problem = ps.problem_from_label(self.problem)
        checkpoints = tuple(range(self.steps + 1)) if self.every_step else None
        config = ps.SimConfig(
            dt=self.dt, num_steps=self.steps, num_paths=self.paths, seed=seed,
            scheme=self.scheme, initial_value=self.x0, checkpoints=checkpoints,
        )
        return problem, config

    def cli_argv(self, seed: int, out_dir: Path) -> list[str]:
        return [
            "simulate", "--problem", self.problem, "--scheme", self.scheme,
            "--dt", repr(self.dt), "--steps", str(self.steps), "--paths", str(self.paths),
            "--seed", str(seed), "--out-dir", str(out_dir), "--prefix", self.name,
        ]


# Why each workload exists is recorded in BENCHMARK.json; em-long goes through
# the CLI as in the README example, the others call the library directly.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("em-long", "linear", "em", 0.1, 1000, 20_000, (1.0,), via_cli=True),
        Workload("em-wide", "linear", "em", 0.1, 100_000, 101, (1.0,), every_step=True),
        Workload("bem-scalar", "bem-example", "bem", 0.3, 256, 10_000, (2.0,)),
        Workload("bem-2d", "bem-2d", "bem", 0.3, 64, 500, (1.0, -0.5)),
    )
}


def em_linear_oracle(dt: float, steps: int, x0: float) -> np.ndarray:
    """Exact E|Y_k|^2, k = 0..steps, of EM on the linear problem.

    Y_{k+1} = (1 - a_k) Y_k + dB_k/(1 + k dt) with a_k = dt/(1 + k dt), so
    m_{k+1} = (1 - a_k)^2 m_k + dt/(1 + k dt)^2.
    """
    m = np.empty(steps + 1)
    m[0] = x0 * x0
    for k in range(steps):
        s = 1.0 + k * dt
        m[k + 1] = (1.0 - dt / s) ** 2 * m[k] + dt / (s * s)
    return m


def bem_energy_bound(dt: float, steps: int, m0: float, dimension: int) -> np.ndarray:
    """Upper bound on E|Z_k|^2 for BEM when <x, f> <= 0 and |g|^2 <= 25 n (1+t)^-8.

    The implicit step gives |Z_{k+1}| <= |Z_k + g dB_k|, hence
    m_{k+1} <= m_k + dt E|g(Z_k, k dt)|^2 <= m_k + 25 n dt (1 + k dt)^-8.
    """
    k = np.arange(steps)
    inc = 25.0 * dimension * dt / (1.0 + k * dt) ** 8
    return m0 + np.concatenate(([0.0], np.cumsum(inc)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_series(workload: Workload, problem, config, series, csv_path: Path) -> list[str]:
    """Every failed check as one message; an empty list means the run is correct."""
    bad = []
    ms = np.asarray(series.mean_square)
    se = np.asarray(series.std_error)
    ks = np.asarray(series.step_index)
    if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(se))):
        bad.append("non-finite mean_square or std_error")
        return bad
    if tuple(int(k) for k in ks) != tuple(config.checkpoints):
        bad.append("checkpoints differ from the config")
    if int(series.blown_up[-1]) != 0:
        bad.append(f"{int(series.blown_up[-1])} paths blown up or failed")

    back = ensemble.MomentSeries.from_csv(csv_path)
    if not (np.array_equal(back.step_index, ks) and np.array_equal(back.mean_square, ms)
            and np.array_equal(back.std_error, se)
            and np.array_equal(back.surviving, series.surviving)):
        bad.append("CSV does not read back to the simulated series")

    x0 = np.asarray(config.initial_value)
    if workload.scheme == "em":
        exact = em_linear_oracle(config.dt, config.num_steps, float(x0[0]))[ks]
        z_bad = np.abs(ms - exact) > N_SIGMA * se
        if np.any(z_bad):
            i = int(np.flatnonzero(z_bad)[0])
            bad.append(
                f"k={int(ks[i])}: mean_square {float(ms[i])!r} is more than {N_SIGMA} se "
                f"({float(se[i])!r}) from the exact EM moment {float(exact[i])!r}"
            )
        est = analysis.estimate_decay_exponent(series, 0.5, k1=problem.k1, tolerance=0.15)
        if not (est.conforms and -1.15 <= est.slope <= -0.85):
            bad.append(f"tail slope {est.slope} outside [-1.15, -0.85]")
        rec = analysis.em_recurrence_bound(series, k1=problem.k1, c=problem.c, n_sigma=N_SIGMA)
        if not rec.passed:
            bad.append(f"one-step recurrence violated: {rec.violations[0]}")
        if workload.every_step and rec.n_checked != config.num_steps:
            bad.append(f"recurrence checked {rec.n_checked} pairs, expected {config.num_steps}")
    else:
        bound = bem_energy_bound(config.dt, config.num_steps, float(x0 @ x0),
                                 problem.dimension)[ks]
        over = ms > bound + N_SIGMA * se
        if np.any(over):
            i = int(np.flatnonzero(over)[0])
            bad.append(f"k={int(ks[i])}: mean_square {float(ms[i])!r} above the BEM energy "
                       f"bound {float(bound[i])!r}")
        audited_k1 = ps.one_sided_decay_max_k1(problem)
        est = analysis.estimate_decay_exponent(series, 0.5, k1=audited_k1, tolerance=0.5)
        if not est.conforms:
            bad.append(f"tail slope {est.slope} above the audited bound "
                       f"{est.theoretical_bound} + 0.5")
    return bad
