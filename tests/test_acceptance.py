"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines. Tolerances are fixed here, not tuned at runtime.
"""

import hashlib

import numpy as np
import pytest

from polystab.analysis import (
    bem_envelope,
    counterexample_lower_bound,
    em_recurrence_bound,
    estimate_decay_exponent,
    verify_proof_bounds,
)
from polystab import ensemble, integrators
from polystab.checks import summary
from polystab.cli import main as cli_main
from polystab.ensemble import SimConfig, simulate_ensemble
from polystab.gamma import verify_product_identity, verify_ratio_signs
from polystab.integrators import solve_implicit
from polystab.problems import (
    audit_conditions,
    bem_example,
    cubic_counterexample,
    exact_linear_mean_square,
    linear_example,
    one_sided_decay_max_k1,
)

BUILTINS = (linear_example(), cubic_counterexample(), bem_example())


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_gamma_product_identity():
    result = verify_product_identity(num_samples=1000, seed=20240331)
    ok = result.passed
    report(
        "1", ok,
        f"product identity, {result.samples} random parameter sets: worst relative "
        f"error {result.worst_margin:.3e} (tolerance 1e-10)",
    )
    assert ok, f"worst case at {result.worst_point}"


def test_criterion_2_ratio_power_signs():
    below, above = verify_ratio_signs()
    ok = below.passed and above.passed
    report(
        "2", ok,
        f"ratio/power sign grid (7 x 10): max margin below-one "
        f"{below.worst_margin:+.3e}, min margin above-one "
        f"{above.worst_margin:+.3e}",
    )
    assert ok


def test_criterion_3_proof_estimate_inequalities():
    families = verify_proof_bounds(k_max=200)
    ok = all(f.passed for f in families)
    worst = min(f.worst_margin for f in families)
    report(
        "3", ok,
        f"gamma-ratio proof inequalities over k<=200, r<k, dt in {{0.05,0.1,0.2}}, "
        f"K1 in {{1,1.5,2,2.7,3}}: worst log-margin {worst:+.3e} (slack 1e-12)",
    )
    assert ok, summary("proof bounds", families)


def test_criterion_4_linear_benchmark_exact_law():
    x0 = 1.0
    config = SimConfig(
        dt=0.1, num_steps=100_000, num_paths=1000, seed=424242, scheme="em",
        initial_value=(x0,),
    )
    series = simulate_ensemble(linear_example(), config)
    assert series.blown_up[-1] == 0

    worst_z = 0.0
    for i in range(len(series)):
        exact = exact_linear_mean_square(x0, float(series.time[i]))
        err = abs(float(series.mean_square[i]) - exact)
        slack = 4.0 * float(series.std_error[i])
        if series.std_error[i] > 0:
            worst_z = max(worst_z, err / float(series.std_error[i]))
        assert err <= slack, (
            f"checkpoint k={series.step_index[i]}: |{series.mean_square[i]} - {exact}| "
            f"> 4 se = {slack}"
        )

    est = estimate_decay_exponent(series, window_fraction=0.5, k1=1.0, tolerance=0.15)
    slope_ok = -1.15 <= est.slope <= -0.85
    report(
        "4", slope_ok,
        f"linear benchmark (dt=0.1, 1000 paths, 1e5 steps): every checkpoint within "
        f"4 se of (x0^2+t)/(1+t)^2 (worst z={worst_z:.2f}); tail slope "
        f"{est.slope:.4f} in [-1.15, -0.85] vs bound -(2K1-1) = -1",
    )
    assert slope_ok, est
    assert est.conforms


def test_criterion_5_bem_nonlinear_example():
    problem = bem_example()
    x0 = 2.0
    config = SimConfig(
        dt=0.3, num_steps=10_000, num_paths=100, seed=20240707, scheme="bem",
        initial_value=(x0,),
    )
    series = simulate_ensemble(problem, config)  # runs to t = 3000
    ran_clean = series.failed_paths == 0 and series.blown_up[-1] == 0
    assert float(series.time[-1]) == pytest.approx(3000.0)

    # audit the claimed K1 = 3 and derive the value the data supports
    audit = audit_conditions(problem)
    print(audit.summary())
    audited_k1 = one_sided_decay_max_k1(problem)
    claimed_fails = not audit.one_sided_f.passed
    print(
        f"[criterion 5] drift one-sided decay claim K1=3 fails the audit "
        f"(worst margin {audit.one_sided_f.worst_margin:+.3e}); audited K1 = "
        f"{audited_k1:.6f}"
    )

    # conformance against the audited (not claimed) value
    audited_bound = -(2.0 * audited_k1 - 1.0)
    est = estimate_decay_exponent(series, window_fraction=0.5, k1=audited_k1, tolerance=0.5)
    slope_ok = est.conforms
    print(
        f"[criterion 5] tail slope {est.slope:+.4f} vs audited bound "
        f"{audited_bound:+.4f} + 0.5 -> {'conforms' if slope_ok else 'VIOLATES'}"
    )

    # the semi-implicit envelope needs K1 > 0.5; the audited value is far below,
    # so the decay guarantee makes no claim about this run and the envelope must refuse
    envelope_vacuous = False
    if audited_k1 <= 0.5:
        with pytest.raises(ValueError, match="K1 > 0.5"):
            bem_envelope(series.step_index, config.dt, audited_k1, problem.c, x0**2)
        envelope_vacuous = True
        print(
            "[criterion 5] audited K1 <= 0.5: the decay envelope's hypotheses are "
            "empty here; envelope conformance is vacuous and the claim is covered "
            "by the gamma-bound suite (criterion 3)"
        )
    else:  # pragma: no cover - not the measured outcome
        env = bem_envelope(series.step_index, config.dt, audited_k1, problem.c, x0**2)
        assert np.all(series.mean_square <= env)

    # honest record of what the claimed constants would have demanded
    claimed_slope_ok = est.slope <= -5.0 + 0.5
    env_claimed = bem_envelope(series.step_index, config.dt, 3.0, problem.c, x0**2)
    claimed_env_ok = bool(np.all(series.mean_square <= env_claimed))
    print(
        f"[criterion 5] against the claimed K1=3 (not required once the audit "
        f"fails): slope <= -4.5 is {claimed_slope_ok}; mean_square <= envelope is "
        f"{claimed_env_ok} (measured plateau {float(series.mean_square[-1]):.3e}, "
        f"claimed envelope tail {float(env_claimed[-1]):.3e})"
    )

    ok = ran_clean and claimed_fails and slope_ok and envelope_vacuous
    report(
        "5", ok,
        f"nonlinear semi-implicit example to t=3000: no solver failures; audit "
        f"reports the K1=3 claim false (audited K1={audited_k1:.4f}); conformance "
        f"checked against the audited value per the fallback rule",
    )
    assert ran_clean
    assert claimed_fails
    assert slope_ok
    assert envelope_vacuous


def test_criterion_6_counterexample_divergence():
    # (a) deterministic lower-bound recursion
    seq = counterexample_lower_bound(0.1, 50)
    margins = seq.invariant_margins()
    invariant_ok = bool(np.all(margins >= 0.0))
    exceed_step = seq.first_step_exceeding(1e12)
    recursion_ok = invariant_ok and exceed_step is not None and exceed_step <= 10

    # (b) explicit-scheme ensemble proxy for the diverging first moment
    config = SimConfig(
        dt=0.1, num_steps=200, num_paths=1000, seed=1, scheme="em",
        initial_value=(5.0,), blow_up_cap=1e12,
    )
    series = simulate_ensemble(cubic_counterexample(), config)
    blow_ok = int(series.blown_up[-1]) >= 1
    first_blow = int(np.flatnonzero(series.blown_up > 0)[0])
    capped_tail = series.capped_mean_abs[first_blow:]
    capped_ok = bool(np.all(np.diff(capped_tail) >= 0.0))

    ok = recursion_ok and blow_ok and capped_ok
    report(
        "6", ok,
        f"divergence: recursion invariant holds at all {len(seq.values)} steps and "
        f"passes 1e12 at step {exceed_step} (<= 10); ensemble reaches "
        f"{int(series.blown_up[-1])}/1000 blown-up paths within 200 steps and the "
        f"capped mean of |Y_k| is non-decreasing from the first blow-up on",
    )
    assert invariant_ok, margins.min()
    assert exceed_step is not None and exceed_step <= 10
    assert blow_ok
    assert capped_ok


def test_criterion_7_one_step_recurrence_statistics():
    config = SimConfig(
        dt=0.1, num_steps=101, num_paths=100_000, seed=31415, scheme="em",
        initial_value=(1.0,), checkpoints=tuple(range(102)),
    )
    series = simulate_ensemble(linear_example(), config)
    result = em_recurrence_bound(series, k1=1.0, c=1.0, n_sigma=4.0)
    ok = result.passed and result.n_checked == 101
    report(
        "7", ok,
        f"one-step second-moment recurrence on the linear benchmark, 1e5 paths, "
        f"k in [0,100]: {len(result.violations)} violations beyond 4 combined "
        f"standard errors over {result.n_checked} consecutive pairs",
    )
    assert result.n_checked == 101
    assert result.passed, result.violations


def test_criterion_8_implicit_solver_residuals_and_agreement(monkeypatch):
    def valid_dt(problem, rng):
        hi = 0.99 / abs(problem.kbar) if problem.kbar != 0 else 1.0
        return float(rng.uniform(1e-3, hi))

    rng = np.random.default_rng(20240808)
    worst_resid = 0.0
    for _ in range(10_000):
        problem = BUILTINS[rng.integers(0, len(BUILTINS))]
        t = float(rng.uniform(1e-9, 100.0))
        b = float(rng.uniform(-50.0, 50.0))
        dt = valid_dt(problem, rng)
        x = solve_implicit(problem, t, b, dt)
        resid = abs(x - dt * float(np.asarray(problem.drift(x, t))) - b)
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-12, (problem.label, t, b, dt)

    worst_gap = 0.0
    for _ in range(300):
        problem = BUILTINS[rng.integers(0, len(BUILTINS))]
        t = float(rng.uniform(1e-9, 100.0))
        b = float(rng.uniform(-50.0, 50.0))
        dt = valid_dt(problem, rng)
        newton = solve_implicit(problem, t, b, dt)
        with monkeypatch.context() as m:  # the solver's bisection alone, to a tighter residual
            m.setattr(integrators, "_RESIDUAL_TOLERANCE", 1e-13)
            bisect = integrators._bisect_root_scalar(problem.drift, t, b, dt)
        worst_gap = max(worst_gap, abs(newton - bisect))
        assert abs(newton - bisect) <= 1e-10

    report(
        "8", True,
        f"implicit solver: worst residual {worst_resid:.3e} over 1e4 random "
        f"instances (<= 1e-12); Newton/bisection agreement within "
        f"{worst_gap:.3e} (<= 1e-10) on scalar builtins",
    )


# SHA-256 of criterion 9's CSV and config JSON, recorded before the EM step
# loop and the noise transform were restructured
CRITERION_9_SHA256 = [
    "1846f4ec81bc9efcf637650364b63d3673036d4a5667b336fdcaf78fad863398",
    "8db787337946a15773735d1a1b4354d299912947978883ded85e2ab5cd1b8731",
]


def criterion_9_digests(out_dir):
    code = cli_main([
        "simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
        "--steps", "3000", "--paths", "700", "--seed", "99",
        "--out-dir", str(out_dir), "--prefix", "run",
    ])
    assert code == 0
    return [hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("run.csv", "run_config.json")]


def test_criterion_9_reproducibility_across_workers(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 200)  # four chunks
    outputs, threads = {}, {}
    for n in (1, 4, 16):
        cpus.use(n)
        outputs[n] = criterion_9_digests(tmp_path / f"cpus{n}")
        threads[n] = len(cpus.idents)
    ok = outputs[1] == outputs[4] == outputs[16] == CRITERION_9_SHA256
    report(
        "9", ok,
        f"CSV and config JSON bytes equal their pinned SHA-256 on 1, 4 and 16 CPUs "
        f"(chunks ran on {threads[1]}, {threads[4]} and {threads[16]} threads)",
    )
    assert ok
    assert threads[1] == 1 and threads[4] > 1 and threads[16] > 1


def test_criterion_9_bytes_pinned(tmp_path):
    ok = criterion_9_digests(tmp_path) == CRITERION_9_SHA256
    report("9", ok, "CSV and config JSON bytes equal their pinned SHA-256")
    assert ok
