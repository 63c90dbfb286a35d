"""Command-line front end: simulate, analyze, verify-gamma, counterexample.

Exit codes: 0 success, 1 usage error, 2 numerical/data failure, 3 conformance
failure. A library warning is printed as one "warning: <message>" line; where
a warnings filter turns it into an error (python -W error), the command stops
with one "error: <message>" line and exit 2. Seeds are mandatory — there are
no wall-clock defaults anywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, checks, ensemble, gamma, problems

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CONFORMANCE = 3


@dataclasses.dataclass
class ExperimentSpec:
    """One experiment: a --spec JSON object overlaid with the flags given.

    Only the output options are checked here; SimConfig and
    problem_from_label check the rest, where they use them.
    """

    problem: str
    scheme: str
    dt: float
    steps: int
    paths: int
    seed: int
    x0: float | list | None = None
    k1: float | None = None
    c: float | None = None
    checkpoints: int | list | None = None
    blow_up_cap: float = ensemble.SimConfig.blow_up_cap
    out_dir: str = "."
    prefix: str | None = None
    envelope: bool = False

    def __post_init__(self):
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if not (self.prefix is None or isinstance(self.prefix, str)):
            raise ValueError(f"prefix must be a string, got {self.prefix!r}")
        if not isinstance(self.envelope, bool):
            raise ValueError(f"envelope must be true or false, got {self.envelope!r}")

    @classmethod
    def from_args(cls, args) -> "ExperimentSpec":
        """The --spec JSON object ({} without one) overlaid with the flags given."""
        data = {}
        if args.spec is not None:
            with open(args.spec, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError(f"{args.spec}: experiment spec must be a JSON object")
            unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"{args.spec}: unknown spec keys {sorted(unknown)}")
        for field in dataclasses.fields(cls):
            val = getattr(args, field.name)
            if val is not None and val is not False:  # the flag was given
                data[field.name] = val
        missing = [f"--{f.name}" for f in dataclasses.fields(cls)
                   if f.default is dataclasses.MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing required flags (or spec keys): {', '.join(missing)}")
        return cls(**data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polystab",
        description="Mean-square polynomial stability experiments for explicit/implicit Euler schemes on SDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an ensemble and write CSV + config JSON")
    sim.add_argument("--spec", type=str, default=None, help="JSON experiment spec; flags override it")
    sim.add_argument("--problem", type=str, choices=sorted(problems.PROBLEM_BUILDERS), default=None)
    sim.add_argument("--scheme", type=str, choices=tuple(ensemble.SCHEMES), default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--steps", type=int, default=None)
    sim.add_argument("--paths", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--x0", type=float, default=None, help="initial value (problem default if omitted)")
    sim.add_argument("--k1", type=float, default=None, help="override the problem's claimed K1")
    sim.add_argument("--c", type=float, default=None, help="override the problem's claimed C")
    sim.add_argument("--checkpoints", type=int, default=None, help="number of geometric checkpoints, >= 2 (~50 default)")
    sim.add_argument("--blow-up-cap", dest="blow_up_cap", type=float, default=None)
    sim.add_argument("--out-dir", dest="out_dir", type=str, default=None)
    sim.add_argument("--prefix", type=str, default=None, help="output file prefix (default: problem_scheme_seed)")
    sim.add_argument("--envelope", action="store_true", help="also write the theoretical envelope CSV")

    ana = sub.add_parser("analyze", help="fit the tail decay slope of a moment CSV")
    ana.add_argument("--csv", type=str, required=True)
    ana.add_argument("--k1", type=float, required=True, help="decay constant for the theoretical bound")
    ana.add_argument("--window-fraction", dest="window_fraction", type=float, default=0.5)
    ana.add_argument("--tolerance", type=float, default=0.15)
    ana.add_argument("--out", type=str, default=None, help="write the JSON report here (default: stdout)")

    ver = sub.add_parser("verify-gamma", help="run the gamma identity/inequality verification grids")
    ver.add_argument("--samples", type=int, default=1000, help="random samples for the product identity")
    ver.add_argument("--seed", type=int, default=20240331)
    ver.add_argument("--k-max", dest="k_max", type=int, default=200)

    ctr = sub.add_parser("counterexample", help="divergence lower-bound recursion + companion ensemble")
    ctr.add_argument("--dt", type=float, required=True)
    ctr.add_argument("--cap", type=float, default=ensemble.SimConfig.blow_up_cap)
    ctr.add_argument("--k-max", dest="k_max", type=int, default=200)
    ctr.add_argument("--paths", type=int, default=1000)
    ctr.add_argument("--steps", type=int, default=200)
    ctr.add_argument("--seed", type=int, default=1)
    ctr.add_argument("--x0", type=float, default=None)
    return parser


def _simulate(problem, config):
    """(simulate_ensemble's series, EXIT_OK), or (None, exit code) once its error is printed."""
    try:
        return ensemble.simulate_ensemble(problem, config), EXIT_OK
    except ValueError as exc:  # an input the run refuses, such as a BEM dt
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except (MemoryError, RuntimeError) as exc:  # MemoryError: a run too large to hold
        print(f"numerical failure: {exc}", file=sys.stderr)
        return None, EXIT_NUMERICAL
    except ArithmeticError as exc:  # such as a coefficient's Python-float power of t
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, EXIT_NUMERICAL


def _missing_dirs(path: Path) -> list[Path]:
    """path and those of its parents that do not exist, deepest first: what mkdir(parents=True) makes."""
    missing = []
    for directory in (path, *path.parents):
        if directory.exists():
            break
        missing.append(directory)
    return missing


def _cmd_simulate(args) -> int:
    try:
        spec = ExperimentSpec.from_args(args)
        problem = problems.problem_from_label(spec.problem, k1=spec.k1, c=spec.c)
        x0 = problems.DEFAULT_INITIAL_VALUES[spec.problem] if spec.x0 is None else spec.x0
        checkpoints = spec.checkpoints
        if isinstance(checkpoints, int):  # a count
            checkpoints = ensemble.geometric_checkpoints(spec.steps, checkpoints)
        config = ensemble.SimConfig(
            dt=spec.dt, num_steps=spec.steps, num_paths=spec.paths, seed=spec.seed,
            scheme=spec.scheme, initial_value=x0, checkpoints=checkpoints,
            blow_up_cap=spec.blow_up_cap,
        )
        envelope = ensemble.SCHEMES[config.scheme].envelope
        if spec.envelope and envelope is None:
            raise ValueError(f"--envelope: scheme {config.scheme!r} has no decay envelope")
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        # TypeError, OverflowError: a spec value of the wrong type or beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # checkpoints too many to hold
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    out_dir = Path(spec.out_dir)
    try:
        made = _missing_dirs(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"error: --out-dir: {exc}", file=sys.stderr)
        return EXIT_USAGE

    series, code = _simulate(problem, config)
    if series is None:
        for directory in made:  # deepest first; rmdir leaves one that is not empty
            try:
                directory.rmdir()
            except OSError:
                pass
        return code

    prefix = spec.prefix or f"{spec.problem}_{spec.scheme}_seed{spec.seed}"
    csv_path = out_dir / f"{prefix}.csv"
    json_path = out_dir / f"{prefix}_config.json"
    try:
        series.write_csv(csv_path)
        series.write_config_json(json_path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the prefix
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wrote = [str(csv_path), str(json_path)]

    if spec.envelope:
        try:
            env = envelope(series.step_index, config.dt, problem.k1, problem.c,
                           float(np.dot(config.initial_value, config.initial_value)))
            env_path = out_dir / f"{prefix}_envelope.csv"
            lines = ["k,t,envelope"]
            for i, k in enumerate(series.step_index):
                lines.append(f"{int(k)},{float(series.time[i])!r},{float(env[i])!r}")
            env_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            wrote.append(str(env_path))
        except ValueError as exc:  # the run or a constant is outside the envelope's range
            print(f"warning: envelope not written: {exc}", file=sys.stderr)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    final = len(series) - 1
    print(f"wrote: {', '.join(wrote)}")
    print(
        f"final checkpoint k={int(series.step_index[final])} t={float(series.time[final]):g}: "
        f"mean_square={float(series.mean_square[final]):.6e} "
        f"(surviving {int(series.surviving[final])}/{config.num_paths}, "
        f"blown up {int(series.blown_up[final])})"
    )
    if np.any(series.blown_up > 0):
        print("note: checkpoints with blow-ups report surviving-path means (lower bounds)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    csv_path = Path(args.csv)
    try:
        analysis.check_decay_fit_args(args.window_fraction, args.k1, args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        series = ensemble.MomentSeries.from_csv(csv_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        estimate = analysis.estimate_decay_exponent(
            series, args.window_fraction, k1=args.k1, tolerance=args.tolerance
        )
    except ValueError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {"csv": str(csv_path), "k1": args.k1, "tolerance": args.tolerance}
    report.update(estimate.to_json_dict())
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            print(f"error: --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    if not estimate.conforms:
        print(
            f"conformance failure: slope {estimate.slope:.4f} > bound "
            f"{estimate.theoretical_bound:.4f} + {args.tolerance}",
            file=sys.stderr,
        )
        return EXIT_CONFORMANCE
    return EXIT_OK


def _cmd_verify_gamma(args) -> int:
    try:
        bounds = analysis.verify_proof_bounds(k_max=args.k_max)
        records = (
            gamma.verify_product_identity(num_samples=args.samples, seed=args.seed),
            *gamma.verify_ratio_signs(),
            *bounds,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # samples too many to hold
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    title = "gamma checks (worst relative error or log margin of each, against its rule):"
    print(checks.summary(title, records))
    failed = [r for r in records if not r.passed]
    for r in failed:
        print(f"FAIL: {r.name}: worst {r.worst_margin:+.3e} at {r.worst_point} "
              f"(rule {r.rule})", file=sys.stderr)
    if failed:
        return EXIT_NUMERICAL
    print("all gamma checks passed")
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    problem = problems.cubic_counterexample()
    x0 = args.x0 if args.x0 is not None else problems.DEFAULT_INITIAL_VALUES[problem.label]
    # every argument is checked before the first line of output
    try:
        seq = analysis.counterexample_lower_bound(args.dt, args.k_max)
        config = ensemble.SimConfig(
            dt=args.dt, num_steps=args.steps, num_paths=args.paths, seed=args.seed,
            scheme="em", initial_value=x0, blow_up_cap=args.cap,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    margins = seq.invariant_margins()
    show = min(len(seq.values), 12)
    print(f"divergence lower bounds b_k for dt={args.dt}:")
    for i in range(show):
        print(f"  k={i + 1:3d}  b_k={seq.values[i]:.6e}  invariant margin {margins[i]:+.3e}")
    if len(seq.values) > show:
        print(f"  ... ({len(seq.values)} values computed)")
    exceed = seq.first_step_exceeding(args.cap)
    if exceed is None:
        print(f"cap {args.cap:g} not exceeded within k_max={args.k_max}")
    else:
        print(f"cap {args.cap:g} exceeded at step k={exceed}")
    if seq.diverged_at is not None:
        print(f"recursion left double-precision range at step k={seq.diverged_at}")
    invariant_ok = bool(np.all(margins >= 0.0))
    print(f"induction invariant b_k >= ((1+k dt)/dt)^0.5 (k+2): {'holds' if invariant_ok else 'VIOLATED'}")

    series, code = _simulate(problem, config)
    if series is None:
        return code
    frac = series.blown_up[-1] / config.num_paths
    print(
        f"companion ensemble (explicit scheme, {config.num_paths} paths, x0={x0}): "
        f"{int(series.blown_up[-1])} blown up by step {config.num_steps} "
        f"({100 * frac:.1f}%)"
    )
    if not invariant_ok:
        return EXIT_NUMERICAL
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a library warning as one "warning: <message>" line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented contract
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "simulate": _cmd_simulate,
        "analyze": _cmd_analyze,
        "verify-gamma": _cmd_verify_gamma,
        "counterexample": _cmd_counterexample,
    }
    # the warnings filters still decide which warnings show or raise; one
    # raised as an error ends the command as a numerical or data failure
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return handlers[args.command](args)
        except Warning as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
