"""Deterministic, parallelizable Monte Carlo moment estimation.

Reproducibility contract: the Brownian increment consumed by path p at step k
is a pure function of (seed, p, k), produced by polystab.noise's counter-based
stream (Philox keyed on (seed, path), counter = step, one block per step,
inverse-CDF normal). Path trajectories therefore never depend on evaluation
order, thread count, or how paths are chunked, and the checkpoint reduction
is a fixed-order pairwise sum over path-id-ordered arrays — two runs of the
same SimConfig are byte-identical at any thread count.

Paths run in fixed chunks of 4096. A chunk draws its normals in step blocks of
at most 512 steps and 2**20 values into one step-major buffer (one contiguous
row of path normals per step), filled by noise.fill_standard_normals through
the buffer's transpose. Each filled step block is scaled by sqrt(dt) once, so
a step's increments are a view of one row. Each step then makes one call of step(problem, x, k dt, (k+1) dt, dt, dB), the
kernel of the scheme's record in SCHEMES, the one table of schemes: on the
whole chunk while no path of it is frozen, and after that on the live paths
only, so a frozen path is never stepped again. Once every path of a chunk is
frozen, the chunk writes their squared norms into its remaining checkpoints
and ends, drawing no more noise. Chunk and step-block sizes, like the noise
module's scratch size, are module constants and never depend on the thread
count; threads only decide where a chunk runs. A run uses min(usable CPUs, chunks) threads, the usable
CPUs being those of the process's affinity mask, and runs its chunks in order
on the calling thread when that is 1. A cgroup CPU quota is not read: taskset
is how to cap the count. Each running chunk holds its own step block of noise,
so peak memory grows by one block per thread.

A run keeps one float array, the squared norm of every path at every
checkpoint; a chunk writes only into its own columns of it. Per path it
returns the first checkpoint at which the path is frozen and whether its
implicit solve failed. The reduction derives each checkpoint's survivor mask
and capped norms from these, so no mask or capped array is stored.

Paths whose state norm exceeds blow_up_cap are frozen and counted as blown up
from that checkpoint on; capped means plus blow-up fractions are how divergence
stays visible instead of being truncated away. An ArithmeticError raised while
a chunk steps keeps its class and is told the problem, scheme, step and time.

The thread pool is imported only by a run that starts threads, so a
one-CPU run loads neither numpy.random's init (see polystab.noise) nor
concurrent.futures. The geometric checkpoint rule drops duplicates itself
rather than through np.unique, whose first call imports numpy.ma, so no run
loads numpy.ma.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import bem_envelope, em_envelope
from .checks import integer, positive_real, reals
from .integrators import (
    bem_step_batch,
    check_decay_dt,
    check_implicit_dt,
    em_step_batch,
)
from .noise import fill_standard_normals
from .problems import SdeProblem

__all__ = [
    "SimConfig",
    "MomentSeries",
    "Scheme",
    "SCHEMES",
    "geometric_checkpoints",
    "simulate_ensemble",
    "CSV_HEADER",
]


@dataclass(frozen=True)
class Scheme:
    """Everything the engine and the CLI know of one scheme.

    step is its batch kernel, step(problem, x, t, t_next, dt, db) ->
    (x_new, ok). An implicit scheme's dt must pass check_implicit_dt and
    check_decay_dt before any path is stepped. envelope is the analysis
    function of its decay envelope, envelope(k, dt, k1, c, m0), or None
    where it has none.
    """

    name: str
    step: Callable
    implicit: bool
    envelope: Callable | None


# the one table of schemes, by name; SimConfig and the CLI list its keys in this order
SCHEMES: dict[str, Scheme] = {
    "em": Scheme("em", em_step_batch, implicit=False, envelope=em_envelope),
    "bem": Scheme("bem", bem_step_batch, implicit=True, envelope=bem_envelope),
}
CSV_HEADER = "k,t,mean_square,std_error,surviving,blown_up"

_CHUNK_PATHS = 4096  # fixed: chunking must not depend on the thread count
_BLOCK_NORMALS = 2**20  # most normals per step block of a chunk
_BLOCK_STEPS = 512  # most steps per block: steps = min(this, _BLOCK_NORMALS // paths)
_MAX_STEPS = 2**63 - 1  # MomentSeries.step_index and the CSV's k are int64


def geometric_checkpoints(num_steps: int, count: int = 50) -> tuple[int, ...]:
    """~count checkpoint step indices as exact ints, geometrically spaced, from 0 to num_steps.

    Every step is a checkpoint when num_steps <= count; count = 2 gives just
    (0, num_steps). Otherwise the indices are the distinct rounded values of
    count - 1 geometric points from 1 to float(num_steps), the largest
    replaced by num_steps itself, so the last index is num_steps exactly
    even where the float is not. The values are sorted and each kept where
    it differs from the next, which is what np.unique does, without the
    numpy.ma import of its first call.
    """
    num_steps = integer("num_steps", num_steps, 1)
    count = integer("checkpoint count", count, 2)
    if count == 2:
        return (0, num_steps)
    if num_steps <= count:
        return tuple(range(num_steps + 1))
    ks = np.sort(np.round(np.geomspace(1.0, float(num_steps), count - 1)))
    ks = ks[:-1][ks[:-1] != ks[1:]]  # distinct, all but the largest
    return (0, *(int(k) for k in ks), num_steps)


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines an ensemble run (and nothing that doesn't)."""

    dt: float
    num_steps: int
    num_paths: int
    seed: int
    scheme: str
    initial_value: tuple[float, ...]
    checkpoints: tuple[int, ...] | None = None
    blow_up_cap: float = 1e12

    def __post_init__(self):
        object.__setattr__(self, "dt", positive_real("dt", self.dt))
        object.__setattr__(self, "num_steps", integer("num_steps", self.num_steps, 1, _MAX_STEPS))
        object.__setattr__(self, "num_paths", integer("num_paths", self.num_paths, 1))
        if not math.isfinite(self.dt * self.num_steps):  # the time of the last step
            raise ValueError(f"dt * num_steps must be finite, got {self.dt!r} * {self.num_steps}")
        object.__setattr__(self, "seed", integer("seed", self.seed))  # used mod 2**64
        names = tuple(SCHEMES)  # a tuple: an unhashable scheme is refused like any other
        if self.scheme not in names:
            raise ValueError(f"scheme must be one of {names}, got {self.scheme!r}")
        x0 = np.atleast_1d(reals("initial_value", self.initial_value))
        if x0.ndim != 1:
            raise ValueError(f"initial_value must be a vector, got shape {x0.shape}")
        object.__setattr__(self, "initial_value", tuple(float(v) for v in x0))
        if self.checkpoints is None:
            object.__setattr__(self, "checkpoints", geometric_checkpoints(self.num_steps))
        else:
            try:  # iter() of a non-iterable raises here, before the first element
                cps = tuple(integer("checkpoint", k) for k in self.checkpoints)
            except TypeError:
                raise ValueError(
                    f"checkpoints must be a sequence of step indices, got {self.checkpoints!r}"
                ) from None
            if not cps:
                raise ValueError("checkpoints must be non-empty")
            if any(k < 0 or k > self.num_steps for k in cps):
                raise ValueError(f"checkpoints must lie in [0, {self.num_steps}]")
            if any(b <= a for a, b in zip(cps, cps[1:])):
                raise ValueError("checkpoints must be strictly increasing")
            object.__setattr__(self, "checkpoints", cps)
        cap = positive_real("blow_up_cap", self.blow_up_cap)
        with np.errstate(over="ignore"):
            x0_sq = float(_squared_norms(x0[None, :])[0])
        if not math.isfinite(x0_sq):  # every path would blow up on its first step
            raise ValueError(f"|initial_value|^2 must be finite, got {self.initial_value!r}")
        if not cap > math.sqrt(x0_sq):
            raise ValueError(f"blow_up_cap must exceed |initial_value|, got {cap!r}")
        object.__setattr__(self, "blow_up_cap", cap)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimConfig":
        """The config of a to_json_dict dict; other keys, such as "problem", are ignored."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names and v is not None})


@dataclass(frozen=True)
class MomentSeries:
    """Per-checkpoint mean-square estimates with blow-up accounting.

    mean_square and std_error are computed over surviving (not blown-up)
    paths; they are NaN when nothing survives. capped_mean_abs is the mean
    over all paths of min(|state|, blow_up_cap), the finite-precision proxy
    for a diverging first moment; a path whose state is NaN counts at the
    cap, like any other blown-up path. Checkpoints with blown_up > 0 should
    be read as lower bounds.
    """

    problem_label: str
    config: SimConfig | None
    step_index: np.ndarray
    time: np.ndarray
    mean_square: np.ndarray
    std_error: np.ndarray
    surviving: np.ndarray
    blown_up: np.ndarray
    capped_mean_abs: np.ndarray
    failed_paths: int = 0

    def __len__(self):
        return len(self.step_index)

    def to_csv_text(self) -> str:
        lines = [CSV_HEADER]
        for i in range(len(self)):
            lines.append(
                f"{int(self.step_index[i])},{float(self.time[i])!r},"
                f"{float(self.mean_square[i])!r},{float(self.std_error[i])!r},"
                f"{int(self.surviving[i])},{int(self.blown_up[i])}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv_text(), encoding="utf-8")

    def write_config_json(self, path) -> None:
        if self.config is None:
            raise ValueError("series has no attached config")
        d = {"problem": self.problem_label, **self.config.to_json_dict()}
        text = json.dumps(d, indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text, encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "MomentSeries":
        """Parse the six-column CSV back into a series (no config attached).

        Every row must have k an integer >= 0, t finite and >= 0, surviving
        and blown_up integers >= 0; down the rows k must strictly increase, t
        must not decrease and surviving + blown_up must stay the same. Each
        violation is a ValueError that names the line.
        """
        text = Path(path).read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != CSV_HEADER:
            raise ValueError(f"{path}: line 1: expected header {CSV_HEADER!r}")
        rows = []
        for ln_no, ln in enumerate(lines[1:], start=2):
            parts = ln.split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}: line {ln_no}: expected 6 fields, got {len(parts)}")
            try:
                row = (int(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                       int(parts[4]), int(parts[5]))
            except ValueError as exc:
                raise ValueError(f"{path}: line {ln_no}: {exc}") from None
            fault = _row_fault(row, rows[-1] if rows else None)
            if fault:
                raise ValueError(f"{path}: line {ln_no}: {fault}")
            rows.append(row)
        cols = list(zip(*rows)) if rows else [[], [], [], [], [], []]
        return cls(
            problem_label="",
            config=None,
            step_index=np.asarray(cols[0], dtype=int),
            time=np.asarray(cols[1], dtype=float),
            mean_square=np.asarray(cols[2], dtype=float),
            std_error=np.asarray(cols[3], dtype=float),
            surviving=np.asarray(cols[4], dtype=int),
            blown_up=np.asarray(cols[5], dtype=int),
            capped_mean_abs=np.full(len(rows), np.nan),
        )


def _row_fault(row, prev):
    """Why a parsed CSV row cannot follow prev (the row before it, or None); "" if it can."""
    k, t, _, _, surviving, blown_up = row
    if k < 0:
        return f"k must be >= 0, got {k}"
    if not (math.isfinite(t) and t >= 0.0):
        return f"t must be finite and >= 0, got {t!r}"
    if surviving < 0 or blown_up < 0:
        return f"surviving and blown_up must be >= 0, got {surviving} and {blown_up}"
    for name, value in (("k", k), ("surviving", surviving), ("blown_up", blown_up)):
        if value > _MAX_STEPS:  # the columns are int64
            return f"{name} must be <= {_MAX_STEPS}, got {value}"
    if prev is None:
        return ""
    if k <= prev[0]:
        return f"k must strictly increase, got {k} after {prev[0]}"
    if t < prev[1]:
        return f"t must not decrease, got {t!r} after {prev[1]!r}"
    if surviving + blown_up != prev[4] + prev[5]:
        return (f"surviving + blown_up must be the same on every row, got "
                f"{surviving + blown_up} after {prev[4] + prev[5]}")
    return ""


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _squared_norms(x):
    """|x_i|^2 for each row of an (m, n) block.

    For n = 1 one square, which skips einsum's dispatch and gives the same
    bits: einsum's sum of the single product x_i0 * x_i0 is that product.
    """
    return np.square(x[:, 0]) if x.shape[1] == 1 else np.einsum("ij,ij->i", x, x)


@np.errstate(all="ignore")  # overflow and NaN in a step are what the norm check is for
def _simulate_chunk(scheme, problem, config, path_lo, path_hi, sq):
    """Evolve paths [path_lo, path_hi), writing their squared checkpoint norms into sq.

    sq, of shape (n_checkpoints, path_hi - path_lo), is the chunk's column
    slice of the run's array, and the chunk writes into nothing else of it.
    Returns (gone_from, failed): gone_from is the first checkpoint index at
    which a path is frozen (blown up or solver-failed), n_checkpoints if
    never, so it is frozen at checkpoint i exactly when gone_from <= i;
    failed flags the paths whose implicit solve failed. A frozen path keeps
    the state it froze with: once one path is frozen, scheme.step, the kernel
    of the scheme's record, steps the live rows only, and once every path
    is, the chunk returns. Everything in here is elementwise per path, so
    results do not depend on chunk boundaries.
    """
    step = scheme.step
    dt = config.dt
    try:
        limit = config.blow_up_cap**2
    except OverflowError:
        # every finite norm2 is below the cap; a non-finite one blows the path up
        limit = sys.float_info.max
    ckpts = config.checkpoints
    n_ck = len(ckpts)
    m = path_hi - path_lo
    x0 = np.asarray(config.initial_value, dtype=float)
    x = np.tile(x0, (m, 1))
    gone_from = np.full(m, n_ck)
    failed = np.zeros(m, dtype=bool)
    live = None  # the rows still stepped; None while no path is frozen
    pos = 0
    if ckpts[0] == 0:
        sq[0] = _squared_norms(x)
        pos = 1

    # nothing after the last checkpoint is recorded, so every freeze happens
    # while pos < n_ck and frozen == (gone_from < n_ck)
    num_steps = ckpts[-1]
    sqrt_dt = math.sqrt(dt)
    # a narrow chunk holds at most _BLOCK_STEPS steps of noise: a 512-step
    # Philox call spends under 4% of its time re-keying, so a longer block
    # would save little time and hold more memory
    step_block = min(_BLOCK_STEPS, _BLOCK_NORMALS // m)
    # step-major, so each step reads one contiguous row; filled through its transpose
    buffer = np.empty((min(step_block, num_steps), m))
    for b0 in range(0, num_steps, step_block):
        b1 = min(b0 + step_block, num_steps)
        normals = buffer[: b1 - b0]
        fill_standard_normals(normals.T, config.seed, path_lo, b0)
        normals *= sqrt_dt  # now the increments dB = z sqrt(dt), one product each
        try:  # entered once per step block, so a step costs nothing more
            for k, increments in enumerate(normals, b0):
                db = increments[:, None]
                # t_next is (k+1) dt, not t + dt: the two can differ in the last
                # bit, and the solve time moves every BEM byte after it
                t, t_next = k * dt, (k + 1) * dt
                if live is None:
                    x, ok = step(problem, x, t, t_next, dt, db)
                else:
                    x[live], ok = step(problem, x[live], t, t_next, dt, db[live])
                froze = ok is not None and np.count_nonzero(ok) < ok.size
                if froze:  # such a path kept its state
                    lost = np.flatnonzero(~ok) if live is None else live[~ok]
                    failed[lost] = True
                    gone_from[lost] = pos
                norm2 = _squared_norms(x)
                # one comparison while nothing is over (a NaN max fails it too); a
                # frozen path is blown already or kept a state that passed
                if not np.maximum.reduce(norm2) <= limit:
                    np.minimum(gone_from, pos, out=gone_from, where=~(norm2 <= limit))
                    froze = True
                if froze:
                    live = np.flatnonzero(gone_from == n_ck)
                    if not live.size:
                        # no path moves again: every later checkpoint holds this norm2
                        sq[pos:] = norm2
                        return gone_from, failed
                if ckpts[pos] == k + 1:
                    sq[pos] = norm2
                    pos += 1
        except ArithmeticError as exc:  # such as a coefficient's Python-float power of t
            # the same exception, so its class and traceback stay, told where it happened
            where = f"problem '{problem.label}', scheme {scheme.name}, step k={k}, t={t!r}"
            exc.args = (f"{where}: {exc}",)
            raise
    return gone_from, failed


def _mean_of_sum(values, n):
    """sum(values) / n for values >= 0, whose sum may overflow near the float maximum.

    An overflowed sum (blown-up paths at a cap near the float maximum, or
    survivors' norm2 there) is taken again as max * (sum(values / max) / n).
    Call under np.errstate(over="ignore").
    """
    mean = float(np.sum(values)) / n
    if not math.isfinite(mean):
        scale = float(np.max(values))
        mean = scale * (float(np.sum(values / scale)) / n)
    return mean


def _check_output_shapes(problem, x0):
    """Refuse a drift or diffusion whose output does not broadcast to the state block's shape.

    Each is called once, at t = 0 on an (n + 1, n) block of x0: with one row,
    an output of shape (rows,) would broadcast against the block and pass.
    A wrong shape otherwise broadcasts silently into an (m, m) state, a false
    divergence, or fails inside the implicit solve.
    """
    block = np.tile(x0, (len(x0) + 1, 1))
    with np.errstate(all="ignore"):  # only the shape is read
        for name, fn in (("drift", problem.drift), ("diffusion", problem.diffusion)):
            shape = np.shape(fn(block, 0.0))
            try:
                fits = np.broadcast_shapes(shape, block.shape) == block.shape
            except ValueError:
                fits = False
            if not fits:
                raise ValueError(
                    f"{name} of problem '{problem.label}' returned shape {shape} for a "
                    f"{block.shape} block of states; it must broadcast to {block.shape}"
                )


def simulate_ensemble(problem: SdeProblem, config: SimConfig) -> MomentSeries:
    """Run the ensemble and reduce to a MomentSeries.

    Blown-up (and the rare solver-failed) paths freeze and leave the surviving
    set; statistics at each checkpoint are over survivors, with counts
    reported alongside. Solver failures above 1% of paths abort the run.
    A drift or diffusion whose output at x0 does not broadcast to the shape
    of the state block it was given is refused before any path is stepped.
    The 4096-path chunks run on min(usable CPUs, chunks) threads, the usable
    CPUs being those of the process's affinity mask, not of a cgroup quota;
    the thread count never affects the result, only peak memory (one noise
    block per thread). A run whose arrays numpy cannot allocate raises
    MemoryError before any path is stepped.
    """
    x0 = np.asarray(config.initial_value, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError(
            f"initial_value has shape {x0.shape}, problem '{problem.label}' needs "
            f"({problem.dimension},)"
        )
    _check_output_shapes(problem, x0)
    scheme = SCHEMES[config.scheme]
    if scheme.implicit:
        check_implicit_dt(problem, config.dt)
        check_decay_dt(problem, config.dt)

    n_paths = config.num_paths
    n_ck = len(config.checkpoints)
    sq = np.empty((n_ck, n_paths))
    gone_from = np.empty(n_paths, dtype=int)  # frozen at checkpoint i iff gone_from <= i
    failed = np.empty(n_paths, dtype=bool)
    starts = range(0, n_paths, _CHUNK_PATHS)

    def run(lo):
        hi = min(lo + _CHUNK_PATHS, n_paths)
        gone_from[lo:hi], failed[lo:hi] = _simulate_chunk(
            scheme, problem, config, lo, hi, sq[:, lo:hi])

    threads = min(_usable_cpus(), len(starts))
    if threads == 1:
        for lo in starts:
            run(lo)
    else:
        from concurrent.futures import ThreadPoolExecutor  # only a run on threads loads it

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(run, starts))  # reading each result raises its error

    n_failed = int(np.sum(failed))
    if n_failed > 0:
        frac = n_failed / n_paths
        if frac > 0.01:
            raise RuntimeError(
                f"{n_failed}/{n_paths} paths failed the implicit solve "
                f"({100 * frac:.1f}% > 1%); aborting"
            )
        warnings.warn(
            f"{n_failed}/{n_paths} paths failed the implicit solve and were "
            f"frozen (counted with blown-up paths)",
            stacklevel=2,
        )

    mean_sq = np.empty(n_ck)
    std_err = np.empty(n_ck)
    capped_mean = np.empty(n_ck)
    blown_up = np.cumsum(np.bincount(gone_from, minlength=n_ck + 1)[:n_ck])
    surviving = n_paths - blown_up
    cap = config.blow_up_cap
    # a sum may overflow near the float maximum; each is then taken again scaled
    with np.errstate(over="ignore"):
        for i in range(n_ck):
            row = sq[i]
            capped = np.sqrt(row)
            np.fmin(capped, cap, out=capped)  # a NaN state counts at the cap
            capped_mean[i] = _mean_of_sum(capped, n_paths)
            n_surv = int(surviving[i])
            if n_surv == 0:
                mean_sq[i] = np.nan
                std_err[i] = np.nan
                continue
            # with no path gone, the masked arrays equal the plain ones: same sums
            mask = gone_from <= i if n_surv < n_paths else None
            vals = row if mask is None else np.where(mask, 0.0, row)
            mean_sq[i] = mean = _mean_of_sum(vals, n_surv)
            if n_surv == 1:
                std_err[i] = 0.0
            else:
                dev = row - mean
                if mask is not None:
                    dev = np.where(mask, 0.0, dev)
                ss = float(np.sum(dev * dev))
                scale = 1.0
                if not math.isfinite(ss) and math.isfinite(mean):
                    # survivors near a large cap: rescale so the squares stay finite
                    scale = float(np.max(np.abs(dev)))
                    ss = float(np.sum((dev / scale) ** 2))
                std_err[i] = scale * math.sqrt(ss / (n_surv - 1) / n_surv)

    ks = np.asarray(config.checkpoints, dtype=int)
    return MomentSeries(
        problem_label=problem.label,
        config=config,
        step_index=ks,
        time=ks * config.dt,
        mean_square=mean_sq,
        std_error=std_err,
        surviving=surviving,
        blown_up=blown_up,
        capped_mean_abs=capped_mean,
        failed_paths=n_failed,
    )
