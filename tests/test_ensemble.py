import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from polystab import ensemble, noise
from polystab.ensemble import (
    CSV_HEADER,
    SCHEMES,
    MomentSeries,
    RunRecord,
    SimConfig,
    _simulate_chunk,
    geometric_checkpoints,
    run_ensemble,
    simulate_ensemble,
)
from polystab.gamma import GammaProductParams, product_direct, product_via_gamma
from polystab.noise import brownian_increment, fill_standard_normals
from polystab.problems import (
    SdeProblem,
    bem_example,
    cubic_counterexample,
    exact_linear_mean_square,
    linear_example,
    problem_from_label,
)


def constant_problem(value=0.0):
    return SdeProblem(
        dimension=1,
        drift=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)) + value,
        k1=1.0, c=max(value, 1e-9), kbar=0.0, satisfies_linear_growth=True,
        label="constant",
    )


def zero_noise_linear():
    lin = linear_example()
    return SdeProblem(
        dimension=1,
        drift=lin.drift,
        diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        k1=1.0, c=1e-9, kbar=-1.0, satisfies_linear_growth=True,
        label="linear-no-noise",
    )


class TestSimConfig:
    def test_defaults(self):
        cfg = SimConfig(dt=0.1, num_steps=1000, num_paths=10, seed=1, scheme="em",
                        initial_value=(1.0,))
        assert cfg.checkpoints[0] == 0
        assert cfg.checkpoints[-1] == 1000
        assert all(b > a for a, b in zip(cfg.checkpoints, cfg.checkpoints[1:]))
        assert cfg.blow_up_cap == 1e12

    def test_scalar_initial_value_promoted(self):
        cfg = SimConfig(dt=0.1, num_steps=10, num_paths=1, seed=0, scheme="em",
                        initial_value=2.0)
        assert cfg.initial_value == (2.0,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(num_steps=0),
            dict(num_paths=0),
            dict(seed=1.5),
            dict(scheme="rk4"),
            dict(checkpoints=(0, 5, 5)),
            dict(checkpoints=(0, 11)),
            dict(checkpoints=()),
            dict(blow_up_cap=0.5),  # below |x0|
            dict(initial_value=(float("nan"),)),
            dict(dt=True),
            dict(checkpoints=(0.5, 3)),
            dict(checkpoints=(0, np.float64(5))),
            dict(num_paths=4.0),
            dict(seed=True),
            dict(dt=1e308),  # dt * num_steps, the last step's time, beyond the floats
            dict(initial_value=((1.0, 2.0),)),  # not a vector
            dict(checkpoints=5),
            dict(checkpoints=2.5),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(dt=0.1, num_steps=10, num_paths=4, seed=1, scheme="em",
                    initial_value=(1.0,))
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)

    @pytest.mark.parametrize("checkpoints", [5, 2.5, np.array(7)])
    def test_checkpoints_that_are_not_a_sequence_named(self, checkpoints):
        with pytest.raises(ValueError, match="^checkpoints must be a sequence of step indices"):
            SimConfig(dt=0.1, num_steps=10, num_paths=4, seed=1, scheme="em",
                      initial_value=(1.0,), checkpoints=checkpoints)

    @pytest.mark.parametrize("x0", [(1e200,), (1e154, 1e154)])
    def test_initial_value_whose_square_overflows_refused(self, x0):
        # |x0|^2 is inf, so every path would blow up on its first step
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"\|initial_value\|\^2 must be finite"):
                SimConfig(dt=0.1, num_steps=3, num_paths=2, seed=1, scheme="em",
                          initial_value=x0, blow_up_cap=1e300)

    def test_large_initial_value_below_the_cap_accepted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = SimConfig(dt=0.1, num_steps=3, num_paths=2, seed=1, scheme="em",
                            initial_value=(1e150,), blow_up_cap=1e300)
        assert cfg.initial_value == (1e150,)

    def test_num_steps_beyond_int64_refused(self):
        # step_index and the CSV's k are int64
        with pytest.raises(ValueError, match=f"num_steps must be an integer <= {2**63 - 1}"):
            SimConfig(dt=1e-300, num_steps=2**63, num_paths=1, seed=1, scheme="em",
                      initial_value=(1.0,))

    def test_num_steps_at_int64_max_ends_on_it(self):
        cfg = SimConfig(dt=1e-300, num_steps=2**63 - 1, num_paths=1, seed=1, scheme="em",
                        initial_value=(1.0,))
        assert cfg.checkpoints[-1] == 2**63 - 1

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(dt=np.float64(0.1), num_steps=np.int64(10), num_paths=np.int32(4),
                        seed=np.uint64(2**63), scheme="em", initial_value=(1.0,),
                        checkpoints=(np.int64(0), 10))
        assert (cfg.dt, cfg.num_steps, cfg.num_paths, cfg.seed) == (0.1, 10, 4, 2**63)
        assert all(type(v) is int for v in (cfg.num_steps, cfg.num_paths, cfg.seed, *cfg.checkpoints))

    def test_json_round_trip(self):
        cfg = SimConfig(dt=0.2, num_steps=50, num_paths=8, seed=9, scheme="bem",
                        initial_value=(1.0, 2.0), checkpoints=(0, 10, 50),
                        blow_up_cap=100.0)
        assert SimConfig.from_json_dict(cfg.to_json_dict()) == cfg


def test_geometric_checkpoints_small_run():
    assert geometric_checkpoints(10) == tuple(range(11))


def test_geometric_checkpoints_large_run():
    cps = geometric_checkpoints(100_000)
    assert cps[0] == 0 and cps[-1] == 100_000
    assert 40 <= len(cps) <= 50
    assert all(b > a for a, b in zip(cps, cps[1:]))


def reference_geometric_checkpoints(num_steps, count):
    """The checkpoint rule as first written, with np.unique."""
    if count == 2:
        return (0, num_steps)
    if num_steps <= count:
        return tuple(range(num_steps + 1))
    ks = np.unique(np.round(np.geomspace(1.0, num_steps, count - 1)).astype(int))
    return (0, *(int(k) for k in ks))


@pytest.mark.parametrize("num_steps", [1, 3, 50, 51, 1100, 20_000, 100_000, 10**7])
def test_geometric_checkpoints_unchanged_for_three_or_more(num_steps):
    for count in (3, 4, 7, 50, 60):
        assert geometric_checkpoints(num_steps, count) == \
            reference_geometric_checkpoints(num_steps, count)


# every num_steps up to 2000, and 520 geometric ones up to 2**53, below which floats hold every int
MATCH_STEPS = (*range(1, 2001), *sorted({round(v) for v in np.geomspace(2001, 2**53, 520)}))


def test_geometric_checkpoints_match_the_np_unique_rule():
    for count in (2, 3, 4, 5, 7, 10, 25, 50, 51, 60, 100, 200):
        for num_steps in MATCH_STEPS:
            assert geometric_checkpoints(num_steps, count) == \
                reference_geometric_checkpoints(num_steps, count), (num_steps, count)


@pytest.mark.parametrize("num_steps", [2**53 + 1, 2**53 + 3, 2**62 + 1, 2**63 - 1, 10**19, 10**30])
def test_geometric_checkpoints_end_on_num_steps_beyond_the_floats(num_steps):
    cps = geometric_checkpoints(num_steps)
    assert cps[0] == 0 and cps[-1] == num_steps and 40 <= len(cps) <= 50
    assert all(type(k) is int for k in cps)
    assert all(b > a for a, b in zip(cps, cps[1:]))


@pytest.mark.parametrize("num_steps", [1, 2, 7, 100_000])
def test_geometric_checkpoints_count_two(num_steps):
    assert geometric_checkpoints(num_steps, 2) == (0, num_steps)


@pytest.mark.parametrize("count", [1, 0, -1])
def test_geometric_checkpoints_rejects_count_below_two(count):
    with pytest.raises(ValueError, match="count"):
        geometric_checkpoints(100, count)


@pytest.mark.parametrize("num_steps,count", [(10.5, 5), (10, 2.5), (True, 5), (10, True)])
def test_geometric_checkpoints_rejects_non_integers(num_steps, count):
    with pytest.raises(ValueError, match="must be an integer"):
        geometric_checkpoints(num_steps, count)


def normal_row(seed, path_id, step0, count):
    """count v1 normals of one path from step0: one row of fill_standard_normals."""
    out = np.empty((1, count))
    fill_standard_normals(out, seed, path_id, step0)
    return out[0]


class TestBrownianIncrement:
    def test_deterministic(self):
        a = brownian_increment(42, 7, 1000, 0.1)
        assert a == brownian_increment(42, 7, 1000, 0.1)

    def test_distinct_keys_decorrelate(self):
        base = brownian_increment(42, 7, 1000, 0.1)
        assert base != brownian_increment(43, 7, 1000, 0.1)
        assert base != brownian_increment(42, 8, 1000, 0.1)
        assert base != brownian_increment(42, 7, 1001, 0.1)

    def test_negative_seed_ok(self):
        assert math.isfinite(brownian_increment(-12345, 0, 0, 0.1))

    @pytest.mark.parametrize("kwargs", [
        dict(path_id=-1), dict(step=-1), dict(dt=0.0), dict(path_id=0.5),
        dict(seed=1.5), dict(seed=True), dict(step=True), dict(dt=True), dict(dt="0.1"),
        dict(path_id=2**64),  # beyond the key's 64 bits: it would alias path_id 0
        dict(step=2**256),  # beyond the 256-bit counter
        dict(step=2**192),  # the uniform draw's counters: it would give its first word
    ])
    def test_validation(self, kwargs):
        base = dict(seed=1, path_id=0, step=0, dt=0.1)
        base.update(kwargs)
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be"):
            brownian_increment(**base)

    def test_marginal_mean(self):
        dt = 0.1
        n = 1_000_000
        draws = normal_row(7, 3, 0, n) * math.sqrt(dt)
        assert abs(float(np.mean(draws))) <= 4.0 * math.sqrt(dt / n)

    def test_marginal_variance(self):
        dt = 0.1
        n = 1_000_000
        draws = normal_row(7, 3, 0, n) * math.sqrt(dt)
        assert abs(float(np.var(draws)) - dt) <= 0.01 * dt

    def test_block_boundary_invariance(self):
        whole = normal_row(11, 2, 0, 100)
        split = np.concatenate([
            normal_row(11, 2, 0, 37),
            normal_row(11, 2, 37, 63),
        ])
        np.testing.assert_array_equal(whole, split)

    def test_block_matches_scalar_op(self):
        dt = 0.3
        block = normal_row(5, 9, 40, 4) * math.sqrt(dt)
        singles = [brownian_increment(5, 9, 40 + j, dt) for j in range(4)]
        np.testing.assert_allclose(block, singles, rtol=0, atol=0)


class TestNoiseStreamPinned:
    # SHA-256 of the float64 bytes, recorded with the per-path Philox
    # construction that the v1 stream was defined by.
    CASES = [
        ((42, 0, 0, 64), "69fe9e204e95579b3a648b9d44bedf526c07b5e9aba20c08c132141268da5248"),
        ((-12345, 7, 1000, 17), "817765adaba322d2dba715133d1853b0b08b6114a59be247c64885ae211d5f09"),
        ((3, 2**32 + 5, 4090, 12), "af6c28ef3b5a0b42175a3abaeb59f8778545e6000871ab63be62d23abb4a6b04"),
        ((2**64 + 9, 2**40, 7, 33), "bd5cdd26581f549ab20a14f6f85818e7afe74b2c89a97e58d7495f7f08a28c63"),
        ((0, 1023, 123456789, 5), "9528b6b8ccd21bcb017a0b46b9b2377a815be0423630ee19f50a010556d76fc4"),
    ]
    # paths 1020..1027, steps 4090..4109 of seed 2024, rows in path order
    BLOCK_SHA256 = "4b66ad8bb65637cc0095c6d091b858870386e38b9fb20615d0320762f341b63b"

    @staticmethod
    def sha256(a):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()

    @pytest.mark.parametrize("args,digest", CASES,
                             ids=["_".join(map(str, args)) for args, _ in CASES])
    def test_stream_bytes_pinned(self, args, digest):
        assert self.sha256(normal_row(*args)) == digest

    def test_block_bytes_pinned(self):
        out = np.empty((8, 20))
        fill_standard_normals(out, 2024, 1020, 4090)
        assert self.sha256(out) == self.BLOCK_SHA256

    def test_rows_match_per_path_calls_across_step_blocks(self):
        seed, path_lo, m = 9, 2**32 - 2, 5
        steps = ensemble._BLOCK_NORMALS // ensemble._CHUNK_PATHS
        buffer = np.full((m, steps + 3), np.nan)
        first = buffer[:, :steps]
        fill_standard_normals(first, seed, path_lo, 0)
        first = first.copy()
        second = buffer[:, :7]  # a short last block written into the same buffer
        fill_standard_normals(second, seed, path_lo, steps)
        assert np.isnan(buffer[:, steps:]).all()
        for j in range(m):
            whole = normal_row(seed, path_lo + j, 0, steps + 7)
            assert np.array_equal(first[j], whole[:steps])
            assert np.array_equal(second[j], whole[steps:])

    def test_transposed_out_with_a_partial_last_group(self):
        # the engine's layout: a step-major buffer filled through its
        # transpose, whose path rows lie a whole step row apart
        seed, path_lo, step0, steps = 77, 300, 5000, 1000
        group = noise._SCRATCH_WORDS // steps
        m = 2 * group + 5  # two full transform groups and a partial one
        buffer = np.full((steps, m), np.nan)
        fill_standard_normals(buffer.T, seed, path_lo, step0)
        for j in range(m):
            row = normal_row(seed, path_lo + j, step0, steps)
            assert buffer[:, j].tobytes() == row.tobytes(), j


SRC = str(Path(ensemble.__file__).resolve().parents[1])
ARRAY_API_MODULES = ("scipy.special", "scipy._lib._array_api")


def run_python(script, *args):
    """The parsed last stdout line of script, run by a fresh interpreter that imports polystab from SRC."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def stream_bytes():
    """This process's brownian_increment(7, 3, 11, 0.1) and 16 x 600 noise block, as the load-order scripts print them."""
    out = np.empty((16, 600))
    fill_standard_normals(out, 2024, 1020, 4090)
    return {"increment": brownian_increment(7, 3, 11, 0.1).hex(),
            "block": hashlib.sha256(out.tobytes()).hexdigest()}


# the modules named on its command line that are loaded after import, and after a run
FRESH_PROCESS = """
import json, sys
import polystab, polystab.cli
from polystab import SimConfig, linear_example, simulate_ensemble
loaded = lambda: [m for m in sys.argv[1:] if m in sys.modules]
at_import = loaded()
config = SimConfig(dt=0.1, num_steps=3, num_paths=2, seed=1, scheme="em", initial_value=(1.0,))
simulate_ensemble(linear_example(), config)
print(json.dumps([at_import, loaded()]))
"""

LOAD_ORDER = """
import hashlib, json, sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.special
from polystab import noise
private = "scipy.special" not in sys.modules
import scipy.special, scipy.stats
out = np.empty((16, 600))
noise.fill_standard_normals(out, 2024, 1020, 4090)
print(json.dumps({
    "private": private,
    "same": noise.ndtri is scipy.special.ndtri,
    "ppf": float(scipy.stats.norm.ppf(0.975)),
    "increment": noise.brownian_increment(7, 3, 11, 0.1).hex(),
    "block": hashlib.sha256(out.tobytes()).hexdigest(),
}))
"""


class TestNdtriLoad:
    """ndtri is scipy's own ufunc, loaded without scipy.special's package init."""

    def test_fresh_process_never_runs_the_package_init(self):
        assert run_python(FRESH_PROCESS, *ARRAY_API_MODULES) == [[], []]

    def test_load_order_changes_nothing(self):
        before = run_python(LOAD_ORDER, "before")
        after = run_python(LOAD_ORDER, "after")
        assert (before["private"], after["private"]) == (False, True)
        assert before["same"] and after["same"]
        assert before["ppf"] == after["ppf"] == pytest.approx(1.959963984540054)
        here = stream_bytes()
        for result in (before, after):
            assert {key: result[key] for key in here} == here


PHILOX_LOAD_ORDER = """
import hashlib, json, sys
import numpy as np
if sys.argv[1] == "before":
    import numpy.random
from polystab import noise
private = "numpy.random" not in sys.modules
rng = np.random.default_rng(0).random()  # through numpy's lazy attribute
import numpy.random
out = np.empty((16, 600))
noise.fill_standard_normals(out, 2024, 1020, 4090)
print(json.dumps({
    "private": private,
    "same": noise.Philox is numpy.random.Philox,
    "rng": rng,
    "increment": noise.brownian_increment(7, 3, 11, 0.1).hex(),
    "block": hashlib.sha256(out.tobytes()).hexdigest(),
}))
"""


class TestOneCpuLoads:
    """A one-CPU run loads neither numpy.random's package init nor a thread pool."""

    def test_fresh_process_loads_only_what_it_runs(self):
        unused = ("numpy.random", "numpy.random.mtrand", "numpy.random._generator",
                  "concurrent.futures", "scipy.special")
        assert run_python(FRESH_PROCESS, *unused) == [[], []]

    def test_philox_load_order_changes_nothing(self):
        before = run_python(PHILOX_LOAD_ORDER, "before")
        after = run_python(PHILOX_LOAD_ORDER, "after")
        assert (before["private"], after["private"]) == (False, True)
        assert before["same"] and after["same"]
        assert before["rng"] == after["rng"] == np.random.default_rng(0).random()
        here = stream_bytes()
        for result in (before, after):
            assert {key: result[key] for key in here} == here


# default checkpoints over more than 50 steps, through the API and through the CLI
CHECKPOINT_RULE_PROCESS = """
import json, sys
from polystab import SimConfig, cli, linear_example, simulate_ensemble
config = SimConfig(dt=0.1, num_steps=200, num_paths=2, seed=1, scheme="em", initial_value=(1.0,))
simulate_ensemble(linear_example(), config)
after_api = "numpy.ma" in sys.modules
code = cli.main(["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
                 "--steps", "200", "--paths", "2", "--seed", "1", "--out-dir", sys.argv[1]])
print(json.dumps([len(config.checkpoints), after_api, code, "numpy.ma" in sys.modules]))
"""


class TestCheckpointRuleLoads:
    """The default checkpoint rule loads no module: numpy.ma stays out of every run."""

    def test_default_checkpoints_never_load_numpy_ma(self, tmp_path):
        count, after_api, code, after_cli = run_python(CHECKPOINT_RULE_PROCESS, str(tmp_path))
        assert count < 201  # the geometric rule, not every step
        assert (after_api, code, after_cli) == (False, 0, False)


class TestChunkBoundaries:
    # CSV SHA-256 recorded with 256-path chunks and 4096-step blocks
    CSV_SHA256 = "a6342ca44c9d7246039fac2155d51819be895307a22048c908e801f7876b0b76"
    CONFIG = SimConfig(dt=0.1, num_steps=1100, num_paths=2100, seed=5, scheme="em",
                       initial_value=(1.0,))

    def csv_text(self):
        return simulate_ensemble(linear_example(), self.CONFIG).to_csv_text()

    def test_config_crosses_chunks_and_step_blocks(self):
        # the configs pinned at the real chunk and step-block sizes
        for cfg in (TestChunkBlowUpBytes.CONFIG, TestChunkBlowUpBytes.BEM_CONFIG):
            assert cfg.num_paths > ensemble._CHUNK_PATHS
            assert cfg.num_steps > ensemble._BLOCK_NORMALS // ensemble._CHUNK_PATHS
        assert TestChunkBlowUpBytes.CONFIG.num_paths > 2 * ensemble._CHUNK_PATHS
        # a narrow chunk whose block is capped by steps, not by normals
        cfg = TestStepBlockBytes.CONFIG
        assert cfg.num_paths * ensemble._BLOCK_STEPS < ensemble._BLOCK_NORMALS
        assert cfg.num_steps > 2 * ensemble._BLOCK_STEPS

    def test_csv_bytes_at_one_and_three_workers(self, monkeypatch, cpus):
        text = self.csv_text()  # one chunk
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 300)  # seven chunks
        for n in (1, 3, 16):
            cpus.use(n)
            assert self.csv_text() == text
            assert (len(cpus.idents) > 1) == (n > 1)

    def test_csv_bytes_with_small_chunks_and_blocks(self, monkeypatch):
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 300)
        monkeypatch.setattr(ensemble, "_BLOCK_NORMALS", 300 * 97)
        text = self.csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256


class TestStepBlockBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes, recorded while a
    # 256-path chunk drew all 1100 steps in one block; it now draws 512 + 512 + 76
    CSV_SHA256 = "5eb57bf03dd6b473cc3556d0c689f4fed086cd1343028859b14b90054c542bd8"
    CAPPED_SHA256 = "31df44de36168fb6e3595de9cbac54259d4cc11f6bf6aaf2c840fa3fcbf1fb51"
    CONFIG = SimConfig(dt=0.3, num_steps=1100, num_paths=256, seed=12, scheme="bem",
                       initial_value=(2.0,))

    def test_bytes_pinned(self):
        series = simulate_ensemble(bem_example(), self.CONFIG)
        assert series.failed_paths == 0
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        assert hashlib.sha256(series.to_csv_text().encode("utf-8")).hexdigest() == self.CSV_SHA256
        assert hashlib.sha256(capped.tobytes()).hexdigest() == self.CAPPED_SHA256

    def test_narrow_long_run_holds_one_short_block(self, cpus):
        # 256 paths x 4096 steps: a block of 512 steps is 1 MiB of noise, where
        # a block of all 4096 steps that 2**20 normals allow would be 8 MiB
        cpus.use(1)
        cfg = SimConfig(dt=0.1, num_steps=4096, num_paths=256, seed=11, scheme="em",
                        initial_value=(1.0,))
        tracemalloc.start()
        try:
            series = simulate_ensemble(linear_example(), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(series.surviving == cfg.num_paths)
        assert peak < 2.0e6, peak


class TestBemNoiseBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes of BEM on the two
    # built-in problems whose noise does not depend on the state, recorded
    # while their diffusions still filled a column at the state's shape
    PINS = {
        "linear": (1.0, 23, "e4bc92b7dd3ea84d98399cb31ded18b4c64dc5a515b441043d27060e59a3181d",
                   "42b77ae0f48124397e39809ab0d01a9fd8fe4f0e2e4347db12b5e672b338c452"),
        "counterexample": (5.0, 24,
                           "a789745b8b3aca79c9284b5cee0247e4b48d0dc575766d12062415e013ec7153",
                           "b797b5bbb78a95b2d79c739dbf97de84549c7a95a8e9df8a2a5e958cadbe8477"),
    }

    @pytest.mark.parametrize("label", sorted(PINS))
    def test_bytes_pinned(self, label):
        x0, seed, csv_sha, capped_sha = self.PINS[label]
        cfg = SimConfig(dt=0.1, num_steps=200, num_paths=300, seed=seed, scheme="bem",
                        initial_value=(x0,), checkpoints=tuple(range(201)))
        series = simulate_ensemble(problem_from_label(label), cfg)
        assert series.failed_paths == 0 and series.blown_up[-1] == 0
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        assert hashlib.sha256(series.to_csv_text().encode("utf-8")).hexdigest() == csv_sha
        assert hashlib.sha256(capped.tobytes()).hexdigest() == capped_sha


def test_chunk_writes_only_its_columns():
    # a chunk given its column slice of a larger array writes nothing outside
    # it, and writes what it writes into an array of its own
    cfg = SimConfig(dt=0.1, num_steps=30, num_paths=10, seed=8, scheme="em",
                    initial_value=(5.0,), checkpoints=(0, 3, 30))
    sq = np.full((3, 10), -1.0)
    gone_from, failed = _simulate_chunk(SCHEMES["em"], cubic_counterexample(), cfg, 3, 7,
                                        sq[:, 3:7])
    alone = np.empty((3, 4))
    alone_gone, alone_failed = _simulate_chunk(SCHEMES["em"], cubic_counterexample(), cfg, 3, 7,
                                               alone)
    assert (sq[:, :3] == -1.0).all() and (sq[:, 7:] == -1.0).all()
    assert sq[:, 3:7].tobytes() == alone.tobytes()
    assert gone_from.tolist() == alone_gone.tolist() and not failed.any() and not alone_failed.any()
    assert (gone_from < 3).all()  # every path blows up: the all-frozen exit fills the rest


def discrete_em_mean_square(dt, x0_sq, ks):
    """Exact E|Y_k|^2 of EM on linear_example: the scheme's own moment recursion."""
    out, m = {}, x0_sq
    for k in range(max(ks) + 1):
        out[k] = m
        s = 1.0 + k * dt
        m = (1.0 - dt / s) ** 2 * m + dt / s**2
    return np.array([out[k] for k in ks])


class TestDiscreteOracle:
    def test_linear_em_within_four_standard_errors(self):
        cfg = TestChunkBoundaries.CONFIG
        series = simulate_ensemble(linear_example(), cfg)
        exact = discrete_em_mean_square(cfg.dt, cfg.initial_value[0] ** 2, cfg.checkpoints)
        assert np.all(series.surviving == cfg.num_paths)
        bad = np.abs(series.mean_square - exact) > 4.0 * series.std_error
        assert not bad.any(), f"outside 4 se at k = {series.step_index[bad]}"


def discrete_bem_mean_square(dt, x0_sq, ks):
    """Exact E|Z_k|^2 of BEM on linear_example.

    Z_{k+1} (1 + dt/(1+(k+1) dt)) = Z_k + dB_k/(1+k dt), so the second moment
    follows the affine recursion below.
    """
    out, m = {}, x0_sq
    for k in range(max(ks) + 1):
        out[k] = m
        m = (m + dt / (1.0 + k * dt) ** 2) / (1.0 + dt / (1.0 + (k + 1) * dt)) ** 2
    return np.array([out[k] for k in ks])


class TestDiscreteBemOracle:
    def test_linear_bem_within_four_standard_errors(self):
        cfg = dataclasses.replace(TestChunkBoundaries.CONFIG, scheme="bem")
        series = simulate_ensemble(linear_example(), cfg)
        exact = discrete_bem_mean_square(cfg.dt, cfg.initial_value[0] ** 2, cfg.checkpoints)
        assert series.failed_paths == 0 and np.all(series.surviving == cfg.num_paths)
        noisy = series.std_error > 0
        assert noisy.sum() == len(series) - 1  # all but k = 0
        bad = noisy & (np.abs(series.mean_square - exact) > 4.0 * series.std_error)
        assert not bad.any(), f"outside 4 se at k = {series.step_index[bad]}"


class TestPartialBlowUpBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes, recorded before the
    # EM step loop skipped its freeze: 403 of 700 paths blow up at steps 5-10,
    # inside and at the start of 7-step blocks, across four 200-path chunks.
    CSV_SHA256 = "33543a56cbc7c094571980ab95dacd1d1bbb8b8112eec3b7ecc150ba0daf79ca"
    CAPPED_SHA256 = "a2b39c735c0fd64520795441b712f09e724ef7df499f906f0c6dbe40af0a1a30"
    CONFIG = SimConfig(dt=0.1, num_steps=40, num_paths=700, seed=8, scheme="em",
                       initial_value=(4.2,), checkpoints=tuple(range(41)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_bytes_pinned(self, monkeypatch, cpus, n):
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 200)
        monkeypatch.setattr(ensemble, "_BLOCK_NORMALS", 200 * 7)
        cpus.use(n)
        series = simulate_ensemble(cubic_counterexample(), self.CONFIG)
        assert 0 < series.blown_up[-1] < self.CONFIG.num_paths
        first = np.flatnonzero(np.diff(series.blown_up)) + 1
        assert {5, 6, 8, 9} <= set(first.tolist())  # blow-ups inside a block
        text = series.to_csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        assert hashlib.sha256(capped.tobytes()).hexdigest() == self.CAPPED_SHA256


class TestAllFrozenBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes, recorded while the
    # EM step loop still stepped frozen paths and discarded their new states:
    # from x0 = 10 every path of all three 200-path chunks blows up at step 3,
    # and the chunks run 27 more steps with nothing live.
    CSV_SHA256 = "525d800294d8a23788be61e0ea246ef3d3a79d2bf6547a663b6b137efd7b8b7c"
    CAPPED_SHA256 = "63b5a8f4bd2b0bb921844373d16893d4b249e5d9be90e2468cda4f02fb956f9e"
    CONFIG = SimConfig(dt=0.1, num_steps=30, num_paths=500, seed=5, scheme="em",
                       initial_value=(10.0,), checkpoints=tuple(range(31)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_bytes_pinned(self, monkeypatch, cpus, n):
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 200)
        monkeypatch.setattr(ensemble, "_BLOCK_NORMALS", 200 * 7)
        cpus.use(n)
        series = simulate_ensemble(cubic_counterexample(), self.CONFIG)
        gone = series.step_index[np.flatnonzero(series.surviving == 0)]
        assert gone[0] == 3 and gone[-1] == self.CONFIG.num_steps
        text = series.to_csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        assert hashlib.sha256(capped.tobytes()).hexdigest() == self.CAPPED_SHA256

    def test_chunk_ends_once_every_path_is_frozen(self, monkeypatch, cpus):
        # every path blows up at step 3, in each chunk's first step block, so
        # each chunk fills that block only: 3 fills, not the 13 of all blocks
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 200)
        monkeypatch.setattr(ensemble, "_BLOCK_NORMALS", 200 * 7)
        fills = []
        fill = ensemble.fill_standard_normals

        def counted(out, seed, path_lo, step0):
            fills.append((path_lo, step0))
            fill(out, seed, path_lo, step0)

        monkeypatch.setattr(ensemble, "fill_standard_normals", counted)
        cpus.use(1)  # the fills come in chunk order only on one thread
        series = simulate_ensemble(cubic_counterexample(), self.CONFIG)
        assert fills == [(0, 0), (200, 0), (400, 0)]
        assert series.surviving[-1] == 0


def bem_example_with_edges():
    """bem-example with a noise that turns infinite above |x| = 2 and a drift
    that jumps by 0.1 at x = -1, where a residual that jumps across zero has
    no root: a few BEM solves fail and some paths blow up through their noise.
    """
    base = bem_example()

    def drift(x, t):
        x = np.asarray(x, dtype=float)
        return base.drift(x, t) - np.where(x <= -1.0, -0.1, 0.0)

    def diffusion(x, t):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > 2.0, np.inf, base.diffusion(x, t))

    return SdeProblem(
        dimension=1, drift=drift, diffusion=diffusion, k1=3.0, c=5.0, kbar=0.0,
        satisfies_linear_growth=False, label="bem-example-edges",
    )


class TestBemScalarBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes, recorded with the
    # full-width scalar Newton and the BEM step written out in the chunk loop:
    # 66 of 700 paths blow up through an infinite noise term and 2 fail their
    # solve, across four 200-path chunks and 7-step blocks.
    CSV_SHA256 = "8b831864f0464d755480033be366792dcc5eb3219f6ced414d16461694645033"
    CAPPED_SHA256 = "ed9db8b1aae5beef167e1c043fd5d408741b35ecf70285e138cd2b2ec5e7db1d"
    CONFIG = SimConfig(dt=0.1, num_steps=30, num_paths=700, seed=12, scheme="bem",
                       initial_value=(1.0,), checkpoints=tuple(range(31)))

    @pytest.mark.parametrize("n", [1, 3])
    def test_bytes_pinned(self, monkeypatch, cpus, n):
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 200)
        monkeypatch.setattr(ensemble, "_BLOCK_NORMALS", 200 * 7)
        cpus.use(n)
        with pytest.warns(UserWarning, match="2/700 paths failed the implicit solve"):
            series = simulate_ensemble(bem_example_with_edges(), self.CONFIG)
        assert series.failed_paths == 2 and series.blown_up[-1] == 68
        text = series.to_csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        assert hashlib.sha256(capped.tobytes()).hexdigest() == self.CAPPED_SHA256


def escape_problem():
    """dx = -x dt + dB, except that beyond |x| = 2.5 the drift is x^3.

    Paths that wander past 2.5 explode within a few steps, so blow-ups are
    scattered over the whole run instead of bunched at its start.
    """
    def drift(x, t):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > 2.5, x**3, -x)

    return SdeProblem(
        dimension=1, drift=drift, diffusion=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
        k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=False, label="escape",
    )


class TestChunkBlowUpBytes:
    # SHA-256 of the CSV and of the capped_mean_abs bytes, recorded with
    # 1024-path chunks, 1024-step blocks and per-chunk frozen and capped
    # arrays. Both runs use the real chunk and step-block sizes, cross both,
    # and end their checkpoints before their last step.
    # EM: 621 blow-ups, recorded from step 7 to step 280, in each of three chunks.
    CONFIG = SimConfig(dt=0.1, num_steps=300, num_paths=8300, seed=31, scheme="em",
                       initial_value=(1.0,), checkpoints=geometric_checkpoints(280, 40))
    CSV_SHA256 = "127e7e6b7053373ed0bcc00374d984dea131dc25a93f69ed44781a03d0a8d39a"
    CAPPED_SHA256 = "2c1b1dc481b01fdeb4c561d2604df166051760e10d1f7a505febafa8bab4868e"
    # BEM: 395 paths blow up through an infinite noise term and 18 fail their solve.
    BEM_CONFIG = SimConfig(dt=0.1, num_steps=260, num_paths=4150, seed=12, scheme="bem",
                           initial_value=(1.0,), checkpoints=geometric_checkpoints(250))
    BEM_CSV_SHA256 = "4ffbf36ed3c32a037179c39705ee221945e9388231eaa47f3ce521074576985c"
    BEM_CAPPED_SHA256 = "8b4f6c3a77a14e874bf14f557f0a90a86de50cb806923a283736e7cce46d111c"

    @staticmethod
    def digests(series):
        capped = np.ascontiguousarray(series.capped_mean_abs, dtype=np.float64)
        return (hashlib.sha256(series.to_csv_text().encode("utf-8")).hexdigest(),
                hashlib.sha256(capped.tobytes()).hexdigest())

    @pytest.mark.parametrize("n", [1, 3])
    def test_em_bytes_pinned(self, cpus, n):
        cpus.use(n)
        series = simulate_ensemble(escape_problem(), self.CONFIG)
        assert series.blown_up[-1] == 621
        first = series.step_index[np.flatnonzero(series.blown_up)[0]]
        assert first < 256 < self.CONFIG.checkpoints[-1] < self.CONFIG.num_steps
        assert self.digests(series) == (self.CSV_SHA256, self.CAPPED_SHA256)

    def test_bem_bytes_pinned(self):
        with pytest.warns(UserWarning, match="18/4150 paths failed the implicit solve"):
            series = simulate_ensemble(bem_example_with_edges(), self.BEM_CONFIG)
        assert series.failed_paths == 18 and series.blown_up[-1] == 413
        assert self.digests(series) == (self.BEM_CSV_SHA256, self.BEM_CAPPED_SHA256)



class TestRunRecord:
    # BEM on bem_example_with_edges: 68 of 700 paths freeze, 2 of them through a failed solve
    CONFIG = TestBemScalarBytes.CONFIG

    def run(self, entry):
        with pytest.warns(UserWarning, match="2/700 paths failed the implicit solve"):
            return entry(bem_example_with_edges(), self.CONFIG)

    def test_from_record_of_the_run_is_simulate_ensemble(self):
        record = self.run(run_ensemble)
        kept = (record.sq.tobytes(), record.gone_from.tobytes(), record.failed.tobytes())
        series = MomentSeries.from_record(record)
        direct = self.run(simulate_ensemble)
        assert series.to_csv_text() == direct.to_csv_text()
        assert series.capped_mean_abs.tobytes() == direct.capped_mean_abs.tobytes()
        assert (series.problem_label, series.config, series.failed_paths) == (
            direct.problem_label, direct.config, direct.failed_paths)
        # the reduction reads the record and writes none of it
        assert (record.sq.tobytes(), record.gone_from.tobytes(), record.failed.tobytes()) == kept

    def test_record_holds_the_run_arrays(self):
        record = self.run(run_ensemble)
        n_ck = len(self.CONFIG.checkpoints)
        assert isinstance(record, RunRecord)
        assert (record.problem_label, record.config) == ("bem-example-edges", self.CONFIG)
        assert record.sq.shape == (n_ck, 700) and record.sq.dtype == np.float64
        assert record.gone_from.shape == record.failed.shape == (700,)
        assert record.failed.dtype == bool and int(record.failed.sum()) == 2
        gone = record.gone_from < n_ck
        assert int(gone.sum()) == 68 and gone[record.failed].all()
        # a frozen path keeps the norm it froze with at every later checkpoint
        for p in np.flatnonzero(gone):
            i = record.gone_from[p]
            assert (record.sq[i:, p] == record.sq[i, p]).all() or np.isnan(record.sq[i:, p]).all()

    def test_a_hand_made_record_reduces_to_its_own_statistics(self):
        # from_record reads only the record: a hand-made one gives its own statistics
        cfg = SimConfig(dt=0.5, num_steps=2, num_paths=3, seed=0, scheme="em",
                        initial_value=(1.0,), checkpoints=(0, 1, 2))
        sq = np.array([[1.0, 1.0, 1.0], [4.0, 9.0, 1e30], [16.0, 9.0, 1e30]])
        record = RunRecord("hand-made", cfg, sq, np.array([3, 2, 1]), np.zeros(3, dtype=bool))
        series = MomentSeries.from_record(record)
        assert series.surviving.tolist() == [3, 2, 1]
        assert series.blown_up.tolist() == [0, 1, 2]
        assert series.mean_square.tolist() == [1.0, 6.5, 16.0]
        assert series.std_error.tolist() == [0.0, 2.5, 0.0]
        assert series.capped_mean_abs.tolist() == [1.0, (2.0 + 3.0 + 1e12) / 3, (4.0 + 3.0 + 1e12) / 3]
        assert series.time.tolist() == [0.0, 0.5, 1.0] and series.problem_label == "hand-made"


class TestWarningLocation:
    # the 1/K1 warning of check_decay_dt and the failed-solve warning each
    # point at the caller of whichever public function ran the ensemble
    @pytest.mark.parametrize("entry", [run_ensemble, simulate_ensemble],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("case", ["decay-dt", "failed-solve"])
    def test_points_at_the_caller(self, entry, case):
        if case == "decay-dt":
            problem, match = problem_from_label("linear", k1=20.0), "1/K1"
            cfg = SimConfig(dt=0.1, num_steps=3, num_paths=4, seed=1, scheme="bem",
                            initial_value=(1.0,))
        else:
            problem, match = bem_example_with_edges(), "2/700 paths failed the implicit solve"
            cfg = TestBemScalarBytes.CONFIG
        with pytest.warns(UserWarning, match=match) as caught:
            entry(problem, cfg)
        assert [w.filename for w in caught] == [__file__]

EVERY_STEP_RUN = SimConfig(dt=0.01, num_steps=100, num_paths=16_000, seed=3, scheme="em",
                           initial_value=(1.0,), checkpoints=tuple(range(101)))


def every_step_run_peak():
    """The run's series, the tracemalloc peak of the run, its squared-norm bytes
    and one chunk's noise-block bytes."""
    cfg = EVERY_STEP_RUN
    sq_bytes = 101 * 16_000 * 8
    steps_per_block = ensemble._BLOCK_NORMALS // ensemble._CHUNK_PATHS
    noise_bytes = min(steps_per_block, 100) * ensemble._CHUNK_PATHS * 8
    tracemalloc.start()
    try:
        series = simulate_ensemble(linear_example(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(series.surviving == cfg.num_paths)
    return peak, sq_bytes, noise_bytes


def test_every_step_run_keeps_one_checkpoint_array(cpus):
    # the squared norms of every path at every checkpoint are the one array a
    # run must hold; frozen masks and capped norms are derived from them
    cpus.use(1)
    peak, sq_bytes, noise_bytes = every_step_run_peak()
    assert peak < 1.5 * sq_bytes + noise_bytes, (peak, sq_bytes, noise_bytes)


@pytest.mark.parametrize("n", [2, 4])
def test_each_thread_adds_one_noise_block(cpus, n):
    # four chunks on n threads: each running chunk holds its own noise block
    cpus.use(n)
    peak, sq_bytes, noise_bytes = every_step_run_peak()
    assert len(cpus.idents) > 1
    assert peak < 1.5 * sq_bytes + n * noise_bytes, (peak, sq_bytes, noise_bytes)


class TestSimulateEnsemble:
    def test_static_problem_exact_moments(self):
        cfg = SimConfig(dt=0.1, num_steps=50, num_paths=32, seed=3, scheme="em",
                        initial_value=(3.0,))
        series = simulate_ensemble(constant_problem(0.0), cfg)
        np.testing.assert_array_equal(series.mean_square, 9.0)
        np.testing.assert_array_equal(series.std_error, 0.0)
        np.testing.assert_array_equal(series.surviving, 32)
        np.testing.assert_array_equal(series.blown_up, 0)
        np.testing.assert_array_equal(series.capped_mean_abs, 3.0)

    def test_linear_tracks_exact_law(self):
        cfg = SimConfig(dt=0.1, num_steps=2000, num_paths=500, seed=42, scheme="em",
                        initial_value=(1.0,))
        series = simulate_ensemble(linear_example(), cfg)
        for i in range(len(series)):
            exact = exact_linear_mean_square(1.0, float(series.time[i]))
            slack = 4.0 * series.std_error[i]
            assert abs(series.mean_square[i] - exact) <= slack, f"k={series.step_index[i]}"

    def test_reproducible_and_worker_invariant(self, monkeypatch, cpus):
        cfg = SimConfig(dt=0.1, num_steps=500, num_paths=600, seed=11, scheme="em",
                        initial_value=(1.0,))
        lin = linear_example()
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 100)  # six chunks
        runs = []
        for n in (1, 1, 4, 16):
            cpus.use(n)
            runs.append(simulate_ensemble(lin, cfg))
            assert (len(cpus.idents) > 1) == (n > 1)
        s1, s2, s3, s4 = runs
        assert s1.to_csv_text() == s2.to_csv_text() == s3.to_csv_text() == s4.to_csv_text()
        np.testing.assert_array_equal(s1.mean_square, s4.mean_square)
        np.testing.assert_array_equal(s1.capped_mean_abs, s4.capped_mean_abs)

    @pytest.mark.parametrize("n,chunks,pool", [(1, 3, None), (2, 3, 2), (16, 3, 3), (4, 1, None)])
    def test_thread_count_is_cpus_up_to_chunks(self, monkeypatch, cpus, n, chunks, pool):
        pools = []
        executor = concurrent.futures.ThreadPoolExecutor

        def spy(max_workers):
            pools.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(ensemble, "_CHUNK_PATHS", 100)
        cfg = SimConfig(dt=0.1, num_steps=20, num_paths=100 * chunks - 50, seed=2, scheme="em",
                        initial_value=(1.0,))
        cpus.use(n)
        simulate_ensemble(linear_example(), cfg)
        assert pools == ([] if pool is None else [pool])
        if pool is None:  # the chunks ran in order on the calling thread
            assert cpus.idents == {threading.get_ident()}

    def test_usable_cpus_are_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert ensemble._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert ensemble._usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
        assert ensemble._usable_cpus() == 1

    def test_cap_whose_square_overflows(self):
        # 1e200**2 overflows a float; the run must match a cap nothing reaches
        kwargs = dict(dt=0.1, num_steps=100, num_paths=50, seed=4, scheme="em",
                      initial_value=(1.0,))
        huge = simulate_ensemble(linear_example(), SimConfig(blow_up_cap=1e200, **kwargs))
        default = simulate_ensemble(linear_example(), SimConfig(**kwargs))
        assert huge.to_csv_text() == default.to_csv_text()

    def test_cap_whose_square_overflows_still_blows_up(self):
        cfg = SimConfig(dt=0.1, num_steps=200, num_paths=20, seed=1, scheme="em",
                        initial_value=(5.0,), blow_up_cap=1e300)
        record = run_ensemble(cubic_counterexample(), cfg)
        sq = record.sq
        frozen = record.gone_from <= np.arange(len(sq))[:, None]
        capped = np.minimum(np.sqrt(sq), cfg.blow_up_cap)
        assert frozen[-1].all() and not record.failed.any()
        np.testing.assert_array_equal(capped[-1], 1e300)

    def test_std_error_near_a_large_cap(self):
        # survivors near 1e300 square to ~1e600: the plain sum of squared
        # deviations overflows, the scaled one does not
        cfg = SimConfig(dt=0.1, num_steps=20, num_paths=100, seed=1, scheme="em",
                        initial_value=(5.0,), blow_up_cap=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            record = run_ensemble(cubic_counterexample(), cfg)
            series = MomentSeries.from_record(record)
        sq = record.sq
        frozen = record.gone_from <= np.arange(len(sq))[:, None]
        checked = 0
        for i in range(len(series)):
            vals = sq[i][~frozen[i]]
            if vals.size < 2:
                continue
            scale = vals.max()
            expected = scale * np.std(vals / scale, ddof=1) / math.sqrt(vals.size)
            assert series.std_error[i] == pytest.approx(expected, rel=1e-12)
            checked += 1
        assert checked > 0
        k6 = list(series.step_index).index(6)
        assert series.mean_square[k6] > 1e200 and math.isfinite(series.std_error[k6])

    def test_mean_square_near_the_float_maximum(self):
        # each survivor's norm2 is 1.44e308: the plain sum of two overflows,
        # the scaled one does not
        cfg = SimConfig(dt=0.1, num_steps=5, num_paths=2, seed=1, scheme="em",
                        initial_value=(1.2e154,), blow_up_cap=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = simulate_ensemble(constant_problem(0.0), cfg)
        np.testing.assert_array_equal(series.mean_square, 1.2e154**2)
        np.testing.assert_array_equal(series.std_error, 0.0)
        np.testing.assert_array_equal(series.surviving, 2)

    def test_capped_mean_near_the_float_maximum(self):
        # both paths blow up and sit at a cap of 1e308: the plain sum of their
        # capped norms overflows, the scaled one does not
        cfg = SimConfig(dt=0.1, num_steps=30, num_paths=2, seed=1, scheme="em",
                        initial_value=(5.0,), blow_up_cap=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = simulate_ensemble(cubic_counterexample(), cfg)
        assert series.blown_up[-1] == 2
        assert series.capped_mean_abs[-1] == 1e308
        assert np.all(np.isfinite(series.capped_mean_abs))

    def test_nan_state_blows_up(self):
        # the drift turns NaN, never inf, once |x| > 1.5: a NaN norm must blow
        # the path up even when no other path passes the cap in that step
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.where(np.abs(x) > 1.5, np.nan, -np.asarray(x, dtype=float)),
            diffusion=lambda x, t: np.ones_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="nan-drift",
        )
        cfg = SimConfig(dt=0.1, num_steps=40, num_paths=30, seed=6, scheme="em",
                        initial_value=(1.0,), checkpoints=tuple(range(41)))
        series = simulate_ensemble(p, cfg)
        expected = np.zeros(41, dtype=int)
        for path in range(30):
            y = 1.0
            for k in range(40):
                y = y - (np.nan if abs(y) > 1.5 else y) * 0.1 + brownian_increment(6, path, k, 0.1)
                if not math.isfinite(y):
                    expected[k + 1:] += 1
                    break
        assert 0 < expected[-1] < 30
        np.testing.assert_array_equal(series.blown_up, expected)

    def test_nan_state_counts_at_the_cap_in_the_capped_mean(self):
        # a path whose state turns NaN is blown up and must count at the cap,
        # not make the capped mean NaN at every later checkpoint
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.where(x > 1.5, np.nan, -x) / (1.0 + t),
            diffusion=lambda x, t: np.float64(1.0),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="nan-drift",
        )
        cfg = SimConfig(dt=0.1, num_steps=50, num_paths=200, seed=1, scheme="em",
                        initial_value=(1.0,))
        record = run_ensemble(p, cfg)
        series = MomentSeries.from_record(record)
        sq = record.sq
        assert 0 < series.blown_up[-1] < 200 and np.isnan(sq[-1]).any()
        assert np.all(np.isfinite(series.capped_mean_abs))
        for i in range(len(series)):
            capped = np.where(np.isnan(sq[i]), cfg.blow_up_cap, np.sqrt(sq[i]))
            assert series.capped_mean_abs[i] == np.minimum(capped, cfg.blow_up_cap).mean()

    def test_path_ranges_statistically_indistinguishable(self):
        cfg = SimConfig(dt=0.1, num_steps=400, num_paths=2000, seed=77, scheme="em",
                        initial_value=(1.0,), checkpoints=(0, 400))
        sq = run_ensemble(linear_example(), cfg).sq
        # pre-registered seed; Welch test on the final-checkpoint squares
        result = stats.ttest_ind(sq[-1, :1000], sq[-1, 1000:], equal_var=False)
        assert result.pvalue > 0.05

    def test_blow_up_freeze_and_accounting(self):
        cfg = SimConfig(dt=0.1, num_steps=200, num_paths=100, seed=1, scheme="em",
                        initial_value=(5.0,))
        series = simulate_ensemble(cubic_counterexample(), cfg)
        assert series.blown_up[-1] == 100
        assert np.all(np.diff(series.blown_up) >= 0)
        np.testing.assert_array_equal(series.surviving + series.blown_up, 100)
        # all blown: surviving-path stats are undefined, capped mean sits at the cap
        assert math.isnan(series.mean_square[-1])
        assert series.capped_mean_abs[-1] == cfg.blow_up_cap
        first_blow = np.flatnonzero(series.blown_up > 0)[0]
        capped_tail = series.capped_mean_abs[first_blow:]
        assert np.all(np.diff(capped_tail) >= 0)

    def test_zero_noise_matches_gamma_products(self):
        dt = 0.1
        cfg = SimConfig(dt=dt, num_steps=300, num_paths=4, seed=5, scheme="em",
                        initial_value=(2.0,), checkpoints=(0, 10, 100, 300))
        series = simulate_ensemble(zero_noise_linear(), cfg)
        np.testing.assert_array_equal(series.std_error, 0.0)
        for i, k in enumerate(series.step_index):
            if k == 0:
                continue
            params = GammaProductParams(a=0, b=int(k) - 1, alpha=1.0, beta=0.0, delta=dt)
            expected = product_direct(params) ** 2 * 4.0
            assert series.mean_square[i] == pytest.approx(expected, rel=1e-12)
            expected_gamma = product_via_gamma(params) ** 2 * 4.0
            assert series.mean_square[i] == pytest.approx(expected_gamma, rel=1e-10)

    def test_bem_linear_decays(self):
        cfg = SimConfig(dt=0.1, num_steps=1000, num_paths=200, seed=21, scheme="bem",
                        initial_value=(1.0,))
        series = simulate_ensemble(linear_example(), cfg)
        assert series.failed_paths == 0
        assert series.blown_up[-1] == 0
        assert series.mean_square[-1] < 0.05  # exact law gives ~0.0099 at t=100

    def test_bem_dt_precondition(self):
        cfg = SimConfig(dt=0.5, num_steps=10, num_paths=4, seed=1, scheme="bem",
                        initial_value=(1.0,))
        with pytest.raises(ValueError, match="Kbar"):
            simulate_ensemble(cubic_counterexample(), cfg)

    @pytest.mark.parametrize("implicit", [False, True])
    def test_the_record_decides_whether_dt_is_checked(self, monkeypatch, implicit):
        # EM's kernel as a new scheme: only an implicit record's dt is checked
        scheme = ensemble.Scheme("em-copy", SCHEMES["em"].step, implicit=implicit, envelope=None)
        monkeypatch.setitem(SCHEMES, "em-copy", scheme)
        cfg = SimConfig(dt=0.5, num_steps=10, num_paths=4, seed=1, scheme="em-copy",
                        initial_value=(1.0,))
        if implicit:
            with pytest.raises(ValueError, match="Kbar"):
                simulate_ensemble(cubic_counterexample(), cfg)
        else:
            series = simulate_ensemble(cubic_counterexample(), cfg)
            em = simulate_ensemble(cubic_counterexample(), dataclasses.replace(cfg, scheme="em"))
            assert series.to_csv_text() == em.to_csv_text()

    def test_dimension_mismatch(self):
        cfg = SimConfig(dt=0.1, num_steps=10, num_paths=4, seed=1, scheme="em",
                        initial_value=(1.0, 2.0))
        with pytest.raises(ValueError, match="initial_value"):
            simulate_ensemble(linear_example(), cfg)

    @pytest.mark.parametrize("scheme", ["em", "bem"])
    def test_drift_of_the_wrong_shape_is_refused(self, scheme):
        # summed over the state axis, the drift is (m,) for an (m, 1) block:
        # EM broadcast it into an (m, m) state and reported every path blown
        # up, and BEM failed inside the solve
        p = dataclasses.replace(linear_example(), label="row-sum",
                                drift=lambda x, t: np.sum(-x, axis=-1) / (1 + t))
        cfg = SimConfig(dt=0.1, num_steps=50, num_paths=300, seed=1, scheme=scheme,
                        initial_value=(1.0,))
        with pytest.raises(ValueError, match=r"^drift of problem 'row-sum' returned shape "
                                             r"\(2,\) for a \(2, 1\) block"):
            simulate_ensemble(p, cfg)

    @pytest.mark.parametrize("scheme", ["em", "bem"])
    def test_diffusion_of_the_wrong_shape_is_refused(self, scheme):
        p = dataclasses.replace(cubic_rotation_2d(), label="wide-noise",
                                diffusion=lambda x, t: np.ones((len(x), 3)))
        cfg = SimConfig(dt=0.1, num_steps=5, num_paths=4, seed=1, scheme=scheme,
                        initial_value=(1.0, 2.0))
        with pytest.raises(ValueError, match=r"^diffusion of problem 'wide-noise' returned "
                                             r"shape \(3, 3\) for a \(3, 2\) block"):
            simulate_ensemble(p, cfg)

    @pytest.mark.parametrize("scheme", ["em", "bem"])
    def test_constant_drift_returned_as_one_float_runs(self, scheme):
        # one float broadcasts to every block, so the shape check lets it through
        p = dataclasses.replace(constant_problem(0.0), drift=lambda x, t: -1.0)
        cfg = SimConfig(dt=0.1, num_steps=5, num_paths=3, seed=1, scheme=scheme,
                        initial_value=(2.0,), checkpoints=(0, 5))
        series = simulate_ensemble(p, cfg)
        np.testing.assert_allclose(series.mean_square, [4.0, 2.25], rtol=1e-12)

    def test_solver_failures_abort(self):
        # x - dt x^2 - b has no root for b large; every path fails immediately
        p = SdeProblem(
            dimension=1,
            drift=lambda x, t: np.asarray(x, dtype=float) ** 2,
            diffusion=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            k1=1.0, c=1.0, kbar=-1.0, satisfies_linear_growth=False, label="no-root",
        )
        cfg = SimConfig(dt=0.5, num_steps=5, num_paths=8, seed=1, scheme="bem",
                        initial_value=(10.0,))
        with pytest.raises(RuntimeError, match="failed the implicit solve"):
            simulate_ensemble(p, cfg)

    def test_block_written_drift_whose_solve_fails_aborts(self):
        # from x0 = 1e30 Newton runs out of iterations, so the lanes go to the
        # bisection, which hands the drift (1, 1) blocks its axis-1 sum can read
        def drift(x, t):
            return -(3.0 * x + np.sum(x**3, axis=1, keepdims=True)) / (1.0 + t)

        p = dataclasses.replace(cubic_counterexample(), drift=drift, label="block-cubic")
        cfg = SimConfig(dt=0.1, num_steps=3, num_paths=4, seed=1, scheme="bem",
                        initial_value=(1e30,), blow_up_cap=1e300)
        with pytest.raises(RuntimeError, match="4/4 paths failed the implicit solve"):
            simulate_ensemble(p, cfg)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_bem_nonfinite_noise_blows_up(self, dimension):
        # diffusion turns infinite once |x| > 1.5: the path blows up, in every
        # dimension, and is not a solver failure
        p = SdeProblem(
            dimension=dimension,
            drift=lambda x, t: -np.asarray(x, dtype=float) / (1.0 + t),
            diffusion=lambda x, t: np.where(np.abs(np.asarray(x, dtype=float)) > 1.5,
                                            np.inf, 1.0),
            k1=1.0, c=1.0, kbar=0.0, satisfies_linear_growth=True, label="inf-noise",
        )
        cfg = SimConfig(dt=0.1, num_steps=50, num_paths=20, seed=3, scheme="bem",
                        initial_value=(1.0,) * dimension)
        series = simulate_ensemble(p, cfg)
        assert series.failed_paths == 0
        assert series.blown_up[-1] == 13
        assert np.all(np.diff(series.blown_up) >= 0)


class TestSerialization:
    @pytest.fixture()
    def series(self):
        cfg = SimConfig(dt=0.1, num_steps=60, num_paths=16, seed=2, scheme="em",
                        initial_value=(1.0,), checkpoints=(0, 30, 60))
        return simulate_ensemble(linear_example(), cfg)

    def test_csv_round_trip(self, series, tmp_path):
        path = tmp_path / "series.csv"
        series.write_csv(path)
        back = MomentSeries.from_csv(path)
        np.testing.assert_array_equal(back.step_index, series.step_index)
        np.testing.assert_array_equal(back.time, series.time)
        np.testing.assert_array_equal(back.mean_square, series.mean_square)
        np.testing.assert_array_equal(back.std_error, series.std_error)
        np.testing.assert_array_equal(back.surviving, series.surviving)
        np.testing.assert_array_equal(back.blown_up, series.blown_up)

    def test_csv_format(self, series):
        text = series.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(series)
        assert text.endswith("\n")

    def test_config_sidecar(self, series, tmp_path):
        path = tmp_path / "config.json"
        series.write_config_json(path)
        data = json.loads(path.read_text())
        assert data["problem"] == "linear"
        assert data["scheme"] == "em"
        assert SimConfig.from_json_dict(data) == series.config

    def test_config_sidecar_needs_a_config(self, series, tmp_path):
        path = tmp_path / "series.csv"
        series.write_csv(path)
        with pytest.raises(ValueError, match="no attached config"):
            MomentSeries.from_csv(path).write_config_json(tmp_path / "config.json")
        assert not (tmp_path / "config.json").exists()

    def test_from_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="line 1"):
            MomentSeries.from_csv(path)

    def test_from_csv_bad_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValueError, match="line 2"):
            MomentSeries.from_csv(path)

    def test_from_csv_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,0.0,1.0,0.0,4,0\nx,0.1,1.0,0.0,4,0\n")
        with pytest.raises(ValueError, match="line 3"):
            MomentSeries.from_csv(path)

    @pytest.mark.parametrize("rows,line,message", [
        (["-1,0.0,1.0,0.0,4,0"], 2, "k must be >= 0, got -1"),
        (["0,0.0,1.0,0.0,4,0", "0,0.1,1.0,0.0,4,0"], 3, "k must strictly increase, got 0 after 0"),
        (["0,0.0,1.0,0.0,4,0", "2,0.2,1.0,0.0,4,0", "1,0.1,1.0,0.0,4,0"], 4,
         "k must strictly increase, got 1 after 2"),
        (["0,-0.1,1.0,0.0,4,0"], 2, "t must be finite and >= 0, got -0.1"),
        (["0,0.0,1.0,0.0,4,0", "1,inf,1.0,0.0,4,0"], 3, "t must be finite and >= 0, got inf"),
        (["0,nan,1.0,0.0,4,0"], 2, "t must be finite and >= 0, got nan"),
        (["0,0.2,1.0,0.0,4,0", "1,0.1,1.0,0.0,4,0"], 3, "t must not decrease, got 0.1 after 0.2"),
        (["0,0.0,1.0,0.0,-1,5"], 2, "surviving and blown_up must be >= 0, got -1 and 5"),
        (["0,0.0,1.0,0.0,5,-1"], 2, "surviving and blown_up must be >= 0, got 5 and -1"),
        (["0,0.0,1.0,0.0,4,0", "1,0.1,1.0,0.0,3,0"], 3,
         "surviving \\+ blown_up must be the same on every row, got 3 after 4"),
        (["100000000000000000000,1.0,0.5,0.0,10,0"], 2,
         "k must be <= 9223372036854775807, got 100000000000000000000"),
        (["0,0.0,1.0,0.0,9223372036854775808,0"], 2,
         "surviving must be <= 9223372036854775807, got 9223372036854775808"),
        (["0,0.0,1.0,0.0,0,9223372036854775808"], 2,
         "blown_up must be <= 9223372036854775807, got 9223372036854775808"),
    ])
    def test_from_csv_column_rules(self, tmp_path, rows, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"bad.csv: line {line}: {message}$"):
            MomentSeries.from_csv(path)

    def test_from_csv_accepts_the_int64_maximum(self, tmp_path):
        path = tmp_path / "m.csv"
        big = 2**63 - 1
        path.write_text(CSV_HEADER + f"\n0,0.0,1.0,0.0,{big},0\n{big},1.0,0.5,0.0,0,{big}\n")
        series = MomentSeries.from_csv(path)
        assert series.step_index.tolist() == [0, big]
        assert series.surviving.tolist() == [big, 0] and series.blown_up.tolist() == [0, big]

    def test_from_csv_accepts_repeated_times_and_any_moments(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_HEADER + "\n0,0.0,1.0,0.0,4,0\n3,0.0,nan,nan,0,4\n7,0.5,-1.0,inf,1,3\n")
        series = MomentSeries.from_csv(path)
        assert series.step_index.tolist() == [0, 3, 7] and series.time.tolist() == [0.0, 0.0, 0.5]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(problem=linear_example(), scheme="em", dt=1e308, steps=3, paths=2, seed=1,
             x0=1.0, count=4, cap=1e12)  # a last-step time beyond the floats
    @given(problem=st.sampled_from([linear_example(), cubic_counterexample(), bem_example()]),
           scheme=st.sampled_from(["em", "bem"]),
           dt=st.floats(1e-3, 0.6) | st.floats(1e-300, 1e308),
           steps=st.integers(1, 20), paths=st.integers(1, 8), seed=st.integers(0, 2**64),
           x0=st.floats(-10, 10), count=st.integers(2, 25), cap=st.floats(11, 1e308))
    def test_every_csv_simulate_writes_parses(self, problem, scheme, dt, steps, paths, seed,
                                              x0, count, cap):
        try:
            config = SimConfig(dt=dt, num_steps=steps, num_paths=paths, seed=seed, scheme=scheme,
                               initial_value=(x0,), checkpoints=geometric_checkpoints(steps, count),
                               blow_up_cap=cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the 1/K1 and solve-failure warnings
                series = simulate_ensemble(problem, config)
        except (ValueError, RuntimeError):
            return  # a config or a run the engine refuses writes no CSV
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.csv"
            series.write_csv(path)
            parsed = MomentSeries.from_csv(path)
        assert parsed.to_csv_text() == series.to_csv_text()


def cubic_rotation_2d():
    """dx = (-(1+|x|^2) x + 0.5 R x)/(1+t) dt + 2 sin(x)/(1+t) dB in R^2.

    R is the quarter turn, so the drift is minus a convex gradient plus a skew
    part: one-sided Lipschitz with Kbar = 0, and every Newton solve iterates.
    Written elementwise (no matmul), so a path's values never depend on how
    many paths share the drift call.
    """
    def drift(x, t):
        x = np.asarray(x, dtype=float)
        skew = np.stack([-x[..., 1], x[..., 0]], axis=-1)
        return (-(1.0 + np.sum(x * x, axis=-1, keepdims=True)) * x + 0.5 * skew) / (1.0 + t)

    def diffusion(x, t):
        return 2.0 * np.sin(np.asarray(x, dtype=float)) / (1.0 + t)

    return SdeProblem(
        dimension=2, drift=drift, diffusion=diffusion,
        k1=1.0, c=2.0, kbar=0.0, satisfies_linear_growth=False, label="cubic-rot2d",
    )


def counted_drift(problem):
    """problem with a drift that appends to the returned list on every call."""
    calls = []

    def drift(x, t):
        calls.append(1)
        return problem.drift(x, t)

    return dataclasses.replace(problem, drift=drift), calls


class TestBem2DBytes:
    # SHA-256 of the CSV below, recorded with the per-path n-d solver before
    # the solve was batched over paths; the batched solver must reproduce it.
    CSV_SHA256 = "d83b48768a68c4b954bce501f3acdcb1685035617c1103636c4f4b8f21a802ce"

    def test_csv_bytes_pinned(self):
        cfg = SimConfig(dt=0.25, num_steps=30, num_paths=300, seed=17, scheme="bem",
                        initial_value=(1.5, -1.0), checkpoints=tuple(range(31)))
        problem, calls = counted_drift(cubic_rotation_2d())
        series = simulate_ensemble(problem, cfg)
        assert series.failed_paths == 0
        text = series.to_csv_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.CSV_SHA256
        assert len(calls) == 145  # the solver's work, _check_output_shapes's one call included


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_bem_2d_workload_matches_its_golden_hashes(tmp_path, monkeypatch):
    # the benchmark's bem-2d workload at the pinned seed, run in-process: the
    # cheapest workload and the only one on the n-d implicit solve
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__}
    if versions != golden["versions"]:
        pytest.skip(f"hashes recorded under {golden['versions']}, running {versions}")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    problem, config = workloads.WORKLOADS["bem-2d"].build(golden["seed"])
    problem, calls = counted_drift(problem)
    series = simulate_ensemble(problem, config)
    series.write_csv(tmp_path / "bem-2d.csv")
    series.write_config_json(tmp_path / "bem-2d_config.json")
    digests = {"csv": workloads.sha256(tmp_path / "bem-2d.csv"),
               "config": workloads.sha256(tmp_path / "bem-2d_config.json")}
    assert digests == golden["hashes"]["bem-2d"]
    assert len(calls) == 1218  # the solver's work, _check_output_shapes's one call included
