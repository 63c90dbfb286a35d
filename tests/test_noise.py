"""The noise module: the uniform draw's layout, its pinned uses, and what no draw touches."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polystab import gamma, noise, problems
from polystab.ensemble import SimConfig, simulate_ensemble
from polystab.gamma import verify_product_identity
from polystab.noise import brownian_increment, uniforms
from polystab.problems import SdeProblem, audit_conditions, bem_example, linear_example

SRC = str(Path(noise.__file__).resolve().parents[1])


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def philox_words(seed, stream, counter, count):
    """count raw words of numpy's Philox(key=(seed, stream), counter=counter)."""
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    return np.random.Philox(key=key, counter=counter).random_raw(count)


class TestUniforms:
    @pytest.mark.parametrize("seed,stream,count", [
        (0, 0, 1), (0, 5, 2000), (20240331, 0, 4099), (2**64 - 1, 2**64 - 1, 7), (-3, 11, 12),
    ])
    def test_layout_is_generator_random_on_the_documented_philox(self, seed, stream, count):
        key = np.array([seed % 2**64, stream], dtype=np.uint64)
        bits = np.random.Philox(key=key, counter=2**192)
        expected = np.random.Generator(bits).random(count)
        assert uniforms(seed, stream, count).tobytes() == expected.tobytes()

    def test_words_are_the_top_53_bits_of_the_raw_words(self):
        words = philox_words(9, 4, 2**192, 10)
        assert uniforms(9, 4, 10).tolist() == [int(w >> 11) * 2.0**-53 for w in words]

    def test_a_longer_draw_starts_with_a_shorter_one(self):
        whole = uniforms(7, 3, 1001)
        assert whole[:13].tobytes() == uniforms(7, 3, 13).tobytes()
        assert uniforms(7, 3, 0).shape == (0,)

    def test_streams_and_seeds_differ(self):
        base = uniforms(7, 3, 8)
        assert base.dtype == np.float64 and base.shape == (8,)
        assert not np.array_equal(base, uniforms(8, 3, 8))
        assert not np.array_equal(base, uniforms(7, 4, 8))
        assert np.array_equal(base, uniforms(7 + 2**64, 3, 8))  # the seed is used mod 2**64

    def test_range_and_moments(self):
        u = uniforms(1, 0, 200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 4.0 * (1.0 / 12.0 / u.size) ** 0.5

    @pytest.mark.parametrize("kwargs,name", [
        (dict(stream=-1), "stream"), (dict(stream=2**64), "stream"), (dict(stream=1.0), "stream"),
        (dict(count=-1), "count"), (dict(count=True), "count"), (dict(seed=0.5), "seed"),
    ])
    def test_validation(self, kwargs, name):
        args = dict(seed=1, stream=0, count=4)
        args.update(kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            uniforms(**args)


@pytest.mark.parametrize("key0,key1,counter", [
    (0, 0, 0), (5, 2**64 - 1, 2**64 + 3), (2**64 - 1, 7, 2**200 + 5), (3, 4, 2**256 - 1),
])
def test_generator_from_state_gives_the_words_of_philox_key_counter(key0, key1, counter):
    bg, _ = noise._philox(key0, key1, counter)
    assert bg.random_raw(9).tolist() == philox_words(key0, key1, counter, 9).tolist()


class TestPinnedDraws:
    """SHA-256 of the float64 bytes of each use of the uniform draw."""

    # the audit's pairs at half width 100 (the default grid's) for the six
    # default times, stacked in time order, at n = 1 and n = 2
    PAIRS = {
        1: "e73fedeb58d759df13cf780c411b1a251458ade4a7d4611352f069e04f3c9ac2",
        2: "050b2bbdf52b150f8ffcd3bbf23ef53fbdf9b678acb3b50479459a27ac4694bc",
    }
    # verify_product_identity's (a, b, alpha, beta, delta) rows
    SAMPLES = {
        (1000, 20240331): "d3b7305c608d3bf85f5d911d7852fa60009932dd81ba1c2d84ece765d4af66ca",
        (5, 1): "cbb4f9aca130a530c57b491bb7f5e8e36423968c699680583c3f310f7570c21e",
    }

    @pytest.mark.parametrize("dimension", sorted(PAIRS))
    def test_audit_pair_bytes_pinned(self, dimension):
        times = range(len(problems.DEFAULT_AUDIT_TIMES))
        pairs = np.stack([problems._audit_pairs(100.0, dimension, i) for i in times])
        assert pairs.shape == (6, 2, 1000, dimension)
        assert sha256(pairs) == self.PAIRS[dimension]

    @pytest.mark.parametrize("args", sorted(SAMPLES), ids=str)
    def test_identity_sample_bytes_pinned(self, args):
        samples = gamma._identity_samples(*args)
        assert all(type(a) is int and type(b) is int and 0 <= a <= b <= 10_000
                   for a, b, *_ in samples)
        assert sha256(np.array(samples, dtype=float)) == self.SAMPLES[args]

    def test_identity_samples_stay_in_the_box(self):
        samples = np.array(gamma._identity_samples(5000, 7))
        a, b, alpha, beta, delta = samples.T
        assert (0 <= a).all() and (a <= b).all() and (b <= 10_000).all()
        assert (alpha > 0.0).all() and (alpha <= 5.0).all()
        assert (beta >= 0.0).all() and (beta < 10.0).all()
        assert (delta >= 1e-12).all() and (delta < 0.99 / alpha).all()


class EntropyRead(RuntimeError):
    pass


@pytest.fixture
def no_entropy(monkeypatch):
    """Make every read of the OS's entropy raise, as numpy's SeedSequence() does it."""
    def refuse(n):
        raise EntropyRead(f"read {n} bytes of OS entropy")

    monkeypatch.setattr(random, "_urandom", refuse)
    monkeypatch.setattr(os, "urandom", refuse)
    # the patch reaches an unseeded SeedSequence, as in Philox(key=, counter=)
    with pytest.raises(EntropyRead):
        np.random.Philox(key=np.array([1, 2], dtype=np.uint64), counter=3)


def problem_2d():
    def drift(x, t):
        return -(3.0 + np.sum(x * x, axis=1, keepdims=True)) * x / (1.0 + t) ** 2

    def diffusion(x, t):
        return 5.0 * np.sin(x) / (1.0 + t) ** 4

    return SdeProblem(dimension=2, drift=drift, diffusion=diffusion, k1=3.0, c=5.0 * 2**0.5,
                      kbar=0.0, satisfies_linear_growth=False, label="2d")


class TestNoEntropyRead:
    """No draw reads the OS's entropy: each generator is Philox(0), set through its state."""

    def test_em_run(self, no_entropy):
        config = SimConfig(dt=0.1, num_steps=600, num_paths=5000, seed=3, scheme="em",
                           initial_value=(1.0,))
        assert simulate_ensemble(linear_example(), config).surviving[-1] == 5000

    def test_bem_run(self, no_entropy):
        config = SimConfig(dt=0.3, num_steps=30, num_paths=40, seed=3, scheme="bem",
                           initial_value=(2.0,))
        assert simulate_ensemble(bem_example(), config).surviving[-1] == 40
        config = SimConfig(dt=0.3, num_steps=30, num_paths=40, seed=3, scheme="bem",
                           initial_value=(1.0, -0.5))
        assert simulate_ensemble(problem_2d(), config).surviving[-1] == 40

    def test_audit(self, no_entropy):
        assert audit_conditions(problem_2d()).one_sided_lipschitz.passed

    def test_verify_product_identity(self, no_entropy):
        assert verify_product_identity(50, 9).passed

    def test_brownian_increment_and_uniforms(self, no_entropy):
        assert np.isfinite(brownian_increment(1, 2, 3, 0.1))
        assert uniforms(1, 2, 3).shape == (3,)


NO_NUMPY_RANDOM = """
import contextlib, io, json, sys, tempfile
import numpy as np
from polystab import (SdeProblem, SimConfig, audit_conditions, cli, simulate_ensemble,
                      verify_product_identity)

def drift(x, t):
    return -(3.0 + np.sum(x * x, axis=1, keepdims=True)) * x / (1.0 + t) ** 2

def diffusion(x, t):
    return 5.0 * np.sin(x) / (1.0 + t) ** 4

problem = SdeProblem(dimension=2, drift=drift, diffusion=diffusion, k1=3.0, c=8.0, kbar=0.0,
                     satisfies_linear_growth=False, label="2d")
audit = audit_conditions(problem)
config = SimConfig(dt=0.3, num_steps=20, num_paths=8, seed=3, scheme="bem",
                   initial_value=(1.0, -0.5))
series = simulate_ensemble(problem, config)
identity = verify_product_identity(5, 1)
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["simulate", "--problem", "linear", "--scheme", "em", "--dt", "0.1",
                     "--steps", "20", "--paths", "4", "--seed", "1", "--out-dir", out])
print(json.dumps({
    "numpy.random": "numpy.random" in sys.modules,
    "lipschitz": audit.one_sided_lipschitz.passed,
    "surviving": int(series.surviving[-1]),
    "identity": identity.passed,
    "code": code,
}))
"""


def test_audit_run_identity_and_cli_never_load_numpy_random():
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "numpy.random": False, "lipschitz": True, "surviving": 8, "identity": True, "code": 0,
    }
