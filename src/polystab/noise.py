"""Every random draw of the package: one counter-based generator, numpy's Philox.

Two streams come from it, each a pure function of its key and counter, so a
value never depends on what was drawn before it or on which thread drew it
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).

- The Brownian stream (v1), for the ensemble: the standard normal of path p
  at step k has the key (seed, p) and the counter k, one Philox block per
  step, and is ndtri of word 0 of that block. fill_standard_normals fills a
  block of paths and steps, brownian_increment gives one increment. Its
  bytes are pinned.
- The uniform draw, for sampled checks such as the condition audit's state
  pairs and the gamma identity's samples: uniforms(seed, stream, count) is
  count floats in [0, 1) from the key (seed, stream) and the counters
  2**192 + i, four words per block, so its top counter word keeps it apart
  from every Brownian step below 2**192.

The seed is used mod 2**64. Every generator is built as Philox(0) and then
set to its key and counter through its state: numpy's Philox(key=,
counter=) also seeds a throwaway SeedSequence from the OS's entropy, and
this way no draw reads any.

The generator is numpy's Philox and the inverse normal CDF scipy's ndtri
ufunc, which _load_compiled takes from the compiled numpy.random._philox and
scipy.special._ufuncs without running either package's init; the public
imports run only where that fails or the package is loaded already. So no
polystab code loads numpy.random's init (mtrand, Generator and four more
bit generators) or scipy.special's.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import sys

import numpy as np

from .checks import integer, positive_real

__all__ = ["fill_standard_normals", "brownian_increment", "uniforms"]

_MASK64 = (1 << 64) - 1
_SCRATCH_WORDS = 2**14  # raw words per grouped normal transform: rows = this // steps
_UNIFORM_COUNTER = 1 << 192  # the uniform draw's first counter: word 3 of the counter is 1


def _load_compiled(package, submodule, name):
    """name from the compiled package.submodule, loaded without running package's init.

    Used for scipy.special._ufuncs.ndtri and numpy.random._philox.Philox.
    scipy.special's init imports scipy's array-API layer, which clones
    numpy's namespace (numpy.f2py, numpy.testing, numpy.ma, ...): about 0.3 s
    and 18 MB of every command's set-up. numpy.random's init loads mtrand,
    Generator and four more bit generators. So the submodule is imported
    under an unexecuted module object of the package, which is then dropped
    from sys.modules again. A later import of the package runs its init as
    usual and reuses the loaded submodule, so its name is this very object.
    None, for the caller's public import, if the package is loaded already
    or the submodule or name is missing. One limit, for both packages: a
    thread that imports the package while this runs (some milliseconds of
    the first import of polystab) could see the unexecuted package module.
    """
    if package in sys.modules:
        return None
    try:
        sys.modules[package] = importlib.util.module_from_spec(importlib.util.find_spec(package))
        try:
            return getattr(importlib.import_module(f"{package}.{submodule}"), name)
        finally:
            del sys.modules[package]
    except (ImportError, AttributeError):
        return None


ndtri = _load_compiled("scipy.special", "_ufuncs", "ndtri")
if ndtri is None:
    from scipy.special import ndtri
Philox = _load_compiled("numpy.random", "_philox", "Philox")
if Philox is None:
    from numpy.random import Philox


def _philox(key0: int, key1: int, counter: int):
    """(generator, state): a Philox at key (key0, key1) and counter with an empty buffer.

    The state is the generator's, as a dict of Python ints, which the state
    setter reads ~2x faster than arrays; a caller re-keys the generator by
    editing it and setting it again. The generator gives the words of
    Philox(key=, counter=), whose first block is at counter + 1.
    """
    bg = Philox(0)  # a seed: no OS entropy is read
    state = bg.state  # buffer empty
    inner = state["state"]
    inner["key"] = [key0 & _MASK64, key1 & _MASK64]
    inner["counter"] = [(counter >> shift) & _MASK64 for shift in (0, 64, 128, 192)]
    state["buffer"] = state["buffer"].tolist()
    bg.state = state
    return bg, state


def fill_standard_normals(out: np.ndarray, seed: int, path_lo: int, step0: int) -> None:
    """Fill out[j, i] with the standard normal for (seed, path_lo + j, step0 + i).

    The v1 stream. One Philox block per step (counter = step index), word 0
    of the block mapped through the inverse normal CDF. One generator serves
    every row: before each row, its key (seed, path_lo + j), counter step0
    and buffer position are set through its state. Word 0 of each row goes
    into a scratch of about _SCRATCH_WORDS words, and each group of rows is
    transformed at once in a contiguous float scratch of the same size that
    is then written to out with one copy. out may therefore be any view,
    such as the transpose of a step-major buffer, whose elements lie far
    apart. A value never depends on the rows or steps it was generated
    with.

    The map is u = (w >> 11) 2**-53 + 2**-54, then ndtri(u). The top 2**11
    of the 2**64 words, those with w >> 11 == 2**53 - 1, round u to exactly
    1.0 and give +inf: probability 2**-53 per normal, and a path that draws
    one blows up. Every other normal lies in [-8.292, 8.126]. The stream's
    bytes are pinned, so this map stays as it is.

    Every path id of the window must fit the Philox key's 64 bits, and every
    step must lie below 2**192, where the uniform draw's counters begin: a
    window that leaves [0, 2**64) or [0, 2**192) is a ValueError that names
    path_lo or step0, checked once per call. An empty window draws nothing.
    """
    m, count = out.shape
    if not 0 <= path_lo <= _MASK64 + 1 - m:
        raise ValueError(
            f"path_lo must lie in [0, 2**64 - {m}] for {m} rows, got {path_lo!r}")
    if not 0 <= step0 <= _UNIFORM_COUNTER - count:
        raise ValueError(
            f"step0 must lie in [0, 2**192 - {count}] for {count} steps, got {step0!r}")
    if not out.size:  # no value to draw; the scratch sizes below divide by count
        return
    bg, state = _philox(seed, path_lo, int(step0))
    inner = state["state"]
    group = max(1, _SCRATCH_WORDS // count)
    # its own scratch, not a uint64 view of out: numpy copies an aliased input
    words = np.empty((min(group, m), count), dtype=np.uint64)
    # the transform runs here, contiguous, rather than on a strided out such
    # as the engine's
    floats = np.empty(words.shape)
    for g0 in range(0, m, group):
        g1 = min(g0 + group, m)
        raw = words[: g1 - g0]
        block = floats[: g1 - g0]
        for j in range(g0, g1):
            inner["key"][1] = (path_lo + j) & _MASK64
            bg.state = state
            raw[j - g0] = bg.random_raw(4 * count)[0::4]
        raw >>= np.uint64(11)
        np.multiply(raw, 2.0**-53, out=block)
        block += 2.0**-54
        ndtri(block, out=block)
        out[g0:g1] = block


def brownian_increment(seed: int, path_id: int, step: int, dt: float) -> float:
    """The Brownian increment dB for (seed mod 2**64, path_id, step): N(0, dt), reproducible.

    path_id must fit the Philox key's 64 bits, and step must lie below
    2**192, where the uniform draw's counters begin.
    """
    seed = integer("seed", seed)
    path_id = integer("path_id", path_id, 0, _MASK64)
    step = integer("step", step, 0, _UNIFORM_COUNTER - 1)
    dt = positive_real("dt", dt)
    out = np.empty((1, 1))
    fill_standard_normals(out, seed, path_id, step)
    return float(out[0, 0]) * math.sqrt(dt)


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """count uniforms in [0, 1) for (seed mod 2**64, stream), as a float array.

    Word i of the draw is word i % 4 of the Philox block at key (seed,
    stream) and counter 2**192 + i // 4 + 1, the words of
    Philox(key=(seed, stream), counter=2**192) in order, and u_i = (w_i >>
    11) 2**-53, the map of numpy's own Generator.random. So a draw's first
    count words are the same at any longer count, and a caller that needs
    independent draws takes them from distinct streams.
    """
    seed = integer("seed", seed)
    stream = integer("stream", stream, 0, _MASK64)
    count = integer("count", count, 0)
    bg, _ = _philox(seed, stream, _UNIFORM_COUNTER)
    words = bg.random_raw(count)
    words >>= np.uint64(11)
    return words * 2.0**-53
