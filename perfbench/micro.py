"""Kernel-layer microbenchmarks on the shapes of benchmarks/bench_kernels.py.

Times each kernel of the active lane (`permword.kernels`) and reports the
median, the bytes each call moves and its operations per byte. Bytes and
operations are computed from the shapes, not measured. When the compiled
lane is importable, its outputs must equal the pure lane's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from permword import kernels
from permword.kernels import pure

try:
    from permword import _ckernels
except ImportError:
    _ckernels = None

REPEATS = 5
ADJACENCY_CALLS = 200


def _cases(rng: np.random.Generator):
    n, walks, steps = 100, 512, 400
    tables = np.stack([rng.permutation(n) for _ in range(5)]).astype(np.int32)
    symbols = rng.integers(0, 5, size=(walks, steps))
    points = np.arange(n, dtype=np.int32)

    size, atoms, conv_steps = 20_160, 12, 50  # |Alt(8)|
    idx = np.stack([rng.permutation(size) for _ in range(atoms)]).astype(np.int32)
    probs = rng.dirichlet(np.ones(atoms))
    dist = rng.dirichlet(np.ones(size))

    verts, degree = 12_144, 4  # injective 3-tuples at n = 24
    nbrs = np.stack([rng.permutation(verts) for _ in range(degree)]).astype(np.int32)
    f = rng.standard_normal(verts)

    def adjacency(mod):
        out = f
        for _ in range(ADJACENCY_CALLS):
            out = mod.adjacency_apply(out, nbrs)
        return out

    gathers = walks * steps * n
    fmas = conv_steps * atoms * size
    adds = ADJACENCY_CALLS * degree * verts
    # (name, run(module), operations, bytes): a gather reads a table entry
    # and a position and writes a position; a convolution term reads an
    # index and a source value; an adjacency term reads a neighbour index
    # and a value, and each call writes its output
    return (
        ("track_points", lambda mod: mod.track_points(tables, symbols, points),
         gathers, gathers * 12 + walks * steps * 8),
        ("convolve_steps", lambda mod: mod.convolve_steps(dist, idx, probs, conv_steps),
         fmas, fmas * 12 + conv_steps * size * 8),
        ("adjacency_apply", adjacency, adds, adds * 12 + ADJACENCY_CALLS * verts * 8),
    )


def run(seed: int) -> dict[str, float]:
    """Per-kernel seconds, computed bytes and computed ops/byte; raises on a lane mismatch."""
    out: dict[str, float] = {}
    for name, fn, ops, nbytes in _cases(np.random.default_rng([seed, 99])):
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(kernels)
            times.append(time.perf_counter() - t0)
        if _ckernels is not None and not np.array_equal(fn(pure), fn(_ckernels)):
            raise RuntimeError(f"compiled and pure lanes differ on {name}")
        out[f"kernels.micro.{name}.s"] = statistics.median(times)
        out[f"kernels.micro.{name}.bytes_computed"] = nbytes
        out[f"kernels.micro.{name}.ops_per_byte_computed"] = ops / nbytes
    return out
