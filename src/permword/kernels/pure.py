"""Numpy kernels for the hot loops: point tracking, distribution
convolution and adjacency application. All randomness stays with the
callers: kernels only consume pre-drawn symbol arrays.

Every gather is an unchecked ``ndarray.take(..., mode="wrap")``, which
skips the bounds check of fancy indexing. Precondition: every index lies
in ``[0, size)`` of the axis it indexes (symbols below the table count,
table entries and points below n, idx and nbrs entries below the vector
length). Every producer enforces it when it builds a table: ``lex_index``
clips each rank into its table and raises ValueError for a row not found
there, and ``Permutation`` validates its images. An index outside the range is not an error here; it
wraps round instead. The producers build their gather tables as intp,
which ``take`` reads as they are; an index array of any other integer
dtype is converted on every call.
"""

import numpy as np


def track_points(tables: np.ndarray, symbols: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Push points through per-trial symbol sequences.

    tables:   (T, n) int32, row t = 0-based image table of symbol t
    symbols:  (B, k) integer codes into tables, trial-major
    points:   (m,) 0-based start points

    Returns (B, m) int32 final positions.
    """
    tables = np.ascontiguousarray(tables, dtype=np.int32)
    symbols = np.asarray(symbols)
    points = np.asarray(points, dtype=np.int32)
    B, k = symbols.shape
    # entry (t, x) of the tables sits at t * n + x of the flat view
    flat = tables.reshape(-1)
    offsets = np.ascontiguousarray(symbols.T, dtype=np.intp) * tables.shape[1]
    pos = np.broadcast_to(points, (B, points.shape[0])).copy()
    at = np.empty(pos.shape, dtype=np.intp)
    for j in range(k):
        np.add(pos, offsets[j, :, None], out=at)
        flat.take(at, out=pos, mode="wrap")
    return pos


def convolve_steps(dist: np.ndarray, idx: np.ndarray, probs: np.ndarray, steps: int) -> np.ndarray:
    """Apply ``steps`` convolution steps: new[z] = sum_i probs[i] * old[idx[i, z]].

    idx rows are precomputed translation tables, one per measure atom.
    Returns a new array, also for steps == 0.
    """
    d = np.array(dist, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.intp)
    probs = np.asarray(probs, dtype=np.float64)
    for _ in range(steps):
        acc = probs[0] * d.take(idx[0], mode="wrap")
        for i in range(1, idx.shape[0]):
            acc += probs[i] * d.take(idx[i], mode="wrap")
        d = acc
    return d


def adjacency_apply(f: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Averaging operator of a regular graph: out[x] = mean_j f[nbrs[j, x]]."""
    f = np.asarray(f, dtype=np.float64)
    out = f.take(nbrs[0], mode="wrap")
    for j in range(1, nbrs.shape[0]):
        out += f.take(nbrs[j], mode="wrap")
    out *= 1.0 / nbrs.shape[0]
    return out
