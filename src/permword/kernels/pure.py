"""Pure numpy kernels. Mirror of the C extension; same accumulation order,
so both lanes give bit-identical float results. All randomness stays with
the callers: kernels only consume pre-drawn symbol arrays."""

import numpy as np


def track_points(tables: np.ndarray, symbols: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Push points through per-trial symbol sequences.

    tables:   (T, n) int32, row t = 0-based image table of symbol t
    symbols:  (B, k) integer codes into tables, trial-major
    points:   (m,) 0-based start points

    Returns (B, m) int32 final positions.
    """
    tables = np.ascontiguousarray(tables, dtype=np.int32)
    symbols = np.ascontiguousarray(symbols)
    points = np.asarray(points, dtype=np.int32)
    B, k = symbols.shape
    pos = np.broadcast_to(points, (B, points.shape[0])).copy()
    for j in range(k):
        rows = symbols[:, j]
        pos = tables[rows[:, None], pos]
    return pos


def convolve_steps(dist: np.ndarray, idx: np.ndarray, probs: np.ndarray, steps: int) -> np.ndarray:
    """Apply ``steps`` convolution steps: new[z] = sum_i probs[i] * old[idx[i, z]].

    idx rows are precomputed translation tables, one per measure atom.
    """
    d = np.asarray(dist, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int32)
    probs = np.asarray(probs, dtype=np.float64)
    for _ in range(steps):
        acc = probs[0] * d[idx[0]]
        for i in range(1, idx.shape[0]):
            acc += probs[i] * d[idx[i]]
        d = acc
    return d


def adjacency_apply(f: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Averaging operator of a regular graph: out[x] = mean_j f[nbrs[j, x]]."""
    f = np.asarray(f, dtype=np.float64)
    nbrs = np.ascontiguousarray(nbrs, dtype=np.int32)
    out = f[nbrs[0]]  # fancy indexing already copies
    for j in range(1, nbrs.shape[0]):
        out += f[nbrs[j]]
    out *= 1.0 / nbrs.shape[0]
    return out
