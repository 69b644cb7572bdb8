"""The numpy kernels against naive loops, and the index tables they read."""

import numpy as np
import pytest

from permword import (
    DenseGroup,
    StepTable,
    TupleGraph,
    lazy_generator_measure,
    three_cycle_lazy_measure,
)
from permword.kernels import adjacency_apply, convolve_steps, pure, track_points
from permword.walk import transition_tables

from conftest import seeded_pair


def random_inputs(seed):
    rng = np.random.default_rng(seed)
    n, T, B, k = 9, 5, 7, 20
    tables = np.stack([rng.permutation(n) for _ in range(T)]).astype(np.int32)
    symbols = rng.integers(0, T, size=(B, k))
    points = np.arange(n, dtype=np.int32)
    size, atoms = 60, 6
    idx = np.stack([rng.permutation(size) for _ in range(atoms)]).astype(np.int32)
    probs = rng.dirichlet(np.ones(atoms))
    dist = rng.dirichlet(np.ones(size))
    nbrs = np.stack([rng.permutation(size) for _ in range(4)]).astype(np.int32)
    f = rng.standard_normal(size)
    return tables, symbols, points, dist, idx, probs, nbrs, f


def test_track_points_identity_and_composition():
    tables, symbols, points, *_ = random_inputs(3)
    out = track_points(tables, symbols, points)
    # row by row oracle
    for b in range(symbols.shape[0]):
        pos = points.copy()
        for s in symbols[b]:
            pos = tables[s][pos]
        assert np.array_equal(out[b], pos)


def test_convolve_steps_zero_steps_is_identity():
    _, _, _, dist, idx, probs, _, _ = random_inputs(4)
    out = convolve_steps(dist, idx, probs, 0)
    assert np.array_equal(out, dist)
    assert out is not dist  # a copy, never the caller's array


# -- naive-loop oracles ----------------------------------------------------------


def naive_track(tables, symbols, points):
    out = np.empty((symbols.shape[0], len(points)), dtype=np.int32)
    for b in range(symbols.shape[0]):
        for c, x in enumerate(points):
            for s in symbols[b]:
                x = tables[int(s)][x]
            out[b, c] = x
    return out


def naive_convolve(dist, idx, probs, steps):
    d = [float(x) for x in dist]
    for _ in range(steps):
        new = []
        for z in range(len(d)):
            acc = probs[0] * d[idx[0][z]]
            for i in range(1, len(idx)):
                acc = acc + probs[i] * d[idx[i][z]]
            new.append(acc)
        d = new
    return np.array(d, dtype=np.float64)


def naive_adjacency(f, nbrs):
    out = []
    for x in range(nbrs.shape[1]):
        acc = f[nbrs[0][x]]
        for j in range(1, nbrs.shape[0]):
            acc = acc + f[nbrs[j][x]]
        out.append(acc * (1.0 / nbrs.shape[0]))
    return np.array(out, dtype=np.float64)


# (B, k, m) with n = 9 points and 5 tables: empty trials, empty words, no
# points, and one trial tracking fewer points than n
@pytest.mark.parametrize("B, k, m", [(0, 6, 9), (4, 0, 9), (4, 6, 0), (1, 13, 4), (7, 20, 9)])
@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_pure_track_points_matches_naive_loop(B, k, m, dtype):
    rng = np.random.default_rng(B * 100 + k * 10 + m)
    n = 9
    tables = np.stack([rng.permutation(n) for _ in range(5)]).astype(np.int32)
    symbols = rng.integers(0, 5, size=(B, k)).astype(dtype)
    points = rng.choice(n, size=m, replace=False).astype(np.int32)
    out = pure.track_points(tables, symbols, points)
    assert out.dtype == np.int32 and out.shape == (B, m)
    assert np.array_equal(out, naive_track(tables, symbols, points))


@pytest.mark.parametrize(
    "size, atoms, steps", [(0, 3, 2), (1, 1, 3), (17, 1, 2), (17, 5, 0), (17, 5, 3)]
)
def test_pure_convolve_steps_matches_naive_loop(size, atoms, steps):
    rng = np.random.default_rng(size + atoms + steps)
    idx = np.stack([rng.permutation(size) for _ in range(atoms)]).astype(np.int32)
    probs = rng.dirichlet(np.ones(atoms))
    dist = rng.dirichlet(np.ones(size)) if size else np.zeros(0)
    out = pure.convolve_steps(dist, idx, probs, steps)
    assert out is not dist
    # same accumulation order, so equal bit for bit
    assert np.array_equal(out, naive_convolve(dist, idx, probs, steps))


@pytest.mark.parametrize("size, deg", [(0, 4), (1, 4), (23, 1), (23, 4), (23, 6)])
def test_pure_adjacency_apply_matches_naive_loop(size, deg):
    rng = np.random.default_rng(size * 10 + deg)
    nbrs = rng.integers(0, max(size, 1), size=(deg, size)).astype(np.int32)
    f = rng.standard_normal(size)
    assert np.array_equal(pure.adjacency_apply(f, nbrs), naive_adjacency(f, nbrs))


def test_index_table_producers_stay_in_range():
    # the kernels gather without a bounds check, so every table a kernel
    # reads must hold indices in [0, size) of the axis it indexes; gather
    # tables are intp, which take reads without converting
    g, h, _ = seeded_pair(7, 2)
    graph = TupleGraph(g, h, 3)
    nbrs = graph.neighbors
    assert nbrs.dtype == np.intp
    assert nbrs.min() >= 0 and nbrs.max() < graph.num_vertices
    assert graph.rank_rows(graph.tuples).dtype == np.intp  # walk.lex_index
    images = StepTable.of(g, h).images
    assert images.min() >= 0 and images.max() < g.degree
    for m, space in (
        (lazy_generator_measure(*seeded_pair(6, 0)[:2]), DenseGroup("sym", 6)),
        (three_cycle_lazy_measure(6), DenseGroup("alt", 6).cycle_types),
    ):
        assert space.index_rows(space.perms).dtype == np.intp
        idx, _ = transition_tables(m, space)
        assert idx.dtype == np.intp and idx.shape[1] == space.size
        assert idx.min() >= 0 and idx.max() < space.size


def test_convolve_steps_preserves_mass():
    _, _, _, dist, idx, probs, _, _ = random_inputs(5)
    out = convolve_steps(dist, idx, probs, 11)
    assert abs(out.sum() - dist.sum()) < 1e-12


def test_adjacency_apply_matches_mean():
    *_, nbrs, f = random_inputs(6)
    out = adjacency_apply(f, nbrs)
    want = np.mean([f[nbrs[j]] for j in range(4)], axis=0)
    assert np.allclose(out, want, atol=1e-15)
