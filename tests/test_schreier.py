"""Tuple-action Schreier graphs and the Lanczos gap estimator.
Oracle: dense eigensolve of the same normalized adjacency."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permword import (
    Permutation,
    TupleGraph,
    conditioned_walk,
    estimate_gap,
    evaluate,
    random_uniform,
)
from permword.schreier import _conditioned_walk_counted, _top_ritz
from permword.synth import _orbit_sizes

from conftest import seeded_pair


def small_graph(n=6, ell=2, seed=11):
    g, h, _ = seeded_pair(n, seed)
    return TupleGraph(g, h, ell), g, h


def test_vertex_count_and_rank_roundtrip():
    graph, _, _ = small_graph(6, 2)
    assert graph.num_vertices == 30
    for idx in range(graph.num_vertices):
        assert graph.rank_of(graph.tuple_at(idx)) == idx


@settings(max_examples=50)
@given(st.integers(0, 6 * 5 * 4 - 1))
def test_rank_unrank_fuzz_ell3(idx):
    graph, _, _ = small_graph(6, 3)
    assert graph.rank_of(graph.tuple_at(idx)) == idx


def test_rank_of_rejects_bad_tuples():
    graph, _, _ = small_graph(6, 2)
    with pytest.raises(ValueError):
        graph.rank_of((1, 1))
    with pytest.raises(ValueError):
        graph.rank_of((0, 2))
    with pytest.raises(ValueError):
        graph.rank_of((1, 2, 3))


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_rank_rows_is_position_in_permutations(ell):
    graph = TupleGraph(Permutation.identity(6), Permutation.identity(6), ell)
    oracle = list(itertools.permutations(range(6), ell))
    rows = np.array(oracle[::-1], dtype=np.int32)
    want = [oracle.index(tuple(r)) for r in rows.tolist()]
    assert graph.rank_rows(rows).tolist() == want


def test_rank_rows_rejects_non_injective_rows():
    graph = TupleGraph(Permutation.identity(6), Permutation.identity(6), 3)
    for bad in ([[0, 1, 1]], [[0, 1, 6]], [[-1, 1, 2]]):
        with pytest.raises(ValueError):
            graph.rank_rows(np.array(bad))


def test_neighbors_follow_generator_action():
    graph, g, h = small_graph(5, 2, seed=4)
    for idx in (0, 7, graph.num_vertices - 1):
        tup = graph.tuple_at(idx)
        for row, s in enumerate((g, g.inverse(), h, h.inverse())):
            moved = tuple(s.apply(x) for x in tup)
            assert graph.neighbors[row, idx] == graph.rank_of(moved)


def test_adjacency_dense_vs_implicit():
    graph, _, _ = small_graph(6, 3, seed=2)
    A = graph.dense_adjacency()
    assert np.allclose(A.sum(axis=1), 1.0)
    assert np.allclose(A, A.T)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(graph.num_vertices)
    assert np.allclose(graph.apply_adjacency(f), A @ f, atol=1e-12)


def test_tuple_graph_rejects_oversize_and_bad_ell():
    g, h, _ = seeded_pair(40, 0)
    with pytest.raises(ValueError):
        TupleGraph(g, h, 5)
    with pytest.raises(ValueError):
        TupleGraph(g, h, 0)


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_estimate_gap_matches_dense_eigensolve(ell):
    # the estimator reports the top eigenvalue of A on the mean-zero space,
    # the second of A itself, so the dense oracle reads off eigvalsh(A)
    graph, _, _ = small_graph(6, ell, seed=9)
    A = graph.dense_adjacency()
    eigs = np.sort(np.linalg.eigvalsh(A))[::-1]
    est = estimate_gap(graph, rng=np.random.default_rng(1))
    assert abs(est.lambda1 - eigs[1]) < 1e-6
    assert abs(est.gap - (1 - eigs[1])) < 1e-6


def test_estimate_fields_consistent():
    graph, _, _ = small_graph(6, 2, seed=9)
    for tol in (1e-8, 1e-14, 0.0):
        est = estimate_gap(graph, tol=tol, rng=np.random.default_rng(3))
        assert 0.0 <= est.lambda1 <= 1.0
        assert est.gap == 1.0 - est.lambda1
        assert 1 <= est.iterations <= 4000
        assert est.converged == (est.residual <= tol)


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_estimate_gap_dense_population(n, ell):
    # a Ritz value never exceeds lambda_2; a converged one is within 1e-9
    for seed in range(6):
        g, h, _ = seeded_pair(n, seed)
        graph = TupleGraph(g, h, ell)
        lam2 = np.sort(np.linalg.eigvalsh(graph.dense_adjacency()))[-2]
        est = estimate_gap(graph, rng=np.random.default_rng(seed))
        assert est.lambda1 <= lam2 + 1e-12
        assert est.converged
        assert abs(est.lambda1 - lam2) < 1e-9


def test_estimate_gap_disconnected_graphs_give_gap_zero():
    ident = Permutation.identity(8)
    g, h, _ = seeded_pair(16, 0)  # orbits of sizes 15 and 1
    assert _orbit_sizes(g, h) == [15, 1]
    for graph in (TupleGraph(ident, ident, 2), TupleGraph(g, h, 2), TupleGraph(g, h, 3)):
        est = estimate_gap(graph, rng=np.random.default_rng(0))
        assert est.converged
        assert abs(est.lambda1 - 1.0) < 1e-12
        assert abs(est.gap) < 1e-12


def test_estimate_gap_tol_zero_runs_to_iters():
    # 1320 vertices: the Krylov space cannot close in 150 steps
    g, h, _ = seeded_pair(12, 0)
    est = estimate_gap(TupleGraph(g, h, 3), iters=150, tol=0.0)
    assert est.iterations == 150
    assert not est.converged
    ident = Permutation.identity(6)
    closed = estimate_gap(TupleGraph(ident, ident, 2), iters=150, tol=0.0)
    assert closed.iterations == 1
    assert closed.lambda1 == pytest.approx(1.0, abs=1e-12)


def test_estimate_gap_reports_the_measured_residual():
    # the Ritz estimate falls below 1e-16, the measured residual stays at the
    # rounding floor: the run stops at that check, unconverged, and reports
    # the measurement
    g, h, _ = seeded_pair(12, 0)
    est = estimate_gap(TupleGraph(g, h, 3), tol=1e-16, rng=np.random.default_rng(0))
    assert est.iterations < 4000
    assert not est.converged
    assert 1e-16 < est.residual < 1e-13


@pytest.mark.parametrize("m", [1, 2, 7, 60, 400])
def test_top_ritz_matches_dense_tridiagonal(m):
    # the O(m) sweeps against eigh of the same tridiagonal, from no lower
    # bound and from the top of the leading block, as successive checks use
    rng = np.random.default_rng(m)
    alpha = rng.uniform(-1.0, 1.0, m).tolist()
    beta = rng.uniform(0.01, 0.5, m - 1).tolist()
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    vals, vecs = np.linalg.eigh(T)
    k = max(1, m // 2)
    lead, _ = _top_ritz(alpha[:k], beta[: k - 1], -np.inf, 1.0)
    for lower, width in ((-np.inf, 1.0), (lead, 1e-3)):
        theta, s = _top_ritz(alpha, beta, lower, width)
        assert abs(theta - vals[-1]) < 1e-12
        assert abs(abs(s @ vecs[:, -1]) - 1.0) < 1e-9


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_estimate_gap_rejects_bad_tol(tol):
    graph, _, _ = small_graph(6, 2)
    with pytest.raises(ValueError):
        estimate_gap(graph, tol=tol)


def test_estimate_gap_seed_stable():
    graph, _, _ = small_graph(7, 2, seed=5)
    a = estimate_gap(graph, rng=np.random.default_rng(2))
    b = estimate_gap(graph, rng=np.random.default_rng(2))
    assert a == b


def test_conditioned_walk_meets_constraints(rng):
    g, h, _ = seeded_pair(12, 3)
    constraints = [(1, 5), (2, 9)]
    sigma, word = conditioned_walk(g, h, 60, constraints, rng)
    assert evaluate(word, g, h) == sigma
    for a, b in constraints:
        assert sigma.apply(a) == b


def test_conditioned_walk_trial_counts_scale_like_point_probability():
    # one constraint thins acceptance to roughly 1/n, two to roughly 1/n^2
    g, h, _ = seeded_pair(10, 1)
    rng = np.random.default_rng(42)
    tries_one = []
    tries_two = []
    for _ in range(40):
        _, _, t1 = _conditioned_walk_counted(g, h, 50, [(1, 2)], rng)
        tries_one.append(t1)
        _, _, t2 = _conditioned_walk_counted(g, h, 50, [(1, 2), (3, 4)], rng)
        tries_two.append(t2)
    assert 2 < np.mean(tries_one) < 40
    assert np.mean(tries_two) > 1.5 * np.mean(tries_one)


def test_conditioned_walk_exhausts_on_impossible_constraint():
    from permword import RetryExhaustedError

    g = Permutation.from_cycles(6, [(1, 2, 3)])
    h = Permutation.from_cycles(6, [(2, 3, 4)])
    # the pair fixes points 5 and 6, so 5 -> 1 is unreachable
    with pytest.raises(RetryExhaustedError):
        conditioned_walk(g, h, 20, [(5, 1)], np.random.default_rng(0))


def test_conditioned_walk_validates_constraints():
    g, h, rng = seeded_pair(8, 0)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(1, 2), (1, 3)], rng)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(1, 2), (3, 2)], rng)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(0, 2)], rng)
