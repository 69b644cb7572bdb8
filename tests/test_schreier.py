"""Tuple-action Schreier graphs and the Lanczos gap estimator (oracle: dense
eigensolve of the same normalized adjacency), and the tree on ordered pairs
behind the shrink's conjugators (oracle: a plain BFS over ordered pairs)."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
    expanded_length,
    prepare_context,
    random_uniform,
    shrink_support,
)
from permword.schreier import _top_ritz, pair_tree
from permword.shrink import walk_length
from permword.synth import _orbit_sizes

from conftest import dense_adjacency, dense_block, run_python_O, seeded_pair


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
    # 259 wraps to 3 in the int8 rank columns, so (0, 1, 259) ranks like
    # (0, 1, 3) and only the row check rejects it
    graph = TupleGraph(Permutation.identity(10), Permutation.identity(10), 3)
    for bad in ([[0, 1, 259]], [[0, 1, 10]], [[0, -1, 2]]):
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
    A = dense_adjacency(graph)
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
    A = dense_adjacency(graph)
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
        lam2 = np.sort(np.linalg.eigvalsh(dense_adjacency(graph)))[-2]
        est = estimate_gap(graph, rng=np.random.default_rng(seed))
        assert est.lambda1 <= lam2 + 1e-12
        assert est.converged
        assert abs(est.lambda1 - lam2) < 1e-9


def _distinct(values, tol=1e-8):
    """Sorted eigenvalues with each cluster closer than tol kept once."""
    values = np.sort(values)
    return values[np.concatenate(([True], np.diff(values) > tol))]


@pytest.mark.parametrize(
    "n, ell", [(n, ell) for n in (5, 6, 7) for ell in (1, 2, 3, 4)] + [(5, 5), (6, 6)]
)
def test_block_spectra_make_up_the_spectrum(n, ell):
    # the distinct eigenvalues of A are those of its (1 2)-symmetric block and
    # its alternating block together; each block is a symmetric matrix on
    # N/2 and C(n, ell) vertices whose table stays in range
    g, h, _ = seeded_pair(n, 1)
    graph = TupleGraph(g, h, ell)
    blocks = graph.blocks
    shapes = [(b.size, b.signed) for b in blocks]
    if ell == 1:
        assert shapes == [(n, False)]
    else:
        assert shapes == [(graph.num_vertices // 2, False), (math.comb(n, ell), True)]
    dense = [dense_block(b) for b in blocks]
    for b, M in zip(blocks, dense):
        assert b.table.dtype == np.intp
        assert b.table.min() >= 0 and b.table.max() < b.size * (1 + b.signed)
        assert np.array_equal(M, M.T)
    full = _distinct(np.linalg.eigvalsh(dense_adjacency(graph)))
    union = _distinct(np.concatenate([np.linalg.eigvalsh(M) for M in dense]))
    assert len(union) == len(full)
    assert np.allclose(union, full, rtol=0.0, atol=1e-9)


def test_block_apply_is_the_adjacency_on_lifted_functions():
    # a symmetric block's function lifts to f(x) = u[block(x)], an alternating
    # one to sign(sort of x) * u[subset of x]; A on the lift is the lift of
    # the block's operator (deflated: the symmetric block subtracts its mean)
    g, h, _ = seeded_pair(6, 2)
    graph = TupleGraph(g, h, 3)
    symmetric, alternating = graph.blocks
    rng = np.random.default_rng(0)
    tuples = [tuple(x) for x in graph.tuples.tolist()]
    pairs = sorted({t for t in tuples if t[0] < t[1]})
    subsets = sorted({t for t in tuples if t[0] < t[1] < t[2]})
    u = rng.standard_normal(len(pairs))
    lift = np.array([u[pairs.index((*sorted(t[:2]), t[2]))] for t in tuples])
    want = graph.apply_adjacency(lift)
    got = symmetric.apply(u)
    reps = [tuples.index(t) for t in pairs]
    assert np.allclose(got, want[reps] - want[reps].mean(), atol=1e-12)
    u = rng.standard_normal(len(subsets))
    sign = [(-1) ** sum(a > b for a, b in itertools.combinations(t, 2)) for t in tuples]
    lift = np.array([s * u[subsets.index(tuple(sorted(t)))] for s, t in zip(sign, tuples)])
    want = graph.apply_adjacency(lift)
    got = alternating.apply(u)
    assert np.allclose(got, want[[tuples.index(t) for t in subsets]], atol=1e-12)


def test_lambda2_in_the_alternating_block():
    # at n = 5, ell = 2 this pair's lambda_2 (0.9436) is the alternating
    # block's; the symmetric block tops out at 0.8431, and a Ritz value never
    # exceeds its block's top, so an estimate at lambda_2 is the alternating
    # block's
    g, h, rng = seeded_pair(5, 3)
    graph = TupleGraph(g, h, 2)
    symmetric, alternating = (np.linalg.eigvalsh(dense_block(b)) for b in graph.blocks)
    lam2 = np.linalg.eigvalsh(dense_adjacency(graph))[-2]
    assert symmetric[-1] == pytest.approx(1.0, abs=1e-12)
    assert alternating[-1] == pytest.approx(lam2, abs=1e-12)
    assert symmetric[-2] < lam2 - 0.05
    est = estimate_gap(graph, rng=rng)
    assert est.converged
    assert abs(est.lambda1 - lam2) < 1e-9


def _even_pair_on_all_points(n):
    """(1 2 3) and (1 2 ... n) for odd n: both even, generating Alt(n)."""
    return (
        Permutation.from_cycles(n, [(1, 2, 3)]),
        Permutation.from_cycles(n, [tuple(range(1, n + 1))]),
    )


def test_even_pair_on_n_tuples_reads_one_from_the_alternating_block():
    # at ell = n the alternating block is one vertex, and even steps keep its
    # sign, so A there is 1: the graph splits into the even and the odd
    # arrangements, and the estimate reads lambda = 1 after one step
    g, h = _even_pair_on_all_points(5)
    graph = TupleGraph(g, h, 5)
    assert graph.blocks[1].size == 1
    est = estimate_gap(graph, rng=np.random.default_rng(0))
    assert est.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert est.iterations == 1
    assert est.converged


def test_losing_block_at_the_cap_is_not_converged():
    # the one-vertex alternating block closes at once and wins with lambda = 1;
    # the 60-vertex symmetric block stops at iters short of tol, so the
    # estimate is not converged and residual reports that block's estimate
    g, h = _even_pair_on_all_points(5)
    graph = TupleGraph(g, h, 5)
    for iters, converged in ((5, False), (4000, True)):
        est = estimate_gap(graph, iters=iters, rng=np.random.default_rng(0))
        assert est.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert 1 == est.iterations <= iters
        assert est.converged == converged == (est.residual <= 1e-8)


@pytest.mark.parametrize(
    "g_images, h_images", [([0, 1], [0, 1]), ([1, 0], [0, 1]), ([1, 0], [1, 0])]
)
def test_two_points_as_pairs_skip_the_one_vertex_symmetric_block(g_images, h_images):
    # n = 2, ell = 2: the symmetric block is the constant alone, so the
    # deflated start vector would be zero; the alternating block gives lambda_2
    graph = TupleGraph(Permutation(g_images), Permutation(h_images), 2)
    assert [b.size for b in graph.blocks] == [1, 1]
    lam2 = np.linalg.eigvalsh(dense_adjacency(graph))[0]
    est = estimate_gap(graph, rng=np.random.default_rng(0))
    assert est.converged and est.iterations == 1
    assert est.lambda1 == pytest.approx(lam2, abs=1e-12)


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


def _run_with_blas_threads(threads: str, *args: str) -> str:
    """stdout of `python *args` with OPENBLAS_NUM_THREADS=threads, importing
    the same permword copy as this process. A BLAS reduction splits its sum
    across threads, so a result that went through BLAS would change in the
    last bits with the thread count."""
    import permword

    root = str(Path(permword.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_schreier_gap_independent_of_blas_threads():
    args = ("-m", "permword", "schreier-gap", "--n", "24", "--seed", "1")
    payloads = [json.loads(_run_with_blas_threads(t, *args))["payload"] for t in ("1", "2", "4")]
    assert payloads[0]["converged"]
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_top_ritz_independent_of_blas_threads():
    # past about 10,000 Lanczos steps a BLAS dot or norm over the tridiagonal's
    # vectors splits across threads; at these two seeds that changes the bits
    code = """
        import numpy as np
        from permword.schreier import _top_ritz

        for seed in (1, 5):
            rng = np.random.default_rng(seed)
            alpha = rng.uniform(-1.0, 1.0, 12_000).tolist()
            beta = rng.uniform(0.01, 0.5, 11_999).tolist()
            theta, s = _top_ritz(alpha, beta, -np.inf, 1.0)
            print(theta.hex(), s.tobytes().hex())
    """
    one, two = (_run_with_blas_threads(t, "-c", textwrap.dedent(code)) for t in ("1", "2"))
    assert one == two


def test_conditioned_walk_meets_constraints(rng):
    g, h, _ = seeded_pair(12, 3)
    constraints = [(1, 5), (2, 9)]
    sigma, word = conditioned_walk(g, h, 60, constraints, rng)
    assert evaluate(word, g, h) == sigma
    for a, b in constraints:
        assert sigma.apply(a) == b


def test_conditioned_walk_rejects_unreachable_constraints():
    g = Permutation.from_cycles(6, [(1, 2, 3)])
    h = Permutation.from_cycles(6, [(2, 3, 4)])
    # the pair fixes points 5 and 6, so (5, 6) -> (1, 2) is unreachable
    with pytest.raises(ValueError, match="not 2-transitive"):
        conditioned_walk(g, h, 20, [(5, 1), (6, 2)], np.random.default_rng(0))


def test_conditioned_walk_validates_constraints():
    g, h, rng = seeded_pair(8, 0)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(1, 2), (1, 3)], rng)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(1, 2), (3, 2)], rng)
    with pytest.raises(ValueError):
        conditioned_walk(g, h, 10, [(0, 2), (3, 4)], rng)
    with pytest.raises(ValueError, match="exactly two"):
        conditioned_walk(g, h, 10, [(1, 2)], rng)
    with pytest.raises(ValueError, match="exactly two"):
        conditioned_walk(g, h, 10, [(1, 2), (3, 4), (5, 6)], rng)


def _pair_orbit_size(g, h):
    """Ordered pairs of distinct points reached from (0, 1) by a plain BFS."""
    n = g.degree
    gens = [g.images.tolist(), h.images.tolist()]
    seen = bytearray(n * n)
    seen[1] = 1
    todo = [(0, 1)]
    for a, b in todo:
        for s in gens:
            x = s[a] * n + s[b]
            if not seen[x]:
                seen[x] = 1
                todo.append((s[a], s[b]))
    return len(todo)


@pytest.mark.parametrize("n", [9, 20, 60, 300])
def test_tree_conjugators_meet_constraints_within_tree_length(n):
    # two random pairs and (1..n), (1 2), whose h is an involution: each
    # conjugator meets both constraints, evaluates to itself, and spends at
    # most k walk steps plus a tree path up and one down
    rng = np.random.default_rng(n)
    cycle = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
    pairs = [(cycle, Permutation.transposition(n, 1, 2))]
    while len(pairs) < 3:
        g, h = random_uniform(n, rng), random_uniform(n, rng)
        if _pair_orbit_size(g, h) == n * (n - 1):
            pairs.append((g, h))
    k = walk_length(n)
    for g, h in pairs:
        depth = pair_tree(g, h).depth
        for _ in range(20):
            y1, y2 = rng.choice(n, 2, replace=False) + 1
            t1, t2 = rng.choice(n, 2, replace=False) + 1
            sigma, word = conditioned_walk(g, h, k, [(y1, t1), (y2, t2)], rng)
            assert sigma.apply(y1) == t1 and sigma.apply(y2) == t2
            assert evaluate(word, g, h) == sigma
            assert expanded_length(word) <= k + 2 * depth


def test_tree_certificate_agrees_with_pair_bfs():
    # n 9..60 x seeds 0..19: the tree certifies exactly the pairs a plain BFS
    # finds 2-transitive, and reports the BFS's count otherwise; every
    # uncertified pair of this population is intransitive
    certified = intransitive = 0
    for n in range(9, 61):
        for seed in range(20):
            g, h, _ = seeded_pair(n, seed)
            reached = _pair_orbit_size(g, h)
            if reached == n * (n - 1):
                certified += 1
                pair_tree(g, h)
                continue
            with pytest.raises(ValueError, match=f"reaches {reached} of the {n * (n - 1)}"):
                pair_tree(g, h)
            assert len(_orbit_sizes(g, h)) > 1
            intransitive += 1
    assert (certified, intransitive) == (997, 43)


def _two_subset_action():
    """Sym(5) on its 10 two-point subsets, from (1 2 3 4 5) and (1 2):
    primitive, but not 2-transitive (disjoint and meeting pairs of subsets
    are two orbits)."""
    subsets = list(itertools.combinations(range(5), 2))
    index = {frozenset(p): i for i, p in enumerate(subsets)}

    def induced(images):
        return Permutation([index[frozenset(images[x] for x in p)] for p in subsets])

    return induced([1, 2, 3, 4, 0]), induced([1, 0, 2, 3, 4])


def _imprimitive_pair(m):
    """(1..m)(m+1..2m) and (1 m+1): transitive, with blocks {i, i+m}."""
    n = 2 * m
    g = Permutation.from_cycles(n, [tuple(range(1, m + 1)), tuple(range(m + 1, n + 1))])
    return g, Permutation.transposition(n, 1, m + 1)


@pytest.mark.parametrize("pair", [_imprimitive_pair(6), _two_subset_action()])
def test_transitive_pairs_that_are_not_2_transitive_are_value_errors(pair):
    g, h = pair
    assert _orbit_sizes(g, h) == [g.degree]
    for run in (shrink_support, prepare_context):
        with pytest.raises(ValueError, match="not 2-transitive"):
            run(g, h, np.random.default_rng(0))


def test_conjugator_check_survives_python_O():
    # python -O strips asserts; a tree whose steps lead elsewhere must
    # still be caught by the conjugator's constraint check
    code = """
        import numpy as np
        from permword import InvariantError, random_uniform, schreier

        rng = np.random.default_rng(1)
        g, h = random_uniform(20, rng), random_uniform(20, rng)
        tree = schreier.pair_tree(g, h)
        codes = np.where(tree.codes < schreier.STAY, tree.codes ^ 2, tree.codes)
        bad = schreier.StepTree(tree.steps, tree.moves, codes, tree.depth)
        schreier.pair_tree = lambda g, h: bad
        try:
            schreier.conditioned_walk(g, h, 20, [(1, 2), (3, 4)], rng)
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert run_python_O(code) == ["False", "InvariantError"]
