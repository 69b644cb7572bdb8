"""Comparison machinery: tree words, reference measures, the constant A,
and the gap/l2 transfer bounds. The distance oracle for tree words is a
plain queue BFS over permutations that records distances only."""

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from permword import (
    DenseGroup,
    Permutation,
    TupleGraph,
    comparison_report,
    evaluate,
    expanded_length,
    gap_lower_bound,
    l2_comparison_bound,
    lazy_generator_measure,
    random_even,
    random_uniform,
    reference_measure,
    three_cycles,
)
from permword import compare, schreier
from permword.errors import InvariantError
from permword.word import GeneratorCounts
from permword.compare import (
    MAX_EXACT_DEGREE,
    reference_rows,
    regular_tuple_length,
    sample_reference,
)
from permword.walk import Atom, WalkMeasure, generated_mask

from conftest import (
    dense_walk_gap,
    generated_group,
    perm_from_cycles,
    run_python_O,
    seeded_pair,
)


def bfs_distances(g, h):
    """Oracle: shortest word lengths over the same four moves."""
    moves = [g, g.inverse(), h, h.inverse()]
    ident = Permutation.identity(g.degree)
    dist = {ident: 0}
    queue = deque([ident])
    while queue:
        cur = queue.popleft()
        for p in moves:
            nxt = cur * p
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("n", [5, 6, 7])
def test_tree_words_are_shortest_and_exact(n):
    # a seeded pair and an even generating pair: the tree reaches one vertex
    # per element of <g, h>, and compare's word for each element evaluates
    # back to it at its distance from the identity
    for g, h in (seeded_pair(n, 0)[:2], even_even_pair(n)[:2]):
        oracle = bfs_distances(g, h)
        graph = TupleGraph(g, h, regular_tuple_length(g, h))
        assert np.count_nonzero(graph.tree().codes >= 0) == len(oracle)
        word_of = compare._tree_words(g, h)
        for p, dist in oracle.items():
            w = word_of(p)
            assert evaluate(w, g, h) == p
            assert expanded_length(w) == dist


class Routed(Exception):
    pass


def test_tree_words_vertex_cap(monkeypatch):
    # at n = 11 the tuple graph of Alt(11) or Sym(11) exceeds MAX_VERTICES,
    # so the words are synthesized; at n = 10 they come from the tree
    def route(name):
        def refuse(*args):
            raise Routed(name)

        return refuse

    monkeypatch.setattr(compare, "TupleGraph", route("tree"))
    monkeypatch.setattr(compare, "prepare_context", route("synthesis"))
    for n, source in ((10, "tree"), (11, "synthesis")):
        g = perm_from_cycles(n, tuple(range(1, n + 1)))
        for h in (perm_from_cycles(n, (1, 2, 3)), perm_from_cycles(n, (1, 2))):
            assert (math.perm(n, regular_tuple_length(g, h)) > schreier.MAX_VERTICES) == (n == 11)
            with pytest.raises(Routed, match=source):
                comparison_report(g, h, "exact", np.random.default_rng(0))


def test_elements_outside_the_group_name_its_order():
    # AGL(1, 7): x -> x + 1 and x -> 3x mod 7 generate a group of order 42
    g = Permutation([(x + 1) % 7 for x in range(7)])
    h = Permutation([3 * x % 7 for x in range(7)])
    with pytest.raises(ValueError, match="a group of order 42"):
        comparison_report(g, h, "exact")


def test_tree_word_check_survives_python_O():
    # a tree whose codes swap the g and h steps gives words that evaluate
    # elsewhere; python -O strips asserts, the check must still run
    code = """
        import numpy as np
        from permword import InvariantError, Permutation, compare, schreier

        tree_of = schreier.TupleGraph.tree

        def bad_tree(graph):
            tree = tree_of(graph)
            moving = (tree.codes >= 0) & (tree.codes < schreier.STAY)
            codes = np.where(moving, tree.codes ^ 2, tree.codes)
            return schreier.StepTree(tree.steps, tree.moves, codes, tree.depth)

        schreier.TupleGraph.tree = bad_tree
        g = Permutation.from_cycles(5, [(1, 2)])
        h = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        try:
            compare.comparison_report(g, h, "exact")
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert run_python_O(code) == ["False", "InvariantError"]


def even_even_pair(n, start_seed=0):
    seed = start_seed
    while True:
        g, h, rng = seeded_pair(n, seed)
        if g.is_even() and h.is_even():
            if generated_group(g, h) is not None:
                return g, h, rng
        seed += 1


def mixed_pair(n, start_seed=0):
    seed = start_seed
    while True:
        g, h, rng = seeded_pair(n, seed)
        if not (g.is_even() and h.is_even()):
            if generated_group(g, h) is not None:
                return g, h, rng
        seed += 1


def exact_masses(g, h):
    """p' from the exact enumeration: its rows merged, each with mass 1/rows."""
    rows = reference_rows(reference_measure(g, h))
    masses = {}
    for y in map(Permutation, rows):
        masses[y] = masses.get(y, 0) + Fraction(1, rows.shape[0])
    return masses


def test_reference_measure_even_pair_is_uniform_class():
    g, h, _ = even_even_pair(5)
    assert reference_measure(g, h) == (Permutation.identity(5),)
    ref = exact_masses(g, h)
    cyc = three_cycles(5)
    assert set(ref) == set(cyc)
    assert all(mass == Fraction(1, len(cyc)) for mass in ref.values())
    assert sum(ref.values()) == 1


def test_reference_measure_mixed_pair_translates_the_class():
    g, h, _ = mixed_pair(5)
    t = g if not g.is_even() else h
    assert reference_measure(g, h) == (t, t.inverse())
    ref = exact_masses(g, h)
    assert sum(ref.values()) == 1
    # supported on the odd coset, symmetric under inversion
    assert all(p.parity() == 1 for p in ref)
    for p, mass in ref.items():
        assert ref[p.inverse()] == mass


def test_compute_A_exact_fraction_and_bounds():
    g, h, _ = mixed_pair(5)
    rep = comparison_report(g, h, "exact")
    assert isinstance(rep.A, Fraction) and rep.A > 0
    word_of = compare._tree_words(g, h)
    max_len = max(expanded_length(word_of(p)) for p in reference_measure_oracle(g, h))
    assert rep.max_word_length == max_len
    assert rep.A <= 8 * Fraction(max_len) ** 2


@pytest.mark.parametrize(
    "n, A",
    [(5, "193/5"), (6, "526/5"), (7, "5384/35"), (8, "1006/7"), (9, "11491/42"), (10, "11083/30")],
)
def test_exact_A_at_seed_0_is_pinned(n, A):
    # the README's table of tree-word constants
    g, h, _ = seeded_pair(n, 0)
    assert comparison_report(g, h, "exact").A == Fraction(A)


def test_A_bound_check_survives_python_O(monkeypatch):
    # counts with one entry above their total push A past (1/p(s)) max|y|^2
    g = perm_from_cycles(5, (1, 2))
    h = perm_from_cycles(5, (1, 2, 3, 4, 5))
    monkeypatch.setattr(compare, "generator_counts", lambda w: GeneratorCounts(2, -1, 0, 0))
    with pytest.raises(InvariantError):
        comparison_report(g, h, "exact")
    # python -O strips asserts; the bound check must still run
    code = """
        from permword import InvariantError, Permutation, compare
        from permword.word import GeneratorCounts

        g = Permutation.from_cycles(5, [(1, 2)])
        h = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        compare.generator_counts = lambda w: GeneratorCounts(2, -1, 0, 0)
        try:
            compare.comparison_report(g, h, "exact")
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert run_python_O(code) == ["False", "InvariantError"]


def test_compute_A_sampled_is_consistent_with_exact():
    g, h, _ = mixed_pair(5)
    exact = comparison_report(g, h, "exact").A
    rep = comparison_report(g, h, "sample:4000", np.random.default_rng(0))
    assert rep.sample_error is not None
    assert abs(float(rep.A) - float(exact)) <= rep.sample_error


def test_compute_A_rejects_big_exact_degree():
    g, h, rng = seeded_pair(16, 2)
    with pytest.raises(ValueError, match="capped at n <= 14"):
        comparison_report(g, h, "exact", rng)
    assert MAX_EXACT_DEGREE == 14


def test_mode_and_exact_cap_are_checked_before_any_class_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the arguments were checked")

    for name in ("reference_measure", "TupleGraph", "prepare_context"):
        monkeypatch.setattr(compare, name, refuse)
    g, h, rng = seeded_pair(100, 0)
    with pytest.raises(ValueError, match="capped at n <= 14"):
        comparison_report(g, h, "exact", rng)
    g, h, rng = seeded_pair(6, 0)
    for mode in ("sample:0", "sample:x", "Exact"):
        with pytest.raises(ValueError, match="mode must be"):
            comparison_report(g, h, mode, rng)
    with pytest.raises(ValueError, match="need an rng"):
        comparison_report(g, h, "sample:4")
    # exact words above n = 10 are synthesized, and the context draws from rng
    g, h, rng = seeded_pair(11, 0)
    with pytest.raises(ValueError, match="need an rng"):
        comparison_report(g, h, "exact")


def test_comparison_report_fields():
    g, h, _ = mixed_pair(6)
    rep = comparison_report(g, h, "exact")
    assert rep.n == 6
    assert rep.gap_reference == Fraction(3, 5)
    assert rep.gap_lower_bound == rep.gap_reference / rep.A
    assert rep.mode == "exact"
    assert rep.sample_error is None
    assert rep.words_used == 2 * 40 and rep.max_word_length >= 1  # |T| |C|
    sampled = comparison_report(g, h, "sample:40", np.random.default_rng(5))
    assert sampled.words_used == 40 and sampled.sample_error > 0
    assert comparison_report(g, h, "sample:40", np.random.default_rng(5)) == sampled


def test_gap_lower_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        gap_lower_bound(0, Fraction(3, 4))
    with pytest.raises(ValueError):
        l2_comparison_bound(5, 0.0, lambda j: 0.5, 60)


def test_transfer_inequality_per_generator_small_degrees():
    # dense gap of the lazy pair walk vs reference gap divided by A
    for n, seeds in ((5, (0, 1)), (6, (0,))):
        group = DenseGroup("sym", n)
        seed = 0
        hits = 0
        while hits < len(seeds):
            g, h, _ = seeded_pair(n, seed)
            seed += 1
            if not generated_mask([g, h], group).all():
                continue
            hits += 1
            A = comparison_report(g, h, "exact").A
            delta_p = dense_walk_gap(lazy_generator_measure(g, h), group)
            ref = reference_measure_oracle(g, h)
            # the reference comparison is against the lazy version of p'
            lazy_ref = [Atom(p, float(mass) / 2) for p, mass in ref.items()]
            lazy_ref.append(Atom(Permutation.identity(n), 0.5))
            delta_ref = dense_walk_gap(WalkMeasure(lazy_ref), group)
            assert delta_p >= float(Fraction(delta_ref) / A) - 1e-12


def test_l2_comparison_bound_formula_and_monotonicity():
    decay = lambda j: 0.9**j
    vals = [l2_comparison_bound(k, 10.0, decay, 360) for k in range(0, 200, 10)]
    assert vals == sorted(vals, reverse=True)
    k = 40
    j = round(k / 20.0)
    assert l2_comparison_bound(k, 10.0, decay, 360) == pytest.approx(
        360 * math.exp(-k / 20.0) + decay(j) ** 2
    )


# -- the reference class: element-by-element oracles -------------------------------


def three_cycles_oracle(n):
    out = []
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        out.append(Permutation.from_cycles(n, [(a, b, c)]))
        out.append(Permutation.from_cycles(n, [(a, c, b)]))
    return out


def translates_oracle(t):
    out = {}
    cls = three_cycles_oracle(t.degree)
    for trans in (t, t.inverse()):
        for c in cls:
            y = trans * c
            out[y] = out.get(y, 0) + 1
    return out


def reference_measure_oracle(g, h):
    if g.is_even() and h.is_even():
        cls = three_cycles_oracle(g.degree)
        return {c: Fraction(1, len(cls)) for c in cls}
    counts = translates_oracle(g if not g.is_even() else h)
    total = sum(counts.values())
    return {y: Fraction(k, total) for y, k in counts.items()}


def reference_pairs(n, rng):
    """An even pair, a pair with g odd, and a pair with g even and h odd."""
    even = random_even(n, rng), random_even(n, rng)
    odd = random_even(n, rng) * Permutation.transposition(n, 1, 2)
    return [even, (odd, random_uniform(n, rng)), (random_even(n, rng), odd)]


def odd_translators(n):
    """Odd t with t = t^-1, with t^2 a double transposition, with t^2 a 3-cycle."""
    odd = [Permutation.transposition(n, 1, n)]
    if n >= 4:
        odd.append(Permutation.from_cycles(n, [(1, 3, 2, 4)]))
    if n >= 5:
        odd.append(Permutation.from_cycles(n, [(2, 5), (1, 4, 3)]))
    return odd


@pytest.mark.parametrize("n", range(3, 11))
def test_reference_class_matches_element_loops(n):
    # the exact enumeration's rows, merged, against element-by-element loops
    rng = np.random.default_rng(n)
    assert three_cycles(n) == three_cycles_oracle(n)
    for g, h in reference_pairs(n, rng) + [(t, random_even(n, rng)) for t in odd_translators(n)]:
        # same elements, masses and first-seen order
        assert list(exact_masses(g, h).items()) == list(reference_measure_oracle(g, h).items())


@pytest.mark.parametrize("n", range(3, 11))
def test_translated_class_of_a_transposition_charges_each_key_twice(n):
    # t = t^-1, so the two translates coincide and every row appears twice
    t = Permutation.transposition(n, 2, 3)
    size = n * (n - 1) * (n - 2) // 3
    translators = reference_measure(t, Permutation.identity(n))
    assert translators == (t, t)
    rows = reference_rows(translators)
    assert rows.shape == (2 * size, n)
    assert np.array_equal(rows[:size], rows[size:])
    assert np.unique(rows, axis=0).shape[0] == size
    ref = exact_masses(t, Permutation.identity(n))
    assert len(ref) == size
    assert set(ref.values()) == {Fraction(2, 2 * size)}


@pytest.mark.parametrize("kind", ["even", "odd", "transposition"])
def test_sampler_draws_the_oracle_masses(kind):
    n, draws = 5, 50_000
    rng = np.random.default_rng(11)
    even, odd, _ = reference_pairs(n, rng)
    transposition = Permutation.transposition(n, 2, 3), random_even(n, rng)
    g, h = {"even": even, "odd": odd, "transposition": transposition}[kind]
    oracle = reference_measure_oracle(g, h)
    freq = {}
    for y in sample_reference(reference_measure(g, h), draws, rng):
        freq[y] = freq.get(y, 0) + 1
    assert set(freq) <= set(oracle)  # every draw lies in the support
    for y, mass in oracle.items():
        sigma = math.sqrt(draws * mass * (1 - mass))
        assert abs(freq.get(y, 0) - draws * mass) <= 5 * sigma


def test_sampler_builds_no_class_at_n_1000(monkeypatch):
    def refuse(*args):
        raise AssertionError("the 3-cycle class was built")

    monkeypatch.setattr(compare, "three_cycle_images", refuse)
    g, h, rng = seeded_pair(1000, 0)
    translators = reference_measure(g, h)
    for y in sample_reference(translators, 64, rng):
        # tau^-1 * y is a 3-cycle for one of the translators: it moves 3 points
        assert any(
            np.count_nonzero((tau.inverse() * y).images != np.arange(1000)) == 3
            for tau in translators
        )
