"""Comparison machinery: word tables, reference measures, the constant A,
and the gap/l2 transfer bounds. The distance oracle for BFS words is a plain
queue BFS that records distances only."""

import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from permword import (
    DenseGroup,
    Permutation,
    bfs_words,
    comparison_report,
    evaluate,
    expanded_length,
    gap_lower_bound,
    l2_comparison_bound,
    lazy_generator_measure,
    reference_measure,
    three_cycles,
)
from permword import compare
from permword.errors import InvariantError
from permword.word import GeneratorCounts
from permword.compare import MAX_BFS_DEGREE, MAX_EXACT_DEGREE, dense_walk_gap
from permword.walk import Atom, WalkMeasure, generated_mask

from conftest import generated_group, perm_from_cycles, run_python_O, seeded_pair


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


def test_bfs_words_are_shortest_and_exact():
    g, h, _ = seeded_pair(5, 0)
    words = bfs_words(g, h)
    oracle = bfs_distances(g, h)
    assert set(words) == set(oracle)
    for p, w in words.items():
        assert evaluate(w, g, h) == p
        assert expanded_length(w) == oracle[p]


def test_bfs_words_degree_cap():
    g, h, _ = seeded_pair(9, 0)
    with pytest.raises(ValueError):
        bfs_words(g, h)


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


def test_reference_measure_even_pair_is_uniform_class():
    g, h, _ = even_even_pair(5)
    ref = reference_measure(g, h)
    cyc = three_cycles(5)
    assert set(ref) == set(cyc)
    assert all(mass == Fraction(1, len(cyc)) for mass in ref.values())
    assert sum(ref.values()) == 1


def test_reference_measure_mixed_pair_translated_class():
    g, h, _ = mixed_pair(5)
    ref = reference_measure(g, h)
    assert sum(ref.values()) == 1
    # supported on the odd coset, symmetric under inversion
    assert all(p.parity() == 1 for p in ref)
    for p, mass in ref.items():
        assert ref[p.inverse()] == mass


def test_compute_A_exact_fraction_and_bounds():
    g, h, _ = mixed_pair(5)
    A = comparison_report(g, h, None, "exact").A
    assert isinstance(A, Fraction) and A > 0
    words = bfs_words(g, h)
    max_len = max(
        expanded_length(words[p]) for p in reference_measure(g, h)
    )
    assert A <= 8 * Fraction(max_len) ** 2


def test_A_bound_check_survives_python_O(monkeypatch):
    # counts with one entry above their total push A past (1/p(s)) max|y|^2
    g = perm_from_cycles(5, (1, 2))
    h = perm_from_cycles(5, (1, 2, 3, 4, 5))
    monkeypatch.setattr(compare, "generator_counts", lambda w: GeneratorCounts(2, -1, 0, 0))
    with pytest.raises(InvariantError):
        comparison_report(g, h, None, "exact")
    # python -O strips asserts; the bound check must still run
    code = """
        from permword import InvariantError, Permutation, compare
        from permword.word import GeneratorCounts

        g = Permutation.from_cycles(5, [(1, 2)])
        h = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
        compare.generator_counts = lambda w: GeneratorCounts(2, -1, 0, 0)
        try:
            compare.comparison_report(g, h, None, "exact")
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert run_python_O(code) == ["False", "InvariantError"]


def test_compute_A_sampled_is_consistent_with_exact():
    g, h, _ = mixed_pair(5)
    exact = comparison_report(g, h, None, "exact").A
    rep = comparison_report(g, h, None, "sample:4000", np.random.default_rng(0))
    assert rep.sample_error is not None
    assert abs(float(rep.A) - float(exact)) <= rep.sample_error


def test_compute_A_rejects_big_exact_degree():
    g, h, rng = seeded_pair(16, 2)
    from permword import prepare_context

    ctx = prepare_context(g, h, rng)
    with pytest.raises(ValueError):
        comparison_report(g, h, ctx, "exact")
    assert MAX_EXACT_DEGREE == 14 and MAX_BFS_DEGREE == 8


def test_comparison_report_fields():
    g, h, _ = mixed_pair(6)
    rep = comparison_report(g, h, None, "exact")
    assert rep.n == 6
    assert rep.gap_reference == Fraction(3, 5)
    assert rep.gap_lower_bound == rep.gap_reference / rep.A
    assert rep.mode == "exact"
    assert rep.sample_error is None
    assert rep.words_used >= 1 and rep.max_word_length >= 1
    sampled = comparison_report(g, h, None, "sample:40", np.random.default_rng(5))
    assert sampled.words_used == 40 and sampled.sample_error > 0
    assert comparison_report(g, h, None, "sample:40", np.random.default_rng(5)) == sampled


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
            A = comparison_report(g, h, None, "exact").A
            delta_p = dense_walk_gap(lazy_generator_measure(g, h), group)
            ref = reference_measure(g, h)
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
