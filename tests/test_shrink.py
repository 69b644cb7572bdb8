"""Support shrinking: long-cycle extraction, commutator steps, budgets."""

import math

import numpy as np
import pytest

from permword import (
    BudgetExceededError,
    Cat,
    InvariantError,
    Permutation,
    RetryExhaustedError,
    evaluate,
    expanded_length,
    find_long_cycle_element,
    random_even,
    random_uniform,
    shrink_support,
    word_length_budget,
)
from permword import shrink
from permword.word import serialize
from permword.shrink import _commutator_step_counted

from conftest import perm_from_cycles, run_python_O, seeded_pair


def test_long_cycle_element_properties():
    for seed in range(5):
        g, h, rng = seeded_pair(30, seed)
        lc = find_long_cycle_element(g, h)
        assert lc.length == len(lc.cycle)
        assert lc.length > 3 * 30 / 4
        assert evaluate(lc.word, g, h) == lc.perm
        assert not (lc.perm ** lc.length).is_identity()
        assert lc.cycle in lc.perm.cycles()


def _brute_force_long_cycle(g, h):
    """The search's specification, word by word: the (cost, length) key,
    word and product of the least-cost qualifying reduced word of length
    at most SEARCH_RADIUS, first in code order among equal keys."""
    n = g.degree
    steps = (g, g.inverse(), h, h.inverse())
    level = [((), Permutation.identity(n))]
    best = None
    for length in range(1, shrink.SEARCH_RADIUS + 1):
        level = [
            (w + (c,), p * steps[c])
            for w, p in level
            for c in range(4)
            if not w or c != w[-1] ^ 1
        ]
        for w, p in level:
            cycles = p.cycles()
            l = max(map(len, cycles))
            m = sum(len(c) for c in cycles if l % len(c))
            if 4 * l >= 3 * n and m >= 2:
                key = (l * length * 4 ** sum(m > edge for edge in (3, 9, 20)), length)
                if best is None or key < best[0]:
                    best = (key, w, p)
    return best


@pytest.mark.parametrize("n", (12, 20, 50))
def test_long_cycle_choice_is_the_brute_force_minimum_of_the_ball(n):
    checked = 0
    for seed in range(6):
        g, h, _ = seeded_pair(n, seed)
        if g.is_even() and h.is_even() and n < 14:
            continue
        best = _brute_force_long_cycle(g, h)
        if best is None:
            continue  # the search grows past the ball for this pair
        _, word, perm = best
        lc = find_long_cycle_element(g, h)
        assert lc.perm == perm
        assert lc.length == max(map(len, perm.cycles()))
        assert evaluate(lc.word, g, h) == lc.perm
        assert expanded_length(lc.word) == len(word)
        checked += 1
    assert checked >= 3


def test_long_cycle_search_grows_past_the_ball():
    # h = (1 2) has order 2 and g an 11-cycle: no reduced word of length 5
    # or less qualifies, and the first that does spells 6 symbols
    n = 11
    g = perm_from_cycles(n, tuple(range(1, n + 1)))
    h = perm_from_cycles(n, (1, 2))
    assert _brute_force_long_cycle(g, h) is None
    lc = find_long_cycle_element(g, h)
    assert expanded_length(lc.word) == 6
    assert lc.perm.cycle_type() == (9, 2) and lc.length == 9
    assert evaluate(lc.word, g, h) == lc.perm
    assert lc.cycle in lc.perm.cycles()


def test_long_cycle_search_raises_past_its_cap():
    # every power of a 12-cycle has cycles of one length, so none qualifies
    g = perm_from_cycles(12, tuple(range(1, 13)))
    with pytest.raises(RetryExhaustedError, match="length <= 8"):
        find_long_cycle_element(g, g)


def test_long_cycle_search_is_deterministic():
    g, h, _ = seeded_pair(40, 3)
    a, b = find_long_cycle_element(g, h), find_long_cycle_element(g, h)
    assert (a.perm, a.length, a.cycle) == (b.perm, b.length, b.cycle)
    assert serialize(a.word) == serialize(b.word)


def test_infeasible_degrees_raise_up_front():
    for n in (3, 8, 10):
        g, h, rng = seeded_pair(n, 0)
        with pytest.raises(ValueError):
            find_long_cycle_element(g, h)


def test_even_even_pairs_raise_below_fourteen():
    rng = np.random.default_rng(8)
    for n in (9, 12, 13, 15):
        g, h = random_even(n, rng), random_even(n, rng)
        with pytest.raises(ValueError):
            find_long_cycle_element(g, h)
    # from 14 on (except 15) both-even pairs are feasible
    g, h = random_even(14, rng), random_even(14, rng)
    lc = find_long_cycle_element(g, h)
    assert lc.length > 3 * 14 / 4


def test_odd_containing_pair_feasible_at_nine():
    rng = np.random.default_rng(1)
    while True:
        g, h = random_uniform(9, rng), random_uniform(9, rng)
        if not (g.is_even() and h.is_even()):
            break
    lc = find_long_cycle_element(g, h)
    assert lc.length in (7, 8)  # the qualifying lengths at n = 9


def test_commutator_step_shrinks_or_keeps_support_structure():
    # seed 1 at n = 40 starts from support 7, inside the step's [4, n-1] domain
    g, h, rng = seeded_pair(40, 1)
    lc = find_long_cycle_element(g, h)
    s = lc.element.pow(lc.length)
    assert s.perm.support_size() == 7
    k = math.ceil(40 * math.log(40))
    out, _ = _commutator_step_counted(s, g, h, k, rng)
    assert evaluate(out.word, g, h) == out.perm
    assert not out.perm.is_identity()
    # [s, s^sigma] moves at most 3X points, X <= |supp(s)|
    assert out.perm.support_size() <= 3 * s.perm.support_size()


def test_commutator_step_rejects_tiny_support():
    g, h, rng = seeded_pair(40, 2)
    lc = find_long_cycle_element(g, h)
    s = lc.element.pow(lc.length)
    assert s.perm.support_size() < 4
    with pytest.raises(ValueError):
        _commutator_step_counted(s, g, h, 50, rng)


@pytest.mark.parametrize("seed", range(6))
def test_shrink_support_end_to_end(seed):
    g, h, rng = seeded_pair(60, seed)
    res = shrink_support(g, h, rng)
    assert 1 <= res.element.support_size() <= 3
    assert evaluate(res.word, g, h) == res.element
    assert res.support_trace[-1] == res.element.support_size()
    assert len(res.trial_counts) == res.iterations
    assert expanded_length(res.word) <= word_length_budget(60)


def test_shrink_respects_tiny_budget():
    # seed 0 at n = 60 needs at least one commutator iteration, whose word
    # cannot fit in a budget of a few symbols
    g, h, rng = seeded_pair(60, 0)
    with pytest.raises(BudgetExceededError):
        shrink_support(g, h, rng, budget_coefficient=1e-4)
    # seed 0 at n = 20 needs no commutator step: v^l itself is checked
    g, h, rng = seeded_pair(20, 0)
    assert shrink_support(g, h, rng).iterations == 0
    g, h, rng = seeded_pair(20, 0)
    with pytest.raises(BudgetExceededError):
        shrink_support(g, h, rng, budget_coefficient=1e-3)


def test_budget_formula():
    assert word_length_budget(100) == math.ceil(10 * 100 * math.log2(100) ** 3)
    assert word_length_budget(100, budget_coefficient=1.0) == math.ceil(
        100 * math.log2(100) ** 3
    )
    for coefficient in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            word_length_budget(100, coefficient)


def _identity_walk(g, h, k, constraints, rng):
    # sigma = e makes s^sigma = s, so the commutator [s, s^sigma] is e
    return Permutation.identity(g.degree), Cat(()), 1


def test_commutator_guarantee_raises_invariant_error(monkeypatch):
    # seed 0 at n = 60 needs at least one commutator step
    monkeypatch.setattr(shrink, "_conditioned_walk_counted", _identity_walk)
    g, h, rng = seeded_pair(60, 0)
    with pytest.raises(InvariantError, match="commutator guarantee"):
        shrink_support(g, h, rng)


def test_commutator_guarantee_survives_python_O():
    # python -O strips asserts; the shrink invariants must still run
    code = """
        import numpy as np
        from permword import InvariantError, Permutation, random_uniform, shrink
        from permword.word import Cat

        rng = np.random.default_rng(0)  # a pair that needs a commutator step
        g, h = random_uniform(60, rng), random_uniform(60, rng)
        shrink._conditioned_walk_counted = (
            lambda g, h, k, constraints, rng: (Permutation.identity(60), Cat(()), 1)
        )
        try:
            shrink.shrink_support(g, h, rng)
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert run_python_O(code) == ["False", "InvariantError"]


def test_shrink_is_seed_stable():
    res_a = shrink_support(*seeded_pair(50, 9)[:2], np.random.default_rng(9))
    res_b = shrink_support(*seeded_pair(50, 9)[:2], np.random.default_rng(9))
    assert res_a.element == res_b.element
    assert res_a.support_trace == res_b.support_trace
