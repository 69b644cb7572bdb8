"""Support shrinking: long-cycle extraction, commutator steps, budgets."""

import math

import numpy as np
import pytest

from permword import (
    BudgetExceededError,
    Cat,
    InvariantError,
    Permutation,
    evaluate,
    expanded_length,
    find_long_cycle_element,
    random_even,
    random_uniform,
    shrink_support,
    word_length_budget,
)
from permword import shrink
from permword.shrink import _commutator_step_counted

from conftest import perm_from_cycles, run_python_O, seeded_pair


def test_long_cycle_element_properties():
    for seed in range(5):
        g, h, rng = seeded_pair(30, seed)
        lc = find_long_cycle_element(g, h, rng)
        assert lc.length == len(lc.cycle)
        assert lc.length > 3 * 30 / 4
        assert evaluate(lc.word, g, h) == lc.perm
        assert not (lc.perm ** lc.length).is_identity()
        assert lc.cycle in lc.perm.cycles()


def test_long_cycle_fallback_builds_from_a_prefix_word():
    # h = (1 2) has order 2, so the scan sees only h, h^2 = e, g*h and
    # g*h^2 = g, and none of them qualifies: only a random prefix helps
    n = 11
    g = perm_from_cycles(n, tuple(range(1, n + 1)))
    h = perm_from_cycles(n, (1, 2))
    for seed in range(3):
        lc = find_long_cycle_element(g, h, np.random.default_rng(seed))
        assert isinstance(lc.word, Cat) and isinstance(lc.word.children[0], Cat)
        assert evaluate(lc.word, g, h) == lc.perm
        assert lc.length == len(lc.cycle) and 4 * lc.length >= 3 * n
        assert lc.cycle in lc.perm.cycles()
        assert not (lc.perm ** lc.length).is_identity()


@pytest.mark.parametrize("n", (12, 20, 50))
def test_long_cycle_choice_is_the_minimum_key_of_the_scan(n):
    # oracle: score h^j and g*h^j directly, the way the scan is specified
    checked = 0
    for seed in range(6):
        g, h, rng = seeded_pair(n, seed)
        if g.is_even() and h.is_even() and n < 14:
            continue
        jmax = min(math.ceil(shrink.SCAN_CONSTANT * math.log(n)), h.order())
        best = None
        for j in range(1, jmax + 1):
            for family, perm in enumerate((h**j, g * h**j)):
                scored = shrink._candidate_key(perm, j + family, j, family)
                if scored is not None and (best is None or scored[0] < best[0]):
                    best = (scored[0], perm, scored[2])
        if best is None:
            continue  # the random-prefix fallback decides this pair
        lc = find_long_cycle_element(g, h, rng)
        _, j, family = best[0][1:]
        assert (lc.perm, lc.length) == (best[1], best[2])
        assert evaluate(lc.word, g, h) == lc.perm
        assert expanded_length(lc.word) == j + family
        checked += 1
    assert checked >= 3


def test_infeasible_degrees_raise_up_front():
    for n in (3, 8, 10):
        g, h, rng = seeded_pair(n, 0)
        with pytest.raises(ValueError):
            find_long_cycle_element(g, h, rng)


def test_even_even_pairs_raise_below_fourteen():
    rng = np.random.default_rng(8)
    for n in (9, 12, 13, 15):
        g, h = random_even(n, rng), random_even(n, rng)
        with pytest.raises(ValueError):
            find_long_cycle_element(g, h, rng)
    # from 14 on (except 15) both-even pairs are feasible
    g, h = random_even(14, rng), random_even(14, rng)
    lc = find_long_cycle_element(g, h, rng)
    assert lc.length > 3 * 14 / 4


def test_odd_containing_pair_feasible_at_nine():
    rng = np.random.default_rng(1)
    while True:
        g, h = random_uniform(9, rng), random_uniform(9, rng)
        if not (g.is_even() and h.is_even()):
            break
    lc = find_long_cycle_element(g, h, rng)
    assert lc.length in (7, 8)  # the qualifying lengths at n = 9


def test_commutator_step_shrinks_or_keeps_support_structure():
    # seed 1 at n = 40 starts from support 7, inside the step's [4, n-1] domain
    g, h, rng = seeded_pair(40, 1)
    lc = find_long_cycle_element(g, h, rng)
    s = lc.element.pow(lc.length)
    assert s.perm.support_size() == 7
    k = math.ceil(40 * math.log(40))
    out, _ = _commutator_step_counted(s, g, h, k, rng)
    assert evaluate(out.word, g, h) == out.perm
    assert not out.perm.is_identity()
    # [s, s^sigma] moves at most 3X points, X <= |supp(s)|
    assert out.perm.support_size() <= 3 * s.perm.support_size()


def test_commutator_step_rejects_tiny_support():
    g, h, rng = seeded_pair(40, 4)
    lc = find_long_cycle_element(g, h, rng)
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
    # seed 1 at n = 60 needs at least one commutator iteration, whose word
    # cannot fit in a budget of a few symbols
    g, h, rng = seeded_pair(60, 1)
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
    # seed 1 at n = 60 needs at least one commutator step
    monkeypatch.setattr(shrink, "_conditioned_walk_counted", _identity_walk)
    g, h, rng = seeded_pair(60, 1)
    with pytest.raises(InvariantError, match="commutator guarantee"):
        shrink_support(g, h, rng)


def test_commutator_guarantee_survives_python_O():
    # python -O strips asserts; the shrink invariants must still run
    code = """
        import numpy as np
        from permword import InvariantError, Permutation, random_uniform, shrink
        from permword.word import Cat

        rng = np.random.default_rng(1)
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
