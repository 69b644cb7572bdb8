"""Permutation core: conventions are load-bearing for everything else, so
composition order, conjugation direction, and parity all get pinned here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permword
from permword import (
    Permutation,
    format_permutation,
    parse_permutation,
    random_even,
    random_uniform,
    three_cycle_factorization,
)
from permword.perm import format_images

perms = st.integers(2, 12).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def test_identity_basics():
    e = Permutation.identity(5)
    assert e.is_identity()
    assert e.support() == ()
    assert e.cycle_type() == (1, 1, 1, 1, 1)
    assert e.order() == 1
    assert e.parity() == 0 and e.is_even()


def test_composition_applies_left_factor_first():
    p = Permutation.from_cycles(3, [(1, 2, 3)])
    q = Permutation.from_cycles(3, [(1, 2)])
    # 1 -p-> 2 -q-> 1, 2 -p-> 3 -q-> 3, 3 -p-> 1 -q-> 2
    assert p * q == Permutation.from_cycles(3, [(2, 3)])
    assert q * p == Permutation.from_cycles(3, [(1, 3)])
    assert (p * q).apply(1) == 1
    assert (p * q).apply(2) == 3


def test_apply_and_preimage_are_one_based_and_inverse():
    p = Permutation.from_cycles(4, [(1, 3, 2)])
    assert p.apply(1) == 3
    assert p.preimage(3) == 1
    for x in range(1, 5):
        assert p.preimage(p.apply(x)) == x
    with pytest.raises(ValueError):
        p.apply(0)
    with pytest.raises(ValueError):
        p.apply(5)


def test_conjugate_relabels_support():
    p = Permutation.from_cycles(5, [(1, 2, 3)])
    r = Permutation.from_cycles(5, [(1, 4), (3, 5)])
    got = p.conjugate(r)
    # p moves 1 -> 2, so the conjugate moves r(1)=4 -> r(2)=2
    assert got == Permutation.from_cycles(5, [(4, 2, 5)])
    assert got == r.inverse() * p * r


def test_cycles_are_canonical():
    p = Permutation.from_cycles(6, [(5, 6), (2, 4, 3)])
    assert p.cycles() == [(1,), (2, 4, 3), (5, 6)]
    assert p.cycles(include_fixed=False) == [(2, 4, 3), (5, 6)]
    assert p.cycle_type() == (3, 2, 1)


def test_longest_cycle_breaks_ties_at_smallest_minimum():
    p = Permutation.from_cycles(6, [(4, 5, 6), (1, 2, 3)])
    assert p.longest_cycle() == (1, 2, 3)
    assert Permutation.identity(3).longest_cycle() == (1,)


def test_parity_of_cycle_lengths():
    for n in range(2, 9):
        cyc = Permutation.from_cycles(n, [tuple(range(1, n + 1))])
        assert cyc.parity() == (n - 1) % 2


@given(perms)
def test_inverse_and_power_laws(p):
    n = p.degree
    e = Permutation.identity(n)
    assert p * p.inverse() == e
    assert p.inverse() * p == e
    assert p ** 0 == e
    assert p ** 1 == p
    assert p ** -1 == p.inverse()
    assert p ** 5 == p * p * p * p * p
    assert p ** p.order() == e


@given(perms, perms.filter(lambda q: q.degree >= 2))
def test_parity_is_multiplicative(p, q):
    if p.degree != q.degree:
        q = Permutation.identity(p.degree)
    assert (p * q).parity() == (p.parity() + q.parity()) % 2


@given(perms)
def test_format_parse_roundtrip(p):
    assert parse_permutation(format_permutation(p), degree=p.degree) == p
    assert parse_permutation(format_images(p)) == p


def test_parse_rejects_garbage():
    with pytest.raises(Exception):
        parse_permutation("(1 2", degree=4)
    with pytest.raises(Exception):
        parse_permutation("(1 2)(2 3)", degree=4)


def test_from_cycles_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 5)])


def test_random_even_is_even():
    rng = np.random.default_rng(0)
    for _ in range(25):
        assert random_even(9, rng).is_even()


def test_random_uniform_is_seed_stable():
    a = random_uniform(20, np.random.default_rng(7))
    b = random_uniform(20, np.random.default_rng(7))
    assert a == b


@settings(max_examples=60)
@given(st.integers(3, 30), st.randoms(use_true_random=False))
def test_three_cycle_factorization_reconstructs(n, pyrng):
    rng = np.random.default_rng(pyrng.randrange(2**32))
    p = random_even(n, rng)
    factors = three_cycle_factorization(p)
    assert len(factors) <= n
    acc = Permutation.identity(n)
    for t in factors:
        assert t.cycle_type()[0] == 3 and t.support_size() == 3
        acc = acc * t
    assert acc == p


def test_three_cycle_factorization_rejects_odd():
    with pytest.raises(ValueError):
        three_cycle_factorization(Permutation.from_cycles(4, [(1, 2)]))


def test_every_exported_name_resolves():
    missing = [name for name in permword.__all__ if not hasattr(permword, name)]
    assert missing == []
    assert len(set(permword.__all__)) == len(permword.__all__)


def test_hash_consistency():
    p = Permutation.from_cycles(5, [(1, 2, 3)])
    q = Permutation([1, 2, 0, 3, 4])
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
