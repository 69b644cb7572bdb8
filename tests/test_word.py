"""Word DAG: evaluation, counting, serialization. The oracle for counts is a
naive symbol expansion, only usable on small trees, which is the point."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permword import (
    Cat,
    GEN_G,
    GEN_H,
    Gen,
    InvariantError,
    Inv,
    Permutation,
    Pow,
    Word,
    WordElement,
    evaluate,
    expanded_length,
    generator_counts,
    node_count,
    parse,
    power,
    random_uniform,
    serialize,
    structurally_equal,
)


def expand(w):
    """Oracle: the fully expanded symbol list, +1 for g/h, -1 for inverses."""
    if isinstance(w, Gen):
        return [(w.name, 1)]
    if isinstance(w, Inv):
        return [(s, -e) for s, e in reversed(expand(w.child))]
    if isinstance(w, Pow):
        return expand(w.child) * w.exponent
    return [s for c in w.children for s in expand(c)]


words = st.deferred(
    lambda: st.one_of(
        st.sampled_from([GEN_G, GEN_H]),
        st.builds(Inv, words),
        st.builds(Pow, words, st.integers(0, 3)),
        st.lists(words, max_size=3).map(lambda cs: Cat(tuple(cs))),
    )
)


@pytest.fixture(scope="module")
def gh():
    rng = np.random.default_rng(3)
    return random_uniform(7, rng), random_uniform(7, rng)


def eval_symbols(symbols, g, h):
    acc = Permutation.identity(g.degree)
    table = {"g": g, "h": h}
    for name, e in symbols:
        acc = acc * (table[name] if e == 1 else table[name].inverse())
    return acc


@settings(max_examples=120)
@given(words)
def test_evaluate_matches_symbol_expansion(w, ):
    rng = np.random.default_rng(9)
    g, h = random_uniform(6, rng), random_uniform(6, rng)
    assert evaluate(w, g, h) == eval_symbols(expand(w), g, h)


@settings(max_examples=120)
@given(words)
def test_expanded_length_matches_symbol_expansion(w):
    assert expanded_length(w) == len(expand(w))


@settings(max_examples=120)
@given(words)
def test_generator_counts_match_symbol_expansion(w):
    c = generator_counts(w)
    sym = expand(w)
    assert c.g == sum(1 for s, e in sym if s == "g" and e == 1)
    assert c.g_inv == sum(1 for s, e in sym if s == "g" and e == -1)
    assert c.h == sum(1 for s, e in sym if s == "h" and e == 1)
    assert c.h_inv == sum(1 for s, e in sym if s == "h" and e == -1)
    assert c.total == len(sym)


@settings(max_examples=80)
@given(words)
def test_serialize_parse_roundtrip(w):
    again = parse(serialize(w))
    assert structurally_equal(w, again)
    assert expanded_length(w) == expanded_length(again)


def test_empty_word_is_identity(gh):
    g, h = gh
    assert evaluate(Cat(()), g, h).is_identity()
    assert expanded_length(Cat(())) == 0


def test_inverse_and_negative_power(gh):
    g, h = gh
    w = Cat((GEN_G, Inv(GEN_H), Pow(GEN_G, 2)))
    assert evaluate(Inv(w), g, h) == evaluate(w, g, h).inverse()
    assert evaluate(power(w, -2), g, h) == evaluate(w, g, h) ** -2
    assert expanded_length(power(w, -2)) == 8


def test_shared_subwords_count_once():
    w = GEN_G
    for _ in range(40):
        w = Cat((w, w))
    # 2^40 symbols, but only 41 distinct nodes
    assert expanded_length(w) == 2**40
    assert node_count(w) == 41
    assert generator_counts(w).g == 2**40


def test_evaluate_deep_shared_chains_match_powers(gh):
    g, h = gh
    w, gw = GEN_G, Cat((GEN_G, Inv(GEN_H)))
    for _ in range(40):
        w, gw = Cat((w, w)), Cat((gw, gw))
    assert evaluate(w, g, h) == evaluate(Pow(GEN_G, 2**40), g, h) == g ** (2**40)
    assert evaluate(gw, g, h) == (g * h.inverse()) ** (2**40)
    assert evaluate(Inv(gw), g, h) == (g * h.inverse()) ** -(2**40)


def test_evaluate_trivial_powers_and_empty_cat(gh):
    g, h = gh
    for w in (
        Pow(GEN_G, 0),
        Pow(Cat((GEN_G, Inv(GEN_H))), 0),
        Cat(()),
        Pow(Cat(()), 5),
        Inv(Cat(())),
        Cat((Cat(()), Pow(GEN_H, 0))),
    ):
        assert evaluate(w, g, h).is_identity()
    assert evaluate(Pow(GEN_H, 1), g, h) == h


def test_evaluate_rejects_non_word_nodes(gh):
    g, h = gh
    with pytest.raises(TypeError):
        evaluate(Word(), g, h)
    bad = Cat((GEN_G,))
    object.__setattr__(bad, "children", (GEN_G, "h"))  # bypasses Cat's own check
    with pytest.raises(TypeError):
        evaluate(Cat((GEN_H, bad)), g, h)


def test_evaluate_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        evaluate(GEN_G, Permutation.identity(5), Permutation.identity(6))


def test_identity_equality_not_structural():
    a, b = Cat((GEN_G,)), Cat((GEN_G,))
    assert a != b
    assert structurally_equal(a, b)
    assert len({a, b}) == 2


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Pow(GEN_G, -1)


def test_word_element_algebra(gh):
    g, h = gh
    a = WordElement(GEN_G, g)
    b = WordElement(GEN_H, h)
    ab = a * b
    assert ab.perm == g * h
    assert evaluate(ab.word, g, h) == ab.perm
    inv = ab.inverse()
    assert inv.perm == ab.perm.inverse()
    assert evaluate(inv.word, g, h) == inv.perm
    p3 = a.pow(3)
    assert p3.perm == g ** 3 and evaluate(p3.word, g, h) == p3.perm
    conj = a.conjugated_by(b)
    assert conj.perm == g.conjugate(h)
    assert evaluate(conj.word, g, h) == conj.perm
    assert a.verify(g, h) is a
    with pytest.raises(AssertionError):
        WordElement(GEN_G, h).verify(g, h)


def test_verify_raises_invariant_error(gh):
    g, h = gh
    with pytest.raises(InvariantError):
        WordElement(GEN_G, h).verify(g, h)


def test_parse_errors():
    from permword import WordParseError

    for bad in ("", "x", "g^", "(g", "g)", "g^-", "g**2"):
        with pytest.raises(WordParseError):
            parse(bad)


def shared_words():
    """Two words sharing subwords under Inv and Pow, and a third sharing
    nodes with both."""
    base = Cat((GEN_G, Inv(GEN_H), GEN_G, GEN_H))
    shared = Pow(Inv(base), 3)
    first = Cat((shared, Inv(shared), Pow(base, 2), GEN_H))
    second = Cat((Inv(Pow(shared, 4)), base, Pow(Inv(first), 2), Inv(GEN_G)))
    third = Pow(Cat((Inv(second), shared, first)), 5)
    return [first, second, third]


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
def test_generator_counts_of_shared_subwords_match_fresh_nodes(order):
    words = shared_words()
    for i in order:
        fresh = parse(serialize(words[i]))
        assert fresh._counts is None  # no node of a parsed word is counted yet
        assert generator_counts(words[i]) == generator_counts(fresh)
    # counting again reads the cached counts and agrees
    for w in words:
        assert generator_counts(w) == generator_counts(parse(serialize(w)))
        assert generator_counts(w).total == expanded_length(w)
