"""Spectral-gap transfer from a class walk to the generator walk.

The lazy walk p on S = {g, h, g^-1, h^-1} is compared against a reference
walk p' whose gap is known: uniform on the 3-cycle class C when both
generators are even, else the average of the translated classes tC and
t^-1 C for an odd generator t (so both cosets are charged). Writing each
reference element y as a word in the generators gives the comparison
constant

    A = max_{s in S} (1 / p(s)) sum_y |y| N(s, y) p'(y)

with |y| the expanded word length and N(s, y) the number of occurrences of
the symbol s, and then delta(p) >= delta(p') / A (Diaconis and
Saloff-Coste 1993). The words are shortest ones, from the breadth-first
tree of <g, h> on a tuple graph it acts on freely, while that graph fits
under schreier.MAX_VERTICES (n <= 10); above, they are synthesized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InvariantError
from .perm import Permutation, format_permutation
from .schreier import MAX_VERTICES, TupleGraph
from .walk import three_cycle_images
from .word import Word, evaluate, generator_counts
from .synth import prepare_context, synthesize

__all__ = [
    "ComparisonReport",
    "reference_measure",
    "reference_rows",
    "sample_reference",
    "comparison_report",
    "gap_lower_bound",
    "l2_comparison_bound",
]

MAX_EXACT_DEGREE = 14


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    A: Fraction | float
    gap_reference: Fraction
    gap_lower_bound: Fraction | float
    mode: str
    words_used: int
    max_word_length: int
    sample_error: float | None = None


def reference_measure(g: Permutation, h: Permutation) -> tuple[Permutation, ...]:
    """The translators T of the reference walk
    p' = (1/|T|) sum_{tau in T} tau * Uniform(C), C the 3-cycle class.

    Both generators even: T = (identity,), uniform on the class (inside Alt
    like the generator walk). Otherwise the walk lives on all of Sym, and
    T = (t, t^-1) for the odd generator t = g if g is odd, else h. The two
    translates can overlap; an element in both carries the mass of each.
    """
    if g.degree < 3:
        raise ValueError("3-cycles need n >= 3")
    if g.is_even() and h.is_even():
        return (Permutation.identity(g.degree),)
    t = g if not g.is_even() else h
    return t, t.inverse()


def reference_rows(translators: Sequence[Permutation]) -> np.ndarray:
    """Every tau * c, tau in the translators and c in the 3-cycle class, as
    one (|T| |C|, n) array of image rows, translate by translate; each row
    has mass 1/(|T| |C|) under p'. One gather of three_cycle_images per
    translate, since (tau * c).images = c.images[tau.images]."""
    cls = three_cycle_images(translators[0].degree)
    return np.concatenate([cls.take(tau.images, axis=1) for tau in translators])


def sample_reference(
    translators: Sequence[Permutation], count: int, rng: np.random.Generator
) -> Iterator[Permutation]:
    """count independent draws from p': tau * c with tau uniform in the
    translators and c a uniform 3-cycle. c is a -> b -> c -> a for a uniform
    ordered triple of distinct points; each 3-cycle has three rotations, so
    c is uniform on the class. No class is built, at any n."""
    n = translators[0].degree
    which = rng.integers(len(translators), size=count)
    a = rng.integers(n, size=count)
    b = rng.integers(n - 1, size=count)
    b += b >= a
    c = rng.integers(n - 2, size=count)  # an index into the points outside {a, b}
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    for k, x, y, z in zip(which.tolist(), a.tolist(), b.tolist(), c.tolist()):
        cycle = np.arange(n, dtype=np.int32)
        cycle[[x, y, z]] = y, z, x
        yield Permutation._raw(cycle[translators[k].images])


def regular_tuple_length(g: Permutation, h: Permutation) -> int:
    """The ell on which <g, h> acts freely, fewest vertices first: Alt(n)
    acts regularly on injective (n-2)-tuples and Sym(n) on (n-1)-tuples, so
    n - 2 for an even pair and n - 1 otherwise (at least 1)."""
    return max(1, g.degree - (2 if g.is_even() and h.is_even() else 1))


def _tree_words(g: Permutation, h: Permutation) -> Callable[[Permutation], Word]:
    ell = regular_tuple_length(g, h)
    graph = TupleGraph(g, h, ell)
    tree = graph.tree()

    def lookup(y: Permutation) -> Word:
        x = int(graph.rank_rows(y.images[None, :ell])[0])
        if tree.codes[x] < 0:
            raise ValueError(
                f"reference element {format_permutation(y)} lies outside <g, h>, "
                f"a group of order {np.count_nonzero(tree.codes >= 0)}"
            )
        word = tree.steps.word(np.array(tree.path_from_root(x)))
        if evaluate(word, g, h) != y:
            raise InvariantError(f"tree word for {format_permutation(y)} evaluates elsewhere")
        return word

    return lookup


def check_mode(n: int, mode: str) -> int | None:
    """None for "exact", the sample count for "sample:M"; ValueError for any
    other mode and for exact mode above MAX_EXACT_DEGREE. Builds nothing,
    so it costs the same at any n."""
    count = mode.removeprefix("sample:")
    if mode != "exact" and not (count != mode and count.isdecimal() and int(count) > 0):
        raise ValueError(f"mode must be 'exact' or 'sample:M' with M a positive integer, got {mode!r}")
    if mode == "exact" and n > MAX_EXACT_DEGREE:
        raise ValueError(f"exact mode enumerates ~n^3/3 words; capped at n <= {MAX_EXACT_DEGREE}")
    return None if mode == "exact" else int(count)


def comparison_report(
    g: Permutation,
    h: Permutation,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
) -> ComparisonReport:
    """The comparison constant A (an exact Fraction in exact mode), the gap
    bound it transfers, and the statistics of the words behind it.

    Exact mode charges every one of reference_rows, so an element in both
    translates counts once per translate; sample mode draws M elements by
    sample_reference. While the tuple graph of <g, h> fits
    under MAX_VERTICES (n <= 10) the words are shortest ones from its tree,
    each checked by evaluating it, and an element outside <g, h> is a
    ValueError naming |<g, h>|. Above, every element is synthesized through
    one context, built from rng before any draw; synthesis failures
    propagate. The mode, the exact cap (check_mode) and the rng are checked
    before anything is built.
    """
    n = g.degree
    samples = check_mode(n, mode)
    synthesized = math.perm(n, regular_tuple_length(g, h)) > MAX_VERTICES
    if rng is None and (samples is not None or synthesized):
        raise ValueError("sample mode, and synthesized words above n = 10, need an rng")
    translators = reference_measure(g, h)
    if synthesized:
        ctx = prepare_context(g, h, rng)
        word_of = lambda y: synthesize(ctx, y)
    else:
        word_of = _tree_words(g, h)
    if samples is None:
        elements = Permutation._raw_rows(reference_rows(translators))
        words = len(elements)
    else:
        elements = sample_reference(translators, samples, rng)
        words = samples

    inv_ps = 8  # 1/p(s): the lazy measure gives each of g, g^-1, h, h^-1 mass 1/8
    sums = [0] * 4  # sum_y |y| N(s, y); each y has mass 1/words
    max_len = 0
    max_term = 0
    for y in elements:
        cnt = generator_counts(word_of(y))
        length = cnt.total
        max_len = max(max_len, length)
        for i, c in enumerate((cnt.g, cnt.h, cnt.g_inv, cnt.h_inv)):
            sums[i] += length * c
            max_term = max(max_term, length * c)

    a_value = Fraction(inv_ps * max(sums), words)
    limit = inv_ps * Fraction(max_len) ** 2
    if a_value > limit:
        raise InvariantError(f"A = {a_value} exceeds its bound (1/p(s)) * max|y|^2 = {limit}")

    err = None
    if samples is not None:
        # Hoeffding half-width at 95% over the four sums; reported, not asserted
        a_value = float(a_value)
        err = inv_ps * max_term * math.sqrt(math.log(8 / 0.05) / (2 * samples))
    ref = Fraction(3, n - 1)
    return ComparisonReport(
        n=n,
        A=a_value,
        gap_reference=ref,
        gap_lower_bound=gap_lower_bound(a_value, ref),
        mode=mode,
        words_used=words,
        max_word_length=max_len,
        sample_error=err,
    )


def gap_lower_bound(A: Fraction | float, delta_prime: Fraction) -> Fraction | float:
    """delta(p) >= delta(p') / A."""
    if A <= 0:
        raise ValueError("comparison constant must be positive")
    return delta_prime / A


def l2_comparison_bound(
    k: int,
    A: float,
    reference_decay: Callable[[int], float],
    group_order: int,
) -> float:
    """Right-hand side of the l2 transfer: |G| e^(-k/2A) + decay(round(k/2A))^2.

    reference_decay(j) is the reference walk's l2 distance to uniform after
    j steps; it and any distance the bound is compared against must share a
    normalization convention. group_order is explicit because the printed
    inequality needs |G| and nothing else here knows the group.
    """
    if A <= 0:
        raise ValueError("comparison constant must be positive")
    j = round(k / (2 * A))
    return group_order * math.exp(-k / (2 * A)) + reference_decay(j) ** 2
