"""Spectral-gap transfer from a class walk to the generator walk.

The lazy walk p on S = {g, h, g^-1, h^-1} is compared against a reference
walk p' whose gap is known: uniform on all 3-cycles when both generators are
even, else the average of the two translated classes gC and g^-1 C (using an
odd generator as translator, so both cosets are charged). Writing each
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
from typing import Callable

import numpy as np

from .errors import InvariantError
from .perm import Permutation, format_permutation
from .schreier import TupleGraph
from .walk import (
    DenseGroup,
    WalkMeasure,
    gather_matrix,
    three_cycle_images,
    transition_tables,
    translated_class,
)
from .word import Word, evaluate, generator_counts
from .synth import SynthContext, synthesize

__all__ = [
    "ComparisonReport",
    "reference_measure",
    "comparison_report",
    "gap_lower_bound",
    "l2_comparison_bound",
    "dense_walk_gap",
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


def reference_measure(g: Permutation, h: Permutation) -> dict[Permutation, Fraction]:
    """The reference walk p' as exact masses.

    Both generators even: uniform on the 3-cycle class (inside Alt like the
    generator walk). Otherwise the walk lives on all of Sym, and p' is the
    average of the translated classes tC and t^-1 C for an odd generator t;
    the two cosets can overlap, so masses accumulate.

    The keys wrap the rows of one class image array (three_cycle_images or
    translated_class's merged cosets), and every key shares one of at most
    two Fraction objects: 1/|C|, or 1/(2|C|) off the overlap.
    """
    if g.degree < 3:
        raise ValueError("3-cycles need n >= 3")
    if g.is_even() and h.is_even():
        cls = three_cycle_images(g.degree)
        return dict.fromkeys(Permutation._raw_rows(cls), Fraction(1, cls.shape[0]))
    counts = translated_class(g if not g.is_even() else h)
    total = sum(counts.values())  # 2|C|
    masses = {k: Fraction(k, total) for k in (1, 2)}
    return dict(zip(counts, map(masses.__getitem__, counts.values())))


def regular_tuple_length(g: Permutation, h: Permutation) -> int:
    """The ell on which <g, h> acts freely, fewest vertices first: Alt(n)
    acts regularly on injective (n-2)-tuples and Sym(n) on (n-1)-tuples, so
    n - 2 for an even pair and n - 1 otherwise (at least 1)."""
    return max(1, g.degree - (2 if g.is_even() and h.is_even() else 1))


def _word_provider(
    g: Permutation, h: Permutation, ctx: SynthContext | None
) -> Callable[[Permutation], Word]:
    if ctx is not None:
        return lambda y: synthesize(ctx, y)
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


def _parse_mode(mode: str) -> int | None:
    """None for exact, sample count for "sample:M"."""
    if mode == "exact":
        return None
    count = mode.removeprefix("sample:")
    if count != mode and count.isdecimal() and int(count) > 0:
        return int(count)
    raise ValueError(f"mode must be 'exact' or 'sample:M' with M a positive integer, got {mode!r}")


def comparison_report(
    g: Permutation,
    h: Permutation,
    ctx: SynthContext | None,
    mode: str = "exact",
    rng: np.random.Generator | None = None,
) -> ComparisonReport:
    """The comparison constant A (an exact Fraction in exact mode), the gap
    bound it transfers, and the statistics of the words behind it.

    ctx None takes shortest words from the tree of <g, h> on the tuples it
    acts on freely (TupleGraph.tree, n <= 10), each checked by evaluating
    it; an element outside <g, h> is a ValueError naming |<g, h>|.
    Otherwise every reference element is synthesized through the context.
    Synthesis failures propagate.
    """
    n = g.degree
    pprime = reference_measure(g, h)
    provider = _word_provider(g, h, ctx)
    samples = _parse_mode(mode)
    inv_ps = 8  # 1/p(s): the lazy measure gives each of g, g^-1, h, h^-1 mass 1/8

    if samples is None:
        if n > MAX_EXACT_DEGREE:
            raise ValueError(
                f"exact mode enumerates ~n^3/3 words; capped at n <= {MAX_EXACT_DEGREE}"
            )
        items = list(pprime.items())
    else:
        if rng is None:
            raise ValueError("sample mode needs an rng")
        support = list(pprime.keys())
        # the masses are a few shared Fractions: convert each once, look up by identity
        ids = list(map(id, pprime.values()))
        as_float = {i: float(m) for i, m in dict(zip(ids, pprime.values())).items()}
        probs = np.array(list(map(as_float.__getitem__, ids)))
        probs /= probs.sum()
        draws = rng.choice(len(support), size=samples, p=probs)
        items = [(support[int(i)], Fraction(1, samples)) for i in draws]

    sums = [Fraction(0)] * 4
    max_len = 0
    max_term = 0
    for y, mass in items:
        cnt = generator_counts(provider(y))
        length = cnt.total
        max_len = max(max_len, length)
        for i, c in enumerate((cnt.g, cnt.h, cnt.g_inv, cnt.h_inv)):
            sums[i] += length * c * mass
            max_term = max(max_term, length * c)

    a_value = inv_ps * max(sums)
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
        words_used=len(items),
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


def dense_walk_gap(m: WalkMeasure, group: DenseGroup) -> float:
    """Ordering spectral gap 1 - lambda_2 of a symmetric measure's walk,
    by dense eigensolve over an enumerated group (oracle-sized groups)."""
    eig = np.linalg.eigvalsh(gather_matrix(*transition_tables(m, group)))
    return float(1.0 - eig[-2])
