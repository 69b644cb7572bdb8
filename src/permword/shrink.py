"""Support shrinking: from a random generating pair to a short word whose
permutation moves at most 3 points.

The pipeline has two stages. First, a scan over low powers of the
generators finds an element v containing a cycle of length l >= 3n/4
with v^l != e; then s0 = v^l is a non-identity word of support at most
n - l. Second, repeated commutator steps s -> [s, s^sigma] shrink the
support geometrically until it is at most 3; each sigma is a lazy walk led
through the pair's tree on ordered pairs to meet two point constraints.
Every intermediate element carries its word, so the result is verifiable
by evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, InvariantError, RetryExhaustedError
from .perm import Permutation
from .schreier import _conditioned_walk_counted, pair_tree
from .walk import StepTable
from .word import GEN_G, GEN_H, Cat, Pow, Word, WordElement, expanded_length

# Absolute constants of the construction, fixed so a seed reproduces a run.
WALK_CONSTANT = 40.0  # lazy-walk length ceil(WALK_CONSTANT * ln n)
BUDGET_COEFFICIENT = 10.0  # word-length budget c * n * (log2 n)^BUDGET_EXPONENT
BUDGET_EXPONENT = 3
SCAN_CONSTANT = 10.0  # long-cycle scan over powers j <= ceil(SCAN_CONSTANT * ln n)
FALLBACK_WORDS = 24  # short random prefixes tried when the scan finds nothing
SIGMA_BUDGET = 24  # conjugator draws per commutator step
X_ONE_SCAN = 10  # draws that search for the best (X, support) before settling


def walk_length(n: int) -> int:
    """Length k of the lazy walks that shrinking and synthesis draw."""
    return math.ceil(WALK_CONSTANT * math.log(n))


@dataclass(frozen=True)
class LongCycleElement:
    """A word v with a distinguished long cycle and v^length != identity."""

    element: WordElement
    length: int
    cycle: tuple[int, ...]

    @property
    def word(self) -> Word:
        return self.element.word

    @property
    def perm(self) -> Permutation:
        return self.element.perm


def _candidate_key(perm: Permutation, word_len: int, j: int, family: int):
    """Validity and preference score for a long-cycle candidate.

    Returns None if invalid. The score prefers small leftover support
    m = |supp(perm^l)| (bucketed so near-ties defer to cheaper words),
    then cheap powers l * word_len, then scan order.
    """
    n = perm.degree
    cycles = perm.cycles(include_fixed=False)
    if not cycles:
        return None
    cyc = max(cycles, key=len)
    l = len(cyc)
    if 4 * l < 3 * n:
        return None
    m = sum(len(c) for c in cycles if l % len(c) != 0)
    if m < 2:
        return None
    if m <= 3:
        bucket = 0
    elif m <= 9:
        bucket = 1
    elif m <= 20:
        bucket = 2
    else:
        bucket = 3
    return (bucket, l * word_len, j, family), cyc, l


def _scan(
    h: Permutation, jmax: int, prefix: WordElement | None, plen: int, family: int
) -> Iterator[tuple[tuple, LongCycleElement]]:
    """Valid (key, candidate) pairs of prefix * h^j for j = 1..jmax, in j
    order; the word is Pow(h, j) alone when there is no prefix, and the
    key scores it as a word of plen + j symbols."""
    hp = h
    for j in range(1, jmax + 1):
        perm = hp if prefix is None else prefix.perm * hp
        scored = _candidate_key(perm, plen + j, j, family)
        if scored is not None:
            key, cyc, l = scored
            word = Pow(GEN_H, j) if prefix is None else Cat((prefix.word, Pow(GEN_H, j)))
            yield key, LongCycleElement(WordElement(word, perm), l, tuple(cyc))
        hp = hp * h


def find_long_cycle_element(
    g: Permutation,
    h: Permutation,
    rng: np.random.Generator,
) -> LongCycleElement:
    """Scan h^j and g*h^j for j up to ceil(SCAN_CONSTANT * ln n).

    Keeps the best-scoring valid candidate over the whole scan. If none
    is valid, retries with fresh random short words w in front (w * h^j,
    first valid wins) before giving up. The scan over j is capped at the
    order of h, past which candidates repeat. The fallback pool is sized
    for small degrees, where only one or two cycle types qualify and the
    cosets w<h> scanned per word carry few distinct types each.

    Feasibility is a function of degree and generator parity: no cycle
    type has a cycle of length l >= 3n/4 plus a second cycle whose
    length does not divide l when n <= 8 or n = 10, and every
    qualifying type below n = 14 (and at n = 15) is an odd permutation,
    out of reach when both generators are even. Those cases raise
    ValueError up front.
    """
    if g.degree != h.degree:
        raise ValueError("degree mismatch")
    n = g.degree
    if n < 9 or n == 10:
        raise ValueError(f"no qualifying cycle type exists at degree {n}")
    if g.is_even() and h.is_even() and (n < 14 or n == 15):
        raise ValueError(
            f"every qualifying cycle type at degree {n} is odd, "
            "unreachable from two even generators"
        )
    jmax = min(math.ceil(SCAN_CONSTANT * math.log(n)), h.order())

    found = min(
        itertools.chain(
            _scan(h, jmax, None, 0, 0), _scan(h, jmax, WordElement(GEN_G, g), 1, 1)
        ),
        key=itemgetter(0),
        default=None,
    )
    if found is not None:
        return found[1]

    # Rare: neither generator family produced a long cycle. Mix with a
    # random word and rescan, first valid candidate wins. Two tiers:
    # short words first (cheap, keeps the eventual power word small),
    # then length-2n words, long enough to decorrelate the cycle type
    # from the generators' own.
    steps = StepTable.of(g, h)
    short_len = math.ceil(2 * math.log(n)) + 2
    for plen in [short_len] * FALLBACK_WORDS + [2 * n] * 8:
        wperm, wword = steps.materialize(rng.integers(0, 4, size=plen))
        found = next(_scan(h, jmax, WordElement(wword, wperm), plen, 0), None)
        if found is not None:
            return found[1]
    raise RetryExhaustedError(
        f"no element with a cycle of length >= 3n/4 and nontrivial power "
        f"found in {jmax} powers and {FALLBACK_WORDS + 8} fallback words"
    )


def _commutator_step_counted(
    s: WordElement,
    g: Permutation,
    h: Permutation,
    k: int,
    rng: np.random.Generator,
) -> tuple[WordElement, int]:
    """One shrink step: replace s by [s, s^sigma] for a conditioned sigma.

    sigma is a length-k lazy walk led through the pair's tree to meet two
    point constraints: one target inside supp(s) chosen so the commutator is
    never the identity, one source outside so sigma does not simply
    normalize supp(s). Let X = |supp(s) & supp(s)^sigma|; the result
    moves at most 3X points, and X = 1 gives a support-3 element
    outright.

    Acceptance: X = 1 is taken immediately; for the first X_ONE_SCAN
    draws we keep the best (X, support) seen, then settle for any draw
    with X below the rejection threshold 2(1 + (7/6)|S|^2/n) that also
    makes progress (support must strictly drop once |S| > 24). Returns
    the result and its sigma draws. Raises RetryExhaustedError after
    SIGMA_BUDGET draws, and InvariantError if a result breaks the
    non-identity or 3X guarantee.
    """
    n = g.degree
    S = s.perm.support()
    size = len(S)
    if not 4 <= size <= n - 1:
        raise ValueError(f"support size {size} outside [4, {n - 1}]")
    in_S = frozenset(S)
    complement = [x for x in range(1, n + 1) if x not in in_S]
    threshold = 2.0 * (1.0 + (7.0 / 6.0) * size * size / n)

    def build(sig: WordElement) -> tuple[WordElement, int, int]:
        tau = s.conjugated_by(sig)
        r = s.inverse() * tau.inverse() * s * tau
        Ssig = {sig.perm.apply(x) for x in S}
        X = len(in_S & Ssig)
        supp_r = r.perm.support_size()
        if r.perm.is_identity():
            raise InvariantError("commutator guarantee violated")
        if supp_r > 3 * X:
            raise InvariantError("support bound 3X violated")
        return r, X, supp_r

    best: tuple[tuple[int, int], WordElement] | None = None
    for t in range(SIGMA_BUDGET):
        y1 = S[rng.integers(size)]
        y1p = S[rng.integers(size)]
        y2 = complement[rng.integers(len(complement))]
        y2p = s.perm.preimage(y1p)
        sigma_perm, sigma_word, _ = _conditioned_walk_counted(
            g, h, k, [(y1, y1p), (y2, y2p)], rng
        )
        r, X, supp_r = build(WordElement(sigma_word, sigma_perm))
        if X == 1:
            return r, t + 1
        qualifies = X <= threshold and (size <= 24 or supp_r < size)
        if t < X_ONE_SCAN:
            if qualifies and (best is None or (X, supp_r) < best[0]):
                best = ((X, supp_r), r)
            if t == X_ONE_SCAN - 1 and best is not None:
                return best[1], t + 1
        elif qualifies:
            return r, t + 1
    raise RetryExhaustedError(
        f"no acceptable conjugator in {SIGMA_BUDGET} draws "
        f"(support {size}, threshold {threshold:.1f})"
    )


def commutator_step(
    s: WordElement,
    g: Permutation,
    h: Permutation,
    k: int,
    rng: np.random.Generator,
) -> WordElement:
    """Public single-step form of the shrink iteration."""
    r, _ = _commutator_step_counted(s, g, h, k, rng)
    return r


@dataclass(frozen=True)
class ShrinkResult:
    element: Permutation
    word: Word
    iterations: int
    support_trace: tuple[int, ...]
    trial_counts: tuple[int, ...]  # sigma draws per commutator step, 1..SIGMA_BUDGET
    long_cycle: LongCycleElement


def word_length_budget(
    n: int, budget_coefficient: float = BUDGET_COEFFICIENT
) -> int:
    if not 0 < budget_coefficient < math.inf:
        raise ValueError(f"budget coefficient must be positive and finite: {budget_coefficient}")
    return math.ceil(budget_coefficient * n * math.log2(n) ** BUDGET_EXPONENT)


def _check_budget(word: Word, budget: int) -> None:
    length = expanded_length(word)
    if length > budget:
        raise BudgetExceededError(f"word length {length} exceeds budget {budget}")


def shrink_support(
    g: Permutation,
    h: Permutation,
    rng: np.random.Generator,
    budget_coefficient: float = BUDGET_COEFFICIENT,
) -> ShrinkResult:
    """Produce a word in g, h whose permutation moves at most 3 points.

    A pair that is not 2-transitive is a ValueError (schreier.pair_tree); a
    2-transitive pair is primitive, so its 3-cycle result proves that it
    contains Alt(n) (Jordan). Starts from s0 = v^l (v from
    find_long_cycle_element, which also sets the feasible degrees, n >= 9
    with exceptions at small n; its support is at most n - l <= n/4) and
    iterates commutator steps until the support is at most 3. Iteration count is capped at
    ceil(4 log2 log2 n) + 4 and the word length at
    budget_coefficient * n * (log2 n)^BUDGET_EXPONENT, s0 included;
    exceeding either raises rather than returning an oversized result.
    A coefficient that is not positive and finite is a ValueError.
    """
    pair_tree(g, h)  # also the degree check
    n = g.degree
    budget = word_length_budget(n, budget_coefficient)
    v = find_long_cycle_element(g, h, rng)
    l = v.length
    s = WordElement(Pow(v.word, l), v.perm**l)
    supp = s.perm.support_size()
    if not 0 < supp <= n - l:
        raise InvariantError("v^l support must be nonzero and avoid the cycle")
    _check_budget(s.word, budget)

    k = walk_length(n)
    max_iter = math.ceil(4 * math.log2(math.log2(n))) + 4
    trace = [supp]
    trials: list[int] = []
    iterations = 0
    while s.perm.support_size() > 3:
        if iterations >= max_iter:
            raise RetryExhaustedError(
                f"support still {s.perm.support_size()} after {max_iter} steps"
            )
        s, tries = _commutator_step_counted(s, g, h, k, rng)
        iterations += 1
        trace.append(s.perm.support_size())
        trials.append(tries)
        _check_budget(s.word, budget)
    # commutators are even, and an even non-identity element moving at
    # most 3 points is exactly a 3-cycle
    if iterations > 0 and not (s.perm.is_even() and s.perm.support_size() == 3):
        raise InvariantError("shrink result is not an even support-3 element")
    return ShrinkResult(
        element=s.perm,
        word=s.word,
        iterations=iterations,
        support_trace=tuple(trace),
        trial_counts=tuple(trials),
        long_cycle=v,
    )
