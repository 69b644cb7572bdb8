"""Exact spectral gap of the 3-cycle class walk, via partition arithmetic.

The averaging operator of the full 3-cycle conjugacy class acts on each
irreducible block as the scalar chi(c)/dim, and that character ratio has a
closed form in the partition: an integer invariant M3 (a cubic symmetric
function of the shifted parts) fixes the ratio through

    ratio(lam) = M3(lam) / (2 n (n-1) (n-2)) - 3 / (2 (n-2)).

Within fixed n the map M3 -> ratio is affine increasing, so all ordering
work happens in exact integers and results are returned as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import walk as walk_mod
from .errors import InvariantError
from .perm import Permutation


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts descending, in reverse lexicographic order
    (so (n,) is first and (1,)*n is last)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, max_part: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def is_partition(lam: tuple[int, ...]) -> bool:
    return all(a >= 1 for a in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def conjugate_partition(lam: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose of the diagram: entry k = number of parts >= k+1."""
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a > k) for k in range(lam[0]))


def m3(lam: tuple[int, ...]) -> int:
    """Integer invariant sum_j [(l_j - j)(l_j - j + 1)(2 l_j - 2j + 1)
    + j (j-1) (2j - 1)], j running 1-based over the parts."""
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    total = 0
    for j, part in enumerate(lam, start=1):
        d = part - j
        total += d * (d + 1) * (2 * part - 2 * j + 1) + j * (j - 1) * (2 * j - 1)
    return total


def char_ratio_3cycle(lam: tuple[int, ...]) -> Fraction:
    """Eigenvalue of the (non-lazy) 3-cycle class average on the lam block."""
    n = sum(lam)
    if n < 3:
        raise ValueError("3-cycles need n >= 3")
    return Fraction(m3(lam), 2 * n * (n - 1) * (n - 2)) - Fraction(3, 2 * (n - 2))


def switch_move(
    lam: tuple[int, ...], a: int, b: int
) -> tuple[tuple[int, ...], int]:
    """Move one box from column b to column a (1-based, a < b).

    Returns the new partition and the exact M3 increment
    6 ((lam'_a + 1 - a)^2 - (lam'_b - b)^2), lam' the conjugate. Raises if
    the move does not produce a partition.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    cols = list(conjugate_partition(lam))
    if b > len(cols) or cols[b - 1] < 1:
        raise ValueError(f"column {b} is empty")
    col_a = cols[a - 1]
    col_b = cols[b - 1]
    if a > 1 and cols[a - 2] < col_a + 1:
        raise ValueError("move would break column monotonicity at a")
    if b < len(cols) and col_b - 1 < cols[b]:
        raise ValueError("move would break column monotonicity at b")
    cols[a - 1] += 1
    cols[b - 1] -= 1
    new_cols = tuple(c for c in cols if c > 0)
    new_lam = conjugate_partition(new_cols)
    delta = 6 * ((col_a + 1 - a) ** 2 - (col_b - b) ** 2)
    return new_lam, delta


def switch_delta(lam: tuple[int, ...], a: int, b: int) -> int:
    return switch_move(lam, a, b)[1]


@dataclass(frozen=True)
class GapExact:
    n: int
    gap: Fraction
    second_eigenvalue: Fraction
    attaining: tuple[tuple[int, ...], ...]


def spectral_gap_exact(n: int) -> GapExact:
    """Exact gap of the 3-cycle class walk on Alt(n).

    On the alternating group the sign twist is invisible (3-cycles are
    even), so conjugate partitions give equal ratios and only (n) and
    (1^n) carry the trivial eigenvalue 1. The maximum over the rest is
    found by comparing integer M3 values.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    best_m3 = None
    attaining: list[tuple[int, ...]] = []
    for lam in partitions(n):
        if lam == (n,) or lam == (1,) * n:
            continue
        value = m3(lam)
        if best_m3 is None or value > best_m3:
            best_m3, attaining = value, [lam]
        elif value == best_m3:
            attaining.append(lam)
    second = Fraction(best_m3, 2 * n * (n - 1) * (n - 2)) - Fraction(3, 2 * (n - 2))
    return GapExact(n, 1 - second, second, tuple(attaining))


def gap_table(n: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """(partition, ratio) for every partition of n, reverse-lex order."""
    return [(lam, char_ratio_3cycle(lam)) for lam in partitions(n)]


# -- brute-force oracles ------------------------------------------------------------


def _class_matrix(n: int) -> np.ndarray:
    """Dense transition matrix of the non-lazy 3-cycle class average on Alt(n)."""
    cycles = walk_mod.three_cycles(n)
    m = walk_mod.WalkMeasure(walk_mod.Atom(c, 1.0 / len(cycles)) for c in cycles)
    return walk_mod.gather_matrix(*walk_mod.transition_tables(m, walk_mod.DenseGroup.alt(n)))


def _check_symmetric(M: np.ndarray, what: str) -> None:
    if not np.allclose(M, M.T):
        raise InvariantError(f"{what} matrix is not symmetric")


def _check_eigenvalue_one(eigs: np.ndarray, what: str) -> None:
    if abs(eigs[0] - 1.0) > 1e-9:
        raise InvariantError(f"{what} top eigenvalue is {eigs[0]}, not 1")


def cayley_spectrum_bruteforce(n: int) -> np.ndarray:
    """Dense spectrum of the non-lazy 3-cycle class average on Alt(n), n <= 6.

    Sorted descending. The distinct values must coincide with the character
    ratios even when the class splits in Alt(n): the split pieces pair up to
    real eigenvalues equal to the Sym(n) ratio.
    """
    if not 3 <= n <= 6:
        raise ValueError("brute force supports n in 3..6")
    M = _class_matrix(n)
    _check_symmetric(M, "class walk")
    return np.sort(np.linalg.eigvalsh(M))[::-1]


def distinct_values(values: np.ndarray, tol: float = 1e-8) -> list[float]:
    """Distinct entries of a sorted-descending array, tolerance-merged."""
    out: list[float] = []
    for v in values:
        if not out or abs(v - out[-1]) > tol:
            out.append(float(v))
    return out


@dataclass(frozen=True)
class GarnaReport:
    """Dense comparison of the translated-class walk with the class walk.

    Two gap conventions coexist. The ordering gap (1 - second largest
    eigenvalue) is the one the exact 3/(n-1) value refers to. The norm gap
    (1 - largest nontrivial |eigenvalue|) is the quantity the translation
    argument actually preserves: translating by g multiplies each
    eigenvalue by a unit, so only absolute values transfer. At n = 4 the
    two differ (the square-shape block has ratio -1/2), and the signed
    comparison is genuinely false there while the norm comparison holds
    with equality.
    """

    n: int
    gap_alt: float  # 1 - lambda_2 of M on Alt(n); equals 3/(n-1)
    gap_alt_norm: float  # 1 - max |nontrivial eigenvalue| of M on Alt(n)
    gap_translated: float  # norm gap of the translated walk, forced +-1 pair removed
    gap_translated_signed: float  # 1 - lambda_2 of the translated walk
    reference: Fraction  # exact 3/(n-1)
    has_minus_one: bool
    ok: bool  # gap_translated >= gap_alt_norm - tol


def garna_check(n: int, g: Permutation, tol: float = 1e-9) -> GarnaReport:
    """Compare the translated-class walk on Sym(n) with the class walk on Alt(n).

    The translated measure charges g*C and g^-1*C equally (g odd), lives on
    the odd coset, is symmetric, and always has eigenvalue -1 next to its
    eigenvalue 1 (the two coset-constant functions). Everything is solved
    densely; see GarnaReport for the two gap conventions reported.
    """
    if not 3 <= n <= 6:
        raise ValueError("dense check supports n in 3..6")
    if g.degree != n or g.parity() != 1:
        raise ValueError("g must be an odd permutation of degree n")
    M_alt = _class_matrix(n)
    eigs_alt = np.sort(np.linalg.eigvalsh(M_alt))[::-1]
    _check_eigenvalue_one(eigs_alt, "class walk")
    gap_alt = 1.0 - float(eigs_alt[1])
    gap_alt_norm = 1.0 - max(abs(float(eigs_alt[1])), abs(float(eigs_alt[-1])))

    counts = walk_mod.translated_class(g)
    total = sum(counts.values())  # 2|C|
    if any(p.parity() != 1 for p in counts):
        raise InvariantError("translated class charges an even permutation")
    m = walk_mod.WalkMeasure(walk_mod.Atom(p, k / total) for p, k in counts.items())
    M = walk_mod.gather_matrix(*walk_mod.transition_tables(m, walk_mod.DenseGroup.sym(n)))
    _check_symmetric(M, "translated walk")
    eigs = np.sort(np.linalg.eigvalsh(M))[::-1]
    _check_eigenvalue_one(eigs, "translated walk")
    has_minus_one = bool(abs(eigs[-1] + 1.0) <= 1e-8)
    # drop the single forced +1 and forced -1 before taking the norm gap
    interior = eigs[1:-1] if has_minus_one else eigs[1:]
    gap_translated = 1.0 - float(np.abs(interior).max())
    return GarnaReport(
        n=n,
        gap_alt=gap_alt,
        gap_alt_norm=gap_alt_norm,
        gap_translated=gap_translated,
        gap_translated_signed=1.0 - float(eigs[1]),
        reference=Fraction(3, n - 1),
        has_minus_one=has_minus_one,
        ok=bool(gap_translated >= gap_alt_norm - tol),
    )
