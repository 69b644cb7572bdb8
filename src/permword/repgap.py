"""Exact spectral gap of the 3-cycle class walk, via partition arithmetic.

The averaging operator of the full 3-cycle conjugacy class acts on each
irreducible block as the scalar chi(c)/dim, and that character ratio has a
closed form in the partition: an integer invariant M3 (a cubic symmetric
function of the shifted parts) fixes the ratio through

    ratio(lam) = M3(lam) / (2 n (n-1) (n-2)) - 3 / (2 (n-2)).

Within fixed n the map M3 -> ratio is affine increasing, so all ordering
work happens in exact integers and results are returned as Fractions.

`partitions(n)` is a table of every partition of n with its M3, built by
numpy one row at a time. Row j holds every prefix of j parts, all >= 2,
with an int32 pointer to its parent in row j-1 and its j-th part; each such
prefix, padded with ones, is exactly one partition. M3 is accumulated row
by row, each part adding its summand to the parent's sum, and the trailing
ones add a prefix sum read from a table. The result lands in an int64
column at the partition's reverse-lexicographic position, counted from the
number of partitions under the node's earlier siblings. Tuples are built
only when the table is indexed or iterated.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import walk as walk_mod
from .errors import InvariantError
from .perm import Permutation

# p(75) is about 8.1e6: its table takes about 0.8 s and 240 MB. p(100) is
# about 1.9e8. Parts are stored as int8.
MAX_EXACT_GAP_DEGREE = 75


class PartitionTable(Sequence):
    """Read-only sequence of the partitions of n in reverse lexicographic
    order ((n,) first, (1,)*n last), with their M3 in the int64 column `m3`.

    Row j of the table holds the prefixes of j parts, all >= 2, of the
    partitions of n; each node keeps its parent's index in row j-1 and its
    j-th part. A node stands for one partition, itself padded with ones.
    `len` reads the column. Indexing one position walks the parent pointers
    up; iteration builds every tuple row by row, carrying prefixes, and
    keeps the list for later indexing.
    """

    def __init__(self, n, m3_column, parents, parts, leaf_at):
        self.n = n
        self.m3 = m3_column
        self._parents = parents  # parents[j-1]: row-j node -> row-(j-1) node
        self._parts = parts  # parts[j-1]: row-j node -> its j-th part
        self._leaf_at = leaf_at  # leaf_at[j]: row-j node -> position, increasing
        self._tuples: list[tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.m3)

    def __getitem__(self, i):
        if isinstance(i, slice) or self._tuples is not None:
            return self._all()[i]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("partition index out of range")
        i %= len(self)
        for row, at in enumerate(self._leaf_at):
            col = int(np.searchsorted(at, i))
            if col < at.size and at[col] == i:
                break
        lam = []
        for r in range(row, 0, -1):
            lam.append(int(self._parts[r - 1][col]))
            col = int(self._parents[r - 1][col])
        lam.reverse()
        return tuple(lam) + (1,) * (self.n - sum(lam))

    def __iter__(self):
        return iter(self._all())

    def _all(self) -> list[tuple[int, ...]]:
        if self._tuples is None:
            out: list[tuple[int, ...]] = [()] * len(self)
            single = [(d,) for d in range(self.n + 1)]
            ones = [(1,) * r for r in range(self.n + 1)]
            prefixes = [()]
            remaining = np.array([self.n])
            for row, at in enumerate(self._leaf_at):
                if row:
                    parent, part = self._parents[row - 1], self._parts[row - 1]
                    prefixes = [
                        prefixes[p] + single[d]
                        for p, d in zip(parent.tolist(), part.tolist())
                    ]
                    remaining = remaining[parent] - part
                for pos, prefix, r in zip(at.tolist(), prefixes, remaining.tolist()):
                    out[pos] = prefix + ones[r]
            self._tuples = out
        return self._tuples


def _restricted_counts(n: int) -> np.ndarray:
    """P[r, c] = number of partitions of r into parts <= c, so P[n, n] = p(n)."""
    P = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(n)]
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            P[r][c] = P[r][c - 1] + (P[r - c][c] if c <= r else 0)
    return np.array(P, dtype=np.int64)


def _summand(j, part):
    """Term of part `part` at 1-based index j in the sum that defines M3."""
    d = part - j
    return d * (d + 1) * (2 * d + 1) + j * (j - 1) * (2 * j - 1)


def partitions(n: int) -> PartitionTable:
    """All partitions of n, parts descending, in reverse lexicographic order
    (so (n,) is first and (1,)*n is last), as a `PartitionTable`."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_EXACT_GAP_DEGREE:
        raise ValueError(f"partition tables are capped at n <= {MAX_EXACT_GAP_DEGREE}")
    stride = n + 1
    counts = _restricted_counts(n).ravel()  # counts[r * stride + c] = P[r, c]
    index = np.arange(stride, dtype=np.int64)
    # ones_m3[k]: M3 of k trailing ones placed at indices 1..k
    ones_m3 = np.cumsum(np.where(index > 0, _summand(index, 1), 0))
    m3_column = np.empty(int(counts[-1]), dtype=np.int64)
    parents: list[np.ndarray] = []
    parts: list[np.ndarray] = []
    leaf_at: list[np.ndarray] = []
    # row j, starting from the empty prefix: for each node the sum still to
    # place, the cap on its next part, M3 of its parts and the position of
    # the first leaf below it
    remaining = np.full(1, n, dtype=np.int32)
    cap = remaining
    acc = np.zeros(1, dtype=np.int64)
    first = np.zeros(1, dtype=np.int64)
    for j in range(n // 2 + 1):
        width = np.minimum(remaining, cap)
        below = counts[remaining * stride + width]  # leaves under each node
        # the node padded with ones is the last leaf under it
        at = first + below - 1
        m3_column[at] = acc + ones_m3[j + remaining] - ones_m3[j]
        leaf_at.append(at)
        # children take parts width down to 2; the earlier siblings of a
        # child hold the partitions of remaining whose first part is larger
        fan = np.maximum(width - 1, 0)
        end = np.cumsum(fan, dtype=np.int32)
        if not end[-1]:
            break
        part = np.repeat(end + 1, fan) - np.arange(end[-1], dtype=np.int32)
        parents.append(np.repeat(np.arange(fan.size, dtype=np.int32), fan))
        parts.append(part.astype(np.int8))
        rem_parent = np.repeat(remaining, fan)
        acc = np.repeat(acc, fan) + _summand(j + 1, index)[part]
        first = np.repeat(first + below, fan) - counts[rem_parent * stride + part]
        remaining = rem_parent - part
        cap = part
    return PartitionTable(n, m3_column, parents, parts, leaf_at)


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
    return sum(_summand(j, part) for j, part in enumerate(lam, start=1))


def char_ratio_3cycle(lam: tuple[int, ...]) -> Fraction:
    """Eigenvalue of the (non-lazy) 3-cycle class average on the lam block."""
    n = sum(lam)
    if n < 3:
        raise ValueError("3-cycles need n >= 3")
    return _ratio(n, m3(lam))


def _ratio(n: int, m3_value: int) -> Fraction:
    return Fraction(m3_value, 2 * n * (n - 1) * (n - 2)) - Fraction(3, 2 * (n - 2))


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
    taken over the table's integer M3 column, and tuples are built only
    for the partitions that attain it.
    """
    if n < 3:
        raise ValueError("n >= 3 required")
    table = partitions(n)
    inner = table.m3[1:-1]  # drop (n) first and (1^n) last
    best = int(inner.max())
    attaining = tuple(table[i] for i in (np.flatnonzero(inner == best) + 1).tolist())
    second = _ratio(n, best)
    return GapExact(n, 1 - second, second, attaining)


def gap_table(n: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """(partition, ratio) for every partition of n, reverse-lex order."""
    if n < 3:
        raise ValueError("3-cycles need n >= 3")
    table = partitions(n)
    return [(lam, _ratio(n, v)) for lam, v in zip(table, table.m3.tolist())]


# -- brute-force oracles ------------------------------------------------------------


def _class_matrix(n: int) -> np.ndarray:
    """Dense transition matrix of the non-lazy 3-cycle class average on Alt(n)."""
    cycles = walk_mod.three_cycles(n)
    m = walk_mod.WalkMeasure(walk_mod.Atom(c, 1.0 / len(cycles)) for c in cycles)
    return walk_mod.gather_matrix(*walk_mod.transition_tables(m, walk_mod.DenseGroup("alt", n)))


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
    M = walk_mod.gather_matrix(*walk_mod.transition_tables(m, walk_mod.DenseGroup("sym", n)))
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
