"""Partition arithmetic and exact gaps. The character-ratio oracle is an
independent Murnaghan-Nakayama recursion over beta numbers; the closed-form
ratio must agree with it on every partition up to n = 9. The partition
table is checked against a recursive enumeration and Euler's pentagonal
recurrence."""

from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest

from permword import (
    Permutation,
    cayley_spectrum_bruteforce,
    char_ratio_3cycle,
    garna_check,
    spectral_gap_exact,
)
from permword import walk
from permword.errors import InvariantError
from permword.repgap import (
    MAX_EXACT_GAP_DEGREE,
    conjugate_partition,
    distinct_values,
    gap_table,
    m3,
    partitions,
    switch_move,
)


def mn_char(lam, rho):
    """Murnaghan-Nakayama: chi^lam at cycle type rho, via rim hooks on
    beta numbers. Exponential, fine for n <= 9."""
    lam = tuple(x for x in lam if x > 0)
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], tuple(rho[1:])
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(betas)
    total = 0
    for b in betas:
        if b - k < 0 or (b - k) in bset:
            continue
        crossed = sum(1 for c in betas if b - k < c < b)
        nb = sorted((bset - {b}) | {b - k}, reverse=True)
        nlam = tuple(nb[i] - (len(nb) - 1 - i) for i in range(len(nb)))
        total += (-1) ** crossed * mn_char(nlam, rest)
    return total


def mn_ratio_3cycle(lam):
    n = sum(lam)
    rho3 = (3,) + (1,) * (n - 3)
    rho1 = (1,) * n
    return Fraction(mn_char(lam, rho3), mn_char(lam, rho1))


def partitions_recursive(n):
    """Reverse-lex partitions of n by depth-first recursion, one tuple per
    prefix."""
    out = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, max_part), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def pentagonal_counts(n_max):
    """p(0..n_max) from Euler's pentagonal number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            k += 1
    return p


PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30}


def test_partition_enumeration():
    for n, count in PARTITION_COUNTS.items():
        parts = partitions(n)
        assert len(parts) == count
        assert len(set(parts)) == count
        assert all(sum(lam) == n for lam in parts)
        assert all(all(a >= b for a, b in zip(lam, lam[1:])) for lam in parts)


def test_partition_table_matches_recursion_and_m3():
    for n in range(31):
        table = partitions(n)
        want = partitions_recursive(n)
        assert list(table) == want, n
        assert table.m3.dtype == np.int64
        assert table.m3.tolist() == [m3(lam) for lam in want], n
    # single positions walk the parent pointers, not the tuple list
    for n in (0, 1, 7, 18):
        table = partitions(n)
        assert [table[i] for i in range(len(table))] == partitions_recursive(n)
        assert table._tuples is None


def test_partition_table_len_is_pentagonal_count():
    p = pentagonal_counts(60)
    for n in range(61):
        table = partitions(n)
        assert len(table) == p[n], n
        assert table._tuples is None  # len builds no tuple
    assert p[50] == 204_226


def test_partition_table_is_a_read_only_sequence():
    table = partitions(6)
    assert isinstance(table, Sequence)
    assert table[0] == (6,) and table[-1] == (1,) * 6
    assert table[1:3] == [(5, 1), (4, 2)]
    assert (3, 2, 1) in table and table.index((3, 2, 1)) == 5
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(TypeError):
        table[1.0]
    with pytest.raises(TypeError):
        table[0] = (6,)


def test_partitions_reject_bad_degrees():
    with pytest.raises(ValueError):
        partitions(-1)
    # refused before anything is allocated
    with pytest.raises(ValueError, match="n <= 75"):
        partitions(MAX_EXACT_GAP_DEGREE + 1)


def test_conjugate_partition_involution():
    for lam in partitions(7):
        assert conjugate_partition(conjugate_partition(lam)) == lam
    assert conjugate_partition((4, 2, 1)) == (3, 2, 1, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_char_ratio_matches_murnaghan_nakayama(n):
    for lam in partitions(n):
        assert char_ratio_3cycle(lam) == mn_ratio_3cycle(lam), lam


def test_char_ratio_frozen_values():
    assert char_ratio_3cycle((5,)) == 1
    assert char_ratio_3cycle((4, 1)) == Fraction(1, 4)
    assert char_ratio_3cycle((3, 2)) == Fraction(-1, 5)
    assert char_ratio_3cycle((3, 1, 1)) == 0
    assert char_ratio_3cycle((2, 2, 1)) == Fraction(-1, 5)
    assert char_ratio_3cycle((2, 1, 1, 1)) == Fraction(1, 4)
    assert char_ratio_3cycle((1, 1, 1, 1, 1)) == 1


def test_sign_irrep_invisible_to_even_class():
    # 3-cycles are even, so conjugate partitions share a ratio
    for lam in partitions(8):
        assert char_ratio_3cycle(lam) == char_ratio_3cycle(conjugate_partition(lam))


@pytest.mark.parametrize("n", [5, 6, 7, 12, 25])
def test_spectral_gap_exact_value_and_attainers(n):
    res = spectral_gap_exact(n)
    assert res.gap == Fraction(3, n - 1)
    assert res.second_eigenvalue == 1 - Fraction(3, n - 1)
    expected = {(n - 1, 1), (2,) + (1,) * (n - 2)}
    assert set(res.attaining) == expected
    # no other partition gets as close to 1
    for lam in partitions(n):
        if lam in expected or lam in ((n,), (1,) * n):
            continue
        assert char_ratio_3cycle(lam) < res.second_eigenvalue


@pytest.mark.parametrize("n", [50, 60])
def test_spectral_gap_exact_large_degrees(n):
    res = spectral_gap_exact(n)
    assert res.gap == Fraction(3, n - 1)
    assert res.second_eigenvalue == 1 - Fraction(3, n - 1)
    assert res.attaining == ((n - 1, 1), (2,) + (1,) * (n - 2))


def test_gap_table_covers_all_partitions():
    table = gap_table(6)
    assert table[0] == ((6,), Fraction(1))
    assert [lam for lam, _ in table] == list(partitions(6))
    assert [r for _, r in table] == [char_ratio_3cycle(lam) for lam in partitions(6)]
    assert max(r for _, r in table if r != 1) == 1 - spectral_gap_exact(6).gap


def test_m3_switch_identity_exhaustive_small():
    for n in (4, 5, 6, 7):
        for lam in partitions(n):
            cols = conjugate_partition(lam)
            for b in range(2, len(cols) + 1):
                for a in range(1, b):
                    try:
                        new_lam, delta = switch_move(lam, a, b)
                    except ValueError:
                        continue
                    assert m3(new_lam) - m3(lam) == delta, (lam, a, b)


def test_switch_move_rejects_non_moves():
    with pytest.raises(ValueError):
        switch_move((3, 3), 1, 5)
    with pytest.raises(ValueError):
        switch_move((2, 2), 2, 1)


def test_bruteforce_spectrum_matches_ratios():
    eig = cayley_spectrum_bruteforce(5)
    got = distinct_values(eig)
    want = [1.0, 0.25, 0.0, -0.2]
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_bruteforce_spectrum_n4():
    got = distinct_values(cayley_spectrum_bruteforce(4))
    want = [1.0, 0.0, -0.5]
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) < 1e-8


def test_distinct_values_collapses_near_duplicates():
    vals = np.array([1.0, 1.0 + 1e-12, 0.5, 0.5 - 1e-10, -0.25])
    assert distinct_values(vals) == [1.0, 0.5, -0.25]


def test_garna_norm_comparison_and_conventions():
    for n in (4, 5, 6):
        rep = garna_check(n, Permutation.transposition(n, 1, 2))
        assert rep.ok
        assert rep.has_minus_one
        assert rep.gap_translated >= rep.gap_alt_norm - 1e-9
        assert rep.reference == Fraction(3, n - 1)
    r5 = garna_check(5, Permutation.transposition(5, 1, 2))
    assert abs(r5.gap_alt - 0.75) < 1e-9
    assert abs(r5.gap_translated_signed - 0.75) < 1e-9
    # n = 4: the signed comparison is genuinely below the ordering gap
    r4 = garna_check(4, Permutation.transposition(4, 1, 2))
    assert abs(r4.gap_alt - 1.0) < 1e-9
    assert abs(r4.gap_translated_signed - 0.5) < 1e-9


def test_dense_oracles_raise_on_non_symmetric_matrix(monkeypatch):
    # an upper-triangle defect is invisible to eigvalsh (it reads the lower
    # triangle), so only the explicit symmetry checks can catch it
    build = walk.gather_matrix

    def skewed(idx, weights):
        M = build(idx, weights)
        M[0, 1] += 0.5
        return M

    monkeypatch.setattr(walk, "gather_matrix", skewed)
    with pytest.raises(InvariantError):
        cayley_spectrum_bruteforce(4)
    with pytest.raises(InvariantError, match="translated walk"):
        garna_check(4, Permutation.transposition(4, 1, 2))


def test_garna_rejects_bad_inputs():
    with pytest.raises(ValueError):
        garna_check(7, Permutation.transposition(7, 1, 2))
    with pytest.raises(ValueError):
        garna_check(5, Permutation.from_cycles(5, [(1, 2, 3)]))
