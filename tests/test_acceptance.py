"""Acceptance suite: one test per shipped guarantee, each emitting a single
PASS/FAIL line in the terminal summary. Tolerances and time limits are part
of the guarantee and are asserted, not just reported.

Criterion 4's signed-gap comparison at n = 4 is genuinely false (the square
partition's eigenvalue -1/2 caps the translated walk's signed gap at 1/2
while the class walk's ordering gap is 1); it stays a strict xfail rather
than being weakened."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from permword import (
    DenseGroup,
    Permutation,
    check_argu,
    comparison_report,
    estimate_gap,
    evaluate,
    expanded_length,
    garna_check,
    lazy_generator_measure,
    prepare_context,
    random_even,
    shrink_support,
    spectral_gap_exact,
    synthesize,
    three_cycle_lazy_measure,
    TupleGraph,
)
from permword.repgap import (
    cayley_spectrum_bruteforce,
    char_ratio_3cycle,
    conjugate_partition,
    distinct_values,
    m3,
    partitions,
    switch_move,
)
from permword.walk import beeth_profile, strong_mixing_time, transition_tables
from permword.kernels import convolve_steps

from conftest import (
    dense_adjacency,
    dense_walk_gap,
    generated_group,
    record_criterion,
    seeded_pair,
)


def test_criterion_1_exact_gap_window():
    t0 = time.perf_counter()
    ok = True
    for n in range(5, 41):
        res = spectral_gap_exact(n)
        ok &= isinstance(res.gap, Fraction) and res.gap == Fraction(3, n - 1)
        ok &= set(res.attaining) == {(n - 1, 1), (2,) + (1,) * (n - 2)}
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert record_criterion(
        ok, f"criterion 1: exact gap 3/(n-1) with both attainers, n=5..40 ({elapsed:.2f}s < 10s)"
    )


def test_criterion_2_bruteforce_spectra_match_character_ratios():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n in (4, 5, 6):
        eigs = distinct_values(cayley_spectrum_bruteforce(n))
        ratios = sorted({char_ratio_3cycle(lam) for lam in partitions(n)}, reverse=True)
        ok &= len(eigs) == len(ratios)
        if ok:
            worst = max(worst, max(abs(e - float(r)) for e, r in zip(eigs, ratios)))
    ok &= worst < 1e-8
    got5 = distinct_values(cayley_spectrum_bruteforce(5))
    want5 = [1.0, 0.25, 0.0, -0.2]
    ok &= len(got5) == 4 and max(abs(a - b) for a, b in zip(got5, want5)) < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert record_criterion(
        ok,
        f"criterion 2: dense Alt(4..6) spectra = character ratios, "
        f"max diff {worst:.2e} < 1e-8, n=5 set {{1, 1/4, 0, -1/5}} ({elapsed:.2f}s < 60s)",
    )


def test_criterion_3_switch_increment_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    while checked < 1000:
        n = int(rng.integers(4, 31))
        parts = partitions(n)
        lam = parts[int(rng.integers(len(parts)))]
        cols = conjugate_partition(lam)
        if len(cols) < 2:
            continue
        b = int(rng.integers(2, len(cols) + 1))
        a = int(rng.integers(1, b))
        try:
            new_lam, delta = switch_move(lam, a, b)
        except ValueError:
            continue
        formula = 6 * ((cols[a - 1] + 1 - a) ** 2 - (cols[b - 1] - b) ** 2)
        ok &= m3(new_lam) - m3(lam) == delta == formula
        checked += 1
    assert record_criterion(
        ok, "criterion 3: M3 increment of 1000 random single-switch pairs, n<=30, exact"
    )


def test_criterion_4_translated_walk_gap_n5():
    rep = garna_check(5, Permutation.transposition(5, 1, 2), tol=1e-9)
    ok = (
        abs(rep.gap_alt - 3 / 4) <= 1e-9
        and rep.gap_translated_signed >= rep.gap_alt - 1e-9
    )
    assert record_criterion(
        ok,
        "criterion 4 (n=5): translated-walk gap >= class-walk gap = 3/4, dense, tol 1e-9",
    )


@pytest.mark.xfail(
    strict=True,
    reason="signed gap of the translated walk at n=4 is 1/2 < 1 = ordering gap "
    "of the class walk; only the absolute-value gap transfers (and does, "
    "with equality, per GarnaReport.ok)",
)
def test_criterion_4_translated_walk_gap_n4():
    rep = garna_check(4, Permutation.transposition(4, 1, 2), tol=1e-9)
    ok = rep.gap_translated_signed >= rep.gap_alt - 1e-9
    record_criterion(
        ok,
        "criterion 4 (n=4): translated-walk signed gap >= class-walk gap = 1 "
        f"(signed {rep.gap_translated_signed:.3f}, norm comparison ok={rep.ok})",
    )
    assert ok


def test_criterion_5_shrink_success_rate():
    successes = 0
    slow = 0
    for seed in range(50):
        g, h, rng = seeded_pair(100, seed)
        t0 = time.perf_counter()
        try:
            res = shrink_support(g, h, rng)
        except Exception:
            continue
        finally:
            if time.perf_counter() - t0 >= 10.0:
                slow += 1
        if (
            1 <= res.element.support_size() <= 3
            and evaluate(res.word, g, h) == res.element
        ):
            successes += 1
    ok = successes >= 45 and slow == 0
    assert record_criterion(
        ok,
        f"criterion 5: shrink at n=100, seeds 0..49: {successes}/50 non-identity "
        f"support<=3 word-exact (need >=45), {slow} runs over 10s",
    )


def test_criterion_6_synthesis_exact_and_short():
    ok = True
    details = []
    for n in (20, 50, 100):
        g, h, rng = seeded_pair(n, 0)
        ctx = prepare_context(g, h, rng)
        budget = 10 * n * n * math.log2(n) ** 3
        worst_len = 0
        worst_time = 0.0
        for _ in range(20):
            target = random_even(n, rng)
            t0 = time.perf_counter()
            word = synthesize(ctx, target)
            dt = time.perf_counter() - t0
            worst_time = max(worst_time, dt)
            length = expanded_length(word)
            worst_len = max(worst_len, length)
            ok &= evaluate(word, g, h) == target
            ok &= length <= budget
            if n == 100:
                ok &= dt < 5.0
        details.append(f"n={n} len<= {worst_len} ({worst_len / budget:.1%} of budget), {worst_time:.2f}s")
    assert record_criterion(
        ok,
        "criterion 6: synthesis of 20 random even targets at n=20/50/100, all exact, "
        "length <= 10 n^2 log2(n)^3, <5s each at n=100 [" + "; ".join(details) + "]",
    )


def test_criterion_7_schreier_gap_estimates():
    hits = 0
    total = 0
    for n in (12, 16, 20, 24):
        for seed in range(20):
            g, h, rng = seeded_pair(n, seed)
            graph = TupleGraph(g, h, 3)
            est = estimate_gap(graph, rng=rng)
            total += 1
            if est.gap >= 0.05:
                hits += 1
    rate_ok = hits >= math.ceil(0.9 * total)

    g, h, _ = seeded_pair(6, 9)
    worst = 0.0
    for ell in (1, 2, 3):
        graph = TupleGraph(g, h, ell)
        eigs = np.sort(np.linalg.eigvalsh(dense_adjacency(graph)))[::-1]
        est = estimate_gap(graph, rng=np.random.default_rng(1))
        worst = max(worst, abs(est.lambda1 - eigs[1]))
    dense_ok = worst < 1e-6
    ok = rate_ok and dense_ok
    assert record_criterion(
        ok,
        f"criterion 7: tuple-graph gap >= 0.05 in {hits}/{total} runs "
        f"(n in {{12,16,20,24}}, ell=3, 20 seeds; need >=90%), estimator vs dense "
        f"at n=6 within {worst:.1e} (need 1e-6)",
    )


def test_criterion_8_small_alt_walk_battery():
    ok = True
    for n in (4, 5):
        group = DenseGroup("alt", n)
        m = three_cycle_lazy_measure(n)
        idx, probs = transition_tables(m, group)
        dist = np.zeros(group.size)
        dist[group.identity_index] = 1.0
        strong = strong_mixing_time(m, group)
        for _ in range(strong + 5):
            dist = convolve_steps(dist, idx, probs, 1)
            ok &= abs(dist.sum() - 1.0) <= 1e-9
        ok &= check_argu(m, group, 0.5)
        prof = beeth_profile(n, Permutation.transposition(n, 1, 2), 100)
        ok &= len(prof) == 100 and all(prof)
        u = 1.0 / group.size
        at = np.zeros(group.size)
        at[group.identity_index] = 1.0
        for _ in range(strong - 1):
            at = convolve_steps(at, idx, probs, 1)
        ok &= group.size * np.abs(at - u).max() > 0.5  # strong time is minimal
        at = convolve_steps(at, idx, probs, 1)
        ok &= group.size * np.abs(at - u).max() <= 0.5
    assert record_criterion(
        ok,
        "criterion 8: Alt(4)/Alt(5) lazy 3-cycle walk: mass conserved to 1e-9, "
        "l2-vs-linf comparison at eps=1/2, parity-lift l2 domination k=1..100, "
        "strong mixing time minimal",
    )


def generating_seeds(n, count):
    """First seeds whose pair generates Sym(n), or Alt(n) for even pairs."""
    out = []
    seed = 0
    while len(out) < count:
        g, h, _ = seeded_pair(n, seed)
        group = generated_group(g, h)
        if group is not None:
            out.append((seed, g, h, group))
        seed += 1
    return out


def test_criterion_9_comparison_transfer():
    ok = True
    for n in (5, 6):
        for seed, g, h, group in generating_seeds(n, 5):
            delta_p = dense_walk_gap(lazy_generator_measure(g, h), group)
            A = comparison_report(g, h, "exact").A
            ok &= delta_p >= float(Fraction(3, n - 1) / A) - 1e-12
    assert record_criterion(
        ok,
        "criterion 9: lazy pair-walk gap >= (3/(n-1))/A with A weighted by 1/p(s), "
        "exact mode, first 5 generating seeds at n=5,6",
    )
