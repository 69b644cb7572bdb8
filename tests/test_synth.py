"""Word synthesis: labeling arithmetic, the congruence solver over the gamma
pool, commutator 3-cycles, answering a pool miss by relocation, the
transitivity check, and end-to-end exactness."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import permword
from permword import (
    Cat,
    InvariantError,
    Permutation,
    evaluate,
    expanded_length,
    node_count,
    prepare_context,
    random_even,
    random_uniform,
    synthesize,
)
from permword import RetryExhaustedError, synth
from permword.synth import CycleLabeling, _preimage_label_rows, build_3cycle

from conftest import seeded_pair


@pytest.fixture(scope="module")
def ctx20():
    g, h, rng = seeded_pair(20, 0)
    return prepare_context(g, h, rng)


def test_cycle_labeling_roundtrip_and_shift():
    lab = CycleLabeling((4, 9, 2, 7, 5))
    assert lab.length == 5
    for label in range(1, 6):
        assert lab.label_of(lab.point_at(label)) == label
    assert lab.label_of(3) == 0
    assert lab.shift(5, 1) == 1
    assert lab.shift(1, -1) == 5
    with pytest.raises(ValueError):
        lab.point_at(6)
    with pytest.raises(ValueError):
        CycleLabeling((1, 2, 2))


def test_prepare_context_invariants(ctx20):
    ctx = ctx20
    n = 20
    assert ctx.cycle_length >= 3 * n / 4
    # kappa is a 3-cycle supported inside the distinguished cycle
    assert ctx.kappa.perm.support_size() == 3
    assert set(ctx.kappa.perm.support()) <= set(ctx.labeling.points)
    assert evaluate(ctx.kappa.word, ctx.g, ctx.h) == ctx.kappa.perm
    # parity witness exists iff a generator is odd, and is that generator
    if ctx.parity_witness is not None:
        assert ctx.parity_witness.perm.parity() == 1


def test_build_3cycle_routes_agree(ctx20):
    ctx = ctx20
    l = ctx.cycle_length
    rng = np.random.default_rng(5)
    for _ in range(12):
        r, s, t = (int(x) + 1 for x in rng.choice(l, size=3, replace=False))
        pool = build_3cycle(ctx, r, s, t)
        want = Permutation.from_cycles(
            ctx.degree,
            [(ctx.labeling.point_at(r), ctx.labeling.point_at(s), ctx.labeling.point_at(t))],
        )
        assert pool.perm == want
        assert evaluate(pool.word, ctx.g, ctx.h) == want


def test_pool_miss_is_answered_by_relocation(ctx20, monkeypatch):
    # a miss of build_3cycle moves the factor with a relocation walk and asks again
    ctx = ctx20
    real = synth.build_3cycle
    calls = []

    def miss_once(ctx, r, s, t):
        calls.append((r, s, t))
        if len(calls) == 1:
            raise RetryExhaustedError("forced miss")
        return real(ctx, r, s, t)

    monkeypatch.setattr(synth, "build_3cycle", miss_once)
    target = Permutation.from_cycles(20, [ctx.labeling.points[:3]])
    w = synthesize(ctx, target)
    assert evaluate(w, ctx.g, ctx.h) == target
    assert len(calls) >= 2


def test_pool_miss_at_cap_raises(ctx20, monkeypatch):
    # zeroed preimage rows: no pool walk lands an edge on the cycle
    ctx = dataclasses.replace(ctx20, pool_rows=np.zeros_like(ctx20.pool_rows))
    size = len(ctx.pool_gammas)
    monkeypatch.setattr(synth, "POOL_CAP", size)
    with pytest.raises(RetryExhaustedError):
        build_3cycle(ctx, 1, 2, 3)
    assert len(ctx.pool_gammas) == size == len(ctx20.pool_gammas)


def test_small_pool_cap_misses_are_relocated_exactly(monkeypatch):
    # a 256-walk cap at n = 100 makes build_3cycle miss; every word stays
    # exact and within the criterion-6 budget
    monkeypatch.setattr(synth, "POOL_CAP", 256)
    real = synth.build_3cycle
    misses = []

    def counting(ctx, r, s, t):
        try:
            return real(ctx, r, s, t)
        except RetryExhaustedError:
            misses.append((r, s, t))
            raise

    monkeypatch.setattr(synth, "build_3cycle", counting)
    n = 100
    g, h, rng = seeded_pair(n, 0)
    ctx = prepare_context(g, h, rng)
    budget = 10 * n * n * math.log2(n) ** 3
    for _ in range(10):
        target = random_even(n, rng)
        w = synthesize(ctx, target)
        assert evaluate(w, g, h) == target
        assert expanded_length(w) <= budget
    assert len(ctx.pool_gammas) == 256
    assert misses


def _orbit_search(g, h):
    """Sizes of the point orbits of <g, h>, largest first, by breadth-first search."""
    seen, sizes = set(), []
    for start in range(1, g.degree + 1):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:
            for y in (g.apply(x), h.apply(x)):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        sizes.append(len(orbit))
    return sorted(sizes, reverse=True)


def test_intransitive_pairs_are_value_errors(monkeypatch):
    # every seeded pair of n 9..60 x seeds 0..19: the transitivity check
    # agrees with an orbit search, and an intransitive pair is a ValueError
    # raised before any shrink work
    def no_shrink(*args):
        raise AssertionError("shrink ran on an intransitive pair")

    monkeypatch.setattr(synth, "shrink_support", no_shrink)
    intransitive = 0
    for n in range(9, 61):
        for seed in range(20):
            g, h, rng = seeded_pair(n, seed)
            sizes = _orbit_search(g, h)
            assert synth._orbit_sizes(g, h) == sizes
            if len(sizes) > 1:
                intransitive += 1
                with pytest.raises(ValueError, match=re.escape(f"sizes {sizes}")):
                    prepare_context(g, h, rng)
    assert intransitive == 43


def test_build_3cycle_rejects_repeated_labels(ctx20):
    with pytest.raises(ValueError):
        build_3cycle(ctx20, 1, 1, 2)


def test_synthesize_identity_is_empty(ctx20):
    w = synthesize(ctx20, Permutation.identity(20))
    assert isinstance(w, Cat) and expanded_length(w) == 0


def test_synthesize_exact_and_within_budget(ctx20):
    ctx = ctx20
    n = 20
    budget = 10 * n * n * math.log2(n) ** 3
    rng = np.random.default_rng(77)
    targets = [random_even(n, rng) for _ in range(4)]
    targets += [random_uniform(n, rng) for _ in range(4)]
    for target in targets:
        if target.parity() == 1 and ctx.parity_witness is None:
            continue
        w = synthesize(ctx, target)
        assert evaluate(w, ctx.g, ctx.h) == target
        assert expanded_length(w) <= budget
        # words are DAGs: huge expansion, small structure
        assert node_count(w) < 3000


def test_synthesize_odd_target_needs_witness():
    rng = np.random.default_rng(2)
    while True:
        g, h = random_even(16, rng), random_even(16, rng)
        try:
            ctx = prepare_context(g, h, rng)
            break
        except Exception:
            continue
    assert ctx.parity_witness is None
    odd = Permutation.transposition(16, 1, 2)
    with pytest.raises(ValueError):
        synthesize(ctx, odd)


def test_synthesize_degree_mismatch(ctx20):
    with pytest.raises(ValueError):
        synthesize(ctx20, Permutation.identity(19))


def test_synthesize_off_cycle_support_via_relocation(ctx20):
    # a 3-cycle touching points outside the distinguished cycle forces
    # the conjugating-walk relocation path
    ctx = ctx20
    outside = sorted(set(range(1, 21)) - set(ctx.labeling.points))
    if not outside:
        pytest.skip("cycle covers every point for this seed")
    a = outside[0]
    b, c = [p for p in ctx.labeling.points[:2]]
    target = Permutation.from_cycles(20, [(a, b, c)])
    w = synthesize(ctx, target)
    assert evaluate(w, ctx.g, ctx.h) == target


def test_preimage_label_row_matches_pointwise_labels(ctx20):
    lab = ctx20.labeling
    rows = _preimage_label_rows(ctx20, ctx20.pool_images)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, ctx20.pool_rows)
    for codes, images, row in zip(ctx20.pool_gammas, ctx20.pool_images, rows):
        perm, _ = ctx20.steps.materialize(codes)
        assert perm == Permutation(images)
        inv = perm.inverse()
        want = [lab.label_of(inv.apply(p)) for p in lab.points]
        assert row.tolist() == want


def test_synthesize_raises_invariant_error_on_wrong_word(ctx20, monkeypatch):
    monkeypatch.setattr(synth, "_factor_word", lambda ctx, factor: Cat(()))
    with pytest.raises(InvariantError):
        synthesize(ctx20, Permutation.from_cycles(20, [(1, 2, 3)]))


def _run_python_O(code: str) -> list[str]:
    """stdout words of `code` run in a python -O child (asserts stripped),
    with the permword copy this process imported first."""
    root = str(Path(permword.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_synthesize_check_survives_python_O():
    # python -O strips asserts; the final check must still run
    code = """
        import numpy as np
        from permword import InvariantError, Permutation, prepare_context, random_uniform, synth
        from permword.word import Cat

        rng = np.random.default_rng(0)
        g, h = random_uniform(20, rng), random_uniform(20, rng)
        ctx = prepare_context(g, h, rng)
        synth._factor_word = lambda ctx, factor: Cat(())
        try:
            synth.synthesize(ctx, Permutation.from_cycles(20, [(1, 2, 3)]))
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert _run_python_O(code) == ["False", "InvariantError"]


def test_build_3cycle_raises_on_corrupt_kappa_labels():
    # kappa's labels moved one step along the cycle: every pool atom then
    # lands one label off the edge it was built for
    g, h, rng = seeded_pair(20, 0)
    ctx = prepare_context(g, h, rng)
    ctx.kappa_labels = tuple(ctx.labeling.shift(c, 1) for c in ctx.kappa_labels)
    with pytest.raises(InvariantError, match="is not the 3-cycle"):
        build_3cycle(ctx, 1, 2, 3)


def test_build_3cycle_check_survives_python_O():
    # the same corruption; python -O strips asserts, the atom checks must stay
    code = """
        import numpy as np
        from permword import InvariantError, prepare_context, random_uniform
        from permword.synth import build_3cycle

        rng = np.random.default_rng(0)
        g, h = random_uniform(20, rng), random_uniform(20, rng)
        ctx = prepare_context(g, h, rng)
        ctx.kappa_labels = tuple(ctx.labeling.shift(c, 1) for c in ctx.kappa_labels)
        try:
            build_3cycle(ctx, 1, 2, 3)
            print(__debug__, "returned")
        except InvariantError:
            print(__debug__, "InvariantError")
        """
    assert _run_python_O(code) == ["False", "InvariantError"]
