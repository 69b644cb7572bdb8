"""Walk measures, dense evolution and the pair's walk sampler. The
independent oracles here are a dict-based convolution over explicitly
enumerated group elements, checked against the vectorized evolution for
several step counts, and an rng.choice draw over lazy_generator_measure
tracked step by step, checked against sample_walk."""

import itertools
import math

import numpy as np
import pytest

from permword import (
    Cat,
    DenseGroup,
    Distribution,
    Permutation,
    StepTable,
    check_argu,
    check_beeth,
    distance_to_uniform,
    evolve_exact,
    lazy_generator_measure,
    lazy_measure,
    mixing_time_lp,
    mu_prime,
    random_uniform,
    sample_walk,
    serialize,
    strong_mixing_time,
    three_cycle_lazy_measure,
    three_cycles,
)
from permword import kernels
from permword.errors import InvariantError, MixingCapError
from permword.walk import (
    STAY,
    Atom,
    WalkMeasure,
    adjacent_transposition_lazy_measure,
    evolution,
    gather_matrix,
    generated_mask,
    injective_tuples,
    lazy_step_codes,
    lp_norm,
    transition_tables,
    transposition_lazy_measure,
)

from conftest import perm_from_cycles


def test_three_cycles_enumeration():
    for n in (3, 4, 5, 6):
        cyc = three_cycles(n)
        assert len(cyc) == n * (n - 1) * (n - 2) // 3
        assert len(set(cyc)) == len(cyc)
        assert all(p.cycle_type()[0] == 3 and p.support_size() == 3 for p in cyc)
        assert all(p.inverse() in set(cyc) for p in cyc)


def test_lazy_measure_shape():
    m = three_cycle_lazy_measure(5)
    mass = sum(a.prob for a in m.atoms)
    assert abs(mass - 1.0) < 1e-15
    identity_mass = sum(a.prob for a in m.atoms if a.perm.is_identity())
    assert identity_mass == 0.5
    assert m.is_symmetric()


def test_lazy_measure_rejects_bad_support():
    with pytest.raises(ValueError):
        lazy_measure([])
    with pytest.raises(ValueError):
        lazy_measure([Permutation.identity(4)])
    with pytest.raises(ValueError):
        lazy_measure([perm_from_cycles(4, (1, 2, 3))])  # not inverse-closed


def test_lazy_generator_measure_merges_involutions():
    g = perm_from_cycles(4, (1, 2))
    h = perm_from_cycles(4, (1, 2, 3, 4))
    m = lazy_generator_measure(g, h)
    # g == g^-1 so its mass doubles; h and h^-1 stay separate
    assert abs(m.prob_of(g) - 0.25) < 1e-15
    assert abs(m.prob_of(h) - 0.125) < 1e-15
    assert abs(m.prob_of(h.inverse()) - 0.125) < 1e-15
    assert abs(m.prob_of(Permutation.identity(4)) - 0.5) < 1e-15


def test_mu_prime_charges_both_cosets():
    m = three_cycle_lazy_measure(4)
    t = perm_from_cycles(4, (1, 2))
    mp = mu_prime(m, t)
    assert abs(sum(a.prob for a in mp.atoms) - 1.0) < 1e-12
    parities = {a.perm.parity() for a in mp.atoms}
    assert parities == {0, 1}
    with pytest.raises(ValueError):
        mu_prime(m, perm_from_cycles(4, (1, 2, 3)))


def test_dense_group_indexing():
    for kind, n, size in (("sym", 4, 24), ("alt", 4, 12), ("alt", 5, 60)):
        grp = DenseGroup(kind, n)
        assert grp.size == size
        for i in (0, 1, size - 1, size // 2):
            assert grp.index_of(grp.perm_at(i)) == i
        assert grp.perm_at(grp.identity_index).is_identity()
    alt = DenseGroup("alt", 5)
    assert all(alt.perm_at(i).is_even() for i in range(alt.size))
    assert not alt.contains(perm_from_cycles(5, (1, 2)))
    with pytest.raises(ValueError):
        alt.index_of(perm_from_cycles(5, (1, 2)))
    with pytest.raises(ValueError):
        alt.index_rows(np.array([[0, 0, 1, 2, 3]]))


@pytest.mark.parametrize(
    "n, ell", [(n, ell) for n in range(9) for ell in range(n + 1)] + [(24, 3)]
)
def test_injective_tuples_match_itertools(n, ell):
    want = list(itertools.permutations(range(n), ell))
    got = injective_tuples(n, ell)
    assert got.dtype == np.int32 and got.shape == (len(want), ell)
    assert got.tolist() == [list(t) for t in want]


def dict_convolve(masses, group, k):
    """Oracle: repeated right-multiplication convolution over a dict."""
    dist = {Permutation.identity(group.n): 1.0}
    for _ in range(k):
        nxt = {}
        for x, px in dist.items():
            for s, ps in masses.items():
                y = x * s
                nxt[y] = nxt.get(y, 0.0) + px * ps
        dist = nxt
    return dist


def check_against_dict_oracle(m, group, k):
    masses = {a.perm: a.prob for a in m.atoms}
    want = dict_convolve(masses, group, k)
    got = evolve_exact(m, group, k)
    for p, mass in want.items():
        assert abs(got.probs[group.index_of(p)] - mass) < 1e-12
    assert abs(got.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_evolve_exact_against_dict_oracle(k):
    # the 3-cycle class walk takes the cycle-type lane
    check_against_dict_oracle(three_cycle_lazy_measure(4), DenseGroup("alt", 4), k)


@pytest.mark.parametrize("k", [0, 1, 2, 4])
def test_evolve_exact_dense_lane_against_dict_oracle(k):
    check_against_dict_oracle(adjacent_transposition_lazy_measure(4), DenseGroup("sym", 4), k)


CLASS_WALKS = [
    ("alt", three_cycle_lazy_measure),
    ("sym", transposition_lazy_measure),
]


def dense_lane(m, group):
    """Oracle: k -> (l2 and linf distance to uniform, distribution) of the
    walk stepped over the whole group by its own gather tables."""
    idx, probs = transition_tables(m, group)
    d = Distribution.point_mass(group).probs
    out = []

    def at(k):
        nonlocal d
        while len(out) <= k:
            f = d - 1.0 / group.size
            out.append((lp_norm(f, 2), lp_norm(f, math.inf), d))
            d = kernels.convolve_steps(d, idx, probs, 1)
        return out[k]

    return at


@pytest.mark.parametrize("kind, make", CLASS_WALKS)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_class_lane_matches_dense_lane(kind, make, n):
    group, m = DenseGroup(kind, n), make(n)
    assert m.conjugation_invariant
    space = group.cycle_types
    dense = dense_lane(m, group)
    strong = strong_mixing_time(m, group)
    first = np.unique(space.lift, return_index=True)[1]  # a group row of each type
    for k, d in evolution(m, group):
        want = dense(k)[2]
        assert np.abs(d - want).max() <= 1e-12 * want.max()
        # the lifted vector is exactly constant on cycle types
        assert np.array_equal(d, d[first][space.lift])
        if k == strong:
            break


@pytest.mark.parametrize("kind, make", CLASS_WALKS)
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_class_lane_stopping_time_census(kind, make, n):
    # strong time, t2 and the l2-vs-linf verdict agree with the dense lane
    group, m = DenseGroup(kind, n), make(n)
    dense = dense_lane(m, group)
    size = group.size
    k = 0
    while size * dense(k)[1] > 0.5:
        k += 1
    assert strong_mixing_time(m, group) == k
    for eps in (0.05, 0.1, 0.5, 1, 2):
        t2 = 0
        while dense(t2)[0] > eps / size:
            t2 += 1
        tinf = next((j for j in range(2 * t2 + 1) if dense(j)[1] <= eps * eps / size), None)
        assert mixing_time_lp(m, group, eps / size, 2) == t2
        assert check_argu(m, group, eps) == (tinf is not None)


def _unequal_transpositions(n):
    ts = transposition_lazy_measure(n).atoms[1:]
    weights = [2.0] + [1.0] * (len(ts) - 1)
    total = sum(weights)
    atoms = [Atom(Permutation.identity(n), 0.5)]
    atoms.extend(Atom(a.perm, 0.5 * w / total) for a, w in zip(ts, weights))
    return WalkMeasure(atoms)


@pytest.mark.parametrize(
    "make",
    [
        adjacent_transposition_lazy_measure,
        lambda n: lazy_measure(
            [perm_from_cycles(n, (1, 2)), perm_from_cycles(n, (1, 2, 3, 4, 5)),
             perm_from_cycles(n, (1, 5, 4, 3, 2))]),
        lambda n: mu_prime(three_cycle_lazy_measure(n), perm_from_cycles(n, (1, 2))),
        # the class of transpositions with (1 2) missing
        lambda n: lazy_measure([a.perm for a in transposition_lazy_measure(n).atoms[2:]]),
        _unequal_transpositions,
    ],
    ids=["adjacent", "custom", "mu_prime", "missing-atom", "unequal-masses"],
)
def test_non_class_measures_take_the_dense_lane(make):
    group, m = DenseGroup("sym", 5), make(5)
    assert not m.conjugation_invariant
    # and the walk is still the dense one
    dense = dense_lane(m, group)
    for k, d in evolution(m, group):
        assert np.array_equal(d, dense(k)[2])
        if k == 3:
            break


def test_cycle_type_space():
    for kind, n, types in (("sym", 5, 7), ("alt", 5, 4), ("sym", 8, 22), ("alt", 8, 12)):
        group = DenseGroup(kind, n)
        space = group.cycle_types
        assert group.cycle_types is space  # built once
        assert space.size == types and space.n == n
        assert Permutation(space.perms[0]).is_identity()
        assert np.array_equal(space.index_rows(space.perms), np.arange(types))
        assert np.array_equal(space.index_rows(group.perms), space.lift)
        reps = [tuple(Permutation(r).cycle_type()) for r in space.perms]
        assert len(set(reps)) == types
        # each type's rows are its full Sym(n) class
        for c, count in enumerate(np.bincount(space.lift)):
            want = math.factorial(n)
            for length in set(reps[c]):
                mult = reps[c].count(length)
                want //= length**mult * math.factorial(mult)
            assert count == want
    alt = DenseGroup("alt", 5).cycle_types
    with pytest.raises(ValueError):
        alt.index_rows(np.array([[1, 0, 2, 3, 4]]))  # a transposition is odd
    with pytest.raises(ValueError):  # one odd row after even ones
        alt.index_rows(np.array([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [1, 0, 3, 2, 4], [1, 0, 2, 3, 4]]))
    with pytest.raises(ValueError):
        alt.index_rows(np.array([[0, 0, 1, 2, 3]]))  # not a permutation


def test_evolution_mass_check_raises(monkeypatch):
    real = kernels.convolve_steps
    monkeypatch.setattr(
        kernels, "convolve_steps", lambda d, idx, probs, steps: real(d, idx, probs, steps) / 2
    )
    with pytest.raises(InvariantError):
        evolve_exact(three_cycle_lazy_measure(4), DenseGroup("alt", 4), 1)


def test_distance_to_uniform_extremes():
    group = DenseGroup("alt", 4)
    uni = Distribution.uniform(group)
    assert distance_to_uniform(uni, 2) == 0.0
    point = Distribution.point_mass(group)
    assert abs(distance_to_uniform(point, math.inf) - (1 - 1 / group.size)) < 1e-15


def test_mixing_time_monotone_in_threshold():
    group = DenseGroup("alt", 4)
    m = three_cycle_lazy_measure(4)
    t_loose = mixing_time_lp(m, group, 1e-2, 2)
    t_tight = mixing_time_lp(m, group, 1e-4, 2)
    assert t_loose <= t_tight
    with pytest.raises(MixingCapError):
        mixing_time_lp(m, group, 1e-12, 2, cap=2)


def test_strong_mixing_time_is_minimal():
    group = DenseGroup("alt", 4)
    m = three_cycle_lazy_measure(4)
    t = strong_mixing_time(m, group)
    u = 1.0 / group.size
    d_before = evolve_exact(m, group, t - 1).probs
    d_at = evolve_exact(m, group, t).probs
    assert group.size * np.abs(d_before - u).max() > 0.5
    assert group.size * np.abs(d_at - u).max() <= 0.5


def test_argu_holds_on_small_alt():
    m = three_cycle_lazy_measure(4)
    assert check_argu(m, DenseGroup("alt", 4), 0.5)


def test_beeth_profile_start():
    t = perm_from_cycles(4, (1, 2))
    prof = [check_beeth(4, t, k) for k in range(4)]
    assert prof[0] is False  # point masses: lift is farther from its uniform
    assert all(prof[1:])


def test_sample_walk_word_matches_product(rng):
    g, h = random_uniform(8, rng), random_uniform(8, rng)
    steps = StepTable.of(g, h)
    from permword import evaluate

    for _ in range(10):
        p, w = sample_walk(steps, 30, rng)
        assert evaluate(w, g, h) == p


def test_sample_walk_zero_steps(rng):
    steps = StepTable.of(random_uniform(5, rng), random_uniform(5, rng))
    p, w = sample_walk(steps, 0, rng)
    assert p.is_identity()
    assert serialize(w) == "(cat)"


def tracked_walk(m, k, rng):
    """Reference: the same single draw, then every step tracked, lazy ones
    included; also returns the symbols of the non-identity draws."""
    probs = np.array([a.prob for a in m.atoms])
    draws = rng.choice(len(m.atoms), size=k, p=probs)
    pos = np.arange(m.degree)
    symbols = []
    for i in draws:
        atom = m.atoms[int(i)]
        pos = atom.perm.images[pos]
        if not atom.perm.is_identity():
            symbols.append(atom.symbol)
    return Permutation(pos), symbols


@pytest.mark.parametrize("k", [0, 1, 229])
def test_sample_walk_matches_full_tracking(k):
    n = 12
    pair = random_uniform(n, np.random.default_rng(8)), random_uniform(n, np.random.default_rng(9))
    involution = perm_from_cycles(n, (1, 2), (3, 4)), perm_from_cycles(n, tuple(range(1, n + 1)))
    assert len(lazy_generator_measure(*involution).atoms) == 4  # g == g^-1 merged into one atom
    for seed in range(4):
        for g, h in (pair, involution):
            m, steps = lazy_generator_measure(g, h), StepTable.of(g, h)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            p, w = sample_walk(steps, k, rng)
            want_p, want_symbols = tracked_walk(m, k, ref)
            assert p == want_p
            assert serialize(w) == serialize(Cat(tuple(want_symbols)))
            assert rng.integers(2**62) == ref.integers(2**62)  # same stream consumed


def test_batch_codes_match_single_draws():
    n, k, count = 12, 229, 7
    g, h = random_uniform(n, np.random.default_rng(8)), random_uniform(n, np.random.default_rng(9))
    steps = StepTable.of(g, h)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    codes = lazy_step_codes(k, rng, count)
    assert codes.shape == (count, k)
    images = steps.track(codes)
    for b in range(count):
        p, w = sample_walk(steps, k, ref)
        assert Permutation(images[b]) == p
        assert serialize(steps.word(codes[b])) == serialize(w)
    assert rng.integers(2**62) == ref.integers(2**62)


@pytest.mark.parametrize("kind", ["involution", "inverse"])
def test_step_symbols_follow_measure_merge(kind):
    # coinciding steps carry the first symbol in the order g, g^-1, h, h^-1
    n = 12
    if kind == "involution":
        g, h = perm_from_cycles(n, (1, 2), (3, 4)), perm_from_cycles(n, tuple(range(1, n + 1)))
        want = ["(gen g)", "(gen g)", "(gen h)", "(inv (gen h))"]
    else:
        g = random_uniform(n, np.random.default_rng(3))
        h = g.inverse()
        want = ["(gen g)", "(inv (gen g))", "(inv (gen g))", "(gen g)"]
    steps = StepTable.of(g, h)
    assert [serialize(w) for w in steps.symbols] == want
    symbol_of = {a.perm: a.symbol for a in lazy_generator_measure(g, h).atoms}
    for code in range(STAY):
        perm = Permutation(steps.images[code])
        assert serialize(steps.symbols[code]) == serialize(symbol_of[perm])
    assert Permutation(steps.images[STAY]).is_identity()


def test_generated_mask_sizes():
    three = perm_from_cycles(5, (1, 2, 3))
    assert generated_mask([three], DenseGroup("sym", 5)).sum() == 3
    full = generated_mask(
        [perm_from_cycles(5, (1, 2)), perm_from_cycles(5, (1, 2, 3, 4, 5))], DenseGroup("sym", 5)
    )
    assert full.sum() == 120
    alt4 = generated_mask(
        [perm_from_cycles(4, (1, 2, 3)), perm_from_cycles(4, (2, 3, 4))], DenseGroup("alt", 4)
    )
    assert alt4.sum() == 12


def test_generated_mask_takes_more_generators_than_int8_codes_hold():
    # 200 distinct even generators of Sym(6): their step codes need int16
    sym6 = DenseGroup("sym", 6)
    evens = [sym6.perm_at(int(i)) for i in np.flatnonzero(sym6.even_mask())[:200]]
    assert np.array_equal(generated_mask(evens, sym6), sym6.even_mask())
    assert generated_mask(evens + [perm_from_cycles(6, (1, 2))], sym6).all()


def test_transition_tables_built_once_per_measure_and_group():
    m = three_cycle_lazy_measure(4)
    alt4 = DenseGroup("alt", 4)
    idx, probs = transition_tables(m, alt4)
    assert transition_tables(m, alt4)[0] is idx
    assert transition_tables(three_cycle_lazy_measure(4), alt4)[0] is not idx
    sym4 = DenseGroup("sym", 4)
    assert transition_tables(m, sym4)[0].shape == (len(m.atoms), sym4.size)
    assert transition_tables(m, alt4)[0] is idx
    with pytest.raises(ValueError):
        idx[0, 0] = 1
    with pytest.raises(ValueError):
        probs[0] = 1.0


def test_gather_matrix_symmetric_stochastic_one_step():
    group = DenseGroup("alt", 4)
    m = three_cycle_lazy_measure(4)
    M = gather_matrix(*transition_tables(m, group))
    assert np.allclose(M, M.T)
    assert np.allclose(M.sum(axis=1), 1.0)
    start = Distribution.point_mass(group).probs
    assert np.array_equal(M @ start, evolve_exact(m, group, 1).probs)


@pytest.mark.parametrize("n", [5, 19, 300])
def test_materialize_matches_step_by_step_product(n):
    """Oracle: the moving steps multiplied one at a time, first step first."""
    rng = np.random.default_rng(n)
    steps = StepTable.of(random_uniform(n, rng), random_uniform(n, rng))
    moving = [Permutation(img) for img in steps.images[:STAY]]
    rows = [np.full(k, STAY, dtype=np.int8) for k in (0, 1, 6)]  # no moves at all
    for moves in (1, 2, 7, 64, 117):  # one move, even and odd counts
        codes = np.full(2 * moves, STAY, dtype=np.int8)
        codes[rng.choice(2 * moves, size=moves, replace=False)] = rng.integers(0, STAY, moves)
        rows.append(codes)
    for codes in rows:
        want = Permutation.identity(n)
        for c in codes.tolist():
            if c != STAY:
                want = want * moving[c]
        p, w = steps.materialize(codes)
        assert p == want
        assert serialize(w) == serialize(steps.word(codes))
        assert len(w.children) == int((codes != STAY).sum())
