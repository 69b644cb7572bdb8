"""Exact distribution evolution for lazy random walks on small groups.

The full symmetric or alternating group on up to 8 points is held as an
array of image tables in lexicographic order; a row is found at its rank,
computed from its digits (lex_rank). Walk distributions are dense float
vectors over the group; one convolution step is a weighted gather through
precomputed translation tables, the hot path of the convolution kernel. The
same tables give the dense transition matrices and subgroup closures.

A measure invariant under conjugation by Sym(n), such as a lazy walk on a
whole conjugacy class, keeps every distribution constant on cycle types.
Its walk steps a vector over the group's cycle types instead (22 entries
for Sym(8)) through gather tables built the same way, and yields that
vector lifted back onto the group.

Walks on a generator pair at any degree are rows of step codes pushed
through one (5, n) step table; synthesis and the shrink's conjugators
draw their words this way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernels
from .errors import InvariantError, MixingCapError
from .perm import Permutation
from .word import GEN_G, GEN_H, Cat, Inv, Word

MAX_DENSE_DEGREE = 8


def injective_tuples(n: int, ell: int) -> np.ndarray:
    """All injective ell-tuples over 0..n-1 as an (n!/(n-ell)!, ell) int32
    array in lexicographic order, the order of itertools.permutations.
    Built one column at a time: each row is extended by each of its unused
    values in increasing order, which np.nonzero lists row-major."""
    rows = np.zeros((1, 0), dtype=np.int32)
    for _ in range(ell):
        free = np.ones((rows.shape[0], n), dtype=bool)
        free[np.arange(rows.shape[0])[:, None], rows] = False
        parent, value = np.nonzero(free)
        rows = np.column_stack([rows[parent], value.astype(np.int32)])
    return rows


def lex_rank(rows: np.ndarray, n: int) -> np.ndarray:
    """Position of each injective row over 0..n-1 in the lexicographic order
    of injective_tuples: sum_i digit_i * P(n - 1 - i, l - 1 - i) over the l
    entries x_i, digit_i = x_i - #{j < i : x_j < x_i}, by Horner's rule on the
    columns cast to the least signed type holding n (int8 up to n = 127).
    Any other row gets some rank, which lex_index rejects."""
    cols = np.asarray(rows).T.astype(np.min_scalar_type(-n), order="C")
    count = cols.shape[1]
    rank = np.zeros(count, dtype=np.intp)
    digit, below = np.empty(count, dtype=cols.dtype), np.empty(count, dtype=bool)
    for i, x in enumerate(cols):
        np.copyto(digit, x)
        for y in cols[:i]:
            np.subtract(digit, np.less(y, x, out=below), out=digit)
        rank *= n - i
        rank += digit
    return rank


def lex_index(table: np.ndarray, rows: np.ndarray, n: int, halve: bool = False) -> np.ndarray:
    """Index of each row in `table`, injective rows over 0..n-1 in lexicographic
    order: its lex_rank (halved, if halve), clipped into the table; ValueError
    unless the table's row there is the row itself."""
    rows = np.asarray(rows)
    idx = lex_rank(rows, n)
    idx >>= halve
    np.clip(idx, 0, table.shape[0] - 1, out=idx)
    if not np.array_equal(table[idx], rows):
        raise ValueError("row is not in the table (outside the group or not injective)")
    return idx


def _parity_rows(rows: np.ndarray) -> np.ndarray:
    """Parity = Lehmer digit sum mod 2 (inversion count)."""
    total = np.zeros(rows.shape[0], dtype=np.int64)
    for j in range(rows.shape[1] - 1):
        total += (rows[:, j + 1 :] < rows[:, j : j + 1]).sum(axis=1)
    return (total & 1).astype(np.uint8)


def cycle_lengths(rows: np.ndarray) -> np.ndarray:
    """Length of the cycle through each point, for each row of images on
    0..n-1: an array of the rows' shape. All rows form one flat map, entry
    (r, x) at r * n + x; ceil(log2 n) rounds of pointer jumping label each
    entry with the least entry on its cycle, and one bincount sizes the
    cycles."""
    count, n = np.shape(rows)
    p = (np.asarray(rows, dtype=np.intp) + np.arange(0, count * n, n)[:, None]).ravel()
    lab = np.arange(count * n)
    # after round k, lab[x] is the least of x and its next 2^k - 1 images,
    # and p maps x to its 2^k-th image
    for _ in range((n - 1).bit_length()):
        np.minimum(lab, lab.take(p), out=lab)
        p = p.take(p)
    return np.bincount(lab, minlength=count * n).take(lab).reshape(count, n)


def cycle_type_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Code of the cycle type of each row of images on 0..n-1: the sum over
    points x of (n + 1) ** (len(x) - 1), where len(x) is the length of the
    cycle through x. Its base-(n + 1) digits count the points on cycles of
    each length, so distinct types get distinct codes; int64 holds every
    code while n <= 15."""
    return (np.int64(n + 1) ** (cycle_lengths(rows) - 1)).sum(axis=1)


class DenseGroup:
    """Sym(n) or Alt(n), n <= 8, fully enumerated."""

    def __init__(self, kind: str, n: int):
        if kind not in ("sym", "alt"):
            raise ValueError("kind must be 'sym' or 'alt'")
        if not 1 <= n <= MAX_DENSE_DEGREE:
            raise ValueError(f"dense groups support n in 1..{MAX_DENSE_DEGREE}")
        self.kind = kind
        self.n = n
        self.perms = injective_tuples(n, n)
        self.parities = _parity_rows(self.perms)
        if kind == "alt":
            even = self.parities == 0
            self.perms, self.parities = self.perms[even], self.parities[even]

    @property
    def size(self) -> int:
        return self.perms.shape[0]

    @property
    def identity_index(self) -> int:
        return 0  # identity is lexicographically first in both cases

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Index of each row; ValueError for a row outside the group. An
        Alt(n) row's is its Sym(n) rank // 2: lexicographic rows 2i and 2i + 1
        of Sym(n) differ by their last two entries, so exactly one is even."""
        return lex_index(self.perms, rows, self.n, self.kind == "alt")

    def index_of(self, p: Permutation) -> int:
        if p.degree != self.n:
            raise ValueError("degree mismatch")
        return int(self.index_rows(p.images[None, :])[0])

    def perm_at(self, i: int) -> Permutation:
        return Permutation(self.perms[i])

    def contains(self, p: Permutation) -> bool:
        return p.degree == self.n and (self.kind == "sym" or p.is_even())

    def even_mask(self) -> np.ndarray:
        return self.parities == 0

    @functools.cached_property
    def cycle_types(self) -> "CycleTypeSpace":
        """The group's cycle-type space, built on first use."""
        return CycleTypeSpace(self)


class CycleTypeSpace:
    """State space of a walk whose measure is invariant under conjugation by
    Sym(n): the cycle types present in a dense group. It offers what
    transition_tables reads of a DenseGroup: `n`, `perms` (one representative
    row per type, identity first), `size` and `index_rows`. `lift[z]` is the
    type of group row z."""

    def __init__(self, group: DenseGroup):
        self.n = group.n
        # the group's rows, not the group: it holds this space
        self._group_rows, self._halve = group.perms, group.kind == "alt"
        # blocks of rows keep the temporaries near a megabyte at Sym(8)
        codes = [
            cycle_type_codes(group.perms[i : i + 4096], group.n)
            for i in range(0, group.size, 4096)
        ]
        # the identity's code n is the least of all, so it sorts first
        _, first, self.lift = np.unique(
            np.concatenate(codes), return_index=True, return_inverse=True
        )
        self.perms = group.perms[first]
        for a in (self.perms, self.lift):
            a.setflags(write=False)

    @property
    def size(self) -> int:
        return self.perms.shape[0]

    def index_rows(self, rows: np.ndarray) -> np.ndarray:
        """Type index of each row; ValueError for a row outside the group."""
        return self.lift[lex_index(self._group_rows, rows, self.n, self._halve)]


@dataclass(frozen=True)
class Atom:
    perm: Permutation
    prob: float
    symbol: Word | None = None


class WalkMeasure:
    """Finitely supported probability measure, optionally with word symbols."""

    def __init__(self, atoms: Iterable[Atom]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        degree = atoms[0].perm.degree
        if any(a.perm.degree != degree for a in atoms):
            raise ValueError("mixed degrees in measure")
        if any(a.prob <= 0 for a in atoms):
            raise ValueError("atom probabilities must be positive")
        if len({a.perm for a in atoms}) != len(atoms):
            raise ValueError("duplicate atoms; merge masses first")
        total = math.fsum(a.prob for a in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.atoms = atoms
        self.degree = degree
        self._by_perm = {a.perm: a for a in atoms}
        self._tables: dict[DenseGroup | CycleTypeSpace, tuple[np.ndarray, np.ndarray]] = {}

    def prob_of(self, p: Permutation) -> float:
        a = self._by_perm.get(p)
        return a.prob if a is not None else 0.0

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return all(
            abs(a.prob - self.prob_of(a.perm.inverse())) <= tol for a in self.atoms
        )

    @functools.cached_property
    def conjugation_invariant(self) -> bool:
        """Whether conjugating by (1 2) and by (1 2 ... n), which generate
        Sym(n), takes every atom to an atom of the same mass: every cycle
        type the atoms touch is present in full, with equal masses."""
        n = self.degree
        if n == 1:
            return True  # the only atom is the identity
        gens = (Permutation.transposition(n, 1, 2), Permutation.from_cycles(n, [range(1, n + 1)]))
        return all(
            self.prob_of(t * a.perm * t.inverse()) == a.prob for t in gens for a in self.atoms
        )


def lazy_measure(support: Sequence[Permutation]) -> WalkMeasure:
    """Lazy walk measure: mass 1/2 on the identity, 1/(2|S|) on each s in S.

    S must exclude the identity, contain no duplicates, and be closed under
    inverses (so the measure is symmetric).
    """
    support = list(support)
    if not support:
        raise ValueError("empty support")
    seen = set(support)
    if len(seen) != len(support):
        raise ValueError("duplicate support elements")
    if any(s.is_identity() for s in support):
        raise ValueError("identity may not be in the support")
    if any(s.inverse() not in seen for s in support):
        raise ValueError("support must be closed under inverses")
    n = support[0].degree
    each = 1.0 / (2 * len(support))
    atoms = [Atom(Permutation.identity(n), 0.5, None)]
    atoms.extend(Atom(s, each) for s in support)
    return WalkMeasure(atoms)


def lazy_generator_measure(g: Permutation, h: Permutation) -> WalkMeasure:
    """Lazy walk on the multiset {g, g^-1, h, h^-1}, each with mass 1/8.

    Coinciding elements merge their mass under the symbol StepTable gives
    them, the first in the order g, g^-1, h, h^-1.
    """
    steps = StepTable.of(g, h)
    merged: dict[Permutation, tuple[float, Word]] = {}
    for img, w in zip(steps.images[:STAY], steps.symbols):
        p = Permutation(img)
        if p.is_identity():
            raise ValueError("generators must not be the identity")
        merged[p] = (merged.get(p, (0.0, w))[0] + 0.125, w)
    atoms = [Atom(Permutation.identity(g.degree), 0.5, None)]
    atoms.extend(Atom(p, pr, w) for p, (pr, w) in merged.items())
    return WalkMeasure(atoms)


def subsets(n: int, ell: int) -> np.ndarray:
    """The ell-subsets of 0..n-1 as increasing intp rows, in itertools.combinations order."""
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), ell)), dtype=np.intp
    ).reshape(math.comb(n, ell), ell)


def three_cycle_images(n: int) -> np.ndarray:
    """All 3-cycles of Sym(n) as one (n(n-1)(n-2)/3, n) int32 array of
    0-based image rows, in sorted triple order: for each a < b < c, the
    cycle (a b c) and then (a c b). Each call builds a new array."""
    triples = subsets(n, 3)
    out = np.tile(np.arange(n, dtype=np.int32), (2 * triples.shape[0], 1))
    row = np.arange(triples.shape[0])
    fwd, back = out[0::2], out[1::2]  # (a b c) and its inverse (a c b)
    a, b, c = triples.T
    for src, dst in ((a, b), (b, c), (c, a)):
        fwd[row, src] = dst
        back[row, dst] = src
    return out


def three_cycles(n: int) -> list[Permutation]:
    """All 3-cycles of Sym(n), n(n-1)(n-2)/3 of them, in sorted triple order:
    the rows of three_cycle_images(n), each wrapped without a copy."""
    return Permutation._raw_rows(three_cycle_images(n))


def three_cycle_lazy_measure(n: int) -> WalkMeasure:
    """Lazy walk driven by the full 3-cycle conjugacy class."""
    return lazy_measure(three_cycles(n))


def adjacent_transposition_lazy_measure(n: int) -> WalkMeasure:
    """Lazy walk on the n-1 adjacent transpositions (i, i+1)."""
    return lazy_measure([Permutation.transposition(n, i, i + 1) for i in range(1, n)])


def transposition_lazy_measure(n: int) -> WalkMeasure:
    """Lazy walk on all n(n-1)/2 transpositions."""
    return lazy_measure(
        [
            Permutation.transposition(n, a, b)
            for a, b in itertools.combinations(range(1, n + 1), 2)
        ]
    )


def mu_prime(m: WalkMeasure, g: Permutation) -> WalkMeasure:
    """Parity-lifted measure: half of m plus half of m translated by g.

    The translate charges g*y for each atom y, i.e. the measure of the walk
    "first multiply by g, then draw from m". g must be odd so the lift
    charges both cosets.
    """
    if g.parity() != 1:
        raise ValueError("translating element must be odd")
    if g.degree != m.degree:
        raise ValueError("degree mismatch")
    masses: dict[Permutation, float] = {}
    for a in m.atoms:
        masses[a.perm] = masses.get(a.perm, 0.0) + a.prob / 2
        shifted = g * a.perm
        masses[shifted] = masses.get(shifted, 0.0) + a.prob / 2
    return WalkMeasure([Atom(p, pr) for p, pr in masses.items()])


# -- dense evolution --------------------------------------------------------------


@dataclass
class Distribution:
    group: DenseGroup
    probs: np.ndarray

    @classmethod
    def uniform(cls, group: DenseGroup) -> "Distribution":
        return cls(group, np.full(group.size, 1.0 / group.size))

    @classmethod
    def point_mass(cls, group: DenseGroup, p: Permutation | None = None) -> "Distribution":
        probs = np.zeros(group.size)
        idx = group.identity_index if p is None else group.index_of(p)
        probs[idx] = 1.0
        return cls(group, probs)


def transition_tables(
    m: WalkMeasure, group: DenseGroup | CycleTypeSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables for convolution: idx[i, z] = index of z * s_i^-1.

    One convolution step is new[z] = sum_i probs[i] * old[idx[i, z]].
    On a cycle-type space z runs over the type representatives, which is
    exact for class functions and a conjugation-invariant measure. The
    measure keeps the read-only tables of each space they were built for,
    so every walk of one measure on one space shares a single build.
    """
    if m.degree != group.n:
        raise ValueError("measure/group degree mismatch")
    tables = m._tables.get(group)
    if tables is None:
        sinv = np.stack([a.perm.inverse().images for a in m.atoms])
        idx = np.empty((len(m.atoms), group.size), dtype=np.intp)
        step = max(1, 4096 // group.size)  # atoms a call: a type space's all, a group's one
        for i in range(0, len(m.atoms), step):
            # (z * s^-1).images = sinv[z.images], for all rows z at once
            rows = sinv[i : i + step, group.perms].reshape(-1, group.n)
            idx[i : i + step] = group.index_rows(rows).reshape(-1, group.size)
        probs = np.array([a.prob for a in m.atoms])
        idx.setflags(write=False)
        probs.setflags(write=False)
        tables = m._tables[group] = (idx, probs)
    return tables


def evolve_exact(m: WalkMeasure, group: DenseGroup, k: int) -> Distribution:
    """Distribution of the walk after exactly k steps from the identity."""
    if k < 0:
        raise ValueError("step count must be non-negative")
    _, d = next(itertools.islice(evolution(m, group), k, None))
    return Distribution(group, d)


def lp_norm(f: np.ndarray, p: float) -> float:
    """Normalized l^p norm: ((1/N) sum |f|^p)^(1/p); max-norm for p = inf."""
    f = np.asarray(f, dtype=np.float64)
    if math.isinf(p):
        return float(np.abs(f).max())
    if p < 1:
        raise ValueError("p must be >= 1")
    n = f.shape[0]
    return float((np.abs(f) ** p).sum() / n) ** (1.0 / p)


def distance_to_uniform(dist: Distribution, p: float) -> float:
    return lp_norm(dist.probs - 1.0 / dist.group.size, p)


def evolution(m: WalkMeasure, group: DenseGroup):
    """Yield (k, probs) for k = 0, 1, 2, ... lazily, starting from the
    identity; step k + 1 is computed only when asked for. A conjugation-
    invariant measure steps the cycle-type vector and yields it lifted."""
    space = group.cycle_types if m.conjugation_invariant else group
    idx, probs = transition_tables(m, space)
    state = np.zeros(space.size)
    state[0] = 1.0  # the identity is first in both spaces
    for k in itertools.count():
        d = state if space is group else state[space.lift]
        mass = d.sum()
        if abs(mass - 1.0) > 1e-9:
            raise InvariantError(f"convolution step {k} left total mass {mass}, not 1")
        yield k, d
        state = kernels.convolve_steps(state, idx, probs, 1)


def _stopping_time(m: WalkMeasure, group: DenseGroup, passes, cap: int, what: str) -> int:
    """Least k whose distance to uniform d - 1/|G| passes; MixingCapError past cap."""
    if cap < 0:
        raise ValueError(f"step cap must be non-negative, got {cap}")
    u = 1.0 / group.size
    for k, d in evolution(m, group):
        if passes(d - u):
            return k
        if k >= cap:
            raise MixingCapError(f"no {what} within {cap} steps")
    raise AssertionError("unreachable")


def mixing_time_lp(
    m: WalkMeasure, group: DenseGroup, threshold: float, p: float, cap: int = 100_000
) -> int:
    """Least k with normalized l^p distance to uniform <= threshold."""
    return _stopping_time(
        m, group, lambda f: lp_norm(f, p) <= threshold, cap, f"l^{p} mixing below {threshold}"
    )


def strong_mixing_time(m: WalkMeasure, group: DenseGroup, cap: int = 100_000) -> int:
    """Least k with |G| * max_x |mu^(k)(x) - 1/|G|| <= 1/2."""
    return _stopping_time(
        m, group, lambda f: group.size * lp_norm(f, math.inf) <= 0.5, cap, "strong mixing"
    )


def check_argu(m: WalkMeasure, group: DenseGroup, eps: float, cap: int = 100_000) -> bool:
    """Strong-mixing-versus-l2 comparison: the time to reach l^inf distance
    eps^2/|G| is at most twice the time to reach l^2 distance eps/|G|.
    ValueError unless 0 < eps < inf: no walk reaches l^2 distance 0."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    size = group.size
    t2 = mixing_time_lp(m, group, eps / size, 2, cap)
    try:
        tinf = mixing_time_lp(m, group, eps * eps / size, math.inf, min(cap, 2 * t2))
    except MixingCapError:
        return False
    return tinf <= 2 * t2


def _beeth_distances(n: int, g: Permutation):
    """Yield (k, lhs, rhs) for k = 0, 1, 2, ...: l^2 distance of the
    parity-lifted walk to uniform-on-Sym versus l^2 distance of the plain
    3-cycle walk to uniform-on-Alt, both embedded in the full symmetric
    group with norms normalized by |Sym(n)|."""
    if g.parity() != 1:
        raise ValueError("g must be odd")
    group = DenseGroup("sym", n)
    m = three_cycle_lazy_measure(n)
    mp = mu_prime(m, g)
    size = group.size
    u_sym = 1.0 / size
    u_alt = np.where(group.even_mask(), 2.0 / size, 0.0)
    gen_m = evolution(m, group)
    gen_mp = evolution(mp, group)
    while True:
        k, d_m = next(gen_m)
        _, d_mp = next(gen_mp)
        yield k, lp_norm(d_mp - u_sym, 2), lp_norm(d_m - u_alt, 2)


def beeth_profile(n: int, g: Permutation, kmax: int) -> list[bool]:
    """For k = 1..kmax, whether the parity-lifted walk is at least as close
    to uniform-on-Sym as the plain 3-cycle walk is to uniform-on-Alt.

    The profile starts at k = 1: at k = 0 the comparison genuinely fails
    for point masses (check_beeth(n, g, 0) reports that honestly)."""
    pairs = _beeth_distances(n, g)
    next(pairs)
    out = []
    for _ in range(kmax):
        _, lhs, rhs = next(pairs)
        out.append(bool(lhs <= rhs + 1e-12))
    return out


def check_beeth(n: int, g: Permutation, k: int) -> bool:
    """Whether the parity-lift comparison holds after k steps (k >= 0)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    for kk, lhs, rhs in _beeth_distances(n, g):
        if kk == k:
            return bool(lhs <= rhs + 1e-12)


# -- lazy walks on a generator pair ---------------------------------------------------

STAY = 4  # step code of the lazy "stay" step; codes 0..3 are g, g^-1, h, h^-1

# cumulated masses 1/2 (stay) and 1/8 (g, g^-1, h, h^-1), and each interval's code
_LAZY_CDF = np.cumsum([0.5, 0.125, 0.125, 0.125, 0.125])
_DRAW_CODE = np.array([STAY, 0, 1, 2, 3], dtype=np.int8)


@dataclass(frozen=True, eq=False)
class StepTable:
    """The steps of a lazy walk on the pair (g, h): `images` holds the (5, n)
    0-based image rows of g, g^-1, h, h^-1 and stay, `symbols[c]` the word
    symbol of moving code c. Coinciding steps carry the first symbol in the
    order g, g^-1, h, h^-1. Each table makes its own Inv(g) and Inv(h)
    nodes, which every walk materialized through it shares."""

    images: np.ndarray
    symbols: tuple[Word, ...]

    @classmethod
    def of(cls, g: Permutation, h: Permutation) -> "StepTable":
        if g.degree != h.degree:
            raise ValueError("generator degree mismatch")
        images = np.stack(
            [g.images, g.inverse().images, h.images, h.inverse().images, np.arange(g.degree)]
        ).astype(np.int32)
        images.setflags(write=False)  # one table serves every walk of a pair
        names = (GEN_G, Inv(GEN_G), GEN_H, Inv(GEN_H))
        same = (images[:STAY, None] == images[None, :STAY]).all(axis=2)  # row c == row j
        return cls(images, tuple(names[int(np.argmax(row))] for row in same))

    def track(self, codes: np.ndarray) -> np.ndarray:
        """(B, n) images of the walks in a (B, k) code array, first step first."""
        points = np.arange(self.images.shape[1], dtype=np.int32)
        return kernels.track_points(self.images, codes, points)

    def word(self, codes: np.ndarray) -> Cat:
        """Cat of the symbols of the moving steps in one row of codes."""
        return Cat(tuple(self.symbols[c] for c in codes.tolist() if c != STAY))

    def materialize(self, codes: np.ndarray) -> tuple[Permutation, Cat]:
        """One row of codes as (product, word). The moving steps' image rows
        are composed pairwise, halving the rows each round: about log2(k)
        gathers over a (k, n) array for k moving steps."""
        moves = codes[codes != STAY]
        prod = self.images[moves]
        n = prod.shape[1]
        while prod.shape[0] > 1:
            half = prod.shape[0] // 2
            # row i of the next round applies row 2i, then row 2i + 1, read
            # from the flat array at (2i + 1) * n; an odd last row rides along
            odd_starts = np.arange(n, 2 * half * n, 2 * n, dtype=np.int32)[:, None]
            pairs = prod.reshape(-1).take(prod[0 : 2 * half : 2] + odd_starts, mode="wrap")
            prod = np.concatenate([pairs, prod[2 * half :]]) if prod.shape[0] & 1 else pairs
        product = prod[0] if prod.shape[0] else self.images[STAY]
        return Permutation(product), self.word(moves)


def lazy_step_codes(k: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, k) step codes of lazy k-step walks: stay with mass 1/2, each of
    g, g^-1, h, h^-1 with 1/8. One uniform per step, drawn row by row, so
    the array takes from rng exactly what `count` single walks take."""
    return _DRAW_CODE[_LAZY_CDF.searchsorted(rng.random((count, k)), side="right")]


def sample_walk(steps: StepTable, k: int, rng: np.random.Generator) -> tuple[Permutation, Cat]:
    """Draw one lazy k-step walk on the pair of `steps`: (product, word)."""
    return steps.materialize(lazy_step_codes(k, rng, 1)[0])


# -- dense matrices and closures from gather tables ----------------------------------


def gather_matrix(idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense matrix of one gather step, M[z, idx[i, z]] += weights[i], so that
    M @ f = sum_i weights[i] * f[idx[i]]. On transition_tables this is the
    walk's transition matrix, symmetric whenever the measure is."""
    count, size = idx.shape
    M = np.zeros((size, size))
    rows = np.broadcast_to(np.arange(size), (count, size))
    np.add.at(M, (rows, idx), np.broadcast_to(np.asarray(weights)[:, None], (count, size)))
    return M


def level_bfs(moves: Callable, count: int, size: int, root: int) -> tuple[np.ndarray, int]:
    """Breadth-first tree over vertices 0..size-1 from root, a level at a
    time; moves(xs) is the (count, len(xs)) array of the neighbours of xs
    under steps 0..count-1, each a permutation of the vertices. Returns
    (codes, depth): codes[x] is the lowest step reaching x from the level
    above, count at the root, -1 where unreached; depth is the deepest level."""
    codes = np.full(size, -1, dtype=np.min_scalar_type(-count - 1))
    codes[root] = count
    frontier, depth = np.array([root]), -1
    while frontier.size:
        depth += 1
        level = []
        for c, x in enumerate(moves(frontier)):
            x = x[codes[x] < 0]  # a step permutes the vertices, so x has no repeats
            codes[x] = c
            level.append(x)
        frontier = np.concatenate(level)
    return codes, depth


def generated_mask(gens: Sequence[Permutation], group: DenseGroup) -> np.ndarray:
    """Rows of `group` in the subgroup <gens>: the vertices that a
    breadth-first tree from the identity reaches over the gens' transition
    tables (z joined to z * s^-1). Inverses are not needed, since a finite
    semigroup of permutations is a group."""
    distinct = list(dict.fromkeys(gens))
    m = WalkMeasure(Atom(p, 1.0 / len(distinct)) for p in distinct)
    idx, _ = transition_tables(m, group)
    moves = functools.partial(idx.take, axis=1)
    codes, _ = level_bfs(moves, len(distinct), group.size, group.identity_index)
    return codes >= 0

