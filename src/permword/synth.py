"""Synthesis of arbitrary permutations as compressed generator words.

Pipeline: shrink the generators to a 3-cycle ``kappa`` parked inside a long
cycle ``v`` and label the cycle points 1..l. Any labeled 3-cycle is then a
commutator of two "edge atoms" kappa^{v^s gamma}, with gamma drawn from a
pool of short random walks. An odd target first spends the odd step of
the pair that leaves the least support; the even rest factors into
3-cycles, and a factor off the cycle, or one whose edges the pool misses,
is moved by a fresh short walk and asked for again. Every intermediate
carries its word, so the final word evaluates to the target exactly rather
than approximately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, RetryExhaustedError
from .perm import Permutation, three_cycle_factorization
from .shrink import LongCycleElement, shrink_support, walk_length
from .schreier import conditioned_walk
from .walk import STAY, StepTable, lazy_step_codes, sample_walk
from .word import (
    Cat,
    Inv,
    Word,
    WordElement,
    evaluate,
    power,
)

__all__ = [
    "CycleLabeling",
    "SynthContext",
    "prepare_context",
    "build_3cycle",
    "synthesize",
]

POOL_INIT = 256  # gamma walks drawn while preparing a context
POOL_CAP = 8192  # pool size at which an edge query that still misses gives up


class CycleLabeling:
    """Bijective labels 1..l for the points of a distinguished cycle.

    ``points`` lists the cycle in its cyclic order, so when it comes from a
    long-cycle element v, point_at(i)^v = point_at(shift(i, 1)).
    """

    def __init__(self, points: tuple[int, ...]):
        self.points = tuple(points)
        self._lookup = {p: i + 1 for i, p in enumerate(self.points)}
        if len(self._lookup) != len(self.points):
            raise ValueError("cycle points repeat")

    @property
    def length(self) -> int:
        return len(self.points)

    def point_at(self, label: int) -> int:
        if not 1 <= label <= len(self.points):
            raise ValueError(f"label {label} out of range 1..{len(self.points)}")
        return self.points[label - 1]

    def label_of(self, point: int) -> int:
        """Label of a point; 0 when the point is off the cycle."""
        return self._lookup.get(point, 0)

    def shift(self, label: int, delta: int) -> int:
        return (label - 1 + delta) % len(self.points) + 1

    def __repr__(self) -> str:
        return f"CycleLabeling({self.points!r})"


@dataclass
class SynthContext:
    """Everything synthesize() needs, word-paired throughout.

    The gamma pool is shared mutable state: queries extend it on demand and
    later synthesize() calls reuse the grown pool.
    """

    g: Permutation
    h: Permutation
    v: LongCycleElement
    labeling: CycleLabeling
    kappa: WordElement
    rng: np.random.Generator
    walk_k: int  # walk length, also the walk count each relocation may draw
    steps: StepTable
    kappa_labels: tuple[int, int, int] = (0, 0, 0)
    # gamma pool, one row per walk: step codes, images, preimage label row;
    # pool_used holds the walks atoms have used, made once so they share words
    pool_gammas: np.ndarray | None = None
    pool_images: np.ndarray | None = None
    pool_rows: np.ndarray | None = None
    pool_used: dict[int, WordElement] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return self.g.degree

    @property
    def cycle_length(self) -> int:
        return self.labeling.length

    @property
    def cycle_set(self) -> frozenset[int]:
        return frozenset(self.labeling.points)


def _draw_walk(ctx: SynthContext) -> WordElement:
    perm, word = sample_walk(ctx.steps, ctx.walk_k, ctx.rng)
    return WordElement(word, perm)


def _v_power(ctx: SynthContext, s: int) -> WordElement:
    """v^s with the exponent folded into -l/2..l/2.

    Off-cycle action differs between the two directions, but everything we
    conjugate through this is supported inside the cycle, where v has period
    exactly l.
    """
    l = ctx.labeling.length
    s %= l
    sp = s if s <= l - s else s - l
    return WordElement(power(ctx.v.word, sp), ctx.v.perm ** sp)


def _cycle_points(c: Permutation) -> tuple[int, int, int]:
    """A 3-cycle as (q, q^c, q^(c^2)) from its smallest point q."""
    q = min(c.support())
    return q, c.apply(q), c.apply(c.apply(q))


def _cycle_labels(lab: CycleLabeling, c: Permutation) -> tuple[int, int, int]:
    return tuple(lab.label_of(p) for p in _cycle_points(c))


def _kappa_labels(kp: Permutation, lab: CycleLabeling) -> tuple[int, int, int]:
    """kappa's labels in cycle order, smallest first."""
    c = list(_cycle_labels(lab, kp)) if kp.support_size() == 3 else [0]
    if 0 in c:
        raise ValueError("kappa must be a 3-cycle supported inside the cycle")
    i = c.index(min(c))
    return tuple(c[i:] + c[:i])


def _require_3cycle(perm: Permutation, points: tuple[int, int, int], what: str) -> None:
    """InvariantError unless perm is exactly the 3-cycle (a b c) on `points`."""
    if perm != Permutation.from_cycles(perm.degree, [points]):
        raise InvariantError(f"{what} is not the 3-cycle {points}")


def _upgrade_transposition(
    g: Permutation, h: Permutation, t: WordElement, k: int, rng: np.random.Generator
) -> WordElement:
    """Promote (a b) to the 3-cycle (a c b) = t * t^sigma with a^sigma = b, b^sigma = c."""
    n = g.degree
    a, b = t.perm.support()
    others = [p for p in range(1, n + 1) if p != a and p != b]
    c = int(others[int(rng.integers(len(others)))])
    sigma, sw = conditioned_walk(g, h, k, [(a, b), (b, c)], rng)
    out = t * t.conjugated_by(WordElement(sw, sigma))
    _require_3cycle(out.perm, (a, c, b), "upgraded transposition")
    return out


def _placements(ctx: SynthContext, perm: Permutation):
    """Yield (rho, perm^rho) for each placement of perm inside the cycle: perm
    itself (rho None) first, then up to walk_k lazy walks rho, each drawn only
    when the caller asks for the next placement."""
    inside = ctx.cycle_set
    if set(perm.support()) <= inside:
        yield None, perm
    for _ in range(ctx.walk_k):
        rho = _draw_walk(ctx)
        moved = perm.conjugate(rho.perm)
        if set(moved.support()) <= inside:
            yield rho, moved


def _orbit_sizes(g: Permutation, h: Permutation) -> list[int]:
    """Sizes of the point orbits of <g, h>, largest first. Each point takes
    the least label among itself and its two images until none changes, so
    every orbit ends labelled by its least point."""
    label = np.arange(g.degree)
    while True:
        nxt = np.minimum(label, np.minimum(label[g.images], label[h.images]))
        if np.array_equal(nxt, label):
            return sorted(np.unique(label, return_counts=True)[1].tolist(), reverse=True)
        label = nxt


def prepare_context(
    g: Permutation,
    h: Permutation,
    rng: np.random.Generator,
) -> SynthContext:
    """Shrink the generators and assemble the label machinery.

    ValueError for an intransitive pair, which generates neither Alt(n) nor
    Sym(n); propagates the shrink feasibility errors for small degrees and
    even-even pairs below the threshold; RetryExhaustedError when randomized
    placement stalls.
    """
    if g.degree != h.degree:
        raise ValueError("generator degree mismatch")
    sizes = _orbit_sizes(g, h)
    if len(sizes) > 1:
        raise ValueError(f"<g, h> is intransitive: point orbits of sizes {sizes}")
    n = g.degree
    res = shrink_support(g, h, rng)
    v = res.long_cycle
    kappa = WordElement(res.word, res.element)
    k = walk_length(n)
    if kappa.perm.support_size() == 2:
        kappa = _upgrade_transposition(g, h, kappa, k, rng)
    ctx = SynthContext(
        g=g,
        h=h,
        v=v,
        labeling=CycleLabeling(v.cycle),
        kappa=kappa,
        rng=rng,
        walk_k=k,
        steps=StepTable.of(g, h),
    )
    placed = next(_placements(ctx, kappa.perm), None)
    if placed is None:
        raise RetryExhaustedError("could not conjugate the 3-cycle into the long cycle")
    if placed[0] is not None:
        ctx.kappa = kappa.conjugated_by(placed[0])
    ctx.kappa_labels = _kappa_labels(ctx.kappa.perm, ctx.labeling)
    _extend_pool(ctx, POOL_INIT)
    return ctx


# -- edge atoms ---------------------------------------------------------------------
#
# An edge atom for (alpha, beta) is a word-paired 3-cycle sending
# point_at(alpha) -> point_at(beta) -> third -> point_at(alpha); the caller
# constrains which points may serve as the third.


def _preimage_label_rows(ctx: SynthContext, images: np.ndarray) -> np.ndarray:
    """rows[b, j - 1] = label of point_at(j)^(gamma_b^-1) for the walks gamma_b
    whose 0-based images are images[b]; 0 when off the cycle."""
    points = np.array(ctx.labeling.points) - 1
    labels = np.zeros(ctx.degree, dtype=np.int64)
    labels[points] = np.arange(1, points.shape[0] + 1)
    return labels[np.argsort(images, axis=1)[:, points]]  # argsort inverts each row


def _extend_pool(ctx: SynthContext, count: int) -> None:
    """Append `count` gamma walks, drawn as code arrays of at most POOL_INIT
    rows, each tracked by one kernel call."""
    parts = [] if ctx.pool_gammas is None else [(ctx.pool_gammas, ctx.pool_images, ctx.pool_rows)]
    for start in range(0, count, POOL_INIT):
        codes = lazy_step_codes(ctx.walk_k, ctx.rng, min(POOL_INIT, count - start))
        images = ctx.steps.track(codes)
        parts.append((codes, images, _preimage_label_rows(ctx, images)))
    ctx.pool_gammas, ctx.pool_images, ctx.pool_rows = (np.concatenate(a) for a in zip(*parts))


def _pool_gamma(ctx: SynthContext, i: int) -> WordElement:
    """Pool walk i as a word-paired element, made on first use."""
    if i not in ctx.pool_used:
        perm = Permutation._raw(ctx.pool_images[i].copy())
        ctx.pool_used[i] = WordElement(ctx.steps.word(ctx.pool_gammas[i]), perm)
    return ctx.pool_used[i]


def _conjugated_atom(
    ctx: SynthContext,
    gamma: WordElement,
    s: int,
    alpha: int,
    beta: int,
    third: int,
) -> WordElement:
    out = ctx.kappa
    if s % ctx.labeling.length:
        out = out.conjugated_by(_v_power(ctx, s))
    if not gamma.perm.is_identity():
        out = out.conjugated_by(gamma)
    lab = ctx.labeling
    _require_3cycle(out.perm, (lab.point_at(alpha), lab.point_at(beta), third), "pool atom")
    return out


def _pool_edge_atom(
    ctx: SynthContext, alpha: int, beta: int, forbidden: frozenset[int]
) -> tuple[WordElement, int]:
    """kappa^{v^s gamma} realizes (alpha -> beta) whenever gamma's
    preimage labels of alpha and beta differ by one of kappa's label gaps.

    Scans pool rows in insertion order, doubling the pool on a miss;
    RetryExhaustedError on a miss once the pool holds POOL_CAP walks.
    """
    lab = ctx.labeling
    l = lab.length
    c = ctx.kappa_labels
    while True:
        rows = ctx.pool_rows
        ra = rows[:, alpha - 1]
        rb = rows[:, beta - 1]
        hits: list[tuple[int, int, int]] = []
        for e in range(3):
            ca, cb, cc = c[e], c[(e + 1) % 3], c[(e + 2) % 3]
            mask = (ra > 0) & (rb > 0) & ((rb - ra) % l == (cb - ca) % l)
            for idx in np.nonzero(mask)[0]:
                hits.append((int(idx), ca, cc))
        hits.sort()
        for idx, ca, cc in hits:
            s = (int(ra[idx]) - ca) % l
            third = int(ctx.pool_images[idx, lab.point_at(lab.shift(cc, s)) - 1]) + 1
            if third in forbidden:
                continue
            return _conjugated_atom(ctx, _pool_gamma(ctx, idx), s, alpha, beta, third), third
        if len(ctx.pool_gammas) >= POOL_CAP:
            raise RetryExhaustedError(f"no pool walk realizes the label edge {alpha}->{beta}")
        _extend_pool(ctx, len(ctx.pool_gammas))


def build_3cycle(ctx: SynthContext, r: int, s: int, t: int) -> WordElement:
    """Word-paired 3-cycle point_at(r) -> point_at(s) -> point_at(t).

    Built as [P1, P2] with edge atoms P1 = (r t c), P2 = (r s d): when the
    five labels sit on distinct points, P1^-1 P2^-1 P1 P2 = (r s t). Needs
    c != d, hence d joins P1's forbidden set. RetryExhaustedError when the
    pool, grown to POOL_CAP walks, still has no atom for one of the edges.
    """
    if len({r, s, t}) != 3:
        raise ValueError("labels must be distinct")
    lab = ctx.labeling
    pr, ps, pt = lab.point_at(r), lab.point_at(s), lab.point_at(t)
    p2, d = _pool_edge_atom(ctx, r, s, frozenset((pr, ps, pt)))
    p1, _ = _pool_edge_atom(ctx, r, t, frozenset((pr, ps, pt, d)))
    out = p1.inverse() * p2.inverse() * p1 * p2
    _require_3cycle(out.perm, (pr, ps, pt), "commutator")
    return out


# -- full synthesis -----------------------------------------------------------------


def _factor_word(ctx: SynthContext, factor: Permutation) -> Word:
    """Word for a 3-cycle factor, from the first of its placements inside the
    cycle (itself, then lazy relocation walks rho) that build_3cycle answers."""
    for rho, moved in _placements(ctx, factor):
        try:
            inner = build_3cycle(ctx, *_cycle_labels(ctx.labeling, moved))
        except RetryExhaustedError:
            continue
        if rho is None:
            return inner.word
        moved_back = rho.perm * inner.perm * rho.perm.inverse()
        _require_3cycle(moved_back, _cycle_points(factor), "relocated factor")
        return Cat((rho.word, inner.word, Inv(rho.word)))
    raise RetryExhaustedError("no placement of a 3-cycle factor inside the cycle was realized")


def _parity_witness(ctx: SynthContext, target: Permutation) -> tuple[Word, Permutation]:
    """(symbol, remainder) for an odd target: over the odd steps w among g,
    g^-1, h, h^-1, the one whose remainder w^-1 * target moves the fewest
    points, ties to the lowest code. ValueError when both generators are even
    (the target is then outside the group)."""
    parities = (ctx.g.parity(), ctx.h.parity())
    codes = np.array([c for c in range(STAY) if parities[c >> 1]], dtype=np.intp)
    if not codes.size:
        raise ValueError("odd target but both generators are even")
    # step c ^ 1 is the inverse of step c, so each row is one remainder w^-1 * target
    rest = target.images.take(ctx.steps.images[codes ^ 1])
    moved = np.count_nonzero(rest != np.arange(ctx.degree), axis=1)
    best = int(np.argmin(moved))
    return ctx.steps.symbols[codes[best]], Permutation._raw(rest[best])


def synthesize(ctx: SynthContext, target: Permutation) -> Word:
    """Word over (g, h) evaluating exactly to target.

    An odd target first spends the odd step (g, g^-1, h or h^-1) whose
    remainder moves the fewest points; the even remainder factors into
    3-cycles handled one by one. Raises ValueError for an odd target when
    both generators are even (the target is then outside the group).
    """
    if target.degree != ctx.degree:
        raise ValueError("degree mismatch")
    parts: list[Word] = []
    rest = target
    if not target.is_even():
        witness, rest = _parity_witness(ctx, target)
        parts.append(witness)
    for factor in three_cycle_factorization(rest):
        parts.append(_factor_word(ctx, factor))
    out = Cat(tuple(parts))
    if evaluate(out, ctx.g, ctx.h) != target:
        raise InvariantError("synthesized word does not evaluate to the target")
    return out
