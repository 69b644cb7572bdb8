"""Schreier graphs on injective tuples, gap estimation, conditioned conjugators.

The graph's vertices are the injective ell-tuples over {1..n}; the edge
multiset at x is {x^g, x^(g^-1), x^h, x^(h^-1)} acting coordinatewise, kept
as a 4-row neighbor table that the Lanczos eigenvalue estimator works off
through the adjacency kernel. Breadth-first step trees (walk.level_bfs) on
ordered pairs of points build the shrink's conjugators and certify that the
pair is 2-transitive; on a whole tuple graph they give shortest words.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import InvariantError
from .perm import Permutation
from .walk import (
    STAY,
    StepTable,
    _parity_rows,
    injective_tuples,
    lazy_step_codes,
    level_bfs,
    lex_index,
    lex_rank,
)
from .word import Word

MAX_VERTICES = 5_000_000


class TupleGraph:
    """Implicit Schreier graph of <g, h> acting on injective ell-tuples."""

    def __init__(self, g: Permutation, h: Permutation, ell: int):
        if g.degree != h.degree:
            raise ValueError("generator degree mismatch")
        n = g.degree
        if not 1 <= ell <= n:
            raise ValueError("need 1 <= ell <= n")
        num = math.perm(n, ell)
        if num > MAX_VERTICES:
            raise ValueError(f"{num} vertices exceeds the {MAX_VERTICES} cap")
        self.g = g
        self.h = h
        self.n = n
        self.ell = ell
        self.tuples = injective_tuples(n, ell)
        nbrs = np.empty((4, num), dtype=np.intp)
        for row, images in enumerate(StepTable.of(g, h).images[:STAY]):
            nbrs[row] = self.rank_rows(images[self.tuples])
        self.neighbors = nbrs

    @property
    def num_vertices(self) -> int:
        return self.tuples.shape[0]

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Lexicographic rank of 0-based injective tuples, vectorized;
        ValueError for a row that is not an injective tuple over 0..n-1."""
        return lex_index(self.tuples, rows, self.n)

    def rank_of(self, tup: Sequence[int]) -> int:
        """Index of a 1-based injective tuple; ValueError for anything else."""
        return int(self.rank_rows(np.asarray([[t - 1 for t in tup]]))[0])

    def tuple_at(self, idx: int) -> tuple[int, ...]:
        return tuple(int(x) + 1 for x in self.tuples[idx])

    def apply_adjacency(self, f: np.ndarray) -> np.ndarray:
        """Normalized adjacency: average of f over the 4 neighbor slots."""
        return kernels.adjacency_apply(f, self.neighbors)

    @functools.cached_property
    def blocks(self) -> tuple["Block", ...]:
        """The adjacency's symmetry blocks, built on first use from the
        neighbor table: for ell = 1 the whole graph; else the tuples
        symmetric in their first two points, then the alternating functions
        on ell-subsets."""
        if self.ell == 1:
            return (Block(self.neighbors, signed=False),)
        pairs_sorted = self.tuples.copy()
        pairs_sorted[:, :2].sort(axis=1)
        symmetric = _orbit_table(self.neighbors, lex_rank(pairs_sorted, self.n))
        subsets = lex_rank(np.sort(self.tuples, axis=1), self.n)
        alternating = _orbit_table(self.neighbors, subsets, _parity_rows(self.tuples))
        return Block(symmetric, signed=False), Block(alternating, signed=True)

    def tree(self) -> "StepTree":
        """Breadth-first step tree from vertex 0, the tuple (1, 2, ..., ell)."""
        moves = functools.partial(self.neighbors.take, axis=1)
        codes, depth = level_bfs(moves, STAY, self.num_vertices, 0)
        return StepTree(StepTable.of(self.g, self.h), moves, codes, depth)


def _orbit_table(
    neighbors: np.ndarray, rep: np.ndarray, odd: np.ndarray | None = None
) -> np.ndarray:
    """Block table of the orbits that rep names (rep[x] is the index of x's
    representative, so rep[x] == x on representatives): the block's vertices
    are the representatives in order, and entry [j, b] is the block index of
    the j-th neighbour of vertex b, plus the block size where that neighbour
    is odd. One (N,) map from each tuple to its block index, then a gather."""
    is_rep = rep == np.arange(rep.size)
    index = np.cumsum(is_rep) - 1
    block_of = index[rep]
    if odd is not None:
        block_of += (int(index[-1]) + 1) * odd.astype(np.intp)
    return block_of.take(neighbors[:, is_rep])


@dataclass(frozen=True, eq=False)
class Block:
    """One symmetry block of a TupleGraph's normalized adjacency: entry
    [j, b] of the (4, size) table is the block index of the j-th neighbour of
    block vertex b, plus size where a signed block's step flips the sign.
    An unsigned block holds the constants, which apply removes after every
    product; a signed (alternating) block holds none."""

    table: np.ndarray
    signed: bool

    @property
    def size(self) -> int:
        return self.table.shape[1]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """The block's adjacency on f, mean-deflated unless signed."""
        if self.signed:
            return kernels.adjacency_apply(np.concatenate((f, -f)), self.table)
        out = kernels.adjacency_apply(f, self.table)
        out -= out.mean()
        return out


# A Lanczos step whose new off-diagonal beta is at most this has closed the
# Krylov space: it is invariant under A, so its top Ritz value is exact.
_CLOSED = 1e-12
# Ritz checks run every _CHECK_EVERY steps, then every tenth of the steps
# taken, so their O(m) cost each stays below the products' over a long run.
_CHECK_EVERY = 20
# Cap on the sweeps that narrow the top Ritz value in one check; the solves
# that follow need only a shift close above it.
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class GapEstimate:
    lambda1: float
    gap: float
    residual: float
    iterations: int
    converged: bool


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors in einsum's own loop, not BLAS: one
    thread and one summation order whatever OPENBLAS_NUM_THREADS says, so
    every estimate is reproducible bit for bit, and no BLAS thread wakes
    to slow the elementwise passes around it."""
    return float(np.einsum("i,i->", a, b))


def _lanczos(op: Callable[[np.ndarray], np.ndarray], q: np.ndarray):
    """Plain three-term Lanczos recurrence on the symmetric operator op from
    the unit vector q, holding three vectors and no basis. Yields (q_j,
    alpha_j, beta_j) for j = 1, 2, ... and stops after a beta at most
    _CLOSED. Deterministic, so a second run from the same q yields the same
    vectors bit for bit."""
    q_prev = None
    beta = 0.0
    while True:
        w = op(q)
        if q_prev is not None:
            w -= beta * q_prev
        alpha = _dot(q, w)
        w -= alpha * q
        beta = math.sqrt(_dot(w, w))
        yield q, alpha, beta
        if beta <= _CLOSED:
            return
        q_prev, q = q, w / beta


def _pivots(alpha: list[float], beta: list[float], sigma: float):
    """LDL^T pivots of sigma*I - T for the tridiagonal T with diagonal alpha
    and off-diagonal beta, and p'/p at sigma for p(sigma) = det(sigma*I - T);
    None unless every pivot is positive, that is unless sigma lies above the
    largest eigenvalue of T. One O(m) sweep."""
    d = sigma - alpha[0]
    if d <= 0.0:
        return None
    dd = 1.0  # derivative of the pivot in sigma
    ratio = 1.0 / d
    piv = [d]
    for a, b in zip(alpha[1:], beta):
        r = b * b / d
        dd = 1.0 + r * dd / d
        d = sigma - a - r
        if d <= 0.0:
            return None
        ratio += dd / d
        piv.append(d)
    return piv, ratio


def _solve(piv: list[float], beta: list[float], b: Sequence[float]) -> np.ndarray:
    """Unit solution direction of (sigma*I - T) x = b from the pivots of
    _pivots at sigma: one forward and one backward O(m) sweep."""
    m = len(piv)
    y = [0.0] * m
    acc = y[0] = b[0] / piv[0]
    for i in range(1, m):
        acc = y[i] = (b[i] + beta[i - 1] * acc) / piv[i]
    for i in range(m - 2, -1, -1):
        acc = y[i] = y[i] + beta[i] * acc / piv[i]
    out = np.array(y)
    return out / math.sqrt(_dot(out, out))


def _top_ritz(
    alpha: list[float], beta: list[float], lower: float, width: float
) -> tuple[float, np.ndarray]:
    """Largest eigenvalue theta of the tridiagonal T (diagonal alpha,
    off-diagonal beta) and its unit eigenvector, in O(m) sweeps.

    lower is a Rayleigh quotient of T (the previous check's theta: T's
    leading block is the earlier T, so by interlacing theta cannot fall) and
    width a guess at how far theta may have moved. Sturm tests (_pivots)
    keep theta in a bracket [lo, hi). hi is lowered by Newton steps on
    det(sigma*I - T), which from above decrease monotonically to theta, or
    the bracket is halved when a Newton step is not below half the one
    before it (hi far above theta, or a cluster of Ritz copies). Two
    inverse-iteration solves at hi give the vector, whose Rayleigh quotient
    is theta.
    """
    lo = max(lower, max(alpha))
    scale = 1e-12 * max(1.0, abs(lo))
    step = scale
    while (got := _pivots(alpha, beta, lo + step)) is None:
        lo += step  # theta moved since the last check; a converged one does not
        step = max(width, 16.0 * step)
    hi = lo + step
    last = math.inf
    for _ in range(_MAX_SWEEPS):
        step = 1.0 / got[1]
        if min(step, hi - lo) <= scale:
            break
        sigma = hi - step if step < 0.5 * last else 0.5 * (lo + hi)
        last = step
        trial = _pivots(alpha, beta, sigma)
        if trial is None:
            lo = sigma
        else:
            hi, got = sigma, trial
    piv = got[0]
    x = _solve(piv, beta, _solve(piv, beta, [1.0] * len(piv)))
    tx = np.asarray(alpha) * x
    off = np.asarray(beta)
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    return _dot(x, tx), x


def _ritz_residual(
    op: Callable[[np.ndarray], np.ndarray], v: np.ndarray, s: np.ndarray, theta: float
) -> float:
    """||A y - theta y|| / ||y|| for the Ritz vector y = sum_j s_j q_j, with
    the q_j rebuilt by a second run of the recurrence from v."""
    y = np.zeros_like(v)
    for coef, (q, _, _) in zip(s, _lanczos(op, v)):
        y += coef * q
    ay = op(y)
    ay -= theta * y
    return math.sqrt(_dot(ay, ay)) / math.sqrt(_dot(y, y))


@dataclass(frozen=True)
class _BlockRun:
    block: Block
    start: np.ndarray
    theta: float
    ritz: np.ndarray  # the Ritz vector's coefficients, one per step
    estimate: float  # beta_m |s_m|, the Ritz residual estimate
    met: bool  # stopped on its estimate or closed, not at the cap


def _run_block(block: Block, v: np.ndarray, iters: int, tol: float) -> _BlockRun:
    """Lanczos on one block from the unit vector v, checking the top Ritz
    value now and then: it stops when the estimate beta_m |s_m| is at most
    tol, when the Krylov space closes, or after iters steps."""
    alpha: list[float] = []
    beta: list[float] = []
    theta = -math.inf
    estimate = math.inf
    next_check = _CHECK_EVERY
    for j, (_, a, b) in enumerate(_lanczos(block.apply, v), start=1):
        alpha.append(a)
        beta.append(b)
        closed = b <= _CLOSED
        if not (closed or j >= next_check or j == iters):
            continue
        theta, s = _top_ritz(alpha, beta[:-1], theta, min(estimate, 1.0))
        estimate = b * abs(float(s[-1]))
        if closed or estimate <= tol or j == iters:
            break
        next_check = j + max(_CHECK_EVERY, j // 10)
    return _BlockRun(block, v, theta, s, estimate, closed or estimate <= tol)


def estimate_gap(
    graph: TupleGraph,
    iters: int = 4000,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> GapEstimate:
    """Second eigenvalue of the normalized adjacency A by Lanczos, run on
    each of the graph's symmetry blocks.

    Permuting a tuple's positions commutes with A, and every irreducible of
    Sym(ell) but the sign has a vector fixed by (1 2). So the spectrum of A
    is the union of its spectra on the (1 2)-symmetric and on the alternating
    functions (TupleGraph.blocks), and lambda_2 is the larger top eigenvalue
    of the two blocks once the constants are removed. Each block runs the
    three-term recurrence from its own start vector, drawn from rng in block
    order; the symmetric block, which holds the constants, subtracts the mean
    after every product (Paige: without a stored basis). A symmetric block of
    one vertex holds only the constants and is skipped. A block's run stops
    when its Ritz residual estimate beta_m |s_m| is at most tol, when its
    Krylov space closes, or after iters steps.

    lambda1 is the larger top Ritz value theta, and iterations counts the
    steps of its block. If that block stopped on its estimate or closed, a
    second run from its start vector rebuilds the Ritz vector y, and residual
    is the measured ||A y - theta y|| / ||y||; otherwise residual is its
    estimate. A block stopped at the cap raises residual to its own unmet
    estimate. So converged, which holds exactly when residual is at most tol,
    needs the winner's measured residual at most tol and every block stopped
    on its estimate or closed (a tol below the rounding floor of about 1e-15
    is measured and missed). A disconnected graph yields lambda1 = 1 and
    gap = 0. tol = 0 runs each block to iters unless its space closes.
    """
    if iters < 1:
        raise ValueError(f"Lanczos needs at least one iteration, got {iters}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if rng is None:
        rng = np.random.default_rng(0)
    if graph.num_vertices < 2:
        raise ValueError("graph too small for a nontrivial eigenvalue")
    runs: list[_BlockRun] = []
    for block in graph.blocks:
        if not block.signed and block.size == 1:
            continue
        v = rng.standard_normal(block.size)
        if not block.signed:
            v -= v.mean()
        norm = math.sqrt(_dot(v, v))
        if norm == 0.0:
            raise ValueError("degenerate start vector")
        runs.append(_run_block(block, v / norm, iters, tol))
    win = max(runs, key=lambda run: run.theta)  # the first block on a tie
    residual = win.estimate
    if win.met:
        residual = _ritz_residual(win.block.apply, win.start, win.ritz, win.theta)
    residual = max([residual] + [r.estimate for r in runs if not r.met])
    return GapEstimate(
        lambda1=win.theta,
        gap=1.0 - win.theta,
        residual=residual,
        iterations=len(win.ritz),
        converged=residual <= tol,
    )


# -- step trees and the conjugators they build ------------------------------------


@dataclass(frozen=True, eq=False)
class StepTree:
    """Breadth-first tree of <g, h> on flat vertex ids: codes and depth as
    walk.level_bfs returns them (STAY at the root), moves(xs) the (4, len(xs))
    neighbours of xs under `steps`, whose symbols every word of the tree shares."""

    steps: StepTable
    moves: Callable[[np.ndarray], np.ndarray]
    codes: np.ndarray
    depth: int  # the deepest level, so no path to the root is longer

    def path_to_root(self, x: int) -> list[int]:
        """Step codes moving vertex x up to the root (at most depth)."""
        back: list[int] = []
        while len(back) < self.depth and (c := int(self.codes[x])) != STAY:
            back.append(c ^ 1)  # the inverse step: g <-> g^-1, h <-> h^-1
            x = int(self.moves(np.array([x]))[c ^ 1, 0])
        return back

    def path_from_root(self, x: int) -> list[int]:
        """Step codes moving the root down to vertex x."""
        return [c ^ 1 for c in reversed(self.path_to_root(x))]


@functools.lru_cache(maxsize=1)
def pair_tree(g: Permutation, h: Permutation) -> StepTree:
    """The pair's tree on ordered pairs, 0-based (a, b) at vertex a * n + b,
    rooted at (0, 1); ValueError unless it reaches all n(n-1), that is unless
    <g, h> is 2-transitive, as Alt(n) (n >= 4) and Sym(n) are. Cached, so a
    shrink's words share their Inv(g), Inv(h) nodes."""
    steps, n = StepTable.of(g, h), g.degree
    if n < 2:
        raise ValueError("ordered pairs of distinct points need n >= 2")
    images = steps.images[:STAY].astype(np.intp)
    firsts = images * n  # the first point's share of a pair's vertex id

    def moves(x: np.ndarray) -> np.ndarray:
        a, b = np.divmod(x, n)
        return firsts.take(a, axis=1) + images.take(b, axis=1)

    codes, depth = level_bfs(moves, STAY, n * n, 1)
    reached = int(np.count_nonzero(codes >= 0))
    if reached < n * (n - 1):
        raise ValueError(
            f"<g, h> is not 2-transitive, so generates neither Alt({n}) nor Sym({n}): "
            f"its tree reaches {reached} of the {n * (n - 1)} ordered pairs"
        )
    codes.setflags(write=False)
    return StepTree(steps, moves, codes, depth)


def _conditioned_walk_counted(
    g: Permutation,
    h: Permutation,
    k: int,
    constraints: Sequence[tuple[int, int]],
    rng: np.random.Generator,
) -> tuple[Permutation, Word, int]:
    """(sigma, word, 1): one draw of a sigma meeting exactly two constraints
    (y1 -> t1, y2 -> t2). sigma is one row of step codes, a lazy k-step walk
    rho, the tree path from (y1, y2)^rho up to the root and the one down to
    (t1, t2): at most k + 2 * depth symbols, meeting both constraints by
    construction (InvariantError if not). ValueError for a pair that is not
    2-transitive."""
    n = g.degree
    if len(constraints) != 2:
        raise ValueError(f"need exactly two constraints, got {len(constraints)}")
    (y1, t1), (y2, t2) = constraints
    if not (all(1 <= x <= n for x in (y1, t1, y2, t2)) and y1 != y2 and t1 != t2):
        raise ValueError(f"{list(constraints)}: need distinct sources, distinct targets in 1..{n}")
    tree = pair_tree(g, h)
    rho = lazy_step_codes(k, rng, 1)[0]
    u = kernels.track_points(tree.steps.images, rho[None, :], np.array([y1, y2]) - 1)[0]
    path = tree.path_to_root(int(u[0]) * n + int(u[1])) + tree.path_from_root((t1 - 1) * n + t2 - 1)
    row = np.concatenate([rho, np.array(path, dtype=np.int8)])
    sigma, word = tree.steps.materialize(row)
    if sigma.apply(y1) != t1 or sigma.apply(y2) != t2:
        raise InvariantError(f"conjugator misses its constraints {list(constraints)}")
    return sigma, word, 1


def conditioned_walk(
    g: Permutation,
    h: Permutation,
    k: int,
    constraints: Sequence[tuple[int, int]],
    rng: np.random.Generator,
) -> tuple[Permutation, Word]:
    sigma, word, _ = _conditioned_walk_counted(g, h, k, constraints, rng)
    return sigma, word
