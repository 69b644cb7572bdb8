"""Schreier graphs on injective tuples, gap estimation, conditioned walks.

The graph's vertices are the injective ell-tuples over {1..n}; the edge
multiset at x is {x^g, x^(g^-1), x^h, x^(h^-1)} acting coordinatewise, kept
as a 4-row neighbor table that the power-iteration eigenvalue estimator
works off through the kernel backend. The constrained walk sampler pushes
the constrained points through the pair's walk.StepTable instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import RetryExhaustedError
from .perm import Permutation
from .walk import STAY, StepTable, gather_matrix, lex_codes, lex_lookup
from .word import Word

MAX_VERTICES = 5_000_000


@functools.lru_cache(maxsize=1)
def _pair_steps(g: Permutation, h: Permutation) -> StepTable:
    """One step table for the conditioned walks of a pair, so the words of a
    shrink share their Inv(g), Inv(h) nodes (node_count counts them once)."""
    return StepTable.of(g, h)


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
        self.tuples = np.array(
            list(itertools.permutations(range(n), ell)), dtype=np.int32
        ).reshape(num, ell)
        self._codes = lex_codes(self.tuples, n)
        nbrs = np.empty((4, num), dtype=np.int32)
        for row, images in enumerate(StepTable.of(g, h).images[:STAY]):
            nbrs[row] = self.rank_rows(images[self.tuples])
        self.neighbors = nbrs

    @property
    def num_vertices(self) -> int:
        return self.tuples.shape[0]

    def rank_rows(self, rows: np.ndarray) -> np.ndarray:
        """Lexicographic rank of 0-based injective tuples, vectorized;
        ValueError for a row that is not an injective tuple over 0..n-1."""
        return lex_lookup(self.tuples, self._codes, rows, self.n)

    def rank_of(self, tup: Sequence[int]) -> int:
        """Index of a 1-based injective tuple; ValueError for anything else."""
        return int(self.rank_rows(np.asarray([[t - 1 for t in tup]]))[0])

    def tuple_at(self, idx: int) -> tuple[int, ...]:
        return tuple(int(x) + 1 for x in self.tuples[idx])

    def apply_adjacency(self, f: np.ndarray) -> np.ndarray:
        """Normalized adjacency: average of f over the 4 neighbor slots."""
        return kernels.adjacency_apply(f, self.neighbors)

    def dense_adjacency(self) -> np.ndarray:
        """Explicit matrix, for oracle-sized graphs only."""
        if self.num_vertices > 20_000:
            raise ValueError("dense form too large")
        return gather_matrix(self.neighbors, np.full(4, 0.25))


@dataclass(frozen=True)
class GapEstimate:
    lambda1: float
    gap: float
    residual: float
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...] = ()


def estimate_gap(
    graph: TupleGraph,
    iters: int = 4000,
    tol: float = 1e-8,
    rng: np.random.Generator | None = None,
) -> GapEstimate:
    """Second eigenvalue of the normalized adjacency by power iteration.

    Iterates the lazy operator (I + A)/2 (spectrum in [0, 1], so no
    sign-flipping) with the constant eigenvector removed exactly by mean
    subtraction each step. Convergence is declared on the relative
    residual ||A v - lambda v|| / ||v||, which can dip and rise while two
    eigenvalues fight but decreases geometrically once one wins. A
    disconnected graph yields lambda1 -> 1 and gap -> 0.
    """
    if iters < 1:
        raise ValueError(f"power iteration needs at least one iteration, got {iters}")
    if rng is None:
        rng = np.random.default_rng(0)
    num = graph.num_vertices
    if num < 2:
        raise ValueError("graph too small for a nontrivial eigenvalue")
    v = rng.standard_normal(num)
    v -= v.mean()
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("degenerate start vector")
    v /= norm
    av = graph.apply_adjacency(v)
    lam = 0.0
    residual = math.inf
    used = 0
    trace: list[float] = []
    for i in range(1, iters + 1):
        w = 0.5 * (v + av)
        w -= w.mean()
        wnorm = np.linalg.norm(w)
        if wnorm < 1e-300:
            # A annihilated the deflated space; spectrum is {1} + {-1,...}
            lam = -1.0
            residual = 0.0
            used = i
            trace.append(residual)
            break
        w /= wnorm
        aw = graph.apply_adjacency(w)
        lam = float(w @ aw)
        residual = float(np.linalg.norm(aw - lam * w))
        trace.append(residual)
        v, av = w, aw
        used = i
        if residual <= tol:
            break
    return GapEstimate(
        lambda1=lam,
        gap=1.0 - lam,
        residual=residual,
        iterations=used,
        converged=residual <= tol,
        residual_trace=tuple(trace),
    )


# -- conditioned lazy walks -------------------------------------------------------

_BATCH = 1024


def _validate_constraints(
    n: int, constraints: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    sources = [c[0] for c in constraints]
    targets = [c[1] for c in constraints]
    for x in sources + targets:
        if not 1 <= x <= n:
            raise ValueError(f"constraint point {x} out of range 1..{n}")
    if len(set(sources)) != len(sources):
        raise ValueError("constraint sources must be distinct")
    if len(set(targets)) != len(targets):
        raise ValueError("constraint targets must be distinct")
    src = np.array([x - 1 for x in sources], dtype=np.int32)
    tgt = np.array([x - 1 for x in targets], dtype=np.int32)
    return src, tgt


def _conditioned_walk_counted(
    g: Permutation,
    h: Permutation,
    k: int,
    constraints: Sequence[tuple[int, int]],
    rng: np.random.Generator,
) -> tuple[Permutation, Word, int]:
    """Rejection-sample a lazy k-step walk hitting all (source -> target)
    constraints; returns (permutation, word, trials used). Raises
    RetryExhaustedError after 20 n^2 trials.

    Each step is the identity with probability 1/2, else one of g, g^-1,
    h, h^-1 with probability 1/8 each. Only the constrained points are
    tracked during rejection; the full permutation is materialized once,
    for the accepted trial. Trials consume the rng stream in a fixed
    order, so results do not depend on the internal batch size.
    """
    if g.degree != h.degree:
        raise ValueError("generator degree mismatch")
    n = g.degree
    if k < 1:
        raise ValueError("walk length must be >= 1")
    max_tries = 20 * n * n
    src, tgt = _validate_constraints(n, constraints)
    steps = _pair_steps(g, h)
    done = 0
    while done < max_tries:
        batch = min(_BATCH, max_tries - done)
        # draw codes 0..7; 0..3 pick a generator row, 4..7 all mean "stay"
        codes = np.minimum(rng.integers(0, 8, size=(batch, k), dtype=np.int64), STAY)
        if src.size:
            finals = kernels.track_points(steps.images, codes, src)
            hits = np.nonzero((finals == tgt).all(axis=1))[0]
        else:
            hits = np.array([0])
        if hits.size:
            row = int(hits[0])
            sigma, word = steps.materialize(codes[row])
            return sigma, word, done + row + 1
        done += batch
    raise RetryExhaustedError(
        f"no walk satisfied {list(constraints)} within {max_tries} trials"
    )


def conditioned_walk(
    g: Permutation,
    h: Permutation,
    k: int,
    constraints: Sequence[tuple[int, int]],
    rng: np.random.Generator,
) -> tuple[Permutation, Word]:
    sigma, word, _ = _conditioned_walk_counted(g, h, k, constraints, rng)
    return sigma, word
