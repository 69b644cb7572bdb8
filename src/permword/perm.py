"""Permutations of {1..n} with composition acting on the right.

Conventions used everywhere in this package:

* Points are 1-based in every public argument and return value; the
  internal image table is 0-based.
* ``x ** p`` style right action: ``p.apply(x)`` is the image of ``x``.
* ``p * q`` means "apply p, then q", so ``(p * q).apply(x) ==
  q.apply(p.apply(x))``.
* ``p.conjugate(r)`` is ``r^-1 * p * r``: it relabels the support of
  ``p`` through ``r`` and preserves cycle orientation.
* Parity is ``(n - number_of_cycles) mod 2`` counting fixed points as
  cycles; 0 is even, 1 is odd.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantError


class Permutation:
    """Immutable permutation backed by a 0-based numpy image table."""

    __slots__ = ("_img", "_hash")

    def __init__(self, images: Iterable[int]):
        img = np.asarray(images, dtype=np.int64)
        if img.ndim != 1:
            raise ValueError("images must be one-dimensional")
        n = img.shape[0]
        if n == 0:
            raise ValueError("degree must be at least 1")
        counts = np.bincount(img, minlength=n) if img.min(initial=0) >= 0 else None
        if counts is None or counts.shape[0] != n or not (counts == 1).all():
            raise ValueError("images must be a permutation of 0..n-1")
        img = np.ascontiguousarray(img, dtype=np.int32)
        img.setflags(write=False)
        object.__setattr__(self, "_img", img)
        object.__setattr__(self, "_hash", None)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _raw(cls, img: np.ndarray) -> "Permutation":
        """Wrap a trusted, already-validated 0-based image array."""
        self = object.__new__(cls)
        img = np.ascontiguousarray(img, dtype=np.int32)
        img.setflags(write=False)
        object.__setattr__(self, "_img", img)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ValueError("degree must be at least 1")
        return cls._raw(np.arange(n, dtype=np.int32))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from disjoint cycles of 1-based points."""
        img = np.arange(n, dtype=np.int64)
        seen: set[int] = set()
        for cyc in cycles:
            pts = [int(x) for x in cyc]
            if any(x < 1 or x > n for x in pts):
                raise ValueError(f"cycle point out of range 1..{n}: {pts}")
            if len(set(pts)) != len(pts) or seen.intersection(pts):
                raise ValueError("cycles must be disjoint and repetition-free")
            seen.update(pts)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                img[a - 1] = b - 1
        return cls._raw(img)

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        return cls.from_cycles(n, [(a, b)])

    # -- basic protocol --------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._img.shape[0]

    @property
    def images(self) -> np.ndarray:
        """Read-only 0-based image table."""
        return self._img

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._img.shape == other._img.shape and bool(
            (self._img == other._img).all()
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._img.tobytes())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Permutation({format_permutation(self)!r}, n={self.degree})"

    # -- group operations ------------------------------------------------------

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return int(self._img[point - 1]) + 1

    def preimage(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return int(np.where(self._img == point - 1)[0][0]) + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: apply self first, then other."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation._raw(other._img[self._img])

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self._img)
        inv[self._img] = np.arange(self.degree, dtype=np.int32)
        return Permutation._raw(inv)

    def __pow__(self, k: int) -> "Permutation":
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = np.arange(self.degree, dtype=np.int32)
        cur = base._img
        while k:
            if k & 1:
                result = cur[result]
            k >>= 1
            if k:
                cur = cur[cur]
        return Permutation._raw(result)

    def conjugate(self, r: "Permutation") -> "Permutation":
        """r^-1 * self * r. Moves r(x) -> r(y) whenever self moves x -> y."""
        if self.degree != r.degree:
            raise ValueError("degree mismatch")
        out = np.empty_like(self._img)
        out[r._img] = r._img[self._img]
        return Permutation._raw(out)

    # -- structure -------------------------------------------------------------

    def is_identity(self) -> bool:
        return bool((self._img == np.arange(self.degree, dtype=np.int32)).all())

    def support(self) -> tuple[int, ...]:
        """Sorted 1-based moved points."""
        moved = np.nonzero(self._img != np.arange(self.degree, dtype=np.int32))[0]
        return tuple(int(x) + 1 for x in moved)

    def support_size(self) -> int:
        return int((self._img != np.arange(self.degree, dtype=np.int32)).sum())

    def cycles(self, include_fixed: bool = True) -> list[tuple[int, ...]]:
        """Disjoint cycles as 1-based tuples, each starting at its minimum,
        ordered by that minimum."""
        img = self._img
        n = self.degree
        seen = np.zeros(n, dtype=bool)
        out: list[tuple[int, ...]] = []
        for start in range(n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = int(img[start])
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = int(img[x])
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(p + 1 for p in cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, sorted descending."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def longest_cycle(self) -> tuple[int, ...]:
        """Longest cycle; ties broken by smallest minimum element.

        Cycles are generated in order of increasing minimum, so the first
        maximum wins the tie automatically.
        """
        return max(self.cycles(), key=len)

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return (self.degree - len(self.cycles())) % 2

    def is_even(self) -> bool:
        return self.parity() == 0

    def order(self) -> int:
        from math import lcm

        return lcm(*(len(c) for c in self.cycles()))


# -- free functions -----------------------------------------------------------


def random_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform element of Sym(n) drawn from the given generator."""
    return Permutation._raw(rng.permutation(n).astype(np.int32))


def random_even(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform element of Alt(n), by parity rejection."""
    while True:
        p = random_uniform(n, rng)
        if p.is_even():
            return p


def format_permutation(p: Permutation) -> str:
    """Cycle notation with fixed points omitted; identity prints as ``()``."""
    cycs = p.cycles(include_fixed=False)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycs)


def format_images(p: Permutation) -> str:
    """One-line image form, e.g. ``5: 2 3 1 4 5``."""
    return f"{p.degree}: " + " ".join(str(int(x) + 1) for x in p.images)


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Inverse of the two text forms above.

    ``"5: 2 3 1 4 5"`` fixes the degree explicitly; ``"(1 2 3)(4 5)"``
    infers it from the largest point unless ``degree`` is given.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if ":" in text:
        head, _, rest = text.partition(":")
        n = int(head.strip())
        imgs = [int(tok) for tok in rest.split()]
        if len(imgs) != n:
            raise ValueError(f"expected {n} images, got {len(imgs)}")
        if degree is not None and degree != n:
            raise ValueError("degree argument conflicts with image form header")
        return Permutation([x - 1 for x in imgs])
    if text == "()":
        if degree is None:
            raise ValueError("identity needs an explicit degree")
        return Permutation.identity(degree)
    cycles: list[list[int]] = []
    depth = 0
    cur: list[int] = []
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            if depth:
                raise ValueError("nested parenthesis in cycle text")
            depth, cur = 1, []
        elif tok == ")":
            if not depth:
                raise ValueError("unbalanced parenthesis in cycle text")
            if len(cur) < 2:
                raise ValueError("cycles must list at least two points")
            cycles.append(cur)
            depth = 0
        else:
            if not depth:
                raise ValueError(f"point {tok!r} outside any cycle")
            cur.append(int(tok))
    if depth:
        raise ValueError("unbalanced parenthesis in cycle text")
    n = degree if degree is not None else max(max(c) for c in cycles)
    return Permutation.from_cycles(n, cycles)


def three_cycle_factorization(p: Permutation) -> list[Permutation]:
    """Factor an even permutation into at most ``degree`` 3-cycles.

    Greedy: repeatedly emit a 3-cycle fixing the smallest moved point of
    the remainder. Each step fixes at least one new point and never
    un-fixes old ones, and the remainder stays even, so the loop ends at
    the identity in at most ``support_size`` steps. Empty list for the
    identity; a single 3-cycle factors as itself.
    """
    if p.parity() != 0:
        raise ValueError("only even permutations factor into 3-cycles")
    n = p.degree
    r = np.array(p.images, dtype=np.int32)
    rinv = np.empty_like(r)
    rinv[r] = np.arange(n, dtype=np.int32)
    ident = np.arange(n, dtype=np.int32)
    out: list[Permutation] = []
    while True:
        moved = np.nonzero(r != ident)[0]
        if moved.size == 0:
            break
        a = int(moved[0])
        u = int(rinv[a])
        w = int(rinv[u])
        if w == a:
            # remainder contains the 2-cycle (a u); borrow a third moved point
            others = [int(x) for x in moved if x != a and x != u]
            w = others[0]
        # t_inv = (a u w); new remainder t_inv * r fixes a (and u generically)
        t_inv = ident.copy()
        t_inv[a], t_inv[u], t_inv[w] = u, w, a
        r = r[t_inv]
        rinv = np.empty_like(r)
        rinv[r] = np.arange(n, dtype=np.int32)
        t = ident.copy()
        t[u], t[w], t[a] = a, u, w
        out.append(Permutation._raw(t))
    if len(out) > n:
        raise InvariantError(f"{len(out)} 3-cycle factors exceed the degree {n}")
    return out
