"""Words over two group generators, stored as shared DAGs.

A word is a tree/DAG over four node kinds: ``Gen`` leaves named ``g`` or
``h``, ``Inv`` (formal inverse), ``Pow`` with a non-negative exponent, and
``Cat`` (concatenation of zero or more children; the empty ``Cat`` is the
identity word). Nodes compare by identity so that repeated subwords can be
shared; structural equality is a separate function. No simplification of
any kind happens here: lengths and generator counts always refer to the
fully expanded word.

Expanded lengths grow like 4^depth, so every count below is a plain python
integer, and every traversal is iterative with an id-keyed memo (shared
subwords are visited once, and deep words do not hit the recursion limit).
Generator counts are also kept on each node, so a subword shared between
words is counted once across them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InvariantError, WordParseError
from .perm import Permutation

GENERATOR_NAMES = ("g", "h")


class Word:
    """Base class; nodes hash/compare by identity. A node keeps its
    generator counts once a fold has computed them (see generator_counts);
    None until then."""

    __slots__ = ()
    _counts = None


@dataclass(frozen=True, eq=False)
class Gen(Word):
    name: str

    def __post_init__(self):
        if self.name not in GENERATOR_NAMES:
            raise ValueError(f"generator name must be one of {GENERATOR_NAMES}")


@dataclass(frozen=True, eq=False)
class Inv(Word):
    child: Word

    def __post_init__(self):
        if not isinstance(self.child, Word):
            raise TypeError("Inv child must be a Word")


@dataclass(frozen=True, eq=False)
class Pow(Word):
    child: Word
    exponent: int

    def __post_init__(self):
        if not isinstance(self.child, Word):
            raise TypeError("Pow child must be a Word")
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("Pow exponent must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class Cat(Word):
    children: tuple[Word, ...]

    def __post_init__(self):
        children = tuple(self.children)
        if any(not isinstance(c, Word) for c in children):
            raise TypeError("Cat children must be Words")
        object.__setattr__(self, "children", children)


GEN_G = Gen("g")
GEN_H = Gen("h")


def power(w: Word, k: int) -> Word:
    """Pow node; negative exponents normalize to a positive power of Inv."""
    if k < 0:
        return Pow(Inv(w), -k)
    return Pow(w, k)


# -- generic bottom-up reduction ------------------------------------------------


def _reduce(
    w: Word,
    gen: Callable[[Gen], object],
    inv: Callable[[object], object],
    pow_: Callable[[object, int], object],
    cat: Callable[[list], object],
    cache: str | None = None,
):
    """Evaluate a bottom-up fold over the DAG, iteratively, memoized by id.

    With `cache`, the name of a node attribute, a node whose attribute is
    set is not descended into, and every node folded here gets its value
    stored there: nodes are immutable, so the value holds for later folds.
    """
    memo: dict[int, object] = {}
    stack = [w]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in memo:
            stack.pop()
            continue
        value = getattr(node, cache, None) if cache else None
        if value is None:
            if isinstance(node, Gen):
                value = gen(node)
            elif isinstance(node, (Inv, Pow)):
                ck = id(node.child)
                if ck not in memo:
                    stack.append(node.child)
                    continue
                if isinstance(node, Inv):
                    value = inv(memo[ck])
                else:
                    value = pow_(memo[ck], node.exponent)
            elif isinstance(node, Cat):
                pending = [c for c in node.children if id(c) not in memo]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                value = cat([memo[id(c)] for c in node.children])
            else:
                raise TypeError(f"not a Word node: {node!r}")
            if cache:
                object.__setattr__(node, cache, value)
        memo[key] = value
        stack.pop()
    return memo[id(w)]


def evaluate(w: Word, g: Permutation, h: Permutation) -> Permutation:
    """Image of the word under g, h.

    A fold over the DAG on raw 0-based image arrays: Cat composes left to
    right, Inv inverts by scatter, and Pow uses square-and-multiply, so
    deep powers cost O(n log exponent). Only the result is wrapped as a
    Permutation.
    """
    if g.degree != h.degree:
        raise ValueError("generator degree mismatch")
    ident = np.arange(g.degree, dtype=np.intp)
    gens = {"g": g.images.astype(np.intp), "h": h.images.astype(np.intp)}

    def do_inv(img):
        out = np.empty_like(img)
        out[img] = ident
        return out

    def do_pow(img, k):
        out = ident
        while k:
            if k & 1:
                out = img[out]
            k >>= 1
            if k:
                img = img[img]
        return out

    def do_cat(imgs):
        out = ident
        for img in imgs:
            # apply out first, then img
            out = img[out]
        return out

    return Permutation._raw(
        _reduce(w, lambda node: gens[node.name], do_inv, do_pow, do_cat)
    )


def expanded_length(w: Word) -> int:
    """Number of generator symbols after expanding all Pow/Cat/Inv."""
    return _reduce(
        w,
        lambda node: 1,
        lambda v: v,
        lambda v, k: v * k,
        lambda parts: sum(parts),
    )


@dataclass(frozen=True)
class GeneratorCounts:
    g: int
    h: int
    g_inv: int
    h_inv: int

    @property
    def total(self) -> int:
        return self.g + self.h + self.g_inv + self.h_inv


def generator_counts(w: Word) -> GeneratorCounts:
    """Occurrences of g, h, g^-1, h^-1 in the expanded word.

    Inv swaps the counts of each generator with its inverse; the four
    counts always sum to ``expanded_length(w)``. Each node keeps its counts
    once folded, like a Permutation its hash, so a subword shared between
    words (a pool walk, a conjugator) is counted once, not once per word.
    """

    def do_gen(node: Gen):
        return (1, 0, 0, 0) if node.name == "g" else (0, 1, 0, 0)

    def do_inv(v):
        cg, ch, cgi, chi = v
        return (cgi, chi, cg, ch)

    def do_pow(v, k):
        return tuple(x * k for x in v)

    def do_cat(parts):
        # one transposed sum per Cat; an empty Cat has no columns to sum
        return tuple(map(sum, zip(*parts))) if parts else (0, 0, 0, 0)

    cg, ch, cgi, chi = _reduce(w, do_gen, do_inv, do_pow, do_cat, cache="_counts")
    return GeneratorCounts(cg, ch, cgi, chi)


def node_count(w: Word) -> int:
    """Distinct nodes reachable in the DAG (shared nodes counted once)."""
    seen: set[int] = set()
    stack = [w]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (Inv, Pow)):
            stack.append(node.child)
        elif isinstance(node, Cat):
            stack.extend(node.children)
    return len(seen)


def structurally_equal(a: Word, b: Word) -> bool:
    """Tree equality ignoring sharing; memoized on node-id pairs."""
    memo: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in memo:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Gen):
            if x.name != y.name:
                return False
        elif isinstance(x, Inv):
            stack.append((x.child, y.child))
        elif isinstance(x, Pow):
            if x.exponent != y.exponent:
                return False
            stack.append((x.child, y.child))
        else:
            if len(x.children) != len(y.children):
                return False
            stack.extend(zip(x.children, y.children))
        memo.add((id(x), id(y)))
    return True


# -- text form ------------------------------------------------------------------


def serialize(w: Word) -> str:
    """Prefix text form: ``(gen g)``, ``(inv W)``, ``(pow W k)``,
    ``(cat W1 W2 ...)``. Sharing is not representable in text, so
    parse(serialize(w)) is structurally equal to w but may use more nodes."""
    parts: list[str] = []
    # stack holds Word nodes to serialize and literal strings to emit
    stack: list[Word | str] = [w]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node = item
        if isinstance(node, Gen):
            parts.append(f"(gen {node.name})")
        elif isinstance(node, Inv):
            parts.append("(inv ")
            stack.append(")")
            stack.append(node.child)
        elif isinstance(node, Pow):
            parts.append("(pow ")
            stack.append(f" {node.exponent})")
            stack.append(node.child)
        elif isinstance(node, Cat):
            parts.append("(cat")
            stack.append(")")
            for c in reversed(node.children):
                stack.append(c)
                stack.append(" ")
        else:
            raise TypeError(f"not a Word node: {node!r}")
    return "".join(parts)


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse(text: str) -> Word:
    """Parse the serialize() format. Whitespace between items is optional
    wherever parentheses already separate them."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def fail(msg: str):
        raise WordParseError(f"{msg} (token {pos} of {len(tokens)})")

    def next_token() -> str:
        nonlocal pos
        if pos >= len(tokens):
            fail("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node() -> Word:
        nonlocal pos
        if next_token() != "(":
            fail("expected '('")
        head = next_token()
        if head == "gen":
            name = next_token()
            if next_token() != ")":
                fail("expected ')' after generator name")
            try:
                return Gen(name)
            except ValueError as exc:
                raise WordParseError(str(exc)) from None
        if head == "inv":
            child = parse_node()
            if next_token() != ")":
                fail("expected ')' after inv child")
            return Inv(child)
        if head == "pow":
            child = parse_node()
            tok = next_token()
            try:
                k = int(tok)
            except ValueError:
                fail(f"bad exponent {tok!r}")
            if k < 0:
                fail("negative exponent in text form")
            if next_token() != ")":
                fail("expected ')' after exponent")
            return Pow(child, k)
        if head == "cat":
            children = []
            while True:
                if pos >= len(tokens):
                    fail("unexpected end of input in cat")
                if tokens[pos] == ")":
                    pos += 1
                    return Cat(tuple(children))
                children.append(parse_node())
        fail(f"unknown node kind {head!r}")

    node = parse_node()
    if pos != len(tokens):
        fail("trailing text after word")
    return node


# -- word + evaluated permutation pairs ------------------------------------------


@dataclass(frozen=True)
class WordElement:
    """A word together with its image under fixed (g, h).

    The constructive pipeline threads these around so downstream steps never
    re-evaluate long words; ``verify`` re-checks the pairing.
    """

    word: Word
    perm: Permutation

    def verify(self, g: Permutation, h: Permutation) -> "WordElement":
        got = evaluate(self.word, g, h)
        if got != self.perm:
            raise InvariantError("word/permutation pair out of sync")
        return self

    def inverse(self) -> "WordElement":
        return WordElement(Inv(self.word), self.perm.inverse())

    def __mul__(self, other: "WordElement") -> "WordElement":
        return WordElement(Cat((self.word, other.word)), self.perm * other.perm)

    def conjugated_by(self, r: "WordElement") -> "WordElement":
        """r^-1 * self * r, pairing words and permutations."""
        return WordElement(
            Cat((Inv(r.word), self.word, r.word)), self.perm.conjugate(r.perm)
        )

    def pow(self, k: int) -> "WordElement":
        return WordElement(power(self.word, k), self.perm ** k)
