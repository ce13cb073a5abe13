"""Coloured rooted trees and forests.

A *tree* is a finite rooted tree whose edges carry colours ``1..n``; the
colour count ``n`` is a context parameter, not part of the tree itself.
Trees are stored in canonical form (children sorted by colour, then by
the recursive encoding of the subtree), so structural equality is
isomorphism.  A *forest* is a multiset of trees; the empty forest is the
algebra unit and prints as ``1``.

The planar variant (``planar``) differs by one rule: a planar tree keeps
the order of its children within each colour, and a word keeps its trees
in product order.  So the value code (``_Tree``, ``_Monomial``), the root
constructor ``_lam`` and its inverse, the enumerations and the grammar
are written once here over the monomial class, whose ``_member`` and
``_sorted`` carry that rule; the public forest functions wrap them.

Both value classes check their input in ``__init__`` and then call a
trusted ``_fill``, which takes its input as already in stored order and
checks nothing.  Only code that builds from values it knows to be valid
calls ``_fill`` directly: the root constructor ``_lam`` (slot i's trees
are already in stored order as colour-i children), ``_Monomial.single``
and the monomial product (whose fields come from the factors).  Parsing
and every public constructor go through the checks.

Text grammar (bit-exact, whitespace-tolerant on input)::

    tree    := "[" edges "]"
    edges   := <empty> | edge ("," edge)*
    edge    := colour ":" tree
    colour  := decimal integer >= 1
    forest  := "1" | tree ("*" tree)*      (a planar word alike)
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, groupby, product as _iproduct
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence


# Characters of input quoted on each side of a parse error's position.
_EXCERPT = 40


class ParseError(ValueError):
    """Raised on malformed textual input; carries the offending position.

    The message quotes the input within ``_EXCERPT`` characters of the
    position ("..." marks a cut), so a long input gives a short error
    line; ``text`` keeps the whole input.
    """

    def __init__(self, message: str, text: str, pos: int):
        start, end = max(0, pos - _EXCERPT), pos + _EXCERPT
        excerpt = repr(text[start:end])
        if start:
            excerpt = "..." + excerpt
        if end < len(text):
            excerpt += "..."
        super().__init__(f"{message} at position {pos}: {excerpt}")
        self.text = text
        self.pos = pos


class ColourMismatchError(ValueError):
    """Raised when a colour exceeds the ambient colour count n."""


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed its declared budget."""


# ---------------------------------------------------------------------------
# trees and forests
# ---------------------------------------------------------------------------


class _Keyed:
    """Value semantics of the tree and monomial types: equal (and hashed)
    by the canonical nested-tuple ``key``, listed by ``(size, key)``."""

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.size, self.key)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class _Tree(_Keyed):
    """Value code shared by coloured and planar trees: a root whose
    ``children`` are a tuple of ``(colour, subtree)`` pairs.

    A subclass names only its ordering rule: ``_order`` is the key of the
    stable sort that puts the given pairs into stored order, and
    ``_encode`` turns the stored ``(colour, subtree.key)`` pairs into the
    nested-tuple ``key``, which doubles as the total order used
    everywhere.  Children must be instances of the subclass itself.
    """

    __slots__ = ("children", "key", "size", "max_colour", "_hash")

    _order: Callable
    _encode: Callable

    def __init__(self, children: Iterable[tuple[int, "_Tree"]] = ()):
        kids = tuple(sorted(children, key=self._order))
        for colour, child in kids:
            if not isinstance(colour, int) or colour < 1:
                raise ColourMismatchError(f"edge colour must be an integer >= 1, got {colour!r}")
            if not isinstance(child, type(self)):
                raise TypeError(f"children must be {type(self).__name__} instances")
        self._fill(kids)

    def _fill(self, kids: tuple):
        """Trusted constructor body: ``kids`` are (colour, child) pairs
        already in stored order, each colour an int >= 1 and each child an
        instance of this class."""
        pairs = []
        size = 1
        top = 0
        for colour, child in kids:
            pairs.append((colour, child.key))
            size += child.size
            if colour > top:
                top = colour
            if child.max_colour > top:
                top = child.max_colour
        self.children = kids
        self.key = self._encode(pairs)
        self.size = size
        self.max_colour = top
        self._hash = hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __str__(self):
        return "[" + ",".join(f"{c}:{t}" for c, t in self.children) + "]"

    def recolour(self, mapping):
        """Rebuild the tree with every edge colour passed through ``mapping``."""
        return type(self)((mapping(c), t.recolour(mapping)) for c, t in self.children)


class ColouredTree(_Tree):
    """An isomorphism class of n-coloured rooted trees.

    ``children`` are sorted by ``(colour, subtree.key)``, and ``key`` is
    the tuple of those pairs with each subtree replaced by its key.
    """

    __slots__ = ()
    _order = staticmethod(lambda edge: (edge[0], edge[1].key))
    _encode = tuple


LEAF = ColouredTree()


_KEY = attrgetter("key")


class _Monomial(_Keyed):
    """Value code shared by forests and planar words: a basis monomial of
    the free algebra on trees, stored as the tuple ``trees`` of its
    factors.

    A subclass names its member type ``_member`` and the word for itself,
    ``_noun``; ``_sorted`` says whether ``trees`` is kept sorted by key
    (a commutative product) or in product order.  The empty tuple is the
    unit.
    """

    __slots__ = ("trees", "key", "size", "max_colour", "_hash")

    _member: type
    _noun: str
    _sorted: bool

    def __init__(self, trees: Iterable = ()):
        trees = tuple(trees)
        for t in trees:
            if not isinstance(t, self._member):
                raise TypeError(
                    f"{self._noun} members must be {self._member.__name__} instances"
                )
        if self._sorted:
            trees = tuple(sorted(trees, key=_KEY))
        self._fill(
            trees,
            tuple(map(_KEY, trees)),
            sum(t.size for t in trees),
            max((t.max_colour for t in trees), default=0),
        )

    def _fill(self, trees: tuple, key: tuple, size: int, max_colour: int):
        """Trusted constructor body: ``trees`` are members in stored order,
        and ``key``, ``size`` and ``max_colour`` are read off them."""
        self.trees = trees
        self.key = key
        self.size = size
        self.max_colour = max_colour
        self._hash = hash(key)

    @classmethod
    def single(cls, tree):
        if not isinstance(tree, cls._member):
            raise TypeError(f"{cls._noun} members must be {cls._member.__name__} instances")
        out = object.__new__(cls)
        out._fill((tree,), (tree.key,), tree.size, tree.max_colour)
        return out

    def is_empty(self) -> bool:
        return not self.trees

    def __mul__(self, other):
        """The product, read off the two factors' fields: two sorted
        factors concatenate unless their keys interleave, and only then
        is the concatenation re-sorted."""
        if type(other) is not type(self):
            return NotImplemented
        if not other.trees:
            return self
        if not self.trees:
            return other
        trees = self.trees + other.trees
        if self._sorted and other.key[0] < self.key[-1]:
            trees = tuple(sorted(trees, key=_KEY))
            key = tuple(map(_KEY, trees))
        else:
            key = self.key + other.key
        out = object.__new__(type(self))
        out._fill(trees, key, self.size + other.size, max(self.max_colour, other.max_colour))
        return out

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if not self.trees:
            return "1"
        return "*".join(str(t) for t in self.trees)


class Forest(_Monomial):
    """A multiset of coloured trees (commutative monomial in the tree basis),
    its trees sorted by key.  ``Forest(())`` is the empty forest / unit."""

    __slots__ = ()
    _member = ColouredTree
    _noun = "forest"
    _sorted = True


EMPTY_FOREST = Forest()


def _lam(cls, slots: Sequence, n: int | None = None):
    """The root constructor of the monomial class ``cls``: a fresh root
    over n slot monomials, the trees of slot i becoming its colour-i
    children in slot order.  ``n`` defaults to the number of slots.

    This is the structure map of the initial algebra: every tree arises
    exactly once as ``_lam(cls, _decompose(cls, t, n), n)``.
    """
    if n is None:
        n = len(slots)
    if len(slots) != n:
        raise ColourMismatchError(f"expected {n} slots, got {len(slots)}")
    # slot i's trees are in stored order and colour i follows colour i - 1,
    # so the children are listed in stored order: one check per slot
    children = []
    for i, mono in enumerate(slots, start=1):
        if not isinstance(mono, cls):
            raise TypeError(f"slots must be {cls.__name__} instances, got {mono!r}")
        if mono.max_colour > n:
            raise ColourMismatchError(f"slot {i} contains colour {mono.max_colour} > n = {n}")
        for t in mono.trees:
            children.append((i, t))
    tree = object.__new__(cls._member)
    tree._fill(tuple(children))
    return tree


def _decompose(cls, tree, n: int) -> tuple:
    """Inverse of :func:`_lam`: the colour-i children of a tree, in stored
    order, as slot monomial i."""
    if tree.max_colour > n:
        raise ColourMismatchError(f"tree uses colour {tree.max_colour} > n = {n}")
    slots: list[list] = [[] for _ in range(n)]
    for colour, child in tree.children:
        slots[colour - 1].append(child)
    return tuple(map(cls, slots))


def add_root(slots: Sequence[Forest], n: int | None = None) -> ColouredTree:
    """Join n forests under a fresh root; slot i is attached with colour i."""
    return _lam(Forest, slots, n)


def decompose(tree: ColouredTree, n: int) -> tuple[Forest, ...]:
    """Inverse of :func:`add_root`: split a tree into its n colour slots."""
    return _decompose(Forest, tree, n)


def canonicalize(
    parents: Sequence[int | None],
    colours: Sequence[int | None],
    n: int | None = None,
) -> ColouredTree:
    """Canonical form of a raw parent-map tree.

    ``parents[v]`` is the parent index of vertex ``v`` (``None`` for the
    root); ``colours[v]`` is the colour of the edge to the parent and is
    ignored for the root.  Raises ``ValueError`` for cyclic or
    disconnected input and :class:`ColourMismatchError` for colours
    outside ``1..n``.
    """
    m = len(parents)
    if len(colours) != m:
        raise ValueError("parents and colours must have equal length")
    if m == 0:
        raise ValueError("a tree has at least one vertex")
    roots = [v for v in range(m) if parents[v] is None]
    if len(roots) != 1:
        raise ValueError(f"expected exactly one root, found {len(roots)}")
    kids: list[list[int]] = [[] for _ in range(m)]
    for v in range(m):
        p = parents[v]
        if p is None:
            continue
        if not isinstance(p, int) or not 0 <= p < m:
            raise ValueError(f"parent index {p!r} of vertex {v} out of range")
        c = colours[v]
        if not isinstance(c, int) or c < 1:
            raise ColourMismatchError(f"edge colour of vertex {v} must be >= 1, got {c!r}")
        if n is not None and c > n:
            raise ColourMismatchError(f"edge colour {c} exceeds n = {n}")
        kids[p].append(v)
    # reachability from the root doubles as the cycle check: m-1 parent
    # edges + all vertices reachable <=> acyclic and connected
    seen = set()
    stack = [roots[0]]
    while stack:
        v = stack.pop()
        if v in seen:
            raise ValueError("cyclic parent map")
        seen.add(v)
        stack.extend(kids[v])
    if len(seen) != m:
        raise ValueError("disconnected parent map (vertices unreachable from the root)")

    def build(v: int) -> ColouredTree:
        return ColouredTree((colours[u], build(u)) for u in kids[v])

    return build(roots[0])


def aut_order(tree: ColouredTree) -> int:
    """Order of the automorphism group: product over (colour, child-class)
    groups of multiplicity! times each child's own count, multiplicity-fold."""
    total = 1
    for (_, child), run in groupby(tree.children):  # the children are sorted
        mult = len(list(run))
        total *= math.factorial(mult) * aut_order(child) ** mult
    return total


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The ``parts``-tuples of non-negative integers summing to ``total``,
    in lexicographic order: stars and bars, with the ``parts - 1`` bars
    placed by ``combinations`` rather than by recursion over the parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


@cache
def _enumerate_trees(cls, n: int, m: int) -> tuple:
    """All trees of the monomial class ``cls`` with n colours and m
    vertices, sorted by key: the root constructor over every tuple of
    slot monomials whose sizes sum to m - 1."""
    if m < 1:
        raise ValueError("trees have at least one vertex")
    if n < 0:
        raise ValueError("n must be >= 0")
    found = [
        _lam(cls, slots, n)
        for split in _compositions(m - 1, n)
        for slots in _iproduct(*(_enumerate_monomials(cls, n, k) for k in split))
    ]
    return tuple(sorted(found))


@cache
def _enumerate_monomials(cls, n: int, total: int) -> tuple:
    """All monomials of ``cls`` with ``total`` vertices, sorted.

    Each is a head tree times a smaller monomial.  A word is every such
    product; a forest is listed once, as the product whose head is its
    least tree.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return (cls(),)
    out = [
        cls.single(head) * tail
        for size in range(1, total + 1)
        for head in _enumerate_trees(cls, n, size)
        for tail in _enumerate_monomials(cls, n, total - size)
        if not cls._sorted or not tail.trees or head <= tail.trees[0]
    ]
    return tuple(sorted(out))


def _enumerate_up_to(cls, n: int, max_total: int) -> tuple:
    """All monomials of ``cls`` with at most ``max_total`` vertices."""
    return tuple(m for d in range(max_total + 1) for m in _enumerate_monomials(cls, n, d))


def basis_counts(cls, n: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The number of trees and the number of monomials of the monomial
    class ``cls`` (forests or words) with k vertices, k = 0..m, as two
    tuples, counted without listing them.

    A tree with k + 1 vertices is the root constructor over n slot
    monomials of total size k, so the trees number [x^k] M(x)^n, where
    M(x) counts the monomials: the Euler transform of the tree counts
    for forests (multisets) and their sequence transform for words.
    M(x)^n is read off M by the power rule for series.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    trees, monos, power = [0], [1], [1]  # power[k] = [x^k] M(x)^n
    divisor_sums = [0]  # Σ_{d | k} d·trees[d], for the Euler transform
    for k in range(1, m + 1):
        trees.append(power[k - 1])
        if cls._sorted:
            divisor_sums.append(sum(d * trees[d] for d in range(1, k + 1) if k % d == 0))
            monos.append(sum(divisor_sums[j] * monos[k - j] for j in range(1, k + 1)) // k)
        else:
            monos.append(sum(trees[j] * monos[k - j] for j in range(1, k + 1)))
        # k·P_k = Σ_j ((n + 1)·j − k)·M_j·P_{k−j} for P = M^n, as M_0 = 1
        power.append(sum(((n + 1) * j - k) * monos[j] * power[k - j] for j in range(1, k + 1)) // k)
    return tuple(trees), tuple(monos)


def enumerate_trees(n: int, m: int) -> tuple[ColouredTree, ...]:
    """All canonical n-coloured trees with exactly m vertices, sorted."""
    return _enumerate_trees(Forest, n, m)


def enumerate_forests(n: int, total: int) -> tuple[Forest, ...]:
    """All forests (multisets of n-coloured trees) with ``total`` vertices."""
    return _enumerate_monomials(Forest, n, total)


def enumerate_forests_up_to(n: int, max_total: int) -> tuple[Forest, ...]:
    """All forests with at most ``max_total`` vertices (the unit included)."""
    return _enumerate_up_to(Forest, n, max_total)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# Deepest tree nesting the parsers accept.  Printing a tree recurses about
# five Python frames per level, so under the default recursion limit of
# 1000 a 200-level chain parses but cannot be printed; the bound leaves
# room below that for the caller's own frames.
MAX_NESTING_DEPTH = 100


class Scanner:
    """Minimal cursor over a text; shared by the tree/forest/element parsers."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def check_done(self):
        self.skip_ws()
        if not self.at_end():
            raise self.error("unexpected trailing input")

    def check_depth(self, depth: int):
        if depth > MAX_NESTING_DEPTH:
            raise self.error(f"trees nested deeper than {MAX_NESTING_DEPTH} levels")

    # -- tree / monomial productions --

    def tree(self, n: int | None = None, cls=ColouredTree, depth: int = 1):
        """One bracket-grammar tree of class ``cls``, built from its
        (colour, child) pairs in listed order."""
        self.check_depth(depth)
        self.skip_ws()
        self.expect("[")
        children = []
        self.skip_ws()
        if not self.try_take("]"):
            while True:
                colour = self.integer()
                if colour < 1:
                    raise self.error("colour must be >= 1")
                if n is not None and colour > n:
                    raise ColourMismatchError(f"colour {colour} exceeds n = {n}")
                self.skip_ws()
                self.expect(":")
                children.append((colour, self.tree(n, cls, depth + 1)))
                self.skip_ws()
                if self.try_take("]"):
                    break
                self.expect(",")
                self.skip_ws()
        return cls(children)

    def monomial(self, n: int | None = None, cls=Forest):
        """``1`` (the unit) or '*'-joined trees: a monomial of class ``cls``."""
        self.skip_ws()
        if self.try_take("1"):
            return cls()
        trees = [self.tree(n, cls._member)]
        while True:
            save = self.pos
            self.skip_ws()
            if not self.try_take("*"):
                self.pos = save
                return cls(trees)
            trees.append(self.tree(n, cls._member))


def _parse_all(text: str, read: Callable):
    """``read`` applied to a scanner over ``text``, which must consume it."""
    sc = Scanner(text)
    out = read(sc)
    sc.check_done()
    return out


def parse_tree(text: str, n: int | None = None) -> ColouredTree:
    return _parse_all(text, lambda sc: sc.tree(n))


def parse_forest(text: str, n: int | None = None) -> Forest:
    return _parse_all(text, lambda sc: sc.monomial(n))
