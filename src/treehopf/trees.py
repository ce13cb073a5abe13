"""Coloured rooted trees, forests and subforest machinery.

A *tree* is a finite rooted tree whose edges carry colours ``1..n``; the
colour count ``n`` is a context parameter, not part of the tree itself.
Trees are stored in canonical form (children sorted by colour, then by
the recursive encoding of the subtree), so structural equality is
isomorphism.  A *forest* is a multiset of trees; the empty forest is the
algebra unit and prints as ``1``.

Text grammar (bit-exact, whitespace-tolerant on input)::

    tree    := "[" edges "]"
    edges   := <empty> | edge ("," edge)*
    edge    := colour ":" tree
    colour  := decimal integer >= 1
    forest  := "1" | tree ("*" tree)*

Subforests are vertex subsets of a concrete host forest together with
the induced partial order.  The induced forest of a subset assigns each
selected vertex to its nearest selected ancestor; the connecting edge
takes the colour of the host edge adjacent to that ancestor on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product as _iproduct
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


class ColouredTree(_Keyed):
    """An isomorphism class of n-coloured rooted trees.

    ``children`` is a tuple of ``(colour, subtree)`` pairs sorted by
    ``(colour, subtree.key)``; ``key`` is the nested-tuple canonical
    encoding, which doubles as the total order used everywhere.
    """

    __slots__ = ("children", "key", "size", "max_colour", "_hash")

    def __init__(self, children: Iterable[tuple[int, "ColouredTree"]] = ()):
        kids = sorted(children, key=lambda e: (e[0], e[1].key))
        for colour, child in kids:
            if not isinstance(colour, int) or colour < 1:
                raise ColourMismatchError(f"edge colour must be an integer >= 1, got {colour!r}")
            if not isinstance(child, ColouredTree):
                raise TypeError("children must be ColouredTree instances")
        self.children = tuple(kids)
        self.key = tuple((c, t.key) for c, t in self.children)
        self.size = 1 + sum(t.size for _, t in self.children)
        self.max_colour = max(
            [c for c, _ in self.children] + [t.max_colour for _, t in self.children],
            default=0,
        )
        self._hash = hash(self.key)

    def __lt__(self, other):
        return self.key < other.key

    def __le__(self, other):
        return self.key <= other.key

    def __str__(self):
        return "[" + ",".join(f"{c}:{t}" for c, t in self.children) + "]"

    def recolour(self, mapping) -> "ColouredTree":
        """Rebuild the tree with every edge colour passed through ``mapping``."""
        return ColouredTree((mapping(c), t.recolour(mapping)) for c, t in self.children)


LEAF = ColouredTree()


class Forest(_Keyed):
    """A multiset of coloured trees (commutative monomial in the tree basis).

    Multiplicities are stored run-length in ``items``; ``trees()`` expands
    them in canonical order.  ``Forest(())`` is the empty forest / unit.
    """

    __slots__ = ("items", "key", "size", "max_colour", "_hash")

    def __init__(self, trees: Iterable[ColouredTree] = ()):
        expanded = sorted(trees)
        items: list[tuple[ColouredTree, int]] = []
        for t in expanded:
            if not isinstance(t, ColouredTree):
                raise TypeError("forest members must be ColouredTree instances")
            if items and items[-1][0] == t:
                items[-1] = (t, items[-1][1] + 1)
            else:
                items.append((t, 1))
        self.items = tuple(items)
        self.key = tuple(t.key for t in expanded)
        self.size = sum(t.size for t in expanded)
        self.max_colour = max((t.max_colour for t, _ in items), default=0)
        self._hash = hash(self.key)

    @classmethod
    def single(cls, tree: ColouredTree) -> "Forest":
        return cls((tree,))

    def trees(self) -> Iterator[ColouredTree]:
        for t, mult in self.items:
            for _ in range(mult):
                yield t

    @property
    def ntrees(self) -> int:
        return sum(m for _, m in self.items)

    def is_empty(self) -> bool:
        return not self.items

    def is_single_tree(self) -> bool:
        return self.ntrees == 1

    def __mul__(self, other):
        if not isinstance(other, Forest):
            return NotImplemented
        return Forest(list(self.trees()) + list(other.trees()))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if not self.items:
            return "1"
        return "*".join(str(t) for t in self.trees())


EMPTY_FOREST = Forest()


def add_root(slots: Sequence[Forest], n: int | None = None) -> ColouredTree:
    """Join n forests under a fresh root; slot i is attached with colour i.

    This is the structure map of the initial algebra: every tree arises
    exactly once as ``add_root(decompose(t, n), n)``.
    """
    if n is None:
        n = len(slots)
    if len(slots) != n:
        raise ColourMismatchError(f"expected {n} slots, got {len(slots)}")
    children = []
    for i, forest in enumerate(slots, start=1):
        if forest.max_colour > n:
            raise ColourMismatchError(
                f"slot {i} contains colour {forest.max_colour} > n = {n}"
            )
        for t in forest.trees():
            children.append((i, t))
    return ColouredTree(children)


def decompose(tree: ColouredTree, n: int) -> tuple[Forest, ...]:
    """Inverse of :func:`add_root`: split a tree into its n colour slots."""
    if tree.max_colour > n:
        raise ColourMismatchError(f"tree uses colour {tree.max_colour} > n = {n}")
    slots: list[list[ColouredTree]] = [[] for _ in range(n)]
    for colour, child in tree.children:
        slots[colour - 1].append(child)
    return tuple(Forest(s) for s in slots)


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
    run: tuple[int, ColouredTree] | None = None
    mult = 0
    for colour, child in list(tree.children) + [(0, None)]:  # sentinel flush
        if run is not None and (colour, child) == run:
            mult += 1
            continue
        if run is not None:
            total *= math.factorial(mult) * aut_order(run[1]) ** mult
        run = (colour, child) if child is not None else None
        mult = 1
    return total


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@cache
def enumerate_trees(n: int, m: int) -> tuple[ColouredTree, ...]:
    """All canonical n-coloured trees with exactly m vertices, sorted."""
    if m < 1:
        raise ValueError("trees have at least one vertex")
    if n < 0:
        raise ValueError("n must be >= 0")
    if m == 1:
        return (LEAF,)
    found = []
    for split in _compositions(m - 1, n):
        for combo in _iproduct(*(enumerate_forests(n, k) for k in split)):
            found.append(add_root(combo, n))
    return tuple(sorted(found))


@cache
def enumerate_forests(n: int, total: int) -> tuple[Forest, ...]:
    """All forests (multisets of n-coloured trees) with ``total`` vertices."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return (EMPTY_FOREST,)

    def multisets(remaining: int, bound: tuple[int, int]) -> Iterator[list[ColouredTree]]:
        # pick trees with weakly decreasing (size, index) rank to avoid repeats
        if remaining == 0:
            yield []
            return
        max_size = min(remaining, bound[0])
        for size in range(max_size, 0, -1):
            pool = enumerate_trees(n, size)
            start = bound[1] if size == bound[0] else len(pool) - 1
            for idx in range(start, -1, -1):
                for rest in multisets(remaining - size, (size, idx)):
                    yield [pool[idx]] + rest

    out = [Forest(ts) for ts in multisets(total, (total, len(enumerate_trees(n, total)) - 1))]
    return tuple(sorted(out))


def enumerate_forests_up_to(n: int, max_total: int) -> tuple[Forest, ...]:
    """All forests with at most ``max_total`` vertices (the unit included)."""
    out: list[Forest] = []
    for d in range(max_total + 1):
        out.extend(enumerate_forests(n, d))
    return tuple(out)


# ---------------------------------------------------------------------------
# vertex addressing and subforests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexRef:
    """Path address of a vertex in a canonical forest.

    ``tree_index`` positions the component in the multiplicity-expanded
    canonical tree list; each path step ``(colour, k)`` descends to the
    k-th child (0-based) among that colour's children.
    """

    tree_index: int
    path: tuple[tuple[int, int], ...] = ()


class IndexedForest:
    """Flat vertex-array view of a forest or planar word (internal).

    Vertices are numbered in depth-first preorder over the trees in product
    order, each vertex's edges in listing order, so vertex ids are a
    deterministic total order.  The path addresses ``refs`` are built on
    first use: only the ``Subforest`` API reads them.
    """

    __slots__ = ("parents", "colours", "_refs", "_ref_ids")

    def __init__(self, trees: Iterable, edges: Callable):
        self.parents: list[int | None] = []
        self.colours: list[int | None] = []
        self._refs: list[VertexRef] | None = None
        self._ref_ids: dict[VertexRef, int] | None = None

        def visit(tree, parent: int | None, colour: int | None):
            vid = len(self.parents)
            self.parents.append(parent)
            self.colours.append(colour)
            for c, child in edges(tree):
                visit(child, vid, c)

        for tree in trees:
            visit(tree, None, None)

    @property
    def nverts(self) -> int:
        return len(self.parents)

    @property
    def refs(self) -> list[VertexRef]:
        if self._refs is None:
            # a child's address extends its parent's by (colour, k), k
            # counting the parent's earlier children of that colour
            refs: list[VertexRef] = []
            seen: dict[tuple[int, int], int] = {}
            t_idx = -1
            for parent, colour in zip(self.parents, self.colours):
                if parent is None:
                    t_idx += 1
                    refs.append(VertexRef(t_idx))
                else:
                    k = seen.get((parent, colour), 0)
                    seen[(parent, colour)] = k + 1
                    refs.append(VertexRef(t_idx, refs[parent].path + ((colour, k),)))
            self._refs = refs
        return self._refs

    @property
    def ref_ids(self) -> dict[VertexRef, int]:
        if self._ref_ids is None:
            self._ref_ids = {ref: vid for vid, ref in enumerate(self.refs)}
        return self._ref_ids


@cache
def indexed(forest: Forest) -> IndexedForest:
    """The cached vertex arrays of a forest, read by the ``Subforest`` API."""
    return IndexedForest(forest.trees(), attrgetter("children"))


def vertices(forest: Forest) -> tuple[VertexRef, ...]:
    return tuple(indexed(forest).refs)


class Subforest:
    """A vertex subset of a host forest, with the induced partial order.

    The subset is held as a bitmask over the host's depth-first vertex
    ids; ``selected`` exposes it as path addresses.
    """

    __slots__ = ("host", "mask")

    def __init__(self, host: Forest, mask: int):
        self.host = host
        self.mask = mask

    @classmethod
    def from_refs(cls, host: Forest, refs: Iterable[VertexRef]) -> "Subforest":
        idx = indexed(host)
        mask = 0
        for ref in refs:
            if ref not in idx.ref_ids:
                raise ValueError(f"{ref} is not a vertex of {host}")
            mask |= 1 << idx.ref_ids[ref]
        return cls(host, mask)

    @classmethod
    def full(cls, host: Forest) -> "Subforest":
        return cls(host, (1 << indexed(host).nverts) - 1)

    @property
    def selected(self) -> frozenset[VertexRef]:
        idx = indexed(self.host)
        return frozenset(idx.refs[v] for v in self.vertex_ids())

    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v for v in range(indexed(self.host).nverts) if self.mask >> v & 1)

    def __len__(self):
        return bin(self.mask).count("1")

    def __eq__(self, other):
        if not isinstance(other, Subforest):
            return NotImplemented
        return self.host == other.host and self.mask == other.mask

    def __hash__(self):
        return hash((self.host, self.mask))

    def complement(self) -> "Subforest":
        full = (1 << indexed(self.host).nverts) - 1
        return Subforest(self.host, full ^ self.mask)

    def induced(self) -> Forest:
        """The canonical forest induced on the selected vertices."""
        return _induced_monomial(indexed(self.host), self.mask)

    def __repr__(self):
        return f"Subforest({self.host}, {{{','.join(map(str, self.vertex_ids()))}}})"


def subforests(forest: Forest) -> Iterator[Subforest]:
    """All 2^|forest| vertex subsets of a forest, as subforests."""
    nv = indexed(forest).nverts
    for mask in range(1 << nv):
        yield Subforest(forest, mask)


def induced_structure(
    idx: IndexedForest, mask: int
) -> tuple[dict[int, int | None], dict[int, int | None]]:
    """Induced parent and edge-colour maps of a vertex subset.

    For each selected vertex the induced parent is the nearest selected
    ancestor; the induced edge colour is the host colour of the edge
    adjacent to that ancestor (the incoming colour of its child on the
    path).  Roots get parent ``None`` and colour ``None``.
    """
    parent_of: dict[int, int | None] = {}
    colour_of: dict[int, int | None] = {}
    for v in range(idx.nverts):
        if not mask >> v & 1:
            continue
        walk = v
        while idx.parents[walk] is not None and not mask >> idx.parents[walk] & 1:
            walk = idx.parents[walk]
        anc = idx.parents[walk]
        parent_of[v] = anc
        colour_of[v] = idx.colours[walk] if anc is not None else None
    return parent_of, colour_of


def _induced_monomial(
    idx: IndexedForest,
    mask: int,
    tree: Callable = ColouredTree,
    monomial: Callable = Forest,
):
    """The forest (or, given planar constructors, the word) induced on a
    vertex subset.

    Component roots and each vertex's (colour, child) pairs are listed in
    host vertex order, the host's depth-first first-visit order; ``tree``
    and ``monomial`` build the result from them.
    """
    parent_of, colour_of = induced_structure(idx, mask)
    kids: dict[int, list[tuple[int, int]]] = {v: [] for v in parent_of}
    roots = []
    for v, p in parent_of.items():
        if p is None:
            roots.append(v)
        else:
            kids[p].append((colour_of[v], v))

    def build(v: int):
        return tree((c, build(u)) for c, u in kids[v])

    return monomial(build(r) for r in roots)


def p_count(colour: int, v: VertexRef, s: Subforest) -> int:
    """Edges of the given colour on v's root path whose lower vertex lies
    outside ``s``.  Requires ``v`` selected in ``s``; paths stay inside
    v's component."""
    return p_count_within(colour, v, s, Subforest.full(s.host))


def p_count_within(colour: int, v: VertexRef, s: Subforest, host: Subforest) -> int:
    """Same count taken inside the induced forest of ``host``.

    ``s`` must select a subset of ``host``'s vertices; the root path of
    ``v`` is its ancestor chain in the induced structure of ``host``.
    """
    if s.host != host.host:
        raise ValueError("s and host must share the same underlying forest")
    if s.mask & ~host.mask:
        raise ValueError("s must be a subset of host")
    idx = indexed(s.host)
    vid = idx.ref_ids.get(v)
    if vid is None:
        raise ValueError(f"{v} is not a vertex of {s.host}")
    if not s.mask >> vid & 1:
        raise ValueError(f"{v} is not selected in the subforest")
    parent_of, colour_of = induced_structure(idx, host.mask)
    count = 0
    walk = vid
    while parent_of[walk] is not None:
        lower = parent_of[walk]
        if colour_of[walk] == colour and not s.mask >> lower & 1:
            count += 1
        walk = lower
    return count


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

    # -- tree / forest productions --

    def tree(self, n: int | None = None, depth: int = 1, make: Callable = ColouredTree):
        """One bracket-grammar tree; ``make`` builds it from its (colour,
        child) pairs in listed order (``PlanarTree`` keeps that order)."""
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
                children.append((colour, self.tree(n, depth + 1, make)))
                self.skip_ws()
                if self.try_take("]"):
                    break
                self.expect(",")
                self.skip_ws()
        return make(children)

    def forest(self, n: int | None = None) -> Forest:
        self.skip_ws()
        if self.peek() == "1":
            self.pos += 1
            return EMPTY_FOREST
        trees = [self.tree(n)]
        while True:
            save = self.pos
            self.skip_ws()
            if self.try_take("*") and self.peek() != "" :
                self.skip_ws()
                if self.peek() == "[":
                    trees.append(self.tree(n))
                    continue
            self.pos = save
            break
        return Forest(trees)


def parse_tree(text: str, n: int | None = None) -> ColouredTree:
    sc = Scanner(text)
    tree = sc.tree(n)
    sc.check_done()
    return tree


def parse_forest(text: str, n: int | None = None) -> Forest:
    sc = Scanner(text)
    forest = sc.forest(n)
    sc.check_done()
    return forest
