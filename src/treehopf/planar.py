"""Ordered-tree variant: planar trees, tensor-algebra words, and their
coproduct family.

A planar tree keeps, for every colour, a linearly ordered sequence of
child subtrees — order is data, so there is no sorting and no
automorphism collapsing.  Products live in the tensor algebra: a basis
element is a *word* (ordered sequence) of planar trees, multiplied by
concatenation, which is associative and genuinely noncommutative.

The production coproduct ``planar_coproduct`` is the symmetric
root-constructor square read on words.  Each word of
``planar_decompose(tree)`` is one slot; σ_i concatenates the slot legs
in slot order with weight Π_j q_{ij}^{|w_j|}, ``planar_lambda`` adjoins
the root, and Δ is multiplicative over the trees of a word, in order.

The vertex-subset sum is kept as the oracle ``planar_coproduct_closed``.
It reuses the symmetric path/colour exponent rule; each subset is read
back as a *word*: the roots of the induced components are listed in the
order of first visit in the host's depth-first traversal (colours in
increasing order at each vertex, same-colour children in their stored
order), and the same traversal induces the sibling orders inside each
component.  It costs 2^|V| per word and shares no memo with the
production route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iproduct
import random
from typing import Callable, Iterable, Sequence

from .algebra import Coeff, Combination, ONE, QSpec, evaluate_exponents, _format_terms
from .hopf import (
    CheckOutcome,
    HopfContext,
    VerificationReport,
    _acc,
    _extend_linearly,
    _root_square,
)
from .trees import (
    BudgetError,
    ColouredTree,
    ColourMismatchError,
    Forest,
    ParseError,
    Scanner,
)


class PlanarTree:
    """A rooted tree with a separate linear order on each colour's children.

    Construction takes (colour, child) pairs in listed order; pairs of
    the same colour keep their relative order, and storage groups the
    colours in increasing order (the grouping is canonical bookkeeping,
    not a sort of the order data: per-colour sequences are the data).
    """

    __slots__ = ("groups", "key", "size", "max_colour", "_hash")

    def __init__(self, children: Iterable[tuple[int, "PlanarTree"]] = ()):
        per_colour: dict[int, list[PlanarTree]] = {}
        for colour, child in children:
            if not isinstance(colour, int) or colour < 1:
                raise ColourMismatchError(
                    f"edge colour must be an integer >= 1, got {colour!r}"
                )
            if not isinstance(child, PlanarTree):
                raise TypeError("children must be PlanarTree instances")
            per_colour.setdefault(colour, []).append(child)
        self.groups = tuple(
            (colour, tuple(per_colour[colour])) for colour in sorted(per_colour)
        )
        self.key = tuple(
            (colour, tuple(t.key for t in seq)) for colour, seq in self.groups
        )
        self.size = 1 + sum(t.size for _, seq in self.groups for t in seq)
        self.max_colour = max(
            [c for c, _ in self.groups]
            + [t.max_colour for _, seq in self.groups for t in seq],
            default=0,
        )
        self._hash = hash(self.key)

    def children(self) -> Iterable[tuple[int, "PlanarTree"]]:
        """(colour, child) pairs in canonical listing order."""
        for colour, seq in self.groups:
            for child in seq:
                yield colour, child

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PlanarTree):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.size, self.key)

    def __str__(self):
        return "[" + ",".join(f"{c}:{t}" for c, t in self.children()) + "]"

    def __repr__(self):
        return f"PlanarTree({self})"


PLANAR_LEAF = PlanarTree()


class PlanarWord:
    """An ordered sequence of planar trees: a basis word of the tensor
    algebra.  The empty word is the unit; concatenation multiplies."""

    __slots__ = ("trees", "key", "size", "max_colour", "_hash")

    def __init__(self, trees: Iterable[PlanarTree] = ()):
        seq = tuple(trees)
        for t in seq:
            if not isinstance(t, PlanarTree):
                raise TypeError("word members must be PlanarTree instances")
        self.trees = seq
        self.key = tuple(t.key for t in seq)
        self.size = sum(t.size for t in seq)
        self.max_colour = max((t.max_colour for t in seq), default=0)
        self._hash = hash(self.key)

    @classmethod
    def single(cls, tree: PlanarTree) -> "PlanarWord":
        return cls((tree,))

    def is_empty(self) -> bool:
        return not self.trees

    def __mul__(self, other):
        if not isinstance(other, PlanarWord):
            return NotImplemented
        return PlanarWord(self.trees + other.trees)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PlanarWord):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.size, self.key)

    def __str__(self):
        if not self.trees:
            return "1"
        return "*".join(str(t) for t in self.trees)

    def __repr__(self):
        return f"PlanarWord({self})"


EMPTY_WORD = PlanarWord()


def planar_lambda(words: Sequence[PlanarWord], n: int | None = None) -> PlanarTree:
    """New root over n words; the trees of word i become its colour-i
    children, in word order."""
    if n is not None and len(words) != n:
        raise ValueError(f"expected {n} words, got {len(words)}")
    children = []
    for i, word in enumerate(words, start=1):
        children.extend((i, t) for t in word.trees)
    tree = PlanarTree(children)
    if n is not None and tree.max_colour > n:
        raise ColourMismatchError(f"slot contents use a colour > n = {n}")
    return tree


def planar_decompose(tree: PlanarTree, n: int) -> tuple[PlanarWord, ...]:
    """Inverse of ``planar_lambda``: the colour-i children as word i."""
    if tree.max_colour > n:
        raise ColourMismatchError(f"tree {tree} uses colour {tree.max_colour} > n = {n}")
    slots = {colour: PlanarWord(seq) for colour, seq in tree.groups}
    return tuple(slots.get(i, EMPTY_WORD) for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# element containers
# ---------------------------------------------------------------------------


class PlanarElement(Combination):
    """A combination of planar words (an element of the tensor algebra)."""

    def _check_key(self, key, n):
        if not isinstance(key, PlanarWord):
            raise TypeError(f"PlanarElement keys must be words, got {key!r}")
        if key.max_colour > n:
            raise ColourMismatchError(f"word {key} uses colour {key.max_colour} > n = {n}")

    @staticmethod
    def _term_sort_key(key: PlanarWord):
        return key.sort_key()

    @classmethod
    def zero(cls, n: int) -> "PlanarElement":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "PlanarElement":
        return cls(n, {EMPTY_WORD: ONE})

    @classmethod
    def basis(cls, word: PlanarWord, n: int) -> "PlanarElement":
        return cls(n, {word: ONE})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scale(other)
        self._require_compatible(other)
        acc: dict[PlanarWord, Coeff] = {}
        for wa, ca in self.data.items():
            for wb, cb in other.data.items():
                _acc(acc, wa * wb, ca * cb)
        return PlanarElement(self.n, acc)

    def counit(self) -> Coeff:
        return self.coefficient(EMPTY_WORD)

    def __str__(self):
        return _format_terms(self.terms(), str)


class PlanarTensorElement(Combination):
    """A combination of ordered pairs of planar words."""

    def _check_key(self, key, n):
        if (
            not isinstance(key, tuple)
            or len(key) != 2
            or not all(isinstance(w, PlanarWord) for w in key)
        ):
            raise TypeError("PlanarTensorElement keys must be word pairs")
        if max(key[0].max_colour, key[1].max_colour) > n:
            raise ColourMismatchError(f"tensor {key} uses a colour > n = {n}")

    @staticmethod
    def _term_sort_key(key):
        return (key[0].sort_key(), key[1].sort_key())

    @classmethod
    def zero(cls, n: int) -> "PlanarTensorElement":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "PlanarTensorElement":
        return cls(n, {(EMPTY_WORD, EMPTY_WORD): ONE})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Coeff)):
            return self.scale(other)
        self._require_compatible(other)
        acc: dict[tuple[PlanarWord, PlanarWord], Coeff] = {}
        for (la, ra), ca in self.data.items():
            for (lb, rb), cb in other.data.items():
                _acc(acc, (la * lb, ra * rb), ca * cb)
        return PlanarTensorElement(self.n, acc)

    def left_counit(self) -> PlanarElement:
        return PlanarElement(
            self.n, ((r, c) for (l, r), c in self.data.items() if l.is_empty())
        )

    def right_counit(self) -> PlanarElement:
        return PlanarElement(
            self.n, ((l, c) for (l, r), c in self.data.items() if r.is_empty())
        )

    def __str__(self):
        return _format_terms(self.terms(), lambda k: f"{k[0]} ⊗ {k[1]}")


class PlanarDualElement(Combination):
    """A combination of dual functionals D_t over planar trees."""

    def _check_key(self, key, n):
        if not isinstance(key, PlanarTree):
            raise TypeError(f"PlanarDualElement keys must be planar trees, got {key!r}")
        if key.max_colour > n:
            raise ColourMismatchError(f"tree {key} uses colour {key.max_colour} > n = {n}")

    @staticmethod
    def _term_sort_key(key: PlanarTree):
        return key.sort_key()

    @classmethod
    def basis(cls, tree: PlanarTree, n: int) -> "PlanarDualElement":
        return cls(n, {tree: ONE})

    def __str__(self):
        return _format_terms(self.terms(), lambda t: f"D{t}")


# ---------------------------------------------------------------------------
# vertex indexing and induced words
# ---------------------------------------------------------------------------


class _IndexedWord:
    """Depth-first vertex arrays for a word (ids = first-visit order)."""

    __slots__ = ("word", "parents", "colours")

    def __init__(self, word: PlanarWord):
        self.word = word
        self.parents: list[int | None] = []
        self.colours: list[int | None] = []

        def visit(tree: PlanarTree, parent: int | None, colour: int | None):
            vid = len(self.parents)
            self.parents.append(parent)
            self.colours.append(colour)
            for c, child in tree.children():
                visit(child, vid, c)

        for tree in word.trees:
            visit(tree, None, None)

    @property
    def nverts(self) -> int:
        return len(self.parents)


_WORD_INDEX: dict[PlanarWord, _IndexedWord] = {}


def _indexed_word(word: PlanarWord) -> _IndexedWord:
    idx = _WORD_INDEX.get(word)
    if idx is None:
        idx = _WORD_INDEX[word] = _IndexedWord(word)
    return idx


_INDUCED_WORD_CACHE: dict[tuple[PlanarWord, int], PlanarWord] = {}


def induced_word(word: PlanarWord, mask: int) -> PlanarWord:
    """The planar word induced on a vertex subset of a host word.

    Parent = nearest selected ancestor; edge colour = host colour of the
    path edge adjacent to that ancestor; component roots and siblings
    take the host's depth-first first-visit order.
    """
    got = _INDUCED_WORD_CACHE.get((word, mask))
    if got is not None:
        return got
    idx = _indexed_word(word)
    roots: list[int] = []
    kids: dict[int, list[tuple[int, int]]] = {}
    for v in range(idx.nverts):
        if not mask >> v & 1:
            continue
        walk = v
        while idx.parents[walk] is not None and not mask >> idx.parents[walk] & 1:
            walk = idx.parents[walk]
        anc = idx.parents[walk]
        if anc is None:
            roots.append(v)
        else:
            kids.setdefault(anc, []).append((idx.colours[walk], v))

    def build(v: int) -> PlanarTree:
        return PlanarTree((c, build(u)) for c, u in kids.get(v, ()))

    out = PlanarWord(build(r) for r in roots)
    _INDUCED_WORD_CACHE[(word, mask)] = out
    return out


def _word_exponents(word: PlanarWord, mask: int) -> dict[tuple[int, int], int]:
    """Same path/colour exponent rule as the symmetric coproduct."""
    idx = _indexed_word(word)
    full = (1 << idx.nverts) - 1
    exps: dict[tuple[int, int], int] = {}
    for v in range(idx.nverts):
        if mask >> v & 1:
            row, inside = 1, mask
        else:
            row, inside = 2, full ^ mask
        walk = v
        while idx.parents[walk] is not None:
            lower = idx.parents[walk]
            if not inside >> lower & 1:
                key = (row, idx.colours[walk])
                exps[key] = exps.get(key, 0) + 1
            walk = lower
    return exps


_PLANAR_SPLITS: dict[PlanarWord, tuple] = {}


def _planar_split_table(word: PlanarWord):
    table = _PLANAR_SPLITS.get(word)
    if table is None:
        nv = _indexed_word(word).nverts
        full = (1 << nv) - 1
        rows = []
        for mask in range(1 << nv):
            rows.append(
                (
                    induced_word(word, mask),
                    induced_word(word, full ^ mask),
                    _word_exponents(word, mask),
                )
            )
        table = _PLANAR_SPLITS[word] = tuple(rows)
    return table


# ---------------------------------------------------------------------------
# coproduct / antipode
# ---------------------------------------------------------------------------

# production Δ per (parameters, basis word); the oracle never touches it
_PDELTA_CACHE: dict[tuple[QSpec, PlanarWord], PlanarTensorElement] = {}
_PANTIPODE_CACHE: dict[tuple[QSpec, PlanarWord], PlanarElement] = {}


def _planar_delta_word(word: PlanarWord, ctx: HopfContext) -> PlanarTensorElement:
    cached = _PDELTA_CACHE.get((ctx.qspec, word))
    if cached is None:
        cached = _PDELTA_CACHE[(ctx.qspec, word)] = _planar_delta_word_inductive(word, ctx)
    return cached


def _planar_delta_tree_inductive(tree: PlanarTree, ctx: HopfContext) -> PlanarTensorElement:
    n = ctx.n
    slots = [_planar_delta_word(w, ctx).data for w in planar_decompose(tree, n)]
    lam = lambda legs: PlanarWord.single(planar_lambda(legs))
    return PlanarTensorElement(n, _root_square(slots, ctx.qspec, lam, EMPTY_WORD))


def _planar_delta_word_inductive(word: PlanarWord, ctx: HopfContext) -> PlanarTensorElement:
    """Δ of a basis word: the root-constructor square on each tree, then
    the product over the trees in word order."""
    if len(word.trees) == 1:
        return _planar_delta_tree_inductive(word.trees[0], ctx)
    out = PlanarTensorElement.unit(ctx.n)
    for tree in word.trees:
        out = out * _planar_delta_word(PlanarWord.single(tree), ctx)
    return out


def _check_planar_n(a: PlanarElement, ctx: HopfContext):
    if a.n != ctx.n:
        raise ColourMismatchError(f"element over n={a.n} with context over n={ctx.n}")


def planar_coproduct(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Comultiplication on the tensor algebra, through the root constructor.

    The same square as the symmetric ``coproduct``, with the slots of a
    planar tree read as words: σ_i concatenates the slot legs in slot
    order, and Δ is multiplicative over the trees of a word, in order.
    """
    _check_planar_n(a, ctx)
    return _extend_linearly(a, lambda w: _planar_delta_word(w, ctx), PlanarTensorElement)


def planar_coproduct_closed(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Oracle: the vertex-subset sum, each subset read back as words.

    Exponential in the vertex count; kept as the reference the tests
    compare ``planar_coproduct`` against, and it shares no Δ memo with it.
    """
    _check_planar_n(a, ctx)
    out: dict[tuple[PlanarWord, PlanarWord], Coeff] = {}
    for word, coeff in a.data.items():
        for part, comp, exps in _planar_split_table(word):
            c = evaluate_exponents(ctx.qspec, exps)
            if not c.is_zero():
                _acc(out, (part, comp), c * coeff)
    return PlanarTensorElement(ctx.n, out)


def planar_antipode(
    a: PlanarElement,
    ctx: HopfContext,
    coproduct_fn: "Callable[[PlanarElement], PlanarTensorElement] | None" = None,
) -> PlanarElement:
    """Antipode by the alternating series of iterated reduced coproducts.

    Beware that the tensor algebra is noncommutative: the k-leg terms
    multiply in leg order.
    """
    _check_planar_n(a, ctx)
    n = ctx.n
    if coproduct_fn is None:
        delta_basis = lambda w: _planar_delta_word(w, ctx)
        cache = _PANTIPODE_CACHE
        cache_key = lambda w: (ctx.qspec, w)
    else:
        delta_basis = lambda w: coproduct_fn(PlanarElement.basis(w, n))
        cache = {}
        cache_key = lambda w: w

    def reduced(w: PlanarWord):
        return [
            (l, r, c)
            for (l, r), c in delta_basis(w).data.items()
            if not l.is_empty() and not r.is_empty()
        ]

    def s_basis(word: PlanarWord) -> PlanarElement:
        if word.is_empty():
            return PlanarElement.unit(n)
        hit = cache.get(cache_key(word))
        if hit is not None:
            return hit
        acc: dict[PlanarWord, Coeff] = {}
        _acc(acc, word, Coeff.rational(-1))
        legs: dict[tuple[PlanarWord, ...], Coeff] = {(word,): ONE}
        sign = -1
        while legs:
            sign = -sign
            nxt: dict[tuple[PlanarWord, ...], Coeff] = {}
            for tup, c in legs.items():
                for l, r, d in reduced(tup[0]):
                    _acc(nxt, (l, r) + tup[1:], c * d)
            for tup, c in nxt.items():
                prod = EMPTY_WORD
                for w in tup:
                    prod = prod * w
                _acc(acc, prod, c * sign)
            legs = nxt
        out = PlanarElement(n, acc)
        cache[cache_key(word)] = out
        return out

    return _extend_linearly(a, s_basis, PlanarElement)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_planar_trees(n: int, m: int) -> tuple[PlanarTree, ...]:
    """All planar n-trees with m vertices (deterministic order)."""
    if m < 1:
        raise ValueError("trees have at least one vertex")
    if n < 0:
        raise ValueError("n must be >= 0")
    if m == 1:
        return (PLANAR_LEAF,)
    out = []
    for split in _compositions(m - 1, n):
        for combo in _iproduct(*(enumerate_planar_words(n, k) for k in split)):
            out.append(planar_lambda(combo, n))
    return tuple(sorted(out, key=lambda t: t.sort_key()))


@lru_cache(maxsize=None)
def enumerate_planar_words(n: int, total: int) -> tuple[PlanarWord, ...]:
    """All words (ordered sequences of planar n-trees) of a given size."""
    if total < 0:
        raise ValueError("total must be >= 0")
    if total == 0:
        return (EMPTY_WORD,)
    out = []
    for head_size in range(1, total + 1):
        for head in enumerate_planar_trees(n, head_size):
            for tail in enumerate_planar_words(n, total - head_size):
                out.append(PlanarWord.single(head) * tail)
    return tuple(sorted(out, key=lambda w: w.sort_key()))


def enumerate_planar_words_up_to(n: int, max_total: int) -> tuple[PlanarWord, ...]:
    out: list[PlanarWord] = []
    for d in range(max_total + 1):
        out.extend(enumerate_planar_words(n, d))
    return tuple(out)


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the planar dual product
# ---------------------------------------------------------------------------

DEFAULT_PLANAR_BULLET_BUDGET = 6

_PLANAR_DUAL_TABLE: dict[tuple[int, int], dict] = {}


def _planar_dual_split_table(n: int, m: int):
    table = _PLANAR_DUAL_TABLE.get((n, m))
    if table is None:
        table = {}
        for w in enumerate_planar_trees(n, m):
            for part, comp, exps in _planar_split_table(PlanarWord.single(w)):
                key = (part, comp)
                table.setdefault(key, []).append((w, tuple(sorted(exps.items()))))
        table = {k: tuple(v) for k, v in table.items()}
        _PLANAR_DUAL_TABLE[(n, m)] = table
    return table


def planar_bullet(
    a: PlanarDualElement,
    b: PlanarDualElement,
    ctx: HopfContext,
    budget: int = DEFAULT_PLANAR_BULLET_BUDGET,
) -> PlanarDualElement:
    """The planar dual product D_s • D_t: sum over planar trees w and
    order-respecting inclusions of the FIRST factor with complement the
    second.

    (Note the argument roles are mirrored relative to the symmetric
    ``bullet``, matching how the two products are usually displayed.)
    """
    if a.n != b.n or a.n != ctx.n:
        raise ColourMismatchError(
            f"mismatched colour counts: operands n={a.n},{b.n}, context n={ctx.n}"
        )
    n = ctx.n
    out: dict[PlanarTree, Coeff] = {}
    for s, cs in a.data.items():
        for t, ct in b.data.items():
            m = s.size + t.size
            if m > budget:
                raise BudgetError(
                    f"planar_bullet on degree {s.size}+{t.size} exceeds its budget "
                    f"of {budget} total vertices (raise the budget to proceed)"
                )
            scale = cs * ct
            table = _planar_dual_split_table(n, m)
            key = (PlanarWord.single(s), PlanarWord.single(t))
            for w, exps in table.get(key, ()):
                coeff = evaluate_exponents(ctx.qspec, dict(exps)) * scale
                if not coeff.is_zero():
                    _acc(out, w, coeff)
    return PlanarDualElement(n, out)


# ---------------------------------------------------------------------------
# forgetting the orders
# ---------------------------------------------------------------------------


def forget_tree(tree: PlanarTree) -> ColouredTree:
    """Collapse the sibling orders: the underlying coloured tree."""
    return ColouredTree((c, forget_tree(t)) for c, t in tree.children())


def forget_word(word: PlanarWord) -> Forest:
    return Forest(forget_tree(t) for t in word.trees)


def forget_element(a: PlanarElement):
    from .algebra import Element

    return Element(a.n, ((forget_word(w), c) for w, c in a.data.items()))


def forget_tensor(a: PlanarTensorElement):
    from .algebra import TensorElement

    return TensorElement(
        a.n, (((forget_word(l), forget_word(r)), c) for (l, r), c in a.data.items())
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _scan_planar_tree(sc: Scanner, n: int | None = None, depth: int = 1) -> PlanarTree:
    sc.check_depth(depth)
    sc.skip_ws()
    sc.expect("[")
    children = []
    sc.skip_ws()
    if not sc.try_take("]"):
        while True:
            sc.skip_ws()
            colour = sc.integer()
            if colour < 1:
                raise sc.error("colour must be >= 1")
            if n is not None and colour > n:
                raise ColourMismatchError(f"colour {colour} exceeds n = {n}")
            sc.skip_ws()
            sc.expect(":")
            children.append((colour, _scan_planar_tree(sc, n, depth + 1)))
            sc.skip_ws()
            if sc.try_take("]"):
                break
            sc.expect(",")
    return PlanarTree(children)


def parse_planar_tree(text: str, n: int | None = None) -> PlanarTree:
    sc = Scanner(text)
    tree = _scan_planar_tree(sc, n)
    sc.check_done()
    return tree


def parse_planar_word(text: str, n: int | None = None) -> PlanarWord:
    """Word grammar: ``1`` (empty) or '*'-joined planar trees, in order."""
    sc = Scanner(text)
    sc.skip_ws()
    if sc.try_take("1"):
        sc.check_done()
        return EMPTY_WORD
    trees = [_scan_planar_tree(sc, n)]
    while True:
        save = sc.pos
        sc.skip_ws()
        if not sc.try_take("*"):
            sc.pos = save
            break
        trees.append(_scan_planar_tree(sc, n))
    sc.check_done()
    return PlanarWord(trees)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_planar(
    ctx: HopfContext,
    max_degree: int,
    max_cases: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Coassociativity, counit, multiplicativity and antipode laws on all
    planar words up to ``max_degree`` vertices."""
    n = ctx.n
    report = VerificationReport(n=n, max_degree=max_degree)
    words = list(enumerate_planar_words_up_to(n, max_degree))

    def delta(w: PlanarWord) -> PlanarTensorElement:
        return _planar_delta_word(w, ctx)

    def sample(cases, shift):
        if max_cases is None or len(cases) <= max_cases:
            return cases
        return random.Random(seed + shift).sample(cases, max_cases)

    cases = sample(words, 0)
    failure = None
    for w in cases:
        left: dict[tuple[PlanarWord, PlanarWord, PlanarWord], Coeff] = {}
        right: dict[tuple[PlanarWord, PlanarWord, PlanarWord], Coeff] = {}
        for (l, r), c in delta(w).data.items():
            for (x, y), d in delta(l).data.items():
                _acc(left, (x, y, r), c * d)
            for (x, y), d in delta(r).data.items():
                _acc(right, (l, x, y), c * d)
        if left != right:
            failure = f"(Δ⊗id)Δ ≠ (id⊗Δ)Δ on {w}"
            break
    report.checks.append(CheckOutcome("coassociativity", len(cases), failure))

    failure = None
    for w in cases:
        d = delta(w)
        ident = PlanarElement.basis(w, n)
        if d.left_counit() != ident or d.right_counit() != ident:
            failure = f"counit law fails on {w}"
            break
    report.checks.append(CheckOutcome("counit laws", len(cases), failure))

    pairs = [
        (u, v) for u in words for v in words if u.size + v.size <= max_degree
    ]
    pairs = sample(pairs, 1)
    failure = None
    for u, v in pairs:
        if delta(u * v) != delta(u) * delta(v):
            failure = f"Δ({u}·{v}) ≠ Δ({u})·Δ({v})"
            break
    report.checks.append(CheckOutcome("Δ multiplicative", len(pairs), failure))

    failure = None
    s_memo: dict[PlanarWord, PlanarElement] = {}

    def s_of(w: PlanarWord) -> PlanarElement:
        got = s_memo.get(w)
        if got is None:
            got = s_memo[w] = planar_antipode(PlanarElement.basis(w, n), ctx)
        return got

    for w in cases:
        lhs = PlanarElement.zero(n)
        rhs = PlanarElement.zero(n)
        for (l, r), c in delta(w).data.items():
            lhs = lhs + (s_of(l) * PlanarElement.basis(r, n)).scale(c)
            rhs = rhs + (PlanarElement.basis(l, n) * s_of(r)).scale(c)
        expect = PlanarElement.unit(n) if w.is_empty() else PlanarElement.zero(n)
        if lhs != expect or rhs != expect:
            failure = f"S*id = id*S = uε fails on {w}"
            break
    report.checks.append(CheckOutcome("antipode convolution", len(cases), failure))

    return report
