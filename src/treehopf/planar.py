"""Ordered-tree variant: planar trees, tensor-algebra words, and their
coproduct family.

A planar tree keeps, for every colour, a linearly ordered sequence of
child subtrees — order is data, so there is no sorting and no
automorphism collapsing.  Products live in the tensor algebra: a basis
element is a *word* (ordered sequence) of planar trees, multiplied by
concatenation, which is associative and genuinely noncommutative.

This module holds what is particular to words: the two types, the root
constructor ``planar_lambda`` and its inverse, word enumeration, the
forgetful maps, and ``_WORDS``, the word instance of the basis record
``algebra._Basis``.  The containers, Δ, S, the dual product and the
axiom checks are the symmetric engine of ``algebra``, ``hopf`` and
``prelie`` run on that record; the public functions here wrap it.  So
``planar_coproduct`` is the root-constructor square with the words of
``planar_decompose(tree)`` as slots, σ_i concatenating the slot legs in
slot order, and Δ multiplicative over the trees of a word, in order.

The subset-sum oracle ``planar_coproduct_closed`` reads each vertex
subset back as a word: components are listed in the order of first
visit in the host's depth-first traversal (colours in increasing order
at each vertex, same-colour children in their stored order), and the
same traversal induces the sibling orders inside each component.
"""

from __future__ import annotations

from functools import cache
from itertools import product as _iproduct
from typing import Callable, Iterable, Sequence

from .algebra import Element, TensorElement, _Basis
from .hopf import (
    HopfContext,
    VerificationReport,
    _antipode,
    _coproduct,
    _coproduct_closed,
    _index,
    _verify,
)
from .prelie import DEFAULT_BULLET_BUDGET, DualElement, _dual_product
from .trees import (
    ColouredTree,
    ColourMismatchError,
    Forest,
    Scanner,
    _Keyed,
    _Monomial,
    _compositions,
    _induced_monomial,
)


class PlanarTree(_Keyed):
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

    def __str__(self):
        return "[" + ",".join(f"{c}:{t}" for c, t in self.children()) + "]"


PLANAR_LEAF = PlanarTree()


class PlanarWord(_Monomial):
    """An ordered sequence of planar trees: a basis word of the tensor
    algebra.  The empty word is the unit; concatenation multiplies."""

    __slots__ = ()
    _member = PlanarTree
    _noun = "word"
    _sorted = False


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
# element containers: the generic ones, keyed by words and planar trees
# ---------------------------------------------------------------------------


class PlanarElement(Element):
    """A combination of planar words (an element of the tensor algebra)."""

    _key_type = PlanarWord
    _noun = "word"
    _unit_key = EMPTY_WORD


class PlanarTensorElement(TensorElement):
    """A combination of ordered pairs of planar words."""

    _element = PlanarElement


class PlanarDualElement(DualElement):
    """A combination of dual functionals D_t over planar trees."""

    _key_type = PlanarTree
    _noun = "planar tree"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@cache
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


@cache
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


# the word basis, for the shared engine
_WORDS = _Basis(
    commutative=False,
    unit=EMPTY_WORD,
    edges=PlanarTree.children,
    tree=PlanarTree,
    monomial=PlanarWord,
    lam=planar_lambda,
    decompose=planar_decompose,
    enumerate_trees=enumerate_planar_trees,
    enumerate_up_to=enumerate_planar_words_up_to,
    element=PlanarElement,
    tensor=PlanarTensorElement,
)


# ---------------------------------------------------------------------------
# the engine on words
# ---------------------------------------------------------------------------


def induced_word(word: PlanarWord, mask: int) -> PlanarWord:
    """The planar word induced on a vertex subset of a host word.

    Parent = nearest selected ancestor; edge colour = host colour of the
    path edge adjacent to that ancestor; component roots and siblings
    take the host's depth-first first-visit order.
    """
    return _induced_monomial(_index(_WORDS, word), mask, PlanarTree, PlanarWord)


def planar_coproduct(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Comultiplication on the tensor algebra, through the root constructor.

    The same square as the symmetric ``coproduct``, with the slots of a
    planar tree read as words: σ_i concatenates the slot legs in slot
    order, and Δ is multiplicative over the trees of a word, in order.
    """
    return _coproduct(_WORDS, a, ctx)


def planar_coproduct_closed(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Oracle: the vertex-subset sum, each subset read back as words.

    Exponential in the vertex count; kept as the reference the tests
    compare ``planar_coproduct`` against, and it shares no Δ memo with it.
    """
    return _coproduct_closed(_WORDS, a, ctx)


def planar_antipode(
    a: PlanarElement,
    ctx: HopfContext,
    coproduct_fn: "Callable[[PlanarElement], PlanarTensorElement] | None" = None,
) -> PlanarElement:
    """Antipode by the tree recursion S(t) = −t − Σ S(t′)·t″ over the
    reduced coproduct of each planar tree.

    Words do not commute, so S is anti-multiplicative: S(uv) = S(v)S(u).
    """
    return _antipode(_WORDS, a, ctx, coproduct_fn)


def planar_bullet(
    a: PlanarDualElement,
    b: PlanarDualElement,
    ctx: HopfContext,
    budget: int = DEFAULT_BULLET_BUDGET,
) -> PlanarDualElement:
    """The planar dual product D_s • D_t: sums c·D_w over the planar trees
    w whose coproduct Δ(w) has the term c·s ⊗ t, the FIRST factor on the
    left.

    (Note the argument roles are mirrored relative to the symmetric
    ``bullet``, matching how the two products are usually displayed.)
    """
    return _dual_product(_WORDS, "planar_bullet", a, b, ctx, budget, lambda s, t: (s, t))


def verify_planar(
    ctx: HopfContext,
    max_degree: int,
    max_cases: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Coassociativity, counit, multiplicativity and antipode laws on all
    planar words up to ``max_degree`` vertices."""
    return _verify(_WORDS, ctx, max_degree, None, max_cases, seed)


# ---------------------------------------------------------------------------
# forgetting the orders
# ---------------------------------------------------------------------------


def forget_tree(tree: PlanarTree) -> ColouredTree:
    """Collapse the sibling orders: the underlying coloured tree."""
    return ColouredTree((c, forget_tree(t)) for c, t in tree.children())


def forget_word(word: PlanarWord) -> Forest:
    return Forest(forget_tree(t) for t in word.trees)


def forget_element(a: PlanarElement) -> Element:
    return Element(a.n, ((forget_word(w), c) for w, c in a.data.items()))


def forget_tensor(a: PlanarTensorElement) -> TensorElement:
    return TensorElement(
        a.n, (((forget_word(l), forget_word(r)), c) for (l, r), c in a.data.items())
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def parse_planar_tree(text: str, n: int | None = None) -> PlanarTree:
    sc = Scanner(text)
    tree = sc.tree(n, make=PlanarTree)
    sc.check_done()
    return tree


def parse_planar_word(text: str, n: int | None = None) -> PlanarWord:
    """Word grammar: ``1`` (empty) or '*'-joined planar trees, in order."""
    sc = Scanner(text)
    sc.skip_ws()
    if sc.try_take("1"):
        sc.check_done()
        return EMPTY_WORD
    trees = [sc.tree(n, make=PlanarTree)]
    while True:
        save = sc.pos
        sc.skip_ws()
        if not sc.try_take("*"):
            sc.pos = save
            break
        trees.append(sc.tree(n, make=PlanarTree))
    sc.check_done()
    return PlanarWord(trees)
