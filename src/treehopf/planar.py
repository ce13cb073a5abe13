"""Ordered-tree variant: planar trees, tensor-algebra words, and their
coproduct family.

A planar tree keeps, for every colour, a linearly ordered sequence of
child subtrees — order is data, so there is no sorting and no
automorphism collapsing.  Products live in the tensor algebra: a basis
element is a *word* (ordered sequence) of planar trees, multiplied by
concatenation, which is associative and genuinely noncommutative.

The two types differ from ``ColouredTree`` and ``Forest`` by one rule
only: a planar tree's children are stably sorted by colour, keeping
their order within each colour, and a word's trees are kept in product
order.  Everything else — the tree and monomial value code, the root
constructor ``planar_lambda`` and its inverse, the enumerations and the
word grammar — is the code of ``trees`` run on ``PlanarWord``; this
module adds the forgetful maps and ``_WORDS``, the word instance of the
basis record ``algebra._Basis``.  Δ, S, the dual product and the axiom
checks are the symmetric engine of ``algebra``, ``hopf`` and ``prelie``
run on that record; the public functions here wrap it.  So
``planar_coproduct`` is the root-constructor square with the words of
``planar_decompose(tree)`` as slots, σ_i concatenating the slot legs in
slot order, and Δ multiplicative over the trees of a word, in order.
The subset-sum oracle ``planar_coproduct_closed`` is ``oracles`` run on
``_WORDS``.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Sequence

from .algebra import Element, TensorElement, _Basis
from .hopf import HopfContext, VerificationReport, _antipode, _coproduct, _verify
from .oracles import _coproduct_closed
from .prelie import DEFAULT_BULLET_BUDGET, DualElement, _dual_product
from .trees import (
    ColouredTree,
    Forest,
    _Monomial,
    _Tree,
    _decompose,
    _enumerate_monomials,
    _enumerate_trees,
    _enumerate_up_to,
    _lam,
    _parse_all,
    _rebuild,
)


class PlanarTree(_Tree):
    """A rooted tree with a separate linear order on each colour's children.

    Construction takes (colour, child) pairs in listed order; pairs of
    the same colour keep their relative order, and storage groups the
    colours in increasing order (the grouping is canonical bookkeeping,
    not a sort of the order data: per-colour sequences are the data).
    ``key`` groups the child keys per colour.
    """

    __slots__ = ()
    _order = itemgetter(0)
    _encode = staticmethod(
        lambda pairs: tuple(
            (colour, tuple(key for _, key in run))
            for colour, run in groupby(pairs, itemgetter(0))
        )
    )


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
    return _lam(PlanarWord, words, n)


def planar_decompose(tree: PlanarTree, n: int) -> tuple[PlanarWord, ...]:
    """Inverse of ``planar_lambda``: the colour-i children as word i."""
    return _decompose(PlanarWord, tree, n)


# ---------------------------------------------------------------------------
# element containers: the generic ones, keyed by words and planar trees
# ---------------------------------------------------------------------------


class PlanarElement(Element):
    """A combination of planar words (an element of the tensor algebra)."""

    _key_type = PlanarWord
    _noun = "word"


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


def enumerate_planar_trees(n: int, m: int) -> tuple[PlanarTree, ...]:
    """All planar n-trees with m vertices, sorted by key."""
    return _enumerate_trees(PlanarWord, n, m)


def enumerate_planar_words(n: int, total: int) -> tuple[PlanarWord, ...]:
    """All words (ordered sequences of planar n-trees) of a given size."""
    return _enumerate_monomials(PlanarWord, n, total)


def enumerate_planar_words_up_to(n: int, max_total: int) -> tuple[PlanarWord, ...]:
    return _enumerate_up_to(PlanarWord, n, max_total)


# the word basis, for the shared engine
_WORDS = _Basis(monomial=PlanarWord, element=PlanarElement, tensor=PlanarTensorElement)


# ---------------------------------------------------------------------------
# the engine on words
# ---------------------------------------------------------------------------


def planar_coproduct(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Comultiplication on the tensor algebra, through the root constructor.

    The same square as the symmetric ``coproduct``, with the slots of a
    planar tree read as words: σ_i concatenates the slot legs in slot
    order, and Δ is multiplicative over the trees of a word, in order.
    """
    return _coproduct(_WORDS, a, ctx)


def planar_coproduct_closed(a: PlanarElement, ctx: HopfContext) -> PlanarTensorElement:
    """Oracle: the vertex-subset sum of ``oracles``, each subset read back
    as a word; the reference the tests compare ``planar_coproduct`` against."""
    return _coproduct_closed(_WORDS, a, ctx)


def planar_antipode(a: PlanarElement, ctx: HopfContext) -> PlanarElement:
    """Antipode by the tree recursion S(t) = −t − Σ S(t′)·t″ over the
    reduced coproduct of each planar tree.

    Words do not commute, so S is anti-multiplicative: S(uv) = S(v)S(u).
    """
    return _antipode(_WORDS, a, ctx)


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
    The trees w are built from s and t by the shared constructive
    product of ``prelie``; pairs beyond ``budget`` total vertices raise
    :class:`~treehopf.trees.BudgetError`.
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
    return _rebuild(tree, ColouredTree, lambda c: c)


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
    return _parse_all(text, lambda sc: sc.tree(n, PlanarTree))


def parse_planar_word(text: str, n: int | None = None) -> PlanarWord:
    """Word grammar: ``1`` (empty) or '*'-joined planar trees, in order."""
    return _parse_all(text, lambda sc: sc.monomial(n, PlanarWord))
