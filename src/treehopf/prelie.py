"""Dual-side products on tree coefficients and the free pre-Lie algebra.

The graded dual of the forest bialgebra has primitive part spanned by
functionals D_t, one per tree.  Two products act on these:

* ``bullet`` — the convolution-induced product, whose structure
  constants are coproduct coefficients: the D_w coefficient of D_t • D_s
  is the s ⊗ t coefficient of Δ(w).  The trees w with a nonzero
  coefficient are built from s and t by running the root-constructor
  square backwards, with symbolic coefficients memoised per pair, so no
  tree of the target size is listed and no Δ is computed.  Uniformly
  correct for any parameter values; a pair beyond its declared degree
  budget raises :class:`~treehopf.trees.BudgetError` instead of being
  computed.
* ``bullet_prime`` — the grafting product: attach the second factor
  below each vertex of the first by a new edge, one colour from the
  allowed set at a time.  Constructive, no enumeration.

``aut_rescale`` (D_t ↦ |Aut t|·D_t) converts one product into the other,
and ``phi`` embeds the dual primitives into the free pre-Lie algebra on
n generators, modelled on vertex-labelled trees.  A labelled tree is
stored as its root label over the coloured tree ↓ gives, so ↑ and ↓ only
build or read that pair.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product as _iproduct
from typing import Iterable

from .algebra import (
    MAX_SYMBOL_COLOUR,
    Coeff,
    Combination,
    ONE,
    _FORESTS,
    _acc,
    _format_terms,
    _power,
)
from .hopf import HopfContext
from .trees import (
    BudgetError,
    ColouredTree,
    ColourMismatchError,
    Scanner,
    _Keyed,
    _compositions,
    _decompose,
    _intern,
    _lam,
    _parse_all,
    aut_order,
    enumerate_trees,
)

DEFAULT_BULLET_BUDGET = 6


class DualElement(Combination):
    """A combination of dual tree functionals Σ c_t D_t (trees, not forests).

    The subclass ``PlanarDualElement`` takes planar trees.
    """

    _key_type = ColouredTree
    _noun = "tree"

    def __str__(self):
        return _format_terms(self.terms(), lambda t: f"D{t}")


# ---------------------------------------------------------------------------
# the dual product, by the root square run backwards
# ---------------------------------------------------------------------------


def _splits(cls, mono, parts: int):
    """Every ``parts``-tuple of monomials of class ``cls`` whose product is
    ``mono``, each once.

    A word is cut into consecutive pieces.  A forest deals each run of
    equal trees out over the parts, so two deals that differ only by
    which copy of a repeated tree goes where are one split.
    """
    trees = mono.trees
    runs = [tuple(run) for _, run in groupby(trees)] if cls._sorted else [trees]
    for deal in _iproduct(*(_compositions(len(run), parts) for run in runs)):
        pieces: list[list] = [[] for _ in range(parts)]
        for run, counts in zip(runs, deal):
            start = 0
            for piece, k in zip(pieces, counts):
                piece.extend(run[start : start + k])
                start += k
        yield tuple(map(cls, pieces))


@cache
def _tree_terms(basis, n: int, a, b) -> tuple:
    """The (w, c) pairs over the trees w whose symbolic Δ(w) has the term
    c·a ⊗ b, for monomials a and b.

    Every term of Δ(w) has a one-tree leg, from the root square
    Δλ(x) = Σ σ_1(x′) ⊗ λ(x″) + λ(x′) ⊗ σ_2(x″).  When b = λ(y) is one
    tree, the σ_1 side gives a ⊗ b from x″ = y and x′ any split
    (a_1..a_n) of a, so w = λ(X_1..X_n) with Δ(X_j) having the term
    a_j ⊗ y_j, weighted by Π_j q_{1j}^{|a_j|}.  When a = λ(z) is one
    tree, the σ_2 side is the mirror image.
    """
    cls = basis.monomial
    out: dict = {}
    for side, whole, rest in ((1, b, a), (2, a, b)):
        if len(whole.trees) != 1:
            continue
        slots = _decompose(cls, whole.trees[0], n)
        qs = [Coeff.variable(side, j) for j in range(1, n + 1)]
        for split in _splits(cls, rest, n):
            weight = ONE
            options = []
            for piece, slot, q in zip(split, slots, qs):
                legs = (piece, slot) if side == 1 else (slot, piece)
                found = _monomial_terms(basis, n, *legs)
                if not found:
                    break
                options.append(found)
                if piece.size:
                    weight = weight * _power(q, piece.size)
            else:
                for combo in _iproduct(*options):
                    coeff = weight
                    for _, c in combo:
                        coeff = coeff * c
                    _acc(out, _lam(cls, [x for x, _ in combo], n), coeff)
    return tuple(out.items())


@cache
def _monomial_terms(basis, n: int, a, b) -> tuple:
    """The (X, c) pairs over the monomials X whose symbolic Δ(X) has the
    term c·a ⊗ b.

    Δ is multiplicative, so X = t·x with t its first tree in stored
    order (the least tree of a forest) takes a term a_1 ⊗ b_1 of Δ(t)
    and a term a_2 ⊗ b_2 of Δ(x) over every split a = a_1·a_2,
    b = b_1·b_2.  On forests a tail x with a tree below t is skipped: it
    is counted with its own least tree first.
    """
    cls = basis.monomial
    if not a.trees and not b.trees:
        return ((cls(), ONE),)
    out: dict = {}
    b_splits = list(_splits(cls, b, 2))
    for a1, a2 in _splits(cls, a, 2):
        for b1, b2 in b_splits:
            if not a1.trees and not b1.trees:
                continue
            heads = _tree_terms(basis, n, a1, b1)
            if not heads:
                continue
            tails = _monomial_terms(basis, n, a2, b2)
            for t, c in heads:
                head = cls.single(t)
                for x, d in tails:
                    if cls._sorted and x.trees and x.trees[0] < t:
                        continue
                    _acc(out, head * x, c * d)
    return tuple(out.items())


def _dual_product(basis, name: str, a, b, ctx: HopfContext, budget: int, split):
    """The dual product shared by ``bullet`` and ``planar_bullet``.

    For each basis pair (x, y) of ``a`` and ``b``, ``split(x, y)`` names
    the (left, right) pair of trees, and the product sums c·D_w over the
    trees w whose Δ(w) has the term c·left ⊗ right; ``_tree_terms``
    builds those w with symbolic c, and ``ctx`` is substituted into them.
    A pair beyond ``budget`` total vertices raises :class:`BudgetError`,
    naming the product ``name``, rather than degrade silently.  The
    symbols stop at colour ``MAX_SYMBOL_COLOUR``, so a larger n raises
    ``ValueError`` at any point.
    """
    n = _common_n(a, b, ctx)
    if n > MAX_SYMBOL_COLOUR:
        raise ValueError(
            f"the dual product {name} is computed over the symbols q1j and q2j, "
            f"which stop at colour {MAX_SYMBOL_COLOUR}: n = {n} is past this "
            f"{MAX_SYMBOL_COLOUR}-colour limit"
        )
    single = basis.monomial.single
    # the symbols the point does not leave symbolic
    values = {
        (i, j): q
        for i in (1, 2)
        for j in range(1, n + 1)
        if (q := ctx.qspec.q(i, j)) != Coeff.variable(i, j)
    }
    out: dict = {}
    for x, cx in a.data.items():
        for y, cy in b.data.items():
            if x.size + y.size > budget:
                raise BudgetError(
                    f"{name} on degree {x.size}+{y.size} exceeds its budget of "
                    f"{budget} total vertices (raise the budget to proceed)"
                )
            scale = cx * cy
            left, right = split(x, y)
            for w, c in _tree_terms(basis, n, single(left), single(right)):
                coeff = c.substitute(values) * scale
                if not coeff.is_zero():
                    _acc(out, w, coeff)
    return type(a)._adopt(n, out)


def bullet(
    a: DualElement,
    b: DualElement,
    ctx: HopfContext,
    budget: int = DEFAULT_BULLET_BUDGET,
) -> DualElement:
    """The dual product: D_t • D_s sums c·D_w over the trees w whose
    coproduct Δ(w) has the term c·s ⊗ t.

    Extended bilinearly.  The trees w of each basis pair are built from
    s and t by the root square run backwards (``_tree_terms``); pairs
    beyond ``budget`` total vertices raise :class:`BudgetError` rather
    than degrade silently.
    """
    return _dual_product(_FORESTS, "bullet", a, b, ctx, budget, lambda t, s: (s, t))


def lie_bracket(
    a: DualElement,
    b: DualElement,
    ctx: HopfContext,
    budget: int = DEFAULT_BULLET_BUDGET,
) -> DualElement:
    """[D_s, D_t] with the convention D_t•D_s − D_s•D_t: the bracket of
    (a, b) is bullet(b, a) − bullet(a, b)."""
    return bullet(b, a, ctx, budget) - bullet(a, b, ctx, budget)


# ---------------------------------------------------------------------------
# the grafting product
# ---------------------------------------------------------------------------


def _graft_everywhere(t: ColouredTree, s: ColouredTree, colour: int):
    """Attach s below each vertex of t by a colour-``colour`` edge.

    Yields one tree per vertex of t (canonically equal results repeat,
    preserving multiplicities in the grafting sum).
    """
    yield ColouredTree(t.children + ((colour, s),))
    for pos, (c, child) in enumerate(t.children):
        for g in _graft_everywhere(child, s, colour):
            yield ColouredTree(t.children[:pos] + ((c, g),) + t.children[pos + 1 :])


def bullet_prime(
    a: DualElement, b: DualElement, p: Iterable[int]
) -> DualElement:
    """Grafting product: D_t •′ D_s = Σ_{v∈t} Σ_{i∈p} D_{t with s attached
    below v by a colour-i edge}.  No enumeration, hence no budget."""
    if a.n != b.n:
        raise ValueError("operands must share n")
    n = a.n
    colours = sorted(set(p))
    if any(not 1 <= i <= n for i in colours):
        raise ColourMismatchError(f"colour set {colours} not within 1..{n}")
    out: dict[ColouredTree, Coeff] = {}
    for t, ct in a.data.items():
        for s, cs in b.data.items():
            scale = ct * cs
            for i in colours:
                for w in _graft_everywhere(t, s, i):
                    _acc(out, w, scale)
    return DualElement(n, out)


def aut_rescale(a: DualElement) -> DualElement:
    """D_t ↦ |Aut(t)|·D_t, the invertible change of basis that turns the
    grafting product into the dual product ``bullet``:
    aut_rescale(x •′ y) = bullet(aut_rescale(x), aut_rescale(y)) when the
    parameters are the indicator of the grafting colour set on row 1 and
    zero on row 2."""
    return DualElement(a.n, ((t, c * aut_order(t)) for t, c in a.data.items()))


def _common_n(a: DualElement, b: DualElement, ctx: HopfContext) -> int:
    if a.n != b.n or a.n != ctx.n:
        raise ColourMismatchError(
            f"mismatched colour counts: operands n={a.n},{b.n}, context n={ctx.n}"
        )
    return a.n


# ---------------------------------------------------------------------------
# labelled trees and the free pre-Lie algebra
# ---------------------------------------------------------------------------


class LabelledTree(_Keyed):
    """Canonical rooted tree with vertex labels and plain (uncoloured) edges.

    Stored and interned as the pair ↓ gives, the root ``label`` over a
    coloured ``tree`` whose edge colours label the vertices below them, so
    there is one object per label-preserving isomorphism class.
    """

    __slots__ = ("label", "tree", "key", "size", "max_label")

    def __new__(cls, label: int, children: Iterable["LabelledTree"] = ()):
        edges = []
        for child in children:
            if not isinstance(child, LabelledTree):
                raise TypeError("children must be LabelledTree instances")
            edges.append((child.label, child.tree))
        return up_map(label, ColouredTree(edges))

    def _fill(self, parts: tuple):
        label, tree = parts
        self.label = label
        self.tree = tree
        self.key = (label, tree.key)
        self.size = tree.size
        self.max_label = max(label, tree.max_colour)

    def __reduce__(self):
        return up_map, (self.label, self.tree)

    @property
    def children(self) -> tuple["LabelledTree", ...]:
        """The labelled tree below each edge of ``tree``, in stored order."""
        return tuple([_intern(LabelledTree, edge) for edge in self.tree.children])

    def _components(self):
        return self.children

    def _join(self):
        return f"({self.label})[" + ",".join([t._text for t in self.children]) + "]"

    def vertex_paths(self) -> tuple[tuple[int, ...], ...]:
        """Depth-first preorder addresses; each step is a child position."""
        out = [()]
        for pos, child in enumerate(self.children):
            out.extend((pos,) + p for p in child.vertex_paths())
        return tuple(out)


def parse_labelled_tree(text: str) -> LabelledTree:
    """Parse the ``(label)[child,child,…]`` grammar, e.g. ``(1)[(2)[]]``."""
    return _parse_all(text, _scan_labelled)


def _scan_labelled(sc: Scanner) -> LabelledTree:
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    label = sc.integer()
    sc.skip_ws()
    sc.expect(")")
    return up_map(label, sc.tree(labelled=True))


class PreLieElement(Combination):
    """A combination of labelled trees (the free pre-Lie algebra on n
    generators, one generator per label)."""

    def _check_key(self, key, n):
        if not isinstance(key, LabelledTree):
            raise TypeError(f"PreLieElement keys must be labelled trees, got {key!r}")
        if key.max_label > n:
            raise ValueError(f"tree {key} uses label {key.max_label} > n = {n}")


def free_graft(t: LabelledTree, v: tuple[int, ...], s: LabelledTree) -> LabelledTree:
    """Attach the root of s below the vertex of t addressed by ``v``
    (a child-position path, as produced by ``vertex_paths``)."""
    if not v:
        return LabelledTree(t.label, t.children + (s,))
    pos = v[0]
    if not 0 <= pos < len(t.children):
        raise ValueError(f"vertex path {v} does not address a vertex")
    kids = list(t.children)
    kids[pos] = free_graft(kids[pos], v[1:], s)
    return LabelledTree(t.label, kids)


def _free_graft_everywhere(t: LabelledTree, s: LabelledTree):
    yield LabelledTree(t.label, t.children + (s,))
    for pos, child in enumerate(t.children):
        for g in _free_graft_everywhere(child, s):
            kids = list(t.children)
            kids[pos] = g
            yield LabelledTree(t.label, kids)


def free_bullet(a: PreLieElement, b: PreLieElement) -> PreLieElement:
    """Grafting sum t•s = Σ_{v∈t} (s attached below v), extended bilinearly."""
    if a.n != b.n:
        raise ValueError("operands must share n")
    out: dict[LabelledTree, Coeff] = {}
    for t, ct in a.data.items():
        for s, cs in b.data.items():
            scale = ct * cs
            for w in _free_graft_everywhere(t, s):
                _acc(out, w, scale)
    return PreLieElement(a.n, out)


# ---------------------------------------------------------------------------
# moving colours up to labels
# ---------------------------------------------------------------------------


def up_map(i: int, t: ColouredTree) -> LabelledTree:
    """Turn edge colours into vertex labels: every vertex takes the colour
    of the edge above it, and the root takes ``i``.

    A bijection from (root label, coloured tree) to labelled trees, which
    store exactly that pair; the inverse is :func:`down_map`.
    Compatibility with grafting exchanges the two indices relative to the
    raw definition: attaching s below v with a colour-i edge and then
    applying ↑_j equals grafting ↑_i(s) below v in ↑_j(t).
    """
    if type(i) is not int or i < 1:
        raise ValueError(f"vertex label must be an integer >= 1, got {i!r}")
    if not isinstance(t, ColouredTree):
        raise TypeError(f"up_map takes a ColouredTree, got {type(t).__name__}")
    return _intern(LabelledTree, (i, t))


def down_map(t: LabelledTree) -> tuple[int, ColouredTree]:
    """Inverse of :func:`up_map`: the (root label, coloured tree) pair
    that ``t`` stores."""
    return t.label, t.tree


def phi(a: DualElement) -> PreLieElement:
    """The embedding D_t ↦ Σ_{j=1..n} ↑_j(t) into the free pre-Lie algebra.

    Injective on the span of the D_t (the images have pairwise disjoint
    supports), and a homomorphism from the grafting product with the
    full colour set to the free grafting product.
    """
    n = a.n
    out: dict[LabelledTree, Coeff] = {}
    for t, c in a.data.items():
        for j in range(1, n + 1):
            _acc(out, up_map(j, t), c)
    return PreLieElement(n, out)


def enumerate_labelled_trees(n: int, m: int) -> tuple[LabelledTree, ...]:
    """All canonical labelled trees with m vertices and labels in 1..n.

    Equivalently {↑_j(t)}: one for each root label and n-coloured tree,
    listed root label first, then by tree, which is the sorted order.
    """
    return tuple(up_map(j, t) for j in range(1, n + 1) for t in enumerate_trees(n, m))
