"""The exhaustive oracles that the tests and the benchmark gates pin the
production Δ and S against: the vertex-subset sum ``coproduct_closed``
(on words, ``planar.planar_coproduct_closed``), the ordered-partition
antipode ``antipode_partitions`` and the admissible-cut coproduct
``ck_coproduct_oracle`` of Connes and Kreimer, which shares none of the
subset code.  None is a production path: none reads a memo of ``hopf``
or ``algebra``, and ``ctx`` is a ``hopf.HopfContext`` of which they read
``n`` and ``qspec`` only.  Like the production routes, each refuses an
element of the other variant with ``TypeError``.

A vertex subset of a forest or word is a bitmask over its vertex ids,
numbered in depth-first preorder over the trees in product order, each
vertex's children in stored order (``IndexedForest``).  The monomial it
induces hangs each selected vertex from its nearest selected ancestor,
by an edge of the host colour adjacent to that ancestor on the path;
component roots and children are listed in host vertex order, so a word
keeps its planar orders.  Its q-monomial q(s, t) in the 2n parameters
counts colours along root paths (``_walk``).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cache
from itertools import product as _iproduct

from .algebra import (
    Coeff,
    Element,
    ONE,
    QSpec,
    TensorElement,
    _FORESTS,
    _acc,
    _check_entry,
    _extend_linearly,
)
from .trees import ColouredTree, EMPTY_FOREST, Forest


# ---------------------------------------------------------------------------
# vertex subsets
# ---------------------------------------------------------------------------


class IndexedForest:
    """Flat vertex-array view of a forest or word: parent and edge colour
    by vertex id."""

    __slots__ = ("parents", "colours")

    def __init__(self, trees: Iterable):
        self.parents: list[int | None] = []
        self.colours: list[int | None] = []

        def visit(tree, parent: int | None, colour: int | None):
            vid = len(self.parents)
            self.parents.append(parent)
            self.colours.append(colour)
            for c, child in tree.children:
                visit(child, vid, c)

        for tree in trees:
            visit(tree, None, None)

    @property
    def nverts(self) -> int:
        return len(self.parents)


def induced_structure(
    idx: IndexedForest, mask: int
) -> tuple[dict[int, int | None], dict[int, int | None]]:
    """Induced parent and edge-colour maps of a vertex subset; roots get
    parent ``None`` and colour ``None``."""
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


def _induced_monomial(idx: IndexedForest, mask: int, cls=Forest):
    """The monomial of class ``cls`` (a forest, or a word) induced on a
    vertex subset; the classes of ``cls`` and its trees put the host-order
    lists into stored order."""
    parent_of, colour_of = induced_structure(idx, mask)
    kids: dict[int, list[tuple[int, int]]] = {v: [] for v in parent_of}
    roots = []
    for v, p in parent_of.items():
        if p is None:
            roots.append(v)
        else:
            kids[p].append((colour_of[v], v))

    tree = cls._member

    def build(v: int):
        return tree((c, build(u)) for c, u in kids[v])

    return cls(build(r) for r in roots)


def _parts(basis, idx: IndexedForest) -> list:
    """The induced monomial of every vertex subset, indexed by mask."""
    return [
        _induced_monomial(idx, mask, basis.monomial)
        for mask in range(1 << idx.nverts)
    ]


def _walk(structure, mask: int, host_mask: int) -> dict[tuple[int, int], int]:
    """Exponent of each parameter q_{ij} in q(s, host), for the subset
    ``mask`` of ``host_mask``, given the induced (parent, colour) maps
    ``structure`` of ``host_mask``.

    For every selected vertex, walk its root path inside the host and
    count, per colour, the edges whose lower (root-side) vertex falls
    outside the subset, on row 1; complementary vertices contribute the
    same counts relative to the complement, on row 2.
    """
    parent_of, colour_of = structure
    exps: dict[tuple[int, int], int] = {}
    for v in parent_of:
        if mask >> v & 1:
            row, inside = 1, mask
        else:
            row, inside = 2, host_mask & ~mask
        walk = v
        while parent_of[walk] is not None:
            lower = parent_of[walk]
            if not inside >> lower & 1:
                key = (row, colour_of[walk])
                exps[key] = exps.get(key, 0) + 1
            walk = lower
    return exps


def _split_table(basis, mono) -> list:
    """All (induced part, induced complement, exponents) vertex splits,
    in mask order."""
    idx = IndexedForest(mono.trees)
    full = (1 << idx.nverts) - 1
    structure = induced_structure(idx, full)
    parts = _parts(basis, idx)
    return [
        (parts[mask], parts[full ^ mask], _walk(structure, mask, full))
        for mask in range(full + 1)
    ]


def evaluate_exponents(qspec: QSpec, exponents: Mapping[tuple[int, int], int]) -> Coeff:
    """Product of spec entries raised to the given powers (0^0 = 1)."""
    out = ONE
    for (i, j), exp in exponents.items():
        if exp:
            out = out * qspec.q(i, j) ** exp
        if out.is_zero():
            break
    return out


# ---------------------------------------------------------------------------
# the subset sums
# ---------------------------------------------------------------------------


def _coproduct_closed(basis, a, ctx):
    _check_entry(basis, a, ctx.n)
    out: dict = {}
    for mono, coeff in a.data.items():
        for part, comp, exps in _split_table(basis, mono):
            c = evaluate_exponents(ctx.qspec, exps)
            if not c.is_zero():
                _acc(out, (part, comp), c * coeff)
    return basis.tensor(ctx.n, out)


def coproduct_closed(a: Element, ctx) -> TensorElement:
    """Oracle: the closed formula, a sum over all 2^|V| vertex subsets.

    Each subset s contributes q(s,t)·(induced forest of s) ⊗ (induced
    forest of the complement).  Exponential in the vertex count; kept as
    the reference the tests compare ``coproduct`` against.
    """
    return _coproduct_closed(_FORESTS, a, ctx)


def antipode_partitions(a: Element, ctx) -> Element:
    """Antipode as a signed sum over ordered partitions of the vertex set.

    Each ordered partition (s_1, …, s_k) of the vertices of t contributes
    (−1)^k · s_1·…·s_k · Π_{j<k} q(s_j, u_j), where u_j = s_j ∪ … ∪ s_k
    and the q-monomial is taken with host the induced subforest u_j.
    """
    _check_entry(_FORESTS, a, ctx.n)
    n = ctx.n

    def s_basis(forest: Forest) -> Element:
        if forest.is_empty():
            return Element.unit(n)
        idx = IndexedForest(forest.trees)
        parts = _parts(_FORESTS, idx)

        @cache
        def rest(mask: int) -> dict[Forest, Coeff]:
            out: dict[Forest, Coeff] = {}
            _acc(out, parts[mask], Coeff.rational(-1))
            structure = induced_structure(idx, mask)
            sub = (mask - 1) & mask
            while sub:
                factor = evaluate_exponents(ctx.qspec, _walk(structure, sub, mask))
                if not factor.is_zero():
                    for tail, c in rest(mask & ~sub).items():
                        _acc(out, parts[sub] * tail, -(factor * c))
                sub = (sub - 1) & mask
            return out

        return Element(n, rest(len(parts) - 1))

    return _extend_linearly(a, s_basis, Element)


# ---------------------------------------------------------------------------
# Connes–Kreimer oracle (independent implementation, single colour)
# ---------------------------------------------------------------------------


def _admissible_cuts(tree: ColouredTree) -> list[tuple[tuple[ColouredTree, ...], ColouredTree]]:
    """All (crown trees, trunk) pairs from cutting an edge antichain.

    Works by direct recursion on the tree structure: each child subtree
    is either severed whole or keeps its edge and is cut internally.
    The empty cut (crown ∅, trunk = tree) is included; the "cut above
    the root" pair is NOT (the caller adds t⊗1 separately).
    """
    per_child: list[list[tuple[tuple[ColouredTree, ...], ColouredTree | None]]] = []
    for _, child in tree.children:
        options: list[tuple[tuple[ColouredTree, ...], ColouredTree | None]] = [
            ((child,), None)  # sever the whole child
        ]
        for crown, trunk in _admissible_cuts(child):
            options.append((crown, trunk))
        per_child.append(options)
    out = []
    for combo in _iproduct(*per_child):
        crown: tuple[ColouredTree, ...] = ()
        kept = []
        for crown_part, trunk_part in combo:
            crown = crown + crown_part
            if trunk_part is not None:
                kept.append((1, trunk_part))
        out.append((crown, ColouredTree(kept)))
    return out


def ck_coproduct_oracle(a: Element) -> TensorElement:
    """Independent single-colour coproduct by admissible edge cuts.

    Used purely as a cross-check against ``coproduct`` at parameter
    values (1, 0); shares only the tree containers with the main code,
    none of the subset/path machinery.
    """
    _check_entry(_FORESTS, a, 1)  # the cut oracle is defined for n = 1 only
    out: dict[tuple[Forest, Forest], Coeff] = {}
    for forest, coeff in a.data.items():
        terms: dict[tuple[Forest, Forest], Coeff] = {(EMPTY_FOREST, EMPTY_FOREST): ONE}
        for tree in forest.trees:
            tree_terms: dict[tuple[Forest, Forest], Coeff] = {}
            _acc(tree_terms, (Forest.single(tree), EMPTY_FOREST), ONE)
            for crown, trunk in _admissible_cuts(tree):
                _acc(tree_terms, (Forest(crown), Forest.single(trunk)), ONE)
            nxt: dict[tuple[Forest, Forest], Coeff] = {}
            for (l1, r1), c1 in terms.items():
                for (l2, r2), c2 in tree_terms.items():
                    _acc(nxt, (l1 * l2, r1 * r2), c1 * c2)
            terms = nxt
        for key, c in terms.items():
            _acc(out, key, c * coeff)
    return TensorElement(1, out)
