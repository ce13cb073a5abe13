"""Per-colour rescaling relates Δ and S at two points of the family.

Let P_c(f) count the (ancestor, descendant) vertex pairs of a forest or
word f whose path leaves the ancestor by an edge of colour c.  Scaling
both parameters of colour c by λ_c ≠ 0 multiplies the coefficient of
l ⊗ r in Δ(f) by Π_c λ_c^(P_c(f) − P_c(l) − P_c(r)), and that of g in
S(f) by Π_c λ_c^(P_c(f) − P_c(g)): a split separates a pair of colour c
with one factor q_{1c} or q_{2c}, and each leg keeps the pairs on its
own side in their colour class.  The integer point D·q of the ``hopf``
docstring is the case λ_c = D for every c.

Both sides are compared exactly at n = 2 on every forest with at most 5
vertices and every word with at most 4, at a fractional point and, for
forests, at a mixed one.  P_c is counted here from the trees' children,
not read from the ``paths`` field.  Scaling row 1 alone is no such
symmetry, and must mismatch.
"""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from treehopf.algebra import Element, QSpec
from treehopf.hopf import HopfContext, antipode_recursive, coproduct
from treehopf.planar import (
    PlanarElement,
    enumerate_planar_words_up_to,
    planar_antipode,
    planar_coproduct,
)
from treehopf.trees import enumerate_forests_up_to

F = Fraction
LAMBDA = (F(3, 2), F(-5, 3))
FRACTIONAL = "1/2,2/3,-3/4,5/7"
MIXED = "sym,1/3,-3/4,sym"

FORESTS = (Element, enumerate_forests_up_to(2, 5), coproduct, antipode_recursive)
WORDS = (PlanarElement, enumerate_planar_words_up_to(2, 4), planar_coproduct, planar_antipode)


def _colour_paths(monomial) -> Counter:
    """P_c of a forest or word, by colour c: each edge of colour c above a
    subtree of m vertices separates its upper vertex from those m."""
    out = Counter()
    todo = list(monomial.trees)
    for tree in todo:
        for colour, child in tree.children:
            out[colour] += child.size
            todo.append(child)
    return out


def _weight(top: Counter, *legs) -> Fraction:
    """Π_c λ_c^(P_c(top) − Σ P_c(leg)), with ``top`` the P_c of the
    monomial the legs come from."""
    drop = top.copy()
    for leg in legs:
        drop.subtract(_colour_paths(leg))
    return prod(LAMBDA[c - 1] ** e for c, e in drop.items())


def _point(words: str, rows=()) -> HopfContext:
    """The point read from ``words``, with the parameter of colour c in
    each row of ``rows`` multiplied by λ_c."""
    entries = QSpec.from_strings(2, words.split(",")).entries
    scaled = [e * LAMBDA[k % 2] if k // 2 + 1 in rows else e for k, e in enumerate(entries)]
    return HopfContext(QSpec(2, tuple(scaled)))


def _mismatches(variant, words: str, rows=(1, 2)) -> tuple[int, int]:
    """(mismatched terms, terms) of Δ and S over the variant's monomials,
    the point ``words`` against it rescaled on ``rows`` by ``LAMBDA``."""
    element, monomials, delta, antipode = variant
    ctx, scaled = _point(words), _point(words, rows)
    bad = total = 0
    for f in monomials:
        a = element.basis(f, 2)
        top = _colour_paths(f)
        at_q, at_scaled = delta(a, ctx).data, delta(a, scaled).data
        for l, r in at_q.keys() | at_scaled.keys():
            total += 1
            bad += at_q.get((l, r), 0) * _weight(top, l, r) != at_scaled.get((l, r), 0)
        at_q, at_scaled = antipode(a, ctx).data, antipode(a, scaled).data
        for g in at_q.keys() | at_scaled.keys():
            total += 1
            bad += at_q.get(g, 0) * _weight(top, g) != at_scaled.get(g, 0)
    return bad, total


@pytest.mark.parametrize(
    "variant, words",
    [(FORESTS, FRACTIONAL), (WORDS, FRACTIONAL), (FORESTS, MIXED)],
    ids=["forests", "words", "forests-mixed"],
)
def test_rescaling_the_parameters_of_a_colour_rescales_delta_and_s(variant, words):
    bad, total = _mismatches(variant, words)
    assert total > 700 and bad == 0


def test_rescaling_row_1_alone_mismatches():
    bad, total = _mismatches(FORESTS, FRACTIONAL, rows=(1,))
    assert bad > total // 2
