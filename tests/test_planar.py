"""The ordered variant: planar trees, words, and their coproduct family."""

from fractions import Fraction

import pytest

import bruteforce
from treehopf.algebra import Element, parse_coeff
from treehopf.hopf import (
    HopfContext,
    antipode_partitions,
    antipode_recursive,
    ck_coproduct_oracle,
    coproduct,
    coproduct_closed,
)
from treehopf.oracles import IndexedForest, _induced_monomial
from treehopf.planar import (
    EMPTY_WORD,
    PLANAR_LEAF,
    PlanarDualElement,
    PlanarElement,
    PlanarWord,
    enumerate_planar_trees,
    enumerate_planar_words,
    enumerate_planar_words_up_to,
    forget_element,
    forget_tensor,
    forget_tree,
    forget_word,
    parse_planar_tree,
    parse_planar_word,
    planar_antipode,
    planar_bullet,
    planar_coproduct,
    planar_coproduct_closed,
    planar_decompose,
    planar_lambda,
    verify_planar,
)
from treehopf.trees import BudgetError, ColourMismatchError, ParseError, parse_forest

SYM1 = HopfContext.symbolic(1)
CK = HopfContext.connes_kreimer()

CHAIN2 = parse_planar_tree("[1:[]]")
CHAIN3 = parse_planar_tree("[1:[1:[]]]")
CHERRY = parse_planar_tree("[1:[],1:[]]")


def induced_word(word, mask):
    return _induced_monomial(IndexedForest(word.trees), mask, PlanarWord)


def w(text, n=1):
    return parse_planar_word(text, n)


def pelt(text, n=1):
    return PlanarElement.basis(parse_planar_word(text, n), n)


# ---------------------------------------------------------------------------
# order is data
# ---------------------------------------------------------------------------


def test_sibling_order_distinguishes_trees():
    a = parse_planar_tree("[1:[],1:[1:[]]]")
    b = parse_planar_tree("[1:[1:[]],1:[]]")
    assert a != b
    assert str(a) == "[1:[],1:[1:[]]]" and str(b) == "[1:[1:[]],1:[]]"
    assert forget_tree(a) == forget_tree(b)


def test_colour_grouping_is_canonical_but_order_within_colour_is_kept():
    c = parse_planar_tree("[2:[],1:[1:[]],1:[]]")
    assert str(c) == "[1:[1:[]],1:[],2:[]]"
    assert c == parse_planar_tree("[1:[1:[]],2:[],1:[]]")
    assert c != parse_planar_tree("[1:[],1:[1:[]],2:[]]")


def test_word_order_matters():
    u = w("[1:[]]*[]")
    v = w("[]*[1:[]]")
    assert u != v and u.size == v.size == 3
    assert str(u) == "[1:[]]*[]"
    assert parse_planar_word("1") == EMPTY_WORD
    assert w("[]") * w("[1:[]]") == v


def test_planar_product_is_noncommutative():
    a, b = pelt("[]"), pelt("[1:[]]")
    assert a * b != b * a
    assert (a * b).support() == [w("[]*[1:[]]")]
    assert PlanarElement.unit(1) * a == a


def test_planar_grammar_errors():
    with pytest.raises(ParseError):
        parse_planar_tree("[1:[]")
    with pytest.raises(ColourMismatchError):
        parse_planar_tree("[2:[]]", 1)
    with pytest.raises(ParseError):
        parse_planar_word("[]*")


def test_roundtrip_printing_never_sorts():
    for text in ["[1:[1:[]],1:[]]", "[1:[],1:[1:[]]]", "[1:[]]*[]", "[]*[1:[]]"]:
        assert str(parse_planar_word(text)) == text


def test_lambda_decompose_roundtrip():
    w1 = w("[]*[1:[]]", 2)
    w2 = w("[]", 2)
    t = planar_lambda([w1, w2], 2)
    assert str(t) == "[1:[],1:[1:[]],2:[]]"
    assert planar_decompose(t, 2) == (w1, w2)
    for m in range(1, 5):
        for tree in enumerate_planar_trees(2, m):
            assert planar_lambda(planar_decompose(tree, 2), 2) == tree


# ---------------------------------------------------------------------------
# enumeration against the ordered-tree oracle
# ---------------------------------------------------------------------------


def test_planar_counts_one_colour():
    counts = [len(enumerate_planar_trees(1, m)) for m in range(1, 7)]
    assert counts == [1, 1, 2, 5, 14, 42]
    assert counts == [bruteforce.count_ordered_trees(m) for m in range(1, 7)]


def test_planar_counts_two_colours():
    assert [len(enumerate_planar_trees(2, m)) for m in range(1, 5)] == [1, 2, 7, 30]


def test_planar_word_counts():
    assert [len(enumerate_planar_words(1, m)) for m in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [len(enumerate_planar_words(2, m)) for m in range(5)] == [1, 1, 3, 12, 55]
    assert len(enumerate_planar_words_up_to(1, 4)) == 1 + 1 + 2 + 5 + 14


def test_forget_is_a_surjection_on_enumerations():
    from treehopf.trees import enumerate_trees

    for m in range(1, 6):
        images = {forget_tree(t) for t in enumerate_planar_trees(1, m)}
        assert images == set(enumerate_trees(1, m))


# ---------------------------------------------------------------------------
# induced words
# ---------------------------------------------------------------------------


def test_induced_word_examples():
    host = PlanarWord.single(parse_planar_tree("[1:[1:[1:[]]]]"))
    assert str(induced_word(host, 0b1111)) == "[1:[1:[1:[]]]]"
    assert str(induced_word(host, 0b0000)) == "1"
    # skipping inner vertices contracts to shorter chains
    assert str(induced_word(host, 0b0101)) == "[1:[]]"
    assert str(induced_word(host, 0b0110)) == "[1:[]]"
    # selected vertices with no selected ancestor become word components,
    # ordered by first visit in the host traversal
    assert str(induced_word(PlanarWord.single(CHERRY), 0b110)) == "[]*[]"


def test_induced_word_keeps_sibling_order():
    host = PlanarWord.single(parse_planar_tree("[1:[1:[]],1:[]]"))
    # drop the inner vertex of the first branch: the leaf that replaces it
    # must stay *before* the second branch's leaf
    assert str(induced_word(host, 0b1101)) == "[1:[],1:[]]"
    assert str(induced_word(host, 0b1110)) == "[1:[]]*[]"


# ---------------------------------------------------------------------------
# coproduct
# ---------------------------------------------------------------------------


def test_planar_coproduct_single_edge():
    d = planar_coproduct(pelt("[1:[]]"), SYM1)
    assert d.coefficient((w("[]"), w("[]"))) == parse_coeff("q11 + q21")
    assert d.coefficient((w("1"), w("[1:[]]"))) == 1
    assert d.coefficient((w("[1:[]]"), w("1"))) == 1
    assert len(d) == 3


def test_planar_coproduct_respects_word_order():
    d = planar_coproduct(pelt("[1:[],1:[1:[]]]"), SYM1)
    # both branch roots survive: their induced order follows the host
    assert d.coefficient((w("[]*[1:[]]"), w("[]"))) == parse_coeff("q11^3")
    assert d.coefficient((w("[1:[]]*[]"), w("[]"))) == 0
    mirrored = planar_coproduct(pelt("[1:[1:[]],1:[]]"), SYM1)
    assert mirrored.coefficient((w("[1:[]]*[]"), w("[]"))) == parse_coeff("q11^3")
    assert mirrored.coefficient((w("[]*[1:[]]"), w("[]"))) == 0


def test_planar_coproduct_multiplicative_in_order():
    u, v = pelt("[1:[]]"), pelt("[]")
    assert planar_coproduct(u * v, SYM1) == planar_coproduct(u, SYM1) * planar_coproduct(v, SYM1)
    assert planar_coproduct(v * u, SYM1) == planar_coproduct(v, SYM1) * planar_coproduct(u, SYM1)


@pytest.mark.parametrize("n,deg", [(1, 5), (2, 4)])
def test_planar_coproduct_equals_closed(n, deg):
    for ctx in (HopfContext.symbolic(n), HopfContext.rational(n, [2, -3, Fraction(1, 2), 5][: 2 * n])):
        for word in enumerate_planar_words_up_to(n, deg):
            e = PlanarElement.basis(word, n)
            assert planar_coproduct(e, ctx) == planar_coproduct_closed(e, ctx), word


def test_planar_elements_scale_by_fractions():
    e = pelt("[1:[]]*[]")
    half = Fraction(1, 2)
    assert e * half == e.scale(half) == half * e
    d = planar_coproduct(e, SYM1)
    assert d * half == d.scale(half) == half * d


def test_planar_counit_laws():
    for word in enumerate_planar_words_up_to(1, 4):
        d = planar_coproduct(PlanarElement.basis(word, 1), SYM1)
        ident = PlanarElement.basis(word, 1)
        assert d.left_counit() == ident
        assert d.right_counit() == ident


def test_forget_intertwines_coproducts():
    # summing planar fibers: forgetting after Δ equals Δ after forgetting
    for n, deg in ((1, 4), (2, 3)):
        ctx = HopfContext.symbolic(n)
        for m in range(1, deg + 1):
            for pt in enumerate_planar_trees(n, m):
                e = PlanarElement.basis(PlanarWord.single(pt), n)
                lhs = forget_tensor(planar_coproduct(e, ctx))
                rhs = coproduct(forget_element(e), ctx)
                assert lhs == rhs, pt


def test_forget_word_and_element():
    assert forget_word(w("[1:[]]*[]")) == parse_forest("[]*[1:[]]")
    assert forget_element(pelt("[1:[],1:[1:[]]]") - pelt("[1:[1:[]],1:[]]")).is_zero()


@pytest.mark.parametrize(
    "route",
    [
        coproduct,
        coproduct_closed,
        ck_coproduct_oracle,
        antipode_recursive,
        antipode_partitions,
        planar_coproduct,
        planar_coproduct_closed,
        planar_antipode,
    ],
    ids=lambda route: route.__name__,
)
def test_every_route_refuses_the_other_variant(route):
    # an oracle that read a word as a forest, or a forest's sorted children
    # as a planar order, would return an answer the production route
    # refuses; the unit holds no tree whose construction could refuse it
    if route.__name__.startswith("planar_"):
        others = Element.unit(1), Element.basis(parse_forest("[1:[],1:[]]"), 1)
    else:
        others = PlanarElement.unit(1), PlanarElement.basis(PlanarWord.single(CHERRY), 1)
    for other in others:
        with pytest.raises(TypeError):
            route(other) if route is ck_coproduct_oracle else route(other, CK)


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------


def test_planar_antipode_small():
    assert planar_antipode(pelt("[]"), SYM1) == -pelt("[]")
    s = planar_antipode(pelt("[1:[]]"), SYM1)
    assert s.coefficient(w("[1:[]]")) == -1
    assert s.coefficient(w("[]*[]")) == parse_coeff("q11 + q21")


def test_planar_antipode_is_an_anti_homomorphism():
    u, v = pelt("[1:[]]"), pelt("[]")
    su = planar_antipode(u, SYM1)
    sv = planar_antipode(v, SYM1)
    assert planar_antipode(u * v, SYM1) == sv * su
    assert planar_antipode(v * u, SYM1) == su * sv


@pytest.mark.parametrize("n,deg", [(1, 5), (2, 4)])
def test_forget_intertwines_antipodes(n, deg):
    # the planar S, with the orders forgotten, is the symmetric S
    for ctx in (HopfContext.symbolic(n), HopfContext.rational(n, [2, -3, Fraction(1, 2), 5][: 2 * n])):
        for word in enumerate_planar_words_up_to(n, deg):
            e = PlanarElement.basis(word, n)
            lhs = forget_element(planar_antipode(e, ctx))
            assert lhs == antipode_recursive(forget_element(e), ctx), word


def test_planar_antipode_convolution():
    # S ⋆ id = uε holds by construction of the recursion; id ⋆ S = uε is
    # the real check
    for word in enumerate_planar_words_up_to(1, 4):
        left = PlanarElement.zero(1)
        right = PlanarElement.zero(1)
        for (l, r), c in planar_coproduct(PlanarElement.basis(word, 1), SYM1).data.items():
            left = left + (
                planar_antipode(PlanarElement.basis(l, 1), SYM1) * PlanarElement.basis(r, 1)
            ).scale(c)
            right = right + (
                PlanarElement.basis(l, 1) * planar_antipode(PlanarElement.basis(r, 1), SYM1)
            ).scale(c)
        expect = PlanarElement.unit(1) if word.is_empty() else PlanarElement.zero(1)
        assert left == expect, word
        assert right == expect, word


# ---------------------------------------------------------------------------
# the planar dual product
# ---------------------------------------------------------------------------


def test_planar_bullet_ck_examples():
    Dv = PlanarDualElement.basis(PLANAR_LEAF, 1)
    D2 = PlanarDualElement.basis(CHAIN2, 1)
    assert planar_bullet(Dv, Dv, CK) == PlanarDualElement.basis(CHAIN2, 1)
    # the first factor plays the subset role: a 2-chain above a leaf only
    # ever matches the 3-chain, never the cherry
    out = planar_bullet(D2, Dv, CK)
    assert out == PlanarDualElement.basis(CHAIN3, 1)
    out = planar_bullet(Dv, D2, CK)
    assert out.coefficient(CHAIN3) == 1
    assert out.coefficient(CHERRY) == 2
    assert len(out) == 2


def test_planar_bullet_symbolic():
    Dv = PlanarDualElement.basis(PLANAR_LEAF, 1)
    D2 = PlanarDualElement.basis(CHAIN2, 1)
    out = planar_bullet(Dv, D2, SYM1)
    assert out.coefficient(CHAIN3) == parse_coeff("q11^2 + q11*q21 + q21^2")
    assert out.coefficient(CHERRY) == parse_coeff("2*q11")
    out = planar_bullet(D2, Dv, SYM1)
    assert out.coefficient(CHAIN3) == parse_coeff("q11^2 + q11*q21 + q21^2")
    assert out.coefficient(CHERRY) == parse_coeff("2*q21")


def test_planar_bullet_budget_and_mismatch():
    Dv = PlanarDualElement.basis(PLANAR_LEAF, 1)
    big = PlanarDualElement.basis(CHAIN3, 1)
    with pytest.raises(BudgetError):
        planar_bullet(big, big, CK, budget=5)
    with pytest.raises(ColourMismatchError):
        planar_bullet(Dv, PlanarDualElement.basis(PLANAR_LEAF, 2), CK)


def test_planar_bullet_matches_coproduct_constants():
    # same duality as the symmetric case, with the first factor on the
    # left tensor leg
    for m in range(2, 5):
        for host in enumerate_planar_trees(1, m):
            d = planar_coproduct(PlanarElement.basis(PlanarWord.single(host), 1), SYM1)
            for ka in range(1, m):
                for s in enumerate_planar_trees(1, ka):
                    for t in enumerate_planar_trees(1, m - ka):
                        lhs = planar_bullet(
                            PlanarDualElement.basis(s, 1),
                            PlanarDualElement.basis(t, 1),
                            SYM1,
                        ).coefficient(host)
                        rhs = d.coefficient(
                            (PlanarWord.single(s), PlanarWord.single(t))
                        )
                        assert lhs == rhs, (host, s, t)


# ---------------------------------------------------------------------------
# axiom suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,deg", [(1, 4), (2, 3)])
def test_planar_axioms_symbolic(n, deg):
    report = verify_planar(HopfContext.symbolic(n), deg)
    assert report.passed, report.summary()
    assert [c.name for c in report.checks] == [
        "coassociativity",
        "counit laws",
        "Δ multiplicative",
        "antipode convolution",
    ]


def test_planar_axioms_at_rational_point():
    report = verify_planar(HopfContext.rational(1, (2, -1)), 4)
    assert report.passed, report.summary()
