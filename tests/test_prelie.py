"""Dual functionals on trees: the dual product, grafting products,
rescaling, and the embedding into labelled trees."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehopf.algebra import Coeff, parse_coeff
from treehopf.hopf import HopfContext, _delta, coproduct_closed
from treehopf.prelie import (
    DualElement,
    LabelledTree,
    PreLieElement,
    _free_graft_everywhere,
    _graft_everywhere,
    _monomial_terms,
    _tree_terms,
    aut_rescale,
    bullet,
    bullet_prime,
    down_map,
    enumerate_labelled_trees,
    free_bullet,
    free_graft,
    lie_bracket,
    parse_labelled_tree,
    phi,
    up_map,
)
from treehopf.algebra import Element
from treehopf.planar import (
    PLANAR_LEAF,
    PlanarDualElement,
    PlanarElement,
    PlanarWord,
    enumerate_planar_trees,
    parse_planar_tree,
    planar_bullet,
    planar_coproduct_closed,
)
from treehopf.trees import (
    BudgetError,
    ColourMismatchError,
    Forest,
    canonicalize,
    _enumerate_trees,
    enumerate_trees,
    parse_tree,
)

CK = HopfContext.connes_kreimer()
SYM1 = HopfContext.symbolic(1)

LEAF = parse_tree("[]")
CHAIN2 = parse_tree("[1:[]]")
CHAIN3 = parse_tree("[1:[1:[]]]")
CHERRY = parse_tree("[1:[],1:[]]")


def dual(tree, n=1):
    return DualElement.basis(tree, n)


def duals(n, terms, cls=DualElement, parse=parse_tree):
    """The dual element Σ c·D_t of ``{tree text: coefficient text}``."""
    return cls(n, {parse(t, n): parse_coeff(c) for t, c in terms.items()})


# ---------------------------------------------------------------------------
# the dual product
# ---------------------------------------------------------------------------


def test_bullet_ck_examples():
    assert bullet(dual(LEAF), dual(LEAF), CK) == dual(CHAIN2)
    # one new vertex below each of the two: chain + both-cherry grafts
    out = bullet(dual(CHAIN2), dual(LEAF), CK)
    assert out == dual(CHAIN3) + dual(CHERRY).scale(2)
    assert bullet(dual(LEAF), dual(CHAIN2), CK) == dual(CHAIN3)
    assert str(bullet(dual(LEAF), dual(LEAF), CK)) == "D[1:[]]"


def test_bullet_symbolic_grading_and_shape():
    out = bullet(dual(LEAF), dual(LEAF), SYM1)
    assert out == DualElement(1, {CHAIN2: parse_coeff("q11 + q21")})
    for w, c in bullet(dual(CHAIN2), dual(CHAIN2), SYM1).data.items():
        assert w.size == 4
        assert not c.is_zero()


def test_bullet_budget():
    with pytest.raises(BudgetError):
        bullet(dual(CHAIN3), dual(CHAIN3), CK, budget=5)
    # explicit budget raise unlocks the same call
    assert not bullet(dual(CHAIN3), dual(CHAIN3), CK, budget=6).is_zero()


def test_bullet_colour_mismatch():
    with pytest.raises(ColourMismatchError):
        bullet(dual(LEAF, 1), dual(LEAF, 2), CK)
    with pytest.raises(ColourMismatchError):
        bullet(dual(LEAF, 2), dual(LEAF, 2), CK)


def test_bracket_orientation():
    out = lie_bracket(dual(LEAF), dual(CHAIN2), CK)
    assert out == dual(CHERRY).scale(2)
    assert lie_bracket(dual(CHAIN2), dual(LEAF), CK) == dual(CHERRY).scale(-2)
    assert lie_bracket(dual(LEAF), dual(LEAF), CK).is_zero()


def test_bracket_antisymmetry_and_jacobi():
    xs = [dual(LEAF), dual(CHAIN2), dual(CHERRY)]
    for a in xs:
        for b in xs:
            if a.data == b.data:
                continue
            lhs = lie_bracket(a, b, CK, budget=8)
            assert lhs == -lie_bracket(b, a, CK, budget=8)
    a, b, c = dual(LEAF), dual(LEAF), dual(CHAIN2)
    jac = (
        lie_bracket(a, lie_bracket(b, c, CK, 8), CK, 8)
        + lie_bracket(b, lie_bracket(c, a, CK, 8), CK, 8)
        + lie_bracket(c, lie_bracket(a, b, CK, 8), CK, 8)
    )
    assert jac.is_zero()


# ---------------------------------------------------------------------------
# the grafting product and the rescaling
# ---------------------------------------------------------------------------


def test_bullet_prime_examples():
    assert bullet_prime(dual(LEAF), dual(LEAF), {1}) == dual(CHAIN2)
    out = bullet_prime(dual(CHAIN2), dual(LEAF), {1})
    assert out == dual(CHAIN3) + dual(CHERRY)
    two = bullet_prime(dual(LEAF, 2), dual(LEAF, 2), {1, 2})
    assert two == dual(parse_tree("[1:[]]"), 2) + dual(parse_tree("[2:[]]"), 2)
    with pytest.raises(ColourMismatchError):
        bullet_prime(dual(LEAF), dual(LEAF), {2})


def _associator(prod, a, b, c):
    return prod(prod(a, b), c) - prod(a, prod(b, c))


def test_bullet_prime_is_pre_lie():
    # right-symmetric associator on a spread of triples
    trees = [LEAF, CHAIN2, CHERRY, CHAIN3]
    prod = lambda x, y: bullet_prime(x, y, {1})
    for a in trees:
        for b in trees:
            for c in trees:
                if a.size + b.size + c.size > 6:
                    continue
                lhs = _associator(prod, dual(a), dual(b), dual(c))
                rhs = _associator(prod, dual(a), dual(c), dual(b))
                assert lhs == rhs, (a, b, c)


def test_bullet_at_indicator_is_pre_lie():
    ctx = HopfContext.indicator(1, {1})
    prod = lambda x, y: bullet(x, y, ctx, budget=6)
    trees = [LEAF, CHAIN2, CHERRY]
    for a in trees:
        for b in trees:
            for c in trees:
                if a.size + b.size + c.size > 6:
                    continue
                lhs = _associator(prod, dual(a), dual(b), dual(c))
                rhs = _associator(prod, dual(a), dual(c), dual(b))
                assert lhs == rhs, (a, b, c)


def test_rescale_intertwines_the_two_products():
    # |Aut|-rescaling carries the grafting product to the dual
    # product taken at the indicator parameters of the colour set
    ctx = HopfContext.indicator(1, {1})
    for total in range(2, 6):
        for ka in range(1, total):
            for a in enumerate_trees(1, ka):
                for b in enumerate_trees(1, total - ka):
                    lhs = aut_rescale(bullet_prime(dual(a), dual(b), {1}))
                    rhs = bullet(aut_rescale(dual(a)), aut_rescale(dual(b)), ctx, budget=6)
                    assert lhs == rhs, (a, b)


def test_rescale_opposite_direction_fails():
    # rescaling the *dual* product does not give the grafting
    # product: the cherry coefficients disagree already at degree 3
    ctx = HopfContext.indicator(1, {1})
    lhs = aut_rescale(bullet(dual(CHAIN2), dual(LEAF), ctx))
    rhs = bullet_prime(aut_rescale(dual(CHAIN2)), aut_rescale(dual(LEAF)), {1})
    assert lhs != rhs
    assert lhs.coefficient(CHERRY) == 4
    assert rhs.coefficient(CHERRY) == 1


def test_rescale_two_colours_spot():
    ctx = HopfContext.indicator(2, {1, 2})
    a = dual(parse_tree("[2:[]]"), 2)
    b = dual(LEAF, 2)
    lhs = aut_rescale(bullet_prime(a, b, {1, 2}))
    rhs = bullet(aut_rescale(a), aut_rescale(b), ctx, budget=6)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# duality against the coproduct
# ---------------------------------------------------------------------------


# (trees, one-tree monomial, dual, element, oracle Δ, product, the Δ legs
# of D_t • D_s)
SYMMETRIC = (
    enumerate_trees, Forest.single, DualElement, Element, coproduct_closed, bullet,
    lambda t, s: (s, t),
)
PLANAR = (
    enumerate_planar_trees, PlanarWord.single, PlanarDualElement, PlanarElement,
    planar_coproduct_closed, planar_bullet, lambda t, s: (t, s),
)


def test_duality_pairing_symbolic():
    # the structure constant of D_w in D_t • D_s is the coefficient of
    # s ⊗ t in Δ(w) (t ⊗ s for the planar product), for every tree w up
    # to the size bound; Δ here is the vertex-subset oracle, which shares
    # no code with the production Δ the products read
    for variant, n, max_m in [(SYMMETRIC, 1, 7), (SYMMETRIC, 2, 5), (PLANAR, 1, 6), (PLANAR, 2, 5)]:
        trees, single, dual_cls, element, delta, product, legs = variant
        ctx = HopfContext.symbolic(n)
        for m in range(2, max_m + 1):
            deltas = {w: delta(element.basis(single(w), n), ctx) for w in trees(n, m)}
            for ka in range(1, m):
                for t in trees(n, ka):
                    for s in trees(n, m - ka):
                        prod = product(dual_cls.basis(t, n), dual_cls.basis(s, n), ctx, m)
                        key = tuple(map(single, legs(t, s)))
                        for w, d in deltas.items():
                            assert prod.coefficient(w) == d.coefficient(key), (n, w, t, s)


def test_dual_products_leave_the_delta_memo_alone():
    # the table holds symbolic coefficients; a product at new parameter
    # values substitutes into them and computes no Δ at those values
    x, y = dual(CHAIN2), dual(CHERRY)
    px = PlanarDualElement.basis(enumerate_planar_trees(1, 2)[0], 1)
    py = PlanarDualElement.basis(enumerate_planar_trees(1, 3)[0], 1)
    bullet(x, y, SYM1)
    planar_bullet(px, py, SYM1)
    size = _delta.cache_info().currsize
    ctx = HopfContext.rational(1, [Fraction(7, 13), Fraction(-11, 17)])
    assert not bullet(x, y, ctx).is_zero()
    assert not planar_bullet(px, py, ctx).is_zero()
    assert _delta.cache_info().currsize == size


def test_a_cold_product_builds_no_enumeration_and_no_delta():
    # the product builds its trees from the two factors: it lists no
    # trees of the target size and computes no Δ
    _tree_terms.cache_clear()
    _monomial_terms.cache_clear()
    sizes = _enumerate_trees.cache_info().currsize, _delta.cache_info().currsize
    two = HopfContext.symbolic(2)
    x, y = dual(parse_tree("[2:[1:[]]]", 2), 2), dual(parse_tree("[1:[],1:[]]", 2), 2)
    px, py = (PlanarDualElement.basis(parse_planar_tree(t, 2), 2) for t in ("[2:[1:[]]]", "[2:[]]"))
    assert not bullet(x, y, two).is_zero()
    assert not lie_bracket(x, y, two).is_zero()
    assert not planar_bullet(px, py, two).is_zero()
    assert _tree_terms.cache_info().currsize > 0
    assert (_enumerate_trees.cache_info().currsize, _delta.cache_info().currsize) == sizes


# Pins where a forest of the product's recursion repeats a tree: the
# leaves of a star and the halves of a cherry.  Each was checked against
# the vertex-subset oracle.


def test_bullet_pins_on_repeated_leaves_at_ck():
    # cutting one leaf off a 3-star leaves the cherry in three ways
    assert bullet(dual(CHERRY), dual(LEAF), CK) == duals(
        1, {"[1:[],1:[],1:[]]": "3", "[1:[],1:[1:[]]]": "1"}
    )
    assert bullet(dual(CHERRY), dual(CHERRY), CK) == duals(
        1, {"[1:[],1:[],1:[1:[],1:[]]]": "1", "[1:[],1:[1:[1:[],1:[]]]]": "1"}
    )


def test_bullet_pins_on_repeated_leaves_symbolic():
    assert bullet(dual(CHERRY), dual(LEAF), SYM1) == duals(
        1,
        {
            "[1:[],1:[],1:[]]": "3*q11",
            "[1:[],1:[1:[]]]": "q11*q21 + q11^2",
            "[1:[1:[],1:[]]]": "q11*q21^2 + q21^3",
        },
    )
    star3 = dual(parse_tree("[1:[],1:[],1:[]]"))
    assert bullet(star3, dual(LEAF), SYM1) == duals(
        1,
        {
            "[1:[],1:[],1:[],1:[]]": "4*q11",
            "[1:[],1:[],1:[1:[]]]": "q11*q21 + q11^2",
            "[1:[],1:[1:[],1:[]]]": "q11*q21^2",
            "[1:[1:[],1:[],1:[]]]": "q11*q21^3 + q21^4",
        },
    )
    # two colours: the repeated leaves hang on colour 2
    two = HopfContext.symbolic(2)
    out = bullet(dual(parse_tree("[2:[],2:[]]", 2), 2), dual(parse_tree("[1:[]]", 2), 2), two)
    assert out.coefficient(parse_tree("[1:[2:[],2:[],2:[]]]", 2)) == parse_coeff("3*q12*q21^3")
    assert out.coefficient(parse_tree("[1:[1:[]],2:[],2:[]]", 2)) == parse_coeff("q11^2")


def test_planar_bullet_pins_on_repeated_leaves():
    # a word keeps its leaves apart: the two places of the chain in a
    # 3-vertex row are two trees
    cherry = PlanarDualElement.basis(parse_planar_tree("[1:[],1:[]]"), 1)
    leaf = PlanarDualElement.basis(parse_planar_tree("[]"), 1)
    assert planar_bullet(cherry, leaf, SYM1) == duals(
        1,
        {
            "[1:[],1:[],1:[]]": "3*q21",
            "[1:[],1:[1:[]]]": "q11*q21 + q21^2",
            "[1:[1:[]],1:[]]": "q11*q21 + q21^2",
            "[1:[1:[],1:[]]]": "q11^2*q21 + q11^3",
        },
        PlanarDualElement,
        parse_planar_tree,
    )


# Beyond the exhaustive ranges of test_duality_pairing_symbolic: seeded
# draws of (variant, n, product sizes), biased to stars and to equal
# factors, whose trees repeat.
BEYOND = [(SYMMETRIC, 1, (8,)), (SYMMETRIC, 3, (4, 5)), (PLANAR, 1, (7,)), (PLANAR, 3, (4, 5))]


@cache
def _oracle_column(variant: int, n: int, m: int) -> dict:
    """Δ(w) by the vertex-subset oracle, for every tree w with m vertices."""
    trees, single, _, element, delta, _, _ = BEYOND[variant][0]
    ctx = HopfContext.symbolic(n)
    return {w: delta(element.basis(single(w), n), ctx) for w in trees(n, m)}


@st.composite
def dual_pairs(draw):
    variant = draw(st.integers(0, len(BEYOND) - 1))
    n, sizes = BEYOND[variant][1:]
    trees = BEYOND[variant][0][0]
    m = draw(st.sampled_from(sizes))
    k = draw(st.integers(1, m - 1))

    def tree(size):
        if draw(st.booleans()):  # a star: a root over repeated leaves
            leaf = trees(n, 1)[0]
            colours = draw(st.lists(st.integers(1, n), min_size=size - 1, max_size=size - 1))
            return type(leaf)((c, leaf) for c in colours)
        return draw(st.sampled_from(trees(n, size)))

    t = tree(k)
    s = t if 2 * k == m and draw(st.booleans()) else tree(m - k)
    return variant, n, t, s


@given(dual_pairs())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_dual_products_match_the_oracle_beyond_the_exhaustive_range(case):
    variant, n, t, s = case
    _, single, dual_cls, _, _, product, legs = BEYOND[variant][0]
    ctx = HopfContext.symbolic(n)
    m = t.size + s.size
    x, y = dual_cls.basis(t, n), dual_cls.basis(s, n)
    prod = product(x, y, ctx, m)
    key, swapped = (tuple(map(single, legs(*pair))) for pair in ((t, s), (s, t)))
    # the bracket [D_t, D_s] = D_s • D_t − D_t • D_s of the symmetric side
    bracket = lie_bracket(x, y, ctx, m) if product is bullet else None
    column = _oracle_column(variant, n, m)
    assert set(prod.data) <= set(column)
    for w, d in column.items():
        assert prod.coefficient(w) == d.coefficient(key), (n, w, t, s)
        if bracket is not None:
            assert bracket.coefficient(w) == d.coefficient(swapped) - d.coefficient(key)


# ---------------------------------------------------------------------------
# labelled trees
# ---------------------------------------------------------------------------


def test_labelled_tree_grammar():
    t = parse_labelled_tree("(1)[(2)[],(1)[]]")
    assert t.size == 3 and t.label == 1 and t.max_label == 2
    assert parse_labelled_tree(str(t)) == t
    assert parse_labelled_tree("(3)[]").children == ()
    # children are unordered
    assert parse_labelled_tree("(1)[(2)[],(1)[]]") == parse_labelled_tree(
        "(1)[(1)[],(2)[]]"
    )


def test_free_graft_addresses():
    t = parse_labelled_tree("(1)[(2)[]]")
    s = parse_labelled_tree("(3)[]")
    assert free_graft(t, (), s) == parse_labelled_tree("(1)[(2)[],(3)[]]")
    assert free_graft(t, (0,), s) == parse_labelled_tree("(1)[(2)[(3)[]]]")
    assert len(t.vertex_paths()) == t.size
    with pytest.raises(ValueError):
        free_graft(t, (5,), s)


def test_free_bullet_is_pre_lie():
    trees = [
        parse_labelled_tree("(1)[]"),
        parse_labelled_tree("(2)[]"),
        parse_labelled_tree("(1)[(2)[]]"),
        parse_labelled_tree("(2)[(1)[],(1)[]]"),
    ]
    mk = lambda t: PreLieElement(2, {t: Coeff.rational(1)})
    for a in trees:
        for b in trees:
            for c in trees:
                if a.size + b.size + c.size > 6:
                    continue
                lhs = _associator(free_bullet, mk(a), mk(b), mk(c))
                rhs = _associator(free_bullet, mk(a), mk(c), mk(b))
                assert lhs == rhs


def test_free_bullet_counts_vertices():
    t = parse_labelled_tree("(1)[(1)[],(1)[]]")
    s = parse_labelled_tree("(1)[]")
    out = free_bullet(PreLieElement(1, {t: 1}), PreLieElement(1, {s: 1}))
    # three host vertices, two of them symmetric
    assert sum(c.as_fraction() for c in out.data.values()) == 3
    assert len(out) == 2


# ---------------------------------------------------------------------------
# colours to labels and back
# ---------------------------------------------------------------------------


def test_up_down_roundtrip():
    for n, m in [(1, 4), (2, 3)]:
        for t in enumerate_trees(n, m):
            for j in range(1, n + 1):
                lab = up_map(j, t)
                assert down_map(lab) == (j, t)
    for lab in enumerate_labelled_trees(2, 3):
        j, t = down_map(lab)
        assert up_map(j, t) == lab


def _old_key(t):
    """The key of a labelled tree as it was built from a stored child
    tuple: the label over the sorted keys of the children."""
    return (t.label, tuple(sorted(_old_key(c) for c in t.children)))


def test_a_labelled_tree_is_its_root_label_over_a_coloured_tree():
    for m in range(1, 6):
        for t in enumerate_trees(2, m):
            for j in (1, 2):
                x = up_map(j, t)
                assert x.key == _old_key(x)
                assert down_map(x) == (j, t)
                assert parse_labelled_tree(str(x)) is x
                assert LabelledTree(x.label, x.children) is x
    with pytest.raises(TypeError):
        up_map(1, PLANAR_LEAF)


def test_a_labelled_chain_deeper_than_the_recursion_limit():
    m = 2000
    chain = canonicalize([None] + list(range(m - 1)), [None] + [2] * (m - 1))
    x = up_map(1, chain)
    assert down_map(x) == (1, chain) and x.size == m
    assert str(x) == "(1)[" + "(2)[" * (m - 1) + "]" * m
    assert phi(DualElement.basis(chain, 2)).support() == [x, up_map(2, chain)]


def test_up_map_example():
    assert up_map(2, parse_tree("[1:[]]", 2)) == parse_labelled_tree("(2)[(1)[]]")


def test_labelled_enumeration_counts():
    # one labelled tree per (root label, coloured tree)
    for n, m in [(1, 4), (2, 3), (3, 2)]:
        labs = enumerate_labelled_trees(n, m)
        assert len(labs) == n * len(enumerate_trees(n, m))
        assert len(set(labs)) == len(labs)


def test_up_map_exchanges_graft_indices():
    # summed over host vertices: ↑_j of (s grafted into t by colour i)
    # equals ↑_i(s) grafted into ↑_j(t)
    n = 2
    for t in enumerate_trees(n, 2):
        for s in enumerate_trees(n, 2):
            for i in (1, 2):
                for j in (1, 2):
                    lhs = PreLieElement(
                        n, ((up_map(j, w), 1) for w in _graft_everywhere(t, s, i))
                    )
                    rhs = PreLieElement(
                        n,
                        (
                            (w, 1)
                            for w in _free_graft_everywhere(up_map(j, t), up_map(i, s))
                        ),
                    )
                    assert lhs == rhs, (t, s, i, j)


def test_up_map_verbatim_index_order_fails():
    # keeping the graft colour on the *outer* tree instead breaks already
    # on single edges: the wrong labelled tree appears
    t = s = LEAF.recolour(lambda c: c)  # leaf over n=2
    i, j = 1, 2
    lhs = PreLieElement(2, ((up_map(j, w), 1) for w in _graft_everywhere(t, s, i)))
    wrong = PreLieElement(
        2, ((w, 1) for w in _free_graft_everywhere(up_map(i, t), up_map(j, s)))
    )
    assert lhs != wrong
    assert lhs == PreLieElement(2, {parse_labelled_tree("(2)[(1)[]]"): 1})
    assert wrong == PreLieElement(2, {parse_labelled_tree("(1)[(2)[]]"): 1})


# ---------------------------------------------------------------------------
# the embedding
# ---------------------------------------------------------------------------


def test_phi_examples():
    out = phi(DualElement.basis(CHAIN2, 2))
    assert out == PreLieElement(
        2,
        {
            parse_labelled_tree("(1)[(1)[]]"): 1,
            parse_labelled_tree("(2)[(1)[]]"): 1,
        },
    )


def test_phi_injective_with_disjoint_supports():
    for n in (1, 2):
        seen = {}
        for m in range(1, 6 - n):
            for t in enumerate_trees(n, m):
                for lab in phi(DualElement.basis(t, n)).support():
                    # each labelled tree recovers its source tree, so no
                    # two images can share a basis vector
                    assert down_map(lab)[1] == t
                    assert lab not in seen
                    seen[lab] = t


def test_phi_is_a_homomorphism():
    # grafting with the full colour set corresponds to free grafting
    for n in (1, 2):
        for ka in range(1, 4):
            for kb in range(1, 5 - ka):
                for a in enumerate_trees(n, ka):
                    for b in enumerate_trees(n, kb):
                        x, y = DualElement.basis(a, n), DualElement.basis(b, n)
                        lhs = phi(bullet_prime(x, y, range(1, n + 1)))
                        rhs = free_bullet(phi(x), phi(y))
                        assert lhs == rhs, (n, a, b)
