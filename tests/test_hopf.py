"""The coproduct family: closed and inductive forms, antipodes, the
Connes-Kreimer specialization, simplicial operators, axiom verification."""

import importlib.util
import pathlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from treehopf import hopf
from treehopf.algebra import (
    _FORESTS,
    Coeff,
    Element,
    QSpec,
    TensorElement,
    parse_coeff,
    parse_element,
    parse_tensor,
)
from treehopf.hopf import (
    CheckOutcome,
    HopfContext,
    antipode_partitions,
    antipode_recursive,
    ck_coproduct_oracle,
    coproduct,
    coproduct_closed,
    simplicial_d,
    simplicial_s,
    verify_bialgebra,
)
from treehopf.oracles import (
    IndexedForest,
    _split_table,
    _walk,
    evaluate_exponents,
    induced_structure,
)
from treehopf.planar import (
    PlanarElement,
    parse_planar_tree,
    parse_planar_word,
    planar_antipode,
    planar_coproduct,
    verify_planar,
)
from treehopf.trees import (
    ColourMismatchError,
    Forest,
    MAX_NESTING_DEPTH,
    canonicalize,
    enumerate_forests_up_to,
    enumerate_trees,
    parse_forest,
    parse_tree,
)

SYM1 = HopfContext.symbolic(1)
SYM2 = HopfContext.symbolic(2)
CK = HopfContext.connes_kreimer()


def elt(text, n=1):
    return Element(n, {parse_forest(text, n): 1})


# ---------------------------------------------------------------------------
# the q(s,t) coefficient
# ---------------------------------------------------------------------------


# vertex ids of the 3-chain, in depth-first preorder
ROOT, MID, TOP = 1 << 0, 1 << 1, 1 << 2


def q_of(forest, mask, host_mask=None, ctx=SYM1):
    """q(s, host) of the vertex subset ``mask``, the host being the
    subset ``host_mask`` (by default every vertex)."""
    idx = IndexedForest(forest.trees)
    if host_mask is None:
        host_mask = (1 << idx.nverts) - 1
    return evaluate_exponents(ctx.qspec, _walk(induced_structure(idx, host_mask), mask, host_mask))


def test_q_coeff_examples():
    host = Forest.single(parse_tree("[1:[1:[]]]"))
    # both path edges of the selected top vertex have outside lower ends
    assert q_of(host, TOP) == parse_coeff("q11^2")
    # complement vertices contribute on the q2 row
    assert q_of(host, ROOT) == parse_coeff("q21^2")
    assert q_of(host, MID) == parse_coeff("q11*q21")
    assert q_of(host, ROOT | MID | TOP) == parse_coeff("1")
    # the split table carries the same exponents, in mask order
    table = _split_table(_FORESTS, host)
    for mask in range(8):
        assert evaluate_exponents(SYM1.qspec, table[mask][2]) == q_of(host, mask)


def test_q_coeff_within_induced_host():
    host = Forest.single(parse_tree("[1:[1:[]]]"))
    within = ROOT | TOP
    # inside the contracted 2-chain the top keeps one edge below it, while
    # the complement (the root) has no path above it at all
    assert q_of(host, TOP, within) == parse_coeff("q11")
    assert q_of(host, ROOT, within) == parse_coeff("q21")


@pytest.mark.parametrize("n,mmax", [(1, 6), (2, 5)])
def test_split_exponents_match_the_literal_counts(n, mmax):
    # subset by subset: the exponent walk of the split table against the
    # oracle's root-path counts, on the same vertex numbering
    for m in range(1, mmax + 1):
        for tree in enumerate_trees(n, m):
            host = Forest.single(tree)
            idx = IndexedForest(host.trees)
            parents, colours = tuple(idx.parents[1:]), tuple(idx.colours[1:])
            for mask, (_, _, exps) in enumerate(_split_table(_FORESTS, host)):
                s = frozenset(v for v in range(m) if mask >> v & 1)
                assert exps == bruteforce.q_exponents(parents, colours, n, s), (str(tree), mask)


@pytest.mark.parametrize("n,mmax", [(1, 6), (2, 5)])
def test_coproduct_matches_the_literal_closed_formula(n, mmax):
    # the brute-force oracle reads the closed formula on raw parent arrays,
    # with its own root-path counts, induced forests and coefficient ring
    ctx = HopfContext.symbolic(n)
    for m in range(1, mmax + 1):
        seen = set()
        for parents, colours in bruteforce.raw_trees(n, m):
            enc = bruteforce.raw_encoding(parents, colours)
            if enc in seen:
                continue
            seen.add(enc)
            tree = canonicalize((None,) + parents, (None,) + colours, n)
            assert tree.key == enc
            expect = {k: v.terms for k, v in bruteforce.closed_coproduct(parents, colours, n).items()}
            elem = Element.basis(Forest.single(tree), n)
            for route in (coproduct, coproduct_closed):
                got = {
                    (l.key, r.key): bruteforce.RefPoly(dict(c.terms)).terms
                    for (l, r), c in route(elem, ctx).data.items()
                }
                assert got == expect, (route.__name__, str(tree))


# ---------------------------------------------------------------------------
# closed coproduct: frozen expansions
# ---------------------------------------------------------------------------


def test_coproduct_unit_and_leaf():
    assert coproduct(Element.unit(1), SYM1) == parse_tensor("1 ⊗ 1", 1)
    assert coproduct(elt("[]"), SYM1) == parse_tensor("[] ⊗ 1 + 1 ⊗ []", 1)


def test_coproduct_single_edge():
    d = coproduct(elt("[1:[]]"), SYM1)
    assert d == parse_tensor(
        "[1:[]] ⊗ 1 + 1 ⊗ [1:[]] + q11 [] ⊗ [] + q21 [] ⊗ []", 1
    )
    # second colour: same shape with the other parameter pair
    d2 = coproduct(elt("[2:[]]", 2), SYM2)
    assert d2 == parse_tensor(
        "[2:[]] ⊗ 1 + 1 ⊗ [2:[]] + q12 [] ⊗ [] + q22 [] ⊗ []", 2
    )


def test_coproduct_three_chain():
    d = coproduct(elt("[1:[1:[]]]"), SYM1)
    c2 = parse_forest("[1:[]]")
    lf = parse_forest("[]")
    c3 = parse_forest("[1:[1:[]]]")
    assert d.coefficient((lf, c2)) == parse_coeff("q11^2 + q11*q21 + q21^2")
    assert d.coefficient((c2, lf)) == parse_coeff("q11^2 + q11*q21 + q21^2")
    assert d.coefficient((c3, parse_forest("1"))) == 1
    assert d.coefficient((parse_forest("1"), c3)) == 1
    assert len(d) == 4


def test_coproduct_cherry():
    d = coproduct(elt("[1:[],1:[]]"), SYM1)
    ch = parse_forest("[1:[],1:[]]")
    assert d.coefficient((parse_forest("[]"), parse_forest("[1:[]]"))) == parse_coeff("2*q11")
    assert d.coefficient((parse_forest("[1:[]]"), parse_forest("[]"))) == parse_coeff("2*q21")
    assert d.coefficient((parse_forest("[]"), parse_forest("[]*[]"))) == parse_coeff("q21^2")
    assert d.coefficient((parse_forest("[]*[]"), parse_forest("[]"))) == parse_coeff("q11^2")
    assert d.coefficient((ch, parse_forest("1"))) == 1
    assert len(d) == 6


def test_coproduct_two_colours():
    d = coproduct(elt("[1:[],2:[]]", 2), SYM2)
    f = lambda t: parse_forest(t, 2)
    assert d.coefficient((f("[]"), f("[]*[]"))) == parse_coeff("q21*q22")
    assert d.coefficient((f("[]"), f("[2:[]]"))) == parse_coeff("q11")
    assert d.coefficient((f("[]"), f("[1:[]]"))) == parse_coeff("q12")
    assert d.coefficient((f("[1:[]]"), f("[]"))) == parse_coeff("q22")
    assert d.coefficient((f("[2:[]]"), f("[]"))) == parse_coeff("q21")
    assert d.coefficient((f("[]*[]"), f("[]"))) == parse_coeff("q11*q12")
    assert len(d) == 8


def test_coproduct_is_multiplicative_on_forests():
    for n, ctx in ((1, SYM1), (2, SYM2)):
        for f in enumerate_forests_up_to(n, 2):
            for g in enumerate_forests_up_to(n, 2):
                lhs = coproduct(Element(n, {f * g: 1}), ctx)
                rhs = coproduct(Element(n, {f: 1}), ctx) * coproduct(
                    Element(n, {g: 1}), ctx
                )
                assert lhs == rhs


def test_coproduct_grading():
    for f in enumerate_forests_up_to(2, 4):
        for (l, r), c in coproduct(Element(2, {f: 1}), SYM2).data.items():
            assert l.size + r.size == f.size


def _depth_sum(tree):
    """The sum of the depths of the vertices of ``tree``, the root at 0."""
    return sum(_depth_sum(child) + child.size for _, child in tree.children)


def _random_tree_text(rng, m, n):
    parents = [None] + [rng.randrange(v) for v in range(1, m)]
    kids = [[] for _ in range(m)]
    for v in range(1, m):
        kids[parents[v]].append(v)

    def text(v):
        return "[" + ",".join(f"{rng.randint(1, n)}:{text(u)}" for u in kids[v]) + "]"

    return text(0)


@pytest.mark.parametrize(
    "planar,n,sizes", [(False, 1, (9, 12)), (False, 2, (9, 11)), (True, 2, (8, 10))]
)
def test_coproduct_is_graded_by_depth(planar, n, sizes):
    # a vertex's depth in t counts its ancestors: those on its side of the
    # split make its depth in its leg, the others its share of the degree
    # of q(s, t); so the coefficient of l ⊗ r is homogeneous of degree
    # D(t) − D(l) − D(r), checked on random trees past the 2^|V| oracles
    rng = random.Random(n + 2 * planar)
    parse, route, element = (
        (parse_planar_tree, planar_coproduct, PlanarElement)
        if planar
        else (parse_tree, coproduct, Element)
    )
    depth = lambda mono: sum(map(_depth_sum, mono.trees))
    for m in [size for size in range(sizes[0], sizes[1] + 1) for _ in range(3)]:
        tree = parse(_random_tree_text(rng, m, n), n)
        mono = element._key_type.single(tree)
        for (l, r), c in route(element.basis(mono, n), HopfContext.symbolic(n)).data.items():
            degree = depth(mono) - depth(l) - depth(r)
            assert {sum(e for _, e in pairs) for pairs, _ in c.terms} == {degree}, str(tree)


def test_cocommutative_when_rows_tie():
    tied = HopfContext(QSpec.symmetric_symbolic(2))
    for f in enumerate_forests_up_to(2, 4):
        d = coproduct(Element(2, {f: 1}), tied)
        assert d.swap() == d


def test_coproduct_rejects_colour_mismatch():
    with pytest.raises(ColourMismatchError):
        coproduct(elt("[1:[]]", 1), SYM2)


# ---------------------------------------------------------------------------
# inductive route agrees with the closed route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,deg", [(1, 4), (2, 3)])
def test_closed_equals_inductive(n, deg):
    ctx = HopfContext.symbolic(n)
    for f in enumerate_forests_up_to(n, deg):
        e = Element(n, {f: 1})
        assert coproduct(e, ctx) == coproduct_closed(e, ctx)


@st.composite
def forests_and_points(draw):
    """A combination of one or two random forests with at most 8 vertices in
    all, at n in {1, 2}, with a symbolic or a random rational point."""
    n = draw(st.sampled_from([1, 2]))
    budget = 8
    forests = []
    for _ in range(draw(st.integers(1, 2))):
        trees = []
        while budget and (not trees or draw(st.booleans())):
            size = draw(st.integers(1, budget))
            budget -= size
            parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, size)]
            colours = [None] + [draw(st.integers(1, n)) for _ in range(1, size)]
            trees.append(canonicalize(parents, colours, n))
        forests.append((Forest(trees), draw(st.integers(-3, 3))))
    return Element(n, forests), draw_point(draw, n)


def draw_point(draw, n):
    """The symbolic point or a random rational one, over n colours."""
    if draw(st.booleans()):
        return HopfContext.symbolic(n)
    values = draw(
        st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return HopfContext.rational(n, values)


@given(forests_and_points())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_coproduct_equals_closed_on_random_forests(case):
    e, ctx = case
    assert coproduct(e, ctx) == coproduct_closed(e, ctx)


# ---------------------------------------------------------------------------
# Connes-Kreimer specialization against the independent cut oracle
# ---------------------------------------------------------------------------


def test_ck_oracle_examples():
    assert ck_coproduct_oracle(elt("[]")) == parse_tensor("[] ⊗ 1 + 1 ⊗ []", 1)
    assert ck_coproduct_oracle(elt("[1:[]]")) == parse_tensor(
        "[1:[]] ⊗ 1 + 1 ⊗ [1:[]] + [] ⊗ []", 1
    )
    d = ck_coproduct_oracle(elt("[1:[1:[]]]"))
    assert d.coefficient((parse_forest("[]"), parse_forest("[1:[]]"))) == 1
    assert d.coefficient((parse_forest("[1:[]]"), parse_forest("[]"))) == 1
    assert d.coefficient((parse_forest("[]*[]"), parse_forest("[]"))) == 0


def test_ck_specialization_matches_oracle():
    for f in enumerate_forests_up_to(1, 4):
        e = Element(1, {f: 1})
        assert coproduct(e, CK) == ck_coproduct_oracle(e)


# the deepest chain the parser accepts also exercises Δ's recursion through
# its memo wrapper
@pytest.mark.parametrize("m", [16, 24, MAX_NESTING_DEPTH])
def test_ck_specialization_on_large_chains_and_stars(m):
    chain = elt("[1:" * (m - 1) + "[]" + "]" * (m - 1))
    assert coproduct(chain, CK) == ck_coproduct_oracle(chain)
    # the cut oracle visits all 2^(m-1) edge subsets of a star, so past 16
    # vertices the star is pinned by its binomial expansion instead
    leaves = m - 1
    star = parse_tree("[" + ",".join(["1:[]"] * leaves) + "]")
    expect = {(Forest.single(star), Forest()): 1}
    for j in range(leaves + 1):
        trunk = parse_tree("[" + ",".join(["1:[]"] * (leaves - j)) + "]")
        expect[(Forest([parse_tree("[]")] * j), Forest.single(trunk))] = comb(leaves, j)
    delta = coproduct(Element.basis(Forest.single(star), 1), CK)
    assert delta == TensorElement(1, expect)
    if m <= 16:
        assert delta == ck_coproduct_oracle(Element.basis(Forest.single(star), 1))


def test_ck_oracle_requires_one_colour():
    with pytest.raises(ColourMismatchError):
        ck_coproduct_oracle(elt("[2:[]]", 2))


# ---------------------------------------------------------------------------
# antipodes
# ---------------------------------------------------------------------------


def test_antipode_small_cases():
    assert antipode_recursive(Element.unit(1), SYM1) == Element.unit(1)
    assert antipode_recursive(elt("[]"), SYM1) == parse_element("-[]", 1)
    s = antipode_recursive(elt("[1:[]]"), SYM1)
    assert s == parse_element("-[1:[]] + q11 []*[] + q21 []*[]", 1)


def test_antipode_is_an_algebra_morphism_on_products():
    # S(fg) = S(f)S(g) in the commutative case
    f, g = elt("[1:[]]"), elt("[]")
    assert antipode_recursive(f * g, SYM1) == antipode_recursive(
        f, SYM1
    ) * antipode_recursive(g, SYM1)


@pytest.mark.parametrize("n,deg", [(1, 4), (2, 3)])
def test_antipode_routes_agree(n, deg):
    ctx = HopfContext.symbolic(n)
    for f in enumerate_forests_up_to(n, deg):
        e = Element(n, {f: 1})
        assert antipode_recursive(e, ctx) == antipode_partitions(e, ctx)


@pytest.mark.parametrize("n,deg", [(1, 4), (2, 3)])
def test_antipode_convolution_identity(n, deg):
    # S ⋆ id = uε holds by construction of the recursion; id ⋆ S = uε is
    # the real check (a left inverse that is also a right inverse)
    ctx = HopfContext.symbolic(n)
    for f in enumerate_forests_up_to(n, deg):
        left = Element.zero(n)
        right = Element.zero(n)
        for (l, r), c in coproduct(Element(n, {f: 1}), ctx).data.items():
            left = left + (antipode_recursive(Element(n, {l: 1}), ctx) * Element(n, {r: 1})).scale(c)
            right = right + (Element(n, {l: 1}) * antipode_recursive(Element(n, {r: 1}), ctx)).scale(c)
        expect = Element.unit(n) if f.is_empty() else Element.zero(n)
        assert left == expect
        assert right == expect


@st.composite
def mid_forests_and_points(draw):
    """One random tree or forest with 5 to 7 vertices, at n in {1, 2},
    with a symbolic or a random rational point."""
    n = draw(st.sampled_from([1, 2]))
    budget = draw(st.integers(5, 7))
    trees = []
    while budget:
        size = budget if not trees and draw(st.booleans()) else draw(st.integers(1, budget))
        budget -= size
        parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, size)]
        colours = [None] + [draw(st.integers(1, n)) for _ in range(1, size)]
        trees.append(canonicalize(parents, colours, n))
    return Element.basis(Forest(trees), n), draw_point(draw, n)


@given(mid_forests_and_points())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_antipode_equals_partitions_on_random_forests(case):
    e, ctx = case
    assert antipode_recursive(e, ctx) == antipode_partitions(e, ctx)


def test_antipode_ck_three_chain():
    # classic alternating-forest expansion at the CK point
    s = antipode_recursive(elt("[1:[1:[]]]"), CK)
    assert s == parse_element("-[1:[1:[]]] + 2 [1:[]]*[] - []*[]*[]", 1)


@pytest.mark.parametrize("m", [16, 20])
def test_antipode_ck_chains_by_compositions(m):
    # S(ℓ_m) = Σ over compositions (c_1..c_k) of m of (−1)^k ℓ_{c_1}⋯ℓ_{c_k},
    # summed by the first part: E_j = −Σ_c ℓ_c·E_{j−c}, E_0 = 1
    ladder = [None] + [elt("[1:" * (c - 1) + "[]" + "]" * (c - 1)) for c in range(1, m + 1)]
    comps = [Element.unit(1)]
    for j in range(1, m + 1):
        comps.append(-sum((ladder[c] * comps[j - c] for c in range(1, j + 1)), Element.zero(1)))
    assert antipode_recursive(ladder[m], CK) == comps[m]


# the tree at index ⌊N/3⌋ of enumerate_trees(1, m), for m = 8, 12, 14
BUSHY = [
    "[1:[],1:[1:[1:[]],1:[1:[1:[]]]]]",
    "[1:[],1:[1:[1:[],1:[1:[],1:[],1:[1:[]],1:[1:[]]]]]]",
    "[1:[],1:[1:[1:[],1:[1:[1:[],1:[1:[],1:[],1:[1:[],1:[]]]]]]]]",
]


def test_ck_antipode_matches_the_cut_formula():
    # the cancellation-free sum over edge cuts, on raw parent arrays: every
    # tree with up to 7 vertices, then bushy trees past the partition oracle
    trees = [tree for m in range(1, 8) for tree in enumerate_trees(1, m)]
    trees += [parse_tree(text) for text in BUSHY]
    for tree in trees:
        idx = IndexedForest((tree,))
        expect = bruteforce.ck_antipode(tuple(idx.parents[1:]), tuple(idx.colours[1:]))
        got = antipode_recursive(Element.basis(Forest.single(tree), 1), CK)
        assert {f.key: c.as_fraction() for f, c in got.data.items()} == expect, str(tree)


@pytest.mark.parametrize(
    "ctx",
    [CK, HopfContext.rational(1, (2, -3)), HopfContext.rational(1, (Fraction(1, 2), Fraction(3, 2)))],
    ids=["ck", "integer", "fraction"],
)
def test_numeric_points_hand_out_canonical_coefficients(ctx):
    # the engine computes on plain numbers at a constant point; every
    # container it hands out holds Coeff values in canonical form (at the
    # fractional point some sums of Fractions are integers)
    a = parse_element("[1:[1:[]],1:[]]*[] + [1:[],1:[],1:[]] + 2 [1:[]] - 3/2 [] + 1", 1)
    word = PlanarElement.basis(parse_planar_word("[1:[],1:[1:[]]]*[]", 1), 1)
    results = [
        coproduct(a, ctx),
        antipode_recursive(a, ctx),
        antipode_recursive(a, ctx, coproduct_fn=lambda e: coproduct(e, ctx)),
        planar_coproduct(word, ctx),
        planar_antipode(word, ctx),
        planar_coproduct(word.scale(Fraction(2, 3)), ctx),
    ]
    for result in results:
        assert result.data
        for key, c in result.data.items():
            assert isinstance(c, Coeff) and result.coefficient(key) is c
            [(mono, value)] = c.terms
            assert mono == () and type(value) is (int if value.denominator == 1 else Fraction)


def _ungraded(ctx):
    """Δ plus f ⊗ [] for every forest f with 2 vertices: not graded."""
    extra = {
        (f, parse_forest("[]")): 1 for f in enumerate_forests_up_to(ctx.n, 2) if f.size == 2
    }
    return lambda e: coproduct(e, ctx) + TensorElement(ctx.n, extra)


def test_antipode_rejects_an_ungraded_coproduct():
    with pytest.raises(ValueError, match="not graded"):
        antipode_recursive(elt("[1:[]]"), SYM1, coproduct_fn=_ungraded(SYM1))


def test_a_warm_memo_lookup_hashes_no_coefficient(monkeypatch):
    # the memos of Δ and S are keyed on the parameter point; its hash is
    # computed once, not from its 2n entries on every lookup
    ctx = HopfContext.symbolic(2)
    a = parse_element("[1:[],2:[1:[]]] * []", 2)
    delta, s = coproduct(a, ctx), antipode_recursive(a, ctx)
    calls = []
    unpatched = Coeff.__hash__
    monkeypatch.setattr(Coeff, "__hash__", lambda c: calls.append(c) or unpatched(c))
    assert coproduct(a, ctx) == delta and antipode_recursive(a, ctx) == s
    assert calls == []
    assert hash(Coeff.rational(3)) == unpatched(Coeff.rational(3)) and len(calls) == 1


# ---------------------------------------------------------------------------
# simplicial operators
# ---------------------------------------------------------------------------


def test_face_map_examples():
    # d_i for 0 < i < n merges colours i and i+1
    out = simplicial_d(1, elt("[1:[],2:[]]", 2))
    assert out == Element(1, {parse_forest("[1:[],1:[]]"): 1})
    # d_0 severs colour-1 edges and shifts the remaining colours down
    out = simplicial_d(0, elt("[1:[]]", 1))
    assert out == Element(0, {parse_forest("[]*[]"): 1})
    out = simplicial_d(0, elt("[1:[],2:[]]", 2))
    assert out == Element(1, {parse_forest("[]*[1:[]]"): 1})
    # d_n severs colour-n edges
    out = simplicial_d(2, elt("[1:[],2:[]]", 2))
    assert out == Element(1, {parse_forest("[]*[1:[]]"): 1})


def test_degeneracy_examples():
    assert simplicial_s(0, elt("[1:[]]", 1)) == Element(2, {parse_forest("[2:[]]", 2): 1})
    assert simplicial_s(1, elt("[1:[]]", 1)) == Element(2, {parse_forest("[1:[]]", 2): 1})


def test_face_indices_validated():
    with pytest.raises(ValueError):
        simplicial_d(3, elt("[1:[]]", 2))
    with pytest.raises(ValueError):
        simplicial_d(-1, elt("[1:[]]", 1))
    with pytest.raises(ValueError):
        simplicial_s(2, elt("[1:[]]", 1))


def _basis_elements(n, max_size):
    out = []
    for m in range(1, max_size + 1):
        for t in enumerate_trees(n, m):
            out.append(Element(n, {Forest.single(t): 1}))
    return out


def test_simplicial_face_face_identities():
    # d_i d_j = d_{j-1} d_i for i < j, composing C_n -> C_{n-2}
    for n in (2, 3):
        for e in _basis_elements(n, 4):
            for j in range(n + 1):
                for i in range(j):
                    lhs = simplicial_d(i, simplicial_d(j, e))
                    rhs = simplicial_d(j - 1, simplicial_d(i, e))
                    assert lhs == rhs, (n, i, j, str(e))


def test_simplicial_degeneracy_identities():
    # s_i s_j = s_{j+1} s_i for i <= j
    for n in (1, 2, 3):
        for e in _basis_elements(n, 4):
            for j in range(n + 1):
                for i in range(j + 1):
                    lhs = simplicial_s(i, simplicial_s(j, e))
                    rhs = simplicial_s(j + 1, simplicial_s(i, e))
                    assert lhs == rhs, (n, i, j, str(e))


def test_simplicial_mixed_identities():
    for n in (1, 2, 3):
        for e in _basis_elements(n, 4):
            for j in range(n + 1):
                for i in range(n + 2):
                    image = simplicial_s(j, e)  # lives over n + 1
                    out = simplicial_d(i, image)
                    if i == j or i == j + 1:
                        assert out == e, (n, i, j, str(e))
                    elif i < j:
                        assert out == simplicial_s(j - 1, simplicial_d(i, e))
                    else:
                        assert out == simplicial_s(j, simplicial_d(i - 1, e))


# ---------------------------------------------------------------------------
# the verification harness
# ---------------------------------------------------------------------------


def test_verify_passes_symbolically():
    report = verify_bialgebra(SYM1, 4)
    assert report.passed, report.summary()
    assert len(report.checks) == 6
    assert all("PASS" in c.line() for c in report.checks)


def test_verify_summary_mentions_scale():
    report = verify_bialgebra(HopfContext.rational(1, (2, 3)), 3)
    assert report.passed
    assert "n=1" in report.summary() and "ALL PASSED" in report.summary()


def test_verify_detects_a_broken_coproduct():
    # corrupt the coproduct on degree-3 forests only: coassociativity
    # pairs degree 3 against lower degrees and must notice
    wrong = HopfContext.rational(1, (1, 1))

    def corrupt(e):
        out = TensorElement.zero(1)
        for f, c in e.data.items():
            ctx = wrong if f.size == 3 else SYM1
            out = out + coproduct(Element(1, {f: 1}), ctx).scale(c)
        return out

    report = verify_bialgebra(SYM1, 4, coproduct_fn=corrupt)
    assert not report.passed
    failed = report.first_failure
    assert failed is not None and failed.name == "coassociativity"


def test_verify_pins_every_outcome_of_a_doubled_coproduct():
    # 2Δ is still coassociative; every other check fails, on its first case;
    # at a rational point the substituted Δ's Coeff values meet the plain
    # numbers of the engine's antipode and σ weights
    for ctx in (HopfContext.symbolic(2), HopfContext.rational(2, (Fraction(1, 2), 2, -1, 3))):
        report = verify_bialgebra(ctx, 2, coproduct_fn=lambda e: coproduct(e, ctx).scale(2))
        assert report.checks == [
            CheckOutcome("coassociativity", 5, None),
            CheckOutcome("counit laws", 5, "counit law fails on 1"),
            CheckOutcome("Δ multiplicative", 6, "Δ(1·1) ≠ Δ(1)·Δ(1)"),
            CheckOutcome("σ compatibility", 3, "Δ∘σ_1 condition fails on ('1', '1')"),
            CheckOutcome("root-constructor square", 3, "Δ∘λ square fails on ('1', '1')"),
            CheckOutcome("antipode convolution", 5, "S*id = id*S = uε fails on 1"),
        ]


def test_verify_reports_a_sigma_off_the_counit(monkeypatch):
    # a σ that sends every slot tuple to the unit breaks ε∘σ = ε^⊗n on the
    # first nonempty tuple
    monkeypatch.setattr(hopf, "sigma", lambda side, qspec, slots: Element.unit(qspec.n))
    outcome = {c.name: c for c in verify_bialgebra(SYM1, 2).checks}["σ compatibility"]
    assert outcome == CheckOutcome("σ compatibility", 2, "ε∘σ_1 ≠ ε^⊗n on ('[]',)")


def test_verify_samples_the_slot_tuples_in_product_order():
    # Δ at other parameter values is a bialgebra, but not the root square
    # of these; the sampled tuple it fails on pins the order of the list
    # the sample is drawn from
    ctx = HopfContext.symbolic(3)
    other = HopfContext.rational(3, [1] * 6)
    report = verify_bialgebra(
        ctx, 4, coproduct_fn=lambda e: coproduct(e, other), max_cases=5
    )
    assert report.first_failure == CheckOutcome(
        "root-constructor square", 5, "Δ∘λ square fails on ('1', '1', '[]*[1:[]]')"
    )


def test_verify_reports_an_ungraded_coproduct():
    # the antipode recursion would not terminate; the check fails instead
    report = verify_bialgebra(SYM1, 2, coproduct_fn=_ungraded(SYM1))
    outcome = {c.name: c for c in report.checks}["antipode convolution"]
    assert not outcome.passed
    assert "not graded" in outcome.failure


def test_verify_sampling_is_deterministic():
    a = verify_bialgebra(SYM1, 4, max_cases=5, seed=11)
    b = verify_bialgebra(SYM1, 4, max_cases=5, seed=11)
    assert [c.cases for c in a.checks] == [c.cases for c in b.checks]
    assert a.passed and b.passed


@pytest.mark.parametrize("max_cases", [0, -1])
def test_verify_refuses_a_case_cap_below_one(max_cases):
    # a cap of 0 would pass every check over no cases
    for verify in (verify_bialgebra, verify_planar):
        with pytest.raises(ValueError, match="max_cases"):
            verify(SYM1, 2, max_cases=max_cases)
    assert verify_bialgebra(SYM1, 2, max_cases=1).passed


def test_verify_refuses_a_negative_max_degree():
    # below 0 every check would pass over no cases; degree 0 is the unit
    for verify in (verify_bialgebra, verify_planar):
        with pytest.raises(ValueError, match="max_degree"):
            verify(SYM1, -1)
        report = verify(SYM1, 0)
        assert report.passed and report.checks[0].cases == 1


def test_verify_family_script_sweeps_a_small_grid():
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "verify_family.py"
    spec = importlib.util.spec_from_file_location("verify_family", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    argv = ["--n", "1", "--max-degree", "2", "--planar-max-degree", "2", "--grid", "0", "1"]
    assert script.main(argv) == 0


# ---------------------------------------------------------------------------
# properties at random rational points
# ---------------------------------------------------------------------------


@st.composite
def rational_contexts(draw):
    vals = [
        draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        for _ in range(2)
    ]
    return HopfContext.rational(1, vals)


@given(rational_contexts())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_coassociativity_at_random_points(ctx):
    for f in enumerate_forests_up_to(1, 3):
        d = coproduct(Element(1, {f: 1}), ctx)
        left = {}
        right = {}
        for (l, r), c in d.data.items():
            for (x, y), e in coproduct(Element(1, {l: 1}), ctx).data.items():
                key = (x, y, r)
                left[key] = left.get(key, Coeff.rational(0)) + c * e
            for (x, y), e in coproduct(Element(1, {r: 1}), ctx).data.items():
                key = (l, x, y)
                right[key] = right.get(key, Coeff.rational(0)) + c * e
        assert {k: v for k, v in left.items() if not v.is_zero()} == {
            k: v for k, v in right.items() if not v.is_zero()
        }
