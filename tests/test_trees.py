"""Core combinatorics: canonical trees, forests, subforests, grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from treehopf.planar import parse_planar_tree
from treehopf.prelie import parse_labelled_tree
from treehopf.trees import (
    EMPTY_FOREST,
    LEAF,
    MAX_NESTING_DEPTH,
    ColouredTree,
    ColourMismatchError,
    Forest,
    ParseError,
    Subforest,
    VertexRef,
    add_root,
    aut_order,
    canonicalize,
    decompose,
    enumerate_forests,
    enumerate_forests_up_to,
    enumerate_trees,
    indexed,
    p_count,
    p_count_within,
    parse_forest,
    parse_tree,
    subforests,
    vertices,
)

CHAIN2 = parse_tree("[1:[]]")
CHAIN3 = parse_tree("[1:[1:[]]]")
CHERRY = parse_tree("[1:[],1:[]]")


# ---------------------------------------------------------------------------
# enumeration against the independent brute-force oracle
# ---------------------------------------------------------------------------


def test_one_colour_tree_counts_frozen():
    assert [len(enumerate_trees(1, m)) for m in range(1, 9)] == [
        1, 1, 2, 4, 9, 20, 48, 115,
    ]


def test_two_colour_tree_counts_frozen():
    assert [len(enumerate_trees(2, m)) for m in range(1, 5)] == [1, 2, 7, 26]


@pytest.mark.parametrize("n,mmax", [(1, 6), (2, 4), (3, 3)])
def test_tree_counts_match_bruteforce(n, mmax):
    for m in range(1, mmax + 1):
        assert len(enumerate_trees(n, m)) == bruteforce.count_trees(n, m)


def test_enumerated_trees_are_distinct_and_sized():
    for n, m in [(1, 5), (2, 4)]:
        trees = enumerate_trees(n, m)
        assert len(set(trees)) == len(trees)
        assert all(t.size == m and t.max_colour <= n for t in trees)


def test_forest_counts():
    # multisets of trees: these follow from the tree counts via Euler
    # transform; frozen here as plain numbers
    assert [len(enumerate_forests(1, k)) for k in range(6)] == [1, 1, 2, 4, 9, 20]
    assert [len(enumerate_forests(2, k)) for k in range(5)] == [1, 1, 3, 10, 39]
    assert len(enumerate_forests_up_to(1, 5)) == 37
    assert len(enumerate_forests_up_to(2, 4)) == 54


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


def test_child_order_is_not_data():
    a = ColouredTree([(2, LEAF), (1, CHAIN2)])
    b = ColouredTree([(1, CHAIN2), (2, LEAF)])
    assert a == b and hash(a) == hash(b)
    assert str(a) == "[1:[1:[]],2:[]]"


def test_canonicalize_collapses_isomorphic_raw_trees():
    # every raw labelling of the same tree must canonicalize identically
    for n, m in [(1, 5), (2, 4)]:
        buckets = {}
        for parents, colours in bruteforce.raw_trees(n, m):
            canon = canonicalize(
                (None,) + parents, (None,) + colours, n
            )
            buckets.setdefault(bruteforce.raw_encoding(parents, colours), set()).add(canon)
        assert all(len(forms) == 1 for forms in buckets.values())
        assert len(buckets) == len(enumerate_trees(n, m))


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize([None, None], [None, 1])  # two roots
    with pytest.raises(ValueError):
        canonicalize([1, 0], [1, 1])  # cycle
    with pytest.raises(ColourMismatchError):
        canonicalize([None, 0], [None, 3], n=2)


def test_aut_order_matches_bruteforce():
    for n, m in [(1, 5), (2, 4)]:
        seen = set()
        for parents, colours in bruteforce.raw_trees(n, m):
            enc = bruteforce.raw_encoding(parents, colours)
            if enc in seen:
                continue
            seen.add(enc)
            canon = canonicalize((None,) + parents, (None,) + colours, n)
            assert aut_order(canon) == bruteforce.automorphism_count(parents, colours)


def test_aut_order_examples():
    assert aut_order(LEAF) == 1
    assert aut_order(CHERRY) == 2
    assert aut_order(parse_tree("[1:[],1:[],1:[]]")) == 6
    assert aut_order(parse_tree("[1:[],2:[]]")) == 1
    assert aut_order(parse_tree("[1:[1:[],1:[]],1:[1:[],1:[]]]")) == 8


# ---------------------------------------------------------------------------
# root constructor and slot decomposition
# ---------------------------------------------------------------------------


def test_add_root_decompose_roundtrip():
    for f in enumerate_forests_up_to(1, 3):
        slots = (f,)
        assert decompose(add_root(slots, 1), 1) == slots
    for f in enumerate_forests_up_to(2, 2):
        for g in enumerate_forests_up_to(2, 2):
            slots = (f, g)
            assert decompose(add_root(slots, 2), 2) == slots


def test_every_tree_decomposes():
    for n, m in [(1, 5), (2, 4)]:
        for t in enumerate_trees(n, m):
            slots = decompose(t, n)
            assert add_root(slots, n) == t
            assert sum(s.size for s in slots) == m - 1


def test_add_root_colour_check():
    with pytest.raises(ColourMismatchError):
        add_root([Forest.single(parse_tree("[2:[]]"))], 1)


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------


def test_forest_product_is_commutative_merge():
    f = Forest.single(CHAIN2) * Forest.single(LEAF)
    g = Forest.single(LEAF) * Forest.single(CHAIN2)
    assert f == g
    assert str(f) == "[]*[1:[]]"
    assert f * EMPTY_FOREST == f
    assert f.size == 3 and f.ntrees == 2


def test_forest_grammar_roundtrip():
    for n in (1, 2):
        for f in enumerate_forests_up_to(n, 4):
            assert parse_forest(str(f), n) == f


# ---------------------------------------------------------------------------
# subforests and induced structure
# ---------------------------------------------------------------------------


def test_subforest_counts_and_partition():
    host = parse_forest("[1:[]]*[]")
    subs = list(subforests(host))
    assert len(subs) == 2 ** 3
    for s in subs:
        assert len(s) + len(s.complement()) == 3
        assert s.complement().complement() == s


def test_induced_forest_examples():
    host = Forest.single(CHAIN3)
    top = VertexRef(0, ((1, 0), (1, 0)))
    mid = VertexRef(0, ((1, 0),))
    root = VertexRef(0, ())
    # skipping the middle vertex contracts the path to a single edge
    s = Subforest.from_refs(host, [root, top])
    assert s.induced() == Forest.single(CHAIN2)
    assert s.complement().induced() == Forest.single(LEAF)
    # the two endpoints alone form two disjoint leaves
    s = Subforest.from_refs(host, [top, root]).complement()
    assert s.induced() == Forest.single(LEAF)
    s = Subforest.from_refs(host, [mid, top])
    assert s.induced() == Forest.single(CHAIN2)


def test_induced_colour_skips_to_ancestor_edge():
    # chain with a colour change: root -1- mid -2- top
    host = Forest.single(parse_tree("[1:[2:[]]]"))
    root = VertexRef(0, ())
    top = VertexRef(0, ((1, 0), (2, 0)))
    s = Subforest.from_refs(host, [root, top])
    # the induced edge takes the colour adjacent to the ancestor: colour 1
    assert s.induced() == Forest.single(parse_tree("[1:[]]"))


def test_induced_of_full_and_empty():
    for f in enumerate_forests_up_to(2, 3):
        assert Subforest.full(f).induced() == f
        assert Subforest(f, 0).induced() == EMPTY_FOREST


def test_p_count_examples():
    host = Forest.single(CHAIN3)
    top = VertexRef(0, ((1, 0), (1, 0)))
    s = Subforest.from_refs(host, [top])
    # both path edges have their lower vertex outside the selection
    assert p_count(1, top, s) == 2
    assert p_count(2, top, s) == 0
    s2 = Subforest.from_refs(host, [VertexRef(0, ((1, 0),)), top])
    assert p_count(1, top, s2) == 1


def test_p_count_within_contracts_host_paths():
    host = Forest.single(CHAIN3)
    top = VertexRef(0, ((1, 0), (1, 0)))
    root = VertexRef(0, ())
    within = Subforest.from_refs(host, [root, top])  # induced 2-chain
    s = Subforest.from_refs(host, [top])
    # inside the induced host the contracted edge counts once
    assert p_count_within(1, top, s, within) == 1
    with pytest.raises(ValueError):
        p_count_within(1, root, s, within)  # root not selected in s


def test_vertices_enumeration():
    assert len(vertices(Forest.single(CHERRY))) == 3
    assert len(vertices(parse_forest("[]*[]*[]"))) == 3
    idx = indexed(Forest.single(CHAIN3))
    assert list(idx.parents) == [None, 0, 1]
    assert list(idx.colours) == [None, 1, 1]


# ---------------------------------------------------------------------------
# grammar details
# ---------------------------------------------------------------------------


def test_parse_tree_examples():
    assert parse_tree("[]") == LEAF
    assert parse_tree("[1:[],2:[]]") == parse_tree("[2:[],1:[]]")
    assert parse_forest("1") == EMPTY_FOREST
    assert parse_forest(" [] * [] ") == Forest([LEAF, LEAF])


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_tree("[1:[]")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_tree("[0:[]]")
    with pytest.raises(ParseError):
        parse_forest("[]*")
    with pytest.raises(ParseError):
        parse_tree("[] []")


def test_parse_error_quotes_a_bounded_excerpt():
    # a short input is quoted whole; a long one only near the position,
    # while the exception keeps the full text
    with pytest.raises(ParseError) as info:
        parse_tree("[1:[")
    assert str(info.value) == "expected an integer at position 4: '[1:['"
    text = "[1:[]" + "x" * 5000
    with pytest.raises(ParseError) as info:
        parse_tree(text)
    assert info.value.text == text and info.value.pos == 5
    message = str(info.value)
    assert "position 5" in message and len(message) < 120
    assert message.endswith("xxx'...")


def test_nesting_depth_bound():
    # a chain at the bound parses and prints back; one level more is refused
    def chain(depth):
        return "[1:" * (depth - 1) + "[]" + "]" * (depth - 1)

    def labelled(depth):
        return "(1)[" * (depth - 1) + "(1)[]" + "]" * (depth - 1)

    for parse, make in ((parse_tree, chain), (parse_planar_tree, chain),
                        (parse_labelled_tree, labelled)):
        assert str(parse(make(MAX_NESTING_DEPTH))) == make(MAX_NESTING_DEPTH)
        with pytest.raises(ParseError):
            parse(make(MAX_NESTING_DEPTH + 1))


def test_parse_colour_bound():
    # an in-grammar but out-of-range colour is a colour error, not a
    # syntax error (the CLI maps the two to different exit codes)
    with pytest.raises(ColourMismatchError):
        parse_tree("[2:[]]", n=1)
    assert parse_tree("[2:[]]", n=2) is not None


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@st.composite
def coloured_trees(draw, n=2, max_size=6):
    size = draw(st.integers(min_value=1, max_value=max_size))
    parents = [None] + [draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, size)]
    colours = [None] + [draw(st.integers(min_value=1, max_value=n)) for _ in range(1, size)]
    return canonicalize(parents, colours, n)


@given(coloured_trees())
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_print(tree):
    assert parse_tree(str(tree), 2) == tree


@given(coloured_trees(), coloured_trees())
@settings(max_examples=60, deadline=None)
def test_forest_product_commutes(a, b):
    assert Forest.single(a) * Forest.single(b) == Forest.single(b) * Forest.single(a)


@given(coloured_trees(max_size=5))
@settings(max_examples=40, deadline=None)
def test_subforest_induced_size(tree):
    host = Forest.single(tree)
    for s in subforests(host):
        ind = s.induced()
        assert ind.size == len(s)
        assert ind.max_colour <= tree.max_colour or ind.is_empty()


@given(coloured_trees(max_size=5))
@settings(max_examples=30, deadline=None)
def test_aut_order_divides_factorial_of_children(tree):
    order = aut_order(tree)
    assert order >= 1
    # the automorphism group embeds into the symmetric group on non-root
    # vertices, so its order divides (size-1)!
    import math

    assert math.factorial(max(tree.size - 1, 0)) % order == 0
