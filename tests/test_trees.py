"""Core combinatorics: canonical trees, forests, vertex subsets, grammar."""

import importlib.util
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from treehopf.algebra import _FORESTS, Element
from treehopf.hopf import simplicial_d, simplicial_s
from treehopf.oracles import (
    IndexedForest,
    _induced_monomial,
    _split_table,
    _walk,
    induced_structure,
)
from treehopf.planar import (
    EMPTY_WORD,
    PLANAR_LEAF,
    PlanarTree,
    PlanarWord,
    enumerate_planar_trees,
    forget_tree,
    enumerate_planar_words,
    parse_planar_tree,
    planar_lambda,
)
from treehopf.prelie import parse_labelled_tree
from treehopf.trees import (
    EMPTY_FOREST,
    LEAF,
    MAX_NESTING_DEPTH,
    ColouredTree,
    ColourMismatchError,
    Forest,
    ParseError,
    _compositions,
    _enumerate_monomials,
    _enumerate_trees,
    _lam,
    add_root,
    aut_order,
    basis_counts,
    canonicalize,
    decompose,
    enumerate_forests,
    enumerate_forests_up_to,
    enumerate_trees,
    parse_forest,
    parse_tree,
)

CHAIN2 = parse_tree("[1:[]]")
CHAIN3 = parse_tree("[1:[1:[]]]")
CHERRY = parse_tree("[1:[],1:[]]")
# vertex ids of CHAIN3, in depth-first preorder
ROOT, MID, TOP = 1 << 0, 1 << 1, 1 << 2


def index(forest):
    return IndexedForest(forest.trees)


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


@pytest.mark.parametrize("n", range(4))
def test_basis_counts_match_the_enumerations(n):
    # counted without listing, for both variants, up to 7 vertices
    for monomial, trees, monomials in (
        (Forest, enumerate_trees, enumerate_forests),
        (PlanarWord, enumerate_planar_trees, enumerate_planar_words),
    ):
        tree_counts, monomial_counts = basis_counts(monomial, n, 7)
        assert tree_counts == (0,) + tuple(len(trees(n, m)) for m in range(1, 8))
        assert monomial_counts == tuple(len(monomials(n, k)) for k in range(8))


def test_basis_counts_rejects_a_negative_n():
    with pytest.raises(ValueError):
        basis_counts(Forest, -1, 3)


def test_tree_counts_script_tabulates_the_four_bases(capsys):
    path = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "tree_counts.py"
    spec = importlib.util.spec_from_file_location("tree_counts", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--max-n", "2", "--max-size", "4", "--planar-max-size", "3"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [r for r in rows if r and r[0].isdigit()] == [
        # trees, forests, planar trees, planar words; rows n = 1, 2
        "1 1 1 2 4".split(), "2 1 2 7 26".split(),
        "1 1 2 4 9".split(), "2 1 3 10 39".split(),
        "1 1 1 2".split(), "2 1 2 7".split(),
        "1 1 2 5".split(), "2 1 3 12".split(),
    ]


@pytest.mark.parametrize("n,mmax", [(1, 6), (2, 4)])
def test_tree_enumeration_order_matches_the_reference(n, mmax):
    # both listings are sorted by key; the planar key groups the children
    # per colour, so a flat key would reorder planar output
    for m in range(1, mmax + 1):
        assert [t.key for t in enumerate_trees(n, m)] == bruteforce.tree_keys(n, m)
        assert [t.key for t in enumerate_planar_trees(n, m)] == bruteforce.tree_keys(
            n, m, planar=True
        )


@pytest.mark.parametrize("n,mmax", [(1, 6), (2, 4)])
def test_monomial_enumeration_order_matches_the_reference(n, mmax):
    forest_trees = {m: enumerate_trees(n, m) for m in range(1, mmax + 1)}
    word_trees = {m: enumerate_planar_trees(n, m) for m in range(1, mmax + 1)}
    key = lambda t: t.key
    for total in range(mmax + 1):
        forests = bruteforce.monomials_in_order(forest_trees, key, total, commutative=True)
        words = bruteforce.monomials_in_order(word_trees, key, total, commutative=False)
        assert [f.trees for f in enumerate_forests(n, total)] == forests
        assert [w.trees for w in enumerate_planar_words(n, total)] == words


def test_compositions_follow_the_recursive_order():
    # enumeration order rests on it; the library places bars, not recursion
    for total in range(7):
        for parts in range(5):
            assert list(_compositions(total, parts)) == list(
                bruteforce.compositions(total, parts)
            )


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


def test_canonicalize_builds_a_deep_chain_without_recursion():
    m = 2000
    tree = canonicalize([None] + list(range(m - 1)), [None] + [1] * (m - 1))
    assert tree.size == m and tree.max_colour == 1
    # walked by a loop, as the tree is deeper than the recursion limit
    depth = 0
    while tree.children:
        tree = tree.children[0][1]
        depth += 1
    assert depth == m - 1


def _chain(m, colour):
    """The m-vertex chain with every edge of the given colour."""
    return canonicalize([None] + list(range(m - 1)), [None] + [colour] * (m - 1))


def test_a_chain_deeper_than_the_recursion_limit_prints():
    # the text is built bottom-up from a stack, not by recursion
    m = 2000
    text = str(_chain(m, 3))
    assert len(text) == 4 * (m - 1) + 2
    assert text == "[3:" * (m - 1) + "[]" + "]" * (m - 1)


def test_a_deep_tree_over_n_raises_the_colour_error_that_names_it():
    # the error message prints the forest, which must not recurse either
    t = ColouredTree([(2, _chain(2000, 1))])
    with pytest.raises(ColourMismatchError, match=r"^forest \[2:\[1:\[1:"):
        Element(1, {Forest([t]): 1})


def test_a_chain_deeper_than_the_recursion_limit_is_recoloured():
    # recolour and forget_tree rebuild children first from one worklist
    m = 2000
    chain1, chain2 = _chain(m, 1), _chain(m, 2)
    assert chain1.recolour(lambda c: c + 1) is chain2
    basis = lambda t, n: Element.basis(Forest.single(t), n)
    assert simplicial_s(0, basis(chain1, 1)) == basis(chain2, 2)
    assert simplicial_d(1, basis(chain2, 2)) == basis(chain1, 1)
    planar = PLANAR_LEAF
    for _ in range(m - 1):
        planar = PlanarTree([(1, planar)])
    assert forget_tree(planar) is chain1


def test_a_chain_deeper_than_the_recursion_limit_has_faces_and_automorphisms():
    # aut_order and the severing faces d_0 and d_n build children first
    # from one worklist; paths is read off the children's stored fields
    m = 2000
    chain1, chain2 = _chain(m, 1), _chain(m, 2)
    assert aut_order(chain1) == 1
    assert aut_order(ColouredTree([(1, chain1), (1, chain1)])) == 2
    assert chain1.paths == m * (m - 1) // 2 and Forest([chain1, chain2]).paths == m * (m - 1)
    basis = lambda trees, n: Element.basis(Forest(trees), n)
    assert simplicial_d(0, basis([chain2], 2)) == basis([chain1], 1)
    assert simplicial_d(2, basis([chain1], 2)) == basis([chain1], 1)
    assert simplicial_d(2, basis([chain2], 2)) == basis([LEAF] * m, 1)


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


def test_root_constructor_slots_are_type_checked():
    with pytest.raises(TypeError, match="slots must be Forest instances"):
        add_root([EMPTY_FOREST, PlanarWord.single(PLANAR_LEAF)], 2)
    with pytest.raises(TypeError, match="slots must be PlanarWord instances"):
        planar_lambda([Forest.single(LEAF)], 1)


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------


def test_forest_product_is_commutative_merge():
    f = Forest.single(CHAIN2) * Forest.single(LEAF)
    g = Forest.single(LEAF) * Forest.single(CHAIN2)
    assert f == g
    assert str(f) == "[]*[1:[]]"
    assert f * EMPTY_FOREST == f
    assert f.size == 3 and len(f.trees) == 2


def test_forest_grammar_roundtrip():
    for n in (1, 2):
        for f in enumerate_forests_up_to(n, 4):
            assert parse_forest(str(f), n) == f


# ---------------------------------------------------------------------------
# vertex subsets and induced structure
# ---------------------------------------------------------------------------


def test_subforest_counts_and_partition():
    host = parse_forest("[1:[]]*[]")
    table = _split_table(_FORESTS, host)
    assert len(table) == 2 ** 3
    full = 2 ** 3 - 1
    for mask, (part, comp, _) in enumerate(table):
        assert part.size + comp.size == 3
        # the complement's row swaps the two sides
        assert table[full ^ mask][:2] == (comp, part)


def test_induced_forest_examples():
    idx = index(Forest.single(CHAIN3))
    # skipping the middle vertex contracts the path to a single edge
    assert _induced_monomial(idx, ROOT | TOP) == Forest.single(CHAIN2)
    # its complement, the middle vertex alone, is a leaf
    assert _induced_monomial(idx, 0b111 ^ (ROOT | TOP)) == Forest.single(LEAF)
    assert _induced_monomial(idx, MID | TOP) == Forest.single(CHAIN2)


def test_induced_colour_skips_to_ancestor_edge():
    # chain with a colour change: root -1- mid -2- top
    idx = index(Forest.single(parse_tree("[1:[2:[]]]")))
    # the induced edge takes the colour adjacent to the ancestor: colour 1
    assert induced_structure(idx, ROOT | TOP) == ({0: None, 2: 0}, {0: None, 2: 1})
    assert _induced_monomial(idx, ROOT | TOP) == Forest.single(parse_tree("[1:[]]"))


def test_induced_of_full_and_empty():
    for f in enumerate_forests_up_to(2, 3):
        idx = index(f)
        assert _induced_monomial(idx, (1 << idx.nverts) - 1) == f
        assert _induced_monomial(idx, 0) == EMPTY_FOREST


def test_p_count_examples():
    # CHAIN3 as raw arrays: vertex 1 hangs below 0, vertex 2 below 1
    parents, colours = (0, 1), (1, 1)
    # both path edges of the top vertex have their lower end outside {top}
    assert bruteforce.p_count(parents, colours, 1, 2, {2}) == 2
    assert bruteforce.p_count(parents, colours, 2, 2, {2}) == 0
    assert bruteforce.p_count(parents, colours, 1, 2, {1, 2}) == 1
    # the exponent walk sums these counts over the selected vertices on
    # row 1 (the complement, rooted at the root, adds nothing on row 2)
    idx = index(Forest.single(CHAIN3))
    structure = induced_structure(idx, 0b111)
    assert _walk(structure, TOP, 0b111) == {(1, 1): 2}
    assert _walk(structure, MID | TOP, 0b111) == {(1, 1): 1 + 1}


def test_p_count_within_contracts_host_paths():
    idx = index(Forest.single(CHAIN3))
    within = ROOT | TOP  # induced 2-chain
    # inside the induced host the contracted edge counts once
    assert _walk(induced_structure(idx, within), TOP, within) == {(1, 1): 1}
    # and the root, selected instead, has no path below it: the top, now
    # the complement, counts the contracted edge on row 2
    assert _walk(induced_structure(idx, within), ROOT, within) == {(2, 1): 1}


def test_vertices_enumeration():
    assert index(Forest.single(CHERRY)).nverts == 3
    assert index(parse_forest("[]*[]*[]")).nverts == 3
    idx = index(Forest.single(CHAIN3))
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


def test_each_tree_grammar_skips_space_between_tokens():
    spaced, tight = " [ 1 : [ ] , 2 : [ 1 : [ ] ] ] ", "[1:[],2:[1:[]]]"
    assert parse_tree(spaced) is parse_tree(tight)
    assert parse_planar_tree(spaced) is parse_planar_tree(tight)
    labelled = parse_labelled_tree(" ( 1 ) [ ( 1 ) [ ] , ( 2 ) [ ( 1 ) [ ] ] ] ")
    assert labelled is parse_labelled_tree("(1)[(1)[],(2)[(1)[]]]")


def test_a_label_below_1_is_refused():
    # a child's label where it stands, before the syntax error after it;
    # the root's as the value is built
    with pytest.raises(ParseError, match="label must be >= 1") as info:
        parse_labelled_tree("(1)[(0)[],(1)[")
    assert info.value.pos == 6
    with pytest.raises(ValueError, match="vertex label must be an integer >= 1, got 0"):
        parse_labelled_tree("(0)[(1)[]]")


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
@settings(max_examples=60, deadline=None, derandomize=True)
def test_roundtrip_parse_print(tree):
    assert parse_tree(str(tree), 2) == tree


@given(coloured_trees(), coloured_trees())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_forest_product_commutes(a, b):
    assert Forest.single(a) * Forest.single(b) == Forest.single(b) * Forest.single(a)


forest_lists = st.lists(coloured_trees(max_size=4), max_size=4)
planar_lists = st.lists(
    st.sampled_from([t for m in range(1, 5) for t in enumerate_planar_trees(2, m)]),
    max_size=4,
)


@given(forest_lists, forest_lists)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_forest_product_keeps_trees_sorted_by_key(xs, ys):
    f = Forest(xs) * Forest(ys)
    assert f == Forest(xs + ys)
    assert [t.key for t in f.trees] == sorted(t.key for t in xs + ys)
    assert f.size == sum(t.size for t in xs + ys)


@given(forest_lists)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_forest_unit_factor_on_either_side(xs):
    f = Forest(xs)
    assert f * EMPTY_FOREST == f
    assert EMPTY_FOREST * f == f


@given(planar_lists, planar_lists)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_planar_word_product_concatenates_in_order(xs, ys):
    u, v = PlanarWord(xs), PlanarWord(ys)
    assert (u * v).trees == tuple(xs + ys)
    assert u * v == PlanarWord(xs + ys)
    assert u * EMPTY_WORD == u and EMPTY_WORD * u == u


# The trusted paths (the root constructor, ``single`` and the product)
# fill their fields without the checked constructors; they must agree with
# those constructors field for field.
def _same_fields(a, b, members):
    """``a`` and ``b`` agree on their members (``children`` or ``trees``),
    key, size, maximum colour and hash."""
    assert getattr(a, members) == getattr(b, members)
    fields = ("key", "size", "max_colour")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert hash(a) == hash(b)


@st.composite
def slot_tuples(draw, cls):
    n = draw(st.integers(min_value=0, max_value=3))
    return n, tuple(
        draw(st.sampled_from(_enumerate_monomials(cls, n, draw(st.integers(0, 3)))))
        for _ in range(n)
    )


@pytest.mark.parametrize("cls", [Forest, PlanarWord])
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_root_constructor_matches_the_checked_constructor(cls, data):
    n, slots = data.draw(slot_tuples(cls))
    children = [(i, t) for i, mono in enumerate(slots, start=1) for t in mono.trees]
    # listed colour-major in reverse, so the checked constructor has to sort
    children.sort(key=lambda edge: -edge[0])
    _same_fields(_lam(cls, slots, n), cls._member(children), "children")


@st.composite
def factor_lists(draw, cls):
    """Two member lists whose keys interleave, touch at one equal key, or
    lie apart (every key of the second above those of the first)."""
    pool = sorted(t for m in range(1, 4) for t in _enumerate_trees(cls, 2, m))
    xs = draw(st.lists(st.sampled_from(pool), max_size=4))
    ys = draw(st.lists(st.sampled_from(pool), max_size=4))
    how = draw(st.sampled_from(["any", "touching", "apart"]))
    if xs and how != "any":
        top = max(xs)
        ys = [t for t in ys if t > top]
        if how == "touching":
            ys.insert(0, top)
    return xs, ys


@pytest.mark.parametrize("cls", [Forest, PlanarWord])
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_product_matches_the_checked_constructor(cls, data):
    xs, ys = data.draw(factor_lists(cls))
    a, b = cls(xs), cls(ys)
    _same_fields(a * b, cls(a.trees + b.trees), "trees")
    for t in xs:
        _same_fields(cls.single(t), cls([t]), "trees")


def test_monomial_members_are_type_checked():
    with pytest.raises(TypeError, match="forest members must be ColouredTree instances"):
        Forest([LEAF, PLANAR_LEAF])
    with pytest.raises(TypeError, match="word members must be PlanarTree instances"):
        PlanarWord([PLANAR_LEAF, LEAF])
    with pytest.raises(TypeError):
        Forest.single(LEAF) * PlanarWord.single(PLANAR_LEAF)


@given(coloured_trees(max_size=5))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_subforest_induced_size(tree):
    idx = index(Forest.single(tree))
    for mask in range(1 << idx.nverts):
        ind = _induced_monomial(idx, mask)
        assert ind.size == bin(mask).count("1")
        assert ind.max_colour <= tree.max_colour or ind.is_empty()


@given(coloured_trees(max_size=5))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_aut_order_divides_factorial_of_children(tree):
    order = aut_order(tree)
    assert order >= 1
    # the automorphism group embeds into the symmetric group on non-root
    # vertices, so its order divides (size-1)!
    import math

    assert math.factorial(max(tree.size - 1, 0)) % order == 0
