"""One object per value: trees, forests, words and labelled trees are
interned, so every construction route to a value returns the same object
and equality is identity."""

import copy
import pickle
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehopf.planar import (
    EMPTY_WORD,
    PLANAR_LEAF,
    PlanarTree,
    PlanarWord,
    enumerate_planar_trees,
    enumerate_planar_words_up_to,
    parse_planar_tree,
    parse_planar_word,
    planar_decompose,
    planar_lambda,
)
from treehopf.prelie import DualElement, LabelledTree, parse_labelled_tree, phi, up_map
from treehopf.trees import (
    EMPTY_FOREST,
    LEAF,
    ColouredTree,
    ColourMismatchError,
    Forest,
    add_root,
    canonicalize,
    decompose,
    enumerate_forests_up_to,
    enumerate_trees,
    parse_forest,
    parse_tree,
)

VALUE_CLASSES = (ColouredTree, Forest, PlanarTree, PlanarWord, LabelledTree)


def test_every_route_to_a_tree_gives_one_object():
    t = parse_tree("[1:[],1:[1:[]],2:[]]", 2)
    assert add_root(decompose(t, 2), 2) is t
    assert canonicalize([None, 0, 0, 2, 0], [None, 1, 1, 1, 2], 2) is t
    assert t.recolour(lambda c: c) is t
    assert next(u for u in enumerate_trees(2, 5) if u.key == t.key) is t


def test_every_route_to_a_forest_gives_one_object():
    a, b = parse_tree("[1:[]]", 1), LEAF
    f = parse_forest("[1:[]]*[]*[1:[]]", 1)
    assert Forest.single(a) * Forest.single(b) is Forest.single(b) * Forest.single(a)
    assert Forest(reversed(f.trees)) is f
    assert Forest([b, a, a]) is f
    assert Forest() is EMPTY_FOREST is parse_forest("1", 1)


def test_every_route_to_a_planar_value_gives_one_object():
    t = parse_planar_tree("[2:[],1:[1:[]],1:[]]", 2)
    assert planar_lambda(planar_decompose(t, 2), 2) is t
    assert t.recolour(lambda c: c) is t
    assert next(u for u in enumerate_planar_trees(2, 5) if u.key == t.key) is t
    a, b = PlanarWord.single(t), PlanarWord.single(PLANAR_LEAF)
    assert a * b is not b * a
    assert a * b is parse_planar_word(f"{t}*[]", 2)
    assert (a * b) * a is a * (b * a)
    assert PlanarWord((t, PLANAR_LEAF)) is a * b
    assert PlanarWord() is EMPTY_WORD


def test_separately_built_equal_labelled_trees_are_one_object():
    t = LabelledTree(1, [LabelledTree(2), LabelledTree(1)])
    assert t is LabelledTree(1, (LabelledTree(1), LabelledTree(2)))
    assert t is parse_labelled_tree("(1)[(2)[],(1)[]]")
    assert t is up_map(1, parse_tree("[2:[],1:[]]"))


def test_no_value_class_defines_its_own_equality_or_hash():
    # identity is the whole of equality; a Python-level __eq__ on keys
    # kept beside interning ran the 14-vertex antipode half again slower
    defined = [
        f"{klass.__qualname__}.{name}"
        for cls in VALUE_CLASSES
        for klass in cls.__mro__[:-1]  # all but object
        for name in ("__eq__", "__hash__")
        if name in vars(klass)
    ]
    assert not defined


VALUES = [
    parse_tree("[1:[],2:[1:[]]]", 2),
    parse_forest("[1:[]]*[]", 1),
    parse_planar_tree("[2:[],1:[1:[]],1:[]]", 2),
    parse_planar_word("[1:[]]*[]*[1:[]]", 1),
    parse_labelled_tree("(1)[(2)[(1)[]],(1)[]]"),
    EMPTY_FOREST,
    EMPTY_WORD,
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copy_and_pickle_return_the_interned_value(value):
    # copying a slotted object by default refills a bare instance, which
    # for an interned class would be a shared value: LEAF became a cycle
    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    assert all(c is value for c in copies)
    assert (str(LEAF), str(EMPTY_FOREST), str(PLANAR_LEAF)) == ("[]", "1", "[]")


def test_a_bool_colour_or_label_is_refused():
    # True == 1 and hashes alike, so an accepted True would be interned as
    # the colour-1 tree and print "True" wherever that tree appears later
    with pytest.raises(ColourMismatchError):
        ColouredTree([(True, LEAF)])
    with pytest.raises(ColourMismatchError):
        canonicalize([None, 0], [None, True])
    with pytest.raises(ValueError):
        LabelledTree(True)
    assert str(parse_tree("[1:[]]")) == "[1:[]]"


# ---------------------------------------------------------------------------
# the text kept on each value
# ---------------------------------------------------------------------------


def _reference(value):
    """The text of a value by the recursive definition of its grammar."""
    if isinstance(value, (Forest, PlanarWord)):
        return "*".join(_reference(t) for t in value.trees) or "1"
    if isinstance(value, LabelledTree):
        return f"({value.label})[" + ",".join(_reference(t) for t in value.children) + "]"
    return "[" + ",".join(f"{c}:{_reference(t)}" for c, t in value.children) + "]"


def _printed_values():
    trees = [t for m in range(1, 6) for t in enumerate_trees(2, m)]
    planar = [t for m in range(1, 5) for t in enumerate_planar_trees(2, m)]
    labelled = [w for t in trees for w in phi(DualElement.basis(t, 2)).data]
    forests, words = enumerate_forests_up_to(2, 5), enumerate_planar_words_up_to(2, 4)
    return trees + planar + labelled + list(forests) + list(words)


def test_every_value_prints_its_grammar_text_built_once():
    values = _printed_values()
    assert {type(v) for v in values} == set(VALUE_CLASSES)
    for value in values:
        text = str(value)
        assert text == _reference(value)
        assert str(value) is text
        copies = [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]
        assert all(c is value and str(c) is text for c in copies)


# ---------------------------------------------------------------------------
# interning agrees with the key equality it replaced
# ---------------------------------------------------------------------------


@st.composite
def raw_trees(draw):
    """A parent map of at most 6 vertices over 2 colours: vertex 0 is the
    root and each later vertex hangs from an earlier one."""
    m = draw(st.integers(1, 6))
    parents = [None] + [draw(st.integers(0, v - 1)) for v in range(1, m)]
    colours = [None] + [draw(st.integers(1, 2)) for _ in range(1, m)]
    return parents, colours


def _text(parents, colours, v=0):
    """The bracket text of the raw tree below vertex v, its children in
    vertex order rather than in canonical order."""
    kids = [u for u, p in enumerate(parents) if p == v]
    return "[" + ",".join(f"{colours[u]}:{_text(parents, colours, u)}" for u in kids) + "]"


def _build(raw, rng):
    """The tree by two independent routes, which must give one object:
    canonicalize on a shuffled parent map, and parsing of the raw text."""
    parents, colours = raw
    perm = list(range(len(parents)))
    rng.shuffle(perm)  # vertex v becomes perm[v]
    moved_parents, moved_colours = [None] * len(perm), [None] * len(perm)
    for v, p in enumerate(parents):
        moved_parents[perm[v]] = None if p is None else perm[p]
        moved_colours[perm[v]] = colours[v]
    tree = canonicalize(moved_parents, moved_colours, 2)
    assert tree is parse_tree(_text(parents, colours), 2)
    return tree


# equal pairs are common: the second member is often the first redrawn
tree_pairs = raw_trees().flatmap(lambda x: st.tuples(st.just(x), st.one_of(st.just(x), raw_trees())))
raw_forests = st.lists(raw_trees(), max_size=3)
forest_pairs = raw_forests.flatmap(
    lambda xs: st.tuples(st.just(xs), st.one_of(st.permutations(xs), raw_forests))
)


@given(tree_pairs, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_two_trees_are_one_object_exactly_when_their_keys_agree(pair, rng):
    x, y = (_build(raw, rng) for raw in pair)
    assert (x is y) == (x.key == y.key)


@given(forest_pairs, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_two_forests_are_one_object_exactly_when_their_keys_agree(pair, rng):
    xs, ys = ([_build(raw, rng) for raw in raws] for raws in pair)
    x = Forest(xs)
    y = reduce(mul, map(Forest.single, ys), EMPTY_FOREST)
    assert (x is y) == (x.key == y.key)
