"""Δ and S at a constant point with denominators: the engine runs at the
integer point D·q and the exit divides by powers of D (see the ``hopf``
docstring).  Pinned against the exhaustive oracles, which compute at q
itself, against the symbolic Δ and S with the point substituted, which
reach past the oracles' sizes, and against the grading identity through
the public API."""

import random
from fractions import Fraction
from math import lcm

import pytest

from treehopf.algebra import _FORESTS, Coeff, Element, QSpec, parse_element
from treehopf.hopf import (
    HopfContext,
    antipode_partitions,
    antipode_recursive,
    coproduct,
    coproduct_closed,
)
from treehopf.planar import (
    PlanarElement,
    _WORDS,
    forget_element,
    forget_tensor,
    parse_planar_word,
    planar_antipode,
    planar_coproduct,
    planar_coproduct_closed,
)
from treehopf.trees import (
    Forest,
    _enumerate_up_to,
    basis_counts,
    canonicalize,
)

F = Fraction

# denominators 2, 3, 4 and 7, each point with one negative entry
POINTS = {
    1: [(F(1, 2), F(-5, 3)), (F(-3, 4), F(2, 7))],
    2: [(F(1, 2), F(2, 3), F(-3, 4), F(5, 7)), (F(4, 3), F(-1, 7), 2, F(3, 4))],
}
CASES = [(n, values) for n, points in POINTS.items() for values in points]
IDS = [f"n{n}-{i}" for n, points in POINTS.items() for i in range(len(points))]


def _random_tree(rng, m, n):
    """A random recursive tree: vertex v hangs below a uniform earlier vertex."""
    parents = [None] + [rng.randrange(v) for v in range(1, m)]
    return canonicalize(parents, [None] + [rng.randint(1, n) for _ in range(1, m)], n)


def _chain(m, colour=1):
    return canonicalize([None] + list(range(m - 1)), [None] + [colour] * (m - 1))


def _star(rng, m):
    """A root over m - 1 leaves, each edge of colour 1 or 2."""
    return canonicalize([None] + [0] * (m - 1), [None] + [rng.randint(1, 2) for _ in range(1, m)])


def _shapes(rng, n):
    """The shapes of the tree-scaling coproducts: random recursive trees
    of 8 to 10 vertices, chains and, at n = 2, two-coloured stars."""
    shapes = [_random_tree(rng, m, n) for m in (8, 9, 9, 10)]
    shapes += [_chain(m) for m in (8, 10)]
    if n == 2:
        shapes += [_star(rng, m) for m in (8, 10)]
    return shapes


def _mixed(n, planar=False):
    """A combination of monomials with different ``paths``, with
    fractional and symbolic coefficients; the symbols stay symbolic at a
    constant point."""
    text = "2/3 [1:[1:[]],1:[]]*[] - q11^2*q21 [1:[1:[1:[]]]] + 5/7 [1:[],1:[]] - [] + 1"
    if n == 2:
        text += " + q12 [2:[1:[]],1:[]]*[2:[]]"
    forests = parse_element(text, n)
    if not planar:
        return forests
    # each forest read as the word of its trees and children in stored order
    return PlanarElement(n, {parse_planar_word(str(f), n): c for f, c in forests.data.items()})


# ---------------------------------------------------------------------------
# the oracles, computed at q itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_coproduct_equals_the_subset_sum_on_tree_scaling_shapes(n, values):
    ctx = HopfContext.rational(n, values)
    assert ctx.qspec.integral()[0] > 1
    rng = random.Random(n * 31 + len(values))
    for tree in _shapes(rng, n):
        a = Element.basis(Forest.single(tree), n)
        assert coproduct(a, ctx) == coproduct_closed(a, ctx), str(tree)
    a = _mixed(n)
    assert len({f.paths for f in a.data}) >= 4
    assert coproduct(a, ctx) == coproduct_closed(a, ctx)


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_planar_coproduct_equals_the_subset_sum_on_words(n, values):
    ctx = HopfContext.rational(n, values)
    rng = random.Random(n * 37 + len(values))
    for m in (5, 6, 7, 8):
        trees = _random_tree(rng, m - 2, n), _random_tree(rng, 2, n)
        word = parse_planar_word("*".join(map(str, trees)), n)
        a = PlanarElement.basis(word, n)
        assert planar_coproduct(a, ctx) == planar_coproduct_closed(a, ctx), str(word)
    a = _mixed(n, planar=True)
    assert planar_coproduct(a, ctx) == planar_coproduct_closed(a, ctx)


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_antipode_equals_the_partition_sum(n, values):
    ctx = HopfContext.rational(n, values)
    rng = random.Random(n * 41 + len(values))
    trees = [_random_tree(rng, m, n) for m in (4, 5, 6, 7, 7)] + [_chain(7)]
    if n == 2:
        trees.append(_star(rng, 7))
    for tree in trees:
        a = Element.basis(Forest.single(tree), n)
        assert antipode_recursive(a, ctx) == antipode_partitions(a, ctx), str(tree)
    a = _mixed(n)
    assert antipode_recursive(a, ctx) == antipode_partitions(a, ctx)


# ---------------------------------------------------------------------------
# the symbolic Δ and S, specialised at the point
# ---------------------------------------------------------------------------


def _at(values, n, combination):
    """``combination`` with each coefficient's symbols replaced by the
    point: q_{i,j} by entry (i − 1)·n + j − 1 of ``values``."""
    point = {(i, j): values[(i - 1) * n + j - 1] for i in (1, 2) for j in range(1, n + 1)}
    return type(combination)(n, ((k, c.substitute(point)) for k, c in combination.data.items()))


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_coproduct_at_the_point_is_the_symbolic_coproduct_specialised(n, values):
    ctx, sym = HopfContext.rational(n, values), HopfContext.symbolic(n)
    rng = random.Random(n * 43 + len(values))
    trees = [_random_tree(rng, m, n) for m in range(8, 13)] + [_chain(16, n)]
    if n == 2:
        trees.append(_star(rng, 16))
    for tree in trees:
        a = Element.basis(Forest.single(tree), n)
        assert coproduct(a, ctx) == _at(values, n, coproduct(a, sym)), str(tree)


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_antipode_at_the_point_is_the_symbolic_antipode_specialised(n, values):
    ctx, sym = HopfContext.rational(n, values), HopfContext.symbolic(n)
    rng = random.Random(n * 47 + len(values))
    # the symbolic S of a 10-vertex tree over two colours takes a second
    for m in (7, 8, 9, 10) if n == 1 else (7, 8, 9):
        a = Element.basis(Forest.single(_random_tree(rng, m, n)), n)
        assert antipode_recursive(a, ctx) == _at(values, n, antipode_recursive(a, sym)), m


@pytest.mark.parametrize("n,values", CASES, ids=IDS)
def test_planar_delta_and_s_forget_to_the_symmetric_ones_at_the_point(n, values):
    ctx = HopfContext.rational(n, values)
    rng = random.Random(n * 53 + len(values))
    for m in (8, 9, 10):
        trees = _random_tree(rng, m - 3, n), _random_tree(rng, 3, n)
        w = PlanarElement.basis(parse_planar_word("*".join(map(str, trees)), n), n)
        f = forget_element(w)
        assert forget_tensor(planar_coproduct(w, ctx)) == coproduct(f, ctx), str(f)
        assert forget_element(planar_antipode(w, ctx)) == antipode_recursive(f, ctx), str(f)


# ---------------------------------------------------------------------------
# the grading identity, through the public API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "basis, delta, antipode",
    [(_FORESTS, coproduct, antipode_recursive), (_WORDS, planar_coproduct, planar_antipode)],
    ids=["forests", "words"],
)
@pytest.mark.parametrize("n", [1, 2])
def test_delta_and_s_at_q_are_those_at_the_integer_point_rescaled(basis, delta, antipode, n):
    # the coefficient of l ⊗ r in Δ(f) at D·q is D^(P(f) − P(l) − P(r))
    # times its value at q, and that of g in S(f) is D^(P(f) − P(g)) times;
    # D·q has no denominator, so it runs with D = 1
    values = POINTS[n][0]
    scale = lcm(*(F(v).denominator for v in values))
    ctx = HopfContext.rational(n, values)
    integral = HopfContext.rational(n, [v * scale for v in values])
    assert ctx.qspec.integral() == (scale, integral.qspec)
    assert integral.qspec.integral() == (1, integral.qspec)
    monos = _enumerate_up_to(basis.monomial, n, 6)
    assert sum(f.size == 6 for f in monos) == basis_counts(basis.monomial, n, 6)[1][6]
    for f in monos:
        a = basis.element.basis(f, n)
        at_q, at_d = delta(a, ctx).data, delta(a, integral).data
        assert at_q.keys() == at_d.keys()
        for (l, r), c in at_q.items():
            assert c * scale ** (f.paths - l.paths - r.paths) == at_d[l, r], (str(f), str(l))
        at_q, at_d = antipode(a, ctx).data, antipode(a, integral).data
        assert at_q.keys() == at_d.keys()
        for g, c in at_q.items():
            assert c * scale ** (f.paths - g.paths) == at_d[g], (str(f), str(g))


def test_the_integer_point_is_kept_on_the_qspec(monkeypatch):
    ctx = HopfContext.rational(2, POINTS[2][0])
    assert "_integral" not in vars(ctx.qspec)
    a = _mixed(2)
    delta, s = coproduct(a, ctx), antipode_recursive(a, ctx)
    scale, point = kept = vars(ctx.qspec)["_integral"]
    assert scale == 84 and point.entries == tuple(Coeff.rational(v) for v in (42, 56, -63, 60))
    # a second call builds no parameter point: it reads the one kept
    built = []
    unpatched = QSpec.__post_init__
    monkeypatch.setattr(QSpec, "__post_init__", lambda q: built.append(q) or unpatched(q))
    assert coproduct(a, ctx) == delta and antipode_recursive(a, ctx) == s
    assert built == [] and ctx.qspec.integral() is kept


@pytest.mark.parametrize(
    "spec",
    [
        QSpec.rational(1, (2, -3)),
        QSpec.connes_kreimer(),
        QSpec.symbolic(2),
        QSpec.from_strings(1, ["sym", "1/2"]),
        QSpec.rational(0, ()),
    ],
    ids=["integer", "ck", "symbolic", "mixed", "n0"],
)
def test_points_without_a_common_denominator_run_as_they_are(spec):
    assert spec.integral() == (1, spec) and spec.integral()[1] is spec
