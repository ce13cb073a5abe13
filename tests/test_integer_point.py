"""Δ, S and the verifier at a point with denominators, constant or mixed:
the engine runs at the point D·q and the exit divides by powers of D
(see the ``hopf`` docstring).  Pinned against the exhaustive oracles,
which compute at q itself, against the symbolic Δ and S with the
point's rational entries substituted, which reach past the oracles'
sizes, against the grading identity through the public API, and against
the verifier's report on a Δ at q itself."""

import random
from fractions import Fraction
from math import lcm

import pytest

from treehopf import hopf
from treehopf.algebra import _FORESTS, Coeff, Element, QSpec, parse_coeff, parse_element
from treehopf.hopf import (
    HopfContext,
    antipode_partitions,
    antipode_recursive,
    coproduct,
    coproduct_closed,
    verify_bialgebra,
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
    verify_planar,
)
from treehopf.trees import (
    Forest,
    _decompose,
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
        QSpec.from_strings(1, ["sym", "3"]),
        QSpec.rational(0, ()),
    ],
    ids=["integer", "ck", "symbolic", "mixed", "n0"],
)
def test_points_without_a_common_denominator_run_as_they_are(spec):
    assert spec.integral() == (1, spec) and spec.integral()[1] is spec


def test_a_point_is_scaled_by_the_denominators_of_every_coefficient():
    # symbolic entries are scaled as constant ones, and an entry's own
    # coefficients count: D = lcm(2, 3) for 1/2*q11 + 1/3
    q11, q21, one = Coeff.variable(1, 1), Coeff.variable(2, 1), Coeff.rational(1)
    assert QSpec.from_strings(1, ["sym", "1/2"]).integral() == (2, QSpec(1, (2 * q11, one)))
    assert QSpec.from_strings(1, ["1/3", "sym"]).integral() == (3, QSpec(1, (one, 3 * q21)))
    scale, point = QSpec.from_strings(2, ["sym", "2/3", "sym", "5/7"]).integral()
    assert scale == 21
    assert point.entries == (21 * q11, Coeff.rational(14), 21 * q21, Coeff.rational(15))
    spec = QSpec(1, (parse_coeff("1/2*q11 + 1/3"), parse_coeff("q21^2")))
    assert spec.integral() == (6, QSpec(1, (parse_coeff("3*q11 + 2"), parse_coeff("6*q21^2"))))
    assert all(type(v) is int for e in spec.integral()[1].entries for v in e._t.values())


# ---------------------------------------------------------------------------
# mixed points: the symbolic Δ and S with the rational entries substituted
# ---------------------------------------------------------------------------

# one entry symbolic per row or per colour, with denominators 3, 4 and 35;
# sym,3 has none, so it runs as it is (D = 1)
MIXED = [
    (1, "sym,1/3"), (1, "-3/4,sym"), (1, "sym,3"), (2, "1/2,sym,-3/4,sym"), (2, "sym,2/3,sym,5/7")
]


def _rational_entries(qspec, combination):
    """``combination`` with the rational entries of ``qspec`` substituted
    for their symbols; the symbolic entries stay symbols."""
    point = {
        (i, j): qspec.q(i, j)
        for i in (1, 2)
        for j in range(1, qspec.n + 1)
        if qspec.q(i, j).is_rational()
    }
    terms = ((k, c.substitute(point)) for k, c in combination.data.items())
    return type(combination)(combination.n, terms)


@pytest.mark.parametrize("planar", [False, True], ids=["forests", "words"])
@pytest.mark.parametrize("n,words", MIXED, ids=[w for _, w in MIXED])
def test_delta_and_s_at_a_mixed_point_are_the_symbolic_ones_specialised(n, words, planar):
    qspec = QSpec.from_strings(n, words.split(","))
    ctx, sym = HopfContext(qspec), HopfContext.symbolic(n)
    assert (qspec.integral()[0] > 1) == (words != "sym,3")
    rng = random.Random(f"{words} {planar}")

    def element(m):
        if planar:
            trees = _random_tree(rng, m - 3, n), _random_tree(rng, 3, n)
            return PlanarElement.basis(parse_planar_word("*".join(map(str, trees)), n), n)
        return Element.basis(Forest.single(_random_tree(rng, m, n)), n)

    delta, antipode = planar_coproduct, planar_antipode
    if not planar:
        delta, antipode = coproduct, antipode_recursive
    for m in (8, 10, 12):
        a = element(m)
        assert delta(a, ctx) == _rational_entries(qspec, delta(a, sym)), str(a)
    for m in (7, 8, 9) if n == 1 else (7, 8):
        a = element(m)
        assert antipode(a, ctx) == _rational_entries(qspec, antipode(a, sym)), str(a)


@pytest.mark.parametrize(
    "words", ["1/3,3/2", "sym,1/3", "1/2,sym,-3/4,sym"], ids=["fraction", "mixed-1", "mixed-2"]
)
def test_the_memos_of_delta_and_s_hold_integers_only(words):
    # Δ and S at q store their values at D·q: plain ints, or Coeff values
    # with int coefficients.  The walk reads the Δ of each tree the
    # recursions stored (the input's trees, their slots, and the trees of
    # the left legs that S recursed on) and S where S stored it; it reads
    # no Δ that the calls did not store
    qspec = QSpec.from_strings(len(words.split(",")) // 2, words.split(","))
    n, ctx = qspec.n, HopfContext(qspec)
    at = HopfContext(qspec.integral()[1])
    rng = random.Random(words)
    a = Element.basis(Forest.single(_random_tree(rng, 8, n)), n)
    a = a + Element.basis(Forest.single(_random_tree(rng, 7, n)), n)
    coproduct(a, ctx)
    antipode_recursive(a, ctx)
    _, s_mono = hopf._production_maps(_FORESTS, at)
    before = hopf._delta.cache_info()
    todo = [(t, True) for f in a.data for t in f.trees]
    seen = set()
    values = []
    while todo:
        tree, with_s = todo.pop()
        if (tree, with_s) in seen:
            continue
        seen.add((tree, with_s))
        stored = hopf._delta(_FORESTS, tree, at).data
        values += stored.values()
        todo += [(t, False) for slot in _decompose(Forest, tree, n) for t in slot.trees]
        if with_s:
            values += s_mono(Forest.single(tree)).data.values()
            todo += [(t, True) for l, r in stored if not r.is_empty() for t in l.trees]
    after = hopf._delta.cache_info()
    assert after.misses == before.misses and after.currsize == before.currsize
    assert len(seen) > 10 and any(isinstance(c, Coeff) for c in values) == ("sym" in words)
    for c in values:
        assert type(c) is int or all(type(v) is int for v in c._t.values()), c


# ---------------------------------------------------------------------------
# the verifier at D·q reports what it would at q
# ---------------------------------------------------------------------------


def _double_on_size_two(ctx, delta):
    """A Δ at ``ctx`` that doubles the terms whose left leg has two vertices;
    the corruption commutes with the rescaling from q to D·q."""

    def corrupt(a):
        out = delta(a, ctx)
        return type(out)(a.n, ((k, c * 2 if k[0].size == 2 else c) for k, c in out.data.items()))

    return corrupt


@pytest.mark.parametrize(
    "basis, delta", [(_FORESTS, coproduct), (_WORDS, planar_coproduct)], ids=["forests", "words"]
)
@pytest.mark.parametrize(
    "words", ["1/3,3/2", "sym,1/3", "1/3,3/2,2,2/3", "sym,2/3,-3/4,sym"],
    ids=["fraction", "mixed", "fraction-2", "mixed-2"],
)
def test_a_verifier_report_at_q_is_the_one_at_d_q(basis, delta, words):
    # the production report runs at D·q; a Δ of the caller's makes the
    # checks run at q itself, so the production Δ at q passed as one gives
    # the report at q.  A corrupted Δ fails at q and at D·q on one case
    qspec = QSpec.from_strings(len(words.split(",")) // 2, words.split(","))
    ctx, at = HopfContext(qspec), HopfContext(qspec.integral()[1])
    degree = 4 if qspec.n == 1 else 3
    verify = verify_bialgebra if basis is _FORESTS else verify_planar
    for max_cases in (None, 7):
        report = verify(ctx, degree, max_cases=max_cases).summary()
        assert report == verify(at, degree, max_cases=max_cases).summary()
        at_q = hopf._verify(basis, ctx, degree, lambda a: delta(a, ctx), max_cases, 0)
        assert at_q.summary() == report and at_q.passed
        wrong = [
            hopf._verify(basis, c, degree, _double_on_size_two(c, delta), max_cases, 0)
            for c in (ctx, at)
        ]
        assert not wrong[0].passed and wrong[0].summary() == wrong[1].summary()
