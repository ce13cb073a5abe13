"""The deformed coproduct family, its antipodes, and checks.

The production comultiplication ``coproduct`` is the structural
recursion through the root-adjoining constructor λ: a tree is
λ(x_1, …, x_n) for its colour slots x_j, and

    Δλ(x) = Σ σ_1(x′) ⊗ λ(x″) + λ(x′) ⊗ σ_2(x″),

where x′ ⊗ x″ runs over the slotwise coproduct terms and σ_i multiplies
the slots with weight Π_j q_{ij}^{|x_j|}; Δ is extended multiplicatively
over forests.  Its cost follows the size of the output.  The antipode
is the tree recursion S(t) = −t − Σ S(t′)·t″.  The oracles the tests pin
both against (``coproduct_closed``, ``antipode_partitions`` and
``ck_coproduct_oracle``) live in ``oracles`` and are bound here by name.

The engine (``_delta``, ``_monomial_maps`` and ``_verify``, one list of
named checks that ``_check`` runs case by case) is written once over a
basis record ``algebra._Basis``: the public functions here run it on
forests, those in ``planar`` on words.

Everything here is a pure function of immutable values.  A value is
memoised only where a later call reads it again, and always by
``functools.cache`` on the function that computes it: Δ is memoised per
tree, keyed by (basis, tree, parameters); S per tree inside the maps
that ``_production_maps`` keeps per (basis, parameters), where the
parameters of a point with denominators are its point D·q (below);
the q-powers that weight the root-constructor square per
(parameter, exponent) in ``algebra._power``, which σ and the dual
product read too; and the values that leave Δ and S per (value,
divisor) in ``algebra._box``, so a repeated Δ or S reads them back.
Δ is an algebra map, so ``_product`` forms the Δ of any forest or word,
a slot forest or a caller's, from the stored Δ of its trees where it is
read, and it is not stored.  The trees λ(legs) of one root-constructor
square, and the Δ of the cases ``_verify`` checks, are kept in tables
that live for that one call.  The intern table ``trees._intern``, one
object per tree and monomial, is the one ``functools.cache`` that is
not a memo.

A point q whose coefficients have the least common denominator D > 1
is not computed on itself: ``_coproduct``, ``_antipode`` and ``_verify``
run the engine at the point D·q (``QSpec.integral``, kept on the
``QSpec``), whether q is constant or mixed, so its values are ``int``
values or ``Coeff`` values with ``int`` coefficients.  ``_power`` hands
it ``int`` weights for constant entries, Δ(∅) is a plain 1 and S's
seed a plain −1, and the memos of Δ and S hold such plain values beside
``Coeff`` ones.  ``algebra._extend_linearly`` is the one route by which
Δ and S reach a caller: ``algebra._box`` divides each value of the
result by the power of D that its keys fix, so a ``Fraction`` first
appears there, and boxes every plain value into a canonical ``Coeff``,
one object per value and process, so every public container holds
``Coeff`` values only.  The grading behind this: let P(x) be the number of
(ancestor, descendant) vertex pairs of a tree, forest or word, the sum
of its vertex depths, additive over products (the ``paths`` field of
``trees``).  A term of Δ(f) splits the vertices of f into those of l
and those of r; its q-monomial has one factor per pair that the split
separates, and each leg keeps the pairs on its own side as its own.  So
the coefficient of l ⊗ r is homogeneous of degree P(f) − P(l) − P(r) in
the 2n parameters, and scaling them all by D multiplies it by
D^(P(f) − P(l) − P(r)).  Equivalently, f ↦ D^(−P(f))·f is a bialgebra
isomorphism from the algebra at q onto the one at D·q; it intertwines
their antipodes, so the coefficient of g in S(f) at D·q is
D^(P(f) − P(g)) times its value at q.  The identity is one of
polynomials in q, so it holds at symbolic and mixed points too.

``_verify`` at D·q gives the report it would give at q, case by case.
Written in the basis D^(−P(f))·f, Δ at D·q has the structure constants
of Δ at q, and so S has those of S at q; σ_i of slots of total size m
gains D^m, on both sides of its check alike, from the weights
(D·q_ij)^|leg|.  So each check compares two containers that are those
at q with every key rescaled by one nonzero power of D, the same on
both sides: a case fails at D·q exactly where it fails at q, and no
failure message prints a coefficient.  A caller's ``coproduct_fn`` is a
Δ at q, so with one ``antipode_recursive`` and ``_verify`` run S and
the checks at q itself; ``_integral`` makes this choice for both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product as _iproduct
from operator import mul
from typing import Callable, Iterable, Sequence

from . import oracles
from .algebra import (
    Element,
    ONE,
    QSpec,
    TensorElement,
    ZERO,
    _FORESTS,
    _acc,
    _check_entry,
    _extend_linearly,
    _graded,
    _power,
    sigma,
)
from .trees import (
    ColouredTree,
    EMPTY_FOREST,
    Forest,
    _bottom_up,
    _decompose,
    _enumerate_up_to,
    _lam,
    add_root,
    decompose,
)


@dataclass(frozen=True)
class HopfContext:
    """A member of the coproduct family: colour count plus parameter values."""

    qspec: QSpec

    @property
    def n(self) -> int:
        return self.qspec.n

    @classmethod
    def symbolic(cls, n: int) -> "HopfContext":
        return cls(QSpec.symbolic(n))

    @classmethod
    def rational(cls, n: int, values: Sequence) -> "HopfContext":
        return cls(QSpec.rational(n, values))

    @classmethod
    def connes_kreimer(cls) -> "HopfContext":
        return cls(QSpec.connes_kreimer())

    @classmethod
    def indicator(cls, n: int, p: Iterable[int]) -> "HopfContext":
        return cls(QSpec.indicator(n, p))


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------


def _root_square(basis, slot_deltas: Sequence, ctx: HopfContext):
    """Δ(λ(x_1..x_n)) = Σ σ_1(x')⊗λ(x'') + λ(x')⊗σ_2(x''), from the slot
    coproducts Δ(x_j) = ``slot_deltas[j-1]``.

    σ_i multiplies the slot legs in slot order with weight
    Π_j q_{ij}^{|leg_j|}; λ is the basis's root constructor.  Each
    λ(legs) is built once per call: a table local to the call maps a leg
    tuple to its single-tree monomial, for both sides.  The values are
    plain numbers where the point is constant (see ``algebra._power``).
    """
    n, qspec = ctx.n, ctx.qspec
    monomial = basis.monomial
    unit = monomial()
    built: dict = {}

    def lam(legs):
        mono = built.get(legs)
        if mono is None:
            mono = built[legs] = monomial.single(_lam(monomial, legs, n))
        return mono

    out: dict = {}
    for side in (1, 2):
        # fold the σ_side weight into each slot term and drop the terms it kills
        weighted = []
        for j, delta in enumerate(slot_deltas, start=1):
            q = qspec.q(side, j)
            slot = []
            for (l, r), c in delta.data.items():
                size = (l if side == 1 else r).size
                w = c * _power(q, size) if size else c
                if w:
                    slot.append((l, r, w))
            weighted.append(slot)
        for combo in _iproduct(*weighted):
            # the slot legs and weights (n = 0: the one empty combination)
            lefts, rights, weights = zip(*combo) if combo else ((), (), (1,))
            if side == 1:
                key = (reduce(mul, lefts, unit), lam(rights))
            else:
                key = (lam(lefts), reduce(mul, rights, unit))
            _acc(out, key, reduce(mul, weights))
    return basis.tensor._adopt(n, out)


def _product(basis, mono, ctx: HopfContext):
    """Δ of a basis monomial, the one route from a monomial to its Δ: the
    product of the memoised Δ of its trees in order (Δ is an algebra map),
    formed here and not stored; Δ(∅) is 1 ⊗ 1 with a plain 1.  A one-tree
    monomial gives the stored entry of its tree itself."""
    trees = mono.trees
    if not trees:
        return basis.tensor._adopt(ctx.n, {(mono, mono): 1})
    return reduce(mul, (_delta(basis, t, ctx) for t in trees))


@cache
def _delta(basis, tree, ctx: HopfContext):
    """Memoised Δ of one tree: the root-constructor square over the
    ``_product`` of its slots.  Δ is memoised per tree only; the Δ of a
    forest or word, a slot's or a caller's, is formed by ``_product``
    where it is read.  Its values may be plain numbers, so callers read
    it through ``_extend_linearly``.  The oracles never read it."""
    slots = [_product(basis, x, ctx) for x in _decompose(basis.monomial, tree, ctx.n)]
    return _root_square(basis, slots, ctx)


def _integral(ctx: HopfContext, coproduct_fn=None) -> "tuple[int, HopfContext]":
    """``(D, the context at D·q)`` as ``QSpec.integral`` gives them, or
    ``(1, ctx)`` where D = 1 or a caller's ``coproduct_fn``, a Δ at q,
    is given: the engine runs at the second and ``_extend_linearly``
    divides by powers of D."""
    scale, point = ctx.qspec.integral()
    if scale == 1 or coproduct_fn is not None:
        return 1, ctx
    return scale, HopfContext(point)


def _coproduct(basis, a, ctx: HopfContext):
    _check_entry(basis, a, ctx.n)
    scale, at = _integral(ctx)
    return _extend_linearly(a, lambda m: _product(basis, m, at), basis.tensor, scale)


def coproduct(a: Element, ctx: HopfContext) -> TensorElement:
    """Comultiplication by structural recursion through the root constructor.

    Each tree is split by ``decompose`` into its colour slots and Δ is
    rebuilt from the slot coproducts by the defining square
    Δλ(x) = Σ σ_1(x')⊗λ(x'') + λ(x')⊗σ_2(x''); forests multiply.  The
    cost follows the size of the output, not the 2^|V| vertex subsets
    that ``coproduct_closed`` sums over.
    """
    return _coproduct(_FORESTS, a, ctx)


# ``coproduct`` is the recursive route; the alias's one remaining caller is
# the perfbench tree-scaling ``coproduct.rational`` gate, and the benchmark
# upkeep item of ROADMAP.md (item 3) removes it
coproduct_inductive = coproduct

# the oracles, under the names their callers look for here
coproduct_closed = oracles.coproduct_closed
antipode_partitions = oracles.antipode_partitions
ck_coproduct_oracle = oracles.ck_coproduct_oracle


# ---------------------------------------------------------------------------
# antipodes
# ---------------------------------------------------------------------------


def _monomial_maps(basis, ctx: HopfContext, coproduct_fn=None):
    """Δ and S on basis monomials, as a pair of functions.

    Δ is ``_product`` over the memo of Δ per tree, or ``coproduct_fn`` on
    the monomial; neither keeps the Δ of a monomial.  S is memoised per
    tree, so it reads each tree's Δ once; the production pair is kept per
    (basis, parameters).
    """
    if coproduct_fn is None:
        return _production_maps(basis, ctx)
    return _maps_over(basis, ctx, lambda m: coproduct_fn(basis.element.basis(m, ctx.n)))


@cache
def _production_maps(basis, ctx: HopfContext):
    return _maps_over(basis, ctx, lambda m: _product(basis, m, ctx))


def _maps_over(basis, ctx: HopfContext, delta):
    """``delta`` and the S it determines.

    S is the recursion S(t) = −t − Σ S(t′)·t″ over the reduced coproduct
    of a tree, which S ⋆ id = uε forces, seeded with a plain −1; it is
    memoised per tree.  S of a monomial multiplies the S of its trees in
    reverse order: multiplicative on forests, anti-multiplicative on
    words.  A reduced term whose left leg is as large as the tree would
    recurse forever, so it raises ``ValueError``.
    """
    n = ctx.n
    element = basis.element

    @cache
    def s_tree(tree):
        mono = basis.monomial.single(tree)
        out: dict = {mono: -1}
        for (l, r), c in delta(mono).data.items():
            if l.is_empty() or r.is_empty():
                continue
            if l.size >= tree.size:
                raise ValueError(
                    f"Δ is not graded: the reduced coproduct of {tree} has the "
                    f"left leg {l} with {l.size} vertices"
                )
            for k, d in antipode(l).data.items():
                _acc(out, k * r, -(c * d))
        return element._adopt(n, out)

    def antipode(mono):
        trees = mono.trees
        return reduce(mul, map(s_tree, reversed(trees))) if trees else element.unit(n)

    return delta, antipode


def _antipode(basis, a, ctx: HopfContext, coproduct_fn=None):
    """S by the tree recursion of ``_maps_over``, extended linearly."""
    _check_entry(basis, a, ctx.n)
    scale, at = _integral(ctx, coproduct_fn)
    return _extend_linearly(a, _monomial_maps(basis, at, coproduct_fn)[1], basis.element, scale)


def antipode_recursive(
    a: Element,
    ctx: HopfContext,
    coproduct_fn: "Callable[[Element], TensorElement] | None" = None,
) -> Element:
    """Antipode by the tree recursion S(t) = −t − Σ S(t′)·t″ over the
    reduced coproduct of each tree (Δ(t) without t⊗1 and 1⊗t), extended
    multiplicatively over forests.  ``coproduct_fn`` substitutes a
    different Δ (the verifier uses this to test corrupted coproducts
    honestly); one that is not graded raises ``ValueError``.
    """
    return _antipode(_FORESTS, a, ctx, coproduct_fn)


# ---------------------------------------------------------------------------
# simplicial operators
# ---------------------------------------------------------------------------


def simplicial_d(i: int, a: Element) -> Element:
    """Face map: n colours down to n−1.

    d_0 severs all colour-1 edges and shifts the remaining colours down;
    d_n severs colour-n edges; 0 < i < n merges colours i and i+1.  All
    are algebra maps sending basis forests to basis forests.

    d_i is a Hopf map from Δ_q, S_q to Δ_{q′}, S_{q′}, with q′ the
    parameters of the colours left, when the merged colours i and i+1
    carry equal parameters (0 < i < n), or when the severed colour carries
    q_1 = q_2 = 1 (i = 0 or n).  This is measured, not proven:
    ``tests/test_faces.py`` checks it exactly on small n=2 trees.
    """
    n = a.n
    if n < 1:
        raise ValueError("face maps need at least one colour")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range 0..{n}")

    def join(tree: ColouredTree, done: dict) -> Forest:
        # the image of a tree from the images of its children
        slots = [
            reduce(mul, (done[t] for t in f.trees), EMPTY_FOREST) for f in decompose(tree, n)
        ]
        severed = slots.pop(0 if i == 0 else n - 1)
        return severed * Forest.single(add_root(slots, n - 1))

    def d_tree(tree: ColouredTree) -> Forest:
        if 0 < i < n:
            return Forest.single(tree.recolour(lambda c: c if c <= i else c - 1))
        return _bottom_up(tree, join)

    def d_forest(forest: Forest) -> Forest:
        return reduce(mul, map(d_tree, forest.trees), EMPTY_FOREST)

    return Element(n - 1, ((d_forest(f), c) for f, c in a.data.items()))


def simplicial_s(i: int, a: Element) -> Element:
    """Degeneracy map: n colours up to n+1, inserting an unused slot.

    Edge colours greater than i shift up by one; colours ≤ i stay.
    """
    n = a.n
    if not 0 <= i <= n:
        raise ValueError(f"degeneracy index {i} out of range 0..{n}")

    def s_forest(forest: Forest) -> Forest:
        return Forest(
            t.recolour(lambda c: c if c <= i else c + 1) for t in forest.trees
        )

    return Element(n + 1, ((s_forest(f), c) for f, c in a.data.items()))


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    name: str
    cases: int
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.cases} cases)"
        return f"FAIL {self.name} ({self.cases} cases): {self.failure}"


@dataclass
class VerificationReport:
    n: int
    max_degree: int
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> CheckOutcome | None:
        return next((c for c in self.checks if not c.passed), None)

    def summary(self) -> str:
        head = f"axiom checks (n={self.n}, degrees <= {self.max_degree})"
        lines = [head] + ["  " + c.line() for c in self.checks]
        lines.append("  => " + ("ALL PASSED" if self.passed else "FAILURES FOUND"))
        return "\n".join(lines)


def _sample(cases: list, max_cases: int | None, seed: int) -> list:
    if max_cases is None or len(cases) <= max_cases:
        return cases
    return random.Random(seed).sample(cases, max_cases)


def _check(name: str, cases: list, fails) -> CheckOutcome:
    """Run ``fails`` on the cases in order; it returns a failure message or
    None, and the first message is the check's failure."""
    return CheckOutcome(name, len(cases), next(filter(None, map(fails, cases)), None))


def _verify(basis, ctx, max_degree, coproduct_fn, max_cases, seed):
    """The axiom checks on every basis monomial (or pair or slot tuple of
    monomials) within ``max_degree``: coassociativity, the counit laws,
    multiplicativity of Δ, then, on forests, σ compatibility and the
    root-constructor square, then both antipode convolution laws.

    Commuting monomials are paired once per unordered pair, words in
    both orders.  ``coproduct_fn`` replaces the production Δ, and the
    antipode is rebuilt from it (a Δ on which the recursion cannot run
    fails the antipode check with the ``ValueError`` message);
    ``max_cases`` caps each case list by seeded sampling; below 1 it
    raises ``ValueError``, as does a ``max_degree`` below 0.

    The checks run at the point ``_integral`` gives, D·q unless a
    ``coproduct_fn`` is given (see the module docstring for why the
    report is that at q).  They compare the engine's own containers
    (``delta``, the root-constructor square, the graded products), whose
    values may be plain numbers beside ``Coeff`` ones; ``Coeff.__eq__``
    and ``_acc`` take both, and nothing here is handed to a caller.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    if max_cases is not None and max_cases < 1:
        raise ValueError(f"max_cases must be at least 1, got {max_cases}")
    ctx = _integral(ctx, coproduct_fn)[1]
    n, qspec = ctx.n, ctx.qspec
    monomial, element, tensor = basis.monomial, basis.element, basis.tensor
    delta, antipode = _monomial_maps(basis, ctx, coproduct_fn)
    delta = cache(delta)  # the checks read a case's Δ again; it dies with the call
    monos = list(_enumerate_up_to(monomial, n, max_degree))
    cases = _sample(monos, max_cases, seed)
    pairs = [
        (f, g)
        for i, f in enumerate(monos)
        for g in (monos[i:] if monomial._sorted else monos)
        if f.size + g.size <= max_degree
    ]
    pairs = _sample(pairs, max_cases, seed + 1)

    def coassociative(f):
        left: dict = {}
        right: dict = {}
        for (l, r), c in delta(f).data.items():
            for (a, b), d in delta(l).data.items():
                _acc(left, (a, b, r), c * d)
            for (a, b), d in delta(r).data.items():
                _acc(right, (l, a, b), c * d)
        if left != right:
            return f"(Δ⊗id)Δ ≠ (id⊗Δ)Δ on {f}"

    def counital(f):
        d = delta(f)
        ident = element.basis(f, n)
        if d.left_counit() != ident or d.right_counit() != ident:
            return f"counit law fails on {f}"

    def multiplicative(pair):
        f, g = pair
        if delta(f * g) != delta(f) * delta(g):
            return f"Δ({f}·{g}) ≠ Δ({f})·Δ({g})"

    def sigma_compatible(combo):
        slots = [element.basis(f, n) for f in combo]
        unit = ONE if all(f.is_empty() for f in combo) else ZERO
        for side in (1, 2):
            s = sigma(side, qspec, slots)
            if s.counit() != unit:
                return f"ε∘σ_{side} ≠ ε^⊗n on {tuple(map(str, combo))}"
            # (σ⊗σ)(Δ^{⊗n}): the slot coproducts graded and multiplied
            graded = (_graded(delta(f), qspec.q(side, j)) for j, f in enumerate(combo, start=1))
            if _extend_linearly(s, delta, tensor) != reduce(mul, graded, tensor.unit(n)):
                return f"Δ∘σ_{side} condition fails on {tuple(map(str, combo))}"

    def square(combo):
        lam = monomial.single(_lam(monomial, combo, n))
        if delta(lam) != _root_square(basis, [delta(f) for f in combo], ctx):
            return f"Δ∘λ square fails on {tuple(map(str, combo))}"

    def convolution(f):
        lhs: dict = {}
        rhs: dict = {}
        try:
            for (l, r), c in delta(f).data.items():
                for k, d in antipode(l).data.items():
                    _acc(lhs, k * r, d * c)
                for k, d in antipode(r).data.items():
                    _acc(rhs, l * k, d * c)
        except ValueError as exc:
            return str(exc)
        expect = {monomial(): ONE} if f.is_empty() else {}
        if lhs != expect or rhs != expect:
            return f"S*id = id*S = uε fails on {f}"

    checks = [
        ("coassociativity", cases, coassociative),
        ("counit laws", cases, counital),
        ("Δ multiplicative", pairs, multiplicative),
    ]
    if basis is _FORESTS:
        # slot-monomial tuples of total size < max_degree in product order,
        # grown slot by slot (a loop: n may pass the recursion limit)
        grown = [((), 0)] if max_degree >= 1 else []
        for _ in range(n):
            grown = [
                (combo + (f,), size + f.size)
                for combo, size in grown
                for f in monos
                if size + f.size < max_degree
            ]
        tuples = _sample([combo for combo, _ in grown], max_cases, seed + 2)
        checks += [
            ("σ compatibility", tuples, sigma_compatible),
            ("root-constructor square", tuples, square),
        ]
    checks.append(("antipode convolution", cases, convolution))
    return VerificationReport(n, max_degree, [_check(*check) for check in checks])


def verify_bialgebra(
    ctx: HopfContext,
    max_degree: int,
    coproduct_fn: "Callable[[Element], TensorElement] | None" = None,
    max_cases: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Exhaustively check the bialgebra/Hopf axioms up to a degree bound.

    Runs coassociativity, the counit laws, multiplicativity of Δ, the
    two σ compatibility conditions ε∘σ_i = ε^⊗n and Δ∘σ_i = (σ_i⊗σ_i)Δ^⊗n,
    the defining square for the root constructor, and both antipode
    convolution laws, on every basis forest (or pair or slot tuple of
    forests) within ``max_degree``.
    ``coproduct_fn`` lets callers verify a modified coproduct; the
    antipode used in the convolution check is rebuilt from it, so a
    corrupt Δ is judged by its own axioms.  ``max_cases`` caps each
    check's case list by seeded sampling (exhaustive when ``None``).
    """
    return _verify(_FORESTS, ctx, max_degree, coproduct_fn, max_cases, seed)
