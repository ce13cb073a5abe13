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
``functools.cache`` on the function that computes it: Δ per (basis,
monomial, parameters), S per tree inside the maps that
``_production_maps`` keeps per (basis, parameters), and the q-powers
that weight the root-constructor square per (parameter, exponent) in
``algebra._power``, which σ and the dual product read too.  The trees
λ(legs) of one root-constructor square are kept in a table that lives
for that one call.

At a constant point the engine computes on plain numbers: ``_power``
hands it ``int`` and ``Fraction`` weights, Δ(∅) is a plain 1 and S's
seed a plain −1, and the memos of Δ and S hold such values beside
``Coeff`` ones.  ``algebra._extend_linearly`` is the one route by which
Δ and S reach a caller, and it boxes every plain value into a canonical
``Coeff``, so every public container holds ``Coeff`` values only.
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
    _check_n,
    _extend_linearly,
    _graded,
    _power,
    sigma,
)
from .trees import (
    ColouredTree,
    EMPTY_FOREST,
    Forest,
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


@cache
def _delta(basis, mono, ctx: HopfContext):
    """Memoised Δ of a basis monomial: the root-constructor square on a
    single tree, else the product over its trees in order (Δ is an
    algebra map); Δ(∅) is 1 ⊗ 1 with a plain 1.  Its values may be plain
    numbers, so callers read it through ``_extend_linearly``.  The
    oracles never read it."""
    trees = mono.trees
    if len(trees) == 1:
        slots = [_delta(basis, x, ctx) for x in _decompose(basis.monomial, trees[0], ctx.n)]
        return _root_square(basis, slots, ctx)
    if not trees:
        return basis.tensor._adopt(ctx.n, {(mono, mono): 1})
    return reduce(mul, (_delta(basis, basis.monomial.single(t), ctx) for t in trees))


def _coproduct(basis, a, ctx: HopfContext):
    _check_n(a, ctx)
    return _extend_linearly(a, lambda m: _delta(basis, m, ctx), basis.tensor)


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

    Δ is the production memo, or a per-call memo of ``coproduct_fn``; the
    production pair is kept per (basis, parameters).
    """
    if coproduct_fn is None:
        return _production_maps(basis, ctx)
    delta = cache(lambda m: coproduct_fn(basis.element.basis(m, ctx.n)))
    return _maps_over(basis, ctx, delta)


@cache
def _production_maps(basis, ctx: HopfContext):
    return _maps_over(basis, ctx, lambda m: _delta(basis, m, ctx))


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
    _check_n(a, ctx)
    return _extend_linearly(a, _monomial_maps(basis, ctx, coproduct_fn)[1], basis.element)


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
    """
    n = a.n
    if n < 1:
        raise ValueError("face maps need at least one colour")
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range 0..{n}")

    def d_tree(tree: ColouredTree) -> Forest:
        if 0 < i < n:
            return Forest.single(tree.recolour(lambda c: c if c <= i else c - 1))
        slots = decompose(tree, n)
        if i == 0:
            severed = d_forest(slots[0])
            body = add_root([d_forest(f) for f in slots[1:]], n - 1)
        else:
            severed = d_forest(slots[n - 1])
            body = add_root([d_forest(f) for f in slots[: n - 1]], n - 1)
        return severed * Forest.single(body)

    def d_forest(forest: Forest) -> Forest:
        out = EMPTY_FOREST
        for tree in forest.trees:
            out = out * d_tree(tree)
        return out

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

    The checks compare the engine's own containers (``delta``, the
    root-constructor square, the graded products), whose values may be
    plain numbers beside ``Coeff`` ones; ``Coeff.__eq__`` and ``_acc``
    take both, and nothing here is handed to a caller.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    if max_cases is not None and max_cases < 1:
        raise ValueError(f"max_cases must be at least 1, got {max_cases}")
    n, qspec = ctx.n, ctx.qspec
    monomial, element, tensor = basis.monomial, basis.element, basis.tensor
    delta, antipode = _monomial_maps(basis, ctx, coproduct_fn)
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
