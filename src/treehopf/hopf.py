"""The deformed coproduct family, its antipodes, and checks.

The production comultiplication ``coproduct`` is the structural
recursion through the root-adjoining constructor λ: a tree is
λ(x_1, …, x_n) for its colour slots x_j, and

    Δλ(x) = Σ σ_1(x′) ⊗ λ(x″) + λ(x′) ⊗ σ_2(x″),

where x′ ⊗ x″ runs over the slotwise coproduct terms and σ_i multiplies
the slots with weight Π_j q_{ij}^{|x_j|}; Δ is extended multiplicatively
over forests.  Its cost follows the size of the output.

The closed formula is kept as an oracle, ``coproduct_closed``: the sum
over all vertex subsets s of q(s,t)·(induced forest of s) ⊗ (induced
forest of the complement), where q(s,t) is a monomial in the 2n
parameters determined by colour counts along root paths (see
``_walk``).  It costs 2^|V| per forest; the test-suite pins
the production route against it, and against the admissible-cut
oracle ``ck_coproduct_oracle`` at the Connes–Kreimer point.

The antipode is the tree recursion S(t) = −t − Σ S(t′)·t″; the
ordered-partition sum ``antipode_partitions`` is kept as its oracle.

The engine (``_delta``, ``_monomial_maps``, ``_coproduct_closed``, and
``_verify``, one list of named checks that ``_check`` runs case by case)
is written once over a basis record ``algebra._Basis``: the public
functions here run it on forests, those in ``planar`` on words.

Everything here is a pure function of immutable values.  A value is
memoised only where a later call reads it again, and always by
``functools.cache`` on the function that computes it: Δ per (basis,
monomial, parameters), S per tree inside the maps that
``_production_maps`` keeps per (basis, parameters), and the q-powers
that weight the root-constructor square per (parameter, exponent) in
``algebra._power``, which σ and the dual product read too.  The trees
λ(legs) of one root-constructor square are kept in a table that lives
for that one call.  The split table and the oracles build their vertex
indexes and induced monomials per call.

At a constant point the engine computes on plain numbers: ``_power``
hands it ``int`` and ``Fraction`` weights, Δ(∅) is a plain 1 and S's
seed a plain −1, and the memos of Δ and S hold such values beside
``Coeff`` ones.  ``_extend_linearly`` is the one route by which Δ and S
reach a caller, and it boxes every plain value into a canonical
``Coeff``, so every public container holds ``Coeff`` values only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product as _iproduct
from operator import mul
from typing import Callable, Iterable, Sequence

from .algebra import (
    Coeff,
    Element,
    ONE,
    QSpec,
    TensorElement,
    ZERO,
    _FORESTS,
    _acc,
    _box,
    _graded,
    _power,
    evaluate_exponents,
    sigma,
)
from .trees import (
    ColouredTree,
    ColourMismatchError,
    EMPTY_FOREST,
    Forest,
    IndexedForest,
    _decompose,
    _enumerate_up_to,
    _induced_monomial,
    _lam,
    add_root,
    decompose,
    induced_structure,
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
# q-coefficients
# ---------------------------------------------------------------------------


def _parts(basis, idx: IndexedForest) -> list:
    """The induced monomial of every vertex subset, indexed by mask."""
    return [
        _induced_monomial(idx, mask, basis.monomial)
        for mask in range(1 << idx.nverts)
    ]


def _walk(structure, mask: int, host_mask: int) -> dict[tuple[int, int], int]:
    """Exponent of each parameter q_{ij} in q(s, host), for the subset
    ``mask`` of ``host_mask``, given the induced (parent, colour) maps
    ``structure`` of ``host_mask``.

    For every selected vertex, walk its root path inside the host and
    count, per colour, the edges whose lower (root-side) vertex falls
    outside the subset, on row 1; complementary vertices contribute the
    same counts relative to the complement, on row 2.
    """
    parent_of, colour_of = structure
    exps: dict[tuple[int, int], int] = {}
    for v in parent_of:
        if mask >> v & 1:
            row, inside = 1, mask
        else:
            row, inside = 2, host_mask & ~mask
        walk = v
        while parent_of[walk] is not None:
            lower = parent_of[walk]
            if not inside >> lower & 1:
                key = (row, colour_of[walk])
                exps[key] = exps.get(key, 0) + 1
            walk = lower
    return exps


def _split_table(basis, mono) -> list:
    """All (induced part, induced complement, exponents) vertex splits,
    in mask order."""
    idx = IndexedForest(mono.trees)
    full = (1 << idx.nverts) - 1
    structure = induced_structure(idx, full)
    parts = _parts(basis, idx)
    return [
        (parts[mask], parts[full ^ mask], _walk(structure, mask, full))
        for mask in range(full + 1)
    ]


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


def _extend_linearly(a, basis_fn, cls):
    """The ``cls`` combination Σ c·basis_fn(k) over the terms c·k of ``a``.

    This is the one exit of Δ and S to callers: the engine's plain
    values are boxed here, each once, by ``algebra._box`` into canonical
    ``Coeff`` values.
    """
    out: dict = {}
    for key, coeff in a.data.items():
        one = coeff == ONE
        for k, c in basis_fn(key).data.items():
            _acc(out, k, c if one else c * coeff)
    for k, c in out.items():
        out[k] = _box(c)
    return cls._adopt(a.n, out)


def _coproduct(basis, a, ctx: HopfContext):
    _check_n(a, ctx)
    return _extend_linearly(a, lambda m: _delta(basis, m, ctx), basis.tensor)


def _coproduct_closed(basis, a, ctx: HopfContext):
    _check_n(a, ctx)
    out: dict = {}
    for mono, coeff in a.data.items():
        for part, comp, exps in _split_table(basis, mono):
            c = evaluate_exponents(ctx.qspec, exps)
            if not c.is_zero():
                _acc(out, (part, comp), c * coeff)
    return basis.tensor(ctx.n, out)


def coproduct(a: Element, ctx: HopfContext) -> TensorElement:
    """Comultiplication by structural recursion through the root constructor.

    Each tree is split by ``decompose`` into its colour slots and Δ is
    rebuilt from the slot coproducts by the defining square
    Δλ(x) = Σ σ_1(x')⊗λ(x'') + λ(x')⊗σ_2(x''); forests multiply.  The
    cost follows the size of the output, not the 2^|V| vertex subsets
    that ``coproduct_closed`` sums over.
    """
    return _coproduct(_FORESTS, a, ctx)


# ``coproduct`` is the recursive route; the name is kept for existing callers
coproduct_inductive = coproduct


def coproduct_closed(a: Element, ctx: HopfContext) -> TensorElement:
    """Oracle: the closed formula, a sum over all 2^|V| vertex subsets.

    Each subset s contributes q(s,t)·(induced forest of s) ⊗ (induced
    forest of the complement).  Exponential in the vertex count; kept as
    the reference the tests compare ``coproduct`` against, and it shares
    no Δ memo with it.
    """
    return _coproduct_closed(_FORESTS, a, ctx)


def _check_n(a, ctx: HopfContext):
    if a.n != ctx.n:
        raise ColourMismatchError(
            f"element over n={a.n} used with a context over n={ctx.n}"
        )


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


def antipode_partitions(a: Element, ctx: HopfContext) -> Element:
    """Antipode as a signed sum over ordered partitions of the vertex set.

    Each ordered partition (s_1, …, s_k) of the vertices of t contributes
    (−1)^k · s_1·…·s_k · Π_{j<k} q(s_j, u_j), where u_j = s_j ∪ … ∪ s_k
    and the q-monomial is taken with host the induced subforest u_j.
    """
    _check_n(a, ctx)
    n = ctx.n

    def s_basis(forest: Forest) -> Element:
        if forest.is_empty():
            return Element.unit(n)
        idx = IndexedForest(forest.trees)
        parts = _parts(_FORESTS, idx)

        @cache
        def rest(mask: int) -> dict[Forest, Coeff]:
            out: dict[Forest, Coeff] = {}
            _acc(out, parts[mask], Coeff.rational(-1))
            structure = induced_structure(idx, mask)
            sub = (mask - 1) & mask
            while sub:
                factor = evaluate_exponents(ctx.qspec, _walk(structure, sub, mask))
                if not factor.is_zero():
                    for tail, c in rest(mask & ~sub).items():
                        _acc(out, parts[sub] * tail, -(factor * c))
                sub = (sub - 1) & mask
            return out

        return Element(n, rest(len(parts) - 1))

    return _extend_linearly(a, s_basis, Element)


# ---------------------------------------------------------------------------
# Connes–Kreimer oracle (independent implementation, single colour)
# ---------------------------------------------------------------------------


def _admissible_cuts(tree: ColouredTree) -> list[tuple[tuple[ColouredTree, ...], ColouredTree]]:
    """All (crown trees, trunk) pairs from cutting an edge antichain.

    Works by direct recursion on the tree structure: each child subtree
    is either severed whole or keeps its edge and is cut internally.
    The empty cut (crown ∅, trunk = tree) is included; the "cut above
    the root" pair is NOT (the caller adds t⊗1 separately).
    """
    per_child: list[list[tuple[tuple[ColouredTree, ...], ColouredTree | None]]] = []
    for _, child in tree.children:
        options: list[tuple[tuple[ColouredTree, ...], ColouredTree | None]] = [
            ((child,), None)  # sever the whole child
        ]
        for crown, trunk in _admissible_cuts(child):
            options.append((crown, trunk))
        per_child.append(options)
    out = []
    for combo in _iproduct(*per_child):
        crown: tuple[ColouredTree, ...] = ()
        kept = []
        for crown_part, trunk_part in combo:
            crown = crown + crown_part
            if trunk_part is not None:
                kept.append((1, trunk_part))
        out.append((crown, ColouredTree(kept)))
    return out


def ck_coproduct_oracle(a: Element) -> TensorElement:
    """Independent single-colour coproduct by admissible edge cuts.

    Used purely as a cross-check against ``coproduct`` at parameter
    values (1, 0); shares only the tree containers with the main code,
    none of the subset/path machinery.
    """
    if a.n != 1:
        raise ColourMismatchError("the cut oracle is defined for n = 1 only")
    out: dict[tuple[Forest, Forest], Coeff] = {}
    for forest, coeff in a.data.items():
        terms: dict[tuple[Forest, Forest], Coeff] = {(EMPTY_FOREST, EMPTY_FOREST): ONE}
        for tree in forest.trees:
            tree_terms: dict[tuple[Forest, Forest], Coeff] = {}
            _acc(tree_terms, (Forest.single(tree), EMPTY_FOREST), ONE)
            for crown, trunk in _admissible_cuts(tree):
                _acc(tree_terms, (Forest(crown), Forest.single(trunk)), ONE)
            nxt: dict[tuple[Forest, Forest], Coeff] = {}
            for (l1, r1), c1 in terms.items():
                for (l2, r2), c2 in tree_terms.items():
                    _acc(nxt, (l1 * l2, r1 * r2), c1 * c2)
            terms = nxt
        for key, c in terms.items():
            _acc(out, key, c * coeff)
    return TensorElement(1, out)


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
