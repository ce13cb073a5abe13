"""Acceptance suite: the ten release criteria, each at full stated scale.

Every criterion is exact (polynomial identity or integer equality, zero
tolerance).  Each one prints a single PASS/FAIL line; run this module
directly to see the scoreboard without pytest:

    python3 tests/test_acceptance.py
"""

import sys
import time

import bruteforce
from treehopf.algebra import Element
from treehopf.hopf import (
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
from treehopf.planar import (
    PlanarElement,
    enumerate_planar_trees,
    enumerate_planar_words_up_to,
    forget_element,
    forget_tensor,
    planar_coproduct,
    verify_planar,
)
from treehopf.prelie import (
    DualElement,
    aut_rescale,
    bullet,
    bullet_prime,
    down_map,
    free_bullet,
    phi,
)
from treehopf.trees import (
    Forest,
    enumerate_forests_up_to,
    enumerate_trees,
)

# the shared exhaustive range for the coproduct-level criteria:
# all forests up to 5 vertices for one colour, up to 4 for two
AXIOM_RANGES = ((1, 5), (2, 4))


def _forest_elements(n, max_total):
    return [Element.basis(f, n) for f in enumerate_forests_up_to(n, max_total)]


def _trees_up_to(n, max_size):
    out = []
    for m in range(1, max_size + 1):
        out.extend(enumerate_trees(n, m))
    return out


def _subsets(n):
    cols = list(range(1, n + 1))
    return [
        tuple(c for b, c in enumerate(cols) if mask >> b & 1)
        for mask in range(1 << n)
    ]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_axiom_suite():
    """Hopf axioms hold exactly for fully symbolic parameters."""
    cases = 0
    for n, deg in AXIOM_RANGES:
        report = verify_bialgebra(HopfContext.symbolic(n), deg)
        cases += sum(c.cases for c in report.checks)
        if not report.passed:
            return False, report.first_failure.failure
    return True, f"6 checks per family member, {cases} cases, symbolic, exact"


def criterion_closed_equals_inductive():
    """The direct subset-sum coproduct equals the recursive one."""
    cases = 0
    for n, deg in AXIOM_RANGES:
        ctx = HopfContext.symbolic(n)
        for e in _forest_elements(n, deg):
            if coproduct(e, ctx) != coproduct_closed(e, ctx):
                return False, f"mismatch on {e} (n={n})"
            cases += 1
    return True, f"{cases} forests, symbolic, exact"


def criterion_antipode_agreement():
    """Both antipode routes (recursive, sign-per-partition) agree."""
    cases = 0
    for n, deg in AXIOM_RANGES:
        ctx = HopfContext.symbolic(n)
        for e in _forest_elements(n, deg):
            if antipode_recursive(e, ctx) != antipode_partitions(e, ctx):
                return False, f"mismatch on {e} (n={n})"
            cases += 1
    return True, f"{cases} forests, symbolic, exact"


def criterion_ck_specialisation():
    """At (q11,q21)=(1,0) the coproduct is the admissible-cut coproduct."""
    ctx = HopfContext.connes_kreimer()
    cases = 0
    for e in _forest_elements(1, 5):
        if coproduct(e, ctx) != ck_coproduct_oracle(e):
            return False, f"mismatch on {e}"
        cases += 1
    return True, f"{cases} one-coloured forests <= 5 vertices, exact"


def _prelie_associator_defect(n, ctx, x, y, z, cache):
    def basis_product(t, s):
        got = cache.get((t, s))
        if got is None:
            got = cache[(t, s)] = bullet(
                DualElement.basis(t, n), DualElement.basis(s, n), ctx
            )
        return got

    def prod(a, b):
        out = DualElement.zero(n)
        for t, ct in a.data.items():
            for s, cs in b.data.items():
                out = out + (ct * cs) * basis_product(t, s)
        return out

    def assoc(a, b, c):
        return prod(prod(a, b), c) - prod(a, prod(b, c))

    return assoc(x, y, z) - assoc(x, z, y)


def criterion_prelie_identity():
    """With row 1 the indicator of a colour set and row 2 zero, the dual
    product has a symmetric associator (a pre-Lie product)."""
    cases = 0
    for n in (1, 2):
        trees = _trees_up_to(n, 4)
        for p in _subsets(n):
            ctx = HopfContext.indicator(n, p)
            cache = {}
            for tx in trees:
                for ty in trees:
                    for tz in trees:
                        if tx.size + ty.size + tz.size > 6:
                            continue
                        x = DualElement.basis(tx, n)
                        y = DualElement.basis(ty, n)
                        z = DualElement.basis(tz, n)
                        defect = _prelie_associator_defect(
                            n, ctx, x, y, z, cache
                        )
                        if not defect.is_zero():
                            return (
                                False,
                                f"associator asymmetry at n={n}, p={p}, "
                                f"({tx},{ty},{tz})",
                            )
                        cases += 1
    return True, f"{cases} (triple, colour-set) cases, total degree <= 6, exact"


def criterion_rescale_and_embedding():
    """|Aut|-rescaling carries the grafting product to the enumeration
    product, and the labelled-tree embedding is injective and respects
    the products."""
    cases = 0
    for n in (1, 2):
        p = tuple(range(1, n + 1))
        ctx = HopfContext.indicator(n, p)
        trees = _trees_up_to(n, 5)
        for t in trees:
            for s in trees:
                if t.size + s.size > 6:
                    continue
                a = DualElement.basis(t, n)
                b = DualElement.basis(s, n)
                lhs = aut_rescale(bullet_prime(a, b, p))
                rhs = bullet(aut_rescale(a), aut_rescale(b), ctx)
                if lhs != rhs:
                    return False, f"rescale mismatch at n={n} on ({t},{s})"
                cases += 1

        # injectivity of phi on basis trees <= 5 vertices: the images have
        # pairwise disjoint supports (each labelled tree recovers its
        # source via down_map), hence are linearly independent
        seen = {}
        for t in trees:
            image = phi(DualElement.basis(t, n))
            if image.is_zero():
                return False, f"phi vanishes on {t} (n={n})"
            for labelled in image.data:
                _, source = down_map(labelled)
                if source != t or labelled in seen:
                    return False, f"phi images collide on {t} (n={n})"
                seen[labelled] = t
            cases += 1

        for t in trees:
            for s in trees:
                if t.size + s.size > 5:
                    continue
                a = DualElement.basis(t, n)
                b = DualElement.basis(s, n)
                if phi(bullet_prime(a, b, p)) != free_bullet(phi(a), phi(b)):
                    return False, f"phi is not multiplicative on ({t},{s})"
                cases += 1
    return True, f"{cases} cases (pairs <= 6 resp. <= 5, plus injectivity), exact"


def criterion_duality_pairing():
    """Structure constants of the dual product are coproduct coefficients:
    the D_w coefficient of D_t • D_s equals the (s, t) coefficient of the
    coproduct of w."""
    n = 1
    ctx = HopfContext.symbolic(n)
    cases = 0
    for m in range(1, 5):
        for w in enumerate_trees(n, m):
            d = coproduct(Element.basis(Forest.single(w), n), ctx)
            for t in _trees_up_to(n, m - 1):
                for s in _trees_up_to(n, m - t.size):
                    if t.size + s.size != m:
                        continue
                    lhs = bullet(
                        DualElement.basis(t, n), DualElement.basis(s, n), ctx
                    ).coefficient(w)
                    rhs = d.coefficient((Forest.single(s), Forest.single(t)))
                    if lhs != rhs:
                        return False, f"pairing mismatch at w={w}, t={t}, s={s}"
                    cases += 1
    return True, f"{cases} (w, t, s) triples, trees <= 4 vertices, symbolic, exact"


def criterion_simplicial_identities():
    """Face/degeneracy operators satisfy the simplicial relations."""
    cases = 0
    for n in (1, 2, 3):
        elements = [
            Element.basis(Forest.single(t), n) for t in _trees_up_to(n, 4)
        ]
        for e in elements:
            for j in range(n + 1):
                # composing two face maps needs two colours to remove
                if n >= 2:
                    for i in range(j):
                        if simplicial_d(i, simplicial_d(j, e)) != simplicial_d(
                            j - 1, simplicial_d(i, e)
                        ):
                            return False, f"dd identity fails at n={n}, i={i}, j={j}"
                        cases += 1
                for i in range(j + 1):
                    if simplicial_s(i, simplicial_s(j, e)) != simplicial_s(
                        j + 1, simplicial_s(i, e)
                    ):
                        return False, f"ss identity fails at n={n}, i={i}, j={j}"
                    cases += 1
            for j in range(n + 1):
                for i in range(n + 2):
                    out = simplicial_d(i, simplicial_s(j, e))
                    if i == j or i == j + 1:
                        expected = e
                    elif i < j:
                        expected = simplicial_s(j - 1, simplicial_d(i, e))
                    else:
                        expected = simplicial_s(j, simplicial_d(i - 1, e))
                    if out != expected:
                        return False, f"ds identity fails at n={n}, i={i}, j={j}"
                    cases += 1
    return True, f"{cases} operator identities, trees <= 4 vertices, n <= 3"


def criterion_enumeration_counts():
    """Tree counts match the independent brute-force generator."""
    expected = (1, 1, 2, 4, 9, 20, 48, 115)
    for m, want in enumerate(expected, start=1):
        got = len(enumerate_trees(1, m))
        oracle = bruteforce.count_trees(1, m)
        if got != want or oracle != want:
            return False, f"{m}-vertex trees: library {got}, oracle {oracle}, frozen {want}"
    planar_expected = (1, 1, 2, 5, 14)
    for m, want in enumerate(planar_expected, start=1):
        got = len(enumerate_planar_trees(1, m))
        oracle = bruteforce.count_ordered_trees(m)
        if got != want or oracle != want:
            return (
                False,
                f"{m}-vertex planar trees: library {got}, oracle {oracle}, frozen {want}",
            )
    return True, f"sizes 1..8 = {expected}; planar 1..5 = {planar_expected}"


def criterion_planar_axioms():
    """The ordered variant is a Hopf algebra too, and forgetting the
    orderings intertwines its coproduct with the symmetric one."""
    cases = 0
    for n in (1, 2):
        report = verify_planar(HopfContext.symbolic(n), 4)
        cases += sum(c.cases for c in report.checks)
        if not report.passed:
            return False, report.first_failure.failure

    ctx = HopfContext.symbolic(1)
    for w in enumerate_planar_words_up_to(1, 4):
        a = PlanarElement.basis(w, 1)
        if forget_tensor(planar_coproduct(a, ctx)) != coproduct(
            forget_element(a), ctx
        ):
            return False, f"forgetful map breaks the coproduct on {w}"
        cases += 1
    return True, f"{cases} cases, words <= 4 vertices, n <= 2, symbolic, exact"


CRITERIA = (
    ("1. Hopf axiom suite (symbolic, n=1 deg<=5, n=2 deg<=4)", criterion_axiom_suite),
    ("2. closed coproduct = inductive coproduct", criterion_closed_equals_inductive),
    ("3. antipode routes agree", criterion_antipode_agreement),
    ("4. admissible-cut specialisation at (1,0)", criterion_ck_specialisation),
    ("5. pre-Lie identity at indicator parameters", criterion_prelie_identity),
    ("6. |Aut|-rescaling and labelled-tree embedding", criterion_rescale_and_embedding),
    ("7. dual product / coproduct pairing", criterion_duality_pairing),
    ("8. simplicial operator identities", criterion_simplicial_identities),
    ("9. enumeration counts vs brute force", criterion_enumeration_counts),
    ("10. planar axiom suite and forgetful map", criterion_planar_axioms),
)


def _run(label, fn):
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}] ({elapsed:.1f}s)")
    return ok, detail


def test_01_axiom_suite():
    ok, detail = _run(*CRITERIA[0])
    assert ok, detail


def test_02_closed_equals_inductive():
    ok, detail = _run(*CRITERIA[1])
    assert ok, detail


def test_03_antipode_agreement():
    ok, detail = _run(*CRITERIA[2])
    assert ok, detail


def test_04_ck_specialisation():
    ok, detail = _run(*CRITERIA[3])
    assert ok, detail


def test_05_prelie_identity():
    ok, detail = _run(*CRITERIA[4])
    assert ok, detail


def test_06_rescale_and_embedding():
    ok, detail = _run(*CRITERIA[5])
    assert ok, detail


def test_07_duality_pairing():
    ok, detail = _run(*CRITERIA[6])
    assert ok, detail


def test_08_simplicial_identities():
    ok, detail = _run(*CRITERIA[7])
    assert ok, detail


def test_09_enumeration_counts():
    ok, detail = _run(*CRITERIA[8])
    assert ok, detail


def test_10_planar_axioms():
    ok, detail = _run(*CRITERIA[9])
    assert ok, detail


def main() -> int:
    results = [_run(label, fn)[0] for label, fn in CRITERIA]
    print(f"{sum(results)}/{len(results)} criteria passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
