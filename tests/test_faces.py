"""Face and degeneracy maps relate Δ and S across colour counts.

Under the condition in the ``simplicial_d`` docstring, a face map d is a
Hopf map from the parameters q over n colours to q′ over n − 1:
(d⊗d)Δ_q = Δ_{q′}∘d and d∘S_q = S_{q′}∘d.  Both are compared exactly on
every n=2 tree with at most 5 vertices, for the merging face d_1 and the
severing face d_0; a point that breaks the condition must mismatch.

A degeneracy s_i inserts the unused colour i + 1, so it is a Hopf map
once the symbols of each shifted colour are renamed with it: q_{r,j}
becomes q_{r,j+1} for j > i.  That is compared symbolically on small
trees at n = 1 and n = 2; without the renaming the two sides mismatch.
"""

from fractions import Fraction

from treehopf.algebra import Coeff, Element, TensorElement
from treehopf.hopf import (
    HopfContext,
    antipode_recursive,
    coproduct,
    simplicial_d,
    simplicial_s,
)
from treehopf.trees import Forest, enumerate_trees

TREES = [Element.basis(Forest.single(t), 2) for m in range(1, 6) for t in enumerate_trees(2, m)]


def _face_of_tensor(i: int, t: TensorElement) -> TensorElement:
    """(d_i ⊗ d_i)(t), leg by leg: d_i sends each basis forest to one."""

    def face(forest):
        [image] = simplicial_d(i, Element.basis(forest, t.n)).data
        return image

    return TensorElement(t.n - 1, (((face(l), face(r)), c) for (l, r), c in t.data.items()))


def _coproduct_mismatches(i: int, q, q_prime) -> int:
    ctx, ctx_prime = HopfContext.rational(2, q), HopfContext.rational(1, q_prime)
    return sum(
        _face_of_tensor(i, coproduct(a, ctx)) != coproduct(simplicial_d(i, a), ctx_prime)
        for a in TREES
    )


def _antipode_mismatches(i: int, q, q_prime) -> int:
    ctx, ctx_prime = HopfContext.rational(2, q), HopfContext.rational(1, q_prime)
    return sum(
        simplicial_d(i, antipode_recursive(a, ctx))
        != antipode_recursive(simplicial_d(i, a), ctx_prime)
        for a in TREES
    )


def test_the_exhaustive_range_holds_every_small_tree():
    assert len(TREES) == 143


def test_the_merging_face_is_a_hopf_map_at_equal_parameters():
    # q = (q11, q12, q21, q22): colours 1 and 2 carry equal parameters
    assert _coproduct_mismatches(1, (2, 2, 3, 3), (2, 3)) == 0
    assert _antipode_mismatches(1, (2, 2, 3, 3), (2, 3)) == 0


def test_the_severing_face_is_a_hopf_map_when_the_severed_colour_has_unit_parameters():
    half = Fraction(1, 2)
    assert _coproduct_mismatches(0, (1, half, 1, -3), (half, -3)) == 0
    assert _antipode_mismatches(0, (1, 2, 1, Fraction(-3, 2)), (2, Fraction(-3, 2))) == 0


def test_the_merging_face_breaks_at_unequal_parameters():
    assert _coproduct_mismatches(1, (2, 5, 3, 3), (2, 3)) == 126


def _renaming(i: int, n: int) -> dict:
    """q_{r,j} ↦ q_{r,j+1} for the colours j > i that s_i shifts up."""
    return {(r, j): Coeff.variable(r, j + 1) for r in (1, 2) for j in range(i + 1, n + 1)}


def _degeneracy_mismatches(rename: bool) -> int:
    """Symbolic (s_i⊗s_i)Δ_n ≠ Δ_{n+1}∘s_i and s_i∘S_n ≠ S_{n+1}∘s_i,
    counted over n = 1 (trees of at most 5 vertices) and n = 2 (at most 4),
    every i = 0..n."""
    mismatches = 0
    for n, max_size in ((1, 5), (2, 4)):
        ctx, ctx_up = HopfContext.symbolic(n), HopfContext.symbolic(n + 1)
        for i in range(n + 1):
            values = _renaming(i, n) if rename else {}

            def s(forest):
                [image] = simplicial_s(i, Element.basis(forest, n)).data
                return image

            for m in range(1, max_size + 1):
                for t in enumerate_trees(n, m):
                    a = Element.basis(Forest.single(t), n)
                    delta = TensorElement(
                        n + 1,
                        (((s(l), s(r)), c.substitute(values))
                         for (l, r), c in coproduct(a, ctx).data.items()),
                    )
                    anti = Element(
                        n + 1,
                        ((s(f), c.substitute(values))
                         for f, c in antipode_recursive(a, ctx).data.items()),
                    )
                    image = simplicial_s(i, a)
                    mismatches += delta != coproduct(image, ctx_up)
                    mismatches += anti != antipode_recursive(image, ctx_up)
    return mismatches


def test_degeneracies_are_hopf_maps_with_the_symbols_renamed():
    assert _degeneracy_mismatches(rename=True) == 0


def test_degeneracies_without_the_renaming_mismatch():
    assert _degeneracy_mismatches(rename=False) == 158
