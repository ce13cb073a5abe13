"""Face maps relate Δ and S across colour counts.

Under the condition in the ``simplicial_d`` docstring, a face map d is a
Hopf map from the parameters q over n colours to q′ over n − 1:
(d⊗d)Δ_q = Δ_{q′}∘d and d∘S_q = S_{q′}∘d.  Both are compared exactly on
every n=2 tree with at most 5 vertices, for the merging face d_1 and the
severing face d_0; a point that breaks the condition must mismatch.
"""

from fractions import Fraction

from treehopf.algebra import Element, TensorElement
from treehopf.hopf import HopfContext, antipode_recursive, coproduct, simplicial_d
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
