"""Values leave Δ and S boxed once per process, by ``algebra._box``.

At a point with denominators the memos of Δ and S hold the values at
D·q, and the exit divides them.  ``_box`` memoises that division and the
boxing of plain numbers, so a repeated Δ or S hands out the objects it
handed out before, and equal constants of different results are one
object.
"""

from collections import defaultdict

import pytest

from treehopf.algebra import QSpec, parse_element
from treehopf.hopf import HopfContext, antipode_recursive, coproduct

# a tree, and a forest whose Δ and S are products of its trees' memoised ones
ELEMENTS = ("[1:[],1:[1:[1:[]]]]", "[1:[1:[]],1:[]]*[1:[]]*[]")


def _results(ctx):
    return [
        f(parse_element(text, 1), ctx) for text in ELEMENTS for f in (coproduct, antipode_recursive)
    ]


@pytest.mark.parametrize("q", ["1/3,3/2", "sym,1/3"], ids=["fractional", "mixed"])
def test_a_repeated_delta_or_s_hands_out_the_same_values(q):
    ctx = HopfContext(QSpec.from_strings(1, q.split(",")))
    first = _results(ctx)
    for before, again in zip(first, _results(ctx)):
        assert before.data.keys() == again.data.keys()
        assert all(again.data[k] is c for k, c in before.data.items())

    # equal constants of different results are one object
    boxes, found_in = {}, defaultdict(set)
    for i, result in enumerate(first):
        for c in result.data.values():
            if c.is_rational():
                assert boxes.setdefault(c, c) is c
                found_in[c].add(i)
    assert max(map(len, found_in.values())) > 1
