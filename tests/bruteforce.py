"""Independent brute-force oracles used to validate the library.

Everything in this module is deliberately written against raw
``(parents, colours)`` arrays and nested tuples, without importing the
package under test.  The canonical encodings here are throwaway and only
serve to deduplicate isomorphism classes; they share no code with the
library's own canonical forms.  ``RefPoly`` is the coefficient ring in
its first representation (sorted symbol tuples to ``Fraction``), with its
own product, sum and printer.  ``closed_coproduct`` reads the closed
formula for the coproduct family literally: a sum over vertex subsets,
with its own root-path counts and its own induced forests; ``ck_antipode``
sums the Connes–Kreimer antipode over edge cuts.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product


# ---------------------------------------------------------------------------
# raw rooted trees: vertex 0 is the root, parents[i] < i for i >= 1,
# colours[i] is the colour of the edge from vertex i to its parent.
# ---------------------------------------------------------------------------


def raw_trees(n_colours: int, m: int):
    """Yield every (parents, colours) pair on m vertices.

    Each isomorphism class shows up at least once (usually many times):
    any rooted tree can be labelled so that parents precede children.
    """
    if m == 1:
        yield (), ()
        return
    parent_choices = [range(i) for i in range(1, m)]
    colour_choices = [range(1, n_colours + 1)] * (m - 1)
    for parents in product(*parent_choices):
        for colours in product(*colour_choices):
            yield parents, colours


def _children(parents, m):
    kids = [[] for _ in range(m)]
    for i, p in enumerate(parents, start=1):
        kids[p].append(i)
    return kids


def raw_encoding(parents, colours):
    """Order-insensitive nested-tuple encoding of a raw tree (root = 0)."""
    m = len(parents) + 1
    kids = _children(parents, m)

    def enc(v):
        return tuple(sorted((colours[c - 1], enc(c)) for c in kids[v]))

    return enc(0)


def count_trees(n_colours: int, m: int) -> int:
    """Number of isomorphism classes of n-coloured rooted trees on m vertices."""
    return len({raw_encoding(p, c) for p, c in raw_trees(n_colours, m)})


def isomorphic(tree_a, tree_b) -> bool:
    """Explicit bijection search between two raw trees (root to root).

    Exponential; fine for the handful of vertices the tests use.
    """
    pa, ca = tree_a
    pb, cb = tree_b
    m = len(pa) + 1
    if len(pb) + 1 != m:
        return False
    for perm in permutations(range(1, m)):
        pi = (0,) + perm  # pi[v] = image of v, root fixed
        ok = True
        for i in range(1, m):
            parent_img = pi[pa[i - 1]]
            if pb[pi[i] - 1] != parent_img or cb[pi[i] - 1] != ca[i - 1]:
                ok = False
                break
        if ok:
            return True
    return False


def automorphism_count(parents, colours) -> int:
    """Count root-fixing colour-preserving self-bijections of a raw tree."""
    m = len(parents) + 1
    total = 0
    for perm in permutations(range(1, m)):
        pi = (0,) + perm
        if all(
            parents[pi[i] - 1] == pi[parents[i - 1]]
            and colours[pi[i] - 1] == colours[i - 1]
            for i in range(1, m)
        ):
            total += 1
    return total


# ---------------------------------------------------------------------------
# ordered (planar, one colour) rooted trees via nested tuples
# ---------------------------------------------------------------------------


def ordered_trees(m: int):
    """All ordered rooted trees on m vertices as nested tuples.

    An ordered tree is a tuple of its child subtrees, in order.  Each
    tree is produced exactly once, so the count is Catalan(m - 1).
    """
    if m == 1:
        yield ()
        return
    # first child takes k vertices, the rest form the remaining order
    for k in range(1, m):
        for first in ordered_trees(k):
            for rest in ordered_trees(m - k):
                yield (first,) + rest


def count_ordered_trees(m: int) -> int:
    return len(set(ordered_trees(m)))


def compositions(total: int, parts: int):
    """The ``parts``-tuples of non-negative integers summing to ``total``,
    first part outermost: the reference for the enumeration order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the coefficient ring in its first representation
# ---------------------------------------------------------------------------


class RefPoly:
    """A polynomial over Q in the q-symbols, stored as a dict from a
    monomial, the sorted tuple of its ((i, j), exponent) pairs, to a
    nonzero Fraction; printed in the library's canonical form."""

    def __init__(self, terms=None):
        self.terms = {m: Fraction(v) for m, v in (terms or {}).items() if v}

    @classmethod
    def monomial(cls, value, exps):
        """``value`` times the product of q_{ij}^e over ``exps`` {(i, j): e}."""
        return cls({tuple(sorted((s, e) for s, e in exps.items() if e)): value})

    def __add__(self, other):
        out = dict(self.terms)
        for m, v in other.terms.items():
            out[m] = out.get(m, 0) + v
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({m: -v for m, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for ma, va in self.terms.items():
            for mb, vb in other.terms.items():
                exps = dict(ma)
                for s, e in mb:
                    exps[s] = exps.get(s, 0) + e
                m = tuple(sorted(exps.items()))
                out[m] = out.get(m, 0) + va * vb
        return RefPoly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m in sorted(self.terms, key=lambda m: (sum(e for _, e in m), m)):
            v = self.terms[m]
            factors = [f"q{i}{j}" + (f"^{e}" if e > 1 else "") for (i, j), e in m]
            if abs(v) != 1 or not factors:
                factors.insert(0, str(abs(v)))
            sign = ("" if v > 0 else "-") if not chunks else (" + " if v > 0 else " - ")
            chunks.append(sign + "*".join(factors))
        return "".join(chunks)


# ---------------------------------------------------------------------------
# the closed coproduct formula, read literally on a raw tree
# ---------------------------------------------------------------------------


def p_count(parents, colours, colour, v, side) -> int:
    """Colour-``colour`` edges on v's root path whose root-side end lies
    outside ``side``, the set of vertices on v's side of the split."""
    count = 0
    while v:
        up = parents[v - 1]
        if colours[v - 1] == colour and up not in side:
            count += 1
        v = up
    return count


def induced_encoding(parents, colours, selected):
    """Encoding of the forest induced on the vertex set ``selected``.

    Each selected vertex hangs below its nearest selected ancestor, by the
    colour of the host edge just below that ancestor; vertices without a
    selected ancestor are roots.  Trees are encoded as in ``raw_encoding``
    and a forest is the sorted tuple of its tree encodings.
    """
    kids = {v: [] for v in selected}
    roots = []
    for v in selected:
        below = v
        while below and parents[below - 1] not in selected:
            below = parents[below - 1]
        if below:
            kids[parents[below - 1]].append((colours[below - 1], v))
        else:
            roots.append(v)

    def enc(v):
        return tuple(sorted((c, enc(u)) for c, u in kids[v]))

    return tuple(sorted(enc(r) for r in roots))


def closed_coproduct(parents, colours, n_colours: int) -> dict:
    """The coproduct of one raw tree over the symbolic parameters.

    Every vertex subset s contributes q(s)·(forest induced on s) ⊗ (forest
    induced on the rest), where q(s) is the product of q1c^p over the
    vertices v in s and of q2c^p over the vertices outside s, p being
    ``p_count`` of colour c at v relative to v's side.  Returns
    {(left encoding, right encoding): RefPoly}, zero terms dropped.
    """
    m = len(parents) + 1
    out = {}
    for bits in product((False, True), repeat=m):
        s = frozenset(v for v in range(m) if bits[v])
        rest = frozenset(range(m)) - s
        exps = q_exponents(parents, colours, n_colours, s)
        key = (induced_encoding(parents, colours, s), induced_encoding(parents, colours, rest))
        out[key] = out.get(key, RefPoly()) + RefPoly.monomial(1, exps)
    return {k: v for k, v in out.items() if v.terms}


def q_exponents(parents, colours, n_colours: int, s) -> dict:
    """The nonzero exponents {(row, colour): e} of q(s) for the vertex set s."""
    m = len(parents) + 1
    rest = frozenset(range(m)) - s
    exps = {}
    for v in range(m):
        row, side = (1, s) if v in s else (2, rest)
        for c in range(1, n_colours + 1):
            e = p_count(parents, colours, c, v, side)
            if e:
                exps[(row, c)] = exps.get((row, c), 0) + e
    return exps


def ck_antipode(parents, colours) -> dict:
    """The Connes–Kreimer antipode of one raw tree, free of cancellation.

    S(t) = −Σ_{C ⊆ E(t)} (−1)^{|C|} t_C, where t_C is the forest left when
    the edges C are cut: every vertex below a cut edge roots a tree of its
    own.  Vertex v ≥ 1 names the edge to its parent.  Returns
    {forest encoding: int}, a forest encoded as in ``induced_encoding``.
    """
    m = len(parents) + 1
    out = {}
    for cut in product((False, True), repeat=m - 1):
        kids = [[] for _ in range(m)]
        roots = [0]
        for v in range(1, m):
            if cut[v - 1]:
                roots.append(v)
            else:
                kids[parents[v - 1]].append(v)

        def enc(v):
            return tuple(sorted((colours[u - 1], enc(u)) for u in kids[v]))

        key = tuple(sorted(enc(r) for r in roots))
        out[key] = out.get(key, 0) + (-1) ** len(roots)  # |C| + 1 roots
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# enumeration order
# ---------------------------------------------------------------------------


def _planar_encoding(parents, colours):
    """Encoding of a raw tree whose children are ordered by vertex index:
    per colour, in increasing colour, the tuple of child encodings."""
    m = len(parents) + 1
    kids = _children(parents, m)

    def enc(v):
        groups = {}
        for c in kids[v]:
            groups.setdefault(colours[c - 1], []).append(enc(c))
        return tuple((colour, tuple(groups[colour])) for colour in sorted(groups))

    return enc(0)


def tree_keys(n_colours: int, m: int, planar: bool = False) -> list:
    """The encodings of the n-coloured trees on m vertices, sorted.

    A coloured tree is the sorted tuple of its (colour, child) pairs; a
    planar tree groups its children per colour, in order.  Every planar
    tree shows up among the raw trees, numbered in preorder.
    """
    encode = _planar_encoding if planar else raw_encoding
    return sorted({encode(p, c) for p, c in raw_trees(n_colours, m)})


def monomials_in_order(trees_by_size: dict, key, total: int, commutative: bool) -> list:
    """The monomials with ``total`` vertices over the given trees, as
    tuples of trees in stored order, sorted by key (the library sorts by
    (size, key), and the size is fixed here).

    ``trees_by_size`` maps a size to its trees.  Forests (``commutative``)
    are the multisets of ``combinations_with_replacement`` within each
    size, their trees sorted by ``key``; words are every sequence of
    ``product``.  A monomial's key is the tuple of its trees' keys.
    """
    sizes = range(1, total + 1)
    out = []
    for k in range(total + 1):
        if commutative:
            for parts in combinations_with_replacement(sizes, k):
                if sum(parts) != total:
                    continue
                per_size = [
                    combinations_with_replacement(trees_by_size[s], parts.count(s))
                    for s in sorted(set(parts))
                ]
                for picks in product(*per_size):
                    out.append(tuple(sorted((t for pick in picks for t in pick), key=key)))
        else:
            for parts in product(sizes, repeat=k):
                if sum(parts) == total:
                    out.extend(product(*(trees_by_size[s] for s in parts)))
    return sorted(out, key=lambda mono: tuple(key(t) for t in mono))
