"""The four seeded workloads: generated inputs, timed ops and their gates.

``build(name, seed, th, tiny)`` returns the op list of one pass.  ``th`` is
the imported ``treehopf`` package.  Inputs are generated here as text, from
the seed alone, and parsed by the library while the list is built (that is
part of set-up).  The library only ever sees these generated inputs.

Each op is one call in a closed loop with one caller: the next op starts
when the previous one has returned.  ``Op.call`` receives the results of
the ops before it (a few ops consume an earlier result).  ``Op.check`` is
the op's correctness gate.  It runs after the timed loop, through a public
route independent of the one timed, and returns ``None`` or the reason the
result is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

# Positive rational parameter values other than 1.  Zero or opposite-sign
# entries cancel terms and make an op far cheaper, so a seed that drew them
# would measure less work than another seed.
GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 3),
        Fraction(3, 2), Fraction(2), Fraction(3))


@dataclass
class Op:
    kind: str
    call: Callable[[list], object]
    check: Callable[[object, list], "str | None"]
    render: Callable[[object], str] = str
    vertices: int = 0
    known_defect: str = ""  # exception name of a known defect, expected at the seed


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


def build(name: str, seed: int, th, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    return _GENERATORS[name](th, rng, tiny)


# ---------------------------------------------------------------------------
# input text, generated without the library
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, m: int, n: int) -> str:
    """A random recursive tree: vertex v hangs below a uniform earlier vertex."""
    kids: list[list[int]] = [[] for _ in range(m)]
    colours = [0] + [rng.randint(1, n) for _ in range(1, m)]
    for v in range(1, m):
        kids[rng.randrange(v)].append(v)

    def text(v: int) -> str:
        return "[" + ",".join(f"{colours[u]}:{text(u)}" for u in kids[v]) + "]"

    return text(0)


def chain(m: int) -> str:
    return "[1:" * (m - 1) + "[]" + "]" * (m - 1)


def star(rng: random.Random, m: int, n: int) -> str:
    return "[" + ",".join(f"{rng.randint(1, n)}:[]" for _ in range(m - 1)) + "]"


def shape_key(text: str) -> str:
    """Isomorphism key of a tree text: children sorted recursively."""
    pos = 0

    def tree() -> str:
        nonlocal pos
        pos += 1  # '['
        kids = []
        while text[pos] != "]":
            if text[pos] == ",":
                pos += 1
            colour = text[pos:text.index(":", pos)]
            pos += len(colour) + 1
            kids.append(colour + ":" + tree())
        pos += 1
        return "[" + ",".join(sorted(kids)) + "]"

    return tree()


def _values(rng: random.Random, n: int) -> list[Fraction]:
    return [rng.choice(GRID) for _ in range(2 * n)]


def _ck(th, n: int):
    """The Connes-Kreimer point: row 1 all ones, row 2 zero."""
    return th.HopfContext.connes_kreimer() if n == 1 else th.HopfContext.indicator(n, range(1, n + 1))


def _counit_failure(delta, ident) -> "str | None":
    if delta.left_counit() != ident or delta.right_counit() != ident:
        return "counit law fails"
    return None


# ---------------------------------------------------------------------------
# verify-sweep: exhaustive axiom checks, symbolic members plus grid points
# ---------------------------------------------------------------------------

# Case counts per check: the number of forests/words, pairs and slot tuples
# up to the degree bound.  They depend on (variant, n, degree) only.
EXPECTED_CASES = {
    ("symmetric", 1, 5): (37, 37, 64, 17, 17, 37),
    ("symmetric", 2, 4): (54, 54, 74, 36, 36, 54),
    ("planar", 1, 4): (23, 23, 64, 23),
    ("planar", 2, 3): (17, 17, 40, 17),
    ("symmetric", 1, 3): (8, 8, 11, 4, 4, 8),
    ("symmetric", 2, 2): (5, 5, 6, 3, 3, 5),
    ("planar", 1, 2): (4, 4, 8, 4),
    ("planar", 2, 2): (5, 5, 10, 5),
}


def _verify_op(th, variant: str, n: int, degree: int, ctx) -> Op:
    fn = th.verify_bialgebra if variant == "symmetric" else th.verify_planar
    expected = EXPECTED_CASES[(variant, n, degree)]

    def check(report, _):
        cases = tuple(c.cases for c in report.checks)
        if cases != expected:
            return f"case counts {cases} != {expected}"
        return None if report.passed else f"axiom failure: {report.first_failure.line()}"

    return Op(f"verify.{variant}", lambda _: fn(ctx, degree), check,
              render=lambda report: report.summary())


def _verify_sweep(th, rng, tiny):
    # Two grid points per n for the symmetric check and one for the planar
    # check: the median op then falls among the grid points' symmetric checks,
    # and the tail among the symbolic ones, rather than between two kinds.
    members = ([("symmetric", 1, 3), ("symmetric", 2, 2), ("planar", 1, 2), ("planar", 2, 2)]
               if tiny else
               [("symmetric", 1, 5), ("symmetric", 2, 4), ("planar", 1, 4), ("planar", 2, 3)])
    ops = [_verify_op(th, v, n, d, th.HopfContext.symbolic(n)) for v, n, d in members]
    for n in (1, 2):
        for point in range(2):
            ctx = th.HopfContext.rational(n, _values(rng, n))
            ops += [_verify_op(th, v, m, d, ctx) for v, m, d in members
                    if m == n and (v == "symmetric" or point == 0)]
    return ops


# ---------------------------------------------------------------------------
# tree-scaling: distinct trees of growing size, nothing repeats
# ---------------------------------------------------------------------------


def _coproduct_ck_op(th, elem, n: int, k: int) -> Op:
    ctx = _ck(th, n)

    def check(delta, _):
        # the admissible-cut oracle is single-coloured: merge the colours
        # (face map d_1) on both sides when n = 2
        if n == 1:
            return None if delta == th.ck_coproduct_oracle(elem) else "differs from the cut oracle"
        merge = lambda f: next(iter(th.simplicial_d(1, th.Element.basis(f, n)).data))
        merged = th.TensorElement(1, (((merge(l), merge(r)), c) for (l, r), c in delta.data.items()))
        oracle = th.ck_coproduct_oracle(th.simplicial_d(1, elem))
        return None if merged == oracle else "colour-merged Δ differs from the cut oracle"

    return Op("coproduct.ck", lambda _: th.coproduct(elem, ctx), check, vertices=k)


def _coproduct_rational_op(th, elem, ctx, k: int) -> Op:
    def check(delta, _):
        if delta != th.coproduct_inductive(elem, ctx):
            return "differs from the inductive coproduct"
        return _counit_failure(delta, elem)

    return Op("coproduct.rational", lambda _: th.coproduct(elem, ctx), check, vertices=k)


def _antipode_op(th, elem, n: int, k: int) -> Op:
    ctx = th.HopfContext.symbolic(n)

    def check(s, _):
        return None if s == th.antipode_partitions(elem, ctx) else "differs from the partition antipode"

    return Op("antipode", lambda _: th.antipode_recursive(elem, ctx), check, vertices=k)


def _planar_coproduct_op(th, word_elem, ctx, k: int) -> Op:
    def check(delta, _):
        if th.forget_tensor(delta) != th.coproduct(th.forget_element(word_elem), ctx):
            return "forgetting the orders does not give the symmetric Δ"
        return _counit_failure(delta, word_elem)

    return Op("planar.coproduct", lambda _: th.planar_coproduct(word_elem, ctx), check, vertices=k)


def _tree_scaling(th, rng, tiny):
    # Random trees per size: many small ones and few large ones, so that the
    # median op falls inside a dense cluster of similar ops (the 9-vertex
    # ones) instead of on the steep step between two sizes.
    randoms = {4: 2, 5: 1} if tiny else {8: 10, 9: 5, 10: 2, 11: 1, 12: 1}
    rational_up_to = 5 if tiny else 11
    antipode_sizes = ((3, 1), (4, 2)) if tiny else ((5, 1), (6, 1), (7, 1), (5, 2), (6, 2))
    planar_sizes = (4,) if tiny else (8, 9, 10)
    seen: set[tuple[int, str]] = set()

    def distinct(n: int, make) -> str:
        while True:
            text = make()
            key = (n, shape_key(text))
            if key not in seen:
                seen.add(key)
                return text

    ops: list[Op] = []
    for k, n in antipode_sizes:
        text = distinct(n, lambda: random_tree(rng, k, n))
        ops.append(_antipode_op(th, th.parse_element(text, n), n, k))
    for k, count in randoms.items():
        shapes = [(1, distinct(1, lambda: chain(k))), (2, distinct(2, lambda: star(rng, k, 2)))]
        for r in range(count):
            n = 1 + r % 2
            shapes.append((n, distinct(n, lambda: random_tree(rng, k, n))))
        for n, text in shapes:
            elem = th.parse_element(text, n)
            ops.append(_coproduct_ck_op(th, elem, n, k))
            if k <= rational_up_to:
                ctx = th.HopfContext.rational(n, _values(rng, n))
                ops.append(_coproduct_rational_op(th, elem, ctx, k))
        if k in planar_sizes:
            n = 1 if k % 2 == 0 else 2
            word = random_tree(rng, k - 2, n) + "*" + random_tree(rng, 2, n)
            elem = th.PlanarElement.basis(th.parse_planar_word(word, n), n)
            ctx = th.HopfContext.rational(n, _values(rng, n))
            ops.append(_planar_coproduct_op(th, elem, ctx, k))
    return ops


# ---------------------------------------------------------------------------
# dual-products: the enumeration product, cold once per (n, m), then warm
# ---------------------------------------------------------------------------


def _dual_group(th, rng, n: int, m: int, pairs: int, offset: int) -> list[Op]:
    """Ops for one (n, m); ``offset`` is the index of the group's first op."""
    # the grafting identity holds at the indicator of the full colour set
    colours = list(range(1, n + 1))
    ctx = th.HopfContext.indicator(n, colours)
    ops: list[Op] = []
    identity: dict[int, object] = {}

    def rescaled_bullet(x, y, key):
        # bullet(aut_rescale x, aut_rescale y), the right side of the
        # grafting identity, computed once per pair for the gates
        if key not in identity:
            identity[key] = th.bullet(th.aut_rescale(x), th.aut_rescale(y), ctx, budget=m)
        return identity[key]

    def grafted(x, y):
        """bullet(x, y) by the grafting route alone (basis x, y)."""
        scale = Fraction(1, th.aut_order(next(iter(x.data))) * th.aut_order(next(iter(y.data))))
        return th.aut_rescale(th.bullet_prime(x, y, colours)).scale(scale)

    first_bullet = None
    for pair in range(pairs):
        i = rng.randint(1, m - 1)
        t_text, s_text = random_tree(rng, m - i, n), random_tree(rng, i, n)
        t, s = th.parse_tree(t_text, n), th.parse_tree(s_text, n)
        x, y = th.DualElement.basis(t, n), th.DualElement.basis(s, n)
        px = th.PlanarDualElement.basis(th.parse_planar_tree(t_text, n), n)
        py = th.PlanarDualElement.basis(th.parse_planar_tree(s_text, n), n)
        base = offset + len(ops)
        j_bullet, j_graft = base, base + 3

        def check_bullet(b, _, x=x, y=y, key=pair):
            scale = th.aut_order(next(iter(x.data))) * th.aut_order(next(iter(y.data)))
            return None if b.scale(scale) == rescaled_bullet(x, y, key) else (
                "bullet disagrees with aut_rescale of the grafting product")

        def check_bracket(l, _, x=x, y=y):
            return None if l == grafted(y, x) - grafted(x, y) else "bracket disagrees with grafting"

        def check_planar(pb, _, px=px, py=py):
            key = (th.PlanarWord.single(next(iter(px.data))), th.PlanarWord.single(next(iter(py.data))))
            expect = {}
            for w in th.enumerate_planar_trees(n, m):
                elem = th.PlanarElement.basis(th.PlanarWord.single(w), n)
                c = th.planar_coproduct(elem, ctx).coefficient(key)
                if not c.is_zero():
                    expect[w] = c
                    if th.forget_tensor(th.planar_coproduct(elem, ctx)) != th.coproduct(
                            th.forget_element(elem), ctx):
                        return f"planar Δ of {w} does not forget to the symmetric Δ"
            return None if pb.data == expect else "planar bullet disagrees with the planar coproduct"

        def check_graft(g, _, t=t):
            total = sum(c.as_fraction() for _, c in g.data.items())
            if total != t.size * len(colours) or any(w.size != m for w in g.data):
                return "grafting product has the wrong number of grafts"
            return None

        def check_rescale(a, _, x=x, y=y, key=pair):
            return None if a == rescaled_bullet(x, y, key) else (
                "aut_rescale(x •′ y) != bullet(aut_rescale x, aut_rescale y)")

        def check_phi(p, results, j=j_bullet):
            expect = {(jj, w): c for w, c in results[j].data.items() for jj in range(1, n + 1)}
            got = {th.down_map(k): c for k, c in p.data.items()}
            return None if got == expect else "phi is not inverted by down_map"

        cold = "cold" if pair == 0 else "warm"
        ops += [
            Op(f"bullet.{cold}", lambda _, x=x, y=y: th.bullet(x, y, ctx, budget=m), check_bullet, vertices=m),
            Op("lie_bracket", lambda _, x=x, y=y: th.lie_bracket(x, y, ctx, budget=m), check_bracket, vertices=m),
            Op(f"planar_bullet.{cold}", lambda _, px=px, py=py: th.planar_bullet(px, py, ctx, budget=m),
               check_planar, vertices=m),
            Op("bullet_prime", lambda _, x=x, y=y: th.bullet_prime(x, y, colours), check_graft, vertices=m),
            Op("aut_rescale", lambda results, j=j_graft: th.aut_rescale(results[j]), check_rescale, vertices=m),
            Op("phi", lambda results, j=j_bullet: th.phi(results[j]), check_phi, vertices=m),
        ]
        if pair == 0:
            first_bullet = (x, y, check_bullet)
    x, y, check_bullet = first_bullet
    ops.append(Op("bullet.warm", lambda _: th.bullet(x, y, ctx, budget=m), check_bullet, vertices=m))
    return ops


def _dual_products(th, rng, tiny):
    groups = ((1, 3), (2, 3)) if tiny else ((1, 4), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6))
    ops: list[Op] = []
    for n, m in groups:
        ops += _dual_group(th, rng, n, m, 2 if tiny else 3, len(ops))
    return ops


# ---------------------------------------------------------------------------
# cli-session: small in-process CLI requests, some repeated, a few malformed
# ---------------------------------------------------------------------------


def run_cli(th, argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = th.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _terms(obj, kind: str) -> list[dict]:
    """The JSON term list the CLI documents for each result type."""
    if kind == "tensor":
        return [{"coefficient": str(c), "left": str(k[0]), "right": str(k[1])} for k, c in obj.terms()]
    prefix = "D" if kind == "dual" else ""
    return [{"coefficient": str(c), "basis": f"{prefix}{k}"} for k, c in obj.terms()]


def _library_answer(th, req: dict):
    """(text lines, JSON fields) the request must print, from the library."""
    n, cmd = req["n"], req["cmd"]
    planar = req.get("variant") == "planar"
    ctx = th.HopfContext(th.QSpec.from_strings(n, req["q"].split(",")) if req.get("q", "sym") != "sym"
                         else th.QSpec.symbolic(n))
    if cmd == "enumerate":
        trees = (th.enumerate_planar_trees if planar else th.enumerate_trees)(n, req["vertices"])
        if req.get("count"):
            return [str(len(trees))], {"count": len(trees)}
        return [str(t) for t in trees], {"count": len(trees), "trees": [str(t) for t in trees]}
    if cmd == "verify":
        fn = th.verify_planar if planar else th.verify_bialgebra
        report = fn(ctx, req["degree"])
        checks = [{"name": c.name, "cases": c.cases, "passed": c.passed, "failure": c.failure}
                  for c in report.checks]
        return report.summary().splitlines(), {"checks": checks, "passed": report.passed}
    if cmd in ("coproduct", "antipode"):
        if planar:
            elem = th.PlanarElement.basis(th.parse_planar_word(req["expr"], n), n)
            obj = (th.planar_coproduct if cmd == "coproduct" else th.planar_antipode)(elem, ctx)
        else:
            elem = th.parse_element(req["expr"], n)
            obj = (th.coproduct if cmd == "coproduct" else th.antipode_recursive)(elem, ctx)
        return [str(obj)], {"terms": _terms(obj, "tensor" if cmd == "coproduct" else "element")}
    if cmd in ("bullet", "bracket"):
        if planar:
            a = th.PlanarDualElement.basis(th.parse_planar_tree(req["left"], n), n)
            b = th.PlanarDualElement.basis(th.parse_planar_tree(req["right"], n), n)
            obj = th.planar_bullet(a, b, ctx)
        else:
            a = th.DualElement.basis(th.parse_tree(req["left"], n), n)
            b = th.DualElement.basis(th.parse_tree(req["right"], n), n)
            obj = (th.bullet if cmd == "bullet" else th.lie_bracket)(a, b, ctx)
        return [str(obj)], {"terms": _terms(obj, "dual")}
    if cmd == "simplicial":
        elem = th.parse_element(req["expr"], n)
        obj = (th.simplicial_d if req["map"] == "d" else th.simplicial_s)(req["index"], elem)
        return [str(obj)], {"terms": _terms(obj, "element")}
    if cmd == "phi":
        obj = th.phi(th.DualElement.basis(th.parse_tree(req["tree"], n), n))
        return [str(obj)], {"terms": _terms(obj, "element")}
    raise ValueError(f"no library route for {cmd}")


def _argv(req: dict) -> list[str]:
    argv = [req["cmd"], "--n", str(req["n"])]
    for flag in ("q", "variant", "format", "budget", "vertices", "map", "index"):
        if flag in req:  # '--flag=value': a value may start with '-'
            argv.append(f"--{flag}={req[flag]}")
    if "degree" in req:
        argv.append(f"--max-degree={req['degree']}")
    if req.get("count"):
        argv.append("--count")
    for pos in ("expr", "left", "right", "tree"):
        if pos in req:
            argv.append(req[pos])
    return argv


CLI_COMMANDS = ("enumerate", "coproduct", "antipode", "bullet", "bracket", "simplicial", "phi", "verify")


def _request(rng: random.Random, cmd: str, n: int, cycle: int, tiny: bool) -> dict:
    """One request of the session plan.  Its size, variant and kind of
    parameters follow from its place in the plan, so every seed asks for
    the same mix of work; the seed picks shapes, colours, values, format."""
    most = 3 if tiny else 5
    size = 1 + cycle % most
    req = {"cmd": cmd, "n": n, "format": rng.choice(("text", "json"))}
    if cmd in ("coproduct", "antipode", "bullet", "bracket", "verify"):
        rational = ",".join(str(v) for v in _values(rng, n))
        req["q"] = ("sym", rational, "1,0" if n == 1 else "1,1,0,0")[cycle % 3]
    if cmd in ("enumerate", "coproduct", "antipode", "bullet", "verify"):
        req["variant"] = ("symmetric", "planar")[cycle // most % 2]
    if cmd == "enumerate":
        req["vertices"] = size
        req["count"] = rng.random() < 0.5
    elif cmd in ("coproduct", "antipode"):
        first = rng.randint(1, size)
        req["expr"] = random_tree(rng, first, n)
        if size > first:
            req["expr"] += "*" + random_tree(rng, size - first, n)
    elif cmd in ("bullet", "bracket"):
        total = 2 + cycle % (most - 1)
        i = rng.randint(1, total - 1)
        req["left"], req["right"] = random_tree(rng, total - i, n), random_tree(rng, i, n)
    elif cmd == "simplicial":
        req["map"] = rng.choice("ds")
        req["index"] = rng.randint(0, n)
        req["expr"] = random_tree(rng, size, n)
    elif cmd == "phi":
        req["tree"] = random_tree(rng, size, n)
    elif cmd == "verify":
        req["degree"] = 1 + cycle % (2 if tiny else 3)
    return req


# Malformed requests and the exit code each documents (cli.py: 2 malformed
# input, 4 over budget, 5 colour above n).  The last two are known defects:
# at the seed they raise the named exception instead of exiting.  That counts
# against ok_frac as a known defect; any other outcome but the code is a failure.
MALFORMED = (
    ({"cmd": "coproduct", "n": 1, "expr": "[1:[]"}, (2,), ""),
    ({"cmd": "coproduct", "n": 1, "expr": "[2:[]]"}, (5,), ""),
    ({"cmd": "bullet", "n": 1, "budget": 3, "left": "[1:[]]", "right": "[1:[]]"}, (4,), ""),
    ({"cmd": "coproduct", "n": 1, "q": "1/0,1", "expr": "[]"}, (2,), "ZeroDivisionError"),
    ({"cmd": "coproduct", "n": 1, "expr": chain(1200)}, (2, 4), "RecursionError"),
)


def _cli_op(th, req: dict, codes=(0,), known_defect: str = "") -> Op:
    argv = _argv(req)

    def check(res, _):
        if res.code not in codes:
            return f"exit code {res.code}, expected {codes} for {argv[:4]}"
        if res.code != 0:
            return None if res.err.startswith("error:") and not res.out else "malformed input printed a result"
        lines, fields = _library_answer(th, req)
        if req.get("format") == "json":
            payload = json.loads(res.out)
            got = {key: payload.get(key) for key in fields}
            return None if got == fields else f"JSON output differs from the library for {argv}"
        return None if res.out.splitlines() == lines else f"text output differs from the library for {argv}"

    return Op(f"cli.{req['cmd']}", lambda _: run_cli(th, argv), check,
              render=lambda res: f"{res.code}\n{res.out}", known_defect=known_defect)


def _cli_session(th, rng, tiny):
    plan = [(cmd, n, cycle) for cycle in range(3 if tiny else 15) for cmd in CLI_COMMANDS for n in (1, 2)]
    rng.shuffle(plan)
    reqs: list[dict] = []
    for k, (cmd, n, cycle) in enumerate(plan, start=1):
        reqs.append(_request(rng, cmd, n, cycle, tiny))
        if k % 10 == 0:
            reqs.append(rng.choice(reqs))  # a verbatim repeat
    ops = [_cli_op(th, req) for req in reqs]
    touched = set()  # the first symmetric bullet or bracket per (n, total) builds the table
    for req, op in zip(reqs, ops):
        if req["cmd"] in ("bullet", "bracket") and req.get("variant") != "planar":
            size = (req["left"] + req["right"]).count("[")  # one '[' per vertex
            if req["cmd"] == "bullet":
                op.kind = "bullet.warm" if (req["n"], size) in touched else "bullet.cold"
            touched.add((req["n"], size))
    for req, codes, defect in MALFORMED:
        ops.insert(rng.randrange(len(ops) + 1), _cli_op(th, req, codes, defect))
    return ops


_GENERATORS = {
    "verify-sweep": _verify_sweep,
    "tree-scaling": _tree_scaling,
    "dual-products": _dual_products,
    "cli-session": _cli_session,
}
WORKLOADS = tuple(_GENERATORS)
