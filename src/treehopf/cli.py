"""Command-line front door.

Every subcommand computes one thing, prints it deterministically (text or
JSON built from the same term list), and exits with a coded status:

    0  success
    2  malformed input: flags, coefficient spec, or expression grammar
    3  verification failure (``verify`` found a broken axiom)
    4  work exceeds the requested budget
    5  an edge colour exceeds the declared colour count n

The argument parser is built once per process and reused: each parse
makes a fresh namespace and leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import QSpec, parse_element
from .hopf import (
    HopfContext,
    antipode_recursive,
    coproduct,
    simplicial_d,
    simplicial_s,
    verify_bialgebra,
)
from .planar import (
    PlanarDualElement,
    PlanarElement,
    enumerate_planar_trees,
    parse_planar_tree,
    parse_planar_word,
    planar_antipode,
    planar_bullet,
    planar_coproduct,
    verify_planar,
)
from .prelie import (
    DEFAULT_BULLET_BUDGET,
    DualElement,
    bullet,
    lie_bracket,
    phi,
)
from .trees import (
    BudgetError,
    ColourMismatchError,
    ParseError,
    enumerate_trees,
    parse_tree,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4
EXIT_COLOUR = 5


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treehopf",
        description="coloured rooted trees, their coproduct family, and friends",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, qspec=True, variant=True):
        p.add_argument("--n", type=int, default=1, help="number of edge colours")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        if qspec:
            p.add_argument(
                "--q",
                default="sym",
                help="2n comma-separated coefficients (rational or 'sym'), "
                "or the single word 'sym' for the fully symbolic family",
            )
        if variant:
            p.add_argument(
                "--variant",
                choices=("symmetric", "planar"),
                default="symmetric",
                help="commutative forests or ordered (planar) words",
            )

    p = sub.add_parser("enumerate", help="list or count trees with a given size")
    common(p, qspec=False)
    p.add_argument("--vertices", type=int, required=True, help="vertex count")
    p.add_argument("--count", action="store_true", help="print only the count")

    p = sub.add_parser("coproduct", help="comultiply an element")
    common(p)
    p.add_argument("expr", help="forest/element (symmetric) or word (planar)")

    p = sub.add_parser("antipode", help="apply the antipode to an element")
    common(p)
    p.add_argument("expr", help="forest/element (symmetric) or word (planar)")

    p = sub.add_parser("bullet", help="product of two dual tree functionals")
    common(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BULLET_BUDGET)
    p.add_argument("left", help="tree for the left factor")
    p.add_argument("right", help="tree for the right factor")

    p = sub.add_parser("bracket", help="Lie bracket of two dual tree functionals")
    common(p, variant=False)
    p.add_argument("--budget", type=int, default=DEFAULT_BULLET_BUDGET)
    p.add_argument("left", help="tree for the left factor")
    p.add_argument("right", help="tree for the right factor")

    p = sub.add_parser("simplicial", help="apply a face or degeneracy map")
    common(p, qspec=False, variant=False)
    p.add_argument("--map", choices=("d", "s"), required=True, help="face (d) or degeneracy (s)")
    p.add_argument("--index", type=int, required=True, help="map index i")
    p.add_argument("expr", help="forest/element over n colours")

    p = sub.add_parser("phi", help="embed a dual functional into labelled trees")
    common(p, qspec=False, variant=False)
    p.add_argument("tree", help="coloured tree")

    p = sub.add_parser("verify", help="run the axiom suite; exit 3 on failure")
    common(p)
    p.add_argument("--max-degree", type=int, default=3, help="largest total vertex count")
    p.add_argument("--max-cases", type=int, default=None, help="sample size per check (at least 1)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    return top


def _qspec(args) -> QSpec:
    text = args.q.strip()
    words = ["sym"] * (2 * args.n) if text == "sym" else text.split(",")
    return QSpec.from_strings(args.n, words)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        for line in text_lines:
            print(line)


def _element_terms(e) -> list[dict]:
    return [{"coefficient": str(c), "basis": str(k)} for k, c in e.terms()]


def _tensor_terms(e) -> list[dict]:
    return [
        {"coefficient": str(c), "left": str(k[0]), "right": str(k[1])}
        for k, c in e.terms()
    ]


def _dual_terms(e) -> list[dict]:
    return [{"coefficient": str(c), "basis": f"D{k}"} for k, c in e.terms()]


def _cmd_enumerate(args) -> int:
    if args.vertices < 1:
        raise ValueError("--vertices must be >= 1")
    if args.variant == "planar":
        trees = enumerate_planar_trees(args.n, args.vertices)
    else:
        trees = enumerate_trees(args.n, args.vertices)
    payload = {
        "command": "enumerate",
        "variant": args.variant,
        "n": args.n,
        "vertices": args.vertices,
        "count": len(trees),
    }
    if args.count:
        return _finish(args, payload, [str(len(trees))])
    payload["trees"] = [str(t) for t in trees]
    return _finish(args, payload, [str(t) for t in trees])


def _cmd_coproduct(args) -> int:
    ctx = HopfContext(_qspec(args))
    if args.variant == "planar":
        word = parse_planar_word(args.expr, args.n)
        result = planar_coproduct(PlanarElement.basis(word, args.n), ctx)
    else:
        result = coproduct(parse_element(args.expr, args.n), ctx)
    payload = _result_payload(args, ctx, {"input": args.expr, "terms": _tensor_terms(result)})
    return _finish(args, payload, [str(result)])


def _cmd_antipode(args) -> int:
    ctx = HopfContext(_qspec(args))
    if args.variant == "planar":
        word = parse_planar_word(args.expr, args.n)
        result = planar_antipode(PlanarElement.basis(word, args.n), ctx)
    else:
        result = antipode_recursive(parse_element(args.expr, args.n), ctx)
    payload = _result_payload(args, ctx, {"input": args.expr, "terms": _element_terms(result)})
    return _finish(args, payload, [str(result)])


def _cmd_bullet(args) -> int:
    ctx = HopfContext(_qspec(args))
    if args.variant == "planar":
        a = PlanarDualElement.basis(parse_planar_tree(args.left, args.n), args.n)
        b = PlanarDualElement.basis(parse_planar_tree(args.right, args.n), args.n)
        result = planar_bullet(a, b, ctx, budget=args.budget)
    else:
        a = DualElement.basis(parse_tree(args.left, args.n), args.n)
        b = DualElement.basis(parse_tree(args.right, args.n), args.n)
        result = bullet(a, b, ctx, budget=args.budget)
    payload = _result_payload(
        args, ctx, {"input": [args.left, args.right], "terms": _dual_terms(result)}
    )
    return _finish(args, payload, [str(result)])


def _cmd_bracket(args) -> int:
    ctx = HopfContext(_qspec(args))
    a = DualElement.basis(parse_tree(args.left, args.n), args.n)
    b = DualElement.basis(parse_tree(args.right, args.n), args.n)
    result = lie_bracket(a, b, ctx, budget=args.budget)
    payload = _result_payload(
        args, ctx, {"input": [args.left, args.right], "terms": _dual_terms(result)}
    )
    return _finish(args, payload, [str(result)])


def _cmd_simplicial(args) -> int:
    element = parse_element(args.expr, args.n)
    if args.map == "d":
        result = simplicial_d(args.index, element)
    else:
        result = simplicial_s(args.index, element)
    payload = {
        "command": args.command,
        "n": args.n,
        "map": f"{args.map}_{args.index}",
        "result_n": result.n,
        "input": args.expr,
        "terms": _element_terms(result),
    }
    return _finish(args, payload, [str(result)])


def _cmd_phi(args) -> int:
    tree = parse_tree(args.tree, args.n)
    result = phi(DualElement.basis(tree, args.n))
    payload = {
        "command": args.command,
        "n": args.n,
        "input": args.tree,
        "terms": _element_terms(result),
    }
    return _finish(args, payload, [str(result)])


def _cmd_verify(args) -> int:
    ctx = HopfContext(_qspec(args))
    if args.variant == "planar":
        report = verify_planar(ctx, args.max_degree, max_cases=args.max_cases, seed=args.seed)
    else:
        report = verify_bialgebra(ctx, args.max_degree, max_cases=args.max_cases, seed=args.seed)
    payload = _result_payload(
        args,
        ctx,
        {
            "max_degree": args.max_degree,
            "checks": [
                {"name": c.name, "cases": c.cases, "passed": c.passed, "failure": c.failure}
                for c in report.checks
            ],
            "passed": report.passed,
        },
    )
    _emit(args, payload, report.summary().splitlines())
    return EXIT_OK if report.passed else EXIT_VERIFY


def _result_payload(args, ctx: HopfContext, extra: dict) -> dict:
    payload = {"command": args.command, "n": args.n}
    if hasattr(args, "variant"):
        payload["variant"] = args.variant
    payload["qspec"] = [str(e) for e in ctx.qspec.entries]
    payload.update(extra)
    return payload


def _finish(args, payload: dict, text_lines: list[str]) -> int:
    _emit(args, payload, text_lines)
    return EXIT_OK


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "coproduct": _cmd_coproduct,
    "antipode": _cmd_antipode,
    "bullet": _cmd_bullet,
    "bracket": _cmd_bracket,
    "simplicial": _cmd_simplicial,
    "phi": _cmd_phi,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ColourMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLOUR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
