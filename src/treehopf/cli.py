"""Command-line front door.

Every subcommand computes one thing and exits with a coded status:

    0  success
    2  malformed input: flags (including a negative --n or --budget),
       coefficient spec, or expression grammar
    3  verification failure (``verify`` found a broken axiom)
    4  work exceeds the requested budget
    5  an edge colour exceeds the declared colour count n

All eight subcommands share one result path.  ``main`` checks ``--n``,
builds the ``HopfContext`` once for every subcommand that takes ``--q``
(reading ``--q`` before the expression), and calls the subcommand's
handler, which returns its JSON fields, its text lines and its exit code;
``main`` alone prints them, as JSON or as text, and turns the library's
errors into exit codes.  One term printer, ``_terms``, picks the JSON
shape of a result's terms from its type.

The argument parser is built once per process and reused: each parse
makes a fresh namespace and leaves the parser unchanged.  An argument
that starts with ``-`` and then ``[``, ``q`` or a digit is a value, not
an option, so an expression may begin with its sign (``-[1:[]]``) and
``--q`` may begin with a negative entry (``--q -1,0``).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .algebra import QSpec, TensorElement, parse_element
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
    PlanarWord,
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
    Forest,
    basis_counts,
    enumerate_trees,
    parse_tree,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4
EXIT_COLOUR = 5


# what may follow the sign of an expression's first term: a tree, a
# coefficient symbol or a rational
_TERM_STARTS = frozenset("[q0123456789")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-[1:[]]`` or ``-q11[]`` as a
    signed expression, not as an unknown option: no option of the CLI
    starts with ``-`` and one of ``_TERM_STARTS``.  The subcommand parsers
    are of this class too."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] in _TERM_STARTS:
            return None
        return super()._parse_optional(arg_string)


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
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


def _terms(result) -> list[dict]:
    """The JSON terms of a result: a tensor names both legs, a dual
    functional prints its basis tree with the ``D`` prefix."""
    if isinstance(result, TensorElement):
        return [
            {"coefficient": str(c), "left": str(k[0]), "right": str(k[1])}
            for k, c in result.terms()
        ]
    prefix = "D" if isinstance(result, DualElement) else ""
    return [{"coefficient": str(c), "basis": f"{prefix}{k}"} for k, c in result.terms()]


def _result(fields: dict, result):
    """A computed result: its terms close the JSON fields, and the text
    form is the result on one line."""
    fields["terms"] = _terms(result)
    return fields, [str(result)], EXIT_OK


# Each handler takes the parsed arguments and the context (None for a
# subcommand without --q) and returns (JSON fields, text lines, exit code).


def _cmd_enumerate(args, ctx):
    if args.vertices < 1:
        raise ValueError("--vertices must be >= 1")
    fields = {"variant": args.variant, "n": args.n, "vertices": args.vertices}
    if args.count:
        # counted, not listed: the count outgrows any listing
        monomial = PlanarWord if args.variant == "planar" else Forest
        fields["count"] = basis_counts(monomial, args.n, args.vertices)[0][args.vertices]
        return fields, [str(fields["count"])], EXIT_OK
    enumerate_ = enumerate_planar_trees if args.variant == "planar" else enumerate_trees
    trees = enumerate_(args.n, args.vertices)
    fields["count"] = len(trees)
    fields["trees"] = [str(t) for t in trees]
    return fields, fields["trees"], EXIT_OK


def _cmd_coproduct_antipode(args, ctx):
    if args.variant == "planar":
        element = PlanarElement.basis(parse_planar_word(args.expr, args.n), args.n)
        apply = planar_coproduct if args.command == "coproduct" else planar_antipode
    else:
        element = parse_element(args.expr, args.n)
        apply = coproduct if args.command == "coproduct" else antipode_recursive
    return _result({"input": args.expr}, apply(element, ctx))


def _cmd_bullet_bracket(args, ctx):
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    if getattr(args, "variant", "symmetric") == "planar":
        a, b = (
            PlanarDualElement.basis(parse_planar_tree(t, args.n), args.n)
            for t in (args.left, args.right)
        )
        product = planar_bullet
    else:
        a, b = (DualElement.basis(parse_tree(t, args.n), args.n) for t in (args.left, args.right))
        product = bullet if args.command == "bullet" else lie_bracket
    return _result({"input": [args.left, args.right]}, product(a, b, ctx, budget=args.budget))


def _cmd_simplicial(args, ctx):
    element = parse_element(args.expr, args.n)
    result = (simplicial_d if args.map == "d" else simplicial_s)(args.index, element)
    map_ = f"{args.map}_{args.index}"
    return _result({"n": args.n, "map": map_, "result_n": result.n, "input": args.expr}, result)


def _cmd_phi(args, ctx):
    result = phi(DualElement.basis(parse_tree(args.tree, args.n), args.n))
    return _result({"n": args.n, "input": args.tree}, result)


def _cmd_verify(args, ctx):
    verify = verify_planar if args.variant == "planar" else verify_bialgebra
    report = verify(ctx, args.max_degree, max_cases=args.max_cases, seed=args.seed)
    checks = [
        {"name": c.name, "cases": c.cases, "passed": c.passed, "failure": c.failure}
        for c in report.checks
    ]
    fields = {"max_degree": args.max_degree, "checks": checks, "passed": report.passed}
    return fields, report.summary().splitlines(), EXIT_OK if report.passed else EXIT_VERIFY


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "coproduct": _cmd_coproduct_antipode,
    "antipode": _cmd_coproduct_antipode,
    "bullet": _cmd_bullet_bracket,
    "bracket": _cmd_bullet_bracket,
    "simplicial": _cmd_simplicial,
    "phi": _cmd_phi,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        payload, ctx = {"command": args.command}, None
        if hasattr(args, "q"):
            # a subcommand with --q prints its parameters before its result
            ctx = HopfContext(_qspec(args))
            payload["n"] = args.n
            if hasattr(args, "variant"):
                payload["variant"] = args.variant
            payload["qspec"] = [str(e) for e in ctx.qspec.entries]
        fields, lines, code = _HANDLERS[args.command](args, ctx)
        if args.format == "json":
            print(json.dumps(payload | fields, ensure_ascii=False, indent=2))
        else:
            for line in lines:
                print(line)
        return code
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # ParseError and ColourMismatchError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLOUR if isinstance(exc, ColourMismatchError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
