"""Command-line front door.

Every subcommand computes one thing and exits with a coded status:

    0  success
    2  malformed input: flags (including a negative --n or --budget),
       coefficient spec, or expression grammar
    3  verification failure (``verify`` found a broken axiom)
    4  work exceeds the requested budget
    5  an edge colour exceeds the declared colour count n

All eight subcommands share one result path.  ``main`` parses the
arguments, checks ``--n``, takes the ``HopfContext`` of every subcommand
that takes ``--q`` (reading ``--q`` before the expression), and calls
the subcommand's handler, which returns its JSON fields, its result and
its exit code; ``main`` alone prints the result, as JSON or as text, and
turns the library's errors into exit codes.  A computed result is printed
once, in the one form ``--format`` asks for: its terms for JSON (one term
printer, ``_terms``, picks their shape from the result's type), the
result itself on one line for text.  ``enumerate`` and ``verify`` return
text lines whose data their JSON fields already hold.  JSON is written by
``_json``, which gives the bytes of ``json.dumps(..., ensure_ascii=False,
indent=2)`` without its pure-Python encoder.

The grammar is declared once, in the table ``_COMMANDS``: each
subcommand's help and its arguments, with their types, choices, defaults
and help.  A well-formed request to a subcommand (exact flags, each with
its value spaced or after ``=``, and exactly the positionals it takes) is
read by ``_read``, into the namespace argparse would make of it, from
``_READINGS``, which is derived from that table once, at import.
Everything else goes to argparse: help, and any request the reader does
not take exactly, such as an abbreviated flag, ``--``, a bad value or a
missing argument, which argparse accepts or refuses with its own message.
The argparse parser is built from the same table, at most once per
process and only when a request needs it; each parse makes a fresh
namespace and leaves the parser unchanged.  A request that names a
subcommand first is parsed by that subcommand's parser alone, as the top
parser would hand it on; only a request that does not (``-h``, an unknown
word, nothing at all) is parsed by the top parser, and leftover arguments
are reported by the top parser either way.  An argument that starts with
``-`` and then ``[``, ``q`` or a digit is a value, not an option, so an
expression may begin with its sign (``-[1:[]]``) and ``--q`` may begin
with a negative entry (``--q -1,0``).

Each (``--n``, ``--q`` text) pair is read once per process: its context
and the printed q-entries are memoised, and a refused ``--q`` raises
before anything is stored.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from json.encoder import encode_basestring as _escape

from .algebra import (
    MAX_SYMBOL_COLOUR,
    QSpec,
    TensorElement,
    _symbolic_limit_error,
    parse_element,
)
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


def _option_like(arg: str) -> bool:
    """Whether ``arg`` may be taken for an option: it starts with ``-``,
    but not with ``-`` and one of ``_TERM_STARTS``, as no option of the CLI
    does.  ``_read`` leaves each such argument but an exact flag to argparse."""
    return arg[:1] == "-" and arg[1:2] not in _TERM_STARTS


# The CLI grammar: each subcommand's help and its arguments, in the order its
# parser adds them, as the name and keywords of ``add_argument``; a name
# without the leading ``-`` is a positional.  The parser is built from this
# table, and ``_read`` reads well-formed requests from it.
_SHARED = {
    "--n": dict(type=int, default=1, help="number of edge colours"),
    "--format": dict(choices=("text", "json"), default="text", help="output format"),
}
_Q = {
    "--q": dict(
        default="sym",
        help="2n comma-separated coefficients (rational or 'sym'), "
        "or the single word 'sym' for the fully symbolic family",
    ),
}
_VARIANT = {
    "--variant": dict(
        choices=("symmetric", "planar"),
        default="symmetric",
        help="commutative forests or ordered (planar) words",
    ),
}
_EXPR = {"expr": dict(help="forest/element (symmetric) or word (planar)")}
_FACTORS = {
    "--budget": dict(type=int, default=DEFAULT_BULLET_BUDGET),
    "left": dict(help="tree for the left factor"),
    "right": dict(help="tree for the right factor"),
}
_COMMANDS = {
    "enumerate": (
        "list or count trees with a given size",
        {
            **_SHARED,
            **_VARIANT,
            "--vertices": dict(type=int, required=True, help="vertex count"),
            "--count": dict(action="store_true", default=False, help="print only the count"),
        },
    ),
    "coproduct": ("comultiply an element", {**_SHARED, **_Q, **_VARIANT, **_EXPR}),
    "antipode": ("apply the antipode to an element", {**_SHARED, **_Q, **_VARIANT, **_EXPR}),
    "bullet": ("product of two dual tree functionals", {**_SHARED, **_Q, **_VARIANT, **_FACTORS}),
    "bracket": ("Lie bracket of two dual tree functionals", {**_SHARED, **_Q, **_FACTORS}),
    "simplicial": (
        "apply a face or degeneracy map",
        {
            **_SHARED,
            "--map": dict(choices=("d", "s"), required=True, help="face (d) or degeneracy (s)"),
            "--index": dict(type=int, required=True, help="map index i"),
            "expr": dict(help="forest/element over n colours"),
        },
    ),
    "phi": (
        "embed a dual functional into labelled trees",
        {**_SHARED, "tree": dict(help="coloured tree")},
    ),
    "verify": (
        "run the axiom suite; exit 3 on failure",
        {
            **_SHARED,
            **_Q,
            **_VARIANT,
            "--max-degree": dict(type=int, default=3, help="largest total vertex count"),
            "--max-cases": dict(type=int, default=None, help="sample size per check (at least 1)"),
            "--seed": dict(type=int, default=0, help="sampling seed"),
        },
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads ``-[1:[]]`` or ``-q11[]`` as a
    signed expression, not as an unknown option (see ``_option_like``).
    The subcommand parsers are of this class too; the top parser's
    ``commands`` maps each subcommand's name to its parser."""

    def _parse_optional(self, arg_string):
        if not _option_like(arg_string):
            return None
        return super()._parse_optional(arg_string)


@cache
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="treehopf",
        description="coloured rooted trees, their coproduct family, and friends",
    )
    sub = top.add_subparsers(dest="command", required=True)
    top.commands = sub.choices
    for command, (help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
    return top


def _reading(arguments: dict) -> tuple:
    """What ``_read`` needs of one subcommand's arguments: its options by
    flag, each with its dest and keywords; its positionals' dests; its
    required options' dests; and every dest's default, in argument order."""
    dests = {name: name.lstrip("-").replace("-", "_") for name in arguments}
    options = {name: (dests[name], kw) for name, kw in arguments.items() if name[0] == "-"}
    positional_dests = tuple(dests[name] for name in arguments if name[0] != "-")
    required = tuple(dest for dest, kw in options.values() if kw.get("required"))
    defaults = {dests[name]: kw.get("default") for name, kw in arguments.items()}
    return options, positional_dests, required, defaults


# ``_reading`` of each subcommand, derived once from the grammar table
_READINGS = {command: _reading(arguments) for command, (_, arguments) in _COMMANDS.items()}


def _read(command: str, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``command``'s parser makes of ``argv`` when each
    argument is in one of these forms, else None:

    * an option's exact flag and then its value, or ``--flag=value``;
    * a ``store_true`` flag;
    * a positional: an argument that is not option-like.

    Each value goes through its type and choices, the positionals must be
    as many as the command takes, and every required option must be given.
    None refuses nothing: argparse reads such a request, and refuses it with
    its own message or accepts it (an abbreviated flag, ``--``)."""
    options, positional_dests, required, defaults = _READINGS[command]
    given, positionals = {}, []
    args = iter(argv)
    for arg in args:
        if not _option_like(arg):
            positionals.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        option = options.get(flag)
        if option is None:
            return None
        dest, keywords = option
        if keywords.get("action") == "store_true":
            if eq:
                return None
            given[dest] = True
            continue
        if not eq:
            value = next(args, "-")  # a missing value reads as option-like
            if _option_like(value):
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[dest] = value
    if len(positionals) != len(positional_dests) or not all(d in given for d in required):
        return None
    values = defaults | given
    values.update(zip(positional_dests, positionals))
    return argparse.Namespace(command=command, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``: a well-formed request to a
    subcommand is read from the grammar table, and argparse is built only
    for the rest.  A request that names a subcommand first is then parsed
    by that subcommand's parser alone, as the top parser would hand it on."""
    if argv and argv[0] in _COMMANDS:
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
    top = _build_parser()
    sub = top.commands.get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


@cache
def _context(n: int, q: str) -> tuple[HopfContext, tuple[str, ...]]:
    """The context of ``--n`` and the ``--q`` text, and its printed
    entries; a refused ``--q`` raises, so only accepted texts are kept."""
    text = q.strip()
    if text != "sym":
        words = text.split(",")
    elif n > MAX_SYMBOL_COLOUR:  # refused before its 2n words are built
        raise _symbolic_limit_error(n)
    else:
        words = ["sym"] * (2 * n)
    ctx = HopfContext(QSpec.from_strings(n, words))
    return ctx, tuple(str(e) for e in ctx.qspec.entries)


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2)`` for the values
    the CLI prints: dicts with str keys, lists, tuples, str, int, bool and
    None, the strings escaped by the encoder ``json.dumps`` itself uses.
    ``indent`` is the indentation of the line ``value`` starts on; any
    other type raises ``TypeError``."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is dict:  # the escaper refuses a key that is not a str
        items = [f"{_escape(key)}: {_json(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [_json(item, inner) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


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


# Each handler takes the parsed arguments and the context (None for a
# subcommand without --q) and returns (JSON fields, result, exit code).  The
# result is a list of text lines (enumerate, verify) or a computed element,
# whose terms close the JSON fields and whose text is itself on one line.


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
    return {"input": args.expr}, apply(element, ctx), EXIT_OK


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
    return {"input": [args.left, args.right]}, product(a, b, ctx, budget=args.budget), EXIT_OK


def _cmd_simplicial(args, ctx):
    element = parse_element(args.expr, args.n)
    result = (simplicial_d if args.map == "d" else simplicial_s)(args.index, element)
    map_ = f"{args.map}_{args.index}"
    return {"n": args.n, "map": map_, "result_n": result.n, "input": args.expr}, result, EXIT_OK


def _cmd_phi(args, ctx):
    result = phi(DualElement.basis(parse_tree(args.tree, args.n), args.n))
    return {"n": args.n, "input": args.tree}, result, EXIT_OK


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
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        payload, ctx = {"command": args.command}, None
        if hasattr(args, "q"):
            # a subcommand with --q prints its parameters before its result
            ctx, entries = _context(args.n, args.q)
            payload["n"] = args.n
            if hasattr(args, "variant"):
                payload["variant"] = args.variant
            payload["qspec"] = entries
        fields, result, code = _HANDLERS[args.command](args, ctx)
        computed = not isinstance(result, list)
        if args.format == "json":
            if computed:
                fields["terms"] = _terms(result)
            print(_json(payload | fields))
        else:
            for line in [result] if computed else result:
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
