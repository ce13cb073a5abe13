#!/usr/bin/env python3
"""Check that checkouts answer the same CLI requests and parse the same
expressions, byte for byte.

    python3 scripts/cli_differential.py --src ../parent/src --src src
    python3 scripts/cli_differential.py --src ../parent/src --src src --requests 3000

For each ``--src`` and each ``PYTHONHASHSEED`` in ``HASH_SEEDS``, a fresh
interpreter imports ``treehopf`` from that directory and runs one list of
requests and two parser corpora, all generated here from fixed seeds, so
every run gets the same input in the same order:

* ``--requests`` in-process ``cli.main`` calls (default 1,000): all eight
  subcommands, both variants and both formats, n = 0..3, at symbolic,
  Connes–Kreimer, integer, fractional, negative, zero and mixed ``--q``
  points, with ``--max-cases``, refused ``--q`` texts, malformed
  expressions and malformed flags among them, and expressions holding a
  tab, newline, no-break, line-separator or ideographic space, which the
  grammar skips and JSON output echoes in its ``input`` field;
* ``CORPUS_PER_REQUEST`` token strings per request (60,000 at the
  default), each fed to ``parse_coeff``, ``parse_element`` and
  ``parse_tensor``;
* ``TREES_PER_REQUEST`` generated trees per request (20,000 at the
  default), one in five with a space the grammar skips and one in four
  with a corrupted character, each written in the coloured grammar, fed
  to ``parse_tree`` and ``parse_planar_tree``, and in the labelled
  grammar, fed to ``parse_labelled_tree``.

Each run records, per request, the stdout, the stderr and the exit code
(an argparse ``SystemExit`` included, an uncaught exception by its type
and message), and, per parse, the ``repr`` of the result or the type and
message of the exception.  Every run is compared with the first one; the
first difference is printed and the script exits 1.  With no difference
it prints one summary line and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys

HASH_SEEDS = ("0", "1")
CORPUS_PER_REQUEST = 60
TREES_PER_REQUEST = 20
REQUEST_SEED = 1
CORPUS_SEED = 2
TREE_SEED = 3

CHILD = r"""
import contextlib, io, json, sys
from treehopf.algebra import parse_coeff, parse_element, parse_tensor
from treehopf.cli import main
from treehopf.planar import parse_planar_tree
from treehopf.prelie import parse_labelled_tree
from treehopf.trees import parse_tree

job = json.load(sys.stdin)
cli = []
for argv in job["requests"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    cli.append([out.getvalue(), err.getvalue(), code])

def outcome(parse, *args):
    try:
        return repr(parse(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

parses = [
    [outcome(parse_coeff, text), outcome(parse_element, text, n), outcome(parse_tensor, text, n)]
    for text, n in job["corpus"]
]
trees = [
    [outcome(parse_tree, text, n), outcome(parse_planar_tree, text, n),
     outcome(parse_labelled_tree, labelled)]
    for text, n, labelled in job["trees"]
]
json.dump({"cli": cli, "parses": parses, "trees": trees}, sys.stdout)
"""

# ---------------------------------------------------------------------------
# the seeded requests
# ---------------------------------------------------------------------------

COMMANDS = ("enumerate", "coproduct", "antipode", "bullet", "bracket", "simplicial", "phi", "verify")
# how many expressions end each command's arguments
EXPRESSIONS = {"coproduct": 1, "antipode": 1, "bullet": 2, "bracket": 2, "simplicial": 1, "phi": 1}
_NOISE = "[]:,*+-q1203/^ x⊗"
# whitespace the grammar skips, each escaped differently in JSON or not at all
_SPACES = ("\t", "\n", "\u00a0", "\u2028", "\u3000")


def _tree(rng: random.Random, n: int, size: int) -> str:
    """A random tree text with ``size`` vertices over colours 1..n."""
    if not n:
        size = 1
    kids: list[list[str]] = [[] for _ in range(size)]
    for v in range(size - 1, 0, -1):  # children before parents
        kids[rng.randrange(v)].append(f"{rng.randint(1, n)}:[{','.join(kids[v])}]")
    return f"[{','.join(kids[0])}]"


def _forest(rng: random.Random, n: int, size: int) -> str:
    if rng.random() < 0.1:
        return "1"
    parts = []
    while size > 0:
        part = rng.randint(1, size)
        parts.append(_tree(rng, n, part))
        size -= part
    return "*".join(parts)


def _coefficient(rng: random.Random) -> str:
    return rng.choice(
        ["", "", "2 ", "1/2 ", "-3/4 ", "0 ", "q11 ", "2*q11 ", "q11^2*q21 ", "1/3*q12 ", "q22 "]
    )


def _element(rng: random.Random, n: int) -> str:
    terms = [_coefficient(rng) + _forest(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - ", "+", "-"]) + term
    return ("-" if rng.random() < 0.2 else "") + text


def _spaced(rng: random.Random, text: str) -> str:
    """``text`` with one whitespace character after a ``[``, ``,`` or ``:``,
    where the tree grammar skips it, or in front when it has none."""
    places = [i + 1 for i, c in enumerate(text) if c in "[,:"] or [0]
    at = rng.choice(places)
    return text[:at] + rng.choice(_SPACES) + text[at:]


def _corrupt(rng: random.Random, text: str) -> str:
    """``text`` with one character deleted, inserted or replaced."""
    at = rng.randrange(len(text) + 1)
    choice = rng.randrange(3)
    if choice == 0 and at < len(text):
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(_NOISE) + text[at + (choice == 2):]


def _q(rng: random.Random, n: int) -> list[str]:
    kind = rng.choice(
        ["none", "sym", "sym", "ck", "integer", "fraction", "negative", "zero", "mixed", "refused"]
    )
    pools = {
        "sym": ["sym"],
        "integer": ["1", "2", "3", "5"],
        "fraction": ["1/2", "2/3", "-3/2", "7/5"],
        "negative": ["-1", "-2", "-1/3"],
        "zero": ["0"],
        "mixed": ["sym", "0", "1", "2", "-1", "1/2", "-2/3"],
    }
    if kind == "none":
        return []
    if kind == "refused":
        return ["--q", rng.choice(["1/0,1", "1,0,0", "abc", "1/0" + ",0" * (2 * n - 1), ""])]
    if kind == "ck":
        return ["--q", ",".join(["1"] * n + ["0"] * n)]
    if kind == "sym" and rng.random() < 0.5:
        return ["--q", "sym"]
    return ["--q", ",".join(rng.choice(pools[kind]) for _ in range(2 * n))]


def requests(count: int) -> list[list[str]]:
    """``count`` seeded ``cli.main`` argument lists."""
    rng = random.Random(REQUEST_SEED)
    out = []
    for k in range(count):
        command = COMMANDS[k % len(COMMANDS)]
        n = rng.randint(0, 3)
        argv = [command, "--n", str(n)]
        if rng.random() < 0.5:
            argv += ["--format", "json"]
        planar = rng.random() < 0.4 and command not in ("bracket", "simplicial", "phi")
        if planar:
            argv += ["--variant", "planar"]
        if command not in ("enumerate", "simplicial", "phi"):
            argv += _q(rng, n)
        if command == "enumerate":
            argv += ["--vertices", str(rng.randint(0, 4))]
            if rng.random() < 0.3:
                argv.append("--count")
        elif command in ("coproduct", "antipode"):
            size = rng.randint(1, 4)
            argv.append(_forest(rng, n, size) if planar else _element(rng, n))
        elif command in ("bullet", "bracket"):
            if rng.random() < 0.3:
                argv += ["--budget", str(rng.randint(0, 6))]
            argv += [_tree(rng, n, rng.randint(1, 3)), _tree(rng, n, rng.randint(1, 3))]
        elif command == "simplicial":
            argv += ["--map", rng.choice("ds"), "--index", str(rng.randint(-1, n + 1))]
            argv.append(_element(rng, n))
        elif command == "phi":
            argv.append(_tree(rng, n, rng.randint(1, 4)))
        else:
            argv += ["--max-degree", str(rng.randint(0, 2 if n < 3 else 1))]
            if rng.random() < 0.4:
                argv += ["--max-cases", str(rng.randint(0, 4))]
            if rng.random() < 0.3:
                argv += ["--seed", str(rng.randint(0, 9))]
        if command in EXPRESSIONS and rng.random() < 0.2:
            at = -rng.randint(1, EXPRESSIONS[command])
            argv[at] = _spaced(rng, argv[at])
        roll = rng.random()
        if roll < 0.1 and command not in ("enumerate", "verify"):
            # a malformed expression, or a colour over n
            argv[-1] = _corrupt(rng, argv[-1]) if roll < 0.08 else f"[{n + 1}:[]]"
        elif roll < 0.12:  # a malformed command line
            argv = rng.choice([[], ["-h"], ["nosuch"], [command], argv + ["--bogus"], argv[:-1]])
        out.append(argv)
    return out


def corpus(count: int) -> list[tuple[str, int]]:
    """``count`` seeded (token string, n) pairs for the three expression
    parsers."""
    tokens = [
        "[", "]", "[]", "[1:[]]", "[2:[]]", "[1:[],2:[]]", "1:", "2:", ",", "*", "+", "-", " ",
        "0", "1", "2", "3/4", "1/0", "/", "q", "q11", "q21", "q12", "q22", "q3", "q1024",
        "^", "^2", "^0", "⊗", "(x)", "x", "\t",
    ]
    rng = random.Random(CORPUS_SEED)
    return [
        ("".join(rng.choice(tokens) for _ in range(rng.randint(1, 8))), rng.randint(0, 3))
        for _ in range(count)
    ]


def tree_texts(count: int) -> list[tuple[str, int, str]]:
    """``count`` seeded (coloured text, n, labelled text) triples: one
    random tree of 1..12 vertices written in both grammars, the labelled
    one under a random root label, each text then spaced or corrupted at
    random."""
    rng = random.Random(TREE_SEED)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        text = _tree(rng, n, rng.randint(1, 12))
        labelled = f"({rng.randint(1, n)})" + re.sub(r"(\d+):", r"(\1)", text)
        texts = []
        for t in (text, labelled):
            if rng.random() < 0.2:
                t = _spaced(rng, t)
            if rng.random() < 0.25:
                t = _corrupt(rng, t)
            texts.append(t)
        out.append((texts[0], n, texts[1]))
    return out


# ---------------------------------------------------------------------------
# the runs and the comparison
# ---------------------------------------------------------------------------


def run(src: str, hash_seed: str, job: str) -> dict:
    """The outcomes of one fresh interpreter that imports ``treehopf``
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=job, env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"the run on {src} at PYTHONHASHSEED={hash_seed} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _around(x, y) -> tuple[str, str]:
    """Two differing outcomes, each cut to its text around the first
    character where they differ."""
    if not (isinstance(x, str) and isinstance(y, str)):
        return repr(x), repr(y)
    at = next((i for i, (a, b) in enumerate(zip(x, y)) if a != b), min(len(x), len(y)))
    start = max(0, at - 40)
    return tuple(f"from character {start}: {v[start:at + 40]!r}" for v in (x, y))


def first_difference(runs: list, reqs: list, texts: list, trees: list = ()) -> str | None:
    """The first place where a run differs from the first run, described;
    ``None`` when all agree.  ``runs`` holds (name, outcomes) pairs, and
    ``trees`` the triples of ``tree_texts``."""
    parts = {"cli": ("stdout", "stderr", "exit code"),
             "parses": ("parse_coeff", "parse_element", "parse_tensor"),
             "trees": ("parse_tree", "parse_planar_tree", "parse_labelled_tree")}
    (base_name, base), *others = runs
    for name, outcomes in others:
        for kind, labels in parts.items():
            for k, (a, b) in enumerate(zip(base.get(kind, ()), outcomes.get(kind, ()))):
                for label, x, y in zip(labels, a, b):
                    if x != y:
                        if kind == "cli":
                            where = f"request {reqs[k]!r}: {label}"
                        elif kind == "parses":
                            where = f"{label}({texts[k][0]!r}, n={texts[k][1]})"
                        elif label == "parse_labelled_tree":
                            where = f"{label}({trees[k][2]!r})"
                        else:
                            where = f"{label}({trees[k][0]!r}, n={trees[k][1]})"
                        x, y = _around(x, y)
                        return f"{where} differs\n  {base_name}: {x}\n  {name}: {y}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, help="a directory holding treehopf")
    parser.add_argument("--requests", type=int, default=1000, help="CLI requests per run")
    args = parser.parse_args(argv)
    if args.requests < 0:
        parser.error("--requests must be >= 0")
    reqs, texts = requests(args.requests), corpus(CORPUS_PER_REQUEST * args.requests)
    trees = tree_texts(TREES_PER_REQUEST * args.requests)
    job = json.dumps({"requests": reqs, "corpus": texts, "trees": trees})
    runs = [
        (f"{src} (PYTHONHASHSEED={seed})", run(os.path.abspath(src), seed, job))
        for src in args.src
        for seed in HASH_SEEDS
    ]
    difference = first_difference(runs, reqs, texts, trees)
    if difference:
        print(difference)
        return 1
    print(
        f"no difference: {len(reqs)} requests and {len(texts)} parser strings "
        f"(x3 parsers) and {len(trees)} trees (x3 tree parsers) in {len(runs)} runs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
