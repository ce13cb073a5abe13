#!/usr/bin/env python3
"""Time coefficient arithmetic, Δ, S, the dual product, the verifier and
CLI requests, up to sizes the workloads never reach; append one row.

    python3 scripts/bench_scaling.py --label change --repeat 5
    python3 scripts/bench_scaling.py --label parent --src ../parent/src \
        --label change --src src --repeat 3

Every probe runs in a fresh interpreter that imports ``treehopf`` from
``--src`` (default: this checkout's ``src``), compiled to bytecode before
the first probe, so one copy of this script measures any checkout on the
same machine, and every memo starts cold.
Each probe times its work in-process and reports the number of terms
of the result, so two rows can be checked to agree.  With ``--repeat k``
each probe runs k times, each time in a fresh interpreter; the row holds
the median seconds and peak RSS of the k runs, and ``spread`` holds the
least and the greatest seconds.  Given several labelled checkouts (one
``--src`` per ``--label``), the script runs each probe on all of them
before the next repeat, the first checkout first on even repeats and
last on odd ones, so drift of the machine falls on every side alike; it
appends one row per checkout, and the checkouts must agree on every
probe's term count.  The probes:

* ``coeff_*``: five ``Coeff`` microbenchmarks (4×3-term product,
  4+3-term sum, monomial × monomial, ``rational(1)``, constant ×
  constant), seconds per call, best of 5 ``timeit`` repeats;
* ``coproduct`` of the forest ``[]``^k for k = 100, 200, 400, at the
  Connes–Kreimer point and symbolically (repeated trees);
* ``coproduct`` of ``[1:[]]``^50 at the Connes–Kreimer point;
* ``antipode_recursive`` of the 10- and 12-vertex bushy trees (the tree
  at index ⌊N/3⌋ of ``enumerate_trees(1, m)``), at the rational point
  q = (2, 3), at the fractional point q = (1/3, 3/2), which the engine
  runs at its integer point 6·q, and symbolically, of the 12-vertex one
  at the mixed point q = (q11, 1/3), which the engine runs at
  (3·q11, 1), of the 14-vertex one at q = (2, 3), and of the 12-vertex
  chain symbolically;
* ``antipode_bushy10_*_warm``: the same antipode of the 10-vertex bushy
  tree at the fractional and at the mixed point, asked once and then
  timed a second time, so the memos of Δ and S are warm and only the
  exit's work is left;
* ``verify_bialgebra`` symbolic n=2 up to degree 5 (its "terms" are the
  cases checked);
* cold symbolic ``bullet`` of the n=1 chains with 5 and 4 vertices, and
  with 6 and 5 vertices;
* cold symbolic ``planar_bullet`` of the n=2 pair ``[2:[1:[]]]``, ``[2:[]]``;
* single in-process ``cli.main`` calls, timed without interpreter
  start-up: ``verify --n 1`` to degrees 6 and 7, symbolic, and to degree
  7 at the fractional point ``--q 1/3,3/2``, and the ``bullet``
  requests of ROADMAP item 10 (an n=1 7+6-vertex pair, and an n=16
  6-vertex tree with ``[]``) at the symbolic, a rational and the
  Connes–Kreimer point; their "terms" are the bytes printed;
* ``cli_first_request``: one ``coproduct --n 1 --q 1,0 [1:[]]`` call,
  the first ``cli.main`` call of a fresh interpreter: what
  ``python3 -m treehopf`` pays after import;
* ``cli_requests``: the median seconds of one in-process ``cli.main``
  call over ``CLI_ROUNDS`` rounds of ``CLI_REQUESTS`` (all eight
  subcommands, text and JSON, repeated ``--q`` texts), output discarded;
  its "terms" are the bytes one round prints;
* ``cli_repeat_one_point``: the same over ``CLI_ROUNDS`` rounds of
  ``CLI_REPEAT``, two ``verify`` requests and a forest and word
  ``coproduct`` and forest ``antipode`` that repeat one point, so every
  round after the first is warm.

Each probe also records the peak RSS of its process.  ``--probe NAME``
(repeatable) runs only the named probes, and the row holds only those;
an unknown name is refused before any probe runs.

Rows are appended to the JSON list in ``--out`` (default
``BENCH_scaling.json`` at the root of this checkout), each headed by its
label, commit, date and machine.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small requests, one per line: all eight subcommands, text and JSON, and
# repeated --q texts; no tree holds a space
CLI_REQUESTS = """\
enumerate --n 1 --vertices 4
enumerate --n 2 --vertices 3 --count --format json
coproduct --n 1 --q 1,0 [1:[]]*[]
coproduct --n 2 --variant planar --format json [2:[1:[]]]
antipode --n 1 --q 1,0 --format json [1:[1:[]]]
antipode --n 1 [1:[],1:[]]
bullet --n 1 --q 1,0 [] [1:[]]
bullet --n 2 --q 1,1,0,0 --variant planar --format json [2:[]] [1:[]]
bracket --n 1 [] [1:[]]
bracket --n 2 --q 1,1,0,0 --format json [] [2:[]]
simplicial --n 2 --map d --index 1 [1:[],2:[]]
simplicial --n 1 --map s --index 0 --format json [1:[]]
phi --n 2 [1:[2:[]]]
phi --n 1 --format json [1:[]]
verify --n 1 --q 1,0 --max-degree 1
verify --n 1 --variant planar --max-degree 1 --format json
"""
CLI_ROUNDS = 50

# requests that repeat one point, as the cli-session verify requests do:
# warm, each reads the memoised Δ of its trees and forms the Δ of its
# forest or word, or of the verifier's cases, again.  Three fast requests and two slow ones put the
# median inside one request's calls, not between two kinds.
CLI_REPEAT = """\
verify --n 2 --q 1,1,0,0 --max-degree 3
verify --n 2 --q 1,1,0,0 --max-degree 3 --variant planar
coproduct --n 1 --q 1/2,3 [1:[]]*[]*[1:[1:[]]]
coproduct --n 1 --q 1/2,3 --variant planar [1:[]]*[]*[1:[1:[]]]
antipode --n 1 --q 1/2,3 [1:[]]*[]*[1:[1:[]]]
"""

CLI_PROBE = r"""
import contextlib, io, json, resource, statistics, sys
from time import perf_counter
from treehopf.cli import main

rounds, requests = int(sys.argv[1]), [line.split() for line in sys.argv[2].splitlines()]
calls, sink = [], io.StringIO()
with contextlib.redirect_stdout(sink):
    for _ in range(rounds):
        sink.seek(0)
        sink.truncate()
        for argv in requests:
            t0 = perf_counter()
            code = main(argv)
            calls.append(perf_counter() - t0)
            if code:
                raise SystemExit(f"{argv} exited {code}")
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
terms = len(sink.getvalue().encode())  # the bytes of one round
print(json.dumps({"seconds": statistics.median(calls), "terms": terms, "peak_rss_mb": rss}))
"""

MICRO = r"""
import json, resource, sys, timeit
from fractions import Fraction
from treehopf.algebra import Coeff
q11, q21, q12, q22 = (Coeff.variable(i, j) for j in (1, 2) for i in (1, 2))
a = q11 + 2 * q21 + Coeff.rational(Fraction(1, 3)) * q12 + 1  # 4 terms
b = q11 * q11 - q22 + 5  # 3 terms
two, three_sevenths = Coeff.rational(2), Coeff.rational(Fraction(3, 7))
call = {
    "mul_4x3": lambda: a * b,
    "add_4+3": lambda: a + b,
    "mono_x_mono": lambda: q11 * q21,
    "rational_1": lambda: Coeff.rational(1),
    "const_x_const": lambda: two * three_sevenths,
}[sys.argv[1]]
timer = timeit.Timer(call)
number, _ = timer.autorange()
seconds = min(timer.repeat(5, number)) / number
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "terms": len(call().terms), "peak_rss_mb": rss}))
"""

PROBE = r"""
import json, resource, sys
from fractions import Fraction
from time import perf_counter
from treehopf.algebra import Element, QSpec
from treehopf.hopf import HopfContext, antipode_recursive, coproduct, verify_bialgebra
from treehopf.planar import PlanarDualElement, parse_planar_tree, planar_bullet
from treehopf.prelie import DualElement, bullet
from treehopf.trees import enumerate_trees, parse_forest, parse_tree

kind, size, point, warm = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:] == ["warm"]
n = 2 if kind in ("planar", "verify") else 1
ctx = {
    "ck": HopfContext.connes_kreimer(),
    "rational": HopfContext.rational(1, (2, 3)),
    "fraction": HopfContext.rational(1, (Fraction(1, 3), Fraction(3, 2))),
    "mixed": HopfContext(QSpec.from_strings(1, ["sym", "1/3"])),
    "symbolic": HopfContext.symbolic(n),
}[point]
chain = lambda m: "[1:" * (m - 1) + "[]" + "]" * (m - 1)
if kind == "leaves":
    a = Element.basis(parse_forest("*".join(["[]"] * size), 1), 1)
    run = lambda: coproduct(a, ctx)
elif kind == "edges":
    a = Element.basis(parse_forest("*".join(["[1:[]]"] * size), 1), 1)
    run = lambda: coproduct(a, ctx)
elif kind in ("bushy", "chain"):  # the chain is the one tree of its list
    trees = enumerate_trees(1, size) if kind == "bushy" else [chain(size)]
    a = Element.basis(parse_forest(str(trees[len(trees) // 3]), 1), 1)
    run = lambda: antipode_recursive(a, ctx)
elif kind == "verify":  # the size is the degree
    run = lambda: verify_bialgebra(ctx, size)
elif kind == "chains":  # the size is the left factor's vertex count
    left, right = (DualElement.basis(parse_tree(chain(m), 1), 1) for m in (size, size - 1))
    run = lambda: bullet(left, right, ctx, budget=2 * size - 1)
else:  # planar: one fixed pair, over n = 2
    left, right = (
        PlanarDualElement.basis(parse_planar_tree(t, 2), 2) for t in ("[2:[1:[]]]", "[2:[]]")
    )
    run = lambda: planar_bullet(left, right, ctx)
if warm:
    run()
t0 = perf_counter()
result = run()
elapsed = perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
if kind == "verify" and not result.passed:
    raise SystemExit(result.summary())
terms = sum(check.cases for check in result.checks) if kind == "verify" else len(result)
print(json.dumps({"seconds": elapsed, "terms": terms, "peak_rss_mb": rss}))
"""

# ROADMAP item 10's dual products: (name, request, n)
ITEM10 = [
    ("7+6", "bullet --n 1 --budget 13 [1:[1:[],1:[]],1:[1:[]],1:[]] [1:[1:[1:[]],1:[]],1:[]]", 1),
    ("n16_6+1", "bullet --n 16 --budget 7 [1:[1:[],1:[],1:[],1:[]]] []", 16),
]


def _q(n: int, row1: str, row2: str) -> str:
    return f" --q {','.join([row1] * n + [row2] * n)}"


# (name, probe code, its arguments)
PROBES = [
    *(
        (f"coeff_{case}", MICRO, (case,))
        for case in ("mul_4x3", "add_4+3", "mono_x_mono", "rational_1", "const_x_const")
    ),
    *(
        (f"coproduct_leaves{k}_{point}", PROBE, ("leaves", k, point))
        for k in (100, 200, 400)
        for point in ("ck", "symbolic")
    ),
    ("coproduct_edges50_ck", PROBE, ("edges", 50, "ck")),
    *(
        (f"antipode_bushy{m}_{point}", PROBE, ("bushy", m, point))
        for m in (10, 12)
        for point in ("rational", "fraction", "symbolic")
    ),
    ("antipode_bushy12_mixed", PROBE, ("bushy", 12, "mixed")),
    *(
        (f"antipode_bushy10_{point}_warm", PROBE, ("bushy", 10, point, "warm"))
        for point in ("fraction", "mixed")
    ),
    ("antipode_bushy14_rational", PROBE, ("bushy", 14, "rational")),
    ("antipode_chain12_symbolic", PROBE, ("chain", 12, "symbolic")),
    ("verify_bialgebra_n2_d5_symbolic", PROBE, ("verify", 5, "symbolic")),
    ("bullet_chains5+4_cold_symbolic", PROBE, ("chains", 5, "symbolic")),
    ("bullet_chains6+5_cold_symbolic", PROBE, ("chains", 6, "symbolic")),
    ("planar_bullet_n2_cold_symbolic", PROBE, ("planar", 3, "symbolic")),
    *(
        (f"verify_n1_d{degree}", CLI_PROBE, (1, f"verify --n 1 --max-degree {degree}"))
        for degree in (6, 7)
    ),
    ("verify_n1_d7_fraction", CLI_PROBE, (1, "verify --n 1 --max-degree 7 --q 1/3,3/2")),
    *(
        (f"bullet_{name}_{point}", CLI_PROBE, (1, request + q))
        for name, request, n in ITEM10
        for point, q in (("symbolic", ""), ("rational", _q(n, "2", "3")), ("ck", _q(n, "1", "0")))
    ),
    ("cli_first_request", CLI_PROBE, (1, "coproduct --n 1 --q 1,0 [1:[]]")),
    ("cli_requests", CLI_PROBE, (CLI_ROUNDS, CLI_REQUESTS)),
    ("cli_repeat_one_point", CLI_PROBE, (CLI_ROUNDS, CLI_REPEAT)),
]


def _run(src: str, name: str, code: str, argv: tuple) -> dict:
    """Run the probe in a fresh interpreter; its JSON report."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"probe {name} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def measure(srcs: list, repeat: int, probes: list) -> list:
    """For each checkout in ``srcs``, the median of ``repeat`` runs of
    each of ``probes``, with the least and greatest seconds; the
    checkouts take turns within each repeat, and every run must agree on
    the result's size."""
    reports = [{} for _ in srcs]  # per checkout, in order: probe name -> runs
    sides = list(enumerate(srcs))
    for name, code, argv in probes:
        for r in range(repeat):
            for i, src in sides if r % 2 == 0 else sides[::-1]:
                reports[i].setdefault(name, []).append(_run(src, name, code, argv))
        if len({rep["terms"] for side in reports for rep in side[name]}) != 1:
            raise SystemExit(f"probe {name} gave different results across runs")
    rows = []
    for side in reports:
        seconds, spread, terms, rss = {}, {}, {}, {}
        for name, runs in side.items():
            times = [r["seconds"] for r in runs]
            seconds[name] = statistics.median(times)
            spread[name] = [min(times), max(times)]
            terms[name] = runs[0]["terms"]
            rss[name] = statistics.median(r["peak_rss_mb"] for r in runs)
        rows.append(
            {"repeat": repeat, "seconds": seconds, "spread": spread, "terms": terms, "peak_rss_mb": rss}
        )
    return rows


def _commit(src: str) -> str:
    done = subprocess.run(
        ["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=7"],
        capture_output=True,
        text=True,
    )
    return done.stdout.strip() or "unknown"


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    """One row per ``--label``, measured on the paired ``--src`` (default:
    this checkout), appended to ``--out``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append", required=True, help="a measured side, e.g. parent")
    parser.add_argument("--src", action="append", help="directory holding treehopf, one per --label")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_scaling.json"))
    parser.add_argument("--repeat", type=int, default=1, help="fresh-interpreter runs per probe")
    parser.add_argument(
        "--probe",
        action="append",
        choices=[name for name, _, _ in PROBES],
        metavar="NAME",
        help="run only this probe (repeatable; default: every probe)",
    )
    args = parser.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    if len(srcs) != len(args.label):
        parser.error("give one --src per --label")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    srcs = [os.path.abspath(src) for src in srcs]
    # probes import from bytecode, as perfbench/run.py's passes do: a source
    # newer than its bytecode is compiled in the probe's own process, and that
    # adds about 1 MB to its peak RSS
    for src in srcs:
        compileall.compile_dir(src, quiet=1)
    probes = [p for p in PROBES if args.probe is None or p[0] in args.probe]
    results = measure(srcs, args.repeat, probes)
    rows = []
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            rows = json.load(fh)
    for label, src, result in zip(args.label, srcs, results):
        row = {
            "label": label,
            "commit": _commit(src),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "cpu": _cpu(),
            "nproc": os.cpu_count(),
            **result,
        }
        rows.append(row)
        print(json.dumps(row, indent=2))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
