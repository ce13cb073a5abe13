#!/usr/bin/env python3
"""Time Δ, S and the dual product at the sizes the workloads never reach;
append one row.

    python3 scripts/bench_scaling.py --label change
    python3 scripts/bench_scaling.py --label parent --src ../parent/src

Every probe runs in a fresh interpreter that imports ``treehopf`` from
``--src`` (default: this checkout's ``src``), so one copy of this script
measures any checkout on the same machine, and every memo starts cold.
Each probe times its one call in-process and reports the number of terms
of the result, so two rows can be checked to agree.  The probes:

* ``coproduct`` of the forest ``[]``^k for k = 100, 200, 400, at the
  Connes–Kreimer point and symbolically (repeated trees);
* ``coproduct`` of ``[1:[]]``^50 at the Connes–Kreimer point;
* ``antipode_recursive`` of the 10- and 12-vertex bushy trees (the tree
  at index ⌊N/3⌋ of ``enumerate_trees(1, m)``), at the rational point
  q = (2, 3) and symbolically;
* cold symbolic ``bullet`` of the n=1 chains with 5 and 4 vertices, and
  with 6 and 5 vertices;
* cold symbolic ``planar_bullet`` of the n=2 pair ``[2:[1:[]]]``, ``[2:[]]``.

Each probe also records the peak RSS of its process.

Rows are appended to the JSON list in ``--out`` (default
``BENCH_scaling.json`` at the root of this checkout) by the command line
that ``bench_coeff.py`` shares, which this script imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from bench_coeff import append_row

PROBE = r"""
import json, resource, sys
from time import perf_counter
from treehopf.algebra import Element
from treehopf.hopf import HopfContext, antipode_recursive, coproduct
from treehopf.planar import PlanarDualElement, parse_planar_tree, planar_bullet
from treehopf.prelie import DualElement, bullet
from treehopf.trees import enumerate_trees, parse_forest, parse_tree

kind, size, point = sys.argv[1], int(sys.argv[2]), sys.argv[3]
n = 2 if kind == "planar" else 1
ctx = {
    "ck": HopfContext.connes_kreimer(),
    "rational": HopfContext.rational(1, (2, 3)),
    "symbolic": HopfContext.symbolic(n),
}[point]
chain = lambda m: "[1:" * (m - 1) + "[]" + "]" * (m - 1)
if kind == "leaves":
    a = Element.basis(parse_forest("*".join(["[]"] * size), 1), 1)
    run = lambda: coproduct(a, ctx)
elif kind == "edges":
    a = Element.basis(parse_forest("*".join(["[1:[]]"] * size), 1), 1)
    run = lambda: coproduct(a, ctx)
elif kind == "bushy":
    trees = enumerate_trees(1, size)
    a = Element.basis(parse_forest(str(trees[len(trees) // 3]), 1), 1)
    run = lambda: antipode_recursive(a, ctx)
elif kind == "chains":  # the size is the left factor's vertex count
    left, right = (DualElement.basis(parse_tree(chain(m), 1), 1) for m in (size, size - 1))
    run = lambda: bullet(left, right, ctx, budget=2 * size - 1)
else:  # planar: one fixed pair, over n = 2
    left, right = (
        PlanarDualElement.basis(parse_planar_tree(t, 2), 2) for t in ("[2:[1:[]]]", "[2:[]]")
    )
    run = lambda: planar_bullet(left, right, ctx)
t0 = perf_counter()
result = run()
elapsed = perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": elapsed, "terms": len(result), "peak_rss_mb": rss}))
"""

# (name, kind, size, point)
PROBES = [
    *(
        (f"coproduct_leaves{k}_{point}", "leaves", k, point)
        for k in (100, 200, 400)
        for point in ("ck", "symbolic")
    ),
    ("coproduct_edges50_ck", "edges", 50, "ck"),
    *(
        (f"antipode_bushy{m}_{point}", "bushy", m, point)
        for m in (10, 12)
        for point in ("rational", "symbolic")
    ),
    ("bullet_chains5+4_cold_symbolic", "chains", 5, "symbolic"),
    ("bullet_chains6+5_cold_symbolic", "chains", 6, "symbolic"),
    ("planar_bullet_n2_cold_symbolic", "planar", 3, "symbolic"),
]


def _run(src: str, *argv: str) -> dict:
    """Run the probe in a fresh interpreter; its JSON report."""
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"probe {argv} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def measure(src: str) -> dict:
    seconds, terms, rss = {}, {}, {}
    for name, kind, size, point in PROBES:
        report = _run(src, kind, str(size), point)
        seconds[name] = report["seconds"]
        terms[name] = report["terms"]
        rss[name] = report["peak_rss_mb"]
    return {"seconds": seconds, "terms": terms, "peak_rss_mb": rss}


def main(argv=None) -> int:
    return append_row(argv, __doc__, "BENCH_scaling.json", measure)


if __name__ == "__main__":
    sys.exit(main())
