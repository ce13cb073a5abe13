#!/usr/bin/env python3
"""Time coefficient arithmetic and the runs it dominates; append one row.

    python3 scripts/bench_coeff.py --label change
    python3 scripts/bench_coeff.py --label parent --src ../parent/src

Every probe runs in a fresh interpreter that imports ``treehopf`` from
``--src`` (default: this checkout's ``src``), so one copy of this script
measures any checkout on the same machine; one ``--src`` per ``--label``
measures several checkouts in turn, one row each.  The row holds:

* ``micro_us``: ``Coeff`` microbenchmarks, microseconds per call, best of
  5 ``timeit`` repeats;
* ``seconds``: ``treehopf verify --n 1 --max-degree 6`` and ``7`` timed
  end to end (interpreter start to exit), and, timed in-process around
  the one call, ``antipode_recursive`` on the symbolic 12-vertex chain
  and ``verify_bialgebra`` symbolic n=2 up to degree 5.

Rows are appended to the JSON list in ``--out`` (default
``BENCH_coeff.json`` at the root of this checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MICRO = r"""
import json, timeit
from fractions import Fraction
from treehopf.algebra import Coeff
q11, q21, q12, q22 = (Coeff.variable(i, j) for j in (1, 2) for i in (1, 2))
third = Coeff.rational(Fraction(1, 3))
a = q11 + 2 * q21 + third * q12 + 1  # 4 terms
b = q11 * q11 - q22 + 5  # 3 terms
two, three_sevenths = Coeff.rational(2), Coeff.rational(Fraction(3, 7))
cases = {
    "mul_4x3": lambda: a * b,
    "add_4+3": lambda: a + b,
    "mono_x_mono": lambda: q11 * q21,
    "rational_1": lambda: Coeff.rational(1),
    "const_x_const": lambda: two * three_sevenths,
}
out = {}
for name, fn in cases.items():
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    out[name] = min(timer.repeat(5, number)) / number * 1e6
print(json.dumps(out))
"""

VERIFY = r"""
import sys
from treehopf.cli import main
sys.exit(main(["verify", "--n", "1", "--max-degree", sys.argv[1]]))
"""

IN_PROCESS = r"""
import json, sys
from time import perf_counter
from treehopf.algebra import Element
from treehopf.hopf import HopfContext, antipode_recursive, verify_bialgebra
from treehopf.trees import parse_forest
if sys.argv[1] == "antipode":
    chain = Element(1, {parse_forest("[1:" * 11 + "[]" + "]" * 11, 1): 1})
    ctx = HopfContext.symbolic(1)
    run = lambda: antipode_recursive(chain, ctx)
else:
    ctx = HopfContext.symbolic(2)
    run = lambda: verify_bialgebra(ctx, 5)
t0 = perf_counter()
result = run()
elapsed = perf_counter() - t0
assert getattr(result, "passed", True)
print(json.dumps(elapsed))
"""


def _run(code: str, src: str, *argv: str) -> tuple[float, str]:
    """Run ``code`` in a fresh interpreter; its wall time and stdout."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"probe {argv} failed:\n{done.stderr}")
    return elapsed, done.stdout


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


def measure(src: str) -> dict:
    micro = json.loads(_run(MICRO, src)[1])
    seconds = {}
    for degree in ("6", "7"):
        seconds[f"verify_n1_d{degree}"] = _run(VERIFY, src, degree)[0]
    seconds["antipode_symbolic_chain12"] = json.loads(_run(IN_PROCESS, src, "antipode")[1])
    seconds["verify_bialgebra_symbolic_n2_d5"] = json.loads(_run(IN_PROCESS, src, "verify")[1])
    return {"micro_us": micro, "seconds": seconds}


def append_row(argv, doc: str, out: str, measure, repeatable: bool = False) -> int:
    """The command line shared by the ``bench_*`` scripts: measure each
    labelled ``--src`` checkout and append one row per checkout, headed by
    its label, commit, date and machine, to ``--out`` (default: ``out`` at
    the root of this checkout).

    ``--label`` and ``--src`` may each be given once per checkout, paired
    in order; one label with no ``--src`` measures this checkout.  A plain
    script measures the checkouts in turn with ``measure(src)``.  A
    ``repeatable`` script also takes ``--repeat k`` and is handed all the
    checkouts at once, ``measure(srcs, k)``, so that it can alternate
    between them; it returns one result per checkout."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--label", action="append", required=True, help="name of a measured side, e.g. parent"
    )
    parser.add_argument(
        "--src", action="append", help="directory holding treehopf, one per --label"
    )
    parser.add_argument("--out", default=os.path.join(ROOT, out))
    if repeatable:
        parser.add_argument("--repeat", type=int, default=1, help="fresh-interpreter runs per probe")
    args = parser.parse_args(argv)
    srcs = args.src or [os.path.join(ROOT, "src")]
    if len(srcs) != len(args.label):
        parser.error("give one --src per --label")
    if repeatable and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    srcs = [os.path.abspath(src) for src in srcs]
    results = measure(srcs, args.repeat) if repeatable else [measure(src) for src in srcs]
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


def main(argv=None) -> int:
    return append_row(argv, __doc__, "BENCH_coeff.json", measure)


if __name__ == "__main__":
    sys.exit(main())
