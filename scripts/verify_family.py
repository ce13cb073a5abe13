#!/usr/bin/env python3
"""Sweep the axiom verifier across members of the coproduct family.

Checks the fully symbolic member (which subsumes every specialisation)
and a grid of rational parameter points, for both the symmetric algebra
and the ordered variant.

Example:

    python3 scripts/verify_family.py --n 2 --max-degree 3 --grid -1 0 1
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treehopf.hopf import HopfContext, verify_bialgebra
from treehopf.planar import verify_planar


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1, help="number of colours")
    parser.add_argument("--max-degree", type=int, default=4)
    parser.add_argument("--planar-max-degree", type=int, default=3)
    parser.add_argument(
        "--grid",
        nargs="+",
        type=Fraction,
        default=[Fraction(0), Fraction(1)],
        help="rational values each parameter ranges over, e.g. --grid -1 0 1/2",
    )
    return parser.parse_args(argv)


def run_member(label, ctx, args) -> bool:
    start = time.perf_counter()
    sym = verify_bialgebra(ctx, args.max_degree)
    pla = verify_planar(ctx, args.planar_max_degree)
    elapsed = time.perf_counter() - start
    ok = sym.passed and pla.passed
    status = "ok" if ok else "FAILED"
    print(f"  {label:<40} {status:>6}  ({elapsed:.1f}s)")
    for report in (sym, pla):
        if not report.passed:
            print(f"    {report.first_failure.name}: {report.first_failure.failure}")
    return ok


def main(argv=None) -> int:
    args = parse_args(argv)
    print(
        f"axiom sweep: n={args.n}, forests <= {args.max_degree} vertices, "
        f"planar words <= {args.planar_max_degree}"
    )
    all_ok = run_member("symbolic (generic member)", HopfContext.symbolic(args.n), args)

    points = list(itertools.product(args.grid, repeat=2 * args.n))
    print(f"rational grid: {len(points)} parameter points")
    for values in points:
        label = "q = (" + ", ".join(str(v) for v in values) + ")"
        all_ok &= run_member(label, HopfContext.rational(args.n, values), args)

    print("all members passed" if all_ok else "FAILURES FOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
