#!/usr/bin/env python3
"""Tabulate basis sizes: coloured trees, forests, planar trees and words.

The counts come from ``treehopf.trees.basis_counts``, which counts without
listing, so large sizes cost no enumeration.

Example:

    python3 scripts/tree_counts.py --max-n 3 --max-size 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treehopf.planar import PlanarWord
from treehopf.trees import Forest, basis_counts


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=2, help="largest colour count")
    parser.add_argument("--max-size", type=int, default=6, help="largest vertex count")
    parser.add_argument(
        "--planar-max-size",
        type=int,
        default=5,
        help="largest vertex count for the ordered variant (grows fast)",
    )
    return parser.parse_args(argv)


def table(title, row_label, counts_for, max_n, max_size):
    print(f"\n{title}")
    header = ["n \\ m"] + [str(m) for m in range(1, max_size + 1)]
    rows = []
    for n in range(1, max_n + 1):
        rows.append([str(n)] + [str(counts_for(n, m)) for m in range(1, max_size + 1)])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    print(f"(rows: colour count, columns: {row_label})")


def main(argv=None) -> int:
    args = parse_args(argv)
    # (title, column label, monomial class, 0 for trees or 1 for monomials, largest size)
    for title, label, monomial, which, max_size in (
        ("trees (isomorphism classes)", "vertices", Forest, 0, args.max_size),
        ("forests (multisets of trees)", "total vertices", Forest, 1, args.max_size),
        ("planar trees (sibling order is data)", "vertices", PlanarWord, 0, args.planar_max_size),
        (
            "planar words (ordered sequences of planar trees)",
            "total vertices",
            PlanarWord,
            1,
            args.planar_max_size,
        ),
    ):
        counts = lambda n, m: basis_counts(monomial, n, m)[which][m]
        table(title, label, counts, args.max_n, max_size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
