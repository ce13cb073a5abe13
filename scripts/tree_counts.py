#!/usr/bin/env python3
"""Tabulate basis sizes: coloured trees, forests, planar trees and words.

Example:

    python3 scripts/tree_counts.py --max-n 3 --max-size 6
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treehopf.planar import enumerate_planar_trees, enumerate_planar_words
from treehopf.trees import enumerate_forests, enumerate_trees


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
    table(
        "trees (isomorphism classes)",
        "vertices",
        lambda n, m: len(enumerate_trees(n, m)),
        args.max_n,
        args.max_size,
    )
    table(
        "forests (multisets of trees)",
        "total vertices",
        lambda n, m: len(enumerate_forests(n, m)),
        args.max_n,
        args.max_size,
    )
    table(
        "planar trees (sibling order is data)",
        "vertices",
        lambda n, m: len(enumerate_planar_trees(n, m)),
        args.max_n,
        args.planar_max_size,
    )
    table(
        "planar words (ordered sequences of planar trees)",
        "total vertices",
        lambda n, m: len(enumerate_planar_words(n, m)),
        args.max_n,
        args.planar_max_size,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
