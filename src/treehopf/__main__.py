"""``python -m treehopf``: the command line of ``treehopf.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
