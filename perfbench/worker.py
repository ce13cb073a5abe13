"""One pass of one workload, in a fresh single-threaded process.

Run by ``run.py``; prints one JSON line with the pass's measurements:

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
        [--gate 0|1] [--tiny] [--spans PATH]

The pass imports ``treehopf`` from ``src/`` of the checkout, builds the
workload's inputs, runs its ops one after another with timing, reads the
peak RSS, and only then renders each result for its digest and, with
``--gate 1``, runs every op's correctness gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXIT_NO_LIBRARY = 3


class Raised:
    """An exception an op raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.name = type(exc).__name__
        self.text = f"{self.name}: {exc}"[:300]


def import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import treehopf
        import treehopf.cli  # noqa: F401  (the cli layer is not imported by the package)
    except ImportError as exc:
        sys.exit(f"cannot import treehopf from {ROOT}/src: {exc}")
    where = os.path.dirname(os.path.abspath(treehopf.__file__))
    if where != os.path.join(ROOT, "src", "treehopf"):
        print(f"treehopf imported from {where}, not from this checkout", file=sys.stderr)
        sys.exit(EXIT_NO_LIBRARY)
    return treehopf


def run_pass(args) -> dict:
    th = import_library()
    import layers
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(th, layers.hooks(th))
    ops = workloads.build(args.workload, args.seed, th, args.tiny)
    ready = perf_counter()

    results: list = []
    lat: list[float] = []
    first = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op.call(results)
            else:
                with tracer.op_span(i):
                    result = op.call(results)
        except Exception as exc:  # an op failure is a measurement, not a crash
            result = Raised(exc)
        t1 = perf_counter()
        results.append(result)
        lat.append(t1 - t0)
    wall = perf_counter() - first
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = tracer.summary()
        if args.spans:
            tracer.dump(args.spans)

    outcomes, digests, failures = [], [], []
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Raised):
            known = result.name == op.known_defect
            outcomes.append("known" if known else "failed")
            digests.append(None)
            if not known:
                failures.append(f"op {i} {op.kind}: raised {result.text}")
            continue
        digests.append(None if op.known_defect else
                       hashlib.sha256(op.render(result).encode()).hexdigest()[:16])
        why = None
        if args.gate:
            try:
                why = op.check(result, results)
            except Exception as exc:  # e.g. the op consumed an earlier failed result
                why = f"gate raised {type(exc).__name__}: {exc}"
        outcomes.append("ok" if why is None else "failed")
        if why is not None:
            failures.append(f"op {i} {op.kind}: {why}")

    cli = [r for r in results if isinstance(r, workloads.CliResult)]
    return {
        "ready": ready,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "lat": lat,
        "kinds": [op.kind for op in ops],
        "vertices": [op.vertices for op in ops],
        "outcomes": outcomes,
        "digests": digests,
        "failures": failures,
        "cli": {"output_bytes": sum(len(r.out.encode()) for r in cli),
                "exit_nonzero": sum(r.code != 0 for r in cli)},
        "trace": trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    sys.path.insert(0, HERE)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
