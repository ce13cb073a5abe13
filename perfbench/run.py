#!/usr/bin/env python3
"""The treehopf benchmark: run one seeded workload and report its metrics.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 56 --trace 0

A run makes several passes of the workload, each in a fresh process
(``worker.py``): the same seed gives the same inputs in every pass, so
memo tables start cold each time.  The number of passes follows from
``--seconds`` and the workload's nominal pass length.  With ``--trace 0``
every pass is untraced and the last line of output holds the end-to-end
metrics.  With ``--trace 1`` untraced and traced passes alternate and the
last line holds the per-layer metrics, including the tracing overhead.

Every op's result is checked: the first pass runs each op's correctness
gate, every pass must print byte-identical results, and at the seed the
digests are recorded for (``digests.json``) they must match those too.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines above it are a readable report.  A full
record, with machine and environment, is written under ``perfbench/out``.
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
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Seconds one pass takes on the reference machine (see README.md): a run
# makes seconds / nominal passes, at least MIN_PASSES, and starts no new
# pass that would, at the length of the previous one, end after
# OVERRUN * seconds.
NOMINAL_PASS_S = {"verify-sweep": 3.5, "tree-scaling": 7.0, "dual-products": 6.5, "cli-session": 1.5}
MIN_PASSES = 3
OVERRUN = 1.1
DEADLINE_S = 170  # a run must end within 180 s
DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_SEED = 0
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}


class RunFailed(Exception):
    pass


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, traced: bool, gate: bool, spans: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--gate", str(int(gate))]
    if args.tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise RunFailed(f"out of time: the {DEADLINE_S} s deadline passed")
    spawned = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"a pass did not finish within the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"pass exited with code {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - spawned
    return rec


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(recs: list[dict], attempted: int, ok: int) -> tuple[dict, dict]:
    lat_ms = [lat * 1e3 for rec in recs for lat in rec["lat"]]
    tail_ms, tail_pct = tail(lat_ms)
    values = {
        "setup_s": statistics.median(rec["setup_s"] for rec in recs),
        "wall_s": statistics.median(rec["wall_s"] for rec in recs),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(rec["rss_mb"] for rec in recs),
        "ok_frac": ok / attempted,
    }
    samples = {"setup_s": len(recs), "wall_s": len(recs), "op_p50_ms": len(lat_ms),
               "op_tail_ms": len(lat_ms), "peak_rss_mb": len(recs), "ok_frac": attempted,
               "op_tail_percentile": round(tail_pct, 2)}
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    values = {name: statistics.median(fn(rec) for rec in traced) for name, (_, fn) in layers.PER_LAYER.items()}
    values.update({name: fn(plain) for name, (_, fn) in layers.OP_LEVEL.items()})
    values["trace.overhead_s"] = (statistics.median(rec["wall_s"] for rec in traced)
                                  - statistics.median(rec["wall_s"] for rec in plain))
    return values


def layer_unit(name: str) -> str:
    if name == "trace.overhead_s":
        return "s"
    return (layers.PER_LAYER.get(name) or layers.OP_LEVEL[name])[0]


def check_digests(args, recs: list[dict]) -> list[str]:
    """Every pass prints what the first printed; at DIGEST_SEED, what was
    recorded.  An op whose output differs is marked failed in its pass."""
    problems = []
    reference = recs[0]["digests"]
    recorded = None
    if args.seed == DIGEST_SEED and not args.tiny and os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh).get(args.workload)
    for k, rec in enumerate(recs):
        for i, digest in enumerate(rec["digests"]):
            if digest is None:
                continue
            if digest != reference[i]:
                problems.append(f"pass {k} op {i}: output differs from the first pass")
            elif recorded is not None and recorded[i] is not None and digest != recorded[i]:
                problems.append(f"pass {k} op {i}: output differs from the recorded digest")
            else:
                continue
            rec["outcomes"][i] = "failed"
    return problems


def record_digests(args, rec: dict) -> None:
    data = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            data = json.load(fh)
    data[args.workload] = rec["digests"]
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(ROOT, "src", "treehopf", "__init__.py")):
        raise RunFailed(f"no treehopf sources under {ROOT}/src")
    # byte-compile once, so that no pass's setup_s includes compiling
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    start = perf_counter()
    deadline = start + DEADLINE_S
    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:  # untraced and traced passes alternate
        plan = [False, True] * max(2, (passes + 1) // 2)
    else:
        plan = [False] * passes
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    recs = []
    last = 0.0  # seconds the previous pass took
    for k, traced in enumerate(plan):
        # on a machine slower than the reference, stop early rather than overrun
        whole = k >= MIN_PASSES + args.trace and (not args.trace or k % 2 == 0)
        if whole and perf_counter() - start + last > OVERRUN * args.seconds:
            break
        spans = os.path.join(out_dir, f"spans-{stem}") if traced and k == 1 else ""
        began = perf_counter()
        recs.append(run_worker(args, traced, gate=k == 0, spans=spans, deadline=deadline))
        last = perf_counter() - began
    plan = plan[:len(recs)]
    if args.record_digests:
        record_digests(args, recs[0])

    problems = [f for rec in recs for f in rec["failures"]] + check_digests(args, recs)
    outcomes = [o for rec in recs for o in rec["outcomes"]]
    attempted, ok = len(outcomes), outcomes.count("ok")
    known, failed = outcomes.count("known"), outcomes.count("failed")

    plain = [rec for rec, traced in zip(recs, plan) if not traced]
    traced = [rec for rec, t in zip(recs, plan) if t]
    e2e, samples = end_to_end(plain, attempted, ok)
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in per_layer(plain, traced).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    summary = {
        "environment": environment(args),
        "passes": len(recs),
        "ops_per_pass": len(recs[0]["lat"]),
        "known_defect_ops": known,
        "failed_frac": 1 - ok / attempted,
        "end_to_end": e2e,
        "samples": samples,
        "problems": problems,
        "elapsed_s": perf_counter() - start,
    }
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({**summary, "metrics": metrics, "records": recs}, fh)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, result


def report(summary: dict, result: dict) -> None:
    env = summary["environment"]
    print(f"treehopf benchmark: {env['workload']} seed={env['seed']} trace={env['trace']} "
          f"passes={summary['passes']} ops/pass={summary['ops_per_pass']} "
          f"({summary['elapsed_s']:.1f} s)")
    print("environment: " + json.dumps(env))
    samples = summary["samples"]
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<14} {value:>12.6g} {END_TO_END_UNITS[name]:<6} n={samples[name]}")
    print(f"  op_tail_ms is the p{samples['op_tail_percentile']} of {samples['op_tail_ms']} ops; "
          f"failed_frac {summary['failed_frac']:.6g} ({summary['known_defect_ops']} known-defect ops)")
    if env["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for problem in summary["problems"][:20]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests (use with --seed {DIGEST_SEED})")
    args = parser.parse_args(argv)
    try:
        summary, result = run(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(summary, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
