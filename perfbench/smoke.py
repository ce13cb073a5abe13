#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (well under a minute).

    python3 perfbench/smoke.py        (or: python -m pytest perfbench/smoke.py)

Runs every workload (those in BENCHMARK.json and dual-products) untraced and
traced with ``--tiny``, and checks that the last line is the result object,
that every op passed its gate, and that every metric named in BENCHMARK.json
is emitted with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run_tiny(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    print("smoke test passed")
