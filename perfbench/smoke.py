"""Smoke run: every workload at its smallest size, on two seeds, traced and not.

    python3 perfbench/smoke.py

Checks that each run is correct, that it emits exactly the metric names
listed in BENCHMARK.json (end-to-end without tracing, per-layer with
tracing) and that ``op_fail_ratio`` is 0.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(workloads.WORKLOADS):
        print(f"smoke: BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 1
    sf, import_s = run.import_package()
    problems = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                args = run.parse_args(["--workload", name, "--seed", str(seed),
                                       "--seconds", "0", "--trace", str(trace), "--tiny"])
                result = run.run(args, sf, import_s)
                label = f"{name} seed {seed} trace {trace}"
                names = set(result["metrics"])
                if names != expected[trace]:
                    problems.append(f"{label}: missing {sorted(expected[trace] - names)}, "
                                    f"unexpected {sorted(names - expected[trace])}")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
                if trace and result["metrics"]["op_fail_ratio"]["value"] != 0:
                    problems.append(f"{label}: op_fail_ratio is not 0")
                print(f"smoke: {label}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
