"""Benchmark for spitefree: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload posted-price --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout and every
workload runs in this one process, on one thread; only the repeated cold
import timing for ``setup_s`` uses child interpreters.  Inputs are built
from the seed before timing starts.  Each pass starts with every ``functools`` cache of the package
cleared, so every pass times the same cold program.  Passes repeat until
``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics taken from
the traced ones (see ``tracing.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment record, the tail percentile used, the time accounting) go to
the lines above it and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = ("core", "money", "mechanisms", "verifier", "optimal", "multiitem",
           "specfile", "reports", "cli")
SETUP_REPEATS = 5
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import spitefree
for name in sys.argv[2:]:
    __import__("spitefree." + name)
print(time.perf_counter() - started)
"""
MIN_TAIL_BEYOND = 10

clock = time.perf_counter


def import_package():
    """Import spitefree from this checkout's src/ and time it."""
    if not os.path.isfile(os.path.join(SRC, "spitefree", "__init__.py")):
        raise SystemExit(f"error: no spitefree package under {SRC}")
    sys.path.insert(0, SRC)
    started = clock()
    package = importlib.import_module("spitefree")
    sf = {name: importlib.import_module(f"spitefree.{name}") for name in MODULES}
    import_s = clock() - started
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: spitefree was imported from {package.__file__}, not {SRC}")
    return sf, import_s


def import_times(repeats: int) -> list[float]:
    """Cold import times of the package, each in a fresh interpreter.

    A module is imported cold only once per process, so repeated import
    measurements need short-lived child interpreters.  They run one at a
    time and each is waited for; the workload itself never leaves this
    process.
    """
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, *MODULES],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def clear_caches() -> None:
    """Empty every functools cache in the package, so a pass starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "spitefree" or name.startswith("spitefree."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()


def run_pass(workload) -> dict:
    """One cold pass over the workload's operations."""
    clear_caches()
    latencies, failed, requested, report_bytes = [], 0, 0, 0
    started = clock()
    for op in workload.ops:
        requested += op.checks_requested
        begin = clock()
        try:
            result = op.call()
        except Exception:
            latencies.append(clock() - begin)
            failed += 1
            print(f"op {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        latencies.append(clock() - begin)
        if isinstance(result, tuple) and len(result) == 3:
            report_bytes += len(result[1].encode("utf-8"))
        try:
            ok = op.check(result)
        except Exception:
            print(f"check of {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"op {op.kind} gave a wrong answer", file=sys.stderr)
    run_s = clock() - started
    return {"run_s": run_s, "latencies": latencies, "failed": failed,
            "requested": requested, "report_bytes": report_bytes}


def tail(values):
    """Highest percentile with at least ten operations beyond it.

    Returns (value, percentile, count).  With ten or fewer operations no
    such percentile exists and the maximum (p100) is reported instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0, count
    index = count - MIN_TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def hit_ratio(cache) -> float:
    if cache is None:
        return 0.0
    info = cache.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def layer_metrics(rec, passinfo, cache_ratio) -> dict:
    s, calls, count = rec.self_s, rec.calls, rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    mc_total = rec.total_s.get("optimal.mc", 0.0)
    return {
        "verifier.ir_s": s["verifier.ir"],
        "verifier.ic_s": s["verifier.ic"],
        "verifier.sic_s": s["verifier.sic"],
        "verifier.esic_s": s["verifier.esic"],
        "verifier.checks": count["verifier.checks"],
        "verifier.deviations": count["verifier.deviations"],
        "verifier.tabulation_hit_ratio": cache_ratio,
        "verifier.walk_s": s["verifier.walk"],
        "verifier.tables_yielded": count["verifier.tables_yielded"],
        "verifier.sweep_s": s["verifier.sweep"],
        "verifier.anon_s": s["verifier.anon"],
        "verifier.eff_s": s["verifier.eff"],
        "verifier.confirm_s": s["verifier.confirm"],
        "verifier.witness_confirm_ratio": ratio(count["verifier.confirmed"],
                                                count["verifier.confirm_calls"]),
        "mechanisms.outcome_s": s["mechanisms.outcome"],
        "mechanisms.outcome_calls": calls["mechanisms.outcome"],
        "mechanisms.tabulate_s": s["mechanisms.tabulate"],
        "mechanisms.recognize_s": s["mechanisms.recognize"],
        "mechanisms.recognize_calls": count["mechanisms.recognize_calls"],
        "mechanisms.recognized_ratio": ratio(count["mechanisms.recognized"],
                                             count["mechanisms.recognize_calls"]),
        "core.table_validate_s": s["core.table_validate"],
        "core.tables_validated": calls["core.table_validate"],
        "core.closure_s": s["core.closure"],
        "multiitem.ir_s": s["multiitem.ir"],
        "multiitem.ic_s": s["multiitem.ic"],
        "multiitem.sic_s": s["multiitem.sic"],
        "multiitem.deviations": count["multiitem.deviations"],
        "multiitem.allocate_s": s["multiitem.allocate"],
        "multiitem.allocate_calls": calls["multiitem.allocate"],
        "multiitem.eval_reuse_ratio": ratio(count["multiitem.evaluations"] - calls["multiitem.allocate"],
                                            count["multiitem.evaluations"]),
        "multiitem.classify_s": s["multiitem.classify"],
        "multiitem.points_classified": calls["multiitem.classify"],
        "multiitem.regions_s": s["multiitem.regions"],
        "optimal.thresholds_s": s["optimal.thresholds"],
        "optimal.recursion_s": s["optimal.recursion"],
        "optimal.mc_s": s["optimal.mc"],
        "optimal.mc_samples_per_s": ratio(count["optimal.mc_samples"], mc_total),
        "specfile.load_s": s["specfile.load"],
        "specfile.files_loaded": calls["specfile.load"],
        "cli.self_s": sum(v for k, v in s.items() if k.startswith("cli.")),
        "cli.report_bytes": passinfo["report_bytes"],
        "cli.verify_s": rec.total_s.get("cli.verify", 0.0),
        "cli.enumerate_s": rec.total_s.get("cli.enumerate", 0.0),
        "cli.thresholds_s": rec.total_s.get("cli.thresholds", 0.0),
        "cli.revenue_s": rec.total_s.get("cli.revenue", 0.0),
        "cli.regions_s": rec.total_s.get("cli.regions", 0.0),
        "cli.multi_s": rec.total_s.get("cli.multi", 0.0),
        "bench.overhead_s": passinfo["run_s"] - rec.top_level_s,
        "trace.spans": rec.span_count(),
    }


def accounting_lines(rec, run_s) -> list[str]:
    lines = [f"time accounting of the traced pass ({run_s:.4f} s):"]
    for name in sorted(rec.self_s, key=rec.self_s.get, reverse=True):
        if rec.calls[name]:
            lines.append(f"  {name:<24} self {rec.self_s[name]:9.4f} s  calls {rec.calls[name]}")
    overhead = run_s - rec.top_level_s
    total = sum(rec.self_s.values()) + overhead
    lines.append(f"  {'benchmark overhead':<24} self {overhead:9.4f} s")
    lines.append(f"  self times + overhead = {total:.4f} s of run_s {run_s:.4f} s")
    return lines


def measure(args, sf, workload, import_s, inputs_s) -> tuple[dict, dict]:
    """Run passes for the time budget; returns (result line, details)."""
    import tracing

    cache = getattr(sf["verifier"], "_cached_tabulation", None)
    budget_end = clock() + args.seconds
    plain, traced, layers = [], [], []
    recorder_kept = None
    while True:
        info = run_pass(workload)
        info["tab_hit_ratio"] = hit_ratio(cache)
        plain.append(info)
        if args.trace:
            rec = tracing.Recorder()
            patches = tracing.install(sf, rec)
            try:
                tinfo = run_pass(workload)
            finally:
                patches.undo()
            tinfo["tab_hit_ratio"] = hit_ratio(cache)
            traced.append(tinfo)
            layers.append(layer_metrics(rec, tinfo, tinfo["tab_hit_ratio"]))
            if recorder_kept is None:
                recorder_kept = (rec, tinfo["run_s"])
        spent = sum(p["run_s"] for p in plain) + sum(p["run_s"] for p in traced)
        rounds = len(plain)
        if clock() + spent / rounds > budget_end:
            break

    passes = plain + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    latencies = [x for p in plain for x in p["latencies"]]
    tail_value, tail_pct, tail_count = tail(latencies)
    run_s = statistics.median(p["run_s"] for p in plain)
    details = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": len(workload.ops),
        "run_s_per_pass": [p["run_s"] for p in plain],
        "op_tail": {"percentile": tail_pct, "ops": tail_count},
        "tabulation_hit_ratio": plain[0]["tab_hit_ratio"],
        "inputs": workload.describe,
    }
    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        traced_run_s = statistics.median(p["run_s"] for p in traced)
        metrics["trace.overhead_ratio"] = traced_run_s / run_s - 1
        metrics["setup.import_s"] = import_s
        metrics["setup.inputs_s"] = inputs_s
        metrics["op_fail_ratio"] = failed / attempted
        rec, rec_run_s = recorder_kept
        details["accounting"] = accounting_lines(rec, rec_run_s)
        requested = traced[0]["requested"]
        seen = rec.counters["verifier.checks_outside_sweep"]
        details["coverage"] = {"checks_requested": requested, "checks_seen": seen}
        if seen != requested:
            print(f"trace coverage: {seen:g} of {requested} requested checks were traced",
                  file=sys.stderr)
        os.makedirs(OUT, exist_ok=True)
        rec.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        metrics = {
            "setup_s": import_s + inputs_s,
            "run_s": run_s,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, details


def units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args, sf, in_process_import_s) -> dict:
    """Time the set-up several times, measure, and return the result line."""
    import workloads

    imports = import_times(SETUP_REPEATS)
    import_s = statistics.median(imports)

    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    timings, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cleanup()
        started = clock()
        workload = workloads.build(args.workload, sf, args.seed, args.tiny, workdir)
        timings.append(clock() - started)
    inputs_s = statistics.median(timings)
    try:
        result, details = measure(args, sf, workload, import_s, inputs_s)
    finally:
        workload.cleanup()
    unit_of = units()
    result["metrics"] = {name: {"value": value, "unit": unit_of[name]}
                         for name, value in result["metrics"].items()}
    details["env"] = environment(args.seed)
    details["setup"] = {"import_s": import_s, "import_s_each": imports,
                        "in_process_import_s": in_process_import_s,
                        "inputs_s": inputs_s, "inputs_s_each": timings}
    for line in details.pop("accounting", []):
        print(line)
    tail_info = details["op_tail"]
    print(f"op_tail_ms is p{tail_info['percentile']:.2f} over {tail_info['ops']} operations")
    print("details: " + json.dumps(details, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump({"details": details, "result": result}, handle, indent=1, sort_keys=True)
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sf, import_s = import_package()
    result = run(args, sf, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
