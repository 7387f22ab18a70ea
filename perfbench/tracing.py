"""In-memory spans around the public functions of each spitefree layer.

A traced pass replaces module attributes with thin wrappers that open a
span (name, start, end, parent) on entry and close it on exit.  Spans are
kept in flat arrays while the pass runs and written out once at the end.
Self time is a span's duration minus the time its child spans cover; it
is accumulated per span name as spans close, so the per-layer figures need
no second walk over the spans.

Wrappers sit where callers look a name up at call time: module globals
(``verifier.check_sic`` as ``characterization_experiment`` finds it), the
names ``spitefree.cli`` imported, class attributes such as
``MechanismTable.__post_init__``, and the entries of ``cli._SIMPLE_CHECKS``.
A reference bound somewhere else at import time is not caught, which is
why the benchmark checks coverage by counts: the checks traced outside a
characterization sweep must equal the checks it requested.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict

clock = time.perf_counter


class Recorder:
    """Span store plus per-name aggregates (calls, total, self time)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.counters: dict[str, float] = defaultdict(float)
        self.sweeps_open = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, nid: int) -> list:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        frame = [index, 0.0]
        self._stack.append(frame)
        self.start.append(clock())
        return frame

    def exit(self, frame: list) -> None:
        stop = clock()
        index = frame[0]
        self.end[index] = stop
        duration = stop - self.start[index]
        self._stack.pop()
        name = self.names[self.name_of[index]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_s += duration

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write every span as JSON lines: name, start, end, parent index."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "columns": ["name", "start_s", "end_s", "parent"]}) + "\n")
            for k in range(len(self.start)):
                handle.write(
                    f"[{self.name_of[k]},{self.start[k] - base:.9f},"
                    f"{self.end[k] - base:.9f},{self.parent[k]}]\n"
                )


def _wrap(fn, name: str, rec: Recorder, on_result=None):
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        frame = rec.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if on_result is not None:
            on_result(result, args)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_generator(fn, name: str, rec: Recorder, counter: str):
    """Time each ``next()`` of a generator function as its own span."""
    nid = rec.name_id(name)

    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            frame = rec.enter(nid)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.exit(frame)
            rec.count(counter)
            yield item

    traced.__wrapped__ = fn
    return traced


def _wrap_counter(fn, rec: Recorder, counter: str):
    """Count calls without a span, for calls too small to time."""

    def counted(*args, **kwargs):
        rec.count(counter)
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


def _checked(prefix: str, deviations: bool, rec: Recorder):
    def on_result(report, args) -> None:
        rec.count(prefix + ".checks")
        if not rec.sweeps_open:
            rec.count(prefix + ".checks_outside_sweep")
        if deviations:
            rec.count(prefix + ".deviations", report.checked_count)

    return on_result


def install(sf: dict, rec: Recorder) -> Patches:
    """Wrap the public functions of every layer; returns the undo log.

    ``sf`` maps short module names (``verifier``, ``cli``, ...) to the
    imported spitefree modules.  Optional private hooks are looked up with
    a default so the traced run keeps working when they are refactored
    away; their metrics then read zero.
    """
    verifier, mechanisms, core = sf["verifier"], sf["mechanisms"], sf["core"]
    multiitem, optimal, cli = sf["multiitem"], sf["optimal"], sf["cli"]
    patches = Patches()
    wrapped: dict = {}

    def wrap_once(fn, name, on_result=None):
        if fn not in wrapped:
            wrapped[fn] = _wrap(fn, name, rec, on_result)
        return wrapped[fn]

    def patch(module, attr, name, on_result=None):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        patches.set(module, attr, wrap_once(fn, name, on_result))

    checks = {
        "check_ir": ("verifier.ir", False),
        "check_ic": ("verifier.ic", True),
        "check_sic": ("verifier.sic", True),
        "check_esic": ("verifier.esic", True),
        "check_anonymous": ("verifier.anon", False),
        "check_efficient": ("verifier.eff", False),
    }
    for attr, (name, deviations) in checks.items():
        hook = _checked("verifier", deviations, rec)
        patch(verifier, attr, name, hook)
        patch(cli, attr, name, hook)
    simple = getattr(cli, "_SIMPLE_CHECKS", {})
    for key, fn in list(simple.items()):
        if fn in wrapped:
            patches.set(simple, key, wrapped[fn])

    def on_confirm(ok, args) -> None:
        rec.count("verifier.confirm_calls")
        rec.count("verifier.confirmed", 1 if ok else 0)

    patch(verifier, "confirm_witness", "verifier.confirm", on_confirm)
    walk = getattr(verifier, "enumerate_ir_ic_mechanisms", None)
    if walk is not None:
        patches.set(
            verifier,
            "enumerate_ir_ic_mechanisms",
            _wrap_generator(walk, "verifier.walk", rec, "verifier.tables_yielded"),
        )
    sweep = getattr(verifier, "characterization_experiment", None)
    if sweep is not None:
        traced_sweep = _wrap(sweep, "verifier.sweep", rec)

        def scoped_sweep(*args, **kwargs):
            rec.sweeps_open += 1
            try:
                return traced_sweep(*args, **kwargs)
            finally:
                rec.sweeps_open -= 1

        for module in (verifier, cli):
            if getattr(module, "characterization_experiment", None) is sweep:
                patches.set(module, "characterization_experiment", scoped_sweep)
    patch(verifier, "_tabulation", "mechanisms.tabulate")

    for attr in ("threshold_outcome", "first_price_outcome", "second_price_outcome"):
        patch(mechanisms, attr, "mechanisms.outcome")
    patch(mechanisms, "tabulate", "mechanisms.tabulate")

    def on_recognize(spec, args) -> None:
        rec.count("mechanisms.recognize_calls")
        rec.count("mechanisms.recognized", 0 if spec is None else 1)

    for module in (mechanisms, verifier):
        patch(module, "recognize_threshold_form", "mechanisms.recognize", on_recognize)

    table_cls = core.MechanismTable
    if "__post_init__" in table_cls.__dict__:
        patches.set(
            table_cls,
            "__post_init__",
            _wrap(table_cls.__dict__["__post_init__"], "core.table_validate", rec),
        )
    for module in (core, verifier, cli):
        patch(module, "closure_for_thresholds", "core.closure")

    multi_checks = {
        "check_multi_ir": ("multiitem.ir", False),
        "check_multi_ic": ("multiitem.ic", True),
        "check_multi_sic": ("multiitem.sic", True),
    }
    for attr, (name, deviations) in multi_checks.items():
        hook = _checked("multiitem", deviations, rec)
        patch(multiitem, attr, name, hook)
        patch(cli, attr, name, hook)
    for attr in ("sequential_allocate_hs", "sequential_allocate_general", "cluster_allocate"):
        patch(cli, attr, "multiitem.allocate")
    evaluator = getattr(multiitem, "_Evaluator", None)
    if evaluator is not None and "__call__" in evaluator.__dict__:
        patches.set(
            evaluator,
            "__call__",
            _wrap_counter(evaluator.__dict__["__call__"], rec, "multiitem.evaluations"),
        )
    patch(cli, "classify_point", "multiitem.classify")
    patch(cli, "region_partition", "multiitem.regions")

    for module in (optimal, cli):
        patch(module, "optimal_thresholds_uniform", "optimal.thresholds")
    patch(cli, "expected_revenue_recursive", "optimal.recursion")

    def on_monte_carlo(estimate, args) -> None:
        rec.count("optimal.mc_samples", estimate.samples)

    patch(cli, "monte_carlo_revenue", "optimal.mc", on_monte_carlo)

    patch(cli, "load_spec", "specfile.load")
    patch(cli, "main", "cli.main")
    for command in ("verify", "enumerate", "thresholds", "revenue", "regions", "multi"):
        patch(cli, f"cmd_{command}", f"cli.{command}")
    return patches
