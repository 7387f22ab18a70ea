"""The three seeded workloads: inputs, operations and correctness gates.

Every workload turns a seed into inputs before any timing starts and then
exposes one pass as a list of operations.  An operation has a ``call``
(the program work that is timed) and a ``check`` (the gate, untimed) that
compares the result with an answer known by construction:

* a threshold (priority-with-personal-prices) mechanism passes IR, IC, SIC
  and ESIC on every grid;
* first price fails IC; second price passes IC and fails SIC; both price
  rules are efficient and, with their lowest-index tie-break, not
  anonymous; the all-infinite threshold (null) mechanism is both;
* every failure carries a witness that replays: through
  ``verifier.confirm_witness`` for single-item reports, and by
  re-evaluating the allocator for multi-item reports;
* the characterization sweep yields the pinned counts in ``PINNED``.

The seed only changes values (threshold pools, grid levels, parameters,
order of the CLI stream), never the shape of the work: grid widths,
family sizes and operation mixes are fixed, so the work per pass stays
the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

INF = math.inf

# Pinned sweep counts for characterization_experiment at n=2, keyed by the
# number of grid levels.  The counts depend only on the order of the
# levels, so they hold for every strictly increasing grid of that width.
# * 3 levels: 594 IR+IC tables (19683 candidates), 70 SIC = 70 threshold
#   form, 1 anonymous, 1 efficient.  Pinned independently of this
#   benchmark by tests/test_acceptance.py criteria 02, 03 and 05.
# * 4 levels: 19246 IR+IC tables (43046721 candidates), 246 SIC = 246
#   threshold form, 1 anonymous, 1 efficient.  Measured with
#   characterization_experiment at the repository's first commit on
#   {0,1,2,3} and on seeded rational grids (ROADMAP open item 1 table);
#   the equality of the SIC and threshold-form counts and the single
#   anonymous/efficient (null) mechanism are the paper's claims.
PINNED = {
    3: {"total_candidates": 3**9, "ir_ic_count": 594, "sic_count": 70,
        "threshold_form_count": 70, "anonymous_sic_count": 1, "efficient_sic_count": 1},
    4: {"total_candidates": 3**16, "ir_ic_count": 19246, "sic_count": 246,
        "threshold_form_count": 246, "anonymous_sic_count": 1, "efficient_sic_count": 1},
}

SINGLE_PROPS = ("ir", "ic", "sic", "esic")
# Verdicts known by construction, by mechanism family and property.
EXPECTED = {
    "threshold": {"ir": True, "ic": True, "sic": True, "esic": True},
    "null": {"ir": True, "ic": True, "sic": True, "esic": True,
             "anonymous": True, "efficient": True},
    "first_price": {"ir": True, "ic": False, "sic": False, "esic": False,
                    "anonymous": False, "efficient": True},
    "second_price": {"ir": True, "ic": True, "sic": False, "esic": False,
                     "anonymous": False, "efficient": True},
}
PROPERTY_NAMES = {"ir": "IR", "ic": "IC", "sic": "SIC", "esic": "ESIC",
                  "anonymous": "ANON", "efficient": "EFF"}


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    checks_requested: int = 0


@dataclass
class Workload:
    ops: list
    describe: dict
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------- inputs


def distinct_rationals(rng: random.Random, count: int, low: Fraction, high: Fraction,
                       avoid=()) -> list[Fraction]:
    """``count`` distinct rationals in [low, high], none of them in ``avoid``.

    Draws are rejected until the set is large enough, so the caller always
    gets exactly ``count`` distinct values (a naive draw can repeat one).
    """
    taken = set(avoid)
    out: list[Fraction] = []
    while len(out) < count:
        den = rng.randint(1, 6)
        num = rng.randint(math.ceil(low * den), math.floor(high * den))
        value = Fraction(num, den)
        if value not in taken:
            taken.add(value)
            out.append(value)
    return sorted(out)


def closure_levels(thresholds, base=()) -> set:
    """Witness levels for the thresholds, computed without the package."""
    finite = sorted({t for t in thresholds if t != INF})
    criticals = sorted({Fraction(0), *finite})
    levels = {Fraction(0), *finite, *base}
    levels.update((a + b) / 2 for a, b in zip(criticals, criticals[1:]))
    if finite:
        levels.add(finite[-1] + Fraction(1, 2))
    return levels


def witness_levels(rng: random.Random, thresholds, width: int) -> list[Fraction]:
    """The closure of the thresholds plus seeded base levels, exactly ``width`` wide."""
    levels = closure_levels(thresholds)
    if len(levels) > width:
        raise ValueError(f"closure of {thresholds} is wider than {width}")
    top = max(levels) + 1
    extra = distinct_rationals(rng, width - len(levels), Fraction(1, 6), top, avoid=levels)
    grid = sorted(levels | set(extra))
    if len(grid) != width:
        raise AssertionError("witness grid lost a level")
    return grid


def threshold_rule(ranking, thresholds, rule_allocates_at_boundary, bids):
    """Reference priority-with-personal-prices outcome: (winner code, payments)."""
    n = len(bids)
    meets = [i for i in range(n) if bids[i] >= thresholds[i]]
    zero = [Fraction(0)] * n
    if not meets:
        return 0, zero
    exceeds = any(bids[i] > thresholds[i] for i in meets)
    if not exceeds and not rule_allocates_at_boundary:
        return 0, zero
    winner = min(meets, key=lambda i: ranking[i])
    zero[winner] = thresholds[winner]
    return winner + 1, zero


def render(value) -> str:
    if value == INF:
        return "inf"
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def bundle_key(mask: int, items: int) -> str:
    return "".join("1" if (mask >> k) & 1 else "0" for k in range(items))


# ------------------------------------------------------------ posted-price

# Spec slots: a threshold shape (indices into the pool 0, r1, r2, inf) and
# the width of its seeded witness grid.  At n=3 each slot is crossed with
# every ranking and both boundary rules, after one seeded relabeling of
# the agents' thresholds; crossing with all rankings makes the slot's work
# the same for every relabeling.  At n=4 the seed relabels ranking and
# thresholds together, which leaves the work unchanged as well.
N3_SLOTS = (((0, 3, 3), 4), ((0, 0, 3), 5), ((1, 3, 3), 4), ((0, 2, 3), 5),
            ((1, 1, 0), 6), ((2, 3, 0), 4), ((1, 2, 3), 6), ((0, 1, 2), 7))
N4_SLOTS = (((1, 3, 3, 0), 4), ((0, 2, 3, 3), 4), ((1, 1, 3, 0), 5), ((1, 2, 3, 3), 6))
N2_WIDTHS = (4, 5, 6, 7, 8)


def _relabel(rng: random.Random, values: tuple) -> tuple:
    """``values`` with the agents permuted by a seeded permutation."""
    order = rng.sample(range(len(values)), len(values))
    return tuple(values[order[i]] for i in range(len(values)))


def build_posted_price(sf: dict, seed: int, tiny: bool) -> Workload:
    mech, verifier, core = sf["mechanisms"], sf["verifier"], sf["core"]
    rng = random.Random(seed)
    r1, r2 = distinct_rationals(rng, 2, Fraction(1, 2), Fraction(4))
    pool = (Fraction(0), r1, r2, INF)
    rules = tuple(mech.BoundaryRule)
    cases = []  # (family, n, mechanism, grid levels)

    def add_spec(ranking, thresholds, rule, width):
        levels = witness_levels(rng, thresholds, width)
        cases.append(("threshold", len(ranking),
                      mech.ThresholdSpec(ranking, thresholds, rule), levels))

    for k, (thresholds, ranking, rule) in enumerate(itertools.product(
            itertools.product(pool, repeat=2), itertools.permutations((1, 2)), rules)):
        if tiny and k % 8:
            continue
        width = N2_WIDTHS[k % len(N2_WIDTHS)]
        add_spec(ranking, thresholds, rule, max(width, len(closure_levels(thresholds))))

    for shape, width in N3_SLOTS[:3] if tiny else N3_SLOTS:
        thresholds = _relabel(rng, tuple(pool[i] for i in shape))
        for ranking, rule in itertools.product(itertools.permutations((1, 2, 3)), rules):
            add_spec(ranking, thresholds, rule, width)
            if tiny:
                break

    for k, (shape, width) in enumerate(N4_SLOTS[:1] if tiny else N4_SLOTS):
        order = rng.sample(range(4), 4)
        ranking = tuple(1 + order.index(i) for i in range(4))
        thresholds = tuple(pool[shape[order.index(i)]] for i in range(4))
        add_spec(ranking, thresholds, rules[k % 2], width)

    price_widths = {2: (6, 8), 3: (5, 6), 4: (4, 5)}
    for n, widths in price_widths.items():
        for width in (widths[:1] if tiny else widths):
            levels = witness_levels(rng, (rng.choice((r1, r2)),), width)
            cases.append(("first_price", n, mech.FirstPriceMechanism(n), levels))
            cases.append(("second_price", n, mech.SecondPriceMechanism(n), levels))

    ops = []
    for family, n, mechanism, levels in cases:
        grid = core.Grid(levels)
        if len(grid) != len(levels):
            raise AssertionError("grid lost a level")
        ops.append(Op(f"{family}/n{n}", _verify_call(verifier, mechanism, grid),
                      _verify_check(verifier, mechanism, EXPECTED[family]),
                      checks_requested=len(SINGLE_PROPS)))
    describe = {
        "pool": [render(t) for t in pool],
        "mechanisms": len(ops),
        "by_kind": _count_kinds(ops),
        "grid_widths": sorted({len(levels) for *_, levels in cases}),
    }
    return Workload(ops, describe)


def _verify_call(verifier, mechanism, grid):
    def call():
        return {prop: getattr(verifier, f"check_{prop}")(mechanism, grid) for prop in SINGLE_PROPS}
    return call


def _verify_check(verifier, mechanism, expected):
    def check(reports) -> bool:
        for prop, report in reports.items():
            if report.passed != expected[prop]:
                return False
            if not report.passed and not verifier.confirm_witness(mechanism, report):
                return False
        return True
    return check


def _count_kinds(ops) -> dict:
    return dict(Counter(op.kind for op in ops))


# -------------------------------------------------------- characterization


def build_characterization(sf: dict, seed: int, tiny: bool) -> Workload:
    verifier, core = sf["verifier"], sf["core"]
    rng = random.Random(seed)
    width = 3 if tiny else 4
    levels = distinct_rationals(rng, width, Fraction(0), Fraction(4))
    grid = core.Grid(levels)
    if len(grid) != width:
        raise AssertionError("grid lost a level")
    pinned = PINNED[width]

    def call():
        return verifier.characterization_experiment(grid, 2)

    def check(summary) -> bool:
        return all(getattr(summary, key) == value for key, value in pinned.items())

    op = Op(f"sweep/{width}-level", call, check)
    return Workload([op], {"grid": [render(x) for x in levels], "pinned": pinned})


# ----------------------------------------------------------------- cli-mix


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_witness(reports_mod, data):
    def money_tuple(values):
        return None if values is None else tuple(Fraction(v) for v in values)

    return reports_mod.Witness(
        profile=money_tuple(data["profile"]),
        deviation_profile=money_tuple(data["deviation_profile"]),
        agent=None if data["agent"] is None else data["agent"] - 1,
        deviation=None if data["deviation"] is None else Fraction(data["deviation"]),
        permutation=None if data["permutation"] is None
        else tuple(p - 1 for p in data["permutation"]),
        utilities_before=money_tuple(data["utilities_before"]),
        utilities_after=money_tuple(data["utilities_after"]),
        note=data["note"],
    )


def _cli_verify_check(sf, mechanism, expected, props):
    verifier, reports_mod = sf["verifier"], sf["reports"]
    exit_code = 0 if all(expected[p] for p in props) else 1

    def check(result) -> bool:
        code, out, _ = result
        if code != exit_code:
            return False
        reports = json.loads(out)["results"]["reports"]
        if [r["property"] for r in reports] != [PROPERTY_NAMES[p] for p in props]:
            return False
        for prop, data in zip(props, reports):
            if data["passed"] != expected[prop]:
                return False
            if not data["passed"]:
                report = reports_mod.PropertyReport(
                    reports_mod.Property(data["property"]), False,
                    _parse_witness(reports_mod, data["witness"]), data["checked_count"])
                if not verifier.confirm_witness(mechanism, report):
                    return False
        return True
    return check


def _multi_replay(sf, allocate, data) -> bool:
    """Re-evaluate a multi-item witness with the allocator and recheck its clause."""
    multiitem = sf["multiitem"]

    def valuation(d):
        return multiitem.BundleValuation(d["item_count"], tuple(Fraction(v) for v in d["values"]))

    truth = tuple(valuation(d) for d in data["witness"]["profile"])
    deviated = tuple(valuation(d) for d in data["witness"]["deviation_profile"])
    i = data["witness"]["agent"] - 1

    def utilities(out):
        return [truth[j].values[out.bundles[j]] - out.payments[j] for j in range(len(truth))]

    before, after = utilities(allocate(truth)), utilities(allocate(deviated))
    if [Fraction(u) for u in data["witness"]["utilities_before"]] != before:
        return False
    if [Fraction(u) for u in data["witness"]["utilities_after"]] != after:
        return False
    if after[i] > before[i]:
        return True
    others = [j for j in range(len(truth)) if j != i]
    return (data["property"] == "SIC" and after[i] == before[i]
            and any(after[j] < before[j] for j in others)
            and all(after[j] <= before[j] for j in others))


def _cli_multi_check(sf, allocate, expected):
    exit_code = 0 if all(expected.values()) else 1

    def check(result) -> bool:
        code, out, _ = result
        if code != exit_code:
            return False
        reports = json.loads(out)["results"]["reports"]
        if [r["property"] for r in reports] != list(expected):
            return False
        for data in reports:
            if data["passed"] != expected[data["property"]]:
                return False
            if not data["passed"] and not _multi_replay(sf, allocate, data):
                return False
        return True
    return check


def _enumerate_check(pinned):
    def check(result) -> bool:
        code, out, _ = result
        summary = json.loads(out)["results"]["summary"]
        return code == 0 and all(summary[k] == v for k, v in pinned.items())
    return check


def _optimal_reference(n, exact=True):
    """Optimal down-the-line prices and revenue, by the recursion.

    Exact rationals when ``exact``; binary floats otherwise, because the
    exact denominators double in length with every agent.
    """
    t = [Fraction(1, 2) if exact else 0.5]
    for _ in range(n - 1):
        t.append((1 + t[-1] * t[-1]) / 2)
    gamma = (1 - t[0]) * t[0]
    for x in t[1:]:
        gamma = (1 - x) * x + x * gamma
    return t, gamma


def _thresholds_check(n, exact_limit=16):
    t_ref, gamma_ref = _optimal_reference(n, exact=n <= exact_limit)

    def check(result) -> bool:
        code, out, _ = result
        results = json.loads(out)["results"]
        if code != 0 or results["exact"] != (n <= exact_limit):
            return False
        values = results["values_last_to_first"]
        if len(values) != n:
            return False
        if results["exact"]:
            return (values == [render(x) for x in t_ref]
                    and results["expected_revenue"] == render(gamma_ref))
        decimals = [float(x) for x in results["values_decimal_last_to_first"]]
        return (all(abs(a - float(b)) < 1e-9 for a, b in zip(decimals, t_ref))
                and abs(float(results["expected_revenue_decimal"]) - float(gamma_ref)) < 1e-9)
    return check


def _revenue_check(n, samples, tolerance=0.005):
    _, gamma = _optimal_reference(n)

    def check(result) -> bool:
        code, out, _ = result
        results = json.loads(out)["results"]
        estimate = results["estimate"]
        return (code == 0 and estimate["samples"] == samples
                and abs(estimate["mean"] - float(gamma)) < tolerance)
    return check


def _regions_check(prices, items, axis):
    def best(point):
        utility = {mask: sum((point[k] for k in range(items) if mask >> k & 1), Fraction(0))
                   - prices[mask] for mask in prices if prices[mask] != INF}
        top = max(utility.values())
        return sorted(bundle_key(m, items) for m, u in utility.items() if u == top)

    def check(result) -> bool:
        code, out, _ = result
        if code != 0:
            return False
        lattice = json.loads(out)["results"]["lattice"]
        points = list(itertools.product(axis, repeat=items))
        if len(lattice) != len(points):
            return False
        for entry in lattice:
            point = tuple(Fraction(x) for x in entry["point"])
            if entry["bundles"] != best(point):
                return False
        return True
    return check


def build_cli_mix(sf: dict, seed: int, tiny: bool, workdir: str) -> Workload:
    cli, mech, multiitem = sf["cli"], sf["mechanisms"], sf["multiitem"]
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []

    def write(name, text):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def add(kind, argv, check, checks_requested=0):
        ops.append(Op(kind, lambda: _run_cli(cli, argv), check, checks_requested))

    # verify: passing threshold specs on the closure of their thresholds.
    # Shapes index the pool (three seeded rationals, then inf); the seed
    # relabels ranking and thresholds together, which keeps the work fixed.
    pool = distinct_rationals(rng, 3, Fraction(1, 2), Fraction(4)) + [INF]
    rules = list(mech.BoundaryRule)
    shapes = ((0, 1), (2, 3), (0, 1, 2), (0, 0, 3), (2, 3, 1), (1, 3))
    for k, shape in enumerate(shapes[:2] if tiny else shapes):
        n = len(shape)
        order = rng.sample(range(n), n)
        ranking = tuple(1 + order.index(i) for i in range(n))
        thresholds = tuple(pool[shape[order.index(i)]] for i in range(n))
        rule = rules[k % 2]
        path = write(f"threshold{k}.spec",
                     f"kind: threshold\nranking: {','.join(map(str, ranking))}\n"
                     f"thresholds: {','.join(render(t) for t in thresholds)}\n"
                     f"boundary_rule: {rule.value}\n")
        spec = mech.ThresholdSpec(ranking, thresholds, rule)
        add("verify/threshold", ["verify", "--spec", path],
            _cli_verify_check(sf, spec, EXPECTED["threshold"], SINGLE_PROPS), 4)

    # verify: the null mechanism, anonymous and efficient on an explicit grid
    null_grid = distinct_rationals(rng, 4, Fraction(0), Fraction(4))
    path = write("null.spec", "kind: threshold\nranking: 2,1\nthresholds: inf,inf\n")
    props = ("ir", "anonymous", "efficient")
    add("verify/null", ["verify", "--spec", path, "--grid", ",".join(map(render, null_grid)),
                        "--props", ",".join(props)],
        _cli_verify_check(sf, mech.ThresholdSpec((2, 1), (INF, INF)), EXPECTED["null"], props), 3)

    # verify: failing price benchmarks, with every failure replayed
    props = ("ir", "ic", "sic", "esic", "anonymous", "efficient")
    for family, factory in (("first_price", mech.FirstPriceMechanism),
                            ("second_price", mech.SecondPriceMechanism)):
        for n, width in ((2, 6), (3, 5))[: 1 if tiny else 2]:
            levels = distinct_rationals(rng, width - 1, Fraction(1, 4), Fraction(4)) + [Fraction(0)]
            path = write(f"{family}{n}.spec", f"kind: {family}\nn: {n}\n")
            add(f"verify/{family}", ["verify", "--spec", path, "--grid",
                                     ",".join(map(render, sorted(levels))), "--props", ",".join(props)],
                _cli_verify_check(sf, factory(n), EXPECTED[family], props), len(props))

    # verify: a 216-row table file (n=3, 6 levels) tabulated from the reference rule
    table_levels = [Fraction(0)] + distinct_rationals(rng, 5, Fraction(1, 4), Fraction(4))
    table_ranking = rng.sample(range(1, 4), 3)
    table_thresholds = [rng.choice(table_levels[1:]), rng.choice(table_levels[1:]), INF]
    rng.shuffle(table_thresholds)
    at_boundary = rng.random() < 0.5
    rows = []
    for bids in itertools.product(table_levels, repeat=3):
        winner, pays = threshold_rule(table_ranking, table_thresholds, at_boundary, bids)
        rows.append(f"row: {','.join(map(render, bids))} -> {winner} ; {','.join(map(render, pays))}")
    path = write("table.spec", "kind: table\ngrid: " + ",".join(map(render, table_levels))
                 + "\nn: 3\n" + "\n".join(rows) + "\n")
    table_spec = mech.ThresholdSpec(
        tuple(table_ranking), tuple(table_thresholds),
        mech.BoundaryRule.HIGHEST_RANK_AT_THRESHOLD if at_boundary else mech.BoundaryRule.NO_ALLOCATION)
    if not tiny:
        add("verify/table", ["verify", "--spec", path],
            _cli_verify_check(sf, table_spec, EXPECTED["threshold"], SINGLE_PROPS), 4)

    # enumerate: the 3-level sweep and its pinned counts
    for _ in range(1 if tiny else 2):
        levels = distinct_rationals(rng, 3, Fraction(0), Fraction(4))
        add("enumerate", ["enumerate", "--grid", ",".join(map(render, levels)), "--n", "2"],
            _enumerate_check(PINNED[3]))

    # thresholds: both sides of the exact-recursion limit of 16
    for n in (rng.randint(10, 12), rng.randint(17, 24)):
        add("thresholds", ["thresholds", "--n", str(n)], _thresholds_check(n))

    # revenue: 10^6 samples against the exact recursion
    samples = 10**4 if tiny else 10**6
    for n in (2,) if tiny else (2, 3):
        add("revenue", ["revenue", "--n", str(n), "--samples", str(samples),
                        "--seed", str(rng.randint(0, 10**6))], _revenue_check(n, samples))

    # regions: best-bundle lattices checked against a direct argmax
    half = Fraction(1, 2)
    for items, high in ((2, 4), (2, 4), (3, 3))[: 1 if tiny else 3]:
        prices = {0: Fraction(0)}
        for mask in range(1, 1 << items):
            prices[mask] = Fraction(rng.randint(1, 4 * bin(mask).count("1") * 2), 2)
        text = ",".join(f"{bundle_key(m, items)}={render(p)}" for m, p in prices.items() if m)
        axis = [k * half for k in range(2 * high + 1)]
        add("regions", ["regions", "--payments", text, "--box", f"0,{high}", "--step", "1/2"],
            _regions_check(prices, items, axis))

    # multi: the built-in homogeneous domain and three counterexample files
    ranking = rng.sample((1, 2), 2)
    seq_thresholds = (rng.randint(1, 3), rng.randint(1, 3))
    path = write("sequential.spec",
                 f"kind: sequential\nitems: 3\nranking: {ranking[0]},{ranking[1]}\n"
                 f"thresholds: {seq_thresholds[0]},{seq_thresholds[1]}\n")
    add("multi/sequential-builtin",
        ["multi", "--spec", path, "--max-marginal", "2" if tiny else "3"],
        _cli_multi_check(sf, None, {"IR": True, "IC": True, "SIC": True}))

    eps = Fraction(rng.randint(1, 5), rng.randint(2, 6))
    scale = Fraction(rng.randint(1, 3))
    one, two = scale, 2 * scale
    cluster = multiitem.ClusterSpec(item_count=2, ranking=(1, 2),
                                    thresholds=((0, one, one, two), (0, one, one, two)))
    path = write("cluster.spec", "\n".join([
        "kind: cluster", "items: 2", "ranking: 1,2",
        f"thresholds[1]: 10={render(one)}, 01={render(one)}, 11={render(two)}",
        f"thresholds[2]: 10={render(one)}, 01={render(one)}, 11={render(two)}",
        f"candidate[1]: 10={render(one)}, 01={render(one)}",
        f"candidate[1]: 01={render(one)}",
        f"candidate[2]: 01={render(one + eps)}, 11={render(one + eps)}"]) + "\n")
    add("multi/cluster", ["multi", "--spec", path],
        _cli_multi_check(sf, lambda bids, s=cluster: multiitem.cluster_allocate(s, bids),
                         {"IR": True, "IC": True, "SIC": False}))

    sequential = multiitem.SequentialSpec(ranking=(1,), thresholds=(one,))
    seq_alloc = lambda bids, s=sequential: multiitem.sequential_allocate_general(s, bids)
    counterexamples = {
        "bundle": (f"11={render(two + eps)}", f"10={render(one + eps)}, 11={render(two + eps)}"),
        "ordering": (f"10={render(one)}, 01={render(one + eps)}", f"01={render(one + eps)}"),
    }
    for name, (truth, misreport) in counterexamples.items():
        path = write(f"sequential-{name}.spec", "\n".join([
            "kind: sequential", "items: 2", "ranking: 1", f"thresholds: {render(one)}",
            f"candidate[1]: {truth}", f"candidate[1]: {misreport}"]) + "\n")
        add(f"multi/sequential-{name}", ["multi", "--spec", path],
            _cli_multi_check(sf, seq_alloc, {"IR": True, "IC": False, "SIC": False}))

    rng.shuffle(ops)
    describe = {"ops": len(ops), "by_kind": _count_kinds(ops)}
    return Workload(ops, describe, cleanup=lambda: shutil.rmtree(workdir, True))


WORKLOADS = ("posted-price", "characterization", "cli-mix")


def build(name: str, sf: dict, seed: int, tiny: bool, workdir: str) -> Workload:
    if name == "posted-price":
        return build_posted_price(sf, seed, tiny)
    if name == "characterization":
        return build_characterization(sf, seed, tiny)
    if name == "cli-mix":
        return build_cli_mix(sf, seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r} (expected one of: {', '.join(WORKLOADS)})")
