"""Command-line front end.

Commands: verify, enumerate, thresholds, revenue, regions, multi.  Every
run emits one report (JSON or indented text) carrying the tool version,
an echo of the effective configuration (including the normalized
mechanism description, so reports replay without the input file), the
results, and the wall time.  Only `revenue` draws random numbers, so
only it takes ``--seed``; the others refuse it.  Exit codes are a stable
contract: 0 all requested properties hold, 1 a property failed or an
assertion tripped, 2 bad input (an empty ``--props`` list among it, or
a `regions` price list that leaves a bundle out), 3 the input's size,
estimated or counted before any work, is over a cap: for `verify` the
L^n x n x (1 + n(L - 1)) payoff reads of the deviation checks on L
levels against `MAX_PAYOFF_READS` when ic, sic or esic is asked for,
with ``payments`` the L^n x n x (L - 1) / 2 bid pairs the payment checks
compare against the same cap, with ``anonymous`` the
L^n x (n! - 1) relabeled profiles against the sweep's million, and the
L^n x n tabulated amounts against `MAX_TABULATED_AMOUNTS`, for
`enumerate` a grid of more than 512 profiles, anonymity checks of more
than a million relabeled profiles, or more IR+IC tables than
``--budget``, counted exactly before the sweep walks any (see
`verifier.characterization_experiment`), for `thresholds` the report
bytes `MAX_THRESHOLDS_REPORT_BYTES`, for `revenue` the agents
`MAX_REVENUE_AGENTS` and the n x samples uniform draws
`MAX_SAMPLE_DRAWS` (between the two it refuses a ``--samples`` below 1,
exit 2, so that error too comes before the recursion runs), for
`regions` `MAX_LATTICE_POINTS`, `MAX_LATTICE_CLASSIFICATIONS` (points x
attainable bundles) and `multiitem.MAX_REGION_INEQUALITIES`, for `multi`
`MAX_PAYOFF_READS` on the built-in domain and, for any multi-item spec
file, `specfile.MAX_BUNDLE_TABLE_ENTRIES`.  A `verify` run sizes a
single-item spec file by its n before the file's n-long lists are read,
with or without ``--grid``: on ``--grid``, else on a table's own grid,
else on the one level a threshold file's closure has at least.  A `multi`
run sizes a sequential file without candidates the same way, on the
built-in domain, by its n and its item count.  So a file over a cap exits
3 even if those lists are malformed.  Every report's config ends with the
output format, which `main` adds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from . import __version__, verifier
from .core import DomainMismatchError, Grid, MechanismTable, closure_for_thresholds
from .money import is_infinite, parse_amounts, parse_ext_money, parse_money, render_ext_money
from .multiitem import (
    check_multi_esic,
    check_multi_ic,
    check_multi_ir,
    check_multi_sic,
    classify_lattice,
    cluster_allocate,
    marginal_vector_count,
    nonincreasing_marginal_vectors,
    parse_bundle_amounts,
    region_partition,
    render_bundle_key,
    sequential_allocate_general,
)
from .optimal import (
    expected_revenue_recursive,
    monte_carlo_revenue,
    optimal_thresholds_uniform,
)
from .reports import Witness
from .specfile import MULTI_ITEM_KINDS, SINGLE_ITEM_KINDS, SpecFileError, load_spec
from .verifier import (
    BudgetExceededError,
    CharacterizationMismatchError,
    characterization_experiment,
    check_anonymous,
    check_efficient,
    check_esic,
    check_ic,
    check_ir,
    check_payment_structure,
    check_sic,
    check_winner_payment_constant,
)

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3

# Size caps, checked against an estimate before any work (exit 3 above).
# A `regions` lattice has one report entry per point; at the cap a run
# takes about 2.3 s and 170 MB and writes a 13 MB report.  Classifying it
# compares every point with every attainable bundle; near that cap the
# runs timed take about 3 s and 180 MB.  A `multi` run on the built-in
# domain reads every agent's payoff at every profile and at each
# single-agent deviation from it; at the cap the slowest runs timed take
# about 10 s.  A `verify` tabulation holds n bids and n payments per
# profile, about 300 bytes and 10 us per agent on a one-level grid; at
# that cap (2^20, where two levels at n = 16 also sit) a null spec
# checked for all but anonymity takes about 10.5 s and 315 MB, and for
# the default four checks about 7 s.  A `thresholds` report spends about
# 100 bytes per agent on three lists of 25-digit decimals (exact
# fractions, n <= 16, stay under 240 KB); at the cap a run takes 0.2 s
# and 24 MB.  A `revenue` run draws
# one uniform per agent per sample and keeps 16 bytes per sample plus one
# batch of draws; at the draw cap a run takes about 0.5 s and 189 MB
# (n = 1).  Its exact recursion and prices take one 61-digit decimal step
# per agent, whatever the samples; at the agent cap a run takes at most
# 4 s and 200 MB.  (2-core Xeon, Python 3.11.)  Region systems and spec
# files have caps of their own where they are built:
# `multiitem.MAX_REGION_INEQUALITIES`, `specfile.MAX_BUNDLE_TABLE_ENTRIES`.
MAX_LATTICE_POINTS = 100_000
MAX_LATTICE_CLASSIFICATIONS = 2_000_000
MAX_PAYOFF_READS = 20_000_000
MAX_TABULATED_AMOUNTS = 1 << 20
MAX_THRESHOLDS_REPORT_BYTES = 1_000_000
MAX_SAMPLE_DRAWS = 10_000_000
MAX_REVENUE_AGENTS = 1_000_000
_THRESHOLDS_BYTES_PER_AGENT = 100

_SIMPLE_CHECKS = {
    "ir": check_ir,
    "ic": check_ic,
    "sic": check_sic,
    "esic": check_esic,
    "anonymous": check_anonymous,
    "efficient": check_efficient,
    "winner_price": check_winner_payment_constant,
}
_PROP_NAMES = (*_SIMPLE_CHECKS, "payments")


def _jsonable(value):
    if isinstance(value, Fraction):
        return render_ext_money(value)
    if isinstance(value, float):
        return "inf" if is_infinite(value) else value
    if isinstance(value, Decimal):
        # 25 significant digits, correctly rounded, without trailing zeros;
        # the thresholds and revenues rendered here lie in [1/4, 1), so
        # the text always has a point and never an exponent
        return f"{value:.25g}".rstrip("0")
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Grid):
        return value.render()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        rendered = {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        # agents are numbered from 1 in everything a report shows
        if isinstance(value, Witness) and value.agent is not None:
            rendered["agent"] = value.agent + 1
        if isinstance(value, Witness) and value.permutation is not None:
            rendered["permutation"] = [p + 1 for p in value.permutation]
        return rendered
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _render_text(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, inner in value.items():
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(inner)}")
        return lines
    if isinstance(value, list):
        lines = []
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                head, *rest = _render_text(inner, indent + 1)
                lines.append(f"{pad}- {head.strip()}")
                lines.extend(rest)
            else:
                lines.append(f"{pad}- {_scalar_text(inner)}")
        return lines
    return [f"{pad}{_scalar_text(value)}"]


def _scalar_text(value) -> str:
    if value is None:
        return "~"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


def _parse_props(text: str | None, allowed, default):
    names = list(default) if text is None else list(parse_amounts(text, str.lower))
    if not names:
        raise SpecFileError(f"--props names no property (expected some of: {', '.join(allowed)})")
    for name in names:
        if name not in allowed:
            raise SpecFileError(
                f"unknown property {name!r} (expected one of: {', '.join(allowed)})"
            )
    return names


def _over_cap(estimate: str, cap: int) -> BudgetExceededError:
    """The refusal of an input whose ``estimate`` of its size is over ``cap`` (exit 3)."""
    return BudgetExceededError(f"{estimate}, over the cap of {cap}")


def _check_report(args, loaded, settings: dict, fields: dict, reports) -> tuple[dict, dict, int]:
    """The config, results and exit code of a `verify` or `multi` run.

    The config echoes the spec file and its normalized mechanism, then the
    command's ``settings``; the results put ``fields`` between the overall
    verdict and the reports.  Exit 0 when every report passed, 1 otherwise.
    """
    config = {"spec": args.spec, "mechanism": loaded.source.split("\n"), **settings}
    passed = all(r.passed for r in reports)
    results = {"all_passed": passed, **fields, "reports": [_jsonable(r) for r in reports]}
    return config, results, EXIT_OK if passed else EXIT_PROPERTY_FAIL


def cmd_verify(args) -> tuple[dict, dict, int]:
    def parsed_props():
        return _parse_props(args.props, _PROP_NAMES, ("ir", "ic", "sic", "esic"))

    def grid_for(kind: str, own: Grid | None) -> Grid | None:
        # --grid, else a table's own grid, else None for a threshold file's closure
        if args.grid:
            return Grid.from_text(args.grid)
        if own is None and kind != "threshold":
            raise SpecFileError(f"kind {kind!r} needs an explicit --grid")
        return own

    def check_agents(kind: str, n: int, domain) -> None:
        # a single-item file is sized before its n-long lists are read or its
        # mechanism built, a threshold file without --grid on the fewest
        # levels its closure can have (``domain``); an n below 1 is left to
        # the file's own error
        if n >= 1 and kind in SINGLE_ITEM_KINDS:
            grid = grid_for(kind, domain if isinstance(domain, Grid) else None)
            props = parsed_props()
            width = domain if grid is None else len(grid)
            _check_verify_size(n, width, props, at_least=grid is None)

    loaded = load_spec(args.spec, check_agents)
    if loaded.kind in MULTI_ITEM_KINDS:
        raise SpecFileError(
            f"kind {loaded.kind!r} is multi-item; use the 'multi' command"
        )
    mechanism = loaded.mechanism
    grid = grid_for(loaded.kind, mechanism.grid if isinstance(mechanism, MechanismTable) else None)
    if grid is None:
        grid = closure_for_thresholds(mechanism.thresholds)
    props = parsed_props()
    _check_verify_size(mechanism.n, len(grid), props)
    reports = []
    for name in props:
        if name == "payments":
            reports.extend(check_payment_structure(mechanism, grid))
        else:
            reports.append(_SIMPLE_CHECKS[name](mechanism, grid))
    settings = {"grid": grid.render(), "props": ",".join(props)}
    return _check_report(args, loaded, settings, {}, reports)


def _check_verify_size(n: int, width: int, props, at_least: bool = False) -> None:
    """Refuse, before any tabulation, a `verify` run of ``props`` over its caps.

    The deviation checks (ic, sic or esic) read `_payoff_reads` payoffs,
    as `multi` counts them; the payment checks compare `_bid_pairs` pairs
    of one agent's bids, at one Python step each like a payoff read, so
    under the same cap; anonymity reads each profile under all n! - 1
    relabelings, as the sweep counts them (`verifier._relabeling_reads`);
    and the tabulation holds n bids and n payments at each of the width^n
    profiles, whatever is asked for.  On a one-level grid the payoff reads
    are only n and the bid pairs none, so there the tabulated amounts are
    the cap that binds.  With ``at_least``, the grid has L >= width
    levels, L not yet known, and each count is the lower bound that width
    gives, so named.
    """
    w, step, equals = ("L", "(L - 1)", ">=") if at_least else (width, width - 1, "=")
    levels = f"a grid of L >= {width} levels" if at_least else f"a {width}-level grid"
    size = f"{levels} at n={_count_text(n)}"
    deviations = not {"ic", "sic", "esic"}.isdisjoint(props)
    reads = _payoff_reads(width, n)
    if deviations and (reads is None or reads > MAX_PAYOFF_READS):
        count = "" if reads is None else f" {equals} {_count_text(reads)}"
        raise _over_cap(
            f"the deviation checks on {size} read {w}^n x n x (1 + n x {step}){count} "
            "payoffs", MAX_PAYOFF_READS
        )
    pairs = _bid_pairs(width, n)
    if "payments" in props and (pairs is None or pairs > MAX_PAYOFF_READS):
        count = "" if pairs is None else f" {equals} {_count_text(pairs)}"
        raise _over_cap(
            f"the payment checks on {size} compare {w}^n x n x {step} / 2{count} "
            "bid pairs", MAX_PAYOFF_READS
        )
    if "anonymous" in props:
        cap = verifier._MAX_RELABELING_READS
        reads = verifier._relabeling_reads(width, n)
        if reads is None or reads > cap:
            count = "" if reads is None else f" {equals} {_count_text(reads)}"
            raise _over_cap(
                f"an anonymity check on {size} reads {w}^n x (n! - 1){count} "
                "relabeled profiles", cap
            )
    # two levels at n = 21 hold over the cap already, so width^n is taken below that
    over = width > 1 and n >= MAX_TABULATED_AMOUNTS.bit_length()
    amounts = None if over else width**n * n
    if amounts is None or amounts > MAX_TABULATED_AMOUNTS:
        count = "" if amounts is None else f" {equals} {_count_text(amounts)}"
        raise _over_cap(
            f"the tabulation on {size} holds {w}^n x n{count} profile amounts",
            MAX_TABULATED_AMOUNTS,
        )


def _payoff_reads(width: int, n: int) -> int | None:
    """The payoffs the deviation checks read on ``width`` values per agent.

    Every agent's payoff at each of the ``width^n`` profiles and at each of
    its n x (width - 1) single-agent deviations: width^n x n x (1 + n(width - 1)).
    None for two or more values at n >= 25, where the count is over
    `MAX_PAYOFF_READS` and can have too many digits to render quickly.
    """
    if width > 1 and n >= MAX_PAYOFF_READS.bit_length():
        return None
    return width**n * n * (1 + n * (width - 1))


def _bid_pairs(width: int, n: int) -> int | None:
    """The pairs of one agent's bids the payment checks compare on ``width`` levels.

    Each pair of her levels on each line, the others' bids fixed:
    n x width^(n-1) x C(width, 2) = width^n x n x (width - 1) / 2.  None
    where `_payoff_reads` is, the count being over `MAX_PAYOFF_READS`.
    """
    if width > 1 and n >= MAX_PAYOFF_READS.bit_length():
        return None
    return width**n * n * (width - 1) // 2


def cmd_enumerate(args) -> tuple[dict, dict, int]:
    if not args.grid:
        raise SpecFileError("enumerate needs --grid")
    if args.budget < 1:
        raise SpecFileError(f"--budget must be a positive number of tables, got {args.budget}")
    grid = Grid.from_text(args.grid)
    config = {"grid": grid.render(), "n": args.n, "budget": args.budget}
    try:
        summary = characterization_experiment(grid, args.n, max_tables=args.budget)
    except CharacterizationMismatchError as exc:
        return config, {"all_passed": False, "violation": str(exc)}, EXIT_PROPERTY_FAIL
    null_only = summary.anonymous_sic_count == 1 and summary.efficient_sic_count == 1
    results = {
        "all_passed": null_only,
        "summary": _jsonable(summary),
        "sic_equals_threshold_form": summary.sic_count == summary.threshold_form_count,
        "null_is_only_anonymous_sic": summary.anonymous_sic_count == 1,
        "null_is_only_efficient_sic": summary.efficient_sic_count == 1,
    }
    return config, results, EXIT_OK if null_only else EXIT_PROPERTY_FAIL


def cmd_thresholds(args) -> tuple[dict, dict, int]:
    estimate = args.n * _THRESHOLDS_BYTES_PER_AGENT
    if estimate > MAX_THRESHOLDS_REPORT_BYTES:
        raise _over_cap(
            f"a report for --n {_count_text(args.n)} holds about {_count_text(estimate)} "
            f"bytes ({_THRESHOLDS_BYTES_PER_AGENT} per agent)", MAX_THRESHOLDS_REPORT_BYTES
        )
    seq = optimal_thresholds_uniform(args.n)
    gamma = expected_revenue_recursive(args.n)
    results = {
        "exact": seq.exact,
        "values_last_to_first": [_jsonable(t) for t in seq.values],
        "values_in_line_order": [_jsonable(t) for t in seq.in_line_order()],
        "values_decimal_last_to_first": [f"{float(t):.12g}" for t in seq.values],
        "expected_revenue": _jsonable(gamma),
        "expected_revenue_decimal": f"{float(gamma):.12g}",
    }
    return {"n": args.n}, results, EXIT_OK


def cmd_revenue(args) -> tuple[dict, dict, int]:
    if args.n > MAX_REVENUE_AGENTS:
        raise BudgetExceededError(
            f"--n {_count_text(args.n)} agents, over the cap of {MAX_REVENUE_AGENTS} "
            "for the exact revenue recursion"
        )
    # an --n below 1 is left to the recursion's own error
    if args.n > 0 and args.samples < 1:
        raise SpecFileError("need at least one sample")
    draws = args.n * args.samples
    if args.n > 0 and draws > MAX_SAMPLE_DRAWS:
        raise _over_cap(
            f"--n {_count_text(args.n)} x --samples {_count_text(args.samples)} = "
            f"{_count_text(draws)} uniform draws", MAX_SAMPLE_DRAWS
        )
    seq = optimal_thresholds_uniform(args.n)
    gamma = expected_revenue_recursive(args.n)
    estimate = monte_carlo_revenue(seq, samples=args.samples, seed=args.seed)
    config = {"n": args.n, "samples": args.samples, "seed": args.seed}
    results = {
        "exact": _jsonable(gamma),
        "exact_decimal": f"{float(gamma):.12g}",
        "estimate": _jsonable(estimate),
        "abs_error": abs(estimate.mean - float(gamma)),
    }
    return config, results, EXIT_OK


def cmd_regions(args) -> tuple[dict, dict, int]:
    if not args.payments:
        raise SpecFileError("regions needs --payments")
    payments, item_count = parse_bundle_amounts(args.payments, parse_ext_money)
    if item_count is None:
        raise SpecFileError("no payments given")
    system = region_partition(payments, item_count)
    axis = _lattice_axis(args, system) if args.box or args.step else None
    config = {"payments": args.payments, "box": args.box, "step": args.step}
    bundles = []
    for mask, region in enumerate(system.regions):
        entry = {
            "bundle": render_bundle_key(mask, item_count),
            "payment": _jsonable(system.payments[mask]),
        }
        if region is None:
            entry["attainable"] = False
        else:
            entry["attainable"] = True
            entry["inequalities"] = [
                {
                    "text": ineq.render(),
                    "coefficients": list(ineq.coefficients),
                    "bound": _jsonable(ineq.bound),
                }
                for ineq in region
            ]
        bundles.append(entry)
    results = {"item_count": item_count, "regions": bundles}
    if axis is not None:
        rendered = {x: _jsonable(x) for x in axis}
        lattice = [
            {
                "point": [rendered[x] for x in point],
                "bundles": sorted(render_bundle_key(m, item_count) for m in best),
            }
            for point, best in classify_lattice(system, axis)
        ]
        results["lattice"] = lattice
    return config, results, EXIT_OK


def _lattice_axis(args, system) -> list:
    """The lattice's axis from ``--box`` and ``--step``, after its size caps."""
    if not (args.box and args.step):
        raise SpecFileError("a lattice needs both --box and --step")
    try:
        box = parse_amounts(args.box, parse_money)
    except ValueError as exc:
        raise SpecFileError(f"bad --box: {exc}") from None
    step = parse_money(args.step)
    if args.box.count(",") != 1 or len(box) != 2 or step == 0 or box[1] < box[0]:
        raise SpecFileError("--box must be 'low,high' with low <= high; --step > 0")
    low, high = box
    width = (high - low) // step + 1
    points = width**system.item_count
    if points > MAX_LATTICE_POINTS:
        raise _over_cap(
            f"the lattice has ({_count_text(width)} values per axis)^{system.item_count} = "
            f"{_count_text(points)} points", MAX_LATTICE_POINTS
        )
    attainable = sum(region is not None for region in system.regions)
    if points * attainable > MAX_LATTICE_CLASSIFICATIONS:
        raise _over_cap(
            f"classifying {points} lattice points against {attainable} attainable bundles "
            f"takes {points * attainable} comparisons", MAX_LATTICE_CLASSIFICATIONS
        )
    return [low + k * step for k in range(width)]


def _count_text(count: int) -> str:
    # str() refuses ints of more than 4 300 digits; Decimal renders any size
    return str(count) if count < 10**12 else f"{Decimal(count):.3e}"


def cmd_multi(args) -> tuple[dict, dict, int]:
    checks = {
        "ir": check_multi_ir,
        "ic": check_multi_ic,
        "sic": check_multi_sic,
        "esic": check_multi_esic,
    }

    def parsed_props():
        return _parse_props(args.props, checks, ("ir", "ic", "sic"))

    def check_agents(kind: str, n: int, items: int | None) -> None:
        # a sequential file without candidate lines is sized on the built-in
        # domain before its lists are read, after --props, whose error comes
        # first as it does for a file read in full; a negative count is left
        # to the file's own error or to the domain's
        if kind == "sequential" and items is not None and min(items, args.max_marginal) >= 0:
            parsed_props()
            _check_builtin_domain(n, items, args.max_marginal)

    loaded = load_spec(args.spec, check_agents)
    if loaded.kind not in MULTI_ITEM_KINDS:
        raise SpecFileError(
            f"kind {loaded.kind!r} is single-item; use the 'verify' command"
        )
    spec = loaded.mechanism
    props = parsed_props()
    if loaded.kind == "sequential":
        mechanism = lambda bids: sequential_allocate_general(spec, bids)
    else:
        mechanism = lambda bids: cluster_allocate(spec, bids)
    if loaded.candidates is not None:
        domains = loaded.candidates
        truths = tuple(domain[0] for domain in domains)
        domain_note = "candidates from spec file; first candidate per agent is the truth"
    elif loaded.kind == "sequential":
        # sized by check_agents as the file was read
        pool = tuple(nonincreasing_marginal_vectors(loaded.item_count, args.max_marginal))
        domains = tuple(pool for _ in range(spec.n))
        truths = None
        domain_note = (
            f"all nonincreasing integer marginal vectors with entries <= {args.max_marginal}"
        )
    else:
        raise SpecFileError("cluster verification needs candidate[...] lines in the spec")
    reports = [checks[name](mechanism, domains, truths) for name in props]
    settings = {"props": ",".join(props), "max_marginal": args.max_marginal}
    fields = {"domain": domain_note, "domain_sizes": [len(d) for d in domains]}
    return _check_report(args, loaded, settings, fields, reports)


def _check_builtin_domain(n: int, item_count: int, max_marginal: int) -> None:
    """Refuse a `multi` run whose built-in domain reads over `MAX_PAYOFF_READS` payoffs.

    Its M = C(m + k, k) valuations per agent are at least C(2j, j) >= 2^j,
    j = min(m, k), and n >= 1 agents read at least M payoffs.  Once 2^j
    alone is over the cap, M is named by that bound and not computed: its
    digits grow with j (C(200000, 100000) has 60 204).
    """
    choose = f"C({max_marginal} + {item_count}, {item_count})"
    j = min(max_marginal, item_count)
    if n >= 1 and j >= MAX_PAYOFF_READS.bit_length():
        raise _over_cap(
            f"the built-in domain has M = {choose} >= 2^{j} valuations per agent, so M^n "
            f"profiles and M^n x n x (1 + n x (M - 1)) payoff reads at n={_count_text(n)}",
            MAX_PAYOFF_READS,
        )
    per_agent = marginal_vector_count(item_count, max_marginal)
    reads = _payoff_reads(per_agent, n)
    if reads is None:
        m, step = _count_text(per_agent), _count_text(per_agent - 1)
        counts = f"{m}^n profiles and {m}^n x n x (1 + n x {step}) payoff reads"
        counts += f" at n={_count_text(n)}"
    elif reads > MAX_PAYOFF_READS:
        counts = f"{_count_text(per_agent**n)} profiles and {_count_text(reads)} payoff reads"
    else:
        return
    raise _over_cap(
        f"the built-in domain has {choose} = {_count_text(per_agent)} valuations per agent, "
        f"so {counts}", MAX_PAYOFF_READS
    )


def _add_common(parser) -> None:
    parser.add_argument("--out", default=None, help="write the report to this path instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), default="json")


# built once per process: a run only reads the parser
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spitefree",
        description="exhaustive checks for auction mechanisms facing spiteful bidders",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check properties of a single-item mechanism")
    p.add_argument("--spec", required=True, help="mechanism description file")
    p.add_argument("--grid", default=None, help='bid grid, e.g. "0,1/2,1,3/2,2"')
    p.add_argument("--props", default=None, help=f"comma list of: {', '.join(_PROP_NAMES)}")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="sweep all IR+IC tables on a grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--budget", type=int, default=1_000_000, help="max tables to enumerate")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("thresholds", help="optimal down-the-line prices for uniform values")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("revenue", help="exact and simulated expected revenue")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0, help="seed of the simulation (recorded in the report)")
    _add_common(p)
    p.set_defaults(func=cmd_revenue)

    p = sub.add_parser("regions", help="best-bundle regions of additive value space")
    p.add_argument("--payments", required=True, help='e.g. "10=4,01=3,11=6" (leftmost digit = a1)')
    p.add_argument("--box", default=None, help='lattice bounds "low,high" applied to every axis')
    p.add_argument("--step", default=None, help='lattice step, e.g. "1/4"')
    _add_common(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("multi", help="check properties of a multi-item mechanism")
    p.add_argument("--spec", required=True)
    p.add_argument("--props", default=None, help="comma list of: ir, ic, sic, esic")
    p.add_argument("--max-marginal", type=int, default=3, dest="max_marginal",
                   help="bound for the built-in homogeneous bid domain")
    _add_common(p)
    p.set_defaults(func=cmd_multi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config, results, code = args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SpecFileError, DomainMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    config["format"] = args.format
    report = {
        "version": __version__,
        "command": args.command,
        "config": config,
        "results": results,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if args.format == "json":
        text = json.dumps(report, indent=2)
    else:
        text = "\n".join(_render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
