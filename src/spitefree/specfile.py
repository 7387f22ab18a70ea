"""Mechanism description files: a small line-based "key: value" format.

Every file opens with a `kind:` line.  Monetary values are exact rational
literals ("5/8", "3", "inf" where an infinite threshold is allowed); no
decimals, so files round-trip without loss.  Bundles are written as 0/1
strings whose LEFTMOST digit is item a1 ("10" is {a1}, "01" is {a2}).
Lines starting with '#' and blank lines are ignored.

Kinds and their fields:

    kind: threshold            kind: table
    ranking: 1,2               grid: 0,1,2
    thresholds: 1,inf          n: 2
    boundary_rule: ...         row: 0,0 -> 0 ; 0,0        (one per profile)

    kind: null | second_price | first_price
    n: 2

    kind: sequential           kind: cluster
    items: 3                   items: 2
    ranking: 1,2               ranking: 1,2
    thresholds: 2,1            thresholds[1]: 10=1, 01=1, 11=2
                               thresholds[2]: 10=1, 01=1, 11=2
                               tie: largest_then_lowest_mask

The two multi-item kinds accept optional `candidate[i]:` lines, each
adding one bundle valuation ("10=1, 11=5/2"; omitted bundles are worth 0)
to agent i's bid domain; the first candidate listed per agent is taken as
her true valuation.  A `row:` line reads "bids -> winner ; payments"
with winner 0 meaning no sale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Grid, MechanismTable, Outcome
from .mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
)
from .money import parse_amounts, parse_ext_money, parse_money, render_ext_money, render_money
from .multiitem import (
    BundleValuation,
    ClusterSpec,
    ClusterTieRule,
    SequentialSpec,
    parse_bundle_amounts,
    render_bundle_key,
)
from .verifier import BudgetExceededError

SINGLE_ITEM_KINDS = ("threshold", "null", "second_price", "first_price", "table")
MULTI_ITEM_KINDS = ("sequential", "cluster")

# The multi-item kinds hold dense tables of 2^K entries, one price list per
# cluster agent and one bundle valuation per candidate line.  Their total
# is estimated from K and the line count before any table is built, and a
# file over the cap raises `BudgetExceededError`.  At the cap the `multi`
# runs timed take at most 1.5 s and 46 MB: a 15-item cluster price list
# with one candidate, two 14-item lists with one candidate each, or one
# 16-item sequential candidate (2-core Xeon, Python 3.11).
MAX_BUNDLE_TABLE_ENTRIES = 1 << 16


class SpecFileError(ValueError):
    """A mechanism description file could not be parsed."""


@dataclass(frozen=True)
class LoadedSpec:
    """A parsed mechanism file plus its canonical re-rendering.

    `mechanism` is a single-item mechanism object for the single-item
    kinds and a SequentialSpec/ClusterSpec for the multi-item ones.
    `candidates` holds the per-agent bid domains declared in the file
    (None when the file declares none); `source` is a normalized
    rendering embedded in reports so they replay without the file.
    """

    kind: str
    mechanism: object
    item_count: int | None = None
    candidates: tuple[tuple[BundleValuation, ...], ...] | None = None
    source: str = ""


def _fail(lineno: int, message: str) -> SpecFileError:
    return SpecFileError(f"line {lineno}: {message}")


def _split_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise _fail(lineno, f"expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def _money_list(value: str, lineno: int, parse_amount):
    try:
        amounts = parse_amounts(value, parse_amount)
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None
    if not amounts:
        raise _fail(lineno, "expected a comma-separated list of amounts")
    return amounts


def _int_list(value: str, lineno: int):
    parts = [p.strip() for p in value.split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise _fail(lineno, f"expected integers, got {value!r}") from None


def _int_field(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise _fail(lineno, f"expected an integer, got {value!r}") from None


def _bundle_pairs(value: str, lineno: int, item_count: int):
    """Parse "10=1, 01=3/2" into {mask: amount}."""
    try:
        return parse_bundle_amounts(value, parse_money, item_count)[0]
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None


def _indexed_key(key: str):
    """Split "thresholds[2]" into ("thresholds", 2); plain keys pass through."""
    if key.endswith("]") and "[" in key:
        base, _, index_text = key[:-1].partition("[")
        try:
            return base, int(index_text)
        except ValueError:
            return key, None
    return key, None


def parse_spec_text(text: str, check_agents=None) -> LoadedSpec:
    """Parse a mechanism file's text.

    ``check_agents``, if given, is called with the n of a null, second- or
    first-price file before its mechanism is built.  Those files state n
    in one line, so a caller can refuse a size there before n-long tuples
    are built (a null spec of 20 million agents takes about 10 s and 2 GB).
    """
    fields: dict[str, tuple[int, str]] = {}
    rows: list[tuple[int, str]] = []
    indexed: dict[str, dict[int, list[tuple[int, str]]]] = {}
    kind = None
    for lineno, key, value in _split_lines(text):
        if kind is None:
            if key != "kind":
                raise _fail(lineno, "file must start with a 'kind:' line")
            kind = value
            continue
        base, index = _indexed_key(key)
        if index is not None:
            indexed.setdefault(base, {}).setdefault(index, []).append((lineno, value))
        elif key == "row":
            rows.append((lineno, value))
        elif key in fields:
            raise _fail(lineno, f"duplicate field {key!r}")
        else:
            fields[key] = (lineno, value)
    if kind is None:
        raise SpecFileError("empty mechanism file")
    if kind in _SIZED_FACTORIES:
        return _build_sized(kind, fields, rows, indexed, check_agents)
    builder = _BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(SINGLE_ITEM_KINDS + MULTI_ITEM_KINDS)
        raise SpecFileError(f"unknown kind {kind!r} (expected one of: {known})")
    return builder(fields, rows, indexed)


def load_spec(path, check_agents=None) -> LoadedSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None
    return parse_spec_text(text, check_agents)


def _take(fields, key, kind):
    if key not in fields:
        raise SpecFileError(f"kind {kind!r} requires a {key!r} field")
    return fields.pop(key)


def _reject_leftovers(fields, rows, indexed, kind):
    for key, (lineno, _) in fields.items():
        raise _fail(lineno, f"field {key!r} does not belong to kind {kind!r}")
    if rows:
        raise _fail(rows[0][0], f"kind {kind!r} takes no 'row:' lines")
    for base, per_index in indexed.items():
        for entries in per_index.values():
            raise _fail(entries[0][0], f"field {base!r}[..] does not belong to kind {kind!r}")


def _build_threshold(fields, rows, indexed) -> LoadedSpec:
    lineno, ranking_text = _take(fields, "ranking", "threshold")
    ranking = _int_list(ranking_text, lineno)
    lineno, thresholds_text = _take(fields, "thresholds", "threshold")
    thresholds = _money_list(thresholds_text, lineno, parse_ext_money)
    rule = BoundaryRule.HIGHEST_RANK_AT_THRESHOLD
    if "boundary_rule" in fields:
        lineno, rule_text = fields.pop("boundary_rule")
        try:
            rule = BoundaryRule(rule_text)
        except ValueError:
            raise _fail(lineno, f"unknown boundary rule {rule_text!r}") from None
    _reject_leftovers(fields, rows, indexed, "threshold")
    try:
        spec = ThresholdSpec(ranking=ranking, thresholds=thresholds, boundary_rule=rule)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    source = "\n".join(
        [
            "kind: threshold",
            "ranking: " + ",".join(str(r) for r in spec.ranking),
            "thresholds: " + ",".join(render_ext_money(t) for t in spec.thresholds),
            f"boundary_rule: {spec.boundary_rule.value}",
        ]
    )
    return LoadedSpec(kind="threshold", mechanism=spec, source=source)


def _build_sized(kind, fields, rows, indexed, check_agents) -> LoadedSpec:
    lineno, n_text = _take(fields, "n", kind)
    n = _int_field(n_text, lineno)
    _reject_leftovers(fields, rows, indexed, kind)
    if check_agents is not None:
        check_agents(n)
    try:
        mechanism = _SIZED_FACTORIES[kind](n)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    source = f"kind: {kind}\nn: {n}"
    return LoadedSpec(kind=kind, mechanism=mechanism, source=source)


def _build_table(fields, rows, indexed) -> LoadedSpec:
    lineno, grid_text = _take(fields, "grid", "table")
    try:
        grid = Grid.from_text(grid_text)
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None
    lineno, n_text = _take(fields, "n", "table")
    n = _int_field(n_text, lineno)
    _reject_leftovers(fields, [], indexed, "table")
    outcome_for = {}
    for lineno, value in rows:
        if "->" not in value:
            raise _fail(lineno, "row must read 'bids -> winner ; payments'")
        bids_text, _, rest = value.partition("->")
        if ";" not in rest:
            raise _fail(lineno, "row must read 'bids -> winner ; payments'")
        winner_text, _, payments_text = rest.partition(";")
        profile = _money_list(bids_text, lineno, parse_money)
        winner = _int_field(winner_text.strip(), lineno)
        payments = _money_list(payments_text, lineno, parse_money)
        if profile in outcome_for:
            raise _fail(lineno, f"duplicate row for profile {bids_text.strip()!r}")
        try:
            outcome_for[profile] = Outcome(winner, payments)
        except ValueError as exc:
            raise _fail(lineno, str(exc)) from None
    try:
        table = MechanismTable.from_outcomes(grid, n, outcome_for)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    lines = [f"kind: table", f"grid: {grid.render()}", f"n: {n}"]
    for profile, out in table.rows:
        bids = ",".join(render_money(b) for b in profile)
        pays = ",".join(render_money(p) for p in out.payments)
        lines.append(f"row: {bids} -> {out.winner} ; {pays}")
    return LoadedSpec(kind="table", mechanism=table, source="\n".join(lines))


def _check_table_entries(item_count: int, tables: int) -> None:
    if item_count < 0:
        raise SpecFileError("item count must be nonnegative")
    cap = MAX_BUNDLE_TABLE_ENTRIES
    if tables and (item_count >= cap.bit_length() or tables << item_count > cap):
        raise BudgetExceededError(
            f"{tables} x 2^{item_count} bundle-table entries (one table per price list "
            f"and candidate line), over the cap of {cap}"
        )


def _candidates_from(indexed, n, item_count):
    declared = indexed.pop("candidate", None)
    if declared is None:
        return None
    _check_table_entries(item_count, sum(map(len, declared.values())))
    domains = []
    for agent in range(1, n + 1):
        entries = declared.pop(agent, None)
        if not entries:
            raise SpecFileError(
                f"candidate lines must cover every agent; agent {agent} has none"
            )
        bids = []
        for lineno, value in entries:
            pairs = _bundle_pairs(value, lineno, item_count)
            try:
                bids.append(BundleValuation.from_map(item_count, pairs))
            except ValueError as exc:
                raise _fail(lineno, str(exc)) from None
        domains.append(tuple(bids))
    if declared:
        stray = sorted(declared)[0]
        raise SpecFileError(f"candidate[{stray}] does not match any agent (n={n})")
    return tuple(domains)


def _build_sequential(fields, rows, indexed) -> LoadedSpec:
    lineno, items_text = _take(fields, "items", "sequential")
    item_count = _int_field(items_text, lineno)
    lineno, ranking_text = _take(fields, "ranking", "sequential")
    ranking = _int_list(ranking_text, lineno)
    lineno, thresholds_text = _take(fields, "thresholds", "sequential")
    thresholds = _money_list(thresholds_text, lineno, parse_money)
    try:
        spec = SequentialSpec(ranking=ranking, thresholds=thresholds)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    candidates = _candidates_from(indexed, spec.n, item_count)
    _reject_leftovers(fields, rows, indexed, "sequential")
    lines = [
        "kind: sequential",
        f"items: {item_count}",
        "ranking: " + ",".join(str(r) for r in spec.ranking),
        "thresholds: " + ",".join(render_money(t) for t in spec.thresholds),
    ]
    lines.extend(_render_candidates(candidates, item_count))
    return LoadedSpec(
        kind="sequential",
        mechanism=spec,
        item_count=item_count,
        candidates=candidates,
        source="\n".join(lines),
    )


def _build_cluster(fields, rows, indexed) -> LoadedSpec:
    lineno, items_text = _take(fields, "items", "cluster")
    item_count = _int_field(items_text, lineno)
    lineno, ranking_text = _take(fields, "ranking", "cluster")
    ranking = _int_list(ranking_text, lineno)
    tie = ClusterTieRule.LARGEST_THEN_LOWEST_MASK
    if "tie" in fields:
        lineno, tie_text = fields.pop("tie")
        try:
            tie = ClusterTieRule(tie_text)
        except ValueError:
            raise _fail(lineno, f"unknown tie rule {tie_text!r}") from None
    n = len(ranking)
    _check_table_entries(item_count, n + sum(map(len, indexed.get("candidate", {}).values())))
    declared = indexed.pop("thresholds", None) or {}
    tables = []
    for agent in range(1, n + 1):
        entries = declared.pop(agent, None)
        if not entries:
            raise SpecFileError(f"cluster spec needs a thresholds[{agent}] line")
        if len(entries) > 1:
            raise _fail(entries[1][0], f"duplicate thresholds[{agent}] line")
        lineno, value = entries[0]
        pairs = _bundle_pairs(value, lineno, item_count)
        size = 1 << item_count
        missing = [m for m in range(1, size) if m not in pairs]
        if missing:
            raise _fail(
                lineno,
                f"thresholds[{agent}] must price every nonempty bundle; "
                f"{len(missing)} missing",
            )
        dense = [pairs.get(m, parse_money("0")) for m in range(size)]
        tables.append(tuple(dense))
    if declared:
        stray = sorted(declared)[0]
        raise SpecFileError(f"thresholds[{stray}] does not match any agent (n={n})")
    try:
        spec = ClusterSpec(
            item_count=item_count,
            ranking=ranking,
            thresholds=tuple(tables),
            tie_rule=tie,
        )
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None
    candidates = _candidates_from(indexed, spec.n, item_count)
    _reject_leftovers(fields, rows, indexed, "cluster")
    lines = [
        "kind: cluster",
        f"items: {item_count}",
        "ranking: " + ",".join(str(r) for r in spec.ranking),
    ]
    for agent in range(n):
        pairs = ", ".join(
            f"{render_bundle_key(mask, item_count)}={render_money(price)}"
            for mask, price in enumerate(spec.thresholds[agent])
            if mask
        )
        lines.append(f"thresholds[{agent + 1}]: {pairs}")
    lines.append(f"tie: {spec.tie_rule.value}")
    lines.extend(_render_candidates(candidates, item_count))
    return LoadedSpec(
        kind="cluster",
        mechanism=spec,
        item_count=item_count,
        candidates=candidates,
        source="\n".join(lines),
    )


def _render_candidates(candidates, item_count):
    lines = []
    if candidates is None:
        return lines
    for agent, bids in enumerate(candidates, start=1):
        for bid in bids:
            pairs = ", ".join(
                f"{render_bundle_key(mask, item_count)}={render_money(value)}"
                for mask, value in enumerate(bid.values)
                if mask and value != 0
            )
            lines.append(f"candidate[{agent}]: {pairs}" if pairs else f"candidate[{agent}]:")
    return lines


_SIZED_FACTORIES = {
    "null": null_spec,
    "second_price": SecondPriceMechanism,
    "first_price": FirstPriceMechanism,
}
_BUILDERS = {
    "threshold": _build_threshold,
    "table": _build_table,
    "sequential": _build_sequential,
    "cluster": _build_cluster,
}
