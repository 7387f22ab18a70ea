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

Each literal has one reader: comma lists go through `money.parse_amounts`,
bundle lists through `multiitem.parse_bundle_amounts`, and a field's
error names its line.  A caller can size a file before it is built: the
n of every single-item file and of a sequential one (the count of the
ranking's entries, or a table's `n:` line, read before any row) goes to
the `check_agents` hook first, with the table's grid or the sequential
file's item count, and the 2^K tables of a multi-item file are counted
against `MAX_BUNDLE_TABLE_ENTRIES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import Grid, MechanismTable, Outcome
from .mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
)
from .money import (
    names_infinity,
    parse_amounts,
    parse_ext_money,
    parse_money,
    render_ext_money,
    render_money,
)
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


def _at_line(lineno: int, parse, text: str, *args):
    """``parse(text, *args)``, its ValueError raised as a SpecFileError naming the line."""
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise _fail(lineno, str(exc)) from None


def _built(factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError raised as a SpecFileError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from None


def _expecting(parse, message: str):
    """``parse``, its ValueError replaced by ``message`` and the text read."""

    def read(text: str):
        try:
            return parse(text)
        except ValueError:
            raise ValueError(f"{message} {text!r}") from None

    return read


_integer = _expecting(int, "expected an integer, got")
_integers = _expecting(partial(parse_amounts, parse_amount=int), "expected integers, got")
_boundary_rule = _expecting(BoundaryRule, "unknown boundary rule")
_tie_rule = _expecting(ClusterTieRule, "unknown tie rule")


def _amount_list(text: str, parse_amount=parse_money) -> tuple:
    amounts = parse_amounts(text, parse_amount)
    if not amounts:
        raise ValueError("expected a comma-separated list of amounts")
    return amounts


def _bundle_amounts(text: str, item_count: int) -> dict:
    return parse_bundle_amounts(text, parse_money, item_count)[0]


def _indexed_key(key: str):
    """Split "thresholds[2]" into ("thresholds", 2); plain keys pass through."""
    if key.endswith("]") and "[" in key:
        base, _, index_text = key[:-1].partition("[")
        try:
            return base, int(index_text)
        except ValueError:
            return key, None
    return key, None


_REQUIRED = object()


class _FileLines:
    """One file's lines by key; its kind's builder takes them field by field.

    `fields` maps a key to its (line, value), `rows` lists the `row:`
    lines, and `indexed` maps "thresholds" to {2: [(line, value), ...]}
    for "thresholds[2]:" lines.  Whatever the builder leaves is an error.
    """

    def __init__(self, kind: str, check_agents) -> None:
        self.kind = kind
        self.check_agents = check_agents or (lambda kind, n, domain: None)
        self.fields: dict[str, tuple[int, str]] = {}
        self.rows: list[tuple[int, str]] = []
        self.indexed: dict[str, dict[int, list[tuple[int, str]]]] = {}

    def field(self, key: str, parse, default=_REQUIRED):
        """Take the ``key:`` field and read it with ``parse``."""
        if key not in self.fields:
            if default is _REQUIRED:
                raise SpecFileError(f"kind {self.kind!r} requires a {key!r} field")
            return default
        lineno, value = self.fields.pop(key)
        return _at_line(lineno, parse, value)

    def size(self, n: int, domain=None) -> None:
        """Give ``check_agents`` the kind, its n and its ``domain``."""
        self.check_agents(self.kind, n, domain)

    def size_by_ranking(self, domain=None) -> None:
        """`size` on the count of the ranking's entries, before any of them is read."""
        if "ranking" in self.fields:
            self.size(len(parse_amounts(self.fields["ranking"][1], len)), domain)

    def agent_lines(self, base: str, n: int, missing: str):
        """Yield (agent, lines) of each agent's ``base[agent]:`` lines, 1 to n.

        An agent without one raises ``missing`` formatted with the agent;
        an index past the agents raises once all n are read.
        """
        declared = self.indexed.pop(base, {})
        for agent in range(1, n + 1):
            entries = declared.pop(agent, None)
            if not entries:
                raise SpecFileError(missing.format(agent))
            yield agent, entries
        if declared:
            raise SpecFileError(f"{base}[{min(declared)}] does not match any agent (n={n})")

    def check_tables(self, item_count: int, price_lists: int) -> None:
        """Refuse a negative item count, then size the 2^K bundle tables.

        There is one table per price list and per candidate line.
        """
        if item_count < 0:
            raise SpecFileError("item count must be nonnegative")
        tables = price_lists + sum(map(len, self.indexed.get("candidate", {}).values()))
        cap = MAX_BUNDLE_TABLE_ENTRIES
        if tables and (item_count >= cap.bit_length() or tables << item_count > cap):
            raise BudgetExceededError(
                f"{tables} x 2^{item_count} bundle-table entries (one table per price list "
                f"and candidate line), over the cap of {cap}"
            )

    def reject_leftovers(self) -> None:
        for key, (lineno, _) in self.fields.items():
            raise _fail(lineno, f"field {key!r} does not belong to kind {self.kind!r}")
        if self.rows:
            raise _fail(self.rows[0][0], f"kind {self.kind!r} takes no 'row:' lines")
        for base, per_index in self.indexed.items():
            for entries in per_index.values():
                raise _fail(
                    entries[0][0], f"field {base!r}[..] does not belong to kind {self.kind!r}"
                )


def parse_spec_text(text: str, check_agents=None) -> LoadedSpec:
    """Parse a mechanism file's text.

    ``check_agents``, if given, is called as ``check_agents(kind, n,
    domain)`` before anything n long is read or built, once for every
    single-item file and every sequential one that has a ranking and no
    other error before it.  A file's n is the count of its ranking
    entries, or a table's `n:` line, read before any row.  ``domain`` is
    what a file's bids are drawn from when the file states it before its
    lists: a table's `Grid`, or the item count of a sequential file
    without `candidate` lines; for a threshold file, the fewest levels
    its closure can have, 2 once any threshold is finite, else 1 (its
    `thresholds:` line is scanned for a literal other than ``inf``, and
    none is parsed); else None.  A caller can thus refuse a size
    before n-long tuples are built (a null spec of 20 million agents takes
    about 10 s and 2 GB, a 2^20-agent threshold file 5 s and 280 MB).
    """
    lines = None
    for lineno, key, value in _split_lines(text):
        if lines is None:
            if key != "kind":
                raise _fail(lineno, "file must start with a 'kind:' line")
            lines = _FileLines(value, check_agents)
            continue
        base, index = _indexed_key(key)
        if index is not None:
            lines.indexed.setdefault(base, {}).setdefault(index, []).append((lineno, value))
        elif key == "row":
            lines.rows.append((lineno, value))
        elif key in lines.fields:
            raise _fail(lineno, f"duplicate field {key!r}")
        else:
            lines.fields[key] = (lineno, value)
    if lines is None:
        raise SpecFileError("empty mechanism file")
    builder = _BUILDERS.get(lines.kind)
    if builder is None:
        known = ", ".join(SINGLE_ITEM_KINDS + MULTI_ITEM_KINDS)
        raise SpecFileError(f"unknown kind {lines.kind!r} (expected one of: {known})")
    return builder(lines)


def load_spec(path, check_agents=None) -> LoadedSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None
    return parse_spec_text(text, check_agents)


def _ranking_line(ranking) -> str:
    return "ranking: " + ",".join(str(r) for r in ranking)


def _bundle_list(item_count: int, pairs) -> str:
    """Render (mask, amount) pairs as "10=1, 01=3/2"."""
    return ", ".join(
        f"{render_bundle_key(mask, item_count)}={render_money(amount)}" for mask, amount in pairs
    )


def _build_threshold(lines: _FileLines) -> LoadedSpec:
    # a finite threshold puts 0 and a level above it in the closure
    text = lines.fields.get("thresholds", (0, ""))[1]
    lines.size_by_ranking(1 if all(parse_amounts(text, names_infinity)) else 2)
    ranking = lines.field("ranking", _integers)
    thresholds = lines.field("thresholds", partial(_amount_list, parse_amount=parse_ext_money))
    rule = lines.field("boundary_rule", _boundary_rule, BoundaryRule.HIGHEST_RANK_AT_THRESHOLD)
    lines.reject_leftovers()
    spec = _built(ThresholdSpec, ranking=ranking, thresholds=thresholds, boundary_rule=rule)
    source = "\n".join(
        [
            "kind: threshold",
            _ranking_line(spec.ranking),
            "thresholds: " + ",".join(render_ext_money(t) for t in spec.thresholds),
            f"boundary_rule: {spec.boundary_rule.value}",
        ]
    )
    return LoadedSpec(kind="threshold", mechanism=spec, source=source)


def _build_sized(factory, lines: _FileLines) -> LoadedSpec:
    n = lines.field("n", _integer)
    lines.reject_leftovers()
    lines.size(n)
    mechanism = _built(factory, n)
    return LoadedSpec(kind=lines.kind, mechanism=mechanism, source=f"kind: {lines.kind}\nn: {n}")


def _build_table(lines: _FileLines) -> LoadedSpec:
    grid = lines.field("grid", Grid.from_text)
    n = lines.field("n", _integer)
    rows, lines.rows = lines.rows, []
    lines.reject_leftovers()
    lines.size(n, grid)
    outcome_for = {}
    for lineno, value in rows:
        bids_text, arrow, rest = value.partition("->")
        winner_text, semicolon, payments_text = rest.partition(";")
        try:
            if not (arrow and semicolon):
                raise ValueError("row must read 'bids -> winner ; payments'")
            profile = _amount_list(bids_text)
            winner = _integer(winner_text.strip())
            payments = _amount_list(payments_text)
            if profile in outcome_for:
                raise ValueError(f"duplicate row for profile {bids_text.strip()!r}")
            outcome_for[profile] = Outcome(winner, payments)
        except ValueError as exc:
            raise _fail(lineno, str(exc)) from None
    table = _built(MechanismTable.from_outcomes, grid, n, outcome_for)
    source = [f"kind: table", f"grid: {grid.render()}", f"n: {n}"]
    for profile, out in table.rows:
        bids = ",".join(render_money(b) for b in profile)
        pays = ",".join(render_money(p) for p in out.payments)
        source.append(f"row: {bids} -> {out.winner} ; {pays}")
    return LoadedSpec(kind="table", mechanism=table, source="\n".join(source))


def _candidates_from(lines: _FileLines, n: int, item_count: int):
    if "candidate" not in lines.indexed:
        return None

    def valuation(text: str) -> BundleValuation:
        return BundleValuation.from_map(item_count, _bundle_amounts(text, item_count))

    missing = "candidate lines must cover every agent; agent {} has none"
    return tuple(
        tuple(_at_line(lineno, valuation, value) for lineno, value in entries)
        for _, entries in lines.agent_lines("candidate", n, missing)
    )


def _multi_item(lines: _FileLines, spec, item_count: int, priced: list[str]) -> LoadedSpec:
    """Read the candidates, then render the file under its ranking and prices."""
    candidates = _candidates_from(lines, spec.n, item_count)
    lines.reject_leftovers()
    source = [f"kind: {lines.kind}", f"items: {item_count}", _ranking_line(spec.ranking), *priced]
    for agent, bids in enumerate(candidates or (), start=1):
        for bid in bids:
            pairs = _bundle_list(item_count, ((m, v) for m, v in enumerate(bid.values) if v))
            source.append(f"candidate[{agent}]: {pairs}".rstrip())
    return LoadedSpec(
        kind=lines.kind,
        mechanism=spec,
        item_count=item_count,
        candidates=candidates,
        source="\n".join(source),
    )


def _build_sequential(lines: _FileLines) -> LoadedSpec:
    item_count = lines.field("items", _integer)
    lines.size_by_ranking(None if "candidate" in lines.indexed else item_count)
    ranking = lines.field("ranking", _integers)
    thresholds = lines.field("thresholds", _amount_list)
    spec = _built(SequentialSpec, ranking=ranking, thresholds=thresholds)
    lines.check_tables(item_count, 0)
    priced = ["thresholds: " + ",".join(render_money(t) for t in spec.thresholds)]
    return _multi_item(lines, spec, item_count, priced)


def _build_cluster(lines: _FileLines) -> LoadedSpec:
    item_count = lines.field("items", _integer)
    ranking = lines.field("ranking", _integers)
    tie = lines.field("tie", _tie_rule, ClusterTieRule.LARGEST_THEN_LOWEST_MASK)
    n = len(ranking)
    lines.check_tables(item_count, n)
    size = 1 << item_count
    tables = []
    missing = "cluster spec needs a thresholds[{}] line"
    for agent, entries in lines.agent_lines("thresholds", n, missing):
        if len(entries) > 1:
            raise _fail(entries[1][0], f"duplicate thresholds[{agent}] line")
        lineno, value = entries[0]
        pairs = _at_line(lineno, _bundle_amounts, value, item_count)
        unpriced = sum(mask not in pairs for mask in range(1, size))
        if unpriced:
            raise _fail(
                lineno, f"thresholds[{agent}] must price every nonempty bundle; {unpriced} missing"
            )
        tables.append(tuple(pairs.get(mask, 0) for mask in range(size)))
    spec = _built(
        ClusterSpec, item_count=item_count, ranking=ranking, thresholds=tuple(tables), tie_rule=tie
    )
    priced = [
        f"thresholds[{agent}]: " + _bundle_list(item_count, enumerate(prices[1:], start=1))
        for agent, prices in enumerate(spec.thresholds, start=1)
    ]
    return _multi_item(lines, spec, item_count, priced + [f"tie: {spec.tie_rule.value}"])


_BUILDERS = {
    "threshold": _build_threshold,
    "null": partial(_build_sized, null_spec),
    "second_price": partial(_build_sized, SecondPriceMechanism),
    "first_price": partial(_build_sized, FirstPriceMechanism),
    "table": _build_table,
    "sequential": _build_sequential,
    "cluster": _build_cluster,
}
