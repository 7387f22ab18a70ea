"""Builtin single-item mechanisms and threshold-form recognition.

A threshold mechanism is given by a priority ranking over the agents and a
per-agent price threshold (possibly infinite).  Whenever some bid strictly
exceeds its threshold, the item goes to the highest-priority agent whose bid
weakly meets her threshold, at her threshold price.  When every bid is weakly
below and at least one is exactly at its threshold, the boundary rule decides
between allocating to the highest-priority tied agent and not allocating.
The null mechanism (never allocate, never charge) is the all-infinite special
case.

The rule reads only each bid's sign against its own threshold (below, at or
above), so it is stated once, in `_threshold_winner`, on those signs, and
`threshold_outcome` applies it to one profile.
`recognize_threshold_form` reads a table's outcomes against the same sign
columns to recover a spec, without tabulating one; its second pass,
`recognize_on_signs`, reads only signs and winner codes.

First and second price are one order rule, `_price_rule`: the first
highest bid wins and pays the ``rank``-th highest bid (rank 1 and 2).

`tabulate_codes` tabulates a mechanism on ``grid^n`` as one small int
code per profile (a `CodedTabulation`), each code standing for one
outcome and one bid of its winner, and `tabulate_outcomes` reads the
outcomes off it.  A threshold spec and the price rules are coded without
evaluating a profile: each agent has one int key per level, and a
profile's code is its highest key (`_max_codes`).  A threshold spec's
keys come from bisecting each threshold into the levels once; the price
rules' from level indices, which they may read for bids because they
read bids only by order.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul
from typing import ClassVar, NamedTuple, Sequence

from .core import DomainMismatchError, Grid, MechanismTable, Outcome, RankedSpec, enumerate_profiles
from .money import ExtMoney, INFINITY, as_ext_money


class BoundaryRule(str, Enum):
    """What happens when nobody strictly exceeds but someone exactly meets."""

    HIGHEST_RANK_AT_THRESHOLD = "highest_rank_at_threshold"
    NO_ALLOCATION = "no_allocation"


@dataclass(frozen=True)
class ThresholdSpec(RankedSpec):
    """Priority ranking plus per-agent thresholds.

    ``ranking[i]`` is the priority position of agent ``i`` (1 = served
    first).  Thresholds are nonnegative rationals or INFINITY.
    """

    ranking: tuple[int, ...]
    thresholds: tuple[ExtMoney, ...]
    boundary_rule: BoundaryRule = BoundaryRule.HIGHEST_RANK_AT_THRESHOLD

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "thresholds", tuple(as_ext_money(t) for t in self.thresholds)
        )
        n = len(self.thresholds)
        if n == 0:
            raise ValueError("need at least one agent")
        object.__setattr__(self, "ranking", self.check_ranking(self.ranking, n))
        if not isinstance(self.boundary_rule, BoundaryRule):
            object.__setattr__(self, "boundary_rule", BoundaryRule(self.boundary_rule))
        # the dataclass's own hash, taken once: each tabulation cache lookup hashes the spec
        fields = (self.ranking, self.thresholds, self.boundary_rule)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.thresholds)

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        return threshold_outcome(self, bids)


def threshold_outcome(spec: ThresholdSpec, bids: tuple[Fraction, ...]) -> Outcome:
    n = spec.n
    if len(bids) != n:
        raise DomainMismatchError(f"expected {n} bids, got {len(bids)}")
    signs = tuple(map(_sign, bids, spec.thresholds))
    return _threshold_result(spec, _threshold_winner(spec, signs))


def _sign(bid: Fraction, threshold: ExtMoney) -> int:
    """-1, 0 or 1 as ``bid`` is below, at or above ``threshold``."""
    return (bid > threshold) - (bid < threshold)


def _threshold_winner(spec: ThresholdSpec, signs: tuple[int, ...]) -> int:
    """The winner code of ``spec`` at a profile whose bids have these signs (see `_sign`)."""
    meets = [i for i, s in enumerate(signs) if s >= 0]
    if not meets or (1 not in signs and spec.boundary_rule is BoundaryRule.NO_ALLOCATION):
        return 0
    return min(meets, key=spec.ranking.__getitem__) + 1


def _threshold_result(spec: ThresholdSpec, winner: int) -> Outcome:
    """The outcome in which ``winner`` (a code, 0 = unsold) pays her threshold."""
    price = spec.thresholds[winner - 1] if winner else Fraction(0)
    assert isinstance(price, Fraction)  # a finite bid cannot meet INFINITY
    return _sale(spec.n, winner, price)


_ZERO = Fraction(0)


def _sale(n: int, winner: int, price: Fraction) -> Outcome:
    """The outcome in which ``winner`` (a code, 0 = unsold) pays ``price`` and nobody else pays."""
    payments = [_ZERO] * n
    if winner:
        payments[winner - 1] = price
    return Outcome(winner, tuple(payments))


def null_spec(n: int) -> ThresholdSpec:
    """The null mechanism: never allocates, never charges."""
    return ThresholdSpec(tuple(range(1, n + 1)), (INFINITY,) * n)


def second_price_outcome(bids: tuple[Fraction, ...]) -> Outcome:
    return _price_outcome(bids, SecondPriceMechanism.rank)


def first_price_outcome(bids: tuple[Fraction, ...]) -> Outcome:
    return _price_outcome(bids, FirstPriceMechanism.rank)


def _price_outcome(bids: tuple[Fraction, ...], rank: int) -> Outcome:
    if len(bids) < 2:
        raise ValueError("price benchmarks need at least two agents")
    winner, at = _price_rule(bids, rank)
    return _sale(len(bids), winner + 1, bids[at])


def _price_rule(bids, rank: int) -> tuple[int, int]:
    """(winner, price position): the first highest bid wins at the ``rank``-th highest.

    The position is an agent whose bid is the price.  Only the order of
    the bids is read, so any totally ordered values will do: the rule
    gives the same answer on grid level indices as on the levels.
    """
    # a stable sort keeps equal bids in agent order, so the first of them leads
    order = sorted(range(len(bids)), key=bids.__getitem__, reverse=True)
    return order[0], order[rank - 1]


@dataclass(frozen=True)
class _PriceMechanism:
    """Sells to the first highest bid at the `rank`-th highest bid."""

    n: int
    rank: ClassVar[int]
    label: ClassVar[str]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"{self.label} needs at least two agents")


@dataclass(frozen=True)
class SecondPriceMechanism(_PriceMechanism):
    rank = 2
    label = "second price"

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        return second_price_outcome(bids)


@dataclass(frozen=True)
class FirstPriceMechanism(_PriceMechanism):
    rank = 1
    label = "first price"

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        return first_price_outcome(bids)


class CodedTabulation(NamedTuple):
    """A tabulation on ``grid^n`` as one small int code per profile.

    ``codes[flat]`` is the code of the profile with that flat index (see
    `core`), and ``decoded[code]``, for each code that occurs, is the
    outcome there and the level index its winner bids (0 when unsold).
    No two codes stand for the same pair, and equal outcomes are one
    object.  The codes are a `bytes` object when they fit in a byte, else
    an `array`.
    """

    codes: Sequence[int]
    decoded: dict[int, tuple[Outcome, int]]


def tabulate_codes(mechanism, grid: Grid) -> CodedTabulation:
    """The mechanism's tabulation on ``grid^n``, coded (see `CodedTabulation`).

    A `ThresholdSpec` (`_threshold_codes`) and first and second price
    (`_price_codes`) are coded without evaluating any profile.  A
    `MechanismTable` on its own grid is coded by its outcome objects, and
    any other mechanism is evaluated profile by profile and coded by equal
    outcomes (`_interned_codes`).
    """
    n, levels = mechanism.n, grid.levels
    if isinstance(mechanism, ThresholdSpec):
        return _threshold_codes(mechanism, levels)
    if isinstance(mechanism, _PriceMechanism):
        return _price_codes(mechanism, levels)
    if isinstance(mechanism, MechanismTable) and mechanism.grid == grid:
        return _interned_codes(mechanism.outcomes, n, len(levels), by_value=False)
    return _interned_codes(map(mechanism.outcome, enumerate_profiles(grid, n)), n, len(levels))


def gather(codes: Sequence[int], table) -> tuple:
    """``table[code]`` for each of the codes, as a tuple.

    The tuple is built from a list, as the lattice's other tuples are
    (see `verifier._scaled`): built from the iterator, it would be resized
    as it grew, which held about 0.35 MB more peak RSS over 600 in-process
    posted-price passes.
    """
    return tuple(list(map(table.__getitem__, codes)))


def _threshold_codes(spec: ThresholdSpec, levels) -> CodedTabulation:
    """Code each profile by its winner's priority and bid level.

    Agent i's key at level k is 0 below her threshold and otherwise
    ``(n - ranking[i]) * L + k + 1``, so a profile's highest key names the
    highest-priority agent who meets her threshold, and her bid: the
    winner wherever some bid exceeds its threshold, or the boundary rule
    allows a sale.  Under `NO_ALLOCATION` a profile where nobody exceeds
    is unsold, code 0.  Each threshold is bisected into the levels once.
    """
    n, width = spec.n, len(levels)
    meets, exceeds = [], []
    for threshold, rank in zip(spec.thresholds, spec.ranking):
        at = bisect_left(levels, threshold)
        above = at + (at < width and levels[at] == threshold)
        key = (n - rank) * width + 1
        meets.append([0] * at + list(range(key + at, key + width)))
        exceeds.append([0] * above + [1] * (width - above))
    codes = _max_codes(meets)
    if spec.boundary_rule is BoundaryRule.NO_ALLOCATION:
        codes = _gated(codes, _max_codes(exceeds))
    order = spec.priority_order()
    sales: dict[int, Outcome] = {}
    decoded = {}
    for code in set(codes):
        # code 0 is unsold; else code - 1 is (n - ranking[winner]) * L + her bid level
        rank, bid = (n - (code - 1) // width, (code - 1) % width) if code else (0, 0)
        winner = order[rank - 1] + 1 if code else 0
        out = sales.get(winner) or sales.setdefault(winner, _threshold_result(spec, winner))
        decoded[code] = out, bid
    return CodedTabulation(codes, decoded)


def _price_codes(mechanism: _PriceMechanism, levels) -> CodedTabulation:
    """Code each profile by its winner, her bid level and the price level.

    Agent j's key at level k is ``k * n + n - 1 - j``, so a profile's
    highest key names its first highest bid and that bid.  Under first
    price she pays her bid, and the key is the code; under second price
    she pays the second highest level, read off each level-index profile
    sorted, and the code is ``key * L + price``.
    """
    n, width = mechanism.n, len(levels)
    tops = _max_codes([range(n - 1 - j, n * width, n) for j in range(n)])
    if mechanism.rank == 1:
        codes = tops
    else:
        profiles = itertools.product(range(width), repeat=n)
        prices = map(itemgetter(-mechanism.rank), map(sorted, profiles))
        codes = map(add, map(mul, tops, itertools.repeat(width)), prices)
        codes = _code_array(codes, n * width * width - 1)
    sales: dict[tuple[int, int], Outcome] = {}
    decoded = {}
    for code in set(codes):
        top, price = (code, code // n) if mechanism.rank == 1 else divmod(code, width)
        winner, bid = n - top % n, top // n
        sale = winner, price
        out = sales.get(sale) or sales.setdefault(sale, _sale(n, winner, levels[price]))
        decoded[code] = out, bid
    return CodedTabulation(codes, decoded)


def _interned_codes(outcomes, n: int, width: int, by_value: bool = True) -> CodedTabulation:
    """Code outcomes given in flat order by outcome object and winner's bid level.

    With ``by_value`` equal outcomes are first made one object, the first
    of them; a table's outcomes are coded by the objects it holds.
    """
    interned: dict[Outcome, Outcome] = {}
    code_of: dict[tuple[int, int], int] = {}
    decoded = {}
    codes = []
    for out, bids in zip(outcomes, itertools.product(range(width), repeat=n)):
        if by_value:
            out = interned.setdefault(out, out)
        bid = bids[out.winner - 1] if out.winner else 0
        code = code_of.get((id(out), bid))
        if code is None:
            code = code_of[id(out), bid] = len(code_of)
            decoded[code] = out, bid
        codes.append(code)
    return CodedTabulation(_code_array(codes, len(code_of) - 1), decoded)


def _max_codes(columns) -> Sequence[int]:
    """``max(profile)`` for each profile of ``product(*columns)``, in flat order.

    ``columns[i]`` lists agent i's nonnegative int keys, one per level.
    When every key fits in a byte the agents are folded in from the last:
    the block of agents i to n - 1 is, for each of agent i's keys, the
    block of agents i + 1 to n - 1 raised to at least that key by one
    `bytes.translate`, and no profile is visited in Python.
    """
    top = max(map(max, columns))
    if top > 255:
        return _code_array(map(max, itertools.product(*columns)), top)
    codes = b"\0"
    for column in reversed(columns):
        codes = b"".join([codes.translate(_at_least(key)) if key else codes for key in column])
    return codes


@lru_cache(maxsize=256)
def _at_least(key: int) -> bytes:
    """The `bytes.translate` table that raises each byte to at least ``key``."""
    return bytes([key]) * key + bytes(range(key, 256))


def _gated(codes, gates) -> Sequence[int]:
    """``codes`` where ``gates``, of 0s and 1s, is 1, and 0 elsewhere."""
    gated = map(mul, codes, gates)
    return bytes(gated) if isinstance(codes, bytes) else array(codes.typecode, gated)


def _code_array(codes, top: int) -> Sequence[int]:
    """Codes of at most ``top``, as `bytes` when that fits in a byte, else as an `array`."""
    return bytes(codes) if top < 256 else array("I", codes)


def tabulate_outcomes(mechanism, grid: Grid) -> tuple[Outcome, ...]:
    """The mechanism's outcomes on every profile of ``grid^n``, in flat order.

    Read off `tabulate_codes`: equal outcomes are one shared object, but a
    table on its own grid keeps its own objects.
    """
    codes, decoded = tabulate_codes(mechanism, grid)
    return gather(codes, {code: out for code, (out, _) in decoded.items()})


def tabulate(mechanism, grid: Grid) -> MechanismTable:
    """Evaluate a mechanism on every grid profile and freeze the results."""
    return MechanismTable(grid, mechanism.n, tabulate_outcomes(mechanism, grid))


def recognize_threshold_form(table: MechanismTable) -> ThresholdSpec | None:
    """Recover a threshold spec that explains the table, or None.

    The first pass reads only the outcomes: losers must pay nothing and
    each winner one price, her threshold (INFINITY for an agent who never
    wins).  It returns None for any other table before any other test.
    The second pass, `recognize_on_signs`, reads the winners against the
    sign columns that `tabulate_outcomes` reads.
    """
    n = table.n
    prices: dict[int, Fraction] = {}
    for out in table.outcomes:
        w = out.winner - 1
        for j, payment in enumerate(out.payments):
            if j != w and payment:
                return None
        if w >= 0 and prices.setdefault(w, out.payments[w]) != out.payments[w]:
            return None
    thresholds = tuple(prices.get(i, INFINITY) for i in range(n))
    columns = [[_sign(level, t) for level in table.grid.levels] for t in thresholds]
    return recognize_on_signs(columns, [out.winner for out in table.outcomes], thresholds)


def recognize_on_signs(columns, winners, thresholds: tuple[ExtMoney, ...]) -> ThresholdSpec | None:
    """The threshold spec with these thresholds that explains the winners, or None.

    ``columns[i][k]`` is the sign (see `_sign`) of the grid's k-th level
    against agent i's threshold, and ``winners`` lists the winner codes,
    in flat order, of a table that charges each winner her threshold and
    nobody else anything.  Only signs are read, so the sweep of
    `verifier.characterization_experiment` passes those of level indices.

    Every winner must meet her threshold; wherever some bid strictly
    exceeds, the item must sell, and its winner beats every other meeting
    agent.  The ranking is a topological order of those facts, and None if
    they have a cycle.  Where nobody exceeds but somebody meets (a
    boundary profile), any meeting agent or nobody may win: every agent's
    payoff at the truth is the same either way.  The rule is
    `NO_ALLOCATION` when boundary profiles exist and none of them sold,
    else `HIGHEST_RANK_AT_THRESHOLD`, so the spec tabulates back to the
    table whenever either rule does.
    """
    n = len(thresholds)
    beats: dict[int, set[int]] = defaultdict(set)
    boundary_sold: set[bool] = set()
    for signs, winner in zip(itertools.product(*columns), winners):
        w = winner - 1
        if w >= 0 and signs[w] < 0:
            return None
        if 1 in signs:
            if w < 0:
                return None
            beats[w].update(j for j, s in enumerate(signs) if s >= 0 and j != w)
        elif 0 in signs:
            boundary_sold.add(w >= 0)

    order = _toposort(n, beats)
    if order is None:
        return None
    ranking = [0] * n
    for position, agent in enumerate(order, start=1):
        ranking[agent] = position
    if boundary_sold == {False}:
        rule = BoundaryRule.NO_ALLOCATION
    else:
        rule = BoundaryRule.HIGHEST_RANK_AT_THRESHOLD
    return ThresholdSpec(tuple(ranking), thresholds, rule)


def _toposort(n: int, beats: dict[int, set[int]]) -> list[int] | None:
    """Priority order consistent with the dominance facts, lowest index first."""
    incoming = {i: set() for i in range(n)}
    for winner, losers in beats.items():
        for loser in losers:
            incoming[loser].add(winner)
    order = []
    remaining = set(range(n))
    while remaining:
        ready = sorted(i for i in remaining if not (incoming[i] & remaining))
        if not ready:
            return None
        head = ready[0]
        order.append(head)
        remaining.remove(head)
    return order
