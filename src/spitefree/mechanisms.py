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
above), so it is stated once, in `_threshold_winner`, on those signs.
`threshold_outcome` applies it to one profile; `tabulate_outcomes` compares
each threshold with each grid level once and applies it to every profile of
``grid^n``, with one shared `Outcome` per winner code.
`recognize_threshold_form` reads a table's outcomes against the same sign
columns to recover a spec, without tabulating one; its second pass,
`recognize_on_signs`, reads only signs and winner codes.

First and second price are one order rule, `_price_rule`: the first
highest bid wins and pays the ``rank``-th highest bid (rank 1 and 2).  It
reads bids only by their order, and a grid's levels are strictly
increasing, so `tabulate_outcomes` applies it to level indices and builds
one shared `Outcome` per (winner, price level).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import ClassVar

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


def _sale(n: int, winner: int, price: Fraction) -> Outcome:
    """The outcome in which ``winner`` (a code, 0 = unsold) pays ``price`` and nobody else pays."""
    payments = [Fraction(0)] * n
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


def tabulate_outcomes(mechanism, grid: Grid) -> tuple[Outcome, ...]:
    """The mechanism's outcomes on every profile of ``grid^n``, in flat order.

    Equal outcomes are one shared object.  A `ThresholdSpec` is read off
    its sign columns: each threshold is compared with each grid level once,
    and each distinct tuple of signs, and each winner, is resolved once.
    First and second price read bids only by order, so their rule runs on
    level indices, and each (winner, price level) is one `Outcome`.  Any
    other mechanism is evaluated profile by profile.
    """
    if isinstance(mechanism, ThresholdSpec):
        columns = [[_sign(level, t) for level in grid.levels] for t in mechanism.thresholds]
        by_signs: dict[tuple[int, ...], Outcome] = {}
        by_winner: dict[int, Outcome] = {}
        outcomes = []
        for signs in itertools.product(*columns):
            out = by_signs.get(signs)
            if out is None:
                winner = _threshold_winner(mechanism, signs)
                out = by_winner.get(winner)
                if out is None:
                    out = by_winner[winner] = _threshold_result(mechanism, winner)
                by_signs[signs] = out
            outcomes.append(out)
        return tuple(outcomes)
    if isinstance(mechanism, _PriceMechanism):
        levels = grid.levels
        by_sale: dict[tuple[int, int], Outcome] = {}
        outcomes = []
        for profile in itertools.product(range(len(levels)), repeat=mechanism.n):
            winner, at = _price_rule(profile, mechanism.rank)
            sale = (winner, profile[at])
            out = by_sale.get(sale)
            if out is None:
                out = by_sale[sale] = _sale(mechanism.n, winner + 1, levels[sale[1]])
            outcomes.append(out)
        return tuple(outcomes)
    interned: dict[Outcome, Outcome] = {}
    return tuple(
        [
            interned.setdefault(out, out)
            for out in map(mechanism.outcome, enumerate_profiles(grid, mechanism.n))
        ]
    )


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
