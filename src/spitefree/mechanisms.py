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
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import Grid, MechanismTable, Outcome, RankedSpec, enumerate_profiles
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
        from .core import DomainMismatchError

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
    payments = [Fraction(0)] * spec.n
    if winner:
        price = spec.thresholds[winner - 1]
        assert isinstance(price, Fraction)  # a finite bid cannot meet INFINITY
        payments[winner - 1] = price
    return Outcome(winner, tuple(payments))


def null_spec(n: int) -> ThresholdSpec:
    """The null mechanism: never allocates, never charges."""
    return ThresholdSpec(tuple(range(1, n + 1)), (INFINITY,) * n)


def second_price_outcome(bids: tuple[Fraction, ...]) -> Outcome:
    _require_benchmark_profile(bids)
    winner = max(range(len(bids)), key=bids.__getitem__)  # first max: lowest index
    price = max(bids[j] for j in range(len(bids)) if j != winner)
    payments = [Fraction(0)] * len(bids)
    payments[winner] = price
    return Outcome(winner + 1, tuple(payments))


def first_price_outcome(bids: tuple[Fraction, ...]) -> Outcome:
    _require_benchmark_profile(bids)
    winner = max(range(len(bids)), key=bids.__getitem__)
    payments = [Fraction(0)] * len(bids)
    payments[winner] = bids[winner]
    return Outcome(winner + 1, tuple(payments))


def _require_benchmark_profile(bids: tuple[Fraction, ...]) -> None:
    if len(bids) < 2:
        raise ValueError("price benchmarks need at least two agents")


@dataclass(frozen=True)
class SecondPriceMechanism:
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("second price needs at least two agents")

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        return second_price_outcome(bids)


@dataclass(frozen=True)
class FirstPriceMechanism:
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("first price needs at least two agents")

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        return first_price_outcome(bids)


def tabulate_outcomes(mechanism, grid: Grid) -> tuple[Outcome, ...]:
    """The mechanism's outcomes on every profile of ``grid^n``, in flat order.

    Equal outcomes are one shared object.  A `ThresholdSpec` is read off
    its sign columns: each threshold is compared with each grid level once,
    and each distinct tuple of signs, and each winner, is resolved once.
    Any other mechanism is evaluated profile by profile.
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
    """Recover a threshold spec whose tabulation matches the table, or None.

    Candidate thresholds come from the winners' payments (which a threshold
    mechanism keeps constant per agent), the candidate ranking from the
    winners at profiles where somebody strictly exceeds.  The match tolerates
    the boundary-rule freedom: at profiles where nobody strictly exceeds, any
    exactly-tied agent (or nobody) may win at her threshold price.

    A table in which some agent wins at two different prices, or a loser
    pays, is never threshold form: the first stage returns None for it
    before any other test.  `verifier.characterization_experiment` relies
    on this to skip such tables without building them.
    """
    n = table.n
    rows = table.rows
    wins: dict[int, list[tuple[tuple[Fraction, ...], Outcome]]] = {i: [] for i in range(n)}
    for profile, outcome in rows:
        w = outcome.winner_index()
        for j, payment in enumerate(outcome.payments):
            if j != w and payment != 0:
                return None
        if w is not None:
            wins[w].append((profile, outcome))

    thresholds: list[ExtMoney] = []
    for i in range(n):
        if not wins[i]:
            thresholds.append(INFINITY)
            continue
        payments = {outcome.payments[i] for _, outcome in wins[i]}
        if len(payments) != 1:
            return None
        price = payments.pop()
        if any(profile[i] < price for profile, _ in wins[i]):
            return None
        thresholds.append(price)

    beats: dict[int, set[int]] = defaultdict(set)
    for profile, outcome in rows:
        meets = [j for j in range(n) if profile[j] >= thresholds[j]]
        if not any(profile[j] > thresholds[j] for j in meets):
            continue
        w = outcome.winner_index()
        if w is None or w not in meets:
            return None
        beats[w].update(j for j in meets if j != w)

    order = _toposort(n, beats)
    if order is None:
        return None
    ranking = [0] * n
    for position, agent in enumerate(order, start=1):
        ranking[agent] = position

    for rule in (BoundaryRule.HIGHEST_RANK_AT_THRESHOLD, BoundaryRule.NO_ALLOCATION):
        spec = ThresholdSpec(tuple(ranking), tuple(thresholds), rule)
        if tabulate_outcomes(spec, table.grid) == table.outcomes:
            return spec
    spec = ThresholdSpec(tuple(ranking), tuple(thresholds))
    if _matches_with_boundary_freedom(spec, table):
        return spec
    return None


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


def _matches_with_boundary_freedom(spec: ThresholdSpec, table: MechanismTable) -> bool:
    zero = Fraction(0)
    for profile, outcome in table.rows:
        meets = [j for j in range(spec.n) if profile[j] >= spec.thresholds[j]]
        exceeds = any(profile[j] > spec.thresholds[j] for j in meets)
        if exceeds:
            expected = threshold_outcome(spec, profile)
            if outcome != expected:
                return False
        elif meets:
            w = outcome.winner_index()
            if w is None:
                if any(p != zero for p in outcome.payments):
                    return False
            else:
                if w not in meets:
                    return False
                for j, payment in enumerate(outcome.payments):
                    expected_payment = spec.thresholds[w] if j == w else zero
                    if payment != expected_payment:
                        return False
        else:
            if outcome.winner != 0 or any(p != zero for p in outcome.payments):
                return False
    return True
