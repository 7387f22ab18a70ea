"""Builtin single-item mechanisms and threshold-form recognition.

A threshold mechanism is given by a priority ranking over the agents and a
per-agent price threshold (possibly infinite).  Whenever some bid strictly
exceeds its threshold, the item goes to the highest-priority agent whose bid
weakly meets her threshold, at her threshold price.  When every bid is weakly
below and at least one is exactly at its threshold, the boundary rule decides
between allocating to the highest-priority tied agent and not allocating.
The null mechanism (never allocate, never charge) is the all-infinite special
case.
"""

from __future__ import annotations

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
    meets = [i for i in range(n) if bids[i] >= spec.thresholds[i]]
    zero = Fraction(0)
    if not meets:
        return Outcome(0, (zero,) * n)
    exceeds = any(bids[i] > spec.thresholds[i] for i in meets)
    if not exceeds and spec.boundary_rule is BoundaryRule.NO_ALLOCATION:
        return Outcome(0, (zero,) * n)
    winner = min(meets, key=spec.ranking.__getitem__)
    price = spec.thresholds[winner]
    assert isinstance(price, Fraction)  # a finite bid cannot meet INFINITY
    payments = [zero] * n
    payments[winner] = price
    return Outcome(winner + 1, tuple(payments))


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


def tabulate(mechanism, grid: Grid, n: int | None = None) -> MechanismTable:
    """Evaluate a mechanism on every grid profile and freeze the results."""
    agents = mechanism.n if n is None else n
    if agents != mechanism.n:
        from .core import DomainMismatchError

        raise DomainMismatchError(f"mechanism has {mechanism.n} agents, asked for {agents}")
    interned: dict[Outcome, Outcome] = {}
    rows = []
    for profile in enumerate_profiles(grid, agents):
        outcome = mechanism.outcome(profile)
        outcome = interned.setdefault(outcome, outcome)
        rows.append((profile, outcome))
    return MechanismTable(grid, agents, tuple(rows))


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
    wins: dict[int, list[tuple[tuple[Fraction, ...], Outcome]]] = {i: [] for i in range(n)}
    for profile, outcome in table.rows:
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
    for profile, outcome in table.rows:
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
        if tabulate(spec, table.grid) == table:
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
