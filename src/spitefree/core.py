"""Bid grids, auction outcomes, and mechanism evaluation.

Conventions used throughout the package:

* Agents are 0-indexed in code.  An `Outcome.winner` of ``0`` means the item
  was not allocated; winner ``i + 1`` means agent ``i`` received it.  Reports
  and the CLI render agents 1-based.
* A `Grid` is a finite, strictly increasing menu of exact bid levels standing
  in for the nonnegative reals.  Verification verdicts are always relative to
  a grid; `closure_for_thresholds` builds grids that contain every finite
  threshold, a level strictly between consecutive critical values, and a
  level strictly above the largest one, so the classic witness bids
  ("exactly at the threshold", "just above") are representable.
* A tabulation is a tuple of outcomes in flat order: ``outcomes[flat]``
  belongs to the profile whose grid level indices, read as a number in
  base ``len(grid)`` with the last agent fastest, give ``flat``.  That is
  the order of `enumerate_profiles`, and a `MechanismTable` is a grid, an
  agent count and such a tuple.  It is read off a coded tabulation
  (`mechanisms.tabulate_codes`): one small int code per profile, in the
  same order, and one outcome per code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Protocol

from .money import ExtMoney, as_money, is_infinite, parse_amounts, parse_money, render_money


class DomainMismatchError(ValueError):
    """A profile does not belong to the mechanism's domain."""


@dataclass(frozen=True)
class Grid:
    """Strictly increasing tuple of exact bid levels."""

    levels: tuple[Fraction, ...]

    def __init__(self, levels: Iterable[int | Fraction]):
        normalized = tuple(sorted({as_money(level) for level in levels}))
        if not normalized:
            raise ValueError("a grid needs at least one level")
        object.__setattr__(self, "levels", normalized)
        # the dataclass's own hash, taken once: each tabulation cache lookup hashes the grid
        object.__setattr__(self, "_hash", hash((normalized,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        levels = parse_amounts(text, parse_money)
        if not levels:
            raise ValueError(f"empty grid: {text!r}")
        return cls(levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.levels)

    def __contains__(self, level: object) -> bool:
        return level in self.levels

    def render(self) -> str:
        return ",".join(render_money(level) for level in self.levels)


def closure_for_thresholds(
    thresholds: Iterable[ExtMoney], base: Iterable[int | Fraction] = ()
) -> Grid:
    """Grid containing the base levels plus witness levels for the thresholds.

    The critical values are zero and every finite threshold.  The result
    contains all of them, one level strictly between each consecutive pair,
    and one level strictly above the largest.  Infinite thresholds contribute
    nothing: no finite bid can reach them.
    """
    finite = sorted({as_money(t) for t in thresholds if not is_infinite(t)})
    levels = {Fraction(0), *finite, *(as_money(b) for b in base)}
    criticals = sorted({Fraction(0), *finite})
    for low, high in zip(criticals, criticals[1:]):
        levels.add((low + high) / 2)
    if finite:
        levels.add(finite[-1] + Fraction(1, 2))
    return Grid(levels)


@dataclass(frozen=True)
class Outcome:
    """Allocation and payment vector for a single-item auction.

    ``winner`` is 0 when the item stays unallocated, otherwise the 1-based
    agent code.  Payments are nonnegative and indexed by agent.
    """

    winner: int
    payments: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "payments", tuple(as_money(p) for p in self.payments))
        if not 0 <= self.winner <= len(self.payments):
            raise ValueError(
                f"winner code {self.winner} out of range for {len(self.payments)} agents"
            )

    @property
    def n(self) -> int:
        return len(self.payments)

    def winner_index(self) -> int | None:
        """0-based index of the winning agent, or None."""
        return self.winner - 1 if self.winner else None


class RankedSpec:
    """Base for specs that serve agents by a priority ranking.

    ``ranking[i]`` is the priority position of agent ``i`` (1 = served
    first).
    """

    @staticmethod
    def check_ranking(ranking, n: int) -> tuple[int, ...]:
        ranking = tuple(int(r) for r in ranking)
        if sorted(ranking) != list(range(1, n + 1)):
            raise ValueError(f"ranking {ranking} is not a permutation of 1..{n}")
        return ranking

    def priority_order(self) -> tuple[int, ...]:
        """Agent indices sorted from highest priority to lowest."""
        return tuple(sorted(range(len(self.ranking)), key=self.ranking.__getitem__))


def payoff(outcome, agent: int, value):
    """Quasi-linear payoff of ``agent`` (0-based) with true value ``value``.

    Winners get value minus payment, everyone else pays what the outcome says
    they pay (zero for any individually rational mechanism).  ``outcome`` is
    anything with a ``winner`` code and a ``payments`` vector: an `Outcome`
    with `Fraction` amounts, or the verifier's integer-scaled outcomes.  The
    agent index is not checked; `utility` is the checked public form.
    """
    payment = outcome.payments[agent]
    return value - payment if outcome.winner == agent + 1 else -payment


def utility(outcome: Outcome, agent: int, value: Fraction) -> Fraction:
    """`payoff` of ``agent``, a signed Fraction, after checking the agent index."""
    if not 0 <= agent < outcome.n:
        raise ValueError(f"agent index {agent} out of range")
    return payoff(outcome, agent, value)


def utility_vector(outcome: Outcome, values: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(values) != outcome.n:
        raise ValueError("value vector length does not match outcome")
    return tuple(utility(outcome, i, values[i]) for i in range(outcome.n))


def enumerate_profiles(grid: Grid, n: int) -> Iterator[tuple[Fraction, ...]]:
    """All bid profiles in ``grid^n``, lexicographic, last coordinate fastest."""
    if n < 1:
        raise ValueError("need at least one agent")
    return itertools.product(grid.levels, repeat=n)


class Mechanism(Protocol):
    """Anything that maps a full bid profile to an Outcome."""

    n: int

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome: ...


def evaluate(mechanism: Mechanism, bids: Iterable[int | Fraction]) -> Outcome:
    """Evaluate a mechanism on one bid profile.

    Pure dispatch: identical inputs give identical outcomes.  Raises
    `DomainMismatchError` when the profile does not fit the mechanism.
    """
    profile = tuple(as_money(b) for b in bids)
    if len(profile) != mechanism.n:
        raise DomainMismatchError(
            f"profile has {len(profile)} bids, mechanism expects {mechanism.n}"
        )
    return mechanism.outcome(profile)


@dataclass(frozen=True)
class MechanismTable:
    """Total tabulation of a mechanism over ``grid^n``, outcomes in flat order.

    ``outcomes[flat]`` is the outcome at the profile with that flat index
    (see the module docstring); `profiles`, `rows` and `outcome` are
    derived from the grid.  Construction checks only the number of
    outcomes and the width of each; `from_outcomes` also checks that a
    profile-keyed mapping covers the grid.  Equality and hashing are
    structural.
    """

    grid: Grid
    n: int
    outcomes: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if len(self.outcomes) != len(self.grid) ** self.n:
            raise DomainMismatchError(
                f"a table on {len(self.grid)} levels and {self.n} agents needs "
                f"{len(self.grid) ** self.n} outcomes, got {len(self.outcomes)}"
            )
        for outcome in self.outcomes:
            if outcome.n != self.n:
                raise DomainMismatchError("outcome width does not match agent count")

    @classmethod
    def from_outcomes(
        cls,
        grid: Grid,
        n: int,
        outcome_for: Mapping[tuple[Fraction, ...], Outcome],
    ) -> "MechanismTable":
        """The table of a profile-keyed mapping that covers ``grid^n`` exactly."""
        outcomes = []
        for profile in enumerate_profiles(grid, n):
            if profile not in outcome_for:
                raise DomainMismatchError(f"table is missing profile {profile}")
            outcomes.append(outcome_for[profile])
        if len(outcome_for) != len(outcomes):
            raise DomainMismatchError("table has rows outside the grid")
        return cls(grid, n, tuple(outcomes))

    @property
    def profiles(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(enumerate_profiles(self.grid, self.n))

    @property
    def rows(self) -> tuple[tuple[tuple[Fraction, ...], Outcome], ...]:
        """(profile, outcome) pairs in flat order."""
        return tuple(zip(enumerate_profiles(self.grid, self.n), self.outcomes))

    def outcome(self, bids: tuple[Fraction, ...]) -> Outcome:
        levels = self.grid.levels
        if len(bids) != self.n or any(b not in levels for b in bids):
            raise DomainMismatchError(f"profile {bids} is not on the table's grid")
        flat = 0
        for b in bids:
            flat = flat * len(levels) + levels.index(b)
        return self.outcomes[flat]


def render_profile(profile: tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(render_money(b) for b in profile) + ")"
