"""Exhaustive property checks over finite bid grids.

All checks quantify truthful value profiles and deviations over the grid, so
a pass certifies the property on that grid only; a fail is a genuine
counterexample.  Use `closure_for_thresholds` to build grids on which the
classic witnesses (bid exactly at a threshold, bid just above) exist.

The IC, SIC and ESIC clauses are stated once, as one classification of
a deviation that `deviation_clause` reads.  They are nested: ESIC fails
wherever SIC does, and SIC wherever IC does.  `_Lattice.deviations`
walks any product of per-agent domains line by line: a line lets one
agent's report run over her domain while the others' stay fixed, its
outcomes are read once and split into runs of equal outcomes, and each
truthful position is classified once against each other run.  A line
is keyed by its profiles' codes (`_Lattice.codes`), and one whose key
its agent has met before is skipped, so each distinct line of an agent
is judged once; a lattice of one outcome walks no line at all.  The
single-item checks, the multi-item checks, the sweep's line verdicts
and witness replay share the clauses.  A property's first failure, and
its count, are those of the deviation-by-deviation order: profiles,
then agents, then deviations.  The walk keeps the first failure of each
of the three that it finds, and a lattice keeps what its walks found
(`_Lattice.deviations`): IC, SIC and ESIC asked for in that order, as
`verify` asks by default, take one walk of one lattice.  A walk stops at
the first line that starts after its own check's first failure, so a
check whose first failure may lie further on walks again: SIC or IC
asked for after ESIC failed, IC after SIC failed.

Every check compares Python ints on a `_Lattice`: each agent's domain
as ints and the outcomes with every amount times a common denominator
D, gathered once per grid from a coded tabulation (`_grid_lattice`) or
built from bundle domains (see `multiitem`).  The checks read the
outcomes by flat index (see `domain_strides`), profile by profile or
line by line (see `_line_starts`).  A lattice also holds each profile's
payoff row, everyone's payoff times D there (`_Lattice.rows`), built
with its outcomes before any check runs: at each agent's bid on a grid,
where one tuple, built once per code, is shared by every profile with
the same outcome and winner's bid, and on a bundle lattice at each
agent's bid or, given a truth, at everyone's truth on the n lines
through it, one tuple per distinct row.  IR reads each code's row
once, and the deviation walk reads the truthful row and the others'
entries of the row at a run's first position, so each pair of a
truthful position and another run costs one `utility` call, the
deviator's payoff at her truth.  Ints compare exactly as the fractions
do, so verdicts, checked counts and first witnesses are those of the
fractions.  A check returns only where it failed, as flat indices (a
`_Finding`); `_Lattice.report` names each profile by the positions the
check visited in the caller's domains, which are the first equal
entries because equal entries give equal outcomes, and adds `Fraction`
payoffs and the mechanism's own outcomes.  No check compares two
`Fraction`s: they appear only in parsing, in the mechanism's own
outcomes, in witnesses and their replay, and in rendering.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from operator import methodcaller, ne
from typing import Callable, NamedTuple, Sequence

from .core import (
    DomainMismatchError,
    Grid,
    MechanismTable,
    Outcome,
    closure_for_thresholds,
    payoff,
    render_profile,
    utility_vector,
)
from .mechanisms import CodedTabulation, ThresholdSpec, gather, recognize_on_signs, tabulate_codes
from .money import INFINITY, render_money
from .reports import Property, PropertyReport, Witness


class BudgetExceededError(RuntimeError):
    """An enumeration was about to blow past its configured cap."""


class CharacterizationMismatchError(AssertionError):
    """A table broke the spite-proof/threshold-form coincidence."""

    def __init__(self, table: MechanismTable, sic: bool, spec) -> None:
        self.table = table
        self.sic = sic
        self.spec = spec
        lines = [
            f"table is {'SIC' if sic else 'not SIC'} but "
            f"{'recognized as threshold form' if spec is not None else 'not threshold form'}:"
        ]
        for profile, out in table.rows:
            pays = ", ".join(render_money(p) for p in out.payments)
            lines.append(f"  {render_profile(profile)} -> winner={out.winner} pays=({pays})")
        super().__init__("\n".join(lines))


class _ScaledOutcome(NamedTuple):
    """An `Outcome` with every payment multiplied by a lattice's denominator."""

    winner: int
    payments: tuple[int, ...]


# The lattice's tuples are built from lists.  A tuple built from a generator
# is resized as it grows; with lattices turning over in the tabulation cache
# that fragmented the heap, and peak RSS crept up by about 0.6 MB over 40
# passes of the posted-price benchmark.
def _scaled(amounts, denominator: int) -> tuple[int, ...]:
    return tuple([a.numerator * (denominator // a.denominator) for a in amounts])


def _lcm_of_denominators(amounts) -> int:
    return math.lcm(*{a.denominator for a in amounts})


# Witness shapes, read by `_Lattice.report` and `confirm_witness`.  A
# witness of a property in `_ONE_PROFILE` names one profile, and one in
# `_MOVES` names ``agent``'s unilateral move to ``deviation``; ANON names a
# relabeling by ``permutation`` and WINNER_PRICE_CONSTANT two winning
# profiles.  A witness of a property in `_PAYOFFS` carries everyone's
# payoffs, at their true values, at each of its profiles.
_ONE_PROFILE = frozenset({Property.IR, Property.EFF, Property.LOSER_PAYS_NOTHING})
_MOVES = frozenset({
    Property.IC, Property.SIC, Property.ESIC,
    Property.PAYMENT_OWN_BID_INVARIANT, Property.WIN_PRESERVED_BY_RAISE,
})
_PAYOFFS = frozenset({Property.IR, Property.IC, Property.SIC, Property.ESIC})


class _Finding(NamedTuple):
    """A lattice check's count of cases and, if one failed, where.

    ``flat`` is the failing profile's flat index (see `domain_strides`),
    None when every case passed; ``other`` is the witness's second
    profile, if it has one.  `_Lattice.report` names them.
    """

    property: Property
    checked: int
    flat: int | None = None
    agent: int | None = None
    other: int | None = None
    permutation: tuple[int, ...] | None = None
    note: str = ""


@dataclass(frozen=True)
class _Lattice:
    """A mechanism's outcomes on the integer lattice of a common denominator D.

    ``domains[i]`` is what the kernels read as agent i's domain: one int
    per entry, and two entries are the same value exactly when their ints
    are equal.  ``outcomes[flat]`` is the outcome at the profile with that
    flat index (see `domain_strides`), its payments times D, and
    ``originals[flat]`` the mechanism's own outcome there.
    ``utility(outcome, i, value)`` is agent i's payoff times D, and
    ``rows[flat][j]`` is agent j's payoff times D at that profile: IR and
    the deviation walk read everyone's payoffs there, and call
    ``utility`` only for a deviator's payoff at her truth.  A grid lattice
    (`_grid_lattice`) holds each level times D, every profile in a tuple,
    uses `payoff` and values each agent at her bid; its outcomes,
    originals and rows are gathered from a coded tabulation, one row
    tuple per code, that is per distinct outcome and winner's bid.  A
    bundle lattice (see `multiitem`) holds one int per distinct valuation.  Without a
    ``truth`` its outcomes and rows are tuples over every profile, each
    agent valued at her bid; with a ``truth`` (per-agent domain indices)
    they are dicts over the n lines through it, everyone valued at her
    truth.  Equal rows are one tuple.  The two readings agree on what the
    walks read: the truthful profile's row, and the others' entries where
    one agent deviates.  Without a ``truth``, ``codes[flat]`` is a small
    int per profile, `bytes` or an `array`, and two profiles with one code
    have one outcome and one row: a grid lattice keeps its tabulation's
    codes as they are, and a bundle lattice codes each distinct pair of
    outcome and row.  IR judges each code's row once, and the deviation
    walk each distinct line of codes of an agent once.  Every lattice is
    built in full before any check reads it.
    """

    denominator: int
    domains: tuple[tuple[int, ...], ...]
    outcomes: tuple | dict
    originals: tuple | dict
    rows: tuple | dict
    utility: Callable = payoff
    truth: tuple[int, ...] | None = None
    codes: Sequence[int] | None = None
    # the findings of ESIC, SIC and IC known so far (see `deviations`)
    _found: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def deviations(self, prop: Property) -> _Finding:
        """The finding of ``prop`` (IC, SIC or ESIC), walking only if it is not known.

        The walk reads the lattice line by line, or with a ``truth`` only
        the n lines through it, and keeps every finding it reaches (see
        `_deviation_findings`), so IC, SIC and ESIC share one walk when IC
        is asked for first.  A walk stops at the first line that starts
        after ``prop``'s first failure, which leaves the later properties
        unknown unless the same deviation broke them: SIC or IC after ESIC
        failed, IC after SIC failed.
        """
        if prop not in self._found:
            self._found.update(
                _deviation_findings(
                    prop, self.domains, self.outcomes, self.rows, self.utility, self.truth,
                    self.codes,
                )
            )
        return self._found[prop]

    def ir(self) -> _Finding:
        """The finding of IR, read off the truthful profiles' rows."""
        return _ir_finding(self.domains, self.rows, self.truth, self.codes)

    def report(self, found: _Finding, domains) -> PropertyReport:
        """``found`` as a report, its witness named in ``domains``.

        Each profile is named by the positions its check visited in
        the caller's own domains; equal entries stand for one int and
        give equal outcomes, so the first failure sits at the first
        equal entry.  Payoffs are recomputed with ``utility`` at the
        truthful values and divided by D, and outcomes are the
        mechanism's own.
        """
        prop, flat, other, agent = found.property, found.flat, found.other, found.agent
        if flat is None:
            return PropertyReport(prop, True, None, found.checked)
        strides = domain_strides(self.domains)

        def entries(names, index):
            return tuple(dom[index // s % len(dom)] for dom, s in zip(names, strides))

        truth = entries(self.domains, flat)

        def payoffs(index):
            out, d = self.outcomes[index], self.denominator
            return tuple(Fraction(self.utility(out, j, v), d) for j, v in enumerate(truth))

        profile = entries(domains, flat)
        moved = None if other is None else entries(domains, other)
        witness = Witness(
            profile=profile,
            deviation_profile=moved,
            agent=agent,
            deviation=moved[agent] if prop in _MOVES else None,
            permutation=found.permutation,
            utilities_before=payoffs(flat) if prop in _PAYOFFS else None,
            utilities_after=payoffs(other) if prop in _PAYOFFS and other is not None else None,
            outcome_before=self.originals[flat],
            outcome_after=None if other is None else self.originals[other],
            note=found.note,
        )
        return PropertyReport(prop, False, witness, found.checked)


def _grid_lattice(levels, n: int, coded: CodedTabulation) -> _Lattice:
    """The lattice of a coded tabulation (see `CodedTabulation`) on ``levels`` to the n-th power.

    D is the least common denominator of the levels and of every payment.
    Each outcome object is scaled once, and each code, which stands for
    one outcome and one bid of its winner, gets one payoff row; the
    lattice's outcomes, originals and rows are then gathered from the
    codes, with no loop over the profiles, and the lattice keeps the
    codes themselves, not copied.
    """
    codes, decoded = coded
    distinct = {id(out): out for out, _ in decoded.values()}
    d = _lcm_of_denominators([*levels, *(p for out in distinct.values() for p in out.payments)])
    scaled = {
        key: _ScaledOutcome(out.winner, _scaled(out.payments, d)) for key, out in distinct.items()
    }
    ints = _scaled(levels, d)
    originals = {code: out for code, (out, _) in decoded.items()}
    outcomes = {code: scaled[id(out)] for code, out in originals.items()}
    rows = {code: _payoff_row(outcomes[code], ints[bid]) for code, (_, bid) in decoded.items()}
    return _Lattice(
        d, (ints,) * n, gather(codes, outcomes), gather(codes, originals), gather(codes, rows),
        codes=codes,
    )


def _payoff_row(out, bid: int) -> tuple[int, ...]:
    """Everyone's payoff in the scaled outcome ``out`` when its winner bids ``bid``."""
    return tuple([bid - p if j == out.winner - 1 else -p for j, p in enumerate(out.payments)])


# One verify checks one (mechanism, grid) pair up to eight times, and the
# sweep checks one recognized spec twice; a few entries serve both.
@lru_cache(maxsize=4)
def _cached_tabulation(mechanism, grid: Grid) -> _Lattice:
    return _grid_lattice(grid.levels, mechanism.n, tabulate_codes(mechanism, grid))


def _tabulation(mechanism, grid: Grid) -> _Lattice:
    if isinstance(mechanism, MechanismTable):
        if mechanism.grid != grid:
            raise DomainMismatchError("tables can only be checked on their own grid")
        return _grid_lattice(grid.levels, mechanism.n, tabulate_codes(mechanism, grid))
    return _cached_tabulation(mechanism, grid)


# The three clauses are nested: a deviation that breaks IC breaks SIC, and
# one that breaks SIC breaks ESIC.  So a deviation breaks the first
# `_broken` of these, and each one's first failure comes no later than
# the next one's.
_NESTED = (Property.ESIC, Property.SIC, Property.IC)
_OWN_GAIN = "deviation strictly raises the deviator's payoff"
_SPITE = {
    Property.ESIC: "payoff-neutral deviation strictly harms another agent",
    Property.SIC: "payoff-neutral deviation harms some agent and helps none",
}


def _broken(agent: int, before, own, after) -> int:
    """How many of ESIC, SIC and IC, in that order, ``agent``'s deviation breaks.

    ``own`` is her payoff after it, and ``after`` the others' (her own
    entry is not read).  IC forbids own gain (all three break); SIC also
    forbids a payoff-neutral deviation that harms someone while helping
    nobody (two); ESIC also forbids one that harms someone at all (one).
    """
    if own != before[agent]:
        return 3 if own > before[agent] else 0
    harmed = helped = False
    for j, (u_before, u_after) in enumerate(zip(before, after)):
        if j == agent:
            continue
        if u_after < u_before:
            harmed = True
        elif u_after > u_before:
            helped = True
    return 0 if not harmed else 1 if helped else 2


def _clause(prop: Property, broken: int) -> str:
    """The clause of ``prop`` a deviation that breaks ``broken`` of `_NESTED` breaks."""
    return _OWN_GAIN if broken == 3 else _SPITE[prop]


def deviation_clause(prop: Property, agent: int, before, after) -> str | None:
    """The clause of ``prop`` that ``agent``'s deviation breaks, or None.

    ``before`` and ``after`` are everyone's payoffs, at their true values,
    before and after the deviation.  IC forbids own gain; SIC also forbids
    a payoff-neutral deviation that harms someone while helping nobody;
    ESIC also forbids one that harms someone at all.  So ESIC fails
    wherever SIC does, and SIC wherever IC does: the verdict is read off
    one classification of the deviation, the one `_Lattice.deviations` makes.
    """
    broken = _broken(agent, before, after[agent], after)
    return _clause(prop, broken) if broken > _NESTED.index(prop) else None


def domain_strides(domains) -> list[int]:
    """Flat-index step of a one-place move in each agent's domain.

    A flat index reads the per-agent domain indices of a profile as a
    mixed-radix number, last agent fastest.
    """
    strides = [1] * len(domains)
    for k in range(len(domains) - 2, -1, -1):
        strides[k] = strides[k + 1] * len(domains[k + 1])
    return strides


def _truthful_points(domains, strides, truth):
    """(flat index, per-agent domain indices, values) of each truthful profile."""
    if truth is None:
        digits = itertools.product(*(range(len(d)) for d in domains))
        return zip(itertools.count(), digits, itertools.product(*domains))
    values = tuple(dom[k] for dom, k in zip(domains, truth))
    return [(sum(k * s for k, s in zip(truth, strides)), tuple(truth), values)]


def _ir_finding(domains, rows, truth, codes) -> _Finding:
    """Truthful reporting never yields a negative payoff, read off payoff rows (see `_Lattice`).

    ``truth``, per-agent domain indices, makes one profile the truth; by
    default every profile takes its turn, profile by profile, then agent
    by agent.  Profiles with one code share one row, so each code's row
    is read once, at its first profile, and the first failing profile is
    the first among those whose row has a negative entry.
    """
    n = len(domains)
    if truth is None:
        # each code's first profile, in one pass over the codes from the end
        flats = sorted(dict(zip(reversed(codes), reversed(range(len(codes))))).values())
        profiles = len(codes)
    else:
        flats, profiles = [sum(k * s for k, s in zip(truth, domain_strides(domains)))], 1
    for flat in flats:
        row = rows[flat]
        if row and min(row) < 0:
            i = next(j for j, u in enumerate(row) if u < 0)
            k = flat if truth is None else 0  # the profiles before it
            return _Finding(Property.IR, n * k + i + 1, flat, i, note="truthful payoff is negative")
    return _Finding(Property.IR, n * profiles)


def _deviation_findings(stop, domains, outcomes, rows, utility, truth=None, codes=None) -> dict:
    """The findings of ESIC, SIC and IC that one walk reaches before ``stop`` fails.

    ``rows`` are the payoff rows of ``outcomes`` (see `_Lattice`).  The
    walk reads the lattice line by line, lines in order of their first
    profile (`_lines_in_order`), or with a ``truth`` the n lines through
    it; each line's outcomes are read once, and `_line_breaks` classifies
    its deviations run by run.  Given the lattice's ``codes``, each line
    is keyed by its codes, and a line whose key its agent has met before
    is skipped before any outcome or row of it is read: equal codes give
    equal outcomes and rows, nothing else that `_line_breaks` reads
    differs between two lines of one agent, and the first line with the
    key had smaller flat indices for every pair of truthful and moved
    positions, so a later one holds no earlier failure.  Without a
    ``truth``, a lattice whose outcomes are all equal walks no line.  A
    property's first failure is
    the least of the deviations found to break it in the order of
    profiles, then agents, then deviations, and its count is the number
    of deviations up to it in that order, taken in closed form
    (`_deviations_up_to`).  The failures are nested, so they come in the
    order ESIC, SIC, IC.  No line that starts after ``stop``'s first
    failure holds an earlier one, so the walk stops at the first such
    line; the findings are then those of the properties that fail no
    later than ``stop`` does, and a later property is missing.  If
    ``stop`` never fails, every property still standing passes with the
    total count.
    """
    strides = domain_strides(domains)
    goal = _NESTED.index(stop) + 1
    # per property of `_NESTED`: (flat, agent, position, moved, broken) of its first failure so far
    best = [None, None, None]
    if truth is not None:
        at = sum(k * s for k, s in zip(truth, strides))
        lines = [(at - k * s, i) for i, (k, s) in enumerate(zip(truth, strides))]
    elif outcomes.count(outcomes[0]) == len(outcomes):
        lines = ()  # one outcome: no deviation changes it
    else:
        lines = _lines_in_order(tuple(map(len, domains)))
    # per agent: her domain, stride, a line's span of flat indices, and her truthful positions
    shapes = [
        (dom, s, len(dom) * s, range(len(dom)) if truth is None else range(truth[j], truth[j] + 1))
        for j, (dom, s) in enumerate(zip(domains, strides))
    ]
    # per agent: the keys of her lines met so far; an array's slice is keyed by its bytes
    seen = None if codes is None else [set() for _ in domains]
    as_bytes = isinstance(codes, array)
    horizon = math.inf  # the last start of a line that may hold an earlier failure of ``stop``
    for start, i in lines:
        if start > horizon:
            break
        dom, stride, span, truths = shapes[i]
        if seen is not None:
            line = codes[start : start + span : stride]
            if as_bytes:
                line = line.tobytes()
            keys = seen[i]
            if line in keys:
                continue  # judged at its first line, which holds every failure it holds first
            keys.add(line)
        flats = range(start, start + span, stride)
        if truth is None:
            outs = outcomes[start : start + span : stride]
        else:
            outs = [outcomes[f] for f in flats]
        if outs.count(outs[0]) == len(outs):
            continue  # one run: no deviation on the line changes the outcome
        floor = 0  # the properties of `_NESTED` that the line has broken so far
        for t, r, broken in _line_breaks(i, outs, flats, rows, dom, utility, truths, 0, goal):
            key = (flats[t], i, r)
            for p in range(floor, broken):
                if best[p] is None or key < best[p][:3]:
                    best[p] = (*key, flats[r], broken)
            floor = broken
        if truth is None and best[goal - 1] is not None:
            horizon = best[goal - 1][0]  # no line that starts later holds an earlier failure
    found = {}
    stopped = best[goal - 1]
    total = _deviations_up_to(domains, truth) if stopped is None else None
    for p, prop in enumerate(_NESTED):
        hit = best[p]
        if hit is None:
            if stopped is None:
                found[prop] = _Finding(prop, total)
        elif p < goal or hit == stopped:
            flat, agent, position, moved, broken = hit
            checked = _deviations_up_to(domains, truth, flat, agent, position)
            found[prop] = _Finding(prop, checked, flat, agent, moved, note=_clause(prop, broken))
    return found


def _line_breaks(i, outs, flats, rows, values, utility, truths: range, floor, goal) -> list:
    """The first deviations on one line of agent ``i`` to break each of `_NESTED` past ``floor``.

    At the line's k-th position, profile ``flats[k]``, agent i reports
    ``values[k]`` and the outcome is ``outs[k]``; ``rows`` holds the payoff
    rows by flat index.  The line's outcomes split into runs of equal
    outcomes; a line of one run breaks nothing.  Each position in
    ``truths`` is classified (`_broken`) once against each run whose
    outcome differs from its own, at the run's first position: only agent
    i's report moves, so the others' payoffs after the move and her own at
    her truth depend on the moved outcome alone.  Positions, then runs,
    are taken in order, which is the order of deviations on the line.
    Returns (truthful position, moved position, broken) for each
    classification that breaks more of `_NESTED` than any before it on
    the line and more than ``floor``, stopping at the first that breaks
    ``goal`` of them.
    """
    width = len(outs)
    starts = [0, *itertools.compress(range(1, width), map(ne, outs[1:], outs))]
    runs = list(zip(starts, map(outs.__getitem__, starts)))
    found = []
    for t in truths:
        out_t, before = outs[t], rows[flats[t]]
        value, mine = values[t], before[i]
        for r, out_r in runs:
            if out_r is not out_t and out_r != out_t:
                own = utility(out_r, i, value)
                if own < mine:
                    continue
                if own > mine:
                    broken = 3
                elif floor >= 2:
                    continue  # a payoff-neutral move breaks nothing past SIC
                else:
                    broken = _broken(i, before, own, rows[flats[r]])
                if broken > floor:
                    found.append((t, r, broken))
                    floor = broken
                    if broken >= goal:
                        return found
    return found


def _deviations_up_to(domains, truth, flat=None, agent=None, position=None) -> int:
    """How many deviations come up to ``agent``'s report of ``position`` at profile ``flat``.

    Profiles, then agents, then deviations: every deviation at each
    truthful profile before ``flat``, every one of each agent before
    ``agent`` at ``flat``, and hers up to ``position`` in her domain.  With
    ``flat`` None, every deviation.  An agent deviates to each entry that
    differs from her truth, so the count subtracts each entry's repeats.
    """
    end = math.prod(map(len, domains)) if flat is None else flat
    count = 0
    for j, (dom, stride) in enumerate(zip(domains, domain_strides(domains))):
        width = len(dom)
        tally = Counter(dom)
        repeats = list(map(tally.__getitem__, dom))
        if truth is None:
            # the profiles before ``end``: whole cycles of her domain, whole entries, and a part
            cycles, rest = divmod(end, stride * width)
            whole, part = divmod(rest, stride)
            same = stride * (cycles * sum(repeats) + sum(repeats[:whole])) + part * repeats[whole]
            count += end * width - same
        if flat is None:
            if truth is not None:
                count += width - repeats[truth[j]]
        elif j < agent:
            count += width - repeats[flat // stride % width]
        elif j == agent:
            own = dom[flat // stride % width]
            count += sum(1 for v in dom[: position + 1] if v != own)
    return count


def _lines_in_order(widths):
    """(first flat index, agent) of every line of a lattice of these widths, in that order.

    A profile starts the line of each agent whose domain index there is 0.
    The profiles are taken a row at a time, a row letting the last agent's
    index run while the others' stay fixed: the row's first profile starts
    her line, and each of its profiles a line of every other agent whose
    index is 0.  Lines are made as they are taken, so none is held.
    """
    if not widths or 0 in widths:
        return  # no agent, or no profile: no line
    *others, width = widths
    last = len(others)
    for row, digits in enumerate(itertools.product(*map(range, others))):
        base = row * width
        if 0 not in digits:
            yield base, last
            continue
        zeros = [j for j, d in enumerate(digits) if d == 0]
        for flat in range(base, base + width):
            for j in zeros:
                yield flat, j
            if flat == base:
                yield flat, last


def _on_lattice(check, mechanism, grid: Grid) -> PropertyReport:
    """``check(lattice)`` on the mechanism's lattice, witness on the grid."""
    lattice = _tabulation(mechanism, grid)
    return lattice.report(check(lattice), (grid.levels,) * mechanism.n)


def check_ir(mechanism, grid: Grid) -> PropertyReport:
    """Truthful bidding never yields a negative payoff."""
    return _on_lattice(methodcaller("ir"), mechanism, grid)


def check_ic(mechanism, grid: Grid) -> PropertyReport:
    return _on_lattice(methodcaller("deviations", Property.IC), mechanism, grid)


def check_sic(mechanism, grid: Grid) -> PropertyReport:
    return _on_lattice(methodcaller("deviations", Property.SIC), mechanism, grid)


def check_esic(mechanism, grid: Grid) -> PropertyReport:
    return _on_lattice(methodcaller("deviations", Property.ESIC), mechanism, grid)


def check_anonymous(mechanism, grid: Grid, profiles=None) -> PropertyReport:
    """Relabeling agents permutes the outcome; checked on every permutation.

    ``profiles`` restricts the evaluation points (e.g. to tie-free profiles,
    to separate essential asymmetry from tie-break asymmetry).
    """
    truths = None
    if profiles is not None:
        levels = grid.levels
        truths = []
        for p in profiles:
            if len(p) != mechanism.n or any(b not in levels for b in p):
                raise DomainMismatchError(f"profile {tuple(p)} is not on the grid")
            truths.append(tuple(levels.index(b) for b in p))
    return _on_lattice(
        lambda lattice: _anonymity_check(lattice.domains, lattice.outcomes, truths), mechanism, grid
    )


def _anonymity_check(domains, outcomes, truths=None) -> _Finding:
    """`check_anonymous` on a lattice; ``truths`` lists per-agent domain indices."""
    n = len(domains)
    strides = domain_strides(domains)
    identity = tuple(range(n))
    # bid i moves to agent perm[i], so it steps the flat index by strides[perm[i]]
    perms = [
        (perm, [strides[k] for k in perm])
        for perm in itertools.permutations(identity)
        if perm != identity
    ]
    if truths is None:
        points = _truthful_points(domains, strides, None)
    else:
        points = (point for t in truths for point in _truthful_points(domains, strides, t))
    checked = 0
    for flat, digits, _ in points:
        out = outcomes[flat]
        for perm, moved in perms:
            checked += 1
            relabeled = sum(k * s for k, s in zip(digits, moved))
            out_p = outcomes[relabeled]
            expected_winner = perm[out.winner - 1] + 1 if out.winner else 0
            ok = out_p.winner == expected_winner and all(
                out_p.payments[perm[i]] == out.payments[i] for i in range(n)
            )
            if not ok:
                note = "outcome does not commute with the relabeling"
                return _Finding(
                    Property.ANON, checked, flat, other=relabeled, permutation=perm, note=note
                )
    return _Finding(Property.ANON, checked)


def check_efficient(mechanism, grid: Grid) -> PropertyReport:
    """Whenever the item is allocated, the winner is a highest bidder."""
    return _on_lattice(
        lambda lattice: _efficiency_check(lattice.domains, lattice.outcomes), mechanism, grid
    )


def _efficiency_check(domains, outcomes) -> _Finding:
    checked = 0
    for flat, _, values in _truthful_points(domains, domain_strides(domains), None):
        checked += 1
        w = outcomes[flat].winner - 1
        if w >= 0 and values[w] < max(values):
            return _Finding(Property.EFF, checked, flat, w, note="winner is outbid by another agent")
    return _Finding(Property.EFF, checked)


def check_payment_structure(mechanism, grid: Grid) -> tuple[PropertyReport, PropertyReport, PropertyReport]:
    """Structural consequences of IR + IC on a grid, as three reports.

    Part 1: losing agents pay nothing.  Part 2: an agent's payment does not
    depend on her own bid while her win/lose status is unchanged.  Part 3:
    raising the winner's own bid keeps her winning.
    """
    lattice = _tabulation(mechanism, grid)
    domains = (grid.levels,) * mechanism.n
    found = _payment_checks(lattice.domains, lattice.outcomes)
    return tuple(lattice.report(f, domains) for f in found)


def _payment_checks(domains, outcomes) -> tuple[_Finding, _Finding, _Finding]:
    n = len(domains)
    levels = domains[0]
    part1 = part2 = part3 = None  # each part's first failure: flat, agent[, other flat]
    checked1 = checked2 = checked3 = 0
    for flat, out in enumerate(outcomes):
        for i in range(n):
            checked1 += 1
            if out.winner != i + 1 and out.payments[i] != 0 and part1 is None:
                part1 = (flat, i)
    for i, start, stride in _line_starts((len(levels),) * n):
        column = outcomes[start : start + len(levels) * stride : stride]
        for d1, d2 in itertools.combinations(range(len(levels)), 2):
            o1, o2 = column[d1], column[d2]
            w1, w2 = o1.winner == i + 1, o2.winner == i + 1
            checked2 += 1
            if w1 == w2 and o1.payments[i] != o2.payments[i] and part2 is None:
                part2 = (start + d1 * stride, i, start + d2 * stride)
            if w1:
                checked3 += 1
                if not w2 and part3 is None:
                    part3 = (start + d1 * stride, i, start + d2 * stride)
    parts = (
        (Property.LOSER_PAYS_NOTHING, checked1, part1, "losing agent is charged"),
        (Property.PAYMENT_OWN_BID_INVARIANT, checked2, part2,
         "payment changed with own bid at fixed win/lose status"),
        (Property.WIN_PRESERVED_BY_RAISE, checked3, part3, "raising the winning bid lost the item"),
    )
    return tuple(
        _Finding(prop, checked, *where, note=note) if where else _Finding(prop, checked)
        for prop, checked, where, note in parts
    )


def check_winner_payment_constant(mechanism, grid: Grid) -> PropertyReport:
    """Each agent pays one fixed price across all profiles where she wins."""
    return _on_lattice(
        lambda lattice: _winner_price_check(lattice.domains, lattice.outcomes), mechanism, grid
    )


def _winner_price_check(domains, outcomes) -> _Finding:
    first_win: dict[int, int] = {}
    checked = 0
    for flat, out in enumerate(outcomes):
        w = out.winner - 1
        if w < 0:
            continue
        checked += 1
        ref = first_win.setdefault(w, flat)
        if out.payments[w] != outcomes[ref].payments[w]:
            note = "winning price differs between two winning profiles"
            return _Finding(Property.WINNER_PRICE_CONSTANT, checked, ref, w, flat, note=note)
    return _Finding(Property.WINNER_PRICE_CONSTANT, checked)


def confirm_witness(mechanism, report: PropertyReport) -> bool:
    """Replay a single-item failure report against the mechanism from scratch.

    The witness must have its check's shape, the one `_Lattice.report`
    gives it: one profile (`_ONE_PROFILE`: IR, EFF, LOSER_PAYS_NOTHING);
    ``agent``'s unilateral move, to ``deviation`` when given (`_MOVES`:
    IC, SIC, ESIC, PAYMENT_OWN_BID_INVARIANT, WIN_PRESERVED_BY_RAISE); a
    relabeling by ``permutation`` (ANON); or two profiles
    (WINNER_PRICE_CONSTANT).  Each profile is evaluated once, and the
    clause judged on `Fraction` payoffs, which must equal the utility
    vectors the witness carries (`_PAYOFFS`).  A malformed witness is
    refused.
    """
    if report.passed or report.witness is None:
        return False
    w = report.witness
    prop = report.property
    n = mechanism.n
    i = w.agent
    profile = tuple(w.profile)
    other = None if w.deviation_profile is None else tuple(w.deviation_profile)
    one_profile = prop in _ONE_PROFILE
    profiles = [profile] if one_profile else [profile, other]
    if (other is None and not one_profile) or any(len(p) != n for p in profiles):
        return False
    if (i is None and prop not in (Property.ANON, Property.EFF)) or not 0 <= (i or 0) < n:
        return False
    if prop is Property.ANON:
        perm = w.permutation
        if perm is None or sorted(perm) != list(range(n)):
            return False
        if any(other[perm[j]] != profile[j] for j in range(n)):
            return False
    elif prop in _MOVES:
        if any(other[j] != profile[j] for j in range(n) if j != i):
            return False
        if w.deviation is not None and other[i] != w.deviation:
            return False
    try:
        outs = [mechanism.outcome(p) for p in profiles]
    except DomainMismatchError:
        return False
    out, out2 = outs[0], outs[-1]
    if prop in _PAYOFFS:
        payoffs = [utility_vector(o, profile) for o in outs]
        carried = (w.utilities_before, w.utilities_after)
        if any(c is not None and tuple(c) != p for c, p in zip(carried, payoffs)):
            return False
        if prop is Property.IR:
            return payoffs[0][i] < 0
        return deviation_clause(prop, i, *payoffs) is not None
    if prop is Property.EFF:
        return out.winner > 0 and profile[out.winner - 1] < max(profile)
    if prop is Property.ANON:
        expected_winner = perm[out.winner - 1] + 1 if out.winner else 0
        return out2.winner != expected_winner or any(
            out2.payments[perm[j]] != out.payments[j] for j in range(n)
        )
    wins, wins2 = out.winner == i + 1, out2.winner == i + 1
    if prop is Property.LOSER_PAYS_NOTHING:
        return not wins and out.payments[i] != 0
    if prop is Property.PAYMENT_OWN_BID_INVARIANT:
        return wins == wins2 and out.payments[i] != out2.payments[i]
    if prop is Property.WINNER_PRICE_CONSTANT:
        return wins and wins2 and out.payments[i] != out2.payments[i]
    return other[i] > profile[i] and wins and not wins2  # WIN_PRESERVED_BY_RAISE


@dataclass(frozen=True)
class EnumerationSummary:
    grid: Grid
    n: int
    total_candidates: int
    ir_ic_count: int
    sic_count: int
    threshold_form_count: int
    anonymous_sic_count: int
    efficient_sic_count: int


def _key_lattice(grid: Grid, n: int) -> _Lattice:
    """The outcomes that profile keys stand for, as a lattice indexed by key.

    A key is 0 when the item stays unsold, otherwise ``code + (n + 1) * k``:
    the agent with winner code ``code`` wins and pays the grid's ``k``-th
    level.  ``originals[key]`` is that `Outcome` and ``outcomes[key]`` its
    scaled form; every table of one walk shares them.  ``rows[key][b]``
    is everyone's payoff row (see `_Lattice`) there when the winner bids
    the ``b``-th level.
    """
    originals = [
        Outcome(code, tuple([level if j == code - 1 else 0 for j in range(n)]))
        for level in grid.levels
        for code in range(n + 1)
    ]
    keys = range(len(originals))
    coded = CodedTabulation(keys, {key: (originals[key], 0) for key in keys})
    lattice = _grid_lattice(grid.levels, n, coded)
    bids = lattice.domains[0]
    rows = tuple([tuple([_payoff_row(out, bid) for bid in bids]) for out in lattice.outcomes])
    return replace(lattice, rows=rows)


# The sweep counts every IR+IC table before it walks any, then walks only
# the tables it can recognize (see `characterization_experiment`).  The
# count and the walk each recurse once per profile, and Python stops them
# near 1 000 frames.
_MAX_WALK_PROFILES = 512
# The sweep checks anonymity on closure grids, which hold the grid and 0,
# over all n! - 1 relabelings: at about 2 us a read, 1.2 s for the null
# mechanism on {0,1} at n=7 (645 k reads) and 21 s at n=8 (10.3 M reads).
_MAX_RELABELING_READS = 1_000_000


def _relabeling_reads(width: int, n: int) -> int | None:
    """The width^n x (n! - 1) relabeled profiles one anonymity check reads.

    None when n! - 1 alone is over `_MAX_RELABELING_READS`: n! is never taken past it.
    """
    relabelings, k = 1, 1
    while k < n and relabelings - 1 <= _MAX_RELABELING_READS:
        k += 1
        relabelings *= k
    return width**n * (relabelings - 1) if k == n else None


def _check_walk_size(grid: Grid, n: int) -> None:
    """Refuse, before any work, a walk over more than `_MAX_WALK_PROFILES` profiles.

    A one-level grid counts as two levels, as do the closure grids on
    which the sweep judges anonymity and efficiency.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    width = max(len(grid), 2)
    # 2^10 is over the cap, so an n of a billion is never raised to
    if n >= _MAX_WALK_PROFILES.bit_length() or width**n > _MAX_WALK_PROFILES:
        count = f"{width}^{n}" + (f" = {width**n}" if n * math.log10(width) <= 30 else "")
        raise BudgetExceededError(
            f"a {len(grid)}-level grid at n={n} has {count} profiles, "
            f"over the IR+IC walk's cap of {_MAX_WALK_PROFILES}"
        )


class _Walk:
    """The IR + IC walk: a profile key (see `_key_lattice`) per profile of ``grid^n``.

    ``keys[pad + flat]`` is profile ``flat``'s key, after ``pad`` zeros: the
    forcing rule, `choices`, reads back ``pad`` profiles at most, the
    stride of agent 1's bid.  ``ir_ic_count`` is counted before any table
    is walked, by `count`, the one place that enforces ``max_tables``.
    """

    def __init__(self, grid: Grid, n: int, max_tables: int) -> None:
        self.grid, self.n, self.max_tables = grid, n, max_tables
        self.width = len(grid)
        self.total = self.width**n
        self.base = base = n + 1
        self.strides = domain_strides((grid.levels,) * n)
        self.pad = self.strides[0]
        self.digits = list(itertools.product(range(self.width), repeat=n))
        # unsold, or a winner who does not win one level lower pays her own bid
        self.free = [(0, *(i + 1 + base * d for i, d in enumerate(ds))) for ds in self.digits]
        self.keys = [0] * (self.pad + self.total)
        self.keyed = _key_lattice(grid, n)
        self.top = base ** (self.pad - 1)
        self.counts: list[dict[int, int]] = [{} for _ in range(self.total)]
        self.ir_ic_count = self.count()

    def choices(self, flat: int):
        """The keys profile ``flat`` may take after the walk's keys before it: all, one, or none.

        An agent who wins one level below her own bid (see `_key_lattice`)
        wins here too at the same price; two such agents leave no IR + IC table.
        """
        forced = ()
        end = self.pad + flat
        for i, d in enumerate(self.digits[flat]):
            if d:
                below = self.keys[end - self.strides[i]]
                if below % self.base == i + 1:
                    if forced:
                        return ()
                    forced = (below,)
        return forced or self.free[flat]

    def table(self) -> MechanismTable:
        """The table of the walk's keys."""
        outcomes = tuple(map(self.keyed.originals.__getitem__, self.keys[self.pad :]))
        return MechanismTable(self.grid, self.n, outcomes)

    def every_table(self, flat: int = 0):
        """Yield every table that extends the walk's profiles before ``flat``."""
        if flat == self.total:
            yield self.table()
            return
        for key in self.choices(flat):
            self.keys[self.pad + flat] = key
            yield from self.every_table(flat + 1)

    def count(self, flat: int = 0, window: int = 0) -> int:
        """How many tables extend the profiles before ``flat``; over ``max_tables`` raises.

        Memoized per ``flat`` and ``window``: the winner codes of the last
        ``pad`` keys, all `choices` reads, as one base-(n + 1) int, the
        oldest lowest.  No node counts more tables than the root, so
        raising at the first partial count over ``max_tables`` is exact.
        """
        if flat == self.total:
            return 1
        counted = self.counts[flat].get(window)
        if counted is None:
            counted, end, shifted = 0, self.pad + flat, window // self.base
            for key in self.choices(flat):
                self.keys[end] = key
                counted += self.count(flat + 1, shifted + key % self.base * self.top)
                if counted > self.max_tables:
                    raise BudgetExceededError(
                        f"more than {self.max_tables} IR+IC tables on grid {self.grid.render()}"
                    )
            self.counts[flat][window] = counted
        return counted


def enumerate_ir_ic_mechanisms(grid: Grid, n: int, max_tables: int = 1_000_000):
    """Yield every IR + IC mechanism table on the grid, in encoding order.

    A table is generated for each allocation function on ``grid^n`` that
    keeps every agent's winning region upward closed in her own bid; the
    payments are the induced ones (losers pay nothing, the winner pays the
    lowest grid bid that still wins against the same opponents).  Any other
    payment choice would break IC off the grid, so this family is exactly
    the IR + IC search space.  Raises `BudgetExceededError` before any
    work when ``grid^n`` has more than `_MAX_WALK_PROFILES` profiles, and
    before the first yield when there are more than ``max_tables`` tables.
    """
    _check_walk_size(grid, n)
    yield from _Walk(grid, n, max_tables).every_table()


def _line_starts(widths):
    """(agent, first flat index, stride) of every line of a lattice with these per-agent widths.

    A line lets one agent's report run over her domain while the others'
    stay fixed; it starts where her domain index is 0.  Lines come agent
    by agent, the others' indices in flat order.  The payment-structure
    checks read each agent's payments along them, at one step per line,
    so a one-level grid costs n steps, not n^2.
    """
    total = math.prod(widths)
    for i, stride in enumerate(domain_strides([range(w) for w in widths])):
        for block in range(0, total, stride * widths[i]):
            for start in range(block, block + stride):
                yield i, start, stride


class _Sweep(_Walk):
    """The walk of `characterization_experiment`, with its line verdicts and SIC specs."""

    def __init__(self, grid: Grid, n: int, max_tables: int) -> None:
        super().__init__(grid, n, max_tables)
        self.lines_at = [[] for _ in range(self.total)]  # by the line's last profile
        for line in _line_starts((self.width,) * n):
            self.lines_at[line[1] + (self.width - 1) * line[2]].append(line)
        self.line_verdicts: dict[tuple, bool] = {}
        # the SIC tables per recognized spec: tables that differ only at boundary profiles share one
        self.sic_specs: Counter[ThresholdSpec] = Counter()

    def walk(self, flat: int, sic: bool, prices) -> None:
        """Walk on from profile ``flat``, pruning the subtrees where nothing is recognized.

        ``sic`` holds while every finished line passes SIC; ``prices[i]``
        is the level index agent i pays (``width`` while she never wins),
        and None once some agent has won at two prices.
        """
        if flat == self.total:
            return self.judge(sic, prices)
        keys, end, base = self.keys, self.pad + flat, self.base
        for key in self.choices(flat):
            keys[end] = key
            now = prices
            if key and prices is not None:
                i, level = key % base - 1, key // base
                if prices[i] == self.width:
                    now = (*prices[:i], level, *prices[i + 1 :])
                elif prices[i] != level:
                    now = None
            passes = sic and all(map(self.line_passes, self.lines_at[flat]))
            if passes or now is not None:
                self.walk(flat + 1, passes, now)

    def line_passes(self, line) -> bool:
        """Whether the finished line passes SIC, judged once per distinct line (`_line_breaks`)."""
        i, start, stride = line
        keys = tuple(self.keys[self.pad + start : self.pad + start + self.width * stride : stride])
        verdict = self.line_verdicts.get((i, start, keys))
        if verdict is None:
            outcomes = [self.keyed.outcomes[key] for key in keys]
            # each position's row at its winner's bid, a digit of the full profile
            flats = range(start, start + self.width * stride, stride)
            table, base = self.keyed.rows, self.base
            rows = [table[key][self.digits[f][key % base - 1]] for f, key in zip(flats, keys)]
            positions, bids = range(self.width), self.keyed.domains[0]
            # only a break of SIC or IC counts, and the first ends the line
            sic = _NESTED.index(Property.SIC)
            verdict = not _line_breaks(
                i, outcomes, positions, rows, bids, payoff, positions, floor=sic, goal=sic + 1
            )
            self.line_verdicts[i, start, keys] = verdict
        return verdict

    def judge(self, sic: bool, prices) -> None:
        """Check that SIC and threshold form agree on the finished table."""
        spec = None
        if prices is not None:  # a table that charges some agent two prices is not threshold form
            levels = self.grid.levels
            thresholds = tuple([levels[k] if k < self.width else INFINITY for k in prices])
            # signs of level indices against price indices, as of levels against prices
            columns = [[(j > k) - (j < k) for j in range(self.width)] for k in prices]
            winners = [key % self.base for key in self.keys[self.pad :]]
            spec = recognize_on_signs(columns, winners, thresholds)
        if sic != (spec is not None):
            raise CharacterizationMismatchError(self.table(), sic, spec)
        if sic:
            self.sic_specs[spec] += 1


def characterization_experiment(
    grid: Grid, n: int, max_tables: int = 1_000_000
) -> EnumerationSummary:
    """Sweep every IR + IC table and test the threshold characterization.

    Asserts, table by table, that passing the spite-proofness check and
    being recognizable as a threshold mechanism coincide, raising
    `CharacterizationMismatchError` with the offending table otherwise.  For the
    spite-proof tables it also counts how many are anonymous and how many
    are efficient, judging the recognized threshold form on its closure
    grid so that the witness bids above the recognized thresholds exist,
    once per distinct form.

    The sweep walks the IR + IC tables in encoding order and decides, as
    it goes, whether every finished line (see `_line_starts`) passes SIC
    and whether every winner pays one price.  A deviation changes one
    agent's bid, so a table is SIC exactly when each of its lines is; each
    distinct line is judged by the deviation kernel's line classifier
    (`_line_breaks`) once per sweep, on the grid's integer lattice.  A
    table that charges some agent two prices is not threshold form, so
    the walk prunes a node that has failed SIC and has such an agent.  Every walked table that charges each winner one
    price is recognized from level indices by `recognize_on_signs`; a
    walked SIC table that does not is a mismatch at once.  A
    `MechanismTable` is built only to report a mismatch.  It raises
    `BudgetExceededError` before any work on more than `_MAX_WALK_PROFILES`
    profiles or when one anonymity check may read more than
    `_MAX_RELABELING_READS` relabeled profiles, and, like
    `enumerate_ir_ic_mechanisms`, before it walks any table when
    `_Walk.count` finds more than ``max_tables``.
    """
    _check_walk_size(grid, n)
    closure_width = len(set(grid.levels) | {0})
    reads = _relabeling_reads(closure_width, n)  # exact: the walk cap keeps n <= 9
    if reads > _MAX_RELABELING_READS:
        raise BudgetExceededError(
            f"an anonymity check on a {closure_width}-level closure at n={n} reads up to "
            f"{closure_width}^{n} x ({n}! - 1) = {reads} relabeled profiles, "
            f"over the sweep's cap of {_MAX_RELABELING_READS}"
        )
    sweep = _Sweep(grid, n, max_tables)
    sweep.walk(0, True, (len(grid),) * n)
    anonymous = efficient = 0
    for spec, tables in sweep.sic_specs.items():
        closure = closure_for_thresholds(spec.thresholds, base=grid.levels)
        anonymous += tables * check_anonymous(spec, closure).passed
        efficient += tables * check_efficient(spec, closure).passed
    sic_count = sweep.sic_specs.total()
    return EnumerationSummary(
        grid=grid,
        n=n,
        total_candidates=(n + 1) ** (len(grid) ** n),
        ir_ic_count=sweep.ir_ic_count,
        sic_count=sic_count,
        threshold_form_count=sic_count,  # every SIC table, and no other, was recognized
        anonymous_sic_count=anonymous,
        efficient_sic_count=efficient,
    )
