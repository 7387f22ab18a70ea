import dataclasses
import functools
import gc
import itertools
import math
import random
import re
import tracemalloc
from array import array
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from spitefree import multiitem, verifier
from spitefree.core import (
    DomainMismatchError,
    Grid,
    MechanismTable,
    Outcome,
    closure_for_thresholds,
    enumerate_profiles,
    utility,
)
from spitefree.mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
    recognize_on_signs,
    recognize_threshold_form,
    tabulate,
)
from spitefree.money import INFINITY
from spitefree.reports import Property, PropertyReport, Witness
from spitefree.verifier import (
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
    confirm_witness,
    enumerate_ir_ic_mechanisms,
)

GRID012 = Grid.from_text("0,1,2")


def test_threshold_specs_pass_the_truthfulness_stack():
    spec = ThresholdSpec((1, 2), (F(1), F(2)))
    grid = closure_for_thresholds(spec.thresholds)
    for check in (check_ir, check_ic, check_sic, check_esic):
        report = check(spec, grid)
        assert report.passed, report
        assert report.witness is None
        assert report.checked_count > 0


def test_second_price_is_ic_but_not_sic():
    sp = SecondPriceMechanism(2)
    assert check_ir(sp, GRID012).passed
    assert check_ic(sp, GRID012).passed
    report = check_sic(sp, GRID012)
    assert not report.passed
    w = report.witness
    # underbidding to 1 leaves the deviator's payoff at 0 but cuts the
    # winner's payoff from 2 to 1: pure spite, so truthtelling is not stable
    assert w.profile == (F(0), F(2))
    assert w.deviation_profile == (F(1), F(2))
    assert w.agent == 0
    assert w.utilities_before == (F(0), F(2))
    assert w.utilities_after == (F(0), F(1))
    assert confirm_witness(sp, report)


def test_two_agent_sic_and_esic_verdicts_coincide():
    sp = SecondPriceMechanism(2)
    assert check_esic(sp, GRID012).passed == check_sic(sp, GRID012).passed
    spec = ThresholdSpec((1, 2), (F(1), F(1)))
    grid = closure_for_thresholds(spec.thresholds)
    assert check_esic(spec, grid).passed == check_sic(spec, grid).passed


def test_first_price_fails_plain_ic():
    fp = FirstPriceMechanism(2)
    report = check_ic(fp, GRID012)
    assert not report.passed
    w = report.witness
    assert w.profile == (F(0), F(2))
    assert w.deviation_profile == (F(0), F(1))
    assert w.agent == 1
    assert confirm_witness(fp, report)


def test_confirm_witness_rejects_tampering():
    report = check_sic(SecondPriceMechanism(2), GRID012)
    tampered = dataclasses.replace(
        report, witness=dataclasses.replace(report.witness, agent=1 - report.witness.agent)
    )
    assert not confirm_witness(SecondPriceMechanism(2), tampered)


def test_confirm_witness_refuses_passing_reports():
    passing = check_ir(null_spec(2), GRID012)
    assert passing.passed
    assert not confirm_witness(null_spec(2), passing)


def test_checks_reject_foreign_grids_for_tables():
    table = tabulate(null_spec(2), Grid.from_text("0,1"))
    with pytest.raises(DomainMismatchError):
        check_ir(table, GRID012)


# --- anonymity -------------------------------------------------------------


def test_null_is_anonymous():
    assert check_anonymous(null_spec(2), GRID012).passed


def test_asymmetric_thresholds_break_anonymity():
    spec = ThresholdSpec((1, 2), (F(1), F(2)))
    grid = closure_for_thresholds(spec.thresholds)
    report = check_anonymous(spec, grid)
    assert not report.passed
    w = report.witness
    assert w.permutation is not None
    assert w.profile == (F(0), F(1))


def test_second_price_anonymity_hinges_on_ties():
    report = check_anonymous(SecondPriceMechanism(2), GRID012)
    assert not report.passed
    assert report.witness.profile == (F(0), F(0))
    tie_free = [p for p in enumerate_profiles(GRID012, 2) if p[0] != p[1]]
    assert check_anonymous(SecondPriceMechanism(2), GRID012, profiles=tie_free).passed


# --- efficiency ------------------------------------------------------------


def test_efficiency_verdicts():
    assert check_efficient(SecondPriceMechanism(2), GRID012).passed
    assert check_efficient(null_spec(2), GRID012).passed  # vacuous: never allocates
    spec = ThresholdSpec((1, 2), (F(1), F(3)))
    report = check_efficient(spec, Grid.from_text("0,1,2,3"))
    assert not report.passed
    assert report.witness.profile == (F(1), F(2))


# --- payment structure -----------------------------------------------------


def test_threshold_payment_structure_is_clean():
    spec = ThresholdSpec((1, 2), (F(1), F(2)))
    grid = closure_for_thresholds(spec.thresholds)
    reports = check_payment_structure(spec, grid)
    assert [r.property for r in reports] == [
        Property.LOSER_PAYS_NOTHING,
        Property.PAYMENT_OWN_BID_INVARIANT,
        Property.WIN_PRESERVED_BY_RAISE,
    ]
    assert all(r.passed for r in reports)
    assert check_winner_payment_constant(spec, grid).passed


def test_first_price_breaks_own_bid_invariance():
    reports = check_payment_structure(FirstPriceMechanism(2), GRID012)
    by_prop = {r.property: r for r in reports}
    assert by_prop[Property.LOSER_PAYS_NOTHING].passed
    assert not by_prop[Property.PAYMENT_OWN_BID_INVARIANT].passed
    assert by_prop[Property.WIN_PRESERVED_BY_RAISE].passed


def _reference_lines(levels, n):
    """Every line of levels^n built digit by digit, with its domains."""
    strides = verifier.domain_strides((levels,) * n)
    for i in range(n):
        for digits in itertools.product(range(len(levels)), repeat=n - 1):
            others = digits[:i] + (0,) + digits[i:]
            domains = tuple(levels if j == i else (levels[k],) for j, k in enumerate(others))
            yield i, sum(k * s for k, s in zip(others, strides)), strides[i], domains


@pytest.mark.parametrize("width, n", [(1, 1), (1, 5), (2, 1), (2, 4), (3, 3), (4, 2), (5, 3)])
def test_line_starts_are_the_agent_lines_without_their_domains(width, n):
    levels = tuple(F(k, 2) for k in range(width))
    lines = list(_reference_lines(levels, n))
    assert list(verifier._line_starts((width,) * n)) == [line[:3] for line in lines]


def test_payment_checks_on_one_level_hold_amounts_linear_in_the_agents():
    # a one-level grid has one line per agent; building every line's n
    # domains held n^2 entries, about 5 GB and 30 s at n = 10 000
    n = 2_000
    grid = Grid.from_text("5")
    check_payment_structure(null_spec(n), grid)  # tabulates once, outside the count
    tracemalloc.start()
    try:
        reports = check_payment_structure(null_spec(n), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    assert peak < 1_000 * n


def test_second_price_winner_price_varies():
    report = check_winner_payment_constant(SecondPriceMechanism(2), GRID012)
    assert not report.passed
    assert report.witness is not None


def _first_violation(prop, mechanism, grid):
    """The first violation of ``prop`` by brute force, or None.

    IR, IC, SIC and ESIC give (truth, agent, bid), read straight off the
    definitions; truthful profiles, then agents, then bids are taken in
    grid order (IR has no bid: it is None).  The structural properties
    give (profile, agent, deviation profile, permutation), see
    `_STRUCTURAL_BY_DEFINITION`.
    """
    if prop in _STRUCTURAL_BY_DEFINITION:
        return _STRUCTURAL_BY_DEFINITION[prop](mechanism, grid)
    n = mechanism.n
    for truth in enumerate_profiles(grid, n):
        before = [utility(mechanism.outcome(truth), j, truth[j]) for j in range(n)]
        for i in range(n):
            if prop is Property.IR:
                if before[i] < 0:
                    return truth, i, None
                continue
            for bid in grid.levels:
                report = truth[:i] + (bid,) + truth[i + 1 :]
                after = [utility(mechanism.outcome(report), j, truth[j]) for j in range(n)]
                if after[i] > before[i]:
                    return truth, i, bid
                if prop is Property.IC or after[i] != before[i]:
                    continue
                others = [j for j in range(n) if j != i]
                harmed = any(after[j] < before[j] for j in others)
                helped = any(after[j] > before[j] for j in others)
                if harmed and (prop is Property.ESIC or not helped):
                    return truth, i, bid
    return None


def _first_non_anonymous(mechanism, grid, profiles=None):
    """Relabeling the bids must relabel the winner and the payments alike."""
    n = mechanism.n
    identity = tuple(range(n))
    for profile in enumerate_profiles(grid, n) if profiles is None else profiles:
        out = mechanism.outcome(profile)
        for perm in itertools.permutations(identity):
            if perm == identity:
                continue
            permuted = [None] * n
            for i in range(n):
                permuted[perm[i]] = profile[i]
            permuted = tuple(permuted)
            out_p = mechanism.outcome(permuted)
            # agent i's bid now belongs to agent perm[i], who must take i's part
            for i in range(n):
                won, won_p = out.winner == i + 1, out_p.winner == perm[i] + 1
                if won != won_p or out_p.payments[perm[i]] != out.payments[i]:
                    return profile, None, permuted, perm
    return None


def _first_inefficient(mechanism, grid):
    """A winner must bid at least as much as every other agent."""
    for profile in enumerate_profiles(grid, mechanism.n):
        out = mechanism.outcome(profile)
        for i, bid in enumerate(profile):
            if out.winner == i + 1 and any(other > bid for other in profile):
                return profile, i, None, None
    return None


def _first_charged_loser(mechanism, grid):
    """An agent who does not win must pay nothing."""
    for profile in enumerate_profiles(grid, mechanism.n):
        out = mechanism.outcome(profile)
        for i in range(mechanism.n):
            if out.winner != i + 1 and out.payments[i] != 0:
                return profile, i, None, None
    return None


def _own_bid_pairs(mechanism, grid):
    """(agent, lower profile, its outcome, higher profile, its outcome) for each own-bid pair.

    Agents are taken in order, then the others' bids in grid order, then
    the pairs of the agent's own bids, lower bid slowest.
    """
    n = mechanism.n
    for i in range(n):
        for others in itertools.product(grid.levels, repeat=n - 1):
            line = [others[:i] + (bid,) + others[i:] for bid in grid.levels]
            for low, high in itertools.combinations(line, 2):
                yield i, low, mechanism.outcome(low), high, mechanism.outcome(high)


def _first_own_bid_payment_change(mechanism, grid):
    """While an agent's win/lose status holds, her own bid must not move her payment."""
    for i, low, out_low, high, out_high in _own_bid_pairs(mechanism, grid):
        same_status = (out_low.winner == i + 1) == (out_high.winner == i + 1)
        if same_status and out_low.payments[i] != out_high.payments[i]:
            return low, i, high, None
    return None


def _first_win_lost_by_raise(mechanism, grid):
    """A winner who raises her own bid must keep winning."""
    for i, low, out_low, high, out_high in _own_bid_pairs(mechanism, grid):
        if out_low.winner == i + 1 and out_high.winner != i + 1:
            return low, i, high, None
    return None


def _first_winner_price_change(mechanism, grid):
    """Each agent pays the price of her first winning profile wherever she wins."""
    first_win = {}
    for profile in enumerate_profiles(grid, mechanism.n):
        out = mechanism.outcome(profile)
        if not out.winner:
            continue
        i = out.winner - 1
        reference, ref_out = first_win.setdefault(i, (profile, out))
        if out.payments[i] != ref_out.payments[i]:
            return reference, i, profile, None
    return None


_STRUCTURAL_BY_DEFINITION = {
    Property.ANON: _first_non_anonymous,
    Property.EFF: _first_inefficient,
    Property.LOSER_PAYS_NOTHING: _first_charged_loser,
    Property.PAYMENT_OWN_BID_INVARIANT: _first_own_bid_payment_change,
    Property.WIN_PRESERVED_BY_RAISE: _first_win_lost_by_raise,
    Property.WINNER_PRICE_CONSTANT: _first_winner_price_change,
}


def _holds_by_definition(prop, mechanism, grid):
    return _first_violation(prop, mechanism, grid) is None


def test_deviation_kernel_matches_the_definitions():
    mechanisms = list(enumerate_ir_ic_mechanisms(GRID012, 2))
    assert len(mechanisms) == 594
    mechanisms += [FirstPriceMechanism(n) for n in (2, 3)]
    mechanisms += [SecondPriceMechanism(n) for n in (2, 3)]
    failures = 0
    for mechanism in mechanisms:
        for prop, check in (
            (Property.IC, check_ic),
            (Property.SIC, check_sic),
            (Property.ESIC, check_esic),
        ):
            report = check(mechanism, GRID012)
            assert report.passed == _holds_by_definition(prop, mechanism, GRID012)
            if not report.passed:
                failures += 1
                assert confirm_witness(mechanism, report)
    assert failures == 2 * (594 - 70) + 10


# --- one walk for IC, SIC and ESIC -------------------------------------------

_DEVIATION_CHECKS = (
    (Property.IC, check_ic),
    (Property.SIC, check_sic),
    (Property.ESIC, check_esic),
)


@dataclasses.dataclass(frozen=True)
class _Lookup:
    """A hashable mechanism that looks its outcomes up, so its lattice is cached."""

    n: int
    rows: tuple

    def outcome(self, profile):
        return dict(self.rows)[tuple(profile)]


def _random_lookups(count, seed):
    """Mechanisms at n=2 and 3 on GRID012 with random winners and winners' payments.

    Losers pay nothing and every payment is at most the winner's bid, so
    some deviations are payoff-neutral and the three checks fail apart.
    """
    rng = random.Random(seed)
    mechanisms = []
    for k in range(count):
        n = 2 + k % 2
        rows = []
        for profile in enumerate_profiles(GRID012, n):
            winner = rng.randrange(n + 1)
            payments = [F(0)] * n
            if winner:
                bid = profile[winner - 1]
                payments[winner - 1] = rng.choice([b for b in GRID012.levels if b <= bid])
            rows.append((profile, Outcome(winner, tuple(payments))))
        mechanisms.append(_Lookup(n, tuple(rows)))
    return mechanisms


def _kingmaker(profile):
    """Agent 1 never wins: while she bids 0 agent 2 wins, else agent 3 if he bids above 0.

    Nobody pays, so agent 1's moves are payoff-neutral: at (0, 1, 1) her
    raise harms agent 2 and helps agent 3, which breaks ESIC before
    anything breaks SIC.
    """
    winner = 2 if profile[0] == 0 or profile[2] == 0 else 3
    return winner, (F(0),) * 3


def _order_cases():
    specs = [
        ThresholdSpec((1, 2), (F(1), F(2))),
        ThresholdSpec((2, 1, 3), (F(1, 2), F(1, 2), INFINITY), BoundaryRule.NO_ALLOCATION),
    ]
    cases = [(spec, GRID012) for spec in specs]
    cases += [(spec, closure_for_thresholds(spec.thresholds)) for spec in specs]
    cases += [(factory(n), GRID012) for factory in (FirstPriceMechanism, SecondPriceMechanism)
              for n in (2, 3)]
    cases += [(mechanism, GRID012) for mechanism in _random_lookups(16, seed=5)]
    kingmaker = tuple((p, Outcome(*_kingmaker(p))) for p in enumerate_profiles(GRID012, 3))
    cases.append((_Lookup(3, kingmaker), GRID012))
    return cases


def test_deviation_checks_agree_in_every_order():
    """Each check gives its lone report whichever checks ran before it on the cached lattice."""
    failed = {prop: 0 for prop, _ in _DEVIATION_CHECKS}
    # cases where ESIC first fails before SIC does, and SIC before IC
    earlier = {Property.ESIC: 0, Property.SIC: 0}
    for mechanism, grid in _order_cases():
        alone, at = {}, {}
        for prop, check in _DEVIATION_CHECKS:
            verifier._cached_tabulation.cache_clear()
            report = check(mechanism, grid)
            first = _first_violation(prop, mechanism, grid)
            assert report.passed == (first is None), (prop, mechanism)
            if first is not None:
                failed[prop] += 1
                w = report.witness
                assert (w.profile, w.agent, w.deviation) == first
                assert confirm_witness(mechanism, report)
            alone[prop] = repr(report)
            at[prop] = first
        earlier[Property.ESIC] += at[Property.ESIC] != at[Property.SIC]
        earlier[Property.SIC] += at[Property.SIC] != at[Property.IC]
        for order in itertools.permutations(_DEVIATION_CHECKS):
            verifier._cached_tabulation.cache_clear()
            for prop, check in order:
                assert repr(check(mechanism, grid)) == alone[prop], (order, prop, mechanism)
    assert all(failed.values()) and all(earlier.values()), (failed, earlier)


def _checked_by_definition(prop, mechanism, grid):
    """Cases up to `_first_violation`'s, or all: (truth, agent) for IR, else (truth, agent, bid)."""
    first = _first_violation(prop, mechanism, grid)
    checked = 0
    for truth in enumerate_profiles(grid, mechanism.n):
        for i in range(mechanism.n):
            for bid in [None] if prop is Property.IR else [b for b in grid.levels if b != truth[i]]:
                checked += 1
                if (truth, i, bid) == first:
                    return checked
    return checked


def _unsold_unless_agent_1_bids_2(profile):
    """Agent 2 wins at price 1 while agent 1 bids 2: IR first fails at (2, 0)."""
    return (2, (F(0), F(1))) if profile[0] == 2 else (0, (F(0), F(0)))


def test_checked_counts_match_the_definitions():
    ir_fails = tuple(
        (p, Outcome(*_unsold_unless_agent_1_bids_2(p))) for p in enumerate_profiles(GRID012, 2)
    )
    for mechanism, grid in [*_order_cases(), (_Lookup(2, ir_fails), GRID012)]:
        for prop, check in ((Property.IR, check_ir), *_DEVIATION_CHECKS):
            verifier._cached_tabulation.cache_clear()
            report = check(mechanism, grid)
            assert report.checked_count == _checked_by_definition(prop, mechanism, grid), (
                prop, mechanism
            )
    assert check_ir(_Lookup(2, ir_fails), GRID012).checked_count == 6 * 2 + 2


def test_payoff_rows_are_the_payoffs_at_each_profile():
    """A grid lattice's rows value everyone at her bid; the sweep's key rows at the winner's bid.

    A grid lattice shares one row among the profiles with one outcome and
    one winner's bid, so it holds no more rows than such pairs.
    """
    for mechanism, grid in _order_cases():
        lattice = verifier._tabulation(mechanism, grid)
        d = lattice.denominator
        pairs = set()
        for flat, profile in enumerate(enumerate_profiles(grid, mechanism.n)):
            out = mechanism.outcome(profile)
            expected = tuple(utility(out, j, profile[j]) for j in range(mechanism.n))
            assert tuple(F(u, d) for u in lattice.rows[flat]) == expected
            pairs.add((out, profile[out.winner - 1] if out.winner else None))
        assert len({id(row) for row in lattice.rows}) == len(pairs)
    for n in (1, 2, 3):
        keyed = verifier._key_lattice(GRID012, n)
        d = keyed.denominator
        for key, out in enumerate(keyed.originals):
            for b, bid in enumerate(GRID012.levels):
                # only the winner's payoff depends on her value
                expected = tuple(utility(out, j, bid) for j in range(n))
                assert tuple(F(u, d) for u in keyed.rows[key][b]) == expected


def _reference_lattice(mechanism, grid):
    """A grid lattice's fields, built profile by profile without the coded builder.

    Returns D, the domains, the scaled outcomes, the mechanism's own
    outcomes, the payoff rows, and the (outcome, winner's bid) pairs.
    """
    n, levels = mechanism.n, grid.levels
    originals = tuple(mechanism.outcome(p) for p in enumerate_profiles(grid, n))
    amounts = [*levels, *(p for out in originals for p in out.payments)]
    d = math.lcm(*{a.denominator for a in amounts})
    ints = tuple(int(level * d) for level in levels)
    scaled, outcomes, rows, pairs = {}, [], [], set()
    for digits, out in zip(itertools.product(range(len(levels)), repeat=n), originals):
        scaled_out = scaled.setdefault(out, (out.winner, tuple(int(p * d) for p in out.payments)))
        bid = digits[out.winner - 1] if out.winner else None
        winner_pays = ints[bid] if out.winner else 0
        rows.append(tuple(
            (winner_pays if j == out.winner - 1 else 0) - p for j, p in enumerate(scaled_out[1])
        ))
        outcomes.append(scaled_out)
        pairs.add((out, bid))
    return d, (ints,) * n, tuple(outcomes), originals, tuple(rows), pairs


def _coded_tabulation_cases():
    """Threshold specs, price rules, tables and lookups on grids of 1 to 7 levels.

    The threshold pool of each grid has amounts below, at, between and
    above its levels, and INFINITY.  The last cases hold more codes than
    fit in a byte.
    """
    rng = random.Random(26)
    grids = [
        Grid.from_text("1"),
        Grid.from_text("0,1"),
        Grid.from_text("1/2,1,2"),
        Grid.from_text("1,3/2,2,5/2"),
        Grid.from_text("0,1/3,1,7/4,3"),
        Grid.from_text("1/4,1/2,1,2,3,9/2"),
        Grid.from_text("0,1/5,1/2,1,4/3,2,7"),
    ]
    cases = []
    for grid in grids:
        levels = grid.levels
        pool = {levels[0] / 2, levels[len(levels) // 2], levels[-1] + 1, INFINITY}
        pool |= {(a + b) / 2 for a, b in zip(levels, levels[1:2])}
        pool = sorted(pool)
        for n in (1, 2, 3, 4):
            specs = [
                ThresholdSpec(ranking, thresholds, rule)
                for thresholds in itertools.product(pool, repeat=n)
                for ranking in itertools.permutations(range(1, n + 1))
                for rule in BoundaryRule
            ]
            sample = min(len(specs), (60, 40, 12, 3)[n - 1])
            cases += [(spec, grid) for spec in rng.sample(specs, sample)]
        cases += [(factory(n), grid) for factory in (FirstPriceMechanism, SecondPriceMechanism)
                  for n in (2, 3, 4) if len(grid) ** n <= 2_500]
    # every ranking and both rules, on one grid
    for n in (1, 2, 3, 4):
        rankings = itertools.permutations(range(1, n + 1))
        for ranking, rule in itertools.product(rankings, BoundaryRule):
            cases.append((ThresholdSpec(ranking, (F(1),) * n, rule), grids[3]))
    cases += [(tabulate(spec, grid), grid) for spec, grid in cases[:: 25]]
    cases += [(mechanism, GRID012) for mechanism in _random_lookups(4, seed=26)]
    wide = Grid(range(130))
    cases += [(ThresholdSpec((2, 1), (F(7), F(129)), rule), wide) for rule in BoundaryRule]
    cases += [(FirstPriceMechanism(2), wide), (SecondPriceMechanism(3), Grid(range(11)))]
    return cases


def test_the_coded_tabulation_equals_the_profile_by_profile_lattice():
    """Every field of a lattice equals one built from the outcomes of each profile.

    Each distinct outcome has one object and one scaled outcome, and each
    (outcome, winner's bid) pair one payoff row.
    """
    for mechanism, grid in _coded_tabulation_cases():
        verifier._cached_tabulation.cache_clear()
        lattice = verifier._tabulation(mechanism, grid)
        d, domains, outcomes, originals, rows, pairs = _reference_lattice(mechanism, grid)
        assert lattice.denominator == d, mechanism
        assert lattice.domains == domains
        assert lattice.outcomes == outcomes, mechanism
        assert lattice.originals == originals, mechanism
        assert lattice.rows == rows, mechanism
        assert len({id(row) for row in lattice.rows}) == len(pairs)
        distinct = len(set(originals))
        if isinstance(mechanism, MechanismTable):
            distinct = len({id(out) for out in mechanism.outcomes})
        assert len({id(out) for out in lattice.originals}) == distinct
        assert len({id(out) for out in lattice.outcomes}) == distinct


# The tracemalloc peak of one tabulation, per profile, before coded
# tabulation: threshold specs and first price at n=5 on 11 levels, and
# second price and a threshold spec at n=16 on {0,1}.  The last was high
# because every distinct tuple of signs was kept.
_TABULATION_PEAKS = [
    (ThresholdSpec((3, 1, 5, 2, 4), (F(1), F(5, 2), F(4), F(15, 2), INFINITY)), 11, 33.1),
    (FirstPriceMechanism(5), 11, 33.1),
    (SecondPriceMechanism(16), 2, 33.0),
    (ThresholdSpec(tuple(range(1, 17)), (F(1),) * 16), 2, 224.4),
]


@pytest.mark.parametrize("mechanism, width, before", _TABULATION_PEAKS)
def test_a_tabulation_holds_no_more_memory_per_profile_than_before(mechanism, width, before):
    grid = Grid(range(width))
    verifier._tabulation(mechanism, grid)  # warms the module's own caches
    verifier._cached_tabulation.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        lattice = verifier._tabulation(mechanism, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        verifier._cached_tabulation.cache_clear()
    assert len(lattice.rows) == width**mechanism.n
    assert peak / width**mechanism.n <= 1.1 * before


def test_ic_sic_and_esic_share_one_walk(monkeypatch):
    walks = []
    deviation_findings = verifier._deviation_findings

    def counting(stop, *args, **kwargs):
        walks.append(stop)
        return deviation_findings(stop, *args, **kwargs)

    monkeypatch.setattr(verifier, "_deviation_findings", counting)
    sp = SecondPriceMechanism(3)  # IC passes; SIC and ESIC first fail at one deviation
    kingmaker = _order_cases()[-1][0]  # IC passes; ESIC fails before SIC
    for mechanism, order, expected in (
        (sp, (check_ir, check_ic, check_sic, check_esic), [Property.IC]),
        (sp, (check_esic, check_sic, check_ic), [Property.ESIC, Property.IC]),
        (sp, (check_sic, check_esic, check_ic), [Property.SIC, Property.IC]),
        (sp, (check_ic, check_ic), [Property.IC]),
        (kingmaker, (check_ic, check_sic, check_esic), [Property.IC]),
        (kingmaker, (check_esic, check_sic, check_ic), [Property.ESIC, Property.SIC, Property.IC]),
    ):
        verifier._cached_tabulation.cache_clear()
        walks.clear()
        for check in order:
            check(mechanism, GRID012)
        assert walks == expected, order


@pytest.mark.parametrize("prop", [Property.SIC, Property.ESIC])
def test_a_lone_check_stops_at_its_witness(prop, monkeypatch):
    """Lines are drawn in order of their first profile, up to the first that starts past the witness."""
    lattice = verifier._tabulation(SecondPriceMechanism(2), GRID012)
    drawn = []
    lines_in_order = verifier._lines_in_order

    def recorded(widths):
        for line in lines_in_order(widths):
            drawn.append(line)
            yield line

    monkeypatch.setattr(verifier, "_lines_in_order", recorded)
    args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility)
    found = verifier._deviation_findings(prop, *args)[prop]
    assert (found.flat, found.agent, found.other) == (2, 0, 5)
    # agent 1's lines step the flat index by 3, agent 2's by 1; they start at profiles
    # 0, 0 (agent 2), 1, 2, 3 (agent 2) and 6 (agent 2), and the walk stops at the line at 3
    assert drawn == [(0, 0), (0, 1), (1, 0), (2, 0), (3, 1)]


def _walked_findings(stop, domains, outcomes, rows, utility, truth=None):
    """The slow reference path of `verifier._deviation_findings`: profile -> agent -> deviation.

    Every deviation to an entry that differs from the deviator's truth is
    classified in turn, whether or not it changes the outcome, and the
    first to break each of ESIC, SIC and IC is kept with the count so
    far; the walk stops once ``stop`` has failed.
    """
    nested = (Property.ESIC, Property.SIC, Property.IC)
    strides = verifier.domain_strides(domains)
    goal = nested.index(stop) + 1
    failed, found, checked = 0, {}, 0
    points = [truth] if truth is not None else itertools.product(*map(range, map(len, domains)))
    for digits in points:
        flat = sum(k * s for k, s in zip(digits, strides))
        for i, (dom, k) in enumerate(zip(domains, digits)):
            for d, value in enumerate(dom):
                if value == dom[k]:
                    continue
                checked += 1
                moved = flat + (d - k) * strides[i]
                own = utility(outcomes[moved], i, dom[k])
                broken = verifier._broken(i, rows[flat], own, rows[moved])
                for prop in nested[failed:broken]:
                    note = verifier._clause(prop, broken)
                    found[prop] = verifier._Finding(prop, checked, flat, i, moved, note=note)
                failed = max(failed, broken)
                if failed >= goal:
                    return found
    for prop in nested[failed:]:
        found[prop] = verifier._Finding(prop, checked)
    return found


def _assert_line_walk_is_the_reference(lattice):
    """The kernel's findings equal the slow walk's for each stop property; returns the failures."""
    failures = 0
    args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility, lattice.truth)
    for stop in (Property.ESIC, Property.SIC, Property.IC):
        found = verifier._deviation_findings(stop, *args, lattice.codes)
        assert found == _walked_findings(stop, *args), (stop, lattice.originals)
        failures += found[stop].flat is not None
    return failures


def _table_of_fresh_outcomes(grid, n, rng):
    """A seeded table whose equal outcomes are distinct objects: few winners and prices."""
    outcomes = []
    for profile in enumerate_profiles(grid, n):
        winner = rng.randrange(n + 1)
        payments = [F(0)] * n
        if winner:
            payments[winner - 1] = rng.choice(grid.levels[:2])
        outcomes.append(Outcome(winner, tuple(payments)))
    return MechanismTable(grid, n, tuple(outcomes))


def _table_of_coarse_outcomes(grid, n, rng):
    """A seeded table that reads only agent 1's bid in full, from one pool of outcome objects.

    The others' bids are read as zero or not, so agent 1's lines at two
    nonzero bids of another agent hold the same outcome objects; their
    payoff rows differ where that agent wins, at her own bid.
    """
    zeros = (F(0),) * n
    pool = [Outcome(0, zeros)] + [
        Outcome(w, zeros[: w - 1] + (price,) + zeros[w:])
        for w in range(1, n + 1)
        for price in grid.levels[:2]
    ]
    picked = {}
    outcomes = tuple(
        picked.setdefault((bids[0], *(b > 0 for b in bids[1:])), rng.choice(pool))
        for bids in enumerate_profiles(grid, n)
    )
    return MechanismTable(grid, n, outcomes)


def _bundle_cases(seed):
    """(allocator, domains) on two items; one agent's domain repeats an equal valuation."""
    rng = random.Random(seed)
    n = rng.choice((2, 2, 3))
    def amount():
        return F(rng.randint(0, 6), rng.randint(1, 3))

    def valuation():
        return multiitem.BundleValuation.from_map(2, {m: amount() for m in (1, 2, 3)})

    domains = [[valuation() for _ in range(rng.randint(1, 3))] for _ in range(n)]
    repeated = domains[rng.randrange(n)]
    original = rng.choice(repeated)
    repeated.insert(rng.randint(0, len(repeated)), multiitem.BundleValuation(2, original.values))
    ranking = tuple(rng.sample(range(1, n + 1), n))
    sequential = multiitem.SequentialSpec(ranking, tuple(amount() for _ in range(n)))
    cluster = multiitem.ClusterSpec(
        2, ranking, tuple((0, amount(), amount(), amount()) for _ in range(n))
    )
    allocators = (
        functools.partial(multiitem.sequential_allocate_general, sequential),
        functools.partial(multiitem.cluster_allocate, cluster),
    )
    return allocators, tuple(map(tuple, domains))


def _free_item_at_two(bids):
    """Agent 1 takes the one item for nothing when she reports it worth 2 or more."""
    return multiitem.MultiOutcome((int(bids[0].of_bundle(1) >= 2), 0), (F(0), F(0)))


def _array_coded_cases():
    """Second price at n=3 on ten levels and n=2 on twelve, and a table of 343 outcomes."""
    seven = Grid(range(7))
    return [
        (SecondPriceMechanism(3), Grid(range(10))),
        (SecondPriceMechanism(2), Grid(range(12))),
        (_table_of_fresh_outcomes(seven, 3, random.Random(28)), seven),
    ]


def test_the_line_walk_matches_the_profile_walk():
    """Findings dicts, keys and values, equal the slow walk's for every stop property."""
    rng = random.Random(23)
    failures = 0
    for n in (2, 3, 4):
        for _ in range(4 if n < 4 else 2):
            ranking = tuple(rng.sample(range(1, n + 1), n))
            pool = [F(0), F(1, 2), F(1), F(3, 2), F(2), INFINITY]
            thresholds = tuple(rng.choice(pool) for _ in range(n))
            spec = ThresholdSpec(ranking, thresholds, rng.choice(list(BoundaryRule)))
            grid = closure_for_thresholds(spec.thresholds, base=GRID012.levels)
            failures += _assert_line_walk_is_the_reference(verifier._tabulation(spec, grid))
    grids = (GRID012, Grid.from_text("0,1/2,1,3"))
    price_rules = (FirstPriceMechanism, SecondPriceMechanism)
    for factory, n, grid in itertools.product(price_rules, (2, 3), grids):
        failures += _assert_line_walk_is_the_reference(verifier._tabulation(factory(n), grid))
    # codes past a byte, in an array: second price at n=3 on ten levels has 300 lines, all distinct
    for mechanism, grid in _array_coded_cases():
        lattice = verifier._tabulation(mechanism, grid)
        assert isinstance(lattice.codes, array), mechanism
        failures += _assert_line_walk_is_the_reference(lattice)
    for table in enumerate_ir_ic_mechanisms(GRID012, 2):
        failures += _assert_line_walk_is_the_reference(verifier._tabulation(table, GRID012))
    for k in range(60):
        table = _table_of_fresh_outcomes(GRID012, 2 + k % 2, rng)
        failures += _assert_line_walk_is_the_reference(verifier._tabulation(table, GRID012))
    for k in range(60):
        table = _table_of_coarse_outcomes(GRID012, 2 + k % 2, rng)
        failures += _assert_line_walk_is_the_reference(verifier._tabulation(table, GRID012))
    for seed in range(12):
        allocators, domains = _bundle_cases(seed)
        for allocate in allocators:
            truths = [None, *itertools.product(*map(range, map(len, domains)))]
            for truth in truths:
                lattice = multiitem._bundle_lattice(allocate, domains, truth)
                failures += _assert_line_walk_is_the_reference(lattice)
    # agent 1 gains by reporting ``high``, past a copy of her truth when it is ``low``
    low, high = (multiitem.BundleValuation.from_map(1, {1: v}) for v in (1, 2))
    domains = ((low, multiitem.BundleValuation(1, low.values), high), (low, high))
    for truth in [None, *itertools.product(range(3), range(2))]:
        lattice = multiitem._bundle_lattice(_free_item_at_two, domains, truth)
        failures += _assert_line_walk_is_the_reference(lattice)
    assert failures > 500


def test_a_one_agent_walk_holds_memory_linear_in_the_levels():
    # listing each position's W - 1 deviations at once held W x (W - 1) flat-index
    # steps: 155 MB of process memory at 2 000 levels, and four times that at 4 000
    levels = 4_000
    lattice = verifier._tabulation(ThresholdSpec((1,), (F(1),)), Grid(tuple(range(levels))))
    args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility)
    tracemalloc.start()
    try:
        found = verifier._deviation_findings(Property.IC, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[Property.IC] == verifier._Finding(Property.IC, levels * (levels - 1))
    assert peak < 100 * levels


@pytest.mark.parametrize(
    "widths", [(), (3,), (1, 1), (1, 4, 1), (2, 3, 4), (4, 3, 2), (5, 5, 5), (2,) * 6, (3, 0, 2)]
)
def test_lines_come_in_order_of_their_first_profile(widths):
    lines = [] if 0 in widths else verifier._line_starts(widths)
    assert list(verifier._lines_in_order(widths)) == sorted((start, i) for i, start, _ in lines)


def test_a_walk_holds_no_list_of_its_lines():
    # two levels at n = 16 have 2^15 x 16 lines; a list of them would take about 50 MB.
    # Agent 1 alone wins, at 1, so her 2^15 lines are walked and the others' are one run
    spec = ThresholdSpec(tuple(range(1, 17)), (F(1), *[INFINITY] * 15))
    lattice = verifier._tabulation(spec, Grid.from_text("0,1"))
    args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility)
    tracemalloc.start()
    try:
        found = verifier._deviation_findings(Property.IC, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[Property.IC] == verifier._Finding(Property.IC, 2**16 * 16)
    assert peak < 100_000


def _builtin_sequential_lattice(thresholds):
    """The bundle lattice of a sequential sale at n=2 on 3 items, every marginal up to 2."""
    builtin = tuple(multiitem.nonincreasing_marginal_vectors(3, 2))
    spec = multiitem.SequentialSpec((2, 1), thresholds)
    allocate = functools.partial(multiitem.sequential_allocate_general, spec)
    return multiitem._bundle_lattice(allocate, (builtin, builtin), None)


def test_a_repeated_line_is_judged_once(monkeypatch):
    """`_line_breaks` runs once per distinct line of one agent, not per block of equal lines."""
    spec = ThresholdSpec((2, 1, 3), (F(1), F(1, 2), F(2)))
    grid = closure_for_thresholds(spec.thresholds, base=GRID012.levels)
    # a sequential sale of two items to three agents, every marginal up to 2
    two_items = tuple(multiitem.nonincreasing_marginal_vectors(2, 2))
    sale = multiitem.SequentialSpec((2, 1, 3), (F(3, 2),) * 3)
    allocate = functools.partial(multiitem.sequential_allocate_general, sale)
    lattices = [
        verifier._tabulation(spec, grid),
        verifier._tabulation(tabulate(spec, grid), grid),
        multiitem._bundle_lattice(allocate, (two_items,) * 3, None),
    ]
    calls = []
    line_breaks = verifier._line_breaks
    monkeypatch.setattr(
        verifier, "_line_breaks", lambda *args: calls.append(args[0]) or line_breaks(*args)
    )
    for lattice in lattices:
        strides = verifier.domain_strides(lattice.domains)
        widths = list(map(len, lattice.domains))
        distinct, blocks = set(), 0
        for i, stride in enumerate(strides):
            last = None
            # agent i's lines in order of their first profile: the others' indices in flat order
            others = [(w, s) for j, (w, s) in enumerate(zip(widths, strides)) if j != i]
            for digits in itertools.product(*(range(w) for w, _ in others)):
                start = sum(k * s for k, (_, s) in zip(digits, others))
                flats = range(start, start + widths[i] * stride, stride)
                line = tuple((lattice.outcomes[f], lattice.rows[f]) for f in flats)
                if len({out for out, _ in line}) > 1:
                    distinct.add((i, line))
                    blocks += line != last
                    last = line
        calls.clear()
        args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility)
        found = verifier._deviation_findings(Property.IC, *args, None, lattice.codes)
        assert found[Property.IC].flat is None  # IC holds, so every line was walked
        assert len(calls) == len(distinct) < blocks


def test_the_line_keys_hold_memory_of_the_distinct_lines_only():
    # second price at n=12 on {0,1} has 2^11 x 12 = 24 576 lines, 264 of them distinct;
    # a key kept per line would hold about 1 MB
    lattice = verifier._tabulation(SecondPriceMechanism(12), Grid.from_text("0,1"))
    args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility, None, lattice.codes)
    verifier._deviation_findings(Property.IC, *args)  # warms the module's own caches
    gc.collect()
    tracemalloc.start()
    try:
        found = verifier._deviation_findings(Property.IC, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found[Property.IC] == verifier._Finding(Property.IC, 2**12 * 12)
    assert peak < 100_000


def test_a_lattice_of_one_outcome_walks_no_line(monkeypatch):
    def no_lines(widths):
        raise AssertionError("a lattice of one outcome walked its lines")

    monkeypatch.setattr(verifier, "_lines_in_order", no_lines)
    cases = [(null_spec(16), Grid.from_text("0,1")), (null_spec(3), GRID012)]
    # equal outcomes that are distinct objects
    n, zeros = 2, (F(0), F(0))
    table = MechanismTable(GRID012, n, tuple(Outcome(0, zeros) for _ in range(3**n)))
    cases.append((table, GRID012))
    lattices = [verifier._tabulation(mechanism, grid) for mechanism, grid in cases]
    # a sequential sale whose prices are above every marginal never sells
    lattices.append(_builtin_sequential_lattice((F(3), F(3))))
    for lattice in lattices:
        args = (lattice.domains, lattice.outcomes, lattice.rows, lattice.utility, None)
        widths = list(map(len, lattice.domains))
        total = len(lattice.outcomes) * sum(w - 1 for w in widths)
        for stop in (Property.ESIC, Property.SIC, Property.IC):
            found = verifier._deviation_findings(stop, *args, lattice.codes)
            assert found == {p: verifier._Finding(p, total) for p in verifier._NESTED}


@settings(max_examples=200)
@given(
    st.lists(st.integers(-2, 2), min_size=2, max_size=4).flatmap(
        lambda before: st.tuples(
            st.just(before),
            st.lists(st.integers(-2, 2), min_size=len(before), max_size=len(before)),
            st.integers(0, len(before) - 1),
        )
    )
)
def test_the_deviation_clauses_are_nested(case):
    before, after, agent = case
    # a deviation that breaks IC breaks SIC, and one that breaks SIC breaks ESIC
    broken = [
        verifier.deviation_clause(prop, agent, before, after) is not None
        for prop, _ in _DEVIATION_CHECKS
    ]
    assert broken == sorted(broken)


# --- exactness of the integer lattice ---------------------------------------

_SINGLE_ITEM_CHECKS = (
    (Property.IR, check_ir),
    (Property.IC, check_ic),
    (Property.SIC, check_sic),
    (Property.ESIC, check_esic),
)


def _assert_checks_match_the_definitions(mechanism, grid):
    """Verdicts and first witnesses of the four checks against brute force.

    Each failure must be the first violation by definition, replay through
    `confirm_witness`, and carry its amounts as Fractions equal to the
    payoffs `utility` gives on the witness's own profiles.  Returns the
    number of failing checks.
    """
    failures = 0
    for prop, check in _SINGLE_ITEM_CHECKS:
        report = check(mechanism, grid)
        first = _first_violation(prop, mechanism, grid)
        assert report.passed == (first is None), (prop, report)
        if first is None:
            continue
        failures += 1
        w = report.witness
        assert (w.profile, w.agent, w.deviation) == first
        assert confirm_witness(mechanism, report)
        n = mechanism.n
        assert all(type(v) is F for v in w.profile)
        assert w.outcome_before == mechanism.outcome(w.profile)
        before = tuple(utility(w.outcome_before, j, w.profile[j]) for j in range(n))
        assert w.utilities_before == before
        assert all(type(u) is F for u in w.utilities_before)
        if prop is Property.IR:
            continue
        assert type(w.deviation) is F
        i = w.agent
        assert w.deviation_profile == w.profile[:i] + (w.deviation,) + w.profile[i + 1 :]
        assert w.outcome_after == mechanism.outcome(w.deviation_profile)
        after = tuple(utility(w.outcome_after, j, w.profile[j]) for j in range(n))
        assert w.utilities_after == after
        assert all(type(u) is F for u in w.utilities_after)
    return failures


def _table_of(grid, n, rule):
    """The table of ``rule(profile) -> (winner code, payments)`` on ``grid^n``."""
    return MechanismTable.from_outcomes(
        grid, n, {p: Outcome(*rule(p)) for p in enumerate_profiles(grid, n)}
    )


def _unique_top_bid_wins(profile):
    """The unique highest bid wins and pays nothing; on a tie the item stays unsold."""
    top = max(profile)
    winner = profile.index(top) + 1 if profile.count(top) == 1 else 0
    return winner, (F(0),) * len(profile)


def _forged(prop, profile, deviation_profile=None, **fields):
    """A failing report of ``prop`` whose witness no check produces."""
    moved = None if deviation_profile is None else tuple(map(F, deviation_profile))
    return PropertyReport(prop, False, Witness(tuple(map(F, profile)), moved, **fields), 1)


# On GRID012 second price passes IC and own-bid payment invariance, the
# threshold spec passes win preservation and the unique-top-bid table
# passes ANON, so the first four witnesses replay True only if forged.
@pytest.mark.parametrize(
    "mechanism, report",
    [
        pytest.param(
            SecondPriceMechanism(2),
            _forged(Property.IC, (1, 2), (1, 0), agent=0),
            id="ic-move-of-another-agent",
        ),
        pytest.param(
            SecondPriceMechanism(2),
            _forged(Property.PAYMENT_OWN_BID_INVARIANT, (2, 1), (2, 0), agent=0),
            id="payment-move-of-another-agent",
        ),
        pytest.param(
            ThresholdSpec((2, 1), (F(1), F(1))),
            _forged(Property.WIN_PRESERVED_BY_RAISE, (1, 0), (2, 2), agent=0),
            id="raise-moving-both-agents",
        ),
        pytest.param(
            _table_of(GRID012, 2, _unique_top_bid_wins),
            _forged(Property.ANON, (2, 1), (2, 0), permutation=(1, 0)),
            id="anon-profile-not-relabeled",
        ),
        pytest.param(
            SecondPriceMechanism(2),
            _forged(Property.SIC, (0, 2), (1, 2), agent=5, deviation=F(1)),
            id="agent-out-of-range",
        ),
        pytest.param(
            _table_of(GRID012, 2, _unique_top_bid_wins),
            _forged(Property.ANON, (2, 1), (1, 2), permutation=(1, 2)),
            id="permutation-entry-out-of-range",
        ),
        pytest.param(
            SecondPriceMechanism(2),
            _forged(Property.SIC, (0, 2), (1, 2, 2), agent=0, deviation=F(1)),
            id="deviation-profile-of-wrong-length",
        ),
        pytest.param(
            SecondPriceMechanism(2),
            _forged(Property.SIC, (0, 2), (1, 2), agent=0, deviation=F(2)),
            id="deviation-bid-not-the-moved-bid",
        ),
        pytest.param(
            _table_of(GRID012, 2, lambda profile: (1, (F(2), F(0)))),
            _forged(Property.IR, (0, 0), agent=0, utilities_before=(F(0), F(0))),
            id="ir-payoffs-not-the-mechanisms",
        ),
    ],
)
def test_confirm_witness_rejects_forged_shapes(mechanism, report):
    assert confirm_witness(mechanism, report) is False


def _random_tables(count, seed):
    """Tables on GRID012 at n=2 whose winners and payments, losers' too, are drawn at random."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        outcomes = {}
        for profile in enumerate_profiles(GRID012, 2):
            winner = rng.randrange(3)
            payments = tuple(
                rng.choice(GRID012.levels) if j == winner - 1 or rng.random() < 0.3 else F(0)
                for j in range(2)
            )
            outcomes[profile] = Outcome(winner, payments)
        tables.append(MechanismTable.from_outcomes(GRID012, 2, outcomes))
    return tables


def _walked_ir(domains, rows, truth):
    """The slow reference path of `verifier._ir_finding`: each profile's row, then each agent."""
    n = len(domains)
    strides = verifier.domain_strides(domains)
    points = [truth] if truth is not None else itertools.product(*map(range, map(len, domains)))
    for k, digits in enumerate(points):
        flat = sum(d * s for d, s in zip(digits, strides))
        for i, u in enumerate(rows[flat]):
            if u < 0:
                note = "truthful payoff is negative"
                return verifier._Finding(Property.IR, n * k + i + 1, flat, i, note=note)
    return verifier._Finding(Property.IR, n * k + n)


def _tables_from_a_pool(count, seed):
    """Tables on GRID012 at n=2 and 3 drawn from a few outcome objects, losers charged too."""
    rng = random.Random(seed)
    tables = []
    for k in range(count):
        n = 2 + k % 2
        pool = []
        for _ in range(rng.randint(1, 6)):
            winner = rng.randrange(n + 1)
            payments = tuple(
                rng.choice(GRID012.levels) if j == winner - 1 or rng.random() < 0.2 else F(0)
                for j in range(n)
            )
            pool.append(Outcome(winner, payments))
        outcomes = tuple(rng.choice(pool) for _ in enumerate_profiles(GRID012, n))
        tables.append(MechanismTable(GRID012, n, outcomes))
    return tables


def test_ir_judges_each_code_once_as_the_profile_walk_does():
    """IR's finding, witness and count equal those of reading every profile's row in turn."""
    lattices = [verifier._tabulation(t, GRID012) for t in _tables_from_a_pool(400, seed=28)]
    lattices += [verifier._tabulation(m, g) for m, g in _coded_tabulation_cases()[::7]]
    for seed in range(6):
        allocators, domains = _bundle_cases(seed)
        for allocate in allocators:
            for truth in [None, *itertools.product(*map(range, map(len, domains)))]:
                lattices.append(multiitem._bundle_lattice(allocate, domains, truth))
    failures = 0
    for lattice in lattices:
        found = lattice.ir()
        assert found == _walked_ir(lattice.domains, lattice.rows, lattice.truth), lattice.originals
        failures += found.flat is not None
    assert 200 < failures < len(lattices) - 100


def test_every_failing_witness_has_its_property_shape():
    one_profile = {Property.IR, Property.EFF, Property.LOSER_PAYS_NOTHING}
    moves = {
        Property.IC,
        Property.SIC,
        Property.ESIC,
        Property.PAYMENT_OWN_BID_INVARIANT,
        Property.WIN_PRESERVED_BY_RAISE,
    }
    deviations = {Property.IC, Property.SIC, Property.ESIC}
    mechanisms = [
        *enumerate_ir_ic_mechanisms(GRID012, 2),
        *(factory(n) for factory in (FirstPriceMechanism, SecondPriceMechanism) for n in (2, 3)),
        *_random_tables(20, seed=3),
    ]
    checks = (
        check_ir, check_ic, check_sic, check_esic,
        check_anonymous, check_efficient, check_winner_payment_constant,
    )
    failed = {prop: 0 for prop in Property}
    for mechanism in mechanisms:
        reports = [check(mechanism, GRID012) for check in checks]
        for report in [*reports, *check_payment_structure(mechanism, GRID012)]:
            if report.passed:
                continue
            prop, w = report.property, report.witness
            failed[prop] += 1
            assert len(w.profile) == mechanism.n and w.outcome_before is not None
            if prop in one_profile:
                assert w.deviation_profile is w.outcome_after is w.deviation is None
            else:
                assert len(w.deviation_profile) == mechanism.n and w.outcome_after is not None
            if prop is Property.ANON:
                assert w.agent is None and sorted(w.permutation) == list(range(mechanism.n))
            else:
                assert w.permutation is None and 0 <= w.agent < mechanism.n
            if prop in moves:
                assert w.deviation == w.deviation_profile[w.agent]
            else:
                assert w.deviation is None
            if prop is Property.IR:
                assert w.utilities_after is None and len(w.utilities_before) == mechanism.n
            elif prop in deviations:
                assert len(w.utilities_before) == len(w.utilities_after) == mechanism.n
            else:
                assert w.utilities_before is w.utilities_after is None
    assert all(failed.values()), failed


def _priority_posted_price(price, loser_fee=F(0)):
    """The first agent bidding at least 1/3 buys at ``price``; everyone else pays the fee."""

    def rule(profile):
        for i, bid in enumerate(profile):
            if bid >= F(1, 3):
                return i + 1, tuple(price if j == i else loser_fee for j in range(len(profile)))
        return 0, (loser_fee,) * len(profile)

    return rule


def _second_price_plus(markup):
    """The highest bid wins (lowest index on ties).

    The winner pays the second-highest bid plus ``markup``, capped at her own bid.
    """

    def rule(profile):
        top = max(profile)
        i = profile.index(top)
        second = max(profile[:i] + profile[i + 1 :])
        payments = [F(0)] * len(profile)
        payments[i] = min(top, second + markup)
        return i + 1, tuple(payments)

    return rule


def test_lattice_with_payments_off_the_grid_denominators():
    grid = Grid.from_text("0,1/3,7/6,5/2")
    tables = [
        _table_of(grid, 2, _priority_posted_price(F(1, 7))),
        _table_of(grid, 2, _priority_posted_price(F(2, 7), loser_fee=F(1, 7))),
        _table_of(grid, 2, _second_price_plus(F(1, 7))),
        _table_of(grid, 3, _second_price_plus(F(3, 14))),
    ]
    # the grid's denominators are 3, 6 and 2; every payment brings in a 7
    assert verifier._tabulation(tables[0], grid).denominator == 42
    failures = [_assert_checks_match_the_definitions(t, grid) for t in tables]
    # the posted price passes, the loser's fee breaks IR alone, and the
    # markup breaks IC, SIC and ESIC
    assert failures == [0, 1, 3, 3]


def test_lattice_on_forty_digit_denominators():
    p, q = 10**39 + 3, 10**39 + 9
    grid = Grid([0, F(1, q), F(1, p), F(1, p) + F(1, q), F(2, p), 1])
    assert all(len(str(level.denominator)) >= 40 for level in grid.levels[1:-1])
    mechanisms = [
        FirstPriceMechanism(2),
        SecondPriceMechanism(2),
        SecondPriceMechanism(3),
        ThresholdSpec((2, 1), (F(1, p), F(1, q))),
        _table_of(grid, 2, _second_price_plus(F(1, 10**40 + 1))),
    ]
    failures = [_assert_checks_match_the_definitions(m, grid) for m in mechanisms]
    assert failures == [3, 2, 2, 0, 3]


@pytest.mark.parametrize("mechanism", [FirstPriceMechanism(3), SecondPriceMechanism(3)])
def test_lattice_witnesses_at_three_agents_on_a_non_integer_grid(mechanism):
    grid = Grid.from_text("0,1/3,7/6,5/2")
    failures = _assert_checks_match_the_definitions(mechanism, grid)
    assert failures == (3 if isinstance(mechanism, FirstPriceMechanism) else 2)


_STRUCTURAL_CHECKS = (
    (Property.ANON, check_anonymous),
    (Property.EFF, check_efficient),
    (Property.LOSER_PAYS_NOTHING, lambda m, g: check_payment_structure(m, g)[0]),
    (Property.PAYMENT_OWN_BID_INVARIANT, lambda m, g: check_payment_structure(m, g)[1]),
    (Property.WIN_PRESERVED_BY_RAISE, lambda m, g: check_payment_structure(m, g)[2]),
    (Property.WINNER_PRICE_CONSTANT, check_winner_payment_constant),
)


def _assert_structural_checks_match_the_definitions(mechanism, grid):
    """Verdicts and first witnesses of ANON, EFF and the payment checks against brute force.

    Each failure must be the first violation by definition, replay through
    `confirm_witness`, and carry `Fraction` bids and the mechanism's own
    outcomes at the witness's profiles.  Returns the failing properties.
    """
    failing = set()
    for prop, check in _STRUCTURAL_CHECKS:
        report = check(mechanism, grid)
        assert report.property is prop
        first = _first_violation(prop, mechanism, grid)
        assert report.passed == (first is None), (prop, report)
        if first is None:
            continue
        failing.add(prop)
        w = report.witness
        assert (w.profile, w.agent, w.deviation_profile, w.permutation) == first
        assert confirm_witness(mechanism, report)
        assert all(type(v) is F for v in w.profile)
        assert w.outcome_before == mechanism.outcome(w.profile)
        if w.deviation_profile is not None:
            assert all(type(v) is F for v in w.deviation_profile)
            assert w.outcome_after == mechanism.outcome(w.deviation_profile)
        if prop in (Property.PAYMENT_OWN_BID_INVARIANT, Property.WIN_PRESERVED_BY_RAISE):
            assert type(w.deviation) is F
            assert w.deviation == w.deviation_profile[w.agent]
    return failing


def test_structural_checks_match_the_definitions():
    mechanisms = list(enumerate_ir_ic_mechanisms(GRID012, 2))
    assert len(mechanisms) == 594
    mechanisms += [FirstPriceMechanism(n) for n in (2, 3)]
    mechanisms += [SecondPriceMechanism(n) for n in (2, 3)]
    failing = set()
    for mechanism in mechanisms:
        failing |= _assert_structural_checks_match_the_definitions(mechanism, GRID012)
    # IR + IC tables and the price rules never charge a loser or lose by raising
    assert failing == {
        Property.ANON,
        Property.EFF,
        Property.PAYMENT_OWN_BID_INVARIANT,
        Property.WINNER_PRICE_CONSTANT,
    }


def _lowest_bid_wins(price):
    """The lowest bid wins (lowest index on ties) at ``price``."""

    def rule(profile):
        i = profile.index(min(profile))
        return i + 1, tuple(price if j == i else F(0) for j in range(len(profile)))

    return rule


def test_structural_checks_on_the_lattice_examples():
    grid = Grid.from_text("0,1/3,7/6,5/2")
    tables = [
        _table_of(grid, 2, _priority_posted_price(F(1, 7))),
        _table_of(grid, 2, _priority_posted_price(F(2, 7), loser_fee=F(1, 7))),
        _table_of(grid, 2, _second_price_plus(F(1, 7))),
        _table_of(grid, 3, _second_price_plus(F(3, 14))),
        _table_of(grid, 2, _lowest_bid_wins(F(1, 7))),
    ]
    failing = set()
    for table in tables:
        failing |= _assert_structural_checks_match_the_definitions(table, grid)
    p, q = 10**39 + 3, 10**39 + 9
    grid = Grid([0, F(1, q), F(1, p), F(1, p) + F(1, q), F(2, p), 1])
    mechanisms = [
        FirstPriceMechanism(2),
        SecondPriceMechanism(2),
        SecondPriceMechanism(3),
        ThresholdSpec((2, 1), (F(1, p), F(1, q))),
        _table_of(grid, 2, _second_price_plus(F(1, 10**40 + 1))),
        _table_of(grid, 2, _lowest_bid_wins(F(1, 10**40 + 1))),
    ]
    for mechanism in mechanisms:
        failing |= _assert_structural_checks_match_the_definitions(mechanism, grid)
    assert failing == {prop for prop, _ in _STRUCTURAL_CHECKS}


def test_anonymity_on_given_profiles():
    spec = ThresholdSpec((1, 2), (F(1), F(2)))
    grid = closure_for_thresholds(spec.thresholds)
    # tie-free profiles, highest first
    profiles = [p for p in enumerate_profiles(grid, 2) if p[0] != p[1]][::-1]
    report = check_anonymous(spec, grid, profiles=profiles)
    assert not report.passed
    w = report.witness
    assert (w.profile, w.agent, w.deviation_profile, w.permutation) == _first_non_anonymous(
        spec, grid, profiles
    )
    assert report.checked_count == profiles.index(w.profile) + 1
    assert w.profile == (F(5, 2), F(2))
    assert confirm_witness(spec, report)
    with pytest.raises(DomainMismatchError):
        check_anonymous(spec, grid, profiles=[(F(0), F(3))])


# --- enumeration -----------------------------------------------------------


def test_enumeration_on_the_two_level_grid():
    grid = Grid.from_text("0,1")
    tables = list(enumerate_ir_ic_mechanisms(grid, 2))
    assert len(tables) == 30
    for table in tables:
        assert check_ir(table, grid).passed
        assert check_ic(table, grid).passed
    sic = [t for t in tables if check_sic(t, grid).passed]
    assert len(sic) == 18
    # the spite-robust ones are exactly the trembling-safe ones here (n = 2)
    for table in sic:
        assert check_esic(table, grid).passed


def test_enumeration_streams_unique_tables():
    grid = Grid.from_text("0,1")
    tables = list(enumerate_ir_ic_mechanisms(grid, 2))
    assert len(set(tables)) == len(tables)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_ir_ic_mechanisms(Grid.from_text("0,1"), 2, max_tables=10))


def test_enumeration_refuses_an_oversized_walk_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized walk started")

    monkeypatch.setattr(verifier._Walk, "__init__", never)
    monkeypatch.setattr(verifier, "_line_starts", never)
    # a one-level grid counts as two: 2^10 profiles; an n of 10^9 is not raised to
    for grid, n in ((Grid.from_text("0,1,2"), 6), (Grid.from_text("0"), 10), (Grid.from_text("0,1"), 10**9)):
        with pytest.raises(BudgetExceededError, match="over the IR[+]IC walk's cap of 512"):
            list(enumerate_ir_ic_mechanisms(grid, n))
        with pytest.raises(BudgetExceededError, match="over the IR[+]IC walk's cap of 512"):
            characterization_experiment(grid, n)
    with pytest.raises(ValueError, match="need at least one agent"):
        list(enumerate_ir_ic_mechanisms(GRID012, 0))


def test_the_sweep_refuses_unbounded_anonymity_work_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a sweep over the relabeling cap started")

    monkeypatch.setattr(verifier._Walk, "__init__", never)
    for name in ("_line_starts", "_anonymity_check"):
        monkeypatch.setattr(verifier, name, never)
    # each grid is under the walk cap; a closure adds the level 0 to the grid
    for grid, n, reads in (
        ("0,1", 8, "2^8 x (8! - 1) = 10321664"),
        ("0,1", 9, "2^9 x (9! - 1) = 185794048"),
        ("1,2", 7, "3^7 x (7! - 1) = 11020293"),
    ):
        cap = f"{reads} relabeled profiles, over the sweep's cap of 1000000"
        with pytest.raises(BudgetExceededError, match=re.escape(cap)):
            characterization_experiment(Grid.from_text(grid), n)
    # 2^7 x (7! - 1) = 644 992 reads is under the cap: the sweep counts its
    # tables, and stops at its table budget before it walks
    monkeypatch.undo()
    monkeypatch.setattr(verifier._Sweep, "walk", never)
    with pytest.raises(BudgetExceededError, match="more than 5 IR[+]IC tables on grid 0,1"):
        characterization_experiment(Grid.from_text("0,1"), 7, max_tables=5)


def _ir_ic_tables_by_brute_force(grid, n):
    """Every winner-code vector with induced payments that passes IR and IC.

    The winner pays the lowest bid on her own line (the others' bids
    fixed) at which she still wins; vectors are taken in lexicographic
    order, first profile slowest.
    """
    profiles = list(enumerate_profiles(grid, n))
    index = {profile: k for k, profile in enumerate(profiles)}
    kept = []
    for codes in itertools.product(range(n + 1), repeat=len(profiles)):
        rows = {}
        for profile, code in zip(profiles, codes):
            payments = [F(0)] * n
            if code:
                i = code - 1
                payments[i] = min(
                    bid
                    for bid in grid.levels
                    if codes[index[profile[:i] + (bid,) + profile[i + 1 :]]] == code
                )
            rows[profile] = Outcome(code, tuple(payments))
        table = MechanismTable.from_outcomes(grid, n, rows)
        if check_ir(table, grid).passed and check_ic(table, grid).passed:
            kept.append(table)
    return kept


@pytest.mark.parametrize("text, count", [("0,1", 30), ("0,1,2", 594)])
def test_enumeration_matches_the_brute_force_slow_path(text, count):
    grid = Grid.from_text(text)
    tables = list(enumerate_ir_ic_mechanisms(grid, 2))
    assert len(tables) == count
    assert tables == _ir_ic_tables_by_brute_force(grid, 2)


@pytest.mark.parametrize(
    "text, n, count", [("0,1", 2, 30), ("0,1,2", 2, 594), ("0,1", 3, 5075), ("0,1,2,3", 2, 19246)]
)
def test_the_frontier_count_matches_the_walk(text, n, count):
    grid = Grid.from_text(text)
    assert verifier._Walk(grid, n, max_tables=count).ir_ic_count == count
    assert len(list(enumerate_ir_ic_mechanisms(grid, n))) == count
    if (text, n) == ("0,1", 2):
        assert len(_ir_ic_tables_by_brute_force(grid, n)) == count


def _wins_at_two_prices(table):
    prices = {}
    for out in table.outcomes:
        if out.winner:
            prices.setdefault(out.winner, set()).add(out.payments[out.winner - 1])
    return any(len(p) > 1 for p in prices.values())


@pytest.mark.parametrize("text", ["0,1", "0,1,2"])
def test_sweep_counts_match_the_public_checks(text, monkeypatch):
    grid = Grid.from_text(text)
    ir_ic = sic_count = threshold_count = anonymous = efficient = 0
    one_price = []
    sic_specs = set()
    for table in enumerate_ir_ic_mechanisms(grid, 2):
        ir_ic += 1
        sic = check_sic(table, grid).passed
        spec = recognize_threshold_form(table)
        if _wins_at_two_prices(table):
            assert spec is None
            assert not sic
        else:
            one_price.append(table)
        threshold_count += spec is not None
        if sic:
            sic_count += 1
            sic_specs.add(spec)
            closure = closure_for_thresholds(spec.thresholds, base=grid.levels)
            anonymous += check_anonymous(spec, closure).passed
            efficient += check_efficient(spec, closure).passed
    recognized = []

    def recording(columns, winners, thresholds):
        # the sweep's sign columns, from level indices, are those of the levels
        assert columns == [[(level > t) - (level < t) for level in grid.levels] for t in thresholds]
        payments = [tuple(t if j == w - 1 else F(0) for j, t in enumerate(thresholds)) for w in winners]
        recognized.append(MechanismTable(grid, 2, tuple(map(Outcome, winners, payments))))
        return recognize_on_signs(columns, winners, thresholds)

    judged = []

    def judging(spec, closure):
        judged.append(spec)
        return check_anonymous(spec, closure)

    monkeypatch.setattr(verifier, "recognize_on_signs", recording)
    monkeypatch.setattr(verifier, "check_anonymous", judging)
    summary = characterization_experiment(grid, 2)
    assert summary.total_candidates == 3 ** len(grid) ** 2
    assert (
        summary.ir_ic_count,
        summary.sic_count,
        summary.threshold_form_count,
        summary.anonymous_sic_count,
        summary.efficient_sic_count,
    ) == (ir_ic, sic_count, threshold_count, anonymous, efficient)
    # every two-price table fails SIC, so the sweep recognizes exactly the rest
    assert 0 < len(recognized) < ir_ic
    assert recognized == one_price
    # SIC tables that differ only where the boundary choice is invisible share a spec,
    # and each distinct spec is judged once
    assert sorted(map(repr, judged)) == sorted(map(repr, sic_specs))
    assert len(judged) < sic_count


@pytest.mark.parametrize("text", ["0,1,2,3", "0,1/3,7/6,5/2"])
def test_characterization_counts_on_four_levels(text):
    # counts measured with the table-by-table sweep of the first release
    summary = characterization_experiment(Grid.from_text(text), 2)
    assert summary.total_candidates == 3**16
    assert summary.ir_ic_count == 19246
    assert summary.sic_count == 246
    assert summary.threshold_form_count == 246
    assert summary.anonymous_sic_count == 1
    assert summary.efficient_sic_count == 1


def test_characterization_counts_on_five_levels():
    # counts measured with the earlier sweep, which walked and judged all 918 530 tables
    summary = characterization_experiment(Grid.from_text("0,1,2,3,4"), 2)
    assert summary.total_candidates == 3**25
    assert (
        summary.ir_ic_count,
        summary.sic_count,
        summary.threshold_form_count,
        summary.anonymous_sic_count,
        summary.efficient_sic_count,
    ) == (918530, 882, 882, 1, 1)


def test_three_agents_on_two_levels_stop_at_a_known_mismatch():
    # Pinned as found, not as intended: at (1, 1, 1) nobody wins although
    # agent 1 exceeds her induced price of 0, and the grid {0,1} has no
    # level above 1 to tell this table from a threshold mechanism.
    grid = Grid.from_text("0,1")
    with pytest.raises(CharacterizationMismatchError) as caught:
        characterization_experiment(grid, 3)
    assert caught.value.sic is True
    assert caught.value.spec is None
    expected = next(itertools.islice(enumerate_ir_ic_mechanisms(grid, 3), 2367, None))
    assert caught.value.table == expected


def test_sweep_budget_counts_tables():
    grid = Grid.from_text("0,1")
    with pytest.raises(BudgetExceededError, match="more than 29 IR[+]IC tables"):
        characterization_experiment(grid, 2, max_tables=29)
    assert characterization_experiment(grid, 2, max_tables=30).ir_ic_count == 30


def test_sweep_budget_is_decided_before_any_table_is_judged(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a table was judged over the budget")

    # the count from the root decides the budget: no table is walked to a verdict
    monkeypatch.setattr(verifier._Sweep, "judge", never)
    for budget in range(1, 594):
        with pytest.raises(BudgetExceededError, match=f"more than {budget} IR[+]IC tables"):
            characterization_experiment(GRID012, 2, max_tables=budget)
    monkeypatch.undo()
    with pytest.raises(BudgetExceededError, match="more than 593 IR[+]IC tables"):
        characterization_experiment(GRID012, 2, max_tables=593)
    assert characterization_experiment(GRID012, 2, max_tables=594).ir_ic_count == 594


def test_the_count_stops_at_its_first_partial_count_over_the_budget(monkeypatch):
    calls = []
    count = verifier._Walk.count

    def recording(walk, *args):
        calls.append(args)
        return count(walk, *args)

    monkeypatch.setattr(verifier._Walk, "count", recording)
    # {0,1,2,3} at n=2 has 16 profiles and 19 246 tables, which a whole
    # count reaches in 882 calls: this one goes down one path and stops a
    # few nodes after its sixth table
    with pytest.raises(BudgetExceededError, match="more than 5 IR[+]IC tables"):
        verifier._Walk(Grid.from_text("0,1,2,3"), 2, max_tables=5)
    assert len(calls) < 2 * 16


def test_the_sweep_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        found = []
        for text in ("0,1", "0,1,2,3"):
            characterization_experiment(Grid.from_text(text), 2)
            found.append(gc.collect())
    finally:
        gc.enable()
    assert found[1] <= found[0]


def test_characterization_summary_on_the_two_level_grid():
    grid = Grid.from_text("0,1")
    summary = characterization_experiment(grid, 2)
    assert summary.total_candidates == 81
    assert summary.ir_ic_count == 30
    assert summary.sic_count == 18
    assert summary.threshold_form_count == 18
    assert summary.anonymous_sic_count == 1
    assert summary.efficient_sic_count == 1


# --- property-based sweep --------------------------------------------------


@st.composite
def threshold_specs(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    pool = [F(0), F(1, 2), F(1), F(2), INFINITY]
    thresholds = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    ranking = tuple(draw(st.permutations(list(range(1, n + 1)))))
    rule = draw(st.sampled_from(list(BoundaryRule)))
    return ThresholdSpec(ranking, thresholds, rule)


@settings(max_examples=40)
@given(threshold_specs())
def test_random_threshold_specs_are_spite_robust(spec):
    grid = closure_for_thresholds(spec.thresholds)
    assert check_ir(spec, grid).passed
    assert check_ic(spec, grid).passed
    assert check_sic(spec, grid).passed
    assert check_esic(spec, grid).passed


@settings(max_examples=25)
@given(threshold_specs())
def test_random_threshold_specs_have_constant_winner_price(spec):
    grid = closure_for_thresholds(spec.thresholds)
    assert check_winner_payment_constant(spec, grid).passed
