import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from spitefree import mechanisms
from spitefree.core import Grid, MechanismTable, Outcome, enumerate_profiles
from spitefree.mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
    recognize_threshold_form,
    tabulate,
    tabulate_outcomes,
    threshold_outcome,
)
from spitefree.money import INFINITY
from spitefree.verifier import _cached_tabulation, enumerate_ir_ic_mechanisms


def spec12(rule=BoundaryRule.HIGHEST_RANK_AT_THRESHOLD):
    return ThresholdSpec((1, 2), (F(1), F(2)), rule)


def test_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec((1, 1), (F(1), F(1)))
    with pytest.raises(ValueError):
        ThresholdSpec((), ())
    with pytest.raises(TypeError):
        ThresholdSpec((1, 2), (0.5, F(1)))


def test_a_spec_hashes_as_its_fields():
    # the hash is taken once, as the spec is made
    spec = ThresholdSpec((2, 1), (F(1), INFINITY), BoundaryRule.NO_ALLOCATION)
    same = ThresholdSpec([2, 1], (1, INFINITY), "no_allocation")
    assert same == spec and hash(same) == hash(spec)
    assert hash(spec) == hash((spec.ranking, spec.thresholds, spec.boundary_rule))
    moved = dataclasses.replace(spec, thresholds=(F(1), F(3, 2)))
    assert hash(moved) == hash(ThresholdSpec((2, 1), (F(1), F(3, 2)), BoundaryRule.NO_ALLOCATION))
    assert hash(moved) == hash((moved.ranking, moved.thresholds, moved.boundary_rule))
    assert {spec: 1, moved: 2}[same] == 1


def test_priority_order():
    assert ThresholdSpec((2, 1), (F(0), F(0))).priority_order() == (1, 0)
    assert ThresholdSpec((2, 3, 1), (F(0),) * 3).priority_order() == (2, 0, 1)


def test_no_bid_meets_no_sale():
    assert threshold_outcome(spec12(), (F(0), F(0))) == Outcome(0, (F(0), F(0)))


def test_strict_exceeder_wins_at_threshold_price():
    assert threshold_outcome(spec12(), (F(2), F(0))) == Outcome(1, (F(1), F(0)))
    assert threshold_outcome(spec12(), (F(0), F(3))) == Outcome(2, (F(0), F(2)))


def test_priority_decides_between_meeting_agents():
    # both meet and somebody exceeds: highest priority among the meeters wins
    out = threshold_outcome(spec12(), (F(1), F(3)))
    assert out == Outcome(1, (F(1), F(0)))
    flipped = ThresholdSpec((2, 1), (F(1), F(2)))
    assert threshold_outcome(flipped, (F(1), F(3))) == Outcome(2, (F(0), F(2)))


def test_boundary_rule_when_nobody_strictly_exceeds():
    bids = (F(1), F(2))
    assert threshold_outcome(spec12(), bids) == Outcome(1, (F(1), F(0)))
    refusing = spec12(BoundaryRule.NO_ALLOCATION)
    assert threshold_outcome(refusing, bids) == Outcome(0, (F(0), F(0)))


def test_winner_always_pays_own_threshold():
    grid = Grid.from_text("0,1/2,1,3/2,2,5/2")
    for profile in enumerate_profiles(grid, 2):
        out = threshold_outcome(spec12(), profile)
        w = out.winner_index()
        if w is not None:
            assert out.payments[w] == spec12().thresholds[w]


def test_null_mechanism_and_null_spec_agree():
    grid = Grid.from_text("0,1,5")
    outcomes = tabulate(null_spec(2), grid).outcomes
    assert all(out == Outcome(0, (F(0), F(0))) for out in outcomes)  # never sells or charges
    assert null_spec(3).thresholds == (INFINITY, INFINITY, INFINITY)


def test_second_price_outcomes():
    sp = SecondPriceMechanism(3)
    assert sp.outcome((F(3), F(1), F(2))) == Outcome(1, (F(2), F(0), F(0)))
    # tie goes to the lowest index and the price equals the shared bid
    assert sp.outcome((F(2), F(2), F(0))) == Outcome(1, (F(2), F(0), F(0)))


def test_first_price_outcomes():
    fp = FirstPriceMechanism(2)
    assert fp.outcome((F(3), F(1))) == Outcome(1, (F(3), F(0)))
    assert fp.outcome((F(1), F(4))) == Outcome(2, (F(0), F(4)))


def test_benchmarks_need_two_agents():
    with pytest.raises(ValueError):
        SecondPriceMechanism(1)
    with pytest.raises(ValueError):
        FirstPriceMechanism(1)


def _threshold_rule_by_definition(spec, bids):
    """(winner code, payments) by the threshold rule of the module docstring.

    Written on `Fraction` bids, independently of the module's sign rule:
    the item is sold when some bid strictly exceeds its threshold, or when
    some bid exactly meets its threshold and the boundary rule allocates;
    the buyer is the first agent in priority order whose bid meets her
    threshold.
    """
    n = len(bids)
    payments = [F(0)] * n
    exceeds = any(b > t for b, t in zip(bids, spec.thresholds))
    meets = any(b >= t for b, t in zip(bids, spec.thresholds))
    allocates_ties = spec.boundary_rule is BoundaryRule.HIGHEST_RANK_AT_THRESHOLD
    if not (exceeds or (meets and allocates_ties)):
        return 0, tuple(payments)
    for agent in sorted(range(n), key=lambda i: spec.ranking[i]):
        if bids[agent] >= spec.thresholds[agent]:
            payments[agent] = spec.thresholds[agent]
            return agent + 1, tuple(payments)
    raise AssertionError("a sale without a buyer")


def test_tabulate_matches_pointwise_evaluation():
    """Every threshold spec over a small pool tabulates to the rule by definition,
    with at most n + 1 distinct outcome objects."""
    pool = (F(0), F(1, 2), F(1), F(5, 3), INFINITY)
    for grid in (Grid.from_text("0,1,2"), Grid.from_text("0,1/3,1,2")):
        for n in (1, 2, 3):
            for thresholds in itertools.product(pool, repeat=n):
                for ranking in itertools.permutations(range(1, n + 1)):
                    for rule in BoundaryRule:
                        spec = ThresholdSpec(ranking, thresholds, rule)
                        table = tabulate(spec, grid)
                        for profile, out in table.rows:
                            expected = _threshold_rule_by_definition(spec, profile)
                            assert (out.winner, out.payments) == expected, (spec, profile)
                        assert len({id(out) for out in table.outcomes}) <= n + 1


def test_verifier_tabulates_through_tabulate():
    grid = Grid.from_text("0,1/3,1,2")
    mechanisms = [
        ThresholdSpec((2, 1, 3), (F(1, 3), F(1), INFINITY)),
        ThresholdSpec((1, 2), (F(1), F(1)), BoundaryRule.NO_ALLOCATION),
        FirstPriceMechanism(3),
        SecondPriceMechanism(2),
    ]
    for mechanism in mechanisms:
        assert _cached_tabulation(mechanism, grid).originals == tabulate(mechanism, grid).outcomes



def test_price_rules_tabulate_on_level_indices_as_they_evaluate():
    """Index tabulation equals profile-by-profile evaluation, with one shared
    outcome per (winner, price level)."""
    rng = random.Random(17)
    grids = [Grid.from_text("5/2"), Grid.from_text("0,1/3,1,7/4")]
    for _ in range(12):
        grids.append(Grid(F(rng.randint(0, 30), rng.randint(1, 7)) for _ in range(rng.randint(1, 5))))
    for grid in grids:
        for n in (2, 3, 4):
            for mechanism in (FirstPriceMechanism(n), SecondPriceMechanism(n)):
                outcomes = tabulate_outcomes(mechanism, grid)
                assert outcomes == tuple(map(mechanism.outcome, enumerate_profiles(grid, n)))
                distinct = {id(out) for out in outcomes}
                assert len(distinct) == len(set(outcomes)) <= n * len(grid)
    # on one level every bid ties: agent 1 always wins at that level
    assert set(tabulate_outcomes(SecondPriceMechanism(3), grids[0])) == {
        Outcome(1, (F(5, 2), F(0), F(0)))
    }


def test_price_outcome_functions_keep_their_module_names():
    # perfbench/tracing.py wraps these names to count per-profile evaluations
    for name in ("first_price_outcome", "second_price_outcome", "threshold_outcome"):
        assert callable(getattr(mechanisms, name))
    assert mechanisms.second_price_outcome((F(1), F(3), F(2))) == Outcome(2, (F(0), F(2), F(0)))
    assert mechanisms.first_price_outcome((F(1), F(3), F(3))) == Outcome(2, (F(0), F(3), F(0)))

# --- threshold-form recognition --------------------------------------------


def _closure_grid():
    return Grid.from_text("0,1/2,1,3/2,2,5/2")


def _explains_up_to_boundary(spec, table):
    """Independent restatement of the recognizer's contract: away from
    exact-tie profiles the spec must reproduce the table; at a tie the
    table may allocate to any meeting agent at her threshold, or refuse."""
    for profile, outcome in table.rows:
        meets = [j for j in range(spec.n) if profile[j] >= spec.thresholds[j]]
        if any(profile[j] > spec.thresholds[j] for j in meets):
            if outcome != threshold_outcome(spec, profile):
                return False
            continue
        w = outcome.winner_index()
        if w is None:
            if any(p != 0 for p in outcome.payments):
                return False
        else:
            if w not in meets:
                return False
            want = [F(0)] * spec.n
            want[w] = spec.thresholds[w]
            if list(outcome.payments) != want:
                return False
    return True


def test_recognition_round_trip_over_small_family():
    """Every spec with thresholds in {0,1,2,inf} tabulates to a table the
    recognizer explains; allocating specs round-trip to the exact table."""
    grid = _closure_grid()
    pool = (F(0), F(1), F(2), INFINITY)
    for thresholds in itertools.product(pool, repeat=2):
        for ranking in ((1, 2), (2, 1)):
            for rule in BoundaryRule:
                spec = ThresholdSpec(ranking, thresholds, rule)
                table = tabulate(spec, grid)
                recovered = recognize_threshold_form(table)
                assert recovered is not None
                assert _explains_up_to_boundary(recovered, table)
                if rule is BoundaryRule.HIGHEST_RANK_AT_THRESHOLD:
                    # no refusal anywhere, so the table pins the spec exactly
                    assert tabulate(recovered, grid) == table


def test_recognition_tolerates_mixed_boundary_behavior():
    # allocate at one exact-tie profile, refuse at another: still threshold form
    grid = Grid.from_text("0,1/2,1,3/2")
    base = tabulate(ThresholdSpec((1, 2), (F(1), F(1))), grid)
    rows = dict(base.rows)
    rows[(F(1), F(1))] = Outcome(0, (F(0), F(0)))
    mixed = MechanismTable.from_outcomes(grid, 2, rows)
    spec = recognize_threshold_form(mixed)
    assert spec is not None
    assert spec.thresholds == (F(1), F(1))
    # the boundary may also favor the lower-priority tied agent
    rows[(F(1), F(1))] = Outcome(2, (F(0), F(1)))
    alt = MechanismTable.from_outcomes(grid, 2, rows)
    assert recognize_threshold_form(alt) is not None


def test_recognition_rejects_price_benchmarks():
    grid = Grid.from_text("0,1,2")
    assert recognize_threshold_form(tabulate(SecondPriceMechanism(2), grid)) is None
    assert recognize_threshold_form(tabulate(FirstPriceMechanism(2), grid)) is None


def test_recognition_rejects_varying_winner_price():
    grid = Grid.from_text("0,1,2")
    base = tabulate(ThresholdSpec((1, 2), (F(1), F(1))), grid)
    rows = dict(base.rows)
    # charge a different price at one winning profile
    rows[(F(2), F(0))] = Outcome(1, (F(2), F(0)))
    broken = MechanismTable.from_outcomes(grid, 2, rows)
    assert recognize_threshold_form(broken) is None


def test_recognition_rejects_paying_losers():
    grid = Grid.from_text("0,1")
    rows = {
        p: Outcome(0, (F(0), F(1))) for p in enumerate_profiles(grid, 2)
    }
    table = MechanismTable.from_outcomes(grid, 2, rows)
    assert recognize_threshold_form(table) is None


def test_null_table_recognized_as_all_infinite():
    grid = Grid.from_text("0,1,2")
    spec = recognize_threshold_form(tabulate(null_spec(2), grid))
    assert spec is not None
    assert spec.thresholds == (INFINITY, INFINITY)


def _some_ranking_explains(table):
    """Whether some ranking explains the table by the definition, with each
    threshold set to that agent's first winning price (INFINITY if none)."""
    prices = {}
    for out in table.outcomes:
        if out.winner:
            prices.setdefault(out.winner - 1, out.payments[out.winner - 1])
    thresholds = tuple(prices.get(i, INFINITY) for i in range(table.n))
    return any(
        _explains_up_to_boundary(ThresholdSpec(ranking, thresholds), table)
        for ranking in itertools.permutations(range(1, table.n + 1))
    )


def _perturbed_tabulations(seed, count):
    """Threshold tabulations with up to three outcomes replaced at random:
    by no sale, a sale at the winner's threshold or at a grid level, or a
    sale with a paying loser."""
    rng = random.Random(seed)
    candidates = [F(a, b) for a in range(9) for b in (1, 2, 3)]
    for _ in range(count):
        n = rng.choice((1, 2, 2, 3))
        grid = Grid(rng.sample(candidates, rng.randint(1, 4 if n == 3 else 5)))
        pool = list(grid.levels) + [F(5, 7), INFINITY]
        thresholds = tuple(rng.choice(pool) for _ in range(n))
        ranking = tuple(rng.sample(range(1, n + 1), n))
        spec = ThresholdSpec(ranking, thresholds, rng.choice(list(BoundaryRule)))
        outcomes = list(tabulate(spec, grid).outcomes)
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(4)
            winner = rng.randrange(n) if kind else -1
            payments = [F(0)] * n
            if kind == 1 and thresholds[winner] != INFINITY:
                payments[winner] = thresholds[winner]
            elif kind:
                payments[winner] = rng.choice(grid.levels)
            if kind == 3 and n > 1:
                payments[(winner + 1) % n] = F(1)
            outcomes[rng.randrange(len(outcomes))] = Outcome(winner + 1, tuple(payments))
        yield MechanismTable(grid, n, outcomes)


def test_recognition_agrees_with_the_definition():
    """The recognizer finds a spec exactly when some ranking explains the
    table; its spec explains the table, and its rule is NO_ALLOCATION
    exactly when that rule, and not the other, tabulates back to it."""
    tables = [
        table
        for text, n in (("0,1", 2), ("0,1,2", 2), ("0,1", 3))
        for table in enumerate_ir_ic_mechanisms(Grid.from_text(text), n)
    ]
    tables.extend(_perturbed_tabulations(seed=9, count=3000))
    recognized = 0
    for table in tables:
        spec = recognize_threshold_form(table)
        assert (spec is None) == (not _some_ranking_explains(table)), table
        if spec is None:
            continue
        recognized += 1
        assert _explains_up_to_boundary(spec, table), table
        refusing, allocating = (
            tabulate(ThresholdSpec(spec.ranking, spec.thresholds, rule), table.grid)
            for rule in (BoundaryRule.NO_ALLOCATION, BoundaryRule.HIGHEST_RANK_AT_THRESHOLD)
        )
        no_allocation = refusing == table and allocating != table
        assert (spec.boundary_rule is BoundaryRule.NO_ALLOCATION) == no_allocation, table
    # both answers occur often, so neither side of the equivalence is vacuous
    assert 1000 < recognized < len(tables) - 1000
