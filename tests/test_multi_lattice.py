"""Multi-item checks and best-bundle regions on the integer lattice.

The checks run on scaled ints; every test here compares them with a
brute force written from the definitions on `Fraction` amounts with
`multi_utility`, or with the `RegionSystem`'s own inequalities.
"""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from spitefree import multiitem
from spitefree.core import Grid
from spitefree.mechanisms import FirstPriceMechanism, SecondPriceMechanism
from spitefree.money import INFINITY
from spitefree.multiitem import (
    BundleValuation,
    ClusterSpec,
    ClusterTieRule,
    HomogeneousSubmodularValuation,
    MultiOutcome,
    SequentialSpec,
    check_multi_esic,
    check_multi_ic,
    check_multi_ir,
    check_multi_sic,
    classify_lattice,
    classify_point,
    cluster_allocate,
    cluster_spite_counterexample,
    full_bundle,
    marginal_vector_count,
    multi_utility,
    nonincreasing_marginal_vectors,
    region_partition,
    sequential_allocate_general,
    sequential_bundle_counterexample,
    sequential_ordering_counterexample,
)
from spitefree.reports import Property
from spitefree.verifier import check_esic, check_ic, check_ir, check_sic, enumerate_ir_ic_mechanisms

CHECKS = {
    Property.IR: check_multi_ir,
    Property.IC: check_multi_ic,
    Property.SIC: check_multi_sic,
    Property.ESIC: check_multi_esic,
}

NOTES = {
    "gain": "deviation strictly raises the deviator's payoff",
    "harm": "payoff-neutral deviation harms some agent and helps none",
    "esic": "payoff-neutral deviation strictly harms another agent",
}


def _by_definition(prop, mech, domains, truth=None):
    """(passed, checked count, first witness as a dict), off the definitions.

    Truthful profiles go in domain order (the last agent fastest), then
    agents, then each report of the agent's domain whose value differs
    from her truth.  Amounts are `Fraction`s from `multi_utility`.
    """
    memo = {}

    def allocate(profile):
        if profile not in memo:
            memo[profile] = mech(profile)
        return memo[profile]

    n = len(domains)
    if truth is None:
        truths = itertools.product(*domains)
    else:  # a given truth names the first candidate equal to it
        truths = [tuple(d[d.index(v)] for d, v in zip(domains, truth))]
    checked = 0
    for values in truths:
        out = allocate(values)
        before = tuple(multi_utility(out, j, values[j]) for j in range(n))
        if prop is Property.IR:
            for i in range(n):
                checked += 1
                if before[i] < 0:
                    witness = dict(profile=values, agent=i, utilities_before=before,
                                   outcome_before=out, note="truthful payoff is negative")
                    return False, checked, witness
            continue
        for i in range(n):
            for bid in domains[i]:
                if bid == values[i]:
                    continue
                checked += 1
                report = values[:i] + (bid,) + values[i + 1:]
                out_b = allocate(report)
                after = tuple(multi_utility(out_b, j, values[j]) for j in range(n))
                others = [j for j in range(n) if j != i]
                harmed = any(after[j] < before[j] for j in others)
                helped = any(after[j] > before[j] for j in others)
                note = None
                if after[i] > before[i]:
                    note = NOTES["gain"]
                elif after[i] == before[i] and prop is Property.ESIC and harmed:
                    note = NOTES["esic"]
                elif after[i] == before[i] and prop is Property.SIC and harmed and not helped:
                    note = NOTES["harm"]
                if note is not None:
                    witness = dict(profile=values, agent=i, deviation=bid, deviation_profile=report,
                                   utilities_before=before, utilities_after=after,
                                   outcome_before=out, outcome_after=out_b, note=note)
                    return False, checked, witness
    return True, checked, None


def _assert_matches_definition(mech, domains, truth=None):
    """All four checks, in one run's order, against the brute force."""
    for prop, check in CHECKS.items():
        report = check(mech, domains, truth)
        passed, checked, expected = _by_definition(prop, mech, domains, truth)
        assert (report.property, report.passed, report.checked_count) == (prop, passed, checked)
        if passed:
            assert report.witness is None
            continue
        w = report.witness
        assert w.agent == expected["agent"]
        assert w.note == expected["note"]
        # the domain's own valuation objects, at their first position
        assert all(a is b for a, b in zip(w.profile, expected["profile"], strict=True))
        assert w.utilities_before == expected["utilities_before"]
        assert all(type(u) is F for u in w.utilities_before)
        assert isinstance(w.outcome_before, MultiOutcome)
        assert w.outcome_before == expected["outcome_before"]
        if prop is Property.IR:
            assert (w.deviation, w.deviation_profile, w.utilities_after, w.outcome_after) == (
                None, None, None, None)
            continue
        assert w.deviation is expected["deviation"]
        assert all(a is b for a, b in zip(w.deviation_profile, expected["deviation_profile"], strict=True))
        assert w.utilities_after == expected["utilities_after"]
        assert all(type(u) is F for u in w.utilities_after)
        assert isinstance(w.outcome_after, MultiOutcome)
        assert w.outcome_after == expected["outcome_after"]


@pytest.mark.parametrize("items", [2, 3])
@pytest.mark.parametrize("ranking", [(1, 2), (2, 1)])
def test_builtin_domain_checks_match_the_definitions(items, ranking):
    domain = tuple(nonincreasing_marginal_vectors(items, 2))
    for thresholds in itertools.product(range(4), repeat=2):
        spec = SequentialSpec(ranking, tuple(F(t) for t in thresholds))
        mech = lambda bids, spec=spec: sequential_allocate_general(spec, bids)
        _assert_matches_definition(mech, (domain, domain))


@pytest.mark.parametrize("epsilon", [F(1, 2), F(1, 3), F(2, 5)])
@pytest.mark.parametrize(
    "example, allocate",
    [
        (sequential_bundle_counterexample, sequential_allocate_general),
        (sequential_ordering_counterexample, sequential_allocate_general),
        (cluster_spite_counterexample, cluster_allocate),
    ],
)
def test_counterexamples_match_the_definitions(example, allocate, epsilon):
    spec, truths, domains = example(epsilon)
    mech = lambda bids: allocate(spec, bids)
    _assert_matches_definition(mech, domains, truths)
    _assert_matches_definition(mech, domains)


def _amount(rng):
    return F(rng.randint(0, 12), rng.randint(2, 6))


def _forced_sale(price, n, items):
    """Hands the first agent every item at ``price`` whatever anyone reports (fails IR)."""
    bundles = (full_bundle(items),) + (0,) * (n - 1)
    payments = (price,) + (F(0),) * (n - 1)
    return lambda bids: MultiOutcome(bundles, payments)


def _seeded_case(seed):
    """Three mechanisms on candidate domains with a repeated candidate.

    A cluster sale, an item-by-item sequential sale and a forced sale;
    their prices and the values have denominators 2 to 6.  One agent's
    domain holds an equal copy of one of its valuations (equal, not the
    same object).  Returns (cluster spec, mechanisms, domains, truth).
    """
    rng = random.Random(seed)
    items = rng.choice((1, 2, 2, 3))
    n = rng.choice((1, 2, 2, 3))
    ranking = tuple(rng.sample(range(1, n + 1), n))
    rows = [(0, *(_amount(rng) for _ in range(1, 1 << items))) for _ in range(n)]
    cluster = ClusterSpec(items, ranking, tuple(rows), rng.choice(list(ClusterTieRule)))
    sequential = SequentialSpec(ranking, tuple(_amount(rng) for _ in range(n)))
    mechanisms = (
        lambda bids: cluster_allocate(cluster, bids),
        lambda bids: sequential_allocate_general(sequential, bids),
        _forced_sale(_amount(rng), n, items),
    )

    def valuation():
        return BundleValuation.from_map(items, {m: _amount(rng) for m in range(1, 1 << items)})

    domains = [[valuation() for _ in range(rng.randint(2, 4))] for _ in range(n)]
    repeated = domains[rng.randrange(n)]
    original = rng.choice(repeated)
    repeated.insert(rng.randint(0, len(repeated)), BundleValuation(items, original.values))
    domains = tuple(tuple(d) for d in domains)
    truth = tuple(rng.choice(d) for d in domains)
    return cluster, mechanisms, domains, truth


@pytest.mark.parametrize("seed", range(40))
def test_seeded_specs_with_fractional_prices_match_the_definitions(seed):
    _, mechanisms, domains, truth = _seeded_case(seed)
    for mech in mechanisms:
        _assert_matches_definition(mech, domains, truth)
        _assert_matches_definition(mech, domains)


def test_seeded_specs_reach_failures_with_fractional_payoffs():
    """The seeded cases are not vacuous: witnesses of every property carry non-integer amounts."""
    fractional = dict.fromkeys(CHECKS, 0)
    for seed in range(40):
        _, mechanisms, domains, _ = _seeded_case(seed)
        for mech in mechanisms:
            for prop, check in CHECKS.items():
                report = check(mech, domains)
                if not report.passed:
                    amounts = report.witness.utilities_before + (report.witness.utilities_after or ())
                    fractional[prop] += any(u.denominator > 1 for u in amounts)
    assert min(fractional.values()) >= 4, fractional


# --- one walk for IC, SIC and ESIC -------------------------------------------


def _multi_order_cases():
    """(mechanism, domains, truth): hashable mechanisms, so the checks share a cached lattice."""
    spec, truths, domains = cluster_spite_counterexample()
    cluster = functools.partial(cluster_allocate, spec)
    builtin = tuple(nonincreasing_marginal_vectors(3, 2))
    sequential = functools.partial(
        sequential_allocate_general, SequentialSpec((2, 1), (F(3), F(2)))
    )
    cases = [
        (cluster, domains, truths),
        (cluster, domains, None),
        (sequential, (builtin, builtin), None),
        (sequential, (builtin, builtin), (builtin[3], builtin[7])),
    ]
    for seed in range(8):
        _, mechanisms, domains, truth = _seeded_case(seed)
        cases += [(mech, domains, t) for mech in mechanisms for t in (truth, None)]
    return cases


def test_multi_deviation_checks_agree_in_every_order():
    props = (Property.IC, Property.SIC, Property.ESIC)
    for mech, domains, truth in _multi_order_cases():
        alone = {}
        for prop in props:
            multiitem._cached_lattice.cache_clear()
            report = CHECKS[prop](mech, domains, truth)
            passed, checked, expected = _by_definition(prop, mech, domains, truth)
            assert (report.passed, report.checked_count) == (passed, checked)
            if not passed:
                w = report.witness
                assert (w.profile, w.agent, w.deviation, w.note) == tuple(
                    expected[k] for k in ("profile", "agent", "deviation", "note")
                )
            alone[prop] = repr(report)
        for order in itertools.permutations(props):
            multiitem._cached_lattice.cache_clear()
            for prop in order:
                assert repr(CHECKS[prop](mech, domains, truth)) == alone[prop], (order, prop)


def test_bundle_payoff_rows_are_the_payoffs_the_checks_read():
    """Rows value everyone at her report, or at her truth if one is given; equal rows are one tuple.

    Without a truth the rows are a tuple over every profile; with one, a
    dict over each agent's line through the truth.
    """
    for mech, domains, truth in _multi_order_cases():
        at = None if truth is None else tuple(d.index(v) for d, v in zip(domains, truth))
        lattice = multiitem._bundle_lattice(mech, domains, at)
        strides = multiitem.domain_strides(domains)
        if truth is None:
            assert type(lattice.rows) is tuple
            rows = dict(enumerate(lattice.rows))
            assert len(rows) == len(list(itertools.product(*domains)))
        else:
            rows = lattice.rows
            center = sum(k * s for k, s in zip(at, strides))
            star = {
                center + (d - k) * s
                for dom, k, s in zip(domains, at, strides)
                for d in range(len(dom))
            }
            assert set(rows) == star
        for flat, row in rows.items():
            profile = tuple(d[flat // s % len(d)] for d, s in zip(domains, strides))
            values = profile if truth is None else truth
            out = mech(profile)
            expected = tuple(multi_utility(out, j, v) for j, v in enumerate(values))
            assert tuple(F(u, lattice.denominator) for u in row) == expected
        assert len({id(row) for row in rows.values()}) == len(set(rows.values()))


# --- allocator calls per run -----------------------------------------------


class _Counting:
    """A mechanism that counts its calls."""

    def __init__(self, allocate, spec):
        self.allocate, self.spec, self.calls = allocate, spec, 0

    def __call__(self, bids):
        self.calls += 1
        return self.allocate(self.spec, bids)


def test_every_profile_is_allocated_once_per_run():
    domain = tuple(nonincreasing_marginal_vectors(3, 2))
    mech = _Counting(sequential_allocate_general, SequentialSpec((1, 2), (F(2), F(1))))
    for check in CHECKS.values():
        assert check(mech, (domain, domain)).passed
    assert mech.calls == len(domain) ** 2 == 100


@pytest.mark.parametrize(
    "example, allocate",
    [
        (sequential_bundle_counterexample, sequential_allocate_general),
        (sequential_ordering_counterexample, sequential_allocate_general),
        (cluster_spite_counterexample, cluster_allocate),
    ],
)
def test_a_given_truth_allocates_only_what_the_checks_read(example, allocate):
    spec, truths, domains = example()
    mech = _Counting(allocate, spec)
    for check in (check_multi_ir, check_multi_ic, check_multi_sic):
        check(mech, domains, truths)
    # the three checks share one lattice of the truth and its one
    # deviation; one lattice per check would allocate 2 + 2 + 2 times
    assert mech.calls == 2


@pytest.mark.parametrize("seed", range(20))
def test_a_shared_lattice_never_allocates_more_than_one_per_check(seed):
    cluster, _, domains, truth = _seeded_case(seed)
    shared = _Counting(cluster_allocate, cluster)
    separate = 0
    for check in CHECKS.values():
        check(shared, domains, truth)
        alone = _Counting(cluster_allocate, cluster)
        check(alone, domains, truth)
        separate += alone.calls
    assert shared.calls <= separate


class _Unhashable(_Counting):
    __eq__ = object.__eq__
    __hash__ = None


def test_an_unhashable_mechanism_is_tabulated_on_every_call():
    spec, truths, domains = cluster_spite_counterexample()
    mech = _Unhashable(cluster_allocate, spec)
    assert not check_multi_sic(mech, domains, truths).passed
    assert not check_multi_sic(mech, domains, truths).passed
    assert mech.calls == 2 * 2


def test_a_witness_names_the_valuations_of_its_own_call():
    spec, truths, domains = cluster_spite_counterexample()
    mech = _Counting(cluster_allocate, spec)
    first = check_multi_sic(mech, domains, truths).witness
    copies = tuple(tuple(BundleValuation(v.item_count, v.values) for v in d) for d in domains)
    second = check_multi_sic(mech, copies, truths).witness
    assert mech.calls == 2  # the equal domains share one tabulation
    assert second == first
    assert all(a is b for a, b in zip(second.profile, (d[0] for d in copies), strict=True))
    assert any(second.deviation is v for v in copies[second.agent])
    assert all(a is b for a, b in zip(second.deviation_profile,
                                      (d[0] if j != second.agent else second.deviation
                                       for j, d in enumerate(copies)), strict=True))
    # the outcomes are the allocator's, from the call that tabulated them
    assert second.outcome_before is first.outcome_before


# --- one item, written both ways ------------------------------------------


def _as_one_item_sale(mechanism):
    """The single-item mechanism as an allocator of bundle 1 (the item) to the winner."""

    def allocate(bids):
        out = mechanism.outcome(tuple(bid.marginals[0] for bid in bids))
        bundles = tuple(int(out.winner == i + 1) for i in range(mechanism.n))
        return MultiOutcome(bundles, out.payments)

    return allocate


def _one_item_cases():
    for text in ("0,1,2", "0,1/3,7/6,5/2"):
        grid = Grid.from_text(text)
        for n in (2, 3):
            yield FirstPriceMechanism(n), grid
            yield SecondPriceMechanism(n), grid
    grid = Grid.from_text("0,1,2")
    yield from ((table, grid) for table, _ in zip(enumerate_ir_ic_mechanisms(grid, 2), range(200)))


def test_single_and_multi_item_checks_agree_on_one_item():
    single = {
        check_multi_ir: check_ir,
        check_multi_ic: check_ic,
        check_multi_sic: check_sic,
        check_multi_esic: check_esic,
    }

    def level(valuation):
        return None if valuation is None else valuation.marginals[0]

    def levels(profile):
        return None if profile is None else tuple(map(level, profile))

    pairs = failures = 0
    for mechanism, grid in _one_item_cases():
        valuations = tuple(HomogeneousSubmodularValuation((v,)) for v in grid.levels)
        domains = (valuations,) * mechanism.n
        allocate = _as_one_item_sale(mechanism)
        for multi_check, check in single.items():
            expected = check(mechanism, grid)
            report = multi_check(allocate, domains)
            pairs += 1
            assert (report.property, report.passed, report.checked_count) == (
                expected.property, expected.passed, expected.checked_count)
            if expected.passed:
                assert report.witness is None
                continue
            failures += 1
            w, e = report.witness, expected.witness
            assert levels(w.profile) == e.profile
            assert (w.agent, level(w.deviation), w.note) == (e.agent, e.deviation, e.note)
            assert levels(w.deviation_profile) == e.deviation_profile
            assert (w.utilities_before, w.utilities_after) == (e.utilities_before, e.utilities_after)
    # both sides map failing witnesses back, so many of the pairs must fail
    assert (pairs, failures) == (832, 314)


# --- best-bundle regions ---------------------------------------------------


def _holds_weakly(system, point):
    return frozenset(
        mask
        for mask, region in enumerate(system.regions)
        if region is not None and all(ineq.holds_weakly(point) for ineq in region)
    )


def test_lattice_classification_matches_the_region_inequalities():
    prices = {0b001: F(4, 3), 0b010: F(1, 2), 0b100: INFINITY, 0b011: F(2),
              0b101: F(5, 2), 0b110: F(7, 6), 0b111: F(3)}
    system = region_partition(prices, 3)
    axis = [F(k, 3) for k in range(10)]
    lattice = list(classify_lattice(system, axis))
    assert [point for point, _ in lattice] == list(itertools.product(axis, repeat=3))
    ties = 0
    for point, best in lattice:
        assert best == _holds_weakly(system, point) == classify_point(system, point)
        assert 0b100 not in best
        ties += len(best) > 1
    assert ties > 0


def test_point_classification_matches_the_region_inequalities():
    rng = random.Random(5)
    for _ in range(30):
        items = rng.choice((1, 2, 3))
        prices = {m: INFINITY if rng.random() < 0.2 else _amount(rng) for m in range(1, 1 << items)}
        system = region_partition(prices, items)
        for point in itertools.product([F(k, 4) for k in range(0, 13, 3)], repeat=items):
            assert classify_point(system, point) == _holds_weakly(system, point)


def test_marginal_vector_count_is_the_menu_size():
    for items in range(4):
        for top in range(5):
            assert marginal_vector_count(items, top) == len(list(nonincreasing_marginal_vectors(items, top)))
    assert marginal_vector_count(3, 60) == 39711
    with pytest.raises(ValueError):
        marginal_vector_count(2, -1)
