import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from spitefree.money import INFINITY
from spitefree.multiitem import (
    EMPTY_BUNDLE,
    BundleValuation,
    ClusterSpec,
    ClusterTieRule,
    HomogeneousSubmodularValuation,
    LinearInequality,
    MultiOutcome,
    OwnBidPaymentVariationError,
    SequentialSpec,
    bundle_items,
    bundle_of,
    bundle_size,
    check_multi_esic,
    check_multi_ic,
    check_multi_ir,
    check_multi_sic,
    classify_point,
    cluster_allocate,
    cluster_spite_counterexample,
    full_bundle,
    multi_utility,
    nonincreasing_marginal_vectors,
    parse_bundle,
    payment_range_cardinality,
    region_partition,
    render_bundle,
    sequential_allocate_general,
    sequential_bundle_counterexample,
    sequential_ordering_counterexample,
    subsets_of,
)
from spitefree.reports import Property
from spitefree.verifier import deviation_clause

# --- bundle plumbing -------------------------------------------------------


def test_bundle_primitives():
    assert bundle_of() == EMPTY_BUNDLE == 0
    assert bundle_of(0, 2) == 0b101
    assert bundle_size(0b101) == 2
    assert bundle_items(0b101) == (0, 2)
    assert full_bundle(3) == 0b111
    assert sorted(subsets_of(0b101)) == [0b000, 0b001, 0b100, 0b101]


def test_bundle_strings_put_the_first_item_leftmost():
    assert parse_bundle("10") == 0b01
    assert parse_bundle("01") == 0b10
    assert parse_bundle("110") == 0b011
    assert render_bundle(EMPTY_BUNDLE) == "{}"
    assert render_bundle(0b01) == "{a1}"
    assert render_bundle(0b101) == "{a1,a3}"


def test_parse_bundle_rejects_junk():
    with pytest.raises(ValueError):
        parse_bundle("1x0")
    with pytest.raises(ValueError):
        parse_bundle("")


# --- valuations ------------------------------------------------------------


def test_bundle_valuation_from_map_defaults_to_zero():
    v = BundleValuation.from_map(2, {0b11: F(5, 2), 0b01: F(1)})
    assert v.of_bundle(EMPTY_BUNDLE) == 0
    assert v.of_bundle(0b01) == 1
    assert v.of_bundle(0b10) == 0
    assert v.of_bundle(0b11) == F(5, 2)


def test_bundle_valuation_requires_free_empty_bundle():
    with pytest.raises(ValueError):
        BundleValuation(1, (F(1), F(2)))


def test_additive_valuation():
    v = BundleValuation.additive((F(2), F(3)))
    assert v.of_bundle(0b11) == 5
    assert v.of_bundle(0b10) == 3


def test_homogeneous_valuation_marginals_must_not_increase():
    v = HomogeneousSubmodularValuation((F(3), F(2), F(2)))
    assert v.value_for_count(0) == 0
    assert v.value_for_count(2) == 5
    assert v.of_bundle(0b111) == 7
    assert v.of_bundle(0b010) == 3  # size is all that matters
    with pytest.raises(ValueError):
        HomogeneousSubmodularValuation((F(1), F(2)))
    with pytest.raises(ValueError):
        HomogeneousSubmodularValuation((F(1), F(-1)))


def test_homogeneous_values_by_size_stay_off_the_fields():
    v = HomogeneousSubmodularValuation((F(3), F(2), F(2)))
    w = HomogeneousSubmodularValuation((F(3), F(2), F(2)))
    before = (dataclasses.fields(v), repr(v), hash(v))
    assert v.of_bundle(0b011) == 5  # stores the value of each size on v, not on w
    assert (dataclasses.fields(v), repr(v), hash(v)) == before
    assert [f.name for f in before[0]] == ["marginals"]
    assert (v, repr(v), hash(v)) == (w, repr(w), hash(w))
    with pytest.raises(ValueError):
        v.value_for_count(4)


# --- outcomes --------------------------------------------------------------


def test_multi_outcome_rejects_overlapping_bundles():
    with pytest.raises(ValueError):
        MultiOutcome((0b01, 0b11), (F(0), F(0)))
    out = MultiOutcome((0b01, 0b10), (F(1), F(0)))
    assert out.bundles == (0b01, 0b10)


def _utilities(outcome, valuations):
    """Every agent's `multi_utility` at her valuation in ``valuations``."""
    return tuple(multi_utility(outcome, i, v) for i, v in enumerate(valuations))


def test_multi_utility():
    v = BundleValuation.from_map(2, {0b01: F(3)})
    out = MultiOutcome((0b01, EMPTY_BUNDLE), (F(1), F(0)))
    assert multi_utility(out, 0, v) == 2
    assert _utilities(out, (v, v)) == (F(2), F(0))


# --- interchangeable-item sales --------------------------------------------


def seq_spec():
    return SequentialSpec((1, 2), (F(2), F(1)))


def naive_hs(spec, bids):
    """Reference implementation: walk the line, hand out greedily.

    Each agent in priority order takes a block of the next items, as many
    as she has marginals meeting her price while items last.
    """
    item_count = bids[0].item_count
    bundles = [EMPTY_BUNDLE] * spec.n
    payments = [F(0)] * spec.n
    taken = 0
    for i in spec.priority_order():
        q = 0
        while taken + q < item_count and bids[i].marginals[q] >= spec.thresholds[i]:
            q += 1
        bundles[i] = ((1 << q) - 1) << taken
        payments[i] = q * spec.thresholds[i]
        taken += q
    return MultiOutcome(tuple(bundles), tuple(payments))


def test_hs_allocation_hand_trace():
    bids = (
        HomogeneousSubmodularValuation((F(3), F(2), F(1))),
        HomogeneousSubmodularValuation((F(2), F(2), F(2))),
    )
    out = sequential_allocate_general(seq_spec(), bids)
    assert out.bundles == (0b011, 0b100)
    assert out.payments == (F(4), F(1))


def test_hs_allocation_matches_reference_greedy():
    # 2-3 items, marginals up to 2-3, 2-3 agents, every ranking, prices
    # from {0, 1/2, 1, 2, 3}: all profiles for two agents, a seeded sample
    # for three.  Price 0 meets every marginal and price 3 at most the
    # top ones, so both ends of an agent's demand, all items and none, occur.
    rng = random.Random(11)
    prices = (F(0), F(1, 2), F(1), F(2), F(3))
    pairs = 0
    for items, top in itertools.product((2, 3), (2, 3)):
        domain = tuple(nonincreasing_marginal_vectors(items, top))
        for n in (2, 3):
            profiles = list(itertools.product(domain, repeat=n))
            for ranking in itertools.permutations(range(1, n + 1)):
                for thresholds in itertools.product(prices, repeat=n):
                    spec = SequentialSpec(ranking, thresholds)
                    for bids in profiles if n == 2 else rng.sample(profiles, 6):
                        assert sequential_allocate_general(spec, bids) == naive_hs(spec, bids)
                        pairs += 1
    assert pairs == 50 * (36 + 100 + 100 + 400) + 750 * 4 * 6


def test_hs_quantities_grow_with_supply():
    # selling the first s items: every bid truncated to its first s marginals
    domain = tuple(nonincreasing_marginal_vectors(3, 3))
    spec = seq_spec()
    for bids in itertools.product(domain, repeat=2):
        prev = None
        for supply in range(4):
            truncated = tuple(HomogeneousSubmodularValuation(b.marginals[:supply]) for b in bids)
            out = sequential_allocate_general(spec, truncated)
            sizes = tuple(bundle_size(b) for b in out.bundles)
            assert sum(sizes) <= supply
            if prev is not None:
                assert all(a >= b for a, b in zip(sizes, prev))
            prev = sizes


def test_general_allocation_matches_reference():
    spec = seq_spec()
    vals = [
        BundleValuation.from_map(2, {0b01: F(2), 0b10: F(3), 0b11: F(4)}),
        BundleValuation.from_map(2, {0b01: F(1), 0b11: F(2)}),
        BundleValuation.from_map(2, {}),
    ]
    for bids in itertools.product(vals, repeat=2):
        out = sequential_allocate_general(spec, bids)
        # reference: offer items one at a time down the line
        held = [EMPTY_BUNDLE, EMPTY_BUNDLE]
        paid = [F(0), F(0)]
        for k in range(2):
            item = 1 << k
            for i in spec.priority_order():
                gain = bids[i].of_bundle(held[i] | item) - bids[i].of_bundle(held[i])
                if gain >= spec.thresholds[i]:
                    held[i] |= item
                    paid[i] += spec.thresholds[i]
                    break
        assert out == MultiOutcome(tuple(held), tuple(paid))


def test_sequential_bids_must_cover_the_same_items():
    with pytest.raises(ValueError):
        sequential_allocate_general(
            seq_spec(),
            (
                HomogeneousSubmodularValuation((F(1),)),
                HomogeneousSubmodularValuation((F(1), F(1))),
            ),
        )


# --- cluster sales ---------------------------------------------------------


def cluster_prices():
    return (F(0), F(1), F(1), F(2))


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(2, (1, 2), ((F(1), F(1), F(1), F(2)),) * 2)  # empty bundle priced
    with pytest.raises(ValueError):
        ClusterSpec(2, (1, 2), ((F(0), F(1)),) * 2)  # wrong row width


def test_cluster_allocation_takes_the_best_remaining_bundle():
    spec = ClusterSpec(2, (1, 2), (cluster_prices(),) * 2)
    v = BundleValuation.from_map(2, {0b01: F(3), 0b11: F(3)})
    w = BundleValuation.from_map(2, {0b10: F(2)})
    out = cluster_allocate(spec, (v, w))
    assert out.bundles == (0b01, 0b10)
    assert out.payments == (F(1), F(1))


def test_cluster_tie_rules_pick_different_bundles():
    v = BundleValuation.from_map(2, {0b01: F(1), 0b10: F(1), 0b11: F(2)})
    w = BundleValuation.from_map(2, {0b01: F(1)})
    grabby = ClusterSpec(
        2, (1, 2), (cluster_prices(),) * 2, ClusterTieRule.LARGEST_THEN_LOWEST_MASK
    )
    shy = ClusterSpec(2, (1, 2), (cluster_prices(),) * 2, ClusterTieRule.LOWEST_MASK)
    assert cluster_allocate(grabby, (v, w)).bundles == (0b11, EMPTY_BUNDLE)
    assert cluster_allocate(shy, (v, w)).bundles == (EMPTY_BUNDLE, EMPTY_BUNDLE)


def test_cluster_never_forces_a_losing_purchase():
    spec = ClusterSpec(2, (1, 2), (cluster_prices(),) * 2)
    vals = [
        BundleValuation.from_map(2, m)
        for m in ({}, {0b01: F(1)}, {0b11: F(3)}, {0b01: F(2), 0b10: F(1, 2)})
    ]
    for bids in itertools.product(vals, repeat=2):
        out = cluster_allocate(spec, bids)
        for i in range(2):
            assert bids[i].of_bundle(out.bundles[i]) - out.payments[i] >= 0


# --- truthfulness checks ---------------------------------------------------


def test_interchangeable_sale_passes_all_checks_exhaustively():
    domain = tuple(nonincreasing_marginal_vectors(2, 2))
    spec = SequentialSpec((1, 2), (F(2), F(1)))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    assert check_multi_ir(mech, (domain, domain)).passed
    assert check_multi_ic(mech, (domain, domain)).passed
    assert check_multi_sic(mech, (domain, domain)).passed


def test_bundle_bids_break_plain_ic():
    spec, truths, domains = sequential_bundle_counterexample()
    mech = lambda bids: sequential_allocate_general(spec, bids)
    truthful = multi_utility(mech(truths), 0, truths[0])
    assert truthful == 0
    report = check_multi_ic(mech, domains, truths)
    assert not report.passed
    w = report.witness
    assert w.agent == 0
    assert w.utilities_before[0] == 0
    assert w.utilities_after[0] == F(1, 2)


def test_bundle_counterexample_scales_with_epsilon():
    spec, truths, domains = sequential_bundle_counterexample(F(1, 4))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    report = check_multi_ic(mech, domains, truths)
    assert report.witness.utilities_after[0] == F(1, 4)


def test_item_order_interacts_with_bundle_bids():
    spec, truths, domains = sequential_ordering_counterexample()
    mech = lambda bids: sequential_allocate_general(spec, bids)
    assert multi_utility(mech(truths), 0, truths[0]) == 0
    report = check_multi_ic(mech, domains, truths)
    assert not report.passed
    assert report.witness.utilities_after[0] == F(1, 2)


def test_cluster_sale_admits_a_pure_spite_swap():
    spec, truths, domains = cluster_spite_counterexample()
    mech = lambda bids: cluster_allocate(spec, bids)
    assert _utilities(mech(truths), truths) == (F(0), F(1, 2))
    assert check_multi_ir(mech, domains, truths).passed
    assert check_multi_ic(mech, domains, truths).passed
    report = check_multi_sic(mech, domains, truths)
    assert not report.passed
    w = report.witness
    assert w.agent == 0
    assert tuple(w.utilities_before) == (F(0), F(1, 2))
    assert tuple(w.utilities_after) == (F(0), F(0))


def test_cluster_spite_swap_fails_esic_with_a_replayable_witness():
    spec, truths, domains = cluster_spite_counterexample()
    mech = lambda bids: cluster_allocate(spec, bids)
    report = check_multi_esic(mech, domains, truths)
    assert not report.passed
    w = report.witness
    before = _utilities(mech(w.profile), w.profile)
    after = _utilities(mech(w.deviation_profile), w.profile)
    assert (before, after) == (w.utilities_before, w.utilities_after)
    assert deviation_clause(Property.ESIC, w.agent, before, after) == w.note


def _esic_by_definition(mech, domain):
    """Two-agent ESIC read straight off the definition, by brute force."""
    outcomes = {bids: mech(bids) for bids in itertools.product(domain, repeat=2)}
    for truth, out in outcomes.items():
        before = _utilities(out, truth)
        for i in (0, 1):
            for bid in domain:
                report = (bid, truth[1]) if i == 0 else (truth[0], bid)
                after = _utilities(outcomes[report], truth)
                if after[i] > before[i]:
                    return False
                if after[i] == before[i] and after[1 - i] < before[1 - i]:
                    return False
    return True


@pytest.mark.parametrize("thresholds", [(1, 1), (2, 1), (3, 2), (1, 3)])
def test_interchangeable_sale_passes_esic_on_the_builtin_domain(thresholds):
    domain = tuple(nonincreasing_marginal_vectors(3, 3))
    spec = SequentialSpec((1, 2), tuple(F(t) for t in thresholds))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    assert _esic_by_definition(mech, domain)
    report = check_multi_esic(mech, (domain, domain))
    assert report.passed
    assert report.checked_count == 400 * 2 * 19


def test_a_repeated_candidate_is_not_a_deviation():
    spec, truths, ((truth_1, misreport_1), truth_2) = cluster_spite_counterexample()
    mech = lambda bids: cluster_allocate(spec, bids)
    domains = ((truth_1, truth_1, misreport_1), truth_2)
    report = check_multi_sic(mech, domains, truths)
    assert not report.passed
    assert report.checked_count == 1
    assert report.witness.deviation == misreport_1
    assert check_multi_ic(mech, domains).checked_count == 4


def test_multi_checks_validate_their_inputs():
    spec = SequentialSpec((1,), (F(1),))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    domain = tuple(nonincreasing_marginal_vectors(1, 1))
    with pytest.raises(ValueError):
        check_multi_ir(mech, (domain,), (HomogeneousSubmodularValuation((F(9),)),))
    with pytest.raises(ValueError):
        check_multi_ir(mech, ((),))


# --- per-bundle price ranges -----------------------------------------------


def test_price_range_stays_within_the_counting_bound():
    spec = SequentialSpec((1, 2), (F(2), F(1)))
    domain = tuple(nonincreasing_marginal_vectors(2, 3))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    for agent in (0, 1):
        for mask in range(4):
            count = payment_range_cardinality(mech, agent, mask, domain, domain)
            assert count <= 2 ** (2 - bundle_size(mask))


def test_price_range_flags_own_bid_dependence():
    # pay-your-value pricing: the paid amount moves with the winner's own
    # report, which the invariance probe must refuse
    def own_bid_priced(bids):
        v = bids[0].value_for_count(2)
        if v >= 2:
            return MultiOutcome((0b11, EMPTY_BUNDLE), (v, F(0)))
        return MultiOutcome((EMPTY_BUNDLE, EMPTY_BUNDLE), (F(0), F(0)))

    domain = tuple(nonincreasing_marginal_vectors(2, 3))
    with pytest.raises(OwnBidPaymentVariationError) as excinfo:
        payment_range_cardinality(own_bid_priced, 0, 0b11, domain, domain)
    assert excinfo.value.agent == 0
    assert excinfo.value.bundle == 0b11


def test_price_range_needs_a_two_agent_mechanism():
    with pytest.raises(ValueError):
        payment_range_cardinality(lambda bids: None, 2, 0b1, (), ())


# --- best-bundle regions ---------------------------------------------------


PAYMENTS = {0b00: F(0), 0b01: F(4), 0b10: F(3), 0b11: F(6)}


def test_region_inequalities_for_the_two_item_menu():
    system = region_partition(PAYMENTS, 2)
    rendered = {
        mask: [iq.render() for iq in system.regions[mask]] for mask in range(4)
    }
    assert rendered[0b01] == ["x1 > 4", "x1 - x2 > 1", "x2 < 2"]
    assert rendered[0b10] == ["x2 > 3", "-x1 + x2 > -1", "x1 < 3"]
    assert rendered[0b11] == ["x1 + x2 > 6", "x2 > 2", "x1 > 3"]
    assert rendered[0b00] == ["x1 < 4", "x2 < 3", "x1 + x2 < 6"]


def test_region_partition_validates_the_price_list():
    with pytest.raises(ValueError):
        region_partition({0b01: F(4), 0b10: F(3), 0b11: F(6), 0b00: F(1)}, 2)
    with pytest.raises(ValueError):
        region_partition({0b01: F(4)}, 2)


def test_unpriced_bundles_get_no_region():
    system = region_partition({0b01: F(4), 0b10: INFINITY, 0b11: INFINITY}, 2)
    assert system.regions[0b10] is None
    assert system.regions[0b11] is None
    assert system.regions[0b01] is not None


def test_classification_at_hand_picked_points():
    system = region_partition(PAYMENTS, 2)
    assert classify_point(system, (F(5), F(1))) == {0b01}
    assert classify_point(system, (F(2), F(4))) == {0b10}
    assert classify_point(system, (F(5), F(5))) == {0b11}
    assert classify_point(system, (F(1), F(1))) == {0b00}
    assert classify_point(system, (F(4), F(2))) == {0b00, 0b01, 0b11}


def test_classification_agrees_with_direct_argmax():
    system = region_partition(PAYMENTS, 2)
    step = F(1, 2)
    points = [
        (step * i, step * j) for i in range(17) for j in range(17)
    ]
    additive = BundleValuation.additive
    for x in points:
        surplus = {
            mask: additive(x).of_bundle(mask) - PAYMENTS[mask] for mask in range(4)
        }
        best = max(surplus.values())
        argmax = frozenset(m for m, s in surplus.items() if s == best)
        assert classify_point(system, x) == argmax


def test_inequality_rendering_flips_all_negative_rows():
    assert LinearInequality((1, 0), F(4)).render() == "x1 > 4"
    assert LinearInequality((-1, 0), F(-2)).render() == "x1 < 2"
    assert LinearInequality((1, -1), F(1)).render() == "x1 - x2 > 1"
    assert LinearInequality((0, -1), F(-2)).render() == "x2 < 2"


def test_inequality_evaluation():
    iq = LinearInequality((1, -1), F(1))
    assert iq.holds_strictly((F(3), F(1)))
    assert not iq.holds_strictly((F(2), F(1)))
    assert iq.holds_weakly((F(2), F(1)))


# --- the exhaustive bid menu -----------------------------------------------


def test_nonincreasing_vectors_enumerate_the_whole_menu():
    menu = list(nonincreasing_marginal_vectors(2, 3))
    assert len(menu) == 10
    seen = {v.marginals for v in menu}
    assert len(seen) == 10
    for marginals in seen:
        assert list(marginals) == sorted(marginals, reverse=True)
    assert (F(0), F(0)) in seen and (F(3), F(3)) in seen


def test_nonincreasing_vectors_input_checking():
    with pytest.raises(ValueError):
        list(nonincreasing_marginal_vectors(-1, 2))
