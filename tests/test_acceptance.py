"""Acceptance gate: eleven go/no-go checks over the whole toolkit.

Each test prints exactly one verdict line (run with ``pytest -s`` to see
them all together) and then asserts, so a red line and a red test always
point at the same criterion.  Numeric expectations are exact wherever
the arithmetic is exact; sampling checks carry explicit tolerances; the
wall-clock budgets are generous multiples of observed runtimes.
"""

import itertools
import time
from fractions import Fraction as F

from spitefree.core import Grid, closure_for_thresholds
from spitefree.mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
    recognize_threshold_form,
    tabulate,
)
from spitefree.money import INFINITY
from spitefree.multiitem import (
    SequentialSpec,
    bundle_size,
    check_multi_ic,
    check_multi_ir,
    check_multi_sic,
    classify_point,
    cluster_allocate,
    cluster_spite_counterexample,
    multi_utility,
    nonincreasing_marginal_vectors,
    payment_range_cardinality,
    region_partition,
    sequential_allocate_general,
    sequential_bundle_counterexample,
    sequential_ordering_counterexample,
)
from spitefree.multiitem import BundleValuation
from spitefree.optimal import (
    expected_revenue_closed,
    expected_revenue_recursive,
    monte_carlo_revenue,
    optimal_thresholds_uniform,
)
from spitefree.verifier import (
    characterization_experiment,
    check_anonymous,
    check_efficient,
    check_esic,
    check_ic,
    check_ir,
    check_sic,
    confirm_witness,
    enumerate_ir_ic_mechanisms,
)

WITNESS_GRID = Grid.from_text("0,1/2,1,3/2,2,5/2")
GRID012 = Grid.from_text("0,1,2")


def _verdict(number, ok, detail):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_posted_price_family_is_fully_robust():
    budget_s = 30.0
    start = time.perf_counter()
    pool = (F(0), F(1), F(2), INFINITY)
    failures = []
    specs = 0
    for n in (2, 3):
        rankings = list(itertools.permutations(range(1, n + 1)))
        for thresholds in itertools.product(pool, repeat=n):
            for ranking in rankings:
                for rule in BoundaryRule:
                    spec = ThresholdSpec(ranking, thresholds, rule)
                    specs += 1
                    for check in (check_ir, check_ic, check_sic, check_esic):
                        report = check(spec, WITNESS_GRID)
                        if not report.passed:
                            failures.append((spec, report))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget_s
    _verdict(
        1,
        ok,
        f"{specs} posted-price variants pass IR/IC and both spite checks "
        f"on {WITNESS_GRID.render()} in {elapsed:.1f}s (budget {budget_s:.0f}s)",
    )
    assert not failures
    assert elapsed < budget_s


def test_criterion_02_exhaustive_search_finds_only_posted_price_forms():
    budget_s = 120.0
    start = time.perf_counter()
    # raises on the first table whose spite verdict disagrees with the
    # recognizer, so finishing at all is the element-wise equality claim
    summary = characterization_experiment(GRID012, 2)
    elapsed = time.perf_counter() - start
    ok = (
        summary.ir_ic_count == 594
        and summary.sic_count == 70
        and summary.sic_count == summary.threshold_form_count
        and elapsed < budget_s
    )
    _verdict(
        2,
        ok,
        f"all {summary.ir_ic_count} IR+IC tables on {{0,1,2}} classified; "
        f"{summary.sic_count} spite-robust = {summary.threshold_form_count} "
        f"posted-price forms in {elapsed:.1f}s (budget {budget_s:.0f}s)",
    )
    assert summary.total_candidates == 19683
    assert summary.ir_ic_count == 594
    assert summary.sic_count == 70
    assert summary.sic_count == summary.threshold_form_count
    assert elapsed < budget_s


def test_criterion_03_only_the_null_mechanism_is_anonymous_or_efficient():
    anonymous, efficient = [], []
    for table in enumerate_ir_ic_mechanisms(GRID012, 2):
        if not check_sic(table, GRID012).passed:
            continue
        spec = recognize_threshold_form(table)
        assert spec is not None
        probe_grid = closure_for_thresholds(spec.thresholds, base=GRID012.levels)
        if check_anonymous(spec, probe_grid).passed:
            anonymous.append(table)
        if check_efficient(spec, probe_grid).passed:
            efficient.append(table)
    null_table = tabulate(null_spec(2), GRID012)
    ok = anonymous == [null_table] and efficient == [null_table]
    _verdict(
        3,
        ok,
        f"{len(anonymous)} anonymous and {len(efficient)} efficient "
        "spite-robust mechanism(s); both lists contain only the null table",
    )
    assert anonymous == [null_table]
    assert efficient == [null_table]


def test_criterion_04_price_benchmarks_fail_with_replayable_witnesses():
    budget_s = 5.0
    start = time.perf_counter()
    sp_report = check_sic(SecondPriceMechanism(2), GRID012)
    fp_report = check_ic(FirstPriceMechanism(2), GRID012)
    sp_ok = not sp_report.passed and confirm_witness(SecondPriceMechanism(2), sp_report)
    fp_ok = not fp_report.passed and confirm_witness(FirstPriceMechanism(2), fp_report)
    distinct = (
        sp_report.witness.deviation_profile,
        sp_report.witness.agent,
    ) != (fp_report.witness.deviation_profile, fp_report.witness.agent)
    elapsed = time.perf_counter() - start
    ok = sp_ok and fp_ok and distinct and elapsed < budget_s
    _verdict(
        4,
        ok,
        "second-price spite failure and first-price incentive failure both "
        f"replay exactly, with distinct witnesses, in {elapsed:.2f}s",
    )
    assert sp_ok
    assert fp_ok
    assert distinct
    assert elapsed < budget_s


def test_criterion_05_spite_robustness_implies_the_extreme_variant():
    sic_count = 0
    for table in enumerate_ir_ic_mechanisms(GRID012, 2):
        if check_sic(table, GRID012).passed:
            sic_count += 1
            assert check_esic(table, GRID012).passed
    ok = sic_count == 70
    _verdict(
        5,
        ok,
        f"every one of the {sic_count} spite-robust tables on {{0,1,2}} "
        "also passes the extreme variant",
    )
    assert sic_count == 70


def test_criterion_06_line_prices_and_revenue_recursion():
    budget_s = 5.0
    start = time.perf_counter()
    checks = {
        "t1": optimal_thresholds_uniform(1).values == (F(1, 2),),
        "gamma1": expected_revenue_recursive(1) == F(1, 4),
        "t2_t3": optimal_thresholds_uniform(3).values
        == (F(1, 2), F(5, 8), F(89, 128)),
        "gamma2": expected_revenue_recursive(2) == F(25, 64),
        "closed_eq_recursive": all(
            expected_revenue_closed(optimal_thresholds_uniform(n))
            == expected_revenue_recursive(n)
            for n in range(1, 51)
        ),
        "t50_bound": optimal_thresholds_uniform(50).values[-1] > 0.95,
        "gamma100_bound": expected_revenue_recursive(100) > 0.9,
    }
    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < budget_s
    failed = [k for k, v in checks.items() if not v]
    _verdict(
        6,
        ok,
        "price ladder and revenue recursion agree with the closed form "
        f"through n=50 in {elapsed:.1f}s" + (f"; failed: {failed}" if failed else ""),
    )
    assert not failed
    assert elapsed < budget_s


def test_criterion_07_sampled_revenue_matches_the_exact_value():
    budget_s = 30.0
    tolerance = 0.005
    samples = 10**6
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        est = monte_carlo_revenue(optimal_thresholds_uniform(n), samples, seed=42)
        err = abs(est.mean - float(expected_revenue_recursive(n)))
        worst = max(worst, err)
        assert err < tolerance, (n, est.mean)
    again = monte_carlo_revenue(optimal_thresholds_uniform(3), samples, seed=42)
    deterministic = again.mean == monte_carlo_revenue(
        optimal_thresholds_uniform(3), samples, seed=42
    ).mean
    assert again.mean == 0.4835439140625  # pinned: same seed, same stream
    elapsed = time.perf_counter() - start
    ok = worst < tolerance and deterministic and elapsed < budget_s
    _verdict(
        7,
        ok,
        f"10^6-sample estimates for n=1..3 within {tolerance} of exact "
        f"(worst {worst:.2e}), bit-identical under a fixed seed, "
        f"in {elapsed:.1f}s",
    )
    assert deterministic
    assert elapsed < budget_s


def test_criterion_08_interchangeable_item_sale_is_robust_at_desk_scale():
    budget_s = 120.0
    start = time.perf_counter()
    spec = SequentialSpec((1, 2), (F(2), F(1)))
    menu = tuple(nonincreasing_marginal_vectors(3, 3))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    reports = {
        "IR": check_multi_ir(mech, (menu, menu)),
        "IC": check_multi_ic(mech, (menu, menu)),
        "SIC": check_multi_sic(mech, (menu, menu)),
    }
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports.values()) and elapsed < budget_s
    _verdict(
        8,
        ok,
        f"three-item two-buyer sale over all {len(menu)}^2 bid pairs passes "
        f"IR/IC/SIC exhaustively in {elapsed:.1f}s (budget {budget_s:.0f}s)",
    )
    for name, report in reports.items():
        assert report.passed, name
    assert elapsed < budget_s


def test_criterion_09_bundle_bids_break_the_single_item_guarantees():
    epsilon = F(1, 2)

    spec, truths, domains = sequential_bundle_counterexample(epsilon)
    mech = lambda bids: sequential_allocate_general(spec, bids)
    assert multi_utility(mech(truths), 0, truths[0]) == 0
    report = check_multi_ic(mech, domains, truths)
    bundle_ok = not report.passed and report.witness.utilities_after[0] == epsilon

    spec2, truths2, domains2 = sequential_ordering_counterexample(epsilon)
    mech2 = lambda bids: sequential_allocate_general(spec2, bids)
    assert multi_utility(mech2(truths2), 0, truths2[0]) == 0
    report2 = check_multi_ic(mech2, domains2, truths2)
    ordering_ok = not report2.passed and report2.witness.utilities_after[0] == epsilon

    spec3, truths3, domains3 = cluster_spite_counterexample(epsilon)
    mech3 = lambda bids: cluster_allocate(spec3, bids)
    before = tuple(multi_utility(mech3(truths3), i, v) for i, v in enumerate(truths3))
    report3 = check_multi_sic(mech3, domains3, truths3)
    cluster_ok = (
        before == (F(0), epsilon)
        and check_multi_ic(mech3, domains3, truths3).passed
        and not report3.passed
        and tuple(report3.witness.utilities_after) == (F(0), F(0))
    )

    ok = bundle_ok and ordering_ok and cluster_ok
    _verdict(
        9,
        ok,
        "bundle misreport gains 1/2, item-order misreport gains 1/2, and "
        "the cluster swap (0, 1/2) -> (0, 0) all reproduce exactly",
    )
    assert bundle_ok
    assert ordering_ok
    assert cluster_ok


def test_criterion_10_best_bundle_regions_match_direct_argmax():
    budget_s = 5.0
    start = time.perf_counter()
    payments = {0b00: F(0), 0b01: F(4), 0b10: F(3), 0b11: F(6)}
    system = region_partition(payments, 2)
    rendered = {
        mask: [iq.render() for iq in system.regions[mask]] for mask in (1, 2, 3)
    }
    systems_ok = (
        rendered[0b01] == ["x1 > 4", "x1 - x2 > 1", "x2 < 2"]
        and rendered[0b10] == ["x2 > 3", "-x1 + x2 > -1", "x1 < 3"]
        and rendered[0b11] == ["x1 + x2 > 6", "x2 > 2", "x1 > 3"]
    )
    points_ok = (
        classify_point(system, (F(5), F(1))) == {0b01}
        and classify_point(system, (F(2), F(4))) == {0b10}
        and classify_point(system, (F(5), F(5))) == {0b11}
        and classify_point(system, (F(1), F(1))) == {0b00}
        and classify_point(system, (F(4), F(2))) == {0b00, 0b01, 0b11}
    )
    step = F(1, 4)
    axis = [step * k for k in range(33)]  # [0, 8] inclusive
    mismatches = 0
    for x in itertools.product(axis, repeat=2):
        value = BundleValuation.additive(x)
        surplus = {mask: value.of_bundle(mask) - payments[mask] for mask in range(4)}
        best = max(surplus.values())
        argmax = frozenset(m for m, s in surplus.items() if s == best)
        if classify_point(system, x) != argmax:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = systems_ok and points_ok and mismatches == 0 and elapsed < budget_s
    _verdict(
        10,
        ok,
        "half-space systems, five hand-picked points, and a 33x33 lattice "
        f"all agree with direct argmax ({mismatches} mismatches) "
        f"in {elapsed:.1f}s",
    )
    assert systems_ok
    assert points_ok
    assert mismatches == 0
    assert elapsed < budget_s


def test_criterion_11_per_bundle_price_ranges_respect_the_counting_bound():
    spec = SequentialSpec((1, 2), (F(2), F(1)))
    menu = tuple(nonincreasing_marginal_vectors(2, 3))
    mech = lambda bids: sequential_allocate_general(spec, bids)
    worst = {}
    for agent in (0, 1):
        for mask in range(4):
            # raises if any price ever moves with the winner's own bid
            count = payment_range_cardinality(mech, agent, mask, menu, menu)
            bound = 2 ** (2 - bundle_size(mask))
            worst[(agent, mask)] = (count, bound)
            assert count <= bound, (agent, mask, count, bound)
    ok = all(count <= bound for count, bound in worst.values())
    tightest = max(count / bound for count, bound in worst.values())
    _verdict(
        11,
        ok,
        "every bundle's price range stays within 2^(items - bundle size) "
        f"(tightest ratio {tightest:.2f}) and no own-bid variation fired",
    )
    assert ok
