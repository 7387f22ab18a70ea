"""Revenue-side tests.

The pinned constants below come from direct runs of the exact recursion
(Fraction arithmetic, no rounding), so any regression in either the
closed form or the sampler shows up as a hard mismatch.
"""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from spitefree import optimal
from spitefree.optimal import (
    EXACT_RECURSION_LIMIT,
    GENERATOR_ID,
    RevenueEstimate,
    ThresholdSequence,
    expected_revenue_closed,
    expected_revenue_recursive,
    monte_carlo_revenue,
    optimal_thresholds_uniform,
)

# pinned from exact-recursion runs
T50_FLOAT = 0.9641450748220074
GAMMA100_FLOAT = 0.9627700032350496


def test_exact_threshold_values():
    assert optimal_thresholds_uniform(1).values == (F(1, 2),)
    assert optimal_thresholds_uniform(2).values == (F(1, 2), F(5, 8))
    assert optimal_thresholds_uniform(3).values == (F(1, 2), F(5, 8), F(89, 128))


def test_exact_revenue_values():
    assert expected_revenue_recursive(1) == F(1, 4)
    assert expected_revenue_recursive(2) == F(25, 64)
    assert expected_revenue_recursive(3) == F(7921, 16384)


def test_threshold_recurrence_shape():
    # each threshold is the expected payoff of rejecting at the previous one
    seq = optimal_thresholds_uniform(6)
    for prev, nxt in zip(seq.values, seq.values[1:]):
        assert nxt == (1 + prev * prev) / 2


def test_line_order_reverses():
    seq = optimal_thresholds_uniform(3)
    assert seq.in_line_order() == (F(89, 128), F(5, 8), F(1, 2))


def test_closed_form_matches_recursion_exactly():
    for n in range(1, EXACT_RECURSION_LIMIT + 1):
        assert expected_revenue_closed(optimal_thresholds_uniform(n)) == (
            expected_revenue_recursive(n)
        )


def test_closed_and_recursive_agree_past_the_exact_cap():
    # both sides switch to 61-digit decimals above the cap; the shared
    # fold keeps them identical there as well
    for n in (EXACT_RECURSION_LIMIT + 1, 30, 50):
        assert expected_revenue_closed(optimal_thresholds_uniform(n)) == (
            expected_revenue_recursive(n)
        )


def test_exactness_flag_switches_at_the_cap():
    assert optimal_thresholds_uniform(EXACT_RECURSION_LIMIT).exact
    assert not optimal_thresholds_uniform(EXACT_RECURSION_LIMIT + 1).exact


def test_denominators_double_in_bit_length():
    # den(t_k) = 2^(2^k - 1): the reason the exact path needs a cap
    for k in (2, 3, 4, 5):
        t = optimal_thresholds_uniform(k).values[-1]
        assert t.denominator == 2 ** (2**k - 1)


def test_long_run_bounds():
    t50 = optimal_thresholds_uniform(50).values[-1]
    assert float(t50) == pytest.approx(T50_FLOAT, abs=1e-12)
    assert t50 > 0.95
    gamma100 = expected_revenue_recursive(100)
    assert float(gamma100) == pytest.approx(GAMMA100_FLOAT, abs=1e-12)
    assert gamma100 > 0.9


def test_threshold_sequence_validation():
    with pytest.raises(ValueError):
        ThresholdSequence(2, (F(1, 4), F(1, 2)))
    with pytest.raises(ValueError):
        ThresholdSequence(2, (F(5, 8), F(1, 2)))
    with pytest.raises(ValueError):
        ThresholdSequence(2, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        ThresholdSequence(2, (F(1, 2), F(9, 8)))


def test_closed_form_input_checking():
    assert expected_revenue_closed((F(1),)) == 0
    assert expected_revenue_closed((F(0),)) == 0
    with pytest.raises(ValueError):
        expected_revenue_closed(())
    with pytest.raises(ValueError):
        expected_revenue_closed((F(3, 2),))


# --- sampling --------------------------------------------------------------


def test_monte_carlo_is_deterministic_per_seed():
    seq = optimal_thresholds_uniform(2)
    a = monte_carlo_revenue(seq, 4096, 7)
    b = monte_carlo_revenue(seq, 4096, 7)
    assert a.mean == b.mean == 0.385894775390625  # pinned
    assert a.std_error == b.std_error
    assert a.generator == GENERATOR_ID
    c = monte_carlo_revenue(seq, 4096, 8)
    assert c.mean != a.mean


def test_monte_carlo_tracks_the_exact_value():
    exact = float(expected_revenue_recursive(2))
    hits = 0
    for seed in range(30):
        est = monte_carlo_revenue(optimal_thresholds_uniform(2), 20000, seed)
        if abs(est.mean - exact) <= 4 * est.std_error:
            hits += 1
    assert hits >= 29


def test_revenue_estimate_validation():
    with pytest.raises(ValueError):
        RevenueEstimate(mean=1.5, std_error=0.0, samples=1, seed=0, generator="x")
    with pytest.raises(ValueError):
        monte_carlo_revenue(optimal_thresholds_uniform(1), 0, 0)


@pytest.mark.parametrize(
    "thresholds, message",
    [
        ([], "need at least one threshold"),
        ([-1.0], "threshold -1.0 outside [0, 1]"),
        ([1.5], "threshold 1.5 outside [0, 1]"),
        ([float("nan")], "threshold nan outside [0, 1]"),
    ],
    ids=["empty", "negative", "above-one", "nan"],
)
def test_monte_carlo_checks_thresholds_before_drawing(monkeypatch, thresholds, message):
    # the same checks and messages as expected_revenue_closed, raised
    # before the generator is built
    monkeypatch.setattr(np.random, "Philox", _never)
    with pytest.raises(ValueError, match=re.escape(message)):
        expected_revenue_closed(thresholds)
    with pytest.raises(ValueError, match=re.escape(message)):
        monte_carlo_revenue(thresholds, 1000, 0)


def _never(*args, **kwargs):
    raise AssertionError("the simulation drew before checking its input")


def _slow_revenue(line, samples, seed):
    """Each sample walked in Python: the first in line who meets her price buys."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    revenue = []
    for _ in range(samples):
        values = rng.random(len(line))
        revenue.append(next((p for v, p in zip(values, line) if v >= p), 0.0))
    return np.array(revenue)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9])
@pytest.mark.parametrize("samples", [1, 2, 1000])
def test_monte_carlo_matches_a_sample_by_sample_walk(monkeypatch, n, samples):
    # batches of 27 draws hold 27, 13, 9, 3, 3 and 3 rows for n = 1, 2, 3,
    # 7, 8, 9, so 1000 samples take many batches and end in a short one at
    # every n; n = 8 is the longest line read through the price table and
    # n = 9 the shortest read by argmax.  Prices 0 and 1 are the lines
    # where every agent or none buys: table codes all ones and zero,
    # argmax 0 either way.
    assert optimal._TABLE_AGENTS == 8
    monkeypatch.setattr(optimal, "_BATCH_ELEMENTS", 27)
    optimal_line = [float(t) for t in optimal_thresholds_uniform(n).in_line_order()]
    for line in (optimal_line, [0.0] * n, [1.0] * n, [1.0] * (n - 1) + [0.0]):
        for seed in (0, 11):
            est = monte_carlo_revenue(line[::-1], samples, seed)
            ref = _slow_revenue(line, samples, seed)
            assert est.mean == float(ref.mean())
            if samples > 1:
                assert est.std_error == float(ref.std(ddof=1) / math.sqrt(samples))
            else:
                assert est.std_error == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monte_carlo_memory_stays_near_the_revenue_array(n):
    # 8 bytes per sample for the revenue array, 8 more for std's
    # deviations, and one batch of draws; temporaries sized by the samples
    # rather than the batch would take 37 to 50 bytes per sample
    samples = 10**6
    seq = optimal_thresholds_uniform(n)
    tracemalloc.start()
    try:
        monte_carlo_revenue(seq, samples, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * samples


def test_the_threshold_cache_keeps_only_the_last_sequence():
    # each sequence of 20 000 Decimals takes about 2.2 MB; an unbounded
    # cache would still hold the first after the second was asked for
    optimal._threshold_values.cache_clear()
    tracemalloc.start()
    try:
        first = optimal_thresholds_uniform(20_000)
        one_sequence, _ = tracemalloc.get_traced_memory()
        del first
        optimal_thresholds_uniform(20_001)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        optimal._threshold_values.cache_clear()
    assert one_sequence > 10**6
    assert held < 1.2 * one_sequence


# --- lattice search --------------------------------------------------------


def grid_search_revenue(n: int, step):
    """Best price sequence on a coarse grid, the recursion's oracle.

    Exhausts every sequence with entries in {0, step, 2*step, ..., 1},
    folding the revenue recursion over it in exact rationals, and returns
    (best_values, best_revenue).  The recursion's optimality is stated,
    not proved, for finite n; this brute-force bound spot-checks it.
    """
    points = [k * step for k in range(int(1 / step) + 1)]
    best_values = best_revenue = None
    for values in itertools.product(points, repeat=n):
        gamma = 0
        for t in values:
            gamma = (1 - t) * t + t * gamma
        if best_revenue is None or gamma > best_revenue:
            best_values, best_revenue = values, gamma
    return best_values, best_revenue


def test_grid_search_recovers_the_optimum_when_it_is_on_the_lattice():
    assert grid_search_revenue(1, F(1, 4)) == ((F(1, 2),), F(1, 4))
    assert grid_search_revenue(2, F(1, 8)) == ((F(1, 2), F(5, 8)), F(25, 64))


def test_grid_search_never_beats_the_recursion():
    for n, step in ((1, F(1, 7)), (2, F(1, 9)), (3, F(1, 6))):
        _, revenue = grid_search_revenue(n, step)
        assert revenue <= expected_revenue_recursive(n)
