"""Revenue-optimal thresholds for symmetric uniform [0,1] values.

The seller lines the agents up and offers the item down the line at
per-agent take-it-or-leave-it prices.  Index 1 is the LAST agent in line
and index n the FIRST, so the price sequence is read back to front when
simulating.  The optimal prices follow the quadratic recursion

    t_1 = 1/2,    t_{i+1} = (1 + t_i^2) / 2,

and the expected revenue gamma_n follows

    gamma_1 = 1/4,    gamma_{n+1} = (1 - t_{n+1}) t_{n+1} + t_{n+1} gamma_n.

Exact rationals are used up to `EXACT_RECURSION_LIMIT` agents.  The cap is
not taste: den(t_n) = 2^(2^n - 1), so the exact representation doubles in
size with every agent; at n = 16 it spans 65 kilobits, at n = 20 a
megabit, and at n = 30 it would need gigabytes.  Beyond the cap the
recursion and the revenue fold run in the standard library's `decimal`
at `PRECISION_DIGITS` significant digits (more than 200 bits).  Each
step rounds once and scales earlier errors by a factor below 1, so the
drift stays far below the 25 digits a report prints: at n = 10 000 every
value is within 10^-59 of a 150-digit run.  Only the sampler imports
numpy, and only when called.

The sampler compares each batch of draws with the prices as one flat
array and finds each sample's buyer through a table of 2^n revenues
(by argmax past `_TABLE_AGENTS` agents).  Every sample's revenue is a
copy of one price or 0.0, so the estimate has the bits of a
sample-by-sample walk of the same Philox stream (see
`monte_carlo_revenue`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

EXACT_RECURSION_LIMIT = 16
# set as `ctx.prec` inside each `localcontext()` block, because the
# `localcontext(prec=...)` keyword needs Python 3.11
PRECISION_DIGITS = 61
GENERATOR_ID = "philox4x64 (numpy Philox)"

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ThresholdSequence:
    """Strictly increasing per-agent prices, last-in-line first.

    `values[i]` is the price quoted to the agent who is (i+1)-th from the
    END of the line; `in_line_order()` gives the order a simulation visits
    them.  `exact` records whether the entries are `Fraction`s or rounded
    `Decimal`s.
    """

    n: int
    values: tuple
    exact: bool = True

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.values) != self.n:
            raise ValueError("need one threshold per agent")
        if self.values[0] < 0.5:
            raise ValueError("first threshold must be at least 1/2")
        for a, b in itertools.pairwise(self.values):
            if not a < b:
                raise ValueError("thresholds must be strictly increasing")
        if not self.values[-1] < 1:
            raise ValueError("thresholds must stay below 1")

    def in_line_order(self) -> tuple:
        return tuple(reversed(self.values))


# `cmd_thresholds` and `cmd_revenue` ask for one n twice in a row; a
# sequence of 10^6 Decimals holds about 106 MB, so only the last is kept.
@lru_cache(maxsize=1)
def _threshold_values(n: int, exact: bool) -> tuple:
    if exact:
        values = [_HALF]
        for _ in range(n - 1):
            t = values[-1]
            values.append((1 + t * t) / 2)
        return tuple(values)
    with localcontext() as ctx:
        ctx.prec = PRECISION_DIGITS
        t = Decimal(1) / 2
        values = [t]
        for _ in range(n - 1):
            t = (1 + t * t) / 2
            values.append(t)
        return tuple(values)


def optimal_thresholds_uniform(n: int) -> ThresholdSequence:
    """Prices maximizing expected revenue for n uniform [0,1] agents."""
    if n < 1:
        raise ValueError("need at least one agent")
    exact = n <= EXACT_RECURSION_LIMIT
    return ThresholdSequence(n=n, values=_threshold_values(n, exact), exact=exact)


def _gamma_step(t, acc):
    return (1 - t) * t + t * acc


def expected_revenue_recursive(n: int):
    """Expected revenue under the optimal prices, by the revenue recursion.

    Exact `Fraction` for n up to `EXACT_RECURSION_LIMIT`, a `Decimal` of
    `PRECISION_DIGITS` digits beyond.  The recursion is the Horner scheme
    of `expected_revenue_closed` run on the optimal sequence.
    """
    return expected_revenue_closed(optimal_thresholds_uniform(n))


def _checked_values(thresholds) -> tuple:
    """The prices of `thresholds`, last in line first, each checked in [0, 1]."""
    if isinstance(thresholds, ThresholdSequence):
        return thresholds.values
    values = tuple(Fraction(t) if isinstance(t, int) else t for t in thresholds)
    if not values:
        raise ValueError("need at least one threshold")
    for t in values:
        if not 0 <= t <= 1:
            raise ValueError(f"threshold {t} outside [0, 1]")
    return values


def expected_revenue_closed(thresholds):
    """Expected revenue for an arbitrary price sequence in [0,1].

    Accepts a `ThresholdSequence` or any sequence of numbers in [0,1]
    (index 1 = last in line).  Evaluates the nested product-sum form by
    Horner's scheme, which is the same arithmetic the recursion performs,
    so for an optimal sequence the two agree exactly at any precision.
    """
    values = _checked_values(thresholds)
    with localcontext() as ctx:
        ctx.prec = PRECISION_DIGITS
        gamma = 0
        for t in values:
            gamma = _gamma_step(t, gamma)
    return gamma


@dataclass(frozen=True)
class RevenueEstimate:
    mean: float
    std_error: float
    samples: int
    seed: int
    generator: str = GENERATOR_ID

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean revenue must lie in [0, 1]")


# About 2^16 draws per batch (half a megabyte of floats): a batch's
# buffers stay small and cache-sized, and only the revenue array grows
# with the samples.
_BATCH_ELEMENTS = 1 << 16
# Lines of at most this many agents find their buyer through a table of
# 2^n prices, indexed by the row's bits of "meets her price" read as one
# byte (so 8 is also where the code would overflow uint8).  Longer lines
# use argmax: a row of 9 or more draws spreads its per-row overhead thin,
# and the table would double with every agent.
_TABLE_AGENTS = 8


def monte_carlo_revenue(thresholds, samples: int, seed: int) -> RevenueEstimate:
    """Simulate the down-the-line sale on i.i.d. uniform values.

    Each draw walks the line front to back; the first agent whose value
    meets her price buys at that price, otherwise revenue is zero.  The
    counter-based Philox generator makes a fixed seed bitwise
    reproducible; the algorithm id is recorded on the estimate.  The
    thresholds are checked as `expected_revenue_closed` checks them,
    before any draw.

    Batches of about `_BATCH_ELEMENTS` draws are written into one array
    of every sample's revenue (8 bytes per sample).  That array is kept,
    not folded into running sums, because numpy's `mean()` and
    `std(ddof=1)` over it define the reported bits: a fixed seed gives
    the same estimate whatever the batch size.

    Each batch's draws fill one flat buffer, row by row, and are compared
    with the line's prices tiled once per call, so numpy runs one inner
    loop per batch rather than one per n-long row.  A line of at most
    `_TABLE_AGENTS` agents reads each row's comparisons as a code whose
    k-th agent in line has weight 2^(n-1-k); the buyer is the code's
    highest set bit, so code c sells at the price of agent
    n - c.bit_length() and code 0 sells nothing.  The code is read
    through a table of those 2^n revenues.  Longer lines take the first
    buyer by argmax.  Either way every sample's revenue is the buyer's
    price, copied, or 0.0.  The flat buffer takes the stream's draws in
    the order an array of rows would, so the revenue array and the
    estimate are the bits of a sample-by-sample walk of the line.
    """
    line = tuple(reversed(_checked_values(thresholds)))
    if samples < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    prices = np.array([float(t) for t in line], dtype=np.float64)
    n = len(prices)
    rng = np.random.Generator(np.random.Philox(key=seed))
    batch = min(max(1, _BATCH_ELEMENTS // n), samples)
    revenue = np.empty(samples, dtype=np.float64)
    tiled = np.tile(prices, batch)
    draws = np.empty(batch * n, dtype=np.float64)
    meets = np.empty(batch * n, dtype=np.bool_)
    if n <= _TABLE_AGENTS:
        weights = np.array([1 << (n - 1 - k) for k in range(n)], dtype=np.uint8)
        table = np.array(
            [0.0] + [prices[n - code.bit_length()] for code in range(1, 1 << n)]
        )
    for start in range(0, samples, batch):
        rows = min(batch, samples - start)
        sold_at = revenue[start : start + rows]
        flat = rows * n
        rng.random(out=draws[:flat])
        np.greater_equal(draws[:flat], tiled[:flat], out=meets[:flat])
        by_row = meets[:flat].reshape(rows, n)
        if n <= _TABLE_AGENTS:
            # every code is in range; mode "clip" writes straight into
            # sold_at, where "raise" would buffer the output
            np.take(table, by_row.view(np.uint8) @ weights, out=sold_at, mode="clip")
        else:
            first = by_row.argmax(axis=1)
            # argmax is 0 both when the first in line buys and when nobody
            # does; a price times True or False is exact
            sold = by_row[:, 0] | (first != 0)
            np.multiply(prices[first], sold, out=sold_at)
    del tiled, draws, meets  # only the revenue array is held through mean and std
    std_error = float(revenue.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return RevenueEstimate(
        mean=float(revenue.mean()), std_error=std_error, samples=samples, seed=seed
    )
