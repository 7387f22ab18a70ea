"""Multi-item sales: bundle bids, down-the-line allocation, price geometry.

Bundles are bitmasks over K items: bit k set means item a_(k+1) is in the
bundle, so mask 0b01 is {a1} and 0b10 is {a2}.  Two mechanism families are
covered.  A sequential mechanism hands out the items one at a time, each
going to the highest-priority agent whose reported marginal value for it
clears her per-item price.  A cluster mechanism lets each agent in
priority order take the whole remaining sub-bundle that maximizes reported
value minus her bundle price.  The checkers quantify over caller-supplied
finite bid domains; the geometry helpers carve value space into the
regions where each bundle is the buyer's best response.

No verdict and no classification compares two `Fraction`s.  The checks
run `verifier`'s IR and deviation kernel on its `_Lattice`, built here
from bundle domains (`_bundle_lattice`): each distinct valuation becomes
an int, and bundle values and payments are multiplied by one common
denominator, so utilities are ints.  The lattice holds every outcome
and payoff row its checks read before any check runs, one tuple per
distinct row, and without a truth one code per profile for each
distinct pair of outcome and row.  Checks of one (mechanism, domains, truth) share that
lattice, which calls the allocator at most once per profile they read,
and `_Lattice.report` names a failure by the domain's own valuations at
the positions the check visited, with `Fraction` utilities and the
allocator's own outcomes.  Best-bundle classification likewise scales
the item values and prices to ints and takes the argmax of value minus
price (`_best_buys`), which is exactly the set of bundles whose region
inequalities all hold weakly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import methodcaller
from typing import NamedTuple

from .core import RankedSpec
from .mechanisms import _code_array
from .money import ExtMoney, Money, as_ext_money, as_money, is_infinite, parse_amounts
from .reports import Property, PropertyReport
from .verifier import (
    BudgetExceededError,
    _Lattice,
    _lcm_of_denominators,
    _scaled,
    domain_strides,
)

Bundle = int

EMPTY_BUNDLE: Bundle = 0


def full_bundle(item_count: int) -> Bundle:
    return (1 << item_count) - 1


def bundle_of(*item_indices: int) -> Bundle:
    """Bundle holding the given 0-based item indices."""
    mask = 0
    for k in item_indices:
        if k < 0:
            raise ValueError("item indices are 0-based and nonnegative")
        mask |= 1 << k
    return mask


def bundle_size(bundle: Bundle) -> int:
    return bundle.bit_count()


def bundle_items(bundle: Bundle) -> tuple[int, ...]:
    """0-based indices of the items in the bundle, ascending."""
    items = []
    k = 0
    while bundle >> k:
        if (bundle >> k) & 1:
            items.append(k)
        k += 1
    return tuple(items)


def subsets_of(bundle: Bundle):
    """All submasks of a bundle, the empty bundle included."""
    sub = bundle
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & bundle


def render_bundle(bundle: Bundle) -> str:
    if bundle == 0:
        return "{}"
    return "{" + ",".join(f"a{k + 1}" for k in bundle_items(bundle)) + "}"


def parse_bundle(text: str) -> Bundle:
    """Read a bundle from a 0/1 string whose leftmost digit is item a1."""
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"bundle must be a nonempty 0/1 string, got {text!r}")
    mask = 0
    for k, c in enumerate(text):
        if c == "1":
            mask |= 1 << k
    return mask


def render_bundle_key(bundle: Bundle, item_count: int) -> str:
    """The 0/1 string of `parse_bundle`, one digit per item."""
    return "".join("1" if (bundle >> k) & 1 else "0" for k in range(item_count))


def parse_bundle_amounts(text: str, parse_amount, item_count: int | None = None):
    """Read a list like "10=1, 01=3/2" into ({bundle: amount}, item count).

    Every bundle string must have `item_count` digits or, when that is
    None, as many as the first one; the count is None for an empty list.
    A bundle listed twice is an error.  `parse_amount` reads each amount.
    """
    amounts = {}
    for part in parse_amounts(text, str):
        if "=" not in part:
            raise ValueError(f"expected bundle=amount, got {part!r}")
        bundle_text, _, amount_text = part.partition("=")
        bundle_text = bundle_text.strip()
        bundle = parse_bundle(bundle_text)
        if item_count is None:
            item_count = len(bundle_text)
        elif len(bundle_text) != item_count:
            raise ValueError(
                f"bundle string {bundle_text!r} must have one digit per item ({item_count})"
            )
        if bundle in amounts:
            raise ValueError(f"bundle {bundle_text!r} is listed twice")
        amounts[bundle] = parse_amount(amount_text.strip())
    return amounts, item_count


@dataclass(frozen=True)
class BundleValuation:
    """A value for every bundle of K items, zero on the empty bundle.

    `values[mask]` is the value of the bundle with that bitmask; the tuple
    is dense over all 2^K masks.  No monotonicity is imposed: the failure
    examples for sequential mechanisms lean on bundles worth less than
    their parts.
    """

    item_count: int
    values: tuple[Money, ...]

    def __post_init__(self) -> None:
        if self.item_count < 0:
            raise ValueError("item count must be nonnegative")
        values = tuple(as_money(v) for v in self.values)
        if len(values) != 1 << self.item_count:
            raise ValueError(
                f"need {1 << self.item_count} bundle values, got {len(values)}"
            )
        if values[0] != 0:
            raise ValueError("the empty bundle must be worth 0")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_map(cls, item_count: int, values_by_bundle, default: Money = 0):
        """Build from a {bundle: value} map, filling gaps with `default`."""
        default = as_money(default)
        dense = [default] * (1 << item_count)
        dense[0] = Fraction(0)
        for bundle, value in values_by_bundle.items():
            if not 0 <= bundle < 1 << item_count:
                raise ValueError(f"bundle {bundle} out of range for {item_count} items")
            dense[bundle] = as_money(value)
        return cls(item_count, tuple(dense))

    @classmethod
    def additive(cls, item_values) -> "BundleValuation":
        """Valuation summing fixed per-item values over each bundle."""
        per_item = tuple(as_money(v) for v in item_values)
        item_count = len(per_item)
        dense = []
        for mask in range(1 << item_count):
            dense.append(sum((per_item[k] for k in bundle_items(mask)), Fraction(0)))
        return cls(item_count, tuple(dense))

    def of_bundle(self, bundle: Bundle) -> Money:
        return self.values[bundle]


@dataclass(frozen=True)
class HomogeneousSubmodularValuation:
    """Interchangeable items with weakly decreasing marginal values.

    `marginals[q-1]` is the value added by the q-th item; only bundle size
    matters.
    """

    marginals: tuple[Money, ...]

    def __post_init__(self) -> None:
        marginals = tuple(as_money(m) for m in self.marginals)
        for a, b in itertools.pairwise(marginals):
            if b > a:
                raise ValueError("marginal values must be nonincreasing")
        object.__setattr__(self, "marginals", marginals)

    @property
    def item_count(self) -> int:
        return len(self.marginals)

    @cached_property
    def _values_by_count(self) -> tuple[Money, ...]:
        # stored outside the fields, so equality, hashing and repr ignore it
        return tuple(itertools.accumulate(self.marginals, initial=Fraction(0)))

    def value_for_count(self, count: int) -> Money:
        if not 0 <= count <= len(self.marginals):
            raise ValueError(f"count {count} out of range")
        return self._values_by_count[count]

    def of_bundle(self, bundle: Bundle) -> Money:
        return self._values_by_count[bundle.bit_count()]


@dataclass(frozen=True)
class MultiOutcome:
    """Disjoint bundle per agent plus nonnegative payments."""

    bundles: tuple[Bundle, ...]
    payments: tuple[Money, ...]

    def __post_init__(self) -> None:
        bundles = tuple(int(b) for b in self.bundles)
        payments = tuple(as_money(p) for p in self.payments)
        if len(bundles) != len(payments):
            raise ValueError("need one bundle and one payment per agent")
        taken = 0
        for b in bundles:
            if b < 0:
                raise ValueError("bundles are nonnegative bitmasks")
            if taken & b:
                raise ValueError("agents' bundles must be pairwise disjoint")
            taken |= b
        object.__setattr__(self, "bundles", bundles)
        object.__setattr__(self, "payments", payments)

    @property
    def n(self) -> int:
        return len(self.bundles)


def multi_utility(outcome: MultiOutcome, agent: int, valuation) -> Fraction:
    """Agent's payoff at her true valuation: value received minus payment."""
    return valuation.of_bundle(outcome.bundles[agent]) - outcome.payments[agent]


@dataclass(frozen=True)
class SequentialSpec(RankedSpec):
    """Priority order plus one per-item price per agent.

    `ranking[i]` is agent i's position (1 = picks first); `thresholds[i]`
    is the price agent i pays per item she takes.
    """

    ranking: tuple[int, ...]
    thresholds: tuple[Money, ...]

    def __post_init__(self) -> None:
        ranking = self.check_ranking(self.ranking, len(self.ranking))
        thresholds = tuple(as_money(t) for t in self.thresholds)
        if len(thresholds) != len(ranking):
            raise ValueError("need one threshold per agent")
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "thresholds", thresholds)

    @property
    def n(self) -> int:
        return len(self.ranking)


class ClusterTieRule(str, Enum):
    """How a cluster buyer breaks ties among equally good bundles."""

    LARGEST_THEN_LOWEST_MASK = "largest_then_lowest_mask"
    LOWEST_MASK = "lowest_mask"


@dataclass(frozen=True)
class ClusterSpec(RankedSpec):
    """Priority order plus a full bundle price list per agent.

    `thresholds[i][mask]` is what agent i pays for the bundle with that
    mask; the empty bundle is free.  The tie rule is part of the spec
    because ties among best bundles decide real outcomes.
    """

    item_count: int
    ranking: tuple[int, ...]
    thresholds: tuple[tuple[Money, ...], ...]
    tie_rule: ClusterTieRule = ClusterTieRule.LARGEST_THEN_LOWEST_MASK

    def __post_init__(self) -> None:
        if self.item_count < 0:
            raise ValueError("item count must be nonnegative")
        ranking = self.check_ranking(self.ranking, len(self.ranking))
        size = 1 << self.item_count
        rows = []
        for row in self.thresholds:
            prices = tuple(as_money(t) for t in row)
            if len(prices) != size:
                raise ValueError(f"need {size} bundle prices per agent")
            if prices[0] != 0:
                raise ValueError("the empty bundle must be free")
            rows.append(prices)
        if len(rows) != len(ranking):
            raise ValueError("need one price list per agent")
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "thresholds", tuple(rows))
        object.__setattr__(self, "tie_rule", ClusterTieRule(self.tie_rule))

    @property
    def n(self) -> int:
        return len(self.ranking)


def sequential_allocate_general(spec: SequentialSpec, bids) -> MultiOutcome:
    """Item-by-item sale against arbitrary bundle bids.

    Items go in index order; each goes to the highest-priority agent
    whose reported marginal value for it, on top of what she already
    holds, meets her price, and she pays her price for it.  Nobody may
    want an item, in which case it stays unsold.  On interchangeable
    items with nonincreasing marginals this hands each agent in priority
    order a contiguous block of as many items as she has marginals
    meeting her price, while items last.
    """
    bids = tuple(bids)
    if len(bids) != spec.n:
        raise ValueError(f"expected {spec.n} bids, got {len(bids)}")
    counts = {b.item_count for b in bids}
    if len(counts) > 1:
        raise ValueError("all bids must cover the same items")
    item_count = counts.pop() if counts else 0
    order = spec.priority_order()
    bundles = [EMPTY_BUNDLE] * spec.n
    # the value an item must lift agent i's bundle to: what she holds, worth
    # 0 while she holds nothing, plus her price
    bars = list(spec.thresholds)
    for k in range(item_count):
        item = 1 << k
        for i in order:
            value = bids[i].of_bundle(bundles[i] | item)
            if value >= bars[i]:
                bundles[i] |= item
                bars[i] = value + spec.thresholds[i]
                break
    payments = tuple(bundle_size(b) * t for b, t in zip(bundles, spec.thresholds))
    return MultiOutcome(tuple(bundles), payments)


def _tie_key(rule: ClusterTieRule, bundle: Bundle):
    if rule is ClusterTieRule.LARGEST_THEN_LOWEST_MASK:
        return (-bundle_size(bundle), bundle)
    return bundle


def cluster_allocate(spec: ClusterSpec, bids) -> MultiOutcome:
    """Each agent in turn grabs her best-value remaining sub-bundle.

    Best means maximizing reported value minus her price for the bundle,
    over every subset of the items still unsold; ties go to the spec's
    tie rule.  The empty bundle, at gain zero, is always in the running,
    so nobody is forced into a losing purchase by her own report.
    """
    bids = tuple(bids)
    if len(bids) != spec.n:
        raise ValueError(f"expected {spec.n} bids, got {len(bids)}")
    for b in bids:
        if b.item_count != spec.item_count:
            raise ValueError("bids must cover the spec's items")
    remaining = full_bundle(spec.item_count)
    bundles = [EMPTY_BUNDLE] * spec.n
    payments = [Fraction(0)] * spec.n
    for i in spec.priority_order():
        best = EMPTY_BUNDLE
        best_gain = None
        best_key = None
        for sub in subsets_of(remaining):
            gain = bids[i].of_bundle(sub) - spec.thresholds[i][sub]
            key = _tie_key(spec.tie_rule, sub)
            if best_gain is None or gain > best_gain or (gain == best_gain and key < best_key):
                best, best_gain, best_key = sub, gain, key
        bundles[i] = best
        payments[i] = spec.thresholds[i][best]
        remaining &= ~best
    return MultiOutcome(tuple(bundles), tuple(payments))


class _ScaledMultiOutcome(NamedTuple):
    """A `MultiOutcome` with every payment multiplied by a lattice's denominator."""

    bundles: tuple[Bundle, ...]
    payments: tuple[int, ...]


def _bundle_lattice(mechanism, domains, truth) -> _Lattice:
    """A mechanism's outcomes and payoff rows at the profiles the checks read, on one lattice.

    Each distinct valuation becomes an int.  With ``truth=None`` every
    profile of the domain product is allocated, and outcomes and rows
    are tuples in flat order.  A given truth (per-agent domain indices)
    makes them dicts over the star, each agent's line through the truth:
    an entry equal to her truth's takes the truth's outcome, and every
    other entry is allocated.  D is the least common denominator of
    every payment and of the value of each valuation an agent may truly
    hold at each bundle she is dealt.  Equal outcomes share one
    `MultiOutcome`, the first the allocator returned, and one scaled
    outcome.  Payoff rows (see `verifier._Lattice`) value each agent at
    her report, or, with a truth, everyone at her truth; equal rows are
    one tuple.  Without a truth each profile is coded by its pair of
    outcome and row, as they are built.
    """
    kind_of: dict = {}
    kinds = tuple(tuple(kind_of.setdefault(v, len(kind_of)) for v in domain) for domain in domains)
    distinct: dict[MultiOutcome, MultiOutcome] = {}

    def allocate(profile):
        out = mechanism(profile)
        return distinct.setdefault(out, out)

    if truth is None:
        originals = tuple([allocate(profile) for profile in itertools.product(*domains)])
        held = [set(ints) for ints in kinds]
    else:
        strides = domain_strides(domains)
        center = sum(k * s for k, s in zip(truth, strides))
        profile = tuple(domain[k] for domain, k in zip(domains, truth))
        originals = {center: allocate(profile)}
        for i, (domain, ints, k, s) in enumerate(zip(domains, kinds, truth, strides)):
            for d, kind in enumerate(ints):
                moved = (*profile[:i], domain[d], *profile[i + 1 :])
                same = kind == ints[k]
                originals[center + (d - k) * s] = originals[center] if same else allocate(moved)
        held = [{ints[k]} for ints, k in zip(kinds, truth)]

    valuations = tuple(kind_of)
    amounts = {}  # (kind, bundle) -> value, for each kind an agent may hold
    for i, ints in enumerate(held):
        dealt = {out.bundles[i] for out in distinct}
        for kind in ints:
            for bundle in dealt:
                amounts[kind, bundle] = valuations[kind].of_bundle(bundle)
    d = _lcm_of_denominators([*amounts.values(), *(p for out in distinct for p in out.payments)])
    values = [{} for _ in valuations]
    for (kind, bundle), amount in amounts.items():
        values[kind][bundle] = amount.numerator * (d // amount.denominator)
    scaled = {
        id(out): _ScaledMultiOutcome(out.bundles, _scaled(out.payments, d)) for out in distinct
    }

    def utility(out, i, kind):
        return values[kind][out.bundles[i]] - out.payments[i]

    interned: dict[tuple, tuple] = {}

    def row(out, valued_at):
        payoffs = tuple([utility(out, j, kind) for j, kind in enumerate(valued_at)])
        return interned.setdefault(payoffs, payoffs)

    if truth is None:
        outcomes = tuple([scaled[id(out)] for out in originals])
        rows, codes = [], []
        code_of: dict[tuple[int, int], int] = {}  # per interned (outcome, row) pair
        for out, bids in zip(outcomes, itertools.product(*kinds)):
            payoffs = row(out, bids)
            rows.append(payoffs)
            codes.append(code_of.setdefault((id(out), id(payoffs)), len(code_of)))
        rows, codes = tuple(rows), _code_array(codes, len(code_of) - 1)
    else:
        # a deviator's kind has no values with a truth, so every row is at the truth
        outcomes = {f: scaled[id(out)] for f, out in originals.items()}
        truths = tuple(ints[k] for ints, k in zip(kinds, truth))
        rows = {f: row(out, truths) for f, out in outcomes.items()}
        codes = None
    return _Lattice(d, kinds, outcomes, originals, rows, utility, truth, codes)


# One `multi` run checks one (mechanism, domains, truth) up to four times,
# all on one lattice.
@lru_cache(maxsize=4)
def _cached_lattice(mechanism, domains, truth) -> _Lattice:
    return _bundle_lattice(mechanism, domains, truth)


def _multi_check(check, mechanism, bid_domain, true_values) -> PropertyReport:
    domains = tuple(tuple(d) for d in bid_domain)
    if any(not d for d in domains):
        raise ValueError("every agent needs a nonempty bid domain")
    truth = None
    if true_values is not None:
        profile = tuple(true_values)
        if len(profile) != len(domains):
            raise ValueError("need one true valuation per agent")
        for i, v in enumerate(profile):
            if v not in domains[i]:
                raise ValueError(f"agent {i}'s true valuation is outside her domain")
        truth = tuple(domain.index(v) for domain, v in zip(domains, profile))
    try:
        hash(mechanism)
    except TypeError:  # an unhashable mechanism is tabulated afresh
        lattice = _bundle_lattice(mechanism, domains, truth)
    else:
        lattice = _cached_lattice(mechanism, domains, truth)
    return lattice.report(check(lattice), domains)


def check_multi_ir(mechanism, bid_domain, true_values=None) -> PropertyReport:
    """Truthful reporting never buys a loss, over the given domain.

    `mechanism` is a callable from a bid profile to a `MultiOutcome`.
    With `true_values=None` every profile in the domain product plays
    the role of the truth in turn; otherwise only the given profile
    does.

    The checks share tabulations: calls with one hashable mechanism,
    equal domains and equal truths allocate each profile once, so the
    mechanism must be pure, and the IC, SIC and ESIC checks share one
    walk (see `verifier._Lattice.deviations`).  A witness names the
    valuations of the call's own domains and the outcomes of the first
    such call.
    """
    return _multi_check(methodcaller("ir"), mechanism, bid_domain, true_values)


def check_multi_ic(mechanism, bid_domain, true_values=None) -> PropertyReport:
    return _multi_check(
        methodcaller("deviations", Property.IC), mechanism, bid_domain, true_values
    )


def check_multi_sic(mechanism, bid_domain, true_values=None) -> PropertyReport:
    return _multi_check(
        methodcaller("deviations", Property.SIC), mechanism, bid_domain, true_values
    )


def check_multi_esic(mechanism, bid_domain, true_values=None) -> PropertyReport:
    return _multi_check(
        methodcaller("deviations", Property.ESIC), mechanism, bid_domain, true_values
    )


class OwnBidPaymentVariationError(RuntimeError):
    """A payment moved with the winner's own bid at a fixed bundle.

    Constant-at-the-bundle pricing is forced for any mechanism that is
    IR, IC, and spite-proof, so observing variation certifies the
    mechanism under test is outside that class.
    """

    def __init__(self, agent, bundle, opposing_bid, own_a, own_b, pay_a, pay_b):
        self.agent = agent
        self.bundle = bundle
        self.opposing_bid = opposing_bid
        self.own_bids = (own_a, own_b)
        self.payments = (pay_a, pay_b)
        super().__init__(
            f"agent {agent} pays {pay_a} or {pay_b} for {render_bundle(bundle)} "
            "depending on her own bid, against the same opposing bid"
        )


def payment_range_cardinality(
    mechanism, agent: int, bundle: Bundle, opposing_domain, own_domain
) -> int:
    """Count the distinct prices one bundle can carry, across opposing bids.

    Two-agent mechanisms only.  For each opposing bid, every own bid that
    wins `bundle` for `agent` must be charged the same amount (that is
    the own-bid invariance a spite-proof mechanism must satisfy; a
    violation raises `OwnBidPaymentVariationError`).  The count of those
    per-opposing-bid prices is returned; for a K-item sale it should
    never exceed 2^(K - |bundle|).
    """
    if agent not in (0, 1):
        raise ValueError("payment ranges are defined for two-agent mechanisms")
    prices = set()
    for opposing in opposing_domain:
        seen = None
        seen_own = None
        for own in own_domain:
            profile = (own, opposing) if agent == 0 else (opposing, own)
            out = mechanism(profile)
            if out.bundles[agent] != bundle:
                continue
            pay = out.payments[agent]
            if seen is None:
                seen, seen_own = pay, own
            elif pay != seen:
                raise OwnBidPaymentVariationError(
                    agent, bundle, opposing, seen_own, own, seen, pay
                )
        if seen is not None:
            prices.add(seen)
    return len(prices)


@dataclass(frozen=True)
class LinearInequality:
    """A strict half-space sum(coefficients . x) > bound over item values."""

    coefficients: tuple[int, ...]
    bound: Money

    def evaluate(self, point) -> Fraction:
        return sum(
            (c * x for c, x in zip(self.coefficients, point, strict=True)),
            Fraction(0),
        ) - self.bound

    def holds_strictly(self, point) -> bool:
        return self.evaluate(point) > 0

    def holds_weakly(self, point) -> bool:
        return self.evaluate(point) >= 0

    def render(self) -> str:
        nonzero = [(k, c) for k, c in enumerate(self.coefficients) if c]
        if not nonzero:
            return f"0 > {self.bound}"
        if all(c < 0 for _, c in nonzero):
            lhs = _render_terms([(k, -c) for k, c in nonzero])
            return f"{lhs} < {-self.bound}"
        return f"{_render_terms(nonzero)} > {self.bound}"


def _render_terms(terms) -> str:
    parts = []
    for k, c in terms:
        name = f"x{k + 1}"
        if not parts:
            parts.append(name if c > 0 else f"-{name}")
        else:
            parts.append(f"+ {name}" if c > 0 else f"- {name}")
    return " ".join(parts)


@dataclass(frozen=True)
class RegionSystem:
    """For each bundle, the half-spaces where it beats all alternatives.

    `regions[mask]` is the tuple of strict inequalities over additive
    item values under which that bundle is the unique best buy at the
    stored prices; it is None for bundles priced out at infinity.
    """

    item_count: int
    payments: tuple[ExtMoney, ...]
    regions: tuple[tuple[LinearInequality, ...] | None, ...]


# A price list with A attainable bundles makes A(A - 1) region
# inequalities; `region_partition` refuses more than this many before
# building any.  A fully priced 8-item list, 65 280 of them, makes a
# `regions` run of about 2.4 s and 171 MB with an 18 MB report (2-core
# Xeon, Python 3.11).
MAX_REGION_INEQUALITIES = 1 << 16


def region_partition(payments, item_count: int) -> RegionSystem:
    """Carve additive-value space by which bundle is the best buy.

    `payments` maps bundle masks to prices (the empty bundle, if given,
    must be free; an omitted bundle is an error except the empty one; an
    infinite price makes the bundle unattainable).  For each attainable
    bundle T the system collects, for every other attainable S, the
    strict inequality saying T's value minus price beats S's.  A system
    of more than `MAX_REGION_INEQUALITIES` raises `BudgetExceededError`
    before any inequality is built.
    """
    size = 1 << item_count
    prices = {0: Fraction(0)}
    for bundle, price in payments.items():
        if not 0 <= bundle < size:
            raise ValueError(f"bundle {bundle} out of range for {item_count} items")
        prices[bundle] = as_ext_money(price)
        if bundle == 0 and prices[0] != 0:
            raise ValueError("the empty bundle must be free")
    # compared before any table of 2^K entries is made
    if len(prices) < size:
        shown = list(itertools.islice((m for m in range(1, size) if m not in prices), 3))
        more = ", ..." if size - len(prices) > len(shown) else ""
        raise ValueError(
            f"prices cover {len(prices) - 1} of the 2^{item_count} - 1 nonempty bundles; "
            "missing: " + ", ".join(render_bundle(m) for m in shown) + more
        )
    dense = [prices[m] for m in range(size)]
    finite = [m for m in range(size) if not is_infinite(dense[m])]
    count = len(finite) * (len(finite) - 1)
    if count > MAX_REGION_INEQUALITIES:
        raise BudgetExceededError(
            f"{len(finite)} attainable bundles make {len(finite)} x {len(finite) - 1} = "
            f"{count} region inequalities, over the cap of {MAX_REGION_INEQUALITIES}"
        )
    regions: list[tuple[LinearInequality, ...] | None] = []
    for target in range(size):
        if is_infinite(dense[target]):
            regions.append(None)
            continue
        system = []
        for other in finite:
            if other == target:
                continue
            coefficients = tuple(
                ((target >> k) & 1) - ((other >> k) & 1) for k in range(item_count)
            )
            bound = dense[target] - dense[other]
            system.append(LinearInequality(coefficients, bound))
        regions.append(tuple(system))
    return RegionSystem(item_count, tuple(dense), tuple(regions))


def _on_lattice(system: RegionSystem, amounts):
    """The amounts and the attainable bundles on one integer lattice.

    Returns the amounts as ints and (mask, items, price) of each bundle
    with a finite price, both multiplied by the least common denominator
    of the amounts and those prices.
    """
    finite = [(mask, p) for mask, p in enumerate(system.payments) if not is_infinite(p)]
    d = _lcm_of_denominators([*amounts, *(p for _, p in finite)])
    prices = _scaled([p for _, p in finite], d)
    attainable = [(mask, bundle_items(mask), price) for (mask, _), price in zip(finite, prices)]
    return _scaled(amounts, d), attainable


def _best_buys(attainable, point) -> frozenset[Bundle]:
    """The bundles T of largest gain sum(point[k] for k in T) - price(T).

    ``attainable`` and ``point`` come from `_on_lattice`.  T has the
    largest gain exactly when every inequality of its region holds
    weakly at the point: each one says T gains at least as much as one
    other attainable bundle.
    """
    gains = [(mask, sum(point[k] for k in items) - price) for mask, items, price in attainable]
    top = max(gain for _, gain in gains)
    return frozenset(mask for mask, gain in gains if gain == top)


def classify_point(system: RegionSystem, point) -> frozenset[Bundle]:
    """All bundles tied for best buy at the given item values.

    A point interior to some bundle's region yields that single bundle;
    on shared boundaries every bundle whose inequalities all hold weakly
    is included.  The point and the prices are compared as ints on the
    lattice of their least common denominator.
    """
    values = tuple(as_money(x) for x in point)
    if len(values) != system.item_count:
        raise ValueError(f"point must have {system.item_count} coordinates")
    scaled, attainable = _on_lattice(system, values)
    return _best_buys(attainable, scaled)


def classify_lattice(system: RegionSystem, axis):
    """`classify_point` at every point of ``axis`` to the K-th power.

    Yields (point, bundles), the last coordinate fastest, as
    `itertools.product` orders them.  The axis and the prices are put
    on one integer lattice once.
    """
    axis = tuple(as_money(x) for x in axis)
    scaled_axis, attainable = _on_lattice(system, axis)
    for digits in itertools.product(range(len(axis)), repeat=system.item_count):
        point = [scaled_axis[k] for k in digits]
        yield tuple(axis[k] for k in digits), _best_buys(attainable, point)


def _check_menu_arguments(item_count: int, max_value: int) -> None:
    if item_count < 0 or max_value < 0:
        raise ValueError("item count and max value must be nonnegative")


def marginal_vector_count(item_count: int, max_value: int) -> int:
    """How many vectors `nonincreasing_marginal_vectors` yields, without making them."""
    _check_menu_arguments(item_count, max_value)
    return math.comb(max_value + item_count, item_count)


def nonincreasing_marginal_vectors(item_count: int, max_value: int):
    """Every integer marginal vector usable as a homogeneous bid.

    Yields all nonincreasing tuples of length `item_count` with entries
    in 0..max_value, as valuations; the standard exhaustive domain for
    the sequential checkers.
    """
    _check_menu_arguments(item_count, max_value)
    for combo in itertools.combinations_with_replacement(
        range(max_value, -1, -1), item_count
    ):
        yield HomogeneousSubmodularValuation(tuple(Fraction(v) for v in combo))


def sequential_bundle_counterexample(epsilon: Money = Fraction(1, 2)):
    """One agent, two items, and a bundle worth more than its parts.

    Truthful reporting buys nothing; claiming part of the bundle's value
    on the first item buys both and nets `epsilon`.  Returns the spec,
    the true profile, and a bid domain containing truth and misreport,
    on which the item-by-item rule fails the incentive check.
    """
    epsilon = as_money(epsilon)
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    one = Fraction(1)
    spec = SequentialSpec(ranking=(1,), thresholds=(one,))
    truth = BundleValuation.from_map(2, {0b11: 2 + epsilon})
    misreport = BundleValuation.from_map(2, {0b01: 1 + epsilon, 0b11: 2 + epsilon})
    return spec, (truth,), ((truth, misreport),)


def sequential_ordering_counterexample(epsilon: Money = Fraction(1, 2)):
    """One agent whose preferred single item comes up second.

    The item-by-item rule hands her the first item, worth exactly its
    price; disclaiming it steers the sale to the second item and nets
    `epsilon`.  Returns spec, true profile, and the two-bid domain.
    """
    epsilon = as_money(epsilon)
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    one = Fraction(1)
    spec = SequentialSpec(ranking=(1,), thresholds=(one,))
    truth = BundleValuation.from_map(2, {0b01: one, 0b10: 1 + epsilon, 0b11: 0})
    misreport = BundleValuation.from_map(2, {0b10: 1 + epsilon})
    return spec, (truth,), ((truth, misreport),)


def cluster_spite_counterexample(epsilon: Money = Fraction(1, 2)):
    """Two agents, two items, and a tie the first buyer can weaponize.

    Truthfully indifferent between the single items, the first buyer
    takes a1 and leaves a2 to the second buyer, who nets `epsilon`.
    Shifting her report onto a2 costs her nothing and starves the second
    buyer.  Returns spec, true profile, and per-agent domains on which
    the cluster rule passes the plain incentive check but fails the
    spite-proof one.
    """
    epsilon = as_money(epsilon)
    if epsilon == 0:
        raise ValueError("epsilon must be positive")
    one = Fraction(1)
    prices = (Fraction(0), one, one, Fraction(2))
    spec = ClusterSpec(item_count=2, ranking=(1, 2), thresholds=(prices, prices))
    truth_1 = BundleValuation.from_map(2, {0b01: one, 0b10: one, 0b11: 0})
    misreport_1 = BundleValuation.from_map(2, {0b10: one})
    truth_2 = BundleValuation.from_map(2, {0b10: 1 + epsilon, 0b11: 1 + epsilon})
    return spec, (truth_1, truth_2), ((truth_1, misreport_1), (truth_2,))
