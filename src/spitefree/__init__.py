"""Exhaustive verification toolkit for auctions facing spiteful bidders.

Single-item mechanisms are checked over finite bid grids for individual
rationality, incentive compatibility, and the stronger spite-proof
variants in which a bidder may also deviate just to hurt others; the
enumeration experiment sweeps every IR+IC mechanism on a grid and
confirms that the spite-proof ones are exactly the priority-with-
personal-prices family.  Companion modules cover the revenue-optimal
prices for uniform values, and multi-item sales with their incentive
failures and price geometry.
"""

__version__ = "0.1.0"

from .core import (
    DomainMismatchError,
    Grid,
    MechanismTable,
    Outcome,
    closure_for_thresholds,
    enumerate_profiles,
    evaluate,
    utility,
    utility_vector,
)
from .mechanisms import (
    BoundaryRule,
    FirstPriceMechanism,
    SecondPriceMechanism,
    ThresholdSpec,
    null_spec,
    recognize_threshold_form,
    tabulate,
    threshold_outcome,
)
from .money import (
    INFINITY,
    ExtMoney,
    Money,
    as_ext_money,
    as_money,
    is_infinite,
    parse_ext_money,
    parse_money,
    render_ext_money,
    render_money,
)
from .multiitem import (
    Bundle,
    BundleValuation,
    ClusterSpec,
    ClusterTieRule,
    HomogeneousSubmodularValuation,
    LinearInequality,
    MultiOutcome,
    OwnBidPaymentVariationError,
    RegionSystem,
    SequentialSpec,
    bundle_of,
    bundle_size,
    check_multi_esic,
    check_multi_ic,
    check_multi_ir,
    check_multi_sic,
    classify_point,
    cluster_allocate,
    cluster_spite_counterexample,
    multi_utility,
    nonincreasing_marginal_vectors,
    parse_bundle,
    payment_range_cardinality,
    region_partition,
    render_bundle,
    sequential_allocate_general,
    sequential_bundle_counterexample,
    sequential_ordering_counterexample,
)
from .optimal import (
    EXACT_RECURSION_LIMIT,
    RevenueEstimate,
    ThresholdSequence,
    expected_revenue_closed,
    expected_revenue_recursive,
    monte_carlo_revenue,
    optimal_thresholds_uniform,
)
from .reports import Property, PropertyReport, Witness
from .specfile import LoadedSpec, SpecFileError, load_spec, parse_spec_text
from .verifier import (
    BudgetExceededError,
    CharacterizationMismatchError,
    EnumerationSummary,
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
    deviation_clause,
    enumerate_ir_ic_mechanisms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
