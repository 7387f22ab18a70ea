from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from spitefree.core import (
    DomainMismatchError,
    Grid,
    MechanismTable,
    Outcome,
    closure_for_thresholds,
    enumerate_profiles,
    evaluate,
    render_profile,
    utility,
    utility_vector,
)
from spitefree.mechanisms import null_spec, tabulate
from spitefree.money import INFINITY


# --- grids -----------------------------------------------------------------


def test_grid_normalizes_order_and_duplicates():
    assert Grid((F(1), F(0), F(1))) == Grid((F(0), F(1)))
    assert Grid.from_text("0, 1, 1/2, 1").levels == (F(0), F(1, 2), F(1))


def test_grid_rejects_bad_levels():
    with pytest.raises(ValueError):
        Grid(())
    with pytest.raises(ValueError):
        Grid((F(-1), F(0)))
    with pytest.raises(ValueError):
        Grid.from_text("  ,  ")


def test_grid_container_protocol():
    g = Grid.from_text("0,1/2,1")
    assert len(g) == 3
    assert F(1, 2) in g
    assert F(1, 3) not in g
    assert list(g) == [F(0), F(1, 2), F(1)]
    assert g.render() == "0,1/2,1"


def test_closure_for_equal_thresholds():
    assert closure_for_thresholds((F(1), F(1))).levels == (F(0), F(1, 2), F(1), F(3, 2))


def test_closure_spans_threshold_menu():
    g = closure_for_thresholds((F(0), F(1), F(2), INFINITY))
    assert g.render() == "0,1/2,1,3/2,2,5/2"


def test_closure_of_infinite_thresholds_is_origin():
    assert closure_for_thresholds((INFINITY, INFINITY)).levels == (F(0),)


def test_closure_keeps_base_levels():
    g = closure_for_thresholds((INFINITY,), base=(F(0), F(3)))
    assert g.levels == (F(0), F(3))
    g2 = closure_for_thresholds((F(1),), base=(F(5),))
    assert F(5) in g2 and F(1) in g2 and F(1, 2) in g2 and F(3, 2) in g2


@given(
    st.lists(
        st.fractions(min_value=0, max_value=5) | st.just(INFINITY),
        min_size=1,
        max_size=4,
    )
)
def test_closure_contains_witness_levels(thresholds):
    """Zero, every finite threshold, a level strictly between consecutive
    criticals, and a level above the largest must all be on the grid."""
    g = closure_for_thresholds(thresholds)
    finite = sorted({t for t in thresholds if t != INFINITY})
    assert F(0) in g
    for t in finite:
        assert t in g
    criticals = sorted({F(0), *finite})
    for low, high in zip(criticals, criticals[1:]):
        assert any(low < level < high for level in g)
    if finite:
        assert any(level > finite[-1] for level in g)


# --- outcomes and utilities ------------------------------------------------


def test_outcome_winner_codes():
    o = Outcome(2, (F(0), F(3)))
    assert o.n == 2
    assert o.winner_index() == 1
    assert Outcome(0, (F(0), F(0))).winner_index() is None


def test_outcome_validation():
    with pytest.raises(ValueError):
        Outcome(3, (F(0), F(0)))
    with pytest.raises(ValueError):
        Outcome(-1, (F(0), F(0)))
    with pytest.raises(ValueError):
        Outcome(1, (F(-1), F(0)))


def test_utility_of_winner_and_loser():
    o = Outcome(1, (F(3, 2), F(0)))
    assert utility(o, 0, F(2)) == F(1, 2)
    assert utility(o, 1, F(5)) == 0
    assert utility_vector(o, (F(2), F(5))) == (F(1, 2), F(0))


def test_utility_can_go_negative():
    o = Outcome(1, (F(3), F(0)))
    assert utility(o, 0, F(1)) == F(-2)


def test_utility_bounds_checking():
    o = Outcome(0, (F(0), F(0)))
    with pytest.raises(ValueError):
        utility(o, 2, F(1))
    with pytest.raises(ValueError):
        utility_vector(o, (F(1),))


# --- profile enumeration ---------------------------------------------------


def test_enumerate_profiles_order():
    g = Grid.from_text("0,1")
    profiles = list(enumerate_profiles(g, 2))
    assert profiles == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    with pytest.raises(ValueError):
        enumerate_profiles(g, 0)


def test_render_profile():
    assert render_profile((F(1, 2), F(2))) == "(1/2, 2)"


# --- evaluation and tables -------------------------------------------------


def test_evaluate_checks_width():
    null = null_spec(2)
    assert evaluate(null, (0, 1)).winner == 0
    with pytest.raises(DomainMismatchError):
        evaluate(null, (0, 1, 2))


def test_table_round_trip_and_lookup():
    g = Grid.from_text("0,1")
    table = tabulate(null_spec(2), g)
    assert table.profiles == tuple(enumerate_profiles(g, 2))
    assert all(o.winner == 0 for o in table.outcomes)
    assert table.outcome((F(0), F(1))).winner == 0
    with pytest.raises(DomainMismatchError):
        table.outcome((F(0), F(2)))


def test_table_rejects_incomplete_rows():
    g = Grid.from_text("0,1")
    good = tabulate(null_spec(2), g)
    assert MechanismTable(g, 2, good.outcomes) == good
    with pytest.raises(DomainMismatchError):
        MechanismTable(g, 2, good.outcomes[:-1])
    with pytest.raises(DomainMismatchError):
        MechanismTable(g, 2, good.outcomes + good.outcomes[:1])


def test_table_from_outcomes_requires_full_cover():
    g = Grid.from_text("0,1")
    rows = {p: Outcome(0, (F(0), F(0))) for p in enumerate_profiles(g, 2)}
    table = MechanismTable.from_outcomes(g, 2, rows)
    assert len(table.rows) == 4
    rows.pop((F(0), F(0)))
    with pytest.raises(DomainMismatchError):
        MechanismTable.from_outcomes(g, 2, rows)


def test_table_rejects_wrong_outcome_width():
    g = Grid.from_text("0,1")
    rows = {p: Outcome(0, (F(0),)) for p in enumerate_profiles(g, 2)}
    with pytest.raises(DomainMismatchError):
        MechanismTable.from_outcomes(g, 2, rows)
