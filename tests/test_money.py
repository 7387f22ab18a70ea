from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spitefree.money import (
    INFINITY,
    as_ext_money,
    as_money,
    is_infinite,
    parse_ext_money,
    parse_money,
    render_ext_money,
    render_money,
)


def test_parse_money_accepts_rational_literals():
    assert parse_money("3/2") == Fraction(3, 2)
    assert parse_money("2") == Fraction(2)
    assert parse_money(" 5 / 8 ") == Fraction(5, 8)
    assert parse_money("0") == 0


@pytest.mark.parametrize("text", ["0.5", "-1", "inf", "1/0x", "", "1/"])
def test_parse_money_rejects_non_rationals(text):
    with pytest.raises(ValueError):
        parse_money(text)


def test_parse_money_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_money("1/0")


def test_parse_ext_money_admits_infinity_spellings():
    assert is_infinite(parse_ext_money("inf"))
    assert is_infinite(parse_ext_money(" Infinity "))
    assert parse_ext_money("7/3") == Fraction(7, 3)


def test_as_money_rejects_floats_and_negatives():
    with pytest.raises(TypeError):
        as_money(0.25)
    with pytest.raises(TypeError):
        as_money(True)
    with pytest.raises(ValueError):
        as_money(-1)
    with pytest.raises(ValueError):
        as_money(Fraction(-1, 2))
    assert as_money(3) == Fraction(3)
    assert type(as_money(3)) is Fraction
    half = Fraction(1, 2)
    assert as_money(half) is half  # a nonnegative Fraction is not rebuilt


def test_as_ext_money_admits_only_positive_infinity_among_floats():
    assert as_ext_money(INFINITY) == INFINITY
    with pytest.raises(TypeError):
        as_ext_money(0.5)
    with pytest.raises(TypeError):
        as_ext_money(float("-inf"))


def test_render_money():
    assert render_money(Fraction(4, 2)) == "2"
    assert render_money(Fraction(5, 2)) == "5/2"
    assert render_ext_money(INFINITY) == "inf"
    assert render_ext_money(Fraction(1, 3)) == "1/3"


@given(st.fractions(min_value=0, max_value=1000))
def test_render_parse_round_trip(amount):
    assert parse_money(render_money(amount)) == amount


@given(st.fractions(min_value=0, max_value=1000) | st.just(INFINITY))
def test_ext_round_trip(amount):
    back = parse_ext_money(render_ext_money(amount))
    if is_infinite(amount):
        assert is_infinite(back)
    else:
        assert back == amount
