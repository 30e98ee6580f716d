"""Coefficient polynomial arithmetic, parsing, and printing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmzv.errors import ParseError
from qmzv.expr import format_element, format_hpoly, parse_hpoly
from qmzv.hpoly import H, HPoly, ONE, ZERO, h_power
from qmzv.words import Element

from random_elements import property_examples, rational_coeff


def _random_poly(rng, max_degree=4):
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(rng.randint(0, max_degree + 1))]
    return HPoly(coeffs)


def test_trailing_zeros_are_stripped():
    assert HPoly((1, 2, 0, 0)) == HPoly((1, 2))
    assert HPoly((0, 0)) == ZERO
    assert HPoly(()).degree == -1
    assert not HPoly((0,))


def test_coefficients_are_fractions():
    p = HPoly((1, Fraction(1, 2)))
    assert p[0] == Fraction(1) and p[1] == Fraction(1, 2)
    assert p[99] == 0


def test_immutable():
    p = HPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


def test_arithmetic_matches_direct_evaluation():
    rng = random.Random(7)
    for _ in range(50):
        p, q = _random_poly(rng), _random_poly(rng)
        x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p**3).evaluate(x) == p.evaluate(x) ** 3
        assert (-p).evaluate(x) == -p.evaluate(x)


def test_scalar_operations():
    p = HPoly((1, 1))
    assert 2 * p == HPoly((2, 2))
    assert p * Fraction(1, 2) == HPoly((Fraction(1, 2), Fraction(1, 2)))
    assert 1 + H == HPoly((1, 1))
    assert 1 - H == HPoly((1, -1))


def test_h_power():
    assert h_power(0) == ONE
    assert h_power(1) == H
    assert h_power(3) == HPoly((0, 0, 0, 1))


def test_evaluate_keeps_the_input_kind():
    p = HPoly((1, -2, Fraction(3, 4)))
    assert isinstance(p.evaluate(Fraction(1, 2)), Fraction)
    assert isinstance(p.evaluate(0.5), float)
    assert isinstance(p.evaluate(0.5 + 0j), complex)
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 16)


def test_format_examples():
    assert format_hpoly(ZERO) == "0"
    assert format_hpoly(ONE) == "1"
    assert format_hpoly(HPoly((1, -2, Fraction(3, 4)))) == "1 - 2*h + 3/4*h^2"
    assert format_hpoly(HPoly((0, -1))) == "-h"


def test_parse_examples():
    assert parse_hpoly("1 - 2*h + 3/4*h^2") == HPoly((1, -2, Fraction(3, 4)))
    assert parse_hpoly("3/4*h^2 + 1 - 2*h") == HPoly((1, -2, Fraction(3, 4)))
    assert parse_hpoly("-h") == HPoly((0, -1))
    assert parse_hpoly("0") == ZERO
    assert parse_hpoly("h^3") == h_power(3)
    assert parse_hpoly("2h") == HPoly((0, 2))


def test_parse_format_round_trip():
    rng = random.Random(11)
    for _ in range(60):
        p = _random_poly(rng)
        assert parse_hpoly(format_hpoly(p)) == p


@property_examples(40)
def test_text_form_round_trips_and_is_the_constant_element_text(rng):
    p = rational_coeff(rng)
    assert parse_hpoly(format_hpoly(p)) == p
    assert format_hpoly(p) == format_element(Element({(): p}))


@pytest.mark.parametrize("text", ["x", "z2", "2*", "*h", "1/0"])
def test_parse_rejects_letters_stray_stars_and_zero_denominators(text):
    with pytest.raises(ParseError):
        parse_hpoly(text)


def test_a_letter_is_reported_at_its_position():
    with pytest.raises(ParseError) as err:
        parse_hpoly("1 + 2*h*xi")
    assert err.value.position == 8


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_hpoly("1 + ?")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_hpoly("")
    with pytest.raises(ParseError):
        parse_hpoly("1 + + 2")
