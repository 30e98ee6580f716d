"""Expression parsing and canonical printing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qmzv.errors import ParseError
from qmzv.hpoly import H, HPoly, ONE, h_power
from qmzv.words import XI, Element, a_words_of_degree
from qmzv.expr import format_element, parse_element


def test_parse_basic_terms():
    e = parse_element("z2 z1 + h*xi")
    assert e.coeff((2, 1)) == ONE
    assert e.coeff((XI,)) == H
    assert parse_element("1").terms == {(): ONE}
    assert parse_element("0").is_zero()
    assert parse_element("xi xi") == Element.from_word((XI, XI))


def test_parse_coefficients_and_signs():
    e = parse_element("-3/4*z2 + 2*h^2*xi - z3")
    assert e.coeff((2,)) == HPoly((Fraction(-3, 4),))
    assert e.coeff((XI,)) == 2 * h_power(2)
    assert e.coeff((3,)) == -ONE
    assert parse_element("- z2") == -Element.from_word((2,))
    assert parse_element("z2 - z2").is_zero()


def test_parse_x_basis():
    e = parse_element("x y r")
    assert e.terms == {"xyr": ONE}
    assert parse_element("2*x x - y") == Element({"xx": HPoly((2,)), "y": -ONE})


def test_parse_h_only_terms():
    assert parse_element("h").terms == {(): H}
    assert parse_element("1 - h") == Element.unit().scale(1 - H)


def test_parse_rejects_mixed_bases():
    with pytest.raises(ParseError):
        parse_element("z2 + x y")
    with pytest.raises(ParseError):
        parse_element("z2 x")
    with pytest.raises(ParseError):
        parse_element("x z2")


def test_parse_errors():
    for bad in ("", "z0", "z2 +", "* z2", "z2 2", "2*", "z2 ?"):
        with pytest.raises(ParseError):
            parse_element(bad)
    try:
        parse_element("z2 + ?")
    except ParseError as err:
        assert err.position == 5
        assert "position" in str(err)


def test_format_canonical_order_and_signs():
    e = Element([((2,), ONE), ((XI,), -H), ((XI, XI), HPoly((2,)))])
    assert format_element(e) == "-h*xi + 2*xi xi + z2"
    assert format_element(Element.zero()) == "0"
    assert format_element(Element.unit()) == "1"
    assert format_element(Element.unit().scale(-ONE)) == "-1"
    assert format_element(Element.from_word((2,), 1 - H)) == "z2 - h*z2"


def test_format_splits_hbar_monomials_in_graded_order():
    # h*xi has weight 2 so it sorts with z2, after the weight-1 piece xi
    e = Element.from_word((XI,), 1 + H) + Element.from_word((2,))
    assert format_element(e) == "xi + h*xi + z2"


def test_round_trip_random_elements():
    rng = random.Random(13)
    words = []
    for m in range(0, 4):
        words.extend(a_words_of_degree(m))
    for _ in range(40):
        pairs = []
        for w in rng.sample(words, rng.randint(1, 4)):
            coeff = HPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
            if coeff:
                pairs.append((w, coeff))
        e = Element(pairs)
        assert parse_element(format_element(e)) == e


def test_round_trip_x_basis():
    e = Element({"xy": ONE, "r": -H, "yy": HPoly((0, 0, 3))})
    assert parse_element(format_element(e)) == e
