"""Expression parsing and canonical printing."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from qmzv.errors import ParseError
from qmzv.hpoly import H, HPoly, ONE, h_power
from qmzv.words import XI, Element, a_words_of_degree
from qmzv.expr import format_element, parse_element, parse_hpoly


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


@pytest.mark.parametrize("text, position", [("z2 + 3 h^1001 z2", 7), ("h^1000000000", 0)])
def test_parse_bounds_h_exponents(text, position):
    with pytest.raises(ParseError) as err:
        parse_element(text)
    assert err.value.position == position and "h exponent above 1000" in str(err.value)
    assert parse_element("h^1000 z2").terms == {(2,): HPoly((0,) * 1000 + (1,))}


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


# The reader's language, pinned over a seeded corpus: strings of 0-10 fragments from
# CORPUS_FRAGMENTS, each read to its Element's (word, coefficients) pairs in dict order
# (z_q sums the terms in that order) or to its ParseError text and position.
CORPUS_FRAGMENTS = ("z1", "z2", "z13", "xi", "x", "y", "r", "h", "h^2", "2", "3/4", "0", "1/0", "z0", "+", "-", "*", " ", "\t", "?")
CORPUS_SIZE = 5000
PARSE_ELEMENT_DIGEST = "0a8900d598fec27b93b271eb0a99b8759eda25d6b1b4ce03acaf854169139275"
PARSE_HPOLY_DIGEST = "d7520243bd81bedca0b342a131807a86088b2a7db5a29639c1ace646098f6a2a"
PARSE_ERROR_TEXTS = {
    "unexpected character",
    "z subscript must be >= 1",
    "zero denominator",
    "empty expression",
    "dangling sign",
    "empty term",
    "misplaced '*'",
    "dangling '*'",
    "unexpected token",
    "number after word",
    "h factor after word",
    "A-letter inside an x/y/r word",
    "x/y/r letter inside an A-word",
    "mixed A and x/y/r terms in one expression",
}


def _corpus():
    rng = random.Random(0)
    return ["".join(rng.choice(CORPUS_FRAGMENTS) for _ in range(rng.randint(0, 10))) for _ in range(CORPUS_SIZE)]


def _outcome(parse, text):
    try:
        value = parse(text)
    except ParseError as err:
        return "%s @%s" % (err, err.position)
    if isinstance(value, HPoly):
        return repr(value.coeffs)
    return repr([(w, c.coeffs) for w, c in value.terms.items()])


def _digest(outcomes):
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


def test_reader_outcomes_on_a_seeded_corpus_are_pinned():
    texts = _corpus()
    outcomes = [_outcome(parse_element, text) for text in texts]
    assert _digest(outcomes) == PARSE_ELEMENT_DIGEST
    assert _digest(_outcome(parse_hpoly, text) for text in texts) == PARSE_HPOLY_DIGEST
    errors = {o.split(" (at position")[0] for o in outcomes if " @" in o}
    assert {"unexpected character" if e.startswith("unexpected character") else e for e in errors} == PARSE_ERROR_TEXTS
