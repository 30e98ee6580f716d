"""Word data structures, gradings, submodule membership, and basis changes."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from qmzv.errors import DomainError, NotAnIndexWord, NotHomogeneous, NotInH1
from qmzv.hpoly import H, HPoly, ONE, h_power
from qmzv.words import (
    RHO,
    XI,
    Element,
    a_words_of_degree,
    contract_to_a,
    contract_word,
    decompose_h0hat,
    element_weight,
    expand_to_x,
    expand_word,
    index_from_text,
    index_to_text,
    index_to_word,
    is_admissible_index,
    letter_degree,
    membership,
    weight,
    word_degree,
    word_in_space,
    word_to_index,
    xi_rho_times,
)

from random_elements import property_examples, rational_element


def _random_a_element(rng, max_degree=4, terms=3, admissible=False):
    words = []
    for m in range(1, max_degree + 1):
        words.extend(a_words_of_degree(m, admissible_only=admissible))
    picked = rng.sample(words, min(terms, len(words)))
    pairs = []
    for w in picked:
        coeff = HPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
        if coeff:
            pairs.append((w, coeff))
    return Element(pairs)


def test_letter_and_word_degrees():
    assert letter_degree(XI) == 1
    assert letter_degree(1) == 1
    assert letter_degree(5) == 5
    assert word_degree(()) == 0
    assert word_degree((XI, 2, 1)) == 4
    assert weight(2, (3,)) == 5


def test_word_degree_rejects_letter_codes_below_xi():
    assert word_degree((XI, XI, 7)) == 9
    for bad in ((RHO,), (2, -3, XI)):
        with pytest.raises(ValueError, match="not an A-letter code"):
            word_degree(bad)


def test_element_normalization():
    e = Element([((2,), ONE), ((2,), ONE), ((3,), HPoly(()))])
    assert e.coeff((2,)) == HPoly((2,))
    assert (3,) not in e.terms
    assert Element([((2,), ONE), ((2,), -1)]).is_zero()


def test_element_immutable():
    e = Element.from_word((2,))
    with pytest.raises(AttributeError):
        e.terms = {}


def test_element_arithmetic_is_linear():
    rng = random.Random(3)
    for _ in range(20):
        a, b = _random_a_element(rng), _random_a_element(rng)
        assert a + b == b + a
        assert a - a == Element.zero()
        assert -(-a) == a
        assert 2 * a == a + a
        assert a.scale(H) == Element([(w, c * H) for w, c in a.terms.items()])


def test_concatenation_product():
    a = Element.from_word((2,))
    b = Element.from_word((1, XI))
    assert list((a * b).words()) == [(2, 1, XI)]
    # distributes over sums with coefficient multiplication
    c = (a + b) * a
    assert c.coeff((2, 2)) == ONE and c.coeff((1, XI, 2)) == ONE
    assert Element.unit() * a == a


def test_space_membership_table():
    # (word, H0hat, H0, H0tilde, Hge1, Hge2)
    rows = [
        ((), True, True, False, True, True),
        ((XI,), True, False, True, False, False),
        ((1,), False, False, False, True, False),
        ((2,), True, True, True, True, True),
        ((2, 1), True, True, True, True, True),
        ((XI, 1), True, False, True, False, False),
        ((1, 2), False, False, False, True, False),
        ((2, XI), True, False, True, True, True),
        ("x", False, False, False, False, False),
        ("y", False, False, False, False, False),
        ("r", False, False, False, False, False),
        ("xy", False, False, False, False, False),
    ]
    for word, h0hat, h0, h0tilde, hge1, hge2 in rows:
        assert word_in_space(word, "H0hat") is h0hat, word
        assert word_in_space(word, "H0") is h0, word
        assert word_in_space(word, "H0tilde") is h0tilde, word
        assert word_in_space(word, "Hge1") is hge1, word
        assert word_in_space(word, "Hge2") is hge2, word


def test_membership_checks_every_term():
    e = Element.from_word((2,)) + Element.from_word((1,))
    assert membership(e, "Hge1")
    assert not membership(e, "H0hat")
    assert membership(Element.zero(), "H0")


def test_index_word_round_trip():
    assert index_to_word((2, 1)) == (2, 1)
    assert word_to_index((2, 1)) == (2, 1)
    with pytest.raises(NotAnIndexWord):
        word_to_index((2, XI))
    assert is_admissible_index((2, 1)) and not is_admissible_index((1, 2))
    assert index_to_text(()) == ""
    assert index_from_text("") == ()
    assert index_from_text("2,1") == (2, 1)
    assert index_to_text((2, 1)) == "2,1"
    with pytest.raises(ValueError):
        index_from_text("2,x")
    assert index_from_text("1000") == (1000,)
    with pytest.raises(ValueError, match="at most 1000"):
        index_from_text("2,1001")


def test_word_counts_match_transfer_recurrence():
    # all words: t(m) = 2 t(m-1) + t(m-2) + ... + t(0); admissible-start
    # words subtract the z1-led block: a(m) = t(m) - t(m-1)
    t = [1]
    for m in range(1, 8):
        t.append(2 * t[m - 1] + sum(t[0 : m - 1]))
    for m in range(1, 8):
        allw = list(a_words_of_degree(m))
        adm = list(a_words_of_degree(m, admissible_only=True))
        assert len(allw) == t[m]
        assert len(adm) == t[m] - t[m - 1]
    assert [len(list(a_words_of_degree(m, admissible_only=True))) for m in range(1, 8)] == [1, 3, 8, 21, 55, 144, 377]


def test_word_enumeration_is_sorted_and_exact_small():
    assert list(a_words_of_degree(0)) == [()]
    assert list(a_words_of_degree(1)) == [(XI,), (1,)]
    assert list(a_words_of_degree(1, admissible_only=True)) == [(XI,)]
    two = list(a_words_of_degree(2, admissible_only=True))
    assert two == [(XI, XI), (XI, 1), (2,)]
    for m in range(1, 6):
        ws = list(a_words_of_degree(m))
        assert ws == sorted(ws)
        assert len(set(ws)) == len(ws)


def test_expand_contract_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        e = _random_a_element(rng)
        assert contract_to_a(expand_to_x(e)) == e


@property_examples(25)
def test_contract_inverts_expand_with_rational_h_coefficients(rng):
    e = rational_element(rng, max_degree=5, terms=4)
    assert contract_to_a(expand_to_x(e)) == e


def test_expand_examples():
    assert expand_to_x(Element.from_word((2,))).terms == {"xy": ONE}
    xi = expand_to_x(Element.from_word((XI,)))
    assert xi.coeff("y") == ONE and xi.coeff("r") == HPoly((-1,))
    assert expand_to_x(Element.from_word((1,))).terms == {"y": ONE}


def test_word_expansions_are_signed_words():
    assert list(expand_word((XI, 2))) == [("yxy", 1), ("rxy", -1)]
    assert list(expand_word(())) == [("", 1)]
    assert list(contract_word("rxxy")) == [((1, 3), 1), ((XI, 3), -1)]
    for bad in ("yx", "xr", "q"):
        with pytest.raises(NotInH1):
            list(contract_word(bad))
    # contracting a word's signed expansion gives the word back
    for m in range(6):
        for w in a_words_of_degree(m):
            total = {}
            for x, s in expand_word(w):
                for a, t in contract_word(x):
                    total[a] = total.get(a, 0) + s * t
            assert {a: n for a, n in total.items() if n} == {w: 1}


def test_contract_rejects_trailing_x_runs():
    with pytest.raises(NotInH1):
        contract_to_a(Element({"yx": ONE}))


@pytest.mark.parametrize("word", ["x", "xr", "xry", "rx"])
def test_contract_rejects_x_runs_not_closed_by_y(word):
    with pytest.raises(NotInH1):
        contract_to_a(Element({"y": ONE, word: HPoly((0, Fraction(2, 3)))}))


def test_element_weight():
    assert element_weight(Element.from_word((2, 1))) == 3
    assert element_weight(Element.from_word((2,), h_power(2))) == 4
    assert element_weight(Element.zero()) is None
    mixed = Element.from_word((2,)) + Element.from_word((3,))
    with pytest.raises(NotHomogeneous):
        element_weight(mixed)


def test_decompose_h0hat_reassembles():
    rng = random.Random(9)
    for _ in range(25):
        e = _random_a_element(rng, admissible=True)
        part2, buckets = decompose_h0hat(e)
        assert membership(part2, "Hge2")
        rebuilt = part2
        for r, u in buckets.items():
            for w in u.terms:
                assert not w or w[0] != XI
            rebuilt = rebuilt + xi_rho_times(r, u)
        assert rebuilt == e


def test_decompose_h0hat_rejects_z1_head():
    with pytest.raises(DomainError):
        decompose_h0hat(Element.from_word((1, 2)))


def test_xi_rho_times_degree():
    e = xi_rho_times(2, Element.unit())
    assert element_weight(e) == 3
    assert all(w[0] == XI for w in e.terms)


def _translation_lines():
    """One line per expand_word, contract_word and xi_rho_times output, terms in the order they come."""
    lines = []
    for m in range(8):
        for w in a_words_of_degree(m):
            xs = list(expand_word(w))
            lines.append("%r -> %r" % (w, xs))
            lines += ["%r -> %r" % (x, list(contract_word(x))) for x, _ in xs]
    mixed = [
        Element.unit(),
        Element.from_word((1, XI)),
        Element([((2, 1), ONE), ((XI, 3), HPoly((0, Fraction(-2, 3)))), ((), HPoly((Fraction(1, 2),)))]),
        Element([((XI, XI), HPoly((3, -1))), ((1,), H), ((4,), HPoly((-5,)))]),
    ]
    for r in range(4):
        for e in mixed:
            lines.append("%d %r" % (r, [(w, c.coeffs) for w, c in xi_rho_times(r, e).terms.items()]))
    return lines


# sha256 of _translation_lines(), recorded while expand_word and contract_word still built whole-word
# products of per-letter alternatives; the letter-by-letter translation must keep every term's place.
TRANSLATION_ORDER_DIGEST = "9b85ef7235fd6a04a82eaba2992523dd305670b7430800bc511b2b3d77abc470"


def test_translation_keeps_its_term_order():
    assert hashlib.sha256("\n".join(_translation_lines()).encode()).hexdigest() == TRANSLATION_ORDER_DIGEST
