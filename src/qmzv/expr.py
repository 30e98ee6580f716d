"""Text form of algebra elements.

Grammar (ASCII):

    element := term (('+'|'-') term)*
    term    := [coeff '*'] word | coeff
    coeff   := rational with optional 'h^k' factors, '*'-joined
    word    := letter (whitespace letter)*
    letter  := 'x' | 'y' | 'r' | 'xi' | 'z'<positive integer>

'r' denotes the letter rho and 'h' the coefficient variable. A single
expression must stay in one basis; rational-only expressions parse as
A-basis constants, and parse_hpoly/format_hpoly read and write a lone
coefficient in the same grammar. Printing is canonical: words in graded
lexicographic order, each coefficient split into ascending powers of h.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .hpoly import HPoly
from .words import XI, Element, word_sort_key

_TOKEN_RE = re.compile(
    r"""(?P<letter>xi|z(?P<zk>\d+)|[xyr])
      | (?P<h>h(?:\^(?P<hk>\d+))?)
      | (?P<rat>\d+(?:/\d+)?)
      | (?P<op>[+\-*])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.group("letter"):
            if m.group("zk") is not None:
                k = int(m.group("zk"))
                if k < 1:
                    raise ParseError("z subscript must be >= 1", pos)
                tokens.append(("letter", k, pos))
            elif m.group("letter") == "xi":
                tokens.append(("letter", XI, pos))
            else:
                tokens.append(("xletter", m.group("letter"), pos))
        elif m.group("h"):
            tokens.append(("h", int(m.group("hk") or 1), pos))
        elif m.group("rat"):
            try:
                tokens.append(("rat", Fraction(m.group("rat")), pos))
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def parse_element(text):
    """Parse expression text into an Element (A-basis or x/y/r basis)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    terms = []
    basis = None
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        kind, value, pos = tokens[i]
        if kind == "op" and value in "+-":
            sign = 1 if value == "+" else -1
            i += 1
            if i >= n:
                raise ParseError("dangling sign", pos)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        coeff = Fraction(sign)
        hpow = 0
        word = None
        word_basis = None
        saw_anything = False
        expect_factor = False
        while i < n:
            kind, value, pos = tokens[i]
            if kind == "op" and value in "+-" and not expect_factor:
                break
            if kind == "op" and value == "*":
                if not saw_anything or word is not None:
                    raise ParseError("misplaced '*'", pos)
                expect_factor = True
                i += 1
                continue
            expect_factor = False
            if kind == "rat":
                if word is not None:
                    raise ParseError("number after word", pos)
                coeff *= value
            elif kind == "h":
                if word is not None:
                    raise ParseError("h factor after word", pos)
                hpow += value
            elif kind == "letter":
                if word_basis == "x":
                    raise ParseError("A-letter inside an x/y/r word", pos)
                word_basis = "a"
                word = ((value,) if word is None else word + (value,))
            elif kind == "xletter":
                if word_basis == "a":
                    raise ParseError("x/y/r letter inside an A-word", pos)
                word_basis = "x"
                word = (value if word is None else word + value)
            else:
                raise ParseError("unexpected token", pos)
            saw_anything = True
            i += 1
        if not saw_anything:
            raise ParseError("empty term", tokens[i][2] if i < n else len(text))
        if expect_factor:
            raise ParseError("dangling '*'", len(text))
        if word_basis is not None:
            if basis is None:
                basis = word_basis
            elif basis != word_basis:
                raise ParseError("mixed A and x/y/r terms in one expression", pos)
        hcoeff = HPoly((0,) * hpow + (coeff,)) if coeff else HPoly()
        if word is None:
            word = "__const__"
        terms.append((word, hcoeff))
        first = False
    if basis is None:
        basis = "a"
    unit = () if basis == "a" else ""
    return Element((unit if w == "__const__" else w, c) for w, c in terms)


def letter_name(u):
    return "xi" if u == XI else "z%d" % u


def format_word(word):
    """Space-separated letter names; empty string for the unit word."""
    if isinstance(word, str):
        return " ".join(word)
    return " ".join(letter_name(u) for u in word)


def format_element(e):
    """Canonical text of an Element; round-trips through parse_element."""
    pieces = []
    for word, coeff in e.sorted_terms():
        wtext = format_word(word)
        pieces.extend((c < 0, _monomial_text(abs(c), power, wtext)) for power, c in enumerate(coeff.coeffs) if c)
    return _signed_sum(pieces)


def _monomial_text(c, power, wtext):
    """c * h^power * word for c > 0, leaving out unit factors ("1" if all are)."""
    factors = [] if c == 1 else [str(c)]
    if power:
        factors.append("h" if power == 1 else "h^%d" % power)
    if wtext:
        factors.append(wtext)
    return "*".join(factors) or "1"


def _signed_sum(pieces):
    """Join (negative, text) pieces as "a - b + c"; "0" when there are none."""
    parts = []
    for negative, text in pieces:
        if parts:
            parts.append(("- " if negative else "+ ") + text)
        else:
            parts.append("-" + text if negative else text)
    return " ".join(parts) or "0"


def parse_hpoly(text):
    """Parse coefficient text like "1 - 2*h + 3/4*h^2" into an HPoly.

    The grammar is parse_element's without letters: terms in any order, each
    a '*'-joined product of rationals and powers of h.
    """
    for kind, _, pos in _tokenize(text):
        if kind in ("letter", "xletter"):
            raise ParseError("letter in a coefficient", pos)
    return parse_element(text).coeff(())


def format_hpoly(p):
    """Canonical text, ascending in h-degree: "1 - 2*h + 3/4*h^2"."""
    return format_element(Element({(): p}))
