"""Text form of algebra elements.

Grammar (ASCII):

    element := term (('+'|'-') term)*
    term    := [coeff '*'] word | coeff
    coeff   := rational with optional 'h^k' factors, '*'-joined
    word    := letter (whitespace letter)*
    letter  := 'x' | 'y' | 'r' | 'xi' | 'z'<positive integer>

'r' denotes the letter rho and 'h' the coefficient variable. A single
expression must stay in one basis; rational-only expressions parse as
A-basis constants. Printing is canonical: words in graded lexicographic
order, each coefficient split into ascending powers of h.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .hpoly import HPoly, format_hpoly_monomial
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
            tokens.append(("rat", Fraction(m.group("rat")), pos))
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
    if e.is_zero():
        return "0"
    pieces = []
    for word, coeff in e.sorted_terms():
        wtext = format_word(word)
        for power, c in enumerate(coeff.coeffs):
            if not c:
                continue
            negative, ctext = format_hpoly_monomial(c, power)
            if wtext:
                if abs(c) == 1 and power == 0:
                    body = wtext
                else:
                    body = "%s*%s" % (ctext, wtext)
            else:
                body = ctext
            pieces.append((negative, body))
    parts = []
    for k, (negative, body) in enumerate(pieces):
        if k == 0:
            parts.append("-" + body if negative else body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)
