"""Text form of algebra elements.

Grammar (ASCII; whitespace between tokens is optional, so "2h z2" = "2*h*z2",
and a run of '*' reads as one):

    element := ['+'|'-'] term (('+'|'-') term)*
    term    := factor (['*'] factor)* [['*'] word] | word
    factor  := rational | 'h' | 'h^'<integer <= 1000>
    word    := letter+ from one basis: A ('xi', 'z'<k >= 1>) or x/y/r ('x', 'y', 'r')

'r' denotes the letter rho and 'h' the coefficient variable. A single
expression must stay in one basis; a term without a word is a multiple of
that basis's unit word, the A-basis one when no term has a word. The bound
1000 on h exponents is words.MAX_PART, so a short text cannot ask for a dense
coefficient of any degree.
parse_hpoly/format_hpoly read and write a lone coefficient in the same
grammar. Printing is canonical: words in graded lexicographic order, each
coefficient split into ascending powers of h.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .hpoly import HPoly
from .words import MAX_PART, XI, Element, word_sort_key

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
                tokens.append(("letter", (k,), pos))
            elif m.group("letter") == "xi":
                tokens.append(("letter", (XI,), pos))
            else:
                tokens.append(("xletter", m.group("letter"), pos))
        elif m.group("h"):
            k = int(m.group("hk") or 1)
            if k > MAX_PART:
                raise ParseError("h exponent above %d" % MAX_PART, pos)
            tokens.append(("h", k, pos))
        elif m.group("rat"):
            try:
                tokens.append(("rat", Fraction(m.group("rat")), pos))
            except ZeroDivisionError:
                raise ParseError("zero denominator", pos) from None
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


# What a token says when it follows a word of another type than its value: a factor, or a letter of the other basis
_AFTER_WORD = {"rat": "number after word", "h": "h factor after word",
               "letter": "A-letter inside an x/y/r word", "xletter": "x/y/r letter inside an A-word"}


def parse_element(text):
    """Parse expression text into an Element (A-basis or x/y/r basis)."""
    return _parse_tokens(_tokenize(text), len(text))


def _parse_tokens(tokens, end):
    """The Element of a token list from _tokenize; end, the text length, is where a dangling '*' is reported."""
    if not tokens:
        raise ParseError("empty expression", 0)
    terms, types, i, n = [], set(), 0, len(tokens)
    while i < n:
        kind, value, pos = tokens[i]
        coeff = Fraction(-1 if kind == "op" and value == "-" else 1)
        if kind == "op" and value != "*":
            i += 1
            if i == n:
                raise ParseError("dangling sign", pos)
        start, hpow, word, star = i, 0, None, False
        while i < n:
            kind, value, pos = tokens[i]
            if kind == "op":
                if value != "*" and not star:
                    break
                if value != "*":
                    raise ParseError("unexpected token", pos)
                if i == start or word is not None:
                    raise ParseError("misplaced '*'", pos)
            elif word is not None and type(value) is not type(word):
                raise ParseError(_AFTER_WORD[kind], pos)
            elif kind == "rat":
                coeff *= value
            elif kind == "h":
                hpow += value
            else:
                word = value if word is None else word + value
            star = kind == "op"
            i += 1
        if i == start:
            raise ParseError("empty term", pos)
        if star:
            raise ParseError("dangling '*'", end)
        if word is not None:
            types.add(type(word))
            if len(types) > 1:
                raise ParseError("mixed A and x/y/r terms in one expression", pos)
        terms.append((word, HPoly((0,) * hpow + (coeff,)) if coeff else HPoly()))
    unit = "" if str in types else ()
    return Element((unit if w is None else w, c) for w, c in terms)


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
    a product of rationals and powers of h joined by '*' or spaces.
    """
    tokens = _tokenize(text)
    for kind, _, pos in tokens:
        if kind in ("letter", "xletter"):
            raise ParseError("letter in a coefficient", pos)
    return _parse_tokens(tokens, len(text)).coeff(())


def format_hpoly(p):
    """Canonical text, ascending in h-degree: "1 - 2*h + 3/4*h^2"."""
    return format_element(Element({(): p}))
