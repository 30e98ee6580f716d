"""Words and linear combinations over the two alphabets of the theory.

The working alphabet A consists of the letter xi and the letters z_k for
k >= 1. A-letters are stored as small integers: 0 encodes xi and k >= 1
encodes z_k. An A-word is a tuple of letter codes, the empty tuple being
the word 1. Degrees: xi has degree 1, z_k has degree k.

The ambient alphabet is {x, y, r} (r prints the letter rho). An x/y/r word
is stored as a plain string over "xyr", each letter of degree 1. The two
bases are linked by xi = y - r and z_k = x^(k-1) y; in the other direction
r = z_1 - xi, so contraction is exact on the span of block-decomposable
words. _xyr_split and _contracted state this encoding once, for the
translations here and the A-word shuffle of products.py.

Linear combinations carry HPoly coefficients and are held in Element, which
works for both bases since tuples and strings share concatenation.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, NotAnIndexWord, NotHomogeneous, NotInH1
from .hpoly import HPoly, ONE, ZERO

XI = 0
RHO = -1  # evaluation-only letter handle; never stored inside A-words

X_LETTERS = "xyr"

SPACES = ("H0hat", "H0", "H0tilde", "Hge1", "Hge2")

# The largest h exponent and index part read from text, and z subscript a star takes. The shuffle
# recursion goes one level deeper per x/y/r letter and z_k is k of them, so under Python's recursion
# limit no shuffle or star on a letter past z_1000 can finish; the bound stops a short argument
# (h^1000000000, the index 100000) from asking for a dense polynomial or a sum that long.
MAX_PART = 1000


def letter_degree(u):
    """Degree of an A-letter code: xi has degree 1, z_k degree k."""
    if u == XI:
        return 1
    if u >= 1:
        return u
    raise ValueError("not an A-letter code: %r" % (u,))


def word_degree(w):
    """Degree of a word in either basis."""
    if isinstance(w, str):
        return len(w)
    if w and min(w) < XI:
        raise ValueError("not an A-letter code: %r" % (min(w),))
    return sum(w) + w.count(XI)


def weight(hbar_power, word):
    """Total weight of the monomial h^j * word."""
    return hbar_power + word_degree(word)


def word_sort_key(w):
    """Graded lexicographic key; letter orders xi < z_1 < z_2 < ... and x < y < r."""
    if isinstance(w, str):
        return (len(w), tuple(X_LETTERS.index(c) for c in w))
    return (word_degree(w), w)


class Element:
    """Finite linear combination of words with HPoly coefficients.

    terms maps a word (an A-basis tuple or an x/y/r string) to a nonzero
    HPoly. Treat instances as immutable; all operations return new values.
    Multiplication by another Element is the concatenation product; by an
    HPoly, Fraction, or int it is scalar multiplication.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            _accumulate(data, word, coeff if isinstance(coeff, HPoly) else HPoly(coeff))
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @classmethod
    def from_word(cls, word, coeff=ONE):
        return cls(((word, coeff),))

    @classmethod
    def unit(cls, basis="a"):
        return cls((((), ONE),)) if basis == "a" else cls((("", ONE),))

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            _accumulate(out, word, coeff)
        return _raw(out)

    def __neg__(self):
        return _raw({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Element):
            out = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    _accumulate(out, w1 + w2, c1 * c2)
            return _raw(out)
        if isinstance(other, (HPoly, Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (HPoly, Fraction, int)):
            return self.scale(other)
        return NotImplemented

    def scale(self, coeff):
        if not isinstance(coeff, HPoly):
            coeff = HPoly(coeff)
        if not coeff:
            return Element()
        return _raw({w: c * coeff for w, c in self.terms.items()})

    def coeff(self, word):
        return self.terms.get(word, ZERO)

    def sorted_terms(self):
        """Terms in canonical graded lexicographic word order."""
        return sorted(self.terms.items(), key=lambda item: word_sort_key(item[0]))

    def words(self):
        return self.terms.keys()

    def __repr__(self):
        from .expr import format_element

        return "Element(%r)" % (format_element(self),)

    def __str__(self):
        from .expr import format_element

        return format_element(self)


def _raw(data):
    """Wrap an already-normalized dict without copying."""
    e = Element()
    object.__setattr__(e, "terms", data)
    return e


def monomials(e):
    """Yield (hbar_power, word, Fraction coefficient) over all stored terms."""
    for word, coeff in e.terms.items():
        for j, c in enumerate(coeff.coeffs):
            if c:
                yield j, word, c


def element_weight(e):
    """The common total weight of all monomials; None for the zero element.

    Raises NotHomogeneous when monomials of different weights are present.
    """
    w = None
    for j, word, _ in monomials(e):
        wt = j + word_degree(word)
        if w is None:
            w = wt
        elif w != wt:
            raise NotHomogeneous("mixed weights %d and %d" % (w, wt))
    return w


def is_admissible_start(word):
    """True for the empty word and words starting with xi or z_k, k >= 2."""
    return not word or word[0] != 1


def word_in_space(word, space):
    if isinstance(word, str) and word and space in SPACES:
        return False  # the spaces are spanned by A-words; an x/y/r word lies in none
    if space == "H0hat":
        return is_admissible_start(word)
    if space == "H0":
        return all(u >= 1 for u in word) and (not word or word[0] >= 2)
    if space == "H0tilde":
        return bool(word) and word[0] != 1
    if space == "Hge1":
        return not word or word[0] >= 1
    if space == "Hge2":
        return not word or word[0] >= 2
    raise ValueError("unknown space %r (expected one of %s)" % (space, ", ".join(SPACES)))


def membership(e, space):
    """True iff every term of e lies in the named submodule."""
    return all(word_in_space(w, space) for w in e.terms)


def index_to_word(parts):
    """The index (k_1,...,k_r) as the word z_{k_1}...z_{k_r}."""
    parts = tuple(parts)
    if any(k < 1 for k in parts):
        raise ValueError("index parts must be positive")
    return parts


def word_to_index(word):
    """Inverse of index_to_word; rejects words containing xi."""
    if any(u == XI for u in word):
        raise NotAnIndexWord("word %r contains xi" % (word,))
    return tuple(word)


def is_admissible_index(parts):
    return not parts or parts[0] >= 2


def index_to_text(parts):
    return ",".join(str(k) for k in parts)


def index_from_text(text):
    """The index of comma-separated text such as "2,1"; ValueError on a part below 1 or above MAX_PART."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError("bad index text %r" % (text,)) from exc
    if any(k < 1 for k in parts):
        raise ValueError("index parts must be positive: %r" % (text,))
    if max(parts) > MAX_PART:
        raise ValueError("index parts must be at most %d: %r" % (MAX_PART, text))
    return parts


# r = z_1 - xi as (A-word, sign) pairs; an x/y/r word in H1 is a string of blocks x^(k-1)y and r.
_RHO_EXPANSION = (((1,), 1), ((XI,), -1))
_X_BLOCK = re.compile("x*y|r")


def _xyr_split(w):
    """The split of an A-word into x/y/r letters: z_k u = x z_(k-1)u (k >= 2), z_1 u = y u, xi u = y u - r u."""
    k, rest = w[0], w[1:]
    if k >= 2:
        return (("x", (k - 1,) + rest, 1),)
    if k == 1:
        return (("y", rest, 1),)
    return (("y", rest, 1), ("r", rest, -1))


def _contracted(c, m, terms):
    """m c t for each term t of {A-word: n} and an x/y/r word c, contracted letter by letter from the right.

    y t = z_1 t and r t = z_1 t - xi t; x raises the first letter (xi, z_k -> z_2, z_(k+1)) and
    sends 1 to 0. This contraction is 0 on every x/y/r word that does not split into blocks
    x^(k-1)y and r (x r t, a trailing x); a shuffle of two expanded A-words has no such term.
    """
    out = [(w, m * n) for w, n in terms.items()]
    for letter in reversed(c):
        if letter == "y":
            out = [((1,) + w, n) for w, n in out]
        elif letter == "r":
            out = [(v + w, s * n) for v, s in _RHO_EXPANSION for w, n in out]  # leftmost letter varies slowest
        else:
            out = [((w[0] + 1 if w[0] else 2,) + w[1:], n) for w, n in out if w]
    return out


def expand_word(word):
    """Yield the x/y/r expansion of one A-word as (word, +-1) pairs: xi -> y - r, z_k -> x^(k-1)y."""
    out = [("", word, 1)]
    for _ in range(word_degree(word)):  # every branch reads one letter of degree 1 per step
        out = [(x + u, rest, s * t) for x, w, s in out for u, rest, t in _xyr_split(w)]
    yield from ((x, s) for x, _, s in out)


def contract_word(word):
    """Yield (A-word, +-1) pairs expanding an x/y/r word: x^(k-1)y -> z_k, r -> z_1 - xi; NotInH1 off those."""
    if sum(map(len, _X_BLOCK.findall(word))) != len(word):
        raise NotInH1("x-run not followed by y in %r" % (word,))
    yield from _contracted(word, 1, {(): 1})


def expand_to_x(e):
    """Rewrite an A-element over {x, y, r}: xi -> y - r, z_k -> x^(k-1)y."""
    return Element((w, c if s > 0 else -c) for word, c in e.terms.items() for w, s in expand_word(word))


def contract_to_a(e):
    """Inverse of expand_to_x on block-decomposable words; raises NotInH1 off them."""
    return Element((w, c if s > 0 else -c) for word, c in e.terms.items() for w, s in contract_word(word))


def decompose_h0hat(e):
    """Split an element of the admissible span into its direct summands.

    Returns (part2, buckets) where part2 collects the constants and the
    z_k-leading words (k >= 2), and buckets maps r >= 0 to the element w
    such that xi r^r w was contributed, with w ranging over z-leading or
    empty words. Uses the triangular rewriting xi = z_1 - r repeatedly:
    xi r^r xi u = xi r^r z_1 u - xi r^(r+1) u.

    Raises DomainError when some word starts with z_1 or is an x/y/r word.
    """
    part2 = {}
    buckets = {}
    for word, coeff in e.terms.items():
        if type(word) is not tuple:
            raise DomainError("word %r is not an A-word" % (word,))
        if not word or word[0] >= 2:
            _accumulate(part2, word, coeff)
            continue
        if word[0] == 1:
            raise DomainError("word %r starts with z_1" % (word,))
        stack = [(0, word[1:], coeff)]
        while stack:
            r, rest, c = stack.pop()
            if rest and rest[0] == XI:
                stack.append((r, (1,) + rest[1:], c))
                stack.append((r + 1, rest[1:], -c))
            else:
                _accumulate(buckets.setdefault(r, {}), rest, c)
    return _raw(part2), {r: _raw(data) for r, data in buckets.items() if data}


def _collect(pairs):
    """{word: n} summing (word, int n) pairs, zero sums dropped."""
    out = {}
    for w, n in pairs:
        out[w] = out.get(w, 0) + n
    return {w: n for w, n in out.items() if n}


def _accumulate(data, word, coeff):
    prev = data.get(word)
    total = coeff if prev is None else prev + coeff
    if total:
        data[word] = total
    elif prev is not None:
        del data[word]


def xi_rho_times(r, e):
    """Left-multiply an A-element by xi r^r, expanded in the A-basis."""
    return Element(((XI,) + w, c) for w, c in _contracted("r" * r, 1, e.terms))


def a_words_of_degree(m, admissible_only=False):
    """All A-words of the given degree, in canonical lexicographic order.

    Letters are drawn in code order xi < z_1 < z_2 < ...; admissible_only
    restricts the first letter to xi or z_k with k >= 2.
    """
    if m < 0:
        return
    if m == 0:
        yield ()
        return
    for u in range(0, m + 1):
        if admissible_only and u == 1:
            continue
        for tail in a_words_of_degree(m - letter_degree(u)):
            yield (u,) + tail
