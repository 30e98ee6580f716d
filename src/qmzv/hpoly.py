"""The coefficient ring: polynomials in a formal variable h over exact rationals.

Coefficients of every word in the algebra live here. The variable h is the
deformation parameter; numerical evaluation substitutes h = 1 - q. All
arithmetic is exact, backed by fractions.Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError


class HPoly:
    """Dense polynomial in h with Fraction coefficients, ascending degree.

    Canonical form: trailing zero coefficients stripped; the zero polynomial
    stores an empty tuple. Instances are immutable and hashable. Degrees stay
    tiny (bounded by the weight under consideration), so dense storage wins.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _canonical(cls, coeffs):
        """An HPoly from a tuple of Fractions with a nonzero last entry (or empty), unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", coeffs)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        """Coefficient of h^k (zero beyond the stored degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return HPoly._canonical(tuple(out))

    __radd__ = __add__

    def __neg__(self):
        return HPoly._canonical(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HPoly(other)
        if not isinstance(other, HPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            return HPoly._canonical(tuple(c * other for c in self.coeffs))
        if not isinstance(other, HPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        # the top coefficient is a product of two nonzero top coefficients
        return HPoly._canonical(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of an HPoly")
        out = HPoly(1)
        for _ in range(n):
            out = out * self
        return out

    def evaluate(self, h_value):
        """Evaluate at h = h_value by Horner's rule.

        The result has the arithmetic kind of h_value: a Fraction argument
        gives an exact Fraction, a float argument a float.
        """
        acc = 0 * h_value
        for c in reversed(self.coeffs):
            acc = acc * h_value + c
        return acc

    def __repr__(self):
        return "HPoly(%r)" % (format_hpoly(self),)

    def __str__(self):
        return format_hpoly(self)


ZERO = HPoly()
ONE = HPoly(1)
H = HPoly((0, 1))


def h_power(k):
    """The monomial h^k."""
    return HPoly((0,) * k + (1,))


def format_rational(x):
    """"p/q" when the denominator is not 1, else "p"."""
    x = Fraction(x)
    return str(x)


_TERM_RE = re.compile(
    r"""(?P<rat>-?\d+(?:/\d+)?)   # rational factor
      | (?P<h>h(?:\^(?P<k>\d+))?) # power of h
      | (?P<star>\*)              # factor separator
      | (?P<bad>\S)               # anything else is an error
    """,
    re.VERBOSE,
)


def _parse_hpoly_term(term, offset):
    coeff = Fraction(1)
    power = 0
    saw_factor = False
    for m in _TERM_RE.finditer(term):
        if m.group("rat"):
            coeff *= Fraction(m.group("rat"))
            saw_factor = True
        elif m.group("h"):
            power += int(m.group("k") or 1)
            saw_factor = True
        elif m.group("bad"):
            raise ParseError("unexpected %r" % m.group("bad"), offset + m.start())
    if not saw_factor:
        raise ParseError("empty term", offset)
    return coeff, power


def parse_hpoly(text):
    """Parse text like "1 - 2*h + 3/4*h^2" into an HPoly.

    Terms may appear in any order; each term is a product of an optional
    rational and optional powers of h, joined by '*'.
    """
    coeffs = {}
    pos = 0
    sign = 1
    started = False
    n = len(text)
    while True:
        # consume a sign and the following term
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if not started:
                raise ParseError("empty polynomial", pos)
            break
        if started:
            if text[pos] == "+":
                sign = 1
            elif text[pos] == "-":
                sign = -1
            else:
                raise ParseError("expected '+' or '-'", pos)
            pos += 1
        elif text[pos] in "+-":
            sign = 1 if text[pos] == "+" else -1
            pos += 1
        end = pos
        while end < n and text[end] not in "+-":
            end += 1
        coeff, power = _parse_hpoly_term(text[pos:end], pos)
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
        started = True
        sign = 1
        pos = end
    top = max(coeffs) if coeffs else 0
    return HPoly([coeffs.get(k, Fraction(0)) for k in range(top + 1)])


def format_hpoly_monomial(coeff, power):
    """Render coeff * h^power without a leading sign; returns (negative, text)."""
    negative = coeff < 0
    c = -coeff if negative else coeff
    if power == 0:
        return negative, format_rational(c)
    hpart = "h" if power == 1 else "h^%d" % power
    if c == 1:
        return negative, hpart
    return negative, "%s*%s" % (format_rational(c), hpart)


def format_hpoly(p):
    """Canonical text, ascending in h-degree: "1 - 2*h + 3/4*h^2"."""
    if p.is_zero():
        return "0"
    parts = []
    for power, coeff in enumerate(p.coeffs):
        if not coeff:
            continue
        negative, text = format_hpoly_monomial(coeff, power)
        if not parts:
            parts.append("-" + text if negative else text)
        else:
            parts.append("- " + text if negative else "+ " + text)
    return " ".join(parts)
