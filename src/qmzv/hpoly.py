"""The coefficient ring: polynomials in a formal variable h over exact rationals.

Coefficients of every word in the algebra live here. The variable h is the
deformation parameter; numerical evaluation substitutes h = 1 - q. All
arithmetic is exact, backed by fractions.Fraction. The text form of a
coefficient (parse_hpoly, format_hpoly) is the constant case of expr's
grammar and lives there.
"""

from __future__ import annotations

from fractions import Fraction


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
        from .expr import format_hpoly

        return "HPoly(%r)" % (format_hpoly(self),)

    def __str__(self):
        from .expr import format_hpoly

        return format_hpoly(self)


ZERO = HPoly()
ONE = HPoly(1)
H = HPoly((0, 1))


def h_power(k):
    """The monomial h^k."""
    return HPoly((0,) * k + (1,))
