"""Evaluation of the q-series Z_q, the finite sums F_w(N), and the
q-polylogarithms L_w(t), with certified truncation tails.

All series are truncated at the context bound N and reported together with
a rigorous tail bound (for real q in (0,1); other parameters fall back to
the same formula flagged as heuristic). The coefficient variable h is
evaluated at 1 - q before summation. Exact mode keeps every partial sum a
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError
from .products import delta0, delta1
from .words import RHO, XI, Element, decompose_h0hat, element_weight, membership


@dataclass(frozen=True)
class QContext:
    """Evaluation parameters: q, truncation bound N, tolerance, arithmetic mode.

    q may be a Fraction, float, or complex with 0 < |q| < 1. Mode "exact"
    requires rational q and performs all partial sums over Fractions.
    """

    q: object = Fraction(1, 2)
    N: int = 300
    tol: float = 1e-10
    mode: str = "float"

    def __post_init__(self):
        if self.mode not in ("float", "exact"):
            raise ValueError("mode must be 'float' or 'exact'")
        if isinstance(self.q, complex):
            if self.mode == "exact":
                raise ValueError("exact mode needs rational q")
            if not 0.0 < abs(self.q) < 1.0:
                raise ValueError("need 0 < |q| < 1")
        else:
            if not 0.0 < abs(float(self.q)) < 1.0:
                raise ValueError("need 0 < |q| < 1")
            if self.mode == "exact" and not isinstance(self.q, (int, Fraction)):
                raise ValueError("exact mode needs rational q")
        if self.N < 2:
            raise ValueError("truncation bound N too small")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")

    @property
    def q_value(self):
        """q in the working arithmetic of the context."""
        if self.mode == "exact":
            return Fraction(self.q)
        if isinstance(self.q, complex):
            return self.q
        return float(self.q)

    @property
    def certified(self):
        """True when tail bounds are rigorous: real q in (0,1)."""
        return not isinstance(self.q, complex) and 0 < self.q < 1


@dataclass(frozen=True)
class EvalResult:
    """A truncated series value and an upper bound on the dropped tail."""

    value: object
    tail_bound: float
    certified: bool = True


def binom_tail(x, start, r):
    """Upper bound for sum_{n >= start} C(n-1, r-1) x^n with 0 < x < 1.

    The term ratio x*n/(n-r+1) decreases in n; past an explicit M it stays
    below (1+x)/2, so the remainder is summed exactly up to M and capped by
    a geometric series after it.
    """
    if r <= 0:
        return 0.0
    x = float(x)
    if x <= 0.0:
        return 0.0
    rho = (1.0 + x) / 2.0
    m_start = max(start, r, int(rho * (r - 1) / (rho - x)) + 1)
    total = 0.0
    for n in range(start, m_start):
        total += comb(n - 1, r - 1) * x**n
    top = comb(m_start - 1, r - 1) * x**m_start
    return (total + top / (1.0 - rho)) * (1.0 + 1e-9)


def _q_powers(q, N, one):
    out = [one] * (N + 1)
    acc = one
    for n in range(1, N + 1):
        acc = acc * q
        out[n] = acc
    return out


def i_letter(u, n, ctx):
    """I_u(n): q^n/[n] for xi, q^((k-1)n)/[n]^k for z_k, 1-q for rho."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = ctx.q_value
    if u == RHO:
        return 1 - q
    qn = q**n
    qint = (1 - qn) / (1 - q)
    if u == XI:
        return qn / qint
    if u >= 1:
        return qn ** (u - 1) / qint**u
    raise ValueError("bad letter code %r" % (u,))


def _letter_series(u, qpow, qints, upto):
    """I_u(n) for n = 0..upto-1 (index 0 unused, stored as 0)."""
    vals = [0] * upto
    for n in range(1, upto):
        if u == XI:
            vals[n] = qpow[n] / qints[n]
        else:
            vals[n] = qpow[n] ** (u - 1) / qints[n] ** u
    return vals


def f_word_table(word, N, ctx):
    """F_w(n) for n = 0..N by the first-order recursion.

    F_1(n) = 1 and F_{uw}(n) = F_{uw}(n-1) + I_u(n-1) F_w(n-1); cost O(len(word)*N).
    """
    q = ctx.q_value
    one = Fraction(1) if ctx.mode == "exact" else (1.0 + 0j if isinstance(q, complex) else 1.0)
    zero = one * 0
    qpow = _q_powers(q, N, one)
    qints = [zero] + [(1 - qpow[n]) / (1 - q) for n in range(1, N + 1)]
    vals = [one] * (N + 1)
    for u in reversed(word):
        ivals = _letter_series(u, qpow, qints, N)
        cur = [zero] * (N + 1)
        acc = zero
        for m in range(1, N + 1):
            acc = acc + ivals[m - 1] * vals[m - 1]
            cur[m] = acc
        vals = cur
    return vals


def f_word(w, N, ctx):
    """The finite nested sum F_w(N) over N > n_1 > ... > n_r > 0."""
    return f_word_table(w, N, ctx)[N]


def _word_tail(word, ctx):
    """Tail bound for Z_q(word) truncated at the context N.

    Every summand with outer index n is at most |q|^n (the admissible first
    letter supplies it, the others are bounded by 1 for real q in (0,1)),
    and there are C(n-1, r-1) summands.
    """
    return binom_tail(abs(ctx.q_value), ctx.N, len(word))


def z_q(e, ctx):
    """Truncated evaluation of Z_q on an element of the admissible span."""
    if not membership(e, "H0hat"):
        raise DomainError("z_q needs an element of the admissible span")
    q = ctx.q_value
    hval = 1 - q
    one = Fraction(1) if ctx.mode == "exact" else (1.0 + 0j if isinstance(q, complex) else 1.0)
    value = one * 0
    tail = 0.0
    for word, coeff in e.terms.items():
        c = coeff.evaluate(hval)
        if not word:
            value = value + c
            continue
        value = value + c * f_word(word, ctx.N, ctx)
        tail += float(abs(c)) * _word_tail(word, ctx)
    return EvalResult(value, tail, ctx.certified)


def zbar_q(e, ctx):
    """The weight-normalized series (1-q)^(-d) Z_q(e) for homogeneous e."""
    d = element_weight(e)
    if d is None:
        return EvalResult(0, 0.0, ctx.certified)
    base = z_q(e, ctx)
    scale = (1 - ctx.q_value) ** (-d)
    return EvalResult(base.value * scale, base.tail_bound * float(abs(scale)), base.certified)


def l_value(e, t, ctx):
    """The q-polylogarithm L_e(t), truncated at the context N.

    For a word u w the outer factor is t^n/[n] when u is xi and t^n/[n]^k
    when u is z_k; L_1(t) = 1. Requires |t| < 1.
    """
    if not abs(t) < 1:
        raise DomainError("l_value needs |t| < 1")
    if not membership(e, "H0hat"):
        raise DomainError("l_value needs an element of the admissible span")
    q = ctx.q_value
    hval = 1 - q
    exact = ctx.mode == "exact"
    if exact:
        t = Fraction(t)
    elif not isinstance(t, complex):
        t = float(t)
    one = Fraction(1) if exact else (1.0 + 0j if isinstance(q, complex) or isinstance(t, complex) else 1.0)
    zero = one * 0
    N = ctx.N
    value = zero
    tail = 0.0
    tpow = _q_powers(t, N, one)
    qpow = _q_powers(q, N, one)
    qints = [zero] + [(1 - qpow[n]) / (1 - q) for n in range(1, N + 1)]
    for word, coeff in e.terms.items():
        c = coeff.evaluate(hval)
        if not word:
            value = value + c
            continue
        u, tail_word = word[0], word[1:]
        table = f_word_table(tail_word, N, ctx)
        acc = zero
        for n in range(1, N):
            outer = tpow[n] / qints[n] if u == XI else tpow[n] / qints[n] ** u
            acc = acc + outer * table[n]
        value = value + c * acc
        tail += float(abs(c)) * binom_tail(abs(t), N, len(tail_word) + 1)
    certified = ctx.certified and not isinstance(t, complex) and 0 < t < 1
    return EvalResult(value, tail, certified)


@dataclass(frozen=True)
class DqReport:
    """Both sides of a q-difference identity and their gap."""

    form: str
    r: object
    lhs: object
    rhs: object
    difference: object


def dq_check(e, t, ctx):
    """Check the q-difference formula matching the shape of e.

    For e in the z_{>=2}-graded part: D_q L_e(t) = L_{delta0(e)}(t) / t.
    For e = xi r^r w with w z-leading: D_q L_e(t) equals
    ((1-q) t)^r / (1-t)^(r+1) times L_{delta1(w)}(t). Mixed shapes error.
    """
    part2, buckets = decompose_h0hat(e)
    q = ctx.q_value
    if ctx.mode == "exact":
        t = Fraction(t)
    elif not isinstance(t, complex):
        t = float(t)
    lhs = (l_value(e, t, ctx).value - l_value(e, q * t, ctx).value) / ((1 - q) * t)
    if not buckets:
        form, r = "graded2", None
        rhs = l_value(delta0(e), t, ctx).value / t
    elif part2.is_zero() and len(buckets) == 1:
        ((r, inner),) = buckets.items()
        form = "xi_rho"
        rhs = ((1 - q) * t) ** r / (1 - t) ** (r + 1) * l_value(delta1(inner), t, ctx).value
    else:
        raise DomainError("element is neither z-graded nor a single xi r^r component")
    return DqReport(form, r, lhs, rhs, lhs - rhs)
