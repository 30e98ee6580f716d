"""Evaluation of the q-series Z_q, the finite sums F_w(N), and the
q-polylogarithms L_w(t), with certified truncation tails.

All series are truncated at the context bound N and reported together with
a rigorous tail bound (for real q in (0,1); other parameters fall back to
the same formula flagged as heuristic). The coefficient variable h is
evaluated at 1 - q before summation.

F-tables come from a suffix memo for one q, N and mode: a word's table
extends its longest stored suffix, so the words of an element, of the three
series of a q-difference check, or of a whole ``verify`` build each suffix
once, with the same values as a fresh table; the outer sum of an L-value is
one more letter of the same memo. Float and complex tables (``_Tables``)
hold float or complex partial sums. Exact tables (``_ExactTables``) at
q = a/b hold integers over a denominator known in advance, a constant times
a product of the c_n = b^n - a^n; each value is reduced to a Fraction once,
when read, so it is the same Fraction as from Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import mul

from .errors import DomainError
from .products import delta0, delta1
from .words import RHO, XI, Element, decompose_h0hat, element_weight, membership


@dataclass(frozen=True)
class QContext:
    """Evaluation parameters: q, truncation bound N, tolerance, arithmetic mode.

    q may be a Fraction, float, or complex with 0 < |q| < 1. Mode "exact"
    requires rational q = a/b: the F-tables are integers over one common
    denominator, reduced to Fractions when a value is read (see _ExactTables).
    """

    q: object = Fraction(1, 2)
    N: int = 300
    tol: float = 1e-10
    mode: str = "float"

    def __post_init__(self):
        if self.mode not in ("float", "exact"):
            raise ValueError("mode must be 'float' or 'exact'")
        if not 0.0 < abs(complex(self.q)) < 1.0:
            raise ValueError("need 0 < |q| < 1")
        if self.mode == "exact" and not isinstance(self.q, (int, Fraction)):
            raise ValueError("exact mode needs rational q")
        if not isinstance(self.N, int) or isinstance(self.N, bool):
            raise TypeError("truncation bound N must be an int")
        if self.N < 2:
            raise ValueError("truncation bound N too small")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")

    def _working(self, x):
        """x in the working arithmetic: a Fraction in exact mode, otherwise a float unless x is complex."""
        if self.mode == "exact":
            return Fraction(x)
        return x if isinstance(x, complex) else float(x)

    @property
    def q_value(self):
        """q in the working arithmetic of the context."""
        return self._working(self.q)

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
    """Upper bound for sum_{n >= start} C(n-1, r-1) x^n with 0 <= x < 1.

    The term ratio x*n/(n-r+1) decreases in n; past an explicit M it stays
    below (1+x)/2, so the remainder is summed exactly up to M and capped by
    a geometric series after it.
    """
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise ValueError("binom_tail needs 0 <= x < 1")
    if r <= 0 or x == 0.0:
        return 0.0
    rho = (1.0 + x) / 2.0
    m_start = max(start, r, int(rho * (r - 1) / (rho - x)) + 1)
    total = 0.0
    for n in range(start, m_start):
        total += comb(n - 1, r - 1) * x**n
    top = comb(m_start - 1, r - 1) * x**m_start
    return (total + top / (1.0 - rho)) * (1.0 + 1e-9)


def _q_powers(q, N, one):
    return list(accumulate(repeat(q, N), mul, initial=one))  # one, one*q, (one*q)*q, ...


def _letter(u, qn, qint, q):
    """I_u at one n, from q^n and [n]: the letter formula of i_letter and the tables."""
    if u == RHO:
        return 1 - q
    if u == XI:
        return qn / qint
    if u >= 1:
        return qn ** (u - 1) / qint**u
    raise ValueError("bad letter code %r" % (u,))


def i_letter(u, n, ctx):
    """I_u(n): q^n/[n] for xi, q^((k-1)n)/[n]^k for z_k, 1-q for rho."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = ctx.q_value
    qn = q**n
    return _letter(u, qn, (1 - qn) / (1 - q), q)


def _memo_key(ctx, N):
    return ctx.mode, type(ctx.q_value), ctx.q_value, N


class _Tables:
    """F-tables of word suffixes for one (q, N) in float or complex mode, each suffix built once.

    A word's table extends its longest stored suffix one letter at a time by
    F_{uw}(n) = F_{uw}(n-1) + I_u(n-1) F_w(n-1), with the operations of a
    fresh table in the same order, so sharing a memo changes no bit of any
    value. The letter (u, type(t), t) is I(n) = t^n/[n]^kappa with kappa 1 for
    xi, k for z_k, so F_{(u,type(t),t)w}(N) = L_{uw}(t). A memo lives for one
    call or one verify, never in the module.
    """

    def __init__(self, N, ctx):
        q = self.q = ctx.q_value
        self.N, self.key = N, _memo_key(ctx, N)
        one = self.one = 1.0 + 0j if isinstance(q, complex) else 1.0
        zero = self.zero = one * 0
        self.qpow = _q_powers(q, N, one)
        self.qints = [zero] + [(1 - self.qpow[n]) / (1 - q) for n in range(1, N + 1)]
        self.letters, self.outer, self.tables, self.tails = {}, {}, {(): [one] * (N + 1)}, {}

    def table(self, word):
        """F_word(n) for n = 0..N; the list is shared, not to be changed."""
        i = 0
        while word[i:] not in self.tables:
            i += 1
        vals = self.tables[word[i:]]
        for j in range(i - 1, -1, -1):
            u = word[j]
            if u not in self.letters:  # I_u(n) for n = 0..N-1, index 0 unused
                self.letters[u] = self._series(u)
            # F_uw(0) = 0, then F_uw(m) = F_uw(m-1) + I_u(m-1) F_w(m-1) for m = 1..N in turn
            self.tables[word[j:]] = vals = list(accumulate(map(mul, self.letters[u], vals[: self.N]), initial=self.zero))
        return vals

    def _series(self, u):
        """I_u(n) for n = 0..N-1, index 0 unused; complex t at real q widens [n] to complex."""
        if not isinstance(u, tuple):
            return [0] + [_letter(u, self.qpow[n], self.qints[n], self.q) for n in range(1, self.N)]
        u, _, t = u
        if (type(t), t) not in self.outer:  # t^n and [n], built once per t for all its letters
            one, qints = self.one, self.qints
            if isinstance(t, complex) and not isinstance(one, complex):
                one = one + 0j
                qints = [0] + [(1 - qn) / (1 - self.q) for qn in _q_powers(self.q, self.N, one)[1:]]
            self.outer[type(t), t] = _q_powers(t, self.N, one), qints
        tpow, qints = self.outer[type(t), t]
        return [0] + [tpow[n] / qints[n] if u == XI else tpow[n] / qints[n] ** u for n in range(1, self.N)]

    def value(self, word):
        """F_word(N)."""
        return self.table(word)[self.N]

    def tail(self, x, r):
        """binom_tail(x, N, r), computed once per (x, r)."""
        if (x, r) not in self.tails:
            self.tails[x, r] = binom_tail(x, self.N, r)
        return self.tails[x, r]


class _ExactTables(_Tables):
    """Exact F-tables at q = a/b: integers over one denominator per suffix, one gcd per read.

    With c_n = b^n - a^n each letter is I_u(n) = M_u(n) / (D_u c_n^kappa_u)
    for an integer M_u(n) and a constant D_u (see _integer_letter). A suffix
    w is stored as integers P_w(n) = F_w(n) D prod_{0<m<n} c_m^K, with D the
    product of the D_u of its letters and K at least their largest kappa, and
    the recursion of _Tables becomes
    P_uw(n) = P_uw(n-1) c_{n-1}^K + M_u(n-1) c_{n-1}^(K-kappa_u) P_w(n-1).
    The new suffixes of a word all take the largest exponent among its new
    letters and its stored suffix, whose table is first multiplied by
    prod_{0<m<n} c_m^(K-K_w) if that raises K. A read reduces one Fraction;
    Fractions are canonical, so it equals the value of the same recursion in
    Fraction arithmetic.
    """

    def __init__(self, N, ctx):
        self.N, self.key = N, _memo_key(ctx, N)
        self.zero = Fraction(0)
        self.a, self.b = ctx.q_value.numerator, ctx.q_value.denominator
        self.c = [self.b**n - self.a**n for n in range(N + 1)]
        self.powers, self.tables, self.tails = {}, {(): ([1] * (N + 1), 0, 1)}, {}

    def _powers(self, k):
        """(c_n^k, prod_{0<m<n} c_m^k) for n = 0..N, built once per k."""
        if k not in self.powers:
            cpow = [c**k for c in self.c]
            self.powers[k] = cpow, [1, *accumulate(cpow[1 : self.N], mul, initial=1)]
        return self.powers[k]

    def _integer_letter(self, u):
        """(M_u(n) for n = 0..N-1, kappa_u, D_u); index 0 unused."""
        a, b, N = self.a, self.b, self.N
        if isinstance(u, tuple):  # t^n/[n]^k = c^n e^(N-1-n) b^((n-1)k) (b-a)^k / (e^(N-1) c_n^k) at t = c/e
            u, _, t = u
            k, c, e = 1 if u == XI else u, t.numerator, t.denominator
            return [0] + [c**n * e ** (N - 1 - n) * b ** ((n - 1) * k) * (b - a) ** k for n in range(1, N)], k, e ** (N - 1)
        if u == RHO:  # 1 - q = (b-a)/b
            return [b - a] * N, 0, b
        if u == XI:  # q^n/[n] = a^n (b-a) / (b c_n)
            return [a**n * (b - a) for n in range(N)], 1, b
        if u >= 1:  # q^((k-1)n)/[n]^k = a^((k-1)n) (b-a)^k b^n / (b^k c_n^k)
            return [a ** ((u - 1) * n) * (b - a) ** u * b**n for n in range(N)], u, b**u
        raise ValueError("bad letter code %r" % (u,))

    def _entry(self, word):
        """(P_word, K, D) of word, extending its longest stored suffix."""
        i = 0
        while word[i:] not in self.tables:
            i += 1
        vals, K, den = self.tables[word[i:]]
        letters = [self._integer_letter(u) for u in word[:i]]
        top = max([K] + [kappa for _, kappa, _ in letters])
        if top > K:
            vals = self._powers(top)[1] if i == len(word) else [p * d for p, d in zip(vals, self._powers(top - K)[1])]
            K = top
        cK = self._powers(K)[0]
        for j in range(i - 1, -1, -1):
            num, kappa, den_u = letters[j]
            step = [m * c for m, c in zip(num, self._powers(K - kappa)[0])]
            cur, acc = [0] * (self.N + 1), 0
            for n in range(2, self.N + 1):
                acc = acc * cK[n - 1] + step[n - 1] * vals[n - 1]
                cur[n] = acc
            vals, den = cur, den * den_u
            self.tables[word[j:]] = vals, K, den
        return vals, K, den

    def table(self, word):
        """F_word(n) for n = 0..N, each Fraction reduced on this read."""
        vals, K, den = self._entry(word)
        return [Fraction(p, den * d) for p, d in zip(vals, self._powers(K)[1])]

    def value(self, word):
        """F_word(N), reduced on this read."""
        vals, K, den = self._entry(word)
        return Fraction(vals[self.N], den * self._powers(K)[1][self.N])


def _new_tables(N, ctx):
    return (_ExactTables if ctx.mode == "exact" else _Tables)(N, ctx)


def _suffix_tables(ctx, tables=None):
    """tables, checked against ctx's q, N and mode; a fresh memo when None."""
    if tables is not None and tables.key != _memo_key(ctx, ctx.N):
        raise ValueError("suffix tables were built for another q, N or mode")
    return _new_tables(ctx.N, ctx) if tables is None else tables


def f_word_table(word, N, ctx):
    """F_w(n) for n = 0..N by the first-order recursion.

    F_1(n) = 1 and F_{uw}(n) = F_{uw}(n-1) + I_u(n-1) F_w(n-1); cost O(len(word)*N).
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    return _new_tables(N, ctx).table(tuple(word))


def f_word(w, N, ctx):
    """The finite nested sum F_w(N) over N > n_1 > ... > n_r > 0."""
    return f_word_table(w, N, ctx)[N]


def _word_sum(e, ctx, tables, t=None):
    """(value, tail bound) of Z_q(e), or of L_e(t) when t is given: one table read and one binom_tail per word."""
    if not membership(e, "H0hat"):
        raise DomainError("%s needs an element of the admissible span" % ("z_q" if t is None else "l_value"))
    tables = _suffix_tables(ctx, tables)
    hval = 1 - ctx.q_value
    x = abs(ctx.q_value if t is None else t)
    value = tables.zero + 0j if isinstance(t, complex) else tables.zero  # complex t at real q: a complex sum
    tail = 0.0
    for word, coeff in e.terms.items():
        c = coeff.evaluate(hval)
        if not word:
            value = value + c
            continue
        value = value + c * tables.value(word if t is None else ((word[0], type(t), t),) + word[1:])
        tail += float(abs(c)) * tables.tail(x, len(word))
    return value, tail


def z_q(e, ctx, tables=None):
    """Truncated evaluation of Z_q on an element of the admissible span.

    tables is a suffix memo of the same q, N and mode shared with other
    calls; by default the words of e share a fresh one. Every summand of a
    word with outer index n is at most |q|^n (the admissible first letter
    supplies it, the others are bounded by 1 for real q in (0,1)), and there
    are C(n-1, r-1) of them, so binom_tail bounds the dropped tail.
    """
    return EvalResult(*_word_sum(e, ctx, tables), ctx.certified)


def zbar_q(e, ctx, tables=None):
    """The weight-normalized series (1-q)^(-d) Z_q(e) for homogeneous e."""
    d = element_weight(e)
    if d is None:
        return EvalResult(0, 0.0, ctx.certified)
    base = z_q(e, ctx, tables)
    scale = (1 - ctx.q_value) ** (-d)
    return EvalResult(base.value * scale, base.tail_bound * float(abs(scale)), base.certified)


def l_value(e, t, ctx, tables=None):
    """The q-polylogarithm L_e(t), truncated at the context N.

    For a word u w the outer factor is t^n/[n] when u is xi and t^n/[n]^k
    when u is z_k; L_1(t) = 1. Requires |t| < 1. The outer sum is one more
    letter of the suffix memo, so L-values share their tables with z_q.
    """
    if not abs(t) < 1:
        raise DomainError("l_value needs |t| < 1")
    t = ctx._working(t)
    certified = ctx.certified and not isinstance(t, complex) and 0 < t < 1
    return EvalResult(*_word_sum(e, ctx, tables, t), certified)


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
    if not 0 < abs(t) < 1:
        raise DomainError("dq_check needs 0 < |t| < 1")
    part2, buckets = decompose_h0hat(e)
    q, t = ctx.q_value, ctx._working(t)
    tables = _suffix_tables(ctx)
    lhs = (l_value(e, t, ctx, tables).value - l_value(e, q * t, ctx, tables).value) / ((1 - q) * t)
    if not buckets:
        form, r = "graded2", None
        rhs = l_value(delta0(e), t, ctx, tables).value / t
    elif part2.is_zero() and len(buckets) == 1:
        ((r, inner),) = buckets.items()
        form = "xi_rho"
        rhs = ((1 - q) * t) ** r / (1 - t) ** (r + 1) * l_value(delta1(inner), t, ctx, tables).value
    else:
        raise DomainError("element is neither z-graded nor a single xi r^r component")
    return DqReport(form, r, lhs, rhs, lhs - rhs)
