"""Truncated series evaluation, tail bounds, and the q-difference checks."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

from qmzv.errors import DomainError
from qmzv.hpoly import HPoly
from qmzv.words import RHO, XI, Element, a_words_of_degree, word_degree
from qmzv.words import decompose_h0hat
from qmzv.expr import parse_element
from qmzv.products import e_map, harmonic
from qmzv.products import delta0, delta1
from qmzv.evaluate import (
    EvalResult,
    QContext,
    _suffix_tables,
    binom_tail,
    dq_check,
    f_word,
    f_word_table,
    i_letter,
    l_value,
    z_q,
    zbar_q,
)
from qmzv.relations import relation_basis, verify_numeric

from random_elements import property_examples, rational_element

E = Element.from_word


def test_context_validation():
    QContext(q=Fraction(1, 2))
    QContext(q=0.3, N=10)
    QContext(q=0.2 + 0.1j)
    with pytest.raises(ValueError):
        QContext(q=Fraction(3, 2))
    with pytest.raises(ValueError):
        QContext(q=0)
    with pytest.raises(ValueError):
        QContext(q=Fraction(1, 2), N=1)
    with pytest.raises(ValueError):
        QContext(q=Fraction(1, 2), tol=0)
    with pytest.raises(ValueError):
        QContext(q=0.5 + 0.1j, mode="exact")
    with pytest.raises(ValueError):
        QContext(q=0.5, mode="exact")
    with pytest.raises(ValueError):
        QContext(q=Fraction(1, 2), mode="nope")
    for N in (300.0, True, "300"):
        with pytest.raises(TypeError):
            QContext(q=Fraction(1, 2), N=N)


def test_certification_flag():
    assert QContext(q=Fraction(1, 2)).certified
    assert not QContext(q=0.2 + 0.1j).certified
    assert not QContext(q=-0.5).certified


def test_i_letter_values():
    ctx = QContext(q=Fraction(1, 2), mode="exact")
    assert i_letter(XI, 1, ctx) == Fraction(1, 2)
    assert i_letter(3, 1, ctx) == Fraction(1, 4)
    assert i_letter(-1, 5, ctx) == Fraction(1, 2)
    # [2] = 3/2 at q = 1/2, so I_z2(2) = q^2/[2]^2 = 1/9
    assert i_letter(2, 2, ctx) == Fraction(1, 9)


def test_table_increments_are_the_letter_values():
    ctx = QContext(q=Fraction(1, 2), N=6, mode="exact")
    for u in (RHO, XI, 1, 2, 3):
        table = f_word_table((u,), 6, ctx)
        assert [table[n + 1] - table[n] for n in range(1, 6)] == [i_letter(u, n, ctx) for n in range(1, 6)], u
    with pytest.raises(ValueError):
        i_letter(-2, 1, ctx)
    for word in ((-2,), (2, -2)):
        with pytest.raises(ValueError):
            f_word_table(word, 6, ctx)


def test_f_word_exact_small():
    ctx = QContext(q=Fraction(1, 2), N=3, mode="exact")
    # F_z2(3) = I_z2(1) + I_z2(2) = 1/2 + 1/9
    assert f_word((2,), 3, ctx) == Fraction(11, 18)
    table = f_word_table((2,), 3, ctx)
    assert table[1] == 0 and table[2] == Fraction(1, 2)
    assert f_word((), 3, ctx) == 1
    assert f_word_table((2,), 0, ctx) == f_word_table((2,), 0, QContext(q=Fraction(1, 2))) == [0]
    with pytest.raises(ValueError):
        f_word_table((2,), -3, ctx)


def test_z_q_brute_force_oracle():
    q = Fraction(1, 2)
    N = 60
    ctx = QContext(q=q, N=N, mode="exact")

    def qint(n):
        return (1 - q**n) / (1 - q)

    # direct double loop for z2 z1, no shared recursion with the library
    brute = Fraction(0)
    for n1 in range(2, N):
        for n2 in range(1, n1):
            brute += q**n1 / (qint(n1) ** 2 * qint(n2))
    got = z_q(E((2, 1)), ctx)
    assert got.value == brute


def test_z_q_respects_hbar_as_one_minus_q():
    ctx = QContext(q=Fraction(1, 3), N=40, mode="exact")
    plain = z_q(E((2,)), ctx).value
    lifted = z_q(parse_element("h*z2"), ctx).value
    assert lifted == (1 - Fraction(1, 3)) * plain


def test_z_q_rejects_divergent_words():
    ctx = QContext(q=Fraction(1, 2))
    with pytest.raises(DomainError, match="z_q needs an element of the admissible span"):
        z_q(E((1,)), ctx)
    with pytest.raises(DomainError, match="z_q needs an element of the admissible span"):
        z_q(E((1, 2)), ctx)


def test_exact_and_float_modes_agree():
    exact = QContext(q=Fraction(1, 2), N=50, mode="exact")
    approx = QContext(q=Fraction(1, 2), N=50)
    for text in ("z2", "z3 z1", "xi z2", "z2 - h*xi"):
        e = parse_element(text)
        ve = z_q(e, exact).value
        vf = z_q(e, approx).value
        assert math.isclose(float(ve), vf, rel_tol=1e-13), text


def test_binom_tail_is_a_bound_and_not_absurdly_loose():
    # sum_{n >= start} C(n-1, r-1) x^n computed to convergence
    for x, start, r in ((0.5, 10, 2), (0.9, 50, 4), (0.3, 5, 1), (0.5, 8, 3)):
        true = 0.0
        term_n = start
        while True:
            t = math.comb(term_n - 1, r - 1) * x**term_n
            true += t
            term_n += 1
            if t < 1e-22 * (1 + true):
                break
        bound = binom_tail(x, start, r)
        assert true <= bound
        assert bound <= 10 * true
    assert binom_tail(0.5, 10, 0) == 0.0


def test_binom_tail_needs_x_in_0_1():
    assert binom_tail(0.0, 10, 2) == binom_tail(Fraction(0), 1, 1) == 0.0
    # 1.5 once gave -2075.9, 1.0 a ZeroDivisionError and -0.5 a tail of 0.0 (the true tail is 1/6)
    for x, start, r in ((1.5, 10, 2), (1.0, 10, 2), (-0.5, 2, 1), (Fraction(-1, 2), 2, 1), (math.nan, 10, 2)):
        with pytest.raises(ValueError):
            binom_tail(x, start, r)


def test_binomial_expansion_partial_sums_within_tail():
    # 1/(1-x)^(k+1) = sum_j C(k+j,j) x^j; the truncation remainder equals
    # x^(-(k-... shifted)) times the word-tail quantity, so the bound must
    # cover the closed-form gap
    x = 1.0 / 3.0
    for k in range(0, 6):
        closed = (1.0 - x) ** (-(k + 1))
        partial = 0.0
        for j_stop in (5, 10, 20):
            partial = sum(math.comb(k + j, j) * x**j for j in range(j_stop))
            gap = closed - partial
            bound = x ** (-(k + 1)) * binom_tail(x, j_stop + k + 1, k + 1)
            assert 0 < gap <= bound, (k, j_stop)
            assert bound <= 20 * gap, (k, j_stop)


def test_tail_bound_covers_truncation_error():
    q = Fraction(1, 2)
    big = z_q(E((2, 1)), QContext(q=q, N=400, mode="exact")).value
    for N in (20, 40, 80):
        res = z_q(E((2, 1)), QContext(q=q, N=N, mode="exact"))
        assert abs(big - res.value) <= res.tail_bound


def test_zbar_scales_by_weight():
    ctx = QContext(q=Fraction(1, 2), N=50, mode="exact")
    v = z_q(E((2, 1)), ctx).value
    assert zbar_q(E((2, 1)), ctx).value == v * Fraction(8)
    assert zbar_q(Element.unit(), ctx).value == 1


def test_harmonic_product_theorem_numeric():
    ctx = QContext(q=Fraction(1, 2), N=200)
    for w1, w2 in (((XI,), (XI,)), ((2,), (2, 1)), ((2, XI), (XI,))):
        e1, e2 = E(w1), E(w2)
        lhs = z_q(harmonic(e1, e2), ctx)
        r1, r2 = z_q(e1, ctx), z_q(e2, ctx)
        assert abs(lhs.value - r1.value * r2.value) < 1e-12


def test_l_value_examples():
    ctx = QContext(q=Fraction(1, 2), N=200)
    assert l_value(Element.unit(), Fraction(3, 10), ctx).value == 1
    # L_w(q) = Z_q(e(w))
    for text in ("z2", "xi", "z2 z1"):
        e = parse_element(text)
        lhs = l_value(e, Fraction(1, 2), ctx).value
        rhs = z_q(e_map(e), ctx).value
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
    with pytest.raises(DomainError, match="l_value needs an element of the admissible span"):
        l_value(E((1,)), Fraction(1, 2), ctx)
    with pytest.raises(DomainError, match=r"l_value needs \|t\| < 1"):
        l_value(E((2,)), 2, ctx)


def test_l_tail_bound_covers_truncation():
    q = Fraction(1, 2)
    t = Fraction(7, 10)
    big = l_value(E((2, 1)), t, QContext(q=q, N=400, mode="exact")).value
    for N in (20, 60):
        res = l_value(E((2, 1)), t, QContext(q=q, N=N, mode="exact"))
        assert abs(big - res.value) <= res.tail_bound


def test_dq_check_forms():
    ctx = QContext(q=Fraction(1, 2), N=300)
    t = 0.3
    rep = dq_check(E((2, 1)), t, ctx)
    assert rep.form == "graded2" and abs(rep.difference) < 1e-12
    rep = dq_check(E((XI,)), t, ctx)
    assert rep.form == "xi_rho" and abs(rep.difference) < 1e-12
    mixed = E((2,)) + E((XI, XI))
    with pytest.raises(DomainError):
        dq_check(mixed, t, ctx)
    for dq_ctx in (ctx, QContext(q=Fraction(1, 2), N=30, mode="exact")):
        for t in (0, 0.0, Fraction(0), 1, Fraction(-3, 2)):
            with pytest.raises(DomainError, match=r"0 < \|t\| < 1"):
                dq_check(E((2, 1)), t, dq_ctx)


def test_complex_q_evaluation_runs():
    ctx = QContext(q=0.3 + 0.2j, N=80)
    res = z_q(E((2,)), ctx)
    assert isinstance(res.value, complex)
    assert not res.certified


# one context per arithmetic: float, complex q, exact
MEMO_CONTEXTS = (
    QContext(q=Fraction(1, 2), N=120),
    QContext(q=0.3 + 0.2j, N=80),
    QContext(q=Fraction(2, 3), N=25, mode="exact"),
)


def _fresh_z(e, ctx):
    """Z_q(e) word by word, each word's table built afresh by f_word."""
    value = f_word((), ctx.N, ctx) * 0
    tail = 0.0
    for word, coeff in e.terms.items():
        c = coeff.evaluate(1 - ctx.q_value)
        value = value + c * f_word(word, ctx.N, ctx) if word else value + c
        tail += float(abs(c)) * binom_tail(abs(ctx.q_value), ctx.N, len(word)) if word else 0.0
    return EvalResult(value, tail, ctx.certified)


def _fresh_l(e, t, ctx):
    """L_e(t) word by word, each word's single-word value computed alone."""
    value = f_word((), ctx.N, ctx) * 0
    tail = 0.0
    for word, coeff in e.terms.items():
        res = l_value(Element.from_word(word), t, ctx)
        c = coeff.evaluate(1 - ctx.q_value)
        value = value + c * res.value if word else value + c
        tail += float(abs(c)) * res.tail_bound
    return value, tail


def _homogeneous(rng, weight):
    """Three admissible words of degree <= weight, each times a rational and the h power that completes the weight."""
    words = [w for m in range(2, weight + 1) for w in a_words_of_degree(m, admissible_only=True)]
    return Element([(w, HPoly([0] * (weight - word_degree(w)) + [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 7)))])) for w in rng.sample(words, 3)])


@property_examples(8)
def test_a_shared_suffix_memo_gives_the_fresh_per_word_values(rng):
    for ctx in MEMO_CONTEXTS:
        tables = _suffix_tables(ctx)
        t = Fraction(rng.randint(1, 9), 10)
        for _ in range(3):
            e = rational_element(rng, max_degree=4, terms=3, admissible=True)
            assert z_q(e, ctx, tables) == z_q(e, ctx) == _fresh_z(e, ctx)
            shared = l_value(e, t, ctx, tables)
            assert (shared.value, shared.tail_bound) == _fresh_l(e, t, ctx)
            g = _homogeneous(rng, 4)
            scale = (1 - ctx.q_value) ** -4
            fresh = _fresh_z(g, ctx)
            assert zbar_q(g, ctx, tables) == EvalResult(fresh.value * scale, fresh.tail_bound * float(abs(scale)), ctx.certified)


def test_equal_t_of_two_types_keep_apart_in_one_memo():
    ctx = QContext(q=Fraction(2, 5), N=80)
    tables = _suffix_tables(ctx)
    e = E((4, 2))  # at t = 0.7 the float and the complex sum differ in the last bit
    assert isinstance(l_value(e, 0.7, ctx, tables).value, float)
    shared = l_value(e, 0.7 + 0j, ctx, tables)
    assert isinstance(shared.value, complex) and shared == l_value(e, 0.7 + 0j, ctx)


def test_a_suffix_memo_refuses_another_q_n_or_mode():
    ctx = QContext(q=Fraction(1, 2), N=50)
    tables = _suffix_tables(ctx)
    e = E((2, 1))
    basis = relation_basis(3)
    for other in (
        QContext(q=Fraction(1, 3), N=50),
        QContext(q=Fraction(1, 2), N=60),
        QContext(q=Fraction(1, 2), N=50, mode="exact"),
        QContext(q=0.5 + 0j, N=50),
    ):
        for call in (
            lambda: z_q(e, other, tables),
            lambda: zbar_q(e, other, tables),
            lambda: l_value(e, Fraction(3, 10), other, tables),
            lambda: verify_numeric(basis, other, tables),
        ):
            with pytest.raises(ValueError):
                call()
    # the tolerance is not part of the series, so a memo serves any tol
    assert z_q(e, QContext(q=0.5, N=50, tol=1e-3), tables) == z_q(e, ctx)


# sha256 of str(z_q(...).value) in exact mode, recorded before the shared
# suffix tables: the Fractions must come out digit for digit the same
EXACT_VALUE_DIGESTS = {
    ("z2 z1", Fraction(1, 2), 40): "0ec21ad4f7d72234f902ee0deb42e6dbd76c34b311d322efca863003d3d02b3d",
    ("xi z2 + h*z3 z1 - 3*z2", Fraction(2, 3), 30): "2d17529a0e06c37639b628083584a40b6eccdad15f029252e90aa8f0bde5fd05",
}


def test_exact_values_match_the_recorded_digests():
    for (text, q, N), digest in EXACT_VALUE_DIGESTS.items():
        value = z_q(parse_element(text), QContext(q=q, N=N, mode="exact")).value
        assert hashlib.sha256(str(value).encode()).hexdigest() == digest, text


# sha256 over one line per L-value and q-difference check of this float and
# complex grid (value type, repr of value and tail, certified flag), recorded
# before L-values read their outer sum from the suffix tables. At q = 2/5 and
# t = -0.5+0.6j, [n]^k in complex arithmetic differs from the float power in
# bits the sums keep, so the grid sees whether complex t widens [n].
L_GRID_QS = (Fraction(1, 2), Fraction(3, 4), Fraction(2, 5), 0.3 + 0.2j)
L_GRID_TS = (Fraction(3, 10), Fraction(-1, 5), 0.6, 0.2 + 0.1j, -0.5 + 0.6j)
L_GRID_ELEMENTS = ("1", "z2", "2 - h*z2", "xi z2", "z3 z2 - 3/2*h*xi z2", "xi xi + h*z2 z2", "z4 z2", "z6")
L_GRID_DIGEST = "2fa1c50386bd77d0e3a80f93ce30436b619fae911e777c50f946bafed0bf9790"


def test_float_and_complex_l_values_match_the_recorded_digest():
    lines = []
    for q in L_GRID_QS:
        ctx = QContext(q=q, N=60)
        for t in L_GRID_TS:
            for text in L_GRID_ELEMENTS:
                e = parse_element(text)
                res = l_value(e, t, ctx)
                lines.append("L %r %r %s: %s %r %r %r" % (q, t, text, type(res.value).__name__, res.value, res.tail_bound, res.certified))
                try:
                    rep = dq_check(e, t, ctx)
                    lines.append("D %r %r %s: %s %r %r %r" % (q, t, text, rep.form, rep.r, rep.lhs, rep.rhs))
                except DomainError as err:
                    lines.append("D %r %r %s: %s" % (q, t, text, err))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == L_GRID_DIGEST


def _fraction_digest(value):
    """sha256 over the signed big-endian bytes of numerator and denominator.

    str() of a value past 4,300 digits raises under Python's default limit.
    """
    parts = (value.numerator, value.denominator)
    return hashlib.sha256(b"/".join(n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True) for n in parts)).hexdigest()


# _fraction_digest of an exact z_q value of more than 4,300 digits, recorded
# before the exact tables became integers over one common denominator
LARGE_EXACT_VALUE_DIGESTS = {
    ("1*h^2*xi - 4*z2 xi", Fraction(2, 5), 100): "b011c4960fa7addf4746057cdf11092f932c02635fc951da68265dec7a1e82a0",
}


def test_a_large_exact_value_matches_its_recorded_digest():
    for (text, q, N), digest in LARGE_EXACT_VALUE_DIGESTS.items():
        value = z_q(parse_element(text), QContext(q=q, N=N, mode="exact")).value
        assert value.denominator.bit_length() > 4300 * math.log2(10)
        assert _fraction_digest(value) == digest, text


def _plain_qint(q, n):
    return (1 - q**n) / (1 - q)


def _plain_table(word, q, N):
    """F_word(n) for n = 0..N by the first-order recursion in plain Fraction arithmetic."""

    def letter(u, n):
        return 1 - q if u == RHO else q**n / _plain_qint(q, n) if u == XI else q ** ((u - 1) * n) / _plain_qint(q, n) ** u

    vals = [Fraction(1)] * (N + 1)
    for u in reversed(word):
        cur = [Fraction(0)] * (N + 1)
        for n in range(2, N + 1):
            cur[n] = cur[n - 1] + letter(u, n - 1) * vals[n - 1]
        vals = cur
    return vals


def _plain_l(e, t, q, N):
    """L_e(t) from _plain_table: t^n/[n] (xi) or t^n/[n]^k (z_k) times F_w(n), over 0 < n < N."""
    value = Fraction(0)
    for word, coeff in e.terms.items():
        c = coeff.evaluate(1 - q)
        if not word:
            value += c
            continue
        table = _plain_table(word[1:], q, N)
        for n in range(1, N):
            value += c * t**n / _plain_qint(q, n) ** (1 if word[0] == XI else word[0]) * table[n]
    return value


# one memo extended by letters of rising exponent, then by rho and z1
RISING_WORDS = ((2,), (3, 2), (XI, 3, 2), (4, XI, 3, 2), (RHO, 4, XI, 3, 2), (1, RHO, 4, XI, 3, 2))
KERNEL_QS = (Fraction(1, 2), Fraction(2, 5), Fraction(1, 3), Fraction(3, 7), Fraction(-1, 2), Fraction(-2, 3))


@property_examples(6)
def test_exact_tables_equal_plain_fraction_tables_at_every_n(rng):
    contexts = [(q, rng.randint(2, 60)) for q in KERNEL_QS] + [(rng.choice(KERNEL_QS), 2), (rng.choice(KERNEL_QS), 60)]
    for q, N in contexts:
        ctx = QContext(q=q, N=N, mode="exact")
        tables = _suffix_tables(ctx)
        shuffled = [tuple(rng.choice((RHO, XI, 1, 2, 3, 4)) for _ in range(rng.randint(1, 3))) for _ in range(3)]
        for word in RISING_WORDS + tuple(shuffled):
            plain = _plain_table(word, q, N)
            assert tables.table(word) == plain == f_word_table(word, N, ctx), (q, N, word)
            if word[0] not in (RHO, 1):
                assert z_q(E(word), ctx, tables).value == plain[N] == z_q(E(word), ctx).value, (q, N, word)
        with pytest.raises(ValueError):
            tables.table((-2, 3, 2))
        # a negative t whose denominator shares the factors of q's, as q = 2/5, t = -3/25
        b = q.denominator
        e = E((4, XI, 3, 2)) - parse_element("3/2*h*z3 z2 + xi z2")
        for t in (Fraction(rng.randint(1, 9), 10), Fraction(-rng.randint(1, b * b - 1), b * b)):
            assert l_value(e, t, ctx, tables) == l_value(e, t, ctx)
            assert l_value(e, t, ctx, tables).value == _plain_l(e, t, q, N), (q, N, t)


@pytest.mark.parametrize("q", KERNEL_QS)
def test_exact_dq_check_equals_fresh_and_plain_series(q):
    ctx, t, N = QContext(q=q, N=30, mode="exact"), Fraction(3, 10), 30
    for e in (E((3, 2)), E((XI, 3, 2)) + E((XI, 2))):
        rep = dq_check(e, t, ctx)
        lhs = (_plain_l(e, t, q, N) - _plain_l(e, q * t, q, N)) / ((1 - q) * t)
        if rep.form == "graded2":
            rhs = l_value(delta0(e), t, ctx).value / t
        else:
            ((r, inner),) = decompose_h0hat(e)[1].items()
            rhs = ((1 - q) * t) ** r / (1 - t) ** (r + 1) * l_value(delta1(inner), t, ctx).value
        assert (rep.lhs, rep.rhs, rep.difference) == (lhs, rhs, lhs - rhs), (q, e)
