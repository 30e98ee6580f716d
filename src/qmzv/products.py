"""The three products (harmonic, integral shuffle, star) and the maps
delta0, delta1, i0, i1, e, e_inv, phi_k that tie them together.

Conventions: the harmonic and star products act on A-basis elements, the
integral shuffle on x/y/r elements with an A-basis wrapper that expands,
shuffles and contracts. Harmonic and shuffle are one quasi-shuffle word
recursion with different letter corrections (circle, ALPHA_TABLE); star
is the shuffle transported through e, star(a, b) = e_inv(e(a) sh e(b)).
The products accept an optional cache dict keyed by word pairs: A-word
pairs for harmonic, x/y/r word pairs for shuffle and star. Passing one
across calls of the same product is safe because its entries are
input-determined and never changed once stored.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from .errors import DomainError
from .hpoly import H, HPoly, ONE, h_power
from .words import XI, Element, _accumulate, _collect, _raw, contract_to_a, expand_to_x, membership, word_degree


def _neg_h_power(j):
    """(-h)^j as an HPoly."""
    return HPoly((0,) * j + ((-1) ** j,))


def _integer_terms(e, degree):
    """The (word, n) pairs of a correction e = sum of n h^(degree - deg word) word; ValueError unless n is an integer."""
    out = []
    for w, p in e.terms.items():
        n = p[j := degree - word_degree(w)]
        if not n or n.denominator != 1 or p.coeffs != (0,) * j + (n,):
            raise ValueError("correction term (%s) %s is not an integer times h^%d" % (p, w, j))
        out.append((w, int(n)))
    return out


def _bilinear(e1, e2, correction, cache):
    """Bilinear extension of the quasi-shuffle word product to two elements, with HPoly coefficients."""
    out = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            c, top = (c1 * c2).coeffs, word_degree(w1) + word_degree(w2)
            for w, n in _quasi_shuffle_words(w1, w2, correction, cache).items():
                acc, j = out.setdefault(w, {}), top - word_degree(w)
                for i, x in enumerate(c):
                    acc[i + j] = acc.get(i + j, 0) + n * x
    return Element({w: HPoly([acc.get(i, 0) for i in range(max(acc) + 1)]) for w, acc in out.items()})


def _quasi_shuffle_words(w1, w2, correction, cache):
    """uw * vw' = u(w * vw') + v(uw * w') + correction(u, v)(w * w'), memoised in cache.

    The product is homogeneous: {word: n} stands for the sum of n h^(deg w1 + deg w2 - deg word)
    word, as in _integer_terms. Tuple A-words and str x/y/r words alike; a cache serves one correction.
    """
    if not w1 or not w2:
        return {w1 + w2: 1}
    key = (w1, w2) if w1 <= w2 else (w2, w1)
    got = cache.get(key)
    if got is None:
        u, v, t1, t2 = w1[:1], w2[:1], w1[1:], w2[1:]
        terms = _integer_terms(correction(w1[0], w2[0]), word_degree(u) + word_degree(v))
        tail = _quasi_shuffle_words(t1, t2, correction, cache)
        got = cache[key] = _collect(chain(
            ((u + w, n) for w, n in _quasi_shuffle_words(t1, w2, correction, cache).items()),
            ((v + w, n) for w, n in _quasi_shuffle_words(w1, t2, correction, cache).items()),
            ((c + w, m * n) for c, m in terms for w, n in tail.items()),
        ))
    return got


def circle(a, b):
    """The commutative product on the span of single letters.

    z_k o z_l = z_{k+l} + h z_{k+l-1}; xi o z_k = z_{k+1}; xi o xi = z_2 - h xi.
    """
    if a == XI and b == XI:
        return Element((((2,), ONE), ((XI,), -H)))
    if a == XI:
        return Element.from_word((b + 1,))
    if b == XI:
        return Element.from_word((a + 1,))
    s = a + b
    return Element((((s,), ONE), ((s - 1,), H)))


def harmonic(e1, e2, cache=None):
    """The quasi-shuffle product on A-elements with correction circle, bilinear with unit 1."""
    return _bilinear(e1, e2, circle, {} if cache is None else cache)


# Correction table for the shuffle recursion; symmetric by construction.
ALPHA_TABLE = {
    ("x", "x"): Element((("x", H),)),
    ("x", "y"): Element(),
    ("y", "x"): Element(),
    ("y", "y"): Element((("yr", HPoly(-1)),)),
    ("x", "r"): Element((("xr", HPoly(-1)),)),
    ("r", "x"): Element((("xr", HPoly(-1)),)),
    ("y", "r"): Element((("yr", HPoly(-1)),)),
    ("r", "y"): Element((("yr", HPoly(-1)),)),
    ("r", "r"): Element((("rr", HPoly(-1)),)),
}


def _alpha(u, v):
    return ALPHA_TABLE[u, v]


def shuffle_x(e1, e2, cache=None):
    """The integral shuffle product on x/y/r elements.

    Defined by the letter recursion
    uw sh vw' = u(w sh vw') + v(uw sh w') + alpha(u,v)(w sh w').
    """
    return _bilinear(e1, e2, _alpha, {} if cache is None else cache)


def shuffle(e1, e2, cache=None):
    """The integral shuffle on A-elements: expand, shuffle over x/y/r, contract."""
    return contract_to_a(shuffle_x(expand_to_x(e1), expand_to_x(e2), cache))


def delta0(e):
    """Strip one level off the leading letter: z_2 w -> xi w, z_k w -> z_{k-1} w.

    Defined on elements whose words are constant or start with z_k, k >= 2;
    constants map to 0.
    """
    out = {}
    for word, coeff in e.terms.items():
        if not word:
            continue
        k = word[0]
        if k < 2:
            raise DomainError("delta0 needs z_k-leading words with k >= 2, got %s" % (word,))
        head = (XI,) if k == 2 else (k - 1,)
        _accumulate(out, head + word[1:], coeff)
    return _raw(out)


def delta1(e):
    """The binomial lowering map, defined on z-leading words and constants.

    delta1(z_k w) = (sum_{a=2}^{k} C(k-1,a-1)(-h)^{k-a} z_a + (-h)^{k-1} xi) w
    and delta1(1) = 1.
    """
    out = {}
    for word, coeff in e.terms.items():
        if not word:
            _accumulate(out, (), coeff)
            continue
        k = word[0]
        if k < 1:
            raise DomainError("delta1 needs z_k-leading words, got %s" % (word,))
        tail = word[1:]
        for a in range(2, k + 1):
            c = _neg_h_power(k - a) * comb(k - 1, a - 1)
            _accumulate(out, (a,) + tail, coeff * c)
        _accumulate(out, (XI,) + tail, coeff * _neg_h_power(k - 1))
    return _raw(out)


def i0(e):
    """Raise the leading letter: xi w -> z_2 w, z_k w -> z_{k+1} w (k >= 2)."""
    out = {}
    for word, coeff in e.terms.items():
        if not word or word[0] == 1:
            raise DomainError("i0 needs xi- or z_{k>=2}-leading words, got %s" % (word,))
        head = (2,) if word[0] == XI else (word[0] + 1,)
        _accumulate(out, head + word[1:], coeff)
    return _raw(out)


def i1(e):
    """Section of delta1: i1(1) = 1, i1(xi w) = z_1 w, and

    i1(z_k w) = (sum_{a=1}^{k} C(k-1,a-1) h^{k-a} z_a) w for k >= 2,
    the trailing factor w applied to every summand.
    """
    out = {}
    for word, coeff in e.terms.items():
        if not word:
            _accumulate(out, (), coeff)
            continue
        k = word[0]
        tail = word[1:]
        if k == XI:
            _accumulate(out, (1,) + tail, coeff)
            continue
        if k == 1:
            raise DomainError("i1 is undefined on z_1-leading words: %s" % (word,))
        for a in range(1, k + 1):
            c = h_power(k - a) * comb(k - 1, a - 1)
            _accumulate(out, (a,) + tail, coeff * c)
    return _raw(out)


def e_map(e):
    """The evaluation isomorphism on the admissible span.

    e(1) = 1, e(xi w) = xi w, e(z_k w) = (sum_{a=2}^{k} C(k-2,a-2) h^{k-a} z_a) w.
    """
    return _e_like(e, lambda j: h_power(j))


def e_inv(e):
    """Inverse of e_map; same formula with (-h)^{k-a}."""
    return _e_like(e, _neg_h_power)


def _e_like(e, hpow):
    out = {}
    for word, coeff in e.terms.items():
        if not word or word[0] == XI:
            _accumulate(out, word, coeff)
            continue
        k = word[0]
        if k == 1:
            raise DomainError("map needs admissible words, got %s" % (word,))
        tail = word[1:]
        for a in range(2, k + 1):
            c = hpow(k - a) * comb(k - 2, a - 2)
            if c:
                _accumulate(out, (a,) + tail, coeff * c)
    return _raw(out)


def phi(k):
    """phi_k = sum_{a=2}^{k} (-h)^{k-a} z_a + (-h)^{k-1} xi; phi_1 = xi."""
    if k < 1:
        raise ValueError("phi needs k >= 1")
    return Element([((XI,), _neg_h_power(k - 1))] + [((a,), _neg_h_power(k - a)) for a in range(2, k + 1)])


def star(e1, e2, cache=None):
    """The star product on the admissible span, transported from the shuffle.

    Both inputs must lie in the span of constants and admissible-start
    words. Satisfies e_map(star(a, b)) = shuffle(e_map(a), e_map(b)).
    """
    for e in (e1, e2):
        if not membership(e, "H0hat"):
            raise DomainError("star needs admissible-span inputs")
    return e_inv(shuffle(e_map(e1), e_map(e2), cache))
