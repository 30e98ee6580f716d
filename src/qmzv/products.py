"""The three products (harmonic, integral shuffle, star) and the maps
delta0, delta1, i0, i1, e, e_inv, phi_k that tie them together.

Conventions: the harmonic and star products act on A-basis elements, the
integral shuffle on x/y/r elements with an A-basis wrapper that expands,
shuffles and contracts. The recursive products accept an optional cache
dict keyed by word pairs; passing one across calls is safe because all
results are immutable and input-determined.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .hpoly import H, HPoly, ONE, h_power
from .words import (
    XI,
    Element,
    _accumulate,
    _raw,
    contract_to_a,
    decompose_h0hat,
    expand_to_x,
    membership,
    xi_rho_times,
)


def _neg_h_power(j):
    """(-h)^j as an HPoly."""
    return HPoly((0,) * j + ((-1) ** j,))


def _prefix_letter(u, e):
    return _raw({(u,) + w: c for w, c in e.terms.items()})


def _prefix_x(u, e):
    return _raw({u + w: c for w, c in e.terms.items()})


def _add_scaled(out, e, c):
    """Accumulate c * e into the term dict out; skips the multiplies when c is 1."""
    if c == ONE:
        for w, p in e.terms.items():
            _accumulate(out, w, p)
    else:
        for w, p in e.terms.items():
            _accumulate(out, w, p * c)


def _bilinear(e1, e2, word_product, cache):
    """Bilinear extension of a memoised word-pair product to two elements."""
    out = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            _add_scaled(out, word_product(w1, w2, cache), c1 * c2)
    return _raw(out)


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
    """The quasi-shuffle product on A-elements, bilinear with unit 1."""
    return _bilinear(e1, e2, _harmonic_words, {} if cache is None else cache)


def _harmonic_words(w1, w2, cache):
    if not w1:
        return Element.from_word(w2)
    if not w2:
        return Element.from_word(w1)
    key = (w1, w2) if w1 <= w2 else (w2, w1)
    got = cache.get(key)
    if got is not None:
        return got
    u1, t1 = w1[0], w1[1:]
    u2, t2 = w2[0], w2[1:]
    res = (
        _prefix_letter(u1, _harmonic_words(t1, w2, cache))
        + _prefix_letter(u2, _harmonic_words(w1, t2, cache))
        + circle(u1, u2) * _harmonic_words(t1, t2, cache)
    )
    cache[key] = res
    return res


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


def shuffle_x(e1, e2, cache=None):
    """The integral shuffle product on x/y/r elements.

    Defined by the letter recursion
    uw sh vw' = u(w sh vw') + v(uw sh w') + alpha(u,v)(w sh w').
    """
    return _bilinear(e1, e2, _shuffle_words, {} if cache is None else cache)


def _shuffle_words(w1, w2, cache):
    if not w1:
        return Element.from_word(w2)
    if not w2:
        return Element.from_word(w1)
    key = (w1, w2) if w1 <= w2 else (w2, w1)
    got = cache.get(key)
    if got is not None:
        return got
    u1, t1 = w1[0], w1[1:]
    u2, t2 = w2[0], w2[1:]
    res = (
        _prefix_x(u1, _shuffle_words(t1, w2, cache))
        + _prefix_x(u2, _shuffle_words(w1, t2, cache))
        + ALPHA_TABLE[(u1, u2)] * _shuffle_words(t1, t2, cache)
    )
    cache[key] = res
    return res


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
    if cache is None:
        cache = {}
    return _star_elem(e1, e2, cache)


def _star_elem(e1, e2, cache):
    return _bilinear(e1, e2, _star_words, cache)


def _star_words(w1, w2, cache):
    if not w1:
        return Element.from_word(w2)
    if not w2:
        return Element.from_word(w1)
    key = (w1, w2) if w1 <= w2 else (w2, w1)
    got = cache.get(key)
    if got is not None:
        return got
    total = {}
    for kind1, payload1, c1 in _star_pieces_of(w1):
        for kind2, payload2, c2 in _star_pieces_of(w2):
            _add_scaled(total, _star_pieces(kind1, payload1, kind2, payload2, cache), c1 * c2)
    res = _raw(total)
    cache[key] = res
    return res


def _star_pieces_of(word):
    """Decompose a single admissible word into direct summands.

    Yields ("h2", word, coeff) for the z-leading part and ("xr", (r, tail),
    coeff) for the xi r^r tail components.
    """
    part2, buckets = decompose_h0hat(Element.from_word(word))
    pieces = [("h2", w, c) for w, c in part2.terms.items()]
    for r, elem in buckets.items():
        pieces.extend(("xr", (r, w), c) for w, c in elem.terms.items())
    return pieces


def _delta0_word(word):
    return ((XI,) if word[0] == 2 else (word[0] - 1,)) + word[1:]


def _star_pieces(kind1, payload1, kind2, payload2, cache):
    if kind1 == "xr" and kind2 == "h2":
        kind1, payload1, kind2, payload2 = kind2, payload2, kind1, payload1
    if kind1 == "h2" and kind2 == "h2":
        v1, v2 = payload1, payload2
        d1, d2 = _delta0_word(v1), _delta0_word(v2)
        inner = (
            _star_words(d1, v2, cache)
            + _star_words(v1, d2, cache)
            - _star_words(d1, d2, cache).scale(H)
        )
        return i0(inner)
    if kind1 == "h2":
        v = payload1
        r, u = payload2
        dv = _delta0_word(v)
        xr_elem = xi_rho_times(r, Element.from_word(u))
        term1 = i0(_star_elem(Element.from_word(dv), xr_elem, cache))
        v_shifted = Element.from_word(v) - Element.from_word(dv).scale(H)
        term2 = xi_rho_times(r, i1(_star_elem(v_shifted, delta1(Element.from_word(u)), cache)))
        return term1 + term2
    r, u = payload1
    s, u2 = payload2
    du = delta1(Element.from_word(u))
    du2 = delta1(Element.from_word(u2))
    t1 = xi_rho_times(r, i1(_star_elem(du, xi_rho_times(s, Element.from_word(u2)), cache)))
    t2 = xi_rho_times(s, i1(_star_elem(xi_rho_times(r, Element.from_word(u)), du2, cache)))
    t3 = xi_rho_times(r + s + 1, i1(_star_elem(du, du2, cache)))
    return t1 + t2 - t3
