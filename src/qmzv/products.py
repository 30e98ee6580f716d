"""The three products (harmonic, integral shuffle, star) and the maps
delta0, delta1, i0, i1, e, e_inv, phi_k that tie them together.

Conventions: harmonic, shuffle and star act on A-basis elements, shuffle_x
is the integral shuffle on x/y/r elements, where it is defined. All of them
run one memoised quasi-shuffle word recursion, given a rule: the letter
correction (circle for harmonic, ALPHA_TABLE for the shuffles), how a word
splits off its first letter, and how a letter is written back in front.
Harmonic and shuffle_x split off the word's own first letter. Shuffle
splits an A-word into x/y/r letters (xi = y - r, z_k = x^(k-1) y) and
contracts each prefix at once (r = z_1 - xi), so it equals
contract_to_a(shuffle_x(expand_to_x(a), expand_to_x(b))) without leaving
the A-basis. Star is the shuffle transported through e,
star(a, b) = e_inv(e(a) sh e(b)). The products accept an optional cache
dict, one per product, keyed by word pairs: A-word pairs for harmonic,
shuffle and star, x/y/r word pairs for shuffle_x. Passing one across calls
of the same product is safe because its entries are input-determined and
never changed once stored.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .hpoly import H, HPoly, ONE, h_power
from .words import _RHO_EXPANSION, XI, Element, _accumulate, _collect, _raw, membership, word_degree


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


def _bilinear(e1, e2, rule, cache):
    """Bilinear extension of the quasi-shuffle word product to two elements, with HPoly coefficients."""
    out = {}
    for w1, c1 in e1.terms.items():
        for w2, c2 in e2.terms.items():
            c, top = (c1 * c2).coeffs, word_degree(w1) + word_degree(w2)
            for w, n in _quasi_shuffle_words(w1, w2, rule, cache).items():
                acc, j = out.setdefault(w, {}), top - word_degree(w)
                for i, x in enumerate(c):
                    acc[i + j] = acc.get(i + j, 0) + n * x
    return Element({w: HPoly([acc.get(i, 0) for i in range(max(acc) + 1)]) for w, acc in out.items()})


def _quasi_shuffle_words(w1, w2, rule, cache):
    """uw * vw' = u(w * vw') + v(uw * w') + correction(u, v)(w * w'), memoised in cache.

    rule = (correction, split, prefix): split(w) gives the (u, rest, sign) with
    w = sum of sign u rest, and prefix(c, m, terms) is m c t for the terms t.
    The product is homogeneous: {word: n} stands for the sum of n h^(deg w1 + deg w2 - deg word)
    word, as in _integer_terms. Tuple A-words and str x/y/r words alike; a cache serves one rule.
    """
    if not w1 or not w2:
        return {w1 + w2: 1}
    key = (w1, w2) if w1 <= w2 else (w2, w1)
    got = cache.get(key)
    if got is None:
        correction, split, prefix = rule
        s1, s2 = split(w1), split(w2)
        terms = []
        for u, t1, s in s1:
            terms += prefix(u, s, _quasi_shuffle_words(t1, w2, rule, cache))
        for v, t2, t in s2:
            terms += prefix(v, t, _quasi_shuffle_words(w1, t2, rule, cache))
        for u, t1, s in s1:
            for v, t2, t in s2:
                for c, m in _integer_terms(correction(u[0], v[0]), word_degree(u) + word_degree(v)):
                    terms += prefix(c, s * t * m, _quasi_shuffle_words(t1, t2, rule, cache))
        got = cache[key] = _collect(terms)
    return got


def _first_letter(w):
    """The split of a word into its own first letter and the rest."""
    return ((w[:1], w[1:], 1),)


def _concatenated(c, m, terms):
    """m c t for each term t of {word: n}, by concatenation."""
    return [(c + w, m * n) for w, n in terms.items()]


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
            out = [(v + w, s * n) for w, n in out for v, s in _RHO_EXPANSION]
        else:
            out = [((w[0] + 1 if w[0] else 2,) + w[1:], n) for w, n in out if w]
    return out


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
    return _bilinear(e1, e2, _HARMONIC, {} if cache is None else cache)


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


_HARMONIC = (circle, _first_letter, _concatenated)
_SHUFFLE_X = (_alpha, _first_letter, _concatenated)
_SHUFFLE = (_alpha, _xyr_split, _contracted)


def shuffle_x(e1, e2, cache=None):
    """The integral shuffle product on x/y/r elements.

    Defined by the letter recursion
    uw sh vw' = u(w sh vw') + v(uw sh w') + alpha(u,v)(w sh w').
    """
    return _bilinear(e1, e2, _SHUFFLE_X, {} if cache is None else cache)


def shuffle(e1, e2, cache=None):
    """The integral shuffle on A-elements, contract_to_a(shuffle_x(expand_to_x(e1), expand_to_x(e2))).

    Runs the shuffle_x recursion on A-words: each word splits into its first
    x/y/r letter, and each prefix is contracted at once (_contracted). cache
    holds A-word pairs.
    """
    return _bilinear(e1, e2, _SHUFFLE, {} if cache is None else cache)


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
    words. Satisfies e_map(star(a, b)) = shuffle(e_map(a), e_map(b)); cache
    is the shuffle's, of A-word pairs.
    """
    for e in (e1, e2):
        if not membership(e, "H0hat"):
            raise DomainError("star needs admissible-span inputs")
    return e_inv(shuffle(e_map(e1), e_map(e2), cache))
