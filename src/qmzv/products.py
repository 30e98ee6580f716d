"""The three products (harmonic, integral shuffle, star) and the maps
delta0, delta1, i0, i1, e, e_inv, phi_k that tie them together.

Conventions: harmonic, shuffle and star act on A-basis elements, shuffle_x
is the integral shuffle on x/y/r elements, where it is defined. All of them
run one memoised quasi-shuffle word recursion, given a rule: the letter
correction as an integer word dict (_circle for harmonic, _ALPHA for the
shuffles), how a word splits off its first letter, and how a letter is
written back in front. Harmonic and shuffle_x split off the word's own first
letter. Shuffle splits an A-word into x/y/r letters and contracts each
prefix at once, by the encoding words.py states (_xyr_split, _contracted),
so it equals contract_to_a(shuffle_x(expand_to_x(a), expand_to_x(b)))
without leaving the A-basis. Star is the shuffle transported through e,
star(a, b) = e_inv(e(a) sh e(b)). The products accept an optional cache
dict, one per product, keyed by word pairs: A-word pairs for harmonic,
shuffle and star, x/y/r word pairs for shuffle_x. Passing one across calls
of the same product is safe because its entries are input-determined and
never changed once stored. The maps delta0, delta1, i0, i1, e and e_inv
rewrite only the first letter of a word: each is one _leading_map call.
"""

from __future__ import annotations

from math import comb

from .errors import DomainError
from .expr import format_word, letter_name
from .hpoly import HPoly, ONE, h_power
from .words import MAX_PART, XI, Element, _accumulate, _collect, _contracted, _raw, _xyr_split, membership, word_degree


def _neg_h_power(j):
    """(-h)^j as an HPoly."""
    return HPoly((0,) * j + ((-1) ** j,))


def _lifted(ints, top):
    """The Element sum of n h^(top - deg word) word over an integer word dict {word: n}."""
    return Element((w, h_power(top - word_degree(w)) * n) for w, n in ints.items())


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

    The product is homogeneous: {word: n} stands for the sum of n h^(deg w1 + deg w2 - deg word) word.
    rule = (correction, split, prefix): correction(u, v) is such a dict at degree deg u + deg v, split(w)
    gives the (u, rest, sign) with w = sum of sign u rest, and prefix(c, m, terms) is m c t for the terms
    t. Tuple A-words and str x/y/r words alike; a cache serves one rule.
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
                for c, m in correction(u[0], v[0]).items():
                    terms += prefix(c, s * t * m, _quasi_shuffle_words(t1, t2, rule, cache))
        got = cache[key] = _collect(terms)
    return got


def _first_letter(w):
    """The split of a word into its own first letter and the rest."""
    return ((w[:1], w[1:], 1),)


def _concatenated(c, m, terms):
    """m c t for each term t of {word: n}, by concatenation."""
    return [(c + w, m * n) for w, n in terms.items()]


def _circle(a, b):
    """circle(a, b) as an integer word dict read at degree deg a + deg b."""
    if a == XI and b == XI:
        return {(2,): 1, (XI,): -1}
    if a == XI or b == XI:
        return {((b if a == XI else a) + 1,): 1}
    return {(a + b,): 1, (a + b - 1,): 1}


def circle(a, b):
    """The commutative product on the span of single letters.

    z_k o z_l = z_{k+l} + h z_{k+l-1}; xi o z_k = z_{k+1}; xi o xi = z_2 - h xi.
    """
    return _lifted(_circle(a, b), word_degree((a, b)))


def harmonic(e1, e2, cache=None):
    """The quasi-shuffle product on A-elements with correction circle, bilinear with unit 1."""
    return _bilinear(e1, e2, _HARMONIC, {} if cache is None else cache)


# Correction table for the shuffle recursion, read at degree 2; symmetric by construction.
_ALPHA = {
    ("x", "x"): {"x": 1},
    ("x", "y"): {},
    ("y", "x"): {},
    ("y", "y"): {"yr": -1},
    ("x", "r"): {"xr": -1},
    ("r", "x"): {"xr": -1},
    ("y", "r"): {"yr": -1},
    ("r", "y"): {"yr": -1},
    ("r", "r"): {"rr": -1},
}
ALPHA_TABLE = {uv: _lifted(ints, 2) for uv, ints in _ALPHA.items()}


def _alpha(u, v):
    return _ALPHA[u, v]


_HARMONIC = (_circle, _first_letter, _concatenated)
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


def _leading_map(e, name, image):
    """Sum of coeff c head tail over the terms coeff letter tail of e and the (head, HPoly c) pairs in image(letter).

    image(None) is the empty word's image; None means off the domain of the map called name, where
    every x/y/r word lies too.
    """
    out = {}
    for word, coeff in e.terms.items():
        pairs = image(word[0] if word else None) if type(word) is tuple else None
        if pairs is None:
            cause = "x/y/r words" if type(word) is str else ("words led by " + letter_name(word[0])) if word else "the empty word"
            raise DomainError("%s is undefined on %s, got %r" % (name, cause, format_word(word)))
        tail = word[1:]
        for head, c in pairs:
            _accumulate(out, head + tail, coeff if c is ONE else coeff * c)
    return _raw(out)


def _z_sum(k, a0, s, hpow):
    """The (z_a, C(k-s, a-s) hpow(k-a)) pairs for a = a0..k."""
    return [((a,), hpow(k - a) * comb(k - s, a - s)) for a in range(a0, k + 1)]


_UNIT = (((), ONE),)


def delta0(e):
    """Strip one level off the leading letter: z_2 w -> xi w, z_k w -> z_{k-1} w.

    Defined on elements whose words are constant or start with z_k, k >= 2;
    constants map to 0.
    """
    return _leading_map(
        e,
        "delta0",
        lambda k: () if k is None else None if k < 2 else (((XI,) if k == 2 else (k - 1,), ONE),),
    )


def delta1(e):
    """The binomial lowering map, defined on z-leading words and constants.

    delta1(z_k w) = (sum_{a=2}^{k} C(k-1,a-1)(-h)^{k-a} z_a + (-h)^{k-1} xi) w
    and delta1(1) = 1.
    """
    return _leading_map(
        e,
        "delta1",
        lambda k: _UNIT if k is None else None if k < 1 else _z_sum(k, 2, 1, _neg_h_power) + [((XI,), _neg_h_power(k - 1))],
    )


def i0(e):
    """Raise the leading letter: xi w -> z_2 w, z_k w -> z_{k+1} w (k >= 2)."""
    return _leading_map(
        e,
        "i0",
        lambda k: None if k is None or k == 1 else (((2,) if k == XI else (k + 1,), ONE),),
    )


def i1(e):
    """Section of delta1: i1(1) = 1, i1(xi w) = z_1 w, and

    i1(z_k w) = (sum_{a=1}^{k} C(k-1,a-1) h^{k-a} z_a) w for k >= 2,
    the trailing factor w applied to every summand.
    """
    return _leading_map(
        e,
        "i1",
        lambda k: _UNIT if k is None else (((1,), ONE),) if k == XI else None if k == 1 else _z_sum(k, 1, 1, h_power),
    )


_E_FIXED = {None: _UNIT, XI: (((XI,), ONE),)}  # e and e_inv fix 1 and the xi-leading words


def e_map(e):
    """The evaluation isomorphism on the admissible span.

    e(1) = 1, e(xi w) = xi w, e(z_k w) = (sum_{a=2}^{k} C(k-2,a-2) h^{k-a} z_a) w.
    """
    return _leading_map(e, "e_map", lambda k: None if k == 1 else _E_FIXED.get(k) or _z_sum(k, 2, 2, h_power))


def e_inv(e):
    """Inverse of e_map; same formula with (-h)^{k-a}."""
    return _leading_map(e, "e_inv", lambda k: None if k == 1 else _E_FIXED.get(k) or _z_sum(k, 2, 2, _neg_h_power))


def _phi(k):
    """phi_k as an integer word dict read at degree k, xi first."""
    if k < 1:
        raise ValueError("phi needs k >= 1")
    return {(XI,): (-1) ** (k - 1), **{(a,): (-1) ** (k - a) for a in range(2, k + 1)}}


def phi(k):
    """phi_k = sum_{a=2}^{k} (-h)^{k-a} z_a + (-h)^{k-1} xi; phi_1 = xi."""
    return _lifted(_phi(k), k)


def star(e1, e2, cache=None):
    """The star product on the admissible span, transported from the shuffle.

    Both inputs must lie in the span of constants and admissible-start
    words, with letters up to z_MAX_PART: e_map writes z_k as k - 1 terms
    with coefficients up to h^(k-2), and no shuffle on a letter past it
    finishes. Satisfies e_map(star(a, b)) = shuffle(e_map(a), e_map(b));
    cache is the shuffle's, of A-word pairs.
    """
    for e in (e1, e2):
        if not membership(e, "H0hat"):
            raise DomainError("star needs admissible-span inputs")
        if any(u > MAX_PART for w in e.terms for u in w):
            raise DomainError("star needs letters up to z%d, past which its shuffle cannot finish" % MAX_PART)
    return e_inv(shuffle(e_map(e1), e_map(e2), cache))
