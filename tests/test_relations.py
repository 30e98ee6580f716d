"""Relation generators, exact elimination, and the dimension pipeline."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from math import lcm, prod

import pytest

from qmzv.errors import DomainError, NotAdmissible, NotHomogeneous
from qmzv.hpoly import H, ONE, HPoly, h_power
from qmzv.words import XI, Element, a_words_of_degree, word_degree
from qmzv.expr import format_element, parse_element
from qmzv.evaluate import QContext
from qmzv.products import harmonic, phi, shuffle
from qmzv.relations import (
    GradedBasis,
    dims_table,
    element_coordinates,
    enumerate_basis,
    gen_double_shuffle,
    gen_hoffman,
    gen_resummation,
    in_row_space,
    intersect_with_h0,
    relation_basis,
    relation_basis_from_doc,
    relation_basis_to_doc,
    rref,
    verify_numeric,
)
from qmzv import modular, relations
from qmzv.errors import InternalError
from qmzv.relations import _in_span, _int_echelon, _int_rows, _reduced_tails, _to_int_row, _word_ints

from random_elements import property_examples

E = Element.from_word


def _row(el, d):
    """The {A-word: int} row of an integer Element homogeneous of weight d."""
    den, row = _word_ints(el, d)
    assert den == 1, el
    return row


def _element(row, d):
    """The weight-d Element of an {A-word: int} row: each n w read as n h^(d - deg w) w."""
    return Element((w, HPoly((0,) * (d - word_degree(w)) + (n,))) for w, n in row.items())


def _oracle_rref(rows):
    """Straightforward fraction Gauss-Jordan, no integer tricks."""
    mat = [[Fraction(x) for x in r] for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    out = []
    col = 0
    while mat and col < ncols:
        pivot = next((i for i, r in enumerate(mat) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        row = mat.pop(pivot)
        row = [x / row[col] for x in row]
        for r in mat:
            if r[col]:
                factor = r[col]
                for j in range(ncols):
                    r[j] -= factor * row[j]
        for done in out:
            if done[col]:
                factor = done[col]
                for j in range(ncols):
                    done[j] -= factor * row[j]
        out.append(row)
        col += 1
    return tuple(tuple(r) for r in out)


def test_rref_matches_oracle_on_random_matrices():
    rng = random.Random(37)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)]
        # plant a dependent row sometimes
        if nrows >= 2 and rng.random() < 0.5:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % nrows])]
        assert rref(rows) == _oracle_rref(rows)


def test_rref_matches_oracle_on_mixed_denominators_and_zero_rows():
    rng = random.Random(59)
    dens = (1, 2, 3, 7, 12, 2**61 - 1)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 2 * ncols + 2)):
            if rng.random() < 0.2:
                rows.append([Fraction(0)] * ncols)
            else:
                rows.append([rng.choice((Fraction(0), Fraction(rng.randint(-9, 9), rng.choice(dens)))) for _ in range(ncols)])
        assert rref(rows) == _oracle_rref(rows)
        for row in rows:
            ints = [_to_int_row(row).get(j, 0) for j in range(ncols)]
            assert all(type(x) is int for x in ints)
            assert ints == [x * lcm(*(y.denominator for y in row)) for x in row]


def test_rref_basics():
    assert rref([]) == ()
    assert rref([[0, 0]]) == ()
    assert rref([[2, 4]]) == ((Fraction(1), Fraction(2)),)
    with pytest.raises(ValueError):
        rref([[1, 2], [1]])


def test_rref_is_input_order_invariant():
    rng = random.Random(41)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(5)] for _ in range(4)]
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rref(rows) == rref(shuffled)


def _sparse(rows):
    """Dense integer rows as the sparse rows {column: int} that _int_echelon and _in_span take."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _primitive_rref(rows):
    """The oracle's RREF as {pivot column: primitive integer row with a positive pivot entry}."""
    out = {}
    for row in _oracle_rref(rows):
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        out[next(j for j, x in enumerate(ints) if x)] = ints
    return out


def _drawn_rows(rng, nrows, ncols, bits):
    """nrows integer rows of ncols entries below 2^bits, about half of them combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.5:
            # planted dependency on rows already present
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            coeffs = [rng.randint(-(2**bits), 2**bits) for _ in picks]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, picks)) for j in range(ncols)])
        else:
            rows.append([rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(ncols)])
    return rows


def test_int_echelon_equals_insertion_over_all_rows():
    # the tall matrices take the multimodular branch, the 100-bit ones needing
    # many primes; the short ones take _insertion_echelon, which must give the
    # same canonical RREF in any row order
    rng = random.Random(53)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(ncols + 1, 3 * ncols + 2)
        rows = _drawn_rows(rng, nrows, ncols, rng.choice((3, 40, 100)))
        assert _int_echelon(_sparse(rows), ncols) == _primitive_rref(rows)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = _drawn_rows(rng, rng.randint(1, ncols), ncols, rng.choice((3, 40, 100)))
        want = _primitive_rref(rows)
        assert _int_echelon(_sparse(rows), ncols) == want
        assert _int_echelon(_sparse(rng.sample(rows, len(rows))), ncols) == want


def test_int_echelon_falls_back_when_the_prime_loses_rank():
    # rank 1 mod p, rank 2 over Q: for the first two primes of the loop the
    # certificate fails and a further prime gives the answer
    first, second = itertools.islice(modular.primes(), 2)
    for p in (2**31 - 1, first, second):
        assert _int_echelon(_sparse([[1, 0], [1, p], [2, 0]]), 2) == {0: [1, 0], 1: [0, 1]}
        # with a column left over, the primes of the lower rank must not enter the reconstruction
        assert _int_echelon(_sparse([[1, 0, 1], [1, p, 1], [2, 0, 2], [3, 0, 3]]), 3) == {0: [1, 0, 1], 1: [0, 1, 0]}


def test_int_echelon_keeps_the_row_space_when_a_skipped_row_needs_a_later_row():
    # the third row is the first plus the second mod 2^31 - 1 but needs the
    # fourth over Q; the stored rows are the primitive RREF rows in every row order
    p = 2**31 - 1
    rows = [[1, 0, 0, 0], [0, 0, 1, 0], [1, p, 1 + p, p], [0, 1, 1, 1], [0, 0, 0, 0]]
    want = _primitive_rref(rows)
    assert want == {0: [1, 0, 0, 0], 1: [0, 1, 0, 1], 2: [0, 0, 1, 0]}
    for order in itertools.permutations(rows):
        assert _int_echelon(_sparse(order), 4) == want


def test_int_echelon_adds_primes_on_large_entries(monkeypatch):
    # rank 3 with 100-bit entries: the RREF entries are ratios of 3 x 3 minors,
    # so reconstruction needs many primes below 2^23
    rng = random.Random(61)
    basis = [[rng.randint(-(2**100), 2**100) for _ in range(5)] for _ in range(3)]
    combos = [[rng.randint(-3, 3) for _ in basis] for _ in range(4)]
    rows = basis + [[sum(c * r[j] for c, r in zip(cs, basis)) for j in range(5)] for cs in combos]
    used = []
    rref_mod = modular.rref_mod
    monkeypatch.setattr(modular, "rref_mod", lambda a, p: used.append(p) or rref_mod(a, p))
    got = _int_echelon(_sparse(rows), 5)
    assert got == _primitive_rref(rows)
    assert len(used) > 10 and len(set(used)) == len(used)
    assert max(abs(x).bit_length() for row in got.values() for x in row) > 250


def _recording_rref_mod(monkeypatch):
    """Record (prime, row count, pivot columns) of every modular.rref_mod call."""
    calls = []
    rref_mod = modular.rref_mod

    def recorded(a, p):
        got = rref_mod(a, p)
        calls.append((p, len(a), got[0]))
        return got

    monkeypatch.setattr(modular, "rref_mod", recorded)
    return calls


def test_later_primes_reduce_only_the_pivot_rows(monkeypatch):
    rng = random.Random(61)
    basis = [[rng.randint(-(2**100), 2**100) for _ in range(5)] for _ in range(3)]
    combos = ((1, -2, 3), (2, 0, 1), (0, 1, -1), (3, 3, 1))
    rows = basis + [[sum(c * r[j] for c, r in zip(cs, basis)) for j in range(5)] for cs in combos]
    calls = _recording_rref_mod(monkeypatch)
    assert _int_echelon(_sparse(rows), 5) == _primitive_rref(rows)
    sizes = [n for _, n, _ in calls]
    assert sizes[:2] == [7, 3] and sizes.count(3) > 10


def test_a_prime_whose_pivot_rows_lose_a_pivot_reduces_every_row(monkeypatch):
    # mod the second prime q the first prime's pivot rows (the first two) move
    # their second pivot to column 2, and so do all rows: q is skipped
    first, q = itertools.islice(modular.primes(), 2)
    b1, b2 = [1, 0, 3**20], [0, q, 5**15]
    rows = [b1, b2, [x + y for x, y in zip(b1, b2)], [2 * x for x in b1]]
    calls = _recording_rref_mod(monkeypatch)
    assert _int_echelon(_sparse(rows), 3) == _primitive_rref(rows)
    assert calls[:3] == [(first, 4, [0, 1]), (q, 2, [0, 2]), (q, 4, [0, 2])]


def test_after_a_failed_certificate_the_next_prime_reduces_every_row(monkeypatch):
    # rank 1 mod the first prime, rank 2 over Q: the later primes agree on the
    # first prime's pivot row alone until its entries are reconstructed and the
    # certificate fails; the next prime, reducing every row, finds the rank
    first = next(modular.primes())
    r0 = [1, 0] + [3**38 + k for k in range(10)]
    rows = [r0, [1, first] + r0[2:]] + [[k * x for x in r0] for k in range(2, 13)]
    calls = _recording_rref_mod(monkeypatch)
    assert _int_echelon(_sparse(rows), 12) == _primitive_rref(rows)
    sizes = [n for _, n, _ in calls]
    narrow = sizes.index(13, 1) - 1
    assert narrow > 1 and sizes[: narrow + 1] == [13] + [1] * narrow
    assert calls[0][2] == [0] and calls[narrow + 1][2] == [0, 1]


def test_a_failing_certificate_stops_at_the_hadamard_bound(monkeypatch):
    gens = gen_double_shuffle(4) + gen_resummation(4)
    seen = []
    rref_mod = modular.rref_mod
    monkeypatch.setattr(modular, "rref_mod", lambda a, p: seen.append((a, p)) or rref_mod(a, p))
    monkeypatch.setattr(relations, "_in_span", lambda *args: False)
    with pytest.raises(InternalError, match="weight 4: .*past the Hadamard bound"):
        intersect_with_h0(gens, 4)
    # every prime agrees on the pivots here, so all are kept, and the loop
    # stops at the first product of primes above the bound
    used = [p for _, p in seen]
    limit = modular.hadamard_limit(seen[0][0])
    assert prod(used[:-1]) <= limit < prod(used)


def test_in_span_keeps_packed_entries_apart():
    # the span of (1, 0, 0, 0): a difference entry of 2^k next to a -1 must
    # not carry into the next packing slot and cancel it
    span = _reduced_tails({0: [1, 0, 0, 0]}, 4)
    assert _in_span(_sparse([[5, 0, 0, 0], [0, 0, 0, 0], [-(2**100), 0, 0, 0]]), *span)
    for k in (1, 7, 8, 40, 100):
        assert not _in_span(_sparse([[0, 2**k, -1, 0]]), *span)
        assert not _in_span(_sparse([[1, 0, 0, 0], [3, 0, 2**k, -1]]), *span)


def test_int_rows_read_terms_like_word_ints():
    # in_row_space reads its element through _word_ints alone, so the errors
    # are its own, also when the bad term follows a good one
    bad = ("h*z2", "z4 + h*z2", "z5", "z4 + z5", "h^2*z1 z1", "z4 + h^2*z1 z1", "x y", "h^2*x y", "z2 + h^2*z2", "z4 + h^2*z2 + h^3*z2")
    gens = gen_double_shuffle(4)
    for text in bad:
        e = parse_element(text)
        with pytest.raises((NotHomogeneous, DomainError)) as want:
            _word_ints(e, 4)
        with pytest.raises(want.type) as got:
            in_row_space(e, gens, 4)
        assert str(got.value) == str(want.value)
    # Fraction coefficients scale by the lcm of their denominators in _word_ints;
    # _int_rows moves each integer to its word's column and drops empty rows
    for text, d in (("1/2*z3 + 2/3*h*z2 - 5/4*h^3", 3), ("3*h*z2 z1 - 6*h*z3 + h*xi z2 + z4", 4), ("-7/6*xi", 1)):
        e = parse_element(text)
        row, columns = _word_ints(e, d)[1], enumerate_basis(d).columns
        assert _int_rows([row, {}, row], d, columns) == 2 * [{columns[w]: n for w, n in row.items()}]
        assert in_row_space(e, [row], d)


@pytest.mark.parametrize("row", [{(1, 2): 1}, {(4,): 1}, {(3,): 1, (2, 2): -1}, {(2, 1): 1, (XI, 1): 1, "x y": 2}])
def test_rows_off_the_weight_d_basis_raise_domain_error(row):
    # z1 z2 starts with z1, z2 z2 and z4 have degree 4, x y is not an A-word
    word = next(w for w in row if w not in enumerate_basis(3).columns)
    want = "word %s is not in the weight-3 admissible basis" % (word,)
    gens = gen_double_shuffle(3) + [row]
    with pytest.raises(DomainError) as got:
        intersect_with_h0(gens, 3)
    assert str(got.value) == want
    with pytest.raises(DomainError) as got:
        in_row_space(E((3,)), gens, 3)
    assert str(got.value) == want


def _tall_matrix(rng):
    """More rows than columns, small rationals, with planted dependent rows and zero rows."""
    ncols = rng.randint(2, 7)
    rows = []
    for _ in range(rng.randint(ncols + 1, 2 * ncols + 3)):
        kind = rng.random()
        if rows and kind < 0.4:
            (r1, r2), c1, c2 = rng.choices(rows, k=2), rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2)
            rows.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
        elif kind < 0.5:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(ncols)])
    return rows


@property_examples(25)
def test_rref_is_invariant_under_row_permutation(rng):
    rows = _tall_matrix(rng)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert rref(shuffled) == rref(rows) == _oracle_rref(rows)


@property_examples(25)
def test_rref_is_invariant_under_appending_integer_combinations(rng):
    rows = _tall_matrix(rng)
    extra = [[sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0]))] for coeffs in ([rng.randint(-5, 5) for _ in rows] for _ in range(3))]
    assert rref(rows + extra) == rref(rows)


@property_examples(25)
def test_rref_is_idempotent(rng):
    rows = _tall_matrix(rng)
    once = rref(rows)
    assert rref(once) == once


def test_enumerate_basis_small():
    b = enumerate_basis(2)
    assert b.monomials == ((2, ()), (1, (XI,)), (0, (XI, XI)), (0, (XI, 1)), (0, (2,)))
    assert b.h0_flags == (True, False, False, False, True)
    assert len(enumerate_basis(7).monomials) == 610


def test_element_coordinates_homogeneity():
    b = enumerate_basis(2)
    coords = element_coordinates(E((2,)) - E((XI,), H), b)
    assert coords == [0, -1, 0, 0, 1]
    with pytest.raises(NotHomogeneous):
        element_coordinates(E((2,)) + E((3,)), enumerate_basis(3))
    # z1 z2 has weight 3 but starts with z_1, so no basis column holds it
    with pytest.raises(DomainError, match=r"\(1, 2\).*weight-3"):
        in_row_space(E((1, 2)), gen_double_shuffle(3), 3)


def test_double_shuffle_weight_two():
    gens = gen_double_shuffle(2)
    assert len(gens) == 1
    assert gens[0] == _row(parse_element("z2 - h*xi - xi z1 + xi xi"), 2)


def _double_shuffle_reference(d):
    """h^j (w * w' - w sh w') over unordered pairs of single admissible-start words.

    Order: j ascending, then the degree m1 of the first word, then the words;
    zero differences are dropped.
    """
    out = []
    hc, sc = {}, {}
    for j in range(d - 1):
        rem = d - j
        for m1 in range(1, rem // 2 + 1):
            for w1 in a_words_of_degree(m1, admissible_only=True):
                for w2 in a_words_of_degree(rem - m1, admissible_only=True):
                    if 2 * m1 == rem and w2 < w1:
                        continue
                    el = harmonic(E(w1), E(w2), hc) - shuffle(E(w1), E(w2), sc)
                    if el:
                        out.append(el.scale(h_power(j)))
    return out


def test_double_shuffle_order_is_the_same_with_shared_caches():
    # the rows and their order must not depend on what a shared cache already holds
    shared = {}
    for d in range(2, 7):
        got = gen_double_shuffle(d, shared)
        assert got == gen_double_shuffle(d) == [_row(el, d) for el in _double_shuffle_reference(d)]
        got.clear()
        assert gen_double_shuffle(d, shared) == gen_double_shuffle(d)
        _change_rows(gen_double_shuffle(d, shared))
        assert gen_double_shuffle(d, shared) == gen_double_shuffle(d)


def _change_rows(rows):
    """Change every row of a list in place: the first emptied, the others with one entry negated and one word added."""
    for k, row in enumerate(rows):
        w = next(iter(row))
        row[w] = -row[w]
        row[(XI, XI, XI)] = row.get((XI, XI, XI), 0) + 1
        if k == 0:
            row.clear()


def test_double_shuffle_generators_are_homogeneous():
    for d in (2, 3, 4):
        basis = enumerate_basis(d)
        for g in gen_double_shuffle(d):
            # a row is read at weight d, so it is homogeneous when its words are weight-d basis words
            assert g and g.keys() <= basis.columns.keys() and all(type(n) is int and n for n in g.values())
            element_coordinates(_element(g, d), basis)


def test_resummation_weight_two():
    gens = gen_resummation(2)
    # compositions (0,1) and (1,0) give the same generator up to sign;
    # ((0,0),(0,0)) is self-dual and dropped
    assert len(gens) == 2
    assert gens[0] == {w: -n for w, n in gens[1].items()}
    assert gens[1] == _row(parse_element("z2 - h*xi - xi z1 + xi xi"), 2)


def _resummation_reference(d, lifts):
    """h^j (word(c) - word(dual c)) over the non-self-dual compositions c of weight d - j.

    j runs over 0..d-1 with lifts and is 0 without; word(c) is the product of
    phi_(a+1) rho^b over the pairs (a, b) of c, left to right, and the dual
    reverses the pairs and swaps each. Zero differences are dropped.
    """
    rho = E((1,)) - E((XI,))

    def comps(total):
        if total == 0:
            yield ()
        for a in range(total):
            for b in range(total - a):
                for rest in comps(total - a - b - 1):
                    yield ((a, b),) + rest

    def word_of(comp):
        el = Element.unit()
        for a, b in comp:
            el = el * phi(a + 1)
            for _ in range(b):
                el = el * rho
        return el

    out = []
    for j in range(d) if lifts else (0,):
        for comp in comps(d - j):
            dual = tuple((b, a) for a, b in reversed(comp))
            el = word_of(comp) - word_of(dual)
            if dual != comp and el:
                out.append(el.scale(h_power(j)))
    return out


def test_resummation_order_is_the_same_with_shared_caches():
    # one cache for both modes: the unlifted lists must not pick up lifts
    shared = {}
    for d in range(1, 7):
        for lifts in (True, False):
            got = gen_resummation(d, lifts, shared)
            assert got == gen_resummation(d, lifts) == [_row(el, d) for el in _resummation_reference(d, lifts)]
            got.clear()
            assert gen_resummation(d, lifts, shared) == gen_resummation(d, lifts)
            _change_rows(gen_resummation(d, lifts, shared))
            assert gen_resummation(d, lifts, shared) == gen_resummation(d, lifts)


# sha256 of the canonical texts of the generators for d = 2..7 in order, one
# line per generator, computed when they were still built through the Element
# products; the integer rows, read as weight-d Elements, must give the same texts
GENERATOR_DIGESTS = {
    "double shuffle": "77de2d72bf4ea8a634b7805367f461bbd977040e69f75ea5849f00ac5330bf01",
    "resummation with lifts": "44e763741046660b97f886dcd2c187ec0b81a3286d323f9aaab36bcf321b489b",
    "resummation without lifts": "cf645305a9ae02d803a5ca0aeaff7db81961afe360f11ea015fac487ff527ae6",
}


def test_generator_texts_match_the_recorded_digests():
    caches = {}
    families = {
        "double shuffle": lambda d: gen_double_shuffle(d, caches),
        "resummation with lifts": lambda d: gen_resummation(d, True, caches),
        "resummation without lifts": lambda d: gen_resummation(d, False, caches),
    }
    for name, gens in families.items():
        text = "\n".join(format_element(_element(g, d)) for d in range(2, 8) for g in gens(d))
        assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[name], name


@pytest.mark.parametrize("lifts", [True, False])
def test_relation_basis_matches_the_element_product_generators(lifts):
    # relation_basis builds its generators from integer rows; the references
    # build every generator with the public harmonic, shuffle and Element products
    caches = {}
    for d in range(2, 7):
        gens = [_row(el, d) for el in _double_shuffle_reference(d) + _resummation_reference(d, lifts)]
        assert relation_basis(d, lifts, caches) == intersect_with_h0(gens, d, lifts)


def test_int_echelon_eliminates_each_row_once_up_to_sign(monkeypatch):
    rng = random.Random(67)
    rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
    tall = rows + [[-x for x in r] for r in rows] + rows
    shapes = []
    integer_matrix = modular.integer_matrix
    monkeypatch.setattr(modular, "integer_matrix", lambda r, ncols: shapes.append(len(r)) or integer_matrix(r, ncols))
    assert _int_echelon(_sparse(tall), 4) == _primitive_rref(rows)
    assert shapes == [3]


def test_resummation_lift_flag():
    with_lifts = gen_resummation(3)
    without = gen_resummation(3, include_hbar_lifts=False)
    assert len(with_lifts) > len(without)
    lifted = [g for g in with_lifts if g not in without]
    assert lifted and all(all(c[0] == 0 for c in _element(g, 3).terms.values()) for g in lifted)


def test_hoffman_values():
    assert gen_hoffman((2,)) == parse_element("z3 - z2 z1")
    assert gen_hoffman((2, 1)) == parse_element("z3 z1 + z2 z2 - z2 z1 z1")
    assert gen_hoffman((3,)) == parse_element("z4 - z3 z1 - z2 z2")
    with pytest.raises(NotAdmissible):
        gen_hoffman((1, 2))
    with pytest.raises(NotAdmissible, match="nonempty index"):
        gen_hoffman(())


def test_hoffman_lies_in_double_shuffle_span():
    for index in ((2,), (3,), (2, 1)):
        d = sum(index) + 1
        g = gen_hoffman(index)
        assert in_row_space(g, gen_double_shuffle(d), d)
    # negative control: a bare index word is not a relation
    assert not in_row_space(E((2,)), gen_double_shuffle(2), 2)


def test_relation_basis_weight_two_and_three():
    rb2 = relation_basis(2)
    assert rb2.dimension == 0
    assert rb2.index_basis == ((), (2,))
    rb3 = relation_basis(3)
    assert rb3.dimension == 1
    assert rb3.index_basis == ((), (2,), (2, 1), (3,))
    assert rb3.rows == ((Fraction(0), Fraction(0), Fraction(1), Fraction(-1)),)


def test_relation_basis_deterministic_under_generator_order():
    rng = random.Random(43)
    d = 4
    gens = gen_double_shuffle(d) + gen_resummation(d)
    expected = intersect_with_h0(gens, d)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert intersect_with_h0(shuffled, d).rows == expected.rows


def test_dims_table_known_values():
    rows = dims_table(5)
    assert [r.index_count for r in rows] == [1, 3, 7, 15]
    assert [r.dim_n for r in rows] == [0, 1, 3, 8]
    assert [r.implied_bound for r in rows] == [1, 2, 4, 7]
    for r in rows:
        assert r.index_count - r.dim_n == r.implied_bound


def test_verify_numeric_passes_and_fails():
    ctx = QContext(q=Fraction(1, 2), N=150)
    rb = relation_basis(3)
    rep = verify_numeric(rb, ctx)
    assert rep.all_ok and rep.max_abs < 1e-12
    # corrupt one coefficient: the report must flag exactly that row
    bad_rows = ((Fraction(1), Fraction(0), Fraction(1), Fraction(-1)),)
    bad = relation_basis_from_doc(
        {
            "weight": 3,
            "mode": {"hbar_lifts": True},
            "index_basis": ["", "2", "2,1", "3"],
            "relations": [[str(c) for c in bad_rows[0]]],
        }
    )
    rep = verify_numeric(bad, ctx)
    assert not rep.all_ok
    assert [c.row for c in rep.rows if not c.ok] == [0]


def test_serialization_round_trip_is_bit_exact():
    rb = relation_basis(4)
    doc = relation_basis_to_doc(rb)
    blob = json.dumps(doc)
    again = relation_basis_from_doc(json.loads(blob))
    assert again == rb
    assert json.dumps(relation_basis_to_doc(again)) == blob


def test_deserialization_rejects_malformed_documents():
    good = relation_basis_to_doc(relation_basis(3))
    for mutate in (
        lambda d: d.pop("weight"),
        lambda d: d["relations"][0].pop(),
        lambda d: d["relations"][0].__setitem__(0, "x"),
        lambda d: d["index_basis"].__setitem__(1, "a,b"),
        lambda d: d["mode"].__setitem__("hbar_lifts", "false"),
        lambda d: d["mode"].__setitem__("hbar_lifts", 1),
        lambda d: d.__setitem__("weight", 3.9),
        lambda d: d.__setitem__("weight", True),
        lambda d: d.__setitem__("weight", 1),
        lambda d: d.update(weight=7, index_basis=["", "2", "2,1", "5,5"]),
        lambda d: d["index_basis"].__setitem__(3, "2,1"),
        lambda d: d.__setitem__("index_basis", [1, 2]),
        lambda d: d["relations"].__setitem__(0, [True, 0.5] + d["relations"][0][2:]),
        lambda d: d["relations"][0].__setitem__(0, 0.1),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            relation_basis_from_doc(doc)


def test_a_large_stated_weight_is_refused_before_anything_of_its_size():
    # 2 ** (weight - 1) alone took 8 s and 429 MB for a document this short
    doc = {"weight": 1_000_000_000, "mode": {"hbar_lifts": True}, "index_basis": [], "relations": []}
    start = time.perf_counter()
    with pytest.raises(ValueError, match="index basis is not the weight-1000000000 admissible index basis"):
        relation_basis_from_doc(doc)
    assert time.perf_counter() - start < 1


def test_coefficients_in_exponent_notation_are_refused_at_once():
    # Fraction would build 10^3000000 before anything is checked
    doc = relation_basis_to_doc(relation_basis(3))
    doc["relations"][0][1] = "1e3000000"
    with pytest.raises(ValueError, match="malformed relation document: '1e3000000' has an exponent"):
        relation_basis_from_doc(doc)
    # integers, P/Q and plain decimals read as before
    doc["relations"][0][1:3] = ["-0.25", "3/4"]
    assert relation_basis_from_doc(doc).rows[0][1:3] == (Fraction(-1, 4), Fraction(3, 4))


# sha256 of json.dumps(relation_basis_to_doc(...), indent=2) at weights 2..6:
# the documents' bytes depend on the generator lists, their order and the
# elimination, and none of those may change them
GOLDEN_DOCS = {
    True: (
        "1d0c44dd040ad67adcbd5d6837e94d72c554562fe2f801f8f1071b01a7bcdb02",
        "a004ec136ccd748f0f7818f56988b9d7c5ead3ae4df4bb6a163d984d736efbc6",
        "fdf0cf57305c4404b48c1ebb6554d7d89f5ca983361b2c49b9495993e3c00452",
        "bde8f38c63e9b7c1218bd806e7c042c121f699e40a55c7a1e7cc43b1acc2a288",
        "1ea971424577566f7508ccb70b98d83b28b09f6cfb9288ee63c5003baf567e81",
    ),
    False: (
        "1d45b8604200473b890f01782ef6565a3b138ec0dae200ffac3a8d5eff02d20b",
        "3ecc2a4603d2d400e6d66def33e0f7aaa56fffbed291c007a69504fe1f004dc5",
        "b589cae5ce58521b1fb0adf8fd360fed271a7e5fe736b165925a57681319e05c",
        "cea82559c3ae25b68cd77bb1a9392552e2bbb31bff7ff22052c657e757c2de4d",
        "9471328afc5e80f3b41940e27e25192069d250ec972f0d09ea8f2152cb24ba2c",
    ),
}


@pytest.mark.parametrize("lifts", [True, False])
def test_relation_documents_are_byte_identical_to_the_recorded_ones(lifts):
    caches = {}
    for d, digest in zip(range(2, 7), GOLDEN_DOCS[lifts]):
        blob = json.dumps(relation_basis_to_doc(relation_basis(d, lifts, caches)), indent=2)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, d
