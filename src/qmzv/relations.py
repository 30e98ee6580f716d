"""Relation spaces among the normalized series values.

Builds the double-shuffle generators (harmonic minus integral shuffle) and
the resummation-duality generators (phi-rho words minus their duals) as
integer rows {A-word: int}, each word w read at weight d as the monomial
h^(d - deg w) w; intersects their span with the z-word part of the weight-d
component by exact elimination, and reports relation bases over admissible
indices together with the dimension table. Every system is brought to its
canonical RREF: one with more rows than columns multimodularly (the modular
module), the result certified exactly; a smaller one fraction-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm

from .errors import DomainError, InternalError, NotAdmissible, NotHomogeneous
from .words import _RHO_EXPANSION, Element, _collect, a_words_of_degree, index_from_text, index_to_text
from .words import is_admissible_index, is_admissible_start, word_degree, word_in_space, word_to_index
from .products import _HARMONIC, _SHUFFLE, _phi, _quasi_shuffle_words, harmonic  # noqa: F401 (harmonic: a binding callers use)
from .evaluate import _suffix_tables, zbar_q
from .expr import _read_rational


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis of the weight-d admissible span, canonically ordered.

    monomials holds (hbar_power, word) pairs; h0_flags marks the monomials
    whose word is a z-word with leading part >= 2 (or the empty word).
    """

    weight: int
    monomials: tuple
    h0_flags: tuple

    @cached_property
    def columns(self):
        """Map from each word to the position of its monomial, built once per basis."""
        return {w: i for i, (_, w) in enumerate(self.monomials)}


def enumerate_basis(d):
    """All monomials of total weight d: h^d and h^(d-m) * (admissible word)."""
    if d < 0:
        raise ValueError("weight must be >= 0")
    monomials = [(d, ())]
    for m in range(1, d + 1):
        for w in a_words_of_degree(m, admissible_only=True):
            monomials.append((d - m, w))
    flags = tuple(word_in_space(w, "H0") for _, w in monomials)
    return GradedBasis(d, tuple(monomials), flags)


def _h_lifted(family, d, caches, new):
    """A generator family's weight-d rows: new(d), then its weight-(d-1) rows.

    An {A-word: int} row leaves its h powers to the weight it is read at, so that tail is
    every h^j multiple (j >= 1) of the lower weights; each list is kept in caches[family].
    """
    lists = caches.setdefault(family, {})
    got = lists.get(d)
    if got is None:
        got = new(d)
        if d > 1:
            got += _h_lifted(family, d - 1, caches, new)
        lists[d] = got
    return got


def gen_double_shuffle(d, caches=None):
    """Generators w * w' - w sh w' spanning the double-shuffle space, as weight-d rows.

    Enumerates unordered pairs of admissible-start words with degree sum
    d - j for every j >= 0 and lifts by h^j. Each generator is an integer
    row {A-word: int} read at weight d: n w stands for n h^(d - deg w) w, so
    the h^j lift of a row is the row itself. Deterministic order: j
    ascending, then degrees, then words. Each weight's rows are kept in
    caches["double_shuffle"]; the returned rows are fresh copies.
    """
    if d < 2:
        raise ValueError("double shuffle needs weight >= 2")
    caches = {} if caches is None else caches
    return [dict(r) for r in _h_lifted("double_shuffle", d, caches, lambda k: _shuffle_pairs(k, caches))]


def _shuffle_pairs(d, caches):
    """w * w' - w sh w' as rows over unordered pairs of admissible-start words of degree sum d."""
    hc, sc = (caches.setdefault(k, {}) for k in ("harmonic", "shuffle"))
    out = []
    for m1 in range(1, d // 2 + 1):
        words1 = list(a_words_of_degree(m1, admissible_only=True))
        words2 = list(a_words_of_degree(d - m1, admissible_only=True))
        for i1, w1 in enumerate(words1):
            for w2 in words2[i1 if 2 * m1 == d else 0 :]:
                minus = ((w, -n) for w, n in _quasi_shuffle_words(w1, w2, _SHUFFLE, sc).items())
                if row := _collect(chain(_quasi_shuffle_words(w1, w2, _HARMONIC, hc).items(), minus)):
                    out.append(row)
    return out


def gen_resummation(d, include_hbar_lifts=True, caches=None):
    """Duality generators phi_{a? +1} rho^b ... minus the reversed-swapped word, as weight-d rows.

    Every composition with weight sum d contributes the difference of the
    phi-rho word and its dual (reverse the factors, swap each (a, b)); the
    self-dual compositions are dropped since they vanish. Each generator is
    an integer row {A-word: int} read at weight d, as in gen_double_shuffle.
    With lifts on, h^j times the weight-(d-j) generators (the same rows) are
    appended for j >= 1, and each weight's rows are kept in
    caches["resummation"]; the returned rows are fresh copies.
    """
    if d < 1:
        raise ValueError("resummation needs weight >= 1")
    caches = {} if caches is None else caches
    rows = _h_lifted("resummation", d, caches, _dual_differences) if include_hbar_lifts else _dual_differences(d)
    return [dict(r) for r in rows]


def _concat(a, b):
    """The concatenation product of two {word: int} rows."""
    return _collect((u + w, m * n) for u, m in a.items() for w, n in b.items())


def _dual_differences(d):
    """phi-rho word minus its dual for each composition of weight sum d, as rows.

    levels[t] maps each composition ((a_1,b_1),...) with sum(a+b+1) = t to its
    word phi_(a_1+1) rho^b_1 ..., ordered by (a_1, b_1), then by the rest. A
    dual is another composition of total d, so every word is built once.
    """
    rho = dict(_RHO_EXPANSION)  # z_1 - xi
    levels = [{(): {(): 1}}]
    for t in range(1, d + 1):
        level = {}
        for a in range(t):
            block = _phi(a + 1)
            for b in range(t - a):
                for rest, word in levels[t - a - b - 1].items():
                    level[((a, b),) + rest] = _concat(block, word)
                block = _concat(block, rho)
        levels.append(level)
    out = []
    for comp, word in levels[d].items():
        dual = tuple((b, a) for a, b in reversed(comp))
        if dual != comp and (row := _collect(chain(word.items(), ((w, -n) for w, n in levels[d][dual].items())))):
            out.append(row)
    return out


def gen_hoffman(index):
    """Hoffman's identity for a nonempty admissible index, as an element of the z-span.

    The raising side sum_i z_{k_1} ... z_{k_i + 1} ... z_{k_r} minus the
    splitting side sum over i with k_i >= 2 and 0 <= a <= k_i - 2 of
    z_{k_1} ... z_{k_i - a} z_{a+1} ... z_{k_r}; weight |k| + 1, no h part.
    """
    index = tuple(index)
    if not index:
        raise NotAdmissible("Hoffman's identity needs a nonempty index")
    if not is_admissible_index(index):
        raise NotAdmissible("index %s must start with a part >= 2" % (index_to_text(index) or "()",))
    terms = []
    for i, k in enumerate(index):
        terms.append((index[:i] + (k + 1,) + index[i + 1 :], 1))
    for i, k in enumerate(index):
        for a in range(0, k - 1):
            terms.append((index[:i] + (k - a, a + 1) + index[i + 1 :], -1))
    return Element(terms)


def _strip_content(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(row, piv, c):
    """Column c of row cleared with the pivot row piv (piv[c] > 0), fraction-free and made primitive.

    row is scaled by a positive factor, so its entries where piv is zero keep their signs.
    """
    a, b = row[c], piv[c]
    g = gcd(a, b)
    ma, mb = a // g, b // g
    return _strip_content([mb * x - ma * y for x, y in zip(row, piv)])


def _insertion_echelon(int_rows, ncols):
    """Fraction-free Gauss-Jordan elimination of sparse integer rows by insertion.

    Each row is reduced against every stored pivot row; if it is not then
    zero, its pivot column is cleared in every stored row and it is stored
    primitive with a positive pivot entry. The stored rows stay the
    primitive RREF of the rows inserted so far, so the result does not
    depend on the input order (see _int_echelon).
    """
    pivots = {}
    for sparse in int_rows:
        row = [0] * ncols
        for j, x in sparse.items():
            row[j] = x
        for c, piv in pivots.items():
            if row[c]:
                row = _eliminate(row, piv, c)
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        row = _strip_content([-x for x in row] if row[col] < 0 else row)
        for c, piv in pivots.items():
            if piv[col]:
                pivots[c] = _eliminate(piv, row, col)
        pivots[col] = row
    return pivots


def _reduced_tails(pivots, ncols):
    """An RREF {pivot column: primitive row} (as _int_echelon returns) over one common denominator.

    Returns (non, den, tails): reduced row c is 1 at column c, 0 at the other
    pivot columns and tails[c][k] / den at column non[k]; den is the lcm of
    the pivot entries.
    """
    non = [j for j in range(ncols) if j not in pivots]
    den = lcm(*(row[c] for c, row in pivots.items()))
    return non, den, {c: [row[j] * (den // row[c]) for j in non] for c, row in pivots.items()}


def _in_span(rows, non, den, tails):
    """Whether every sparse integer row {column: int} lies in the row space given by _reduced_tails.

    A row v is in that space exactly when it equals the combination of reduced
    rows its pivot entries select: den * v[non] == sum over c of v[c] * tails[c].
    Each side is compared as one integer, its vector packed into slots of
    `width` bits (Kronecker substitution). An entry of the difference is at
    most |v|_1 times the largest of den and the tail entries, which is below
    2^(width - 1), so the packed difference is zero only when every entry is.
    """
    top = max([den] + [abs(x) for tail in tails.values() for x in tail])
    width = (max((sum(map(abs, row.values())) for row in rows), default=0) * top).bit_length() + 1
    packed = {c: sum(x << (width * k) for k, x in enumerate(tail) if x) for c, tail in tails.items()}
    slot = {j: width * k for k, j in enumerate(non)}
    for row in rows:
        acc = 0
        for j, x in row.items():
            acc += (den * x << slot[j]) if j in slot else -x * packed[j]
        if acc:
            return False
    return True


def _int_echelon(int_rows, ncols):
    """The RREF of sparse integer rows {column: int} as {pivot column: dense row}.

    Each row is the primitive integer multiple of a reduced row, so its pivot
    entry is positive and it is zero before its pivot and at every other
    pivot column; the RREF is canonical, whatever the row order. With no
    more rows than columns it is found by _insertion_echelon, which keeps
    small systems free of numpy. With more rows it is found multimodularly
    (see the modular module) from the rows less their repeats up to sign (a
    row and its negation share the key of their sorted entries, signed so
    that the entry at the smallest column is positive):

    1. the RREF mod each prime of modular.primes() in turn. Mod p the rank
       is never higher, and no pivot column earlier, than over Q, and a
       prime that matches both gives the RREF over Q mod p; so the primes
       with the largest rank, then the lexicographically smallest pivot
       columns, are kept. A later prime reduces only the input rows of the
       best prime's pivots (modular.rref_mod), which span every row when
       that prime matches, unless its pivots there differ from the best or
       the certificate before it failed; then it reduces every row;
    2. each kept prime's residues at the non-pivot columns, folded once into
       one running CRT (modular.crt_step), then rational reconstruction;
    3. certify: every row is checked, in exact integers, to lie in the span
       of the reconstructed rows (_in_span).

    A certified result is exact: the row space of int_rows lies in the span
    of the reconstructed rows, whose number, a rank mod p, is at most the
    rank over Q. So the two spaces are equal, and the reconstructed rows,
    zero before their pivots and an identity on the pivot columns, are its
    canonical RREF. A failed reconstruction or certificate adds a prime.
    Primes that miss the rank or the pivots all divide one nonzero minor,
    at most H, the Hadamard bound; so once the product of the kept primes
    that reduced every row exceeds 2 H^2 (modular.hadamard_limit) they
    match. Then a kept prime that reduced only the pivot rows found the
    full rank in them, so they span every row and it matches too, and
    reconstruction is exact. A failure past that bound is a defect and
    raises InternalError.
    """
    if len(int_rows) <= ncols:
        return _insertion_echelon(int_rows, ncols)
    from . import modular

    unique = {}
    for r in int_rows:
        key = sorted(r.items())
        unique[tuple(key if not key or key[0][1] > 0 else ((j, -x) for j, x in key))] = r
    int_rows = list(unique.values())
    a = modular.integer_matrix(int_rows, ncols)
    limit = modular.hadamard_limit(a)
    # rows: the input rows of the best prime's pivots; whole: the product of the kept primes that reduced every row
    best, rows, whole, retry = None, None, 1, True
    for p in modular.primes():
        if not retry:
            cols, residues, _ = modular.rref_mod(a[rows], p)
        if retry or (-len(cols), cols) != best:
            cols, residues, found = modular.rref_mod(a, p)
            retry, key = False, (-len(cols), cols)
            if best is not None and key > best:
                continue
            if key != best:  # a new best: its running CRT (x mod m) at its non-pivot columns starts afresh
                best, rows, whole, x, m = key, found, 1, 0, 1
                non = sorted(set(range(ncols)) - set(cols))
            whole *= p
        x, m = modular.crt_step(x, m, residues[:, non], p)
        pivots = modular.reconstruct(cols, non, x, m, ncols)
        if pivots is not None and _in_span(int_rows, *_reduced_tails(pivots, ncols)):
            return pivots
        if whole > limit:
            raise InternalError("multimodular RREF failed its certificate with a %d-bit modulus past the Hadamard bound" % m.bit_length())
        retry = pivots is not None  # a failed certificate: the next prime reduces every row


def _cleared(fracs):
    """(den, {key: den * x}) for a dict {key: Fraction}, den the lcm of the denominators."""
    den = lcm(1, *(x.denominator for x in fracs.values()))
    return den, {k: x.numerator * (den // x.denominator) for k, x in fracs.items()}


def _to_int_row(frac_row):
    """A Fraction row times the lcm of its denominators, as a sparse integer row {column: int}."""
    return _cleared({j: x for j, x in enumerate(frac_row) if x})[1]


def rref(rows):
    """Reduced row-echelon form of rational rows; returns the basis rows.

    Exact over the rationals, deterministic and canonical: the output does
    not depend on the input row order beyond the row space it spans.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("rows must have equal length")
    return _fraction_rows(_int_echelon([_to_int_row(r) for r in rows], ncols))


def _fraction_rows(pivots):
    """An RREF {pivot column: primitive row} (as _int_echelon returns) as Fraction rows, by pivot column."""
    return tuple(tuple(Fraction(x, row[c]) if x else Fraction(0) for x in row) for c, row in sorted(pivots.items()))


@dataclass(frozen=True)
class RelationBasis:
    """Exact relation rows over the admissible-index coordinates at weight d."""

    weight: int
    hbar_lifts: bool
    index_basis: tuple
    rows: tuple

    @property
    def dimension(self):
        return len(self.rows)


def _word_ints(e, d):
    """(den, {A-word: den * its coefficient of h^(d - deg word)}); NotHomogeneous or DomainError off the basis."""
    coeffs = {}
    for word, coeff in e.terms.items():
        j, cs = d - word_degree(word), coeff.coeffs
        if j < 0 or len(cs) != j + 1 or any(cs[:j]):
            raise NotHomogeneous("term (%s) %s is not of weight %d" % (coeff, word, d))
        if type(word) is not tuple or not is_admissible_start(word):
            raise DomainError("word %s is not in the weight-%d admissible basis" % (word, d))
        coeffs[word] = cs[j]
    return _cleared(coeffs)


def element_coordinates(e, basis):
    """Coordinates of a weight-homogeneous element in a GradedBasis order."""
    den, ints = _word_ints(e, basis.weight)
    cols = {basis.columns[w]: Fraction(n, den) for w, n in ints.items()}
    return [cols.get(i, Fraction(0)) for i in range(len(basis.monomials))]


def _int_rows(rows, d, columns):
    """The nonempty {A-word: int} rows as sparse integer rows {column: int}.

    columns maps each word of the weight-d basis to its column; a word
    outside it raises DomainError.
    """
    out = []
    for row in filter(None, rows):
        try:
            out.append({columns[w]: n for w, n in row.items()})
        except KeyError as exc:
            raise DomainError("word %s is not in the weight-%d admissible basis" % (exc.args[0], d)) from None
    return out


def _h0_columns(basis):
    """The z-word columns of a GradedBasis and their admissible indices, in basis order."""
    cols = [i for i, f in enumerate(basis.h0_flags) if f]
    return cols, tuple(word_to_index(basis.monomials[i][1]) for i in cols)


def intersect_with_h0(rows, d, hbar_lifts=True):
    """Intersection of the span of generator rows with the z-word part at weight d.

    rows are {A-word: int} rows read at weight d (see gen_double_shuffle).
    Orders coordinates with the non-z-part monomials first and brings every
    nonempty row to the RREF with _int_echelon. The RREF rows whose pivot
    lies in the z-word block are zero outside it and exactly span the
    intersection; over the index coordinates they are its RREF, which is
    returned.
    """
    basis = enumerate_basis(d)
    h0_cols, index_basis = _h0_columns(basis)
    order = [i for i, f in enumerate(basis.h0_flags) if not f] + h0_cols
    n_non = len(order) - len(h0_cols)
    int_rows = _int_rows(rows, d, {basis.monomials[i][1]: k for k, i in enumerate(order)})
    try:
        pivots = _int_echelon(int_rows, len(order))
    except InternalError as exc:
        raise InternalError("weight %d: %s" % (d, exc)) from exc
    h0_rows = {c - n_non: row[n_non:] for c, row in pivots.items() if c >= n_non}
    return RelationBasis(d, hbar_lifts, index_basis, _fraction_rows(h0_rows))


def relation_basis(d, include_hbar_lifts=True, caches=None):
    """The full pipeline at weight d: generators, intersection, index rows."""
    gens = gen_double_shuffle(d, caches) + gen_resummation(d, include_hbar_lifts, caches)
    return intersect_with_h0(gens, d, include_hbar_lifts)


def in_row_space(e, rows, d):
    """Exact membership of a weight-d element in the rational span of generator rows.

    rows are {A-word: int} rows read at weight d (see gen_double_shuffle);
    e is an Element, NotHomogeneous or DomainError if it is off the basis.
    """
    columns = enumerate_basis(d).columns
    row = _int_rows([_word_ints(e, d)[1]], d, columns)
    span = _reduced_tails(_int_echelon(_int_rows(rows, d, columns), len(columns)), len(columns))
    return _in_span(row, *span)


@dataclass(frozen=True)
class DimRow:
    """One column of the dimension table."""

    weight: int
    index_count: int
    dim_n: int
    implied_bound: int


def dims_table(max_d, include_hbar_lifts=True, progress=None):
    """Dimension table for weights 2..max_d.

    Per weight: the number of admissible indices of weight <= d, the
    dimension of the relation space over those indices, and the implied
    upper bound (their difference) for the span of the series values.
    """
    if max_d < 2:
        raise ValueError("max weight must be >= 2")
    caches = {}
    out = []
    for d in range(2, max_d + 1):
        if progress is not None:
            progress("weight %d: building generators" % d)
        basis = relation_basis(d, include_hbar_lifts, caches)
        n_idx = len(basis.index_basis) - 1
        out.append(DimRow(d, n_idx, basis.dimension, n_idx - basis.dimension))
        if progress is not None:
            progress("weight %d: dim %d" % (d, basis.dimension))
    return out


def relation_basis_to_doc(basis):
    """Serialize to the interchange document (all rationals as strings)."""
    return {
        "weight": basis.weight,
        "mode": {"hbar_lifts": basis.hbar_lifts},
        "index_basis": [index_to_text(ix) for ix in basis.index_basis],
        "relations": [[str(c) for c in row] for row in basis.rows],
    }


def _text(value):
    """A JSON string of a relation document as it is; TypeError for any other JSON value."""
    if type(value) is not str:
        raise TypeError("expected a string, not %r" % (value,))
    return value


def relation_basis_from_doc(doc):
    """Inverse of relation_basis_to_doc; validates shape and exact values.

    The weight must be a JSON integer >= 2, every index text and coefficient
    a JSON string, and the index basis the one that intersect_with_h0
    produces at that weight.
    """
    try:
        weight = doc["weight"]
        if type(weight) is not int or weight < 2:
            raise ValueError("weight must be an integer >= 2, not %r" % (weight,))
        lifts = doc["mode"]["hbar_lifts"]
        if type(lifts) is not bool:
            raise TypeError("hbar_lifts must be true or false, not %r" % (lifts,))
        index_basis = tuple(index_from_text(_text(t)) for t in doc["index_basis"])
        rows = tuple(tuple(_read_rational(_text(c)) for c in row) for row in doc["relations"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed relation document: %s" % exc) from exc
    # the weight-d index basis has 2^(d-1) entries, d bits; checking the bit
    # length first keeps a large stated weight from building 2^d or its basis
    if len(index_basis).bit_length() != weight or len(index_basis) != 2 ** (weight - 1) or index_basis != _h0_columns(enumerate_basis(weight))[1]:
        raise ValueError("index basis is not the weight-%d admissible index basis" % weight)
    for row in rows:
        if len(row) != len(index_basis):
            raise ValueError("relation row length %d != index count %d" % (len(row), len(index_basis)))
    return RelationBasis(weight, lifts, index_basis, rows)


@dataclass(frozen=True)
class RowCheck:
    row: int
    value: float
    allowed: float
    ok: bool


@dataclass(frozen=True)
class VerifyReport:
    weight: int
    max_abs: float
    all_ok: bool
    rows: tuple


def verify_numeric(basis, ctx, tables=None):
    """Evaluate every relation row against the normalized series values.

    Each row must vanish within the context tolerance plus the combined,
    weight-normalized tail bounds of the indices it touches. The indices
    share one suffix memo, tables if given (see evaluate.z_q).
    """
    tables = _suffix_tables(ctx, tables)
    results = {ix: zbar_q(Element.from_word(ix), ctx, tables) for ix in basis.index_basis}
    checks = []
    max_abs = 0.0
    for rno, row in enumerate(basis.rows):
        val = 0
        allowed = ctx.tol
        for c, ix in zip(row, basis.index_basis):
            if c:
                val += float(c) * results[ix].value
                allowed += abs(float(c)) * results[ix].tail_bound
        dev = abs(val)
        max_abs = max(max_abs, dev)
        checks.append(RowCheck(rno, dev, allowed, dev <= allowed))
    return VerifyReport(basis.weight, max_abs, all(c.ok for c in checks), tuple(checks))
