"""The multimodular kernel against plain references: Gauss-Jordan mod p and sparse filling."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from qmzv import modular


def _gauss_jordan(rows, ncols, p):
    """(pivot columns, RREF rows) of integer rows mod p in plain ints, one column at a time, no blocks."""
    rest = [[x % p for x in row] for row in rows]
    cols, done = [], []
    for c in range(ncols):
        k = next((i for i, row in enumerate(rest) if row[c]), None)
        if k is None:
            continue
        inv = pow(rest[k][c], -1, p)
        piv = [x * inv % p for x in rest.pop(k)]
        rest = [[(x - row[c] * y) % p for x, y in zip(row, piv)] if row[c] else row for row in rest]
        done = [[(x - row[c] * y) % p for x, y in zip(row, piv)] if row[c] else row for row in done] + [piv]
        cols.append(c)
    return cols, done


def _planted(rng, nrows, ncols, rank, bits):
    """nrows x ncols integer rows of rank at most `rank` over Q, with about one column in eight zero."""
    left = np.array([[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)], dtype=np.int64).reshape(nrows, rank)
    right = np.array([[rng.choice((0, rng.randint(-(2**bits), 2**bits))) for _ in range(ncols)] for _ in range(rank)], dtype=np.int64)
    product = left @ right.reshape(rank, ncols)  # below 3 * 129 * 2^40, exact in int64
    product[:, rng.sample(range(ncols), ncols // 8)] = 0
    return product.tolist()


def _assert_matches_reference(rows, ncols, p):
    a = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    cols, residues, inputs = modular.rref_mod(a, p)
    want_cols, want_rows = _gauss_jordan(rows, ncols, p)
    assert cols == want_cols
    assert residues.shape == (len(want_cols), ncols)
    assert np.all(np.abs(residues) <= p // 2 + 1)
    assert (residues.astype(np.int64) % p).tolist() == want_rows
    # one input row per pivot, and those rows alone have the same RREF mod p
    assert len(set(inputs)) == len(cols)
    assert _gauss_jordan(a[inputs].tolist(), ncols, p) == (want_cols, want_rows)


def test_rref_mod_equals_unblocked_gauss_jordan():
    # widths on both sides of a sub-block (16) and of a panel (128); tall and
    # wide shapes, full and deficient rank, small and 40-bit entries
    rng = random.Random(71)
    primes = (7, 101, *itertools.islice(modular.primes(), 2))
    for i, (ncols, p) in enumerate(itertools.product((15, 16, 17, 127, 128, 129), primes)):
        nrows = (ncols + 3, ncols // 2 + 1)[i % 2]
        rank = (ncols, ncols // 3, ncols - 2)[i % 3]
        _assert_matches_reference(_planted(rng, nrows, ncols, rank, (3, 40)[i // 2 % 2]), ncols, p)
    # a panel with no pivot (columns 128..255 zero) between two panels with pivots
    rows = _planted(rng, 140, 300, 135, 3)
    for row in rows:
        row[128:256] = [0] * 128
    for p in (7, primes[2]):
        _assert_matches_reference(rows, 300, p)
    # full rank with every entry +-(p - 1)/2, the largest residues, for the largest prime
    p = primes[2]
    rows = [[rng.choice((1, -1)) * (p - 1) // 2 for _ in range(129)] for _ in range(131)]
    assert len(_gauss_jordan(rows, 129, p)[0]) == 129
    _assert_matches_reference(rows, 129, p)


def test_lower_inverse_is_the_inverse_mod_p():
    rng = random.Random(5)
    for p, n in itertools.product((7, next(modular.primes())), (1, 2, 3, 16, 17, 128)):
        half = p // 2
        l = np.tril([[rng.randint(-half, half) for _ in range(n)] for _ in range(n)]).astype(np.float64)
        np.fill_diagonal(l, [rng.choice((-1, 1)) * rng.randint(2, half) for _ in range(n)])  # nonzero, not 1
        inverse = modular._lower_inverse(l.copy(), p)
        assert np.all(np.abs(inverse) <= half + 1) and not np.triu(inverse, 1).any()
        assert ((l.astype(np.int64) @ inverse.astype(np.int64)) % p).tolist() == np.eye(n, dtype=np.int64).tolist()


def test_rref_mod_on_degenerate_shapes():
    for p in (7, 101, next(modular.primes())):
        _assert_matches_reference([[0] * 4] * 5, 4, p)
        _assert_matches_reference([[0], [0], [3 * p], [2], [5]], 1, p)
        _assert_matches_reference([[0], [p]], 1, p)
        _assert_matches_reference([[0] * 17, [0] * 16 + [1], [0] * 17], 17, p)


def test_integer_matrix_fills_sparse_rows():
    a = modular.integer_matrix([{0: 3, 2: -1}, {}, {1: 2**62}], 3)
    assert a.dtype == np.int64
    assert a.tolist() == [[3, 0, -1], [0, 0, 0], [0, 2**62, 0]]
    big = modular.integer_matrix([{1: -(2**100)}, {2: 1}], 3)
    assert big.dtype == object
    assert big.tolist() == [[0, -(2**100), 0], [0, 0, 1]]
    assert modular.integer_matrix([], 2).shape == (0, 2)


def test_crt_step_and_reconstruct_read_a_rational_rref():
    # negative entries; row 0's lcm grows 3 -> 6 at column 4 and already clears
    # the 1/2 after it, row 1's grows 13 -> 39 at its last column; the 31-bit
    # numerators need a modulus above 2^63, three primes below 2^23. Below
    # that some entry of these rows has no fraction within the bound (a small
    # modulus may also give a wrong one, which the certificate rejects)
    cols, non = [0, 2], [1, 3, 4, 5]
    rref = [
        [1, -2, 0, Fraction(-(5**13), 3), Fraction(-7, 6), Fraction(-1, 2)],
        [0, 0, 1, -4, Fraction(9, 13), Fraction(-(2**31 + 5), 39)],
    ]
    want = {0: [6, -12, 0, -2 * 5**13, -7, -3], 2: [0, 0, 39, -156, 27, -(2**31 + 5)]}
    x, m = 0, 1
    for k, p in enumerate(itertools.islice(modular.primes(), 4), 1):
        residues = np.array([[Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in row] for row in rref])
        residues = np.where(residues > p // 2, residues - p, residues).astype(np.float64)  # balanced, as rref_mod gives them
        before, m_before = x, m
        x, m = modular.crt_step(x, m, residues[:, non], p)
        # x keeps its residues mod the earlier primes and takes those mod p
        assert m == m_before * p and x.shape == (2, 4) and ((0 <= x) & (x < m)).all()
        assert ((x - before) % m_before == 0).all() and (x % p == residues[:, non].astype(np.int64) % p).all()
        assert modular.reconstruct(cols, non, x, m, 6) == (None if k < 3 else want)
