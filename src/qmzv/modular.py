"""Reduced row echelon form modulo primes, and its lift back to the integers.

The multimodular half of relations._int_echelon. Its sparse integer rows
{column: int} are filled into one integer matrix, which is reduced mod
primes just below 2^23 by blocked Gauss-Jordan elimination in float64 with
delayed reduction (Dumas, Giorgi and Pernet 2008, FFLAS-FFPACK): panels of
_PANEL columns, each eliminated once in sub-blocks of _BLOCK columns, so
that rank-1 updates touch one sub-block and matrix products do the rest;
the pivot search records its column operations, and they give the inverse
of the panel's pivot block. Each prime's residues are folded once into a
running CRT (crt_step), and that is read by balanced rational
reconstruction (Wang 1981; Monagan 2004). Nothing here is trusted:
relations._int_echelon certifies the result exactly. This module imports
numpy, so only the elimination of tall systems imports it.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

import numpy as np

# Residues are kept balanced, within p/2 + 1 of zero (see _reduce). For
# p < 2^23 a product of two is below 2^44.01, and a value takes at most
# _PANEL of them before it is reduced again, so it stays below 2^51.01 (plus
# one residue), where float64 is exact and _reduce applies: a product of two
# reduced blocks at most _PANEL wide is one such value, and a sub-block of
# _BLOCK columns adds at most _BLOCK products at once. A pivot column or a
# diagonal is scaled by an inverse below p, one product below 2^46.
_PRIME_BITS = 23
_PANEL = 128
_BLOCK = 16


def primes():
    """The primes below 2^_PRIME_BITS, largest first."""
    n = 2**_PRIME_BITS - 1
    while n > 2:
        if all(n % f for f in range(3, isqrt(n) + 1, 2)):
            yield n
        n -= 2


def integer_matrix(rows, ncols):
    """Sparse integer rows {column: int} as an int64 array, or as an object array if an entry needs more than 64 bits."""
    values = [x for row in rows for x in row.values()]
    try:
        values = np.array(values, dtype=np.int64)
    except OverflowError:
        values = np.array(values, dtype=object)
    a = np.zeros((len(rows), ncols), dtype=values.dtype)
    at = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    a[at, np.fromiter((j for row in rows for j in row), np.intp, len(at))] = values
    return a


def hadamard_limit(a):
    """2 H^2, where H bounds every minor of the integer matrix a.

    H is the product of the min(m, n) largest row norms, each bounded by
    sqrt(nonzero count) * 2^(bit length of the largest entry).
    """
    nonzero = np.count_nonzero(a, axis=1)
    top = np.abs(a).max(axis=1)
    squares = sorted((int(k) << 2 * int(t).bit_length() for k, t in zip(nonzero, top) if k), reverse=True)
    return 2 * prod(squares[: min(a.shape)])


def _reduce(x, p):
    """The balanced residues of x mod p in place, for integer-valued float64 x with |x| < 2^52.

    The float quotient q = rint(x / p) is within 1/2 + 1/p of x / p, so
    x - q p lies within p/2 + 1 of zero, and it is 0 exactly when p divides x.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _lower_inverse(l, p):
    """The inverse mod p of a lower triangular residue matrix l with a nonzero diagonal.

    With D its diagonal, l = D (I - S) for a strictly lower triangular S, so
    S^k = 0 and l^-1 = (I + S)(I + S^2)(I + S^4)... D^-1: about log2 k
    products of k x k blocks, and no loop over the entries.
    """
    d = np.array([pow(int(x), -1, p) for x in np.diag(l)], dtype=np.float64)
    s = np.tril(-_reduce(l * d[:, None], p), -1)
    inverse = np.eye(len(l)) + s
    while (s := _reduce(s @ s, p)).any():
        inverse += inverse @ s
        _reduce(inverse, p)
    return _reduce(inverse * d, p)


def _panel_pivots(panel_t, n, p):
    """(row, column) of each pivot of a transposed residue panel, in column order.

    Gauss-Jordan on the panel's columns in place, by sub-blocks of _BLOCK
    columns; a column is reduced only when it is reached, and its pivot is
    its first nonzero entry among the first n (the entries past n only
    follow the column operations). Inside a sub-block each pivot clears the
    later columns of that sub-block by a rank-1 update. The sub-block's k
    pivots, the first nonzero rows t of its reduced columns P, then clear
    the rest of the panel at once: a later column c takes c - x P, where
    x T = c[t] for T = P[:, t], upper triangular as P_i[t_l] = 0 for l < i.
    """
    found = []
    for b0 in range(0, len(panel_t), _BLOCK):
        block, rest = panel_t[b0 : b0 + _BLOCK], panel_t[b0 + _BLOCK :]
        new = []
        for j in range(len(block)):
            col = _reduce(block[j], p)
            hits = np.flatnonzero(col[:n])
            if hits.size:
                t = hits[0]
                lead = _reduce(_reduce(block[j + 1 :, t].copy(), p) * pow(int(col[t]), -1, p), p)
                block[j + 1 :] -= np.outer(lead, col)
                new.append((t, j))
        found.extend((t, b0 + j) for t, j in new)
        if new and len(rest):
            ts = [t for t, _ in new]
            piv = block[[j for _, j in new]]
            rest -= _reduce(_reduce(rest[:, ts], p) @ _lower_inverse(piv[:, ts].T, p).T, p) @ piv
    return found


def rref_mod(a, p):
    """The RREF of an integer matrix mod p: (pivot columns, their rows as float64 residues, input rows).

    The input rows are the rows of a in which the pivots were found, one per
    pivot; mod p they span the row space of a, so they alone have the same RREF.

    Blocked Gauss-Jordan over panels of _PANEL columns, each eliminated once.
    A panel's pivots are found among the rows that are no pivot yet, by
    _panel_pivots on the transposed panel and an identity that records its
    column operations U. Read at the pivot rows, X U is lower triangular with
    a nonzero diagonal for the panel's pivot block X, so the pivot rows
    reduce to X^-1 = U (X U)^-1 times themselves, and one matrix product
    clears the panel's pivot columns in every other row. Each row stays its
    input row plus a combination of earlier pivot rows.
    """
    a = _reduce((a % p).astype(np.float64), p)
    free = np.arange(a.shape[0])
    rows, cols = [], []
    for j0 in range(0, a.shape[1], _PANEL):
        panel = np.hstack([a[free, j0 : j0 + _PANEL].T, np.eye(min(_PANEL, a.shape[1] - j0))])
        found = _panel_pivots(panel, len(free), p)
        if not found:
            continue
        ts, js = [t for t, _ in found], [j for _, j in found]
        piv = panel[js]
        inverse = _reduce(piv[:, len(free) + np.array(js)].T @ _lower_inverse(piv[:, ts].T, p), p)
        prow, pcol = free[ts], [j0 + j for j in js]
        lead = _reduce(inverse @ a[prow, j0:], p)
        rest = a[:, j0:]
        rest -= a[:, pcol] @ lead
        _reduce(rest, p)
        a[prow, j0:] = lead
        rows.extend(prow)
        cols.extend(pcol)
        free = np.setdiff1d(free, prow, assume_unique=True)
        if not free.size:
            break
    return cols, a[rows], rows


def _rational(u, m, bound):
    """(a, b) with a = b u mod m, |a| <= bound, 0 < b <= bound and gcd(a, b) = 1, or None (Wang 1981)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def crt_step(x, m, residues, p):
    """(y, m p) with y = x mod m and y = residues (float64, as rref_mod gives them) mod p entrywise, 0 <= y < m p; x may be 0 with m = 1."""
    d = (residues.astype(np.int64) - np.asarray(x % p, dtype=np.int64)) % p
    return x + m * (d * pow(m, -1, p) % p).astype(object), m * p  # int64: d and the inverse are below p, their product below 2^46


def reconstruct(cols, non, x, m, ncols):
    """Primitive integer rows {pivot column: row} of an RREF given mod m, or None.

    Row s has its pivot at cols[s] and x[s, k] mod m, as crt_step folds it,
    at column non[k], one of the other columns. Each such x is read as the
    fraction a/b with a = b x mod m and |a|, b <= N = isqrt((m - 1) / 2),
    which is unique since 2 N^2 < m. A row is scaled by the lcm of its
    entries' denominators, so it comes out primitive with that lcm at the
    pivot; while the lcm so far already clears an entry's denominator, a
    single multiplication finds it. None when some entry has no such fraction.
    """
    half, bound = m // 2, isqrt((m - 1) // 2)
    out = {}
    for c, xs in zip(cols, x.tolist()):
        den, nums = 1, []
        for v in xs:
            y = den * v % m
            if y > half:
                y -= m
            if abs(y) > bound:
                frac = _rational(v, m, bound)
                if frac is None:
                    return None
                a, b = frac
                grow = b // gcd(den, b)
                den *= grow
                nums = [u * grow for u in nums]
                y = a * (den // b)
            nums.append(y)
        row = [0] * ncols
        row[c] = den
        for j, u in zip(non, nums):
            row[j] = u
        out[c] = row
    return out
