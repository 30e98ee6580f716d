"""Reduced row echelon form modulo primes, and its lift back to the integers.

The multimodular half of relations._int_echelon. Its sparse integer rows
{column: int} are filled into one integer matrix, which is reduced mod
primes just below 2^23 by blocked Gauss-Jordan elimination in float64 with
delayed reduction (Dumas, Giorgi and Pernet 2008, FFLAS-FFPACK): panels of
_PANEL columns, each factored in sub-blocks of _BLOCK columns, so that
rank-1 updates touch one sub-block and matrix products do the rest. Each
prime's residues are folded once into a running CRT (crt_step), and that is
read by balanced rational reconstruction (Wang 1981; Monagan 2004). Nothing
here is trusted: relations._int_echelon certifies the result exactly. This
module imports numpy, so only the elimination of tall systems imports it.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

import numpy as np

# Residues are kept balanced, within p/2 + 1 of zero (see _reduce). For
# p < 2^23 a product of two is below 2^44.01, and a value takes at most
# _PANEL of them before it is reduced again, so it stays below 2^52, where
# float64 is exact and _reduce applies; a pivot row is scaled by an inverse
# below p, one product below 2^46. A sub-block of _BLOCK columns (or rows)
# adds at most _BLOCK products at once.
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


def _panel_pivots(panel_t, p):
    """(row, column) of each pivot of a transposed residue panel, in column order.

    Gauss-Jordan on the panel in place, by sub-blocks of _BLOCK columns; a
    column is reduced only when it is reached. Inside a sub-block each pivot
    clears the later columns of that sub-block by a rank-1 update. The
    sub-block's k pivots, the first nonzero rows t_1..t_k of its reduced
    columns P_1..P_k, then clear the rest of the panel at once: each later
    column c takes c - sum x_i P_i with x solving sum over i <= l of
    x_i P_i[t_l] = c[t_l], a triangular system, as P_i[t_l] = 0 for l < i.
    Each entry still takes at most one product per earlier pivot column.
    """
    found = []
    for b0 in range(0, len(panel_t), _BLOCK):
        block, rest = panel_t[b0 : b0 + _BLOCK], panel_t[b0 + _BLOCK :]
        new = []
        for j in range(len(block)):
            col = _reduce(block[j], p)
            hits = np.flatnonzero(col)
            if hits.size:
                t = hits[0]
                lead = _reduce(_reduce(block[j + 1 :, t].copy(), p) * pow(int(col[t]), -1, p), p)
                block[j + 1 :] -= np.outer(lead, col)
                new.append((t, j))
        found.extend((t, b0 + j) for t, j in new)
        if new and len(rest):
            ts = [t for t, _ in new]
            piv = block[[j for _, j in new]]
            tri = piv[:, ts]
            x = _reduce(rest[:, ts], p)
            for i in range(len(new)):
                if i:
                    x[:, i] -= x[:, :i] @ tri[:i, i]
                    _reduce(x[:, i], p)
                x[:, i] *= pow(int(tri[i, i]), -1, p)
                _reduce(x[:, i], p)
            rest -= x @ piv
    return found


def _pivot_rows(b, cols, p):
    """Gauss-Jordan of residue rows b in place, the pivot of row s at column cols[s].

    The pivot entries must be units once the rows before them are eliminated.
    Rows are taken in sub-blocks of _BLOCK: a sub-block is reduced among its
    own rows, then one matrix product clears its pivot columns in every other row.
    """
    for s0 in range(0, len(cols), _BLOCK):
        block, bcols = b[s0 : s0 + _BLOCK], cols[s0 : s0 + _BLOCK]
        for s, c in enumerate(bcols):
            row = _reduce(block[s], p)
            row *= pow(int(row[c]), -1, p)
            _reduce(row, p)
            col = _reduce(block[:, c].copy(), p)
            col[s] = 0
            block -= np.outer(col, row)
        _reduce(block, p)
        others = np.r_[0:s0, s0 + len(bcols) : len(b)]
        b[others] -= _reduce(b[np.ix_(others, bcols)], p) @ block
        _reduce(b, p)
    return b


def rref_mod(a, p):
    """The RREF of an integer matrix mod p: (pivot columns, their rows as float64 residues, input rows).

    The input rows are the rows of a in which the pivots were found, one per
    pivot; mod p they span the row space of a, so they alone have the same RREF.

    Blocked Gauss-Jordan over panels of _PANEL columns. A panel's pivots are
    found among the rows that are no pivot yet. Their block X in the pivot
    columns has unit leading minors, since each pivot was found after the
    ones before it, so those rows reduce to X^-1 times themselves, and one
    matrix product clears the panel's pivot columns in every other row.
    Each row stays its input row plus a combination of earlier pivot rows.
    """
    a = _reduce((a % p).astype(np.float64), p)
    free = np.arange(a.shape[0])
    rows, cols = [], []
    for j0 in range(0, a.shape[1], _PANEL):
        found = _panel_pivots(a[free, j0 : j0 + _PANEL].T.copy(), p)
        if not found:
            continue
        prow = free[[t for t, _ in found]]
        pcol = [j0 + j for _, j in found]
        k = len(found)
        inverse = _pivot_rows(np.hstack([a[np.ix_(prow, pcol)], np.eye(k)]), range(k), p)[:, k:]
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
