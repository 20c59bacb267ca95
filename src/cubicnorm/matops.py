"""Tiny matrix helpers over arbitrary (possibly noncommutative) entry rings.

Matrices are tuples of tuples; entries only need +, -, *.  Used for M_3(C),
M_2(A), M_2(B) and friends, where the entries are composition-algebra or
cubic-norm-structure elements.  A product whose entries all lie in one
algebra over Q (M_3(K) for a quadratic or cubic field K) runs as one fused
integer product, ``CommAlgebra.mat_mul``.
"""

from __future__ import annotations

from .scalars import AlgElem


def mat(rows):
    return tuple(tuple(row) for row in rows)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def _rational_algebra(a, b):
    """The algebra over Q that holds every entry of a and b, or None."""
    x = a[0][0] if a and a[0] else None
    space = x.space if type(x) is AlgElem else None
    if space is None or not space.rational:
        return None
    for m in (a, b):
        for row in m:
            for y in row:
                if type(y) is not AlgElem or y.space is not space:
                    return None
    return space


def mat_mul(a, b):
    """a b; over one algebra over Q, the fused product of that algebra."""
    space = _rational_algebra(a, b)
    if space is not None:
        return space.mat_mul(a, b)
    n, k = len(a), len(b)
    m = len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_smul(a, s):
    """Matrix times scalar, scalar applied on the right."""
    return tuple(tuple(x * s for x in row) for row in a)


def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def mat_star(a, star):
    """Conjugate transpose with an entrywise involution."""
    return tuple(tuple(star(a[j][i]) for j in range(len(a))) for i in range(len(a[0])))


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def row_times_mat(row, a):
    return tuple(sum_prod(row, tuple(a[t][j] for t in range(len(a)))) for j in range(len(a[0])))


def mat_times_col(a, col):
    return tuple(sum_prod(tuple(a[i][t] for t in range(len(col))), col) for i in range(len(a)))


def sum_prod(xs, ys):
    """x_1 y_1 + ... + x_n y_n, skipping the terms whose left factor is zero
    (basis rows and matrix units are mostly zeros); an all-zero xs gives
    x_1 y_1, the zero of the products' type."""
    acc = None
    for x, y in zip(xs, ys):
        if x:
            acc = x * y if acc is None else acc + x * y
    return xs[0] * ys[0] if acc is None else acc
