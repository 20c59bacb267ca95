"""Tiny matrix helpers over arbitrary (possibly noncommutative) entry rings.

Matrices are tuples of tuples; entries only need +, -, *.  Used for M_3(C),
M_2(A), M_2(B) and friends, where the entries are composition-algebra or
cubic-norm-structure elements.  Each entry product is its ring's own; M_3
over a base algebra K is a structure of its own, ``cns.Matrix3CNS``, whose
product is one table product on integer numerators.
"""

from __future__ import annotations


def mat(rows):
    return tuple(tuple(row) for row in rows)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_mul(a, b):
    """a b, entry by entry, the factor order kept."""
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
