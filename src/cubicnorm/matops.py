"""The one home of the matrix format: a matrix is a tuple of row tuples, and
a row or a column a plain tuple, over any entry ring with +, -, *
(noncommutative ones included), each entry product the ring's own.  The
other layers keep only their own pictures (``to_matrix``/``from_matrix``,
S(v), the GL_2 action); M_3 over a base algebra K is ``cns.Matrix3CNS``,
whose product is one table product on integer numerators.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import methodcaller

from .scalars import DirectSum, PreconditionError, map_solve

_conj = methodcaller("conj")


def mat(rows):
    return tuple(tuple(row) for row in rows)


def mat_scalar(n: int, s, zero):
    """The n x n scalar matrix s 1: s on the diagonal, ``zero`` elsewhere."""
    return tuple(tuple(s if i == j else zero for j in range(n)) for i in range(n))


def mat_map(f, a):
    """f applied to every entry, such as a base change ``space.extend``."""
    return tuple(tuple(map(f, row)) for row in a)


def mat_block(blocks):
    """The matrix assembled from a grid of blocks, each block row of one height."""
    return tuple(tuple(chain.from_iterable(rows)) for brow in blocks for rows in zip(*brow))


def column(row):
    """The row read as a one-column matrix."""
    return tuple((x,) for x in row)


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


def mat_star(a, star=_conj):
    """Conjugate transpose with an entrywise involution, conjugation unless
    another is given; a row's is a column."""
    return tuple(tuple(star(a[j][i]) for j in range(len(a))) for i in range(len(a[0])))


def outer(u, v):
    """The outer product u* v of two rows, a len(u) x len(v) matrix."""
    return mat_mul(mat_star((u,)), (v,))


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_hermitian(a) -> bool:
    return mat_eq(a, mat_star(a))


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


def mat_inverse(a, comp):
    """Inverse of a square matrix over an associative composition algebra:
    column t solves a x = e_t over Q in the rational coordinates of x, so
    base-changed coordinates solve too."""
    n = len(a)
    space = DirectSum(*[comp] * n)
    cols = [map_solve(partial(mat_times_col, a), space, space, e)
            for e in mat_scalar(n, comp.one(), comp.zero())]
    if None in cols:
        raise PreconditionError("matrix is not invertible")
    return mat_transpose(cols)
