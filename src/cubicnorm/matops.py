"""The one home of the matrix format: a matrix is a tuple of row tuples, and
a row or a column a plain tuple, over any entry ring with +, -, *
(noncommutative ones included), each entry product the ring's own.  The
other layers keep only their own pictures (``to_matrix``/``from_matrix``,
S(v), the GL_2 action); M_3 over a base algebra K is ``cns.Matrix3CNS``,
whose product is one table product on integer numerators.

M_n(C) over a composition algebra C is ``MatrixSpace``: a coordinate space
whose product over Q is one table product, and which ``from_rows`` and
``rows`` convert to and from the tuple format at the edges.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain
from operator import methodcaller

from .composition import CompAlgebra, _comp_terms
from .scalars import (
    QQ_BASE,
    CoordSpace,
    DescriptorError,
    DirectSum,
    PreconditionError,
    RationalBase,
    Table,
    Vec,
    _reduced,
    flat_table,
    map_solve,
    over_lcd,
    rational_table,
    table_mul,
)

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


# -- M_n(C) as a coordinate space --------------------------------------------


@cache
def _matrix_table(n: int, gammas: tuple) -> Table:
    """M_n(C)'s product over Q, on entry (a, b) as the block a n + b of C's
    coordinates: e_ab (x) e_p times e_bd (x) e_q is e_ad (x) e_p e_q, the
    Kronecker product of the matrix units' table with C's, factor order
    kept (Van Loan, "The ubiquitous Kronecker product", 2000).  Built once
    per (n, C's chain), so every space with that key shares its kernel."""
    terms, weights, _ = _comp_terms(gammas)
    d = len(weights)
    return rational_table((((a * n + b) * d + p, (b * n + e) * d + q, (a * n + e) * d + k, c)
                           for a in range(n) for b in range(n) for e in range(n)
                           for p, q, k, c in terms), n * n * d)


def _join(parts) -> tuple:
    """sum_a parts[a] (x) t_a, on numerators: the inverse of reading each
    T-component x_a of x = sum_a x_a (x) t_a off every m-th numerator."""
    return tuple(chain.from_iterable(zip(*parts)))


class MatrixSpace(CoordSpace):
    """M_n(C) for a composition algebra C over Q or over a commutative
    algebra T over Q: n^2 C-blocks of flat integers over one denominator,
    entry (i, j) the block i n + j.

    The product is one ``table_mul`` over ``_matrix_table``, over Q the
    table itself and over T its record with T's table (``flat_table``),
    which builds no cells: every space over a T of one shape shares its
    kernel.  A factor in ``ground``, the same space over Q, is one
    component, x (x) 1: its product with y = sum_a y_a (x) t_a is the m
    ground products x y_a."""

    element = Vec

    def __init__(self, comp: CompAlgebra, n: int = 3):
        self.comp, self.n = comp, n
        self.base = comp.base
        self.dim = n * n * comp.dim
        self.name = f"M{n}({comp.name})"
        self.unit_coords = tuple(int(i == j and p == 0) for i in range(n) for j in range(n)
                                 for p in range(comp.dim))
        if isinstance(self.base, RationalBase):
            self.ground = self
        elif isinstance(self.base.base, RationalBase):
            self.ground = MatrixSpace(comp.base_change(QQ_BASE), n)
        else:
            raise DescriptorError(f"{self.name}: the base must be Q or an algebra over Q")
        self._multiply_by(flat_table(_matrix_table(n, comp.gammas), self.base))

    # the numerators of a b over table_den: one kernel call
    mul_coords = table_mul

    def mul(self, x, y):
        """x y, each factor in this space or in ``ground``."""
        g = self.ground
        if g is self or (x.space is self and y.space is self):
            return super().mul(x, y)
        m = self.base._n
        if x.space is g or x.space == g:
            outs = [g.mul_coords(x.num, y.num[a::m]) for a in range(m)]
        elif y.space is g or y.space == g:
            outs = [g.mul_coords(x.num[a::m], y.num) for a in range(m)]
        else:
            return super().mul(x, y)
        return _reduced(self, _join(outs), x.den * y.den * g.table_den)

    def from_components(self, parts):
        """sum_a parts[a] (x) t_a for elements of ``ground``, the inverse of
        ``Vec.component``."""
        nums, den = over_lcd((p.num, p.den) for p in parts)
        return _reduced(self, _join(nums), den)

    def star(self, x):
        """The conjugate transpose: entry (j, i) conjugated at (i, j), one
        pass on the numerators, C's conjugation negating all of an entry's
        numerators but those of its first coordinate."""
        n, num = self.n, x.num
        k = len(num) // (n * n)
        m = k // self.comp.dim
        out = []
        for i in range(n):
            for j in range(n):
                s = (j * n + i) * k
                out += num[s:s + m]
                out += [-c for c in num[s + m:s + k]]
        return _reduced(self, tuple(out), x.den, False)

    def from_rows(self, rows):
        """The element with the rows of C elements ``rows``."""
        return self.concat(*chain.from_iterable(rows))

    def row_matrix(self, row):
        """The matrix with first row ``row`` and zeros below, whose products
        with a matrix on the right are that row's in their first row."""
        zero = (self.comp.zero(),) * self.n
        return self.from_rows((row,) + (zero,) * (self.n - 1))

    def rows(self, x) -> tuple:
        """x in the tuple format, n rows of C elements."""
        es, n = self.comp.scalars(x.num, x.den), self.n
        return tuple(es[i:i + n] for i in range(0, n * n, n))

    def _key(self):
        return (self.n, self.comp)
