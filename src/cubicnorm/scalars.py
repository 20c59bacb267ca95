"""Exact scalar arithmetic: arbitrary-precision rationals, finite commutative
quotient algebras F[x]/(f), and small dense exact linear algebra.

Everything in this package is computed over Q (``fractions.Fraction``) or over
a finite-dimensional commutative Q-algebra given by structure constants; no
floating point appears anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence, Union

Scalar = Fraction

ScalarLike = Union[Fraction, int, str]


class DescriptorError(ValueError):
    """Malformed descriptor, or operands from mismatched structures."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class BoundExceededError(RuntimeError):
    """A witness search exhausted its height bound.  Raise the bound and retry."""


class IdentityError(AssertionError):
    """An identity that is mathematically guaranteed failed to verify.  A bug."""


def witness_search(candidates, test, message: Optional[str] = None,
                   limit: Optional[int] = None):
    """The one bounded witness search.

    Draws candidates in order and applies ``test`` to each: None is a miss,
    anything else is the witness to report.  Without ``limit`` the search
    stops at the first witness and returns it; with ``limit`` it stops after
    that many and returns them as a list.  When no witness turns up, a
    ``message`` raises BoundExceededError(message); without one the search
    is a semi-decision and returns None (or the empty list) for "unknown".
    """
    hits = []
    for cand in candidates:
        hit = test(cand)
        if hit is not None:
            hits.append(hit)
            if len(hits) == (limit or 1):
                break
    if not hits and message is not None:
        raise BoundExceededError(message)
    if limit is not None:
        return hits
    return hits[0] if hits else None


def qq(x: ScalarLike) -> Fraction:
    """Coerce an int, string, or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def scalar_to_str(x: Fraction) -> str:
    """Canonical serialization: "p/q" in lowest terms, "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    return Fraction(s)


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if x is not a square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def is_integral(x: Fraction) -> bool:
    return x.denominator == 1


# ---------------------------------------------------------------------------
# Base rings.
#
# Every structure in this package (composition algebras, cubic norm
# structures, Freudenthal spaces) is parametrized by a "base": either Q
# itself or a CommAlgebra.  Elements of a base support +, -, *, so generic
# formula code is written once and extends coefficient-wise under base
# change.
# ---------------------------------------------------------------------------


class RationalBase:
    """The rational field as a base ring.  Elements are plain Fractions."""

    dim = 1
    name = "QQ"

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, AlgElem):
            raise DescriptorError("cannot coerce an algebra element into QQ")
        return Fraction(x)

    # a C-level callable, not a method: mul_coords asks it about every
    # coordinate of every product
    is_zero = staticmethod(operator.not_)

    def is_unit(self, x: Fraction) -> bool:
        return x != 0

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / x

    def norm(self, x: Fraction) -> Fraction:
        return x

    def trace(self, x: Fraction) -> Fraction:
        return x

    def flatten(self, x: Fraction) -> list[Fraction]:
        return [x]

    def unflatten(self, coords: Sequence[Fraction]) -> Fraction:
        (x,) = coords
        return x

    def flat_dim(self) -> int:
        return 1

    def basis(self) -> list[Fraction]:
        return [Fraction(1)]

    def random(self, rng, height: int = 3, integral: bool = True) -> Fraction:
        num = rng.randint(-height, height)
        if integral:
            return Fraction(num)
        den = rng.choice((1, 1, 2, 3))
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalBase)

    def __hash__(self) -> int:
        return hash("RationalBase")

    def __repr__(self) -> str:
        return "QQ"


QQ_BASE = RationalBase()


class AlgElem:
    """Element of a CommAlgebra: a coordinate vector over the algebra's base."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg: "CommAlgebra", coords: Sequence):
        self.alg = alg
        self.coords = tuple(coords)

    def _coerce_other(self, other):
        if isinstance(other, AlgElem):
            if other.alg is self.alg or other.alg == self.alg:
                return other
            if other.alg is self.alg.base or other.alg == self.alg.base:
                return self.alg.scalar_mul_one(other)
            return None
        if isinstance(other, (int, Fraction)):
            return self.alg.from_rational(qq(other))
        return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.alg, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.alg, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgElem(self.alg, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            if other.alg is self.alg or other.alg == self.alg:
                return AlgElem(self.alg, self.alg.mul_coords(self.coords, other.coords))
            if other.alg is self.alg.base or other.alg == self.alg.base:
                return AlgElem(self.alg, tuple(a * other for a in self.coords))
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            q = qq(other)
            return AlgElem(self.alg, tuple(a * q for a in self.coords))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self) -> int:
        # an element s * 1 equals the base scalar s, so it hashes as s
        alg = self.alg
        k = next(i for i, u in enumerate(alg.unit_coords) if u != 0)
        s = self.coords[k] * (1 / alg.unit_coords[k])
        if self.coords == alg.scalar_mul_one(s).coords:
            return hash(s)
        return hash((alg, self.coords))

    def __repr__(self) -> str:
        terms = ", ".join(repr(c) for c in self.coords)
        return f"{self.alg.name}({terms})"

    def is_zero(self) -> bool:
        return all(map(self.alg.base.is_zero, self.coords))

    def norm(self):
        return self.alg.norm(self)

    def trace(self):
        return self.alg.trace(self)

    def inv(self) -> "AlgElem":
        return self.alg.inv(self)

    def conj(self) -> "AlgElem":
        return self.alg.conj(self)


class CommAlgebra:
    """Finite commutative unital algebra over a base, given by rational
    structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j as a tuple of
    Fractions; coordinates of elements live in ``base`` (Q by default), so
    the same table serves the algebra and all of its base changes.
    Norm and trace come from the regular representation; an element is a
    unit iff its norm is a unit (correct for the etale instances used here).
    """

    def __init__(self, name: str, table, base=QQ_BASE, unit_coords=None):
        self.name = name
        self.table = tuple(tuple(tuple(qq(c) for c in cell) for cell in row) for row in table)
        self.dim = len(self.table)
        self.base = base
        if unit_coords is None:
            unit_coords = (1,) + (0,) * (self.dim - 1)
        self.unit_coords = tuple(qq(c) for c in unit_coords)

    # -- construction -------------------------------------------------------

    def elem(self, coords) -> AlgElem:
        cs = tuple(self.base.coerce(c) for c in coords)
        if len(cs) != self.dim:
            raise DescriptorError(f"{self.name}: expected {self.dim} coordinates, got {len(cs)}")
        return AlgElem(self, cs)

    def zero(self) -> AlgElem:
        return AlgElem(self, tuple(self.base.zero() for _ in range(self.dim)))

    def one(self) -> AlgElem:
        return self.elem(self.unit_coords)

    def from_rational(self, x) -> AlgElem:
        q = qq(x)
        return AlgElem(self, tuple(self.base.coerce(u * q) for u in self.unit_coords))

    def coerce(self, x):
        if isinstance(x, AlgElem):
            if x.alg is self or x.alg == self:
                return x
            if x.alg == self.base:
                return self.scalar_mul_one(x)
            raise DescriptorError(f"element of {x.alg.name} used in {self.name}")
        if isinstance(x, (int, Fraction, str)):
            return self.from_rational(qq(x))
        raise DescriptorError(f"cannot coerce {type(x).__name__} into {self.name}")

    def scalar_mul_one(self, s) -> AlgElem:
        return AlgElem(self, tuple(s * u for u in self.unit_coords))

    def basis(self) -> list[AlgElem]:
        out = []
        for i in range(self.dim):
            coords = [self.base.zero()] * self.dim
            coords[i] = self.base.one()
            out.append(AlgElem(self, tuple(coords)))
        return out

    # -- arithmetic ---------------------------------------------------------

    def mul_coords(self, a, b):
        is0 = self.base.is_zero
        out = [self.base.zero()] * self.dim
        for ai, row in zip(a, self.table):
            if is0(ai):
                continue
            for bj, cell in zip(b, row):
                if is0(bj):
                    continue
                prod = ai * bj
                for k, c in enumerate(cell):
                    if c:
                        out[k] = out[k] + prod * c
        return tuple(out)

    def regular_matrix(self, u: AlgElem) -> list[list]:
        """Matrix of multiplication-by-u on the basis, columns = images."""
        cols = [self.mul_coords(u.coords, b.coords) for b in self.basis()]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def norm(self, u: AlgElem):
        return det(self.regular_matrix(u))

    def trace(self, u: AlgElem):
        m = self.regular_matrix(u)
        t = self.base.zero()
        for i in range(self.dim):
            t = t + m[i][i]
        return t

    def is_unit(self, u: AlgElem) -> bool:
        return self.base.is_unit(self.norm(u))

    def is_zero(self, u: AlgElem) -> bool:
        return u.is_zero()

    def inv(self, u: AlgElem) -> AlgElem:
        """Exact inverse of a unit, by solving u*x = 1 over Q (the solve
        re-verifies its answer by substitution)."""
        sol = MatrixQ([[AlgElem(self, u.coords)]]).solve([self.one()])
        if sol is None:
            raise ZeroDivisionError(f"{self.name}: not a unit")
        return sol[0]

    def conj(self, u: AlgElem) -> AlgElem:
        """Conjugation on a quadratic algebra: u* = tr(u) - u."""
        if self.dim != 2:
            raise DescriptorError("conjugation is only defined on quadratic algebras")
        return self.scalar_mul_one(self.trace(u)) - u

    # -- charpoly helpers (for the adjoint of cubic algebras) ----------------

    def char_s1_s2(self, u: AlgElem):
        m = self.regular_matrix(u)
        s1 = self.base.zero()
        for i in range(self.dim):
            s1 = s1 + m[i][i]
        m2diag = self.base.zero()
        for i in range(self.dim):
            acc = self.base.zero()
            for k in range(self.dim):
                acc = acc + m[i][k] * m[k][i]
            m2diag = m2diag + acc
        s2 = (s1 * s1 - m2diag) * Fraction(1, 2)
        return s1, s2

    def adjoint(self, u: AlgElem) -> AlgElem:
        """u^# with u*u^# = norm(u), for a cubic algebra: u^2 - s1*u + s2."""
        if self.dim != 3:
            raise DescriptorError("algebra adjoint implemented for cubic algebras only")
        s1, s2 = self.char_s1_s2(u)
        return u * u - u * s1 + self.scalar_mul_one(s2)

    def cross(self, u: AlgElem, v: AlgElem) -> AlgElem:
        return self.adjoint(u + v) - self.adjoint(u) - self.adjoint(v)

    # -- flattening to Q (for exact linear algebra) --------------------------

    def flat_dim(self) -> int:
        return self.dim * self.base.flat_dim()

    def flatten(self, u: AlgElem) -> list[Fraction]:
        return [f for c in u.coords for f in self.base.flatten(c)]

    def unflatten(self, coords: Sequence[Fraction]) -> AlgElem:
        step = self.base.flat_dim()
        return AlgElem(self, tuple(self.base.unflatten(coords[i * step:(i + 1) * step])
                                   for i in range(self.dim)))

    def random(self, rng, height: int = 3, integral: bool = True) -> AlgElem:
        return AlgElem(self, tuple(self.base.random(rng, height, integral)
                                   for _ in range(self.dim)))

    def base_change(self, new_base) -> "CommAlgebra":
        return CommAlgebra(self.name, self.table, base=new_base, unit_coords=self.unit_coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CommAlgebra) and self.table == other.table
                and self.base == other.base and self.unit_coords == other.unit_coords)

    def __hash__(self) -> int:
        return hash((self.table, self.unit_coords))

    def __repr__(self) -> str:
        return f"CommAlgebra({self.name}, dim={self.dim}, base={self.base!r})"


class QuotientAlgebra(CommAlgebra):
    """F[x]/(f) for a monic polynomial f of degree 2 or 3 with rational
    coefficients, with norm and trace via the regular representation.

    Coordinates are low-degree-first; the image of x is basis element 1.
    """

    def __init__(self, modulus: Sequence[Fraction], base=QQ_BASE, name: Optional[str] = None):
        mod = tuple(qq(c) for c in modulus)
        deg = len(mod) - 1
        if deg not in (2, 3):
            raise DescriptorError("modulus must have degree 2 or 3")
        if mod[-1] != 1:
            raise DescriptorError("modulus must be monic")
        if poly_discriminant(mod) == 0:
            raise DescriptorError("modulus is not separable (discriminant 0); "
                                  "only etale quotient algebras are supported")
        self.modulus = mod
        # reduction of x^deg: x^deg = -(c_0 + c_1 x + ... + c_{deg-1} x^{deg-1})
        red = tuple(-c for c in mod[:-1])
        table = []
        for i in range(deg):
            row = []
            for j in range(deg):
                row.append(_power_coords(i + j, deg, red))
            table.append(row)
        super().__init__(name or f"Q[x]/({_poly_str(mod)})", table, base=base)

    def gen(self) -> AlgElem:
        """The image of x."""
        coords = [self.base.zero()] * self.dim
        coords[1] = self.base.one()
        return AlgElem(self, tuple(coords))

    def base_change(self, new_base) -> "QuotientAlgebra":
        return QuotientAlgebra(self.modulus, base=new_base, name=self.name)


def _power_coords(k: int, deg: int, red) -> tuple:
    """Coordinates of x^k in F[x]/(f), using x^deg = red (a coord vector)."""
    coords = [Fraction(0)] * deg
    if k < deg:
        coords[k] = Fraction(1)
        return tuple(coords)
    prev = _power_coords(k - 1, deg, red)
    # multiply by x: shift up, reduce the overflow
    shifted = [Fraction(0)] + list(prev[:-1])
    top = prev[-1]
    return tuple(s + top * r for s, r in zip(shifted, red))


def _poly_str(mod) -> str:
    terms = []
    for i, c in enumerate(mod):
        if c == 0:
            continue
        if i == 0:
            terms.append(scalar_to_str(c))
        elif i == 1:
            terms.append(f"{scalar_to_str(c)}*x" if c != 1 else "x")
        else:
            terms.append(f"{scalar_to_str(c)}*x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


def poly_discriminant(mod) -> Fraction:
    """Discriminant of a monic polynomial of degree 2 or 3 (low-first coeffs)."""
    deg = len(mod) - 1
    if deg == 2:
        c, b = mod[0], mod[1]
        return b * b - 4 * c
    if deg == 3:
        d, c, b = mod[0], mod[1], mod[2]
        # x^3 + b x^2 + c x + d
        return (18 * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
                - 4 * c ** 3 - 27 * d ** 2)
    raise DescriptorError("degree must be 2 or 3")


def qalg_make(modulus: Sequence[ScalarLike]) -> QuotientAlgebra:
    """Build the quotient algebra F[x]/(f) for a monic f of degree 2 or 3."""
    return QuotientAlgebra([qq(c) for c in modulus])


def quadratic_field(D: ScalarLike) -> QuotientAlgebra:
    """E = F[x]/(x^2 - D).  Requires D != 0: base change only ever runs along
    nonzero discriminants or etale cubic coordinates."""
    d = qq(D)
    if d == 0:
        raise DescriptorError("x^2 - 0 is rejected: not etale")
    return qalg_make([-d, 0, 1])


# ---------------------------------------------------------------------------
# Exact dense linear algebra over Q.
# ---------------------------------------------------------------------------


def det(m: Sequence[Sequence]) -> object:
    """Determinant over any commutative ring of +,* elements (Laplace for the
    small fixed dimensions used here)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    total = None
    for j in range(n):
        a = m[0][j]
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = a * det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def rref(rows: Sequence[Sequence[Fraction]]):
    """Gauss-Jordan elimination over Q, the one elimination routine.

    Column by column, the pivot is the first nonzero row at or below the
    current row; it is swapped up, scaled to a unit pivot, and its column is
    cleared in every other row.  Elimination stops once every row holds a
    pivot.  Returns (pivot columns, reduced rows, determinant factor): the
    pivot rows come first, and the factor is the product of the pivots times
    the sign of the row swaps, which is the determinant of a square matrix
    of full rank.
    """
    a = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: list[int] = []
    factor = Fraction(1)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            factor = -factor
        pv = a[r][c]
        factor *= pv
        # entries left of column c are zero in the pivot row: skip them
        tail = a[r][c:] = [x / pv for x in a[r][c:]]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f != 0:
                row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, a, factor


def det_fraction(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix, read off ``rref``."""
    pivots, _, factor = rref(m)
    return factor if len(pivots) == len(m) else Fraction(0)


def linsolve(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Solve mat*x = rhs exactly over Q.  Returns one solution, or None if the
    system is inconsistent (certified by a pivot in the right-hand column of
    the reduced augmented matrix)."""
    cols = len(mat[0]) if mat else 0
    pivots, a, _ = rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


def kernel(mat: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, one vector per free
    column of ``rref``."""
    cols = len(mat[0]) if mat else 0
    pivots, a, _ = rref(mat)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


class MatrixQ:
    """Small dense matrix with entries over Q or over a quotient algebra.

    Exact solve / kernel; solve certifies its answer by substitution.  Mixed
    bases raise a descriptor error.
    """

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        bases = set()
        for row in self.entries:
            if len(row) != self.cols:
                raise DescriptorError("ragged matrix")
            for e in row:
                bases.add(id(e.alg) if isinstance(e, AlgElem) else "QQ")
        if len(bases) > 1:
            raise DescriptorError("mixed base rings in one matrix")
        self._alg = None
        for row in self.entries:
            for e in row:
                if isinstance(e, AlgElem):
                    self._alg = e.alg
        if self._alg is not None:
            self.entries = [[self._alg.coerce(e) for e in row] for row in self.entries]

    def _flatten_system(self, rhs):
        if self._alg is None:
            return ([list(map(qq, row)) for row in self.entries],
                    [qq(x) for x in rhs])
        alg = self._alg
        n = alg.flat_dim()
        units = [AlgElem(alg, tuple(b if k == i else alg.base.zero()
                                    for k in range(alg.dim)))
                 for i in range(alg.dim) for b in alg.base.basis()]
        cols = []
        for j in range(self.cols):
            for u in units:
                col = []
                for i in range(self.rows):
                    col.extend(alg.flatten(self.entries[i][j] * u))
                cols.append(col)
        height = self.rows * n
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(height)]
        flat_rhs = []
        for x in rhs:
            flat_rhs.extend(alg.flatten(alg.coerce(x)))
        return mat, flat_rhs

    def kernel(self):
        """Basis of the right kernel, as vectors over the entry ring."""
        mat, _ = self._flatten_system([0] * self.rows if self._alg is None
                                      else [self._alg.zero()] * self.rows)
        basis = kernel(mat)
        if self._alg is None:
            return basis
        alg = self._alg
        n = alg.flat_dim()
        return [[alg.unflatten(vec[j * n:(j + 1) * n]) for j in range(self.cols)]
                for vec in basis]

    def solve(self, rhs):
        """Solve self*x = rhs; returns the solution vector or None (certified
        no-solution).  The solution is re-verified by substitution."""
        mat, flat_rhs = self._flatten_system(rhs)
        sol = linsolve(mat, flat_rhs)
        if sol is None:
            return None
        if self._alg is None:
            xs = sol
            for i in range(self.rows):
                acc = Fraction(0)
                for j in range(self.cols):
                    acc += qq(self.entries[i][j]) * xs[j]
                if acc != qq(rhs[i]):
                    raise IdentityError("linsolve verification failed")
            return xs
        alg = self._alg
        n = alg.flat_dim()
        xs = [alg.unflatten(sol[j * n:(j + 1) * n]) for j in range(self.cols)]
        for i in range(self.rows):
            acc = alg.zero()
            for j in range(self.cols):
                acc = acc + self.entries[i][j] * xs[j]
            if not (acc == alg.coerce(rhs[i])):
                raise IdentityError("linsolve verification failed")
        return xs

