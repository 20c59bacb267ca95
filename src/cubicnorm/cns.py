"""Cubic norm structures: the (norm, adjoint, cross, pairing) interface, its
instance variants, base change, the axiom suite, and the Tits and
Cayley-Dickson style constructions that produce new instances from old ones.

Instances provided:

* ``TrivialCNS``      -- J = F with N(x) = x^3.
* ``ProductCNS``      -- J = F x C for an associative composition algebra C
                         (covers F x F, F x quadratic, F x quaternion).
* ``CubicRingCNS``    -- a commutative cubic algebra with its norm form.
* ``Matrix3CNS``      -- 3 x 3 matrices with N = det.
* ``H3CNS``           -- Hermitian 3 x 3 matrices over any composition algebra.
* ``TitsUCNS``        -- the second Tits construction U(S, lambda) on J + B.
* ``CayleyUCNS``      -- U(gamma) = H_3(C) + C^3, isomorphic to H_3(C(gamma)).

Every instance is parametrized by a base ring, so base change along a
quotient algebra is the same code path with coefficients living upstairs.
Every instance takes its own cross, the linearization x x y of its adjoint
(McCrimmon, A Taste of Jordan Algebras, 2004): the ground instances as a
table, the two constructions as their adjoint formula polarized.  The
ground instances' maps, the matrix kind's embed and project and U(gamma)'s
bilinear maps are integer tables built once per key; per-input data (S,
lambda, gamma) stays in the formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional, Sequence

from .composition import CheckReport, CompAlgebra, _cd_table, cd_double
from .matops import (
    mat,
    mat_add,
    mat_eq,
    mat_mul,
    mat_star,
    mat_transpose,
)
from .scalars import (
    AlgElem,
    CommAlgebra,
    CoordSpace,
    DescriptorError,
    PreconditionError,
    QQ_BASE,
    QuotientAlgebra,
    RationalBase,
    Table,
    Vec,
    _cubic_tables,
    det_fraction,
    flat_table,
    qq,
    rational_table,
    symmetrized,
    table_mul,
)


class CnsElt(Vec):
    """Element of a cubic norm structure: a coordinate vector over the base.
    A bare scalar is never an element (a CNS has no unit coordinates)."""

    __slots__ = ()
    J = Vec.space

    def __repr__(self) -> str:
        return f"CnsElt({self.J.name}, {list(self.coords)})"

    def norm(self):
        return self.J.norm(self)

    def conj(self) -> "CnsElt":
        return self.J.star(self)


class CNS(CoordSpace):
    """Abstract cubic norm structure over a base ring.

    Subclasses provide norm, adjoint, pairing, the unit, base change and
    (for an algebra) multiplication.  ``cross`` defaults to the adjoint
    polarized, (x + y)# - x# - y#, three adjoints a cross; every instance
    in this package overrides it with one map of about an adjoint's cost.
    Everything else is derived.
    """

    element = CnsElt
    random_height = 2
    name = "cns"
    base = QQ_BASE
    dim = 0
    has_mul = False

    # -- subclass surface (norm, adjoint, pair, one, base_change: no default) --

    def mul(self, x: CnsElt, y: CnsElt) -> CnsElt:
        raise DescriptorError(f"{self.name} is not an associative algebra")

    def star(self, x: CnsElt) -> CnsElt:
        raise DescriptorError(f"{self.name} carries no involution")

    # -- generic layer -------------------------------------------------------

    def cross(self, x: CnsElt, y: CnsElt) -> CnsElt:
        return self.adjoint(x + y) - self.adjoint(x) - self.adjoint(y)

    def trace(self, x: CnsElt):
        return self.pair(self.one(), x)

    def trilinear(self, x: CnsElt, y: CnsElt, z: CnsElt):
        """The symmetric trilinear form (x, y, z) with (x, x, x) = 6 N(x)."""
        return self.pair(self.cross(x, y), z)

    def u_op(self, x: CnsElt, y: CnsElt) -> CnsElt:
        """U_x y = -x# x y + (x, y) x."""
        return -self.cross(self.adjoint(x), y) + x * self.pair(x, y)

    def rank(self, x: CnsElt) -> int:
        if x.is_zero():
            return 0
        if self.adjoint(x).is_zero():
            return 1
        if self.base.is_zero(self.norm(x)):
            return 2
        return 3

    def special_combo(self, x: CnsElt, y: CnsElt, z: CnsElt) -> Optional[CnsElt]:
        """x y z + z y x computed in a special embedding, or None when the
        instance has no concrete ambient associative algebra."""
        if self.has_mul:
            return self.mul(self.mul(x, y), z) + self.mul(self.mul(z, y), x)
        return None

    def _key(self):
        return (self.name, self.base)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, base={self.base!r})"


# ---------------------------------------------------------------------------
# Ground instances: every preset and construction is built from these, and
# their maps are integer tables.
# ---------------------------------------------------------------------------


def _over_base(i: int) -> cached_property:
    """The i-th of a TableCNS's tables over Q (``_rational``), base changed
    by ``flat_table`` on first use and kept on the instance."""
    return cached_property(lambda self: flat_table(self._rational[i], self.base))


class TableCNS(CNS):
    """A ground cubic norm structure: adjoint, cross, pairing and (with
    ``has_mul``) product are each one ``table_mul`` on the numerators, over
    ``_sharp`` (x# = sum_ij x_i x_j A_ij), ``_cross``, the adjoint table
    symmetrized (S_ij = A_ij + A_ji), ``_pairing`` and ``_product``: the
    tables over Q in ``_rational``, which a subclass builds once per key in
    closed form, each base changed by ``flat_table`` on its first use, so
    every structure with that key and base shares them and their compiled
    kernels, and a table nothing multiplies by is never built over a tower.
    Each norm keeps its own formula, never (x, x#)/3 or x x#, so the axioms
    relating N to the tables stay checks."""

    _rational: tuple
    _sharp, _cross, _pairing, _product = map(_over_base, range(4))

    def adjoint(self, x):
        return self._sharp.apply(self, x, x)

    def cross(self, x, y):
        return self._cross.apply(self, x, y)

    def pair(self, x, y):
        return self._pairing.apply(self.base, x, y)

    def mul(self, x, y):
        return self._product.apply(self, x, y) if self.has_mul else super().mul(x, y)


def _comp_terms(gammas: tuple):
    """C's product terms (p, q, k, c), e_p e_q = c e_k, off its Cayley-Dickson
    table; its norm weights; and the signs s_p of e_p* = s_p e_p."""
    t, weights, _ = _cd_table(gammas)
    return ([(p, q, k, Fraction(c, t.den)) for p, row in enumerate(t._cells)
             for q, cell in row for k, c in cell], weights, (1,) + (-1,) * (len(weights) - 1))


# x# = x^2 and (x, y) = 3xy on the trivial structure's one coordinate
_TRIVIAL_SQUARE = rational_table([(0, 0, 0, 1)], 1)
_TRIVIAL_CROSS = symmetrized(_TRIVIAL_SQUARE)
_TRIVIAL_PAIRING = rational_table([(0, 0, 0, 3)], 1)


class TrivialCNS(TableCNS):
    """J = F with N(x) = x^3, x# = x^2, (x, y) = 3xy."""

    has_mul = True
    _rational = (_TRIVIAL_SQUARE, _TRIVIAL_CROSS, _TRIVIAL_PAIRING, _TRIVIAL_SQUARE)

    def __init__(self, base=QQ_BASE):
        self.base = base
        self.dim = 1
        self.name = "trivial"

    def norm(self, x):
        (a,) = x.coords
        return a * a * a

    def one(self):
        return CnsElt(self, (self.base.one(),))

    def base_change(self, new_base):
        return TrivialCNS(new_base)

    def _key(self):
        return ("trivial", self.base)


@cache
def _fxc_tables(gammas: tuple):
    """F x C's adjoint, cross, pairing and product rows, with tr(e_p e_q)
    twice the e_0-coordinate of e_p e_q."""
    comp, weights, signs = _comp_terms(gammas)
    n = 1 + len(weights)
    sharp = ([(1 + p, 1 + p, 0, w) for p, w in enumerate(weights)]
             + [(0, 1 + p, 1 + p, s) for p, s in enumerate(signs)])
    pairing = [(0, 0, 0, 1)] + [(1 + p, 1 + q, 0, 2 * c) for p, q, k, c in comp if k == 0]
    product = [(0, 0, 0, 1)] + [(1 + p, 1 + q, 1 + k, c) for p, q, k, c in comp]
    sharp = rational_table(sharp, n)
    return sharp, symmetrized(sharp), rational_table(pairing, n, 1), rational_table(product, n)


class ProductCNS(TableCNS):
    """J = F x C for an associative composition algebra C.

    N((a, x)) = a n_C(x), (a, x)# = (n_C(x), a x*), pairing = a b + tr(x y),
    (a, x)(b, y) = (ab, xy); the plain product in the pairing (no conjugate)
    is what makes (u, u#) = 3N(u) and the norm polarization hold.
    C = F gives the split rank-two structure with N(a, x) = a x^2.
    """

    has_mul = True

    def __init__(self, comp: CompAlgebra):
        if not comp.is_associative:
            raise DescriptorError("F x C needs an associative composition algebra")
        self.comp = comp
        self.base = comp.base
        self.dim = 1 + comp.dim
        self.name = f"FxC({','.join(str(g) for g in comp.gammas)})"
        self._rational = _fxc_tables(comp.gammas)

    def _split(self, x):
        return x.coord(0), x.block(self.comp, 1)

    def norm(self, x):
        a, c = self._split(x)
        return a * c.norm()

    def one(self):
        return self.concat(self.base.one(), self.comp.one())

    def base_change(self, new_base):
        return ProductCNS(self.comp.base_change(new_base))

    def _key(self):
        return (self.comp.gammas, self.base)


class CubicRingCNS(TableCNS):
    """A commutative cubic algebra as a cubic norm structure: N is the norm
    of the regular representation, x# = x^2 - s1 x + s2, (x, y) = tr(xy).
    Product, adjoint and cross are the algebra's tables; the pairing is the
    trace form tr(e_i e_j), read off its structure constants."""

    has_mul = True

    def __init__(self, alg: CommAlgebra):
        if alg.dim != 3:
            raise DescriptorError("cubic ring must have rank 3")
        self.alg = alg
        self.base = alg.base
        self.dim = 3
        self.name = f"cubicring({alg.name})"
        # the product is the algebra's own table over the base
        self._product = alg._table
        self._rational = _cubic_tables(alg.table, alg.unit_coords)

    def norm(self, x):
        return self.alg.norm(x.block(self.alg))

    def one(self):
        return self.alg.one().block(self)

    def base_change(self, new_base):
        return CubicRingCNS(self.alg.base_change(new_base))

    def _key(self):
        return (self.alg.table, self.base)


def _mu(a: int, b: int) -> int:
    """The index of the matrix unit e_ab, indices mod 3."""
    return 3 * (a % 3) + b % 3


# on the matrix units e_3a+b of M_3: the product e_ab e_bd = e_ad, the
# adjugate adj(x)_ij = x_(j+1)(i+1) x_(j+2)(i+2) - x_(j+1)(i+2) x_(j+2)(i+1)
# with indices mod 3, and the pairing tr(xy) = sum x_ab y_ba
_M3_PRODUCT = rational_table(((_mu(a, b), _mu(b, d), _mu(a, d), 1)
                             for a in range(3) for b in range(3) for d in range(3)), 9)
_M3_ADJUGATE = rational_table((t for i in range(3) for j in range(3) for t in (
    (_mu(j + 1, i + 1), _mu(j + 2, i + 2), _mu(i, j), 1),
    (_mu(j + 1, i + 2), _mu(j + 2, i + 1), _mu(i, j), -1))), 9)
_M3_CROSS = symmetrized(_M3_ADJUGATE)
_M3_TRACE = rational_table(((_mu(a, b), _mu(b, a), 0, 1) for a in range(3) for b in range(3)), 9, 1)


class Matrix3CNS(TableCNS):
    """M_3 over the base with N = det, # = adjugate, (x, y) = tr(xy)."""

    has_mul = True
    _rational = (_M3_ADJUGATE, _M3_CROSS, _M3_TRACE, _M3_PRODUCT)

    def __init__(self, base=QQ_BASE):
        self.base = base
        self.dim = 9
        self.name = "matrix3"

    def to_matrix(self, x: CnsElt):
        c = x.coords
        return mat([c[0:3], c[3:6], c[6:9]])

    def from_matrix(self, m) -> CnsElt:
        return CnsElt(self, m[0] + m[1] + m[2])

    def norm(self, x):
        m = self.to_matrix(x)
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    def one(self):
        z, o = self.base.zero(), self.base.one()
        return CnsElt(self, (o, z, z, z, o, z, z, z, o))

    def transpose(self, x: CnsElt) -> CnsElt:
        return self.from_matrix(mat_transpose(self.to_matrix(x)))

    def base_change(self, new_base):
        return Matrix3CNS(new_base)

    def _key(self):
        return ("matrix3", self.base)


@cache
def _h3_tables(gammas: tuple):
    """H_3(C)'s adjoint, cross and pairing rows: for (i, j, k) a cyclic shift of
    (1, 2, 3), x# has c_j c_k - n(a_i) at c_i and a_k* a_j* - c_i a_i at
    a_i, and (x, y) = sum_i c_i e_i + tr(a_i* b_i) for y = (e, b)."""
    comp, weights, signs = _comp_terms(gammas)
    d = len(weights)
    sharp, pairing = [], []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        ai, aj, ak = 3 + i * d, 3 + j * d, 3 + k * d
        sharp += [(j, k, i, 1)] + [(ai + p, ai + p, i, -w) for p, w in enumerate(weights)]
        sharp += [(ak + p, aj + q, ai + r, signs[p] * signs[q] * c) for p, q, r, c in comp]
        sharp += [(i, ai + p, ai + p, -1) for p in range(d)]
        pairing += [(i, i, 0, 1)] + [(ai + p, ai + q, 0, 2 * signs[p] * c)
                                     for p, q, r, c in comp if r == 0]
    sharp = rational_table(sharp, 3 + 3 * d)
    return sharp, symmetrized(sharp), rational_table(pairing, 3 + 3 * d, 1)


class H3CNS(TableCNS):
    """Hermitian 3 x 3 matrices over a composition algebra C.

    Coordinates are (c1, c2, c3, a1, a2, a3) with the matrix picture

        [ c1   a3   a2* ]
        [ a3*  c2   a1  ]
        [ a2   a1*  c3  ].

    Special (with ambient M_3(C), where its products live) exactly when C
    is associative.
    """

    def __init__(self, comp: CompAlgebra):
        self.comp = comp
        self.base = comp.base
        self.dim = 3 + 3 * comp.dim
        self.name = f"h3({','.join(str(g) for g in comp.gammas)})"
        self._rational = _h3_tables(comp.gammas)

    def split(self, x: CnsElt):
        C = self.comp
        return ((x.coord(0), x.coord(1), x.coord(2)),
                (x.block(C, 3), x.block(C, 3 + C.dim), x.block(C, 3 + 2 * C.dim)))

    def join(self, cs, As) -> CnsElt:
        return self.concat(*cs, *As)

    def norm(self, x):
        (c1, c2, c3), (a1, a2, a3) = self.split(x)
        # tr(a1 a2 a3) bracketed (a1 a2) a3, trace-associative either way
        return (c1 * c2 * c3 - c1 * a1.norm() - c2 * a2.norm() - c3 * a3.norm()
                + ((a1 * a2) * a3).trace())

    def one(self):
        o = self.base.one()
        z = self.comp.zero()
        return self.join((o, o, o), (z, z, z))

    def to_matrix(self, x: CnsElt):
        (c1, c2, c3), (a1, a2, a3) = self.split(x)
        s = self.comp.from_scalar
        return mat([
            (s(c1), a3, a2.conj()),
            (a3.conj(), s(c2), a1),
            (a2, a1.conj(), s(c3)),
        ])

    def from_matrix(self, m) -> CnsElt:
        cs = (m[0][0].coord(0), m[1][1].coord(0), m[2][2].coord(0))
        return self.join(cs, (m[1][2], m[2][0], m[0][1]))

    def is_hermitian_matrix(self, m) -> bool:
        return mat_eq(m, mat_star(m, lambda v: v.conj()))

    def special_combo(self, x, y, z):
        """x y z + z y x in M_3(C), for associative C."""
        if not self.comp.is_associative:
            return None
        mx, my, mz = self.to_matrix(x), self.to_matrix(y), self.to_matrix(z)
        return self.from_matrix(mat_add(mat_mul(mat_mul(mx, my), mz), mat_mul(mat_mul(mz, my), mx)))

    def base_change(self, new_base):
        return H3CNS(self.comp.base_change(new_base))

    def _key(self):
        return (self.comp.gammas, self.base)


def cubic_ring_table(a, b, c, d) -> tuple:
    """Structure constants of the cubic ring attached to the binary cubic
    a x^3 + b x^2 y + c x y^2 + d y^3, on the good basis (1, w, t):

        w t = -ad,   w^2 = -ac + a t - b w,   t^2 = -bd + c t - d w.
    """
    a, b, c, d = qq(a), qq(b), qq(c), qq(d)
    wt = (-a * d, 0, 0)
    ww = (-a * c, -b, a)
    tt = (-b * d, -d, c)
    e0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    e1 = ((0, 1, 0), ww, wt)
    e2 = ((0, 0, 1), wt, tt)
    return (e0, e1, e2)


def cubic_ring_algebra(a, b, c, d, base=QQ_BASE, name: Optional[str] = None) -> CommAlgebra:
    return CommAlgebra(name or f"T({a},{b},{c},{d})", cubic_ring_table(a, b, c, d), base=base)


SPLIT_CUBIC_COEFFS = (0, 1, 1, 0)  # x^2 y + x y^2 = xy(x+y), disc 1, T = Z^3


def split_cubic_algebra(base=QQ_BASE) -> CommAlgebra:
    """The split cubic ring Z^3 presented on the good basis of xy(x+y);
    the primitive idempotents are -w, t, 1 + w - t."""
    return cubic_ring_algebra(*SPLIT_CUBIC_COEFFS, base=base, name="Zcube")


def split_cubic_idempotents(alg: CommAlgebra) -> tuple:
    e1 = alg.elem([0, -1, 0])
    e2 = alg.elem([0, 0, 1])
    e3 = alg.one() - e1 - e2
    return (e1, e2, e3)


# ---------------------------------------------------------------------------
# Second Tits construction.
# ---------------------------------------------------------------------------


@cache
def _hermitian_picture(gammas: tuple, m: int) -> tuple[Table, Table]:
    """The matrix kind's embed of H_3(C) into M_3(K) and its project back,
    for C = (d) and K = F[x]/(x^2 - d) on one basis (1, e), as linear
    tables on numerators with m per base coordinate, run against (1,) like
    the star table: c_i goes to the first K-coordinate of entry (i, i),
    a_i to entry (j, k) and a_i* = sum_p s_p a_ip e_p to entry (k, j), for
    (i, j, k) a cyclic shift of (0, 1, 2); project reads c_i and a_i back
    from those first two places.  Each of a coordinate's m numerators goes
    alone, so the tables serve every base."""
    _, weights, signs = _comp_terms(gammas)
    d = len(weights)
    # (H_3 coordinate, M_3(K) coordinate over the base, coefficient)
    direct = [(i, _mu(i, i) * d, 1) for i in range(3)]
    direct += [(3 + i * d + p, _mu(i + 1, i + 2) * d + p, 1) for i in range(3) for p in range(d)]
    conjugate = [(3 + i * d + p, _mu(i + 2, i + 1) * d + p, s)
                 for i in range(3) for p, s in enumerate(signs)]
    n, nb = (3 + 3 * d) * m, 9 * d * m
    embed = rational_table([(a * m + t, 0, b * m + t, c)
                            for a, b, c in direct + conjugate for t in range(m)], n, nb)
    project = rational_table([(b * m + t, 0, a * m + t, 1) for a, b, _ in direct for t in range(m)],
                             nb, n)
    return embed, project


@dataclass
class SecondKind:
    """An associative cubic norm algebra B over an etale quadratic K with an
    involution of the second kind, together with its fixed structure J.

    ``kind`` is "matrix" for B = M_3(K) (J realized as H_3 of the matching
    quadratic composition algebra; the split K case is the A x A^opp shape)
    or "tensor" for B = A (x) K with A a commutative associative instance.
    """

    K: CommAlgebra
    B: CNS
    J: CNS
    kind: str

    def star(self, b: CnsElt) -> CnsElt:
        if self.kind == "matrix":
            return self._linear(self._star_table, b, self.B)
        return CnsElt(self.B, tuple(c.conj() for c in b.coords))

    @staticmethod
    def _linear(t: Table, x: CnsElt, space) -> CnsElt:
        """A linear table t, run against the right operand (1,), on x."""
        return space.from_num(table_mul(t, x.num, (1,)), x.den * t.den)

    @cached_property
    def _star_table(self) -> Table:
        """The conjugate transpose on M_3(K) as one linear table on the
        numerators, run against the right operand (1,): entry (r, s) goes
        to (s, r) through K's conjugation, read off K's flat basis once."""
        m = self.K.flat_dim()
        conj = [self.K.conj(e) for e in self.K.flat_basis()]
        terms = [((3 * r + s) * m + a, 0, (3 * s + r) * m + k, Fraction(n, c.den))
                 for r in range(3) for s in range(3)
                 for a, c in enumerate(conj) for k, n in enumerate(c.num)]
        return rational_table(terms, 9 * m)

    @cached_property
    def _picture(self) -> tuple[Table, Table]:
        """The matrix kind's embed and project tables (``_hermitian_picture``)."""
        return _hermitian_picture(self.J.comp.gammas, self.J.base.flat_dim())

    def embed(self, j: CnsElt) -> CnsElt:
        """J into B: the Hermitian picture of j read in M_3(K), one linear
        table, for the matrix kind, 1 (x) j for the tensor kind."""
        if self.kind == "matrix":
            return self._linear(self._picture[0], j, self.B)
        return self.B.extend(j)

    def project(self, b: CnsElt) -> CnsElt:
        """Inverse of embed on star-fixed elements."""
        if not (self.star(b) == b):
            raise PreconditionError("element is not fixed by the involution")
        if self.kind == "matrix":
            return self._linear(self._picture[1], b, self.J)
        return b.component(self.J, 0)

    def base_change(self, new_base) -> "SecondKind":
        Knew = self.K.base_change(new_base)
        if self.kind == "matrix":
            return SecondKind(Knew, Matrix3CNS(Knew), self.J.base_change(new_base), "matrix")
        return SecondKind(Knew, self.J.base_change(Knew), self.J.base_change(new_base), "tensor")


def second_kind_matrix(D, base=QQ_BASE) -> SecondKind:
    """B = M_3(K) for K = F[x]/(x^2 - D) with conjugate transpose; J is the
    Hermitian structure H_3 over the quadratic composition algebra (D).

    The split D (a square) realizes the A x A^opp shape with A = M_3(F).
    """
    d = qq(D)
    K = QuotientAlgebra([-d, 0, 1], base=base)
    comp = CompAlgebra((d,), base=base)
    return SecondKind(K, Matrix3CNS(K), H3CNS(comp), "matrix")


def second_kind_tensor(A: CNS, D, base=None) -> SecondKind:
    """B = A (x) K for a commutative associative cubic norm structure A and
    K = F[x]/(x^2 - D), with involution 1 (x) conjugation."""
    if not A.has_mul:
        raise DescriptorError("tensor shape needs an associative A")
    d = qq(D)
    K = QuotientAlgebra([-d, 0, 1], base=A.base if base is None else base)
    return SecondKind(K, A.base_change(K), A, "tensor")


class TitsUCNS(CNS):
    """Second construction of Tits: U(S, lambda) = J + B for data
    S in J, lambda in K with n_J(S) = lambda lambda*.

    Coordinates: J-coordinates followed by flattened B-coordinates (each
    K-coordinate contributes K.dim base coordinates).
    """

    def __init__(self, sk: SecondKind, S: CnsElt, lam: AlgElem):
        self.sk = sk
        self.base = sk.J.base
        if S.J != sk.J:
            raise DescriptorError("S must lie in the fixed structure J")
        nS = sk.J.norm(S)
        nlam = sk.K.norm(lam)
        if not (nS == nlam):
            raise PreconditionError("Tits data requires n(S) = lambda lambda*")
        self.S = S
        self.lam = lam
        self.lam_inv = sk.K.inv(lam)
        self.S_B = sk.embed(S)
        self.Ssharp_B = sk.embed(sk.J.adjoint(S))
        self.dim = sk.J.dim + sk.B.dim * sk.K.dim
        self.name = f"titsU({sk.kind})"
        self.has_mul = False

    # coordinate plumbing ----------------------------------------------------

    def split(self, x: CnsElt):
        return x.block(self.sk.J), x.block(self.sk.B, self.sk.J.dim)

    def join(self, X: CnsElt, alpha: CnsElt) -> CnsElt:
        return self.concat(X, alpha)

    # the structure maps ------------------------------------------------------

    def _asa(self, alpha: CnsElt, beta: CnsElt) -> CnsElt:
        """alpha S beta* computed in B."""
        B = self.sk.B
        return B.mul(B.mul(alpha, self.S_B), self.sk.star(beta))

    def _asa_polar(self, alpha: CnsElt, beta: CnsElt) -> CnsElt:
        """alpha S beta* + beta S alpha*, the polarization of alpha S alpha*:
        y + y* for y = alpha S beta*, as S* = S and * reverses products."""
        y = self._asa(alpha, beta)
        return y + self.sk.star(y)

    def norm(self, x):
        X, alpha = self.split(x)
        J, sk = self.sk.J, self.sk
        aSa = sk.project(self._asa(alpha, alpha))
        return (J.norm(X) - J.pair(X, aSa)
                + sk.K.trace(self.lam * sk.B.norm(alpha)))

    def adjoint(self, x):
        X, alpha = self.split(x)
        J, sk, B = self.sk.J, self.sk, self.sk.B
        first = J.adjoint(X) - sk.project(self._asa(alpha, alpha))
        second = (-B.mul(sk.embed(X), alpha)
                  + B.mul(B.adjoint(sk.star(alpha)), self.Ssharp_B) * self.lam_inv)
        return self.join(first, second)

    def cross(self, x, y):
        """The adjoint polarized: (X x Y - P(alpha S beta* + beta S alpha*),
        -X beta - Y alpha + (alpha* x beta*) S# / lambda), for P the project."""
        X, alpha = self.split(x)
        Y, beta = self.split(y)
        J, sk, B = self.sk.J, self.sk, self.sk.B
        first = J.cross(X, Y) - sk.project(self._asa_polar(alpha, beta))
        second = (-B.mul(sk.embed(X), beta) - B.mul(sk.embed(Y), alpha)
                  + B.mul(B.cross(sk.star(alpha), sk.star(beta)), self.Ssharp_B) * self.lam_inv)
        return self.join(first, second)

    def pair(self, x, y):
        X, alpha = self.split(x)
        Y, beta = self.split(y)
        J, sk = self.sk.J, self.sk
        z = sk.project(self._asa_polar(alpha, beta))
        return J.pair(X, Y) + J.trace(z)

    def one(self):
        return self.join(self.sk.J.one(), self.sk.B.zero())

    def base_change(self, new_base):
        sk2 = self.sk.base_change(new_base)
        return TitsUCNS(sk2, sk2.J.extend(self.S), sk2.K.extend(self.lam))

    def _key(self):
        return (self.name, self.sk.J, self.sk.K, self.S.coords, self.lam.coords, self.base)


# ---------------------------------------------------------------------------
# U(gamma) = H_3(C) + C^3 and its identification with H_3(C(gamma)).
# ---------------------------------------------------------------------------


@cache
def _cayley_u_tables(gammas: tuple) -> tuple[Table, Table, Table]:
    """U(gamma)'s three bilinear maps on rows v, w in C^3, as tables over Q
    off C's product terms, for (i, j, k) a cyclic shift of (0, 1, 2) and X's
    Hermitian picture (X_ii = c_i, X_jk = a_i, X_kj = a_i*): the row v X,
    sum_r v_r X_rs at s; v* w + w* v, the outer product v* v (n(v_i) at c_i,
    v_j* v_k at a_i) symmetrized, into H_3(C); and sum_i tr(v_i w_i*), twice
    the e_0-coordinate of each v_i w_i*, into one coordinate."""
    comp, weights, signs = _comp_terms(gammas)
    d = len(weights)
    vx = [(r * d + p, r, r * d + p, 1) for r in range(3) for p in range(d)]
    outer, trace = [], []
    for i in range(3):
        j, k, a = (i + 1) % 3, (i + 2) % 3, 3 + i * d
        vx += [(j * d + p, a + q, k * d + r, c) for p, q, r, c in comp]
        vx += [(k * d + p, a + q, j * d + r, signs[q] * c) for p, q, r, c in comp]
        outer += [(i * d + p, i * d + p, i, w) for p, w in enumerate(weights)]
        outer += [(j * d + p, k * d + q, a + r, signs[p] * c) for p, q, r, c in comp]
        trace += [(i * d + p, i * d + q, 0, 2 * signs[q] * c) for p, q, r, c in comp if r == 0]
    return (rational_table(vx, 3 * d), symmetrized(rational_table(outer, 3 * d, 3 + 3 * d)),
            rational_table(trace, 3 * d, 1))


class CayleyUCNS(CNS):
    """U(gamma) = H_3(C) + V_3(C) for associative C and gamma != 0:

        n((X, v))       = n(X) + gamma v X v*
        (X, v)#         = (X# + gamma v* v, -v X)
        (X, v) x (Y, w) = (X x Y + gamma (v* w + w* v), -v Y - w X)
        <(X,v),(Y,w)>   = (X, Y) - gamma sum_i tr(v_i w_i*),

    with v X v* = sum_i tr((v X)_i v_i*) / 2.  The maps v X, v* w + w* v
    and sum_i tr(v_i w_i*) are one table each (``_cayley_u_tables``), run on
    the slices of the numerators that hold X and v.
    Isomorphic to H_3(C(gamma)) via a_i -> (a_i(X), v_i), available as
    ``iso_to_doubled`` and ``iso_from_doubled``.
    """

    def __init__(self, comp: CompAlgebra, gamma):
        if not comp.is_associative:
            raise DescriptorError("U(gamma) needs an associative coordinate algebra")
        g = qq(gamma)
        if g == 0:
            raise DescriptorError("gamma must be nonzero")
        self.comp = comp
        self.gamma = g
        self.H = H3CNS(comp)
        self.base = comp.base
        self.dim = self.H.dim + 3 * comp.dim
        self.name = f"cayleyU({','.join(str(x) for x in comp.gammas)};{g})"
        self.doubled = H3CNS(cd_double(comp, g))
        self.has_mul = False
        self._vx, self._vw, self._trace = (flat_table(t, self.base)
                                           for t in _cayley_u_tables(comp.gammas))

    def split(self, x: CnsElt):
        hd, d = self.H.dim, self.comp.dim
        return x.block(self.H), tuple(x.block(self.comp, hd + i * d) for i in range(3))

    def join(self, X: CnsElt, v) -> CnsElt:
        return self.concat(X, *v)

    def _parts(self, x: CnsElt) -> tuple:
        """The numerators of X and of v in x = (X, v), both over x.den."""
        n = self.H._n
        return x.num[:n], x.num[n:]

    def _join_v(self, X: CnsElt, v: Sequence[int], den: int) -> CnsElt:
        """(X, v) for v's numerators over den."""
        return self.from_num([n * den for n in X.num] + [n * X.den for n in v], X.den * den)

    def norm(self, x):
        X, v = self._parts(x)
        vx, tr, d = self._vx, self._trace, x.den
        vxv = table_mul(tr, table_mul(vx, v, X), v)
        return (self.H.norm(x.block(self.H))
                + self.gamma * self.base.from_num(vxv, 2 * d * d * d * vx.den * tr.den))

    def adjoint(self, x):
        X, v = self._parts(x)
        d = x.den
        vv = self.H.from_num(table_mul(self._vw, v, v), 2 * d * d * self._vw.den)
        return self._join_v(self.H.adjoint(x.block(self.H)) + vv * self.gamma,
                            [-n for n in table_mul(self._vx, v, X)], d * d * self._vx.den)

    def cross(self, x, y):
        X, v = self._parts(x)
        Y, w = self._parts(y)
        d = x.den * y.den
        vw = self.H.from_num(table_mul(self._vw, v, w), d * self._vw.den)
        vx = [-a - b for a, b in zip(table_mul(self._vx, v, Y), table_mul(self._vx, w, X))]
        return self._join_v(self.H.cross(x.block(self.H), y.block(self.H)) + vw * self.gamma,
                            vx, d * self._vx.den)

    def pair(self, x, y):
        (X, v), (Y, w) = self._parts(x), self._parts(y)
        dot = self.base.from_num(table_mul(self._trace, v, w), x.den * y.den * self._trace.den)
        return self.H.pair(x.block(self.H), y.block(self.H)) - self.gamma * dot

    def one(self):
        z = self.comp.zero()
        return self.join(self.H.one(), (z, z, z))

    def iso_to_doubled(self, x: CnsElt) -> CnsElt:
        X, v = self.split(x)
        (c1, c2, c3), (a1, a2, a3) = self.H.split(X)
        D = self.doubled.comp
        return self.doubled.join((c1, c2, c3), tuple(map(D.concat, (a1, a2, a3), v)))

    def iso_from_doubled(self, y: CnsElt) -> CnsElt:
        cs, bs = self.doubled.split(y)
        C = self.comp
        X = self.H.join(cs, tuple(b.block(C) for b in bs))
        return self.join(X, tuple(b.block(C, C.dim) for b in bs))

    def special_combo(self, x, y, z):
        # an octonion H_3 has no special embedding: build no images for it
        if not self.doubled.comp.is_associative:
            return None
        c = self.doubled.special_combo(self.iso_to_doubled(x), self.iso_to_doubled(y),
                                       self.iso_to_doubled(z))
        return None if c is None else self.iso_from_doubled(c)

    def base_change(self, new_base):
        return CayleyUCNS(self.comp.base_change(new_base), self.gamma)

    def _key(self):
        return (self.comp.gammas, self.gamma, self.base)


# ---------------------------------------------------------------------------
# Named operation layer and the axiom suite.
# ---------------------------------------------------------------------------


def cns_axioms_check(J: CNS, trials: int = 100, seed: int = 0,
                     check_nondegenerate: bool = True) -> CheckReport:
    """Randomized verification of the cubic-norm-structure laws on J.

    Universal identities are checked on every instance; the ambient-algebra
    identities (U_x y = xyx and the five-term cross identity) only where a
    concrete special embedding exists.
    """
    rng = random.Random(seed)
    report = CheckReport(structure=J.name, trials=trials, seed=seed)
    one = J.one()
    report.check("N(1) = 1", J.norm(one) == J.base.one(), one)
    report.check("1# = 1", J.adjoint(one) == one, one)
    if check_nondegenerate and isinstance(J.base, RationalBase):
        basis = J.basis()
        gram = [[J.pair(a, b) for b in basis] for a in basis]
        report.check("pairing nondegenerate", det_fraction(gram) != 0, None)
    for _ in range(trials):
        x = J.random(rng)
        y = J.random(rng)
        z = J.random(rng)
        xs = J.adjoint(x)
        ys = J.adjoint(y)
        nx = J.norm(x)
        report.check("(x#)# = N(x) x", J.adjoint(xs) == x * nx, x)
        report.check("1 x x = (1,x) - x",
                     J.cross(one, x) == one * J.trace(x) - x, x)
        report.check("N(x+y) polarization",
                     J.norm(x + y) == nx + J.pair(xs, y) + J.pair(x, ys) + J.norm(y), (x, y))
        report.check("(x, x#) = 3N(x)", J.pair(x, xs) == 3 * nx, x)
        report.check("pairing symmetric", J.pair(x, y) == J.pair(y, x), (x, y))
        t1 = J.pair(x, J.cross(y, z))
        report.check("(x, y x z) symmetric",
                     t1 == J.pair(y, J.cross(x, z)) and t1 == J.pair(z, J.cross(x, y)),
                     (x, y, z))
        report.check("N(U_x y) = N(x)^2 N(y)",
                     J.norm(J.u_op(x, y)) == nx * nx * J.norm(y), (x, y))
        report.check("(x,y) = tr(x)tr(y) - (1,x,y)",
                     J.pair(x, y) == J.trace(x) * J.trace(y) - J.trilinear(one, x, y), (x, y))
        report.check("x x (x# x y) = n(x)y + (x,y)x#",
                     J.cross(x, J.cross(xs, y)) == y * nx + xs * J.pair(x, y), (x, y))
        report.check("x# x (x x y) = n(x)y + (x#,y)x",
                     J.cross(xs, J.cross(x, y)) == y * nx + x * J.pair(xs, y), (x, y))
        report.check("(x x y)# + x# x y# = (x,y#)x + (x#,y)y",
                     J.adjoint(J.cross(x, y)) + J.cross(xs, ys)
                     == x * J.pair(x, ys) + y * J.pair(xs, y), (x, y))
        combo = J.special_combo(y, x, z)
        if combo is not None:
            report.check("x x (y x z) five-term",
                         J.cross(x, J.cross(y, z))
                         == z * J.pair(x, y) + y * J.pair(x, z) - combo, (x, y, z))
        if J.has_mul:
            report.check("U_x y = xyx", J.u_op(x, y) == J.mul(J.mul(x, y), x), (x, y))
            report.check("x x# = N(x)", J.mul(x, xs) == one * nx, x)
    return report


# ---------------------------------------------------------------------------
# Tensor cross: the T-bilinear cross on J (x) T used by the J + J construction.
# ---------------------------------------------------------------------------


def tensor_cross(JT: CNS, JF: CNS, x: CnsElt, y: CnsElt) -> CnsElt:
    """x x_T y: the cross of J paired with the *cross of T* (not the product),
    i.e. (U (x) s) x_T (V (x) t) = (U x V) (x) (s x t), summed over the
    components of x and y along the T-basis (``Vec.component``)."""
    T = JT.base
    xs, ys = ([z.component(JF, a) for a in range(T.dim)] for z in (x, y))
    tb = T.basis()
    out = JT.zero()
    for a in range(T.dim):
        for b in range(T.dim):
            jc = JF.cross(xs[a], ys[b])
            if jc:
                out = out + JT.extend(jc) * T.cross(tb[a], tb[b])
    return out
