"""Cubic norm structures: the (norm, adjoint, pairing) interface, its instance
variants, base change, the axiom suite, and the Tits and Cayley-Dickson style
constructions that produce new instances from old ones.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .composition import CheckReport, CompAlgebra, CompElt, cd_double
from .matops import (
    mat,
    mat_add,
    mat_eq,
    mat_mul,
    mat_star,
    mat_transpose,
    row_times_mat,
    sum_prod,
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
    Vec,
    det_fraction,
    qq,
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

    def adjoint(self) -> "CnsElt":
        return self.J.adjoint(self)

    def conj(self) -> "CnsElt":
        return self.J.star(self)


class CNS(CoordSpace):
    """Abstract cubic norm structure over a base ring.

    Subclasses provide norm, adjoint, pairing, the unit, and (when the
    instance is an algebra) multiplication; everything else is derived.
    """

    element = CnsElt
    random_height = 2
    name = "cns"
    base = QQ_BASE
    dim = 0
    is_special = False
    has_mul = False

    # -- subclass surface ----------------------------------------------------

    def norm(self, x: CnsElt):
        raise NotImplementedError

    def adjoint(self, x: CnsElt) -> CnsElt:
        raise NotImplementedError

    def pair(self, x: CnsElt, y: CnsElt):
        raise NotImplementedError

    def one(self) -> CnsElt:
        raise NotImplementedError

    def mul(self, x: CnsElt, y: CnsElt) -> CnsElt:
        raise DescriptorError(f"{self.name} is not an associative algebra")

    def star(self, x: CnsElt) -> CnsElt:
        raise DescriptorError(f"{self.name} carries no involution")

    def base_change(self, new_base) -> "CNS":
        raise NotImplementedError

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

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return (self.name, self.base)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, base={self.base!r})"


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


class TrivialCNS(CNS):
    """J = F with N(x) = x^3, x# = x^2, (x, y) = 3xy."""

    is_special = True
    has_mul = True

    def __init__(self, base=QQ_BASE):
        self.base = base
        self.dim = 1
        self.name = "trivial"

    def norm(self, x):
        (a,) = x.coords
        return a * a * a

    def adjoint(self, x):
        (a,) = x.coords
        return CnsElt(self, (a * a,))

    def pair(self, x, y):
        return 3 * (x.coords[0] * y.coords[0])

    def one(self):
        return CnsElt(self, (self.base.one(),))

    def mul(self, x, y):
        return CnsElt(self, (x.coords[0] * y.coords[0],))

    def base_change(self, new_base):
        return TrivialCNS(new_base)

    def _key(self):
        return ("trivial", self.base)


class ProductCNS(CNS):
    """J = F x C for an associative composition algebra C.

    N((a, x)) = a n_C(x), (a, x)# = (n_C(x), a x*), pairing = a b + tr(x y*).
    C = F gives the split rank-two structure with N(a, x) = a x^2.
    """

    is_special = True
    has_mul = True

    def __init__(self, comp: CompAlgebra):
        if not comp.is_associative:
            raise DescriptorError("F x C needs an associative composition algebra")
        self.comp = comp
        self.base = comp.base
        self.dim = 1 + comp.dim
        self.name = f"FxC({','.join(str(g) for g in comp.gammas)})"

    def _split(self, x):
        return x.coords[0], CompElt(self.comp, x.coords[1:])

    def _join(self, a, c: CompElt) -> CnsElt:
        return CnsElt(self, (a,) + c.coords)

    def norm(self, x):
        a, c = self._split(x)
        return a * c.norm()

    def adjoint(self, x):
        a, c = self._split(x)
        return self._join(c.norm(), c.conj() * a)

    def pair(self, x, y):
        # (a, x), (b, y) -> ab + tr(xy); the plain product (no conjugate)
        # is what makes (u, u#) = 3N(u) and the norm polarization hold.
        a, c = self._split(x)
        b, d = self._split(y)
        return a * b + (c * d).trace()

    def one(self):
        return self._join(self.base.one(), self.comp.one())

    def mul(self, x, y):
        a, c = self._split(x)
        b, d = self._split(y)
        return self._join(a * b, c * d)

    def base_change(self, new_base):
        return ProductCNS(self.comp.base_change(new_base))

    def _key(self):
        return (self.comp.gammas, self.base)


class CubicRingCNS(CNS):
    """A commutative cubic algebra as a cubic norm structure: N is the norm
    of the regular representation, x# = x^2 - s1 x + s2, (x, y) = tr(xy)."""

    is_special = True
    has_mul = True

    def __init__(self, alg: CommAlgebra):
        if alg.dim != 3:
            raise DescriptorError("cubic ring must have rank 3")
        self.alg = alg
        self.base = alg.base
        self.dim = 3
        self.name = f"cubicring({alg.name})"

    def _wrap(self, u: AlgElem) -> CnsElt:
        return CnsElt(self, u.coords)

    def _unwrap(self, x: CnsElt) -> AlgElem:
        return AlgElem(self.alg, x.coords)

    def norm(self, x):
        return self.alg.norm(self._unwrap(x))

    def adjoint(self, x):
        return self._wrap(self.alg.adjoint(self._unwrap(x)))

    def pair(self, x, y):
        return self.alg.trace(self._unwrap(x) * self._unwrap(y))

    def one(self):
        return self._wrap(self.alg.one())

    def mul(self, x, y):
        return self._wrap(self._unwrap(x) * self._unwrap(y))

    def base_change(self, new_base):
        return CubicRingCNS(self.alg.base_change(new_base))

    def _key(self):
        return (self.alg.table, self.base)


class Matrix3CNS(CNS):
    """M_3 over the base with N = det, # = adjugate, (x, y) = tr(xy)."""

    is_special = True
    has_mul = True

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

    def adjoint(self, x):
        m = self.to_matrix(x)

        def cof(i, j):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            v = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            return v if (i + j) % 2 == 0 else -v

        adj = [[cof(j, i) for j in range(3)] for i in range(3)]
        return self.from_matrix(mat(adj))

    def pair(self, x, y):
        """tr(xy) = sum of x_ij y_ji over i, j."""
        a, b = x.coords, y.coords
        return sum_prod(a, (b[0], b[3], b[6], b[1], b[4], b[7], b[2], b[5], b[8]))

    def one(self):
        z, o = self.base.zero(), self.base.one()
        return CnsElt(self, (o, z, z, z, o, z, z, z, o))

    def mul(self, x, y):
        return self.from_matrix(mat_mul(self.to_matrix(x), self.to_matrix(y)))

    def transpose(self, x: CnsElt) -> CnsElt:
        m = self.to_matrix(x)
        return self.from_matrix(mat_transpose(m))

    def base_change(self, new_base):
        return Matrix3CNS(new_base)

    def _key(self):
        return ("matrix3", self.base)


class H3CNS(CNS):
    """Hermitian 3 x 3 matrices over a composition algebra C.

    Coordinates are (c1, c2, c3, a1, a2, a3) with the matrix picture

        [ c1   a3   a2* ]
        [ a3*  c2   a1  ]
        [ a2   a1*  c3  ].

    Special (with ambient M_3(C)) exactly when C is associative.
    """

    def __init__(self, comp: CompAlgebra):
        self.comp = comp
        self.base = comp.base
        self.dim = 3 + 3 * comp.dim
        self.name = f"h3({','.join(str(g) for g in comp.gammas)})"
        self.is_special = comp.is_associative
        self.has_mul = False

    def split(self, x: CnsElt):
        d = self.comp.dim
        c1, c2, c3 = x.coords[0], x.coords[1], x.coords[2]
        a1 = CompElt(self.comp, x.coords[3:3 + d])
        a2 = CompElt(self.comp, x.coords[3 + d:3 + 2 * d])
        a3 = CompElt(self.comp, x.coords[3 + 2 * d:3 + 3 * d])
        return (c1, c2, c3), (a1, a2, a3)

    def join(self, cs, As) -> CnsElt:
        diag = tuple(self.base.coerce(c) for c in cs)
        return CnsElt(self, diag + As[0].coords + As[1].coords + As[2].coords)

    def norm(self, x):
        (c1, c2, c3), (a1, a2, a3) = self.split(x)
        return (c1 * c2 * c3 - c1 * a1.norm() - c2 * a2.norm() - c3 * a3.norm()
                + _tr_triple(a1, a2, a3))

    def adjoint(self, x):
        (c1, c2, c3), (a1, a2, a3) = self.split(x)
        d1 = c2 * c3 - a1.norm()
        d2 = c1 * c3 - a2.norm()
        d3 = c1 * c2 - a3.norm()
        b1 = a3.conj() * a2.conj() - a1 * c1
        b2 = a1.conj() * a3.conj() - a2 * c2
        b3 = a2.conj() * a1.conj() - a3 * c3
        return self.join((d1, d2, d3), (b1, b2, b3))

    def pair(self, x, y):
        (c1, c2, c3), (a1, a2, a3) = self.split(x)
        (e1, e2, e3), (b1, b2, b3) = self.split(y)
        acc = c1 * e1 + c2 * e2 + c3 * e3
        for a, b in ((a1, b1), (a2, b2), (a3, b3)):
            acc = acc + (a.conj() * b).trace()
        return acc

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
        cs = (m[0][0].coords[0], m[1][1].coords[0], m[2][2].coords[0])
        return self.join(cs, (m[1][2], m[2][0], m[0][1]))

    def is_hermitian_matrix(self, m) -> bool:
        return mat_eq(m, mat_star(m, lambda v: v.conj()))

    def special_combo(self, x, y, z):
        if not self.comp.is_associative:
            return None
        mx, my, mz = self.to_matrix(x), self.to_matrix(y), self.to_matrix(z)
        return self.from_matrix(_sym_triple(mx, my, mz))

    def mul(self, x, y):
        raise DescriptorError("H3 products live in M_3(C); use to_matrix")

    def base_change(self, new_base):
        return H3CNS(self.comp.base_change(new_base))

    def _key(self):
        return (self.comp.gammas, self.base)


def _sym_triple(mx, my, mz):
    """x y z + z y x as matrices (Hermitian when x, y, z are)."""
    a = mat_mul(mat_mul(mx, my), mz)
    b = mat_mul(mat_mul(mz, my), mx)
    return mat_add(a, b)


def _tr_triple(a1: CompElt, a2: CompElt, a3: CompElt):
    """tr_C(a1 a2 a3), bracketed (a1 a2) a3 (trace-associative either way)."""
    return ((a1 * a2) * a3).trace()


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

    def conj_K(self, k: AlgElem) -> AlgElem:
        return self.K.conj(k)

    def tr_KF(self, k: AlgElem):
        return self.K.trace(k)

    def star(self, b: CnsElt) -> CnsElt:
        if self.kind == "matrix":
            m = self.B.to_matrix(b)
            return self.B.from_matrix(mat_star(m, lambda e: e.conj()))
        return CnsElt(self.B, tuple(c.conj() for c in b.coords))

    def embed(self, j: CnsElt) -> CnsElt:
        if self.kind == "matrix":
            (c1, c2, c3), (a1, a2, a3) = self.J.split(j)

            def lift(ce: CompElt) -> AlgElem:
                return AlgElem(self.K, ce.coords)

            def lifts(s) -> AlgElem:
                return self.K.scalar_mul_one(s)

            m = mat([
                (lifts(c1), lift(a3), lift(a2.conj())),
                (lift(a3.conj()), lifts(c2), lift(a1)),
                (lift(a2), lift(a1.conj()), lifts(c3)),
            ])
            return self.B.from_matrix(m)
        return CnsElt(self.B, tuple(self.K.scalar_mul_one(c) for c in j.coords))

    def project(self, b: CnsElt) -> CnsElt:
        """Inverse of embed on star-fixed elements."""
        if not (self.star(b) == b):
            raise PreconditionError("element is not fixed by the involution")
        if self.kind == "matrix":
            m = self.B.to_matrix(b)
            comp = self.J.comp

            def drop(k: AlgElem) -> CompElt:
                return CompElt(comp, k.coords)

            def drops(k: AlgElem):
                return k.coords[0]

            cs = (drops(m[0][0]), drops(m[1][1]), drops(m[2][2]))
            return self.J.join(cs, (drop(m[1][2]), drop(m[2][0]), drop(m[0][1])))
        return CnsElt(self.J, tuple(c.coords[0] for c in b.coords))

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
        self.is_special = sk.kind == "tensor"
        self.has_mul = False

    # coordinate plumbing ----------------------------------------------------

    def split(self, x: CnsElt):
        jdim = self.sk.J.dim
        X = CnsElt(self.sk.J, x.coords[:jdim])
        rest = x.coords[jdim:]
        kd = self.sk.K.dim
        bcoords = []
        for i in range(self.sk.B.dim):
            bcoords.append(AlgElem(self.sk.K, rest[i * kd:(i + 1) * kd]))
        alpha = CnsElt(self.sk.B, tuple(bcoords))
        return X, alpha

    def join(self, X: CnsElt, alpha: CnsElt) -> CnsElt:
        flat = []
        for c in alpha.coords:
            flat.extend(c.coords)
        return CnsElt(self, X.coords + tuple(flat))

    # the three structure maps ------------------------------------------------

    def _asa(self, alpha: CnsElt, beta: CnsElt) -> CnsElt:
        """alpha S beta* computed in B."""
        B = self.sk.B
        return B.mul(B.mul(alpha, self.S_B), self.sk.star(beta))

    def norm(self, x):
        X, alpha = self.split(x)
        J, sk = self.sk.J, self.sk
        aSa = sk.project(self._asa(alpha, alpha))
        return (J.norm(X) - J.pair(X, aSa)
                + sk.tr_KF(self.lam * sk.B.norm(alpha)))

    def adjoint(self, x):
        X, alpha = self.split(x)
        J, sk, B = self.sk.J, self.sk, self.sk.B
        first = J.adjoint(X) - sk.project(self._asa(alpha, alpha))
        second = (-B.mul(sk.embed(X), alpha)
                  + B.mul(B.adjoint(sk.star(alpha)), self.Ssharp_B) * self.lam_inv)
        return self.join(first, second)

    def pair(self, x, y):
        X, alpha = self.split(x)
        Y, beta = self.split(y)
        J, sk = self.sk.J, self.sk
        z = sk.project(self._asa(alpha, beta) + self._asa(beta, alpha))
        return J.pair(X, Y) + J.trace(z)

    def one(self):
        return self.join(self.sk.J.one(), self.sk.B.zero())

    def base_change(self, new_base):
        sk2 = self.sk.base_change(new_base)
        S2 = CnsElt(sk2.J, tuple(new_base.coerce(c) for c in self.S.coords))
        lam2 = AlgElem(sk2.K, tuple(new_base.coerce(c) for c in self.lam.coords))
        return TitsUCNS(sk2, S2, lam2)

    def _key(self):
        return (self.name, self.S.coords, self.lam.coords, self.base, self.sk.K.table)


# ---------------------------------------------------------------------------
# U(gamma) = H_3(C) + C^3 and its identification with H_3(C(gamma)).
# ---------------------------------------------------------------------------


class CayleyUCNS(CNS):
    """U(gamma) = H_3(C) + V_3(C) for associative C and gamma != 0:

        n((X, v))      = n(X) + gamma v X v*
        (X, v)#        = (X# + gamma v* v, -v X)
        <(X,v),(Y,w)>  = (X, Y) - gamma (v, w).

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
        self.is_special = self.doubled.comp.is_associative
        self.has_mul = False

    def split(self, x: CnsElt):
        hd = self.H.dim
        X = CnsElt(self.H, x.coords[:hd])
        rest = x.coords[hd:]
        d = self.comp.dim
        v = tuple(CompElt(self.comp, rest[i * d:(i + 1) * d]) for i in range(3))
        return X, v

    def join(self, X: CnsElt, v) -> CnsElt:
        return CnsElt(self, X.coords + v[0].coords + v[1].coords + v[2].coords)

    def _vxv(self, v, X: CnsElt):
        """v X v* as a base scalar."""
        row = row_times_mat(v, self.H.to_matrix(X))
        return sum_prod(row, tuple(vi.conj() for vi in v)).coords[0]

    def norm(self, x):
        X, v = self.split(x)
        return self.H.norm(X) + self.gamma * self._vxv(v, X)

    def adjoint(self, x):
        X, v = self.split(x)
        vstarv = self._outer(v)
        first = self.H.adjoint(X) + vstarv * self.gamma
        mv = tuple(-x for x in row_times_mat(v, self.H.to_matrix(X)))
        return self.join(first, mv)

    def _outer(self, v) -> CnsElt:
        """v* v as a Hermitian element (v a row triple)."""
        cs = (v[0].norm(), v[1].norm(), v[2].norm())
        a1 = v[1].conj() * v[2]
        a2 = v[2].conj() * v[0]
        a3 = v[0].conj() * v[1]
        return self.H.join(cs, (a1, a2, a3))

    def pair(self, x, y):
        X, v = self.split(x)
        Y, w = self.split(y)
        acc = self.H.pair(X, Y)
        dot = self.base.zero()
        for a, b in zip(v, w):
            dot = dot + (a * b.conj()).trace()
        return acc - self.gamma * dot

    def one(self):
        z = self.comp.zero()
        return self.join(self.H.one(), (z, z, z))

    def iso_to_doubled(self, x: CnsElt) -> CnsElt:
        X, v = self.split(x)
        (c1, c2, c3), (a1, a2, a3) = self.H.split(X)
        D = self.doubled.comp
        b1 = CompElt(D, a1.coords + v[0].coords)
        b2 = CompElt(D, a2.coords + v[1].coords)
        b3 = CompElt(D, a3.coords + v[2].coords)
        return self.doubled.join((c1, c2, c3), (b1, b2, b3))

    def iso_from_doubled(self, y: CnsElt) -> CnsElt:
        (c1, c2, c3), (b1, b2, b3) = self.doubled.split(y)
        d = self.comp.dim
        X = self.H.join((c1, c2, c3), (CompElt(self.comp, b1.coords[:d]),
                                       CompElt(self.comp, b2.coords[:d]),
                                       CompElt(self.comp, b3.coords[:d])))
        v = tuple(CompElt(self.comp, b.coords[d:]) for b in (b1, b2, b3))
        return self.join(X, v)

    def special_combo(self, x, y, z):
        if not self.is_special:
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
        if J.is_special:
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


def decompose_over_base(JT: CNS, JF: CNS, x: CnsElt) -> list[CnsElt]:
    """Write x in J (x) T as sum x_alpha (x) t_alpha over the T-basis,
    returning the list of J-over-F components x_alpha."""
    alg = JT.base
    if not isinstance(alg, CommAlgebra):
        raise DescriptorError("element is not base-changed")
    comps = []
    for a in range(alg.dim):
        comps.append(CnsElt(JF, tuple(c.coords[a] for c in x.coords)))
    return comps

def compose_over_base(JT: CNS, comps: Sequence[CnsElt]) -> CnsElt:
    alg = JT.base
    coords = []
    for i in range(JT.dim):
        coords.append(AlgElem(alg, tuple(c.coords[i] for c in comps)))
    return CnsElt(JT, tuple(coords))


def tensor_cross(JT: CNS, JF: CNS, x: CnsElt, y: CnsElt) -> CnsElt:
    """x x_T y: the cross of J paired with the *cross of T* (not the product),
    i.e. (U (x) s) x_T (V (x) t) = (U x V) (x) (s x t)."""
    alg = JT.base
    xs = decompose_over_base(JT, JF, x)
    ys = decompose_over_base(JT, JF, y)
    tb = alg.basis()
    tcross = [[alg.cross(tb[a], tb[b]) for b in range(alg.dim)] for a in range(alg.dim)]
    out = JT.zero()
    for a in range(alg.dim):
        for b in range(alg.dim):
            jc = JF.cross(xs[a], ys[b])
            if jc.is_zero():
                continue
            out = out + _scale_by_alg(JT, jc, tcross[a][b])
    return out


def _scale_by_alg(JT: CNS, x: CnsElt, t: AlgElem) -> CnsElt:
    """(x over F) tensor (t in T) as an element of J (x) T."""
    alg = JT.base
    return CnsElt(JT, tuple(AlgElem(alg, tuple(c * tc for tc in t.coords))
                            for c in x.coords))
