"""The Freudenthal space W_J = F + J + J + F over a cubic norm structure J:
symplectic pairing, quartic form, the cubic "flat" map and its trilinear
polarization, rank stratification, the standard similitude operators, and
(for associative coordinates) the 2x2 matrix R(v)/S(v), the shriek maps,
the two-sided GL_2(A)-action through the symmetrized tensor-cube model,
the degree-6 determinant, and the unit-class invariant of rank-one elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, product, repeat
from typing import Iterator, Optional

from .cns import CNS, CnsElt, H3CNS
from .matops import (
    mat_mul,
    mat_smul,
    mat_star,
    mat_sub,
    mat_times_col,
    mat_transpose,
    row_times_mat,
)
from .scalars import (
    HALF,
    THIRD,
    DescriptorError,
    DirectSum,
    PreconditionError,
    map_solve,
    search_stream,
    witness_search,
)

SIXTH = Fraction(1, 6)


class WElt:
    """Element (a, b, c, d) of W_J with a, d base scalars and b, c in J."""

    __slots__ = ("W", "a", "b", "c", "d")

    def __init__(self, W: "WSpace", a, b: CnsElt, c: CnsElt, d):
        self.W = W
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __add__(self, other: "WElt") -> "WElt":
        if not isinstance(other, WElt) or other.W != self.W:
            return NotImplemented
        return WElt(self.W, self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "WElt") -> "WElt":
        if not isinstance(other, WElt) or other.W != self.W:
            return NotImplemented
        return WElt(self.W, self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self) -> "WElt":
        return WElt(self.W, -self.a, -self.b, -self.c, -self.d)

    def __mul__(self, s) -> "WElt":
        return WElt(self.W, self.a * s, self.b * s, self.c * s, self.d * s)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, WElt) or other.W != self.W:
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self) -> int:
        return hash(("w", self.a, self.b.coords, self.c.coords, self.d))

    def __repr__(self) -> str:
        return f"WElt(a={self.a}, b={list(self.b.coords)}, c={list(self.c.coords)}, d={self.d})"

    def is_zero(self) -> bool:
        is0 = self.W.base.is_zero
        return is0(self.a) and self.b.is_zero() and self.c.is_zero() and is0(self.d)

    def coords(self) -> tuple:
        return (self.a,) + self.b.coords + self.c.coords + (self.d,)


class _VvPart:
    """The part of x -> t(v, v, x) that depends on v alone: b#, c#, (b, c),
    s = ad - (b, c), b## and c##."""

    __slots__ = ("J", "bs", "cs", "bss", "css", "pbc", "s")

    def __init__(self, J: CNS, v: WElt):
        self.J = J
        self.bs, self.cs = J.adjoint(v.b), J.adjoint(v.c)
        self.bss, self.css = J.adjoint(self.bs), J.adjoint(self.cs)
        self.pbc = J.pair(v.b, v.c)
        self.s = v.a * v.d - self.pbc

    def cross(self, y: CnsElt, ys: CnsElt, z: CnsElt, zs: Optional[CnsElt] = None) -> CnsElt:
        """y x z = (y + z)# - y# - z# from the known y# (and z#, computed
        when not given): one adjoint, or two."""
        J = self.J
        return J.adjoint(y + z) - ys - (J.adjoint(z) if zs is None else zs)


class WSpace:
    """W_J for a cubic norm structure J (possibly base-changed)."""

    def __init__(self, J: CNS):
        self.J = J
        self.base = J.base
        self.dim = 2 + 2 * J.dim

    def elem(self, a, b, c, d) -> WElt:
        bb = b if isinstance(b, CnsElt) else self.J.elem(b)
        cc = c if isinstance(c, CnsElt) else self.J.elem(c)
        if bb.J != self.J or cc.J != self.J:
            raise DescriptorError("W element components from a different structure")
        return WElt(self, self.base.coerce(a), bb, cc, self.base.coerce(d))

    def zero(self) -> WElt:
        return self.elem(0, self.J.zero(), self.J.zero(), 0)

    def basis(self) -> list[WElt]:
        out = [self.elem(1, self.J.zero(), self.J.zero(), 0)]
        for e in self.J.basis():
            out.append(self.elem(0, e, self.J.zero(), 0))
        for e in self.J.basis():
            out.append(self.elem(0, self.J.zero(), e, 0))
        out.append(self.elem(0, self.J.zero(), self.J.zero(), 1))
        return out

    def random(self, rng, height: int = 2, integral: bool = True) -> WElt:
        return WElt(self, self.base.random(rng, height, integral),
                    self.J.random(rng, height, integral),
                    self.J.random(rng, height, integral),
                    self.base.random(rng, height, integral))

    # -- the four basic forms -------------------------------------------------

    def pair(self, v: WElt, w: WElt):
        J = self.J
        return (v.a * w.d - J.pair(v.b, w.c) + J.pair(v.c, w.b) - v.d * w.a)

    def quartic(self, v: WElt):
        J = self.J
        s = v.a * v.d - J.pair(v.b, v.c)
        return (s * s + 4 * (v.a * J.norm(v.c)) + 4 * (v.d * J.norm(v.b))
                - 4 * J.pair(J.adjoint(v.b), J.adjoint(v.c)))

    def flat(self, v: WElt) -> WElt:
        J = self.J
        a, b, c, d = v.a, v.b, v.c, v.d
        bs, cs = J.adjoint(b), J.adjoint(c)
        pbc = J.pair(b, c)
        s = a * d - pbc
        fa = -(a * a * d) + a * pbc - 2 * J.norm(b)
        fb = J.cross(c, bs) * (-2) + cs * (2 * a) - b * s
        fc = J.cross(b, cs) * 2 - bs * (2 * d) + c * s
        fd = a * d * d - d * pbc + 2 * J.norm(c)
        return WElt(self, fa, fb, fc, fd)

    def trilinear(self, x: WElt, y: WElt, z: WElt) -> WElt:
        """t(x, y, z): symmetric, t(v,v,v) = flat(v), computed by exact
        polarization of the flat map."""
        f = self.flat
        acc = f(x + y + z) - f(x + y) - f(x + z) - f(y + z) + f(x) + f(y) + f(z)
        return acc * SIXTH

    def t_vvx(self, v: WElt, x: WElt, part: Optional[_VvPart] = None,
              adjoints: tuple = (None, None)) -> WElt:
        """t(v, v, x) = d flat(v)[x] / 3, by the product rule on the four
        components of flat with d(b#)[b'] = b x b' and dN(b)[b'] = (b#, b').
        The terms of a zero component of x are skipped, so a basis vector
        costs one of the four branches.  Every cross is (y + z)# - y# - z#
        with the adjoints that depend on v alone read off ``part`` (built
        here when not given; ``t_vv_basis`` builds it once per v), and
        ``adjoints`` may hold x.b# and x.c# where they are known."""
        J = self.J
        a, b, c, d = v.a, v.b, v.c, v.d
        vv = _VvPart(J, v) if part is None else part
        bs, cs, pbc, s = vv.bs, vv.cs, vv.pbc, vv.s
        ta, td = self.base.zero(), self.base.zero()
        tb, tc = J.zero(), J.zero()
        is0 = self.base.is_zero
        if not is0(x.a):
            p = x.a
            ta = ta + p * (pbc - 2 * (a * d))
            tb = tb + cs * (2 * p) - b * (p * d)
            tc = tc + c * (p * d)
            td = td + p * d * d
        if not x.b.is_zero():
            y = x.b
            ys = J.adjoint(y) if adjoints[0] is None else adjoints[0]
            dp = J.pair(y, c)
            bxy = vv.cross(b, bs, y, ys)
            ta = ta + a * dp - 2 * J.pair(bs, y)
            tb = tb + b * dp - vv.cross(c, cs, bxy) * 2 - y * s
            tc = tc + vv.cross(y, ys, cs, vv.css) * 2 - bxy * (2 * d) - c * dp
            td = td - d * dp
        if not x.c.is_zero():
            z = x.c
            zs = J.adjoint(z) if adjoints[1] is None else adjoints[1]
            dp = J.pair(b, z)
            cxz = vv.cross(c, cs, z, zs)
            ta = ta + a * dp
            tb = tb + b * dp - vv.cross(z, zs, bs, vv.bss) * 2 + cxz * (2 * a)
            tc = tc + vv.cross(b, bs, cxz) * 2 - c * dp + z * s
            td = td + 2 * J.pair(cs, z) - d * dp
        if not is0(x.d):
            q = x.d
            ta = ta - a * a * q
            tb = tb - b * (a * q)
            tc = tc + c * (a * q) - bs * (2 * q)
            td = td + q * (2 * (a * d) - pbc)
        return WElt(self, ta * THIRD, tb * THIRD, tc * THIRD, td * THIRD)

    def t_vv_basis(self, v: WElt) -> Iterator[tuple[WElt, WElt]]:
        """(x, t(v, v, x)) for x along ``basis()``, lazily.  The part of t
        that depends on v alone and the adjoints of J's basis are built
        once, so a direction along J costs four adjoints."""
        part = _VvPart(self.J, v)
        basis = self.basis()
        n = (len(basis) - 2) // 2
        adj = [self.J.adjoint(x.b) for x in basis[1:1 + n]]
        known = ([(None, None)] + [(es, None) for es in adj]
                 + [(None, es) for es in adj] + [(None, None)])
        for x, adjoints in zip(basis, known):
            yield x, self.t_vvx(v, x, part, adjoints)

    # -- rank ------------------------------------------------------------------

    def rank(self, v: WElt) -> int:
        if v.is_zero():
            return 0
        if self.is_rank_le1(v):
            return 1
        if self.flat(v).is_zero():
            return 2
        if self.base.is_zero(self.quartic(v)):
            return 3
        return 4

    def is_rank_le1(self, v: WElt) -> bool:
        """Rank <= 1 test.  Necessary conditions b# = ac, c# = db, (b,c) = 3ad
        reject fast; they are sufficient when a or d is a unit, and the full
        t(v,v,w) proportionality test decides the rest."""
        J = self.J
        if not (J.adjoint(v.b) == v.c * v.a):
            return False
        if not (J.adjoint(v.c) == v.b * v.d):
            return False
        if not (J.pair(v.b, v.c) == 3 * (v.a * v.d)):
            return False
        if self.base.is_unit(v.a) or self.base.is_unit(v.d):
            return True
        vc = v.coords()
        return all(_proportional(self.base, t.coords(), vc) for _, t in self.t_vv_basis(v))

    def __eq__(self, other) -> bool:
        return isinstance(other, WSpace) and other.J == self.J

    def __hash__(self) -> int:
        return hash(("W", self.J))

    def __repr__(self) -> str:
        return f"WSpace({self.J.name})"


def _proportional(base, t: tuple, v: tuple) -> bool:
    """t in (base) * v, decided coordinatewise (2x2 minors when no coordinate
    of v is a unit; exact over fields, componentwise over etale bases)."""
    for i, vi in enumerate(v):
        if base.is_unit(vi):
            lam = t[i] * base.inv(vi)
            return all(tj == vj * lam for tj, vj in zip(t, v))
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if not (t[i] * v[j] == t[j] * v[i]):
                return False
    return True


# ---------------------------------------------------------------------------
# Similitude operators (the H(W_J) generators).
# ---------------------------------------------------------------------------


@dataclass
class HOperator:
    """One of the similitude generators acting on W_J.

    kind: "nj" (payload X in J), "nbarj" (payload Y in J), "m" (payload a
    unit scalar), "wj" (no payload), or "mgen" with payload either
    ("assoc", u, v) for L(u, v) on an associative instance or
    ("herm", mu, m) for X -> mu m X m* on a Hermitian instance.
    """

    kind: str
    payload: tuple = ()

    def similitude(self, W: WSpace):
        if self.kind in ("nj", "nbarj", "wj"):
            return W.base.coerce(1)
        if self.kind == "m":
            return self.payload[0]
        if self.kind == "mgen":
            alpha, _, _, delta = _mgen_maps(W, self.payload)
            return alpha * delta
        raise DescriptorError(f"unknown operator kind {self.kind!r}")


def h_apply(op: HOperator, v: WElt) -> WElt:
    W = v.W
    J = W.J
    a, b, c, d = v.a, v.b, v.c, v.d
    if op.kind == "nj":
        (X,) = op.payload
        Xs = J.adjoint(X)
        return WElt(W, a,
                    b + X * a,
                    c + J.cross(b, X) + Xs * a,
                    d + J.pair(c, X) + J.pair(b, Xs) + a * J.norm(X))
    if op.kind == "nbarj":
        (Y,) = op.payload
        Ys = J.adjoint(Y)
        return WElt(W,
                    a + J.pair(b, Y) + J.pair(c, Ys) + d * J.norm(Y),
                    b + J.cross(c, Y) + Ys * d,
                    c + Y * d,
                    d)
    if op.kind == "m":
        (lam,) = op.payload
        lam_inv = W.base.inv(W.base.coerce(lam))
        return WElt(W, a * lam * lam, b * lam, c, d * lam_inv)
    if op.kind == "wj":
        return WElt(W, d, -c, b, -a)
    if op.kind == "mgen":
        alpha, t, t_dual, delta = _mgen_maps(W, op.payload)
        return WElt(W, a * alpha, t(b), t_dual(c), d * delta)
    raise DescriptorError(f"unknown operator kind {op.kind!r}")


def _mgen_maps(W: WSpace, payload):
    """(alpha, t, t_dual, delta) for a norm-similitude pair on J."""
    J = W.J
    shape = payload[0]
    if shape == "assoc":
        _, u, vv = payload
        if not J.has_mul:
            raise PreconditionError("L(u, v) needs an associative instance")
        nu, nv = J.norm(u), J.norm(vv)
        if not (W.base.is_unit(nu) and W.base.is_unit(nv)):
            raise PreconditionError("L(u, v) needs invertible u, v")
        us, vs = J.adjoint(u), J.adjoint(vv)

        def t(b):
            return J.mul(J.mul(vv, b), us)

        def t_dual(c):
            return J.mul(J.mul(u, c), vs)

        return nu, t, t_dual, nv
    if shape == "herm":
        _, mu, m = payload
        if not isinstance(J, H3CNS) or not J.comp.is_associative:
            raise PreconditionError("(mu, m) payload needs a Hermitian instance "
                                    "with associative coordinates")
        mstar = mat_star(m, lambda e: e.conj())
        nm = J.norm(J.from_matrix(mat_mul(m, mstar)))
        if not W.base.is_unit(nm):
            raise PreconditionError("m must be invertible")
        minv = m3c_inverse(J, m)
        minv_star = mat_star(minv, lambda e: e.conj())
        nm_inv = W.base.inv(nm)
        mu_q = W.base.coerce(mu)

        def t(b):
            return J.from_matrix(mat_mul(mat_mul(m, J.to_matrix(b)), mstar)) * mu_q

        def t_dual(c):
            return J.from_matrix(mat_mul(mat_mul(minv_star, J.to_matrix(c)), minv)) * mu_q

        return mu_q * nm, t, t_dual, mu_q * nm_inv
    raise DescriptorError(f"unknown mgen payload {shape!r}")


def m3c_inverse(J: H3CNS, m):
    """Inverse of a 3x3 matrix over the associative composition algebra of J:
    column t of the inverse solves m x = e_t over Q.  The unknowns are the
    rational coordinates of x along the products of the C-basis with the
    base's Q-basis, so base-changed coordinates solve too."""
    comp = J.comp
    C3 = DirectSum(comp, comp, comp)
    cols = [map_solve(partial(mat_times_col, m), C3, C3,
                      tuple(comp.one() if i == t else comp.zero() for i in range(3)))
            for t in range(3)]
    if None in cols:
        raise PreconditionError("matrix is not invertible")
    return mat_transpose(cols)


# ---------------------------------------------------------------------------
# The associative theory: R(v), S(v), shrieks, GL_2(A), det_6, lambda.
# ---------------------------------------------------------------------------


def s_of(W: WSpace, v: WElt):
    """S(v) as a 2x2 matrix with entries in the (associative) instance:
    [[b# - ac, ad - cb - tr(ad-cb)/2], [ad - bc - tr(ad-bc)/2, c# - db]],
    where tr is the structure trace, so tr(ad - cb) = 3ad - (b, c)."""
    J = W.J
    if not J.has_mul:
        raise DescriptorError("S(v) needs associative coordinates; "
                              "use s_of_h3 for Hermitian instances")
    a, b, c, d = v.a, v.b, v.c, v.d
    one = J.one()
    pbc = J.pair(b, c)
    ad = a * d
    s11 = J.adjoint(b) - c * a
    s22 = J.adjoint(c) - b * d
    off = one * (pbc * HALF - ad * HALF)
    s12 = off - J.mul(c, b)
    s21 = off - J.mul(b, c)
    return ((s11, s12), (s21, s22))


def r_of(W: WSpace, v: WElt):
    """R(v) = 2 S(v) [[0,1],[-1,0]]; satisfies R(v)^2 = q(v)."""
    (s11, s12), (s21, s22) = s_of(W, v)
    return ((s12 * (-2), s11 * 2), (s22 * (-2), s21 * 2))


def r_right(W: WSpace, v: WElt):
    """R_r(v) = J_2 R(v) J_2^{-1} (the row-action counterpart)."""
    (r11, r12), (r21, r22) = r_of(W, v)
    return ((r22, -r21), (-r12, r11))


def s_of_h3(W: WSpace, v: WElt):
    """S(v) for J = H_3(C) with associative C, as a 6x6 matrix over C."""
    J = W.J
    if not (isinstance(J, H3CNS) and J.comp.is_associative):
        raise DescriptorError("s_of_h3 needs a Hermitian instance with associative C")
    a, b, c, d = v.a, v.b, v.c, v.d
    comp = J.comp
    mb, mc = J.to_matrix(b), J.to_matrix(c)
    pbc = J.pair(b, c)
    sc = comp.from_scalar(pbc * HALF - (a * d) * HALF)
    off = [[sc if i == j else comp.zero() for j in range(3)] for i in range(3)]
    s11 = mat_sub(J.to_matrix(J.adjoint(b)), mat_smul(mc, a))
    s22 = mat_sub(J.to_matrix(J.adjoint(c)), mat_smul(mb, d))
    s12 = mat_sub(off, mat_mul(mc, mb))
    s21 = mat_sub(off, mat_mul(mb, mc))
    rows = []
    for i in range(3):
        rows.append(tuple(s11[i]) + tuple(s12[i]))
    for i in range(3):
        rows.append(tuple(s21[i]) + tuple(s22[i]))
    return tuple(rows)


def shriek_row(W: WSpace, ell) -> WElt:
    """(s, t)! = (n(s), s# t, t# s, n(t)) for a row pair over associative A."""
    J = W.J
    s, t = ell
    return WElt(W, J.norm(s), J.mul(J.adjoint(s), t), J.mul(J.adjoint(t), s), J.norm(t))


def shriek_col(W: WSpace, eta) -> WElt:
    """(u, v)^t ! = (n(u), v u#, u v#, n(v)) for a column pair."""
    J = W.J
    u, v = eta
    return WElt(W, J.norm(u), J.mul(v, J.adjoint(u)), J.mul(u, J.adjoint(v)), J.norm(v))


def _terms(W: WSpace, v: WElt):
    """v as a sum of eight symmetrized tensor cubes (coef, (x1, x2, x3)) of
    pairs over J; coef None stands for 1."""
    J = W.J
    z = J.zero()
    one = J.one()
    e = (one, z)
    f = (z, one)
    bf = (z, v.b)
    ce = (v.c, z)
    return [
        (v.a, (e, e, e)),
        (None, (bf, e, e)), (None, (e, bf, e)), (None, (e, e, bf)),
        (None, (ce, f, f)), (None, (f, ce, f)), (None, (f, f, ce)),
        (v.d, (f, f, f)),
    ]


def _project(W: WSpace, terms, side: str) -> WElt:
    """The element of W_J that a sum of symmetrized tensor cubes of column
    pairs (side "left") or row pairs (side "right") represents; a row pair
    multiplies in the reverse order."""
    J = W.J
    mul = J.mul if side == "left" else (lambda x, y: J.mul(y, x))
    a = W.base.zero()
    d = W.base.zero()
    b = J.zero()
    c = J.zero()
    for coef, (x1, x2, x3) in terms:
        u1, w1 = x1
        u2, w2 = x2
        u3, w3 = x3
        al = J.pair(J.cross(u1, u2), u3)
        de = J.pair(J.cross(w1, w2), w3)
        be = (mul(w1, J.cross(u2, u3)) + mul(w2, J.cross(u3, u1))
              + mul(w3, J.cross(u1, u2)))
        ga = (mul(u1, J.cross(w2, w3)) + mul(u2, J.cross(w3, w1))
              + mul(u3, J.cross(w1, w2)))
        if coef is not None:
            al, de = al * coef, de * coef
            be, ga = be * coef, ga * coef
        a = a + al * SIXTH
        d = d + de * SIXTH
        b = b + be * SIXTH
        c = c + ga * SIXTH
    return WElt(W, a, b, c, d)


def gl2_act(W: WSpace, g, v: WElt, side: str = "left") -> WElt:
    """Action of a 2x2 matrix over A on W_A, defined for all of M_2(A) via
    the symmetrized-tensor model; agrees with the generator formulas on
    triangular, diagonal, and Weyl elements."""
    if not W.J.has_mul:
        raise DescriptorError("the GL_2 action needs associative coordinates")
    terms = _terms(W, v)
    if side == "left":
        moved = [(coef, tuple(mat_times_col(g, x) for x in xs)) for coef, xs in terms]
    elif side == "right":
        moved = [(coef, tuple(row_times_mat(x, g) for x in xs)) for coef, xs in terms]
    else:
        raise DescriptorError("side must be 'left' or 'right'")
    return _project(W, moved, side)


def det6(W: WSpace, g, side: str = "left"):
    """Degree-6 similitude of g in M_2(A): <g v0, g w0> for the symplectic
    pair v0 = (1, 0)^t!, w0 = (0, 1)^t! (rows (1, 0)!, (0, 1)! on the right).
    The action commutes with the shrieks, so this is the pairing of the
    shrieks of g's columns (rows).  Multiplicative, defined for singular g too."""
    if not W.J.has_mul:
        raise DescriptorError("the GL_2 action needs associative coordinates")
    (g00, g01), (g10, g11) = g
    if side == "left":
        return W.pair(shriek_col(W, (g00, g10)), shriek_col(W, (g01, g11)))
    if side == "right":
        return W.pair(shriek_row(W, (g00, g01)), shriek_row(W, (g10, g11)))
    raise DescriptorError("side must be 'left' or 'right'")


def m2_identity(J: CNS):
    one, zero = J.one(), J.zero()
    return ((one, zero), (zero, one))


def m2_mul(J: CNS, g, h):
    """g h, for the benchmark's input generator; all else calls ``mat_mul``."""
    return mat_mul(g, h)


def m2_j2(J: CNS):
    one, zero = J.one(), J.zero()
    return ((zero, one), (-one, zero))


def m2_scalar(J: CNS, s):
    z = J.zero()
    return ((J.one() * s, z), (z, J.one() * s))


# -- the unit-class invariant of rank-one elements ---------------------------


def _search_prefix(basis, z):
    """The deterministic prefix of ``iter_search_rows``: basis singletons
    (e, 0), (0, e), then basis pairs (e, f)."""
    return chain((row for e in basis for row in ((e, z), (z, e))), product(basis, repeat=2))


def iter_search_rows(J: CNS, cap: int, seed: int = 0) -> Iterator[tuple]:
    """Deterministic height-ordered stream of candidate row pairs over J:
    basis singletons first, then basis pairs, then seeded random small rows,
    cap of them at each height 1, 2 and 3."""
    yield from search_stream(
        _search_prefix(J.basis(), J.zero()),
        lambda rng, h: (J.random(rng, h), J.random(rng, h)),
        (h for h in (1, 2, 3) for _ in range(cap)), seed)


def dead_search_rows(J: CNS) -> frozenset:
    """The prefix rows of ``iter_search_rows`` over J whose row and column
    shrieks (``shriek_row``, ``shriek_col``) are both zero, each as its
    flattened coordinates ``DirectSum(J, J).flatten(row)``, a tuple.  Such a
    row pairs to zero with every element on either side, so it is never a
    witness.  Decided once per structure, on first use, from the basis norms
    and adjoints."""
    dead = getattr(J, "_dead_search_rows", None)
    if dead is None:
        basis = J.basis()
        n = len(basis)
        elems = basis + [J.zero()]      # the prefix is read over indices, n for zero
        null = [J.base.is_zero(J.norm(e)) for e in elems]
        adj = [J.adjoint(e) for e in elems]

        def kills(i, j):
            # the b and c slots of the shrieks: s# t, t# s for a row, t s#, s t# for a column
            return adj[i].is_zero() or (J.mul(adj[i], elems[j]).is_zero()
                                        and J.mul(elems[j], adj[i]).is_zero())

        flatten = DirectSum(J, J).flatten
        dead = J._dead_search_rows = frozenset(
            tuple(flatten((elems[i], elems[j]))) for i, j in _search_prefix(range(n), n)
            if null[i] and null[j] and kills(i, j) and kills(j, i))
    return dead


def skip_dead_rows(J: CNS, test):
    """``test`` for a witness search over rows or columns of J, with a miss
    (None) at once for a row in ``dead_search_rows(J)``.  The search still
    draws the row, so its stream and its counts do not change."""
    dead = dead_search_rows(J)
    if not dead:
        return test
    # flattened coordinates hash far faster than elements over a quotient base
    flatten = DirectSum(J, J).flatten
    return lambda row: None if tuple(flatten(row)) in dead else test(row)


def lambda_invariant(W: WSpace, v: WElt, cap: int = 200, seed: int = 0):
    """A representative of the unit class lambda(v) of a rank-one element:
    the first unit among <l!, v> over a deterministic stream of rows l.

    Raises PreconditionError when v is not rank one, BoundExceededError when
    the stream is exhausted (raise cap)."""
    if W.rank(v) != 1:
        raise PreconditionError("lambda invariant needs a rank-one element")

    def unit_value(ell):
        val = W.pair(shriek_row(W, ell), v)
        return val if W.base.is_unit(val) else None

    return witness_search(iter_search_rows(W.J, cap, seed),
                          skip_dead_rows(W.J, unit_value),
                          "lambda search bound exceeded; raise cap")


def norm_class_witness(J: CNS, lam1, lam2, cap: int = 400, seed: int = 0):
    """Semi-decision for lam1 = lam2 in units / n(A^x): a witness x with
    n(x) lam1 = lam2, or None for "unknown".  The cap candidates are the
    basis and its sums and differences, then those scaled by 1/k and k for
    k = 2, 3, 4, 6, then seeded random elements, drawn lazily."""
    basis = J.basis()

    def small():
        return chain(basis, (x for e in basis for f in basis for x in (e + f, e - f)))

    scaled = (x * s for x in small() for k in (2, 3, 4, 6) for s in (Fraction(1, k), k))
    candidates = search_stream(chain(small(), scaled), partial(J.random, integral=False),
                               repeat(3), seed)
    return witness_search(islice(candidates, cap),
                          lambda x: x if J.norm(x) * lam1 == lam2 else None)
