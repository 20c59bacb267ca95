"""The Freudenthal space W_J = F + J + J + F over a cubic norm structure J:
symplectic pairing, quartic form, the cubic "flat" map and its trilinear
polarization, rank stratification, the standard similitude operators, and
(for associative coordinates) the 2x2 matrix R(v)/S(v), the shriek maps,
the two-sided GL_2(A)-action through the symmetrized tensor-cube model,
the degree-6 determinant, and the unit-class invariant of rank-one elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, product, repeat
from typing import Iterator

from .cns import CNS, CnsElt, H3CNS
from .matops import (
    mat_block,
    mat_inverse,
    mat_mul,
    mat_scalar,
    mat_smul,
    mat_star,
    mat_sub,
    mat_times_col,
    row_times_mat,
)
from .scalars import (
    HALF,
    CoordSpace,
    DescriptorError,
    DirectSum,
    PreconditionError,
    Vec,
    search_stream,
    witness_search,
)

SIXTH = Fraction(1, 6)


class WElt(Vec):
    """Element (a, b, c, d) of W_J with a, d base scalars and b, c in J: a
    coordinate vector over the base, a, then b's and c's coordinates in J,
    then d, so its arithmetic is ``Vec``'s.  The parts are read off the
    numerators; ``WSpace.concat`` assembles an element from them."""

    __slots__ = ()
    W = Vec.space

    @property
    def a(self):
        return self.coord(0)

    @property
    def b(self) -> CnsElt:
        return self.block(self.space.J, 1)

    @property
    def c(self) -> CnsElt:
        J = self.space.J
        return self.block(J, 1 + J.dim)

    @property
    def d(self):
        return self.coord(-1)

    def __repr__(self) -> str:
        return f"WElt(a={self.a}, b={list(self.b.coords)}, c={list(self.c.coords)}, d={self.d})"


class WSpace(CoordSpace):
    """W_J = F + J + J + F for a cubic norm structure J (possibly
    base-changed), as the coordinate space of dimension 2 + 2 dim J over
    J's base: zero, basis and random draws are ``CoordSpace``'s, in the
    order a, b, c, d."""

    element = WElt
    random_height = 2

    def __init__(self, J: CNS):
        self.J = J
        self.base = J.base
        self.dim = 2 + 2 * J.dim
        self.name = f"W({J.name})"

    def _key(self):
        return self.J

    def elem(self, a, b, c, d) -> WElt:
        bb = b if isinstance(b, CnsElt) else self.J.elem(b)
        cc = c if isinstance(c, CnsElt) else self.J.elem(c)
        if bb.J != self.J or cc.J != self.J:
            raise DescriptorError("W element components from a different structure")
        return self.concat(self.base.coerce(a), bb, cc, self.base.coerce(d))

    # -- the four basic forms -------------------------------------------------

    def pair(self, v: WElt, w: WElt):
        J = self.J
        return (v.a * w.d - J.pair(v.b, w.c) + J.pair(v.c, w.b) - v.d * w.a)

    def quartic(self, v: WElt):
        J = self.J
        a, b, c, d = v.a, v.b, v.c, v.d
        s = a * d - J.pair(b, c)
        return (s * s + 4 * (a * J.norm(c)) + 4 * (d * J.norm(b))
                - 4 * J.pair(J.adjoint(b), J.adjoint(c)))

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
        return self.concat(fa, fb, fc, fd)

    def trilinear(self, x: WElt, y: WElt, z: WElt) -> WElt:
        """t(x, y, z): symmetric, t(v,v,v) = flat(v), computed by exact
        polarization of the flat map."""
        f = self.flat
        acc = f(x + y + z) - f(x + y) - f(x + z) - f(y + z) + f(x) + f(y) + f(z)
        return acc * SIXTH

    def t_vv_matrix(self, v: WElt) -> tuple[list[list[int]], int]:
        """The columns t(v, v, e) along ``basis()``, integers over one den.

        3 t(v, v, .) is the derivative of the flat map at v, by the product
        rule with d(b#)[y] = b x y and dN(b)[y] = (b#, y) (McCrimmon, A Taste
        of Jordan Algebras, 2004).  With s = ad - (b, c), its columns along
        b (y) and c (z) are

            ((ac - 2b#, y), -2 c x (b x y) + (c, y) b - s y,
             (2c# - 2db) x y - (c, y) c, -d (c, y)),
            ((ab, z), (2ac - 2b#) x z + (b, z) b,
             2 b x (c x z) - (b, z) c + s z, (2c# - db, z)):

        J's cross and pairing read as columns at fixed elements
        (``CNS.cross_columns``, ``pair_columns``), the two compositions
        taken column by column (``CNS.crosses``), and each outer product
        one column scaled by a base scalar.  The columns along a and d are
        two elements."""
        J, base = self.J, self.base
        P, L = J.pair_columns, J.cross_columns
        a, b, c, d = v.a, v.b, v.c, v.d
        bs, cs = J.adjoint(b), J.adjoint(c)
        pbc, ad = J.pair(b, c), a * d
        sn, sd = base.num_den(ad - pbc)
        ends = (self.concat(pbc - 2 * ad, cs * 2 - b * d, c * d, d * d),
                self.concat(-(a * a), -(b * a), c * a - bs * 2, 2 * ad - pbc))
        pb, pc = P(b), P(c)
        scale, te, n, m = base.scale_coords, base.table_den, J.dim, len(sn)

        def outer(x, p):
            # x (e, .) along the basis: x scaled by each entry of a pairing row
            return [scale(x.num, pi) for pi in p[0]], x.den * p[1] * te

        s_e = ([(0,) * (i * m) + sn + (0,) * ((n - 1 - i) * m) for i in range(n)], sd)
        # the terms (factor, (columns, den)) of the a, b, c and d parts of the
        # columns along b, then along c
        along = (([(1, P(c * a - bs * 2))],
                  [(-2, J.crosses(c, *L(b))), (1, outer(b, pc)), (-1, s_e)],
                  [(1, L(cs * 2 - b * (2 * d))), (-1, outer(c, pc))],
                  [(1, P(-(c * d)))]),
                 ([(1, P(b * a))],
                  [(1, L(c * (2 * a) - bs * 2)), (1, outer(b, pb))],
                  [(2, J.crosses(b, *L(c))), (-1, outer(c, pb)), (1, s_e)],
                  [(1, P(cs * 2 - b * d))]))
        den = math.lcm(*(e.den for e in ends),
                       *(pd for parts in along for terms in parts for _, (_, pd) in terms))

        def summed(terms):
            # sum f columns over den, column by column
            scaled = [[[f * (den // pd) * x for x in col] for col in cols] for f, (cols, pd) in terms]
            return [list(map(sum, zip(*col, strict=True))) for col in zip(*scaled, strict=True)]

        cols = [[den // ends[0].den * x for x in ends[0].num]]
        for parts in along:
            cols += [sum(column, []) for column in zip(*map(summed, parts))]
        cols.append([den // ends[1].den * x for x in ends[1].num])
        return cols, 3 * den

    def t_vvx(self, v: WElt, x: WElt) -> WElt:
        """t(v, v, x) = d flat(v)[x] / 3: sum_i x_i t(v, v, e_i) over the
        columns of ``t_vv_matrix``."""
        cols, den = self.t_vv_matrix(v)
        is0 = self.base.is_zero
        return sum((self.from_num(col, den) * xi for col, xi in zip(cols, x.coords)
                    if not is0(xi)), self.zero())

    def t_vv_basis(self, v: WElt) -> Iterator[tuple[WElt, WElt]]:
        """(x, t(v, v, x)) for x along ``basis()``, off one ``t_vv_matrix``."""
        cols, den = self.t_vv_matrix(v)
        return zip(self.basis(), (self.from_num(col, den) for col in cols))

    def pair_row(self, v: WElt) -> list:
        """<e, v> along ``basis()``: d, then -(e, c) and (e, b) along J's
        basis off J's pairing read as columns, then -a."""
        base = self.base
        (pc, dc), (pb, db) = self.J.pair_columns(v.c), self.J.pair_columns(v.b)
        return ([v.d] + [-base.from_num(p, dc) for p in pc]
                + [base.from_num(p, db) for p in pb] + [-v.a])

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
        a, b, c, d = v.a, v.b, v.c, v.d
        if not (J.adjoint(b) == c * a):
            return False
        if not (J.adjoint(c) == b * d):
            return False
        if not (J.pair(b, c) == 3 * (a * d)):
            return False
        if self.base.is_unit(a) or self.base.is_unit(d):
            return True
        cols, den = self.t_vv_matrix(v)
        vc = v.coords
        return all(_proportional(self.base, self.base.scalars(col, den), vc) for col in cols)

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
        return W.concat(a,
                        b + X * a,
                        c + J.cross(b, X) + Xs * a,
                        d + J.pair(c, X) + J.pair(b, Xs) + a * J.norm(X))
    if op.kind == "nbarj":
        (Y,) = op.payload
        Ys = J.adjoint(Y)
        return W.concat(a + J.pair(b, Y) + J.pair(c, Ys) + d * J.norm(Y),
                        b + J.cross(c, Y) + Ys * d,
                        c + Y * d,
                        d)
    if op.kind == "m":
        (lam,) = op.payload
        lam_inv = W.base.inv(W.base.coerce(lam))
        return W.concat(a * lam * lam, b * lam, c, d * lam_inv)
    if op.kind == "wj":
        return W.concat(d, -c, b, -a)
    if op.kind == "mgen":
        alpha, t, t_dual, delta = _mgen_maps(W, op.payload)
        return W.concat(a * alpha, t(b), t_dual(c), d * delta)
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
        mstar = mat_star(m)
        nm = J.norm(J.from_matrix(mat_mul(m, mstar)))
        if not W.base.is_unit(nm):
            raise PreconditionError("m must be invertible")
        minv = mat_inverse(m, J.comp)
        minv_star = mat_star(minv)
        nm_inv = W.base.inv(nm)
        mu_q = W.base.coerce(mu)

        def t(b):
            return J.from_matrix(mat_mul(mat_mul(m, J.to_matrix(b)), mstar)) * mu_q

        def t_dual(c):
            return J.from_matrix(mat_mul(mat_mul(minv_star, J.to_matrix(c)), minv)) * mu_q

        return mu_q * nm, t, t_dual, mu_q * nm_inv
    raise DescriptorError(f"unknown mgen payload {shape!r}")


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


def r_right(R):
    """R_r(v) = J_2 R(v) J_2^{-1} (the row-action counterpart), off R = R(v)."""
    (r11, r12), (r21, r22) = R
    return ((r22, -r21), (-r12, r11))


def s_of_h3(W: WSpace, v: WElt):
    """S(v) for J = H_3(C) with associative C, as a 6x6 matrix over C."""
    J = W.J
    if not (isinstance(J, H3CNS) and J.comp.is_associative):
        raise DescriptorError("s_of_h3 needs a Hermitian instance with associative C")
    a, b, c, d = v.a, v.b, v.c, v.d
    comp = J.comp
    mb, mc = J.to_matrix(b), J.to_matrix(c)
    off = mat_scalar(3, comp.from_scalar((J.pair(b, c) - a * d) * HALF), comp.zero())
    s11 = mat_sub(J.to_matrix(J.adjoint(b)), mat_smul(mc, a))
    s22 = mat_sub(J.to_matrix(J.adjoint(c)), mat_smul(mb, d))
    s12 = mat_sub(off, mat_mul(mc, mb))
    s21 = mat_sub(off, mat_mul(mb, mc))
    return mat_block(((s11, s12), (s21, s22)))


def _zero_slot_shriek(W: WSpace, x, y) -> WElt:
    """(x, y)! of a row or a column pair with x = 0 or y = 0: every product
    of the two slots vanishes, so it is (n(x), 0, 0, n(y)), with n(0) = 0
    not taken."""
    J = W.J
    z = J.zero()
    return W.concat(J.norm(x) if x else 0, z, z, J.norm(y) if y else 0)


def shriek_row(W: WSpace, ell) -> WElt:
    """(s, t)! = (n(s), s# t, t# s, n(t)) for a row pair over associative A."""
    J = W.J
    s, t = ell
    if not (s and t):
        return _zero_slot_shriek(W, s, t)
    return W.concat(J.norm(s), J.mul(J.adjoint(s), t), J.mul(J.adjoint(t), s), J.norm(t))


def shriek_col(W: WSpace, eta) -> WElt:
    """(u, v)^t ! = (n(u), v u#, u v#, n(v)) for a column pair."""
    J = W.J
    u, v = eta
    if not (u and v):
        return _zero_slot_shriek(W, u, v)
    return W.concat(J.norm(u), J.mul(v, J.adjoint(u)), J.mul(u, J.adjoint(v)), J.norm(v))


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
    return W.concat(a, b, c, d)


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
    return mat_scalar(2, J.one(), J.zero())


def m2_mul(J: CNS, g, h):
    """g h, for the benchmark's input generator; all else calls ``mat_mul``."""
    return mat_mul(g, h)


def m2_j2(J: CNS):
    one, zero = J.one(), J.zero()
    return ((zero, one), (-one, zero))


def m2_scalar(J: CNS, s):
    return mat_scalar(2, J.one() * s, J.zero())


# -- the unit-class invariant of rank-one elements ---------------------------


def _search_prefix(basis, z):
    """The deterministic prefix of ``iter_search_rows``: basis singletons
    (e, 0), (0, e), then basis pairs (e, f)."""
    return chain((row for e in basis for row in ((e, z), (z, e))), product(basis, repeat=2))


def _search_tail(J: CNS, cap: int, seed: int) -> Iterator[tuple]:
    """The seeded random tail of ``iter_search_rows``: small row pairs over
    J, cap of them at each height 1, 2 and 3."""
    return search_stream((), lambda rng, h: (J.random(rng, h), J.random(rng, h)),
                         (h for h in (1, 2, 3) for _ in range(cap)), seed)


def iter_search_rows(J: CNS, cap: int, seed: int = 0) -> Iterator[tuple]:
    """Deterministic height-ordered stream of candidate row pairs over J:
    basis singletons first, then basis pairs, then seeded random small rows,
    cap of them at each height 1, 2 and 3."""
    yield from _search_prefix(J.basis(), J.zero())
    yield from _search_tail(J, cap, seed)


def dead_search_rows(J: CNS) -> frozenset:
    """The prefix rows of ``iter_search_rows`` over J whose row and column
    shrieks (``shriek_row``, ``shriek_col``) are both zero, each as its
    numerators and denominator ``DirectSum(J, J).num_den(row)``.  Such a
    row pairs to zero with every element on either side, so it is never a
    witness.  Decided once per structure, on first use, from the basis norms
    and adjoints; ``dead_rows_by_key`` holds the rows themselves."""
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

        num_den = DirectSum(J, J).num_den
        J._dead_rows = {num_den(row): row for row in (
            (elems[i], elems[j]) for i, j in _search_prefix(range(n), n)
            if null[i] and null[j] and kills(i, j) and kills(j, i))}
        dead = J._dead_search_rows = frozenset(J._dead_rows)
    return dead


def dead_rows_by_key(J: CNS) -> dict:
    """The rows of ``dead_search_rows(J)``, each a pair of elements of J,
    by their numerators and denominator: a stream that draws a dead row
    as numerators yields it without building it."""
    dead_search_rows(J)
    return J._dead_rows


def skip_dead_rows(J: CNS, test):
    """``test`` for a witness search over rows or columns of J, with a miss
    (None) at once for a row in ``dead_search_rows(J)``.  The search still
    draws the row, so its stream and its counts do not change."""
    dead = dead_search_rows(J)
    if not dead:
        return test
    # numerators hash far faster than elements over a quotient base
    num_den = DirectSum(J, J).num_den
    return lambda row: None if num_den(row) in dead else test(row)


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
