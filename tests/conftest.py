"""Shared generators for the test suite.

Everything is seeded; heights stay small so exact arithmetic stays fast.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from cubicnorm.cns import (
    CnsElt,
    CubicRingCNS,
    H3CNS,
    ProductCNS,
    TrivialCNS,
    Matrix3CNS,
    cubic_ring_algebra,
    split_cubic_algebra,
    split_cubic_idempotents,
)
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import HOperator, WSpace, h_apply
from cubicnorm.lifting import QuotientTitsU
from cubicnorm.matops import mat, row_times_mat, sum_prod
from cubicnorm.scalars import kernel, over_lcd, row_over_lcd


@pytest.fixture
def rng():
    return random.Random(20260808)


# -- oracle: I(v, omega) by one elimination of ell -> ell h -------------------


def elimination_rows(U):
    """(pivots, rows, den) of I(v, omega), the left kernel of ell -> ell h,
    off one elimination of U._h_matrix(): with the columns reversed a null
    vector ends in its 1, so read back and sorted by first nonzero entry the
    null vectors are the reduced pivot rows, brought over one lcd."""
    ker = kernel([row[::-1] for row in U._h_matrix()])
    lead = sorted((next(j for j, c in enumerate(row) if c), row)
                  for row in (v[::-1] for v in ker))
    rows, den = over_lcd(row_over_lcd(row) for _, row in lead)
    return [j for j, _ in lead], rows, den


@pytest.fixture(autouse=True)
def quotient_models_match_the_elimination(monkeypatch):
    """Every QuotientTitsU a test builds has the pivots, integer rows and
    denominator of the elimination oracle, whichever path built them."""
    init = QuotientTitsU.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert (self._pivots, self._rows, self._den) == elimination_rows(self), self.name

    monkeypatch.setattr(QuotientTitsU, "__init__", checked)


def associative_variants():
    return [
        TrivialCNS(),
        ProductCNS(CompAlgebra(())),
        CubicRingCNS(cubic_ring_algebra(1, 0, 0, 1)),
        ProductCNS(comp_preset("hamilton")),
        Matrix3CNS(),
    ]


def hermitian_variants():
    return [H3CNS(CompAlgebra(())), H3CNS(comp_preset("gaussian")),
            H3CNS(comp_preset("hamilton"))]


# -- oracle: the Cayley-Dickson recursion, level by level --------------------
#
#     (x1, y1)(x2, y2) = (x1 x2 + gamma y2* y1,  y2 x1 + y1 x2*)
#     (x, y)* = (x*, -y),   n((x, y)) = n(x) - gamma n(y)


def cd_mul(gammas, a, b):
    if not gammas:
        return (a[0] * b[0],)
    *rest, g = gammas
    h = len(a) // 2
    x1, y1, x2, y2 = a[:h], a[h:], b[:h], b[h:]
    left = tuple(p + g * q for p, q in zip(cd_mul(rest, x1, x2),
                                           cd_mul(rest, cd_conj(rest, y2), y1)))
    right = tuple(p + q for p, q in zip(cd_mul(rest, y2, x1),
                                        cd_mul(rest, y1, cd_conj(rest, x2))))
    return left + right


def cd_conj(gammas, a):
    if not gammas:
        return (a[0],)
    h = len(a) // 2
    return cd_conj(gammas[:-1], a[:h]) + tuple(-c for c in a[h:])


def cd_norm(gammas, a):
    if not gammas:
        return a[0] * a[0]
    h = len(a) // 2
    return cd_norm(gammas[:-1], a[:h]) - gammas[-1] * cd_norm(gammas[:-1], a[h:])


# -- oracle: the ground structures' maps as formulas on the coordinates -----
#
# The formulas the ground cubic norm structures computed their adjoint,
# pairing and product with before these became integer tables; the cubic
# ring's adjoint is u^2 - s1 u + s2 off its characteristic polynomial and
# M_3's the cofactor formula.  Each takes the structure first.


def trivial_adjoint(J, x):
    (a,) = x.coords
    return CnsElt(J, (a * a,))


def trivial_pair(J, x, y):
    return 3 * (x.coords[0] * y.coords[0])


def trivial_mul(J, x, y):
    return CnsElt(J, (x.coords[0] * y.coords[0],))


def product_adjoint(J, x):
    a, c = J._split(x)
    return J.concat(c.norm(), c.conj() * a)


def product_pair(J, x, y):
    a, c = J._split(x)
    b, d = J._split(y)
    return a * b + (c * d).trace()


def product_mul(J, x, y):
    a, c = J._split(x)
    b, d = J._split(y)
    return J.concat(a * b, c * d)


def cubic_ring_adjoint(J, x):
    u = x.block(J.alg)
    s1, s2 = J.alg.char_s1_s2(u)
    return (u * u - u * s1 + s2).block(J)


def cubic_ring_pair(J, x, y):
    return J.alg.trace(x.block(J.alg) * y.block(J.alg))


def cubic_ring_mul(J, x, y):
    return (x.block(J.alg) * y.block(J.alg)).block(J)


def matrix3_adjoint(J, x):
    m = J.to_matrix(x)

    def cofactor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        minor = (m[rows[0]][cols[0]] * m[rows[1]][cols[1]]
                 - m[rows[0]][cols[1]] * m[rows[1]][cols[0]])
        return minor if (r + c) % 2 == 0 else -minor

    return J.from_matrix(tuple(tuple(cofactor(j, i) for j in range(3)) for i in range(3)))


def matrix3_pair(J, x, y):
    mx, my = J.to_matrix(x), J.to_matrix(y)
    return sum((mx[a][b] * my[b][a] for a in range(3) for b in range(3)), J.base.zero())


def matrix3_mul(J, x, y):
    from cubicnorm.matops import mat_mul

    return J.from_matrix(mat_mul(J.to_matrix(x), J.to_matrix(y)))


def h3_adjoint(J, x):
    (c1, c2, c3), (a1, a2, a3) = J.split(x)
    d1 = c2 * c3 - a1.norm()
    d2 = c1 * c3 - a2.norm()
    d3 = c1 * c2 - a3.norm()
    b1 = a3.conj() * a2.conj() - a1 * c1
    b2 = a1.conj() * a3.conj() - a2 * c2
    b3 = a2.conj() * a1.conj() - a3 * c3
    return J.join((d1, d2, d3), (b1, b2, b3))


def h3_pair(J, x, y):
    (c1, c2, c3), (a1, a2, a3) = J.split(x)
    (e1, e2, e3), (b1, b2, b3) = J.split(y)
    acc = c1 * e1 + c2 * e2 + c3 * e3
    for a, b in ((a1, b1), (a2, b2), (a3, b3)):
        acc = acc + (a.conj() * b).trace()
    return acc


# each ground structure's (adjoint, pairing, product) oracles
GROUND_ORACLES = {
    TrivialCNS: (trivial_adjoint, trivial_pair, trivial_mul),
    ProductCNS: (product_adjoint, product_pair, product_mul),
    CubicRingCNS: (cubic_ring_adjoint, cubic_ring_pair, cubic_ring_mul),
    Matrix3CNS: (matrix3_adjoint, matrix3_pair, matrix3_mul),
    H3CNS: (h3_adjoint, h3_pair, None),
}


def polarized(adjoint, x, y):
    """x x y = (x+y)# - x# - y# for an adjoint map."""
    return adjoint(x + y) - adjoint(x) - adjoint(y)


# -- oracle: the composite structures' maps on matrix pictures --------------
#
# The formulas the matrix kind's embed and project and U(gamma)'s norm,
# adjoint and pairing computed with before these became tables: J's
# Hermitian picture read in M_3(K) and back, a row v times X's Hermitian
# picture, the outer product v* v, and v X v* and sum_i tr(v_i w_i*) as
# products in C.


def second_kind_embed(sk, j):
    m = sk.J.to_matrix(j)
    return sk.B.from_matrix(mat([e.block(sk.K) for e in row] for row in m))


def second_kind_project(sk, b):
    return sk.J.from_matrix(sk.B.to_matrix(b))


def cayley_u_outer(U, v):
    """v* v as a Hermitian element, for a row triple v."""
    cs = (v[0].norm(), v[1].norm(), v[2].norm())
    return U.H.join(cs, (v[1].conj() * v[2], v[2].conj() * v[0], v[0].conj() * v[1]))


def cayley_u_norm(U, x):
    X, v = U.split(x)
    row = row_times_mat(v, U.H.to_matrix(X))
    return U.H.norm(X) + U.gamma * sum_prod(row, tuple(vi.conj() for vi in v)).coord(0)


def cayley_u_adjoint(U, x):
    X, v = U.split(x)
    first = U.H.adjoint(X) + cayley_u_outer(U, v) * U.gamma
    return U.join(first, tuple(-c for c in row_times_mat(v, U.H.to_matrix(X))))


def cayley_u_pair(U, x, y):
    (X, v), (Y, w) = U.split(x), U.split(y)
    dot = U.base.zero()
    for a, b in zip(v, w):
        dot = dot + (a * b.conj()).trace()
    return U.H.pair(X, Y) - U.gamma * dot


# -- oracle: W_J arithmetic part by part ------------------------------------
#
#     (a, b, c, d) +- (a', b', c', d') = (a +- a', b +- b', c +- c', d +- d'),
#     s (a, b, c, d) = (s a, s b, s c, s d),
#
# with a, d added and scaled in the base and b, c in J, and equality and the
# zero test read part by part.


def w_parts(v):
    return (v.a, v.b, v.c, v.d)


def w_add(x, y):
    return tuple(p + q for p, q in zip(x, y))


def w_sub(x, y):
    return tuple(p - q for p, q in zip(x, y))


def w_neg(x):
    return tuple(-p for p in x)


def w_scale(x, s):
    return tuple(p * s for p in x)


def w_eq(x, y):
    return all(p == q for p, q in zip(x, y))


def w_is_zero(base, x):
    a, b, c, d = x
    return base.is_zero(a) and b.is_zero() and c.is_zero() and base.is_zero(d)


# -- oracle: t(v, v, x) by the product rule, branch by branch ---------------
#
# The four-branch formula ``WSpace.t_vvx`` computed with before t(v, v, .)
# became one matrix: the derivative of flat at v in the direction x, term by
# term, with d(b#)[y] = b x y and dN(b)[y] = (b#, y), and every cross taken
# as (y + z)# - y# - z# from adjoints that depend on v alone.


class VvPart:
    """The part of x -> t(v, v, x) that depends on v alone: b#, c#, (b, c),
    s = ad - (b, c), b## and c##."""

    __slots__ = ("J", "bs", "cs", "bss", "css", "pbc", "s")

    def __init__(self, J, v):
        self.J = J
        b, c = v.b, v.c
        self.bs, self.cs = J.adjoint(b), J.adjoint(c)
        self.bss, self.css = J.adjoint(self.bs), J.adjoint(self.cs)
        self.pbc = J.pair(b, c)
        self.s = v.a * v.d - self.pbc

    def cross(self, y, ys, z, zs=None):
        """y x z = (y + z)# - y# - z# from the known y# (and z#, computed
        when not given)."""
        J = self.J
        return J.adjoint(y + z) - ys - (J.adjoint(z) if zs is None else zs)


def t_vvx_product_rule(W, v, x):
    """t(v, v, x) = d flat(v)[x] / 3, one branch per nonzero component of x."""
    J = W.J
    a, b, c, d = v.a, v.b, v.c, v.d
    vv = VvPart(J, v)
    bs, cs, pbc, s = vv.bs, vv.cs, vv.pbc, vv.s
    ta, td = W.base.zero(), W.base.zero()
    tb, tc = J.zero(), J.zero()
    is0 = W.base.is_zero
    p, y, z, q = x.a, x.b, x.c, x.d
    if not is0(p):
        ta = ta + p * (pbc - 2 * (a * d))
        tb = tb + cs * (2 * p) - b * (p * d)
        tc = tc + c * (p * d)
        td = td + p * d * d
    if not y.is_zero():
        ys = J.adjoint(y)
        dp = J.pair(y, c)
        bxy = vv.cross(b, bs, y, ys)
        ta = ta + a * dp - 2 * J.pair(bs, y)
        tb = tb + b * dp - vv.cross(c, cs, bxy) * 2 - y * s
        tc = tc + vv.cross(y, ys, cs, vv.css) * 2 - bxy * (2 * d) - c * dp
        td = td - d * dp
    if not z.is_zero():
        zs = J.adjoint(z)
        dp = J.pair(b, z)
        cxz = vv.cross(c, cs, z, zs)
        ta = ta + a * dp
        tb = tb + b * dp - vv.cross(z, zs, bs, vv.bss) * 2 + cxz * (2 * a)
        tc = tc + vv.cross(b, bs, cxz) * 2 - c * dp + z * s
        td = td + 2 * J.pair(cs, z) - d * dp
    if not is0(q):
        ta = ta - a * a * q
        tb = tb - b * (a * q)
        tc = tc + c * (a * q) - bs * (2 * q)
        td = td + q * (2 * (a * d) - pbc)
    return W.concat(ta, tb, tc, td) * F(1, 3)


def rand_rank4(W, rng, height=2, integral=True, unit_corner=False):
    for _ in range(2000):
        v = W.random(rng, height, integral)
        if not W.base.is_unit(W.quartic(v)):
            continue
        if unit_corner and v.a == 0 and v.d == 0:
            continue
        return v
    raise RuntimeError("no rank-4 element found")


def rand_word(W, v, rng, n=3, height=1):
    J = W.J
    for _ in range(n):
        k = rng.randint(0, 2)
        if k == 0:
            v = h_apply(HOperator("nj", (J.random(rng, height),)), v)
        elif k == 1:
            v = h_apply(HOperator("nbarj", (J.random(rng, height),)), v)
        else:
            v = h_apply(HOperator("wj"), v)
    return v


def rand_nondeg_pair(J, rng, height=1):
    from cubicnorm.lifting import disc_binary_cubic

    while True:
        A = J.random(rng, height)
        B = J.random(rng, height)
        a = J.norm(A)
        b = J.pair(J.adjoint(A), B)
        c = J.pair(A, J.adjoint(B))
        d = J.norm(B)
        if disc_binary_cubic(a, b, c, d) != 0:
            return A, B


def epsilon_oracle(J, pd, sr):
    """eps = sum_a S_r(v_a) (x) w_a on T's own basis, each trace-dual w_a
    solved from tr(x v_b) = delta_ab by ``map_solve`` over the trace map."""
    from cubicnorm.matops import mat_add, mat_map, mat_scalar, mat_smul
    from cubicnorm.scalars import QQ_BASE, DirectSum, map_solve

    T = pd.T
    compT = J.comp.base_change(T)
    basis = T.basis()
    n = len(basis)
    duals = [map_solve(lambda x: tuple(T.trace(x * b) for b in basis), T,
                       DirectSum(*[QQ_BASE] * n), tuple(int(k == i) for k in range(n)))
             for i in range(n)]
    eps = mat_scalar(3, compT.zero(), compT.zero())
    for v_a, w_a in zip(basis, duals):
        eps = mat_add(eps, mat_smul(mat_map(compT.extend, sr.space.rows(sr.s_r(v_a))), w_a))
    return eps


def rand_rank2_h3(J, rng, words=3):
    """Random rank-2 Hermitian element: conjugate diag(c1, c2, 0)."""
    from cubicnorm.matops import mat_mul, mat_star

    comp = J.comp
    while True:
        d0 = J.join((F(rng.randint(1, 3)), F(rng.randint(1, 3)), 0), (comp.zero(),) * 3)
        m = tuple(tuple(comp.one() if i == j else comp.zero() for j in range(3))
                  for i in range(3))
        for _ in range(words):
            i, j = rng.sample(range(3), 2)
            e = [[comp.one() if a == b else comp.zero() for b in range(3)]
                 for a in range(3)]
            e[i][j] = comp.random(rng, 1)
            m = mat_mul(m, tuple(tuple(r) for r in e))
        X = J.from_matrix(mat_mul(mat_mul(mat_star(m, lambda x: x.conj()),
                                          J.to_matrix(d0)), m))
        if J.rank(X) == 2:
            return X


def rand_rank2_w(W, rng, words=3):
    """Random rank-2 element of W_{H_3(C)}: move (1, 0, c, 0) with c rank 1."""
    J = W.J
    comp = J.comp
    while True:
        c = J.join((F(rng.randint(1, 3)), 0, 0), (comp.zero(),) * 3)
        x = W.elem(1, J.zero(), c, 0)
        x = rand_word(W, x, rng, words)
        if W.rank(x) == 2:
            return x


def rand_rank3_w(W, rng, words=2):
    """Random rank-3 element: move (1, 0, c, d) with d^2 + 4n(c) = 0."""
    J = W.J
    comp = getattr(J, "comp", None)
    while True:
        if rng.random() < 0.5 and comp is not None:
            c = J.join((F(rng.randint(1, 3)), F(rng.randint(1, 3)), 0), (comp.zero(),) * 3)
            x = W.elem(1, J.zero(), c, 0)
        else:
            d = F(2 * rng.randint(1, 2))
            c1, c2 = F(rng.randint(1, 3)), F(rng.randint(1, 3))
            c3 = -d * d / (4 * c1 * c2)
            if comp is not None:
                c = J.join((c1, c2, c3), (comp.zero(),) * 3)
            else:
                continue
            x = W.elem(1, J.zero(), c, d)
        x = rand_word(W, x, rng, words)
        if W.rank(x) == 3:
            return x


def rand_rank3_w_commutative(A, W, rng, words=2):
    """Rank-3 elements over a commutative associative instance, through the
    split idempotents when available."""
    while True:
        d = F(2 * rng.randint(1, 2))
        target = -d * d / 4
        c = None
        if isinstance(A, CubicRingCNS) and A.alg.table == split_cubic_algebra().table:
            e1, e2, e3 = split_cubic_idempotents(A.alg)
            c1 = F(rng.randint(1, 2))
            c2 = F(rng.randint(1, 2))
            u = e1 * c1 + e2 * c2 + e3 * (target / (c1 * c2))
            from cubicnorm.cns import CnsElt

            c = CnsElt(A, u.coords)
        else:
            from cubicnorm.cns import CnsElt

            for _ in range(200):
                cand = A.random(rng, 2)
                if A.norm(cand) == target:
                    c = cand
                    break
        if c is None:
            continue
        x = W.elem(1, A.zero(), c, d)
        x = rand_word(W, x, rng, words)
        if W.rank(x) == 3:
            return x


def rank4_with_antisym_omega(sk, rng, words=2):
    """Rank-4 v in W_J with q(v)/D a rational square (so the second lift has
    an antisymmetric omega), a- or d-slot nonzero."""
    J = sk.J
    W = WSpace(J)
    D = -sk.K.modulus[0]
    comp = getattr(J, "comp", None)
    for _ in range(4000):
        d = F(rng.randint(-3, 3))
        t = F(rng.randint(1, 2))
        nc = (D * t * t - d * d) / 4
        if nc == 0:
            continue
        c1 = F(rng.choice([1, 1, 2, -1]))
        c2 = F(rng.choice([1, 1, 2, -1]))
        if comp is not None:
            c = J.join((c1, c2, nc / (c1 * c2)), (comp.zero(),) * 3)
        elif isinstance(J, CubicRingCNS) and J.alg.table == split_cubic_algebra().table:
            from cubicnorm.cns import CnsElt

            e1, e2, e3 = split_cubic_idempotents(J.alg)
            u = e1 * c1 + e2 * c2 + e3 * (nc / (c1 * c2))
            c = CnsElt(J, u.coords)
        else:
            return None
        v = W.elem(1, J.zero(), c, d)
        if not W.base.is_unit(W.quartic(v)):
            continue
        v = rand_word(W, v, rng, words)
        if v.a != 0 or v.d != 0:
            return v
    raise RuntimeError("generator failed")
