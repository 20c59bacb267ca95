"""Lifting constructions and their verifiers.

Every construction returns a LiftResult, a ``scalars.Certificate``: the list
of named identities it was checked against, each re-checked exactly.
Identities that are mathematically guaranteed are recorded with ``require``
and raise IdentityError on failure instead of reporting, since a failure
there is a bug, not an input problem.

Contents:
  * rank-one lifts of rank-4 elements of W_J along a quadratic extension,
    with the refined pure-tensor form over associative coordinates;
  * uniqueness and admissible-scaling complements;
  * the J + J construction: binary cubic, cubic ring, the rank-one pair
    (X, Y), the coordinate ring maps, the separability idempotent, and the
    refined identity over Hermitian coordinates;
  * the second lift into the Tits construction U(S, lambda), its
    choice-free quotient model, and the commutative special case;
  * lower-rank lifts via Cayley-Dickson doubling and the Tits construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from typing import Iterator, Optional

from .cns import (
    CNS,
    CnsElt,
    CayleyUCNS,
    H3CNS,
    SecondKind,
    TitsUCNS,
    cubic_ring_algebra,
    tensor_cross,
)
from .composition import CompAlgebra
from .freudenthal import (
    HOperator,
    WElt,
    WSpace,
    h_apply,
    iter_search_rows,
    m2_j2,
    r_of,
    r_right,
    s_of,
    s_of_h3,
    shriek_col,
    shriek_row,
    skip_dead_rows,
)
from .matops import (
    MatrixSpace,
    column,
    mat_eq,
    mat_map,
    mat_mul,
    mat_neg,
    mat_smul,
    mat_star,
    mat_sub,
    mat_times_col,
    outer,
    row_times_mat,
    sum_prod,
)
from .scalars import (
    HALF,
    QQ_BASE,
    THIRD,
    AlgElem,
    Certificate,
    CommAlgebra,
    DescriptorError,
    DirectSum,
    IdentityError,
    PreconditionError,
    RationalBase,
    Scalar,
    det_fraction,
    inverse_fraction,
    kernel,
    over_lcd,
    qq,
    quadratic_field,
    rational_sqrt,
    row_over_lcd,
    search_stream,
    witness_search,
)


class NoLiftError(PreconditionError):
    """The obstruction to lifting is nonzero: no lift exists."""


@dataclass
class LiftResult(Certificate):
    """A certified lift: its extension, the lifted element and its data."""

    extension: Optional[CommAlgebra]
    lifted: object
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"extension": None if self.extension is None else self.extension.name,
                **super().to_json()}


def x_of(vT: WElt, fT: WElt, omega) -> WElt:
    """X(v, omega) = (omega v + v_flat) / 2, from v and v_flat read in W_T."""
    return (vT * omega + fT) * HALF


def u_apply(R, omega, x, side: str = "left"):
    """U x = (omega + R) x / 2 for a column pair x (side "left"), or
    x (omega + R) / 2 for a row pair x (side "right")."""
    rx = mat_times_col(R, x) if side == "left" else row_times_mat(x, R)
    return tuple((xi * omega + yi) * HALF for xi, yi in zip(x, rx))


def first_law(W: WSpace, v: WElt) -> LiftResult:
    """The first lifting law, uncertified: over E = F[w]/(w^2 - q(v)) the
    lift X(v) = (w v + v_flat)/2 of a rank-4 v over the ground field, with
    data ``omega`` (w), ``xbar`` (X(v, -w)), ``space`` (W_{J (x) E}),
    ``flat`` (v_flat, taken once over F and read into E) and ``q`` (q(v))."""
    if not isinstance(W.base, RationalBase):
        raise PreconditionError("lift starts from the ground field")
    q = W.quartic(v)
    if q == 0:
        raise PreconditionError("lift needs q(v) != 0")
    E = quadratic_field(q)
    WE = WSpace(W.J.base_change(E))
    f = W.flat(v)
    vE, fE = WE.extend(v), WE.extend(f)
    omega = E.gen()
    return LiftResult(extension=E, lifted=x_of(vE, fE, omega),
                      data={"omega": omega, "xbar": x_of(vE, fE, -omega), "space": WE,
                            "flat": f, "q": q})


def w_u_lift(U: CNS, v: WElt, ell) -> tuple[WElt, bool]:
    """The lift (a, b + ell_1, c + ell_2, d) of v = (a, b, c, d) into W_U, for
    U = J + (the summand of ell_1, ell_2), and whether it is rank one."""
    WU = WSpace(U)
    lifted = WU.concat(v.a, U.join(v.b, ell[0]), U.join(v.c, ell[1]), v.d)
    return lifted, (not lifted.is_zero()) and WU.is_rank_le1(lifted)


# ---------------------------------------------------------------------------
# Rank-one lifts along a quadratic extension: any cubic norm structure.
# ---------------------------------------------------------------------------


def lift_wj(W: WSpace, v: WElt) -> LiftResult:
    """Rank-one lift of a rank-4 element: E = F[w]/(w^2 - q(v)),
    X = (w v + v_flat)/2, certified by 3 t(X, X, x) = <x, X> X on every
    basis vector x, plus <X, Xbar> = w q(v)."""
    res = first_law(W, v)
    X, WE, omega = res.lifted, res.data["space"], res.data["omega"]
    cols, den = WE.t_vv_matrix(X)
    for col, p in zip(cols, WE.pair_row(X), strict=True):
        res.require("3t(X,X,x) = <x,X>X", WE.from_num(col, den) * 3 == X * p)
    res.require("rank(X) = 1", not X.is_zero())
    res.require("<X, Xbar> = w q(v)",
                WE.pair(X, res.data["xbar"]) == omega * res.extension.from_rational(res.data["q"]))
    return res


def lift_wa_refined(W: WSpace, v: WElt, eta=None, ell=None,
                    rng: Optional[random.Random] = None) -> LiftResult:
    """The refined law over associative coordinates: with
    U = (w + R(v))/2, both

        (U eta)! = <X(v), eta!> Xbar(v)      (columns)
        (ell (w + R_r(v))/2)! = <ell!, Xbar(v)> X(v)   (rows)

    hold for every eta, ell.  This is the acceptance oracle; a failure is
    an internal error."""
    if not W.J.has_mul:
        raise PreconditionError("refined law needs associative coordinates")
    res = first_law(W, v)
    X, Xbar, omega = res.lifted, res.data["xbar"], res.data["omega"]
    WE = res.data["space"]
    JE = WE.J
    R = res.data["R"] = mat_map(JE.extend, r_of(W, v))
    Rr = r_right(R)
    if rng is None:
        rng = random.Random(0)
    if eta is None:
        eta = (JE.random(rng), JE.random(rng))
    if ell is None:
        ell = (JE.random(rng), JE.random(rng))
    lhs = shriek_col(WE, u_apply(R, omega, eta))
    rhs = Xbar * WE.pair(X, shriek_col(WE, eta))
    res.require("((w+R(v))/2 eta)! = <X, eta!> Xbar", lhs == rhs)

    lhs2 = shriek_row(WE, u_apply(Rr, omega, ell, "right"))
    rhs2 = X * WE.pair(shriek_row(WE, ell), Xbar)
    res.require("(ell (w+R_r(v))/2)! = <ell!, Xbar> X", lhs2 == rhs2)
    return res


def unique_lift_recover(W: WSpace, v1: WElt, v2: WElt, omega_sq):
    """Given that w v1 + v2 is rank one with w^2 = omega_sq and q(v1) != 0,
    recover t with v2 = t v1_flat and omega_sq = t^2 q(v1); None otherwise."""
    q1 = W.quartic(v1)
    if not W.base.is_unit(q1):
        raise PreconditionError("needs q(v1) != 0")
    f = W.flat(v1)
    fc = f.coords
    vc = v2.coords
    t = None
    for a, b in zip(fc, vc):
        if W.base.is_unit(a):
            t = b * W.base.inv(a)
            break
    if t is None:
        return None
    if not (v2 == f * t):
        return None
    if not (omega_sq == t * t * q1):
        return None
    return t


def admissible_scale(W: WSpace, v: WElt, alpha, beta) -> LiftResult:
    """w = alpha v + beta v_flat, with the scaling identities

        q(w) = (alpha^2 - q(v) beta^2)^2 q(v)
        w_flat = (alpha^2 - q(v) beta^2)(alpha v_flat + q(v) beta v)."""
    alpha, beta = qq(alpha), qq(beta)
    q = W.quartic(v)
    f = W.flat(v)
    w = v * alpha + f * beta
    res = LiftResult(extension=None, lifted=w)
    factor = alpha * alpha - q * beta * beta
    res.require("q(av + bv_flat) = (a^2 - q b^2)^2 q",
                W.quartic(w) == factor * factor * q)
    res.require("(av + bv_flat)_flat = (a^2 - q b^2)(a v_flat + q b v)",
                W.flat(w) == (f * alpha + v * (q * beta)) * factor)
    return res


# ---------------------------------------------------------------------------
# The J + J construction: cubic ring and rank-one pair.
# ---------------------------------------------------------------------------


@dataclass
class PairData:
    """A pair (A, B) in J^2 together with its binary cubic
    f = (n(A), (A#,B), (A,B#), n(B)), the attached good-based cubic ring T,
    the discriminant Q, and the base-changed structure J_T."""

    J: CNS
    A: CnsElt
    B: CnsElt
    coeffs: tuple
    T: CommAlgebra
    JT: CNS
    Q: Scalar

    @property
    def omega(self) -> AlgElem:
        return self.T.elem([0, 1, 0])

    @property
    def theta(self) -> AlgElem:
        return self.T.elem([0, 0, 1])

    @property
    def omega0(self) -> AlgElem:
        b = self.coeffs[1]
        return self.T.elem([qq(b) * THIRD, 1, 0])

    @property
    def theta0(self) -> AlgElem:
        c = self.coeffs[2]
        return self.T.elem([-qq(c) * THIRD, 0, 1])


def disc_binary_cubic(a, b, c, d) -> Scalar:
    a, b, c, d = qq(a), qq(b), qq(c), qq(d)
    return (-27 * a * a * d * d + 18 * a * d * b * c + b * b * c * c
            - 4 * a * c ** 3 - 4 * d * b ** 3)


def gram_of_basis(T: CommAlgebra, basis=None) -> list[list[Scalar]]:
    """tr(x_i x_j) over a basis: T commutes, so i <= j and the mirror."""
    bs = basis if basis is not None else T.basis()
    gram = [[None] * len(bs) for _ in bs]
    for i, x in enumerate(bs):
        for j in range(i, len(bs)):
            gram[i][j] = gram[j][i] = T.trace(x * bs[j])
    return gram


def pair_cubic(J: CNS, A: CnsElt, B: CnsElt) -> PairData:
    """The binary cubic of (A, B) and its cubic ring with good basis,
    checking disc(1, w, t) = Q(f) and the trace-zero shifted table."""
    if not isinstance(J.base, RationalBase):
        raise PreconditionError("the pair law starts from the ground field")
    a = J.norm(A)
    b = J.pair(J.adjoint(A), B)
    c = J.pair(A, J.adjoint(B))
    d = J.norm(B)
    T = cubic_ring_algebra(a, b, c, d)
    Q = disc_binary_cubic(a, b, c, d)
    if det_fraction(gram_of_basis(T)) != Q:
        raise IdentityError("disc(1, w, t) != Q(f)")
    # shifted basis table: w0 t0 = (b/3) t0 - (c/3) w0 + (bc/9 - ad)
    b3, c3 = b * THIRD, c * THIRD
    w0 = T.elem([b3, 1, 0])
    t0 = T.elem([-c3, 0, 1])
    expected = t0 * b3 - w0 * c3 + T.from_rational(b3 * c3 - a * d)
    if not (w0 * t0 == expected):
        raise IdentityError("shifted good-basis table failed")
    return PairData(J, A, B, (a, b, c, d), T, J.base_change(T), Q)


def pair_lift(J: CNS, A: CnsElt, B: CnsElt, cross_checks: bool = True) -> LiftResult:
    """X = -A theta + B omega + A# x B# in J_T and Y = (1/2) X x_T X, with

        X# = 0,  Y# = 0,  (X, Y) = Q((A,B)),

    plus the closed form for Y and (over Hermitian coordinates) the
    trace-zero expressions through the coordinate ring maps."""
    pd = pair_cubic(J, A, B)
    T, JT = pd.T, pd.JT
    a, b, c, d = pd.coeffs
    X = (JT.extend(-A) * pd.theta + JT.extend(B) * pd.omega
         + JT.extend(J.cross(J.adjoint(A), J.adjoint(B))))
    Y = tensor_cross(JT, J, X, X) * HALF
    res = LiftResult(extension=T, lifted=X, data={"pair": pd, "Y": Y})
    res.require("X# = 0", JT.adjoint(X).is_zero())
    res.require("Y# = 0", JT.adjoint(Y).is_zero())
    QT = T.from_rational(pd.Q)
    res.require("(X, Y) = Q((A,B))", JT.pair(X, Y) == QT)
    # closed form for Y
    AxB = J.cross(A, B)
    As, Bs = J.adjoint(A), J.adjoint(B)
    yc = (JT.extend(As) * T.elem([-c * c + b * d, -3 * d, c])
          + JT.extend(AxB) * T.elem([b * c - 3 * a * d, c, -b])
          + JT.extend(Bs) * T.elem([-b * b + a * c, -b, 3 * a]))
    res.require("Y closed form", Y == yc)
    if cross_checks and isinstance(J, H3CNS) and J.comp.is_associative:
        sr = sr_maps(J, pd, check=False)
        M = sr.space
        # X = -(1/2)(A S(theta0) - B S(omega0)) - A theta0 + B omega0
        m = (M.from_rows(J.to_matrix(A)) * sr.images["theta0"]
             - M.from_rows(J.to_matrix(B)) * sr.images["omega0"])
        if not m == M.star(m):
            raise IdentityError("expected a Hermitian matrix")
        mid = J.from_matrix(M.rows(m))
        x0form = (JT.extend(mid) * (-HALF)
                  + JT.extend(-A) * pd.theta0 + JT.extend(B) * pd.omega0)
        res.require("X via trace-zero basis", X == x0form)
        # Y0 = (3(A theta0 - B omega0))# + (3(A theta0 - B omega0)) x (3 mid) = -3Y
        zt = JT.extend(A) * (pd.theta0 * 3) - JT.extend(B) * (pd.omega0 * 3)
        y0 = JT.adjoint(zt) + JT.cross(zt, JT.extend(mid * 3))
        res.require("Y0 = -3Y", y0 == Y * (-3))
    return res


@dataclass
class SrMaps:
    """The coordinate ring maps T -> M_3(C): S_r(w) = -A# B, S_r(t) = B# A,
    S_l = S_r conjugate-transposed; images on the good and trace-zero bases,
    elements of ``space`` = M_3(C)."""

    images: dict

    @property
    def space(self) -> MatrixSpace:
        return self.images["one"].space

    def s_r(self, lam: AlgElem):
        """S_r(lam) in M_3(C) for lam in T (rational coordinates)."""
        c0, c1, c2 = lam.coords
        im = self.images
        return im["one"] * c0 + im["omega"] * c1 + im["theta"] * c2

    def s_l(self, lam: AlgElem):
        return self.space.star(self.s_r(lam))


def sr_maps(J: H3CNS, pd: PairData, check: bool = True) -> SrMaps:
    if not (isinstance(J, H3CNS) and J.comp.is_associative):
        raise PreconditionError("coordinate ring maps need Hermitian associative J")
    M = MatrixSpace(J.comp)
    A, B = pd.A, pd.B
    a, b, c, d = pd.coeffs
    mA, mB = (M.from_rows(J.to_matrix(x)) for x in (A, B))
    mAs, mBs = (M.from_rows(J.to_matrix(J.adjoint(x))) for x in (A, B))
    Sw = -(mAs * mB)
    St = mBs * mA
    images = {
        "one": M.one(),
        "omega": Sw,
        "theta": St,
        "omega0": Sw + qq(b) * THIRD,
        "theta0": St - qq(c) * THIRD,
    }
    sr = SrMaps(images)
    if check:
        T = pd.T
        w, t = pd.omega, pd.theta
        for lam, mu in ((w, w), (w, t), (t, t)):
            prod = T.coerce(lam * mu)
            if not sr.s_r(lam) * sr.s_r(mu) == sr.s_r(prod):
                raise IdentityError("S_r is not a ring map")
        # adjoint through the table: S_r(w#) = S_r(w)^2 - s1 S_r(w) + s2
        for lam in (w, t):
            s1, s2 = T.char_s1_s2(lam)
            m = sr.s_r(lam)
            if not sr.s_r(T.adjoint(lam)) == m * m - (m * s1 - s2):
                raise IdentityError("S_r does not match the adjoint through the table")
    return sr


def eigen_checks(H3T: H3CNS, pd: PairData, X: CnsElt, Y: CnsElt, sr: SrMaps) -> bool:
    """S_l(lam) X = lam X = X S_r(lam) and S_r(lam) Y = lam Y = Y S_l(lam),
    with H3T = H_3(C (x) T), each product with S_r(lam) or S_l(lam) over Q
    taken along T's components."""
    MT = MatrixSpace(H3T.comp)
    mx, my = (MT.from_rows(H3T.to_matrix(z.block(H3T))) for z in (X, Y))
    for lam in (pd.omega, pd.theta):
        srm, slm = sr.s_r(lam), sr.s_l(lam)
        lam_mx, lam_my = mx * lam, my * lam
        if not (MT.mul(slm, mx) == lam_mx and MT.mul(mx, srm) == lam_mx
                and MT.mul(srm, my) == lam_my and MT.mul(my, slm) == lam_my):
            return False
    return True


def epsilon_element(J: H3CNS, pd: PairData, sr: SrMaps):
    """The separability element eps = sum S_r(v_a) (x) w_a in M_3(C) (x) L,
    for a basis {v_a} of T and its trace-dual {w_a}, returned as rows over
    C (x) T; independent of the basis (checked against a second basis), and
    S_r(x) eps = eps x for every x.  eps is built by its T-components,
    eps_t = sum_a S_r(v_a) (w_a)_t, all over Q."""
    T = pd.T
    if pd.Q == 0:
        raise PreconditionError("eps needs disc(1, w, t) != 0")

    def build(basis):
        # the trace-dual w_a = sum_k c_k v_k has tr(v_i w_a) = delta_ia, so
        # its coordinates c are column a of the inverse Gram matrix
        duals = [sum_prod(basis, c) for c in zip(*inverse_fraction(gram_of_basis(T, basis)))]
        images = [sr.s_r(v_a) for v_a in basis]
        return [sum_prod([w_a.coord(t) for w_a in duals], images) for t in range(T.dim)]

    parts = build(T.basis())
    if parts != build([T.one(), pd.omega + T.one(), pd.theta + pd.omega]):
        raise IdentityError("eps depends on the basis")
    MT = MatrixSpace(J.comp.base_change(T))
    eps = MT.from_components(parts)
    # S_r(x) eps = eps x, along T's components
    for lam in (pd.omega, pd.theta):
        if not MT.mul(sr.s_r(lam), eps) == eps * lam:
            raise IdentityError("S_r(x) eps != eps x")
    return MT.rows(eps)


def hermitian_pair(J: CNS, A: CnsElt, B: CnsElt) -> LiftResult:
    """``pair_lift`` without its cross-checks, for a nondegenerate pair over
    Hermitian associative J, with data ``H3T`` = H_3(C (x) T) added."""
    if not (isinstance(J, H3CNS) and J.comp.is_associative):
        raise PreconditionError("needs Hermitian associative coordinates")
    res = pair_lift(J, A, B, cross_checks=False)
    pd: PairData = res.data["pair"]
    if pd.Q == 0:
        raise PreconditionError("needs Q((A,B)) != 0")
    res.data["H3T"] = H3CNS(J.comp.base_change(pd.T))
    return res


def pair_lift_refined(J: H3CNS, A: CnsElt, B: CnsElt, v=None,
                      rng: Optional[random.Random] = None) -> LiftResult:
    """The refined identity over Hermitian coordinates:

        Q((A,B)) (v eps)* (v eps) = (v Y v*) X   in H_3(C) (x) L."""
    base_lift = hermitian_pair(J, A, B)
    pd: PairData = base_lift.data["pair"]
    X, Y, H3T = base_lift.lifted, base_lift.data["Y"], base_lift.data["H3T"]
    compT = H3T.comp
    sr = sr_maps(J, pd)
    eps = epsilon_element(J, pd, sr)
    if rng is None:
        rng = random.Random(0)
    if v is None:
        v = tuple(J.comp.random(rng) for _ in range(3))
    vT = tuple(map(compT.extend, v))
    veps = row_times_mat(vT, eps)
    lhs = H3T.from_matrix(outer(veps, veps)) * pd.Q
    # (v Y v*) as a T-scalar
    ymat = H3T.to_matrix(Y.block(H3T))
    yv = mat_times_col(ymat, tuple(x.conj() for x in vT))
    vyv = sum_prod(vT, yv)
    rhs = X.block(H3T) * vyv.coord(0)
    res = LiftResult(extension=pd.T, lifted=X, data={"pair": pd, "Y": Y, "eps": eps})
    res.require("Q (v eps)*(v eps) = (v Y v*) X", lhs == rhs)
    res.require("eigenvector identities", eigen_checks(H3T, pd, X, Y, sr))
    return res


# ---------------------------------------------------------------------------
# The second lift: W_J into W_{U(S, lambda)}.
# ---------------------------------------------------------------------------


def iter_elements(J: CNS, cap: int, seed: int = 0) -> Iterator[CnsElt]:
    """Deterministic candidate stream of single elements: the unit, basis
    vectors, pairwise sums, then cap seeded random elements of height 2."""
    one = J.one()
    basis = J.basis()
    yield from search_stream(
        chain([one], (x for e in basis for x in (e, one + e)),
              (e + f for e in basis for f in basis)),
        J.random, repeat(2, cap), seed)


def find_antisymmetric_omega(sk: SecondKind, qv) -> AlgElem:
    """omega in K with omega* = -omega and omega^2 = q(v), or NoLiftError.
    For K = F[x]/(x^2 - D) the anti-fixed line is F x, so the condition is
    that q(v)/D is a square."""
    K = sk.K
    D = -K.modulus[0]
    ratio = qq(qv) * QQ_BASE.inv(D)
    t = rational_sqrt(ratio)
    if t is None:
        raise NoLiftError("q(v) is not omega^2 for any omega in K with omega* = -omega")
    return K.gen() * t


def embed_w(sk: SecondKind, WB: WSpace, v: WElt) -> WElt:
    K = sk.K
    return WB.concat(K.from_scalar(v.a), sk.embed(v.b), sk.embed(v.c), K.from_scalar(v.d))


def _b_inverse(B: CNS, x: CnsElt) -> CnsElt:
    n = B.norm(x)
    return B.adjoint(x) * B.base.inv(n)


def herm_pair_B(sk: SecondKind, eta1, eta2) -> CnsElt:
    """<eta, eta'>_B = x* y' - y* x' for columns eta = (x, y)."""
    x, y = eta1
    x2, y2 = eta2
    B = sk.B
    return B.mul(sk.star(x), y2) - B.mul(sk.star(y), x2)


@dataclass(kw_only=True)
class SecondLift(LiftResult):
    """The second lift's certificate together with its Tits data."""

    sk: SecondKind
    omega: AlgElem
    lam: AlgElem
    eta: tuple
    S: Optional[CnsElt] = None
    U: Optional[TitsUCNS] = None


def second_lift(sk: SecondKind, v: WElt, cap: int = 300, seed: int = 0) -> SecondLift:
    """Lift a rank-4 element of W_J to a rank-one element of W_{U(S, lambda)}:
    find lambda, eta with lambda eta! = (-omega v + v_flat)/2, set
    S = (<eta,eta>_B / omega)^{-1}, and verify the full certificate
    including eta S eta* = S(v) - (omega/2) J_2."""
    J = sk.J
    W = WSpace(J)
    qv = W.quartic(v)
    if not W.base.is_unit(qv):
        raise PreconditionError("second lift needs a rank-4 element")
    omega = find_antisymmetric_omega(sk, qv)
    K, B = sk.K, sk.B
    WB = WSpace(B)
    vB, fB = embed_w(sk, WB, v), embed_w(sk, WB, W.flat(v))
    X, Xbar = x_of(vB, fB, omega), x_of(vB, fB, -omega)
    R = r_of(WB, vB)

    def unit_value(cand):
        val = WB.pair(X, shriek_col(WB, cand))
        return (cand, val) if K.is_unit(val) else None

    col, val = witness_search(iter_search_rows(B, cap, seed), skip_dead_rows(B, unit_value),
                              "eta search bound exceeded; raise cap")
    eta = u_apply(R, omega, col)
    lam = K.inv(val)
    res = SecondLift(extension=None, lifted=None, sk=sk, omega=omega, lam=lam, eta=eta)
    res.check("lambda eta! = X(-omega, v)", shriek_col(WB, eta) * lam == Xbar)
    hb = herm_pair_B(sk, eta, eta)
    res.check("<eta,eta>_B is *-antisymmetric", sk.star(hb) == -hb)
    s_inv = hb * K.inv(omega)
    nS_inv = B.norm(s_inv)
    res.check("n(<eta,eta>_B / omega) = (lambda lambda*)^{-1}",
              nS_inv == K.inv(lam * K.conj(lam)))
    S_B = _b_inverse(B, s_inv)
    S = sk.project(S_B)
    res.S = S
    res.check("n(S) = lambda lambda*", J.norm(S) == K.norm(lam))
    res.U = TitsUCNS(sk, S, lam)
    res.lifted, rank_one = w_u_lift(res.U, v, (-eta[0], eta[1]))
    res.check("v + eta rank one in W_U", rank_one)
    res.check("eta S eta* = S(v) - (omega/2) J_2",
              mat_eq(_eta_s_eta_star(sk, eta, S_B), _tits_h(WB, vB, omega)))
    return res


def _eta_s_eta_star(sk: SecondKind, eta, S_B: CnsElt):
    """eta S eta* in M_2(B) for a column pair eta over B and S in B."""
    col = column(eta)
    return mat_mul(mat_smul(col, S_B), mat_star(col, sk.star))


def _tits_h(WB: WSpace, vB: WElt, omega: AlgElem):
    """h = S(v) - (omega/2) J_2 in M_2(B)."""
    return mat_sub(s_of(WB, vB), mat_smul(m2_j2(WB.J), omega * HALF))


# -- the choice-free quotient model U = Utilde / I(v, omega) -----------------


def _delta(A: CNS, v: WElt, ell) -> tuple:
    """delta(ell; v) over A for a row pair ell = (u, w) and v with
    coordinates in A, without the terms that have a zero block of ell as a
    factor: the quotient model's canonical representatives often have u = 0."""
    u, w = ell
    delta1 = delta2 = A.zero()
    if u:
        us = A.adjoint(u)
        delta1, delta2 = us * v.a, A.mul(v.b, us)
        if w:
            delta1 += A.cross(u, A.mul(w, v.b))
            delta2 += A.cross(A.mul(u, v.c), w)
    if w:
        ws = A.adjoint(w)
        delta1 += A.mul(v.c, ws)
        delta2 += ws * v.d
    return delta1, delta2


def _delta_cross(A: CNS, v: WElt, ell, ell2) -> tuple:
    """delta(ell + ell2) - delta(ell) - delta(ell2), the bilinear
    polarization of ``_delta``, for row pairs ell = (u, w), ell2 = (u2, w2),
    without the terms that have a zero block as a factor."""
    (u, w), (u2, w2) = ell, ell2
    delta1 = delta2 = A.zero()
    if u and u2:
        uu = A.cross(u, u2)
        delta1, delta2 = uu * v.a, A.mul(v.b, uu)
    if u and w2:
        delta1 += A.cross(u, A.mul(w2, v.b))
        delta2 += A.cross(A.mul(u, v.c), w2)
    if u2 and w:
        delta1 += A.cross(u2, A.mul(w, v.b))
        delta2 += A.cross(A.mul(u2, v.c), w)
    if w and w2:
        ww = A.cross(w, w2)
        delta1 += A.mul(v.c, ww)
        delta2 += ww * v.d
    return delta1, delta2


def _times_block(B: CNS, xb: CnsElt, y: CnsElt) -> CnsElt:
    """xb y in B for a block y of a row pair, with no product when a factor is 0."""
    return B.mul(xb, y) if xb and y else B.zero()


def _j2_inv_shriek(W: WSpace, ell) -> WElt:
    """J_2^{-1} ell!, where J_2^{-1} acts on W as (a, b, c, d) -> (-d, c, -b, a)."""
    shr = shriek_row(W, ell)
    return W.concat(-shr.d, shr.c, -shr.b, shr.a)


class QuotientTitsU(CNS):
    """The cubic norm structure on (J + B^2) / I(v, omega) for a rank-4
    v in W_J and omega in K with omega* = -omega, omega^2 = q(v); without
    an omega it is found from the q(v) taken here (``find_antisymmetric_omega``).

    Coordinates are J's coordinates, then the canonical representative of
    the row pair ell in B^2 read off the free (non-pivot) columns of
    I(v, omega): ell reduced by the pivot rows has zero pivot coordinates,
    which are not stored.  So dim = dim J + dim_F B, and equality of
    elements is equality of coordinates.

    I(v, omega) is the left kernel of ell -> ell h.  Where h11 is a unit of
    B it is the graph ell1 = ell0 M of M = -h01 h11^-1, certified by
    M h11 = -h01 and by the vanishing Schur complement h00 + M h10 (h has
    B-rank one); its pivots are ell0's flat columns, so every canonical
    representative has ell0 = 0.  Otherwise (a split K) it is read off one
    elimination of the matrix of ell -> ell h.
    """

    def __init__(self, sk: SecondKind, v: WElt, omega: Optional[AlgElem] = None):
        self.sk = sk
        self.v = v
        J, B, K = sk.J, sk.B, sk.K
        self.base = J.base
        q = v.W.quartic(v)
        if not J.base.is_unit(q):
            raise PreconditionError("quotient model needs a rank-4 element")
        if omega is None:
            omega = find_antisymmetric_omega(sk, q)
        self.omega = omega
        if not (omega * omega == K.from_rational(q)):
            raise PreconditionError("omega^2 must equal q(v)")
        if not (K.conj(omega) == -omega):
            raise PreconditionError("omega must be *-antisymmetric")
        self.WB = WSpace(B)
        self.vB = embed_w(sk, self.WB, v)
        self.Xbar = x_of(self.vB, embed_w(sk, self.WB, v.W.flat(v)), -omega)
        self.h = _tits_h(self.WB, self.vB, omega)
        self.B2 = DirectSum(B, B)
        n = self._fdim = B.flat_dim()
        (h00, h01), (h10, h11) = self.h
        n11 = B.norm(h11)
        if B.base.is_unit(n11):
            # I(v, omega) is the graph ell1 = ell0 M of M = -h01 h11^-1 = -h01 h11# / n(h11):
            # M h11 = -h01 solves ell0 h01 + ell1 h11 = 0, and the Schur complement
            # h00 + M h10 = 0 makes ell0 h00 + ell1 h10 = 0 hold on it; its reduced pivot
            # rows are (e_i, e_i M), e_i M column i of y -> y M over M.den * table.den
            M = -B.mul(h01, B.adjoint(h11)) * B.base.inv(n11)
            if not (B.mul(M, h11) == -h01) or h00 + B.mul(M, h10):
                raise IdentityError("I(v, omega) does not have B-corank one")
            t = B._product
            cols, d = t.contract(M), M.den * t.den
            rows = []
            for i in range(n):
                row = [0] * n + [c[i] for c in cols]
                row[i] = d
                g = math.gcd(*row)
                rows.append(([x // g for x in row], d // g))
            self._pivots = list(range(n))
        else:
            # otherwise (split K) by one elimination of ell -> ell h: with the columns
            # reversed a null vector ends in its 1, so read back and sorted by first
            # nonzero entry the null vectors are the reduced pivot rows
            ker = kernel([row[::-1] for row in self._h_matrix()])
            if len(ker) != n:
                raise IdentityError("I(v, omega) does not have B-corank one")
            lead = sorted((next(j for j, c in enumerate(row) if c), row)
                          for row in (v[::-1] for v in ker))
            self._pivots = [j for j, _ in lead]
            rows = [row_over_lcd(row) for _, row in lead]
        self._rows, self._den = over_lcd(rows)
        self._free = [j for j in range(2 * n) if j not in self._pivots]
        self.dim = J.dim + len(self._free)
        self.name = f"utildeQ({sk.kind})"
        self.has_mul = False

    @property
    def _reduced(self) -> list[list]:
        """The reduced pivot rows of I(v, omega), rationals, off the int rows."""
        return [list(QQ_BASE.scalars(row, self._den)) for row in self._rows]

    # -- plumbing ------------------------------------------------------------

    def _h_matrix(self) -> list[list[int]]:
        """The matrix of ell -> ell h on B^2 times a positive integer: the
        rows of l0 h00 + l1 h10, then of l0 h01 + l1 h11, each y -> y h_ij
        B's product table contracted on the right with h_ij."""
        t = self.sk.B._product
        (h00, h01), (h10, h11) = self.h
        den = math.lcm(h00.den, h01.den, h10.den, h11.den)

        def times(h):
            k = den // h.den
            return [[k * x for x in row] for row in t.contract(h)]

        return ([p + q for p, q in zip(times(h00), times(h10))]
                + [p + q for p, q in zip(times(h01), times(h11))])

    def _lhl(self, e1, e2) -> CnsElt:
        """l1 h l2* in B for row pairs l1, l2: (l1 h)_j l2_j* summed over the
        nonzero blocks l2_j, each (l1 h)_j over the nonzero blocks of l1."""
        star, acc = self.sk.star, self.sk.B.zero()
        if any(e1):
            for j, y in enumerate(e2):
                if y:
                    acc += sum_prod(e1, (self.h[0][j], self.h[1][j])) * star(y)
        return acc

    def _lhl_polar(self, e1, e2) -> CnsElt:
        """l1 h l2* + l2 h l1*, the polarization of l h l*: y + y* for
        y = l1 h l2*, as h is Hermitian and * reverses products."""
        y = self._lhl(e1, e2)
        return y + self.sk.star(y)

    def split(self, x: CnsElt):
        J = self.sk.J
        num = [0] * (2 * self._fdim)
        for j, n in zip(self._free, x.num[J.flat_dim():]):
            num[j] = n
        return x.block(J), self.B2.from_num(num, x.den)

    def join(self, xj: CnsElt, ell) -> CnsElt:
        """The class of (xj, ell): ell's numerators N over e go along all pivot
        rows R_p over D at once, N D - sum_p N_p R_p over e D, then one gcd."""
        num, e = self.B2.num_den(ell)
        red, d = [n * self._den for n in num], e * self._den
        for p, row in zip(self._pivots, self._rows):
            if num[p]:
                red = [a - num[p] * r for a, r in zip(red, row)]
        return self.from_num([n * d for n in xj.num] + [red[j] * xj.den for j in self._free],
                             d * xj.den)

    def one(self) -> CnsElt:
        return self.join(self.sk.J.one(), (self.sk.B.zero(), self.sk.B.zero()))

    def random(self, rng, height: int = 2, integral: bool = True) -> CnsElt:
        J, B = self.sk.J, self.sk.B
        return self.join(J.random(rng, height, integral),
                         (B.random(rng, height, integral), B.random(rng, height, integral)))

    # -- the structure maps (raw versions take (xj, ell) directly) -----------

    def norm_raw(self, xj: CnsElt, ell):
        sk, J = self.sk, self.sk.J
        return (J.norm(xj) - J.pair(xj, sk.project(self._lhl(ell, ell)))
                + sk.K.trace(self.WB.pair(self.Xbar, _j2_inv_shriek(self.WB, ell))))

    def adjoint_raw(self, xj: CnsElt, ell):
        sk, J, B = self.sk, self.sk.J, self.sk.B
        first = J.adjoint(xj) - sk.project(self._lhl(ell, ell))
        delta1, delta2 = _delta(B, self.vB, ell)
        xb = sk.embed(xj)
        second = (-_times_block(B, xb, ell[0]) - sk.star(delta2),
                  -_times_block(B, xb, ell[1]) + sk.star(delta1))
        return first, second

    def pair_raw(self, x1: CnsElt, e1, x2: CnsElt, e2):
        sk, J = self.sk, self.sk.J
        return J.pair(x1, x2) + J.trace(sk.project(self._lhl_polar(e1, e2)))

    def norm(self, x: CnsElt):
        xj, ell = self.split(x)
        return self.norm_raw(xj, ell)

    def adjoint(self, x: CnsElt) -> CnsElt:
        xj, ell = self.split(x)
        first, second = self.adjoint_raw(xj, ell)
        return self.join(first, second)

    def cross(self, x: CnsElt, y: CnsElt) -> CnsElt:
        """adjoint_raw polarized, on the representatives of x and y."""
        sk, J, B = self.sk, self.sk.J, self.sk.B
        x1, e1 = self.split(x)
        x2, e2 = self.split(y)
        first = J.cross(x1, x2) - sk.project(self._lhl_polar(e1, e2))
        delta1, delta2 = _delta_cross(B, self.vB, e1, e2)
        xb1, xb2 = sk.embed(x1), sk.embed(x2)
        second = (-_times_block(B, xb1, e2[0]) - _times_block(B, xb2, e1[0]) - sk.star(delta2),
                  -_times_block(B, xb1, e2[1]) - _times_block(B, xb2, e1[1]) + sk.star(delta1))
        return self.join(first, second)

    def pair(self, x: CnsElt, y: CnsElt):
        xj, e1 = self.split(x)
        yj, e2 = self.split(y)
        return self.pair_raw(xj, e1, yj, e2)

    def base_change(self, new_base):
        raise DescriptorError("quotient model is constructed over the ground field")

    def _key(self):
        return (self.name, self.sk.J, self.sk.K, self.v.coords, self.omega.coords)


def utilde_cns(sk: SecondKind, v: WElt, omega: Optional[AlgElem] = None) -> LiftResult:
    """The quotient model U = (J + B^2)/I(v, omega), with the rank-one image
    of v + 1_2 certified."""
    J = sk.J
    U = QuotientTitsU(sk, v, omega)
    omega = U.omega
    one, zero = sk.B.one(), sk.B.zero()
    lifted, rank_one = w_u_lift(U, v, ((-one, zero), (zero, one)))
    res = LiftResult(extension=None, lifted=lifted, data={"U": U, "omega": omega})
    res.require("I(v, omega) has B-corank one", U.dim == J.dim + sk.B.flat_dim())
    res.require("image of v + 1_2 is rank one", rank_one)
    return res


# -- the commutative special case (A commutative, omega-free formulas) -------


class GanSavinU(CNS):
    """U = A + A^2 for a commutative associative A and a rank-4 v in W_A:

        n((x,l))  = n(x) - (x, l S(v) l^t) + <v_flat, J_2^{-1} l!>
        (x,l)#    = (x# - l S(v) l^t, -x l + delta(l; v)^t J_2)
        cross     = the adjoint polarized, with delta's polarization
        pairing   = (x1,x2) + tr(l1 S(v) l2^t + l2 S(v) l1^t).
    """

    def __init__(self, A: CNS, v: WElt):
        if not A.has_mul:
            raise PreconditionError("the commutative model needs an associative A")
        # commutativity: multiplication agrees with its flip on a basis
        for e in A.basis():
            for f in A.basis():
                if not (A.mul(e, f) == A.mul(f, e)):
                    raise PreconditionError("the commutative model needs commutative A")
        self.A = A
        self.v = v
        self.W = v.W
        if not self.W.base.is_unit(self.W.quartic(v)):
            raise PreconditionError("needs a rank-4 element")
        self.S = s_of(self.W, v)
        self.vflat = self.W.flat(v)
        self.base = A.base
        self.dim = 3 * A.dim
        self.name = f"gansavinU({A.name})"
        self.has_mul = False

    def split(self, x: CnsElt):
        A = self.A
        return x.block(A), (x.block(A, A.dim), x.block(A, 2 * A.dim))

    def join(self, xa: CnsElt, ell) -> CnsElt:
        return self.concat(xa, *ell)

    def one(self) -> CnsElt:
        return self.join(self.A.one(), (self.A.zero(), self.A.zero()))

    def _lsl(self, e1, e2) -> CnsElt:
        """l1 S(v) l2^t in A for row pairs l1, l2."""
        return sum_prod(row_times_mat(e1, self.S), e2)

    def norm(self, x: CnsElt):
        A = self.A
        xa, ell = self.split(x)
        return (A.norm(xa) - A.pair(xa, self._lsl(ell, ell))
                + self.W.pair(self.vflat, _j2_inv_shriek(self.W, ell)))

    def adjoint(self, x: CnsElt) -> CnsElt:
        A = self.A
        xa, ell = self.split(x)
        first = A.adjoint(xa) - self._lsl(ell, ell)
        delta1, delta2 = _delta(A, self.v, ell)
        second = ((-A.mul(xa, ell[0])) - delta2, (-A.mul(xa, ell[1])) + delta1)
        return self.join(first, second)

    def cross(self, x: CnsElt, y: CnsElt) -> CnsElt:
        A = self.A
        xa, e1 = self.split(x)
        ya, e2 = self.split(y)
        first = A.cross(xa, ya) - self._lsl(e1, e2) - self._lsl(e2, e1)
        delta1, delta2 = _delta_cross(A, self.v, e1, e2)
        second = (-A.mul(xa, e2[0]) - A.mul(ya, e1[0]) - delta2,
                  -A.mul(xa, e2[1]) - A.mul(ya, e1[1]) + delta1)
        return self.join(first, second)

    def pair(self, x: CnsElt, y: CnsElt):
        A = self.A
        xa, e1 = self.split(x)
        ya, e2 = self.split(y)
        return A.pair(xa, ya) + A.trace(self._lsl(e1, e2) + self._lsl(e2, e1))

    def base_change(self, new_base):
        raise DescriptorError("constructed over the ground field")

    def _key(self):
        return (self.name, self.A, self.v.coords)


def gan_savin_cns(A: CNS, v: WElt) -> LiftResult:
    """The omega-free cubic norm structure U = A + A^2 attached to a rank-4
    v over commutative associative A, with the rank-one lift
    (a, (b, -e1), (c, e2), d) certified."""
    U = GanSavinU(A, v)
    z, one = A.zero(), A.one()
    lifted, rank_one = w_u_lift(U, v, ((-one, z), (z, one)))
    res = LiftResult(extension=None, lifted=lifted, data={"U": U})
    res.require("lifted element is rank one", rank_one)
    return res


# ---------------------------------------------------------------------------
# Lower-rank lifts.
# ---------------------------------------------------------------------------


def iter_comp_rows(comp: CompAlgebra, n: int, cap: int, seed: int = 0) -> Iterator[tuple]:
    """Candidate rows in C^n: basis placements, pair sums, then cap seeded
    random rows of height 2."""
    basis = comp.basis()
    zero = comp.zero()

    def row(at: dict) -> tuple:
        return tuple(at.get(k, zero) for k in range(n))

    yield from search_stream(
        chain((row({i: e}) for i in range(n) for e in basis),
              (row({i: e, j: f}) for i, j in combinations(range(n), 2)
               for e in basis for f in basis)),
        lambda rng, h: tuple(comp.random(rng, h) for _ in range(n)), repeat(2, cap), seed)


def hermitian_rank1_decompose(J: H3CNS, Y: CnsElt, cap: int = 300, seed: int = 0):
    """Write a rank-one Hermitian element as Y = mu v0 v0* with mu a unit of
    the base and v0 a primitive column (witness w with w v0 = 1).

    Returns (mu, v0, w)."""
    if not J.comp.is_associative:
        raise PreconditionError("decomposition needs associative coordinates")
    if Y.is_zero() or not J.adjoint(Y).is_zero():
        raise PreconditionError("decomposition needs a rank-one element")
    return unit_scalar_row(J.comp, J.to_matrix(Y), iter_comp_rows(J.comp, 3, cap, seed),
                           "rank-one decomposition search exhausted; raise cap")


def unit_scalar_row(comp: CompAlgebra, m, rows, message: str, over_ground: bool = False):
    """The first of ``rows`` with w m w* = mu a unit scalar, for a Hermitian
    m of rank one over comp; with ``over_ground`` the rows are drawn over
    comp's ground field and w is their extension into comp.

    Returns (mu, v0, w) with m = mu v0 v0* and w v0 = 1, where w is the row
    as drawn; the search raises BoundExceededError with ``message`` when the
    rows run out.  A unit mu whose w m w* is not scalar, or whose
    decomposition does not verify, raises IdentityError."""
    base = comp.base

    def test(row):
        w = tuple(map(comp.extend, row)) if over_ground else row
        mw = mat_times_col(m, tuple(x.conj() for x in w))
        val = sum_prod(w, mw)
        mu = val.coords[0]
        if not base.is_unit(mu):
            return None
        if not (val == comp.from_scalar(mu)):
            raise IdentityError("w Y w* is not scalar")
        mu_inv = base.inv(mu)
        v0 = tuple(c * mu_inv for c in mw)
        # m = mu v0 v0*, where mu v0 = m w*
        if not mat_eq(mat_mul(column(mw), mat_star(column(v0))), m):
            raise IdentityError("rank-one decomposition failed to verify")
        if not (sum_prod(w, v0) == comp.one()):
            raise IdentityError("primitivity witness failed")
        return mu, v0, row

    return witness_search(rows, test, message)


def rank2_h3_lift(J: H3CNS, X: CnsElt, cap: int = 300, seed: int = 0) -> LiftResult:
    """Lift a rank-2 Hermitian element to a rank-one element of
    U(gamma) = H_3(C(gamma)): X# = -gamma v* v, v X = 0, (X, v) rank one."""
    if not isinstance(J, H3CNS):
        raise PreconditionError("the rank-2 Hermitian lift needs a Hermitian structure")
    if J.rank(X) != 2:
        raise PreconditionError("rank-2 input required")
    mu, v0, w = hermitian_rank1_decompose(J, J.adjoint(X), cap, seed)
    gamma = -mu
    v = tuple(c.conj() for c in v0)
    U = CayleyUCNS(J.comp, gamma)
    lifted = U.join(X, v)
    res = LiftResult(extension=None, lifted=lifted,
                     data={"gamma": gamma, "v": v, "U": U})
    xm = J.to_matrix(X)
    vx = row_times_mat(v, xm)
    res.require("v X = 0", all(e.is_zero() for e in vx))
    res.require("(X, v) rank one in U(gamma)",
                (not lifted.is_zero()) and U.adjoint(lifted).is_zero())
    # class of gamma is well-defined: a second decomposition gives the same
    # class in F^x / n(C^x) (semi-decided by witness search)
    mu2, _, _ = hermitian_rank1_decompose(J, J.adjoint(X), cap, seed + 1)
    wit = comp_norm_class_witness(J.comp, -mu2, gamma, cap)
    res.check("gamma class reproducible (witness found)", wit is not None)
    return res


def comp_norm_class_witness(comp: CompAlgebra, g1, g2, cap: int = 300, seed: int = 0):
    """Semi-decision for g1 = g2 in F^x / n(C^x): x with n(x) g1 = g2."""
    return witness_search(iter_comp_rows(comp, 1, cap, seed),
                          lambda row: row[0] if row[0].norm() * g1 == g2 else None)


def rank2_w_lift(W: WSpace, x: WElt, cap: int = 300, seed: int = 0) -> LiftResult:
    """Lift a rank-2 element of W_{H_3(C)} to a rank-one element of
    W_{U(gamma)}: find u in C^6 with <u, u>_C = 0 and -S(x) = gamma u* u."""
    J = W.J
    if not (isinstance(J, H3CNS) and J.comp.is_associative):
        raise PreconditionError("needs Hermitian associative coordinates")
    if W.rank(x) != 2:
        raise PreconditionError("rank-2 input required")
    comp = J.comp
    S6 = s_of_h3(W, x)
    # -S(x) = gamma v0 v0*, and u = v0* is the row that lifts x
    gamma, v0, _ = unit_scalar_row(comp, mat_neg(S6), iter_comp_rows(comp, 6, cap, seed),
                                   "rank-2 lift search exhausted; raise cap")
    u = tuple(c.conj() for c in v0)
    # <u, u>_C = u_1 u_2* - u_2 u_1* for the halves of u, where u* = v0
    herm = sum_prod(u[:3], v0[3:]) - sum_prod(u[3:], v0[:3])
    U = CayleyUCNS(comp, gamma)
    lifted, rank_one = w_u_lift(U, x, (tuple(-e for e in u[:3]), u[3:]))
    res = LiftResult(extension=None, lifted=lifted,
                     data={"gamma": gamma, "u": u, "U": U})
    res.require("<u, u>_C = 0", herm.is_zero())
    res.require("-S(x) = gamma u* u", mat_eq(mat_neg(S6), mat_smul(outer(u, u), gamma)))
    res.require("x + u rank one in W_U(gamma)", rank_one)
    return res


def rank3_w_lift(sk: SecondKind, x: WElt, cap: int = 300, seed: int = 0) -> LiftResult:
    """Lift a rank-3 element of W_J to a rank-one element of W_{U(h)} for the
    Tits structure with (S, lambda) = (h#, n(h)):

        Lift(x, h) = { eta : <eta,eta>_B = 0, S(x) = eta h# eta*,
                       x_flat / 2 = n(h) eta! }.

    The construction follows the two explicit cases at (1, 0, c, d), with a
    similitude word (and its transport on eta) handling general position."""
    J, B, K = sk.J, sk.B, sk.K
    W = WSpace(J)
    if W.rank(x) != 3:
        raise PreconditionError("rank-3 input required")
    one, zero = B.one(), B.zero()
    ops = []  # ("mat", M^{-1}) and ("scale", s), one per step, applied left to right
    cur = x
    # step 1: make the a-slot a unit
    if not W.base.is_unit(cur.a):
        if W.base.is_unit(cur.d):
            cur = h_apply(HOperator("wj"), cur)
            ops.append(("mat", mat_neg(m2_j2(B))))
        else:
            Y, cur = witness_search(
                ((Y, h_apply(HOperator("nbarj", (Y,)), cur)) for Y in iter_elements(J, cap, seed)),
                lambda hit: hit if W.base.is_unit(hit[1].a) else None,
                "normalization search exhausted")
            ops.append(("mat", ((one, sk.embed(-Y)), (zero, one))))
    # step 2: kill the b-slot
    a_inv = W.base.inv(cur.a)
    Xop = cur.b * (-a_inv)
    if not Xop.is_zero():
        cur = h_apply(HOperator("nj", (Xop,)), cur)
        ops.append(("mat", ((one, zero), (sk.embed(-Xop), one))))
    # step 3: scale to a = 1; the recorded payload is the factor applied
    if not (cur.a == W.base.coerce(1)):
        lam = W.base.inv(cur.a)
        cur = cur * lam
        ops.append(("scale", lam))
    # step 4: if d = 0 and tr(c#) = 0, move to tr(c#) != 0
    if W.base.is_zero(cur.d):
        cs = J.adjoint(cur.c)
        if W.base.is_zero(J.trace(cs)):
            def moves(y):
                ny = J.norm(y)
                if not W.base.is_unit(ny):
                    return None
                y2 = J.cross(y, y) * HALF  # y^2 via cross for non-mul instances
                if J.has_mul:
                    y2 = J.mul(y, y)
                return None if W.base.is_zero(J.pair(y2, cs)) else (y, ny)

            y, ny = witness_search(iter_elements(J, cap, seed + 1), moves,
                                   "trace normalization search exhausted")
            # diag(y^{-1}, y) in G, then rescale by n(y)
            cur = _diag_apply(sk, W, y, cur) * ny
            y_B = sk.embed(y)
            ops.append(("mat", ((y_B, zero), (zero, _b_inverse(B, y_B)))))
            ops.append(("scale", ny))
    # construction at (1, 0, c, d)
    c, d = cur.c, cur.d
    if W.base.is_unit(d):
        d_inv = W.base.inv(d)
        h = J.adjoint(c) * (-2 * d_inv)
        eta = (one, sk.embed(h))
    else:
        cs = J.adjoint(c)
        tr = J.trace(cs)
        S = c - cs
        u = J.one() - cs * W.base.inv(tr)
        h = J.adjoint(S) * W.base.inv(tr)
        u_B = sk.embed(u)
        eta = (u_B, B.mul(B.adjoint(sk.star(u_B)), sk.embed(h)))
    # transport back through the word
    for kind, payload in reversed(ops):
        if kind == "scale":
            h = h * W.base.inv(payload)
        else:
            eta = mat_times_col(payload, eta)
    # certify Lift(x, h) on the original element
    nh = J.norm(h)
    if not W.base.is_unit(nh):
        raise IdentityError("constructed h is not invertible")
    WB = WSpace(B)
    xB = embed_w(sk, WB, x)
    U = TitsUCNS(sk, J.adjoint(h), K.coerce(nh))
    lifted, rank_one = w_u_lift(U, x, (-eta[0], eta[1]))
    res = LiftResult(extension=None, lifted=lifted, data={"h": h, "eta": eta, "U": U})
    herm = herm_pair_B(sk, eta, eta)
    res.require("<eta, eta>_B = 0", herm.is_zero())
    res.require("S(x) = eta h# eta*",
                mat_eq(_eta_s_eta_star(sk, eta, sk.embed(J.adjoint(h))), s_of(WB, xB)))
    res.require("x_flat / 2 = n(h) eta!",
                embed_w(sk, WB, W.flat(x)) * HALF == shriek_col(WB, eta) * nh)
    res.require("x + eta rank one in W_U(h)", rank_one)
    return res


def _diag_apply(sk: SecondKind, W: WSpace, y: CnsElt, v: WElt) -> WElt:
    """Left action of diag(y^{-1}, y): (a, b, c, d) ->
    (n(y)^{-1} a, y b y / n(y), y^{-1} c y#, n(y) d), computed in B."""
    J, B = sk.J, sk.B
    ny = J.norm(y)
    ny_inv = W.base.inv(ny)
    y_B = sk.embed(y)
    ys_B = sk.embed(J.adjoint(y))
    yinv_B = _b_inverse(B, y_B)
    b_new = sk.project(B.mul(B.mul(y_B, sk.embed(v.b)), y_B)) * ny_inv
    c_new = sk.project(B.mul(B.mul(yinv_B, sk.embed(v.c)), ys_B))
    return W.concat(v.a * ny_inv, b_new, c_new, v.d * ny)
