"""Quadratic and cubic rings with good bases, balanced fractional ideals over
S (x) A and T (x) C, the orbit <-> ideal correspondences in both directions,
and the unit-class invariants of nondegenerate orbits over the field.

The integral paths fix the base ring Z (so x^2 + x in 2Z holds and the
orientation hypothesis (Z^x)^2 = 1 applies); all formulas stay
denominator-tracked so the field-level statements run on the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cns import (
    CNS,
    CnsElt,
    H3CNS,
    cubic_ring_algebra,
    tensor_cross,
)
from .composition import CompAlgebra, CompElt
from .freudenthal import (
    HALF,
    WElt,
    WSpace,
    det6,
    iter_search_rows,
    norm_class_witness,
    r_of,
    r_right,
    shriek_col,
    shriek_row,
)
from .lifting import (
    LiftResult,
    PairData,
    comp_norm_class_witness,
    disc_binary_cubic,
    epsilon_element,
    gram_of_basis,
    hermitian_rank1_decompose,
    iter_comp_rows,
    pair_cubic,
    pair_lift,
    sr_maps,
    unit_scalar_row,
    w_coerce,
    x_of,
)
from .matops import mat_mul, mat_star, mat_transpose, row_times_mat
from .scalars import (
    AlgElem,
    CommAlgebra,
    IdentityError,
    PreconditionError,
    QuotientAlgebra,
    RationalBase,
    det,
    det_fraction,
    is_integral,
    linsolve,
    qq,
    quadratic_field,
    witness_search,
)


# ---------------------------------------------------------------------------
# Rings with good bases.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadRing:
    """S_D = Z[tau]/(tau^2 - D tau + (D^2 - D)/4) for D a square mod 4."""

    D: Fraction

    def __post_init__(self):
        if not is_integral(self.D):
            raise PreconditionError("quadratic ring needs an integer discriminant")
        if int(self.D) % 4 not in (0, 1):
            raise PreconditionError("D must be a square modulo 4Z")

    @property
    def co(self) -> Fraction:
        return (self.D * self.D - self.D) / 4

    def field(self) -> QuotientAlgebra:
        """E = F[w]/(w^2 - D), with tau = (D + w)/2."""
        return quadratic_field(self.D)

    def tau(self, E: QuotientAlgebra) -> AlgElem:
        return (E.gen() + self.D) * HALF


def quad_ring(D) -> QuadRing:
    ring = QuadRing(qq(D))
    E = ring.field()
    t = ring.tau(E)
    if not (t * t == t * ring.D - ring.co):
        raise IdentityError("tau relation failed")
    return ring


@dataclass(frozen=True)
class CubicRing:
    """The cubic ring of a binary cubic (a, b, c, d) on its good basis."""

    coeffs: tuple

    def algebra(self) -> CommAlgebra:
        return cubic_ring_algebra(*self.coeffs)

    @property
    def disc(self) -> Fraction:
        return disc_binary_cubic(*self.coeffs)


def cubic_ring(a, b, c, d) -> CubicRing:
    ring = CubicRing((qq(a), qq(b), qq(c), qq(d)))
    T = ring.algebra()
    if det_gram(T) != ring.disc:
        raise IdentityError("disc(1, w, t) != Q(f)")
    return ring


def det_gram(T: CommAlgebra) -> Fraction:
    return det_fraction(gram_of_basis(T))


# ---------------------------------------------------------------------------
# Balanced S (x) A ideals  <->  rank-4 orbits in W_A.
# ---------------------------------------------------------------------------


@dataclass
class IdealSA:
    """A based fractional S (x) A ideal: basis (b1, b2) over A_E, the ring
    S_D, and the scalar beta in E^x."""

    ring: QuadRing
    J: CNS            # the coordinate structure A over the ground field
    E: QuotientAlgebra
    basis: tuple      # pair of CnsElt over A_E
    beta: AlgElem


def _decompose_tau(E: QuotientAlgebra, ring: QuadRing, val: AlgElem):
    """Write an element of E as p + q tau; returns (p, q)."""
    x0, x1 = val.coords
    # val = x0 + x1 w, tau = (D + w)/2  =>  w = 2 tau - D
    return (x0 - ring.D * x1, 2 * x1)


def _w_integral(v: WElt) -> bool:
    return all(is_integral(c) for c in v.coords())


def sa_norm_matrix(ideal: IdealSA):
    """g in M_2(A_F) with (b1, b2) = (tau, 1) g."""
    E, ring = ideal.E, ideal.ring
    J = ideal.J
    cols = []
    for b in ideal.basis:
        taus = []
        ones = []
        for coord in b.coords:
            p, q = _decompose_tau(E, ring, coord)
            ones.append(p)
            taus.append(q)
        cols.append((CnsElt(J, tuple(taus)), CnsElt(J, tuple(ones))))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def ideal_norm_sa(ideal: IdealSA):
    """N(I; tau, (b1, b2)) = det_6(g)."""
    W = WSpace(ideal.J)
    return det6(W, sa_norm_matrix(ideal))


def x_of_ideal_sa(ideal: IdealSA) -> WElt:
    JE = ideal.basis[0].J
    WE = WSpace(JE)
    binv = ideal.E.inv(ideal.beta)
    return shriek_row(WE, ideal.basis) * binv


def balanced_check_sa(ideal: IdealSA) -> dict:
    """The balanced condition: beta^{-1} (b1, b2)! in W_A (x) S (sufficient
    for all pairs from the ideal), the norm equality, and the
    determinant identity <X, Xbar> = w^3 det_6(g) / N(beta)."""
    E, ring = ideal.E, ideal.ring
    X = x_of_ideal_sa(ideal)
    integral = True
    for coord in X.coords():
        p, q = _decompose_tau(E, ring, coord)
        if not (is_integral(p) and is_integral(q)):
            integral = False
            break
    nrm = ideal_norm_sa(ideal)
    nbeta = E.norm(ideal.beta)
    WE = X.W
    Xbar = WElt(WE, E.conj(X.a), _conj_cns(E, X.b), _conj_cns(E, X.c), E.conj(X.d))
    omega = E.gen()
    lemma = WE.pair(X, Xbar) * nbeta == omega * omega * omega * nrm
    return {
        "integrality (beta^{-1} b! in W (x) S)": integral,
        "norm (det_6(g) = N(beta))": nrm == nbeta,
        "<X, Xbar> N(beta) = w^3 det_6(g)": lemma,
    }


def _conj_cns(E: QuotientAlgebra, x: CnsElt) -> CnsElt:
    return CnsElt(x.J, tuple(E.conj(c) for c in x.coords))


def iter_ell_candidates(J: CNS, E: QuotientAlgebra, eps, cap: int, seed: int = 0):
    """Rows ell in A_F^2: first tr_{E/F}(ell_1 eps) for ell_1 over the
    canonical basis of A_E^2 (the constructive recipe), then plain basis rows
    and seeded random rows."""
    JE = eps[0][0].J

    def tr_twist(ell1):
        row = row_times_mat(ell1, eps)
        out = []
        for entry in row:
            out.append(CnsElt(J, tuple(E.trace(c) for c in entry.coords)))
        return tuple(out)

    for ell1 in iter_search_rows(JE, max(8, cap // 4), seed):
        yield tr_twist(ell1)
    for ell in iter_search_rows(J, cap, seed + 1):
        yield ell


def cube_to_balanced(J: CNS, v: WElt, cap: int = 200, seed: int = 0, ell=None):
    """The integral correspondence, forward direction: a rank-4 integral
    element of W_A to a balanced based fractional S (x) A ideal.

    Returns (QuadRing, IdealSA, LiftResult-certificate)."""
    W = WSpace(J)
    if not isinstance(W.base, RationalBase):
        raise PreconditionError("integral correspondence runs over the ground field")
    if not _w_integral(v):
        raise PreconditionError("integral correspondence needs integral coordinates")
    D = W.quartic(v)
    if D == 0:
        raise PreconditionError("needs q(v) != 0")
    ring = quad_ring(D)
    E = ring.field()
    omega = E.gen()
    tau = ring.tau(E)
    JE = J.base_change(E)
    WE = WSpace(JE)
    vE = w_coerce(WE, v)
    X = x_of(WE, vE, omega)
    Xbar = x_of(WE, vE, -omega)
    res = LiftResult(extension=E, lifted=X, data={"omega": omega, "tau": tau})
    # integrality of the tau-form (automatic over Z since x^2 + x in 2Z)
    vprime = (W.flat(v) - v * D) * HALF
    res.require("X = tau v + (v_flat - Dv)/2 with integral parts", _w_integral(vprime))
    Rr = r_right(W, v)
    omega_inv = E.inv(omega)
    # eps = (w + R_r(v)) / (2w), entries over A_E
    half_oinv = omega_inv * HALF
    eps = tuple(tuple((JE.elem(Rr[i][j].coords) + (JE.one() if i == j else JE.zero()) * omega)
                      * half_oinv for j in range(2)) for i in range(2))
    # Omega = (D + R_r)/2 integral: the S-action on column vectors
    Omega = tuple(tuple((Rr[i][j] + (J.one() if i == j else J.zero()) * D) * HALF
                        for j in range(2)) for i in range(2))
    res.require("Omega = (D + R_r)/2 integral",
                all(all(is_integral(c) for c in Omega[i][j].coords)
                    for i in range(2) for j in range(2)))

    def unit_beta(cand):
        ell_E = (JE.elem(cand[0].coords), JE.elem(cand[1].coords))
        beta = WE.pair(shriek_row(WE, ell_E), Xbar) * E.inv(omega * omega * omega)
        return (cand, beta) if E.is_unit(beta) else None

    candidates = [ell] if ell is not None else iter_ell_candidates(J, E, eps, cap, seed)
    ell, beta = witness_search(candidates, unit_beta, "ell search bound exceeded; raise cap")
    ell_E = (JE.elem(ell[0].coords), JE.elem(ell[1].coords))
    b = row_times_mat(ell_E, eps)
    ideal = IdealSA(ring, J, E, tuple(b), beta)
    res.data["ideal"] = ideal
    res.data["ell"] = ell
    res.require("beta^{-1} b! = X(v)", x_of_ideal_sa(ideal) == X)
    res.require("<X, Xbar> = w^3",
                WE.pair(X, Xbar) == omega * omega * omega)
    checks = balanced_check_sa(ideal)
    for name, ok in checks.items():
        res.require(name, ok)
    # S-stability: tau b = b Omega_tau with integral Omega_tau = (Omega as tau-action)
    tau_b = tuple(x * tau for x in b)
    b_Om = tuple(_row_entry(JE, b, Omega, j) for j in range(2))
    res.require("tau b = b Omega (S-stability with integral action)",
                all(x == y for x, y in zip(tau_b, b_Om)))
    return ring, ideal, res


def _row_entry(JE, b, M, j):
    return JE.mul(b[0], JE.elem(M[0][j].coords)) + JE.mul(b[1], JE.elem(M[1][j].coords))


def balanced_to_cube(ideal: IdealSA) -> tuple:
    """The inverse direction: a balanced based ideal to its rank-4 element,
    with q(v) = D verified.  Raises on unbalanced input, naming the clause."""
    checks = balanced_check_sa(ideal)
    for name, ok in checks.items():
        if not ok:
            raise PreconditionError(f"unbalanced data: {name}")
    E, ring, J = ideal.E, ideal.ring, ideal.J
    X = x_of_ideal_sa(ideal)
    W = WSpace(J)
    vparts = []
    vprime = []
    for coord in X.coords():
        p, q = _decompose_tau(E, ring, coord)
        vparts.append(q)
        vprime.append(p)
    dimj = J.dim
    v = WElt(W, vparts[0], CnsElt(J, tuple(vparts[1:1 + dimj])),
             CnsElt(J, tuple(vparts[1 + dimj:1 + 2 * dimj])), vparts[-1])
    if W.quartic(v) != ring.D:
        raise IdentityError("recovered element has the wrong discriminant")
    return v, X


def sa_data_equivalent(i1: IdealSA, i2: IdealSA, cap: int = 200):
    """Equivalence test: X-elements agree iff there is x in A_E^x with
    b' = x b, beta' = n(x) beta.  Returns the witness, "not-equivalent",
    or "unknown" (solver found no unit witness)."""
    if i1.ring != i2.ring:
        return "not-equivalent"
    X1 = x_of_ideal_sa(i1)
    X2 = x_of_ideal_sa(i2)
    if not (X1 == X2):
        return "not-equivalent"
    JE = i1.basis[0].J
    E = i1.E
    # solve x b = b' over A_E, coordinates over Q
    bas = []
    for i in range(JE.dim):
        for ku in E.basis():
            coords = [E.zero()] * JE.dim
            coords[i] = ku
            bas.append(CnsElt(JE, tuple(coords)))
    cols = []
    for xb in bas:
        img = JE.mul(xb, i1.basis[0]).coords + JE.mul(xb, i1.basis[1]).coords
        flat = []
        for c in img:
            flat.extend(c.coords)
        cols.append([qq(t) for t in flat])
    rhs = []
    for c in i2.basis[0].coords + i2.basis[1].coords:
        rhs.extend(c.coords)
    mat = [[cols[j][i] for j in range(len(bas))] for i in range(len(rhs))]
    sol = linsolve(mat, [qq(t) for t in rhs])
    if sol is None:
        return "unknown"
    x = JE.zero()
    for coef, xb in zip(sol, bas):
        x = x + xb * coef
    if not E.is_unit(JE.norm(x)):
        return "unknown"
    if not (JE.norm(x) * i1.beta == i2.beta):
        return "not-equivalent"
    return x


# ---------------------------------------------------------------------------
# Balanced T (x) C ideals  <->  nondegenerate pairs in H_3(C)^2.
# ---------------------------------------------------------------------------


@dataclass
class IdealTC:
    """A based fractional T (x) C ideal: basis (b1, b2, b3) over C_L, the
    good-based cubic ring, and beta in L^x."""

    ring: CubicRing
    comp: CompAlgebra
    T: CommAlgebra
    basis: tuple      # triple of CompElt over C_T
    beta: AlgElem


def tc_norm_matrix(ideal: IdealTC):
    """m in M_3(C_F) with (b1, b2, b3) = (1, w, t) m."""
    comp = ideal.comp
    cols = []
    for b in ideal.basis:
        col = []
        for alpha in range(3):
            col.append(CompElt(comp, tuple(c.coords[alpha] for c in b.coords)))
        cols.append(col)
    return mat_transpose(cols)


def n6(J: H3CNS, m) -> Fraction:
    """The degree-6 norm N_6(m) = n(m m*) on M_3(C)."""
    mm = mat_mul(m, mat_star(m, lambda e: e.conj()))
    return J.norm(J.from_matrix(mm))


def ideal_norm_tc(ideal: IdealTC) -> Fraction:
    J = H3CNS(ideal.comp)
    return n6(J, tc_norm_matrix(ideal))


def x_of_ideal_tc(ideal: IdealTC) -> CnsElt:
    """X_{I,b,beta} = beta^{-1} b* b in H_3(C (x) T)."""
    compT = ideal.basis[0].alg
    T = ideal.T
    H3T = H3CNS(compT)
    b = ideal.basis
    binv = T.inv(ideal.beta)
    outer = tuple(tuple(b[i].conj() * b[j] * binv for j in range(3)) for i in range(3))
    return H3T.from_matrix(outer)


def balanced_check_tc(ideal: IdealTC) -> dict:
    X = x_of_ideal_tc(ideal)
    integral = all(all(is_integral(t) for t in c.coords) for c in X.coords)
    nrm = ideal_norm_tc(ideal)
    nbeta = ideal.T.norm(ideal.beta)
    return {
        "integrality (beta^{-1} y* x in C (x) T)": integral,
        "norm (N_6(m) = N(beta))": nrm == nbeta,
    }


def _comp_integral(c: CompElt) -> bool:
    return all(is_integral(x) for x in c.coords)


def pair_to_balanced(J: H3CNS, A: CnsElt, B: CnsElt, v0=None,
                     cap: int = 200, seed: int = 0):
    """Forward direction of the pair correspondence: a nondegenerate
    integral pair to a balanced based T (x) C ideal.

    Returns (CubicRing, IdealTC, certificate)."""
    base_lift = pair_lift(J, A, B, cross_checks=False)
    pd: PairData = base_lift.data["pair"]
    if pd.Q == 0:
        raise PreconditionError("needs Q((A,B)) != 0")
    X, Y = base_lift.lifted, base_lift.data["Y"]
    T = pd.T
    sr = sr_maps(J, pd, check=True)
    eps = epsilon_element(J, pd, sr)
    compT = J.comp.base_change(T)
    H3T = H3CNS(compT)
    ymat = H3T.to_matrix(CnsElt(H3T, Y.coords))

    def to_T(row):
        return tuple(compT.elem(x.coords) for x in row)

    rows = [v0] if v0 is not None else iter_comp_rows(J.comp, 3, cap, seed)
    vyv, _, v0 = unit_scalar_row(compT, ymat, rows, "v0 search bound exceeded; raise cap",
                                 lift=to_T)
    beta = vyv * (1 / pd.Q)
    b = row_times_mat(to_T(v0), eps)
    ring = CubicRing(pd.coeffs)
    ideal = IdealTC(ring, J.comp, T, tuple(b), beta)
    res = LiftResult(extension=T, lifted=X, data={"ideal": ideal, "v0": v0, "Y": Y,
                                                  "pair": pd})
    res.require("beta^{-1} b* b = X(A,B)",
                all(a == bb for a, bb in zip(x_of_ideal_tc(ideal).coords, X.coords)))
    for name, ok in balanced_check_tc(ideal).items():
        res.require(name, ok)
    # T-stability: w b = b S_r(w) with integral S_r(w) = -A# B
    omega = pd.omega
    wb = tuple(x * omega for x in b)
    srw = tuple(tuple(compT.elem(e.coords) for e in row) for row in sr.images["omega"])
    bsr = row_times_mat(b, srw)
    res.require("w b = b S_r(w) (T-stability with integral action)",
                all(x == y for x, y in zip(wb, bsr))
                and all(_comp_integral(e) for row in sr.images["omega"] for e in row))
    return ring, ideal, res


def balanced_to_pair(ideal: IdealTC):
    """Inverse direction: a balanced based T (x) C ideal to its pair (A, B),
    with nondegeneracy via (X, Y) = disc(1, w, t)."""
    checks = balanced_check_tc(ideal)
    for name, ok in checks.items():
        if not ok:
            raise PreconditionError(f"unbalanced data: {name}")
    T = ideal.T
    comp = ideal.comp
    J = H3CNS(comp)
    JT = J.base_change(T)
    X = x_of_ideal_tc(ideal)
    XJT = CnsElt(JT, X.coords)
    comps = []
    for alpha in range(3):
        comps.append(CnsElt(J, tuple(c.coords[alpha] for c in X.coords)))
    Dpart, Bpart, Tpart = comps     # X = D + B w + (X_theta) t
    A = -Tpart
    B = Bpart
    Y = tensor_cross(JT, J, XJT, XJT) * HALF
    disc = det_gram(T)
    if not (JT.pair(XJT, Y) == T.from_rational(disc)):
        raise PreconditionError("unbalanced data: (X, Y) != disc(1, w, t)")
    pd = pair_cubic(J, A, B)
    if pd.coeffs != ideal.ring.coeffs:
        raise IdentityError("recovered pair has the wrong binary cubic")
    if pd.Q == 0:
        raise IdentityError("recovered pair is degenerate")
    return A, B


def tc_data_equivalent(i1: IdealTC, i2: IdealTC):
    """X-elements agree iff equivalent; solves x b = b' for x in C_L^x."""
    if i1.ring != i2.ring:
        return "not-equivalent"
    X1 = x_of_ideal_tc(i1)
    X2 = x_of_ideal_tc(i2)
    if not all(a == b for a, b in zip(X1.coords, X2.coords)):
        return "not-equivalent"
    compT = i1.basis[0].alg
    T = i1.T
    bas = []
    for i in range(compT.dim):
        for tu in T.basis():
            coords = [T.zero()] * compT.dim
            coords[i] = tu
            bas.append(CompElt(compT, tuple(coords)))
    cols = []
    for xb in bas:
        flat = []
        for b in i1.basis:
            for c in (xb * b).coords:
                flat.extend(c.coords)
        cols.append(flat)
    rhs = []
    for b in i2.basis:
        for c in b.coords:
            rhs.extend(c.coords)
    mat = [[cols[j][i] for j in range(len(bas))] for i in range(len(rhs))]
    sol = linsolve(mat, rhs)
    if sol is None:
        return "unknown"
    x = compT.zero()
    for coef, xb in zip(sol, bas):
        x = x + xb * coef
    if not T.is_unit(x.norm()):
        return "unknown"
    if not (i1.beta * x.norm() == i2.beta):
        return "not-equivalent"
    return x


# ---------------------------------------------------------------------------
# Field-orbit invariants.
# ---------------------------------------------------------------------------


def lambda_value_set(J: CNS, WE: WSpace, X: WElt, cap: int = 60, seed: int = 0):
    """Unit values <ell!, X> over rational rows ell, with the rows; all of
    them represent the same class in E^x / n(A_E^x)."""
    JE = WE.J

    def unit_value(ell):
        val = WE.pair(shriek_row(WE, (JE.elem(ell[0].coords), JE.elem(ell[1].coords))), X)
        return (ell, val) if WE.base.is_unit(val) else None

    return witness_search(iter_search_rows(J, cap, seed), unit_value, limit=24)


def field_invariant_b1(J: CNS, v: WElt, cap: int = 300, seed: int = 0) -> dict:
    """(E, omega, lambda-representative) for a rank-4 element over the field.

    The witness identity n(ell J_2 U eta) = <ell!, Xbar> <X, eta!> is checked
    exactly; when a rational row and a rational column hit the same value
    lambda, the witness has norm exactly N(lambda) (the membership
    N(lambda) in n(A_E^x) is then fully certified, otherwise semi-decided)."""
    W = v.W
    if not J.has_mul:
        raise PreconditionError("invariant needs associative coordinates")
    q = W.quartic(v)
    if q == 0:
        raise PreconditionError("needs q(v) != 0")
    E = quadratic_field(q)
    JE = J.base_change(E)
    WE = WSpace(JE)
    vE = w_coerce(WE, v)
    omega = E.gen()
    X = x_of(WE, vE, omega)
    Xbar = x_of(WE, vE, -omega)
    rows = lambda_value_set(J, WE, X, cap, seed)

    def unit_value(eta):
        eta_E = (JE.elem(eta[0].coords), JE.elem(eta[1].coords))
        val = WE.pair(X, shriek_col(WE, eta_E))
        return (eta_E, val) if E.is_unit(val) else None

    cols = witness_search(iter_search_rows(J, cap, seed + 1), unit_value, limit=24)
    # prefer the first exact coincidence of a row and a column value, else the first pair
    pairs = list(product(rows, cols))
    (ell, nu), (eta, lam) = witness_search([p for p in pairs if p[0][1] == p[1][1]] + pairs,
                                           lambda p: p, "witness search bound exceeded")
    exact = nu == lam
    ell_E = (JE.elem(ell[0].coords), JE.elem(ell[1].coords))
    mu = WE.pair(shriek_row(WE, ell_E), Xbar)   # = conj(<ell!, X>) for rational ell
    R = r_of(WE, vE)
    u0, v0 = eta
    half = HALF
    ueta = (u0 * (omega * half) + (JE.mul(R[0][0], u0) + JE.mul(R[0][1], v0)) * half,
            v0 * (omega * half) + (JE.mul(R[1][0], u0) + JE.mul(R[1][1], v0)) * half)
    s, t = ell_E
    x_wit = JE.mul(s, ueta[1]) - JE.mul(t, ueta[0])
    lamc = WE.pair(X, shriek_col(WE, eta))
    witness_ok = JE.norm(x_wit) == mu * lamc
    if not witness_ok:
        raise IdentityError("witness identity n(ell J_2 U eta) failed")
    out = {
        "E": E, "omega": omega, "lambda": lam,
        "witness_identity": witness_ok,
        "norm_class_witness": None,
        "value_set": [val for _, val in rows],
    }
    if exact and mu == E.conj(lam):
        # n(x_wit) = conj(lambda) lambda = N(lambda) exactly
        out["norm_class_witness"] = x_wit
    else:
        y = norm_class_witness(JE, mu * lamc,
                               lam * E.conj(lam), cap)
        if y is not None:
            out["norm_class_witness"] = JE.mul(x_wit, y)
    return out


def field_invariant_b2(J: H3CNS, A: CnsElt, B: CnsElt, cap: int = 300,
                       seed: int = 0) -> dict:
    """(L with good basis, mu-representative) for a nondegenerate pair, with
    the determinant identity n_{L/F}(mu) N_6(m) = 1 checked exactly and the
    norm-class membership n_{L/F}(mu) in n(C^x) witnessed (exactly for
    commutative C, semi-decided for quaternion coordinates)."""
    base_lift = pair_lift(J, A, B, cross_checks=False)
    pd: PairData = base_lift.data["pair"]
    if pd.Q == 0:
        raise PreconditionError("needs Q((A,B)) != 0")
    X = base_lift.lifted
    T = pd.T
    compT = J.comp.base_change(T)
    H3T = H3CNS(compT)
    XT = CnsElt(H3T, X.coords)
    mu, v0, wit = hermitian_rank1_decompose(H3T, XT, cap, seed)
    # v0* = (1, w, t) m  =>  m[alpha][i] are the T-coordinates of v0_i*
    m = tuple(tuple(CompElt(J.comp, tuple(c.coords[alpha] for c in v0[i].conj().coords))
                    for i in range(3)) for alpha in range(3))
    n6m = n6(J, m)
    nmu = T.norm(mu)
    det_ok = nmu * n6m == 1
    if not det_ok:
        raise IdentityError("determinant identity n(mu) N_6(m) = 1 failed")
    witness = None
    if J.comp.is_commutative:
        # N_6(m) = n_C(det_C m) for commutative C
        detm = det(m)
        if detm.norm() == n6m:
            witness = detm.inv()
    else:
        witness = comp_norm_class_witness(J.comp, qq(1), nmu, cap)
    return {
        "ring": CubicRing(pd.coeffs), "T": T, "mu": mu,
        "det_identity": det_ok,
        "norm_witness": witness,
    }


def cubic_basis_change(ring: CubicRing, g):
    """The GL_2 translation of good bases: for g = [[p, q], [r, s]] with
    det(g) a unit, the binary cubic moves by f'(x, y) = det(g)^{-1} f((x,y)g)
    and the trace-zero parts of the good bases are related by
    (w0', t0')^t = g (w0, t0)^t.

    Returns (new CubicRing, M) where M is the 3x3 rational matrix expressing
    the new good basis in the old one: (1, w', t') = (1, w, t) M.  The matrix
    is verified against the new multiplication table.
    """
    (p, q), (r, s) = (qq(g[0][0]), qq(g[0][1])), (qq(g[1][0]), qq(g[1][1]))
    detg = p * s - q * r
    if detg == 0:
        raise PreconditionError("basis change needs an invertible matrix")
    a, b, c, d = ring.coeffs
    dinv = 1 / detg
    # f'(x, y) = det^{-1} f(px + ry, qx + sy)
    a2 = dinv * (a * p ** 3 + b * p * p * q + c * p * q * q + d * q ** 3)
    b2 = dinv * (3 * a * p * p * r + b * (p * p * s + 2 * p * q * r)
                 + c * (2 * p * q * s + q * q * r) + 3 * d * q * q * s)
    c2 = dinv * (3 * a * p * r * r + b * (2 * p * r * s + q * r * r)
                 + c * (p * s * s + 2 * q * r * s) + 3 * d * q * s * s)
    d2 = dinv * (a * r ** 3 + b * r * r * s + c * r * s * s + d * s ** 3)
    new = CubicRing((a2, b2, c2, d2))
    # w0' = p w0 + q t0, t0' = r w0 + s t0; shift to the good basis
    # (w = w0 - b/3, t = t0 + c/3)
    col_w = (p * b / 3 - q * c / 3 - b2 / 3, p, q)
    col_t = (r * b / 3 - s * c / 3 + c2 / 3, r, s)
    M = ((qq(1), col_w[0], col_t[0]),
         (qq(0), col_w[1], col_t[1]),
         (qq(0), col_w[2], col_t[2]))
    # verify the table: the images satisfy the new ring's relations
    T = ring.algebra()
    wn = T.elem([M[0][1], M[1][1], M[2][1]])
    tn = T.elem([M[0][2], M[1][2], M[2][2]])
    if not (wn * tn == T.from_rational(-a2 * d2)):
        raise IdentityError("basis change: w' t' relation failed")
    if not (wn * wn == T.from_rational(-a2 * c2) + tn * a2 - wn * b2):
        raise IdentityError("basis change: w'^2 relation failed")
    if not (tn * tn == T.from_rational(-b2 * d2) + tn * c2 - wn * d2):
        raise IdentityError("basis change: t'^2 relation failed")
    return new, M
