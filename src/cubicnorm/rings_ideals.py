"""Quadratic and cubic rings with good bases, balanced fractional ideals over
S (x) A and T (x) C, the orbit <-> ideal correspondences in both directions,
and the unit-class invariants of nondegenerate orbits over the field.

The integral paths fix the base ring Z (so x^2 + x in 2Z holds and the
orientation hypothesis (Z^x)^2 = 1 applies); all formulas stay
denominator-tracked so the field-level statements run on the same code.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Optional

from .cns import (
    CNS,
    CnsElt,
    H3CNS,
    cubic_ring_algebra,
    tensor_cross,
)
from .composition import CompAlgebra
from .freudenthal import (
    WElt,
    WSpace,
    _search_prefix,
    _search_tail,
    dead_rows_by_key,
    det6,
    iter_search_rows,
    m2_scalar,
    norm_class_witness,
    r_of,
    r_right,
    shriek_col,
    shriek_row,
    skip_dead_rows,
)
from .lifting import (
    LiftResult,
    PairData,
    comp_norm_class_witness,
    disc_binary_cubic,
    epsilon_element,
    first_law,
    gram_of_basis,
    hermitian_pair,
    hermitian_rank1_decompose,
    iter_comp_rows,
    pair_cubic,
    sr_maps,
    u_apply,
    unit_scalar_row,
)
from .matops import MatrixSpace, mat_add, mat_map, mat_smul, mat_transpose, row_times_mat
from .scalars import (
    HALF,
    QQ_BASE,
    THIRD,
    AlgElem,
    Certificate,
    CommAlgebra,
    DirectSum,
    IdentityError,
    PreconditionError,
    QuotientAlgebra,
    Scalar,
    det,
    det_fraction,
    map_solve,
    over_lcd,
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

    D: Scalar

    def __post_init__(self):
        if self.D.denominator != 1:
            raise PreconditionError("quadratic ring needs an integer discriminant")
        if int(self.D) % 4 not in (0, 1):
            raise PreconditionError("D must be a square modulo 4Z")

    @property
    def co(self) -> Scalar:
        return (self.D * self.D - self.D) * QQ_BASE.inv(4)

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
    def disc(self) -> Scalar:
        return disc_binary_cubic(*self.coeffs)


def cubic_ring(a, b, c, d) -> CubicRing:
    ring = CubicRing((qq(a), qq(b), qq(c), qq(d)))
    T = ring.algebra()
    if det_gram(T) != ring.disc:
        raise IdentityError("disc(1, w, t) != Q(f)")
    return ring


def det_gram(T: CommAlgebra) -> Scalar:
    return det_fraction(gram_of_basis(T))


# ---------------------------------------------------------------------------
# Balanced S (x) A ideals  <->  rank-4 orbits in W_A.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealSA:
    """A based fractional S (x) A ideal: basis (b1, b2) over A_E, the ring
    S_D, and the scalar beta in E^x."""

    ring: QuadRing
    J: CNS            # the coordinate structure A over the ground field
    E: QuotientAlgebra
    basis: tuple      # pair of CnsElt over A_E
    beta: AlgElem

    @cached_property
    def X(self) -> WElt:
        """X_{I,b,beta} = beta^{-1} (b1, b2)! in W_A (x) E, built once."""
        return shriek_row(WSpace(self.basis[0].J), self.basis) * self.E.inv(self.beta)


def _tau_parts(ring: QuadRing, x, space) -> tuple:
    """(p, q) with x = p + q tau for x over E and tau = (D + w)/2: x is
    x0 + x1 w with w = 2 tau - D, so p = x0 - D x1 and q = 2 x1, elements of
    ``space`` over the ground field read off x's components along (1, w)."""
    x0, x1 = x.component(space, 0), x.component(space, 1)
    return x0 - x1 * ring.D, x1 * 2


def sa_norm_matrix(ideal: IdealSA):
    """g in M_2(A_F) with (b1, b2) = (tau, 1) g."""
    return mat_transpose([_tau_parts(ideal.ring, b, ideal.J)[::-1] for b in ideal.basis])


def ideal_norm_sa(ideal: IdealSA):
    """N(I; tau, (b1, b2)) = det_6(g)."""
    W = WSpace(ideal.J)
    return det6(W, sa_norm_matrix(ideal))


def balanced_check_sa(ideal: IdealSA) -> Certificate:
    """The balanced condition: beta^{-1} (b1, b2)! in W_A (x) S (sufficient
    for all pairs from the ideal), the norm equality, and the
    determinant identity <X, Xbar> = w^3 det_6(g) / N(beta)."""
    E, X = ideal.E, ideal.X
    p, q = _tau_parts(ideal.ring, X, WSpace(ideal.J))
    integral = p.den == 1 and q.den == 1
    nrm = ideal_norm_sa(ideal)
    nbeta = E.norm(ideal.beta)
    WE = X.W
    Xbar = WE.concat(*map(E.conj, X.coords))
    omega = E.gen()
    lemma = WE.pair(X, Xbar) * nbeta == omega * omega * omega * nrm
    cert = Certificate()
    cert.check("integrality (beta^{-1} b! in W (x) S)", integral)
    cert.check("norm (det_6(g) = N(beta))", nrm == nbeta)
    cert.check("<X, Xbar> N(beta) = w^3 det_6(g)", lemma)
    return cert


def _twist_matrix(E: QuotientAlgebra, eps) -> tuple[list, int]:
    """The matrix of ell_1 -> tr_{E/F}(ell_1 eps) from the numerators of
    A_E^2 to those of A_F^2, rows over one den: ell_1 eps is
    (y0 eps00 + y1 eps10, y0 eps01 + y1 eps11), so each block is JE's
    product table contracted with an entry of eps, folded along E's trace."""
    prod = eps[0][0].J._product
    blocks = [(E.trace_rows(prod.contract(x)), x.den * prod.den * E.own_den)
              for row in eps for x in row]
    den = math.lcm(*(d for _, d in blocks))
    t00, t01, t10, t11 = ([[c * (den // d) for c in r] for r in t] for t, d in blocks)
    return [r0 + r1 for r0, r1 in chain(zip(t00, t10), zip(t01, t11))], den


def _shriek_pairing(W: WSpace, WE: WSpace, Y: WElt):
    """ell -> <ell!, Y> for a row ell over W's J, with Y over E: ell! is
    taken over the ground field, so the value is one dot product of its
    numerators with the row <e_i, Y> along the basis, read once."""
    E = WE.base
    rows, den = over_lcd(E.num_den(p) for p in WE.pair_row(Y))
    cols = tuple(zip(*rows))

    def value(ell):
        s = shriek_row(W, ell)
        return E.from_num([sum(map(operator.mul, s.num, c)) for c in cols], s.den * den)

    return value


def iter_ell_candidates(J: CNS, E: QuotientAlgebra, eps, cap: int, seed: int):
    """Rows ell in A_F^2: first tr_{E/F}(ell_1 eps) for ell_1 over the
    stream of ``iter_search_rows`` over A_E (the constructive recipe), then
    plain basis rows and seeded random rows.  The twist is read on
    numerators (``_twist_matrix``): a prefix row of basis vectors maps to a
    sum of at most two basis columns, a random row to its numerators times
    the matrix."""
    JE = eps[0][0].J
    rows, den = _twist_matrix(E, eps)
    out, dead = DirectSum(J, J), dead_rows_by_key(J)

    def row(num, d):
        # most twisted rows are dead: in lowest terms, the form dead rows are
        # kept in, one is looked up, not built
        g = math.gcd(d, *num)
        dead_row = dead.get((tuple(x // g for x in num), d // g))
        return out.from_num(num, d) if dead_row is None else dead_row

    # the columns at each slot's basis() in turn, and a zero column for index n
    cols, bden = JE.basis_columns(rows, den)
    n, zero = JE.dim, (0,) * len(rows)
    first, second = cols[:n] + [zero], cols[n:] + [zero]
    for i, j in _search_prefix(range(n), n):
        yield row(tuple(map(operator.add, first[i], second[j])), bden)
    num_den = DirectSum(JE, JE).num_den
    for r in _search_tail(JE, max(8, cap // 4), seed):
        num, d = num_den(r)
        yield row(tuple(sum(map(operator.mul, num, c)) for c in rows), den * d)
    yield from iter_search_rows(J, cap, seed + 1)


def cube_to_balanced(J: CNS, v: WElt, cap: int = 200, seed: int = 0, ell=None):
    """The integral correspondence, forward direction: a rank-4 integral
    element of W_A to a balanced based fractional S (x) A ideal.

    Returns (QuadRing, IdealSA, LiftResult-certificate)."""
    W = WSpace(J)
    res = first_law(W, v)
    if v.den != 1:
        raise PreconditionError("integral correspondence needs integral coordinates")
    E, X, D = res.extension, res.lifted, res.data["q"]
    WE, omega, Xbar = res.data["space"], res.data["omega"], res.data["xbar"]
    JE = WE.J
    ring = quad_ring(D)
    tau = res.data["tau"] = ring.tau(E)
    # integrality of the tau-form (automatic over Z since x^2 + x in 2Z)
    vprime = (res.data["flat"] - v * D) * HALF
    res.require("X = tau v + (v_flat - Dv)/2 with integral parts", vprime.den == 1)
    Rr = r_right(r_of(W, v))
    # eps = (w + R_r(v)) / (2w), entries over A_E
    eps = mat_smul(mat_add(mat_map(JE.extend, Rr), m2_scalar(JE, omega)), E.inv(omega) * HALF)
    # Omega = (D + R_r)/2 integral: the S-action on column vectors
    Omega = mat_smul(mat_add(Rr, m2_scalar(J, D)), HALF)
    res.require("Omega = (D + R_r)/2 integral",
                all(x.den == 1 for row in Omega for x in row))

    pair_xbar = _shriek_pairing(W, WE, Xbar)

    def unit_pairing(cand):
        # beta = <ell!, Xbar> / w^3 is a unit iff <ell!, Xbar> is
        val = pair_xbar(cand)
        return (cand, val) if E.is_unit(val) else None

    candidates = [ell] if ell is not None else iter_ell_candidates(J, E, eps, cap, seed)
    ell, val = witness_search(candidates, skip_dead_rows(J, unit_pairing),
                              "ell search bound exceeded; raise cap")
    beta = val * E.inv(omega * omega * omega)
    b = row_times_mat(tuple(map(JE.extend, ell)), eps)
    ideal = IdealSA(ring, J, E, tuple(b), beta)
    res.data["ideal"] = ideal
    res.data["ell"] = ell
    res.require("beta^{-1} b! = X(v)", ideal.X == X)
    res.require("<X, Xbar> = w^3",
                WE.pair(X, Xbar) == omega * omega * omega)
    for e in balanced_check_sa(ideal).certificate:
        res.require(e.name, e.ok)
    # S-stability: tau b = b Omega_tau with integral Omega_tau = (Omega as tau-action)
    tau_b = tuple(x * tau for x in b)
    b_Om = row_times_mat(b, mat_map(JE.extend, Omega))
    res.require("tau b = b Omega (S-stability with integral action)",
                all(x == y for x, y in zip(tau_b, b_Om)))
    return ring, ideal, res


def balanced_to_cube(ideal: IdealSA, checks: Optional[Certificate] = None) -> tuple:
    """The inverse direction: a balanced based ideal to its rank-4 element,
    with q(v) = D verified.  Raises on unbalanced input, naming the clause;
    ``checks`` is ``balanced_check_sa(ideal)`` when the caller has it."""
    if checks is None:
        checks = balanced_check_sa(ideal)
    for name in checks.failures:
        raise PreconditionError(f"unbalanced data: {name}")
    W = WSpace(ideal.J)
    _, v = _tau_parts(ideal.ring, ideal.X, W)
    if W.quartic(v) != ideal.ring.D:
        raise IdentityError("recovered element has the wrong discriminant")
    return v, ideal.X


# ---------------------------------------------------------------------------
# Balanced T (x) C ideals  <->  nondegenerate pairs in H_3(C)^2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdealTC:
    """A based fractional T (x) C ideal: basis (b1, b2, b3) over C_L, the
    good-based cubic ring, and beta in L^x; C is associative."""

    ring: CubicRing
    comp: CompAlgebra
    T: CommAlgebra
    basis: tuple      # triple of CompElt over C_T
    beta: AlgElem

    def __post_init__(self):
        if not self.comp.is_associative:
            raise PreconditionError("needs Hermitian associative coordinates")

    @cached_property
    def X(self) -> CnsElt:
        """X_{I,b,beta} = beta^{-1} b* b in H_3(C (x) T), built once: b* b is
        B* B for the matrix B with first row b."""
        b = self.basis
        MT = MatrixSpace(b[0].space)
        B = MT.row_matrix(b)
        X = MT.mul(MT.star(B), B) * self.T.inv(self.beta)
        return H3CNS(MT.comp).from_matrix(MT.rows(X))


def tc_norm_matrix(comp: CompAlgebra, row):
    """m in M_3(C_F) with row = (1, w, t) m, for a row over C_T, such as
    the basis (b1, b2, b3) of a T (x) C ideal."""
    return tuple(tuple(x.component(comp, alpha) for x in row) for alpha in range(3))


def n6(J: H3CNS, m) -> Scalar:
    """The degree-6 norm N_6(m) = n(m m*) on M_3(C), for m in rows."""
    M = MatrixSpace(J.comp)
    x = M.from_rows(m)
    return J.norm(J.from_matrix(M.rows(x * M.star(x))))


def ideal_norm_tc(ideal: IdealTC) -> Scalar:
    J = H3CNS(ideal.comp)
    return n6(J, tc_norm_matrix(ideal.comp, ideal.basis))


def balanced_check_tc(ideal: IdealTC) -> Certificate:
    """The balanced condition: beta^{-1} b* b integral, and N_6(m) = N(beta)."""
    integral = ideal.X.den == 1
    nrm = ideal_norm_tc(ideal)
    nbeta = ideal.T.norm(ideal.beta)
    cert = Certificate()
    cert.check("integrality (beta^{-1} y* x in C (x) T)", integral)
    cert.check("norm (N_6(m) = N(beta))", nrm == nbeta)
    return cert


def pair_to_balanced(J: H3CNS, A: CnsElt, B: CnsElt, v0=None,
                     cap: int = 200, seed: int = 0):
    """Forward direction of the pair correspondence: a nondegenerate
    integral pair to a balanced based T (x) C ideal.

    Returns (CubicRing, IdealTC, certificate)."""
    base_lift = hermitian_pair(J, A, B)
    if not (A.den == 1 and B.den == 1):
        raise PreconditionError("integral correspondence needs integral coordinates")
    pd: PairData = base_lift.data["pair"]
    X, Y, H3T = base_lift.lifted, base_lift.data["Y"], base_lift.data["H3T"]
    T, compT = pd.T, H3T.comp
    sr = sr_maps(J, pd, check=True)
    eps = epsilon_element(J, pd, sr)
    ymat = H3T.to_matrix(Y.block(H3T))

    rows = [v0] if v0 is not None else iter_comp_rows(J.comp, 3, cap, seed)
    vyv, _, v0 = unit_scalar_row(compT, ymat, rows, "v0 search bound exceeded; raise cap",
                                 over_ground=True)
    beta = vyv * QQ_BASE.inv(pd.Q)
    # b = v0 eps, the first row of V0 eps for V0 with first row v0
    MT = MatrixSpace(compT)
    Bm = MT.mul(sr.space.row_matrix(v0), MT.from_rows(eps))
    b = MT.rows(Bm)[0]
    ring = CubicRing(pd.coeffs)
    ideal = IdealTC(ring, J.comp, T, tuple(b), beta)
    res = LiftResult(extension=T, lifted=X, data={"ideal": ideal, "v0": v0, "Y": Y,
                                                  "pair": pd})
    res.require("beta^{-1} b* b = X(A,B)", ideal.X == X)
    for e in balanced_check_tc(ideal).certificate:
        res.require(e.name, e.ok)
    # T-stability: w b = b S_r(w) with integral S_r(w) = -A# B, on the
    # matrix with first row b
    srw = sr.images["omega"]
    res.require("w b = b S_r(w) (T-stability with integral action)",
                Bm * pd.omega == MT.mul(Bm, srw) and srw.den == 1)
    return ring, ideal, res


def balanced_to_pair(ideal: IdealTC, checks: Optional[Certificate] = None):
    """Inverse direction: a balanced based T (x) C ideal over a nondegenerate
    cubic ring to its pair (A, B), with nondegeneracy via (X, Y) = disc(1, w, t);
    ``checks`` is ``balanced_check_tc(ideal)`` when the caller has it."""
    if checks is None:
        checks = balanced_check_tc(ideal)
    for name in checks.failures:
        raise PreconditionError(f"unbalanced data: {name}")
    T = ideal.T
    disc = det_gram(T)
    if disc == 0:
        raise PreconditionError("degenerate cubic ring: disc(1, w, t) = 0")
    comp = ideal.comp
    J = H3CNS(comp)
    JT = J.base_change(T)
    XJT = ideal.X.block(JT)
    Dpart, Bpart, Tpart = (XJT.component(J, a) for a in range(3))   # X = D + B w + (X_theta) t
    A = -Tpart
    B = Bpart
    Y = tensor_cross(JT, J, XJT, XJT) * HALF
    if not (JT.pair(XJT, Y) == T.from_rational(disc)):
        raise PreconditionError("unbalanced data: (X, Y) != disc(1, w, t)")
    pd = pair_cubic(J, A, B)
    if pd.coeffs != ideal.ring.coeffs:
        raise IdentityError("recovered pair has the wrong binary cubic")
    if pd.Q == 0:
        raise IdentityError("recovered pair is degenerate")
    return A, B


def data_equivalent(i1, i2):
    """Equivalence test for two based ideals of one kind, S (x) A or
    T (x) C: their X-elements agree iff there is a unit x of A_E or C_T
    with b' = x b and beta' = n(x) beta.  Returns the witness x,
    "not-equivalent", or "unknown" (the solver found no unit witness)."""
    if i1.ring != i2.ring or not i1.X == i2.X:
        return "not-equivalent"
    space = i1.basis[0].space
    # solve x b = b' over A_E or C_T, coordinates over Q
    x = map_solve(lambda y: tuple(space.mul(y, b) for b in i1.basis), space,
                  DirectSum(*[space] * len(i1.basis)), i2.basis)
    if x is None:
        return "unknown"
    nx = x.norm()
    if not i1.beta.space.is_unit(nx):
        return "unknown"
    if not nx * i1.beta == i2.beta:
        return "not-equivalent"
    return x


# ---------------------------------------------------------------------------
# Field-orbit invariants.
# ---------------------------------------------------------------------------


def lambda_value_set(J: CNS, WE: WSpace, X: WElt, cap: int, seed: int):
    """Unit values <ell!, X> over rational rows ell, with the rows; all of
    them represent the same class in E^x / n(A_E^x)."""
    pair_x = _shriek_pairing(WSpace(J), WE, X)

    def unit_value(ell):
        val = pair_x(ell)
        return (ell, val) if WE.base.is_unit(val) else None

    return witness_search(iter_search_rows(J, cap, seed), skip_dead_rows(J, unit_value), limit=24)


def field_invariant_b1(J: CNS, v: WElt, cap: int = 300, seed: int = 0) -> dict:
    """(E, omega, lambda-representative) for a rank-4 element over the field.

    The witness identity n(ell J_2 U eta) = <ell!, Xbar> <X, eta!> is checked
    exactly; when a rational row and a rational column hit the same value
    lambda, the witness has norm exactly N(lambda) (the membership
    N(lambda) in n(A_E^x) is then fully certified, otherwise semi-decided)."""
    if not J.has_mul:
        raise PreconditionError("invariant needs associative coordinates")
    first = first_law(v.W, v)
    E, X, omega, Xbar = first.extension, first.lifted, first.data["omega"], first.data["xbar"]
    WE = first.data["space"]
    JE = WE.J
    rows = lambda_value_set(J, WE, X, cap, seed)

    def unit_value(eta):
        val = WE.pair(X, WE.extend(shriek_col(v.W, eta)))
        return (tuple(map(JE.extend, eta)), val) if E.is_unit(val) else None

    cols = witness_search(iter_search_rows(J, cap, seed + 1), skip_dead_rows(J, unit_value),
                          limit=24)
    # prefer the first exact coincidence of a row and a column value, else the first pair
    pairs = list(product(rows, cols))
    (ell, nu), (eta, lam) = witness_search([p for p in pairs if p[0][1] == p[1][1]] + pairs,
                                           lambda p: p, "witness search bound exceeded")
    exact = nu == lam
    ell_E = tuple(map(JE.extend, ell))
    mu = WE.pair(WE.extend(shriek_row(v.W, ell)), Xbar)   # = conj(<ell!, X>) for rational ell
    ueta = u_apply(mat_map(JE.extend, r_of(v.W, v)), omega, eta)
    s, t = ell_E
    x_wit = JE.mul(s, ueta[1]) - JE.mul(t, ueta[0])
    witness_ok = JE.norm(x_wit) == mu * lam
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
        y = norm_class_witness(JE, mu * lam,
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
    base_lift = hermitian_pair(J, A, B)
    T, H3T = base_lift.extension, base_lift.data["H3T"]
    XT = base_lift.lifted.block(H3T)
    mu, v0, wit = hermitian_rank1_decompose(H3T, XT, cap, seed)
    m = tc_norm_matrix(J.comp, tuple(x.conj() for x in v0))   # v0* = (1, w, t) m
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
        "ring": CubicRing(base_lift.data["pair"].coeffs), "T": T, "mu": mu,
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
    dinv = QQ_BASE.inv(detg)
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
    col_w = ((p * b - q * c - b2) * THIRD, p, q)
    col_t = ((r * b - s * c + c2) * THIRD, r, s)
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
