"""Rings, balanced ideals, round trips, equivariance, and field invariants."""

from fractions import Fraction as F

import pytest

from conftest import associative_variants, rand_nondeg_pair, rand_rank4

from cubicnorm.cns import (
    CnsElt,
    CubicRingCNS,
    H3CNS,
    ProductCNS,
    TrivialCNS,
    split_cubic_algebra,
)
from cubicnorm.composition import CompAlgebra, CompElt, comp_preset
from cubicnorm.freudenthal import WSpace, gl2_act, det6, m2_identity, m2_j2, m2_mul
from cubicnorm.matops import mat_mul, mat_star
from cubicnorm.presets import bhargava_pair
from cubicnorm.rings_ideals import (
    IdealSA,
    IdealTC,
    balanced_check_sa,
    balanced_check_tc,
    balanced_to_cube,
    balanced_to_pair,
    cube_to_balanced,
    cubic_ring,
    field_invariant_b1,
    field_invariant_b2,
    ideal_norm_sa,
    pair_to_balanced,
    quad_ring,
    sa_data_equivalent,
    tc_data_equivalent,
)
from cubicnorm.scalars import PreconditionError


def test_quad_ring():
    r = quad_ring(5)
    E = r.field()
    t = r.tau(E)
    assert t * t == t * 5 - 5
    with pytest.raises(PreconditionError):
        quad_ring(2)
    with pytest.raises(PreconditionError):
        quad_ring(F(1, 2))


def test_cubic_ring_tables():
    r = cubic_ring(1, 0, -1, 0)
    T = r.algebra()
    w, t = T.elem([0, 1, 0]), T.elem([0, 0, 1])
    assert w * w == T.elem([1, 0, 1])   # w^2 = 1 + t for (1,0,-1,0)
    assert t * t == -t
    assert w * t == T.zero()
    assert r.disc == 4


def rand_integral_rank4(W, rng, height=2):
    for _ in range(500):
        v = W.random(rng, height, integral=True)
        if W.quartic(v) != 0:
            return v
    raise RuntimeError


def test_cube_round_trip_all_variants(rng):
    for A in associative_variants():
        W = WSpace(A)
        v = rand_integral_rank4(W, rng, 1 if A.dim > 5 else 2)
        ring, ideal, cert = cube_to_balanced(A, v)
        assert cert.ok(), (A.name, [e.name for e in cert.certificate if not e.ok])
        v2, X = balanced_to_cube(ideal)
        assert v2 == v


def test_cube_identity_example(rng):
    """The split-cubic (Bhargava cube) pipeline produces a balanced triple."""
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    v = rand_integral_rank4(W, rng)
    ring, ideal, cert = cube_to_balanced(A, v)
    checks = balanced_check_sa(ideal)
    assert all(checks.values())
    assert ideal_norm_sa(ideal) == ideal.E.norm(ideal.beta)


def test_unbalanced_rejected(rng):
    A = TrivialCNS()
    W = WSpace(A)
    v = rand_integral_rank4(W, rng)
    ring, ideal, cert = cube_to_balanced(A, v)
    bad = IdealSA(ideal.ring, ideal.J, ideal.E, ideal.basis, ideal.beta * 5)
    assert not all(balanced_check_sa(bad).values())
    with pytest.raises(PreconditionError):
        balanced_to_cube(bad)


def test_sa_equivalence(rng):
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    v = rand_integral_rank4(W, rng)
    _, ideal, _ = cube_to_balanced(A, v)
    JE = ideal.basis[0].J
    assert sa_data_equivalent(ideal, ideal) != "not-equivalent"
    x0 = JE.one() * 3
    scaled = IdealSA(ideal.ring, ideal.J, ideal.E,
                     tuple(JE.mul(x0, b) for b in ideal.basis),
                     ideal.beta * JE.norm(x0))
    w = sa_data_equivalent(ideal, scaled)
    assert w not in ("not-equivalent", "unknown")
    v2, _ = balanced_to_cube(scaled)
    assert v2 == v
    # different beta -> X differs -> not equivalent
    other = IdealSA(ideal.ring, ideal.J, ideal.E, ideal.basis, ideal.beta * 4)
    assert sa_data_equivalent(ideal, other) == "not-equivalent"


def test_cube_equivariance(rng):
    """Group-equivariance of the data: for det_6 = 1 words, the transported data
    equals the recomputed data (b g, same omega, same beta, row ell g)."""
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    J = A
    one, z = J.one(), J.zero()
    v = rand_integral_rank4(W, rng)
    ring, ideal, cert = cube_to_balanced(A, v)
    ell = cert.data["ell"]
    for _ in range(4):
        g = m2_identity(J)
        for _ in range(2):
            X = J.random(rng, 1)
            k = rng.randint(0, 2)
            if k == 0:
                h = ((one, z), (X, one))
            elif k == 1:
                h = ((one, X), (z, one))
            else:
                h = m2_j2(J)
            g = m2_mul(J, g, h)
        assert det6(W, g) == 1
        vg = gl2_act(W, g, v, "right")
        assert W.quartic(vg) == ring.D
        ellg = (J.mul(ell[0], g[0][0]) + J.mul(ell[1], g[1][0]),
                J.mul(ell[0], g[0][1]) + J.mul(ell[1], g[1][1]))
        ring2, ideal2, cert2 = cube_to_balanced(A, vg, seed=0)
        # recompute with the transported row for exact data agreement
        ring3, ideal3, cert3 = cube_to_balanced(A, vg, ell=ellg)
        JE = ideal.basis[0].J
        gE = tuple(tuple(CnsElt(JE, tuple(ideal.E.from_rational(c) for c in e.coords))
                         for e in row) for row in g)
        bg = (JE.mul(ideal.basis[0], gE[0][0]) + JE.mul(ideal.basis[1], gE[1][0]),
              JE.mul(ideal.basis[0], gE[0][1]) + JE.mul(ideal.basis[1], gE[1][1]))
        assert ideal3.basis[0] == bg[0] and ideal3.basis[1] == bg[1]
        assert ideal3.beta == ideal.beta


def test_pair_round_trip(rng):
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        A, B = rand_nondeg_pair(J, rng)
        ring, ideal, cert = pair_to_balanced(J, A, B)
        assert cert.ok(), [e.name for e in cert.certificate if not e.ok]
        A2, B2 = balanced_to_pair(ideal)
        assert A2 == A and B2 == B


def test_pair_thm612_instance():
    J = H3CNS(CompAlgebra(()))
    A = J.one()
    B = J.join((1, -1, 0), (J.comp.zero(),) * 3)
    v0 = (J.comp.one(), J.comp.one(), J.comp.one())
    ring, ideal, cert = pair_to_balanced(J, A, B, v0=v0)
    assert cert.ok()
    assert all(balanced_check_tc(ideal).values())


def test_pair_v0_change_equivalent(rng):
    J = H3CNS(CompAlgebra(()))
    A = J.one()
    B = J.join((1, -1, 0), (J.comp.zero(),) * 3)
    _, i1, _ = pair_to_balanced(J, A, B, v0=(J.comp.one(), J.comp.one(), J.comp.one()))
    _, i2, _ = pair_to_balanced(J, A, B,
                                v0=(J.comp.one(), J.comp.one(), J.comp.elem([2])))
    w = tc_data_equivalent(i1, i2)
    assert w not in ("not-equivalent", "unknown")


def test_principal_tc_ideal():
    from cubicnorm.rings_ideals import CubicRing
    from cubicnorm.cns import cubic_ring_algebra

    coeffs = (F(1), F(0), F(-1), F(0))
    T = cubic_ring_algebra(*coeffs)
    compT = CompAlgebra((), base=T)

    def b_of(coords):
        return CompElt(compT, (T.elem(coords),))

    princ = IdealTC(CubicRing(coeffs), CompAlgebra(()), T,
                    (b_of([1, 0, 0]), b_of([0, 1, 0]), b_of([0, 0, 1])), T.one())
    A, B = balanced_to_pair(princ)
    J = H3CNS(CompAlgebra(()))
    from cubicnorm.lifting import pair_cubic

    assert pair_cubic(J, A, B).coeffs == coeffs


def test_pair_equivariance_m_only(rng):
    """Data action for (1, 1, m) with N_6(m) = 1: basis -> basis * m,
    beta unchanged, v0 -> v0 m."""
    J = H3CNS(comp_preset("gaussian"))
    comp = J.comp
    A, B = rand_nondeg_pair(J, rng)
    ring, ideal, cert = pair_to_balanced(J, A, B)
    v0 = cert.data["v0"]
    for _ in range(3):
        m = tuple(tuple(comp.one() if i == j else comp.zero() for j in range(3))
                  for i in range(3))
        for _ in range(2):
            i, j = rng.sample(range(3), 2)
            e = [[comp.one() if a == b else comp.zero() for b in range(3)]
                 for a in range(3)]
            e[i][j] = comp.random(rng, 1)
            m = mat_mul(m, tuple(tuple(r) for r in e))
        mstar = mat_star(m, lambda x: x.conj())
        Am = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(A)), m))
        Bm = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(B)), m))
        from cubicnorm.matops import row_times_mat

        v0m = row_times_mat(v0, m)
        ring2, ideal2, cert2 = pair_to_balanced(J, Am, Bm, v0=v0m)
        assert ring2 == ring
        compT = ideal.basis[0].alg
        mT = tuple(tuple(CompElt(compT, tuple(ideal.T.scalar_mul_one(c)
                                              for c in e.coords)) for e in row)
                   for row in m)
        bm = row_times_mat(ideal.basis, mT)
        assert all(x == y for x, y in zip(ideal2.basis, bm))
        assert ideal2.beta == ideal.beta


def test_field_invariant_b1(rng):
    for J in [ProductCNS(CompAlgebra(())), TrivialCNS(),
              ProductCNS(comp_preset("hamilton"))]:
        W = WSpace(J)
        v = rand_rank4(W, rng)
        out = field_invariant_b1(J, v)
        assert out["witness_identity"]
        assert out["norm_class_witness"] is not None
    with pytest.raises(PreconditionError):
        field_invariant_b1(TrivialCNS(), WSpace(TrivialCNS()).zero())


def test_field_invariant_b1_translate(rng):
    J = ProductCNS(CompAlgebra(()))
    W = WSpace(J)
    v = rand_rank4(W, rng)
    g = m2_identity(J)
    one, z = J.one(), J.zero()
    for _ in range(3):
        X = J.random(rng, 1)
        k = rng.randint(0, 2)
        h = ((one, z), (X, one)) if k == 0 else (((one, X), (z, one)) if k == 1
                                                 else m2_j2(J))
        g = m2_mul(J, g, h)
    v2 = gl2_act(W, g, v, "left")
    o1 = field_invariant_b1(J, v)
    o2 = field_invariant_b1(J, v2)
    assert o1["E"].modulus == o2["E"].modulus
    s1 = {tuple(x.coords) for x in o1["value_set"]}
    s2 = {tuple(x.coords) for x in o2["value_set"]}
    assert s1 & s2


def test_field_invariant_b2_bhargava(rng):
    J = H3CNS(CompAlgebra(()))
    for coeffs in [(1, 2, 3, 4), (1, 0, -1, 0), (2, 1, 1, 3), (1, 1, 1, 1)]:
        from cubicnorm.lifting import disc_binary_cubic

        if disc_binary_cubic(*coeffs) == 0:
            continue
        A1, B1 = bhargava_pair(J, *coeffs)
        out = field_invariant_b2(J, A1, B1)
        assert out["mu"] == out["T"].one()
        assert out["det_identity"]
        assert out["norm_witness"] is not None


def test_field_invariant_b2_translate(rng):
    J = H3CNS(comp_preset("gaussian"))
    comp = J.comp
    A, B = rand_nondeg_pair(J, rng)
    o1 = field_invariant_b2(J, A, B)
    m = tuple(tuple(comp.one() if i == j else comp.zero() for j in range(3))
              for i in range(3))
    for _ in range(2):
        i, j = rng.sample(range(3), 2)
        e = [[comp.one() if a == b else comp.zero() for b in range(3)] for a in range(3)]
        e[i][j] = comp.random(rng, 1)
        m = mat_mul(m, tuple(tuple(r) for r in e))
    mstar = mat_star(m, lambda x: x.conj())
    Am = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(A)), m))
    Bm = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(B)), m))
    o2 = field_invariant_b2(J, Am, Bm)
    # a unit-determinant translate preserves the binary cubic and hence the
    # ring; mu-class equality is only semi-decidable, so it is not asserted
    assert o2["ring"] == o1["ring"]


def test_n6_multiplicative(rng):
    from cubicnorm.rings_ideals import n6

    J = H3CNS(comp_preset("gaussian"))
    comp = J.comp
    for _ in range(10):
        m1 = tuple(tuple(comp.random(rng, 1) for _ in range(3)) for _ in range(3))
        m2 = tuple(tuple(comp.random(rng, 1) for _ in range(3)) for _ in range(3))
        assert n6(J, mat_mul(m1, m2)) == n6(J, m1) * n6(J, m2)


def test_cubic_basis_change(rng):
    from cubicnorm.rings_ideals import cubic_basis_change

    ring = cubic_ring(1, 2, 3, 4)
    new, M = cubic_basis_change(ring, ((1, 0), (0, 1)))
    assert new.coeffs == ring.coeffs
    new, M = cubic_basis_change(ring, ((0, 1), (1, 0)))
    assert new.disc == ring.disc
    for _ in range(10):
        g = ((F(rng.randint(-2, 2)), F(rng.randint(-2, 2))),
             (F(rng.randint(-2, 2)), F(rng.randint(-2, 2))))
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
            continue
        cubic_basis_change(ring, g)  # self-verifying against the new table
    with pytest.raises(PreconditionError):
        cubic_basis_change(ring, ((1, 1), (1, 1)))


def test_pair_equivariance_g_only(rng):
    """The GL_2(Z)-side of the data action: (A, B) -> det(g)^{-1} (A, B) g
    changes the good basis by the cubic_basis_change matrix and leaves the
    ideal data fixed (after re-coordinatization)."""
    from cubicnorm.rings_ideals import cubic_basis_change
    from cubicnorm.scalars import linsolve

    J = H3CNS(CompAlgebra(()))
    A, B = rand_nondeg_pair(J, rng)
    ring, ideal, cert = pair_to_balanced(J, A, B)
    v0 = cert.data["v0"]
    for g in [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1))]:
        (p, q), (r, s) = g
        det = F(p * s - q * r)
        dinv = 1 / det
        A2 = (A * p + B * q) * dinv
        B2 = (A * r + B * s) * dinv
        ring_exp, M = cubic_basis_change(ring, g)
        ring2, ideal2, cert2 = pair_to_balanced(J, A2, B2, v0=v0)
        assert ring2.coeffs == ring_exp.coeffs
        rows = [list(row) for row in M]

        def convert(coords):
            # coords in the old basis -> coords in the new basis: M x_new = x_old
            sol = linsolve(rows, list(coords))
            return tuple(sol)

        for b_old, b_new in zip(ideal.basis, ideal2.basis):
            for c_old, c_new in zip(b_old.coords, b_new.coords):
                assert convert(c_old.coords) == c_new.coords
        assert convert(ideal.beta.coords) == ideal2.beta.coords
