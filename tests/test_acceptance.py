"""Acceptance suite.

One test per criterion, at the stated trial counts, everything exact (zero
tolerance).  Each criterion prints a single pass/fail line (run with -s to
see them); any exact-identity failure is a hard test failure.

Criterion 1 must finish in under 60 seconds; the whole suite is budgeted
under 10 minutes.
"""

import random
import time
from fractions import Fraction as F

import pytest

from conftest import (
    rand_nondeg_pair,
    rand_rank2_h3,
    rand_rank2_w,
    rand_rank3_w,
    rand_rank4,
    rank4_with_antisym_omega,
)

from cubicnorm.cns import (
    CnsElt,
    CubicRingCNS,
    H3CNS,
    cns_axioms_check,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
)
from cubicnorm.composition import (
    CompAlgebra,
    comp_preset,
    find_nonassociative_triple,
)
from cubicnorm.freudenthal import (
    WSpace,
    gl2_act,
    m2_identity,
    m2_j2,
    m2_mul,
    m2_scalar,
    r_of,
    s_of,
)
from cubicnorm.lifting import (
    gan_savin_cns,
    lift_wa_refined,
    lift_wj,
    pair_lift,
    pair_lift_refined,
    rank2_h3_lift,
    rank2_w_lift,
    rank3_w_lift,
    second_lift,
    utilde_cns,
)
from cubicnorm.presets import bhargava_pair, cns_preset, thm_diag_pair
from cubicnorm.rings_ideals import (
    balanced_to_cube,
    balanced_to_pair,
    cube_to_balanced,
    field_invariant_b2,
    pair_to_balanced,
)
from cubicnorm.scalars import PreconditionError

EIGHT_VARIANTS = [
    "trivial", "fxf", "etale-cubic", "fxq",
    "matrix3", "h3-quaternion", "titsu-matrix:-1", "cayleyu:2",
]

ASSOCIATIVE = ["trivial", "fxf", "etale-cubic", "fxq", "matrix3"]


def _announce(name: str, ok: bool, dt: float) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s)")


def test_criterion_1_cns_axiom_suites():
    t0 = time.time()
    ok = True
    for name in EIGHT_VARIANTS:
        report = cns_axioms_check(cns_preset(name), trials=100, seed=1)
        if not report.ok():
            ok = False
            print(f"  {name} failures: {report.failures}")
    dt = time.time() - t0
    _announce("criterion 1 (CNS axioms, 8 variants x 100 trials)", ok and dt < 60, dt)
    assert ok
    assert dt < 60, f"criterion 1 took {dt:.1f}s (limit 60s)"


def test_criterion_2_freudenthal_identities():
    t0 = time.time()
    rng = random.Random(2)
    ok = True
    for name in EIGHT_VARIANTS:
        J = cns_preset(name)
        W = WSpace(J)
        for _ in range(100):
            v = W.random(rng, 1)
            q = W.quartic(v)
            f = W.flat(v)
            if W.pair(v, f) != 2 * q or not (W.flat(f) == v * (-(q * q))):
                ok = False
                break
    for name in ASSOCIATIVE:
        J = cns_preset(name)
        W = WSpace(J)
        for _ in range(30):
            v = W.random(rng, 1)
            R = r_of(W, v)
            if not (m2_mul(J, R, R) == m2_scalar(J, W.quartic(v))):
                ok = False
            S = s_of(W, v)
            vanish = all(e.is_zero() for row in S for e in row)
            if vanish != (W.rank(v) <= 1):
                ok = False
    dt = time.time() - t0
    _announce("criterion 2 (flat identities 100/variant; R^2 = q, S = 0 iff rank <= 1)",
              ok, dt)
    assert ok


def test_criterion_3_first_lifting_law():
    t0 = time.time()
    rng = random.Random(3)
    ok = True
    for name in ASSOCIATIVE:
        J = cns_preset(name)
        W = WSpace(J)
        for _ in range(50):
            v = rand_rank4(W, rng, height=1)
            res = lift_wj(W, v)
            res2 = lift_wa_refined(W, v, rng=rng)
            if not (res.ok() and res2.ok()):
                ok = False
                break
    dt = time.time() - t0
    _announce("criterion 3 (rank-one lift + refined law, 50 x 5 variants)", ok, dt)
    assert ok


def test_criterion_4_second_construction_law():
    t0 = time.time()
    rng = random.Random(4)
    ok = True
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        for _ in range(50):
            A, B = rand_nondeg_pair(J, rng)
            res = pair_lift_refined(J, A, B, rng=rng)
            if not res.ok():
                ok = False
                break
    # the explicit diagonal family, exact values
    J = H3CNS(CompAlgebra(()))
    for d in (1, 2, 3):
        A, B = thm_diag_pair(J, d)
        res = pair_lift(J, A, B)
        pd = res.data["pair"]
        if not (res.ok() and pd.Q == 4 * d ** 6):
            ok = False
        X, Y = res.lifted, res.data["Y"]
        JT = pd.JT

        def to_split(lam, d=d):
            c0, c1, c2 = lam.coords
            return (c0 - d * c1, c0 + d * c1, c0 - d * d * c2)

        (x1, x2, x3), _ = JT.split(X)
        (y1, y2, y3), _ = JT.split(Y)
        dd, d4 = d * d, d ** 4
        if (to_split(x1), to_split(x2), to_split(x3)) != \
                ((-2 * dd, 0, 0), (0, -2 * dd, 0), (0, 0, dd)):
            ok = False
        if (to_split(y1), to_split(y2), to_split(y3)) != \
                ((-2 * d4, 0, 0), (0, -2 * d4, 0), (0, 0, 4 * d4)):
            ok = False
    dt = time.time() - t0
    _announce("criterion 4 (pair law 50 x 3 coordinate algebras + d-family)", ok, dt)
    assert ok


def test_criterion_5_second_lifting_law():
    t0 = time.time()
    rng = random.Random(5)
    ok = True
    instances = [
        ("matrix:-1", lambda: second_kind_matrix(-1)),
        ("matrix:1 (AxA^opp)", lambda: second_kind_matrix(1)),
    ]
    for label, mk in instances:
        sk = mk()
        for i in range(25):
            v = rank4_with_antisym_omega(sk, rng)
            res = second_lift(sk, v)
            if not res.ok():
                ok = False
                print(f"  second_lift {label} failed:",
                      [e.name for e in res.certificate if not e.ok])
                break
            ut = utilde_cns(sk, v)
            if not ut.ok():
                ok = False
                break
            if i < 5:
                r = cns_axioms_check(ut.data["U"], trials=2, seed=i,
                                     check_nondegenerate=False)
                if not r.ok():
                    ok = False
                    print(f"  utilde axioms {label} failed:", r.failures)
                    break
    # the tensor shape: commutative A, K built from q(v)
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    for i in range(25):
        v = rand_rank4(W, rng, height=2, unit_corner=True)
        sk = second_kind_tensor(A, W.quartic(v))
        res = second_lift(sk, v)
        ut = utilde_cns(sk, v)
        gs = gan_savin_cns(A, v)
        if not (res.ok() and ut.ok() and gs.ok()):
            ok = False
            break
        if i < 5:
            r = cns_axioms_check(ut.data["U"], trials=2, seed=i,
                                 check_nondegenerate=False)
            r2 = cns_axioms_check(gs.data["U"], trials=2, seed=i,
                                  check_nondegenerate=False)
            if not (r.ok() and r2.ok()):
                ok = False
                break
    dt = time.time() - t0
    _announce("criterion 5 (second law, 25/instance; quotient model; "
              "commutative formulas)", ok, dt)
    assert ok


def test_criterion_6_lower_rank_lifts():
    t0 = time.time()
    rng = random.Random(6)
    ok = True
    J = H3CNS(comp_preset("gaussian"))
    for _ in range(25):
        X = rand_rank2_h3(J, rng)
        if not rank2_h3_lift(J, X).ok():
            ok = False
            break
    W = WSpace(J)
    for _ in range(25):
        x = rand_rank2_w(W, rng)
        if not rank2_w_lift(W, x).ok():
            ok = False
            break
    sk = second_kind_matrix(-1)
    Wm = WSpace(sk.J)
    for _ in range(25):
        x = rand_rank3_w(Wm, rng)
        if not rank3_w_lift(sk, x).ok():
            ok = False
            break
    # necessity: the rank preconditions are sharp
    sharp = 0
    with pytest.raises(PreconditionError):
        rank2_h3_lift(J, J.one())
    sharp += 1
    with pytest.raises(PreconditionError):
        rank2_w_lift(W, rand_rank4(W, rng))
    sharp += 1
    with pytest.raises(PreconditionError):
        rank3_w_lift(sk, rand_rank4(Wm, rng))
    sharp += 1
    with pytest.raises(PreconditionError):
        x3 = rand_rank3_w(Wm, rng)
        rank2_w_lift(Wm, x3)
    sharp += 1
    dt = time.time() - t0
    _announce("criterion 6 (lower-rank lifts, 25 each + sharp preconditions)",
              ok and sharp == 4, dt)
    assert ok and sharp == 4


def _integral_rank4(W, rng, height=2):
    for _ in range(500):
        v = W.random(rng, height, integral=True)
        if W.quartic(v) != 0:
            return v
    raise RuntimeError


def test_criterion_7_orbit_round_trips():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    # cube <-> balanced ideal, cycling the associative variants
    variants = [cns_preset(n) for n in ASSOCIATIVE]
    for i in range(25):
        A = variants[i % len(variants)]
        W = WSpace(A)
        v = _integral_rank4(W, rng, 1 if A.dim > 5 else 2)
        ring, ideal, cert = cube_to_balanced(A, v)
        v2, _ = balanced_to_cube(ideal)
        if not (cert.ok() and v2 == v):
            ok = False
            print(f"  cube round trip failed on {A.name}")
            break
        ell = cert.data["ell"]
        J = A
        one, z = J.one(), J.zero()
        for _ in range(10):
            g = m2_identity(J)
            for _ in range(2):
                X = J.random(rng, 1)
                k = rng.randint(0, 2)
                h = ((one, z), (X, one)) if k == 0 else \
                    (((one, X), (z, one)) if k == 1 else m2_j2(J))
                g = m2_mul(J, g, h)
            vg = gl2_act(W, g, v, "right")
            ellg = (J.mul(ell[0], g[0][0]) + J.mul(ell[1], g[1][0]),
                    J.mul(ell[0], g[0][1]) + J.mul(ell[1], g[1][1]))
            _, ideal3, _ = cube_to_balanced(A, vg, ell=ellg)
            E = ideal.E
            JE = ideal.basis[0].J
            gE = tuple(tuple(CnsElt(JE, tuple(E.from_rational(c) for c in e.coords))
                             for e in row) for row in g)
            bg = (JE.mul(ideal.basis[0], gE[0][0]) + JE.mul(ideal.basis[1], gE[1][0]),
                  JE.mul(ideal.basis[0], gE[0][1]) + JE.mul(ideal.basis[1], gE[1][1]))
            if not (ideal3.basis[0] == bg[0] and ideal3.basis[1] == bg[1]
                    and ideal3.beta == ideal.beta):
                ok = False
                print(f"  cube equivariance failed on {A.name}")
                break
        if not ok:
            break
    # pair <-> balanced ideal, cycling coordinate algebras
    comps = [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]
    from cubicnorm.matops import mat_mul, mat_star, row_times_mat

    for i in range(25):
        J = H3CNS(comps[i % 3])
        comp = J.comp
        A, B = rand_nondeg_pair(J, rng)
        ring, ideal, cert = pair_to_balanced(J, A, B)
        A2, B2 = balanced_to_pair(ideal)
        if not (cert.ok() and A2 == A and B2 == B):
            ok = False
            print("  pair round trip failed")
            break
        v0 = cert.data["v0"]
        for _ in range(10):
            m = tuple(tuple(comp.one() if a == b else comp.zero() for b in range(3))
                      for a in range(3))
            for _ in range(2):
                r, s = rng.sample(range(3), 2)
                e = [[comp.one() if a == b else comp.zero() for b in range(3)]
                     for a in range(3)]
                e[r][s] = comp.random(rng, 1)
                m = mat_mul(m, tuple(tuple(row) for row in e))
            mstar = mat_star(m, lambda x: x.conj())
            Am = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(A)), m))
            Bm = J.from_matrix(mat_mul(mat_mul(mstar, J.to_matrix(B)), m))
            v0m = row_times_mat(v0, m)
            _, ideal2, _ = pair_to_balanced(J, Am, Bm, v0=v0m)
            compT = ideal.basis[0].alg
            mT = tuple(tuple(CompElt_onto(compT, ideal.T, e) for e in row) for row in m)
            bm = row_times_mat(ideal.basis, mT)
            if not (all(x == y for x, y in zip(ideal2.basis, bm))
                    and ideal2.beta == ideal.beta):
                ok = False
                print("  pair equivariance failed")
                break
        if not ok:
            break
    dt = time.time() - t0
    _announce("criterion 7 (round trips 25 each + 10 group elements/instance)",
              ok, dt)
    assert ok


def CompElt_onto(compT, T, e):
    from cubicnorm.composition import CompElt

    return CompElt(compT, tuple(T.scalar_mul_one(c) for c in e.coords))


def test_criterion_8_known_invariants():
    t0 = time.time()
    rng = random.Random(8)
    ok = True
    J = H3CNS(CompAlgebra(()))
    from cubicnorm.lifting import disc_binary_cubic

    for coeffs in [(1, 2, 3, 4), (1, 0, -1, 0), (2, 1, 1, 3), (1, 1, 2, 1),
                   (3, -1, 0, 2)]:
        if disc_binary_cubic(*coeffs) == 0:
            continue
        A1, B1 = bhargava_pair(J, *coeffs)
        out = field_invariant_b2(J, A1, B1)
        if not (out["mu"] == out["T"].one() and out["det_identity"]):
            ok = False
            print(f"  Bhargava invariant failed at {coeffs}")
    O = comp_preset("octonion")
    for _ in range(100):
        x, y = O.random(rng), O.random(rng)
        if (x * y).norm() != x.norm() * y.norm():
            ok = False
            break
    if find_nonassociative_triple(O) is None:
        ok = False
    dt = time.time() - t0
    _announce("criterion 8 (Bhargava mu = 1; octonion norms + nonassociativity)",
              ok, dt)
    assert ok
