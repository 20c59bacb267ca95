"""Lifting constructions and their certificates."""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    associative_variants,
    rand_nondeg_pair,
    rand_rank2_h3,
    rand_rank2_w,
    rand_rank3_w,
    rand_rank3_w_commutative,
    rand_rank4,
    rank4_with_antisym_omega,
)

from cubicnorm.cns import (
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    TrivialCNS,
    cns_axioms_check,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
)
from cubicnorm import lifting
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import HALF, HOperator, WSpace, h_apply
from cubicnorm.lifting import (
    LiftResult,
    NoLiftError,
    QuotientTitsU,
    admissible_scale,
    disc_binary_cubic,
    epsilon_element,
    find_antisymmetric_omega,
    gan_savin_cns,
    hermitian_rank1_decompose,
    lift_wa_refined,
    lift_wj,
    pair_cubic,
    pair_lift,
    pair_lift_refined,
    rank2_h3_lift,
    rank2_w_lift,
    rank3_w_lift,
    second_lift,
    sr_maps,
    unique_lift_recover,
    utilde_cns,
    w_hermitian_K,
    w_star,
)
from cubicnorm.matops import row_times_mat
from cubicnorm.presets import bhargava_pair, thm_diag_pair
from cubicnorm.scalars import (IdentityError, PreconditionError, kernel, map_matrix,
                               rational_sqrt, rref)


def test_failing_require_records_then_raises():
    """A guaranteed identity that fails is entered in the certificate before
    IdentityError is raised."""
    res = LiftResult(extension=None, lifted=None)
    res.check("holds", True)
    with pytest.raises(IdentityError, match="guaranteed identity failed: broken"):
        res.require("broken", False)
    assert [(e.name, e.ok) for e in res.certificate] == [("holds", True), ("broken", False)]
    assert not res.ok()
    assert res.to_json() == {"extension": None, "ok": False, "certificate": [
        {"identity": "holds", "status": "pass"}, {"identity": "broken", "status": "fail"}]}


def test_lift_wj_diagonal():
    J = Matrix3CNS()
    W = WSpace(J)
    v = W.elem(2, J.zero(), J.zero(), 3)
    res = lift_wj(W, v)
    assert res.ok()
    WE = res.data["space"]
    om = res.data["omega"]
    assert res.lifted == WE.elem((om * 2 - 12) * HALF, WE.J.zero(), WE.J.zero(),
                                 (om * 3 + 18) * HALF)


def test_lift_wj_variants(rng):
    for J in associative_variants() + [H3CNS(comp_preset("gaussian"))]:
        W = WSpace(J)
        v = rand_rank4(W, rng)
        res = lift_wj(W, v)
        assert res.ok(), (J.name, [e.name for e in res.certificate if not e.ok])


def test_lift_wj_precondition(rng):
    W = WSpace(TrivialCNS())
    with pytest.raises(PreconditionError):
        lift_wj(W, W.zero())


def test_lift_wa_refined(rng):
    for J in associative_variants():
        W = WSpace(J)
        for _ in range(3):
            v = rand_rank4(W, rng)
            res = lift_wa_refined(W, v, rng=rng)
            assert res.ok(), J.name


def test_lift_wa_eta_zero(rng):
    J = ProductCNS(CompAlgebra(()))
    W = WSpace(J)
    v = rand_rank4(W, rng)
    from cubicnorm.scalars import quadratic_field

    E = quadratic_field(W.quartic(v))
    JE = J.base_change(E)
    res = lift_wa_refined(W, v, eta=(JE.zero(), JE.zero()), ell=(JE.zero(), JE.zero()))
    assert res.ok()


def test_unique_lift_recover(rng):
    W = WSpace(Matrix3CNS())
    v1 = rand_rank4(W, rng)
    assert unique_lift_recover(W, v1, W.flat(v1), W.quartic(v1)) == 1
    assert unique_lift_recover(W, v1, W.flat(v1) * 2, 4 * W.quartic(v1)) == 2
    assert unique_lift_recover(W, v1, W.random(rng), W.quartic(v1)) is None


def test_admissible_scale(rng):
    for J in associative_variants()[:3]:
        W = WSpace(J)
        v = W.random(rng)
        assert admissible_scale(W, v, 1, 0).ok()
        assert admissible_scale(W, v, 2, 3).ok()
    # (a,0,0,d): av + b v_flat = ((a - b ad)a, 0, 0, (a + b ad)d)
    J = TrivialCNS()
    W = WSpace(J)
    v = W.elem(2, J.zero(), J.zero(), 3)
    res = admissible_scale(W, v, 5, 1)
    assert res.lifted == W.elem((5 - 6) * 2, J.zero(), J.zero(), (5 + 6) * 3)


def test_pair_cubic_examples():
    J = H3CNS(CompAlgebra(()))
    A = J.one()
    B = J.join((1, -1, 0), (J.comp.zero(),) * 3)
    pd = pair_cubic(J, A, B)
    assert pd.coeffs == (1, 0, -1, 0)
    assert pd.Q == 4
    assert disc_binary_cubic(1, 0, 0, 1) == -27
    # Bhargava pair reproduces an arbitrary binary cubic
    A1, B1 = bhargava_pair(J, 1, 2, 3, 4)
    assert pair_cubic(J, A1, B1).coeffs == (1, 2, 3, 4)


def test_pair_lift_diag_family():
    J = H3CNS(CompAlgebra(()))
    for d in (1, 2, 3):
        A, B = thm_diag_pair(J, d)
        res = pair_lift(J, A, B)
        assert res.ok(), [e.name for e in res.certificate if not e.ok]
        pd = res.data["pair"]
        assert pd.Q == 4 * d ** 6
        X, Y = res.lifted, res.data["Y"]
        T, JT = pd.T, pd.JT

        def to_split(lam):
            c0, c1, c2 = lam.coords
            return (c0 - d * c1, c0 + d * c1, c0 - d * d * c2)

        (x1, x2, x3), _ = JT.split(X)
        assert (to_split(x1), to_split(x2), to_split(x3)) == \
            ((-2 * d * d, 0, 0), (0, -2 * d * d, 0), (0, 0, d * d))
        (y1, y2, y3), _ = JT.split(Y)
        d4 = d ** 4
        assert (to_split(y1), to_split(y2), to_split(y3)) == \
            ((-2 * d4, 0, 0), (0, -2 * d4, 0), (0, 0, 4 * d4))


def test_pair_lift_degenerate_B_zero():
    J = H3CNS(CompAlgebra(()))
    res = pair_lift(J, J.one(), J.zero())
    assert res.ok()
    pd = res.data["pair"]
    assert pd.Q == 0
    assert res.data["Y"].is_zero() or pd.JT.pair(res.lifted, res.data["Y"]) == pd.T.zero()


def test_pair_lift_random(rng):
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        for _ in range(3):
            A, B = rand_nondeg_pair(J, rng)
            res = pair_lift(J, A, B)
            assert res.ok(), [e.name for e in res.certificate if not e.ok]


def test_sr_maps_diag():
    J = H3CNS(CompAlgebra(()))
    A, B = thm_diag_pair(J, 2)
    pd = pair_cubic(J, A, B)
    sr = sr_maps(J, pd)   # ring map + adjoint-through-table checks inside
    c = J.comp

    def diagm(*vals):
        return tuple(tuple(c.from_scalar(vals[i]) if i == j else c.zero()
                           for j in range(3)) for i in range(3))

    assert sr.images["omega"] == diagm(-2, 2, 0)
    assert sr.images["theta"] == diagm(0, 0, -4)
    assert sr.images["one"] == diagm(1, 1, 1)


def test_epsilon_split():
    """For the diagonal family, eps is the diagonal of split idempotents."""
    J = H3CNS(CompAlgebra(()))
    A, B = thm_diag_pair(J, 1)
    pd = pair_cubic(J, A, B)
    sr = sr_maps(J, pd, check=False)
    eps = epsilon_element(J, pd, sr)
    T = pd.T
    # entries of eps are scalars of C (x) T; the diagonal entries are the
    # idempotents of L for the identification w -> (-1,1,0), t -> (0,0,-1)
    def to_split(e):
        c0, c1, c2 = e.coords[0].coords
        return (c0 - c1, c0 + c1, c0 - c2)

    assert to_split(eps[0][0]) == (1, 0, 0)
    assert to_split(eps[1][1]) == (0, 1, 0)
    assert to_split(eps[2][2]) == (0, 0, 1)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert eps[i][j].is_zero()


def test_pair_lift_refined(rng):
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        for _ in range(2):
            A, B = rand_nondeg_pair(J, rng)
            res = pair_lift_refined(J, A, B, rng=rng)
            assert res.ok(), [e.name for e in res.certificate if not e.ok]
    # v = 0 -> 0 = 0
    J = H3CNS(comp_preset("gaussian"))
    A, B = thm_diag_pair(J, 1)
    z = (J.comp.zero(),) * 3
    assert pair_lift_refined(J, A, B, v=z).ok()


def test_second_lift_tensor(rng):
    for A in [TrivialCNS(), ProductCNS(CompAlgebra(())),
              CubicRingCNS(split_cubic_algebra())]:
        W = WSpace(A)
        v = rand_rank4(W, rng, unit_corner=True)
        sk = second_kind_tensor(A, W.quartic(v))
        res = second_lift(sk, v)
        assert res.ok(), (A.name, [e.name for e in res.certificate if not e.ok])


def test_second_lift_matrix(rng):
    for D in (-1, 5, 1):
        sk = second_kind_matrix(D)
        v = rank4_with_antisym_omega(sk, rng)
        res = second_lift(sk, v)
        assert res.ok(), (D, [e.name for e in res.certificate if not e.ok])


def test_second_lift_draws_the_dead_rows_it_skips(monkeypatch):
    """Over B = M_3(K) all 99 prefix rows have zero shriek and are not
    paired, but the eta search still draws each of them before the first
    random row, as it did before they were skipped."""
    draws = []

    def counted(*args, **kwargs):
        for row in search_rows(*args, **kwargs):
            draws.append(row)
            yield row

    search_rows = lifting.iter_search_rows
    monkeypatch.setattr(lifting, "iter_search_rows", counted)
    for D in (-1, 1):
        sk = second_kind_matrix(D)
        draws.clear()
        res = second_lift(sk, rank4_with_antisym_omega(sk, random.Random(0)))
        assert res.ok()
        assert len(draws) == 100


def test_second_lift_no_lift(rng):
    sk = second_kind_matrix(-1)
    W = WSpace(sk.J)
    for _ in range(50):
        v = rand_rank4(W, rng)
        if rational_sqrt(-W.quartic(v)) is None:
            with pytest.raises(NoLiftError):
                second_lift(sk, v)
            return
    pytest.skip("no negative instance found")


def test_hermitian_form_identity(rng):
    sk = second_kind_matrix(5)
    WB = WSpace(sk.B)
    for _ in range(3):
        x, y = WB.random(rng, 1), WB.random(rng, 1)
        assert w_hermitian_K(sk, x, y) == WB.pair(w_star(sk, x), y) * 6
        assert w_hermitian_K(sk, y, x) == -sk.conj_K(w_hermitian_K(sk, x, y))


def test_utilde(rng):
    A = TrivialCNS()
    W = WSpace(A)
    v = rand_rank4(W, rng, unit_corner=True)
    sk = second_kind_tensor(A, W.quartic(v))
    res = utilde_cns(sk, v)
    assert res.ok()
    U = res.data["U"]
    assert U.norm(U.one()) == 1
    r = cns_axioms_check(U, trials=8, seed=5)
    assert r.ok(), r.failures
    # corank check: dim I = dim_F B
    assert U.qdim == sk.J.dim + U._fdim


def test_utilde_left_kernel_reads_rows_of_h():
    """ell -> ell h read off the rows of h has the matrix of the dense
    row_times_mat product, so I(v, omega) keeps its pivots and reduced rows,
    on the pinned second-law inputs over M_3(K) for D = -1 and 1."""
    for D in (-1, 1):
        sk = second_kind_matrix(D)
        for k in range(2):
            v = rank4_with_antisym_omega(sk, random.Random(k))
            U = QuotientTitsU(sk, v, find_antisymmetric_omega(sk, WSpace(sk.J).quartic(v)))
            dense = map_matrix(lambda ell: row_times_mat(ell, U.h), U.B2, U.B2)
            assert map_matrix(U._times_h, U.B2, U.B2) == dense
            pivots, reduced, _ = rref(kernel(dense))
            assert U._pivots == pivots and U._reduced == reduced[:len(pivots)]


def test_utilde_equivariance(rng):
    A = ProductCNS(CompAlgebra(()))
    W = WSpace(A)
    v = rand_rank4(W, rng, unit_corner=True)
    sk = second_kind_tensor(A, W.quartic(v))
    res = utilde_cns(sk, v)
    U = res.data["U"]
    B = sk.B
    X = A.random(rng)
    gv = h_apply(HOperator("nj", (X,)), v)
    U2 = QuotientTitsU(sk, gv, res.data["omega"])
    xj = A.random(rng)
    ell = (B.random(rng), B.random(rng))
    ellg = (ell[0] + B.mul(ell[1], sk.embed(X)), ell[1])
    assert U2.norm_raw(xj, ell) == U.norm_raw(xj, ellg)


def test_gan_savin(rng):
    for A in [TrivialCNS(), CubicRingCNS(split_cubic_algebra()),
              ProductCNS(CompAlgebra(()))]:
        W = WSpace(A)
        v = rand_rank4(W, rng, unit_corner=True)
        res = gan_savin_cns(A, v)
        assert res.ok()
        U = res.data["U"]
        r = cns_axioms_check(U, trials=8, seed=6)
        assert r.ok(), (A.name, r.failures)
        x = A.random(rng)
        assert U.norm(U.join(x, (A.zero(), A.zero()))) == A.norm(x)


def test_gan_savin_cubic_ring_case(rng):
    """Over A = Q the lift recovers the binary-cubic/cubic-ring picture:
    (a, -w, t, d) is rank one."""
    A = TrivialCNS()
    W = WSpace(A)
    # the element of W_Q matching the cubic x^3 + x^2 y + 2 x y^2 + 3 y^3
    a, b, c, d = F(1), F(1), F(2), F(3)
    v = W.elem(a, A.elem([b / 3]), A.elem([c / 3]), d)
    assert W.base.is_unit(W.quartic(v))
    res = gan_savin_cns(A, v)
    assert res.ok()


def test_gan_savin_rejects_noncommutative(rng):
    A = Matrix3CNS()
    W = WSpace(A)
    v = rand_rank4(W, rng)
    with pytest.raises(PreconditionError):
        gan_savin_cns(A, v)


def test_hermitian_rank1_decompose(rng):
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        w = (C.one(), C.one(), C.zero())
        Ym = tuple(tuple(w[i] * w[j].conj() * F(2) for j in range(3)) for i in range(3))
        mu, v0, wit = hermitian_rank1_decompose(J, J.from_matrix(Ym))
        assert wit[0] * v0[0] + wit[1] * v0[1] + wit[2] * v0[2] == C.one()
        with pytest.raises(PreconditionError):
            hermitian_rank1_decompose(J, J.one())


def test_rank2_h3_lift(rng):
    J = H3CNS(CompAlgebra(()))
    X = J.join((1, 1, 0), (J.comp.zero(),) * 3)
    res = rank2_h3_lift(J, X)
    assert res.ok()
    assert res.data["gamma"] == -1
    with pytest.raises(PreconditionError):
        rank2_h3_lift(J, J.one())
    for C in [comp_preset("gaussian"), comp_preset("hamilton")]:
        Jc = H3CNS(C)
        for _ in range(2):
            X = rand_rank2_h3(Jc, rng)
            res = rank2_h3_lift(Jc, X)
            assert res.ok(), [e.name for e in res.certificate if not e.ok]


def test_rank2_w_lift(rng):
    for C in [CompAlgebra(()), comp_preset("gaussian")]:
        J = H3CNS(C)
        W = WSpace(J)
        c = J.join((2, 0, 0), (C.zero(),) * 3)
        x = W.elem(1, J.zero(), c, 0)
        res = rank2_w_lift(W, x)
        assert res.ok()
        for _ in range(2):
            y = rand_rank2_w(W, rng)
            res = rank2_w_lift(W, y)
            assert res.ok(), [e.name for e in res.certificate if not e.ok]
    with pytest.raises(PreconditionError):
        rank2_w_lift(WSpace(H3CNS(CompAlgebra(()))),
                     rand_rank4(WSpace(H3CNS(CompAlgebra(()))), rng))


def test_rank3_w_lift_matrix(rng):
    for D in (-1, 5, 1):
        sk = second_kind_matrix(D)
        W = WSpace(sk.J)
        for _ in range(2):
            x = rand_rank3_w(W, rng)
            res = rank3_w_lift(sk, x)
            assert res.ok(), (D, [e.name for e in res.certificate if not e.ok])
    with pytest.raises(PreconditionError):
        rank3_w_lift(sk, rand_rank4(W, rng))


def test_rank3_w_lift_tensor(rng):
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    sk = second_kind_tensor(A, 5)
    for _ in range(2):
        x = rand_rank3_w_commutative(A, W, rng)
        res = rank3_w_lift(sk, x)
        assert res.ok(), [e.name for e in res.certificate if not e.ok]


def test_rank3_w_lift_a_slot_input():
    """x = (0, 0, 1_J, 0) has neither a nor d a unit, so the rank-one test
    of the lift in W_U(h) runs t(v, v, .) over every basis vector."""
    sk = second_kind_matrix(-1)
    J = sk.J
    x = WSpace(J).elem(0, J.zero(), J.one(), 0)
    res = rank3_w_lift(sk, x)
    assert res.ok(), [e.name for e in res.certificate if not e.ok]
    lifted = res.lifted
    assert not (lifted.W.base.is_unit(lifted.a) or lifted.W.base.is_unit(lifted.d))


def test_rank3_case2_explicit():
    """d = 0 with tr(c#) != 0: the S = c - c# construction."""
    sk = second_kind_matrix(-1)
    J = sk.J
    W = WSpace(J)
    c = J.join((1, 2, 0), (J.comp.zero(),) * 3)
    x = W.elem(1, J.zero(), c, 0)
    assert W.rank(x) == 3
    res = rank3_w_lift(sk, x)
    assert res.ok()
