"""Lifting constructions and their certificates."""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest

from conftest import (
    associative_variants,
    elimination_rows,
    epsilon_oracle,
    rand_nondeg_pair,
    rand_rank2_h3,
    rand_rank2_w,
    rand_rank3_w,
    rand_rank3_w_commutative,
    rand_rank4,
    rank4_with_antisym_omega,
)

from cubicnorm.cns import (
    CNS,
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    TrivialCNS,
    cns_axioms_check,
    cubic_ring_algebra,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
)
from cubicnorm import lifting
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import HALF, HOperator, WSpace, h_apply, r_of
from cubicnorm.lifting import (
    LiftResult,
    NoLiftError,
    QuotientTitsU,
    admissible_scale,
    disc_binary_cubic,
    embed_w,
    epsilon_element,
    find_antisymmetric_omega,
    first_law,
    gan_savin_cns,
    gram_of_basis,
    hermitian_rank1_decompose,
    lift_wa_refined,
    lift_wj,
    pair_cubic,
    eigen_checks,
    hermitian_pair,
    pair_lift,
    pair_lift_refined,
    rank2_h3_lift,
    rank2_w_lift,
    rank3_w_lift,
    second_lift,
    sr_maps,
    unique_lift_recover,
    unit_scalar_row,
    utilde_cns,
    w_hermitian_K,
    w_star,
)
from cubicnorm.matops import mat_eq, mat_smul, outer, row_times_mat, sum_prod
from cubicnorm.presets import ASSOCIATIVE_SUITE, bhargava_pair, cns_preset, thm_diag_pair
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
    for J in associative_variants() + [H3CNS(comp_preset("gaussian")),
                                       cns_preset("titsu-tensor"), cns_preset("cayleyu-comm")]:
        W = WSpace(J)
        v = rand_rank4(W, rng)
        res = lift_wj(W, v)
        assert res.ok(), (J.name, [e.name for e in res.certificate if not e.ok])


def test_lift_wj_certificate_names(rng, monkeypatch):
    """lift_wj's certificate: one "3t(X,X,x) = <x,X>X" entry per basis
    vector x of W_{J (x) E}, in basis order, then the rank and the <X, Xbar>
    entries; and a column of t(X, X, .) that is off by one unit fails its
    entry."""
    for J in (TrivialCNS(), Matrix3CNS(), cns_preset("titsu-tensor")):
        W = WSpace(J)
        res = lift_wj(W, rand_rank4(W, rng))
        assert [e.name for e in res.certificate] == (
            ["3t(X,X,x) = <x,X>X"] * (2 + 2 * J.dim) + ["rank(X) = 1", "<X, Xbar> = w q(v)"])
        assert res.ok()
    matrix = WSpace.t_vv_matrix

    def off_by_one(WE, X):
        cols, den = matrix(WE, X)
        return [cols[0], [cols[1][0] + 1] + cols[1][1:]] + cols[2:], den

    monkeypatch.setattr(WSpace, "t_vv_matrix", off_by_one)
    with pytest.raises(IdentityError, match="3t"):
        lift_wj(W, rand_rank4(W, rng))


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


def x_oracle(WT, vT, omega):
    """X(v, omega) = (omega v_T + (v_T)_flat) / 2, the flat taken over T."""
    return (vT * omega + WT.flat(vT)) * HALF


def test_first_law_takes_the_flat_once_over_the_ground_field(rng):
    """first_law records v_flat over F as data["flat"], and its X and Xbar
    are (+-w v_E + (v_E)_flat)/2 with the flat taken over E."""
    for name in ASSOCIATIVE_SUITE + ["h3-quaternion", "h3-octonion"]:
        W = WSpace(cns_preset(name))
        v = rand_rank4(W, rng, height=1, integral=False)
        res = first_law(W, v)
        assert res.data["flat"].W == W and res.data["flat"] == W.flat(v)
        WE, w = res.data["space"], res.data["omega"]
        vE = WE.extend(v)
        assert res.lifted == x_oracle(WE, vE, w), name
        assert res.data["xbar"] == x_oracle(WE, vE, -w), name


def test_lift_wa_refined_reads_r_into_E(rng):
    """lift_wa_refined's R is R(v) over F read into J_E, which is R of v
    read into W_E."""
    for J in associative_variants():
        W = WSpace(J)
        v = rand_rank4(W, rng, height=1, integral=False)
        res = lift_wa_refined(W, v, rng=rng)
        WE = res.data["space"]
        assert res.data["R"] == r_of(WE, WE.extend(v)), J.name


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

    rows = sr.space.rows
    assert rows(sr.images["omega"]) == diagm(-2, 2, 0)
    assert rows(sr.images["theta"]) == diagm(0, 0, -4)
    assert rows(sr.images["one"]) == diagm(1, 1, 1)


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


def test_epsilon_matches_the_trace_map_oracle(rng):
    """eps from the inverse Gram matrix equals eps from duals solved over
    the trace map, on random nondegenerate pairs over Q, Q(i) and the
    Hamilton quaternions."""
    for C in [CompAlgebra(()), comp_preset("gaussian"), comp_preset("hamilton")]:
        J = H3CNS(C)
        for _ in range(2):
            pd = pair_cubic(J, *rand_nondeg_pair(J, rng))
            sr = sr_maps(J, pd, check=False)
            assert mat_eq(epsilon_element(J, pd, sr), epsilon_oracle(J, pd, sr))


def test_pair_side_checks_raise_on_a_corrupted_pair():
    """The identities sr_maps and epsilon_element check are certificates: a
    pair whose S_r is built from another A fails the ring map, an s_r that
    is not linear makes eps depend on the basis, a linear S_r that is not a
    ring map fails S_r(x) eps = eps x, and a wrong s1, s2 fails the adjoint
    through the table."""
    J = H3CNS(comp_preset("hamilton"))
    rng = random.Random(5)
    A, B = rand_nondeg_pair(J, rng)
    pd = pair_cubic(J, A, B)
    bad = dataclasses.replace(pd, A=A + J.one())
    with pytest.raises(IdentityError, match="ring map"):
        sr_maps(J, bad)
    with pytest.raises(IdentityError, match="S_r\\(x\\) eps"):
        epsilon_element(J, pd, sr_maps(J, bad, check=False))
    sr = sr_maps(J, pd)
    linear = sr.s_r
    sr.s_r = lambda lam: linear(lam) + 1
    with pytest.raises(IdentityError, match="depends on the basis"):
        epsilon_element(J, pd, sr)
    T = pd.T
    T.char_s1_s2 = lambda lam: (0, 0)
    try:
        with pytest.raises(IdentityError, match="adjoint through the table"):
            sr_maps(J, pd)
    finally:
        del T.char_s1_s2


def test_pair_side_preconditions():
    """S_r needs associative Hermitian coordinates, and eps a nonzero
    discriminant."""
    for J in (H3CNS(comp_preset("octonion")), Matrix3CNS()):
        A, B = J.one(), J.basis()[1]
        with pytest.raises(PreconditionError):
            sr_maps(J, dataclasses.replace(pair_cubic(H3CNS(CompAlgebra(())), *thm_diag_pair(
                H3CNS(CompAlgebra(())), 1)), A=A, B=B))
    J = H3CNS(comp_preset("gaussian"))
    pd = pair_cubic(J, J.one(), J.one())
    assert pd.Q == 0
    sr = sr_maps(J, pd)
    with pytest.raises(PreconditionError, match="disc"):
        epsilon_element(J, pd, sr)
    # only Q = 0 is rejected: eps reads Q for that test alone
    pd1 = pair_cubic(J, *thm_diag_pair(J, 1))
    eps = epsilon_element(J, pd1, sr_maps(J, pd1))
    for q in (1, -1):
        assert epsilon_element(J, dataclasses.replace(pd1, Q=q), sr_maps(J, pd1)) == eps


def test_eigen_checks_reject_a_wrong_element(rng):
    """S_l(lam) X = lam X = X S_r(lam) and S_r(lam) Y = lam Y = Y S_l(lam)
    hold for the pair's (X, Y) and not for (X, X), where the first two
    still hold."""
    J = H3CNS(comp_preset("hamilton"))
    res = hermitian_pair(J, *rand_nondeg_pair(J, rng))
    pd, X, Y, H3T = res.data["pair"], res.lifted, res.data["Y"], res.data["H3T"]
    sr = sr_maps(J, pd)
    assert eigen_checks(H3T, pd, X, Y, sr)
    assert not eigen_checks(H3T, pd, X, X, sr)
    assert not eigen_checks(H3T, pd, Y, Y, sr)


def test_pair_lift_cross_checks(rng, monkeypatch):
    """Over associative Hermitian coordinates the pair lift certifies X and
    Y through the trace-zero basis too; an S(theta0) that breaks the
    Hermitian middle term raises."""
    J = H3CNS(comp_preset("gaussian"))
    A, B = rand_nondeg_pair(J, rng)
    names = [e.name for e in pair_lift(J, A, B).certificate]
    assert names == ["X# = 0", "Y# = 0", "(X, Y) = Q((A,B))", "Y closed form",
                     "X via trace-zero basis", "Y0 = -3Y"]
    assert [e.name for e in pair_lift(J, A, B, cross_checks=False).certificate] == names[:4]
    sr_maps_ = lifting.sr_maps

    def skewed(J, pd, check=True):
        sr = sr_maps_(J, pd, check)
        sr.images["theta0"] = sr.images["theta0"] + sr.space.basis()[1]
        return sr

    monkeypatch.setattr(lifting, "sr_maps", skewed)
    with pytest.raises(IdentityError, match="Hermitian"):
        pair_lift(J, A, B)


def test_unit_scalar_row_on_a_dense_quaternion_row():
    """m = mu v v* over the Hamilton quaternions and a dense row w: w m w*
    is the unit mu n(w v), m = mu' v0 v0* and w v0 = 1 (not v0 w, which
    differs for quaternions); a non-Hermitian m whose w m w* is not scalar
    raises, and so does an m of rank three."""
    H = comp_preset("hamilton")
    rng = random.Random(3)
    v = tuple(H.random(rng, 2) for _ in range(3))
    m = mat_smul(outer(v, v), 2)
    w = tuple(H.random(rng, 2) for _ in range(3))
    mu, v0, row = unit_scalar_row(H, m, [w], "no row")
    assert row == w and mu == 2 * sum(a * b.conj() for a, b in zip(w, v)).norm()
    assert mat_smul(outer(tuple(c.conj() for c in v0), tuple(c.conj() for c in v0)), mu) == m
    assert sum(a * b for a, b in zip(w, v0)) == H.one()
    assert sum(b * a for a, b in zip(w, v0)) != H.one()
    i = H.basis()[1]
    skew = tuple(tuple(e * i for e in r) for r in m[:1]) + m[1:]
    with pytest.raises(IdentityError, match="not scalar"):
        unit_scalar_row(H, skew, [w], "no row")
    # the identity is Hermitian with e_1 1 e_1* = 1 a unit, but not rank one
    eye = tuple(tuple(H.one() if i == j else H.zero() for j in range(3)) for i in range(3))
    with pytest.raises(IdentityError, match="rank-one"):
        unit_scalar_row(H, eye, [(H.one(), H.zero(), H.zero())], "no row")


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


def second_kinds():
    """The two matrix kinds, non-split and split, and one tensor kind."""
    return [second_kind_matrix(-1), second_kind_matrix(1),
            second_kind_tensor(CubicRingCNS(split_cubic_algebra()), 5)]


def test_embed_w_reads_the_flat_into_B(rng):
    """embed_w is a map of W_J into W_B that commutes with the flat."""
    for sk in second_kinds():
        W, WB = WSpace(sk.J), WSpace(sk.B)
        for v in (W.random(rng, 1, False), W.random(rng)):
            assert embed_w(sk, WB, W.flat(v)) == WB.flat(embed_w(sk, WB, v)), sk.kind


def test_second_law_set_ups_read_the_ground_flat_into_B(rng, monkeypatch):
    """second_lift's X and Xbar and QuotientTitsU's Xbar are
    (+-omega v_B + (v_B)_flat)/2 with the flat taken over B."""
    A = TrivialCNS()
    va = rand_rank4(WSpace(A), rng, unit_corner=True)
    cases = [(sk, rank4_with_antisym_omega(sk, random.Random(0))) for sk in second_kinds()[:2]]
    cases.append((second_kind_tensor(A, WSpace(A).quartic(va)), va))
    made = []
    x_of = lifting.x_of

    def recorded(*args):
        made.append(x_of(*args))
        return made[-1]

    monkeypatch.setattr(lifting, "x_of", recorded)
    for sk, v in cases:
        WB = WSpace(sk.B)
        vB = embed_w(sk, WB, v)
        omega = find_antisymmetric_omega(sk, WSpace(sk.J).quartic(v))
        made.clear()
        assert second_lift(sk, v).ok()
        assert made == [x_oracle(WB, vB, omega), x_oracle(WB, vB, -omega)], sk.kind
        assert QuotientTitsU(sk, v, omega).Xbar == x_oracle(WB, vB, -omega), sk.kind


def test_hermitian_form_identity(rng):
    sk = second_kind_matrix(5)
    WB = WSpace(sk.B)
    for _ in range(3):
        x, y = WB.random(rng, 1), WB.random(rng, 1)
        assert w_hermitian_K(sk, x, y) == WB.pair(w_star(sk, x), y) * 6
        assert w_hermitian_K(sk, y, x) == -sk.K.conj(w_hermitian_K(sk, x, y))


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
    assert U.dim == sk.J.dim + U._fdim


def test_utilde_cns_takes_q_of_v_once(monkeypatch):
    """utilde_cns finds omega from the q(v) that the quotient model takes
    to check omega^2 = q(v): one quartic per call, with or without omega."""
    skm = second_kind_matrix(-1)
    v = rank4_with_antisym_omega(skm, random.Random(0))
    calls = []
    quartic = WSpace.quartic
    monkeypatch.setattr(WSpace, "quartic", lambda W, x: calls.append(x) or quartic(W, x))
    res = utilde_cns(skm, v)
    assert res.ok() and len(calls) == 1
    omega = res.data["omega"]
    assert omega * omega == skm.K.from_rational(quartic(v.W, v))
    assert skm.K.conj(omega) == -omega
    calls.clear()
    assert utilde_cns(skm, v, omega).data["U"].omega == omega
    assert len(calls) == 1
    # a given omega is kept, the other square root included
    assert QuotientTitsU(skm, v, -omega).omega == -omega


def test_utilde_is_a_coordinate_space(rng):
    """The quotient model has one coordinate per dimension, dim J + dim_F B
    of them, read off the free columns of I(v, omega): elem, zero, basis,
    split and join agree on its classes, and adding a row of I(v, omega) to
    the row pair does not change the class."""
    A = TrivialCNS()
    va = rand_rank4(WSpace(A), rng, unit_corner=True)
    skm = second_kind_matrix(-1)
    for sk, v in ((second_kind_tensor(A, WSpace(A).quartic(va)), va),
                  (skm, rank4_with_antisym_omega(skm, random.Random(0)))):
        U = utilde_cns(sk, v).data["U"]
        J, B = sk.J, sk.B
        assert len(U.basis()) == U.dim == J.dim + B.flat_dim()
        assert U.zero() == U.join(J.zero(), (B.zero(), B.zero()))
        row = U.B2.unflatten(U._reduced[0])
        for x in [U.random(rng, 1), U.one()] + U.basis()[-2:]:
            assert U.elem(x.coords) == x
            xj, ell = U.split(x)
            assert U.join(xj, ell) == x
            assert U.join(xj, (ell[0] + row[0], ell[1] + row[1])) == x
    assert U.dim == 27


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


def test_utilde_h_matrix_is_the_contracted_product(rng):
    """ell -> ell h as four right contractions of B's product table is a
    positive multiple of the probed matrix of ``_times_h``, with the same
    kernel; and the pivot rows of I(v, omega), each read over its lcd, are
    the rref rows over their lcd.  Over M_3(K) for D = -1 and 1 and over
    the tensor kind A (x) K."""
    cases = []
    for D in (-1, 1):
        sk = second_kind_matrix(D)
        for k in range(2):
            v = rank4_with_antisym_omega(sk, random.Random(k))
            cases.append(QuotientTitsU(sk, v, find_antisymmetric_omega(sk, WSpace(sk.J).quartic(v))))
    for A in (TrivialCNS(), CubicRingCNS(split_cubic_algebra())):
        v = rand_rank4(WSpace(A), rng, unit_corner=True)
        cases.append(utilde_cns(second_kind_tensor(A, WSpace(A).quartic(v)), v).data["U"])
    for U in cases:
        got, want = U._h_matrix(), map_matrix(U._times_h, U.B2, U.B2)
        j, k = next((j, k) for j, row in enumerate(want) for k, w in enumerate(row) if w)
        ratio = F(got[j][k], want[j][k])
        assert ratio > 0 and [[F(g) for g in row] for row in got] == \
            [[ratio * w for w in row] for row in want], U.name
        assert kernel(got) == kernel(want)
        pivots, reduced, _ = rref(kernel(want))
        den = math.lcm(*(F(x).denominator for row in reduced[:len(pivots)] for x in row))
        assert U._pivots == pivots and U._den == den
        assert U._rows == [[int(x * den) for x in row] for row in reduced[:len(pivots)]]


def test_gram_of_basis_takes_each_pair_once(rng):
    """The Gram matrix tr(x_i x_j) is symmetric and takes one product per
    pair i <= j, on the ring's own basis and on a non-integral basis."""
    T = cubic_ring_algebra(1, -1, 2, 3)
    for basis in (None, [T.random(rng, 2, integral=False) for _ in range(3)]):
        bs = T.basis() if basis is None else basis
        traces = []
        trace = T.trace
        T.trace = lambda u: traces.append(u) or trace(u)
        try:
            gram = gram_of_basis(T, basis)
        finally:
            del T.trace
        assert gram == [[trace(x * y) for y in bs] for x in bs]
        assert len(traces) == 6


@pytest.mark.parametrize("D", [-1, 1])
def test_utilde_join_matches_the_rational_pivot_reduction(D):
    """join on integer numerators against the oracle it replaced: ell read
    as Fractions, reduced along the rational pivot rows of I(v, omega) one
    pivot at a time, its free columns read off; and split inverts join, with
    zeros at the pivots, on random non-integral row pairs for D = -1 and 1."""
    sk = second_kind_matrix(D)
    v = rank4_with_antisym_omega(sk, random.Random(0))
    U = QuotientTitsU(sk, v, find_antisymmetric_omega(sk, WSpace(sk.J).quartic(v)))
    J, B = sk.J, sk.B
    rng = random.Random(30 + D)
    for _ in range(8):
        xj = J.random(rng, 2, integral=False)
        ell = (B.random(rng, 2, integral=False), B.random(rng, 2, integral=False))
        flat = [F(k, c.den) for c in ell for k in c.num]
        for pivot, row in zip(U._pivots, U._reduced):
            coef = flat[pivot]
            if coef != 0:
                flat = [a - coef * b for a, b in zip(flat, row)]
        x = U.join(xj, ell)
        assert x == U.concat(xj, *(flat[j] for j in U._free))
        yj, rep = U.split(x)
        assert yj == xj and [F(k, c.den) for c in rep for k in c.num] == flat
        assert all(flat[p] == 0 for p in U._pivots)


def _quotient_u(D, seed):
    sk = second_kind_matrix(D)
    return QuotientTitsU(sk, rank4_with_antisym_omega(sk, random.Random(seed)))


def test_utilde_pivot_rows_match_the_elimination():
    """I(v, omega)'s pivots, integer rows and den are the elimination's on
    the second-law inputs of seeds 0-4 over M_3(K) for D = -1 and 1, and of
    seeds 0-1 for D = 1/2, whose product table has denominator 2."""
    assert second_kind_matrix(F(1, 2)).B._product.den == 2
    for D, seeds in ((-1, range(5)), (1, range(5)), (F(1, 2), range(2))):
        for seed in seeds:
            U = _quotient_u(D, seed)
            assert (U._pivots, U._rows, U._den) == elimination_rows(U), (D, seed)


def test_utilde_reads_a_unit_h11_as_a_graph_and_eliminates_otherwise(monkeypatch):
    """Where h11 is a unit of B, I(v, omega) is the graph ell1 = ell0 M of
    M = -h01 h11^-1: no elimination runs, its pivot rows are (e_i, e_i M) on
    ell0's flat columns, and every canonical representative has ell0 = 0.
    Over the split K of D = 1, seed 2 gives an h11 that is not a unit: there
    the one elimination runs, and its rows agree with the oracle's."""
    calls = []
    monkeypatch.setattr(lifting, "kernel", lambda m: calls.append(m) or kernel(m))
    rng = random.Random(31)
    for D, seed, graph in ((-1, 0, True), (-1, 3, True), (1, 0, True), (1, 2, False)):
        calls.clear()
        U = _quotient_u(D, seed)
        B = U.sk.B
        (_, h01), (_, h11) = U.h
        n = B.flat_dim()
        assert B.base.is_unit(B.norm(h11)) == graph and len(calls) == (not graph)
        assert (U._pivots, U._rows, U._den) == elimination_rows(U), (D, seed)
        if not graph:
            assert U._pivots != list(range(n))
            continue
        assert U._pivots == list(range(n)) and U._free == list(range(n, 2 * n))
        M = -B.mul(h01, lifting._b_inverse(B, h11))
        assert [U.B2.unflatten(row) for row in U._reduced] == [(e, B.mul(e, M)) for e in B.flat_basis()]
        for x in (U.random(rng, 2, integral=False), U.one()):
            assert not U.split(x)[1][0]


def _patched_h(monkeypatch, f):
    """QuotientTitsU's h replaced by f(h00, h01, h10, h11)."""
    tits_h = lifting._tits_h

    def patched(*args):
        (h00, h01), (h10, h11) = tits_h(*args)
        return f(h00, h01, h10, h11)

    monkeypatch.setattr(lifting, "_tits_h", patched)


@pytest.mark.parametrize("D, seed", [(-1, 0), (1, 2)])
def test_utilde_rejects_an_h_whose_schur_complement_does_not_vanish(D, seed, monkeypatch):
    """With h00 + 1 in place of h00, h no longer has B-rank one: on the graph
    path (D = -1) h00 + M h10 = 0 fails, and on the fallback (D = 1, seed 2)
    the elimination's kernel is too small; either way the construction
    raises."""
    sk = second_kind_matrix(D)
    v = rank4_with_antisym_omega(sk, random.Random(seed))
    _patched_h(monkeypatch, lambda h00, h01, h10, h11: ((h00 + sk.B.one(), h01), (h10, h11)))
    with pytest.raises(IdentityError, match=r"^I\(v, omega\) does not have B-corank one$"):
        QuotientTitsU(sk, v)


def test_utilde_checks_that_m_solves_the_second_equation(monkeypatch):
    """M h11 = -h01 is checked.  With h00 = h10 = 0 every M has a zero Schur
    complement, and I(v, omega) is the graph of M = -h01 h11^-1, as the
    elimination agrees; an inverse of n(h11) off by a factor 2 then fails
    that check alone."""
    sk = second_kind_matrix(-1)
    v = rank4_with_antisym_omega(sk, random.Random(0))
    omega = find_antisymmetric_omega(sk, WSpace(sk.J).quartic(v))
    _patched_h(monkeypatch, lambda h00, h01, h10, h11: ((h00 * 0, h01), (h10 * 0, h11)))
    U = QuotientTitsU(sk, v, omega)
    assert U._pivots == list(range(sk.B.flat_dim())) and U.h[0][1]
    inv = sk.K.inv
    monkeypatch.setattr(sk.K, "inv", lambda u: inv(u) * 2)
    with pytest.raises(IdentityError, match=r"^I\(v, omega\) does not have B-corank one$"):
        QuotientTitsU(sk, v, omega)


def _row_pairs(B, rng):
    """Row pairs over B with every pattern of zero blocks."""
    def block(nonzero):
        return B.random(rng, 2, integral=False) if nonzero else B.zero()
    return [(block(a), block(b)) for a in (0, 1) for b in (0, 1)]


def _no_zero_factors(monkeypatch, B):
    """From here on a product, cross or adjoint in B with a zero factor fails."""
    def nonzero_operands(f):
        def checked(*args):
            assert all(args), f"{f.__name__} of a zero block"
            return f(*args)
        return checked

    for name in ("mul", "cross", "adjoint"):
        monkeypatch.setattr(B, name, nonzero_operands(getattr(B, name)))


def test_delta_skips_zero_blocks_and_its_cross_polarizes_it(monkeypatch):
    """_delta and _delta_cross match the full formulas on row pairs with
    every pattern of zero blocks, _delta of a sum being _delta of each plus
    _delta_cross, and take no product, cross or adjoint of a zero block."""
    U = _quotient_u(-1, 0)
    B, vB = U.sk.B, U.vB
    assert vB.b and vB.c

    def full(ell):
        (u, w) = ell
        us, ws = B.adjoint(u), B.adjoint(w)
        return (us * vB.a + B.cross(u, B.mul(w, vB.b)) + B.mul(vB.c, ws),
                B.mul(vB.b, us) + B.cross(B.mul(u, vB.c), w) + ws * vB.d)

    rows = _row_pairs(B, random.Random(32))
    pairs = [(ell, ell2) for ell in rows for ell2 in rows]
    want = [full(ell) for ell in rows]
    want_cross = [[s - a - b for s, a, b in zip(full((ell[0] + ell2[0], ell[1] + ell2[1])),
                                                 full(ell), full(ell2))] for ell, ell2 in pairs]
    _no_zero_factors(monkeypatch, B)
    assert [lifting._delta(B, vB, ell) for ell in rows] == want
    assert [list(lifting._delta_cross(B, vB, *pair)) for pair in pairs] == want_cross


def test_lhl_skips_zero_blocks(monkeypatch):
    """l1 h l2* is the dense row product on row pairs with every pattern of
    zero blocks, with no product of a zero block."""
    U = _quotient_u(1, 2)
    B, star = U.sk.B, U.sk.star
    rows = _row_pairs(B, random.Random(33))
    pairs = [(e1, e2) for e1 in rows for e2 in rows]
    want = [sum_prod(row_times_mat(e1, U.h), tuple(star(x) for x in e2)) for e1, e2 in pairs]
    _no_zero_factors(monkeypatch, B)
    assert [U._lhl(e1, e2) for e1, e2 in pairs] == want


@pytest.mark.parametrize("D, seed", [(-1, 0), (1, 2)])
def test_utilde_adjoint_and_cross_skip_zero_blocks(D, seed, monkeypatch):
    """adjoint and cross run no product, cross or adjoint in B with a zero
    factor, and stay right: the adjoint of a class equals adjoint_raw on a
    representative moved by a row of I(v, omega), with dense blocks,
    and the cross equals the three-adjoint default CNS.cross.  On the graph
    path (D = -1) every canonical ell0 is zero; on the fallback (D = 1,
    seed 2) it is not, and an element on ell0's free columns alone has
    ell1 = 0; elements whose J-part or whole row pair is zero are taken on
    both."""
    U = _quotient_u(D, seed)
    J, B = U.sk.J, U.sk.B
    rng = random.Random(35)
    # a dense row of I(v, omega): a combination of all its pivot rows
    row = U.B2.unflatten([sum(k * x for k, x in enumerate(col, 1)) for col in zip(*U._reduced)])
    xs = [U.random(rng, 2, integral=False) for _ in range(2)]
    xs.append(U.join(J.random(rng, 2, integral=False), (B.zero(), B.zero())))
    xs.append(U.join(J.zero(), (B.random(rng, 2), B.random(rng, 2))))
    xj = J.random(rng, 2)
    xs.append(U.from_num(list(xj.num) + [rng.randint(1, 3) * (j < B.flat_dim()) for j in U._free],
                         xj.den))
    assert bool(U.split(xs[0])[1][0]) == (D == 1) and U.vB.b and U.vB.c
    assert bool(U.split(xs[-1])[1][0]) == (D == 1) and not U.split(xs[-1])[1][1]
    moved = []
    for x in xs:
        xj, (l0, l1) = U.split(x)
        moved.append(U.join(*U.adjoint_raw(xj, (l0 + row[0] * 3, l1 + row[1] * 3))))
    _no_zero_factors(monkeypatch, B)
    assert [U.adjoint(x) for x in xs] == moved
    assert [U.cross(x, y) for x in xs for y in xs] == [CNS.cross(U, x, y) for x in xs for y in xs]


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
