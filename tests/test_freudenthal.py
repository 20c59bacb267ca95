"""The Freudenthal space: forms, flat map, rank, operators, the GL_2 action
over associative coordinates, and the unit-class invariant."""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    associative_variants,
    rand_rank4,
    t_vvx_product_rule,
    w_add,
    w_eq,
    w_is_zero,
    w_neg,
    w_parts,
    w_scale,
    w_sub,
)

from cubicnorm.cns import (
    CnsElt,
    second_kind_matrix,
    CubicRingCNS,
    cubic_ring_algebra,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    TrivialCNS,
    second_kind_tensor,
    split_cubic_algebra,
    split_cubic_idempotents,
)
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import (
    HOperator,
    WSpace,
    dead_search_rows,
    det6,
    gl2_act,
    h_apply,
    iter_search_rows,
    lambda_invariant,
    m2_identity,
    m2_j2,
    m2_scalar,
    norm_class_witness,
    r_of,
    r_right,
    s_of,
    s_of_h3,
    shriek_col,
    shriek_row,
)
from cubicnorm.freudenthal import _project, _search_prefix, _search_tail  # test-only internals
from cubicnorm.lifting import first_law, gan_savin_cns, utilde_cns
from cubicnorm.matops import mat_inverse, mat_map, mat_mul, mat_neg, mat_times_col, row_times_mat
from cubicnorm.presets import ASSOCIATIVE_SUITE, CNS_SUITE, cns_preset
from cubicnorm.scalars import (
    HALF,
    AlgElem,
    BoundExceededError,
    DescriptorError,
    DirectSum,
    PreconditionError,
    quadratic_field,
    witness_search,
)


def det6_tensor_cube(W, g, side):
    """Oracle: <g v0, g w0> through the symmetrized tensor-cube action."""
    J = W.J
    v0 = W.elem(1, J.zero(), J.zero(), 0)
    w0 = W.elem(0, J.zero(), J.zero(), 1)
    return W.pair(gl2_act(W, g, v0, side), gl2_act(W, g, w0, side))


def t_vvx_polarized(W, v, x):
    """Oracle: t(v, v, x) by polarizing flat, (f(2v+x) - 8f(v) - 2f(v+x)
    + 2f(v) + f(x)) / 6."""
    f = W.flat
    return (f(v * 2 + x) - f(v) * 8 - f(v + x) * 2 + f(v) * 2 + f(x)) * F(1, 6)


def spaces():
    return [WSpace(J) for J in associative_variants()] + [
        WSpace(H3CNS(comp_preset("gaussian")))]


def test_pairing_examples():
    for W in spaces():
        J = W.J
        z = J.zero()
        assert W.pair(W.elem(1, z, z, 0), W.elem(0, z, z, 1)) == 1
        v = W.elem(1, J.one(), J.one() * 2, 3)
        assert W.pair(v, v) == 0


def test_pairing_middle_terms(rng):
    for W in spaces():
        J = W.J
        z = J.zero()
        b, c = J.random(rng), J.random(rng)
        assert W.pair(W.elem(0, b, z, 0), W.elem(0, z, c, 0)) == -J.pair(b, c)


def test_quartic_examples(rng):
    for W in spaces():
        J = W.J
        z = J.zero()
        assert W.quartic(W.elem(3, z, z, 2)) == 36
        c = J.random(rng)
        assert W.quartic(W.elem(1, z, c, 5)) == 25 + 4 * J.norm(c)
        assert W.quartic(W.zero()) == 0


def test_flat_examples(rng):
    for W in spaces():
        J = W.J
        z = J.zero()
        assert W.flat(W.elem(2, z, z, 3)) == W.elem(-12, z, z, 18)
        c = J.random(rng)
        d = F(7)
        assert W.flat(W.elem(1, z, c, d)) == \
            W.elem(-d, J.adjoint(c) * 2, c * d, d * d + 2 * J.norm(c))
        assert W.flat(W.zero()).is_zero()


def test_flat_identities(rng):
    for W in spaces():
        for _ in range(15):
            v = W.random(rng)
            q = W.quartic(v)
            assert W.pair(v, W.flat(v)) == 2 * q
            assert W.flat(W.flat(v)) == v * (-(q * q))


def test_trilinear_normalization(rng):
    for W in spaces()[:3]:
        for _ in range(5):
            x, y, z = W.random(rng), W.random(rng), W.random(rng)
            assert W.trilinear(x, x, x) == W.flat(x)
            assert W.t_vvx(x, y) == W.trilinear(x, x, y)
            lhs = W.trilinear(x + y, y, z)
            assert lhs == W.trilinear(x, y, z) + W.trilinear(y, y, z)
            assert W.pair(x, W.trilinear(x, x, x)) == 2 * W.quartic(x)


def test_t_vvx_matches_polarization(rng):
    """The product-rule t(v, v, x) equals the polarized flat on every basis
    vector (one branch each) and on a dense x, over the eight presets and a
    base change along Q(sqrt 7)."""
    structures = [cns_preset(name) for name in CNS_SUITE]
    structures.append(cns_preset("fxq").base_change(quadratic_field(7)))
    for J in structures:
        W = WSpace(J)
        v = W.random(rng)
        for x in W.basis() + [W.random(rng)]:
            assert W.t_vvx(v, x) == t_vvx_polarized(W, v, x), (J.name, x)


def test_t_vv_basis_matches_polarization(rng):
    """t(v, v, .) with its part that depends on v built once equals the
    polarized flat on every W basis vector: over each preset at a random v,
    over J (x) E at the lift X(v) that ``lift_wj`` certifies (for the
    presets up to dimension 9; over E the polarization of a 27-dimensional
    one takes up to a minute), and over the second Tits construction and
    its quotient model, whose ``basis()`` is shorter than its coordinates."""
    cases = []
    for name in CNS_SUITE:
        W = WSpace(cns_preset(name))
        cases.append((name, W, W.random(rng)))
        if W.J.dim <= 9:
            res = first_law(W, rand_rank4(W, rng, height=1, integral=False))
            cases.append((name + " (x) E", res.data["space"], res.lifted))
    A = TrivialCNS()
    v = rand_rank4(WSpace(A), rng, unit_corner=True)
    U = utilde_cns(second_kind_tensor(A, WSpace(A).quartic(v)), v).data["U"]
    assert len(U.basis()) == U.dim
    for name, J in [("titsu-tensor", cns_preset("titsu-tensor")), ("quotient", U)]:
        W = WSpace(J)
        cases.append((name, W, W.random(rng, 1)))
    for name, W, v in cases:
        got = list(W.t_vv_basis(v))
        assert [x for x, _ in got] == W.basis(), name
        for x, t in got:
            assert t == t_vvx_polarized(W, v, x), (name, x)


def _t_vv_cases(rng):
    """(name, W, v): every preset at a random v, J (x) E at a first-law lift
    (presets up to dimension 9), and the composite structures without
    tables: the second Tits construction, its quotient model, the
    commutative model and U(gamma)."""
    cases = []
    for name in ALL_PRESETS:
        W = WSpace(cns_preset(name))
        cases.append((name, W, W.random(rng, 1, integral=False)))
        if W.J.dim <= 9 and name in ("trivial", "fxq", "matrix3", "h3-gaussian"):
            res = first_law(W, rand_rank4(W, rng, height=1, integral=False))
            cases.append((name + " (x) E", res.data["space"], res.lifted))
    A = TrivialCNS()
    va = rand_rank4(WSpace(A), rng, unit_corner=True)
    U = utilde_cns(second_kind_tensor(A, WSpace(A).quartic(va)), va).data["U"]
    C = CubicRingCNS(split_cubic_algebra())
    G = gan_savin_cns(C, rand_rank4(WSpace(C), rng, 1)).data["U"]
    for name, J in (("quotient", U), ("gan-savin", G)):
        W = WSpace(J)
        cases.append((name, W, W.random(rng, 1)))
    return cases


ALL_PRESETS = ["trivial", "fxf", "fxq", "fxq-split", "etale-cubic", "cubic-split", "matrix3",
               "h3-rational", "h3-gaussian", "h3-quaternion", "h3-split-quaternion",
               "h3-octonion", "h3-split-octonion", "titsu-matrix:-1", "titsu-tensor",
               "cayleyu-comm", "cayleyu:2"]


def test_t_vv_matrix_matches_polarization_and_the_product_rule(rng):
    """The columns of t(v, v, .) along basis(), over one den, equal the
    polarized flat and the four-branch product rule on every basis vector;
    t_vvx on a dense x is the sum of x_i times column i; and <e, v> along
    the basis (``pair_row``) is the pairing with each basis vector."""
    for name, W, v in _t_vv_cases(rng):
        cols, den = W.t_vv_matrix(v)
        basis = W.basis()
        assert len(cols) == len(basis) and all(len(c) == W.flat_dim() for c in cols), name
        for x, col in zip(basis, cols):
            t = W.from_num(col, den)
            assert t == t_vvx_polarized(W, v, x), (name, x)
            if W.J.dim <= 9:
                assert t == t_vvx_product_rule(W, v, x), (name, x)
        x = W.random(rng, 1, integral=False)
        assert W.t_vvx(v, x) == t_vvx_product_rule(W, v, x), name
        assert W.pair_row(v) == [W.pair(e, v) for e in basis], name


def test_columns_on_a_base_whose_unit_is_no_flat_basis_vector(rng):
    """A table structure's cross and pairing read by contraction equal the
    probes of ``CNS`` when 1 of the base is not a flat basis vector: Q with
    e e = 2e (1 = e/2), Q x Q on its idempotents (1 = e1 + e2) and on
    e1, e2/2 (1 = e1 + 2 e2)."""
    from cubicnorm.cns import CNS
    from cubicnorm.scalars import CommAlgebra

    bases = [CommAlgebra("Q/2", [[[2]]], unit_coords=(F(1, 2),)),
             CommAlgebra("QxQ", [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], unit_coords=(1, 1)),
             CommAlgebra("QxQ on (e1, e2/2)", [[[1, 0], [0, 0]], [[0, 0], [0, F(1, 2)]]],
                         unit_coords=(1, 2))]
    for base in bases:
        for J in (Matrix3CNS(base), H3CNS(comp_preset("gaussian").base_change(base))):
            x = J.random(rng, 2, integral=False)
            for kind in ("cross_columns", "pair_columns"):
                (got, dg), (want, dw) = getattr(J, kind)(x), getattr(CNS, kind)(J, x)
                assert [[F(n, dg) for n in c] for c in got] == \
                    [[F(n, dw) for n in c] for c in want], (base, kind)
            cols, den = J.cross_columns(x)
            y, yd = J.crosses(J.one(), cols, den)
            assert [J.from_num(c, yd) for c in y] == [J.cross(J.one(), J.cross(x, e))
                                                       for e in J.basis()]
            W = WSpace(J)
            v = W.random(rng, 1)
            cols, den = W.t_vv_matrix(v)
            assert [W.from_num(c, den) for c in cols] == \
                [t_vvx_polarized(W, v, e) for e in W.basis()], base


def test_t_vv_matrix_costs_two_adjoints_per_v(rng):
    """t(v, v, .) costs two adjoints, b# and c#, and one pairing, (b, c),
    per v, and none per direction: on a table structure J's cross and
    pairing are read as columns by contraction, with no cross and no pairing
    probing a basis vector."""
    for J in (Matrix3CNS(), H3CNS(comp_preset("hamilton"))):
        W = WSpace(J)
        v = W.random(rng)
        calls = {"adjoint": [], "cross": [], "pair": []}
        for name, seen in calls.items():
            setattr(J, name, lambda *x, f=getattr(J, name), seen=seen: seen.append(x) or f(*x))
        try:
            list(W.t_vv_basis(v))
        finally:
            for name in calls:
                delattr(J, name)
        assert {k: len(v) for k, v in calls.items()} == {"adjoint": 2, "cross": 0, "pair": 1}, J.name


def test_rank_examples(rng):
    for W in spaces():
        J = W.J
        z = J.zero()
        assert W.rank(W.elem(1, z, z, 0)) == 1
        assert W.rank(W.elem(2, z, z, 3)) == 4
        assert W.rank(W.zero()) == 0
    # (1, 0, c, 0) with c of rank 2: rank 3
    J = H3CNS(CompAlgebra(()))
    W = WSpace(J)
    c = J.join((1, 1, 0), (J.comp.zero(),) * 3)
    assert W.rank(W.elem(1, J.zero(), c, 0)) == 3
    # (0, b, 0, 0) has the rank of b for b of rank 1 or 2
    b1 = J.join((1, 0, 0), (J.comp.zero(),) * 3)
    assert W.rank(W.elem(0, b1, J.zero(), 0)) == 1
    b2 = J.join((1, 1, 0), (J.comp.zero(),) * 3)
    assert W.rank(W.elem(0, b2, J.zero(), 0)) == 2


def test_operator_formulas(rng):
    W = WSpace(Matrix3CNS())
    J = W.J
    v = W.random(rng)
    assert h_apply(HOperator("wj"), v) == W.elem(v.d, -v.c, v.b, -v.a)
    assert h_apply(HOperator("m", (F(2),)), v) == W.elem(4 * v.a, v.b * 2, v.c, v.d * F(1, 2))
    assert h_apply(HOperator("nj", (J.zero(),)), v) == v
    with pytest.raises(DescriptorError):
        h_apply(HOperator("bogus"), v)


def test_operator_similitudes(rng):
    for W in spaces():
        J = W.J
        ops = [HOperator("nj", (J.random(rng),)), HOperator("nbarj", (J.random(rng),)),
               HOperator("wj"), HOperator("m", (F(3),))]
        if J.has_mul:
            u, w = J.random(rng) + J.one() * 5, J.random(rng) + J.one() * 4
            if J.base.is_unit(J.norm(u)) and J.base.is_unit(J.norm(w)):
                ops.append(HOperator("mgen", ("assoc", u, w)))
        for op in ops:
            nu = op.similitude(W)
            v, w2 = W.random(rng), W.random(rng)
            gv, gw = h_apply(op, v), h_apply(op, w2)
            assert W.pair(gv, gw) == nu * W.pair(v, w2), op.kind
            assert W.quartic(gv) == nu * nu * W.quartic(v), op.kind
            assert W.flat(gv) == h_apply(op, W.flat(v)) * nu, op.kind


def test_mgen_hermitian(rng):
    J = H3CNS(comp_preset("gaussian"))
    W = WSpace(J)
    comp = J.comp
    m = ((comp.one(), comp.elem([1, 2]), comp.zero()),
         (comp.zero(), comp.one(), comp.elem([0, 1])),
         (comp.zero(), comp.zero(), comp.one()))
    op = HOperator("mgen", ("herm", F(2), m))
    nu = op.similitude(W)
    v, w = W.random(rng), W.random(rng)
    assert W.pair(h_apply(op, v), h_apply(op, w)) == nu * W.pair(v, w)
    assert W.quartic(h_apply(op, v)) == nu * nu * W.quartic(v)


def test_mgen_non_similitude_rejected(rng):
    W = WSpace(Matrix3CNS())
    bad = W.J.elem([1, 0, 0, 0, 1, 0, 0, 0, 0])  # singular
    with pytest.raises(PreconditionError):
        h_apply(HOperator("mgen", ("assoc", bad, W.J.one())), W.random(rng))


def test_r_matrix_examples(rng):
    for J in associative_variants():
        W = WSpace(J)
        z = J.zero()
        # R((a,0,0,d)) = diag(ad, -ad)
        R = r_of(W, W.elem(2, z, z, 3))
        assert R[0][0] == J.one() * 6 and R[1][1] == J.one() * (-6)
        assert R[0][1].is_zero() and R[1][0].is_zero()
        # R(v)^2 = q(v)
        for _ in range(8):
            v = W.random(rng)
            R = r_of(W, v)
            q = W.quartic(v)
            assert mat_mul(R, R) == m2_scalar(J, q)


def extensions():
    """A quadratic field and the cubic ring of the binary cubic (1, 2, 3, 4)."""
    return [quadratic_field(5), cubic_ring_algebra(1, 2, 3, 4)]


@pytest.mark.parametrize("name", ASSOCIATIVE_SUITE + ["h3-quaternion", "h3-octonion"])
def test_flat_is_read_into_an_extension(name, rng):
    """v_flat is a polynomial in v with rational structure constants, so
    taken over F and read into W_T it is the flat of v read into W_T."""
    J = cns_preset(name)
    W = WSpace(J)
    for T in extensions():
        WT = WSpace(J.base_change(T))
        for v in (W.random(rng, 1, False), W.random(rng)):
            assert WT.extend(W.flat(v)) == WT.flat(WT.extend(v))


@pytest.mark.parametrize("name", ASSOCIATIVE_SUITE)
def test_r_of_is_read_into_an_extension(name, rng):
    """R(v) taken over F and read entrywise into J_T is R of v read into W_T."""
    J = cns_preset(name)
    W = WSpace(J)
    for T in extensions():
        JT = J.base_change(T)
        WT = WSpace(JT)
        for v in (W.random(rng, 1, False), W.random(rng)):
            assert mat_map(JT.extend, r_of(W, v)) == r_of(WT, WT.extend(v))


def test_r_right_conjugates_by_j2(rng):
    """R_r = J_2 R J_2^{-1}, with J_2^{-1} = -J_2, read off any given 2x2 R."""
    for J in associative_variants():
        j2 = m2_j2(J)
        R = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
        assert r_right(R) == mat_mul(mat_mul(j2, R), mat_neg(j2))


def test_s_matrix_examples(rng):
    for J in associative_variants():
        W = WSpace(J)
        c = J.random(rng)
        S = s_of(W, W.elem(1, J.zero(), c, 7))
        assert S[0][0] == -c
        assert S[1][1] == J.adjoint(c)
        assert S[0][1] == J.one() * F(-7, 2) and S[1][0] == J.one() * F(-7, 2)
        # S vanishes exactly on rank <= 1
        ell = (J.random(rng), J.random(rng))
        Sr = s_of(W, shriek_row(W, ell))
        assert all(e.is_zero() for row in Sr for e in row)
        v = rand_rank4(W, rng)
        Sv = s_of(W, v)
        assert not all(e.is_zero() for row in Sv for e in row)


def test_cube_quadratic_forms():
    """Over the split cubic coordinates, the top-left of the first component
    of S(v) is b2 b3 - a c1 (the classical associated quadratic form)."""
    A = CubicRingCNS(split_cubic_algebra())
    W = WSpace(A)
    e = split_cubic_idempotents(A.alg)
    b = e[0] * 2 + e[1] * 3 + e[2] * 5
    c = e[0] * 7 + e[1] * 11 + e[2] * 13
    v = W.elem(2, CnsElt(A, b.coords), CnsElt(A, c.coords), 3)
    S = s_of(W, v)
    s11 = A.alg.trace(AlgElem(A.alg, S[0][0].coords) * e[0])
    assert s11 == 3 * 5 - 2 * 7  # b2 b3 - a c1


def test_h3_s_matrix_hermitian(rng):
    J = H3CNS(comp_preset("gaussian"))
    W = WSpace(J)
    v = W.random(rng)
    S6 = s_of_h3(W, v)
    for i in range(6):
        for j in range(6):
            assert S6[i][j].conj() == S6[j][i]


def test_shriek_examples(rng):
    W = WSpace(TrivialCNS())
    J = W.J
    s, t = J.elem([2]), J.elem([3])
    assert shriek_row(W, (s, t)) == W.elem(8, J.elem([12]), J.elem([18]), 27)
    for Wx in spaces()[:4]:
        Jx = Wx.J
        one, z = Jx.one(), Jx.zero()
        assert shriek_row(Wx, (one, z)) == Wx.elem(1, z, z, 0)
        assert Wx.pair(shriek_row(Wx, (one, z)), shriek_col(Wx, (z, one))) == 1
        ell = (Jx.random(rng), Jx.random(rng))
        eta = (Jx.random(rng), Jx.random(rng))
        assert Wx.rank(shriek_row(Wx, ell)) <= 1
        s0, t0 = ell
        u0, v0 = eta
        assert Wx.pair(shriek_row(Wx, ell), shriek_col(Wx, eta)) == \
            Jx.norm(Jx.mul(s0, v0) - Jx.mul(t0, u0))


def _full_shrieks(W):
    """The shriek formulas with every norm, adjoint and product taken."""
    J = W.J

    def row(ell):
        s, t = ell
        return W.concat(J.norm(s), J.mul(J.adjoint(s), t), J.mul(J.adjoint(t), s), J.norm(t))

    def col(eta):
        u, v = eta
        return W.concat(J.norm(u), J.mul(v, J.adjoint(u)), J.mul(u, J.adjoint(v)), J.norm(v))

    return row, col


@pytest.mark.parametrize("D", [None, 5], ids=["Q", "Q(sqrt5)"])
def test_shrieks_of_a_zero_slot_take_no_norm_or_product_of_it(D, monkeypatch):
    """(0, t)! = (0, 0, 0, n(t)), (s, 0)! = (n(s), 0, 0, 0) and (0, 0)! = 0
    for rows and columns: equal to the full formulas, with no norm, adjoint
    or product of a zero slot, over F and over E.  A row with both slots
    nonzero still takes every term."""
    rng = random.Random(32)
    for J in associative_variants():
        if D is not None:
            J = J.base_change(quadratic_field(D))
        W = WSpace(J)
        full_row, full_col = _full_shrieks(W)
        x, y, z = J.random(rng, 2, integral=False), J.random(rng, 2), J.zero()
        pairs = [(z, y), (x, z), (z, z), (x, y), (y, x)]
        want = [(full_row(p), full_col(p)) for p in pairs]
        assert want[0][0] == W.concat(0, z, z, J.norm(y)) and want[1][0] == W.concat(J.norm(x), z, z, 0)
        calls = []
        for name in ("norm", "adjoint", "mul"):
            def checked(*args, f=getattr(J, name), name=name):
                assert all(args), f"{name} of a zero slot"
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(J, name, checked)
        for p, (row, col) in zip(pairs[:3], want):
            assert shriek_row(W, p) == row and shriek_col(W, p) == col, J.name
        assert want[2] == (W.zero(), W.zero()) and calls == ["norm"] * 4, J.name
        for p, (row, col) in zip(pairs[3:], want[3:]):
            del calls[:]
            assert shriek_row(W, p) == row and shriek_col(W, p) == col, J.name
            assert sorted(calls) == ["adjoint"] * 4 + ["mul"] * 4 + ["norm"] * 4, J.name
        monkeypatch.undo()


def test_gl2_action(rng):
    for J in associative_variants():
        W = WSpace(J)
        one, z = J.one(), J.zero()
        v = W.random(rng)
        assert gl2_act(W, m2_identity(J), v, "left") == v
        assert gl2_act(W, m2_identity(J), v, "right") == v
        X = J.random(rng)
        assert gl2_act(W, ((one, z), (X, one)), v, "left") == \
            h_apply(HOperator("nj", (X,)), v)
        assert gl2_act(W, m2_j2(J), v, "left") == h_apply(HOperator("wj"), v)
        assert gl2_act(W, m2_j2(J), v, "right") == W.elem(-v.d, v.c, -v.b, v.a)
        m, n = J.random(rng), J.random(rng)
        got = gl2_act(W, ((m, z), (z, n)), v, "right")
        want = W.elem(J.norm(m) * v.a, J.mul(J.mul(J.adjoint(m), v.b), n),
                      J.mul(J.mul(J.adjoint(n), v.c), m), J.norm(n) * v.d)
        assert got == want
        # diag left on (0, b, 0, 0) -> (0, n b m#, 0, 0)
        b = J.random(rng)
        got = gl2_act(W, ((m, z), (z, n)), W.elem(0, b, z, 0), "left")
        assert got == W.elem(0, J.mul(J.mul(n, b), J.adjoint(m)), z, 0)


def test_gl2_shriek_equivariance(rng):
    for J in associative_variants():
        W = WSpace(J)
        eta = (J.random(rng), J.random(rng))
        g = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
        assert shriek_col(W, mat_times_col(g, eta)) == \
            gl2_act(W, g, shriek_col(W, eta), "left")


def test_gl2_shriek_equivariance_rows(rng):
    """(ell g)! = ell! g on the right, over noncommutative coordinates too."""
    for J in associative_variants():
        W = WSpace(J)
        ell = (J.random(rng), J.random(rng))
        g = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
        assert shriek_row(W, row_times_mat(ell, g)) == \
            gl2_act(W, g, shriek_row(W, ell), "right"), J.name


def test_det6(rng):
    for J in associative_variants():
        W = WSpace(J)
        one, z = J.one(), J.zero()
        assert det6(W, m2_identity(J)) == 1
        X = J.random(rng)
        assert det6(W, ((one, z), (X, one))) == 1
        m, n = J.random(rng), J.random(rng)
        assert det6(W, ((m, z), (z, n))) == J.norm(m) * J.norm(n)
        g = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
        h = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
        assert det6(W, mat_mul(g, h)) == det6(W, g) * det6(W, h)
        v, w = W.random(rng), W.random(rng)
        assert W.pair(gl2_act(W, g, v, "left"), gl2_act(W, g, w, "left")) == \
            det6(W, g) * W.pair(v, w)
        assert W.quartic(gl2_act(W, g, v, "left")) == det6(W, g) ** 2 * W.quartic(v)


def test_det6_matches_tensor_cube(rng):
    """The shriek closed form of det6 equals <g v0, g w0> through the
    tensor-cube action, on both sides, over the associative presets and a
    base change along Q(sqrt 7)."""
    structures = associative_variants()
    structures.append(ProductCNS(comp_preset("hamilton")).base_change(quadratic_field(7)))
    for J in structures:
        W = WSpace(J)
        for side in ("left", "right"):
            for _ in range(3):
                g = tuple(tuple(J.random(rng) for _ in range(2)) for _ in range(2))
                assert det6(W, g, side) == det6_tensor_cube(W, g, side), (J.name, side)


def test_m3c_inverse(rng):
    J = cns_preset("h3-quaternion")
    comp = J.comp
    one, zero = comp.one(), comp.zero()
    ident = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    m = tuple(tuple(comp.random(rng, 1) + (one * 4 if i == j else zero) for j in range(3))
              for i in range(3))
    assert mat_mul(m, mat_inverse(m, J.comp)) == ident
    assert mat_mul(mat_inverse(m, J.comp), m) == ident
    singular = (m[0], m[1], tuple(a + b for a, b in zip(m[0], m[1])))
    with pytest.raises(PreconditionError):
        mat_inverse(singular, J.comp)
    # base-changed coordinates: the unipotent [[1, sqrt7, 0], [0, 1, 0], [0, 0, 1]]
    E = quadratic_field(7)
    JE = H3CNS(comp_preset("hamilton").base_change(E))
    compE = JE.comp
    one, zero = compE.one(), compE.zero()
    identE = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    u = ((one, compE.from_scalar(E.gen()), zero), (zero, one, zero), (zero, zero, one))
    inv = mat_inverse(u, JE.comp)
    assert inv[0][1] == compE.from_scalar(-E.gen())
    assert mat_mul(u, inv) == identE and mat_mul(inv, u) == identE


def test_r_conjugation_equivariance(rng):
    """R(g v) = det_6(g) g R(v) g^{-1} for invertible g (checked on generator
    words whose inverses are explicit)."""
    for J in associative_variants()[:4]:
        W = WSpace(J)
        one, z = J.one(), J.zero()
        v = W.random(rng)
        word = []
        for _ in range(3):
            X = J.random(rng, 1)
            k = rng.randint(0, 2)
            if k == 0:
                word.append((((one, z), (X, one)), ((one, z), (-X, one))))
            elif k == 1:
                word.append((((one, X), (z, one)), ((one, -X), (z, one))))
            else:
                word.append((m2_j2(J), ((z, -one), (one, z))))
        g = m2_identity(J)
        ginv = m2_identity(J)
        for m, minv in word:
            g = mat_mul(m, g)
            ginv = mat_mul(ginv, minv)
        assert mat_mul(g, ginv) == m2_identity(J)
        lhs = r_of(W, gl2_act(W, g, v, "left"))
        rhs = mat_mul(mat_mul(g, r_of(W, v)), ginv)
        d6 = det6(W, g)
        rhs = tuple(tuple(e * d6 for e in row) for row in rhs)
        assert lhs == rhs


def test_tensor_relations(rng):
    """xa (x) ya (x) z = x (x) y (x) z a# inside the symmetrized cube."""
    for J in associative_variants()[:4]:
        W = WSpace(J)
        for _ in range(6):
            x = (J.random(rng), J.random(rng))
            y = (J.random(rng), J.random(rng))
            z = (J.random(rng), J.random(rng))
            a = J.random(rng)
            xa = (J.mul(x[0], a), J.mul(x[1], a))
            ya = (J.mul(y[0], a), J.mul(y[1], a))
            zas = (J.mul(z[0], J.adjoint(a)), J.mul(z[1], J.adjoint(a)))
            lhs = _project(W, [(None, (xa, ya, z))], "left")
            rhs = _project(W, [(None, (x, y, zas))], "left")
            assert lhs == rhs


def test_lambda_invariant(rng):
    J = ProductCNS(CompAlgebra(()))
    W = WSpace(J)
    v = W.elem(1, J.zero(), J.zero(), 0)
    lam = lambda_invariant(W, v)
    assert norm_class_witness(J, lam, F(1)) is not None  # class of 1
    lam5 = lambda_invariant(W, v * 5)
    assert norm_class_witness(J, lam5, F(5)) is not None
    eta = (J.one() * 2, J.one())
    lam_eta = lambda_invariant(W, shriek_col(W, eta))
    assert norm_class_witness(J, lam_eta, F(1)) is not None
    with pytest.raises(PreconditionError):
        lambda_invariant(W, rand_rank4(W, rng))


def zero_shriek_rows(J):
    """Oracle: the prefix of iter_search_rows (cap 0), and the numerators
    and denominator of the prefix rows whose row shriek, and whose column
    shriek, is zero."""
    W = WSpace(J)
    num_den = DirectSum(J, J).num_den
    prefix = list(iter_search_rows(J, 0))
    return prefix, *({num_den(ell) for ell in prefix if shriek(W, ell).is_zero()}
                     for shriek in (shriek_row, shriek_col))


@pytest.mark.parametrize("make, dead, total", [
    (lambda: cns_preset("trivial"), 0, 3),
    (lambda: cns_preset("fxf"), 6, 8),
    (lambda: cns_preset("etale-cubic"), 0, 15),
    (lambda: cns_preset("fxq"), 27, 35),
    (lambda: cns_preset("matrix3"), 99, 99),
    (lambda: second_kind_matrix(1).B, 99, 99),
    (lambda: second_kind_matrix(-1).B, 99, 99),
], ids=["trivial", "fxf", "etale-cubic", "fxq", "matrix3", "B(1)", "B(-1)"])
def test_dead_search_rows_are_the_prefix_rows_with_zero_shriek(make, dead, total):
    J = make()
    prefix, zero_row, zero_col = zero_shriek_rows(J)
    assert len(prefix) == total
    rows = dead_search_rows(J)
    assert len(rows) == dead
    assert rows == zero_row == zero_col
    assert dead_search_rows(J) is rows


def test_dead_search_rows_need_both_shrieks_zero():
    """Over a basis of M_3 with e = E11 + E22 (e# = E33) and f = E13, the
    row (e, f) has row shriek (0, e# f, f# e, 0) = 0 but column shriek
    (0, f e#, e f#, 0) != 0, so it is live for a column search."""
    class SkewBasis(Matrix3CNS):
        def basis(self):
            units = Matrix3CNS.basis(self)
            return [units[0] + units[4]] + units[1:]

    J = SkewBasis()
    e, f = J.basis()[0], J.basis()[2]
    _, zero_row, zero_col = zero_shriek_rows(J)
    flat = DirectSum(J, J).num_den((e, f))
    assert flat in zero_row and flat not in zero_col
    assert dead_search_rows(J) == zero_row & zero_col


def test_search_rows_are_the_prefix_then_the_seeded_tail():
    """iter_search_rows is the basis prefix, then ``_search_tail``'s draws,
    the ones of seed 0 when no seed is given."""
    J = cns_preset("fxq")
    prefix = list(_search_prefix(J.basis(), J.zero()))
    assert list(iter_search_rows(J, 2)) == prefix + list(_search_tail(J, 2, 0))
    assert list(iter_search_rows(J, 2, 5)) == prefix + list(_search_tail(J, 2, 5))
    assert list(_search_tail(J, 2, 0)) != list(_search_tail(J, 2, 5))


@pytest.mark.parametrize("seed", [0, 5])
def test_bound_exceeded_reports_the_candidates_tried(seed):
    """A search over iter_search_rows that finds no witness raises with its
    message unchanged and ``tried`` the prefix length plus the 3 * cap rows
    drawn for the tail, the same on a second run with the same seed."""
    J, cap = cns_preset("fxq"), 4
    prefix = len(list(iter_search_rows(J, 0, seed)))
    runs = []
    for _ in range(2):
        with pytest.raises(BoundExceededError, match="^no row; raise cap$") as exc:
            witness_search(iter_search_rows(J, cap, seed),
                           lambda row: None if J.mul(row[0], row[1]) != J.one() else row,
                           "no row; raise cap")
        runs.append(exc.value.tried)
    assert runs == [prefix + 3 * cap] * 2
    assert str(exc.value) == "no row; raise cap"


# -- W_J as a coordinate space -----------------------------------------------


def _w_spaces():
    E = quadratic_field(5)
    Js = [Matrix3CNS(), H3CNS(comp_preset("hamilton")), ProductCNS(comp_preset("hamilton")),
          CubicRingCNS(split_cubic_algebra())]
    return [WSpace(J) for J in Js] + [WSpace(J.base_change(E)) for J in Js[:2]]


def test_w_arithmetic_matches_the_part_oracle(rng):
    """+, -, negation and scaling by an int, a Fraction or a base element
    agree with the same operations on the parts (a, b, c, d), and ==, hash,
    bool and is_zero with the parts' equality and zero test, over Q with
    non-integral coordinates and over Q(sqrt 5)."""
    for W in _w_spaces():
        base = W.base
        for _ in range(3):
            x, y = W.random(rng, integral=False), W.random(rng, integral=False)
            px, py = w_parts(x), w_parts(y)
            s = base.random(rng, 3, integral=False)
            for z, want in ((x + y, w_add(px, py)), (x - y, w_sub(px, py)), (x - x, w_sub(px, px)),
                            (-x, w_neg(px)), (x * 3, w_scale(px, 3)), (-2 * x, w_scale(px, -2)),
                            (x * 0, w_scale(px, 0)), (x * F(-2, 3), w_scale(px, F(-2, 3))),
                            (HALF * x, w_scale(px, HALF)), (x * s, w_scale(px, s)),
                            (s * x, w_scale(px, s))):
                assert w_eq(w_parts(z), want)
                same = W.elem(*want)
                assert z == same and same == z and hash(z) == hash(same)
                assert (z == x) == w_eq(want, px) and (z != x) == (not w_eq(want, px))
                assert bool(z) == (not z.is_zero()) == (not w_is_zero(base, want))
            assert (x == y) == w_eq(px, py)


def test_w_elements_from_parts_over_different_denominators_hash_alike():
    """Equal elements of W_J built from parts over different denominators,
    from their coordinates, by scaling and from the basis, have the same
    numerators and denominator, so they are equal and hash alike."""
    C = comp_preset("hamilton")
    J = H3CNS(C)
    W = WSpace(J)
    b = J.elem([F(1, 3), 0, 2, F(1, 2)] + [0] * 11)
    c = J.elem([1, -1, 0] + [0, 2, 0, 0] * 3)
    x = W.concat(F(1, 2), b, c, F(-5, 4))
    assert x.den == 12 and x.coords == (F(1, 2),) + b.coords + c.coords + (F(-5, 4),)
    assert (x.a, x.b, x.c, x.d) == (F(1, 2), b, c, F(-5, 4))
    ys = [W.elem(F(1, 2), b.coords, c.coords, F(-5, 4)), W.element(W, x.coords),
          W.concat(1, b * 2, c * 2, F(-5, 2)) * HALF, (x * 6 + x * 6) * F(1, 12),
          sum((e * t for e, t in zip(W.basis(), x.coords)), W.zero())]
    for y in ys:
        assert (y.num, y.den) == (x.num, x.den)
        assert y == x and x == y and hash(y) == hash(x)
    assert len({x, *ys}) == 1
    # over a quotient base the parts are numerators over 1
    E = quadratic_field(5)
    WE = WSpace(J.base_change(E))
    a, d = E.elem([F(1, 2), F(1, 3)]), E.elem([0, F(-5, 4)])
    bE, cE = WE.J.elem(b.coords), WE.J.elem(c.coords)
    xE = WE.concat(a, bE, cE, d)
    for y in (WE.elem(a, b.coords, c.coords, d), WE.concat(a * 2, bE * 2, cE * 2, d * 2) * HALF,
              WE.element(WE, xE.coords)):
        assert y == xE and hash(y) == hash(xE)


def test_w_concat_inverts_the_parts(rng):
    """W.concat(a, b, c, d) gives the element back, with the same numerators
    over the same denominator, and so does concat of its coordinates."""
    for W in _w_spaces():
        for _ in range(3):
            x = W.random(rng, integral=False)
            for y in (W.concat(x.a, x.b, x.c, x.d), W.concat(*x.coords),
                      W.concat(x.a, x.block(W.J, 1), x.block(W.J, 1 + W.J.dim), x.d)):
                assert type(y) is type(x) and (y.num, y.den) == (x.num, x.den)


def test_w_zero_basis_and_random_follow_the_parts(rng):
    """zero, basis and random draws, read part by part: the basis runs along
    a, then J's basis in b and in c, then d, and a random element draws a,
    b, c, d in turn from one stream."""
    for W in _w_spaces():
        J, z = W.J, W.J.zero()
        assert w_parts(W.zero()) == (W.base.zero(), z, z, W.base.zero())
        want = ([(1, z, z, 0)] + [(0, e, z, 0) for e in J.basis()]
                + [(0, z, e, 0) for e in J.basis()] + [(0, z, z, 1)])
        assert [w_parts(e) for e in W.basis()] == [tuple(W.base.coerce(p) if i in (0, 3) else p
                                                        for i, p in enumerate(t)) for t in want]
        seed = rng.random()
        r1, r2 = random.Random(seed), random.Random(seed)
        x = W.random(r1, integral=False)
        assert w_parts(x) == (W.base.random(r2, 2, False), J.random(r2, 2, False),
                              J.random(r2, 2, False), W.base.random(r2, 2, False))

