"""Cubic norm structures: instances, axioms, constructions, base change."""

import random
from fractions import Fraction as F

import pytest

from conftest import associative_variants, hermitian_variants

from cubicnorm.cns import (
    CayleyUCNS,
    CnsElt,
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    TitsUCNS,
    TrivialCNS,
    cns_axioms_check,
    compose_over_base,
    cubic_ring_algebra,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
    tensor_cross,
)
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.scalars import DescriptorError, PreconditionError, det, quadratic_field


def test_matrix3_diag_example():
    M3 = Matrix3CNS()
    x = M3.elem([1, 0, 0, 0, 2, 0, 0, 0, 3])
    assert M3.norm(x) == 6
    assert M3.adjoint(x) == M3.elem([6, 0, 0, 0, 3, 0, 0, 0, 2])


def test_matrix3_rank_cascade():
    M3 = Matrix3CNS()
    assert M3.rank(M3.elem([1, 0, 0, 0, 1, 0, 0, 0, 0])) == 2
    assert M3.rank(M3.one()) == 3
    assert M3.rank(M3.zero()) == 0
    assert M3.rank(M3.elem([1, 0, 0, 0, 0, 0, 0, 0, 0])) == 1


def test_h3_norm_against_determinant(rng):
    """Over C = Q the Hermitian structure is symmetric matrices and the cubic
    norm is the ordinary determinant (independent oracle)."""
    J = H3CNS(CompAlgebra(()))
    for _ in range(40):
        x = J.random(rng)
        m = J.to_matrix(x)
        plain = tuple(tuple(e.coords[0] for e in row) for row in m)
        assert J.norm(x) == det(plain)


def test_h3_rank_one_diagonal():
    J = H3CNS(CompAlgebra(()))
    e11 = J.join((1, 0, 0), (J.comp.zero(),) * 3)
    assert J.rank(e11) == 1


def test_unit_axioms_all_variants():
    for J in associative_variants() + hermitian_variants():
        one = J.one()
        assert J.norm(one) == 1
        assert J.adjoint(one) == one


def test_trivial_structure_symbolic():
    T = TrivialCNS()
    x = T.elem([F(5, 3)])
    assert T.norm(x) == F(125, 27)
    assert T.adjoint(x) == T.elem([F(25, 9)])
    assert T.pair(x, T.elem([2])) == 3 * F(10, 3)
    r = cns_axioms_check(T, trials=50, seed=2)
    assert r.ok(), r.failures


@pytest.mark.parametrize("builder,trials", [
    (lambda: TrivialCNS(), 60),
    (lambda: ProductCNS(CompAlgebra(())), 60),
    (lambda: CubicRingCNS(cubic_ring_algebra(1, 0, 0, 1)), 60),
    (lambda: CubicRingCNS(split_cubic_algebra()), 60),
    (lambda: ProductCNS(comp_preset("hamilton")), 40),
    (lambda: Matrix3CNS(), 40),
    (lambda: H3CNS(comp_preset("hamilton")), 25),
    (lambda: H3CNS(comp_preset("octonion")), 12),
    (lambda: H3CNS(comp_preset("split-octonion")), 12),
])
def test_axiom_suites(builder, trials):
    r = cns_axioms_check(builder(), trials=trials, seed=3)
    assert r.ok(), r.failures


class WrongAdjointCNS(TrivialCNS):
    """The trivial structure with x# = 2x^2 in place of x^2: not a CNS."""

    def adjoint(self, x):
        (a,) = x.coords
        return CnsElt(self, (2 * a * a,))


def test_axiom_suite_reports_a_wrong_cns():
    """The suite counts only passing trials, and keeps the first witness of
    each failing identity (trials 1 and 3 fail at x = -1 and x = 1)."""
    report = cns_axioms_check(WrongAdjointCNS(), trials=3, seed=1)
    assert report.to_json() == {"structure": "trivial", "trials": 3, "seed": 1, "passes": {
        "(x x y)# + x# x y# = (x,y#)x + (x#,y)y": 1,
        "(x#)# = N(x) x": 1,
        "(x, x#) = 3N(x)": 1,
        "(x, y x z) symmetric": 3,
        "(x,y) = tr(x)tr(y) - (1,x,y)": 1,
        "1 x x = (1,x) - x": 1,
        "N(1) = 1": 1,
        "N(U_x y) = N(x)^2 N(y)": 1,
        "N(x+y) polarization": 1,
        "U_x y = xyx": 1,
        "pairing nondegenerate": 1,
        "pairing symmetric": 3,
        "x x (x# x y) = n(x)y + (x,y)x#": 1,
        "x x (y x z) five-term": 1,
        "x x# = N(x)": 1,
        "x# x (x x y) = n(x)y + (x#,y)x": 1,
    }, "failures": {
        "(x x y)# + x# x y# = (x,y#)x + (x#,y)y": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "(x#)# = N(x) x": "CnsElt(trivial, [-1])",
        "(x, x#) = 3N(x)": "CnsElt(trivial, [-1])",
        "(x,y) = tr(x)tr(y) - (1,x,y)": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "1 x x = (1,x) - x": "CnsElt(trivial, [-1])",
        "1# = 1": "CnsElt(trivial, [1])",
        "N(U_x y) = N(x)^2 N(y)": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "N(x+y) polarization": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "U_x y = xyx": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "x x (x# x y) = n(x)y + (x,y)x#": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
        "x x (y x z) five-term":
            "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]), CnsElt(trivial, [-2]))",
        "x x# = N(x)": "CnsElt(trivial, [-1])",
        "x# x (x x y) = n(x)y + (x#,y)x": "(CnsElt(trivial, [-1]), CnsElt(trivial, [2]))",
    }, "ok": False}



def test_axiom_suite_keeps_one_entry_per_failing_identity():
    """Passing trials are counted, not stored, so the report does not grow
    with the number of trials."""
    report = cns_axioms_check(WrongAdjointCNS(), trials=40, seed=1)
    assert [e.name for e in report.certificate] == list(report.failures)
    assert not any(e.ok for e in report.certificate)

def test_axiom_suites_base_changed():
    E = quadratic_field(5)
    for J in [ProductCNS(CompAlgebra(())), Matrix3CNS(), H3CNS(comp_preset("gaussian"))]:
        r = cns_axioms_check(J.base_change(E), trials=10, seed=4)
        assert r.ok(), (J.name, r.failures)


def test_tits_construction():
    sk = second_kind_matrix(1)  # split K: the A x A^opp shape with A = M_3
    U = TitsUCNS(sk, sk.J.one(), sk.K.one())
    assert U.dim == 27
    r = cns_axioms_check(U, trials=15, seed=5)
    assert r.ok(), r.failures


def test_tits_formula_specializations(rng):
    sk = second_kind_matrix(-1)
    U = TitsUCNS(sk, sk.J.one(), sk.K.one())
    X = sk.J.random(rng)
    z = U.join(X, sk.B.zero())
    first, second = U.split(U.adjoint(z))
    assert first == sk.J.adjoint(X)
    assert second.is_zero()
    alpha = sk.B.random(rng)
    za = U.join(sk.J.zero(), alpha)
    assert U.norm(za) == sk.tr_KF(sk.K.one() * sk.B.norm(alpha))


def test_tits_precondition():
    sk = second_kind_matrix(-1)
    with pytest.raises(PreconditionError):
        TitsUCNS(sk, sk.J.one() * 2, sk.K.one())  # n(S) = 8 != 1


def test_tits_tensor_special_identities():
    sk = second_kind_tensor(CubicRingCNS(split_cubic_algebra()), 5)
    U = TitsUCNS(sk, sk.J.one(), sk.K.one())
    r = cns_axioms_check(U, trials=25, seed=6)
    assert r.ok(), r.failures


def test_cayley_u_iso(rng):
    U = CayleyUCNS(comp_preset("hamilton"), 2)
    for _ in range(100):
        x = U.random(rng)
        assert U.norm(x) == U.doubled.norm(U.iso_to_doubled(x))
    r = cns_axioms_check(U, trials=12, seed=7)
    assert r.ok(), r.failures


def test_cayley_u_embedding_and_adjoint(rng):
    U = CayleyUCNS(comp_preset("gaussian"), 3)
    X = U.H.random(rng)
    z = U.join(X, (U.comp.zero(),) * 3)
    img = U.iso_to_doubled(z)
    (c1, c2, c3), _ = U.doubled.split(img)
    assert (c1, c2, c3) == (X.coords[0], X.coords[1], X.coords[2])
    v = tuple(U.comp.random(rng) for _ in range(3))
    one_v = U.join(U.H.one(), v)
    first, second = U.split(U.adjoint(one_v))
    assert first == U.H.one() + U._outer(v) * U.gamma
    assert all(a == -b for a, b in zip(second, v))


def test_cayley_u_rejects_octonions():
    with pytest.raises(DescriptorError):
        CayleyUCNS(comp_preset("octonion"), 1)
    with pytest.raises(DescriptorError):
        CayleyUCNS(comp_preset("hamilton"), 0)


def test_rank_invariant_under_u_operator(rng):
    for J in associative_variants() + [H3CNS(comp_preset("gaussian"))]:
        for _ in range(10):
            g = J.random(rng)
            if J.norm(g) == 0:
                continue
            x = J.random(rng)
            assert J.rank(J.u_op(g, x)) == J.rank(x)


def test_tensor_cross_identity_at_rank_one(rng):
    """(x x_T x)# = 4 x# x_T x# where the source uses it: rank-one x and
    pure tensors.  (For generic x the two sides differ; see the decisions
    ledger note and the counterexample below.)"""
    T = cubic_ring_algebra(1, 0, -1, 0)
    J = H3CNS(comp_preset("gaussian"))
    JT = J.base_change(T)
    # pure tensors
    for _ in range(5):
        u = J.random(rng)
        lam = T.random(rng)
        x = compose_over_base(JT, [u * c for c in lam.coords])
        lhs = JT.adjoint(tensor_cross(JT, J, x, x))
        rhs = tensor_cross(JT, J, JT.adjoint(x), JT.adjoint(x)) * 4
        assert lhs == rhs
    # rank-one x (both sides vanish)
    from cubicnorm.lifting import pair_lift

    A, B = J.one(), J.join((2, -2, 0), (J.comp.zero(),) * 3)
    res = pair_lift(J, A, B, cross_checks=False)
    X = res.lifted
    JT2 = res.data["pair"].JT
    lhs = JT2.adjoint(tensor_cross(JT2, J, X, X))
    rhs = tensor_cross(JT2, J, JT2.adjoint(X), JT2.adjoint(X)) * 4
    assert lhs.is_zero() and rhs.is_zero()


def test_tensor_cross_identity_fails_generically():
    """The fully general form of the four-fold identity is false: the split
    counterexample x = (U, V, 0) gives 4(UxV)# against 8 U# x V#."""
    T = split_cubic_algebra()
    J = Matrix3CNS()
    JT = J.base_change(T)
    from cubicnorm.cns import split_cubic_idempotents

    e1, e2, _ = split_cubic_idempotents(T)
    U = J.elem([1, 2, 0, 0, 1, 0, 3, 0, 1])
    V = J.elem([0, 1, 5, 1, 0, 0, 0, 2, 1])
    x = compose_over_base(JT, [U * c1 + V * c2 for c1, c2 in zip(e1.coords, e2.coords)])
    lhs = JT.adjoint(tensor_cross(JT, J, x, x))
    rhs = tensor_cross(JT, J, JT.adjoint(x), JT.adjoint(x)) * 4
    assert not (lhs == rhs)


def test_descriptor_mismatch():
    with pytest.raises(DescriptorError):
        Matrix3CNS().one() * TrivialCNS().one()


@pytest.mark.parametrize("base", [None, quadratic_field(-1)], ids=["QQ", "Q(i)"])
def test_matrix3_pair_is_the_trace_of_the_product(base):
    """(x, y) = sum of x_ij y_ji equals tr(xy), on non-symmetric matrices
    with some zero entries."""
    J = Matrix3CNS() if base is None else Matrix3CNS(base)
    rng = random.Random(5)
    for _ in range(20):
        x, y = J.random(rng), J.random(rng)
        x = J.elem([J.base.zero() if rng.random() < 0.3 else c for c in x.coords])
        assert x != J.transpose(x) or y != J.transpose(y)
        xy = J.mul(x, y).coords
        assert J.pair(x, y) == xy[0] + xy[4] + xy[8]
