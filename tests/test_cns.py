"""Cubic norm structures: instances, axioms, constructions, base change."""

import math
import random
from fractions import Fraction as F

import pytest

from conftest import (
    GROUND_ORACLES,
    associative_variants,
    cayley_u_adjoint,
    cayley_u_norm,
    cayley_u_outer,
    cayley_u_pair,
    hermitian_variants,
    kron_cells,
    polarized,
    rand_rank4,
    rank4_with_antisym_omega,
    second_kind_embed,
    second_kind_project,
)

from cubicnorm.cns import (
    CNS,
    CayleyUCNS,
    CnsElt,
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    SecondKind,
    TitsUCNS,
    TrivialCNS,
    cns_axioms_check,
    cubic_ring_algebra,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
    tensor_cross,
)
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import WSpace
from cubicnorm.lifting import gan_savin_cns, utilde_cns
from cubicnorm.matops import mat_star
from cubicnorm.presets import CNS_SUITE, cns_preset, second_kind_preset
from cubicnorm.scalars import (
    QQ_BASE,
    DescriptorError,
    PreconditionError,
    QuotientAlgebra,
    det,
    quadratic_field,
)


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


@pytest.mark.parametrize("name", CNS_SUITE)
def test_trace_builds_the_unit_once_per_structure(name, monkeypatch):
    """tr(x) = (1, x), with the unit built on the first trace and kept."""
    J = cns_preset(name)
    one = J.one()
    calls = []
    monkeypatch.setattr(J, "one", lambda: calls.append(1) or one)
    rng = random.Random(7)
    for _ in range(4):
        x = J.random(rng)
        assert J.trace(x) == J.pair(one, x)
    assert J.trace(one) == 3
    assert len(calls) == 1
    assert cns_preset(name).trace(one) == 3


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
    pytest.param(lambda: CayleyUCNS(comp_preset("gaussian"), 3), 25, id="cayleyu-comm-25"),
])
def test_axiom_suites(builder, trials):
    r = cns_axioms_check(builder(), trials=trials, seed=3)
    assert r.ok(), r.failures


class WrongAdjointCNS(TrivialCNS):
    """The trivial structure with x# = 2x^2 in place of x^2, and the cross
    its polarization: not a CNS."""

    cross = CNS.cross

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
    for J in [ProductCNS(CompAlgebra(())), Matrix3CNS(), H3CNS(comp_preset("gaussian")),
              cns_preset("titsu-tensor"), cns_preset("cayleyu-comm")]:
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
    assert U.norm(za) == sk.K.trace(sk.K.one() * sk.B.norm(alpha))


@pytest.mark.parametrize("name", ["matrix:-1", "matrix:1", "tensor:5"])
@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_second_kind_embed_round_trips(name, over, rng):
    """embed is additive, sends 1 to 1 and lands in the star-fixed part,
    and project undoes it, for both kinds over Q and over Q(sqrt 5)."""
    sk = second_kind_preset(name)
    if over != "Q":
        sk = sk.base_change(quadratic_field(5))
    J, B = sk.J, sk.B
    assert sk.embed(J.one()) == B.one()
    for _ in range(3):
        j, k = J.random(rng), J.random(rng)
        b = sk.embed(j)
        assert sk.project(b) == j
        assert sk.star(b) == b
        assert sk.embed(j + k) == b + sk.embed(k)


@pytest.mark.parametrize("D", [-1, 1])
@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_matrix_star_is_the_conjugate_transpose(D, over, rng):
    """The matrix kind's star, one table on numerators, is the formula
    mat_star(m, conj) on the matrix picture, and an involution, for
    D = -1 and 1, over Q and after a base change to Q(sqrt 5)."""
    sk = second_kind_matrix(D)
    if over != "Q":
        sk = sk.base_change(quadratic_field(5))
    B = sk.B
    for _ in range(5):
        b = B.random(rng, 3, integral=False)
        want = B.from_matrix(mat_star(B.to_matrix(b), lambda e: e.conj()))
        assert sk.star(b) == want and sk.star(want) == b


def test_star_table_over_a_quadratic_algebra_with_a_fractional_trace(rng):
    """The star table reads K's conjugation off its flat basis, so it holds
    for K = Q[x]/(x^2 + x/2 + 1), where x* = -1/2 - x."""
    K = QuotientAlgebra([1, F(1, 2), 1])
    B = Matrix3CNS(K)
    sk = SecondKind(K, B, H3CNS(comp_preset("gaussian")), "matrix")
    assert sk._star_table.den == 2
    for _ in range(3):
        b = B.random(rng, 3, integral=False)
        assert sk.star(b) == B.from_matrix(mat_star(B.to_matrix(b), lambda e: e.conj()))


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
    assert first == U.H.one() + cayley_u_outer(U, v) * U.gamma
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
        x = JT.extend(u) * lam
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
    x = JT.extend(U) * e1 + JT.extend(V) * e2
    lhs = JT.adjoint(tensor_cross(JT, J, x, x))
    rhs = tensor_cross(JT, J, JT.adjoint(x), JT.adjoint(x)) * 4
    assert not (lhs == rhs)


def test_tits_structures_over_different_j_differ():
    """Two second Tits constructions with the same S = 1, lambda = 1 and K
    but different fixed structures J are different structures: they and
    their elements compare unequal, as the norms of 2 * 1 + e_1 show."""
    sk1 = second_kind_preset("tensor:-1:cubic-split")
    sk2 = second_kind_preset("tensor:-1:etale-cubic")
    U1, U2 = (TitsUCNS(sk, sk.J.one(), sk.K.one()) for sk in (sk1, sk2))
    assert U1.sk.K == U2.sk.K and U1.S.coords == U2.S.coords
    assert U1.norm(U1.one() * 2 + U1.basis()[1]) == 4
    assert U2.norm(U2.one() * 2 + U2.basis()[1]) == 7
    assert U1 != U2 and not (U1 == U2) and len({U1, U2}) == 2
    assert U1.basis()[1] != U2.basis()[1] and not (U1.basis()[1] == U2.basis()[1])
    assert U1 == TitsUCNS(sk1, sk1.J.one(), sk1.K.one())


TOWER_PRESETS = ["trivial", "fxf", "fxq", "fxq-split", "cubic-split", "etale-cubic", "matrix3",
                 "h3-rational", "h3-gaussian", "h3-quaternion", "h3-octonion",
                 "titsu-matrix:-1", "titsu-tensor:5", "cayleyu:2"]


def _assert_flat(S, z):
    assert z.space == S and len(z.num) == S.flat_dim() and all(type(n) is int for n in z.num)
    assert type(z.den) is int and z.den > 0 and math.gcd(z.den, *z.num) == 1
    if S.base != QQ_BASE:
        assert all(c.space == S.base for c in z.coords)


def test_elements_on_every_preset_tower_are_flat_integers(rng):
    """On every tower the presets build -- each preset over Q and over
    Q(sqrt 5), the associative ones over a cubic ring T, and the algebras B
    over K of the second-kind presets -- every element, sum, scaling (by a
    rational and by an element of the base), adjoint, cross and product is
    flat_dim ints over one den in lowest terms, read as base elements."""
    E, T = quadratic_field(5), cubic_ring_algebra(1, -1, 2, 3)
    spaces = []
    for name in TOWER_PRESETS:
        J = cns_preset(name)
        spaces += [J, J.base_change(E)] + ([J.base_change(T)] if J.has_mul else [])
    for name in ("matrix", "matrix:5", "tensor", "tensor:-3:etale-cubic"):
        sk = second_kind_preset(name)
        spaces += [sk.B, sk.base_change(E).B]
    for S in spaces:
        x, y = S.random(rng, integral=False), S.random(rng, integral=False)
        zs = [x, y, x + y, x - y, x * F(2, 3), S.adjoint(x), S.cross(x, y)]
        if S.base != QQ_BASE:
            zs.append(x * S.base.random(rng, integral=False))
        if S.has_mul:
            zs.append(S.mul(x, y))
        for z in zs:
            _assert_flat(S, z)


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


# -- assembly: concat is the inverse of block --------------------------------


def _tits_u():
    sk = second_kind_matrix(-1)
    return TitsUCNS(sk, sk.J.one(), sk.K.one())


def _quotient_matrix_u(D, seed):
    sk = second_kind_matrix(D)
    return utilde_cns(sk, rank4_with_antisym_omega(sk, random.Random(seed))).data["U"]


def _gan_savin(name):
    A = cns_preset(name)
    return gan_savin_cns(A, rand_rank4(WSpace(A), random.Random(0), 1)).data["U"]


# each structure with its split into blocks and the join that assembles them
JOINED = {
    "product": (lambda: ProductCNS(comp_preset("hamilton")),
                lambda S, x: (S.concat, S._split(x))),
    "h3": (lambda: H3CNS(comp_preset("hamilton")), lambda S, x: (S.join, S.split(x))),
    "titsu": (_tits_u, lambda S, x: (S.join, S.split(x))),
    "cayleyu": (lambda: CayleyUCNS(comp_preset("hamilton"), 2),
                lambda S, x: (S.join, S.split(x))),
    "quotient": (lambda: _quotient_matrix_u(-1, 0), lambda S, x: (S.join, S.split(x))),
    "gansavin": (lambda: _gan_savin("fxf"), lambda S, x: (S.join, S.split(x))),
}


@pytest.mark.parametrize("name, over", [(name, "Q") for name in JOINED]
                         + [(name, "Q(sqrt 5)") for name in ("product", "h3", "titsu", "cayleyu")])
def test_join_of_the_split_blocks_is_the_element(name, over, rng):
    """Every structure's join assembles its split blocks back into the same
    numerators over the same denominator, over Q with coordinates over
    different denominators and over a quotient base."""
    build, parts = JOINED[name]
    S = build()
    if over != "Q":
        S = S.base_change(quadratic_field(5))
    for _ in range(4):
        x = S.random(rng, integral=False)
        join, blocks = parts(S, x)
        y = join(*blocks)
        assert type(y) is type(x) and y.space is S
        assert (y.num, y.den) == (x.num, x.den) and y == x and hash(y) == hash(x)


@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_cayley_u_iso_round_trips(over, rng):
    U = CayleyUCNS(comp_preset("hamilton"), 2)
    if over != "Q":
        U = U.base_change(quadratic_field(5))
    for _ in range(4):
        x, y = U.random(rng, integral=False), U.doubled.random(rng, integral=False)
        back, forth = U.iso_from_doubled(U.iso_to_doubled(x)), U.iso_to_doubled(U.iso_from_doubled(y))
        assert (back.num, back.den) == (x.num, x.den)
        assert (forth.num, forth.den) == (y.num, y.den)


def test_concat_over_different_denominators():
    """concat brings the parts over the least common denominator, which is
    lowest terms: the same numerators and denominator as the constructor
    reads off the coordinates, and block gives the parts back."""
    C = comp_preset("hamilton")
    H = H3CNS(C)
    a1, a2, a3 = C.elem([F(1, 4), 0, 0, 0]), C.zero(), C.elem([0, F(5, 6), 0, 1])
    x = H.concat(F(1, 2), 3, F(-2, 3), a1, a2, a3)
    coords = (F(1, 2), 3, F(-2, 3)) + a1.coords + a2.coords + a3.coords
    assert x.den == 12 and x.coords == coords
    assert (x.num, x.den) == (CnsElt(H, coords).num, CnsElt(H, coords).den)
    assert [x.block(C, 3 + 4 * i) for i in range(3)] == [a1, a2, a3]
    assert H.concat(*x.coords[:3], *(x.block(C, 3 + 4 * i) for i in range(3))) == x
    # integral parts stay over 1, and a part over 2 that cancels leaves den 2
    assert H.concat(1, 2, 3, C.one(), C.one(), C.one()).den == 1
    assert H.concat(0, 0, 0, C.one() * F(1, 2), C.zero(), C.zero()).den == 2


def test_concat_over_a_quotient_base_coerces_scalars():
    """Over a base algebra K an element of K and a rational are each one
    coordinate, and an element over K gives its coordinates; the parts'
    numerators go over one denominator along the Q-flattened coordinates."""
    E = quadratic_field(5)
    C = comp_preset("gaussian").base_change(E)
    H = H3CNS(C)
    u = C.elem([E.elem([F(1, 2), 1]), F(1, 3)])
    x = H.concat(E.elem([0, F(2, 3)]), F(1, 2), 2, u, C.zero(), u * 3)
    assert x == H.elem([E.elem([0, F(2, 3)]), F(1, 2), 2] + list(u.coords) + [0, 0]
                       + list((u * 3).coords))
    # the numerators are the ints along the Q-flattened coordinates over one den
    assert x.den == 6 and x.num == (0, 4, 3, 0, 12, 0, 3, 6, 2, 0, 0, 0, 0, 0, 9, 18, 6, 0)
    assert all(c.alg is E for c in x.coords)
    # an element over an equal base built apart gives its coordinates too
    C2 = comp_preset("gaussian").base_change(quadratic_field(5))
    assert C2.base is not E and C2.base == E
    assert H.concat(E.one(), 0, 0, C2.one(), C2.zero(), C2.zero()) == H.concat(1, 0, 0, C.one(), C.zero(), C.zero())


# -- ground structures: tables against the formulas they replace -------------

GROUND_PRESETS = ["trivial", "fxf", "fxq", "fxq-split", "etale-cubic", "cubic-split", "matrix3",
                  "h3-rational", "h3-gaussian", "h3-quaternion", "h3-split-quaternion",
                  "h3-octonion", "h3-split-octonion"]


def _tower():
    """A depth-two tower: Q(sqrt 5)[y]/(y^2 - y - 3) over Q(sqrt 5) over Q."""
    return QuotientAlgebra([-3, -1, 1], base=quadratic_field(5))


@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)", "tower"])
@pytest.mark.parametrize("name", GROUND_PRESETS)
def test_ground_tables_match_the_formulas(name, over):
    """Every ground preset's adjoint, pairing, product and cross, each one
    table product, equal the formulas they replace on non-integral
    elements, over Q, over Q(sqrt 5) and over a depth-two tower; and the
    cross is the polarization of the adjoint."""
    J = cns_preset(name)
    if over != "Q":
        J = J.base_change(quadratic_field(5) if over == "Q(sqrt 5)" else _tower())
    adjoint, pair, mul = GROUND_ORACLES[type(J)]
    assert (mul is None) == (not J.has_mul)
    rng = random.Random(f"{name} over {over}")
    for _ in range(3 if over == "tower" else 5):
        x, y = J.random(rng, 2, integral=False), J.random(rng, 2, integral=False)
        assert J.adjoint(x) == adjoint(J, x)
        assert J.pair(x, y) == pair(J, x, y)
        assert J.cross(x, y) == polarized(lambda z: adjoint(J, z), x, y)
        assert J.cross(x, y) == polarized(J.adjoint, x, y) == J.cross(y, x)
        if mul is not None:
            assert J.mul(x, y) == mul(J, x, y)


def test_ground_h3_has_no_product():
    J = H3CNS(comp_preset("hamilton"))
    with pytest.raises(DescriptorError):
        J.mul(J.one(), J.one())


@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)", "tower"])
def test_cubic_algebra_cross_is_the_polarized_adjoint(over):
    """CommAlgebra.cross, the symmetrized adjoint table, is (u+v)# - u# - v#."""
    T = cubic_ring_algebra(1, -1, 2, 3)
    if over != "Q":
        T = T.base_change(quadratic_field(5) if over == "Q(sqrt 5)" else _tower())
    rng = random.Random(11)
    for _ in range(5):
        u, v = T.random(rng, 2, integral=False), T.random(rng, 2, integral=False)
        assert T.cross(u, v) == polarized(T.adjoint, u, v) == T.cross(v, u)
        assert u * T.adjoint(u) == T.from_scalar(T.norm(u))


def _terms(t):
    return [c for row in kron_cells(t) for _, cell in row for _, c in cell]


@pytest.mark.parametrize("name, sharp, cross, pairing", [
    ("trivial", 1, 1, 1), ("fxf", 2, 3, 2), ("fxq", 8, 12, 5), ("etale-cubic", 9, 9, 3),
    ("matrix3", 18, 36, 9), ("h3-rational", 12, 21, 6), ("h3-quaternion", 75, 138, 15),
    ("h3-octonion", 243, 462, 27)])
def test_ground_tables_are_sparse(name, sharp, cross, pairing):
    """Each table holds its nonzero terms only, as many as the closed form
    has (x# of M_3 is 18 products, of H_3 over the octonions 243), and
    over Q(i) every term meets each of the base's two-by-two cells."""
    J = cns_preset(name)
    tables = [J._sharp, J._cross, J._pairing] + ([J._product] if J.has_mul else [])
    assert all(all(_terms(t)) for t in tables)
    assert [len(_terms(t)) for t in tables[:3]] == [sharp, cross, pairing]
    if name == "matrix3":
        assert len(_terms(J.base_change(quadratic_field(-1))._sharp)) == 4 * sharp


def _assert_shape(t, rows, right, out):
    """t reads one row per left numerator and only the right operand's
    numerators, and writes only its out numerators: no index is negative,
    where it would alias the end of an operand.  A table over a base is
    read through its cells materialized (``kron_cells``)."""
    cells = kron_cells(t)
    assert len(cells) == rows and t._n == out
    assert all(0 <= j < right and 0 <= k < out for row in cells for j, cell in row for k, _ in cell)


@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_tables_index_their_operands(over):
    """Every ground structure's tables, a composition algebra's norm table,
    the matrix kind's star, embed and project tables and U(gamma)'s tables
    have the shape of their operands."""
    E = quadratic_field(5)
    for name in GROUND_PRESETS:
        J = cns_preset(name) if over == "Q" else cns_preset(name).base_change(E)
        n, m = J.flat_dim(), J.base.flat_dim()
        _assert_shape(J._pairing, n, n, m)
        for t in [J._sharp, J._cross] + ([J._product] if J.has_mul else []):
            _assert_shape(t, n, n, n)
    C = comp_preset("octonion") if over == "Q" else comp_preset("octonion").base_change(E)
    _assert_shape(C._norm_table, C.flat_dim(), C.flat_dim(), C.base.flat_dim())
    sk = second_kind_matrix(-1) if over == "Q" else second_kind_matrix(-1).base_change(E)
    _assert_shape(sk._star_table, sk.B.flat_dim(), 1, sk.B.flat_dim())
    embed, project = sk._picture
    _assert_shape(embed, sk.J.flat_dim(), 1, sk.B.flat_dim())
    _assert_shape(project, sk.B.flat_dim(), 1, sk.J.flat_dim())
    U = cns_preset("cayleyu:2") if over == "Q" else cns_preset("cayleyu:2").base_change(E)
    n, h = 3 * U.comp.flat_dim(), U.H.flat_dim()
    _assert_shape(U._vx, n, h, n)
    _assert_shape(U._vw, n, n, h)
    _assert_shape(U._trace, n, n, U.base.flat_dim())


# -- composite structures: polarized crosses and per-key tables --------------


def _quotient_tensor_u():
    A = TrivialCNS()
    v = rand_rank4(WSpace(A), random.Random(2), unit_corner=True)
    return utilde_cns(second_kind_tensor(A, WSpace(A).quartic(v)), v).data["U"]


def _over_q_sqrt5(name):
    return cns_preset(name).base_change(quadratic_field(5))


def _tits_u_off_the_unit():
    """U(S, lambda) over M_3(Q(i)) with S = diag(2, 1, 1) and lambda = 1 + i,
    n(S) = 2 = lambda lambda*: S# is not scalar and lambda is not 1."""
    sk = second_kind_matrix(-1)
    z = sk.J.comp.zero()
    return TitsUCNS(sk, sk.J.join((2, 1, 1), (z, z, z)), sk.K.elem([1, 1]))


COMPOSITES = {
    "titsu-matrix:-1 off the unit": _tits_u_off_the_unit,
    **{name: (lambda name=name: cns_preset(name))
       for name in ("titsu-matrix:-1", "titsu-matrix:1", "titsu-tensor", "cayleyu:2",
                    "cayleyu-comm:3")},
    **{f"{name} over Q(sqrt 5)": (lambda name=name: _over_q_sqrt5(name))
       for name in ("titsu-matrix:-1", "titsu-tensor", "cayleyu:2", "cayleyu-comm:3")},
    "cayleyu over a fractional chain": lambda: _cayley_u_over_a_fractional_chain(),
    "quotient matrix:-1": lambda: _quotient_matrix_u(-1, 0),
    # over the split K of D = 1 this v leaves the first B-slot of the row
    # pair free in the canonical representatives, as no field case does
    "quotient matrix:1": lambda: _quotient_matrix_u(1, 2),
    "quotient tensor": _quotient_tensor_u,
    **{f"gan-savin {name}": (lambda name=name: _gan_savin(name))
       for name in ("fxf", "etale-cubic", "trivial")},
}


@pytest.mark.parametrize("name", list(COMPOSITES))
def test_composite_cross_is_the_polarized_adjoint(name, monkeypatch):
    """Each composite structure's own cross, its adjoint formula polarized,
    equals the three-adjoint default CNS.cross on non-integral elements,
    is symmetric, and makes no call to the structure's adjoint."""
    U = COMPOSITES[name]()
    rng = random.Random(name)
    pairs = [(U.random(rng, 2, integral=False), U.random(rng, 2, integral=False))
             for _ in range(2)]
    want = [CNS.cross(U, x, y) for x, y in pairs]

    def no_adjoint(x):
        raise AssertionError("cross called the adjoint")

    monkeypatch.setattr(U, "adjoint", no_adjoint)
    for (x, y), w in zip(pairs, want):
        assert U.cross(x, y) == w == U.cross(y, x)


@pytest.mark.parametrize("D", [-1, 1])
@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_embed_and_project_tables_match_the_matrix_picture(D, over, rng):
    """The matrix kind's embed and project, one linear table each, are the
    Hermitian picture read in M_3(K) and read back, also after a base
    change; project still rejects an element the involution does not fix."""
    sk = second_kind_matrix(D)
    if over != "Q":
        sk = sk.base_change(quadratic_field(5))
    J, B = sk.J, sk.B
    for _ in range(3):
        j = J.random(rng, 2, integral=False)
        b = B.random(rng, 2, integral=False)
        fixed = b + sk.star(b)
        assert sk.embed(j) == second_kind_embed(sk, j)
        assert sk.project(fixed) == second_kind_project(sk, fixed)
        assert sk.project(sk.embed(j)) == j
        with pytest.raises(PreconditionError):
            sk.project(b)


def _cayley_u_over_a_fractional_chain():
    """U(2/3) over the quaternions (1/3, -3/2), whose tables are over
    denominators 6, 6 and 3."""
    return CayleyUCNS(CompAlgebra((F(1, 3), F(-3, 2))), F(2, 3))


@pytest.mark.parametrize("name", ["cayleyu:2", "cayleyu-comm:3", "fractional chain"])
@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
def test_cayley_u_tables_match_the_formulas(name, over):
    """U(gamma)'s norm, adjoint and pairing, through its tables v X,
    v* w + w* v and sum_i tr(v_i w_i*), equal the matrix-picture formulas
    they replace on non-integral elements, also after a base change and
    over a chain whose tables have a denominator."""
    U = _cayley_u_over_a_fractional_chain() if name == "fractional chain" else cns_preset(name)
    if over != "Q":
        U = U.base_change(quadratic_field(5))
    rng = random.Random(f"{name} {over}")
    for _ in range(4):
        x, y = U.random(rng, 2, integral=False), U.random(rng, 2, integral=False)
        assert U.norm(x) == cayley_u_norm(U, x)
        assert U.adjoint(x) == cayley_u_adjoint(U, x)
        assert U.pair(x, y) == cayley_u_pair(U, x, y)


def test_composite_tables_are_built_once_per_key():
    """Two structures of one key share their tables: the matrix kind's
    embed and project per (C, base), U(gamma)'s per Cayley-Dickson chain,
    whatever gamma, and over Q(sqrt 5) too."""
    E = quadratic_field(5)
    sk1, sk2 = second_kind_matrix(-1), second_kind_matrix(-1)
    assert all(a is b for a, b in zip(sk1._picture, sk2._picture))
    assert all(a is b for a, b in zip(sk1.base_change(E)._picture, sk2.base_change(E)._picture))
    U1, U2 = CayleyUCNS(comp_preset("hamilton"), 2), CayleyUCNS(comp_preset("hamilton"), 3)
    for V1, V2 in ((U1, U2), (U1.base_change(E), U2.base_change(E))):
        assert V1._vx is V2._vx and V1._vw is V2._vw and V1._trace is V2._trace


def test_ground_tables_over_a_tower_are_built_on_first_use():
    """A ground structure base changes each of its tables on the first
    product that needs it: H_3 over a cubic ring builds no cross table until
    a cross is taken, and two structures of one key share what they build."""
    T = cubic_ring_algebra(1, -1, 2, 3)
    J = H3CNS(comp_preset("hamilton").base_change(T))
    x = J.random(random.Random(5))
    assert not {"_sharp", "_cross", "_pairing"} & set(vars(J))
    J.adjoint(x)
    assert "_sharp" in vars(J) and "_cross" not in vars(J)
    J2 = H3CNS(comp_preset("hamilton").base_change(T))
    assert J2.cross(x, x) == J.adjoint(x) * 2
    assert J2._cross is J._cross and J2._sharp is J._sharp
