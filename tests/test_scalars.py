"""Exact rationals, quotient algebras, and exact linear algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnorm.composition import comp_preset
from cubicnorm.scalars import (
    QQ_BASE,
    BoundExceededError,
    DescriptorError,
    MatrixQ,
    QuotientAlgebra,
    poly_discriminant,
    qalg_make,
    quadratic_field,
    rational_sqrt,
    scalar_from_str,
    scalar_to_str,
    witness_search,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals)
def test_scalar_string_roundtrip(x):
    assert scalar_from_str(scalar_to_str(x)) == x


def test_scalar_string_forms():
    assert scalar_to_str(F(3)) == "3"
    assert scalar_to_str(F(-6, 4)) == "-3/2"


def test_qalg_sqrt5_norm():
    E = qalg_make([-5, 0, 1])
    u = E.elem([2, 1])  # 2 + w
    assert u.norm() == -1
    assert u.trace() == 4
    assert u * u.inv() == E.one()


def test_qalg_split_zero_divisor():
    S = qalg_make([-1, 0, 1])
    v = S.elem([1, 1])
    assert v.norm() == 0
    assert not S.is_unit(v)
    with pytest.raises(ZeroDivisionError):
        v.inv()


@given(st.integers(-20, 20).filter(lambda d: d != 0 and d not in (1, 4, 9, 16)),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60)
def test_qalg_quadratic_norm_formula(D, a, b):
    E = quadratic_field(D)
    u = E.elem([a, b])
    assert u.norm() == F(a) ** 2 - D * F(b) ** 2


def test_qalg_rejects_bad_moduli():
    with pytest.raises(DescriptorError):
        qalg_make([0, 0, 1])  # x^2: not separable
    with pytest.raises(DescriptorError):
        qalg_make([1, 0, 2])  # non-monic
    with pytest.raises(DescriptorError):
        qalg_make([1, 1])  # degree 1
    with pytest.raises(DescriptorError):
        quadratic_field(0)


def test_norm_multiplicative_trace_linear(rng):
    for modulus in ([-5, 0, 1], [-1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 1]):
        alg = qalg_make(modulus)
        for _ in range(1000):
            u = alg.random(rng, 4)
            v = alg.random(rng, 4)
            assert (u * v).norm() == u.norm() * v.norm()
            q = F(rng.randint(-3, 3))
            assert (u + v * q).trace() == u.trace() + q * v.trace()


def test_cubic_adjoint_identity(rng):
    L = qalg_make([-2, 0, 0, 1])
    for _ in range(50):
        u = L.random(rng, 3)
        assert u * L.adjoint(u) == L.from_rational(u.norm())


def test_linalg_solve_examples():
    assert MatrixQ([[F(1), F(0)], [F(0), F(1)]]).solve([F(7), F(-2)]) == [F(7), F(-2)]
    assert MatrixQ([[F(1), F(1)], [F(1), F(-1)]]).solve([F(2), F(0)]) == [F(1), F(1)]
    assert MatrixQ([[F(1), F(1)], [F(2), F(2)]]).solve([F(1), F(3)]) is None


def test_linalg_over_quotient_algebra():
    E = qalg_make([-5, 0, 1])
    m = MatrixQ([[E.one(), E.gen()], [E.gen(), E.one()]])
    sol = m.solve([E.elem([1, 1]), E.zero()])
    assert sol is not None
    assert m.solve([E.one(), E.gen() * 0]) is not None


def test_matrixq_kernel():
    m = MatrixQ([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
    ker = m.kernel()
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    E = qalg_make([-5, 0, 1])
    m2 = MatrixQ([[E.one(), E.gen()]])
    ker2 = m2.kernel()
    assert len(ker2) == 2
    for v in ker2:
        assert (v[0] + E.gen() * v[1]).is_zero()


def test_matrixq_rejects_mixed_bases():
    E = qalg_make([-5, 0, 1])
    E2 = qalg_make([-7, 0, 1])
    with pytest.raises(DescriptorError):
        MatrixQ([[E.one(), E2.one()]])


def test_rational_sqrt():
    assert rational_sqrt(F(49, 4)) == F(7, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-4)) is None


def test_rational_base_inv_is_exact():
    for x, inv in [(3, F(1, 3)), (-4, F(-1, 4)), (F(2, 5), F(5, 2))]:
        got = QQ_BASE.inv(x)
        assert type(got) is F and got == inv
    for zero in (0, F(0)):
        with pytest.raises(ZeroDivisionError):
            QQ_BASE.inv(zero)


def test_poly_discriminant():
    assert poly_discriminant([F(-5), F(0), F(1)]) == 20
    assert poly_discriminant([F(1), F(0), F(0), F(1)]) == -27


def test_two_level_base_change(rng):
    E = quadratic_field(7)
    K = QuotientAlgebra([1, 0, 1], base=E)
    for _ in range(20):
        u = K.random(rng, 2)
        v = K.random(rng, 2)
        assert (u * v).norm() == u.norm() * v.norm()
    z = K.elem([E.elem([1, 1]), E.elem([0, 2])])
    assert z * K.inv(z) == K.one()


small = st.fractions(min_value=-20, max_value=20, max_denominator=6)
pairs = st.tuples(small, small)


@given(pairs, pairs, small)
def test_algelem_hash_agrees_with_eq(a, b, q):
    # two equal but distinct algebra instances, and a base change over one
    E1, E2 = qalg_make([-5, 0, 1]), qalg_make([-5, 0, 1])
    K = QuotientAlgebra([1, 0, 1], base=E2)
    x, y = E1.elem(a), E2.elem(a)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    checked = [(x, y), (E1.elem(a), E2.elem(b)), (E1.from_rational(q), q),
               (E1.elem([q, 0]), E2.from_rational(q)), (E1.elem([a[0], 0]), a[0]),
               (K.from_rational(q), q), (K.scalar_mul_one(y), x),
               (K.elem([E2.elem(a), E2.elem(b)]), E1.elem(a))]
    # composition-algebra elements, over Q and over Q(sqrt 5)
    H = comp_preset("hamilton")
    HE = H.base_change(E1)
    checked += [(H.from_scalar(q), q), (H.elem([a[0], a[1], 0, 0]), a[0]),
                (H.elem([q, 0, 0, 0]), comp_preset("hamilton").from_scalar(q)),
                (HE.from_scalar(q), q), (HE.from_scalar(y), x), (HE.elem([y, 0, 0, 0]), E1.elem(b)),
                (HE.elem([y, x, 0, 0]), y), (HE.from_scalar(E1.from_rational(q)), q)]
    for lhs, rhs in checked:
        if lhs == rhs:
            assert hash(lhs) == hash(rhs)
    assert E1.from_rational(q) == q and K.from_rational(q) == q
    assert K.scalar_mul_one(y) == x
    assert H.from_scalar(q) == q and len({H.from_scalar(q), q}) == 1
    assert HE.from_scalar(y) == x and len({HE.from_scalar(y), x}) == 1


def test_witness_search_policy():
    drawn = []

    def stream(values):
        for v in values:
            drawn.append(v)
            yield v

    def odd(n):
        return n if n % 2 else None

    assert witness_search(stream([2, 4, 5, 7]), odd) == 5 and drawn == [2, 4, 5]
    assert witness_search([2, 3, 5, 7, 9], odd, limit=2) == [3, 5]
    assert witness_search([1, 2], odd, limit=3) == [1]
    assert witness_search([2, 4], odd) is None and witness_search([2, 4], odd, limit=3) == []
    with pytest.raises(BoundExceededError, match="^none odd; raise cap$"):
        witness_search([2, 4], odd, "none odd; raise cap")
    with pytest.raises(BoundExceededError):
        witness_search([], odd, "empty", limit=2)
