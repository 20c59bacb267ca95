"""Cayley-Dickson composition algebras."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnorm.composition import (
    CompAlgebra,
    cd_double,
    comp_axioms_check,
    comp_preset,
    find_nonassociative_triple,
)
from cubicnorm.scalars import DescriptorError, qalg_make, quadratic_field

small = st.integers(-6, 6)


# -- oracle: the Cayley-Dickson recursion, level by level --------------------
#
#     (x1, y1)(x2, y2) = (x1 x2 + gamma y2* y1,  y2 x1 + y1 x2*)
#     (x, y)* = (x*, -y),   n((x, y)) = n(x) - gamma n(y)


def cd_mul(gammas, a, b):
    if not gammas:
        return (a[0] * b[0],)
    *rest, g = gammas
    h = len(a) // 2
    x1, y1, x2, y2 = a[:h], a[h:], b[:h], b[h:]
    left = tuple(p + g * q for p, q in zip(cd_mul(rest, x1, x2),
                                           cd_mul(rest, cd_conj(rest, y2), y1)))
    right = tuple(p + q for p, q in zip(cd_mul(rest, y2, x1),
                                        cd_mul(rest, y1, cd_conj(rest, x2))))
    return left + right


def cd_conj(gammas, a):
    if not gammas:
        return (a[0],)
    h = len(a) // 2
    return cd_conj(gammas[:-1], a[:h]) + tuple(-c for c in a[h:])


def cd_norm(gammas, a):
    if not gammas:
        return a[0] * a[0]
    h = len(a) // 2
    return cd_norm(gammas[:-1], a[:h]) - gammas[-1] * cd_norm(gammas[:-1], a[h:])


rationals = st.one_of(small, st.fractions(min_value=-4, max_value=4, max_denominator=4))
# the named chains, among them non-integral ones, and random chains of length 0-3
NAMED_CHAINS = [(), (-1,), (F(1, 2),), (-1, -1), (1, 1), (F(1, 2), -3), (-1, -1, -1),
                (1, 1, 1), (2, F(-1, 3), 5)]
gamma_chains = st.one_of(st.sampled_from(NAMED_CHAINS),
                         st.lists(rationals.filter(lambda g: g != 0), max_size=3))


def coordinates(C, draw_scalar):
    return st.lists(draw_scalar, min_size=C.dim, max_size=C.dim).map(
        lambda cs: C.elem(cs).coords)


def assert_matches_the_recursion(C, data, scalar):
    a = data.draw(coordinates(C, scalar))
    b = data.draw(coordinates(C, scalar))
    assert C.mul_coords(a, b) == cd_mul(C.gammas, a, b)
    assert C.conj_coords(a) == cd_conj(C.gammas, a)
    assert C.norm_coords(a) == cd_norm(C.gammas, a)


@given(gamma_chains, st.data())
@settings(max_examples=150, deadline=None)
def test_table_matches_the_recursion_over_q(gammas, data):
    assert_matches_the_recursion(CompAlgebra(gammas), data, rationals)


@given(st.lists(st.sampled_from([-3, -1, 1, 2]), max_size=3), st.data())
@settings(max_examples=100, deadline=None)
def test_integral_inputs_give_int_coordinates(gammas, data):
    C = CompAlgebra(gammas)
    a = data.draw(coordinates(C, small))
    b = data.draw(coordinates(C, small))
    assert all(type(c) is int for c in C.mul_coords(a, b) + C.conj_coords(a))
    assert type(C.norm_coords(a)) is int


@pytest.mark.parametrize("K", [quadratic_field(5), qalg_make([1, -1, 0, 1])],
                         ids=["quadratic", "cubic"])
@given(gammas=gamma_chains, data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_matches_the_recursion_over_a_quotient_base(K, gammas, data):
    entry = st.lists(rationals, min_size=K.dim, max_size=K.dim).map(K.elem)
    assert_matches_the_recursion(CompAlgebra(gammas).base_change(K), data, entry)


def test_table_is_built_once_per_chain():
    H, HE = comp_preset("hamilton"), comp_preset("hamilton").base_change(quadratic_field(5))
    assert H.table is HE.table and H.norm_weights is HE.norm_weights


def test_double_twice_gives_quaternions():
    D = cd_double(cd_double(CompAlgebra(()), -1), -1)
    assert D.gammas == comp_preset("hamilton").gammas
    i, j = D.basis()[1], D.basis()[2]
    assert i * j == -(j * i)
    assert (i * i).coords[0] == -1


def test_cd_norm_formula():
    C = CompAlgebra((1,))
    assert C.elem([3, 2]).norm() == 9 - 4


def test_conjugate_of_identity():
    O = comp_preset("octonion")
    assert O.one().conj() == O.one()


def test_quaternion_norm_sum_of_squares():
    H = comp_preset("hamilton")
    x = H.elem([1, 2, 3, 4])
    assert x.norm() == 1 + 4 + 9 + 16
    assert x * H.one() == x


def test_doubling_octonion_rejected():
    with pytest.raises(DescriptorError):
        cd_double(comp_preset("octonion"), -1)
    with pytest.raises(DescriptorError):
        CompAlgebra((1, 1, 0))


def test_octonion_nonassociative_triple():
    t = find_nonassociative_triple(comp_preset("octonion"))
    assert t is not None
    x, y, z = t
    assert (x * y) * z != x * (y * z)
    assert find_nonassociative_triple(comp_preset("hamilton")) is None


@pytest.mark.parametrize("name,trials", [
    ("hamilton", 200), ("split-octonion", 200), ("rational", 50),
    ("gaussian", 100), ("octonion", 60), ("split-quaternion", 100),
])
def test_axiom_suites(name, trials):
    report = comp_axioms_check(comp_preset(name), trials=trials, seed=11)
    assert report.ok(), report.failures


@given(st.tuples(small, small, small, small), st.tuples(small, small, small, small))
@settings(max_examples=80)
def test_quaternion_norm_multiplicative(xs, ys):
    H = comp_preset("hamilton")
    x, y = H.elem(list(xs)), H.elem(list(ys))
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == y.conj() * x.conj()


def test_base_changed_algebra(rng):
    E = quadratic_field(5)
    HE = comp_preset("hamilton").base_change(E)
    for _ in range(30):
        x, y = HE.random(rng), HE.random(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x + x.conj() == HE.from_scalar(x.trace())


def test_descriptor_mismatch():
    H = comp_preset("hamilton")
    G = comp_preset("gaussian")
    with pytest.raises(DescriptorError):
        H.one() * G.one()


def test_presets_parse():
    assert comp_preset("quadratic:7").gammas == (F(7),)
    assert comp_preset("quaternion:1,-3").gammas == (F(1), F(-3))
    with pytest.raises(DescriptorError):
        comp_preset("nope")
    for bad in ("quaternion:1", "quaternion:1,2,3"):
        with pytest.raises(DescriptorError, match="quaternion:a,b"):
            comp_preset(bad)
