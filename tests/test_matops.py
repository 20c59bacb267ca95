"""The matrix helpers: the sparse sum of products against a dense oracle,
over rationals and over quaternions, where the factor order matters, and
the matrix product over an algebra over Q -- ``mat_mul`` and the table
product of ``Matrix3CNS`` over the algebra -- against the entrywise
product."""

import math
import random
from fractions import Fraction as F
from functools import reduce
from operator import add

import pytest

from cubicnorm.cns import Matrix3CNS
from cubicnorm.composition import comp_preset
from cubicnorm.matops import mat_mul, mat_times_col, row_times_mat, sum_prod
from cubicnorm.scalars import qalg_make, quadratic_field


def dense_sum_prod(xs, ys):
    """Oracle: every product, zero factors included, in order."""
    return reduce(add, (x * y for x, y in zip(xs, ys)))


def rational(rng):
    return rng.choice([0, 0, rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))])


def quaternion(rng):
    H = comp_preset("hamilton")
    return H.zero() if rng.random() < 0.4 else H.random(rng, 2)


@pytest.mark.parametrize("entry", [rational, quaternion])
def test_sparse_products_match_the_dense_oracle(entry):
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        zero = entry(random.Random(0)) * 0
        rows = [tuple(entry(rng) for _ in range(n)) for _ in range(25)] + [(zero,) * n]
        for row in rows:
            a = tuple(tuple(entry(rng) for _ in range(n)) for _ in range(n))
            col = tuple(entry(rng) for _ in range(n))
            assert sum_prod(row, col) == dense_sum_prod(row, col)
            assert row_times_mat(row, a) == tuple(
                dense_sum_prod(row, tuple(a[t][j] for t in range(n))) for j in range(n))
            assert mat_times_col(a, row) == tuple(dense_sum_prod(a[i], row) for i in range(n))


def test_quaternion_factor_order_is_kept():
    H = comp_preset("hamilton")
    i, j = H.basis()[1], H.basis()[2]
    assert i * j != j * i
    assert sum_prod((H.zero(), i), (j, j)) == i * j
    assert row_times_mat((i, H.zero()), ((j, i), (i, j))) == (i * j, i * i)
    assert mat_times_col(((H.zero(), i), (j, H.zero())), (j, j)) == (i * j, j * j)


def test_all_zero_left_factors_give_the_zero_of_the_product_type():
    H = comp_preset("hamilton")
    x = H.elem([1, 2, 3, 4])
    assert sum_prod((0, 0), (x, x)) == H.zero()
    assert type(sum_prod((0, 0), (x, x))) is type(x)
    assert sum_prod((H.zero(),) * 3, (x,) * 3) == H.zero()
    assert sum_prod((0, 0, 0), (F(1, 2), 3, 4)) == 0


# -- the product over one algebra over Q ---------------------------------------


def entrywise(a, b):
    """Oracle: the dense entry-by-entry product, one element product a time."""
    return tuple(tuple(dense_sum_prod(row, tuple(b[t][j] for t in range(len(b))))
                       for j in range(len(b[0]))) for row in a)


def matrix3_mul(K, a, b):
    """a b as the table product of M_3(K) on integer numerators."""
    M = Matrix3CNS(K)
    return M.to_matrix(M.mul(M.from_matrix(a), M.from_matrix(b)))


def algebra_entry(K, rng):
    r = rng.random()
    if r < 0.25:
        return K.zero()
    return K.random(rng, 4, integral=r < 0.6)


def assert_same_entries(got, want):
    assert got == want
    for row_g, row_w in zip(got, want):
        for x, y in zip(row_g, row_w):
            assert type(x) is type(y) and x.space is y.space
            # lowest terms, so == and hash agree with the entrywise product
            assert x.den > 0 and math.gcd(x.den, *x.num) == 1
            assert (x.num, x.den, x.coords) == (y.num, y.den, y.coords)
            assert hash(x) == hash(y)


@pytest.mark.parametrize("K", [quadratic_field(-1), quadratic_field(F(5, 4)),
                               qalg_make([1, -1, 0, 1])],
                         ids=["gaussian", "quadratic-5/4", "cubic"])
@pytest.mark.parametrize("shape", [(3, 3, 3), (3, 1, 3), (2, 2, 2)])
def test_fused_product_matches_the_entrywise_product(K, shape):
    rng = random.Random(29)
    n, k, m = shape
    for trial in range(30):
        a = tuple(tuple(algebra_entry(K, rng) for _ in range(k)) for _ in range(n))
        b = tuple(tuple(algebra_entry(K, rng) for _ in range(m)) for _ in range(k))
        if trial == 0:
            a = tuple((K.zero(),) * k for _ in range(n))
        want = entrywise(a, b)
        assert_same_entries(mat_mul(a, b), want)
        if shape == (3, 3, 3):
            assert_same_entries(matrix3_mul(K, a, b), want)


def test_products_outside_one_rational_algebra_take_the_entrywise_loop():
    rng = random.Random(31)
    K, E = quadratic_field(-1), quadratic_field(5)
    KE = K.base_change(E)
    twin = quadratic_field(-1)
    assert twin == K and twin is not K
    cases = [
        # E scales K (x) E: two different algebras
        (tuple(tuple(algebra_entry(E, rng) for _ in range(3)) for _ in range(3)),
         tuple(tuple(KE.random(rng) for _ in range(3)) for _ in range(3))),
        # a base-changed tower on both sides
        (tuple(tuple(KE.random(rng) for _ in range(2)) for _ in range(2)),
         tuple(tuple(KE.random(rng) for _ in range(2)) for _ in range(2))),
        # an equal algebra held as another object
        (tuple(tuple(algebra_entry(K, rng) for _ in range(3)) for _ in range(3)),
         tuple(tuple(algebra_entry(twin, rng) for _ in range(3)) for _ in range(3))),
        # rational entries mixed in
        (((K.one(), 2), (F(1, 2), K.gen())), ((K.gen(), K.one()), (K.one(), 0))),
    ]
    wants = [entrywise(a, b) for a, b in cases]
    for (a, b), want in zip(cases, wants):
        assert mat_mul(a, b) == want
    # an equal algebra held as another object is one algebra to M_3(K)
    (a, b), want = cases[2], wants[2]
    assert_same_entries(matrix3_mul(K, a, b), want)
