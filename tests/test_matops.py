"""The matrix helpers: the sparse sum of products against a dense oracle,
over rationals and over quaternions, where the factor order matters."""

import random
from fractions import Fraction as F
from functools import reduce
from operator import add

import pytest

from cubicnorm.composition import comp_preset
from cubicnorm.matops import mat_times_col, row_times_mat, sum_prod


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
