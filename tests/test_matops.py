"""The matrix helpers: the sparse sum of products against a dense oracle,
over rationals and over quaternions, where the factor order matters; the
matrix product over an algebra over Q -- ``mat_mul`` and the table product
of ``Matrix3CNS`` over the algebra -- against the entrywise product; the
builders, conjugate transpose, outer product, Hermitian test and inverse
against entrywise oracles, on square and non-square shapes; and
``MatrixSpace``, M_n(C) as a coordinate space, against ``mat_mul``,
``mat_star`` and the entrywise product over a cubic ring."""

import math
import random
from fractions import Fraction as F
from functools import partial, reduce
from operator import add

import pytest

from cubicnorm.cns import Matrix3CNS, cubic_ring_algebra
from cubicnorm.composition import CompAlgebra, comp_preset
from cubicnorm.freudenthal import WSpace, gl2_act, m2_identity, m2_scalar
from cubicnorm.matops import (
    MatrixSpace,
    column,
    mat_block,
    mat_inverse,
    mat_map,
    mat_mul,
    mat_scalar,
    mat_smul,
    mat_star,
    mat_times_col,
    outer,
    row_times_mat,
    sum_prod,
)
from cubicnorm.presets import cns_preset
from cubicnorm.scalars import (DescriptorError, PreconditionError, QuotientAlgebra, qalg_make,
                               quadratic_field)


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


# -- builders, conjugate transpose, outer product, Hermitian test, inverse -----


def quaternion_matrix(rng, rows, cols, height=2):
    H = comp_preset("hamilton")
    return tuple(tuple(H.random(rng, height) for _ in range(cols)) for _ in range(rows))


def test_conjugate_transpose_of_rows_columns_and_non_square_matrices():
    rng = random.Random(41)
    H = comp_preset("hamilton")
    a = quaternion_matrix(rng, 2, 3)
    star = mat_star(a)
    assert len(star) == 3 and all(len(row) == 2 for row in star)
    assert all(star[j][i] == a[i][j].conj() for i in range(2) for j in range(3))
    assert mat_star(a, lambda e: e.conj()) == star and mat_star(star) == a
    # a row's conjugate transpose is a column, and the column of a row is a column
    row = a[0]
    assert mat_star((row,)) == column(tuple(e.conj() for e in row))
    assert column(row) == ((row[0],), (row[1],), (row[2],))
    assert mat_star(column(row)) == (tuple(e.conj() for e in row),)
    # (a b)* = b* a* over the quaternions, where the factor order matters
    b = quaternion_matrix(rng, 3, 2)
    assert mat_star(mat_mul(a, b)) == mat_mul(mat_star(b), mat_star(a))
    assert mat_star(mat_mul(a, b)) != mat_mul(mat_star(a), mat_star(b))
    # another involution: the identity on rationals is the transpose
    r = ((1, F(1, 2), 3), (4, 5, 6))
    assert mat_star(r, lambda e: e) == ((1, 4), (F(1, 2), 5), (3, 6))
    assert mat_star(((H.basis()[1],),)) == ((-H.basis()[1],),)


def test_outer_product_is_the_conjugate_column_times_the_row():
    rng = random.Random(43)
    H = comp_preset("hamilton")
    i, j = H.basis()[1], H.basis()[2]
    assert outer((i,), (j,)) == ((-(i * j),),)
    assert outer((j,), (i,)) == ((-(j * i),),) != outer((i,), (j,))
    for n, m in ((3, 3), (2, 4), (1, 3)):
        u = quaternion_matrix(rng, 1, n)[0]
        v = quaternion_matrix(rng, 1, m)[0]
        got = outer(u, v)
        assert got == tuple(tuple(ui.conj() * vj for vj in v) for ui in u)
        assert got == mat_mul(column(tuple(e.conj() for e in u)), (v,))
        # u* u is Hermitian, u* v is not in general
        assert outer(u, u) == mat_star(outer(u, u))
        if n == m:
            assert got != mat_star(got)


def test_hermitian_test():
    """A matrix over C is Hermitian iff it is its own conjugate transpose
    in M_n(C), the test ``pair_lift`` makes."""
    rng = random.Random(47)
    J = cns_preset("h3-quaternion")

    def hermitian(rows):
        x = MatrixSpace(J.comp, len(rows)).from_rows(rows)
        return x == x.space.star(x)

    m = J.to_matrix(J.random(rng))
    assert hermitian(m)
    i = J.comp.basis()[1]
    bumped = ((m[0][0], m[0][1] + i, m[0][2]), m[1], m[2])
    assert not hermitian(bumped)
    # a diagonal quaternion entry must be real
    assert not hermitian(((i,),))


@pytest.mark.parametrize("kind", ["cns", "composition"])
def test_scalar_matrix_builder(kind):
    rng = random.Random(53)
    if kind == "cns":
        J = cns_preset("matrix3")
        one, zero = J.one(), J.zero()
        assert mat_scalar(2, one, zero) == ((one, zero), (zero, one)) == m2_identity(J)
        assert mat_scalar(2, one * F(2, 3), zero) == m2_scalar(J, F(2, 3))
        assert mat_scalar(1, zero, zero) == ((zero,),)
        W = WSpace(J)
        v = W.random(rng)
        for side in ("left", "right"):
            assert gl2_act(W, mat_scalar(2, one, zero), v, side) == v
        return
    H = comp_preset("hamilton")
    one, zero = H.one(), H.zero()
    eye = mat_scalar(3, one, zero)
    assert all(eye[i][j] == (one if i == j else zero) for i in range(3) for j in range(3))
    a = quaternion_matrix(rng, 3, 3)
    assert mat_mul(eye, a) == a == mat_mul(a, eye)
    # a non-central scalar s: s 1 times a scales on the left, a times s 1 on the right
    s = H.basis()[1] + H.basis()[2] * 2
    sm = mat_scalar(3, s, zero)
    assert mat_mul(sm, a) == tuple(tuple(s * e for e in row) for row in a)
    assert mat_mul(a, sm) == mat_smul(a, s)
    assert mat_mul(sm, a) != mat_mul(a, sm)


def test_entrywise_map_lifts_non_square_matrices():
    rng = random.Random(59)
    E = quadratic_field(7)
    H = comp_preset("hamilton")
    HE = H.base_change(E)
    a = quaternion_matrix(rng, 2, 3)
    lifted = mat_map(HE.extend, a)
    assert len(lifted) == 2 and all(len(row) == 3 for row in lifted)
    assert all(lifted[i][j] == HE.extend(a[i][j]) for i in range(2) for j in range(3))
    # the lift is a ring map: it commutes with products and conjugate transposes
    b = quaternion_matrix(rng, 3, 2)
    assert mat_mul(lifted, mat_map(HE.extend, b)) == mat_map(HE.extend, mat_mul(a, b))
    assert mat_star(lifted) == mat_map(HE.extend, mat_star(a))
    assert mat_map(str, ((1, 2),)) == (("1", "2"),)


def test_block_assembly():
    a = ((1, 2), (3, 4))
    b = ((5,), (6,))
    c = ((7, 8, 9),)
    assert mat_block(((a, b), (c,))) == ((1, 2, 5), (3, 4, 6), (7, 8, 9))
    assert mat_block(((a,),)) == a
    # the 6 x 6 S(v) layout over the quaternions keeps each block in place
    rng = random.Random(61)
    blocks = [[quaternion_matrix(rng, 3, 3) for _ in range(2)] for _ in range(2)]
    m = mat_block(blocks)
    assert all(m[3 * p + i][3 * q + j] == blocks[p][q][i][j]
               for p in range(2) for q in range(2) for i in range(3) for j in range(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_over_the_quaternions(n):
    rng = random.Random(67 + n)
    H = comp_preset("hamilton")
    one, zero = H.one(), H.zero()
    eye = mat_scalar(n, one, zero)
    m = tuple(tuple(H.random(rng, 1) + (one * 4 if i == j else zero) for j in range(n))
              for i in range(n))
    inv = mat_inverse(m, H)
    assert mat_mul(m, inv) == eye and mat_mul(inv, m) == eye
    # a 1 x 1 inverse is x* / n(x)
    if n == 1:
        assert inv == ((m[0][0].conj() * (1 / F(m[0][0].norm())),),)
    # the inverse of a conjugate transpose is the conjugate transpose of the inverse
    assert mat_inverse(mat_star(m), H) == mat_star(inv)
    # singular: a zero row, and a row that is a left combination of the others
    with pytest.raises(PreconditionError):
        mat_inverse(((zero,) * n,) + m[1:], H)
    if n > 1:
        s = H.basis()[2]
        with pytest.raises(PreconditionError):
            mat_inverse(m[:-1] + (tuple(s * e for e in m[0]),), H)


def test_inverse_over_a_base_changed_algebra():
    E = quadratic_field(5)
    HE = comp_preset("hamilton").base_change(E)
    one, zero = HE.one(), HE.zero()
    root = HE.from_scalar(E.gen())
    u = ((one, root * HE.basis()[1]), (zero, one))
    inv = mat_inverse(u, HE)
    assert inv == ((one, -(root * HE.basis()[1])), (zero, one))
    assert mat_mul(u, inv) == mat_scalar(2, one, zero)


# -- MatrixSpace: M_n(C) as a coordinate space -------------------------------

# a gamma of 1/2 gives C a table denominator of 2
SPACE_COMPS = ["rational", "gaussian", "hamilton", "split-quaternion", "quaternion:1/2,-3",
               "octonion"]


def comp_matrix(C, rng, n, height=3):
    """Random rows over C, rational coordinates and zero entries included."""
    return tuple(tuple(C.zero() if rng.random() < 0.2 else C.random(rng, height, False)
                       for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("name", SPACE_COMPS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_space_product_matches_mat_mul(name, n):
    """The table product equals mat_mul entry by entry, the factor order kept
    (octonions included: the table is the entrywise product, not a law)."""
    C = comp_preset(name)
    M = MatrixSpace(C, n)
    rng = random.Random(31 + n)
    for _ in range(6):
        a, b = comp_matrix(C, rng, n), comp_matrix(C, rng, n)
        x, y = M.from_rows(a), M.from_rows(b)
        assert M.rows(x) == a and M.from_rows(M.rows(x)) == x
        assert M.rows(M.row_matrix(a[-1])) == (a[-1],) + ((C.zero(),) * n,) * (n - 1)
        assert M.rows(M.row_matrix(a[0]) * y)[0] == row_times_mat(a[0], b)
        got, want = M.rows(x * y), mat_mul(a, b)
        for i in range(n):
            for j in range(n):
                assert got[i][j] == want[i][j]
        assert M.rows(M.star(x)) == mat_star(a)
        assert M.star(M.star(x)) == x
        assert M.one() * x == x == x * M.one()
        assert M.rows(x * F(2, 3) + y) == tuple(
            tuple(e * F(2, 3) + f for e, f in zip(ra, rb)) for ra, rb in zip(a, b))


@pytest.mark.parametrize("name", SPACE_COMPS)
def test_space_one_is_the_scalar_matrix(name):
    C = comp_preset(name)
    for n in (1, 2, 3):
        M = MatrixSpace(C, n)
        assert M.rows(M.one()) == mat_scalar(n, C.one(), C.zero())
        assert M.one() == 1 and M.zero() == 0
        assert M.rows(M.one() * F(5, 2) - 1) == mat_scalar(n, C.from_scalar(F(3, 2)), C.zero())
        assert M.dim == n * n * C.dim and M.ground is M


@pytest.mark.parametrize("name", ["rational", "gaussian", "hamilton", "split-quaternion",
                                  "quaternion:1/2,-3"])
@pytest.mark.parametrize("coeffs", [(2, -3, 5, 7), (F(1, 2), -3, F(5, 3), 7)])
def test_component_products_over_a_cubic_ring(name, coeffs):
    """Over T the product goes along T's components: a factor over Q, a
    factor over T and two factors over T each equal the entrywise product,
    as do x lam for lam in T, the conjugate transpose and the components;
    the second T has a table denominator of 6."""
    T = cubic_ring_algebra(*coeffs)
    C = comp_preset(name)
    CT = C.base_change(T)
    M, MT = MatrixSpace(C), MatrixSpace(CT)
    assert MT.ground == M and MT.dim == M.dim
    rng = random.Random(7)
    lift = partial(mat_map, CT.extend)
    for _ in range(4):
        a, b = comp_matrix(C, rng, 3), comp_matrix(C, rng, 3)
        at, bt = comp_matrix(CT, rng, 3, 2), comp_matrix(CT, rng, 3, 2)
        x, y = M.from_rows(a), M.from_rows(b)
        xt, yt = MT.from_rows(at), MT.from_rows(bt)
        assert MT.rows(xt) == at and MT.rows(MT.star(xt)) == mat_star(at)
        assert MT.rows(MT.mul(x, yt)) == mat_mul(lift(a), bt)
        assert MT.rows(MT.mul(xt, y)) == mat_mul(at, lift(b))
        assert MT.rows(xt * yt) == MT.rows(MT.mul(xt, yt)) == mat_mul(at, bt)
        lam = T.random(rng, 3, False)
        assert MT.rows(xt * lam) == tuple(tuple(e * lam for e in r) for r in at)
        assert M.rows(x * F(1, 2)) == tuple(tuple(e * F(1, 2) for e in r) for r in a)
        parts = [xt.component(M, a) for a in range(3)]
        assert MT.from_components(parts) == xt
        assert parts == [M.from_rows(tuple(tuple(e.component(C, a) for e in r) for r in at))
                         for a in range(3)]
        assert MT.from_rows(lift(a)) == MT.from_components([x, M.zero(), M.zero()])
        assert MT.one() * xt == xt == xt * MT.one()


def test_spaces_compare_and_hash_by_size_and_algebra():
    H = comp_preset("hamilton")
    T = cubic_ring_algebra(1, 2, 3, 4)
    assert MatrixSpace(H) == MatrixSpace(comp_preset("hamilton"), 3)
    assert hash(MatrixSpace(H)) == hash(MatrixSpace(CompAlgebra((-1, -1))))
    T2 = cubic_ring_algebra(1, 2, 3, 4)
    assert T2 is not T and MatrixSpace(H.base_change(T)) == MatrixSpace(H.base_change(T2))
    assert hash(MatrixSpace(H.base_change(T))) == hash(MatrixSpace(H.base_change(T)))
    assert MatrixSpace(H, 2) != MatrixSpace(H, 3)
    assert MatrixSpace(H) != MatrixSpace(comp_preset("split-quaternion"))
    assert MatrixSpace(H) != MatrixSpace(H.base_change(T))
    x = MatrixSpace(H).one()
    assert x == MatrixSpace(CompAlgebra((-1, -1))).one()


def test_only_the_rational_space_holds_a_product_table():
    """Each cubic ring brings its own table, so a space over T builds none:
    its product is the record of the table over Q, shared by every space of
    its key, with T's table, which holds no cells, and its kernel is shared
    by every T of one shape."""
    H = comp_preset("hamilton")
    M = MatrixSpace(H)
    assert M._table is MatrixSpace(comp_preset("hamilton"))._table
    assert len(M._table._cells) == 36 and sum(len(cell) for row in M._table._cells
                                               for _, cell in row) == 27 * 16
    for base, other in ((cubic_ring_algebra(1, 0, -2, 1), cubic_ring_algebra(2, 1, 1, -3)),
                        (quadratic_field(-1), quadratic_field(-1))):
        MT = MatrixSpace(H.base_change(base))
        assert not hasattr(MT._table, "_cells") and "_cells" not in vars(MT)
        assert MT.ground._table is M._table and MT._table.ground is M._table
        MO = MatrixSpace(H.base_change(other))
        assert MO._table.ground is M._table and MO._table._shape == MT._table._shape
        for S in (MT, MO):
            x = S.one()
            assert x * x == x
        assert MO._table._kernel.__code__ is MT._table._kernel.__code__
        assert MT._table._shape in M._table._kernels
    with pytest.raises(DescriptorError):
        MatrixSpace(H.base_change(QuotientAlgebra([1, 0, 1], base=quadratic_field(5))))
