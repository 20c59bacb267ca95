"""Tables over a base are records: a ground table over Q and the base's
table, with no cells of their own, and one kernel per (ground table, base
shape) shared by every base of that shape.  Each record is checked against
its table materialized cell by cell (``conftest.kron_cells``)."""

import random
import re
from types import SimpleNamespace

import pytest

from conftest import (kron_cells, kron_table, record_kernels, record_loop, scale_oracle,
                      table_loop, tensor_cross_loop)
from cubicnorm import scalars
from cubicnorm.cns import H3CNS, Matrix3CNS, cubic_ring_algebra, tensor_cross
from cubicnorm.composition import _cd_table, comp_preset
from cubicnorm.matops import MatrixSpace, _matrix_table
from cubicnorm.presets import cns_preset
from cubicnorm.scalars import (
    DescriptorError,
    QuotientAlgebra,
    Table,
    qalg_make,
    quadratic_field,
    rational_table,
    table_mul,
    table_over,
)

GROUND = ["trivial", "fxf", "fxq", "fxq-split", "etale-cubic", "cubic-split", "matrix3",
          "h3-rational", "h3-gaussian", "h3-quaternion", "h3-split-quaternion", "h3-octonion",
          "h3-split-octonion"]
CHAINS = [(), (-1,), (1,), (-1, -1), (1, 1), (-1, -1, -1), (1, 1, 1)]

# one binary cubic per zero pattern of its ring's structure constants, over
# every nondegenerate pattern: w t = -ad, w^2 = -ac - b w + a t, t^2 = -bd - d w + c t
CUBICS = [(1, 1, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 0),
          (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]

BASES = {"Q(i)": lambda: quadratic_field(-1), "Q(sqrt 5)": lambda: quadratic_field(5),
         "split": lambda: qalg_make([-1, 0, 1]),
         "tower": lambda: QuotientAlgebra([-3, -1, 1], base=quadratic_field(5)),
         **{f"T{c}": (lambda c=c: cubic_ring_algebra(*c)) for c in CUBICS}}


def ground_tables() -> list[Table]:
    """Every TableCNS preset's four tables, every Cayley-Dickson chain's
    product and norm, and M_3(C)'s product for the associative chains."""
    tables = []
    for name in GROUND:
        J = cns_preset(name)
        tables += [J._sharp, J._cross, J._pairing] + ([J._product] if J.has_mul else [])
    for gammas in CHAINS:
        product, _, norm = _cd_table(gammas)
        tables += [product, norm]
    return tables + [_matrix_table(3, gammas) for gammas in CHAINS if len(gammas) < 3]


def operand(rng, n: int, m: int) -> tuple:
    """n runs of m numerators, some runs zero, entries of either sign."""
    return tuple(x for _ in range(n)
                 for x in ((0,) * m if rng.random() < 0.3 else
                           (rng.choice((0, 1, -1, rng.randint(-99, 99))) for _ in range(m))))


@pytest.mark.parametrize("over", list(BASES))
def test_records_are_their_tables_materialized(over):
    """Over each base, every ground table's record multiplies, in the record
    loop, through table_mul and in both kernel forms, contracts and scales
    as the Kronecker product of the ground table with the base's table,
    built cell by cell."""
    base = BASES[over]()
    m, rng = base._n, random.Random(over)
    for g in ground_tables():
        t = table_over(g, base._table)
        assert t is table_over(g, base._table) and not hasattr(t, "_cells")
        assert (t._n, t.den) == (g._n * m, g.den * base.table_den)
        want = kron_table(g, base)
        rows, cols = len(g._cells), 1 + max(j for row in g._cells for j, _ in row)
        for _ in range(3):
            a, b = operand(rng, rows, m), operand(rng, cols, m)
            expected = table_loop(want, a, b)
            assert record_loop(t, a, b) == expected and table_mul(t, a, b) == expected
            assert all(k(a, b) == expected for k in record_kernels(t))
            x = SimpleNamespace(num=b)
            assert t.contract(x) == want.contract(x)
        assert t.contract(SimpleNamespace(num=(0,) * (cols * m))) == [[0] * (rows * m)] * t._n
    for dim in (1, 3, 9):
        num, s = operand(rng, dim, m), operand(rng, 1, m)
        assert base.scale_coords(num, s) == scale_oracle(base, num, s)


@pytest.mark.parametrize("c", CUBICS[:4], ids=str)
def test_tensor_cross_is_the_loop(c, rng):
    """x x_T y, one kernel call on J's cross over T's cross, equals the sum
    of J-crosses scaled by T-crosses of basis vectors, over cubic rings of
    several zero patterns."""
    T = cubic_ring_algebra(*c)
    for J in (H3CNS(comp_preset("gaussian")), Matrix3CNS()):
        JT = J.base_change(T)
        for _ in range(3):
            x, y = JT.random(rng, 2, integral=False), JT.random(rng, 2)
            assert tensor_cross(JT, J, x, y) == tensor_cross_loop(JT, J, x, y)
        e = JT.basis()[1]
        assert tensor_cross(JT, J, e, x) == tensor_cross_loop(JT, J, e, x)


def test_two_quadratic_fields_share_one_kernel(monkeypatch):
    """Records of one ground table over Q(sqrt 7) and Q(sqrt -3) are two
    records of one key: the first product over either compiles the key's
    ``make`` once, kept on the ground table, and both run it, each with its
    own D bound."""
    sources = []
    kernel_source = scalars._kernel_source
    monkeypatch.setattr(scalars, "_kernel_source",
                        lambda *args: sources.append(args[2:]) or kernel_source(*args))
    g = rational_table([(0, 1, 2, 3), (1, 1, 0, -1), (2, 0, 1, 5), (2, 2, 2, 1)], 3)
    E7, E3 = quadratic_field(7), quadratic_field(-3)
    t7, t3 = table_over(g, E7._table), table_over(g, E3._table)
    shape = t7._shape
    assert t7 is not t3 and t3._shape == shape and t7._args != t3._args
    assert g._kernels == {} and t7._kernel is None and t3._kernel is None and sources == []
    a, b = (1, 2, 0, -1, 3, 5), (2, -1, 4, 0, 1, 1)
    want7, want3 = table_loop(kron_table(g, E7), a, b), table_loop(kron_table(g, E3), a, b)
    assert table_mul(t7, a, b) == want7
    make = g._kernels[shape]
    assert len(sources) == 1 and list(g._kernels) == [shape] and t3._kernel is None
    assert table_mul(t3, a, b) == want3 and len(sources) == 1 and g._kernels[shape] is make
    assert t3._kernel.__code__ is t7._kernel.__code__ and t3._kernel is not t7._kernel
    for k in range(4):
        assert table_mul(t7 if k % 2 else t3, a, b) == (want7 if k % 2 else want3)
    kernel7 = t7._kernel
    assert t7._compile() is kernel7 and len(sources) == 1 and g._kernel is None


def test_a_record_past_fused_calls_its_grounds_kernel(monkeypatch):
    """A record whose ground terms times base cells pass _FUSED compiles
    sliced: its key's make calls the ground table's own kernel, compiled
    once and kept on the ground table.  At _FUSED and below it runs in one
    line, and the ground compiles nothing."""
    sources = []
    kernel_source = scalars._kernel_source
    monkeypatch.setattr(scalars, "_kernel_source",
                        lambda *args: sources.append(args[2:]) or kernel_source(*args))
    rng = random.Random(11)
    for n, base, sliced in ((12, quadratic_field(5), False), (16, quadratic_field(5), False),
                            (12, cubic_ring_algebra(1, 1, 1, 1), True)):
        g = rational_table([(i, j, (i + j) % n, 1 + i * j % 3) for i in range(n) for j in range(n)], n)
        t = table_over(g, base._table)
        terms, cells = scalars._terms(g._cells), sum(map(len, t._shape))
        assert (terms * cells > scalars._FUSED) == sliced and terms + cells < scalars._FUSED
        a, b = operand(rng, n, base._n), operand(rng, n, base._n)
        sources.clear()
        assert table_mul(t, a, b) == table_loop(kron_table(g, base), a, b)
        assert sources == ([(t._shape, True), ()] if sliced else [(t._shape, False)])
        assert (g._kernel is not None) == sliced
        assert table_mul(t, a, b) == table_loop(kron_table(g, base), a, b) and len(sources) == 1 + sliced


def test_bases_of_a_kind_share_a_shape():
    """Every cubic ring over Q with integral constants, in every zero
    pattern, has one shape; Q(sqrt D) for every D but +-1 has one, and
    Q(i) and the split Q[x]/(x^2 - 1) their own, with D inlined."""
    shapes = {c: scalars._as_base(cubic_ring_algebra(*c)._table)[1] for c in CUBICS}
    assert len(set(shapes.values())) == 1
    quadratic = {D: scalars._as_base(quadratic_field(D)._table) for D in (5, -3, 7, -1, 1)}
    assert len({quadratic[D][1] for D in (5, -3, 7)}) == 1
    assert len({quadratic[D][1] for D in (5, -1, 1)}) == 3
    assert [quadratic[D][2] for D in (5, -1, 1)] == [(5,), (), ()]


def test_records_over_odd_tables_are_their_tables_materialized():
    """A ground table with an output no cell reaches, over Q(sqrt 5) and
    over a base table that is no unital algebra's (e_1 e_1 = 3 e_0 alone,
    so no cell reaches e_1 and row 0 is empty): the record's loop, both
    kernel forms, table_mul on it and its contraction still equal the
    materialized table."""
    g = rational_table([(0, 1, 0, 2), (1, 1, 2, -1), (1, 0, 0, 1)], 2, 3)
    rng = random.Random(7)
    for base in (quadratic_field(5)._table, Table(((), ((1, ((0, 3),)),)), 2, 1)):
        t = table_over(g, base)
        want = Table(kron_cells(g, SimpleNamespace(_table=base, _n=2)), 6, g.den * base.den)
        for _ in range(4):
            a, b = operand(rng, 2, 2), operand(rng, 2, 2)
            expected = table_loop(want, a, b)
            assert record_loop(t, a, b) == expected and table_mul(t, a, b) == expected
            assert all(k(a, b) == expected for k in record_kernels(t))
            assert t.contract(SimpleNamespace(num=b)) == want.contract(SimpleNamespace(num=b))


# a well-formed shape on a base of dimension 2: e_0 its unit, e_1 e_1 -> c e_0
GOOD_SHAPE = (((0, ((0, 1),)), (1, ((1, 1),))), ((0, ((1, 1),)), (1, ((0, None),))))


@pytest.mark.parametrize("cell", [(2, 0, 1), (0, 2, 1), (-1, 0, 1), (0, -1, 1), ("0", 0, 1),
                                  (0, 0, 2), (0, 0, True)], ids=str)
def test_kernel_source_takes_a_well_formed_shape_only(cell):
    """A base shape's cells (t, u, mark) must hold int indices below the
    base's dimension and a mark +-1 or None (an argument): any other cell
    raises DescriptorError before a line of source is built."""
    g = rational_table([(0, 0, 0, 1), (0, 1, 1, 2), (1, 1, 0, 3)], 2)
    assert "def make(c0, ):" in scalars._kernel_source(g._cells, g._n, GOOD_SHAPE)
    t, u, mark = cell
    with pytest.raises(DescriptorError, match="base cell"):
        scalars._kernel_source(g._cells, g._n, (GOOD_SHAPE[0], ((t, ((u, mark),)),)))


def test_a_sub_product_is_a_local_only_where_several_base_cells_read_it():
    """Over Q(sqrt 5) every base cell (s, t) has one output, so each ground
    sub-product is written in line; over a cubic ring the cells (s, t) with
    s, t > 0 feed all three outputs, and exactly their sub-products are
    locals."""
    g = cns_preset("matrix3")._sharp
    for base, shared in ((quadratic_field(5), set()),
                         (cubic_ring_algebra(1, 2, 3, 4), {(1, 1), (1, 2), (2, 1), (2, 2)})):
        src = scalars._kernel_source(g._cells, g._n, scalars._as_base(base._table)[1])
        assigned = re.findall(r"^\s*p(\d+)_(\d+)_\d+ = ", src, re.M)
        assert {(int(s), int(t)) for s, t in assigned} == shared
        assert len(assigned) == len(shared) * g._n


def _work_over(T, rng):
    """Products, scalings, crosses, pairings and the tensor cross of a
    Hermitian structure, its coordinate algebra and M_3 of it over T."""
    J = H3CNS(comp_preset("hamilton"))
    JT, C = J.base_change(T), comp_preset("hamilton").base_change(T)
    x, y, c = JT.random(rng), JT.random(rng), C.random(rng)
    JT.adjoint(x), JT.cross(x, y), JT.pair(x, y), c * c, c.norm(), x * T.random(rng)
    tensor_cross(JT, J, x, y)
    M = MatrixSpace(C)
    M.random(rng) * M.random(rng)


def test_work_over_a_new_base_builds_no_table(monkeypatch):
    """Once the tables over Q a kind of work needs exist, the same work over
    a new cubic ring T builds no Table past T's own."""
    rng = random.Random(3)
    _work_over(cubic_ring_algebra(1, 2, 3, 4), rng)
    T = cubic_ring_algebra(2, -1, 3, 5)
    T.cross(T.one(), T.one())
    built = []
    init = Table.__init__
    monkeypatch.setattr(Table, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    _work_over(T, rng)
    assert built == []
