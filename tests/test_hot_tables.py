"""The composite structures' tables read off their own formulas once hot,
the reader behind them, and M_3's norm as the first row of its adjugate."""

from __future__ import annotations

import gc
import random
from fractions import Fraction as F
from functools import partial

import pytest

from conftest import matrix3_norm, rank4_with_antisym_omega

from cubicnorm import cns
from cubicnorm.cns import (
    CayleyUCNS,
    Matrix3CNS,
    TitsUCNS,
    _read_when_hot,
    cns_axioms_check,
    cubic_ring_algebra,
    second_kind_matrix,
)
from cubicnorm.lifting import second_lift
from cubicnorm.presets import cns_preset
from cubicnorm.scalars import (
    QQ_BASE,
    CommAlgebra,
    DirectSum,
    IdentityError,
    QuotientAlgebra,
    Table,
    quadratic_field,
    read_table,
    table_mul,
)

MAPS = {"cross": {}, "pair": {"into_base": True}, "adjoint": {"quadratic": True}}
HOT_PRESETS = ["titsu-matrix:-1", "titsu-matrix:1", "titsu-tensor:5", "cayleyu:2",
               "cayleyu-comm:3"]


def _formula(U, name):
    """The formula behind one of U's maps, bound to U."""
    return partial(getattr(type(U), name).__wrapped__, U)


def _operands(U, name, rng):
    x, y = U.random(rng, 2, integral=False), U.random(rng, 2, integral=False)
    return (x,) if name == "adjoint" else (x, y)


def _state(U, name):
    return vars(U).get(f"_{name}_hot", 0)


# -- the reader ----------------------------------------------------------------


def test_read_table_keeps_every_ordered_pair_apart():
    """A bilinear map is read over ordered pairs: x0 y1 fills cell (0, 1)
    alone, not (1, 0), and a rational coefficient sets the table's den."""
    Q2 = DirectSum(QQ_BASE, QQ_BASE)
    t = read_table(lambda x, y: x[0] * y[1] * F(1, 3) + 2 * x[1] * y[1], Q2, QQ_BASE)
    assert t.den == 3 and t._n == 1
    assert t._cells == (((1, ((0, 1),)),), ((1, ((0, 6),)),))
    assert table_mul(t, (5, 7), (11, 13)) == (5 * 13 + 6 * 7 * 13,)


def test_read_table_polarizes_a_quadratic_map_into_a_triangle():
    """A quadratic map is read as the triangle i <= j: Q(e_i) on the
    diagonal and Q(e_i + e_j) - Q(e_i) - Q(e_j) above it, nothing below."""
    T = cubic_ring_algebra(1, 0, 0, 1)
    calls = []

    def q(x):
        calls.append(x)
        a, b, c = x.coords
        return a * a - 3 * a * c + F(1, 2) * b * c + 4 * c * c

    t = read_table(q, T, QQ_BASE, quadratic=True)
    assert len(calls) == 3 * 4 // 2
    assert t.den == 2
    assert t._cells == (((0, ((0, 2),)), (2, ((0, -6),))), ((2, ((0, 1),)),), ((2, ((0, 8),)),))
    x = T.elem([F(1, 2), -3, 2])
    assert t.apply(QQ_BASE, x, x) == q(x)


def test_read_table_reads_into_a_base_algebra():
    """Over a base algebra the table is on the flat numerators: each output
    is a run of the base's numerators."""
    E = quadratic_field(5)
    w = E.gen()
    t = read_table(lambda x, y: x * y * w, E, E)
    rng = random.Random(1)
    for _ in range(5):
        x, y = E.random(rng, 3, integral=False), E.random(rng, 3, integral=False)
        assert t.apply(E, x, y) == x * y * w


@pytest.mark.parametrize("over", ["Q", "Q(sqrt 5)"])
@pytest.mark.parametrize("name", HOT_PRESETS)
def test_tables_read_off_the_formulas_match_them(name, over):
    """Each composite preset's cross, pairing and adjoint, read off its own
    formula, equal that formula on non-integral elements, over Q and over
    Q(sqrt 5); the cross and pairing tables are read on n^2 ordered pairs,
    the adjoint's on the n(n + 1)/2 of its triangle."""
    U = cns_preset(name)
    if over != "Q":
        U = U.base_change(quadratic_field(5))
    n = U.flat_dim()
    rng = random.Random(f"{name} {over}")
    for map_name, kind in MAPS.items():
        formula = _formula(U, map_name)
        cod = U.base if kind.get("into_base") else U
        calls = []

        def counted(*xs):
            calls.append(xs)
            return formula(*xs)

        t = read_table(counted, U, cod, kind.get("quadratic", False))
        assert len(calls) == (n * (n + 1) // 2 if kind.get("quadratic") else n * n)
        for _ in range(3):
            xs = _operands(U, map_name, rng)
            assert t.apply(cod, xs[0], xs[-1]) == formula(*xs), map_name


# -- the switch ----------------------------------------------------------------


@pytest.mark.parametrize("name, at", [("titsu-matrix:-1", {"cross": 729, "pair": 729, "adjoint": 378}),
                                      ("cayleyu-comm:3", {"cross": 225, "pair": 225, "adjoint": 120})])
def test_each_map_switches_exactly_at_its_stated_call(name, at, monkeypatch):
    """The formula runs on calls 1 to k - 1; call k, for k = n^2 (n(n + 1)/2
    for the adjoint), reads the table once and returns the formula's value;
    every later call is the table's, with the formula's inputs gone."""
    gc.collect()
    U = cns_preset(name)
    reads = []
    monkeypatch.setattr(cns, "read_table", lambda *a, **k: reads.append(a[0]) or read_table(*a, **k))
    rng = random.Random(name)
    operands = {m: [_operands(U, m, rng) for _ in range(3)] for m in MAPS}
    for map_name in MAPS:
        k = at[map_name]
        ops = operands[map_name]
        formula = _formula(U, map_name)
        for i in range(k - 1):
            getattr(U, map_name)(*ops[i % 3])
        assert _state(U, map_name) == k - 1 and len(reads) == list(MAPS).index(map_name)
        assert getattr(U, map_name)(*ops[0]) == formula(*ops[0])
        assert isinstance(_state(U, map_name), Table)
        assert len(reads) == list(MAPS).index(map_name) + 1
    # the formulas read the blocks of their operands; the tables do not
    monkeypatch.setattr(U, "split", None)
    monkeypatch.setattr(U, "_parts", None, raising=False)
    for map_name in MAPS:
        for xs in operands[map_name]:
            want = _state(U, map_name).apply(U.base if map_name == "pair" else U, xs[0], xs[-1])
            assert getattr(U, map_name)(*xs) == want
    assert len(reads) == 3


def test_a_second_structure_of_one_key_shares_the_tables():
    """Tables are kept by key: a second U(gamma) of the same key reads none
    when it gets hot, and takes the first one's."""
    gc.collect()
    U1, U2 = cns_preset("cayleyu-comm:3"), cns_preset("cayleyu-comm:3")
    rng = random.Random(3)
    x, y = U1.random(rng), U1.random(rng)
    for U in (U1, U2):
        for _ in range(U.flat_dim() ** 2):
            U.cross(x, y)
    assert _state(U1, "cross") is _state(U2, "cross")
    U3 = cns_preset("cayleyu-comm:5")
    x3, y3 = U3.from_num(x.num, x.den), U3.from_num(y.num, y.den)
    for _ in range(U3.flat_dim() ** 2):
        U3.cross(x3, y3)
    assert _state(U3, "cross") is not _state(U1, "cross")


def _patched(base_cls, map_name, extra):
    """A subclass of base_cls whose formula for map_name adds extra(U, *xs)."""
    formula = getattr(base_cls, map_name).__wrapped__

    def patched(self, *xs):
        return formula(self, *xs) + extra(self, *xs)

    patched.__name__ = map_name
    return type(f"Patched{base_cls.__name__}", (base_cls,),
                {map_name: _read_when_hot(**MAPS[map_name])(patched)})


def _rebuilt(cls, U):
    if isinstance(U, TitsUCNS):
        return cls(U.sk, U.S, U.lam)
    return cls(U.comp, U.gamma)


@pytest.mark.parametrize("map_name", list(MAPS))
@pytest.mark.parametrize("name", ["titsu-tensor:5", "cayleyu-comm:3"])
def test_a_formula_that_is_not_bilinear_fails_at_the_switch(name, map_name):
    """A formula with a constant term added reads as a table that disagrees
    with it on the operands of the switching call: IdentityError there."""
    U = cns_preset(name)
    const = (lambda V, *xs: 1) if map_name == "pair" else (lambda V, *xs: V.one())
    V = _rebuilt(_patched(type(U), map_name, const), U)
    n = V.flat_dim()
    k = n * (n + 1) // 2 if map_name == "adjoint" else n * n
    rng = random.Random(f"{name} {map_name}")
    xs = _operands(V, map_name, rng)
    for _ in range(k - 1):
        getattr(V, map_name)(*xs)
    with pytest.raises(IdentityError, match=map_name):
        getattr(V, map_name)(*_operands(V, map_name, rng))


@pytest.mark.parametrize("name", ["titsu-tensor:5", "cayleyu-comm:3"])
def test_an_asymmetric_pairing_stays_asymmetric_after_the_switch(name):
    """A pairing patched with the asymmetric bilinear term x_0 y_1 switches
    without error, since it is bilinear, and then still fails "pairing
    symmetric": its table is read on ordered pairs, not mirrored, and kept
    apart from the unpatched structure's live table of the same key."""
    U = cns_preset(name)
    V = _rebuilt(_patched(type(U), "pair", lambda V, x, y: F(x.num[0] * y.num[1], x.den * y.den)),
                 U)
    rng = random.Random(name)
    x, y = V.random(rng), V.random(rng)
    for _ in range(V.flat_dim() ** 2):
        U.pair(x, y)
        V.pair(x, y)
    t = _state(V, "pair")
    assert isinstance(t, Table) and t is not _state(U, "pair")
    assert dict(t._cells[0]).get(1) != dict(t._cells[1]).get(0)
    report = cns_axioms_check(V, trials=3, seed=1, check_nondegenerate=False)
    assert "pairing symmetric" in report.failures


def test_the_second_lift_reads_no_table(monkeypatch):
    """The U(S, lambda) that second_lift builds for one input calls its
    maps far fewer times than a read would, so it keeps its formulas."""

    def no_read(*args, **kwargs):
        raise AssertionError("a table was read")

    monkeypatch.setattr(cns, "read_table", no_read)
    for D in (-1, 1):
        sk = second_kind_matrix(D)
        res = second_lift(sk, rank4_with_antisym_omega(sk, random.Random(0)))
        assert res.ok()
        U = res.U
        assert not any(isinstance(v, Table) for v in vars(U).values())
        assert all(_state(U, m) < U.flat_dim() for m in MAPS)


def test_the_norm_stays_a_formula():
    """Once every map is a table, the norm is still its own formula: a
    non-integral element's norm is the formula's, never (x, x#) / 3 read
    off the tables."""
    U = cns_preset("titsu-tensor:5")
    rng = random.Random(4)
    x, y = U.random(rng), U.random(rng)
    n = U.flat_dim()
    for _ in range(n * n):
        U.cross(x, y)
        U.pair(x, y)
        U.adjoint(x)
    assert all(isinstance(_state(U, m), Table) for m in MAPS)
    assert "norm" not in vars(U) and not hasattr(TitsUCNS.norm, "__wrapped__")
    assert not hasattr(CayleyUCNS.norm, "__wrapped__")
    assert cns_axioms_check(U, trials=3, seed=2, check_nondegenerate=False).ok()


# -- M_3's norm: the first row of the adjugate ---------------------------------


@pytest.mark.parametrize("over", ["Q", "Q(i)", "Q(sqrt 5)", "tower", "cubic ring", "degree 9"])
def test_matrix3_norm_is_the_determinant(over):
    """N(x) = sum_j x_0j (x#)_j0 equals det x on the matrix picture on
    non-integral elements over Q, quadratic fields, a tower, a cubic ring
    and a base of flat dimension nine, and so does its value at the unit, a
    singular x and a scalar."""
    bases = {"Q": QQ_BASE, "Q(i)": quadratic_field(-1), "Q(sqrt 5)": quadratic_field(5),
             "tower": QuotientAlgebra([-3, -1, 1], base=quadratic_field(5)),
             "cubic ring": cubic_ring_algebra(1, -1, 2, 3),
             "degree 9": QuotientAlgebra([-2, 0, 0, 1], base=QuotientAlgebra([-3, 0, 0, 1]))}
    J = Matrix3CNS(bases[over])
    rng = random.Random(over)
    for _ in range(5 if over == "degree 9" else 20):
        x = J.random(rng, 3, integral=False)
        assert J.norm(x) == matrix3_norm(J, x)
    assert J.norm(J.one()) == J.base.one()
    assert J.norm(J.one() * F(2, 3)) == matrix3_norm(J, J.one() * F(2, 3))
    rows = J.random(rng, 2)
    singular = J.from_num(rows.num[:3 * len(rows.num) // 9] * 3, rows.den)
    assert J.norm(singular) == J.base.zero() == matrix3_norm(J, singular)


def test_matrix3_norm_takes_three_base_products_and_no_determinant(monkeypatch):
    """Over a base algebra the norm is one adjugate kernel call and three
    products of the base, where the determinant took nine."""
    K = quadratic_field(-1)
    J = Matrix3CNS(K)
    x = J.random(random.Random(0), 3, integral=False)
    calls = []
    mul = CommAlgebra.mul_coords
    monkeypatch.setattr(CommAlgebra, "mul_coords", lambda *a: calls.append(a) or mul(*a))
    monkeypatch.setattr(cns, "det", None, raising=False)
    got = J.norm(x)
    n = len(calls)
    assert got == matrix3_norm(J, x)
    assert (n, len(calls)) == (3, 3 + 9)
