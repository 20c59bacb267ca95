"""Exact rationals, quotient algebras, and exact linear algebra."""

from fractions import Fraction as F
import gc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cd_conj, cd_mul, cd_norm
import math
import random

from test_linalg_oracle import gauss_jordan_fractions

from cubicnorm.cns import H3CNS, Matrix3CNS, ProductCNS, TrivialCNS
from cubicnorm.cns import CnsElt, cubic_ring_algebra, cubic_ring_table
from cubicnorm.composition import CompAlgebra, CompElt, comp_preset
from cubicnorm.matops import sum_prod
from cubicnorm.presets import cns_preset, second_kind_preset
from cubicnorm import scalars
from cubicnorm.scalars import (
    COMPILE_AT,
    QQ_BASE,
    AlgElem,
    BoundExceededError,
    Certificate,
    CommAlgebra,
    DescriptorError,
    DirectSum,
    HALF,
    IdentityError,
    QuotientAlgebra,
    is_rational,
    kernel,
    map_matrix,
    map_solve,
    poly_discriminant,
    qalg_make,
    qq,
    quadratic_field,
    rational_sqrt,
    scalar_to_str,
    Table,
    Vec,
    _scale_table,
    rational_table,
    table_mul,
    witness_search,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals)
def test_scalar_string_roundtrip(x):
    assert qq(scalar_to_str(x)) == x


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


def _matrix_map(rows, base=QQ_BASE):
    """The map x -> rows x, from base^n to base^m, with its two spaces."""
    dom = DirectSum(*[base] * len(rows[0]))
    cod = DirectSum(*[base] * len(rows))
    return (lambda x: tuple(sum_prod(row, x) for row in rows)), dom, cod


def test_linalg_solve_examples():
    def solve(rows, rhs):
        return map_solve(*_matrix_map(rows), tuple(rhs))

    assert solve([[F(1), F(0)], [F(0), F(1)]], [F(7), F(-2)]) == (F(7), F(-2))
    assert solve([[F(1), F(1)], [F(1), F(-1)]], [F(2), F(0)]) == (F(1), F(1))
    assert solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None


def test_linalg_over_quotient_algebra():
    E = qalg_make([-5, 0, 1])
    f, dom, cod = _matrix_map([[E.one(), E.gen()], [E.gen(), E.one()]], E)
    sol = map_solve(f, dom, cod, (E.elem([1, 1]), E.zero()))
    assert sol is not None
    assert f(sol) == (E.elem([1, 1]), E.zero())
    assert map_solve(f, dom, cod, (E.one(), E.gen() * 0)) is not None


def test_linalg_kernels():
    f, dom, cod = _matrix_map([[F(1), F(2), F(3)], [F(2), F(4), F(6)]])
    ker = [dom.unflatten(v) for v in kernel(map_matrix(f, dom, cod))]
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    E = qalg_make([-5, 0, 1])
    f2, dom2, cod2 = _matrix_map([[E.one(), E.gen()]], E)
    ker2 = [dom2.unflatten(v) for v in kernel(map_matrix(f2, dom2, cod2))]
    assert len(ker2) == 2
    for v in ker2:
        assert (v[0] + E.gen() * v[1]).is_zero()


def test_direct_sum_flat_basis_and_round_trip(rng):
    """B^2 reads numerators slot first, then along B's Q-basis, over one
    denominator, from_num and unflatten invert num_den, and a part of the
    wrong size is refused."""
    B = second_kind_preset("matrix:-1").B
    B2 = DirectSum(B, B)
    n = B.flat_dim()
    assert B2.flat_dim() == 2 * n
    fb = B2.flat_basis()
    assert fb == [(e, B.zero()) for e in B.flat_basis()] + [(B.zero(), e) for e in B.flat_basis()]
    for k, ell in enumerate(fb):
        assert B2.num_den(ell) == (tuple(1 if j == k else 0 for j in range(2 * n)), 1)
    for _ in range(5):
        ell = (B.random(rng, 3, integral=False), B.random(rng, 3, integral=False))
        num, den = B2.num_den(ell)
        flat = [F(k, den) for k in num]
        assert flat == ([F(k, ell[0].den) for k in ell[0].num]
                        + [F(k, ell[1].den) for k in ell[1].num])
        assert math.gcd(den, *num) == 1
        assert B2.from_num(num, den) == ell and B2.unflatten(flat) == ell
    # a rational where a slot wants an element of B fills too few numerators
    with pytest.raises(DescriptorError):
        B2.num_den((B.one(), 1))


def _fraction_coords(y) -> list:
    """Oracle: the Q-coordinates of a direct-sum element, each slot read on
    its own in Fractions."""
    out = []
    for c in y:
        out += [F(k, c.den) for k in c.num] if isinstance(c, Vec) else [F(c)]
    return out


def _oracle_matrix(f, dom, cod) -> list:
    cols = [_fraction_coords(f(e)) for e in dom.flat_basis()]
    return [list(row) for row in zip(*cols)]


def _oracle_kernel(rows) -> list:
    """Fraction Gauss-Jordan, then one vector per free column."""
    pivots, a, _ = gauss_jordan_fractions(rows)
    basis = []
    for fc in range(len(rows[0])):
        if fc not in pivots:
            v = [F(0)] * len(rows[0])
            v[fc] = F(1)
            for i, pc in enumerate(pivots):
                v[pc] = -a[i][fc]
            basis.append(v)
    return basis


def _oracle_solve(rows, rhs):
    """Fraction Gauss-Jordan on [rows | rhs]: the solution with zero free
    variables, or None for a pivot in the right-hand column."""
    n = len(rows[0])
    pivots, a, _ = gauss_jordan_fractions([row + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [F(0)] * n
    for i, pc in enumerate(pivots):
        x[pc] = a[i][n]
    return x


def _assert_linear_algebra_matches_oracle(f, dom, cod, ys) -> None:
    """kernel(map_matrix) and map_solve against the Fraction oracle."""
    rows = _oracle_matrix(f, dom, cod)
    assert [list(v) for v in kernel(map_matrix(f, dom, cod))] == _oracle_kernel(rows)
    for y in ys:
        want = _oracle_solve(rows, _fraction_coords(y))
        x = map_solve(f, dom, cod, y)
        if want is None:
            assert x is None
        else:
            assert _fraction_coords(x) == want and f(x) == y


def test_linear_algebra_over_slots_with_different_denominators():
    """A map from Q + Q(i) + Q(i) to Q(i) + Q + Q whose image slots have
    different denominators: the third Q slot is twice the second, so a
    right-hand side off that line has no solution."""
    E = quadratic_field(-1)
    c1, c2 = E.elem([F(1, 3), F(-2, 3)]), E.elem([F(3, 2), 1])
    dom, cod = DirectSum(QQ_BASE, E, E), DirectSum(E, QQ_BASE, QQ_BASE)

    def f(x):
        r, u, w = x
        t = E.trace(u) * F(1, 2) + r * F(2, 5)
        return u * c1 + w * c2 + E.from_rational(r * F(1, 3)), t, 2 * t

    rng = random.Random(11)
    x0 = (F(-1, 7), E.random(rng, 3, integral=False), E.random(rng, 3, integral=False))
    y0 = f(x0)
    assert y0[0].den != F(y0[1]).denominator
    _assert_linear_algebra_matches_oracle(f, dom, cod, [y0, (y0[0], y0[1], y0[2] + 1)])


def test_linear_algebra_over_a_tower():
    """ell -> ell0 b + ell1 c from B^2 to B for B = M_3(K) over K = Q(i),
    with b singular, so the kernel is larger than dim B."""
    B = second_kind_preset("matrix:-1").B
    rng = random.Random(12)
    b = B.random(rng, 2, integral=False)
    b = B.mul(b, B.from_matrix([[B.base.one()] * 3] * 3))      # rank one
    c = B.random(rng, 2, integral=False)
    c = B.mul(c, B.from_matrix([[B.base.one()] * 3] * 3))
    B2, B1 = DirectSum(B, B), DirectSum(B)

    def f(ell):
        return (B.mul(ell[0], b) + B.mul(ell[1], c),)

    y0 = f((B.random(rng, 2, integral=False), B.random(rng, 2, integral=False)))
    _assert_linear_algebra_matches_oracle(f, B2, B1, [y0, (B.one(),)])


def test_map_solve_rechecks_by_substitution():
    """A map that is not linear gets a wrong answer from its matrix, and the
    substitution re-check reports that as a failed identity."""
    Q1 = DirectSum(QQ_BASE)
    with pytest.raises(IdentityError):
        map_solve(lambda x: (x[0] * x[0] + 1,), Q1, Q1, (F(5),))


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
    # depth two: the flat basis has one vector per flattened coordinate
    L = QuotientAlgebra([1, 0, 1], base=QuotientAlgebra([-2, 0, 1], base=E))
    assert len(L.flat_basis()) == L.flat_dim() == 8
    w = L.gen() + 2
    assert w * L.inv(w) == L.one()


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
               (K.from_rational(q), q), (K.from_scalar(y), x),
               (K.elem([E2.elem(a), E2.elem(b)]), E1.elem(a))]
    # composition-algebra elements, over Q and over Q(sqrt 5)
    H = comp_preset("hamilton")
    HE = H.base_change(E1)
    checked += [(H.from_scalar(q), q), (H.elem([a[0], a[1], 0, 0]), a[0]),
                (H.elem([q, 0, 0, 0]), comp_preset("hamilton").from_scalar(q)),
                (HE.from_scalar(q), q), (HE.from_scalar(y), x), (HE.elem([y, 0, 0, 0]), E1.elem(b)),
                (HE.elem([y, x, 0, 0]), y), (HE.from_scalar(E1.from_rational(q)), q)]
    # s * 1 over the towers the workloads run: Hamilton over a cubic ring T,
    # and a quadratic algebra over T (depth two), against s in T and in Q
    T = cubic_ring_algebra(1, -1, 2, 3)
    HT, KT = H.base_change(T), QuotientAlgebra([1, 0, 1], base=T)
    sT = T.from_rational(q)
    towers = [(HT.from_scalar(q), sT), (HT.from_scalar(q), q), (HT.from_scalar(sT), sT),
              (KT.from_rational(q), sT), (KT.from_rational(q), q), (KT.from_scalar(sT), q),
              (HT.from_scalar(T.elem(a + (q,))), T.elem(a + (q,)))]
    checked += towers
    for lhs, rhs in checked:
        if lhs == rhs:
            assert hash(lhs) == hash(rhs)
    for lhs, rhs in towers:
        assert lhs == rhs and rhs == lhs and hash(lhs) == hash(rhs) and len({lhs, rhs}) == 1
    assert E1.from_rational(q) == q and K.from_rational(q) == q
    assert K.from_scalar(y) == x
    assert H.from_scalar(q) == q and len({H.from_scalar(q), q}) == 1
    assert HE.from_scalar(y) == x and len({HE.from_scalar(y), x}) == 1
    # cubic-norm-structure elements: twin structures agree, a scalar is never equal
    M, ME1, ME2 = Matrix3CNS(), Matrix3CNS(E1), Matrix3CNS(E2)
    checked = [(M.one() * q, Matrix3CNS().one() * q), (M.elem([q] + [0] * 8), q),
               (M.elem([a[0], a[1]] + [0] * 7), Matrix3CNS().elem([a[0], a[1]] + [0] * 7)),
               (ME1.one() * x, ME2.one() * y), (ME1.one() * x, M.one() * a[0]),
               (ME1.elem([x] * 9), ME2.elem([E2.elem(b)] * 9))]
    for lhs, rhs in checked:
        if lhs == rhs:
            assert hash(lhs) == hash(rhs)
    assert ME1.one() * x == ME2.one() * y and len({ME1.one() * x, ME2.one() * y}) == 1
    assert not (M.one() * q == q) and len({M.one() * q, q}) == 2


def hash_by_division(x) -> int:
    """Oracle: the hash of an element read off its unit coordinates u by an
    exact division, s = x_k / u_k at the first k with u_k != 0."""
    unit = x.space.unit_coords
    if unit is not None:
        k = next(i for i, u in enumerate(unit) if u != 0)
        s = x.coords[k] * QQ_BASE.inv(unit[k])
        if x.coords == tuple(s * u for u in unit):
            return hash(s)
    return hash(x.coords)


def _unit_layouts():
    """Algebras whose unit coordinates are (1, 0), (1, 0, 0, 0), (1, 1)
    (F x F on its idempotents) and (0, 1/2) (Q(sqrt 3) on x and 2), plus a
    quadratic field over a quadratic field and quaternions over Q(sqrt 5)."""
    E = quadratic_field(5)
    idempotents = CommAlgebra("FxF", [[(1, 0), (0, 0)], [(0, 0), (0, 1)]], unit_coords=(1, 1))
    halved = CommAlgebra("Q(sqrt 3) on (x, 2)", [[(0, F(3, 2)), (2, 0)], [(2, 0), (0, 2)]],
                         unit_coords=(0, F(1, 2)))
    return [E, idempotents, halved, QuotientAlgebra([1, 0, 1], base=E),
            comp_preset("hamilton").base_change(E)]


@given(st.lists(small, min_size=8, max_size=8), small)
@settings(max_examples=60)
def test_hash_reads_the_unit_pivot_once(coords, s):
    """The hash of an element over a unit with a cached pivot equals the
    hash by exact division, s * 1 hashes as s for an int or a Fraction s,
    and equal elements hash equal."""
    for A in _unit_layouts():
        assert A.unit_pivot is A.unit_pivot
        base = A.base
        lift = (lambda c: c) if base is QQ_BASE else (lambda c: base.from_scalar(c))
        xs = [A.elem([lift(c) for c in coords[:A.dim]]), A.from_scalar(s),
              A.from_scalar(qq(s.numerator)), A.elem([lift(0)] * A.dim)]
        for x in xs:
            assert hash(x) == hash_by_division(x)
        for t in (s, qq(s.numerator), qq(s)):
            assert A.from_scalar(t) == t and hash(A.from_scalar(t)) == hash(t)
        if base is not QQ_BASE:
            y = base.from_scalar(s)
            assert A.from_scalar(y) == y and hash(A.from_scalar(y)) == hash(y)
        twin = A.elem(list(xs[0].coords))
        assert twin == xs[0] and hash(twin) == hash(xs[0])
    E, idempotents, halved = _unit_layouts()[:3]
    assert E.unit_pivot == (0, 1, (), (1,))
    assert idempotents.unit_pivot == (0, 1, ((1, 1),), ())
    assert halved.unit_pivot == (1, 2, (), (0,))
    assert Matrix3CNS().unit_pivot is None


E5, E5_TWIN = quadratic_field(5), quadratic_field(5)


def _dispatch_rows():
    """(label, x = 2*1, another element, 2*1 of an equal but distinct
    structure, 2*1 of a foreign structure of the same kind) per element type."""
    def alg(S, twin, foreign):
        return S.from_rational(2), S.gen(), twin.from_rational(2), foreign.from_rational(2)

    yield "AlgElem/Q", alg(qalg_make([1, 0, 1]), qalg_make([1, 0, 1]), qalg_make([-2, 0, 1]))
    yield "AlgElem/E", alg(QuotientAlgebra([1, 0, 1], base=E5),
                           QuotientAlgebra([1, 0, 1], base=E5_TWIN),
                           QuotientAlgebra([-2, 0, 1], base=E5))
    H, H2, S = comp_preset("hamilton"), comp_preset("hamilton"), comp_preset("split-quaternion")
    yield "CompElt/Q", (H.from_scalar(2), H.basis()[1], H2.from_scalar(2), S.from_scalar(2))
    H, H2, S = H.base_change(E5), H2.base_change(E5_TWIN), S.base_change(E5)
    yield "CompElt/E", (H.from_scalar(2), H.basis()[1], H2.from_scalar(2), S.from_scalar(2))
    for label, (M, M2, foreign) in (
            ("CnsElt/Q", (Matrix3CNS(), Matrix3CNS(), H3CNS(comp_preset("rational")))),
            ("CnsElt/E", (Matrix3CNS(E5), Matrix3CNS(E5_TWIN), TrivialCNS(E5)))):
        yield label, (M.one() * 2, M.basis()[1], M2.one() * 2, foreign.one() * 2)


DISPATCH_OPS = [lambda x, y: x + y, lambda x, y: y + x, lambda x, y: x - y,
                lambda x, y: y - x, lambda x, y: x * y, lambda x, y: y * x,
                lambda x, y: x == y, lambda x, y: y == x]

# per operand, the outcome of x+y, y+x, x-y, y-x, x*y, y*x, x==y, y==x:
# "x" an element of x's structure, "1"/"0" the truth of ==, "T" TypeError,
# "D" DescriptorError.  "E" is 2*1 in Q(sqrt 5), the base of the "/E" rows;
# a float is no exact scalar, so every operation refuses it.
DISPATCH = {
    "AlgElem/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "TTTTTT00", "foreign": "TTTTTT00",
                 "float": "TTTTTT00"},
    "AlgElem/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "xxxxxx11", "foreign": "TTTTTT00",
                  "float": "TTTTTT00"},
    "CompElt/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "TTTTDD00", "foreign": "TTTTDD00",
                  "float": "TTTTTT00"},
    "CompElt/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "xxxxxx11", "foreign": "TTTTDD00",
                  "float": "TTTTTT00"},
    "CnsElt/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "TTTTxx00",
                 "Fraction": "TTTTxx00", "E": "TTTTDD00", "foreign": "TTTTDD00",
                 "float": "TTTTTT00"},
    "CnsElt/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "TTTTxx00",
                 "Fraction": "TTTTxx00", "E": "TTTTxx00", "foreign": "TTTTDD00",
                 "float": "TTTTTT00"},
}


def _dispatch_code(x, op, y) -> str:
    try:
        r = op(x, y)
    except (TypeError, DescriptorError) as exc:
        return "D" if isinstance(exc, DescriptorError) else "T"
    if isinstance(r, bool):
        return str(int(r))
    assert type(r) is type(x) and len(r.coords) == len(x.coords)
    return "x"


def test_operand_dispatch_table():
    for label, (x, same, twin, foreign) in _dispatch_rows():
        operands = {"same": same, "twin": twin, "int": 2, "Fraction": F(2),
                    "E": E5.from_rational(2), "foreign": foreign, "float": 2.0}
        got = {k: "".join(_dispatch_code(x, op, y) for op in DISPATCH_OPS)
               for k, y in operands.items()}
        assert got == DISPATCH[label], label
        # a successful sum with 2*1 doubles x; a scaling by 2 agrees with it
        assert x + twin == x * 2 == 2 * x


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
    with pytest.raises(BoundExceededError, match="^none odd; raise cap$") as exc:
        witness_search([2, 4], odd, "none odd; raise cap")
    assert exc.value.tried == 2 and exc.value.args == ("none odd; raise cap",)
    with pytest.raises(BoundExceededError) as exc:
        witness_search([], odd, "empty", limit=2)
    assert exc.value.tried == 0
    assert BoundExceededError("raised elsewhere").tried is None


def test_certificate_entries_and_failures():
    cert = Certificate()
    cert.check("a", True, witness="dropped")
    cert.check("b", False, witness=1)
    cert.check("c", True)
    cert.check("b", False, witness=2)
    assert cert.certificate == [("a", True, None), ("b", False, 1), ("c", True, None),
                                ("b", False, 2)]
    assert cert.failures == {"b": 1} and not cert.ok()
    assert cert.to_json() == {"ok": False, "certificate": [
        {"identity": n, "status": st} for n, st in
        [("a", "pass"), ("b", "fail"), ("c", "pass"), ("b", "fail")]]}
    with pytest.raises(IdentityError, match="^guaranteed identity failed: d$"):
        cert.require("d", False)
    assert cert.certificate[-1] == ("d", False, None)
    assert Certificate().ok() and Certificate().to_json() == {"certificate": [], "ok": True}


def test_rational_scalars_are_int_when_integral():
    with pytest.raises(DescriptorError):
        QQ_BASE.coerce(0.5)
    with pytest.raises(DescriptorError):
        QQ_BASE.coerce(2.0)
    two = QQ_BASE.coerce(F(4, 2))
    assert type(two) is int and two == 2
    assert QQ_BASE.inv(2) == F(1, 2)
    assert type(QQ_BASE.inv(F(1, 3))) is int and QQ_BASE.inv(F(1, 3)) == 3
    for x in (QQ_BASE.zero(), QQ_BASE.one(), *QQ_BASE.basis(), QQ_BASE.coerce("6/3")):
        assert type(x) is int
    assert type(QQ_BASE.coerce(F(1, 2))) is F


def test_rational_random_draws_are_unchanged():
    """The same rng calls and the same values as a Fraction-valued draw:
    randint(-h, h), then, for a non-integral draw, choice((1, 1, 2, 3))."""
    import random

    rng, ref = random.Random(11), random.Random(11)
    for k in range(300):
        h, integral = k % 5, k % 3 != 0
        got = QQ_BASE.random(rng, h, integral)
        num = ref.randint(-h, h)
        want = F(num) if integral else F(num, ref.choice((1, 1, 2, 3)))
        assert got == want and type(got) is (F if want.denominator != 1 else int)
        assert rng.getstate() == ref.getstate()


def test_int_and_fraction_coordinates_agree():
    """An element with int coordinates and one with equal Fraction
    coordinates are equal and hash alike; the raw constructor keeps only
    the numerators, so the coordinates of either are read off as ints."""
    E = quadratic_field(5)
    H, M = comp_preset("hamilton"), cns_preset("matrix3")
    for space, coords in ((E, (2, -1)), (H, (1, 0, 3, -2)), (M, tuple(range(9)))):
        ints = space.elem(coords)
        fracs = type(ints)(space, tuple(F(c * 2, 2) for c in coords))
        assert all(type(c) is int for c in ints.coords)
        assert all(type(c) is int for c in fracs.coords) and fracs.num == ints.num
        assert ints == fracs and fracs == ints and hash(ints) == hash(fracs)
        assert len({ints, fracs}) == 1
    # s * 1 equals and hashes as the scalar s in either representation
    for x in (AlgElem(E, (F(3), F(0))), CompElt(H, (F(3), F(0), F(0), F(0)))):
        assert x == 3 and hash(x) == hash(3) == hash(F(3))
    assert not (CnsElt(M, (F(1),) * 9) == 1)


def test_coordinates_over_a_base_algebra_are_the_numerators():
    """Over a base other than Q the constructor reads a rational coordinate
    s as s * 1 in the base: the numerators are the ints along the
    Q-flattened coordinates over one denominator, and the coordinates are
    read off them as elements of the base.  Such an element equals and adds
    like the one with coerced coordinates."""
    E = quadratic_field(5)
    HE = comp_preset("hamilton").base_change(E)
    raw, x = CompElt(HE, (F(1, 2), 0, F(-3, 2), 1)), HE.elem([F(1, 2), 0, F(-3, 2), 1])
    assert raw.den == 2 and raw.num == (1, 0, 0, 0, -3, 0, 2, 0)
    assert raw.coords == (E.elem([F(1, 2), 0]), E.zero(), E.elem([F(-3, 2), 0]), E.one())
    assert all(c.alg is E for c in raw.coords)
    assert raw == x and x == raw and raw + raw == x * 2 and raw - x == HE.zero()


def test_fraction_scaling_of_rational_coordinates_over_a_base_algebra():
    """An element over a base algebra built from rational coordinates scales
    by a Fraction: each coordinate divides in the base as s * 1.  The result
    equals, and hashes as, the one built through ``elem``."""
    E = quadratic_field(5)
    HE, KE = comp_preset("hamilton").base_change(E), quadratic_field(2).base_change(E)
    for x, want in ((CompElt(HE, (F(1, 2), 0, 0, 0)) * F(2, 3), HE.elem([F(1, 3), 0, 0, 0])),
                    (AlgElem(KE, (F(1, 2), 0)) * F(2, 3), KE.elem([F(1, 3), 0])),
                    (CompElt(HE, (1, F(-3, 2), 0, 2)) * F(-4, 3), HE.elem([F(-4, 3), 2, 0, F(-8, 3)])),
                    (CompElt(HE, (F(1, 2), 0, 0, 0)) + CompElt(HE, (F(1, 2), 0, 0, 0)), HE.elem([1, 0, 0, 0]))):
        assert x == want and want == x and hash(x) == hash(want)


def _trace_algebras():
    """Every quotient algebra the presets build, the cubic rings of the
    cubic presets, and one base change of each kind to Q(sqrt 7); then
    algebras with non-integral structure constants or unit coordinates."""
    E7 = quadratic_field(7)
    algs = [second_kind_preset(name).K for name in ("matrix", "matrix:5", "tensor", "tensor:-3")]
    algs += [cns_preset(name).alg for name in ("etale-cubic", "etale-cubic:1,2,3,4", "cubic-split")]
    algs += [qalg_make([-2, 0, 0, 1])]
    # Q x Q x Q on the basis 2 e_i, whose unit is (1/2, 1/2, 1/2)
    doubled = CommAlgebra("QxQxQ on 2e_i", [[tuple(2 * (i == j == k) for k in range(3))
                                             for j in range(3)] for i in range(3)],
                          unit_coords=(F(1, 2),) * 3)
    return (algs + [algs[0].base_change(E7), algs[4].base_change(E7)]
            + ONE_DEN_ALGEBRAS + [_unit_layouts()[2], doubled])


def test_cached_trace_matches_regular_matrix(rng):
    """trace, conj and char_s1_s2 from the cached trace vector against the
    regular-matrix formulas they replace."""
    for alg in _trace_algebras():
        zero = alg.base.zero()
        for _ in range(20):
            u = alg.random(rng, 3, integral=False)
            m = alg.regular_matrix(u)
            n = alg.dim
            tr = sum((m[i][i] for i in range(n)), zero)
            assert alg.trace(u) == tr
            if n == 2:
                assert alg.conj(u) == alg.from_scalar(tr) - u
            m2 = sum((m[i][k] * m[k][i] for i in range(n) for k in range(n)), zero)
            assert alg.char_s1_s2(u) == (tr, (tr * tr - m2) * F(1, 2))
            if n == 3:
                assert u * alg.adjoint(u) == alg.from_scalar(alg.norm(u))


# -- integers over one denominator, against the Fraction loop they replace ---


def _tree(x):
    """An element as a tree of Fractions: its rational coordinates, or the
    trees of its coordinates over a base algebra."""
    return F(x) if is_rational(x) else tuple(_tree(c) for c in x.coords)


def _from_tree(S, t):
    """The element with the coordinates of tree t, kept as Fractions."""
    if S.base is QQ_BASE:
        return S.element(S, t)
    return S.element(S, tuple(_from_tree(S.base, c) for c in t))


def _flat(t) -> list:
    return [t] if isinstance(t, F) else [f for c in t for f in _flat(c)]


def _o_zero(S):
    return F(0) if S is QQ_BASE else (_o_zero(S.base),) * S.dim


def _o_add(S, a, b):
    return a + b if S is QQ_BASE else tuple(_o_add(S.base, x, y) for x, y in zip(a, b))


def _o_scale(S, a, s):
    return a * s if S is QQ_BASE else tuple(_o_scale(S.base, x, s) for x in a)


def _o_mul(S, a, b):
    """Oracle: the generic mul_coords loop on Fraction coordinates over the
    rational structure constants, recursing into a base algebra."""
    if S is QQ_BASE:
        return a * b
    out = [_o_zero(S.base)] * S.dim
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod = _o_mul(S.base, ai, bj)
            for k, c in enumerate(S.table[i][j]):
                if c:
                    out[k] = _o_add(S.base, out[k], _o_scale(S.base, prod, F(c)))
    return tuple(out)


class _Over:
    """A Fraction tree of an element of the algebra R, with the oracle's
    +, -, negation, product and scaling, so that ``cd_mul`` runs over R."""

    def __init__(self, R, t):
        self.R, self.t = R, t

    def __add__(self, other):
        return _Over(self.R, _o_add(self.R, self.t, other.t))

    def __neg__(self):
        return _Over(self.R, _o_scale(self.R, self.t, F(-1)))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Over):
            return _Over(self.R, _o_mul(self.R, self.t, other.t))
        return _Over(self.R, _o_scale(self.R, self.t, F(other)))

    __rmul__ = __mul__


def _o_cd(S, f, *trees):
    """The Cayley-Dickson recursion f (``cd_mul``, ``cd_conj`` or
    ``cd_norm``) of a composition algebra S on Fraction trees."""
    if S.base is QQ_BASE:
        return f(S.gammas, *trees)
    out = f(S.gammas, *([_Over(S.base, c) for c in t] for t in trees))
    return out.t if isinstance(out, _Over) else tuple(c.t for c in out)


def _o_product(S):
    """The oracle of the table product of S on Fraction trees, or None when
    S is a cubic norm structure, whose product is its own."""
    if isinstance(S, CommAlgebra):
        return _o_mul
    if isinstance(S, CompAlgebra):
        return lambda S, a, b: _o_cd(S, cd_mul, a, b)
    return None


def _types_ok(x) -> bool:
    """Every rational coordinate is an int exactly when it is integral."""
    return all(type(c) is (int if c.denominator == 1 else F) if is_rational(c) else _types_ok(c)
               for c in x.coords)


def _one_denominator_algebras():
    """A quadratic field with a non-integral table, a cubic quotient algebra,
    a cubic ring whose table carries halves, and that ring base-changed to
    the quadratic field."""
    E = quadratic_field(F(3, 4))
    T = CommAlgebra("T(1/2,1,-3/2,2)", cubic_ring_table(F(1, 2), 1, F(-3, 2), 2))
    return [E, QuotientAlgebra([F(1, 2), F(-3, 2), 0, 1]), T, T.base_change(E)]


ONE_DEN_ALGEBRAS = _one_denominator_algebras()
# composition algebras with non-integral tables, and cubic norm structures
VEC_SPACES_OVER_Q = [CompAlgebra((F(1, 2), -3)), CompAlgebra((2, F(-1, 3), 5)), Matrix3CNS(),
                     H3CNS(comp_preset("hamilton"))]


def _element(S, fracs):
    if S.base is QQ_BASE:
        return S.elem(fracs[:S.dim])
    step = S.base.dim
    return S.elem([_element(S.base, fracs[i * step:]) for i in range(S.dim)])


def _linear_results(S, x, y, q, n) -> list:
    """x + y, x - y, -x, x - x, x * 0, the product where S has one, and the
    scalings of x and y by q, qq(q) and n on either side, each with the
    Fraction tree it should have."""
    tx, ty, zero = _tree(x), _tree(y), _o_zero(S)
    results = [(x + y, _o_add(S, tx, ty)), (x - y, _o_add(S, tx, _o_scale(S, ty, F(-1)))),
               (-x, _o_scale(S, tx, F(-1))), (x - x, zero), (x * 0, zero)]
    mul = _o_product(S)
    if mul is not None:
        results += [(x * y, mul(S, tx, ty)), (y * x, mul(S, ty, tx))]
    for s in (q, qq(q), n):
        results += [(x * s, _o_scale(S, tx, F(s))), (s * y, _o_scale(S, ty, F(s)))]
        if S.unit_coords is not None:
            # a bare scalar on the left of - is s * 1
            results.append((s - x, _o_add(S, _o_scalar(S, s), _o_scale(S, tx, F(-1)))))
    if isinstance(S, CompAlgebra):
        results.append((x.conj(), _o_cd(S, cd_conj, tx)))
    return results


def _assert_results(S, x, y, results) -> None:
    """Each result against its tree: coordinates and their types, == and
    hash with a twin built from the tree, bool, is_zero and the num_den
    round trip; and a composition algebra's norm and trace."""
    tx, ty, zero = _tree(x), _tree(y), _o_zero(S)
    for z, want in results:
        assert _tree(z) == want and _types_ok(z)
        twin = _from_tree(S, want)
        assert z == twin and twin == z and hash(z) == hash(twin)
        assert (z == x) == (want == tx) and (z != y) == (want != ty)
        assert bool(z) == (want != zero) and z.is_zero() == (want == zero)
        num, den = S.num_den(z)
        assert [F(k, den) for k in num] == _flat(want) and S.from_num(num, den) == z
        assert S.unflatten(_flat(want)) == z
    if isinstance(S, CompAlgebra):
        assert _tree(x.norm()) == _o_cd(S, cd_norm, tx)
        assert _tree(x.trace()) == _o_scale(S.base, tx[0], F(2))


@given(st.lists(small, min_size=16, max_size=16), st.lists(small, min_size=16, max_size=16),
       small, st.integers(-6, 6))
@example([F(1, 2)] * 16, [F(-3, 2), 1] * 8, F(1, 2), 2)   # every element over den = 2
@settings(max_examples=60)
def test_one_denominator_matches_fraction_loop(a, b, q, n):
    """+, -, negation, *, scaling by an int or a Fraction, ==, hash, bool,
    is_zero, coords and num_den/from_num against Fraction arithmetic, over
    quotient algebras, composition algebras (with conj, norm and trace) and
    cubic norm structures; and s * 1 equals and hashes as s."""
    for S in ONE_DEN_ALGEBRAS + VEC_SPACES_OVER_Q:
        x, y = _element(S, a), _element(S, b)
        _assert_results(S, x, y, _linear_results(S, x, y, q, n))
        if S.unit_coords is None:
            continue
        for s in (q, qq(q), n):
            for one_s in (S.one() * s, s * S.one(), S.from_scalar(s)):
                assert one_s == s and s == one_s and hash(one_s) == hash(s)


def _o_one(S, s):
    """The tree of s * 1 for a tree s over the base of S."""
    return tuple(_o_scale(S.base, s, F(u)) for u in S.unit_coords)


def _o_scalar(S, s):
    """The tree of s * 1 for a rational s."""
    return _o_one(S, F(s) if S.base is QQ_BASE else _o_scalar(S.base, s))


def _o_unit(S):
    return F(1) if S is QQ_BASE else _o_one(S, _o_unit(S.base))


def _o_trace(S, a):
    """tr(a) as the coordinates weighted by tr(e_i) = sum_k table[i][k][k]."""
    out = _o_zero(S.base)
    for ai, row in zip(a, S.table):
        out = _o_add(S.base, out, _o_scale(S.base, ai, F(sum(row[k][k] for k in range(S.dim)))))
    return out


def _o_det(R, m):
    """Laplace expansion along the first row over R."""
    if len(m) == 1:
        return m[0][0]
    out = _o_zero(R)
    for j, x in enumerate(m[0]):
        term = _o_mul(R, x, _o_det(R, [row[:j] + row[j + 1:] for row in m[1:]]))
        out = _o_add(R, out, term if j % 2 == 0 else _o_scale(R, term, F(-1)))
    return out


def _o_norm(S, a):
    """The determinant of the regular matrix, whose columns are a e_j."""
    units = [tuple(_o_unit(S.base) if k == j else _o_zero(S.base) for k in range(S.dim))
             for j in range(S.dim)]
    return _o_det(S.base, list(zip(*(_o_mul(S, a, e) for e in units))))


def _o_char(S, a):
    """s1 = tr(a) and s2 = (tr(a)^2 - tr(a^2)) / 2."""
    s1 = _o_trace(S, a)
    minus = _o_scale(S.base, _o_trace(S, _o_mul(S, a, a)), F(-1))
    return s1, _o_scale(S.base, _o_add(S.base, _o_mul(S.base, s1, s1), minus), F(1, 2))


def _o_conj_or_adjoint(S, a):
    """tr(a) - a on a quadratic algebra, a^2 - s1 a + s2 on a cubic one."""
    s1, s2 = _o_char(S, a)
    if S.dim == 2:
        return _o_add(S, _o_one(S, s1), _o_scale(S, a, F(-1)))
    s1a = tuple(_o_mul(S.base, s1, x) for x in a)
    return _o_add(S, _o_add(S, _o_mul(S, a, a), _o_scale(S, s1a, F(-1))), _o_one(S, s2))


def _non_rational_path_algebras():
    """Q(sqrt 5), whose elements are the coordinates of the next two; the
    quadratic field x^2 - 3/4 over it; and the cubic ring with a halved
    table over Q(sqrt 7): non-integral tables over a base other than Q."""
    E = quadratic_field(5)
    K = QuotientAlgebra([F(-3, 4), 0, 1], base=E)
    T = CommAlgebra("T(1/2,1,-3/2,2)", cubic_ring_table(F(1, 2), 1, F(-3, 2), 2))
    return [E, K, T.base_change(quadratic_field(7))]


NON_RATIONAL_PATH_ALGEBRAS = _non_rational_path_algebras()
# the composition algebras of VEC_SPACES_OVER_Q over Q(sqrt 5)
COMP_OVER_E5 = [S.base_change(NON_RATIONAL_PATH_ALGEBRAS[0]) for S in VEC_SPACES_OVER_Q[:2]]
# the towers the workloads run: Hamilton quaternions over a cubic ring T,
# as the orbit maps build them, and a quadratic algebra over T (depth two)
T_ORBITS = cubic_ring_algebra(1, -1, 2, 3)
TOWERS = [comp_preset("hamilton").base_change(T_ORBITS),
          QuotientAlgebra([F(-3, 4), 1, 1], base=T_ORBITS)]


def _assert_flat_integers(S, z) -> None:
    """z holds flat_dim ints over one den in lowest terms."""
    assert len(z.num) == S.flat_dim() and all(type(n) is int for n in z.num)
    assert type(z.den) is int and z.den > 0 and math.gcd(z.den, *z.num) == 1


def _assert_tower(S, x, y, s) -> None:
    """Over a tower: flat integer numerators in lowest terms, the product
    (the Kronecker table) and the scaling by an element s of the base
    against the oracle, and block/concat around one coordinate."""
    tx, ty, ts = _tree(x), _tree(y), _tree(s)
    mul = _o_product(S)
    scaled = tuple(_o_mul(S.base, c, ts) for c in tx)
    for z, want in ((x * y, mul(S, tx, ty)), (x * s, scaled), (s * x, scaled)):
        assert _tree(z) == want
    for z in (x, y, x * y, x * s, x + y, x - x):
        _assert_flat_integers(S, z)
    A = TrivialCNS(S.base)
    B = TrivialCNS(S.base) if S.dim == 2 else ProductCNS(CompAlgebra((-1,), base=S.base))
    assert A.dim + B.dim == S.dim
    assert S.concat(x.block(A), x.block(B, A.dim)) == x
    assert S.concat(*(x.block(A, i) for i in range(S.dim))) == x


@given(st.lists(small, min_size=16, max_size=16), st.lists(small, min_size=16, max_size=16),
       small, st.integers(-6, 6), st.integers(1, 6))
@settings(max_examples=40)
def test_numerators_over_any_base_match_coordinate_oracle(a, b, q, n, d):
    """Over Q and over a base algebra, +, -, negation, *, scaling by an int
    or a Fraction on either side, ==, hash, bool, is_zero, coords,
    flatten/unflatten, trace, norm, conj or adjoint, char_s1_s2 and division
    by an int (``from_num``) against a coordinatewise oracle on Fraction
    trees; and the same for composition algebras over Q(sqrt 5), whose
    product, conj and norm are checked against the Cayley-Dickson
    recursion.  Over the towers the workloads run (Hamilton over a cubic
    ring T, a quadratic algebra over T) every element is flat ints over one
    den in lowest terms, and the Kronecker product, scaling by an element
    of T and block/concat match too."""
    for S in NON_RATIONAL_PATH_ALGEBRAS + TOWERS[1:]:
        x, y = _element(S, a), _element(S, b)
        tx = _tree(x)
        results = _linear_results(S, x, y, q, n) + [
            (S.from_num(x.num, x.den * d), _o_scale(S, tx, F(1, d))),
            (S.from_num(tuple(-c for c in x.num), x.den * d), _o_scale(S, tx, F(-1, d))),
            (S.adjoint(x) if S.dim == 3 else S.conj(x), _o_conj_or_adjoint(S, tx))]
        _assert_results(S, x, y, results)
        assert all(z.is_zero() == S.is_zero(z) for z, _ in results)
        assert _tree(S.trace(x)) == _o_trace(S, tx) and _tree(S.norm(x)) == _o_norm(S, tx)
        assert tuple(map(_tree, S.char_s1_s2(x))) == _o_char(S, tx)
    for S in COMP_OVER_E5 + TOWERS[:1]:
        x, y = _element(S, a), _element(S, b)
        _assert_results(S, x, y, _linear_results(S, x, y, q, n))
    for S in TOWERS:
        x, y = _element(S, a), _element(S, b)
        _assert_tower(S, x, y, _element(S.base, b[::-1]))


def test_ratio_by_one_is_the_element_itself():
    """u over its own denominator is u: the base protocol reads an
    element's numerators and den off as they are (``num_den``) and builds
    it back from them (``from_num``), over Q for an element with den > 1,
    and over a quadratic field over Q(sqrt 5)."""
    E = quadratic_field(5)
    L, K = quadratic_field(F(3, 4)), QuotientAlgebra([F(-3, 4), 0, 1], base=E)
    u = L.elem([F(1, 2), F(1, 3)])
    w = K.elem([E.elem([F(1, 2), 1]), E.elem([0, F(1, 3)])])
    assert u.den > 1
    for S, x in ((L, u), (K, w)):
        num, den = S.num_den(x)
        assert num is x.num and den == x.den
        y = S.from_num(num, den)
        assert y == x and (y.num, y.den) == (x.num, x.den) and hash(y) == hash(x)


def test_integral_results_have_int_coordinates():
    """A sum, difference, product, conjugate or scaling of non-integral
    elements whose value is integral has int coordinates, not Fractions."""
    E = quadratic_field(5)
    tau, x = E.elem([F(1, 2), F(1, 2)]), E.elem([F(1, 2), F(-1, 2)])
    T = CommAlgebra("T(1/2,1,-3/2,2)", cubic_ring_table(F(1, 2), 1, F(-3, 2), 2))
    w = T.elem([0, F(1, 2), 0])
    C = CompAlgebra((F(1, 2), -3))
    h, g = C.elem([F(1, 2), F(1, 2), 0, 1]), C.elem([F(-1, 2), F(1, 2), 0, 0])
    M, H = Matrix3CNS(), H3CNS(comp_preset("hamilton"))
    m, k = M.elem(range(9)), H.elem([F(1, 2)] * 3 + [1, F(-3, 2), 0, 0] + [0] * 8)
    for z, want in ((tau + x, (1, 0)), (tau - x, (0, 1)), (tau * x, (-1, 0)),
                    (tau * tau - tau, (1, 0)), (tau * E.conj(tau), (-1, 0)), (x * 2, (1, -1)),
                    (tau * F(4, 3) * F(3, 2), (1, 1)), (E.conj(tau) + tau, (1, 0)),
                    (w * 2, (0, 1, 0)), (w * w * 16, (3, -4, 2)), (w + w, (0, 1, 0)),
                    (h * 2, (1, 1, 0, 2)), (h - g, (1, 0, 0, 1)), (h.conj() + h, (1, 0, 0, 0)),
                    (h * F(4, 3) * F(3, 2), (1, 1, 0, 2)), (h * C.elem([2, 0, 0, 0]), (1, 1, 0, 2)),
                    (m * HALF * 2, tuple(range(9))), (m * HALF + m * HALF, tuple(range(9))),
                    (k * 2, (1, 1, 1, 2, -3) + (0,) * 10), (-k - k, (-1, -1, -1, -2, 3) + (0,) * 10)):
        assert z.coords == want and all(type(c) is int for c in z.coords)


# -- table_mul's compiled kernels against its loop ----------------------------

KERNEL_BASES = {"Q": lambda: QQ_BASE, "Q(sqrt 5)": lambda: quadratic_field(5),
                "tower": lambda: QuotientAlgebra([-3, -1, 1], base=quadratic_field(5))}


def _assert_kernel_matches_loop(t, seed):
    """The compiled kernel equals the loop on zero, basis-vector and dense
    operands, integers of either sign, large ones included: table_mul on
    the cells of t, a table or a structure, as a fresh Table that stays
    cold and as one past COMPILE_AT."""
    cold, hot = Table(t._cells, t._n, 1, 10 ** 9), Table(t._cells, t._n, 1, 0)
    n, m = len(t._cells), 1 + max(j for row in t._cells for j, _ in row)
    rng = random.Random(seed)

    def dense(k):
        return tuple(rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
                     for _ in range(k))

    def basis(k, i):
        return tuple(int(j == i) for j in range(k))

    pairs = [((0,) * n, dense(m)), (dense(n), (0,) * m), ((0,) * n, (0,) * m)]
    pairs += [(dense(n), dense(m)) for _ in range(3)]
    pairs += [(basis(n, i), dense(m)) for i in range(n)]
    pairs += [(dense(n), basis(m, j)) for j in range(m)]
    pairs += [(basis(n, rng.randrange(n)), basis(m, rng.randrange(m))) for _ in range(2 * n)]
    for a, b in pairs:
        want = table_mul(cold, a, b)
        assert table_mul(hot, a, b) == want and len(want) == t._n
    assert cold._kernel is None and hot._kernel is not None


@pytest.mark.parametrize("over", list(KERNEL_BASES))
@pytest.mark.parametrize("name", ["trivial", "fxf", "fxq", "fxq-split", "etale-cubic", "cubic-split",
                                  "matrix3", "h3-rational", "h3-gaussian", "h3-quaternion",
                                  "h3-split-quaternion", "h3-octonion", "h3-split-octonion"])
def test_compiled_kernel_matches_the_loop_on_ground_tables(name, over):
    """Every table of the 13 ground presets, over Q, over Q(sqrt 5) and over
    a depth-two tower: compiled kernel and loop give the same integers."""
    J = cns_preset(name)
    if over != "Q":
        J = J.base_change(KERNEL_BASES[over]())
    tables = [J._sharp, J._cross, J._pairing] + ([J._product] if J.has_mul else [])
    if over == "tower" and name == "h3-octonion":
        tables.remove(J._cross)                 # the largest table has its own test
    for k, t in enumerate(tables):
        _assert_kernel_matches_loop(t, f"{name} {over} {k}")


@pytest.mark.parametrize("over", list(KERNEL_BASES))
def test_compiled_kernel_matches_the_loop_on_algebra_tables(over):
    """The product tables of quotient, cubic and composition algebras, a
    composition algebra's norm table, every base's scaling table
    (``_scale_table``), the matrix kind's star, embed and project tables
    and U(gamma)'s three tables."""
    base = KERNEL_BASES[over]()
    algebras = [quadratic_field(-3), qalg_make([1, -2, 0, 1]),
                cubic_ring_algebra(1, -1, 2, 3), cubic_ring_algebra(F(1, 2), 1, F(-3, 2), 2)]
    if over != "Q":
        algebras = [A.base_change(base) for A in algebras] + [base]
    comps = [comp_preset(name) for name in ("gaussian", "hamilton", "octonion", "split-octonion")]
    comps = [C if over == "Q" else C.base_change(base) for C in comps] + [CompAlgebra((F(1, 2), -3))]
    sk = second_kind_preset("matrix:-1")
    sk = sk if over == "Q" else sk.base_change(base)
    U = cns_preset("cayleyu:2") if over == "Q" else cns_preset("cayleyu:2").base_change(base)
    tables = [sk._star_table, *sk._picture, U._vx, U._vw, U._trace] + algebras + comps
    tables += [C._norm_table for C in comps]
    tables += [_scale_table(dim, A) for A in algebras for dim in (1, 3)]
    tables += [A._cubic_tables[k] for A in algebras if A.dim == 3 for k in range(3)]
    for k, t in enumerate(tables):
        _assert_kernel_matches_loop(t, f"{over} {k}")


def test_largest_tables_compile_and_match():
    """The cross of H_3 over the octonions over a cubic field, 6,468 terms,
    and over a depth-two tower, 9,240 terms, compile (their sums are
    bracketed below the compiler's recursion limit) and equal the loop."""
    J = cns_preset("h3-octonion")
    for base, size in ((qalg_make([-1, 1, 1, 1]), 6468), (KERNEL_BASES["tower"](), 9240)):
        cross = J.base_change(base)._cross
        assert sum(len(cell) for row in cross._cells for _, cell in row) == size
        _assert_kernel_matches_loop(cross, f"h3-octonion cross over {base!r}")


def test_long_sums_compile():
    """An output summed over 3,000 rows, the last of them 3,000 terms long,
    chains the compiler does not take unbracketed, compiles and equals the
    loop."""
    n = 3000
    cells = tuple(((0, ((0, i + 1),)),) for i in range(n - 1)) + (
        tuple((j, ((0, -1),)) for j in range(n)),)
    t = Table(cells, 1, 1)
    a, b = tuple(range(n)), tuple(range(1, n + 1))
    want = (sum(i * (i + 1) for i in range(n - 1)) - (n - 1) * sum(b),)
    assert table_mul(t, a, b) == want
    assert table_mul(Table(cells, 1, 1, 0), a, b) == want


def test_kernel_compiles_once_at_product_n(monkeypatch):
    """A table runs the loop for its first COMPILE_AT - 1 products, compiles
    on the COMPILE_AT-th and keeps that kernel; a structure built on a
    table that has a kernel runs it from its first product."""
    sources = []

    def counted(cells, n):
        sources.append(n)
        return kernel_source(cells, n)

    kernel_source = scalars._kernel_source
    monkeypatch.setattr(scalars, "_kernel_source", counted)
    A = cubic_ring_algebra(5, 7, 11, 13)
    t = A._table
    a, b = (1, 2, 3), (4, 5, 6)
    for _ in range(COMPILE_AT - 1):
        A.mul_coords(a, b)
    assert A._kernel is None and t._kernel is None and sources == []
    want = A.mul_coords(a, b)
    kernel = A._kernel
    assert kernel is not None and t._kernel is kernel and sources == [3]
    for _ in range(5):
        assert A.mul_coords(a, b) == want
    assert A._kernel is kernel and sources == [3]
    B = cubic_ring_algebra(5, 7, 11, 13)
    assert B._table is t and B._kernel is kernel and B.mul_coords(a, b) == want
    assert sources == [3]


def test_dropped_owner_frees_its_kernel():
    """Nothing outside the owner holds its kernel: a dropped table frees
    its kernel, and a dropped structure is freed with nothing pinning it."""
    t = rational_table([(0, 1, 2, 3), (1, 1, 0, -1), (2, 0, 1, 5)], 3)
    for _ in range(COMPILE_AT):
        table_mul(t, (1, 2, 3), (3, 2, 1))
    table_ref, kernel_ref = weakref.ref(t), weakref.ref(t._kernel)
    del t
    gc.collect()
    assert table_ref() is None and kernel_ref() is None
    A = cubic_ring_algebra(3, 1, 4, 1)
    for _ in range(COMPILE_AT):
        A.mul_coords((1, 2, 3), (3, 2, 1))
    assert A._kernel is not None
    alg_ref = weakref.ref(A)
    del A
    gc.collect()
    assert alg_ref() is None


@pytest.mark.parametrize("cell", [F(1, 2), "1) or __import__('os').system('true'", 2.0, True])
def test_kernel_source_takes_int_cells_only(cell):
    """A table holding a cell value other than an int (a Fraction, a string,
    a float, a bool) raises DescriptorError when it is compiled, before any
    source is built; so does an index that is no int, negative or past the
    outputs.  An int constant of any size is formatted."""
    t = Table((((0, ((0, cell),)),),), 1, 1, 0)
    with pytest.raises(DescriptorError):
        table_mul(t, (1,), (1,))
    assert t._kernel is None
    for row in (((0, (("0", 1),)),), (("0", ((0, 1),)),), ((0, ((1, 1),)),), ((-1, ((0, 1),)),)):
        with pytest.raises(DescriptorError):
            table_mul(Table((row,), 1, 1, 0), (1,), (1,))
    big = -3 ** 10000            # past the 4,300-digit limit of an int's decimal string
    assert table_mul(Table((((0, ((0, big),)),),), 1, 1, 0), (2,), (5,)) == (10 * big,)
