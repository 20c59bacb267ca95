"""Exact rationals, quotient algebras, and exact linear algebra."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnorm.cns import H3CNS, Matrix3CNS, TrivialCNS
from cubicnorm.cns import CnsElt, cubic_ring_table
from cubicnorm.composition import CompElt, comp_preset
from cubicnorm.matops import sum_prod
from cubicnorm.presets import cns_preset, second_kind_preset
from cubicnorm.scalars import (
    QQ_BASE,
    AlgElem,
    BoundExceededError,
    Certificate,
    CommAlgebra,
    DescriptorError,
    DirectSum,
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
    """B^2 flattens slot first, then along B's Q-basis, and unflatten
    inverts flatten."""
    B = second_kind_preset("matrix:-1").B
    B2 = DirectSum(B, B)
    n = B.flat_dim()
    assert B2.flat_dim() == 2 * n
    fb = B2.flat_basis()
    assert fb == [(e, B.zero()) for e in B.flat_basis()] + [(B.zero(), e) for e in B.flat_basis()]
    for k, ell in enumerate(fb):
        assert B2.flatten(ell) == [1 if j == k else 0 for j in range(2 * n)]
    for _ in range(5):
        ell = (B.random(rng, 3, integral=False), B.random(rng, 3, integral=False))
        flat = B2.flatten(ell)
        assert flat == B.flatten(ell[0]) + B.flatten(ell[1])
        assert B2.unflatten(flat) == ell


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
# "D" DescriptorError.  "E" is 2*1 in Q(sqrt 5), the base of the "/E" rows.
DISPATCH = {
    "AlgElem/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "TTTTTT00", "foreign": "TTTTTT00"},
    "AlgElem/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "xxxxxx11", "foreign": "TTTTTT00"},
    "CompElt/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "TTTTDD00", "foreign": "TTTTDD00"},
    "CompElt/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "xxxxxx11",
                  "Fraction": "xxxxxx11", "E": "xxxxxx11", "foreign": "TTTTDD00"},
    "CnsElt/Q": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "TTTTxx00",
                 "Fraction": "TTTTxx00", "E": "TTTTDD00", "foreign": "TTTTDD00"},
    "CnsElt/E": {"same": "xxxxxx00", "twin": "xxxxxx11", "int": "TTTTxx00",
                 "Fraction": "TTTTxx00", "E": "TTTTxx00", "foreign": "TTTTDD00"},
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
                    "E": E5.from_rational(2), "foreign": foreign}
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
    with pytest.raises(BoundExceededError, match="^none odd; raise cap$"):
        witness_search([2, 4], odd, "none odd; raise cap")
    with pytest.raises(BoundExceededError):
        witness_search([], odd, "empty", limit=2)


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
    coordinates (kept as Fractions by the raw constructor) are equal and
    hash alike."""
    E = quadratic_field(5)
    H, M = comp_preset("hamilton"), cns_preset("matrix3")
    for space, coords in ((E, (2, -1)), (H, (1, 0, 3, -2)), (M, tuple(range(9)))):
        ints = space.elem(coords)
        fracs = type(ints)(space, tuple(F(c * 2, 2) for c in coords))
        assert all(type(c) is int for c in ints.coords)
        assert all(type(c) is F for c in fracs.coords)
        assert ints == fracs and fracs == ints and hash(ints) == hash(fracs)
        assert len({ints, fracs}) == 1
    # s * 1 equals and hashes as the scalar s in either representation
    for x in (AlgElem(E, (F(3), F(0))), CompElt(H, (F(3), F(0), F(0), F(0)))):
        assert x == 3 and hash(x) == hash(3) == hash(F(3))
    assert not (CnsElt(M, (F(1),) * 9) == 1)


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
                assert alg.conj(u) == alg.scalar_mul_one(tr) - u
            m2 = sum((m[i][k] * m[k][i] for i in range(n) for k in range(n)), zero)
            assert alg.char_s1_s2(u) == (tr, (tr * tr - m2) * F(1, 2))
            if n == 3:
                assert u * alg.adjoint(u) == alg.scalar_mul_one(alg.norm(u))


# -- integers over one denominator, against the Fraction loop they replace ---


def _tree(x):
    """An element as a tree of Fractions: its rational coordinates, or the
    trees of its coordinates over a base algebra."""
    return F(x) if is_rational(x) else tuple(_tree(c) for c in x.coords)


def _from_tree(S, t):
    """The element with the coordinates of tree t, kept as Fractions."""
    if S.base is QQ_BASE:
        return AlgElem(S, t)
    return AlgElem(S, tuple(_from_tree(S.base, c) for c in t))


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


def _element(S, fracs):
    if S.base is QQ_BASE:
        return S.elem(fracs[:S.dim])
    step = S.base.dim
    return S.elem([_element(S.base, fracs[i * step:]) for i in range(S.dim)])


@given(st.lists(small, min_size=6, max_size=6), st.lists(small, min_size=6, max_size=6),
       small, st.integers(-6, 6))
@settings(max_examples=60)
def test_one_denominator_matches_fraction_loop(a, b, q, n):
    """+, -, negation, *, scaling by an int or a Fraction, ==, hash,
    is_zero, coords and flatten/unflatten against Fraction arithmetic; and
    s * 1 equals and hashes as s."""
    for S in ONE_DEN_ALGEBRAS:
        x, y = _element(S, a), _element(S, b)
        tx, ty = _tree(x), _tree(y)
        results = [(x + y, _o_add(S, tx, ty)), (x - y, _o_add(S, tx, _o_scale(S, ty, F(-1)))),
                   (-x, _o_scale(S, tx, F(-1))), (x * y, _o_mul(S, tx, ty)),
                   (y * x, _o_mul(S, ty, tx)), (x - x, _o_zero(S))]
        for s in (q, qq(q), n):
            results += [(x * s, _o_scale(S, tx, F(s))), (s * y, _o_scale(S, ty, F(s)))]
        for z, want in results:
            assert _tree(z) == want and _types_ok(z)
            twin = _from_tree(S, want)
            assert z == twin and twin == z and hash(z) == hash(twin)
            assert (z == x) == (want == tx) and (z != y) == (want != ty)
            assert z.is_zero() == (want == _o_zero(S))
            assert S.flatten(z) == _flat(want) and S.unflatten(S.flatten(z)) == z
        for s in (q, qq(q), n):
            for one_s in (S.one() * s, s * S.one(), S.from_scalar(s)):
                assert one_s == s and s == one_s and hash(one_s) == hash(s)


def test_integral_results_have_int_coordinates():
    """A sum, difference, product, conjugate or scaling of non-integral
    elements whose value is integral has int coordinates, not Fractions."""
    E = quadratic_field(5)
    tau, x = E.elem([F(1, 2), F(1, 2)]), E.elem([F(1, 2), F(-1, 2)])
    T = CommAlgebra("T(1/2,1,-3/2,2)", cubic_ring_table(F(1, 2), 1, F(-3, 2), 2))
    w = T.elem([0, F(1, 2), 0])
    for z, want in ((tau + x, (1, 0)), (tau - x, (0, 1)), (tau * x, (-1, 0)),
                    (tau * tau - tau, (1, 0)), (tau * E.conj(tau), (-1, 0)), (x * 2, (1, -1)),
                    (tau * F(4, 3) * F(3, 2), (1, 1)), (E.conj(tau) + tau, (1, 0)),
                    (w * 2, (0, 1, 0)), (w * w * 16, (3, -4, 2)), (w + w, (0, 1, 0))):
        assert z.coords == want and all(type(c) is int for c in z.coords)
