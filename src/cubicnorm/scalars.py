"""Exact scalar arithmetic: arbitrary-precision rationals, finite commutative
quotient algebras F[x]/(f), and small dense exact linear algebra.

Everything in this package is computed over Q or over a finite-dimensional
commutative Q-algebra given by structure constants.  A rational scalar is an
``int`` when it is integral and a ``fractions.Fraction`` otherwise; no floating
point appears anywhere, and a float offered as a scalar is refused.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]

ScalarLike = Union[Fraction, int, str]

# exact factors for the divisions the formulas need: a rational divided
# by an int is written as a product with one of these, never with ``/``
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class DescriptorError(ValueError):
    """Malformed descriptor, or operands from mismatched structures."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class BoundExceededError(RuntimeError):
    """A witness search exhausted its height bound.  Raise the bound and retry."""


class IdentityError(AssertionError):
    """An identity that is mathematically guaranteed failed to verify.  A bug."""


class Entry(NamedTuple):
    """An identity, whether it held, and the witness it failed on (or None)."""

    name: str
    ok: bool
    witness: object = None


@dataclass
class Certificate:
    """The one certificate type: the ordered identities a result was checked
    against, each re-checked exactly.  ``check`` records an identity;
    ``require`` records one that is guaranteed and raises IdentityError when
    it fails, since that failure is a bug, not an input problem."""

    certificate: list[Entry] = field(default_factory=list, kw_only=True)

    def check(self, name: str, ok: bool, witness=None) -> None:
        self.certificate.append(Entry(name, ok, None if ok else witness))

    def require(self, name: str, ok: bool) -> None:
        self.check(name, ok)
        if not ok:
            raise IdentityError(f"guaranteed identity failed: {name}")

    def ok(self) -> bool:
        return all(e.ok for e in self.certificate)

    @property
    def failures(self) -> dict:
        """The first witness of each failing identity, by name, in order."""
        out = {}
        for e in self.certificate:
            if not e.ok:
                out.setdefault(e.name, e.witness)
        return out

    def to_json(self) -> dict:
        return {
            "certificate": [{"identity": e.name, "status": "pass" if e.ok else "fail"}
                            for e in self.certificate],
            "ok": self.ok(),
        }


def witness_search(candidates, test, message: Optional[str] = None,
                   limit: Optional[int] = None):
    """The one bounded witness search.

    Draws candidates in order and applies ``test`` to each: None is a miss,
    anything else is the witness to report.  Without ``limit`` the search
    stops at the first witness and returns it; with ``limit`` it stops after
    that many and returns them as a list.  When no witness turns up, a
    ``message`` raises BoundExceededError(message); without one the search
    is a semi-decision and returns None (or the empty list) for "unknown".
    """
    hits = []
    for cand in candidates:
        hit = test(cand)
        if hit is not None:
            hits.append(hit)
            if len(hits) == (limit or 1):
                break
    if not hits and message is not None:
        raise BoundExceededError(message)
    if limit is not None:
        return hits
    return hits[0] if hits else None


def search_stream(prefix: Iterable, draw, heights: Iterable[int], seed: int) -> Iterator:
    """The one witness-search candidate stream.

    Yields the deterministic ``prefix`` lazily, then ``draw(rng, h)`` once for
    each height ``h`` in ``heights``, every draw from one
    ``random.Random(seed)``.  A search's order, and so the witness it
    reports, is fixed by the prefix, the sampler, the heights and the seed.
    """
    yield from prefix
    rng = random.Random(seed)
    for h in heights:
        yield draw(rng, h)


def qq(x: ScalarLike) -> Scalar:
    """Coerce an int, string, or Fraction to an exact rational: an int when
    it is integral, a Fraction otherwise.  A float is inexact and refused,
    and so is a string that is no rational, such as "1/0"."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise DescriptorError(f"a float is not an exact scalar: {x!r}")
    if not isinstance(x, Fraction):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DescriptorError(f"malformed scalar {x!r}") from None
    return x.numerator if x.denominator == 1 else x


def is_rational(x) -> bool:
    """Whether x is a rational scalar as this package stores one: an int (not
    a bool) or a Fraction."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def scalar_to_str(x: Scalar) -> str:
    """Canonical serialization: "p/q" in lowest terms, "p" when q = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rational_sqrt(x: Scalar) -> Optional[Scalar]:
    """Exact square root of a rational, or None if x is not a square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return qq(Fraction(rn, rd))
    return None


def is_integral(x: Scalar) -> bool:
    return x.denominator == 1


# ---------------------------------------------------------------------------
# Base rings.
#
# Every structure in this package (composition algebras, cubic norm
# structures, Freudenthal spaces) is parametrized by a "base": either Q
# itself or a CommAlgebra.  Elements of a base support +, -, *, so generic
# formula code is written once and extends coefficient-wise under base
# change.
# ---------------------------------------------------------------------------


class RationalBase:
    """The rational field as a base ring, and the one place that decides what
    a rational scalar is: an int when integral, a Fraction otherwise (see
    ``qq``)."""

    dim = 1
    name = "QQ"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x) -> Scalar:
        if isinstance(x, AlgElem):
            raise DescriptorError("cannot coerce an algebra element into QQ")
        return qq(x)

    # a C-level callable, not a method: mul_coords asks it about every
    # coordinate of every product
    is_zero = staticmethod(operator.not_)

    def is_unit(self, x: Scalar) -> bool:
        return x != 0

    def inv(self, x: Scalar) -> Scalar:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return qq(Fraction(x.denominator, x.numerator))

    def norm(self, x: Scalar) -> Scalar:
        return x

    def trace(self, x: Scalar) -> Scalar:
        return x

    def flatten(self, x: Scalar) -> list[Scalar]:
        return [x]

    def unflatten(self, coords: Sequence[Scalar]) -> Scalar:
        (x,) = coords
        return x

    def flat_dim(self) -> int:
        return 1

    def basis(self) -> list[int]:
        return [1]

    flat_basis = basis

    def random(self, rng, height: int = 3, integral: bool = True) -> Scalar:
        num = rng.randint(-height, height)
        if integral:
            return num
        den = rng.choice((1, 1, 2, 3))
        return qq(Fraction(num, den))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalBase)

    def __hash__(self) -> int:
        return hash("RationalBase")

    def __repr__(self) -> str:
        return "QQ"


QQ_BASE = RationalBase()


class Vec:
    """An element of a free module over a base: its structure ``space`` and
    its coordinate tuple.

    Sum, difference, negation, scaling by a base scalar, equality and hash
    are defined here once; the product is ``space.mul``, and a subclass adds
    only its repr and its own maps.  This is the one place that reads a bare
    operand -- an int, a Fraction or an element of the base algebra -- as a
    scalar s: ``*`` scales by it, and where the structure has unit
    coordinates, +, - and == read it as s * 1.  An operand over a structure
    whose base is this element's structure carries out +, - and * itself,
    also where Python tries no reflected method (two ``AlgElem``).  An
    ``AlgElem`` over Q runs the operations within its algebra, and scaling
    by an int or a Fraction, on integers and falls back here for the rest.
    """

    __slots__ = ("space", "coords")

    def __init__(self, space, coords: Sequence):
        self.space = space
        self.coords = tuple(coords)

    def _peer(self, other):
        """The coordinates of ``other`` as an element of this structure, or
        None: an element of an equal structure as it is, a bare operand s as
        s * 1."""
        space = self.space
        if isinstance(other, Vec):
            if other.space is space or other.space == space:
                return other.coords
            if not isinstance(other, AlgElem):
                return None
        elif not isinstance(other, (int, Fraction)):
            return None
        if space.unit_coords is None:
            return None
        try:
            return space.from_scalar(other).coords
        except DescriptorError:
            return None

    def _is_base_of(self, other) -> bool:
        return isinstance(other, Vec) and other.space.base == self.space

    def __add__(self, other):
        o = self._peer(other)
        if o is None:
            return other.__radd__(self) if self._is_base_of(other) else NotImplemented
        return type(self)(self.space, tuple(a + b for a, b in zip(self.coords, o)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._peer(other)
        if o is None:
            return other.__rsub__(self) if self._is_base_of(other) else NotImplemented
        return type(self)(self.space, tuple(a - b for a, b in zip(self.coords, o)))

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return type(self)(self.space, tuple(b - a for a, b in zip(self.coords, o)))

    def __neg__(self):
        return type(self)(self.space, tuple(-a for a in self.coords))

    def __mul__(self, other):
        space = self.space
        if isinstance(other, Vec):
            if other.space is space or other.space == space:
                return space.mul(self, other)
            if isinstance(other, AlgElem):
                try:
                    other = space.base.coerce(other)
                except DescriptorError:
                    if self._is_base_of(other):
                        return other.__rmul__(self)
                    if isinstance(self, AlgElem):
                        return NotImplemented
                    raise
            elif type(other) is type(self):
                raise DescriptorError(f"descriptor mismatch: {space!r} and {other.space!r}")
            else:
                return NotImplemented
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        return type(self)(space, tuple(a * other for a in self.coords))

    # only a scalar reaches here: a product of two elements is taken by the
    # left operand
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return self.coords == o

    def __hash__(self) -> int:
        # an element s * 1 equals the base scalar s, so it hashes as s; s is
        # read off the unit's first nonzero coordinate k
        pivot = self.space.unit_pivot
        if pivot is not None:
            k, inv, support, outside = pivot
            coords = self.coords
            is0 = self.space.base.is_zero
            if all(is0(coords[j]) for j in outside):
                s = coords[k] if inv == 1 else coords[k] * inv
                if all(coords[j] == s * u for j, u in support):
                    return hash(s)
        return hash(self.coords)

    def is_zero(self) -> bool:
        return all(map(self.space.base.is_zero, self.coords))


class CoordSpace:
    """A structure whose elements are ``element`` coordinate vectors of
    length ``dim`` over ``base``: the one set of coordinate helpers.

    A subclass sets ``dim``, ``base``, ``name`` and ``element``.  An algebra
    also sets ``unit_coords``, the rational coordinates of 1 (with them a
    bare scalar s is the element s * 1), and ``mul_coords``, its product on
    coordinate tuples.
    """

    unit_coords: Optional[tuple] = None
    random_height = 3

    @cached_property
    def unit_pivot(self) -> Optional[tuple]:
        """What ``Vec.__hash__`` reads off the unit coordinates u, once: the
        first index k with u_k != 0, 1 / u_k, the pairs (j, u_j) of the rest
        of the support, and the indices with u_j = 0; None without them."""
        unit = self.unit_coords
        if unit is None:
            return None
        k = next(i for i, u in enumerate(unit) if u != 0)
        return (k, QQ_BASE.inv(unit[k]),
                tuple((j, u) for j, u in enumerate(unit) if u != 0 and j != k),
                tuple(j for j, u in enumerate(unit) if u == 0))

    def elem(self, coords):
        cs = tuple(self.base.coerce(c) for c in coords)
        if len(cs) != self.dim:
            raise DescriptorError(f"{self.name}: expected {self.dim} coordinates, got {len(cs)}")
        return self.element(self, cs)

    def zero(self):
        return self.element(self, (self.base.zero(),) * self.dim)

    def one(self):
        return self.elem(self.unit_coords)

    def from_scalar(self, s):
        """s * 1 for a base scalar s (or an int or a Fraction)."""
        s = self.base.coerce(s)
        return self.element(self, tuple(s * u for u in self.unit_coords))

    def basis(self) -> list:
        z, o = self.base.zero(), self.base.one()
        return [self.element(self, tuple(o if k == i else z for k in range(self.dim)))
                for i in range(self.dim)]

    def flat_basis(self) -> list:
        """The basis that ``flatten`` reads coordinates along: each basis
        element times each basis element of the base."""
        z = self.base.zero()
        return [self.element(self, tuple(b if k == i else z for k in range(self.dim)))
                for i in range(self.dim) for b in self.base.basis()]

    def mul(self, x, y):
        return self.element(self, self.mul_coords(x.coords, y.coords))

    def random(self, rng, height: Optional[int] = None, integral: bool = True):
        h = self.random_height if height is None else height
        return self.element(self, tuple(self.base.random(rng, h, integral)
                                        for _ in range(self.dim)))

    # -- flattening to Q (for exact linear algebra) --------------------------

    def flat_dim(self) -> int:
        return self.dim * self.base.flat_dim()

    def flatten(self, x) -> list[Scalar]:
        if self.base is QQ_BASE:
            return list(x.coords)
        return [f for c in x.coords for f in self.base.flatten(c)]

    def unflatten(self, coords: Sequence[Scalar]):
        step = self.base.flat_dim()
        return self.element(self, tuple(self.base.unflatten(coords[i * step:(i + 1) * step])
                                        for i in range(self.dim)))


class AlgElem(Vec):
    """Element of a CommAlgebra: a coordinate vector over the algebra's base.

    Over Q an element is held as integers over one denominator (Cohen,
    GTM 138, 4.2): ``num``, a tuple of ints, over ``den`` > 0 with
    gcd(den, num) = 1, so two elements of one algebra are equal exactly when
    their (num, den) are.  Sums, differences, negation, scaling by an int or
    a Fraction, products, ``is_zero`` and equality within one algebra run on
    these integers, and each result is reduced by one gcd.  ``coords`` -- an
    int where integral, a Fraction otherwise -- is read off on first use; an
    element built from coordinates keeps them as its ``coords``.  Over any
    other base an element has only ``coords`` and takes the generic path of
    ``Vec``.
    """

    __slots__ = ("num", "den")
    alg = Vec.space
    # the storage of Vec's coords slot, which the coords property fills
    _coords = Vec.coords

    def __init__(self, space, coords: Sequence):
        self.space = space
        self._coords = coords = tuple(coords)
        if space.rational:
            self.num, self.den = _over_one_denominator(coords)

    @property
    def coords(self) -> tuple:
        try:
            return self._coords
        except AttributeError:
            den = self.den
            self._coords = coords = tuple(_ratio(n, den) for n in self.num)
            return coords

    def __add__(self, other):
        space = self.space
        if type(other) is AlgElem and other.space is space and space.rational:
            a, b = self.den, other.den
            if a == b:
                return _reduced(space, tuple(map(operator.add, self.num, other.num)), a)
            return _reduced(space, tuple(x * b + y * a for x, y in zip(self.num, other.num)),
                            a * b)
        return Vec.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        space = self.space
        if type(other) is AlgElem and other.space is space and space.rational:
            a, b = self.den, other.den
            if a == b:
                return _reduced(space, tuple(map(operator.sub, self.num, other.num)), a)
            return _reduced(space, tuple(x * b - y * a for x, y in zip(self.num, other.num)),
                            a * b)
        return Vec.__sub__(self, other)

    def __neg__(self):
        space = self.space
        if space.rational:
            return _reduced(space, tuple(map(operator.neg, self.num)), self.den, False)
        return Vec.__neg__(self)

    def __mul__(self, other):
        space = self.space
        kind = type(other)
        if kind is AlgElem:
            if other.space is space:
                return space.mul(self, other)
        elif kind is int and space.rational:
            return _reduced(space, tuple(n * other for n in self.num), self.den)
        elif kind is Fraction and space.rational:
            p = other.numerator
            return _reduced(space, tuple(n * p for n in self.num), self.den * other.denominator)
        return Vec.__mul__(self, other)

    # only a scalar, or an element of another algebra, reaches here
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        space = self.space
        if type(other) is AlgElem and other.space is space and space.rational:
            return self.den == other.den and self.num == other.num
        return Vec.__eq__(self, other)

    __hash__ = Vec.__hash__

    def is_zero(self) -> bool:
        if self.space.rational:
            return not any(self.num)
        return Vec.is_zero(self)

    def __repr__(self) -> str:
        terms = ", ".join(repr(c) for c in self.coords)
        return f"{self.alg.name}({terms})"

    def norm(self):
        return self.alg.norm(self)

    def trace(self):
        return self.alg.trace(self)

    def inv(self) -> "AlgElem":
        return self.alg.inv(self)

    def conj(self) -> "AlgElem":
        return self.alg.conj(self)


_new = object.__new__


def _reduced(space, num: tuple, den: int, reduce: bool = True) -> AlgElem:
    """The element num / den of an algebra over Q, brought to lowest terms
    by one gcd unless den is 1 or the caller knows it is (``reduce``)."""
    if reduce and den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    x = _new(AlgElem)
    x.space = space
    x.num = num
    x.den = den
    if den == 1:
        x._coords = num
    return x


def _over_one_denominator(coords: tuple) -> tuple[tuple, int]:
    """(num, den) for rational coordinates: integers over their least
    common denominator, which is in lowest terms."""
    if Fraction not in map(type, coords):
        return coords, 1
    den = math.lcm(*[c.denominator for c in coords])
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def _matrix_over_one_denominator(m) -> tuple[list, int]:
    """(rows of numerator tuples, den) for a matrix of elements of one
    algebra over Q: every entry as integers over the least common
    denominator of its entries."""
    den = math.lcm(*[x.den for row in m for x in row])
    return [[x.num if x.den == den else tuple(n * (den // x.den) for n in x.num) for x in row]
            for row in m], den


def _ratio(n: int, d: int) -> Scalar:
    """n / d for d > 0 as a rational scalar: an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class CommAlgebra(CoordSpace):
    """Finite commutative unital algebra over a base, given by rational
    structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j as a tuple of
    rationals; coordinates of elements live in ``base`` (Q by default), so
    the same table serves the algebra and all of its base changes.  The
    table is also kept as ``int_table`` over one denominator ``table_den``,
    and every formula works on numerators over an int denominator: an
    element over Q is its ``num`` over its ``den`` (``rational``), one over
    any other base its coordinates over 1, and only the final division
    differs.  The norm comes from the regular representation.  The trace is
    linear, so it is a dot product with the trace vector
    tr(e_i) = sum_k table[i][k][k], computed once.  An element is a unit iff
    its norm is a unit (correct for the etale instances used here).
    """

    element = AlgElem

    def __init__(self, name: str, table, base=QQ_BASE, unit_coords=None):
        self.name = name
        self.table = tuple(tuple(tuple(qq(c) for c in cell) for cell in row) for row in table)
        self.dim = len(self.table)
        self.base = base
        self.rational = isinstance(base, RationalBase)
        self._zero = base.zero()
        if unit_coords is None:
            unit_coords = (1,) + (0,) * (self.dim - 1)
        self.unit_coords = tuple(qq(c) for c in unit_coords)
        self._unit_num, self._unit_den = _over_one_denominator(self.unit_coords)
        # the structure constants over one denominator: table = int_table / table_den
        den = self.table_den = math.lcm(*(c.denominator for row in self.table
                                          for cell in row for c in cell))
        self.int_table = tuple(tuple(tuple(c.numerator * (den // c.denominator) for c in cell)
                                     for cell in row) for row in self.table)
        self._int_trace = tuple(sum(row[k][k] for k in range(self.dim)) for row in self.int_table)
        # the nonzero constants of each cell as (k, c) pairs, for mul_coords and mat_mul
        self._cells = tuple(tuple(tuple((k, c) for k, c in enumerate(cell) if c) for cell in row)
                            for row in self.int_table)
        self._basis_coords = tuple(c.coords for c in self.basis())

    # -- construction -------------------------------------------------------

    from_rational = CoordSpace.from_scalar

    def coerce(self, x):
        if isinstance(x, AlgElem):
            if x.alg is self or x.alg == self:
                return x
            if x.alg == self.base:
                return self.scalar_mul_one(x)
            raise DescriptorError(f"element of {x.alg.name} used in {self.name}")
        if isinstance(x, (int, Fraction, str)):
            return self.from_rational(qq(x))
        raise DescriptorError(f"cannot coerce {type(x).__name__} into {self.name}")

    def scalar_mul_one(self, s) -> AlgElem:
        return AlgElem(self, tuple(s * u for u in self.unit_coords))

    # -- numerators over an int denominator ----------------------------------

    def _fraction(self, u: AlgElem) -> tuple:
        """u as (numerators, denominator)."""
        return (u.num, u.den) if self.rational else (u.coords, 1)

    def _element(self, num, den: int) -> AlgElem:
        """The element num / den."""
        if self.rational:
            return _reduced(self, num, den)
        if den != 1:
            num = tuple(c * Fraction(1, den) for c in num)
        return AlgElem(self, num)

    def _scalar(self, n, d: int):
        """The base scalar n / d."""
        if self.rational:
            return _ratio(n, d)
        return n if d == 1 else n * Fraction(1, d)

    # -- arithmetic ---------------------------------------------------------

    def mul_coords(self, a, b):
        """The product kernel of two elements: the numerators of a b over
        table_den, as sum a_i b_j c_ijk e_k over the nonzero integer
        constants c_ijk of ``_cells`` (``mat_mul`` inlines it for a matrix
        product)."""
        is0 = self.base.is_zero
        out = [self._zero] * self.dim
        for ai, row in zip(a, self._cells):
            if is0(ai):
                continue
            for bj, cell in zip(b, row):
                if is0(bj):
                    continue
                prod = ai * bj
                for k, c in cell:
                    out[k] = out[k] + (prod if c == 1 else prod * c)
        return tuple(out)

    def mul(self, x: AlgElem, y: AlgElem) -> AlgElem:
        if self.rational:
            return _reduced(self, self.mul_coords(x.num, y.num), x.den * y.den * self.table_den)
        return self._element(self.mul_coords(x.coords, y.coords), self.table_den)

    def mat_mul(self, a, b):
        """The matrix product a b for matrices (tuples of rows) whose entries
        all lie in this algebra over Q: each operand over one common
        denominator, the integer numerators of every entry accumulated over
        ``_cells``, and one reduction per entry of the product."""
        a, da = _matrix_over_one_denominator(a)
        b, db = _matrix_over_one_denominator(b)
        cells, dim, den = self._cells, self.dim, da * db * self.table_den
        cols = tuple(zip(*b))
        out = []
        for arow in a:
            row = []
            for col in cols:
                acc = [0] * dim
                for x, y in zip(arow, col):
                    for xi, crow in zip(x, cells):
                        if not xi:
                            continue
                        for yj, cell in zip(y, crow):
                            if not yj:
                                continue
                            prod = xi * yj
                            for k, c in cell:
                                acc[k] += prod if c == 1 else prod * c
                row.append(_reduced(self, tuple(acc), den))
            out.append(tuple(row))
        return tuple(out)

    def _regular_columns(self, u: AlgElem):
        """The numerators of the images of the basis under multiplication
        by u, and the denominator they are over."""
        num, den = self._fraction(u)
        return [self.mul_coords(num, b) for b in self._basis_coords], den * self.table_den

    def regular_matrix(self, u: AlgElem) -> list[list]:
        """Matrix of multiplication-by-u on the basis, columns = images."""
        cols, d = self._regular_columns(u)
        return [[self._scalar(cols[j][i], d) for j in range(self.dim)] for i in range(self.dim)]

    def norm(self, u: AlgElem):
        cols, d = self._regular_columns(u)
        return self._scalar(det(cols), d ** self.dim)

    def _trace_num(self, num):
        """table_den * tr(num), a dot product with the integer trace vector."""
        return sum(map(operator.mul, num, self._int_trace), self._zero)

    def trace(self, u: AlgElem):
        num, den = self._fraction(u)
        return self._scalar(self._trace_num(num), den * self.table_den)

    def is_unit(self, u: AlgElem) -> bool:
        return self.base.is_unit(self.norm(u))

    def is_zero(self, u: AlgElem) -> bool:
        return u.is_zero()

    def inv(self, u: AlgElem) -> AlgElem:
        """Exact inverse of a unit, by solving u*x = 1 over Q (the solve
        re-verifies its answer by substitution)."""
        x = map_solve(lambda y: self.mul(u, y), self, self, self.one())
        if x is None:
            raise ZeroDivisionError(f"{self.name}: not a unit")
        return x

    def conj(self, u: AlgElem) -> AlgElem:
        """Conjugation on a quadratic algebra: u* = tr(u) - u."""
        if self.dim != 2:
            raise DescriptorError("conjugation is only defined on quadratic algebras")
        # tr(u) = t / (den * table_den) and 1 = unit_num / unit_den
        num, den = self._fraction(u)
        t, k = self._trace_num(num), self.table_den * self._unit_den
        return self._element(tuple(t * e - c * k for e, c in zip(self._unit_num, num)), den * k)

    # -- charpoly helpers (for the adjoint of cubic algebras) ----------------

    def _char(self, u: AlgElem):
        """(num, d, square, t1, t2): the numerators of u over den and of u^2
        over den^2 * table_den, d = den * table_den, and t1, t2 with
        tr(u) = t1 / d and tr(u^2) = t2 / d^2."""
        num, den = self._fraction(u)
        square = self.mul_coords(num, num)
        return num, den * self.table_den, square, self._trace_num(num), self._trace_num(square)

    def char_s1_s2(self, u: AlgElem):
        """s1 = tr(u) and s2 = (tr(u)^2 - tr(u^2))/2, the first two
        coefficients of the characteristic polynomial of u."""
        _, d, _, t1, t2 = self._char(u)
        return self._scalar(t1, d), self._scalar(t1 * t1 - t2, 2 * d * d)

    def adjoint(self, u: AlgElem) -> AlgElem:
        """u^# with u*u^# = norm(u), for a cubic algebra: u^2 - s1*u + s2."""
        if self.dim != 3:
            raise DescriptorError("algebra adjoint implemented for cubic algebras only")
        # every term over 2 * d^2 * unit_den
        num, d, square, t1, t2 = self._char(u)
        k, s2 = 2 * self.table_den * self._unit_den, t1 * t1 - t2
        return self._element(tuple((q - c * t1) * k + s2 * e for q, c, e
                                   in zip(square, num, self._unit_num)),
                             2 * d * d * self._unit_den)

    def cross(self, u: AlgElem, v: AlgElem) -> AlgElem:
        return self.adjoint(u + v) - self.adjoint(u) - self.adjoint(v)

    def base_change(self, new_base) -> "CommAlgebra":
        return CommAlgebra(self.name, self.table, base=new_base, unit_coords=self.unit_coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CommAlgebra) and self.table == other.table
                and self.base == other.base and self.unit_coords == other.unit_coords)

    def __hash__(self) -> int:
        return hash((self.table, self.unit_coords))

    def __repr__(self) -> str:
        return f"CommAlgebra({self.name}, dim={self.dim}, base={self.base!r})"


class QuotientAlgebra(CommAlgebra):
    """F[x]/(f) for a monic polynomial f of degree 2 or 3 with rational
    coefficients, with norm and trace via the regular representation.

    Coordinates are low-degree-first; the image of x is basis element 1.
    """

    def __init__(self, modulus: Sequence[Fraction], base=QQ_BASE, name: Optional[str] = None):
        mod = tuple(qq(c) for c in modulus)
        deg = len(mod) - 1
        if deg not in (2, 3):
            raise DescriptorError("modulus must have degree 2 or 3")
        if mod[-1] != 1:
            raise DescriptorError("modulus must be monic")
        if poly_discriminant(mod) == 0:
            raise DescriptorError("modulus is not separable (discriminant 0); "
                                  "only etale quotient algebras are supported")
        self.modulus = mod
        # reduction of x^deg: x^deg = -(c_0 + c_1 x + ... + c_{deg-1} x^{deg-1})
        red = tuple(-c for c in mod[:-1])
        table = []
        for i in range(deg):
            row = []
            for j in range(deg):
                row.append(_power_coords(i + j, deg, red))
            table.append(row)
        super().__init__(name or f"Q[x]/({_poly_str(mod)})", table, base=base)

    def gen(self) -> AlgElem:
        """The image of x."""
        coords = [self.base.zero()] * self.dim
        coords[1] = self.base.one()
        return AlgElem(self, tuple(coords))

    def base_change(self, new_base) -> "QuotientAlgebra":
        return QuotientAlgebra(self.modulus, base=new_base, name=self.name)


def _power_coords(k: int, deg: int, red) -> tuple:
    """Coordinates of x^k in F[x]/(f), using x^deg = red (a coord vector)."""
    coords = [0] * deg
    if k < deg:
        coords[k] = 1
        return tuple(coords)
    prev = _power_coords(k - 1, deg, red)
    # multiply by x: shift up, reduce the overflow
    shifted = [0] + list(prev[:-1])
    top = prev[-1]
    return tuple(s + top * r for s, r in zip(shifted, red))


def _poly_str(mod) -> str:
    terms = []
    for i, c in enumerate(mod):
        if c == 0:
            continue
        if i == 0:
            terms.append(scalar_to_str(c))
        elif i == 1:
            terms.append(f"{scalar_to_str(c)}*x" if c != 1 else "x")
        else:
            terms.append(f"{scalar_to_str(c)}*x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


def poly_discriminant(mod) -> Scalar:
    """Discriminant of a monic polynomial of degree 2 or 3 (low-first coeffs)."""
    deg = len(mod) - 1
    if deg == 2:
        c, b = mod[0], mod[1]
        return b * b - 4 * c
    if deg == 3:
        d, c, b = mod[0], mod[1], mod[2]
        # x^3 + b x^2 + c x + d
        return (18 * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
                - 4 * c ** 3 - 27 * d ** 2)
    raise DescriptorError("degree must be 2 or 3")


def qalg_make(modulus: Sequence[ScalarLike]) -> QuotientAlgebra:
    """Build the quotient algebra F[x]/(f) for a monic f of degree 2 or 3."""
    return QuotientAlgebra([qq(c) for c in modulus])


def quadratic_field(D: ScalarLike) -> QuotientAlgebra:
    """E = F[x]/(x^2 - D).  Requires D != 0: base change only ever runs along
    nonzero discriminants or etale cubic coordinates."""
    d = qq(D)
    if d == 0:
        raise DescriptorError("x^2 - 0 is rejected: not etale")
    return qalg_make([-d, 0, 1])


# ---------------------------------------------------------------------------
# Exact dense linear algebra over Q.
# ---------------------------------------------------------------------------


def det(m: Sequence[Sequence]) -> object:
    """Determinant over any commutative ring of +,* elements (Laplace for the
    small fixed dimensions used here)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    total = None
    for j in range(n):
        a = m[0][j]
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = a * det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def rref(rows: Sequence[Sequence[Scalar]]):
    """Gauss-Jordan elimination over Q, the one elimination routine.

    Column by column, the pivot is the first nonzero row at or below the
    current row; it is swapped up and its column is cleared in every other
    row.  Elimination stops once every row holds a pivot.  Returns (pivot
    columns, reduced rows, determinant factor): the pivot rows come first,
    scaled to a unit pivot, and the factor is the product of the pivots
    times the sign of the row swaps, which is the determinant of a square
    matrix of full rank.

    The work is fraction-free (Bareiss 1968; Cohen, GTM 138, ch. 2): each
    row is cleared of denominators once and held as integers over a
    rational scale, a row is cleared as p * row - f * pivot_row and divided
    by its content, and only the pivots and the reduced rows are divided
    out at the end.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a: list[list[int]] = []
    scale: list[Fraction] = []        # row i of the matrix is scale[i] * a[i]
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = math.gcd(*ints)
        a.append([x // g for x in ints] if g > 1 else ints)
        scale.append(Fraction(g, den))
    pivots: list[int] = []
    factor = Fraction(1)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            factor = -factor
        prow = a[r]
        p = prow[c]
        factor *= scale[r] * p
        for i, row in enumerate(a):
            f = row[c]
            if i == r or not f:
                continue
            g = math.gcd(p, f)
            pp, ff = p // g, f // g
            new = [pp * x - ff * y for x, y in zip(row, prow)]
            content = math.gcd(*new)
            a[i] = [x // content for x in new] if content > 1 else new
            if i > r:   # the scale of a row matters only until it holds a pivot
                scale[i] = scale[i] * (g * content) / p
        pivots.append(c)
        r += 1
        if r == m:
            break
    # a pivot row divided by its pivot; every row below the pivots is zero
    reduced = []
    for row, c in zip(a, pivots):
        p = row[c]
        reduced.append([x // p if x % p == 0 else Fraction(x, p) for x in row])
    reduced += [[0] * n for _ in range(r, m)]
    return pivots, reduced, qq(factor)


def det_fraction(m: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square rational matrix, read off ``rref``."""
    pivots, _, factor = rref(m)
    return qq(factor) if len(pivots) == len(m) else 0


def linsolve(mat: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """Solve mat*x = rhs exactly over Q.  Returns one solution, or None if the
    system is inconsistent (certified by a pivot in the right-hand column of
    the reduced augmented matrix)."""
    cols = len(mat[0]) if mat else 0
    pivots, a, _ = rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if cols in pivots:
        return None
    x = [0] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


def kernel(mat: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Basis of the right kernel of a rational matrix, one vector per free
    column of ``rref``."""
    cols = len(mat[0]) if mat else 0
    pivots, a, _ = rref(mat)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc]
        basis.append(v)
    return basis


class DirectSum:
    """The direct sum of spaces, such as B^2, C^3 or Q^n: an element is a
    tuple with one entry per slot, and it flattens slot first, then along
    the slot's Q-basis."""

    def __init__(self, *spaces):
        self.spaces = spaces

    def zero(self) -> tuple:
        return tuple(s.zero() for s in self.spaces)

    def flat_dim(self) -> int:
        return sum(s.flat_dim() for s in self.spaces)

    def flat_basis(self) -> list[tuple]:
        zero = self.zero()
        return [zero[:i] + (b,) + zero[i + 1:]
                for i, s in enumerate(self.spaces) for b in s.flat_basis()]

    def flatten(self, x) -> list[Scalar]:
        return [f for s, c in zip(self.spaces, x) for f in s.flatten(c)]

    def unflatten(self, coords: Sequence[Scalar]) -> tuple:
        out, at = [], 0
        for s in self.spaces:
            n = s.flat_dim()
            out.append(s.unflatten(coords[at:at + n]))
            at += n
        return tuple(out)


def map_matrix(f, dom, cod) -> list[tuple[Scalar, ...]]:
    """The rational matrix of a Q-linear map f from dom to cod (each a space
    with ``flat_basis``, ``flatten`` and ``unflatten``): column j is the
    flattened image of the j-th element of ``dom.flat_basis()``.  Every
    solve and kernel over a structure is read off this matrix."""
    return list(zip(*(cod.flatten(f(e)) for e in dom.flat_basis())))


def map_solve(f, dom, cod, y):
    """One x in dom with f(x) = y, or None when there is none (certified by
    ``linsolve``).  The answer is re-checked by substitution."""
    rhs = cod.flatten(y)
    sol = linsolve(map_matrix(f, dom, cod), rhs)
    if sol is None:
        return None
    x = dom.unflatten(sol)
    if cod.flatten(f(x)) != rhs:
        raise IdentityError("linear solve failed its substitution check")
    return x
