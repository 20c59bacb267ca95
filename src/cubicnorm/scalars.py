"""Exact scalar arithmetic: arbitrary-precision rationals, finite commutative
quotient algebras F[x]/(f), and small dense exact linear algebra.

Everything in this package is computed over Q or over a finite-dimensional
commutative Q-algebra given by structure constants.  A rational scalar is an
``int`` when it is integral and a ``fractions.Fraction`` otherwise (``qq``);
no floating point appears anywhere, and a float offered as a scalar is
refused.  Every element of every structure is a ``Vec``: on every base,
integers along its Q-flattened coordinates over one denominator, with one
element arithmetic on the numerators and one product kernel, ``table_mul``,
over tables over Q and their records over a base.  Q (``QQ_BASE``) and every
quotient algebra answer one base-ring protocol (``num_den``, ``from_num``,
``inv``, ``mul_coords``, ``scale_coords``, ...), so no other module tests
whether a scalar is a Fraction.  Linear algebra runs one fraction-free
elimination, ``rref``, and ``map_matrix`` and ``map_solve`` read Q-linear
maps between structures on numerators.
"""

from __future__ import annotations

import math
import operator
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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
    """A witness search exhausted its height bound.  Raise the bound and retry.

    ``tried`` is the number of candidates the search tested, when it counted
    them (``witness_search`` does), else None."""

    def __init__(self, message: str, tried: Optional[int] = None):
        super().__init__(message)
        self.tried = tried


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
    ``message`` raises BoundExceededError(message) with the number of
    candidates tested as ``tried``; without one the search is a
    semi-decision and returns None (or the empty list) for "unknown".
    """
    hits, tried = [], 0
    for tried, cand in enumerate(candidates, 1):
        hit = test(cand)
        if hit is not None:
            hits.append(hit)
            if len(hits) == (limit or 1):
                break
    if not hits and message is not None:
        raise BoundExceededError(message, tried)
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


# ---------------------------------------------------------------------------
# Base rings.
#
# Every structure in this package (composition algebras, cubic norm
# structures, Freudenthal spaces) is parametrized by a "base": either Q
# itself or a CommAlgebra, which may itself lie over a CommAlgebra.  Elements
# of a base support +, -, *, so generic formula code is written once and
# extends coefficient-wise under base change.  A base scalar is held, like
# every element, as integers along its Q-flattened coordinates over one
# denominator: ``num_den`` reads them off a scalar and ``from_num`` builds the
# scalar from them.  A base algebra also has a product table on those
# integers (``_table`` over ``table_den``), which the tables of the
# structures over it are recorded with (``TableOver``), and its zero, and
# only its zero, is falsy (``is_zero`` is ``operator.not_``).
# ---------------------------------------------------------------------------


def _rational(n: int, d: int) -> Scalar:
    """n / d for an int n and a nonzero int d: an int when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class RationalBase:
    """The rational field as a base ring, and the one place that decides what
    a rational scalar is: an int when integral, a Fraction otherwise (see
    ``qq``)."""

    dim = 1
    name = "QQ"
    # the bottom of every tower: Q lies over no base
    base = None
    _n = 1
    table_den = 1

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def coerce(self, x) -> Scalar:
        if isinstance(x, AlgElem):
            raise DescriptorError("cannot coerce an algebra element into QQ")
        return qq(x)

    def num_den(self, x) -> tuple[tuple, int]:
        """x as ((numerator,), denominator)."""
        if type(x) is int:
            return (x,), 1
        x = self.coerce(x)
        return (x.numerator,), x.denominator

    @staticmethod
    def from_num(num: Sequence[int], den: int) -> Scalar:
        return num[0] if den == 1 else _rational(num[0], den)

    @staticmethod
    def scalars(num: Sequence[int], den: int) -> Sequence[Scalar]:
        return num if den == 1 else tuple(_rational(n, den) for n in num)

    @staticmethod
    def mul_coords(a: Sequence[int], b: Sequence[int]) -> tuple:
        return (a[0] * b[0],)

    @staticmethod
    def scale_coords(num: Sequence[int], s: Sequence[int]) -> tuple:
        """x s on the numerators of x and of s, over table_den (1)."""
        return tuple([n * s[0] for n in num])

    # a C-level callable, not a method: a composition product asks it about
    # every coordinate
    is_zero = staticmethod(operator.not_)

    def is_unit(self, x: Scalar) -> bool:
        return x != 0

    def inv(self, x: Scalar) -> Scalar:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return qq(Fraction(x.denominator, x.numerator))

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
    numerators ``num`` over an int denominator ``den`` > 0.

    On every base ``num`` is ``space.flat_dim()`` ints along the element's
    Q-flattened coordinates, with gcd(den, num) = 1: integers over one
    denominator (Cohen, GTM 138, 4.2).  Over a base algebra K a coordinate
    is the run of K.flat_dim() numerators of a K element.  So two elements
    of one structure are equal exactly when their (num, den) are.
    ``coords`` -- over Q an int where integral, a Fraction otherwise, over
    K the K elements -- is read off by the base (``scalars``) on first use.

    Sum, difference, negation, scaling by a base scalar, equality, hash and
    the zero test are defined here once, for every element type, on the
    numerators, and ``_reduced`` brings each result back to this form; the
    product is ``space.mul``.  This is the one place that reads a bare
    operand -- an int, a Fraction or an element of the base algebra -- as a
    scalar s: ``*`` scales by it, and where the structure has unit
    coordinates, +, - and == read it as s * 1.  An operand over a structure
    whose base is this element's structure carries out +, - and * itself,
    also where Python tries no reflected method (two ``AlgElem``).
    """

    __slots__ = ("space", "num", "den", "_coords")

    def __init__(self, space, coords: Sequence):
        coords = tuple(coords)
        if len(coords) != space.dim:
            raise DescriptorError(f"{space.name}: expected {space.dim} coordinates, "
                                  f"got {len(coords)}")
        self.space = space
        self.num, self.den = _over_one_denominator(space.base, coords)
        self._coords = None

    @property
    def coords(self) -> tuple:
        coords = self._coords
        if coords is None:
            coords = self._coords = self.space.base.scalars(self.num, self.den)
        return coords

    def coord(self, i: int):
        """Coordinate i alone, as a base scalar, without reading the rest."""
        if self._coords is not None:
            return self._coords[i]
        k = len(self.num) // self.space.dim
        i %= self.space.dim
        return self.space.base.from_num(self.num[i * k:(i + 1) * k], self.den)

    def _peer(self, other):
        """``other`` as an element with the (num, den) it has in this
        structure, or None: an element of an equal structure as it is, a
        bare operand s as s * 1."""
        space = self.space
        if isinstance(other, Vec):
            if other.space is space or other.space == space:
                return other
            if not isinstance(other, AlgElem):
                return None
        elif not isinstance(other, (int, Fraction)):
            return None
        if space.unit_coords is None:
            return None
        try:
            return space.from_scalar(other)
        except DescriptorError:
            return None

    def _is_base_of(self, other) -> bool:
        return isinstance(other, Vec) and other.space.base == self.space

    # each operation takes an element of its own structure, the common
    # case, without the call to _peer

    def __add__(self, other):
        o = other if type(other) is type(self) and other.space is self.space else self._peer(other)
        if o is None:
            return other.__radd__(self) if self._is_base_of(other) else NotImplemented
        return _combine(self.space, operator.add, self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is type(self) and other.space is self.space else self._peer(other)
        if o is None:
            return other.__rsub__(self) if self._is_base_of(other) else NotImplemented
        return _combine(self.space, operator.sub, self, o)

    def __rsub__(self, other):
        o = self._peer(other)
        if o is None:
            return NotImplemented
        return _combine(self.space, operator.sub, o, self)

    def __neg__(self):
        return _reduced(self.space, tuple(map(operator.neg, self.num)), self.den, False)

    def __mul__(self, other):
        space = self.space
        if type(other) is type(self) and other.space is space:
            return space.mul(self, other)
        if type(other) is not int:
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
                    # an element of the base algebra: one kernel call
                    base = space.base
                    return _reduced(space, base.scale_coords(self.num, other.num),
                                    self.den * other.den * base.table_den)
                elif type(other) is type(self):
                    raise DescriptorError(f"descriptor mismatch: {space!r} and {other.space!r}")
                else:
                    return NotImplemented
            elif isinstance(other, Fraction):
                return _reduced(space, tuple(map(operator.mul, self.num, repeat(other.numerator))),
                                self.den * other.denominator)
            elif not isinstance(other, int):
                return NotImplemented
        return _reduced(space, tuple(map(operator.mul, self.num, repeat(other))), self.den)

    # only a scalar, or an element over another structure, reaches here: a
    # product of two elements of one structure is taken by the left operand
    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = other if type(other) is type(self) and other.space is self.space else self._peer(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self) -> int:
        # an element s * 1 equals the base scalar s, so it hashes as s; s is
        # read off the unit's first nonzero coordinate k
        pivot = self.space.unit_pivot
        coords = self.coords
        if pivot is not None:
            k, inv, support, outside = pivot
            is0 = self.space.base.is_zero
            if all(is0(coords[j]) for j in outside):
                s = coords[k] if inv == 1 else coords[k] * inv
                if all(coords[j] == s * u for j, u in support):
                    return hash(s)
        return hash(coords)

    def __bool__(self) -> bool:
        """Only the zero element is falsy, as only 0 is among scalars."""
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def block(self, space, start: int = 0) -> "Vec":
        """The element of ``space`` whose coordinates are this element's
        from coordinate ``start`` on: its numerators there over its
        denominator, so none is read off or scanned again.  ``space`` lies
        over this element's base, or over an algebra over it, such as the
        B-part of a Tits element over Q with B over K.
        ``CoordSpace.concat`` is its inverse."""
        start *= len(self.num) // self.space.dim
        return _reduced(space, self.num[start:start + space._n], self.den)

    def component(self, space, a: int) -> "Vec":
        """x_a in x = sum_a x_a (x) t_a over the basis t_a of this element's
        base T: the element of ``space``, the same structure over T's own
        base, read off every coordinate's a-th T-coordinate (a stride of the
        numerators).  ``space.extend(x_a) * t_a`` summed over a gives x."""
        num = self.num
        step = len(num) // self.space.dim
        k = step // self.space.base.dim
        return _reduced(space, tuple(n for i in range(a * k, len(num), step)
                                     for n in num[i:i + k]), self.den)


def _lies_over(space, base) -> bool:
    """Whether ``space`` is ``base`` or lies over it, through a tower."""
    while space is not None and space is not base and space != base:
        space = space.base
    return space is not None


def _over_one_denominator(base, parts) -> tuple[tuple, int]:
    """(num, den) of parts in turn, the one way parts are brought over one
    denominator: an element over ``base`` gives its numerators (an element
    of ``base`` is one coordinate), any other part is a scalar ``base``
    coerces.  Each part goes over the least common denominator as it comes,
    which leaves the numerators in lowest terms with no gcd taken."""
    num, den = [], 1
    for p in parts:
        if isinstance(p, Vec) and (p.space.base is base or _lies_over(p.space, base)):
            pn, pd = p.num, p.den
        else:
            pn, pd = base.num_den(p)
        if pd != den:
            g = math.gcd(den, pd)
            if g != pd:
                # pd does not divide den: the parts so far go over the lcm
                k = pd // g
                num = [n * k for n in num]
                den *= k
            k = den // pd
            pn = [n * k for n in pn]
        num.extend(pn)
    return tuple(num), den


def _times_unit(num: Sequence[int], k: int, unit: Sequence[int]) -> tuple:
    """Each run of k numerators times each entry of ``unit`` in turn: the
    numerators of s (x) 1 for each run s, an outer product."""
    return tuple([u * n for i in range(0, len(num), k) for u in unit for n in num[i:i + k]])


class CoordSpace:
    """A structure whose elements are ``element`` coordinate vectors of
    length ``dim`` over ``base``: the one set of coordinate helpers, and
    with ``concat`` the one way to assemble an element from blocks.

    A subclass sets ``dim``, ``base``, ``name`` and ``element``, and ``_key``
    for equality.  An algebra given by a product table also sets
    ``unit_coords``, the rational coordinates of 1 (with them a bare scalar
    s is the element s * 1), and its product table from ``flat_table``
    with ``_multiply_by``: its product on numerators, ``mul_coords``, over
    table_den.
    """

    unit_coords: Optional[tuple] = None
    random_height = 3
    # the kernel of a structure that multiplies by a table, from its first
    # product (see table_mul)
    _kernel = None

    @cached_property
    def _unit(self) -> tuple[tuple, int]:
        """The unit coordinates, rationals, as (integer numerators, den)."""
        return _over_one_denominator(QQ_BASE, self.unit_coords)

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
        return self.element(self, tuple(self.base.coerce(c) for c in coords))

    def zero(self):
        return _reduced(self, (0,) * self.flat_dim(), 1)

    def one(self):
        return self.from_scalar(1)

    def num_den(self, x) -> tuple[tuple, int]:
        """x, an element or a scalar an algebra coerces, as (numerators, den)."""
        if not isinstance(x, Vec) or (x.space is not self and x.space != self):
            x = self.coerce(x)
        return x.num, x.den

    def from_num(self, num: Sequence[int], den: int):
        """The element num / den, for flat integer numerators."""
        return _reduced(self, tuple(num), den)

    def scalars(self, num: Sequence[int], den: int) -> tuple:
        """The elements over den of each run of flat_dim numerators: the
        coordinates, as elements of this space, of an element over it."""
        k = self._n
        return tuple(_reduced(self, num[i:i + k], den) for i in range(0, len(num), k))

    def scale_coords(self, num: Sequence[int], s: Sequence[int]) -> tuple:
        """x s over table_den, on the numerators of x over this space and of
        s in it: one kernel call, on the record of the identity on x's
        coordinates with this space's table."""
        return table_mul(table_over(_identity(len(num) // self._n), self._table), num, s)

    def from_scalar(self, s):
        """s * 1 for a base scalar s (or an int or a Fraction)."""
        sn, sd = self.base.num_den(s)
        un, ud = self._unit
        return _reduced(self, _times_unit(sn, len(sn), un), sd * ud)

    def extend(self, x):
        """x (x) 1: an element x of the same structure over this space's
        base's own base, each coordinate s read as s * 1 in the base."""
        un, ud = self.base._unit
        return _reduced(self, _times_unit(x.num, len(x.num) // self.dim, un), x.den * ud)

    def basis(self) -> list:
        """e_i (x) 1 for each coordinate i."""
        on, od = self.base.num_den(1)
        zero = (0,) * len(on)
        return [_reduced(self, zero * i + on + zero * (self.dim - 1 - i), od)
                for i in range(self.dim)]

    def flat_basis(self) -> list:
        """The basis that ``num_den`` reads numerators along: one
        numerator 1 at a time."""
        n = self.flat_dim()
        return [self.from_num((0,) * i + (1,) + (0,) * (n - 1 - i), 1) for i in range(n)]

    def basis_columns(self, rows: Sequence[Sequence[int]], den: int) -> tuple[list, int]:
        """The columns at ``basis()`` of a matrix over den on this space's
        numerators, rows as ``Table.contract`` gives them: column i is
        sum_k u_k M[., i m + k] for the numerators u of 1 in the base (over
        their den), so it is one column of M where 1 is a flat basis vector."""
        on, od = self.base.num_den(1)
        m = len(on)
        cols = list(zip(*rows))
        picked = []
        for i in range(0, len(cols), m):
            acc = [0] * len(rows)
            for u, col in zip(on, cols[i:i + m]):
                if u:
                    acc = [a + u * c for a, c in zip(acc, col)]
            picked.append(tuple(acc))
        return picked, den * od

    def concat(self, *parts):
        """The element whose coordinates are the parts' in turn, the inverse
        of ``Vec.block``: S.concat(x.block(A), x.block(B, A.dim)) == x.

        A part is a base scalar, one coordinate (over a base algebra K an
        element of K, or a rational read as one), or an element over the
        same base (or over an algebra over it), its coordinates; see
        ``_over_one_denominator``."""
        num, den = _over_one_denominator(self.base, parts)
        if len(num) != self._n:
            raise DescriptorError(f"{self.name}: parts fill {len(num)} of {self._n} numerators")
        return _reduced(self, num, den, False)

    def _multiply_by(self, t) -> None:
        """Make t, a table over Q base changed to this space's base, the
        product over ``table_den``, run by t's kernel, which t compiles on
        its first product over any structure."""
        self._table, self.table_den, self._kernel = t, t.den, t._kernel

    def mul(self, x, y):
        """The one table product: ``mul_coords`` on the numerators, over
        x.den * y.den * table_den."""
        return _reduced(self, self.mul_coords(x.num, y.num), x.den * y.den * self.table_den)

    def random(self, rng, height: Optional[int] = None, integral: bool = True):
        h = self.random_height if height is None else height
        return self.element(self, tuple(self.base.random(rng, h, integral)
                                        for _ in range(self.dim)))

    # -- flattening to Q (for exact linear algebra) --------------------------

    def flat_dim(self) -> int:
        return self._n

    @cached_property
    def _n(self) -> int:
        """The number of numerators, flat_dim, and of ``table_mul``'s outputs."""
        return self.dim * self.base.flat_dim()

    def unflatten(self, coords: Sequence[Scalar]):
        return self.from_num(*_over_one_denominator(QQ_BASE, coords))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))


class AlgElem(Vec):
    """Element of a CommAlgebra: a ``Vec`` with the algebra's maps."""

    __slots__ = ()
    alg = Vec.space

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


def _reduced(space, num: tuple, den: int, reduce: bool = True) -> Vec:
    """The element num / den of a structure, for an int den > 0, brought to
    lowest terms by one gcd unless den is 1 or the caller knows it is
    (``reduce``)."""
    if reduce and den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    x = _new(space.element)
    x.space = space
    x.num = num
    x.den = den
    x._coords = None
    return x


def _combine(space, op, x: Vec, y: Vec) -> Vec:
    """The element x op y of a structure, for op + or -, on numerators over
    the product of the two denominators when they differ."""
    a, b = x.den, y.den
    if a == b:
        return _reduced(space, tuple(map(op, x.num, y.num)), a)
    return _reduced(space, tuple(map(op, map(operator.mul, x.num, repeat(b)),
                                     map(operator.mul, y.num, repeat(a)))), a * b)


def table_mul(space, a, b):
    """The one product kernel: sum a_i b_j c e_k over the cells of
    ``space``'s table, into ``space._n`` numerators.  ``space`` is a
    ``Table``, a ``TableOver`` or a structure that multiplies by one (its
    ``_table``).  It is every table structure's ``mul_coords`` and every
    base algebra's ``scale_coords``, so a product over a tower is one
    kernel call on integers, and so is scaling by a base scalar.

    Every product runs the table's generated straight-line kernel
    (``_kernel_source``), which the first product compiles (``_compile``,
    0.3-46 ms on Python 3.11) and ``space`` keeps; a table that nothing
    multiplies by never compiles.  A cell that is not an int index pair and
    an int constant raises DescriptorError before a line is built."""
    kernel = space._kernel
    if kernel is None:
        kernel = space._kernel = space._table._compile()
    return kernel(a, b)


def _run(source: str, name: str, **names) -> Callable:
    """The function ``name`` defined by generated ``source``, run in a
    namespace with no builtins and only ``names``."""
    namespace = {"__builtins__": {}, **names}
    exec(compile(source, "<table_mul kernel>", "exec"), namespace)
    return namespace[name]


@dataclass(eq=False, slots=True, weakref_slot=True)
class Table:
    """The one table record over Q: the rows ``_cells`` that ``table_mul``
    runs into ``_n`` numerators, over the denominator ``den``, a cell
    (j, ((k, c), ...)) of row i the terms e_i e_j -> c e_k, every c an int
    (``rational_table``, ``symmetrized``, ``read_table``).  ``_kernel`` is
    the kernel ``table_mul`` compiles on its first product, which every
    structure that multiplies by the table shares (``CoordSpace._multiply_by``)
    and which dies with the table.  ``_kernels`` holds the ``make`` of each
    base shape the table is base changed to (``TableOver``), ``_as_base``
    what the tables over this one as a base read off it (``table_over``).  A
    table is equal only to itself: each is built once per key, so a rebuilt
    structure shares its tables and their kernels."""

    _cells: tuple
    _n: int
    den: int
    _kernel: Optional[Callable] = None
    _kernels: dict = field(default_factory=dict)
    _as_base: Optional[tuple] = None

    @property
    def _table(self) -> "Table":
        return self

    def _compile(self) -> Callable:
        """The table's kernel, compiled on the first call and kept."""
        if self._kernel is None:
            self._kernel = _run(_kernel_source(self._cells, self._n), "kernel")
        return self._kernel

    def apply(self, space, x, y):
        """t(x, y) in ``space``, a structure or a base: one kernel call."""
        return space.from_num(table_mul(self, x.num, y.num), x.den * y.den * self.den)

    def contract(self, x) -> list[list[int]]:
        """The matrix of y -> t(y, x) on numerators, integers over
        x.den * den: its rows M[k][i] = sum_j x_j c_ijk, in one pass over the
        cells, with no kernel and no probe.  y has as many numerators as the
        table has rows, as for every cross, pairing and product table."""
        return _contract(self._cells, self._n, x.num)


def _contract(cells: tuple, n: int, xs) -> list[list[int]]:
    """``Table.contract`` on the cells into n numerators and x's numerators."""
    m = [[0] * len(cells) for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in row:
            xj = xs[j]
            if xj:
                for k, c in cell:
                    m[k][i] += xj * c
    return m


class TableOver:
    """A table over Q base changed to a base: the record of the ``ground``
    table and the base's own product table, their Kronecker product (Van
    Loan, "The ubiquitous Kronecker product", 2000) on numerators i m + s
    for a ground index i and a base index s < m, over the product of the
    two dens.  Built once per (ground, base table) by ``table_over``.

    It holds no cells.  Its kernel is made by one ``make`` per (ground
    table, base shape) key, kept in ``ground._kernels[shape]`` and shared
    by every base of that shape: the base's cell positions with constants
    +-1 inlined and the others, such as D of Q(sqrt D) or the a, b, c, d of
    a cubic ring, bound as arguments (a kernel specialized to a shape,
    Futamura 1971; ``_as_base`` says which).  ``contract`` reads the base's
    cells ``_bcells``."""

    __slots__ = ("ground", "_n", "den", "_m", "_bcells", "_args", "_shape", "_kernel",
                 "_as_base")

    def __init__(self, ground: Table, base):
        self.ground = ground
        self._m = m = base._n
        self._n, self.den = ground._n * m, ground.den * base.den
        self._bcells, self._shape, self._args, _ = _as_base(base)
        self._kernel, self._as_base = None, None

    @property
    def _table(self) -> "TableOver":
        return self

    def _compile(self) -> Callable:
        """The record's kernel, bound on the first call and kept: its key's
        ``make``, compiled once, with this base's constants."""
        if self._kernel is None:
            g, shape = self.ground, self._shape
            make = g._kernels.get(shape)
            if make is None:
                sliced = _terms(g._cells) * sum(map(len, shape)) > _FUSED
                make = g._kernels[shape] = _run(_kernel_source(g._cells, g._n, shape, sliced),
                                                "make", g=g._compile() if sliced else None)
            self._kernel = make(*self._args)
        return self._kernel

    apply = Table.apply

    def contract(self, x) -> list[list[int]]:
        """``Table.contract``: M[k m + u][i m + s] = sum_jt x_(j m + t)
        c_ijk d_stu.  Per nonzero run x_j of m numerators, the base's own
        contraction with it, added as a block at each ground cell
        (i, j) -> (k, c)."""
        m, xs, cells = self._m, x.num, self.ground._cells
        blocks = {}
        for j in range(len(xs) // m):
            xj = xs[j * m:(j + 1) * m]
            if any(xj):
                blocks[j] = _contract(self._bcells, m, xj)
        out = [[0] * (len(cells) * m) for _ in range(self._n)]
        for i, row in enumerate(cells):
            at = i * m
            for j, cell in row:
                block = blocks.get(j)
                if block is None:
                    continue
                for k, c in cell:
                    for u, src in enumerate(block):
                        dst = out[k * m + u]
                        for s, v in enumerate(src):
                            if v:
                                dst[at + s] += c * v
        return out


def table_over(ground: Table, base) -> TableOver:
    """The record of ``ground`` over the base table ``base`` (a ``Table``,
    or a ``TableOver`` for a tower), built once per pair and kept on
    ``base``: every structure over one base shares it and its kernel."""
    records = _as_base(base)[3]
    t = records.get(ground)
    if t is None:
        t = records[ground] = TableOver(ground, base)
    return t


def _cells_of(t) -> tuple:
    """The cells of t: a table's own, or a tower's Kronecker product of its
    ground's and its base's, read off once when t is a base (``_as_base``)."""
    if isinstance(t, Table):
        return t._cells
    m = t._m
    return tuple(tuple((j * m + v, tuple((k * m + u, c * cc) for k, c in cell for u, cc in bcell))
                       for j, cell in row for v, bcell in brow)
                 for row in t.ground._cells for brow in t._bcells)


def _as_base(t) -> tuple:
    """What the tables over t read off t as their base, once per t: its
    cells; its shape; the kernels' arguments; and the records over t
    (``table_over``).

    The shape keeps the base's cells with each constant +-1 inlined and
    every other one an argument, in order, except past the first row and
    column (the products with e_0, the unit of every base algebra here) of
    a base of dimension over 2.  There every cell (s, t) -> (u, c) is in
    the shape for every u, its constant an argument, zero included: so the
    a, b, c, d of a cubic ring, +-1, zero or not, never split a shape, and
    every cubic ring over Q with its unit e_0 and integral constants
    shares one.  A quadratic base keeps its +-1: Q(i) and the split
    Q[x]/(x^2 - 1) get their own shapes, and every other Q(sqrt D) shares
    one, D its argument."""
    if t._as_base is None:
        cells, args = _cells_of(t), []

        def mark(c):
            if c == 1 or c == -1:
                return c
            args.append(c)
            return None

        def arg(c):
            args.append(c)
            return None

        m, shape = len(cells), []
        for s, row in enumerate(cells):
            dense, at = s and m > 2, dict(row)
            cols = [(j, tuple((k, mark(c)) for k, c in cell)) for j, cell in row
                    if not (dense and j)]
            if dense:
                cols += [(j, tuple((k, arg(dict(at.get(j, ())).get(k, 0))) for k in range(m)))
                         for j in range(1, m)]
            shape.append(tuple(cols))
        t._as_base = (cells, tuple(shape), tuple(args), {})
    return t._as_base


# the most terms one sum of a kernel chains: the compiler recurses once per
# term of a chain, and gives up near 3,000
_RUN = 100

# the most ground terms times base cells (s, t) a kernel over a base runs in
# one straight line; past it the kernel calls the ground's own kernel once
# per base cell.  Compiling takes about 1.4 KiB per term at its peak, which
# stays in the process's peak RSS: M_3 over the Hamilton quaternions over a
# cubic ring, 3,888 terms, peaks at 5.3 MiB in one line against 0.8 MiB by
# calls, which run 11 % slower (H_3's cross there, 1,242 terms: 1.7 against
# 0.4 MiB, 14 % slower; the matrix3 sharp over Q(i), 72 terms, runs 90 %
# slower by calls).  Python 3.11, tracemalloc and timeit.
_FUSED = 1024


def _terms(cells: tuple) -> int:
    return sum(len(cell) for row in cells for _, cell in row)


def _sum(terms: list) -> str:
    """The source of a sum of signed terms (sign, text), bracketed in runs
    of at most _RUN terms."""
    while len(terms) > _RUN:
        terms = [("+", f"({_sum(terms[s:s + _RUN])})") for s in range(0, len(terms), _RUN)]
    (sign, first), *rest = terms
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {t}" for s, t in rest)


def _signed(c: int, text: str) -> tuple[str, str]:
    """The term c * text, with c = +-1 inlined and |c| in hex, whose
    literals have no digit limit."""
    if c == 1 or c == -1:
        return ("+" if c == 1 else "-"), text
    return ("+" if c > 0 else "-"), f"{abs(c):#x}*{text}"


def _by_out(cells: tuple, n: int) -> list[dict]:
    """For each of n outputs k, its terms i -> [(j, c)] off the cells, which
    must hold int index pairs and int constants: any other cell raises
    DescriptorError before a line of source is built."""
    by_out = [{} for _ in range(n)]
    for i, row in enumerate(cells):
        for j, cell in row:
            for k, c in cell:
                if not (type(j) is int and type(k) is int and type(c) is int
                        and j >= 0 and 0 <= k < n):
                    raise DescriptorError(f"table cell ({i}, {j!r}) -> ({k!r}, {c!r}) is not "
                                          f"an int index pair and an int constant")
                by_out[k].setdefault(i, []).append((j, c))
    return by_out


def _product_sum(terms: dict, a: Callable, b: Callable, used: set) -> str:
    """sum_i a(i) (sum_j c b(j)) for the terms i -> [(j, c)] of one output,
    recording each b index it reads in ``used``."""
    parts = []
    for i, jcs in terms.items():
        used.update(j for j, _ in jcs)
        inner = [_signed(c, b(j)) for j, c in jcs]
        parts.append((inner[0][0], f"{a(i)}*{inner[0][1]}") if len(inner) == 1
                     else ("+", f"{a(i)}*({_sum(inner)})"))
    return _sum(parts) if parts else "0"


def _kernel_source(cells: tuple, n: int, shape: Optional[tuple] = None,
                   sliced: bool = False) -> str:
    """``table_mul`` on ``cells`` into n numerators as the source of one
    straight-line function ``kernel(a, b)``: a unpacked into locals, each
    b_j it reads bound once, and per output k one expression
    sum_i a_i (sum_j c b_j).

    With a base ``shape`` (see ``TableOver``) it is the source of
    ``make(c0, c1, ...)``, which binds the base's other constants and
    returns the kernel over a base of that shape: per base cell (s, t) and
    ground output k, the ground sub-product p_s_t_k of the runs a_s and b_t
    of numerators along base index s and t, once; then per output k m + u
    the sum of c p_s_t_k over the base's cells (s, t) -> (u, c), a
    sub-product that one base cell alone reads written in line.  ``sliced``
    takes each run's sub-products by one call of the ground's kernel ``g``,
    a name of the namespace, instead of in line (see ``_FUSED``).  Only int
    indices and int constants are formatted into it."""
    by_out = _by_out(cells, n)
    if shape is None:
        used = set()
        outs = [_product_sum(terms, "a{}".format, "b{}".format, used) for terms in by_out]
        lines = ["def kernel(a, b):"]
        if cells:
            lines.append("    " + "".join(f"a{i}, " for i in range(len(cells))) + "= a")
        lines += [f"    b{j} = b[{j}]" for j in sorted(used)]
        lines.append("    return (" + "".join(f"{e}, " for e in outs) + ")")
        return "\n".join(lines) + "\n"
    m = len(shape)
    marks, nargs = [], 0      # per base cell (s, t) -> (u, mark): (s, t, u, signed term text)
    for s, row in enumerate(shape):
        for t, cell in row:
            for u, mark in cell:
                if not (type(t) is int and type(u) is int and 0 <= t < m and 0 <= u < m
                        and (mark is None or type(mark) is int and mark in (1, -1))):
                    raise DescriptorError(f"base cell ({s}, {t!r}) -> ({u!r}, {mark!r}) is not "
                                          f"an int index pair and +-1 or an argument")
                if mark is None:
                    marks.append((s, t, u, "+", f"c{nargs}*"))
                    nargs += 1
                else:
                    marks.append((s, t, u, "+" if mark == 1 else "-", ""))
    lines = ["def make(" + "".join(f"c{r}, " for r in range(nargs)) + "):",
             "    def kernel(a, b):"]
    pairs = {}
    for s, t, *_ in marks:
        pairs[s, t] = pairs.get((s, t), 0) + 1
    # a sub-product is a local, or in line where one base cell reads it
    sub = {(s, t, k): f"p{s}_{t}_{k}" for s, t in pairs for k in range(n)}
    if sliced:
        lines += ["        " + "".join(f"p{s}_{t}_{k}, " if terms else "_, "
                                       for k, terms in enumerate(by_out))
                  + f"= g(a[{s}::{m}], b[{t}::{m}])" for s, t in pairs]
    else:
        if cells:
            lines.append("        " + "".join(f"a{i}_{s}, " for i in range(len(cells))
                                              for s in range(m)) + "= a")
        used, body = set(), []
        for (s, t), uses in pairs.items():
            bs = set()
            for k, terms in enumerate(by_out):
                if terms:
                    text = _product_sum(terms, f"a{{}}_{s}".format, f"b{{}}_{t}".format, bs)
                    if uses == 1:
                        sub[s, t, k] = f"({text})"
                    else:
                        body.append(f"        p{s}_{t}_{k} = {text}")
            used.update((j, t) for j in bs)
        lines += [f"        b{j}_{t} = b[{j * m + t}]" for j, t in sorted(used)] + body
    outs = [_sum([(sign, f"{c}{sub[s, t, k]}") for s, t, v, sign, c in marks if v == u])
            if terms and any(v == u for _, _, v, _, _ in marks) else "0"
            for k, terms in enumerate(by_out) for u in range(m)]
    lines.append("        return (" + "".join(f"{e}, " for e in outs) + ")")
    lines.append("    return kernel")
    return "\n".join(lines) + "\n"


def rational_table(terms, n: int, out: Optional[int] = None) -> Table:
    """The table over Q on n coordinates into ``out`` (n if None) of terms
    (i, j, k, c) for a rational c, e_i e_j -> c e_k: integers over one
    denominator, the c of equal (i, j, k) summed and a zero sum dropped."""
    rows = [{} for _ in range(n)]
    for i, j, k, c in terms:
        cell = rows[i].setdefault(j, {})
        cell[k] = cell.get(k, 0) + c
    den = math.lcm(*(c.denominator for row in rows for cell in row.values() for c in cell.values()))
    return Table(tuple(tuple((j, tuple((k, int(c * den)) for k, c in cell.items() if c))
                             for j, cell in sorted(row.items())) for row in rows),
                 n if out is None else out, den)


def flat_table(t: Table, base):
    """A table over Q base changed to ``base``: over Q t itself, otherwise
    the record of t and the base's table (``table_over``), which builds no
    cells."""
    return t if isinstance(base, RationalBase) else table_over(t, base._table)


def symmetrized(t: Table) -> Table:
    """t(x, y) + t(y, x), S_ij = A_ij + A_ji: the polarization of x -> t(x, x)."""
    terms = [(i, j, k, c) for i, row in enumerate(t._cells) for j, cell in row for k, c in cell]
    rows = rational_table(terms + [(j, i, k, c) for i, j, k, c in terms], len(t._cells))
    return Table(rows._cells, t._n, t.den)


@cache
def _identity(dim: int) -> Table:
    """x -> x s on ``dim`` coordinates and one scalar, over Q: base changed,
    the product of each coordinate's run of numerators with s."""
    return rational_table(((i, 0, i, 1) for i in range(dim)), dim)


class CommAlgebra(CoordSpace):
    """Finite commutative unital algebra over a base, given by rational
    structure constants.

    ``table[i][j]`` holds the coordinates of e_i * e_j, rationals, kept as
    integers over ``own_den``; their record with the base's table
    (``flat_table``) is the product on numerators.  Every formula
    works on an element's ``num`` over its ``den`` and ends in one exact
    division: ``_reduced`` for an element, the base's ``from_num`` for a
    base scalar.  The norm comes from the regular representation; the
    trace is a dot product with tr(e_i) = sum_k table[i][k][k] along each
    of the base's flat coordinates.  An element is a unit iff its norm is a
    unit (correct for the etale instances used here).
    """

    element = AlgElem

    def __init__(self, name: str, table, base=QQ_BASE, unit_coords=None):
        self.name = name
        self.table = tuple(tuple(tuple(qq(c) for c in cell) for cell in row) for row in table)
        self.dim = len(self.table)
        self.base = base
        self.unit_coords = tuple(qq(c) for c in unit_coords or (1,) + (0,) * (self.dim - 1))
        rows, self._int_trace = _algebra_tables(self.table)
        self.own_den = rows.den
        self._multiply_by(flat_table(rows, base))
        basis = self.basis()
        self._basis_num, self._basis_den = tuple(b.num for b in basis), basis[0].den

    # -- construction -------------------------------------------------------

    from_rational = CoordSpace.from_scalar

    def coerce(self, x):
        if isinstance(x, AlgElem):
            if x.alg is self or x.alg == self:
                return x
            if x.alg == self.base:
                return self.from_scalar(x)
            raise DescriptorError(f"element of {x.alg.name} used in {self.name}")
        if isinstance(x, (int, Fraction, str)):
            return self.from_rational(qq(x))
        raise DescriptorError(f"cannot coerce {type(x).__name__} into {self.name}")

    # -- arithmetic ---------------------------------------------------------

    # the numerators of a b over table_den
    mul_coords = table_mul

    def _regular_columns(self, u: AlgElem):
        """The numerators of the images of the basis under multiplication
        by u, and the denominator they are over."""
        return ([self.mul_coords(u.num, b) for b in self._basis_num],
                u.den * self._basis_den * self.table_den)

    def norm(self, u: AlgElem):
        cols, d = self._regular_columns(u)
        base = self.base
        # the determinant on the numerators (of the transpose), then one
        # division by d^dim
        n, dn = base.num_den(det([base.scalars(c, 1) for c in cols]))
        return base.from_num(n, dn * d ** self.dim)

    def _trace_num(self, num) -> list:
        """own_den * tr(num) along the base's flat coordinates: dot products
        with the integer trace vector."""
        k = len(num) // self.dim
        return [sum(map(operator.mul, num[c::k], self._int_trace)) for c in range(k)]

    def trace(self, u: AlgElem):
        return self.base.from_num(self._trace_num(u.num), u.den * self.own_den)

    def trace_rows(self, rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """own_den * tr of a matrix into coordinates over this algebra, on
        numerators: each coordinate's run of flat_dim rows, as
        ``Table.contract`` gives them, folded along the integer trace vector
        into one row per numerator of the base."""
        k = self.base.flat_dim()
        m = self.dim * k
        t = self._int_trace
        return [[sum(map(operator.mul, col, t)) for col in zip(*rows[i + c:i + m:k])]
                for i in range(0, len(rows), m) for c in range(k)]

    def is_unit(self, u: AlgElem) -> bool:
        return self.base.is_unit(self.norm(u))

    is_zero = staticmethod(operator.not_)

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
        # tr(u) = t / (den * own_den) and 1 = un / ud
        num, t = u.num, self._trace_num(u.num)
        un, ud = self._unit
        m = self.own_den * ud
        return _reduced(self, tuple(a - n * m for a, n in zip(_times_unit(t, len(t), un), num)),
                        u.den * m)

    # -- charpoly (for the adjoint of cubic algebras) -------------------------

    def char_s1_s2(self, u: AlgElem):
        """s1 = tr(u) and s2 = (tr(u)^2 - tr(u^2))/2, the first two
        coefficients of the characteristic polynomial of u."""
        num, base = u.num, self.base
        d = u.den * self.own_den
        t1 = self._trace_num(num)
        # tr(u)^2 and tr(u^2) over d^2 * base.table_den
        s2 = map(operator.sub, base.mul_coords(t1, t1), self._trace_num(self.mul_coords(num, num)))
        return base.from_num(t1, d), base.from_num(tuple(s2), 2 * d * d * base.table_den)

    @cached_property
    def _cubic_tables(self) -> tuple[Table, Table, Table]:
        """The adjoint, cross and trace-form tables over the base, for a
        cubic algebra (see ``_cubic_tables``)."""
        if self.dim != 3:
            raise DescriptorError("algebra adjoint implemented for cubic algebras only")
        return tuple(flat_table(t, self.base) for t in _cubic_tables(self.table, self.unit_coords))

    def adjoint(self, u: AlgElem) -> AlgElem:
        """u^# with u*u^# = norm(u), for a cubic algebra: one kernel call."""
        return self._cubic_tables[0].apply(self, u, u)

    def cross(self, u: AlgElem, v: AlgElem) -> AlgElem:
        """u x v = (u + v)^# - u^# - v^#: one kernel call."""
        return self._cubic_tables[1].apply(self, u, v)

    def base_change(self, new_base) -> "CommAlgebra":
        return CommAlgebra(self.name, self.table, base=new_base, unit_coords=self.unit_coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CommAlgebra) and self.table == other.table
                and self.base == other.base and self.unit_coords == other.unit_coords)

    def __hash__(self) -> int:
        return hash((self.table, self.unit_coords))

    def __repr__(self) -> str:
        return f"CommAlgebra({self.name}, dim={self.dim}, base={self.base!r})"


# the ground tables of the algebras a run keeps rebuilding, such as a
# quadratic field per command or the cubic ring of each orbit with its base
# changes, by key: each lives while a structure holds it, so every algebra
# with these constants, and every table over one, shares it and its kernels
_GROUND: "weakref.WeakValueDictionary[tuple, Table]" = weakref.WeakValueDictionary()


def _ground(key: tuple, build: Callable[[], Table]) -> Table:
    """The ground table of ``key``, built by ``build`` unless one lives."""
    t = _GROUND.get(key)
    if t is None:
        t = _GROUND[key] = build()
    return t


def _algebra_tables(table: tuple) -> tuple[Table, tuple]:
    """The product of an algebra with structure constants ``table`` as a
    table over Q, shared by every algebra with these constants and by their
    base changes, and its trace vector tr(e_i) = sum_k table[i][k][k] as
    integers over the table's den."""
    n = len(table)
    rows = _ground(("product", table), lambda: rational_table(
        ((i, j, k, c) for i, row in enumerate(table)
         for j, cell in enumerate(row) for k, c in enumerate(cell)), n))
    return rows, tuple(qq(sum(row[k][k] for k in range(n)) * rows.den) for row in table)


def _cubic_tables(table: tuple, unit: tuple) -> tuple[Table, Table, Table]:
    """A cubic algebra's adjoint u^# = u^2 - s1 u + s2 as one table over Q,
    sum u_i u_j A_ij with A_ij = e_i e_j - tr(e_i) e_j
    + (tr(e_i) tr(e_j) - tr(e_i e_j)) / 2; its cross, the adjoint table
    symmetrized; and its trace form tr(e_i e_j) into one coordinate.  Read
    off the structure constants once per key (``_ground``)."""
    tr = [sum(row[k][k] for k in range(3)) for row in table]
    traces = [[sum(map(operator.mul, prod, tr)) for prod in row] for row in table]

    def adjoint_table():
        return rational_table(((i, j, k, c - (tr[i] if k == j else 0)
                                + (tr[i] * tr[j] - traces[i][j]) * HALF * unit[k])
                               for i, row in enumerate(table) for j, prod in enumerate(row)
                               for k, c in enumerate(prod)), 3)

    adjoint = _ground(("adjoint", table, unit), adjoint_table)
    return (adjoint, _ground(("cross", table, unit), lambda: symmetrized(adjoint)),
            _ground(("trace form", table), lambda: rational_table(
                ((i, j, 0, t) for i, row in enumerate(traces) for j, t in enumerate(row)), 3, 1)))


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
        return self.basis()[1]

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


def row_over_lcd(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """A row of rationals as integers over their least common denominator."""
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


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
    row is cleared of denominators once and held as integers times a scale
    (int numerator, int denominator), a row is cleared as p * row - f *
    pivot_row and divided by its content, and a Fraction is built only for
    a non-integral entry of the result and for the factor, by one gcd.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a: list[list[int]] = []
    scale: list[tuple[int, int]] = []   # row i of the matrix is a[i] * sn / sd
    for row in rows:
        ints, den = row_over_lcd(row)
        g = math.gcd(*ints)
        a.append([x // g for x in ints] if g > 1 else ints)
        scale.append((g, den))
    pivots: list[int] = []
    fn, fd = 1, 1                        # the determinant factor fn / fd
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            fn = -fn
        prow = a[r]
        p = prow[c]
        fn, fd = fn * scale[r][0] * p, fd * scale[r][1]
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
                scale[i] = (scale[i][0] * g * content, scale[i][1] * p)
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
    return pivots, reduced, _rational(fn, fd)


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


def inverse_fraction(mat: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Inverse of a square rational matrix: one ``rref`` of mat augmented
    with the identity, whose reduced right half is the inverse when the
    left half holds every pivot, and the product mat * inverse is
    re-checked against the identity on integers: row i of mat over its lcd
    d_i times the inverse over its lcd d is d_i d e_i."""
    n = len(mat)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots, a, _ = rref([list(row) + e for row, e in zip(mat, eye)])
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is not invertible")
    inv = [row[n:] for row in a[:n]]
    num, d = row_over_lcd([x for row in inv for x in row])
    cols = [num[j::n] for j in range(n)]
    for row, e in zip(mat, eye):
        ints, di = row_over_lcd(row)
        if [sum(map(operator.mul, ints, c)) for c in cols] != [di * d * x for x in e]:
            raise IdentityError("matrix inverse failed its substitution check")
    return inv


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
    tuple with one entry per slot, read slot first, then along the slot's
    Q-basis, as numerators over one denominator."""

    def __init__(self, *spaces):
        self.spaces = spaces
        self._at = list(accumulate((s.flat_dim() for s in spaces), initial=0))

    def flat_dim(self) -> int:
        return self._at[-1]

    flat_basis = CoordSpace.flat_basis
    unflatten = CoordSpace.unflatten

    def num_den(self, x) -> tuple[tuple, int]:
        """x as its slots' numerators in turn over their least common denominator."""
        num, den = _over_one_denominator(QQ_BASE, x)
        if len(num) != self._at[-1]:
            raise DescriptorError(f"direct sum: {len(num)} numerators, not {self._at[-1]}")
        return num, den

    def from_num(self, num: Sequence[int], den: int) -> tuple:
        return tuple(s.from_num(num[i:j], den) for s, i, j in zip(self.spaces, self._at, self._at[1:]))


def over_lcd(parts: Iterable[tuple[Sequence[int], int]]) -> tuple[list, int]:
    """Numerator vectors (num, den) brought over their least common
    denominator: (the numerators, lcd)."""
    parts = list(parts)
    den = math.lcm(*(d for _, d in parts))
    return [num if d == den else [n * (den // d) for n in num] for num, d in parts], den


def _columns(f, dom, cod, *ys) -> list[Sequence[int]]:
    """The numerators of f on dom's flat basis, then of each y, over one lcd."""
    return over_lcd([cod.num_den(f(e)) for e in dom.flat_basis()]
                    + [cod.num_den(y) for y in ys])[0]


def map_matrix(f, dom, cod) -> list[tuple[int, ...]]:
    """The matrix of a Q-linear map f from dom to cod (spaces with ``num_den``)
    times a positive integer, which no kernel, pivot or solution sees: column
    j is the numerators of f(dom.flat_basis()[j]) over the columns' least
    common denominator.  Every solve and kernel over a structure reads it."""
    return list(zip(*_columns(f, dom, cod)))


def read_table(f, dom, cod, quadratic: bool = False) -> Table:
    """The table over Q of a Q-bilinear map f from dom x dom to cod (spaces
    with ``num_den``), read off f on every ordered pair of dom's flat basis
    vectors as ``map_matrix`` reads a linear map: f(e_i, e_j) in cell
    (i, j), nothing mirrored.  For a quadratic map f(x), the triangular
    table by polarization: f(e_i) in cell (i, i) and f(e_i + e_j) - f(e_i)
    - f(e_j) in cell (i, j) for i < j.  A map of neither kind reads as a
    table all the same, which its caller checks against f."""
    basis = dom.flat_basis()
    n = len(basis)
    if quadratic:
        diag = [f(e) for e in basis]
        cells = [(i, i, q) for i, q in enumerate(diag)]
        cells += [(i, j, f(basis[i] + basis[j]) - diag[i] - diag[j])
                  for i in range(n) for j in range(i + 1, n)]
    else:
        cells = [(i, j, f(a, b)) for i, a in enumerate(basis) for j, b in enumerate(basis)]
    terms = []
    for i, j, value in cells:
        num, den = cod.num_den(value)
        terms += [(i, j, k, Fraction(c, den)) for k, c in enumerate(num) if c]
    return rational_table(terms, n, cod.flat_dim())


def map_solve(f, dom, cod, y):
    """One x in dom with f(x) = y, or None when there is none (certified by
    ``linsolve`` on the columns and y over one lcd), re-checked by substitution."""
    *cols, rhs = _columns(f, dom, cod, y)
    sol = linsolve(list(zip(*cols)), rhs)
    if sol is None:
        return None
    x = dom.unflatten(sol)
    if cod.num_den(f(x)) != cod.num_den(y):
        raise IdentityError("linear solve failed its substitution check")
    return x
