"""Composition algebras over Q (and their base changes), built uniformly by
Cayley-Dickson doubling.

A descriptor is a chain of 0 to 3 nonzero scalars (gamma_1, gamma_2, gamma_3);
the algebra has dimension 2^len.  Chains of length <= 2 are associative,
length <= 1 commutative.  Norm, trace, and conjugation come with the doubling:

    (x1, y1)(x2, y2) = (x1 x2 + gamma y2* y1,  y2 x1 + y1 x2*)
    (x, y)* = (x*, -y),   n((x, y)) = n(x) - gamma n(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import (
    AlgElem,
    DescriptorError,
    QQ_BASE,
    qq,
)


class CompAlgebra:
    """A composition algebra over a base ring, from a Cayley-Dickson chain."""

    def __init__(self, gammas: Sequence = (), base=QQ_BASE):
        gs = tuple(qq(g) for g in gammas)
        if len(gs) > 3:
            raise DescriptorError("doubling an octonion is unsupported: "
                                  "16-dimensional algebras are not composition algebras")
        if any(g == 0 for g in gs):
            raise DescriptorError("Cayley-Dickson gamma must be nonzero")
        self.gammas = gs
        self.base = base
        self.dim = 2 ** len(gs)

    @property
    def is_associative(self) -> bool:
        return len(self.gammas) <= 2

    @property
    def is_commutative(self) -> bool:
        return len(self.gammas) <= 1

    def elem(self, coords) -> "CompElt":
        cs = tuple(self.base.coerce(c) for c in coords)
        if len(cs) != self.dim:
            raise DescriptorError(f"expected {self.dim} coordinates, got {len(cs)}")
        return CompElt(self, cs)

    def zero(self) -> "CompElt":
        return CompElt(self, (self.base.zero(),) * self.dim)

    def one(self) -> "CompElt":
        coords = [self.base.zero()] * self.dim
        coords[0] = self.base.one()
        return CompElt(self, tuple(coords))

    def from_scalar(self, s) -> "CompElt":
        coords = [self.base.zero()] * self.dim
        coords[0] = self.base.coerce(s)
        return CompElt(self, tuple(coords))

    def basis(self) -> list["CompElt"]:
        out = []
        for i in range(self.dim):
            coords = [self.base.zero()] * self.dim
            coords[i] = self.base.one()
            out.append(CompElt(self, tuple(coords)))
        return out

    def coerce(self, x) -> "CompElt":
        if isinstance(x, CompElt):
            if x.alg == self:
                return x
            raise DescriptorError("composition-algebra descriptor mismatch")
        return self.from_scalar(x)

    # -- core kernels (recursive over the chain) -----------------------------

    def mul_coords(self, a, b, level: Optional[int] = None):
        if level is None:
            level = len(self.gammas)
        if level == 0:
            return (a[0] * b[0],)
        h = 2 ** (level - 1)
        g = self.gammas[level - 1]
        x1, y1 = a[:h], a[h:2 * h]
        x2, y2 = b[:h], b[h:2 * h]
        y2c = self.conj_coords(y2, level - 1)
        x2c = self.conj_coords(x2, level - 1)
        left = tuple(p + g * q for p, q in zip(self.mul_coords(x1, x2, level - 1),
                                               self.mul_coords(y2c, y1, level - 1)))
        right = tuple(p + q for p, q in zip(self.mul_coords(y2, x1, level - 1),
                                            self.mul_coords(y1, x2c, level - 1)))
        return left + right

    def conj_coords(self, a, level: Optional[int] = None):
        if level is None:
            level = len(self.gammas)
        if level == 0:
            return (a[0],)
        h = 2 ** (level - 1)
        return self.conj_coords(a[:h], level - 1) + tuple(-c for c in a[h:2 * h])

    def norm_coords(self, a, level: Optional[int] = None):
        if level is None:
            level = len(self.gammas)
        if level == 0:
            return a[0] * a[0]
        h = 2 ** (level - 1)
        g = self.gammas[level - 1]
        return self.norm_coords(a[:h], level - 1) - g * self.norm_coords(a[h:2 * h], level - 1)

    def random(self, rng, height: int = 3, integral: bool = True) -> "CompElt":
        return CompElt(self, tuple(self.base.random(rng, height, integral)
                                   for _ in range(self.dim)))

    def base_change(self, new_base) -> "CompAlgebra":
        return CompAlgebra(self.gammas, base=new_base)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CompAlgebra) and self.gammas == other.gammas
                and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.gammas, "comp"))

    def __repr__(self) -> str:
        gs = ",".join(str(g) for g in self.gammas)
        return f"CompAlgebra(({gs}), base={self.base!r})"


class CompElt:
    """Element of a composition algebra; immutable coordinate vector."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg: CompAlgebra, coords):
        self.alg = alg
        self.coords = tuple(coords)

    def _co(self, other) -> Optional["CompElt"]:
        if isinstance(other, CompElt):
            return other if other.alg == self.alg else None
        if isinstance(other, (int, Fraction, AlgElem)):
            try:
                return self.alg.from_scalar(other)
            except DescriptorError:
                return None
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return CompElt(self.alg, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return CompElt(self.alg, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CompElt(self.alg, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, CompElt):
            if other.alg != self.alg:
                raise DescriptorError("composition-algebra descriptor mismatch")
            return CompElt(self.alg, self.alg.mul_coords(self.coords, other.coords))
        if isinstance(other, (int, Fraction, AlgElem)):
            s = self.alg.base.coerce(other) if isinstance(other, AlgElem) else qq(other)
            return CompElt(self.alg, tuple(a * s for a in self.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, AlgElem)):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self) -> int:
        # an element s * 1 equals the base scalar s, so it hashes as s
        if all(map(self.alg.base.is_zero, self.coords[1:])):
            return hash(self.coords[0])
        return hash(("comp", self.coords))

    def __repr__(self) -> str:
        return f"CompElt{self.coords}"

    def conj(self) -> "CompElt":
        return CompElt(self.alg, self.alg.conj_coords(self.coords))

    def norm(self):
        return self.alg.norm_coords(self.coords)

    def trace(self):
        return self.coords[0] + self.coords[0]

    def is_zero(self) -> bool:
        return all(map(self.alg.base.is_zero, self.coords))

    def is_unit(self) -> bool:
        return self.alg.base.is_unit(self.norm())

    def inv(self) -> "CompElt":
        n = self.norm()
        return self.conj() * self.alg.base.inv(n)


def cd_double(desc: CompAlgebra, gamma) -> CompAlgebra:
    """Double a composition algebra by one more Cayley-Dickson step."""
    return CompAlgebra(desc.gammas + (qq(gamma),), base=desc.base)


# -- named presets ----------------------------------------------------------

_PRESETS = {
    "rational": (),
    "gaussian": (-1,),
    "split-quadratic": (1,),
    "hamilton": (-1, -1),
    "split-quaternion": (1, 1),
    "octonion": (-1, -1, -1),
    "split-octonion": (1, 1, 1),
}


def comp_preset(name: str) -> CompAlgebra:
    """Standard instances: rational, gaussian, split-quadratic, hamilton,
    split-quaternion (= M_2(Q)), octonion, split-octonion, quadratic:D,
    quaternion:a,b."""
    if name in _PRESETS:
        return CompAlgebra(_PRESETS[name])
    if name.startswith("quadratic:"):
        return CompAlgebra((qq(name.split(":", 1)[1]),))
    if name.startswith("quaternion:"):
        a, b = name.split(":", 1)[1].split(",")
        return CompAlgebra((qq(a), qq(b)))
    raise DescriptorError(f"unknown composition preset {name!r}")


# -- verification suite ------------------------------------------------------


@dataclass
class CheckReport:
    """Outcome of a randomized identity suite: pass counts per identity and
    the first counterexample for any identity that failed."""

    structure: str
    trials: int
    seed: int
    passes: dict
    failures: dict

    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "trials": self.trials,
            "seed": self.seed,
            "passes": dict(sorted(self.passes.items())),
            "failures": {k: repr(v) for k, v in sorted(self.failures.items())},
            "ok": self.ok(),
        }


def _record(report: CheckReport, name: str, holds: bool, witness) -> None:
    if holds:
        report.passes[name] = report.passes.get(name, 0) + 1
    elif name not in report.failures:
        report.failures[name] = witness


def comp_axioms_check(desc: CompAlgebra, trials: int = 100, seed: int = 0) -> CheckReport:
    """Check the composition-algebra laws on seeded random elements:
    norm multiplicativity, conjugation anti-automorphism, scalar trace,
    n(x) = x x*, trace associativity, and (chain length <= 2) associativity.
    """
    import random

    rng = random.Random(seed)
    report = CheckReport(structure=repr(desc), trials=trials, seed=seed,
                        passes={}, failures={})
    one = desc.one()
    for _ in range(trials):
        x = desc.random(rng)
        y = desc.random(rng)
        z = desc.random(rng)
        _record(report, "n(xy) = n(x)n(y)",
                (x * y).norm() == x.norm() * y.norm(), (x, y))
        _record(report, "(xy)* = y*x*",
                (x * y).conj() == y.conj() * x.conj(), (x, y))
        tr = x + x.conj()
        _record(report, "x + x* is scalar",
                tr == desc.from_scalar(x.trace()), x)
        _record(report, "n(x) = x x*",
                x * x.conj() == desc.from_scalar(x.norm()), x)
        lhs = (x * y) * z
        rhs = x * (y * z)
        _record(report, "tr(a(bc)) = tr((ab)c)",
                rhs.trace() == lhs.trace(), (x, y, z))
        if desc.is_associative:
            _record(report, "associativity", lhs == rhs, (x, y, z))
        if desc.is_commutative:
            _record(report, "commutativity", x * y == y * x, (x, y))
        _record(report, "x*1 = x", x * one == x, x)
    return report


def find_nonassociative_triple(desc: CompAlgebra):
    """Search the standard basis for (x, y, z) with (xy)z != x(yz); returns
    the first such triple, or None if the algebra is associative."""
    basis = desc.basis()
    for x in basis:
        for y in basis:
            for z in basis:
                if (x * y) * z != x * (y * z):
                    return x, y, z
    return None
