"""Composition algebras over Q (and their base changes), built uniformly by
Cayley-Dickson doubling.

A descriptor is a chain of 0 to 3 nonzero scalars (gamma_1, gamma_2, gamma_3);
the algebra has dimension 2^len.  Chains of length <= 2 are associative,
length <= 1 commutative.  Norm, trace, and conjugation come with the doubling:

    (x1, y1)(x2, y2) = (x1 x2 + gamma y2* y1,  y2 x1 + y1 x2*)
    (x, y)* = (x*, -y),   n((x, y)) = n(x) - gamma n(y).

Unrolled on the basis, the doubling is a product table: e_i e_j = c_ij e_k
with k = i xor j and c_ij a signed product of gammas (Schafer, An
Introduction to Nonassociative Algebras, III.4; Baez, "The Octonions",
2.2).  Conjugation negates the coordinates 1..n-1, and the norm is
sum n_i a_i^2 with n_i the product of -gamma_l over the bits l of i.  The
table depends on the chain alone, so it is built once per chain and shared
by every base change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

from .scalars import (
    Certificate,
    CoordSpace,
    DescriptorError,
    QQ_BASE,
    Vec,
    qq,
)


class CompElt(Vec):
    """Element of a composition algebra; immutable coordinate vector."""

    __slots__ = ()
    alg = Vec.space

    def __repr__(self) -> str:
        return f"CompElt{self.coords}"

    def conj(self) -> "CompElt":
        return CompElt(self.alg, self.alg.conj_coords(self.coords))

    def norm(self):
        return self.alg.norm_coords(self.coords)

    def trace(self):
        return self.coords[0] + self.coords[0]

    def is_unit(self) -> bool:
        return self.alg.base.is_unit(self.norm())

    def inv(self) -> "CompElt":
        n = self.norm()
        return self.conj() * self.alg.base.inv(n)


class CompAlgebra(CoordSpace):
    """A composition algebra over a base ring, from a Cayley-Dickson chain."""

    element = CompElt

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
        self.name = f"comp({','.join(str(g) for g in gs)})"
        self.unit_coords = (1,) + (0,) * (self.dim - 1)
        self._zero = base.zero()
        self.table, self.norm_weights = _cd_table(gs)

    @property
    def is_associative(self) -> bool:
        return len(self.gammas) <= 2

    @property
    def is_commutative(self) -> bool:
        return len(self.gammas) <= 1

    def coerce(self, x) -> "CompElt":
        if isinstance(x, CompElt):
            if x.alg == self:
                return x
            raise DescriptorError("composition-algebra descriptor mismatch")
        return self.from_scalar(x)

    # -- core kernels (one pass over the product table) -----------------------

    def mul_coords(self, a, b):
        """sum a_i b_j c_ij e_k(i,j) over the nonzero coordinates, adding or
        subtracting a product when c_ij = +-1."""
        is0 = self.base.is_zero
        out = [self._zero] * self.dim
        for ai, row in zip(a, self.table):
            if is0(ai):
                continue
            for bj, (k, c) in zip(b, row):
                if is0(bj):
                    continue
                if c == 1:
                    out[k] = out[k] + ai * bj
                elif c == -1:
                    out[k] = out[k] - ai * bj
                else:
                    out[k] = out[k] + ai * bj * c
        return tuple(out)

    def conj_coords(self, a):
        return a[:1] + tuple(-c for c in a[1:])

    def norm_coords(self, a):
        acc = a[0] * a[0]
        for ai, n in zip(a[1:], self.norm_weights[1:]):
            acc = acc + ai * ai * n
        return acc

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


@cache
def _cd_table(gammas: tuple):
    """The product table of the Cayley-Dickson chain ``gammas``: rows i of
    pairs (k, c) with e_i e_j = c e_k; and the norm weights n_i.  One
    doubling step by gamma, with h the old dimension, reads off the doubling
    formula on basis vectors (e_b* = +-e_b, + for b = 0 only):

        e_a e_(h+b) = e_(h + k(b,a)) * c_ba,
        e_(h+a) e_b = e_(h + k(a,b)) * c_ab * (+-1),
        e_(h+a) e_(h+b) = e_k(b,a) * gamma * c_ba * (+-1).
    """
    table = {(0, 0): (0, 1)}
    weights = [1]
    for g in gammas:
        h = len(weights)
        star = [1] + [-1] * (h - 1)
        for a in range(h):
            for b in range(h):
                kab, cab = table[a, b]
                kba, cba = table[b, a]
                table[a, h + b] = (h + kba, cba)
                table[h + a, b] = (h + kab, cab * star[b])
                table[h + a, h + b] = (kba, qq(g * cba * star[b]))
        weights += [-g * n for n in weights]
    dim = len(weights)
    rows = tuple(tuple(table[i, j] for j in range(dim)) for i in range(dim))
    return rows, tuple(qq(n) for n in weights)


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
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise DescriptorError(f"bad composition preset {name!r}: expected quaternion:a,b")
        return CompAlgebra(tuple(qq(c) for c in parts))
    raise DescriptorError(f"unknown composition preset {name!r}")


# -- verification suite ------------------------------------------------------


@dataclass
class CheckReport(Certificate):
    """Outcome of a randomized identity suite: pass counts per identity and
    the first failing entry of each identity that failed."""

    structure: str
    trials: int
    seed: int
    passes: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, witness=None) -> None:
        """Count a pass, and record only the first failure of an identity,
        so the report does not grow with the number of trials."""
        if ok:
            self.passes[name] = self.passes.get(name, 0) + 1
        elif name not in self.failures:
            super().check(name, ok, witness)

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "trials": self.trials,
            "seed": self.seed,
            "passes": dict(sorted(self.passes.items())),
            "failures": {k: repr(v) for k, v in sorted(self.failures.items())},
            "ok": self.ok(),
        }


def comp_axioms_check(desc: CompAlgebra, trials: int = 100, seed: int = 0) -> CheckReport:
    """Check the composition-algebra laws on seeded random elements:
    norm multiplicativity, conjugation anti-automorphism, scalar trace,
    n(x) = x x*, trace associativity, and (chain length <= 2) associativity.
    """
    import random

    rng = random.Random(seed)
    report = CheckReport(structure=repr(desc), trials=trials, seed=seed)
    one = desc.one()
    for _ in range(trials):
        x = desc.random(rng)
        y = desc.random(rng)
        z = desc.random(rng)
        report.check("n(xy) = n(x)n(y)",
                     (x * y).norm() == x.norm() * y.norm(), (x, y))
        report.check("(xy)* = y*x*",
                     (x * y).conj() == y.conj() * x.conj(), (x, y))
        tr = x + x.conj()
        report.check("x + x* is scalar",
                     tr == desc.from_scalar(x.trace()), x)
        report.check("n(x) = x x*",
                     x * x.conj() == desc.from_scalar(x.norm()), x)
        lhs = (x * y) * z
        rhs = x * (y * z)
        report.check("tr(a(bc)) = tr((ab)c)",
                     rhs.trace() == lhs.trace(), (x, y, z))
        if desc.is_associative:
            report.check("associativity", lhs == rhs, (x, y, z))
        if desc.is_commutative:
            report.check("commutativity", x * y == y * x, (x, y))
        report.check("x*1 = x", x * one == x, x)
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
