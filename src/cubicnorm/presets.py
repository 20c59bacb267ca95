"""Named presets for every paper-anchored instance, so the verification and
acceptance runs need no hand-written JSON."""

from __future__ import annotations

from .cns import (
    CNS,
    CayleyUCNS,
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    SecondKind,
    TitsUCNS,
    TrivialCNS,
    cubic_ring_algebra,
    second_kind_matrix,
    second_kind_tensor,
    split_cubic_algebra,
)
from .composition import CompAlgebra, comp_preset
from .lifting import disc_binary_cubic
from .scalars import DescriptorError, qq


def cns_preset(name: str) -> CNS:
    """The eight instance families by name:

    trivial, fxf, fxq / fxq-split, etale-cubic[:a,b,c,d], cubic-split,
    matrix3, h3-rational / h3-gaussian / h3-quaternion / h3-split-quaternion /
    h3-octonion / h3-split-octonion / h3:g1,g2,..., titsu-matrix:D,
    titsu-tensor:D, cayleyu:gamma (quaternion base) / cayleyu-comm:gamma.
    """
    if name == "trivial":
        return TrivialCNS()
    if name == "fxf":
        return ProductCNS(CompAlgebra(()))
    if name == "fxq":
        return ProductCNS(comp_preset("hamilton"))
    if name == "fxq-split":
        return ProductCNS(comp_preset("split-quaternion"))
    if name == "cubic-split":
        return CubicRingCNS(split_cubic_algebra())
    if name.startswith("etale-cubic"):
        if ":" in name:
            coeffs = [qq(c) for c in name.split(":", 1)[1].split(",")]
        else:
            coeffs = [qq(1), qq(0), qq(0), qq(1)]  # x^3 + y^3
        if len(coeffs) != 4 or disc_binary_cubic(*coeffs) == 0:
            raise DescriptorError("etale-cubic needs four coefficients a,b,c,d "
                                  "of nonzero discriminant")
        return CubicRingCNS(cubic_ring_algebra(*coeffs))
    if name == "matrix3":
        return Matrix3CNS()
    if name == "h3-rational":
        return H3CNS(CompAlgebra(()))
    if name == "h3-gaussian":
        return H3CNS(comp_preset("gaussian"))
    if name == "h3-quaternion":
        return H3CNS(comp_preset("hamilton"))
    if name == "h3-split-quaternion":
        return H3CNS(comp_preset("split-quaternion"))
    if name == "h3-octonion":
        return H3CNS(comp_preset("octonion"))
    if name == "h3-split-octonion":
        return H3CNS(comp_preset("split-octonion"))
    if name.startswith("h3:"):
        gammas = tuple(qq(g) for g in name.split(":", 1)[1].split(","))
        return H3CNS(CompAlgebra(gammas))
    if name.startswith("titsu-matrix"):
        D = qq(name.split(":", 1)[1]) if ":" in name else qq(-1)
        sk = second_kind_matrix(D)
        return TitsUCNS(sk, sk.J.one(), sk.K.one())
    if name.startswith("titsu-tensor"):
        D = qq(name.split(":", 1)[1]) if ":" in name else qq(5)
        sk = second_kind_tensor(CubicRingCNS(split_cubic_algebra()), D)
        return TitsUCNS(sk, sk.J.one(), sk.K.one())
    if name.startswith("cayleyu-comm"):
        g = qq(name.split(":", 1)[1]) if ":" in name else qq(3)
        return CayleyUCNS(comp_preset("gaussian"), g)
    if name.startswith("cayleyu"):
        g = qq(name.split(":", 1)[1]) if ":" in name else qq(2)
        return CayleyUCNS(comp_preset("hamilton"), g)
    raise DescriptorError(f"unknown cns preset {name!r}")


CNS_SUITE = [
    "trivial", "fxf", "etale-cubic", "fxq",
    "matrix3", "h3-quaternion", "titsu-matrix:-1", "cayleyu:2",
]

ASSOCIATIVE_SUITE = ["trivial", "fxf", "etale-cubic", "cubic-split", "fxq", "matrix3"]


def second_kind_preset(name: str) -> SecondKind:
    if name.startswith("matrix"):
        D = qq(name.split(":", 1)[1]) if ":" in name else qq(-1)
        return second_kind_matrix(D)
    if name.startswith("tensor"):
        parts = name.split(":")
        D = qq(parts[1]) if len(parts) > 1 else qq(5)
        inner = parts[2] if len(parts) > 2 else "cubic-split"
        return second_kind_tensor(cns_preset(inner), D)
    raise DescriptorError(f"unknown second-kind preset {name!r}")


def bhargava_pair(J: H3CNS, a, b, c, d):
    """The pair (A_1, B_1) whose binary cubic is a x^3 + b x^2 y + c xy^2
    + d y^3 and whose unit-class invariant is trivial."""
    a, b, c, d = qq(a), qq(b), qq(c), qq(d)
    z = J.comp.zero()
    one = J.comp.one()
    s = J.comp.from_scalar
    A1 = J.from_matrix((
        (s(0), z, one),
        (z, s(-a), z),
        (one, z, s(-c)),
    ))
    B1 = J.from_matrix((
        (s(0), -one, z),
        (-one, s(-b), z),
        (z, z, s(-d)),
    ))
    return A1, B1


def thm_diag_pair(J: H3CNS, d):
    """A = 1, B = diag(d, -d, 0): the explicit diagonal family with
    Q = 4 d^6."""
    d = qq(d)
    z = J.comp.zero()
    A = J.one()
    B = J.join((d, -d, 0), (z, z, z))
    return A, B
