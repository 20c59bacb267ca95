"""JSON encoding and decoding for the public value types.

Scalars serialize as strings "p/q" (lowest terms, "p" when q = 1); quotient
algebra elements as arrays of scalar strings, low degree first; composition
and cubic-norm-structure elements as coordinate arrays in the documented
canonical bases; W elements as {"a", "b", "c", "d"}; Bhargava cubes as eight
integers mapped onto W over the split cubic coordinates."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cns import (
    CNS,
    CayleyUCNS,
    CnsElt,
    CubicRingCNS,
    H3CNS,
    Matrix3CNS,
    ProductCNS,
    TrivialCNS,
    cubic_ring_algebra,
    split_cubic_algebra,
    split_cubic_idempotents,
)
from .composition import CompAlgebra, CompElt
from .freudenthal import WElt, WSpace
from .scalars import (
    AlgElem,
    CommAlgebra,
    DescriptorError,
    QuotientAlgebra,
    det_fraction,
    qq,
    scalar_from_str,
    scalar_to_str,
)


def enc_scalar(x: Fraction) -> str:
    return scalar_to_str(x)


def dec_scalar(s) -> Fraction:
    if not isinstance(s, (int, float, str)) or isinstance(s, bool):
        raise DescriptorError(f"a scalar must be a \"p/q\" string, got {type(s).__name__}")
    try:
        return qq(s) if isinstance(s, int) else scalar_from_str(s)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DescriptorError(f"malformed scalar {s!r}") from None


def _as(kind: type, data, what: str, length: Optional[int] = None):
    """data, checked to have decoded from JSON as a ``kind`` (an object or an
    array, the array of the given length when one is given)."""
    if not isinstance(data, kind):
        raise DescriptorError(f"{what}: expected a JSON {'object' if kind is dict else 'array'}, "
                              f"got {type(data).__name__}")
    if length is not None and len(data) != length:
        raise DescriptorError(f"{what}: expected {length} entries, got {len(data)}")
    return data


def _at(data, *keys):
    """data[k0][k1]..., each level checked to be a JSON object."""
    for key in keys:
        if not isinstance(data, dict):
            raise DescriptorError(f"expected a JSON object with key {key!r}, "
                                  f"got {type(data).__name__}")
        data = data[key]
    return data


def enc_base_elt(x) -> object:
    if isinstance(x, Fraction):
        return enc_scalar(x)
    if isinstance(x, AlgElem):
        return [enc_base_elt(c) for c in x.coords]
    raise DescriptorError(f"cannot serialize {type(x).__name__}")


def dec_base_elt(base, data):
    if isinstance(base, CommAlgebra):
        return base.elem([dec_base_elt(base.base, d) for d in _as(list, data, "algebra element")])
    return dec_scalar(data)


def enc_comp_desc(comp: CompAlgebra) -> dict:
    return {"gammas": [enc_scalar(g) for g in comp.gammas]}


def dec_comp_desc(data: dict) -> CompAlgebra:
    return CompAlgebra(tuple(dec_scalar(g) for g in _as(list, _at(data, "gammas"), "gammas")))


def enc_comp_elt(x: CompElt) -> dict:
    return {"comp": enc_comp_desc(x.alg), "coords": [enc_base_elt(c) for c in x.coords]}


def dec_comp_elt(data: dict) -> CompElt:
    comp = dec_comp_desc(_at(data, "comp"))
    return comp.elem([dec_scalar(c) for c in _as(list, data["coords"], "coords")])


def enc_cns_desc(J: CNS) -> dict:
    base = None
    if isinstance(J.base, QuotientAlgebra):
        base = {"modulus": [enc_scalar(c) for c in J.base.modulus]}
    if isinstance(J, TrivialCNS):
        d = {"variant": "trivial"}
    elif isinstance(J, ProductCNS):
        d = {"variant": "fxc", "comp": enc_comp_desc(J.comp)}
    elif isinstance(J, CubicRingCNS):
        d = {"variant": "cubic", "table": [[list(map(enc_scalar, cell)) for cell in row]
                                           for row in J.alg.table]}
    elif isinstance(J, Matrix3CNS):
        d = {"variant": "matrix3"}
    elif isinstance(J, H3CNS):
        d = {"variant": "h3", "comp": enc_comp_desc(J.comp)}
    elif isinstance(J, CayleyUCNS):
        d = {"variant": "cayleyu", "comp": enc_comp_desc(J.comp),
             "gamma": enc_scalar(J.gamma)}
    else:
        raise DescriptorError(f"cannot serialize descriptor for {J.name}")
    if base is not None:
        d["base"] = base
    return {"cns": d}


def dec_cns_desc(data: dict) -> CNS:
    d = _at(data, "cns") if "cns" in _as(dict, data, "structure") else data
    variant = _at(d, "variant")
    if variant == "trivial":
        J = TrivialCNS()
    elif variant == "fxc":
        J = ProductCNS(dec_comp_desc(d["comp"]))
    elif variant == "cubic":
        if "table" in d:
            table = tuple(tuple(tuple(dec_scalar(x) for x in _as(list, cell, "table", 3))
                                for cell in _as(list, row, "table", 3))
                          for row in _as(list, d["table"], "table", 3))
            alg = CommAlgebra("T", table)
            e = alg.basis()
            if not all(e[0] * x == x and x * y == y * x and (x * y) * z == x * (y * z)
                       for x in e for y in e for z in e):
                raise DescriptorError("a cubic table must define a commutative associative "
                                      "algebra with unit e_0")
            J = CubicRingCNS(alg)
        else:
            coeffs = _as(list, d["coeffs"], "coeffs", 4)
            J = CubicRingCNS(cubic_ring_algebra(*[dec_scalar(c) for c in coeffs]))
        if det_fraction([[J.pair(x, y) for y in J.basis()] for x in J.basis()]) == 0:
            raise DescriptorError("a cubic descriptor needs an etale cubic algebra "
                                  "(a trace form of nonzero determinant)")
    elif variant == "matrix3":
        J = Matrix3CNS()
    elif variant == "h3":
        J = H3CNS(dec_comp_desc(d["comp"]))
    elif variant == "cayleyu":
        J = CayleyUCNS(dec_comp_desc(d["comp"]), dec_scalar(d["gamma"]))
    else:
        raise DescriptorError(f"unknown cns variant {variant!r}")
    if "base" in d:
        modulus = _as(list, _at(d, "base", "modulus"), "modulus")
        J = J.base_change(QuotientAlgebra([dec_scalar(c) for c in modulus]))
    return J


def enc_cns_elt(x: CnsElt) -> dict:
    out = enc_cns_desc(x.J)
    out["coords"] = [enc_base_elt(c) for c in x.coords]
    return out


def dec_cns_elt(data: dict, J: Optional[CNS] = None) -> CnsElt:
    if J is None:
        J = dec_cns_desc(data)
    return J.elem([dec_base_elt(J.base, c) for c in _as(list, _at(data, "coords"), "coords")])


def enc_w_elt(v: WElt) -> dict:
    return {
        "a": enc_base_elt(v.a),
        "b": [enc_base_elt(c) for c in v.b.coords],
        "c": [enc_base_elt(c) for c in v.c.coords],
        "d": enc_base_elt(v.d),
    }


def dec_w_elt(data: dict, W: WSpace) -> WElt:
    J = W.J
    base = W.base
    if "cube" in _as(dict, data, "W element"):
        return cube_to_w(_as(list, data["cube"], "cube"), W)
    return W.elem(dec_base_elt(base, data["a"]),
                  J.elem([dec_base_elt(base, c) for c in _as(list, data["b"], "b")]),
                  J.elem([dec_base_elt(base, c) for c in _as(list, data["c"], "c")]),
                  dec_base_elt(base, data["d"]))


def cube_space() -> WSpace:
    """W over the split cubic coordinates Z^3 (the 2x2x2 cube space)."""
    return WSpace(CubicRingCNS(split_cubic_algebra()))


def cube_to_w(cube, W: Optional[WSpace] = None) -> WElt:
    """Map eight integers (a, b1, b2, b3, c1, c2, c3, d) onto W over Z^3,
    using the primitive idempotents of the split cubic ring."""
    if W is None:
        W = cube_space()
    elif W != cube_space():
        raise DescriptorError("a cube lives in the cube space (structure preset:cubic-split)")
    if len(cube) != 8:
        raise DescriptorError("a cube needs exactly 8 integers")
    a, b1, b2, b3, c1, c2, c3, d = [dec_scalar(x) for x in cube]
    J = W.J
    alg = J.alg
    e1, e2, e3 = split_cubic_idempotents(alg)
    b = e1 * b1 + e2 * b2 + e3 * b3
    c = e1 * c1 + e2 * c2 + e3 * c3
    return W.elem(a, CnsElt(J, b.coords), CnsElt(J, c.coords), d)


def w_to_cube(v: WElt) -> list:
    """Inverse of cube_to_w on integral elements of W over Z^3."""
    J = v.W.J
    alg = J.alg
    e1, e2, e3 = split_cubic_idempotents(alg)

    # the idempotents are orthogonal with trace 1, so tr(u e_i) reads off
    # the i-th component
    def comps(x: CnsElt):
        u = AlgElem(alg, x.coords)
        return [alg.trace(u * e) for e in (e1, e2, e3)]

    b = comps(v.b)
    c = comps(v.c)
    return [enc_scalar(x) for x in [v.a] + b + c + [v.d]]


def enc_ideal_sa(ideal) -> dict:
    return {
        "ring": {"quad": {"D": enc_scalar(ideal.ring.D)}},
        "structure": enc_cns_desc(ideal.J),
        "basis": [[enc_base_elt(c) for c in b.coords] for b in ideal.basis],
        "beta": enc_base_elt(ideal.beta),
    }


def dec_ideal_sa(data: dict):
    from .rings_ideals import IdealSA, quad_ring

    ring = quad_ring(dec_scalar(_at(data, "ring", "quad", "D")))
    J = dec_cns_desc(data["structure"])
    E = ring.field()
    JE = J.base_change(E)
    basis = tuple(JE.elem([dec_base_elt(E, c) for c in _as(list, b, "basis element")])
                  for b in _as(list, data["basis"], "basis", 2))
    return IdealSA(ring, J, E, basis, _dec_unit(E, data["beta"]))


def enc_ideal_tc(ideal) -> dict:
    return {
        "ring": {"cubic": {"coeffs": [enc_scalar(c) for c in ideal.ring.coeffs]}},
        "comp": enc_comp_desc(ideal.comp),
        "basis": [[enc_base_elt(c) for c in b.coords] for b in ideal.basis],
        "beta": enc_base_elt(ideal.beta),
    }


def dec_ideal_tc(data: dict):
    from .rings_ideals import CubicRing, IdealTC

    coeffs = _as(list, _at(data, "ring", "cubic", "coeffs"), "coeffs", 4)
    ring = CubicRing(tuple(dec_scalar(c) for c in coeffs))
    comp = dec_comp_desc(data["comp"])
    T = ring.algebra()
    compT = comp.base_change(T)
    basis = tuple(compT.elem([dec_base_elt(T, c) for c in _as(list, b, "basis element")])
                  for b in _as(list, data["basis"], "basis", 3))
    return IdealTC(ring, comp, T, basis, _dec_unit(T, data["beta"]))


def _dec_unit(alg: CommAlgebra, data) -> AlgElem:
    """An element of alg that must be a unit (an ideal's scale beta)."""
    beta = dec_base_elt(alg, data)
    if not alg.is_unit(beta):
        raise DescriptorError("beta must be a unit")
    return beta
