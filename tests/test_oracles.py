"""Independent oracles for three core formulas: the quartic form on the
cube space against Bhargava's cube discriminant, the discriminant of a
binary cubic, and the cubic norm of H_3(C) over a commutative C against a
determinant.  Each oracle is computed by sympy, from its textbook
definition, never from this package's own formulas; the file is skipped
where sympy is missing."""

import random
from fractions import Fraction as F

import pytest

from cubicnorm.cns import H3CNS
from cubicnorm.composition import CompAlgebra
from cubicnorm.lifting import disc_binary_cubic
from cubicnorm.serialize import cube_space, cube_to_w

sympy = pytest.importorskip("sympy")

x, y, s = sympy.symbols("x y s")


def to_sympy(q) -> "sympy.Rational":
    q = F(q)
    return sympy.Rational(q.numerator, q.denominator)


def from_sympy(v) -> F:
    v = sympy.Rational(v)
    return F(int(v.p), int(v.q))


def bhargava_disc(a, b, c, d, e, f, g, h):
    """Disc of a 2x2x2 cube (Bhargava, Higher composition laws I, 2004): the
    discriminant of Q(x, y) = -det(M x - N y), with front face M = [[a, b],
    [c, d]] and back face N = [[e, f], [g, h]]."""
    M, N = sympy.Matrix([[a, b], [c, d]]), sympy.Matrix([[e, f], [g, h]])
    Q = sympy.Poly(sympy.expand(-(M * x - N * y).det()), x, y)
    A, B, C = (Q.coeff_monomial(m) for m in (x ** 2, x * y, y ** 2))
    return from_sympy(B * B - 4 * A * C)


def test_cube_quartic_is_bhargava_discriminant():
    rng = random.Random(2004)
    W = cube_space()
    for _ in range(40):
        cube = [rng.randint(-4, 4) for _ in range(8)]
        # Bhargava's (a, ..., h) in the order (a, b1, b2, b3, c1, c2, c3, d)
        # that cube_to_w reads
        labels = [cube[i] for i in (0, 1, 2, 6, 3, 5, 4, 7)]
        assert W.quartic(cube_to_w(cube, W)) == bhargava_disc(*labels), cube


def test_disc_binary_cubic_matches_sympy():
    rng = random.Random(3)
    for _ in range(60):
        a = rng.choice([-3, -2, -1, 1, 2, 3])
        b, c, d = (F(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(3))
        # a x^3 + b x^2 + c x + d with a != 0 has the binary cubic's discriminant
        f = a * x ** 3 + to_sympy(b) * x ** 2 + to_sympy(c) * x + to_sympy(d)
        expected = sympy.discriminant(f, x)
        assert disc_binary_cubic(a, b, c, d) == from_sympy(expected)


@pytest.mark.parametrize("gammas", [(), (-1,), (1,), (F(-7, 2),), (5,)])
def test_h3_norm_is_a_determinant(gammas):
    """Over a commutative C = F[s]/(s^2 - gamma) (or F), a Hermitian matrix
    has entries x + y s, and its cubic norm is the determinant of that
    matrix reduced modulo s^2 - gamma."""
    J = H3CNS(CompAlgebra(gammas))
    rng = random.Random(7)

    def entry(e):
        coords = [to_sympy(c) for c in e.coords]
        return coords[0] + (coords[1] * s if gammas else 0)

    for _ in range(15):
        X = J.random(rng)
        m = sympy.Matrix([[entry(e) for e in row] for row in J.to_matrix(X)])
        det = sympy.expand(m.det())
        if gammas:
            det = sympy.rem(det, s ** 2 - to_sympy(gammas[0]), s)
        assert J.norm(X) == from_sympy(det)
