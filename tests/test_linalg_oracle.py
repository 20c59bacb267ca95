"""The elimination layer (rref, linsolve, kernel, det_fraction) against
sympy's exact Matrix on small random rational matrices, including
rank-deficient matrices and inconsistent systems."""

import random
from fractions import Fraction as F

import pytest

from cubicnorm.scalars import det_fraction, kernel, linsolve, rref

sympy = pytest.importorskip("sympy")


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def from_sympy(x) -> F:
    return F(int(x.p), int(x.q))


def random_matrix(rng, m, n):
    """An m x n rational matrix; half the time a row repeats a multiple of
    row 0, so the rank drops below the row count."""
    rows = [[F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        rows[rng.randrange(1, m)] = [F(rng.randint(-2, 2)) * x for x in rows[0]]
    return rows


def cases(count=150):
    rng = random.Random(20261018)
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        yield random_matrix(rng, m, n), rhs


def test_rref_matches_sympy():
    deficient = set()
    for rows, _ in cases():
        pivots, reduced, _ = rref(rows)
        ref, ref_pivots = to_sympy(rows).rref()
        deficient.add(len(pivots) < min(len(rows), len(rows[0])))
        assert pivots == list(ref_pivots)
        # the reduced row echelon form is unique, so the pivot rows agree
        for i in range(len(pivots)):
            assert reduced[i] == [from_sympy(x) for x in ref.row(i)]
        assert all(x == 0 for row in reduced[len(pivots):] for x in row)
    assert deficient == {True, False}


def test_det_fraction_matches_sympy():
    rng = random.Random(7)
    singular = 0
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n)
        expected = from_sympy(to_sympy(rows).det())
        assert det_fraction(rows) == expected
        pivots, _, factor = rref(rows)
        if len(pivots) == n:
            assert factor == expected
        singular += expected == 0
    assert singular > 0


def test_kernel_matches_sympy():
    for rows, _ in cases():
        basis = kernel(rows)
        M = to_sympy(rows)
        assert len(basis) == len(M.nullspace())
        assert len(basis) == M.cols - M.rank()
        for v in basis:
            assert M * to_sympy([[x] for x in v]) == sympy.zeros(M.rows, 1)


def test_linsolve_matches_sympy():
    outcomes = set()
    for rows, rhs in cases():
        M = to_sympy(rows)
        solvable = M.rank() == M.row_join(to_sympy([[b] for b in rhs])).rank()
        x = linsolve(rows, rhs)
        outcomes.add(solvable)
        assert (x is not None) == solvable
        if x is not None:
            assert M * to_sympy([[c] for c in x]) == to_sympy([[b] for b in rhs])
    assert outcomes == {True, False}
