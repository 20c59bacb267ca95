"""The elimination layer (rref, linsolve, kernel, det_fraction,
inverse_fraction) against sympy's exact Matrix on small random rational
matrices, including rank-deficient matrices and inconsistent systems, and
``rref`` against a Gauss-Jordan elimination in Fraction arithmetic."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnorm import scalars
from cubicnorm.scalars import (IdentityError, PreconditionError, det_fraction, inverse_fraction,
                               kernel, linsolve, qq, rref)

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


def test_inverse_fraction_matches_sympy():
    rng = random.Random(11)
    singular = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n)
        M = to_sympy(rows)
        if M.det() == 0:
            singular += 1
            with pytest.raises(PreconditionError):
                inverse_fraction(rows)
            continue
        assert to_sympy(inverse_fraction(rows)) == M.inv()
    assert singular > 0


def test_inverse_fraction_rechecks_the_elimination(monkeypatch):
    """The inverse read off rref is substituted back: an elimination that
    returns a wrong right half raises."""
    rows = [[F(2), F(1, 3)], [F(-1), F(5)]]
    assert [[sum(a * b for a, b in zip(r, c)) for c in zip(*inverse_fraction(rows))]
            for r in rows] == [[1, 0], [0, 1]]
    exact = scalars.rref

    def off_by_one(m):
        pivots, reduced, factor = exact(m)
        reduced[0][-1] += 1
        return pivots, reduced, factor

    monkeypatch.setattr(scalars, "rref", off_by_one)
    with pytest.raises(IdentityError, match="substitution"):
        inverse_fraction(rows)


def gauss_jordan_fractions(rows):
    """Oracle: Gauss-Jordan in Fraction arithmetic with the pivot rule of
    ``rref`` (the first nonzero entry at or below the current row), each
    pivot row scaled to a unit pivot as soon as it is found."""
    a = [[F(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots, factor, r = [], F(1), 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            factor = -factor
        pv = a[r][c]
        factor *= pv
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, a, factor


entries = st.one_of(st.just(0), st.integers(-30, 30),
                    st.fractions(min_value=-30, max_value=30, max_denominator=12))


@st.composite
def matrices(draw):
    """An m x n matrix of int and Fraction entries (a Fraction may be
    integral), m and n from 0 to 6; a row may be a combination of two
    earlier rows, so the rank drops, and a row or the matrix may be zero."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(("free", "combination", "zero")))
        if kind == "combination":
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entries), draw(entries)
            rows[i] = [qq(s * x + t * y) for x, y in zip(rows[j], rows[k])]
        elif kind == "zero":
            rows[i] = [0] * n
    return rows


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_gauss_jordan(rows):
    pivots, reduced, factor = rref(rows)
    ref_pivots, ref_rows, ref_factor = gauss_jordan_fractions(rows)
    assert pivots == ref_pivots
    assert reduced == ref_rows
    assert factor == ref_factor
    # an integral entry comes out as an int, whatever the input types
    assert all(type(x) is int for row in reduced for x in row if x.denominator == 1)


def test_det_fraction_matches_sympy_on_mixed_entries():
    """Matrices that need row swaps, have large or mixed int and Fraction
    entries, or are singular in their last pivot."""
    hilbert = [[F(1, i + j + 1) for j in range(6)] for i in range(6)]
    swaps = [[0, 0, 2, 1], [0, 3, F(1, 2), 0], [5, 1, 0, 0], [0, 0, 0, F(7, 3)]]
    mixed = [[F(4, 1), 2, F(-3, 5)], [1, F(1, 7), 0], [F(2, 3), -9, 11]]
    large = [[(-1) ** (i * j) * (10 ** 6 + 7 * i + j * j) for j in range(5)] for i in range(5)]
    singular = [[1, 2, 3], [F(1, 2), 1, F(3, 2)], [0, 5, -1]]
    zero_column = [[0, 1, 2], [0, 3, 4], [0, 5, F(1, 6)]]
    for rows in (hilbert, swaps, mixed, large, singular, zero_column, [[F(5, 3)]], [[0]]):
        assert det_fraction(rows) == from_sympy(to_sympy(rows).det())
    assert det_fraction(singular) == 0 and det_fraction(zero_column) == 0
