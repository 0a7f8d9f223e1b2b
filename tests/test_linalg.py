"""Tests for exact sparse linear algebra."""

import random
from fractions import Fraction

import pytest

from quantact.expr import GaussRat
from quantact.linalg import (SparseMatrix, left_inverse, nullspace, rank,
                             residual_vector, solve, solve_with_kernel)


def _dense_rank_oracle(rows, ncols):
    # straightforward dense elimination over Fractions of a complex-free copy
    m = [[complex(c.to_complex()) for c in (row.get(j, GaussRat(0)) for j in range(ncols))]
         for row in rows]
    import numpy as np

    a = np.array(m, dtype=complex)
    return int(np.linalg.matrix_rank(a, tol=1e-9)) if a.size else 0


def _random_matrix(rng, nrows, ncols, density=0.4):
    m = SparseMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m.set(i, j, GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                     Fraction(rng.randint(-2, 2))))
    return m


def test_rank_matches_numeric_oracle():
    rng = random.Random(13)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(m) == _dense_rank_oracle(m.rows, m.ncols)


def test_solve_consistent_and_inconsistent():
    m = SparseMatrix(2, 2)
    m.set(0, 0, GaussRat(1))
    m.set(0, 1, GaussRat(1))
    m.set(1, 0, GaussRat(2))
    m.set(1, 1, GaussRat(2))
    x, res = solve(m, [GaussRat(3), GaussRat(6)])
    assert res is None
    assert (x[0] + x[1]) == GaussRat(3)
    x, res = solve(m, [GaussRat(3), GaussRat(7)])
    assert res is not None
    assert any(not v.is_zero() for v in res)


def test_solutions_reinsert():
    rng = random.Random(99)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        xs = [GaussRat(rng.randint(-3, 3)) for _ in range(ncols)]
        b = m.mul_vector(xs)
        x, res = solve(m, b)
        assert res is None
        again = m.mul_vector(x)
        assert all((u - v).is_zero() for u, v in zip(again, b))


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        basis = nullspace(m)
        assert len(basis) == m.ncols - rank(m)
        for vec in basis:
            out = m.mul_vector(vec)
            assert all(v.is_zero() for v in out)


def test_left_inverse_of_full_column_rank():
    rng = random.Random(23)
    checked = 0
    while checked < 10:
        nrows = rng.randint(1, 7)
        m = _random_matrix(rng, nrows, rng.randint(1, nrows))
        if rank(m) < m.ncols:
            with pytest.raises(ValueError):
                left_inverse(m)
            continue
        checked += 1
        inv = left_inverse(m)
        for j in range(m.ncols):
            col = [m.rows[i].get(j, GaussRat(0)) for i in range(m.nrows)]
            unit = [GaussRat(1 if i == j else 0) for i in range(m.ncols)]
            assert inv.mul_vector(col) == unit
        x = [GaussRat(rng.randint(-3, 3)) for _ in range(m.ncols)]
        b = m.mul_vector(x)
        assert residual_vector(m, x, b) is None
        assert inv.mul_vector(b) == x


def test_solve_with_kernel_matches_solve_and_nullspace():
    rng = random.Random(41)
    consistent = set()
    kernel_sizes = set()
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        image = m.mul_vector([GaussRat(rng.randint(-3, 3)) for _ in range(ncols)])
        other = [GaussRat(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(nrows)]
        for b in (image, other):
            x, residual, kernel = solve_with_kernel(m, b)
            assert (x, residual) == solve(m, b)
            assert kernel == nullspace(m)
            consistent.add(residual is None)
            kernel_sizes.add(len(kernel))
    assert consistent == {True, False}
    assert len(kernel_sizes) > 1
