"""Tests for exact sparse linear algebra."""

import random
from fractions import Fraction

import pytest

from quantact.expr import GaussRat
from quantact.linalg import SparseMatrix, nullspace, rank, solve

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:
    hypothesis = None


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
    x, res, _ = solve(m, [GaussRat(3), GaussRat(6)])
    assert res is None
    assert (x[0] + x[1]) == GaussRat(3)
    x, res, _ = solve(m, [GaussRat(3), GaussRat(7)])
    assert res is not None
    assert any(not v.is_zero() for v in res)


def test_solutions_reinsert():
    rng = random.Random(99)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        xs = [GaussRat(rng.randint(-3, 3)) for _ in range(ncols)]
        b = m.mul_vector(xs)
        x, res, _ = solve(m, b)
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
            x, residual, kernel = solve(m, b)
            assert kernel == nullspace(m)
            consistent.add(residual is None)
            kernel_sizes.add(len(kernel))
    assert consistent == {True, False}
    assert len(kernel_sizes) > 1


# ---------------------------------------------------------------------------
# reference: Gauss-Jordan that scans every row for each pivot and clears it


def _ref_eliminate(rows, ncols):
    pivots = {}
    row_used = [False] * len(rows)
    for col in range(ncols):
        best = None
        for i, row in enumerate(rows):
            if not row_used[i] and col in row:
                if best is None or len(row) < len(rows[best]):
                    best = i
        if best is None:
            continue
        piv_row = rows[best]
        inv = piv_row[col].inv()
        for j in list(piv_row):
            piv_row[j] = piv_row[j] * inv
        row_used[best] = True
        pivots[col] = best
        for i, row in enumerate(rows):
            c = row.get(col)
            if i == best or c is None:
                continue
            for j, pv in piv_row.items():
                nv = row.get(j, GaussRat(0)) - c * pv
                if nv.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = nv
    return pivots


def _ref_solve_with_kernel(m, b):
    n = m.ncols
    rows = [dict(r) for r in m.rows]
    for row, v in zip(rows, b):
        if not v.is_zero():
            row[n] = v
    pivots = _ref_eliminate(rows, n)
    x = [GaussRat(0)] * n
    for col, i in pivots.items():
        x[col] = rows[i].get(n, GaussRat(0))
    residual = [bv - sum((c * x[j] for j, c in row.items()), GaussRat(0))
                for bv, row in zip(b, m.rows)]
    if all(v.is_zero() for v in residual):
        residual = None
    kernel = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [GaussRat(0)] * n
        vec[fc] = GaussRat(1)
        for col, i in pivots.items():
            if fc in rows[i]:
                vec[col] = -rows[i][fc]
        kernel.append(vec)
    return len(pivots), x, residual, kernel


def _block_matrix(rng, nblocks, max_size, empty_rows, empty_cols, shape=None):
    """Random sparse block matrix, rank deficient in its blocks, rows and
    columns permuted, with empty rows and columns mixed in.  A "tall" or
    "wide" shape gives each block more rows or more columns."""
    entries = []
    nrows = ncols = 0
    for _ in range(nblocks):
        r, c = rng.randint(1, max_size), rng.randint(1, max_size)
        if shape == "tall":
            r = c + rng.randint(1, max_size)
        elif shape == "wide":
            c = r + rng.randint(1, max_size)
        block = [{j: GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              rng.randint(-1, 1))
                  for j in range(c) if rng.random() < 0.5} for _ in range(r)]
        # a combination of two rows makes the block rank deficient
        if r > 2:
            w = GaussRat(rng.randint(1, 3), rng.randint(-1, 1))
            combo = dict(block[0])
            for j, v in block[1].items():
                combo[j] = combo.get(j, GaussRat(0)) + w * v
            block[2] = {j: v for j, v in combo.items() if not v.is_zero()}
        entries += [(nrows + i, ncols + j, v) for i, row in enumerate(block)
                    for j, v in row.items()]
        nrows, ncols = nrows + r, ncols + c
    row_perm = list(range(nrows + empty_rows))
    col_perm = list(range(ncols + empty_cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    m = SparseMatrix(len(row_perm), len(col_perm))
    for i, j, v in entries:
        m.set(row_perm[i], col_perm[j], v)
    return m


def _assert_matches_reference(m, rng):
    """Compare with the reference on b in the image and on a random b;
    returns (rank, whether the random b was consistent)."""
    image = [sum((c * GaussRat(rng.randint(-2, 2)) for c in row.values()), GaussRat(0))
             for row in m.rows]
    other = [GaussRat(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(m.nrows)]
    for b in (image, other):
        r, x, residual, kernel = _ref_solve_with_kernel(m, b)
        assert rank(m) == r
        assert solve(m, b) == (x, residual, kernel)
        assert nullspace(m) == kernel
    return r, residual is None


def test_elimination_matches_the_row_scan_reference():
    rng = random.Random(53)
    deficient, consistent = set(), set()
    for _ in range(40):
        m = _block_matrix(rng, rng.randint(1, 4), rng.randint(1, 5),
                          rng.randint(0, 3), rng.randint(0, 3))
        r, ok = _assert_matches_reference(m, rng)
        deficient.add(r < min(m.nrows, m.ncols))
        consistent.add(ok)
    assert deficient == consistent == {True, False}


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_elimination_matches_the_row_scan_reference_on_drawn_shapes():
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
                      st.integers(1, 6), st.integers(0, 3), st.integers(0, 3),
                      st.sampled_from([None, "tall", "wide"]))
    def check(seed, nblocks, max_size, empty_rows, empty_cols, shape):
        # rank eliminates the transpose of a tall matrix
        if shape == "tall":
            empty_cols = 0
        elif shape == "wide":
            empty_rows = 0
        rng = random.Random(seed)
        m = _block_matrix(rng, nblocks, max_size, empty_rows, empty_cols, shape)
        if shape is not None:
            assert (m.nrows > m.ncols) == (shape == "tall")
        _assert_matches_reference(m, rng)

    check()


def test_rank_leaves_pivot_rows_unscaled(monkeypatch):
    # forward elimination clears each row with one factor row[col] / pivot and
    # never scales a pivot row: on this 12 x 14 matrix (35 nonzeros, rank 8)
    # rank makes 17 products, where scaling every pivot row made 38
    m = _block_matrix(random.Random(7), 3, 6, 1, 1)
    assert (m.nrows, m.ncols, m.nnz()) == (12, 14, 35)
    calls = []
    real = GaussRat.__mul__

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(GaussRat, "__mul__", counting)
    assert rank(m) == 8
    monkeypatch.undo()
    assert len(calls) == 17
    assert rank(m) == _dense_rank_oracle(m.rows, m.ncols)
