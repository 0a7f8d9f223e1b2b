"""Tests for exact sparse linear algebra."""

import math
import os
import random
from fractions import Fraction

import pytest
from gauss_ref import Gauss
from int_first import assert_int_first

from quantact import dga, linalg
from quantact.cli import SessionConfig, run
from quantact.linalg import SparseMatrix, _eliminate, nullspace, rank, solve

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:
    hypothesis = None

try:
    from sympy import QQ
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    DomainMatrix = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dense_rank_oracle(rows, ncols):
    # straightforward dense elimination over Fractions of a complex-free copy
    m = [[complex(c.to_complex()) for c in (row.get(j, Gauss(0)) for j in range(ncols))]
         for row in rows]
    import numpy as np

    a = np.array(m, dtype=complex)
    return int(np.linalg.matrix_rank(a, tol=1e-9)) if a.size else 0


def _matrix(nrows, ncols, entries):
    """SparseMatrix with the Gauss ``entries`` {(i, j): value}; zeros are dropped."""
    cols = [{} for _ in range(ncols)]
    for (i, j), v in entries.items():
        if not v.is_zero():
            cols[j][i] = (v.re, v.im)
    return SparseMatrix(nrows, cols)


def _rows(m):
    """The rows {j: Gauss} of m: each kept column divided by its scale."""
    rows = [{} for _ in range(m.nrows)]
    for j, (col, den) in enumerate(zip(m.cols, m.scales)):
        for i, (x, y) in col.items():
            rows[i][j] = Gauss(Fraction(x, den), Fraction(y, den))
    return rows


def _mul(m, vec):
    """m times the Gauss vector ``vec``."""
    return [sum((c * vec[j] for j, c in row.items()), Gauss(0)) for row in _rows(m)]


# solve takes and returns (re, im) pairs; the references here compute with
# the test-side Gauss, which shares no arithmetic with quantact, and convert
# only where they call it
def _pairs(vec):
    return [v.key() for v in vec]


def _gauss_vec(vec):
    return [Gauss(*v) for v in vec]


def _assert_int_first_vectors(x, residual, kernel):
    """Every part of solve's outputs is an int when integral, else a Fraction
    with denominator > 1 (the invariant of a Poly coefficient)."""
    for vec in [x, residual or []] + kernel:
        for v in vec:
            assert_int_first(v)


def _random_matrix(rng, nrows, ncols, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[i, j] = Gauss(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                      Fraction(rng.randint(-2, 2)))
    return _matrix(nrows, ncols, entries)


def test_rank_matches_numeric_oracle():
    rng = random.Random(13)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(m) == _dense_rank_oracle(_rows(m), m.ncols)


def test_solve_consistent_and_inconsistent():
    m = _matrix(2, 2, {(0, 0): Gauss(1), (0, 1): Gauss(1),
                       (1, 0): Gauss(2), (1, 1): Gauss(2)})
    x, res, _ = solve(m, [(3, 0), (6, 0)])
    assert res is None
    assert Gauss(*x[0]) + Gauss(*x[1]) == Gauss(3)
    x, res, _ = solve(m, [(3, 0), (7, 0)])
    assert res is not None
    assert any(v != (0, 0) for v in res)


def test_solutions_reinsert():
    rng = random.Random(99)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        xs = [Gauss(rng.randint(-3, 3)) for _ in range(ncols)]
        b = _mul(m, xs)
        x, res, _ = solve(m, _pairs(b))
        assert res is None
        again = _mul(m, _gauss_vec(x))
        assert all((u - v).is_zero() for u, v in zip(again, b))


def test_nullspace_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        basis = nullspace(m)
        assert len(basis) == m.ncols - rank(m)
        for vec in basis:
            out = _mul(m, _gauss_vec(vec))
            assert all(v.is_zero() for v in out)


def test_solve_with_kernel_matches_solve_and_nullspace():
    rng = random.Random(41)
    consistent = set()
    kernel_sizes = set()
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = _random_matrix(rng, nrows, ncols)
        image = _mul(m, [Gauss(rng.randint(-3, 3)) for _ in range(ncols)])
        other = [Gauss(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(nrows)]
        for b in (image, other):
            x, residual, kernel = solve(m, _pairs(b))
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
                nv = row.get(j, Gauss(0)) - c * pv
                if nv.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = nv
    return pivots


def _ref_solve_with_kernel(m, b):
    n = m.ncols
    rows = _rows(m)
    for row, v in zip(rows, b):
        if not v.is_zero():
            row[n] = v
    pivots = _ref_eliminate(rows, n)
    x = [Gauss(0)] * n
    for col, i in pivots.items():
        x[col] = rows[i].get(n, Gauss(0))
    residual = [bv - sum((c * x[j] for j, c in row.items()), Gauss(0))
                for bv, row in zip(b, _rows(m))]
    if all(v.is_zero() for v in residual):
        residual = None
    kernel = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [Gauss(0)] * n
        vec[fc] = Gauss(1)
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
        block = [{j: Gauss(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           rng.randint(-1, 1))
                  for j in range(c) if rng.random() < 0.5} for _ in range(r)]
        # a combination of two rows makes the block rank deficient
        if r > 2:
            w = Gauss(rng.randint(1, 3), rng.randint(-1, 1))
            combo = dict(block[0])
            for j, v in block[1].items():
                combo[j] = combo.get(j, Gauss(0)) + w * v
            block[2] = {j: v for j, v in combo.items() if not v.is_zero()}
        entries += [(nrows + i, ncols + j, v) for i, row in enumerate(block)
                    for j, v in row.items()]
        nrows, ncols = nrows + r, ncols + c
    row_perm = list(range(nrows + empty_rows))
    col_perm = list(range(ncols + empty_cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    return _matrix(len(row_perm), len(col_perm),
                   {(row_perm[i], col_perm[j]): v for i, j, v in entries})


def _assert_matches_reference(m, rng, den=1):
    """Compare with the reference on b in the image and on a random b, both
    divided by ``den``; returns (rank, whether the random b was consistent).
    solve's outputs are in the int-first form."""
    image = [sum((c * Gauss(rng.randint(-2, 2)) for c in row.values()), Gauss(0))
             for row in _rows(m)]
    other = [Gauss(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(m.nrows)]
    for b in (image, other):
        b = [v * Gauss(Fraction(1, den)) for v in b]
        r, x, residual, kernel = _ref_solve_with_kernel(m, b)
        assert rank(m) == r
        got = solve(m, _pairs(b))
        assert got == (_pairs(x), residual and _pairs(residual), [_pairs(v) for v in kernel])
        _assert_int_first_vectors(*got)
        assert nullspace(m) == [_pairs(v) for v in kernel]
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
                      st.sampled_from([None, "tall", "wide"]), st.sampled_from([1, 7]))
    def check(seed, nblocks, max_size, empty_rows, empty_cols, shape, max_den):
        # rank eliminates the columns, few and long or many and short
        if shape == "tall":
            empty_cols = 0
        elif shape == "wide":
            empty_rows = 0
        rng = random.Random(seed)
        m = _block_matrix(rng, nblocks, max_size, empty_rows, empty_cols, shape)
        if shape is not None:
            assert (m.nrows > m.ncols) == (shape == "tall")
        _assert_matches_reference(m, rng, max_den)

    check()


def _counting(monkeypatch, cls, name, calls, active=None):
    """Wrap cls.name to append its class name to ``calls`` on each call,
    or only while the list ``active`` is nonempty."""
    real = getattr(cls, name)

    def counting(*args, **kwargs):
        if active is None or active:
            calls.append(cls.__name__)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def test_rank_makes_no_gauss_rationals_and_solve_one_inverse_per_pivot(monkeypatch):
    # elimination runs on Gaussian integers: on this 12 x 14 matrix (35
    # nonzeros, rank 8) rank builds no Fraction and inverts nothing, and
    # solve, on (re, im) pairs, inverts each pivot once, to divide its row
    # at the end
    m = _block_matrix(random.Random(7), 3, 6, 1, 1)
    assert (m.nrows, m.ncols, m.nnz()) == (12, 14, 35)
    b = [(i, 1) for i in range(m.nrows)]
    made, inverted = [], []
    _counting(monkeypatch, Fraction, "__new__", made)
    inverse = linalg._pair_inv
    monkeypatch.setattr(linalg, "_pair_inv", lambda c: inverted.append(c) or inverse(c))
    assert rank(m) == 8
    assert (made, inverted) == ([], [])
    solve(m, b)
    monkeypatch.undo()
    assert 0 < len(inverted) <= 8
    assert rank(m) == _dense_rank_oracle(_rows(m), m.ncols)


def test_cohomology_ranks_make_no_gauss_rationals_or_fractions(monkeypatch, tmp_path):
    # the differentials of the cohomology config have small integer entries,
    # so their ranks need no field arithmetic at all
    cfg = SessionConfig.load(os.path.join(ROOT, "configs", "cohomology_c4.cfg"),
                             out=str(tmp_path))
    ranks, made, in_rank = [], [], []
    real_rank = dga.rank

    def counted_rank(matrix):
        in_rank.append(matrix)
        try:
            ranks.append(real_rank(matrix))
        finally:
            in_rank.pop()
        return ranks[-1]

    _counting(monkeypatch, Fraction, "__new__", made, in_rank)
    monkeypatch.setattr(dga, "rank", counted_rank)
    assert run(cfg)[0] == 0
    monkeypatch.undo()
    assert len(ranks) >= 3 and made == []


# ---------------------------------------------------------------------------
# fraction-free elimination: entry growth, and an independent oracle


def test_dense_elimination_stays_within_the_hadamard_bound():
    # every minor of an integer matrix is at most its Hadamard bound
    # prod_i |row_i|; primitive rows keep entries near that size, where
    # dividing by the integer gcd alone reaches thousands of bits here
    rng = random.Random(12)
    n = 12
    rows = [{j: (rng.randint(-3, 3), rng.randint(-3, 3)) for j in range(n)} for _ in range(n)]
    rows = [{j: e for j, e in row.items() if e != (0, 0)} for row in rows]
    norms = [sum(x * x + y * y for x, y in row.values()) for row in rows]
    hadamard = math.isqrt(math.prod(norms)) + 1
    assert len(_eliminate(rows, n, back=False)) == n
    bits = max(abs(p).bit_length() for row in rows for e in row.values() for p in e)
    assert bits < 2 * hadamard.bit_length()


def _sympy_matrix(rows, ncols):
    """The rows {j: Gauss} as a dense sympy DomainMatrix over QQ<I>."""
    zero = Gauss(0)

    def element(c):
        return QQ_I(QQ(c.re.numerator, c.re.denominator),
                    QQ(c.im.numerator, c.im.denominator))

    return DomainMatrix([[element(row.get(j, zero)) for j in range(ncols)] for row in rows],
                        (len(rows), ncols), QQ_I)


def _gauss(e):
    return Gauss(Fraction(int(e.x.numerator), int(e.x.denominator)),
                 Fraction(int(e.y.numerator), int(e.y.denominator)))


@pytest.mark.skipif(hypothesis is None or DomainMatrix is None,
                    reason="needs hypothesis and sympy")
def test_rank_and_solve_match_sympy_over_gaussian_rationals():
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16),
                      st.integers(1, 16), st.sampled_from([0.2, 0.5, 1.0]),
                      st.sampled_from([1, 7]), st.booleans())
    def check(seed, nrows, ncols, density, max_den, in_image):
        # integer entries make unit pivots (1, -1, i, -i) common
        rng = random.Random(seed)
        entries = {}
        for i in range(nrows):
            for j in range(ncols):
                if rng.random() < density:
                    entries[i, j] = Gauss(
                        Fraction(rng.randint(-2, 2), rng.randint(1, max_den)),
                        Fraction(rng.randint(-2, 2), rng.randint(1, max_den)))
        m = _matrix(nrows, ncols, entries)
        if in_image:
            b = _mul(m, [Gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                              for _ in range(ncols)])
        else:
            b = [Gauss(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(nrows)]
        assert rank(m) == _sympy_matrix(_rows(m), ncols).rank()
        # the reduced echelon form of [A | b] is unique: its pivots in A give
        # x and the kernel, and a pivot in b means there is no solution
        aug = _rows(m)
        for row, v in zip(aug, b):
            if not v.is_zero():
                row[ncols] = v
        ref, pivots = _sympy_matrix(aug, ncols + 1).rref()
        ref = [[_gauss(e) for e in row] for row in ref.to_list()]
        x, residual, kernel = solve(m, _pairs(b))
        _assert_int_first_vectors(x, residual, kernel)
        x, kernel = _gauss_vec(x), [_gauss_vec(v) for v in kernel]
        consistent.add(residual is None)
        assert (residual is None) == (ncols not in pivots)
        if residual is None:
            expected = [Gauss(0)] * ncols
            for r, col in enumerate(pivots):
                expected[col] = ref[r][ncols]
            assert x == expected
        free = [j for j in range(ncols) if j not in pivots]
        expected_kernel = []
        for fc in free:
            vec = [Gauss(0)] * ncols
            vec[fc] = Gauss(1)
            for r, col in enumerate(pivots):
                if col < ncols:
                    vec[col] = -ref[r][fc]
            expected_kernel.append(vec)
        assert kernel == expected_kernel

    consistent = set()
    check()
    assert consistent == {True, False}
