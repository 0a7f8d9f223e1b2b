"""Exact sparse linear algebra over the Gaussian rationals.

Matrices arising from cochain differentials are large but very sparse, so
rows are kept as dicts column -> coefficient and elimination pivots on
sparse rows first.  All arithmetic is exact field arithmetic in Q(i); ranks,
solutions and nullspaces carry no floating error.
"""

from __future__ import annotations

from collections import defaultdict

from .expr import GaussRat, GR_ONE


class SparseMatrix:
    """Rows as dicts column -> nonzero coefficient; ``set`` and ``add`` drop zeros."""

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]

    def set(self, i, j, value):
        value = GaussRat.of(value)
        if value.is_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = value

    def add(self, i, j, value):
        value = GaussRat.of(value)
        cur = self.rows[i].get(j)
        s = value if cur is None else cur + value
        if s.is_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = s

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def mul_vector(self, vec):
        out = []
        for row in self.rows:
            acc = GaussRat(0)
            for j, c in row.items():
                v = vec[j]
                if not v.is_zero():
                    acc = acc + c * v
            out.append(acc)
        return out


def _eliminate(rows, ncols, back=True):
    """Row reduce in place, pivoting on columns < ncols only.

    Returns pivots with pivots[col] = row index.  Entries at columns >= ncols
    (a right-hand side or an identity block) ride along with the row
    operations.  Columns are taken in order; the pivot is the sparsest
    unused row holding the column, the lowest index on a tie.  A column ->
    rows index keeps the pivot search and the clearing to the rows that
    hold the column.  With ``back`` false only the unused rows are cleared
    (forward elimination), which leaves the pivots unchanged: they depend on
    the unused rows alone.
    """
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots = {}
    row_used = [False] * len(rows)
    for col in range(ncols):
        candidates = [i for i in holders[col] if not row_used[i]]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (len(rows[i]), i))
        piv_row = rows[best]
        inv = piv_row[col].inv()
        for j, v in piv_row.items():
            piv_row[j] = v * inv
        row_used[best] = True
        pivots[col] = best
        for i in (list(holders[col]) if back else candidates):
            if i == best:
                continue
            row = rows[i]
            c = row[col]
            for j, pv in piv_row.items():
                cur = row.get(j)
                if cur is None:
                    row[j] = -(c * pv)
                    holders[j].add(i)
                    continue
                nv = cur - c * pv
                if nv.is_zero():
                    del row[j]
                    holders[j].discard(i)
                else:
                    row[j] = nv
    return pivots


def rank(matrix):
    """Rank by forward elimination on the side with fewer rows: rank A = rank A^T."""
    if matrix.nrows <= matrix.ncols:
        return len(_eliminate([dict(r) for r in matrix.rows], matrix.ncols, back=False))
    cols = [dict() for _ in range(matrix.ncols)]
    for i, row in enumerate(matrix.rows):
        for j, v in row.items():
            cols[j][i] = v
    return len(_eliminate(cols, matrix.nrows, back=False))


def _reduce(matrix, b):
    """Row reduce a copy of [A | b], b in column ncols; returns (rows, pivots)."""
    n = matrix.ncols
    rows = [dict(r) for r in matrix.rows]
    for row, v in zip(rows, b):
        v = GaussRat.of(v)
        if not v.is_zero():
            row[n] = v
    return rows, _eliminate(rows, n)


def _solution(matrix, b, rows, pivots):
    x = [GaussRat(0)] * matrix.ncols
    for col, i in pivots.items():
        x[col] = rows[i].get(matrix.ncols, GaussRat(0))
    return x, residual_vector(matrix, x, b)


def solve(matrix, b):
    """Solve A x = b exactly.

    Returns (solution, residual): the canonical solution with free variables
    set to zero when the system is consistent (residual None), else the
    least-structured certificate pair (particular attempt, nonzero residual
    vector b - A x) exposing the failure.
    """
    rows, pivots = _reduce(matrix, b)
    return _solution(matrix, b, rows, pivots)


def solve_with_kernel(matrix, b):
    """(x, residual, kernel): ``solve`` and ``nullspace`` from one elimination.

    The reduced rows do not depend on the right-hand side, so the kernel is
    read off the same elimination that solves A x = b.
    """
    rows, pivots = _reduce(matrix, b)
    x, residual = _solution(matrix, b, rows, pivots)
    return x, residual, _kernel(rows, pivots, matrix.ncols)


def residual_vector(matrix, x, b):
    """b - A x, or None when A x = b holds exactly."""
    residual = [bv - av for bv, av in zip(b, matrix.mul_vector(x))]
    if all(v.is_zero() for v in residual):
        return None
    return residual


def nullspace(matrix):
    """Basis of the exact kernel, one vector per free column."""
    rows = [dict(r) for r in matrix.rows]
    pivots = _eliminate(rows, matrix.ncols)
    return _kernel(rows, pivots, matrix.ncols)


def _kernel(rows, pivots, ncols):
    """Kernel basis read off reduced rows, one vector per free column."""
    free_cols = [j for j in range(ncols) if j not in pivots]
    basis = []
    for fc in free_cols:
        vec = [GaussRat(0)] * ncols
        vec[fc] = GR_ONE
        for col, i in pivots.items():
            c = rows[i].get(fc)
            if c is not None:
                vec[col] = -c
        basis.append(vec)
    return basis
