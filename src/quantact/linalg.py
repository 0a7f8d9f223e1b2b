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
    the unused rows alone; it clears each row with the one factor
    row[col] / pivot and leaves the pivot row unscaled.
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
        if back:
            for j, v in piv_row.items():
                piv_row[j] = v * inv
        row_used[best] = True
        pivots[col] = best
        for i in (list(holders[col]) if back else candidates):
            if i == best:
                continue
            row = rows[i]
            # the column itself cancels exactly; its holders are never read again
            c = row.pop(col)
            if not back:
                c = c * inv
            for j, pv in piv_row.items():
                if j == col:
                    continue
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


def solve(matrix, b):
    """Solve A x = b exactly; returns (x, residual, kernel) from one elimination.

    x is the canonical solution with free variables set to zero, and residual
    is None when the system is consistent, else the nonzero vector b - A x
    exposing the failure.  The reduced rows do not depend on b, so the kernel
    basis, one vector per free column, is read off the same elimination.
    """
    n = matrix.ncols
    rows = [dict(r) for r in matrix.rows]
    for row, v in zip(rows, b):
        v = GaussRat.of(v)
        if not v.is_zero():
            row[n] = v
    pivots = _eliminate(rows, n)
    x = [GaussRat(0)] * n
    for col, i in pivots.items():
        x[col] = rows[i].get(n, GaussRat(0))
    kernel = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [GaussRat(0)] * n
        vec[fc] = GR_ONE
        for col, i in pivots.items():
            c = rows[i].get(fc)
            if c is not None:
                vec[col] = -c
        kernel.append(vec)
    residual = [bv - av for bv, av in zip(b, matrix.mul_vector(x))]
    if all(v.is_zero() for v in residual):
        residual = None
    return x, residual, kernel


def nullspace(matrix):
    """Basis of the exact kernel, one vector per free column: ``solve`` at b = 0."""
    return solve(matrix, [GaussRat(0)] * matrix.nrows)[2]

