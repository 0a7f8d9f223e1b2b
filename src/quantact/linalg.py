"""Exact sparse linear algebra over the Gaussian rationals.

Matrices arising from cochain differentials are large but very sparse, so
rows are kept as dicts column -> coefficient and elimination pivots on
sparse rows first.  All arithmetic is exact field arithmetic in Q(i); ranks,
solutions and nullspaces carry no floating error.
"""

from __future__ import annotations

from .expr import GaussRat, GR_ONE


class SparseMatrix:
    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict(r) for r in rows] if rows is not None else [dict() for _ in range(nrows)]

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

    def copy(self):
        return SparseMatrix(self.nrows, self.ncols, self.rows)

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


def _eliminate(rows, ncols, rhs=None):
    """Row reduce in place; returns (pivots, order) with pivots[col] = row idx."""
    pivots = {}
    row_used = [False] * len(rows)
    # process columns in order, choosing the sparsest available pivot row
    for col in range(ncols):
        best = None
        for i, row in enumerate(rows):
            if row_used[i]:
                continue
            c = row.get(col)
            if c is not None and not c.is_zero():
                if best is None or len(row) < len(rows[best]):
                    best = i
        if best is None:
            continue
        piv_row = rows[best]
        piv_val = piv_row[col]
        inv = piv_val.inv()
        for j in list(piv_row):
            piv_row[j] = piv_row[j] * inv
        if rhs is not None:
            rhs[best] = rhs[best] * inv
        row_used[best] = True
        pivots[col] = best
        for i, row in enumerate(rows):
            if i == best:
                continue
            c = row.get(col)
            if c is None or c.is_zero():
                continue
            for j, pv in piv_row.items():
                cur = row.get(j)
                nv = (cur - c * pv) if cur is not None else -(c * pv)
                if nv.is_zero():
                    row.pop(j, None)
                else:
                    row[j] = nv
            if rhs is not None:
                rhs[i] = rhs[i] - c * rhs[best]
    return pivots


def rank(matrix):
    rows = [dict(r) for r in matrix.rows]
    pivots = _eliminate(rows, matrix.ncols)
    return len(pivots)


def _reduce(matrix, b):
    """Copy A and b and row reduce them; returns (rows, rhs, pivots)."""
    rows = [dict(r) for r in matrix.rows]
    rhs = [GaussRat.of(v) for v in b]
    pivots = _eliminate(rows, matrix.ncols, rhs)
    return rows, rhs, pivots


def _solution(matrix, b, rhs, pivots):
    x = [GaussRat(0)] * matrix.ncols
    for col, i in pivots.items():
        x[col] = rhs[i]
    return x, residual_vector(matrix, x, b)


def solve(matrix, b):
    """Solve A x = b exactly.

    Returns (solution, residual): the canonical solution with free variables
    set to zero when the system is consistent (residual None), else the
    least-structured certificate pair (particular attempt, nonzero residual
    vector b - A x) exposing the failure.
    """
    _, rhs, pivots = _reduce(matrix, b)
    return _solution(matrix, b, rhs, pivots)


def solve_with_kernel(matrix, b):
    """(x, residual, kernel): ``solve`` and ``nullspace`` from one elimination.

    The reduced rows do not depend on the right-hand side, so the kernel is
    read off the same elimination that solves A x = b.
    """
    rows, rhs, pivots = _reduce(matrix, b)
    x, residual = _solution(matrix, b, rhs, pivots)
    return x, residual, _kernel(rows, pivots, matrix.ncols)


def residual_vector(matrix, x, b):
    """b - A x, or None when A x = b holds exactly."""
    residual = [bv - av for bv, av in zip(b, matrix.mul_vector(x))]
    if all(v.is_zero() for v in residual):
        return None
    return residual


def left_inverse(matrix):
    """L with L A = I for A of full column rank, by Gauss-Jordan on [A | I].

    For b in the column span, x = L b is the unique solution of A x = b;
    whether b lies in the span is left to ``residual_vector``.
    """
    n = matrix.ncols
    rows = [dict(r) for r in matrix.rows]
    for i, row in enumerate(rows):
        row[n + i] = GR_ONE
    pivots = _eliminate(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    out = SparseMatrix(n, matrix.nrows)
    for col, i in pivots.items():
        out.rows[col] = {j - n: c for j, c in rows[i].items() if j >= n}
    return out


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
