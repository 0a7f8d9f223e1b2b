"""Exact sparse linear algebra over the Gaussian rationals.

Matrices arising from cochain differentials are large but very sparse, so
rows are kept as dicts column -> coefficient and elimination pivots on
sparse rows first.  Elimination is fraction-free over the Gaussian integers
(Bareiss, Math. Comp. 22, 1968) on rows cleared of denominators, held as
(re, im) int pairs: ``rank`` never divides, ``solve`` once per pivot row.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

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


def _cleared(row):
    """{j: GaussRat} as {j: (re, im)} ints, times the least positive integer
    that clears its denominators."""
    row = {j: (v.re, v.im) for j, v in row.items()}
    den = lcm(*[p.denominator for e in row.values() for p in e])
    return row if den == 1 else {j: (x.numerator * (den // x.denominator),
                                     y.numerator * (den // y.denominator))
                                 for j, (x, y) in row.items()}


def _make_primitive(row):
    """Scale a nonempty row in place to its canonical primitive form: times
    the conjugate of its first entry if that is not real, then divided by
    the gcd of all parts (the gcd alone lets the entries blow up)."""
    a, b = row[min(row)]
    if b:
        row.update({j: (x * a + y * b, y * a - x * b) for j, (x, y) in row.items()})
    g = gcd(*[t for e in row.values() for t in e])
    if g > 1:
        row.update({j: (x // g, y // g) for j, (x, y) in row.items()})


def _eliminate(rows, ncols, back=True):
    """Row reduce Gaussian integer rows {j: (re, im)} in place, pivoting on
    columns < ncols only; returns pivots with pivots[col] = row index.

    Entries at columns >= ncols (a right-hand side or an identity block)
    ride along.  Columns are taken in order; the pivot is the sparsest
    unused row holding the column, the lowest index on a tie, and a column
    -> rows index keeps the search and the clearing to the rows holding it.
    A row with entry c at the pivot p's column becomes p row - c pivot_row,
    made primitive, or row - (c conj p) pivot_row when p is a unit: a
    multiple of the field arithmetic's row, with its zeros.  With ``back``
    false only unused rows are cleared (forward elimination).
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
        pa, pb = piv_row[col]
        unit = pa * pa + pb * pb == 1
        row_used[best] = True
        pivots[col] = best
        for i in (list(holders[col]) if back else candidates):
            if i == best:
                continue
            row = rows[i]
            # the column itself cancels exactly; its holders are never read again
            ca, cb = row.pop(col)
            if unit:
                ca, cb = ca * pa + cb * pb, cb * pa - ca * pb
            else:
                row.update({j: (pa * x - pb * y, pa * y + pb * x) for j, (x, y) in row.items()})
            for j, (x, y) in piv_row.items():
                if j == col:
                    continue
                u, v = ca * x - cb * y, ca * y + cb * x
                cur = row.get(j)
                if cur is None:
                    row[j] = (-u, -v)
                    holders[j].add(i)
                elif cur[0] == u and cur[1] == v:
                    del row[j]
                    holders[j].discard(i)
                else:
                    row[j] = (cur[0] - u, cur[1] - v)
            if row and not unit:
                _make_primitive(row)
    return pivots


def _reduced_echelon(rows, ncols):
    """{pivot column: its row {j: GaussRat} of the unique reduced echelon form}
    by Gauss-Jordan on rows {j: GaussRat}, pivoting on columns < ncols."""
    rows = [_cleared(r) for r in rows]
    echelon = {}
    for col, i in _eliminate(rows, ncols).items():
        inv = GaussRat(*rows[i][col]).inv()
        a, b = inv.re, inv.im
        echelon[col] = {j: GaussRat(x * a - y * b, x * b + y * a)
                        for j, (x, y) in rows[i].items()}
    return echelon


def rank(matrix):
    """Rank by forward elimination on the side with fewer rows: rank A = rank A^T,
    and clearing the denominators of A's rows leaves it unchanged."""
    rows = [_cleared(r) for r in matrix.rows]
    if matrix.nrows > matrix.ncols:
        cols = [dict() for _ in range(matrix.ncols)]
        for i, row in enumerate(rows):
            for j, v in row.items():
                cols[j][i] = v
        rows = cols
    return len(_eliminate(rows, max(matrix.nrows, matrix.ncols), back=False))


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
    echelon = _reduced_echelon(rows, n)
    x = [GaussRat(0)] * n
    for col, row in echelon.items():
        x[col] = row.get(n, GaussRat(0))
    kernel = []
    for fc in (j for j in range(n) if j not in echelon):
        vec = [GaussRat(0)] * n
        vec[fc] = GR_ONE
        for col, row in echelon.items():
            if fc in row:
                vec[col] = -row[fc]
        kernel.append(vec)
    residual = [bv - av for bv, av in zip(b, matrix.mul_vector(x))]
    if all(v.is_zero() for v in residual):
        residual = None
    return x, residual, kernel


def nullspace(matrix):
    """Basis of the exact kernel, one vector per free column: ``solve`` at b = 0."""
    return solve(matrix, [GaussRat(0)] * matrix.nrows)[2]

