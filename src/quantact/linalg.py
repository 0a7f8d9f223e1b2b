"""Exact sparse linear algebra over the Gaussian rationals, held in Z[i].

Matrices arising from cochain differentials are large but very sparse.  A
``SparseMatrix`` keeps each column as a dict row -> (re, im) int pair,
cleared once by the lcm of its own denominators, so ``rank`` and ``solve``
eliminate Gaussian integers from the start.  Elimination is fraction-free
(Bareiss, Math. Comp. 22, 1968) and pivots on sparse rows first: ``rank``
never divides, ``solve`` divides once per pivot row.  Its vectors are lists
of (re, im) pairs, each part an int when integral, else a Fraction.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd, lcm

from .expr import _pair, _pair_inv


class SparseMatrix:
    """nrows x len(cols) matrix from columns {row: (re, im)} of nonzero rational
    pairs, kept as the Gaussian integer columns ``cols[j]`` = ``scales[j]`` times column j."""

    def __init__(self, nrows, cols):
        self.nrows, self.ncols = nrows, len(cols)
        cleared = [_cleared(c) for c in cols]
        self.scales, self.cols = [den for den, _ in cleared], [c for _, c in cleared]

    def nnz(self):
        return sum(len(c) for c in self.cols)


def _cleared(entries):
    """(den, entries times den) for {k: (re, im)} rational pairs, den the least
    positive integer that makes every part an int; den = 1 returns ``entries``."""
    den = lcm(*[p.denominator for e in entries.values() for p in e])
    return den, entries if den == 1 else {
        k: (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for k, (x, y) in entries.items()}


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
    ride along.  Columns go in order, or fewest holders first when ``back``
    is false (forward elimination of the unused rows: no order changes the
    rank); the pivot is the sparsest unused row holding the column, lowest
    index first, and a column -> rows index keeps the search and clearing to
    the rows holding it.  A row with entry c at the pivot p's column becomes
    p row - c pivot_row, made primitive, or row - (c conj p) pivot_row when
    p is a unit: a multiple of the field arithmetic's row, with its zeros.
    """
    holders = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots = {}
    row_used = [False] * len(rows)
    for col in range(ncols) if back else sorted(range(ncols), key=lambda c: len(holders[c])):
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
    """{pivot column: its row {j: (re, im)} of the unique reduced echelon form}
    by Gauss-Jordan on rows {j: (re, im)} of rational pairs, pivoting on
    columns < ncols; the parts are ints or Fractions."""
    rows = [_cleared(r)[1] for r in rows]
    echelon = {}
    for col, i in _eliminate(rows, ncols).items():
        a, b = _pair_inv(rows[i][col])
        echelon[col] = {j: (x * a - y * b, x * b + y * a) for j, (x, y) in rows[i].items()}
    return echelon


def rank(matrix):
    """Rank by forward elimination of the integer columns as the rows of A^T:
    rank A = rank A^T, and scaling a column by a nonzero number keeps it."""
    return len(_eliminate([dict(c) for c in matrix.cols], matrix.nrows, back=False))


def solve(matrix, b):
    """Solve A x = b exactly for b a list of (re, im) pairs; returns
    (x, residual, kernel) from one elimination, each vector a list of pairs.

    x is the canonical solution with free variables set to zero, and residual
    is None when the system is consistent, else the nonzero vector b - A x
    exposing the failure.  The reduced rows do not depend on b, so the kernel
    basis, one vector per free column, is read off the same elimination.
    It eliminates [S A | b], S the lcm of the column scales, so S A is in
    Z[i]: its reduced echelon form is that of [A | b] with the last column
    divided by S, and A x is summed over the integer columns.
    """
    n, big = matrix.ncols, lcm(*matrix.scales)
    rows = [{} for _ in range(matrix.nrows)]
    for j, (col, den) in enumerate(zip(matrix.cols, matrix.scales)):
        for i, (x, y) in col.items():
            rows[i][j] = (x * (big // den), y * (big // den))
    for row, v in zip(rows, b):
        if v != (0, 0):
            row[n] = v
    echelon = _reduced_echelon(rows, n)
    x = [(0, 0)] * n
    ax = [(0, 0)] * matrix.nrows
    for col, row in echelon.items():
        if n in row:
            p, q = row[n]
            x[col] = _pair(p * big, q * big)
            k = big // matrix.scales[col]   # column col of A x, times S
            for i, (re, im) in matrix.cols[col].items():
                u, v = ax[i]
                ax[i] = (u + k * (re * p - im * q), v + k * (re * q + im * p))
    kernel = []
    for fc in (j for j in range(n) if j not in echelon):
        vec = [(0, 0)] * n
        vec[fc] = (1, 0)
        for col, row in echelon.items():
            if fc in row:
                vec[col] = _pair(-row[fc][0], -row[fc][1])
        kernel.append(vec)
    residual = [_pair(re - u, im - v) for (re, im), (u, v) in zip(b, ax)]
    if all(v == (0, 0) for v in residual):
        residual = None
    return x, residual, kernel


def nullspace(matrix):
    """Basis of the exact kernel, one vector per free column: ``solve`` at b = 0."""
    return solve(matrix, [(0, 0)] * matrix.nrows)[2]
