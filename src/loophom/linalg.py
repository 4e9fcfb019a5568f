"""Exact sparse and dense linear algebra over Q and F_p.

Two rank routes are kept deliberately separate:

* `rank_sparse` is the default: sparse elimination choosing pivots in the
  column of smallest support. Over Q it is fraction-free: rows are scaled
  to primitive integer vectors and updated by cross-multiplication with a
  gcd reduction, so no Fraction arithmetic happens in the loop.
* `rank_dense` is a naive textbook row reduction used as an independent
  oracle in tests. Do not fold the two together.

Matrices are stored sparsely as {(row, col): Scalar} with explicit shape.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional

from .scalars import Field, Scalar


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: Optional[dict] = None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Scalar] = {}
        if entries:
            for (i, j), v in entries.items():
                s = field.scalar(v)
                if s:
                    if not (0 <= i < nrows and 0 <= j < ncols):
                        raise IndexError(f"entry {(i, j)} outside {nrows}x{ncols}")
                    self.entries[(i, j)] = s

    @classmethod
    def from_columns(cls, field: Field, nrows: int, columns) -> "Matrix":
        """Assemble a matrix from column vectors given as {row: scalar} dicts."""
        entries = {}
        for j, col in enumerate(columns):
            for i, v in col.items():
                entries[(i, j)] = v
        return cls(field, nrows, len(columns), entries)

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def is_zero(self) -> bool:
        return not self.entries

    def rank(self) -> int:
        return rank_sparse(self)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def _integer_rows(matrix: Matrix) -> dict:
    """Rows as {col: int} dicts. Over Q each row is scaled to a primitive
    integer vector; row scaling by a nonzero constant preserves rank."""
    p = matrix.field.characteristic
    rows: dict[int, dict[int, int]] = {}
    for (i, j), s in matrix.entries.items():
        rows.setdefault(i, {})[j] = s.value
    if p == 0:
        for i, r in rows.items():
            denom = lcm(*(v.denominator for v in r.values()))
            ints = {c: int(v * denom) for c, v in r.items()}
            content = gcd(*ints.values())
            rows[i] = {c: v // content for c, v in ints.items()}
    return rows


def rank_sparse(matrix: Matrix) -> int:
    """Rank by sparse elimination, pivoting in the column of least support.

    Ties break to the smallest column index, then the row of least support
    with the smallest index, so the run is deterministic.
    """
    p = matrix.field.characteristic
    rows = _integer_rows(matrix)
    rank = 0
    while rows:
        support: dict[int, list[int]] = {}
        for i, r in rows.items():
            for c in r:
                support.setdefault(c, []).append(i)
        col = min(support, key=lambda c: (len(support[c]), c))
        pivot_row = min(support[col], key=lambda i: (len(rows[i]), i))
        piv = rows.pop(pivot_row)
        pv = piv[col]
        rank += 1
        touched = support[col]
        for i in touched:
            if i == pivot_row:
                continue
            r = rows[i]
            f = r[col]
            if p:
                factor = f * pow(pv, -1, p) % p
                new = {}
                # union of supports: the pivot row fills in columns r lacks
                for c in set(r) | set(piv):
                    w = (r.get(c, 0) - factor * piv.get(c, 0)) % p
                    if w:
                        new[c] = w
            else:
                new = {}
                for c in set(r) | set(piv):
                    w = r.get(c, 0) * pv - piv.get(c, 0) * f
                    if w:
                        new[c] = w
                if new:
                    content = gcd(*new.values())
                    if content > 1:
                        new = {c: v // content for c, v in new.items()}
            if new:
                rows[i] = new
            else:
                del rows[i]
    return rank


def _rref(matrix: Matrix) -> tuple:
    """Naive dense reduced row echelon form: the rows as lists of Scalars
    and the (row, column) of every pivot, in column order."""
    field = matrix.field
    m, n = matrix.nrows, matrix.ncols
    rows = [[field.zero] * n for _ in range(m)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return rows, pivots


def rank_dense(matrix: Matrix) -> int:
    """Naive dense Gaussian elimination; the independent rank oracle."""
    return len(_rref(matrix)[1])


def kernel_basis(matrix: Matrix) -> list:
    """A basis of the right kernel, as lists of Scalars of length ncols.

    Computed from the reduced row echelon form; one vector per free
    column, in column order, so the result is deterministic.
    """
    field = matrix.field
    rows, pivots = _rref(matrix)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(matrix.ncols):
        if free in pivot_cols:
            continue
        vec = [field.zero] * matrix.ncols
        vec[free] = field.one
        for pr, pc in pivots:
            vec[pc] = -rows[pr][free]
        basis.append(vec)
    return basis


def rank_of_columns(field: Field, nrows: int, columns) -> int:
    """Rank of the span of column vectors given as {row: scalar} dicts."""
    return Matrix.from_columns(field, nrows, columns).rank()
