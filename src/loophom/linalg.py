"""Exact sparse linear algebra over Q and F_p.

One elimination, `_eliminate`, serves both the rank and the kernel: one
pass over the rows, reducing each against the pivots found so far. It is
exact on any matrix and fits the engine's: d sends each monomial to at
most one monomial and no two to the same one, so each row and column has
at most one entry, every row is a pivot at once and the pass is O(nnz).
It is fraction-free for every field: rows hold ints, primitive over Q,
and the one update r*pv - f*piv (Bareiss, Math. Comp. 22, 1968) is
reduced mod p over F_p and divided by its content over Q. `kernel_basis`
back-substitutes over its pivot rows. The tests compare both against a
dense textbook reduction kept in `tests/dense_reference.py`.

Matrices are stored sparsely as {(row, col): Scalar} with explicit shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InvalidShape
from .scalars import Field, Scalar, check_field, is_int


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: Optional[dict] = None):
        check_field(field)
        if not (is_int(nrows) and is_int(ncols)) or nrows < 0 or ncols < 0:
            raise InvalidShape(f"shape must be two nonnegative ints, got {nrows!r}x{ncols!r}")
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


def _eliminate(matrix: Matrix) -> list:
    """One pass of row reduction, over the rows in index order.

    Each row is reduced by the earliest-found pivot whose column it meets,
    until it meets no pivot column; what is left becomes a pivot at its
    smallest column. A pivot row has entries only in free columns and in
    columns of later pivots, so each step moves strictly later in the
    pivot order and a row takes at most rank steps. Returns the pivot rows
    as (column, {col: int}) in the order found; each has no entry in any
    earlier pivot's column.
    """
    p = matrix.field.characteristic
    rows = _integer_rows(matrix)
    pivots = []
    found: dict[int, int] = {}  # pivot column -> its place in `pivots`
    for _, r in sorted(rows.items()):
        while r:
            met = [found[c] for c in r if c in found]
            if not met:
                break
            col, piv = pivots[min(met)]
            pv, f = piv[col], r[col]
            new = {}
            for c in set(r) | set(piv):
                w = r.get(c, 0) * pv - piv.get(c, 0) * f
                if p:
                    w %= p
                if w:
                    new[c] = w
            if new and not p:
                content = gcd(*new.values())
                if content > 1:
                    new = {c: v // content for c, v in new.items()}
            r = new
        if r:
            found[min(r)] = len(pivots)
            pivots.append((min(r), r))
    return pivots


def rank_sparse(matrix: Matrix) -> int:
    """Rank: the number of pivots `_eliminate` finds."""
    return len(_eliminate(matrix))


def kernel_basis(matrix: Matrix) -> list:
    """A basis of the right kernel, as lists of Scalars of length ncols.

    One vector per free column (a column in which `_eliminate` found no
    pivot), in column order: it is 1 there, 0 at the other free columns,
    and its pivot entries come by back-substitution, last pivot first.
    """
    field = matrix.field
    p = field.characteristic
    pivots = _eliminate(matrix)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for free in range(matrix.ncols):
        if free in pivot_cols:
            continue
        x = {free: 1}
        for col, row in reversed(pivots):
            # the row's other entries sit in free or later pivot columns
            s = sum(v * x[c] for c, v in row.items() if c in x)
            if s:
                x[col] = -s * pow(row[col], -1, p) % p if p else Fraction(-s, row[col])
        vec = [field.zero] * matrix.ncols
        for c, v in x.items():
            vec[c] = field.scalar(v)
        basis.append(vec)
    return basis


def rank_of_columns(field: Field, nrows: int, columns) -> int:
    """Rank of the span of column vectors given as {row: scalar} dicts."""
    return Matrix.from_columns(field, nrows, columns).rank()
