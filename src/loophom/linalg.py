"""Exact sparse linear algebra over Q and F_p.

The rank of a matrix no two of whose entries share a row or a column is
its number of entries, and every matrix of the engine is one: d sends
each monomial to at most one monomial and no two to the same one.
`rank_sparse` counts there. One elimination, `_eliminate`, serves every
other rank and the kernel: one pass over the rows, reducing each against
the pivots found so far, exact on any matrix. It is fraction-free for
every field: rows hold ints, primitive over Q, and the one update
r*pv - f*piv (Bareiss, Math. Comp. 22, 1968) is reduced mod p over F_p
and divided by its content over Q. `kernel_basis` back-substitutes over
its pivot rows. The tests compare both against a dense textbook
reduction kept in `tests/dense_reference.py`.

Matrices are stored sparsely as {(row, col): value} with explicit shape,
each value raw, as `Field.reduce` gives it; `kernel_basis` returns raw
values too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InvalidShape
from .scalars import Field, check_field, is_int


class Matrix:
    """Each given entry is checked and reduced once, to an int in [0, p)
    over F_p or a Fraction over Q, and kept if nonzero. An index that is
    not a pair of ints inside the shape is InvalidShape. Exact ints
    (`type(x) is int`) take one fast path: a shape or an index is checked
    inline, and a value over F_p is `v % p`. Anything else goes through
    `is_int` and `Field.reduce`, which store the same values and raise
    the same errors."""

    __slots__ = ("field", "nrows", "ncols", "entries")

    def __init__(self, field: Field, nrows: int, ncols: int, entries: Optional[dict] = None):
        check_field(field)
        ints = type(nrows) is type(ncols) is int or is_int(nrows) and is_int(ncols)
        if not ints or min(nrows, ncols) < 0:
            raise InvalidShape(f"shape must be two nonnegative ints, got {nrows!r}x{ncols!r}")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], object] = {}
        if entries:
            p = field.characteristic
            for (i, j), v in entries.items():
                if not (type(i) is type(j) is int or is_int(i) and is_int(j)):
                    raise InvalidShape(f"entry index {(i, j)!r} is not a pair of ints")
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise InvalidShape(f"entry index {(i, j)} is outside {nrows}x{ncols}")
                v = v % p if p and type(v) is int else field.reduce(v)
                if v:
                    self.entries[(i, j)] = v

    def is_zero(self) -> bool:
        return not self.entries

    def rank(self) -> int:
        return rank_sparse(self)

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def _integer_rows(matrix: Matrix) -> dict:
    """The stored rows as {col: int} dicts. Over Q each row is scaled to a
    primitive integer vector; row scaling by a nonzero constant preserves rank."""
    p = matrix.field.characteristic
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in matrix.entries.items():
        rows.setdefault(i, {})[j] = v
    if p == 0:
        for i, r in rows.items():
            denom = lcm(*(v.denominator for v in r.values()))
            ints = {c: v.numerator * (denom // v.denominator) for c, v in r.items()}
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
    """Rank: the number of entries when no two share a row or a column (a
    scaled partial permutation), else the number of pivots `_eliminate` finds."""
    n = len(matrix.entries)
    if n < 2 or len({i for i, _ in matrix.entries}) == n == len({j for _, j in matrix.entries}):
        return n
    return len(_eliminate(matrix))


def kernel_basis(matrix: Matrix) -> list:
    """A basis of the right kernel, as lists of length ncols of raw values:
    ints in [0, p) over F_p, Fractions over Q.

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
        basis.append([field.reduce(x.get(c, 0)) for c in range(matrix.ncols)])
    return basis


def rank_of_columns(field: Field, nrows: int, columns) -> int:
    """Rank of the span of column vectors given as {row: value} dicts."""
    entries = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
    return Matrix(field, nrows, len(columns), entries).rank()
