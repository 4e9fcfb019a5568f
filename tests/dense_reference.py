"""Naive references the tests compare the library with.

`rref` and `rank_dense` are a dense row reduction on raw values, sharing
no code with `loophom.linalg` beyond the `Matrix` container and
`Field.reduce`;
`from_columns` and `column` move between a matrix and its columns.
`reference_matrix` builds a matrix of d over whole bases, sharing no code
with `loophom.dga`'s matrix builder: it uses only `enumerate_basis` and
`Derivation.apply_monomial`."""

from fractions import Fraction

from loophom.linalg import Matrix


def reference_matrix(page, degree: int, weight: int) -> Matrix:
    """Matrix of d from (degree, weight) to (degree - 1, weight) with every
    basis monomial as a column and every one below as a row, both in
    `enumerate_basis` order: each column is apply_monomial of its monomial."""
    alg = page.algebra
    source = alg.enumerate_basis(degree, weight)
    index = {m: i for i, m in enumerate(alg.enumerate_basis(degree - 1, weight))}
    entries = {}
    for j, m in enumerate(source):
        for t, c in page.differential.apply_monomial(m).terms.items():
            entries[(index[t], j)] = c
    return Matrix(alg.field, len(index), len(source), entries)


def from_columns(field, nrows: int, columns) -> Matrix:
    """A matrix assembled from column vectors given as {row: value} dicts."""
    entries = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
    return Matrix(field, nrows, len(columns), entries)


def column(matrix: Matrix, j: int) -> dict:
    """Column j of a matrix as a {row: raw value} dict."""
    return {i: v for (i, jj), v in matrix.entries.items() if jj == j}


def rref(matrix: Matrix) -> tuple:
    """Dense reduced row echelon form: the rows as lists of raw values and
    the (row, column) of every pivot, in column order. An inverse is
    `reduce(Fraction(1, v))`, and every update is reduced."""
    reduce = matrix.field.reduce
    m, n = matrix.nrows, matrix.ncols
    rows = [[reduce(0)] * n for _ in range(m)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = v
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = reduce(Fraction(1, rows[r][col]))
        rows[r] = [reduce(v * inv) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [reduce(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    return rows, pivots


def rank_dense(matrix: Matrix) -> int:
    """Rank by naive dense Gaussian elimination."""
    return len(rref(matrix)[1])
