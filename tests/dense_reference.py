"""A naive dense row reduction: the reference the tests compare the
library's sparse elimination with. It shares no code with `loophom.linalg`
beyond the `Matrix` container and the field arithmetic."""

from loophom.linalg import Matrix


def rref(matrix: Matrix) -> tuple:
    """Dense reduced row echelon form: the rows as lists of Scalars and
    the (row, column) of every pivot, in column order."""
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
    """Rank by naive dense Gaussian elimination."""
    return len(rref(matrix)[1])
