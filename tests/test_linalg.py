"""Exact rank computations: the sparse route against the dense oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import rank_dense
from loophom.errors import InvalidShape
from loophom.linalg import Matrix, _eliminate, _integer_rows, kernel_basis, rank_of_columns
from loophom.linalg import rank_sparse
from loophom.scalars import GF2, RATIONALS, Field

F5 = Field(5)
FIELDS = [RATIONALS, GF2, Field(3), F5, Field(7), Field(2**61 - 1)]


def random_matrix(rng, field, nrows, ncols, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                if field.is_rational:
                    v = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                else:
                    v = rng.randrange(field.characteristic)
                s = field(v)
                if s:
                    entries[(i, j)] = s
    return Matrix(field, nrows, ncols, entries)


def matvec(matrix, vec):
    out = [matrix.field.zero] * matrix.nrows
    for (i, j), v in matrix.entries.items():
        out[i] = out[i] + v * vec[j]
    return out


def test_rank_fixed_examples():
    m = Matrix(RATIONALS, 2, 2, {(0, 0): RATIONALS(1), (0, 1): RATIONALS(2),
                                 (1, 0): RATIONALS(2), (1, 1): RATIONALS(4)})
    assert m.rank() == 1
    assert rank_dense(m) == 1
    ident = Matrix(F5, 3, 3, {(i, i): F5(1) for i in range(3)})
    assert ident.rank() == 3
    zero = Matrix(GF2, 4, 6)
    assert zero.rank() == 0 and zero.is_zero()


def test_rank_mod_p_differs_from_rational():
    # the 2x2 matrix [[1,1],[1,-1]] drops rank only in characteristic 2
    entries = lambda f: {(0, 0): f(1), (0, 1): f(1), (1, 0): f(1), (1, 1): f(-1)}
    assert Matrix(RATIONALS, 2, 2, entries(RATIONALS)).rank() == 2
    assert Matrix(GF2, 2, 2, entries(GF2)).rank() == 1
    assert Matrix(F5, 2, 2, entries(F5)).rank() == 2


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_agrees_with_dense(field):
    rng = random.Random(1729)
    for trial in range(60):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(0, 9)
        m = random_matrix(rng, field, nrows, ncols, density=rng.choice([0.2, 0.5, 0.9]))
        assert rank_sparse(m) == rank_dense(m)


def test_rank_bounds_and_rank_factorization():
    rng = random.Random(7)
    for trial in range(40):
        field = rng.choice(FIELDS)
        m = random_matrix(rng, field, rng.randint(1, 8), rng.randint(1, 8))
        r = m.rank()
        assert 0 <= r <= min(m.nrows, m.ncols)
        assert r + len(kernel_basis(m)) == m.ncols


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(FIELDS),
    nrows=st.integers(0, 10),
    ncols=st.integers(0, 10),
    density=st.floats(0.0, 0.9),
    rng=st.randoms(use_true_random=False),
)
def test_kernel_vectors_are_killed_and_independent(field, nrows, ncols, density, rng):
    # dense draws make back-substitution run through several pivot rows
    # whose entries filled in during the elimination
    m = random_matrix(rng, field, nrows, ncols, density)
    # the contract back-substitution relies on
    pivots = _eliminate(m)
    pivot_cols = [c for c, _ in pivots]
    assert len(set(pivot_cols)) == len(pivot_cols)
    for k, (_, row) in enumerate(pivots):
        assert not set(row) & set(pivot_cols[:k])
    basis = kernel_basis(m)
    assert len(basis) == m.ncols - rank_dense(m)
    for vec in basis:
        assert len(vec) == m.ncols
        assert all(not x for x in matvec(m, vec))
    cols = [{i: v for i, v in enumerate(vec) if v} for vec in basis]
    assert rank_dense(Matrix.from_columns(field, m.ncols, cols)) == len(basis)


@settings(max_examples=40, deadline=None)
@given(
    field=st.sampled_from([RATIONALS, GF2, Field(3), F5]),
    nrows=st.integers(0, 300),
    ncols=st.integers(0, 300),
    rng=st.randoms(use_true_random=False),
)
def test_partial_permutations_have_full_rank_and_unit_kernels(field, nrows, ncols, rng):
    # the engine's traffic: d sends each monomial to at most one monomial
    # and no two to the same one, so each row and column has at most one entry
    cols = rng.sample(range(ncols), rng.randint(0, min(nrows, ncols)))
    rows = rng.sample(range(nrows), len(cols))
    p = field.characteristic
    entries = {
        (i, j): field(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
                      if not p else rng.randrange(1, p))
        for i, j in zip(rows, cols)
    }
    m = Matrix(field, nrows, ncols, entries)
    assert rank_sparse(m) == len(m.entries)
    basis = kernel_basis(m)
    assert [vec.index(field.one) for vec in basis] == [j for j in range(ncols) if j not in cols]
    assert all(sum(map(bool, vec)) == 1 for vec in basis)


def test_kernel_deterministic():
    m = Matrix(GF2, 1, 3, {(0, 0): GF2(1), (0, 1): GF2(1), (0, 2): GF2(1)})
    b1 = kernel_basis(m)
    b2 = kernel_basis(m)
    assert b1 == b2
    assert len(b1) == 2
    # free columns are 1 and 2, each vector has a single leading one there
    assert [v[1] for v in b1] == [GF2(1), GF2(0)]
    assert [v[2] for v in b1] == [GF2(0), GF2(1)]


def test_integer_rows_primitive():
    m = Matrix(RATIONALS, 2, 3, {
        (0, 0): RATIONALS(Fraction(1, 2)), (0, 2): RATIONALS(Fraction(3, 4)),
        (1, 1): RATIONALS(Fraction(-6, 5)),
    })
    rows = _integer_rows(m)
    assert rows[0] == {0: 2, 2: 3}
    assert rows[1] == {1: -1} or rows[1] == {1: -6 * 1 // 6}  # primitive: -6/5 -> -1
    from math import gcd
    for row in rows.values():
        assert gcd(*list(row.values()), 0) in (1,)


def test_rank_of_columns_matches_matrix():
    rng = random.Random(5)
    for trial in range(20):
        field = rng.choice(FIELDS)
        m = random_matrix(rng, field, 6, 5)
        cols = [m.column(j) for j in range(m.ncols)]
        assert rank_of_columns(field, 6, cols) == m.rank()


def test_duplicate_and_scaled_columns_do_not_inflate_rank():
    col = {0: RATIONALS(2), 2: RATIONALS(-3)}
    scaled = {0: RATIONALS(Fraction(2, 7)), 2: RATIONALS(Fraction(-3, 7))}
    assert rank_of_columns(RATIONALS, 3, [col, col, scaled]) == 1


def test_matrix_refuses_negative_shape():
    for shape in ((-1, 3), (3, -1), (-2, -2), (2.5, 3), (3, "3")):
        with pytest.raises(ValueError, match="nonnegative ints"):
            Matrix(GF2, *shape)
    assert Matrix(GF2, 0, 0).rank() == 0


def test_fraction_heavy_matrix_exact():
    # Hilbert-like 4x4 section, full rank over the rationals
    entries = {
        (i, j): RATIONALS(Fraction(1, i + j + 1)) for i in range(4) for j in range(4)
    }
    m = Matrix(RATIONALS, 4, 4, entries)
    assert rank_sparse(m) == 4 == rank_dense(m)


@pytest.mark.parametrize("shape", [(True, 2), (2, False), (True, True)])
def test_matrix_refuses_a_bool_shape(shape):
    with pytest.raises(InvalidShape, match="nonnegative ints"):
        Matrix(GF2, *shape)


@pytest.mark.parametrize("field", ["f2", 2, None])
def test_matrix_refuses_a_non_field(field):
    with pytest.raises(TypeError, match="expected a Field"):
        Matrix(field, 1, 1)
