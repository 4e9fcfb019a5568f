"""Exact rank computations: the sparse route against the dense oracle."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import column, from_columns, rank_dense
from loophom.errors import InvalidScalar, InvalidShape
from loophom.linalg import Matrix, _eliminate, _integer_rows, kernel_basis, rank_of_columns
from loophom.linalg import rank_sparse
from loophom.scalars import GF2, RATIONALS, Field

F5 = Field(5)
FIELDS = [RATIONALS, GF2, Field(3), F5, Field(7), Field(2**61 - 1)]


def random_matrix(rng, field, nrows, ncols, density=0.4):
    """Raw values, some of them 0, which `Matrix` drops."""
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                if field.is_rational:
                    entries[(i, j)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                else:
                    entries[(i, j)] = rng.randrange(field.characteristic)
    return Matrix(field, nrows, ncols, entries)


def matvec(matrix, vec):
    reduce = matrix.field.reduce
    out = [reduce(0)] * matrix.nrows
    for (i, j), v in matrix.entries.items():
        out[i] = reduce(out[i] + v * vec[j])
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


def unit(rng, p):
    return rng.randrange(1, p) if p else rng.choice([-1, 1]) * rng.randint(1, 9)


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_agrees_with_dense(field):
    rng = random.Random(1729)
    for trial in range(60):
        nrows = rng.randint(0, 9)
        ncols = rng.randint(0, 9)
        m = random_matrix(rng, field, nrows, ncols, density=rng.choice([0.2, 0.5, 0.9]))
        assert rank_sparse(m) == rank_dense(m)
    # both sides of the count: partial permutations, some of whose raw
    # values are multiples of p (0 over Q) that `Matrix` drops, and the
    # same with one entry more in a used row or in a used column
    p = field.characteristic
    for extra in (None, "row", "col"):
        for trial in range(30):
            size = rng.randint(2, 8)
            cells = list(zip(rng.sample(range(size), size), rng.sample(range(size), size)))
            cells = cells[: rng.randint(1, size)]
            entries = {ij: rng.choice([1, 1, p]) * unit(rng, p) for ij in cells}
            i, j = rng.choice(cells)
            if extra == "row":
                entries[(i, rng.choice([c for c in range(size) if c != j]))] = unit(rng, p)
            elif extra == "col":
                entries[(rng.choice([r for r in range(size) if r != i]), j)] = unit(rng, p)
            m = Matrix(field, size, size, entries)
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
    assert rank_dense(from_columns(field, m.ncols, cols)) == len(basis)


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
    assert [vec.index(1) for vec in basis] == [j for j in range(ncols) if j not in cols]
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
    # three distinct denominators: each value times lcm 12, content 1
    row = {0: Fraction(1, 2), 1: Fraction(-2, 3), 3: Fraction(5, 4)}
    m = Matrix(RATIONALS, 2, 4, {(1, j): v for j, v in row.items()})
    assert _integer_rows(m) == {1: {0: 6, 1: -8, 3: 15}}


def test_rank_of_columns_matches_matrix():
    rng = random.Random(5)
    for trial in range(20):
        field = rng.choice(FIELDS)
        m = random_matrix(rng, field, 6, 5)
        cols = [column(m, j) for j in range(m.ncols)]
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


@pytest.mark.parametrize("index", [(0.5, 0), (0, 1.0), (True, 0), (0, False), ("0", 0)])
def test_matrix_refuses_an_entry_index_that_is_not_a_pair_of_ints(index):
    # (0.5, 0) used to build with rank 1, and (True, 0) as row 1
    with pytest.raises(InvalidShape, match="not a pair of ints"):
        Matrix(GF2, 2, 2, {index: 1})
    with pytest.raises(InvalidShape, match="not a pair of ints"):
        Matrix(GF2, 2, 2, {index: 0})  # a zero entry is refused the same way


@pytest.mark.parametrize("index", [(5, 0), (-1, 0), (0, 2), (0, -1)])
def test_matrix_refuses_an_entry_index_outside_its_shape(index):
    # (5, 0) used to raise a bare IndexError, and (5, 0): 0 built an empty matrix
    with pytest.raises(InvalidShape, match="outside 2x2"):
        Matrix(GF2, 2, 2, {index: 1})
    with pytest.raises(InvalidShape, match="outside 2x2"):
        Matrix(GF2, 2, 2, {index: 0})  # a zero entry is refused the same way


def test_matrix_stores_raw_reduced_values():
    F3 = Field(3)
    m = Matrix(F3, 1, 3, {(0, 0): F3(2), (0, 1): -1, (0, 2): 3})
    assert m.entries == {(0, 0): 2, (0, 1): 2}  # 3 reduces to 0 and is dropped
    assert all(type(v) is int for v in m.entries.values())
    q = Matrix(RATIONALS, 1, 2, {(0, 0): 4, (0, 1): RATIONALS(Fraction(1, 2))})
    assert q.entries == {(0, 0): Fraction(4), (0, 1): Fraction(1, 2)}
    assert all(type(v) is Fraction for v in q.entries.values())


@pytest.mark.parametrize("field", ["f2", 2, None])
def test_matrix_refuses_a_non_field(field):
    with pytest.raises(TypeError, match="expected a Field"):
        Matrix(field, 1, 1)


class Small(IntEnum):
    ONE = 1
    TWO = 2


@given(st.sampled_from([RATIONALS, GF2, Field(3), F5]), st.data())
@settings(max_examples=300, deadline=None)
def test_matrix_stores_and_refuses_what_field_reduce_does(field, data):
    # exact ints take a fast path through `Matrix`; every other index and
    # value must come out as `Field.reduce` and the index checks make them
    p = field.characteristic
    value = st.one_of(
        st.integers(-50, 50),
        st.integers(-9, 9).map(lambda k: k * p),  # 0 over Q
        st.fractions(-5, 5, max_denominator=7).filter(lambda f: not p or f.denominator % p),
        st.integers(-9, 9).map(field),
        st.sampled_from(Small),
    )
    index = st.one_of(st.integers(0, 2), st.sampled_from(Small))
    entries = data.draw(st.dictionaries(st.tuples(index, index), value, max_size=6))
    reduced = {ij: field.reduce(v) for ij, v in entries.items()}
    kept = {ij: v for ij, v in reduced.items() if v}
    m = Matrix(field, 3, 3, entries)
    assert m.entries == kept
    assert [type(v) for v in m.entries.values()] == [type(v) for v in kept.values()]
    # one entry more is refused: a bool, float or str in the index, an
    # exact int outside the shape, or a bool value
    spoil = data.draw(st.sampled_from(["index", "outside", "value"]))
    if spoil == "index":
        bad = data.draw(st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2)))
        error, match = InvalidShape, "not a pair of ints"
    elif spoil == "outside":
        bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=3)))
        error, match = InvalidShape, "outside 3x3"
    else:
        bad = data.draw(st.booleans())
        error, match = InvalidScalar, "is not an int"
    if spoil == "value":
        spoiled = {**entries, (0, 0): bad}  # last, so it keeps the bool
    else:
        ij = data.draw(st.sampled_from([(bad, 0), (0, bad)]))
        spoiled = {ij: 1, **entries}  # first, so it keeps its key
    with pytest.raises(error, match=match):
        Matrix(field, 3, 3, spoiled)
