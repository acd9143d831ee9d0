from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmod_reference import kron
from oquiver.linalg import (
    DimensionMismatch,
    QMatrix,
    RowSpan,
    canonical_basis,
    exact,
    exact_row,
    format_rational,
    in_span,
    nullspace_of_rows,
    parse_rational,
    rank,
)

F = Fraction


def matvec(m, v):
    """The matrix m applied to the Row v, as a Row; the library forms
    products as sums of columns instead, so this is the tests' own."""
    return exact_row({i: sum(a * v[k] for k, a in row.items() if k in v) for i, row in enumerate(m.data)})


def test_rref_rank_one():
    assert canonical_basis([{0: 2, 1: 4}, {0: 1, 1: 2}], 2) == [{0: 1, 1: 2}]


def test_rref_identity():
    rows = list(QMatrix.identity(4).data)
    assert canonical_basis(rows, 4) == rows


def test_rref_permutation():
    assert canonical_basis([{1: 1}, {0: 1}], 2) == list(QMatrix.identity(2).data)


def test_nullspace_single_row():
    basis = nullspace_of_rows([{0: 1, 1: 1}], 2)
    assert len(basis) == 1
    (v,) = basis
    # up to scale this is (1, -1)
    assert v[0] * F(-1) == v[1]
    assert v[0] + v[1] == 0


def test_nullspace_invertible_empty():
    assert nullspace_of_rows(QMatrix([[1, 2], [3, 4]]).data, 2) == []


def test_nullspace_zero_matrix():
    basis = nullspace_of_rows(QMatrix.zeros(2, 3).data, 3)
    assert len(basis) == 3
    assert basis[0] == {0: 1}


def test_in_span_scaled():
    ok, coeffs = in_span({0: F(2), 1: F(2)}, [{0: F(1), 1: F(1)}], 2)
    assert ok and coeffs == {0: 2}


def test_in_span_failure():
    ok, coeffs = in_span({0: F(1)}, [{1: F(1)}], 2)
    assert not ok and coeffs is None


def test_in_span_zero_vector():
    ok, coeffs = in_span({}, [{0: F(1), 1: F(2)}, {0: F(3), 1: F(4)}], 2)
    assert ok and coeffs == {}


def test_in_span_dimension_mismatch():
    # a target with an entry in column 2 against basis vectors of width 2
    with pytest.raises(DimensionMismatch):
        in_span({2: F(1)}, [{1: F(1)}], 2)


def test_insert_returns_the_dependency():
    # every vector fed to insert gets a generator index, dependent or not
    span = RowSpan(2, track=True)
    assert span.insert({0: F(1), 1: F(1)}) is None
    assert span.insert({}) == {}
    assert span.insert({1: F(2)}) is None
    assert span.insert({0: F(3), 1: F(1)}) == {0: 3, 2: -1}
    assert RowSpan(2).insert({}) == {}


def _solve(m, b):
    """x with m x = b over the columns of m, through in_span, or None."""
    ok, x = in_span(b, [m.col(j) for j in range(m.cols)], m.rows)
    return x if ok else None


def test_solve_identity():
    x = _solve(QMatrix.identity(3), {0: F(5), 1: F(1, 2), 2: F(-2)})
    assert x == {0: 5, 1: F(1, 2), 2: -2}


def test_solve_free_variable_zero():
    # a column made redundant by an earlier one gets no coefficient
    assert _solve(QMatrix([[1, 1]]), {0: F(3)}) == {0: 3}


def test_solve_inconsistent():
    assert _solve(QMatrix([[1], [1]]), {0: F(1), 1: F(2)}) is None


def test_matmul_and_kron():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([[0, 1], [1, 0]])
    assert a * b == QMatrix([[2, 1], [4, 3]])
    k = kron(a, QMatrix.identity(2))
    assert k.rows == 4 and k.cols == 4
    assert k[(0, 0)] == 1 and k[(1, 1)] == 1 and k[(0, 2)] == 2 and k[(2, 0)] == 3


def test_rational_round_trip():
    for x in [F(0), F(5), F(-3), F(7, 2), F(-9, 4)]:
        assert parse_rational(format_rational(x)) == x
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert parse_rational("6/4") == F(3, 2)
    assert type(parse_rational("-6/3")) is int and parse_rational("-6/3") == -2
    assert type(parse_rational("7")) is int


@pytest.mark.parametrize("text", ["1e5", "1e10000000", "0.5", " 1", "1/", "/2", "+1", "1/-2", "٣", ""])
def test_parse_rational_takes_only_the_written_forms(text):
    with pytest.raises(ValueError):
        parse_rational(text)


small_entries = st.integers(min_value=-4, max_value=4).map(F)
small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rref_idempotent(rows):
    m = QMatrix(rows)
    reduced = canonical_basis(m.data, m.cols)
    assert canonical_basis(reduced, m.cols) == reduced
    assert len(reduced) == rank(m.data)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_rank_transpose_invariant(rows):
    m = QMatrix(rows)
    assert rank(m.data) == rank(m.transpose().data)


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_nullspace_vectors_annihilate(rows):
    m = QMatrix(rows)
    basis = nullspace_of_rows(m.data, m.cols)
    assert len(basis) == m.cols - rank(m.data)
    for v in basis:
        assert matvec(m, v) == {}
    # the vectors are independent
    assert len(canonical_basis(basis, m.cols)) == len(basis)
    # canonical: the basis depends only on the row space, not on the rows given
    assert nullspace_of_rows(canonical_basis(m.data, m.cols), m.cols) == basis
    assert nullspace_of_rows(list(reversed(m.data)) + list(m.data), m.cols) == basis


@settings(max_examples=60, deadline=None)
@given(small_matrix, st.lists(small_entries, min_size=1, max_size=4))
def test_solve_exact_when_defined(rows, xs):
    m = QMatrix(rows)
    x = {j: v for j, v in enumerate((xs * m.cols)[: m.cols]) if v}
    b = matvec(m, x)
    got = _solve(m, b)
    assert got is not None
    assert matvec(m, got) == b


# entries with denominators, zeros (so zero rows) and values near 10^30,
# whose common factors the rank divides out as it eliminates
rank_entries = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.integers(-3, 3).map(lambda k: F(10**30 + k, 7)),
    st.integers(-3, 3).map(lambda k: F(-(10**30) * 6 + k)),
)
rank_matrix = st.tuples(st.integers(1, 7), st.integers(1, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(rank_entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    )
)


@settings(max_examples=150, deadline=None)
@given(rank_matrix)
def test_rank_matches_canonical_basis(rows):
    m = QMatrix(rows)
    assert rank(m.data) == len(canonical_basis(m.data, m.cols))
    # a dependent row (a rational combination of the others) adds nothing
    combined = [sum((F(k + 1, 3) * r[j] for k, r in enumerate(rows)), F(0)) for j in range(m.cols)]
    assert rank(QMatrix(rows + [combined]).data) == rank(m.data)


# Row values: small ints; Fractions; and ints without a unit, so every
# elimination step scales a row by a non-unit a = pivot / gcd
row_values = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=5),
    "non-unit": st.sampled_from([-6, -3, -2, 0, 2, 3, 4, 6, 9]),
}


@st.composite
def row_lists(draw, values):
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), values, max_size=ncols), max_size=7
    ))
    return [{j: exact(v) for j, v in row.items() if v} for row in rows], ncols


@pytest.mark.parametrize("kind", sorted(row_values))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_rank_of_rows_matches_canonical_basis(kind, data):
    rows, ncols = data.draw(row_lists(row_values[kind]))
    assert rank(rows) == len(canonical_basis(rows, ncols))


def test_rank_of_rows_with_non_unit_pivots():
    # 3 x + 5 y against the pivot row 2 x + 3 y is scaled by a = 2 first
    assert rank([{0: 2, 1: 3}, {0: 3, 1: 5}]) == 2
    assert rank([{0: 2, 1: 3}, {0: 3, 1: 9 / F(2)}]) == 1
    # x + 3 y - (x + y) = 2 y keeps its content 2 (a = 1), and 2 y is dependent
    assert rank([{0: 1, 1: 1}, {0: 1, 1: 3}, {1: 2}]) == 2
    assert rank([{0: 1, 1: 1}, {0: 1, 1: 3}, {1: 2}, {0: 5}]) == 2


def _dense_product(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), F(0)) for j in range(len(b[0]))] for row in a]


def _dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@settings(max_examples=80, deadline=None)
@given(small_matrix, small_matrix, small_entries, st.lists(small_entries, min_size=4, max_size=4))
def test_sparse_operations_match_dense_reference(rows, other_rows, c, xs):
    m, other = QMatrix(rows), QMatrix(other_rows)
    a, b = m.dense(), other.dense()
    assert a == [list(r) for r in rows]
    results = [m.scale(c), m.scale(0), m.transpose(), kron(m, other), m + m, m * m.transpose(),
               m + m.scale(-1)]
    assert results[0].dense() == [[c * x for x in r] for r in a]
    assert results[1] == results[6] == QMatrix.zeros(m.rows, m.cols)
    assert results[2].dense() == [list(col) for col in zip(*a)]
    assert results[3].dense() == _dense_kron(a, b)
    assert results[4].dense() == [[x + x for x in r] for r in a]
    assert results[5].dense() == _dense_product(a, [list(col) for col in zip(*a)])
    if m.rows == other.rows and m.cols == other.cols:
        results.append(m + other)
        assert results[-1].dense() == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    if m.cols == other.rows:
        results.append(m * other)
        assert results[-1].dense() == _dense_product(a, b)
    x = xs[: m.cols]
    assert matvec(m, {j: v for j, v in enumerate(x) if v}) == {
        i: s for i, s in enumerate(sum((u * v for u, v in zip(r, x)), F(0)) for r in a) if s
    }
    for j in range(m.cols):
        assert m.col(j) == {i: r[j] for i, r in enumerate(a) if r[j]}
    # no stored zeros, which is what makes equality of the data meaningful,
    # and integral entries stored as ints
    for result in [m, other, *results]:
        assert all(v != 0 and _obeys_number_rule(v) for row in result.data for v in row.values())


def _obeys_number_rule(v):
    """An exact value is an int when integral and a Fraction only with a denominator."""
    return type(v) is int or (type(v) is F and v.denominator != 1)


def _rows_of(ncols):
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)


span_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_rows_of(n), max_size=6), _rows_of(n))
)


@settings(max_examples=100, deadline=None)
@given(span_cases)
def test_span_results_agree_for_int_and_fraction_inputs(case):
    ncols, rows, target = case
    results = []
    # the same values, integral ones once as int and once as Fraction
    for convert in (lambda v: v.numerator if v.denominator == 1 else v, F):
        vectors = [{j: convert(v) for j, v in row.items()} for row in rows]
        vector = {j: convert(v) for j, v in target.items()}
        span = RowSpan(ncols, track=True)
        inserted = [span.insert(v) for v in vectors]
        results.append((
            inserted, span.coefficients(vector), span.basis_rows(),
            canonical_basis(vectors, ncols), nullspace_of_rows(vectors, ncols),
            in_span(vector, vectors, ncols),
        ))
    assert results[0] == results[1]
    for inserted, coefficients, basis, canonical, kernel, (_, combo) in results:
        for row in [*filter(None, inserted), coefficients or {}, *basis, *canonical, *kernel, combo or {}]:
            assert all(_obeys_number_rule(v) for v in row.values())
