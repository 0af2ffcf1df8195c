import random

import pytest
from hypothesis import given, settings, strategies as st

from mhom import spaces
from mhom.intlinalg import (IntMatrix, kernel_basis, smith_normal_form,
                            solve_integer)

from oracles import dense_smith_normal_form, field_rank, invariant_factors


def diag_of(D, n, m):
    return [D.get(i, i) for i in range(min(n, m))]


def test_snf_small_frozen():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    U, D, V, _, _ = smith_normal_form(M)
    assert (U * M * V).to_rows() == D.to_rows()
    assert diag_of(D, 2, 2) == [2, 4]
    assert invariant_factors([[2, 4], [6, 8]]) == [2, 4]


def test_snf_identity_and_zero():
    I = IntMatrix.identity(3)
    D = smith_normal_form(I)[1]
    assert diag_of(D, 3, 3) == [1, 1, 1]
    Z = IntMatrix.zeros(2, 3)
    D = smith_normal_form(Z)[1]
    assert D.is_zero()


def test_constructor_takes_its_dict_and_from_rows_drops_zeros():
    d = {(0, 0): 5}
    assert IntMatrix(1, 1, d).data is d
    M = IntMatrix.from_rows([[0, 2], [0, 0], [-1, 0]])
    assert M.data == {(0, 1): 2, (2, 0): -1}
    assert (M.nrows, M.ncols) == (3, 2)


small_matrix = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(small_matrix)
def test_snf_certificate_and_divisors(rows):
    M = IntMatrix.from_rows(rows)
    U, D, V, U_inv, V_inv = smith_normal_form(M)
    assert (U * M * V).to_rows() == D.to_rows()
    # the returned inverses certify that both transforms are unimodular
    for T, T_inv, n in ((U, U_inv, M.nrows), (V, V_inv, M.ncols)):
        assert T * T_inv == IntMatrix.identity(n)
        assert T_inv * T == IntMatrix.identity(n)
    d = [abs(x) for x in diag_of(D, M.nrows, M.ncols) if x]
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    # off-diagonal must vanish
    for (i, j) in list(D.data):
        assert i == j
    assert d == invariant_factors(rows)


@settings(max_examples=80, deadline=None)
@given(small_matrix)
def test_rank_and_kernel_against_oracle(rows):
    M = IntMatrix.from_rows(rows)
    D = smith_normal_form(M)[1]
    r = len([x for x in diag_of(D, M.nrows, M.ncols) if x])
    assert r == field_rank(rows)
    ker = kernel_basis(M)
    assert len(ker) == M.ncols - r
    for v in ker:
        assert all(x == 0 for x in M.apply(v))


def test_solve_integer_roundtrip():
    rng = random.Random(10)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        M = IntMatrix.from_rows(rows)
        x = [rng.randint(-3, 3) for _ in range(m)]
        b = M.apply(x)
        got = solve_integer(M, b)
        assert got is not None
        assert M.apply(got) == b


def test_solve_integer_unsolvable():
    M = IntMatrix.from_rows([[2]])
    assert solve_integer(M, [1]) is None
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_integer(M, [1, 1]) is None
    assert solve_integer(M, [4, 6]) == [2, 2]


def test_snf_diagonal_shortcut():
    rows = [[4, 6], [2, 8]]
    D = smith_normal_form(IntMatrix.from_rows(rows))[1]
    assert [abs(x) for x in diag_of(D, 2, 2) if x] == invariant_factors(rows)


def test_snf_matches_dense_reference_on_random_matrices():
    """The sparse-row code runs the dense reference's operations in the
    same order, so all five matrices agree, transforms included."""
    rng = random.Random(11)
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [[rng.randint(-6, 6) if rng.random() < density else 0
                 for _ in range(m)] for _ in range(n)]
        M = IntMatrix.from_rows(rows)
        assert smith_normal_form(M) == dense_smith_normal_form(M), rows


@pytest.mark.parametrize("name", spaces.builtin_spaces())
def test_snf_matches_dense_reference_on_boundaries(name):
    C, _ = spaces.load_space(name).chain_complex()
    for k in range(1, len(C.dims)):
        M = C.boundary(k)
        assert smith_normal_form(M) == dense_smith_normal_form(M), k

