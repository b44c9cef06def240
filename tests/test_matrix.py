import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec.galois import GF
from streamfec.matrix import (
    FieldMatrix,
    in_span,
    punctured_parity,
    rank,
)

F2, F8 = GF(2), GF(8)


def test_rank_examples():
    assert rank(FieldMatrix.identity(F2, 3)) == 3
    assert rank(FieldMatrix.zeros(F2, 2, 5)) == 0
    assert rank(FieldMatrix(F2, [[1, 1], [1, 1]])) == 1


def test_in_span_examples():
    empty = FieldMatrix.from_columns(F2, [], rows=2)
    assert in_span([0, 0], empty)
    assert in_span([1, 0], FieldMatrix.identity(F2, 2))
    assert not in_span([1, 0], FieldMatrix.from_columns(F2, [[0, 1]]))


def test_in_span_dimension_mismatch():
    with pytest.raises(ValueError):
        in_span([1, 0, 0], FieldMatrix.identity(F2, 2))


def test_submatrix_examples():
    m = FieldMatrix.identity(F8, 3)
    assert m.submatrix(range(3), range(3)) == m
    assert m.submatrix([1], [2]).to_lists() == [[0]]
    assert m.submatrix([0, 2], [0, 2]) == FieldMatrix.identity(F8, 2)
    with pytest.raises(IndexError):
        m.submatrix([3], [0])


def _random_matrix(field, rows, cols, rng):
    return FieldMatrix(field, [[rng.randrange(field.q) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_rank_equals_rank_of_transpose(rows, cols, rng):
    for field in (F2, F8):
        m = _random_matrix(field, rows, cols, rng)
        assert rank(m) == rank(m.transpose())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.randoms(use_true_random=False))
def test_in_span_iff_rank_unchanged(dim, ncols, rng):
    for field in (F2, F8):
        basis = _random_matrix(field, dim, ncols, rng)
        v = [rng.randrange(field.q) for _ in range(dim)]
        aug = FieldMatrix(field, [row + (v[i],) for i, row in enumerate(basis.data)])
        assert in_span(v, basis) == (rank(aug) == rank(basis))


def _systematic_parity(field, p_rows):
    k = len(p_rows)
    r = len(p_rows[0])
    neg_pt = [[field.neg(p_rows[i][j]) for i in range(k)] for j in range(r)]
    return FieldMatrix(field, [neg_pt[j] + [1 if t == j else 0 for t in range(r)] for j in range(r)])


def test_punctured_parity_full_for_late_symbols():
    # n=9, k=5, tau=7: every i >= n - tau - 1 = 1 keeps the whole matrix
    rng = random.Random(3)
    p_rows = [[rng.randrange(2) for _ in range(4)] for _ in range(5)]
    h = _systematic_parity(F2, p_rows)
    for i in range(1, 9):
        assert punctured_parity(h, 9, 5, 7, i) == h


def test_punctured_parity_shape_and_identity_tail():
    rng = random.Random(4)
    p_rows = [[rng.randrange(2) for _ in range(4)] for _ in range(5)]
    h = _systematic_parity(F2, p_rows)
    h0 = punctured_parity(h, 9, 5, 7, 0)
    assert (h0.rows, h0.cols) == (3, 8)
    assert h0.submatrix(range(3), range(5, 8)) == FieldMatrix.identity(F2, 3)


def test_punctured_parity_preconditions():
    h = _systematic_parity(F8, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        punctured_parity(h, 5, 3, 2, 0)  # tau < k unsupported
    with pytest.raises(ValueError):
        punctured_parity(h, 5, 3, 5, 0)  # tau > n-1
    with pytest.raises(ValueError):
        punctured_parity(h, 5, 3, 3, 9)
    bad = FieldMatrix(F8, [[1, 0, 0, 0, 1], [0, 1, 1, 1, 0]])  # tail is not I_2
    with pytest.raises(ValueError):
        punctured_parity(bad, 5, 3, 3, 0)


def test_punctured_parity_annihilates_punctured_codewords():
    # Enumerate all q^k codewords of a [5,3] code over GF(8).
    p_rows = [[1, 4], [1, 3], [1, 6]]
    h = _systematic_parity(F8, p_rows)
    g = FieldMatrix.identity(F8, 3).hstack(FieldMatrix(F8, p_rows))
    tau = 3
    for i in range(5):
        hi = punctured_parity(h, 5, 3, tau, i)
        width = hi.cols
        for u in product(range(8), repeat=3):
            cw = g.vector_mul(u)
            assert hi.mul_vector(cw[:width]) == (0,) * hi.rows


def test_matrix_json_literals_roundtrip():
    m = FieldMatrix(F8, [[0, 1, 2], [3, 4, 5]])
    assert FieldMatrix(F8, m.to_lists()) == m
