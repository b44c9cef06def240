import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec.block_code import build_mds
from streamfec.galois import GF
from streamfec.matrix import (
    FieldMatrix,
    Packed,
    _digits_of,
    add,
    form,
    in_span,
    punctured_parity,
    rank,
)
from streamfec.streaming import _residual_reader

from test_block_code import _dot, _mul

F2, F8 = GF(2), GF(8)


def test_rank_examples():
    assert rank(FieldMatrix.identity(F2, 3)) == 3
    assert rank(FieldMatrix(F2, [[0] * 5] * 2)) == 0
    assert rank(FieldMatrix(F2, [[1, 1], [1, 1]])) == 1


def test_in_span_examples():
    empty = FieldMatrix(F2, [[], []])
    assert in_span([0, 0], empty)
    assert in_span([1, 0], FieldMatrix.identity(F2, 2))
    assert not in_span([1, 0], FieldMatrix(F2, [[0], [1]]))


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
        assert rank(m) == rank(FieldMatrix(field, zip(*m.data)))


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
            cw = _mul(u, g)
            assert all(_dot(F8, row, cw[:width]) == 0 for row in hi.data)


def _random_form(f, length, rng):
    """A random form over positions [0, length), with zero coefficients
    and repeated positions, and the dense row with the same value."""
    coeffs, positions = [], []
    for _ in range(rng.randrange(8) if length else 0):
        coeffs.append(rng.choice((0, 1, rng.randrange(f.q))))
        positions.append(rng.randrange(length))
    row = [0] * length
    for c, at in zip(coeffs, positions):
        row[at] = f.add(row[at], c)
    return form(f, coeffs, positions), row


def _form_value(f, terms, vec):
    """A form's value on vec by the field's scalar add and mul, each
    term's coefficient read off its product table at 1."""
    return _dot(f, [t[1] for _, t in terms], [vec[at] for at, _ in terms])


def _base_q(q, digits):
    """The base-q integer of the digits, the first most significant: the
    error decoder's window syndrome key, folded one digit at a time."""
    value = 0
    for s in digits:
        value = value * q + s
    return value


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 256, 1 << 16])
def test_evaluate_and_add_match_dot_and_field_add(q):
    # one form at a time: its packed read is its value
    f = GF(q)
    rng = random.Random(q)
    for _ in range(60):
        vec = [rng.randrange(q) for _ in range(rng.randrange(8))]
        sparse, row = _random_form(f, len(vec), rng)
        whole = [rng.choice((0, rng.randrange(q))) for _ in vec]
        for terms, dense in ((sparse, row), (form(f, whole), whole), (form(f, []), [])):
            assert Packed(f, [terms]).read(vec) == _dot(f, dense, vec)
        other = [rng.randrange(q) for _ in vec]
        assert add(f, vec, other) == [f.add(x, y) for x, y in zip(vec, other)]
    assert form(f, [0, 0, 0]) == ()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 256, 1 << 16])
def test_evaluate_columns_matches_evaluate_row_by_row(q):
    # `read_columns` on a matrix given by its columns, zero rows included,
    # against `read` on each row
    f = GF(q)
    rng = random.Random(q)
    for _ in range(30):
        rows, cols = rng.randrange(6), rng.randrange(1, 6)
        matrix = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        forms = [_random_form(f, cols, rng)[0] for _ in range(rng.randrange(4))]
        forms.append(form(f, []))
        packed = Packed(f, forms)
        want = [packed.digits(packed.read(row)) for row in matrix]
        columns = [[row[c] for row in matrix] for c in range(cols)]
        assert packed.read_columns(columns) == [[values[l] for values in want] for l in range(len(forms))]
    assert Packed(f, []).read_columns([[1, 0]]) == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 251, 256, 1 << 16])
def test_packed_read_matches_evaluate_digit_by_digit(q):
    # random forms, with zero coefficients and repeated positions, read
    # together at an offset into a longer vector, against `_dot`
    f = GF(q)
    rng = random.Random(q)
    for _ in range(40):
        length = rng.randrange(1, 10)
        pairs = [_random_form(f, length, rng) for _ in range(rng.randrange(6))]
        packed = Packed(f, [terms for terms, _ in pairs])
        vec = [rng.randrange(q) for _ in range(length)]
        offset = rng.randrange(5)
        padded = [rng.randrange(q) for _ in range(offset)] + vec + [rng.randrange(q)]
        want = [_dot(f, row, vec) for _, row in pairs]
        value = packed.read(padded, offset)
        assert packed.digits(value) == want
        assert value == _base_q(q, want)
        assert packed.read(vec) == value
    assert Packed(f, []).read([1, 2]) == 0
    assert Packed(f, []).digits(0) == []


def test_packed_unreduced_sums_never_carry_over_gf251():
    # The largest unreduced sums: every product p - 1, on every position
    # of the error decoder's full window for a [9,5] code at tau = 8,
    # (n-1)k + (tau+1)n = 101 positions; one form reads each position
    # twice.
    f = GF(251)
    length = 4 * 5 + 9 * 9
    vec = [250] * length
    ones = form(f, [1] * length)
    forms = [ones, form(f, [250] * length), ones, form(f, [1] * 2 * length, [*range(length)] * 2), ones]
    packed = Packed(f, forms)
    want = [length * 250 % 251, length % 251, length * 250 % 251, 2 * length * 250 % 251, length * 250 % 251]
    assert [_form_value(f, terms, vec) for terms in forms] == want
    value = packed.read(vec)
    assert packed.digits(value) == want
    assert value == _base_q(251, want)
    assert packed.read_columns([[v] for v in vec]) == [[v] for v in want]


def test_packed_tables_fill_lazily_above_q256():
    # Over GF(2^16) each position's table holds only the values read there.
    f = GF(1 << 16)
    rng = random.Random(16)
    rows = [[rng.randrange(1, 1 << 16) for _ in range(4)] for _ in range(3)]
    packed = Packed(f, [form(f, row) for row in rows])
    tables = [t for _, t in packed.terms]
    assert len(tables) == 4 and not any(tables)
    vec = [rng.randrange(1 << 16) for _ in range(4)]
    assert packed.digits(packed.read(vec)) == [_dot(f, row, vec) for row in rows]
    assert [sorted(t) for t in tables] == [[v] for v in vec]
    other = [v ^ 1 for v in vec]
    assert packed.read_columns([[v] for v in other]) == [[_dot(f, row, other)] for row in rows]
    assert [sorted(t) for t in tables] == [sorted((v, v ^ 1)) for v in vec]


@pytest.mark.parametrize("q", [8, 7])
def test_packed_window_syndrome_is_the_error_decoders_base_q_key(q):
    # The error decoder's window syndrome, for p = 2 and odd p: the
    # residual reader, read at a window packet, is the base-q integer of
    # its n-k parity residuals, digit 0 most significant, and the window's
    # packets folded base q^(n-k), packet t first, are the base-q integer
    # of every residual in that order, which `_digits_of` splits back.
    # The window is n-1 packets before t, then `width` packets, as the
    # decoder lays it out; no residual of a window packet reads a parity
    # symbol of a packet before t, so the values equal those with these
    # symbols zeroed.
    f = GF(q)
    code = build_mds(5, 3, f)
    n, k = code.n, code.k
    reader = _residual_reader(code)
    rng = random.Random(q)

    def residuals(window, a):
        # residual j of packet t+a: its symbol j minus sum_i P[i][j] u_i(t+a-j+i)
        out = []
        for j in range(k, n):
            coeffs = [f.neg(code.P[i, j - k]) for i in range(k)] + [1]
            values = [window[(n - 1 + a - j + i) * n + i] for i in range(k)] + [window[(n - 1 + a) * n + j]]
            out.append(_dot(f, coeffs, values))
        return out

    for width in range(1, 6):
        for _ in range(20):
            window = [rng.randrange(q) for _ in range((n - 1 + width) * n)]
            zeroed = [0 if at < (n - 1) * n and at % n >= k else v for at, v in enumerate(window)]
            digits = []
            syndrome = 0
            for a in range(width):
                packet = residuals(zeroed, a)
                assert reader.read(window, a * n) == reader.read(zeroed, a * n) == _base_q(q, packet)
                assert reader.digits(reader.read(window, a * n)) == packet
                digits += packet
                syndrome = syndrome * q ** (n - k) + reader.read(window, a * n)
            assert syndrome == _base_q(q, digits)
            assert _digits_of(syndrome, q, width * (n - k)) == digits


def test_matrix_json_literals_roundtrip():
    m = FieldMatrix(F8, [[0, 1, 2], [3, 4, 5]])
    assert FieldMatrix(F8, m.to_lists()) == m
