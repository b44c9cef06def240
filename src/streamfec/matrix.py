"""Dense matrices, vectors and sparse linear forms over a finite field.

Entries are plain int values interpreted in the owning field; every
product is a lookup in the field's product table for its constant.
This module and `galois` are the only ones that add field values: the
rest of the package computes its linear maps (encoders, syndromes,
checks, pins, corrections) as `form`s read by `Packed` readers, and adds
vectors with `add`.  A reader of a set of forms keeps one table per
position that gives the contribution of every form at once, so a read
of one vector, or of it at an offset into a longer flat one, is one
lookup per position and returns the forms' values as one base-q integer
(`Packed.digits` splits it, by `_digits_of`); `Packed.read_columns` reads
every row of a matrix given by its columns at once.
Elimination is exact, one row at a time (`_insert`), pivoting on the
first nonzero column, so there is no tolerance anywhere.  Matrices are
immutable; operations return new objects and are safe to share
between threads.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

from .galois import Field


class FieldMatrix:
    """A rows x cols matrix over a finite field, stored row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows_data: Iterable[Iterable[int]]):
        data = tuple(tuple(field.check(v) for v in row) for row in rows_data)
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(data)
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.rows != self.rows or other.field != self.field:
            raise ValueError("hstack shape or field mismatch")
        return FieldMatrix(self.field, [a + b for a, b in zip(self.data, other.data)])

    def submatrix(self, row_set: Iterable[int], col_set: Iterable[int]) -> "FieldMatrix":
        """Rows and columns extracted in ascending index order."""
        rs = sorted(set(row_set))
        cs = sorted(set(col_set))
        if rs and not 0 <= rs[0] <= rs[-1] < self.rows:
            raise IndexError("row index out of range")
        if cs and not 0 <= cs[0] <= cs[-1] < self.cols:
            raise IndexError("column index out of range")
        return FieldMatrix(self.field, [[self.data[i][j] for j in cs] for i in rs])

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.data == other.data
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.field!r}, {self.to_lists()!r})"


# A sparse linear form: its nonzero terms, each (position, the product
# table of its coefficient).
Form = tuple[tuple[int, Sequence[int]], ...]


def form(field: Field, coeffs: Sequence[int], positions: Iterable[int] | None = None) -> Form:
    """The linear form v -> sum of coeffs[l] * v[positions[l]] (positions
    default to 0, 1, ...), for `Packed`."""
    if positions is None:
        positions = range(len(coeffs))
    times = field.times
    return tuple((at, times(c)) for at, c in zip(positions, coeffs) if c)


def _digits_of(value: int, base: int, width: int) -> list[int]:
    """The `width` base-`base` digits of value, most significant first."""
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        value, digits[pos] = divmod(value, base)
    return digits


class Packed:
    """A set of `form`s read together: one table per observation position,
    mapping a symbol value there to the contribution of every form at
    once, each form's in its own digit field, the first form's most
    significant.  `read` is then one lookup per position, and returns the
    base-q integer of the forms' values in order (the value of the one
    form, for a single form); `read_columns` reads every row of a matrix
    given by its columns at once.

    Over GF(2^m) a field is m bits and the fields combine by XOR, so the
    packed sum is that integer.  Over GF(p) every field is wide enough for
    the unreduced sum of the longest form, each term at most p - 1, so the
    sum never carries between fields, and the read reduces each field mod
    p once.  A position that only one form
    reads, in the lowest field, reuses that term's `Field.times` table;
    every other is a `Field.table`."""

    __slots__ = ("terms", "count", "q", "_width", "_modulus")

    def __init__(self, field: Field, forms: Iterable[Form]):
        forms = list(forms)
        xor = field.p == 2
        if xor:
            width = field.m
        else:
            width = max(1, (max(map(len, forms), default=0) * (field.p - 1)).bit_length())
        parts: dict[int, list[tuple[int, Sequence[int]]]] = {}
        for l, terms in enumerate(forms):
            shift = width * (len(forms) - 1 - l)
            for at, t in terms:
                parts.setdefault(at, []).append((shift, t))
        self.terms: Form = tuple((at, _packed_table(field, parts[at], xor)) for at in sorted(parts))
        self.count = len(forms)
        self.q = field.q
        self._width = width
        self._modulus = None if xor else field.p

    def read(self, vec: Sequence[int], offset: int = 0) -> int:
        """The base-q integer of the forms' values on the vector whose entry
        `at` is vec[offset + at]."""
        acc = 0
        p = self._modulus
        if p is None:
            for at, t in self.terms:
                acc ^= t[vec[offset + at]]
            return acc
        for at, t in self.terms:
            acc += t[vec[offset + at]]
        width = self._width
        mask = (1 << width) - 1
        out = 0
        for shift in range(width * (self.count - 1), -1, -width):
            out = out * p + (acc >> shift & mask) % p
        return out

    def read_columns(self, columns: Sequence[Sequence[int]]) -> list[list[int]]:
        """The forms' values on every row of the matrix with the given
        columns, all of one length: out[l][r] is form l's value on row r.
        One pass per read column sums the packed contributions of every
        row, and one pass per form splits out its digit field."""
        acc = [0] * (len(columns[0]) if columns else 0)
        width = self._width
        mask = (1 << width) - 1
        shifts = range(width * (self.count - 1), -1, -width)
        p = self._modulus
        if p is None:
            for at, t in self.terms:
                acc = [a ^ t[v] for a, v in zip(acc, columns[at])]
            return [[a >> shift & mask for a in acc] for shift in shifts]
        for at, t in self.terms:
            acc = [a + t[v] for a, v in zip(acc, columns[at])]
        return [[(a >> shift & mask) % p for a in acc] for shift in shifts]

    def digits(self, value: int) -> list[int]:
        """The forms' values, in order, from a value `read` returned."""
        return _digits_of(value, self.q, self.count)


def _contribution(parts: list[tuple[int, Sequence[int]]], xor: bool, v: int) -> int:
    """The sum (XOR for p = 2) of t[v] << shift over the parts."""
    acc = 0
    for shift, t in parts:
        acc = acc ^ (t[v] << shift) if xor else acc + (t[v] << shift)
    return acc


def _packed_table(field: Field, parts: list[tuple[int, Sequence[int]]], xor: bool) -> Sequence[int]:
    """The table v -> `_contribution` of v: the one part's product table
    itself when that part is at shift 0, else a `Field.table`."""
    if len(parts) == 1 and parts[0][0] == 0:
        return parts[0][1]
    return field.table(partial(_contribution, parts, xor))


def add(field: Field, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a + b over the field, entrywise, for sequences of equal length."""
    if field.p == 2:
        return [x ^ y for x, y in zip(a, b)]
    p = field.p
    return [(x + y) % p for x, y in zip(a, b)]


def _axpy(field: Field, y: list[int], a: int, x: Sequence[int]) -> list[int]:
    """y + a * x, entrywise."""
    t = field.times(a)
    if field.p == 2:
        return [u ^ t[v] for u, v in zip(y, x)]
    p = field.p
    return [(u + t[v]) % p for u, v in zip(y, x)]


def _insert(field: Field, basis: dict[int, list[int]], row: list[int], limit: int) -> int | None:
    """One elimination step: reduce `row`, in place, against `basis`, the
    rows of a reduced row echelon form keyed by pivot column.  If the
    reduced row is nonzero in its first `limit` columns, scale it to a
    leading 1 there, clear that column from the basis rows, and add it to
    `basis` under that column, which is returned; otherwise return None.

    Basis rows vanish on each other's pivot columns, so the coefficient
    of each basis row is read off `row` as given, in any order."""
    for c, prow in basis.items():
        if row[c]:
            row[:] = _axpy(field, row, field.neg(row[c]), prow)
    pc = next((c for c in range(limit) if row[c]), None)
    if pc is None:
        return None
    if row[pc] != 1:
        t = field.times(field.inv(row[pc]))
        row[:] = [t[v] for v in row]
    for prow in basis.values():
        if prow[pc]:
            prow[:] = _axpy(field, prow, field.neg(prow[pc]), row)
    basis[pc] = row
    return pc


def _rref(field: Field, rows: list[list[int]], pivot_cols_limit: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form, pivots searched in columns
    [0, pivot_cols_limit): each row is `_insert`-ed once, in order, and
    reduced in place.  Returns (rows, pivot column indices): the pivot
    rows in column order, then the rows that vanish on that range, in
    input order.  Pivot columns, and the part of each pivot row inside
    the range, depend only on the row space; the whole pivot rows do too
    when no nonzero combination of the rows vanishes on the range, as
    for every caller that reads them."""
    basis: dict[int, list[int]] = {}
    rest = [row for row in rows if _insert(field, basis, row, pivot_cols_limit) is None]
    pivots = sorted(basis)
    return [basis[c] for c in pivots] + rest, pivots


def rank(m: FieldMatrix) -> int:
    rows = [list(r) for r in m.data]
    _, pivots = _rref(m.field, rows, m.cols)
    return len(pivots)


def in_span(v: Sequence[int], basis_columns: FieldMatrix) -> bool:
    """True iff v is a linear combination of the columns of basis_columns.

    The zero vector lies in every span, including the empty one.
    """
    entries = tuple(v)
    if len(entries) != basis_columns.rows:
        raise ValueError("dimension mismatch between vector and basis columns")
    if all(x == 0 for x in entries):
        return True
    base_rank = rank(basis_columns)
    aug = FieldMatrix(
        basis_columns.field,
        [row + (entries[i],) for i, row in enumerate(basis_columns.data)],
    )
    return rank(aug) == base_rank


def punctured_parity(h: FieldMatrix, n: int, k: int, tau: int, i: int) -> FieldMatrix:
    """Parity-check matrix of the code restricted to positions [0, tau+i],
    for a systematic parity matrix h = [P' | I].

    For i >= n - tau - 1 no position is cut off and h itself is returned;
    otherwise the result is the submatrix h([0 : tau-k+i], [0 : tau+i]).
    Requires k <= tau <= n-1 (the systematic-form shortcut needs tau >= k).
    """
    if h.rows != n - k or h.cols != n:
        raise ValueError(f"parity matrix must be {n - k}x{n}")
    ident = h.submatrix(range(n - k), range(k, n))
    if ident != FieldMatrix.identity(h.field, n - k):
        raise ValueError("parity-check matrix must be in systematic form [P' | I]")
    if tau < k:
        raise ValueError(f"delay {tau} below message length {k} is unsupported here")
    if tau > n - 1:
        raise ValueError(f"delay {tau} exceeds n-1 = {n - 1}")
    if not 0 <= i <= n - 1:
        raise ValueError("symbol index out of range")
    if i >= n - tau - 1:
        return h
    return h.submatrix(range(tau - k + i + 1), range(tau + i + 1))
