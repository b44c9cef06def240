"""Dense matrices and vectors over a finite field.

Entries are plain int values interpreted in the owning field; all
operations are exact Gaussian elimination with first-nonzero pivoting,
so there is no tolerance anywhere.  Matrices are immutable; operations
return new objects and are safe to call concurrently.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .galois import Field


class FieldMatrix:
    """A rows x cols matrix over a finite field, stored row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows_data: Iterable[Iterable[int]], cols: int | None = None):
        data = tuple(tuple(field.check(v) for v in row) for row in rows_data)
        rows = len(data)
        if rows:
            cols = len(data[0]) if cols is None else cols
        else:
            cols = 0 if cols is None else cols
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence[int]], rows: int | None = None) -> "FieldMatrix":
        if not columns:
            if rows is None:
                raise ValueError("need explicit row count for a matrix with no columns")
            return cls(field, [[] for _ in range(rows)])
        nrows = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(nrows)])

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, [self.column(j) for j in range(self.cols)])

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.rows != self.rows or other.field != self.field:
            raise ValueError("hstack shape or field mismatch")
        return FieldMatrix(self.field, [a + b for a, b in zip(self.data, other.data)])

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows or self.field != other.field:
            raise ValueError("matrix product shape or field mismatch")
        f = self.field
        out = []
        for i in range(self.rows):
            row = self.data[i]
            out_row = []
            for j in range(other.cols):
                acc = 0
                for t in range(self.cols):
                    acc = f.add(acc, f.mul(row[t], other.data[t][j]))
                out_row.append(acc)
            out.append(out_row)
        return FieldMatrix(f, out)

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("matrix-vector shape mismatch")
        f = self.field
        out = []
        for row in self.data:
            acc = 0
            for a, b in zip(row, vec):
                acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def vector_mul(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Row vector times matrix."""
        if len(vec) != self.rows:
            raise ValueError("vector-matrix shape mismatch")
        f = self.field
        out = []
        for j in range(self.cols):
            acc = 0
            for i in range(self.rows):
                acc = f.add(acc, f.mul(vec[i], self.data[i][j]))
            out.append(acc)
        return tuple(out)

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


def _rref(field: Field, rows: list[list[int]], pivot_cols_limit: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; pivots searched in columns
    [0, pivot_cols_limit).  Returns (rows, pivot column indices)."""
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(pivot_cols_limit):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


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
