"""Systematic block codes and their delay-constrained decodability.

Covers the code constructions used by the streaming layer (systematic
MDS via Vandermonde systematization, and interleaved-MDS codes for
multiple burst erasures), and the exact verifier that decides whether a
code can recover every erased message symbol within a per-symbol delay
budget; a generator with an invertible leading block is verified in its
systematic form (`_systematize`).  A code's parity symbols are one
`matrix.Packed` reader of the columns of P, which `SystematicCode.encode`
reads on one message and `streaming.de_encode` on every diagonal at once.

Delay semantics: message symbol i of a codeword must be recovered from
the non-erased code symbols in positions [0, min(i + tau, n-1)].  The
verifier asks `SystematicCode.recovery`'s elimination, the same one the
erasure decoder asks, which unerased position first fixes u_i: symbol i
is recoverable iff that pin position exists and is within its deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Iterable, Sequence

from .bounds import delay_tau_star  # noqa: F401  (callers import it from here too)
from .channel import _check_int, _check_ints
from .galois import Field
from .matrix import FieldMatrix, Packed, _insert, _rref, form, rank

# Nothing here calls these two any more; the benchmark's tracer installs
# spans at `block_code.in_span` and `block_code.punctured_parity` and
# fails if either name is missing, so they stay importable from here
# until the benchmark drops those span sites.
from .matrix import in_span, punctured_parity  # noqa: F401


@dataclass(frozen=True)
class SystematicCode:
    """An [n, k] systematic code, generator [I_k | P], parity [-P^T | I]."""

    field: Field
    n: int
    k: int
    P: FieldMatrix
    construction: dict | None = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k}, n={self.n}")
        if self.P.rows != self.k or self.P.cols != self.n - self.k:
            raise ValueError(f"P must be {self.k}x{self.n - self.k}")
        if self.P.field != self.field:
            raise ValueError("P is over the wrong field")

    @cached_property
    def generator(self) -> FieldMatrix:
        return FieldMatrix.identity(self.field, self.k).hstack(self.P)

    @cached_property
    def parity(self) -> FieldMatrix:
        f = self.field
        neg_pt = FieldMatrix(f, [[f.neg(v) for v in self.P.column(j)] for j in range(self.P.cols)])
        return neg_pt.hstack(FieldMatrix.identity(f, self.n - self.k))

    @cached_property
    def _erasure_readers(self) -> dict:
        """`streaming.decode_erasures`' `recovery` answers per observed
        mask: the checks as one `matrix.Packed` reader, and each pin's
        position and reader, over the zero-padded flat stream."""
        return {}

    @cached_property
    def _erasure_decisions(self) -> dict:
        """`streaming.decode_erasures`' decision memo on erased messages,
        keyed by the message's window of arrivals: None (lost) or its
        recovery delay and pin readers, those of `_erasure_readers`."""
        return {}

    @cached_property
    def _error_decisions(self) -> dict:
        """`streaming.decode_errors`' tables, one `streaming._ErrorTables`
        per error model, shared by every delay."""
        return {}

    def recovery(
        self, avail: int
    ) -> tuple[tuple[tuple[int, ...], ...], dict[int, tuple[int, tuple[int, ...]]]]:
        """What one codeword reveals from its code symbols at the positions
        in the bitmask `avail`, observed as y in ascending position order.
        A known message coordinate i is the systematic symbol at position
        i, observed there.

        Returns (checks, pins): y is consistent with some codeword iff
        c . y == 0 for every row c of checks; pins[i] = (position, row)
        for each coordinate i that y fixes, with u_i == row . y and
        position the smallest observed position whose prefix fixes u_i,
        i itself for an observed systematic symbol.  Nothing is cached
        here: the verifier asks each question once, and the erasure
        decoder keeps the answers in forms of its own.

        Each observation is eliminated once: `matrix._insert` adds it to a
        reduced row echelon basis keyed by pivot coordinate, in ascending
        position order, and the pins are read after each position.  The
        basis after a prefix is the reduced form of that prefix, so u_i is
        pinned exactly when its basis row first reads u_i alone.  A row
        that reduces to zero on the coordinates is a check, and no later
        step touches it, so the checks come in the order of the
        observations that produce them."""
        # Exactly int in [0, 2^n): the sign bits of -1 would observe all.
        if type(avail) is not int or not 0 <= avail < 1 << self.n:
            raise ValueError(f"avail must be an int in [0, 2^{self.n}), got {avail!r}")
        # Every observation is a generator column.  Each row also records
        # which combination of observations it is, so a reduced row reads
        # off as u . (its column part) == (its record) . y.
        k, columns = self.k, self._generator_columns
        obs = [j for j in range(self.n) if avail >> j & 1]
        basis: dict[int, list[int]] = {}
        checks = []
        pins: dict[int, tuple[int, tuple[int, ...]]] = {}
        unpinned = list(range(k))
        for l, j in enumerate(obs):
            row = columns[j] + [0] * len(obs)
            row[k + l] = 1
            if _insert(self.field, basis, row, k) is None:
                checks.append(tuple(row[k:]))
            for i in unpinned:
                pivot_row = basis.get(i)
                if pivot_row is not None and not any(pivot_row[i + 1 : k]):
                    pins[i] = (j, tuple(pivot_row[k:]))
            unpinned = [i for i in unpinned if i not in pins]
        return tuple(checks), pins

    @cached_property
    def _generator_columns(self) -> tuple[list[int], ...]:
        return tuple(list(col) for col in zip(*self.generator.data))

    @cached_property
    def _parity_reader(self) -> Packed:
        """The parity symbols as one `matrix.Packed` reader of the message:
        parity j is the form of column j of P."""
        return Packed(self.field, [form(self.field, col) for col in zip(*self.P.data)])

    def encode(self, u: Sequence[int]) -> tuple[int, ...]:
        if len(u) != self.k:
            raise ValueError(f"message must have {self.k} symbols")
        self.field.check_all(u)
        parities = self._parity_reader
        return tuple(u) + tuple(parities.digits(parities.read(u)))

    def to_descriptor(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "k": self.k,
            "P": self.P.to_lists(),
            "construction": {"kind": "custom"} if self.construction is None else self.construction,
        }

    @staticmethod
    def from_descriptor(d: dict) -> "SystematicCode":
        if not isinstance(d, dict):
            raise ValueError(f"a code descriptor is an object, got {type(d).__name__}")
        missing = [key for key in ("field", "n", "k", "P") if key not in d]
        if missing:
            raise ValueError(f"code descriptor lacks {', '.join(missing)}")
        fld = Field.from_dict(d["field"])
        n, k, p_rows = d["n"], d["k"], d["P"]
        # Exactly int, as in `Field.check`: "5" and JSON true are no lengths.
        if type(n) is not int or type(k) is not int:
            raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
        if not (isinstance(p_rows, list) and all(isinstance(row, list) for row in p_rows)):
            raise ValueError("P must be a list of rows, each a list of field values")
        construction = d.get("construction")
        if "construction" in d and not isinstance(construction, dict):
            raise ValueError(f"construction must be an object, got {type(construction).__name__}")
        return SystematicCode(field=fld, n=n, k=k, P=FieldMatrix(fld, p_rows), construction=construction)


def _systematize(g: FieldMatrix) -> SystematicCode:
    """The code of generator g in systematic form: row-reduce g to
    [I | P], which keeps its row space (and hence the codebook)."""
    k = g.rows
    rows, pivots = _rref(g.field, [list(r) for r in g.data], k)
    if pivots != list(range(k)):
        raise ValueError("leading k x k block is singular")
    return SystematicCode(field=g.field, n=g.cols, k=k, P=FieldMatrix(g.field, [r[k:] for r in rows]))


def build_mds(n: int, k: int, field: Field) -> SystematicCode:
    """[n, k] systematic MDS code from a Vandermonde matrix on the first
    n field elements; requires q >= n so the evaluation points are
    distinct.  Every k columns of the generator are independent, so
    `_systematize` always finds its leading block invertible.

    The degenerate MDS codes, repetition (k = 1) and single parity
    (k = n-1), exist over every field and are emitted directly when the
    field is too small for the Vandermonde route."""
    _check_ints(n=n, k=k)
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    if field.q < n:
        if k == 1:
            p = FieldMatrix(field, [[1] * (n - 1)])
            return SystematicCode(field=field, n=n, k=1, P=p, construction={"kind": "mds", "n": n, "k": 1})
        if k == n - 1:
            p = FieldMatrix(field, [[1]] * k)
            return SystematicCode(field=field, n=n, k=k, P=p, construction={"kind": "mds", "n": n, "k": k})
        raise ValueError(f"field of order {field.q} too small for length {n} (need q >= n)")
    vand = FieldMatrix(field, [[field.pow(x, i) for x in range(n)] for i in range(k)])
    return replace(_systematize(vand), construction={"kind": "mds", "n": n, "k": k})


def build_multi_burst(k: int, z: int, b: int, field: Field) -> SystematicCode:
    """[k+zb, k] systematic code, delay-tau* decodable for every
    (z,b)-burst, built as a depth-b interleaving of a [k/b + z, k/b] MDS
    code.  Requires b | k and q >= k/b + z.  Code symbol j*b + r belongs
    to interleaved component r."""
    _check_ints(k=k, z=z, b=b)
    if k < 1 or z < 1 or b < 1:
        raise ValueError("k, z, b must be positive")
    if k % b != 0:
        raise ValueError(f"b must divide k for this construction (got k={k}, b={b})")
    kb = k // b
    if field.q < kb + z:
        raise ValueError(f"field of order {field.q} too small (need q >= k/b + z = {kb + z})")
    inner = build_mds(kb + z, kb, field)
    n = k + z * b
    p_rows = [[0] * (z * b) for _ in range(k)]
    for r in range(b):
        for j in range(kb):
            for s in range(z):
                p_rows[j * b + r][s * b + r] = inner.P[j, s]
    return SystematicCode(
        field=field,
        n=n,
        k=k,
        P=FieldMatrix(field, p_rows),
        construction={"kind": "multi_burst", "k": k, "z": z, "b": b},
    )


def _as_support(pattern: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(pattern)))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: tuple[tuple[int, ...], int] | None

    def __bool__(self) -> bool:
        return self.ok


def _check_range(support: tuple[int, ...], n: int) -> tuple[int, ...]:
    # Exactly int: True would stand for 1, and 1.0 fail in a shift.
    if not {*map(type, support)} <= {int}:
        raise ValueError(f"pattern support {support} must hold ints")
    if support and not 0 <= support[0] <= support[-1] < n:
        raise ValueError(f"pattern support {support} out of range for length {n}")
    return support


def _first_miss(code: SystematicCode, tau: int, patterns: Iterable) -> VerifyResult:
    """Fails at the first (support, i), in sorted support order and then
    ascending i, whose erased message symbol u_i is not fixed by the
    unerased positions up to its deadline min(i + tau, n-1)."""
    n, k = code.n, code.k
    for support in sorted({_as_support(p) for p in patterns}):
        erased = [i for i in _check_range(support, n) if i < k]
        if not erased:
            continue
        _, pins = code.recovery((1 << n) - 1 - sum(1 << j for j in support))
        for i in erased:
            # no pin position exceeds n-1, so i + tau stands for the deadline
            if i not in pins or pins[i][0] > i + tau:
                return VerifyResult(False, (support, i))
    return VerifyResult(True, None)


def verify_delay_decodable(code: SystematicCode, tau: int, patterns: Iterable) -> VerifyResult:
    """Exact decodability check for a set of erasure patterns.

    True iff for every pattern and every erased message position i, the
    unerased positions up to min(i + tau, n-1) fix u_i.  On failure the
    lexicographically smallest failing (support, i) pair is returned.
    Each pattern is a support, an iterable of erased positions, and is
    normalized to a sorted tuple before checking.
    """
    _check_int("tau", tau)
    if not code.k <= tau <= code.n - 1:
        raise ValueError(f"tau must satisfy k <= tau <= n-1, got {tau}")
    return _first_miss(code, tau, patterns)


def verify_delay_decodable_general(g: FieldMatrix, tau: int, patterns: Iterable) -> VerifyResult:
    """Decodability check for a generator g whose leading k x k block is
    invertible, at any delay tau: erased code symbol i < k must be fixed
    by the unerased positions up to min(i + tau, n-1).

    The systematic form of g has the same codebook and carries code
    symbol i as its message coordinate i, so this is
    `verify_delay_decodable` on that form without its tau range.  For
    causal codes (upper-triangular leading block) the verdict and the
    counterexample are also those of the causal message symbols: u_i
    depends only on code symbols 0..i and vice versa, and the deadlines
    grow with i.
    """
    _check_int("tau", tau)
    return _first_miss(_systematize(g), tau, patterns)


def check_full_rank_property(code: SystematicCode, z: int, b: int) -> bool:
    """Every b x b submatrix H([lb:(l+1)b-1], [j:j+b-1]) of the parity
    matrix has rank b, for l in [0, z-1] and j in [0, k-b].  A necessary
    property of any [k+zb, k] systematic code that recovers every
    (z,b)-burst."""
    _check_ints(z=z, b=b)
    n, k = code.n, code.k
    if n != k + z * b:
        raise ValueError(f"expected n = k + z*b, got n={n}, k={k}, z={z}, b={b}")
    h = code.parity
    for l in range(z):
        rows = range(l * b, (l + 1) * b)
        for j in range(k - b + 1):
            sub = h.submatrix(rows, range(j, j + b))
            if rank(sub) != b:
                return False
    return True


@dataclass(frozen=True)
class WindowPropertyReport:
    """Outcome of the 2 x mb window-rank property check."""

    p1: bool
    p2: bool
    p3: bool
    p4: bool
    conclusion_holds: bool

    @property
    def premises_hold(self) -> bool:
        return self.p1 and self.p2 and self.p3 and self.p4


def check_window_rank_properties(a: FieldMatrix, b: int, m: int) -> WindowPropertyReport:
    """Evaluate the four window-rank properties of a 2 x (m*b) matrix and
    whether both entries of its last column are nonzero.

    P1: both rows start with b-1 zeros.
    P2: no row contains b consecutive zeros.
    P3: every width-b column window starting in [b-1, (m-1)b] has rank 1.
    P4: every width-2b column window starting in [0, (m-2)b] has rank 2.
    Whenever P1-P4 all hold, the last column has no zero entry.
    """
    _check_ints(b=b, m=m)
    if b < 2 or m < 2:
        raise ValueError("need b >= 2 and m >= 2")
    if a.rows != 2 or a.cols != m * b:
        raise ValueError(f"matrix must be 2x{m * b}")
    p1 = all(a[i, j] == 0 for i in (0, 1) for j in range(b - 1))
    p2 = True
    for i in (0, 1):
        run = 0
        for j in range(m * b):
            run = run + 1 if a[i, j] == 0 else 0
            if run >= b:
                p2 = False
                break
    p3 = all(
        rank(a.submatrix((0, 1), range(j, j + b))) == 1
        for j in range(b - 1, (m - 1) * b + 1)
    )
    p4 = all(
        rank(a.submatrix((0, 1), range(j, j + 2 * b))) == 2
        for j in range(0, (m - 2) * b + 1)
    )
    conclusion = a[0, m * b - 1] != 0 and a[1, m * b - 1] != 0
    return WindowPropertyReport(p1=p1, p2=p2, p3=p3, p4=p4, conclusion_holds=conclusion)
