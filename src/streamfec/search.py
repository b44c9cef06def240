"""Brute-force oracles: exhaustive search over systematic code spaces,
and an independent codeword-consistency decodability check used to
cross-validate the analytic verifier.

The search enumerates every k x (n-k) coefficient matrix over the field
in row-major lexicographic order and tests each candidate against the
full (z, b)-burst family.  A tight per-field kernel evaluates the
recoverability criterion directly on projected coefficient rows; any
candidate that survives the kernel is re-checked with the reference
verifier before being reported as a witness.  Check order adapts as the
scan runs (a killing check bubbles toward the front), which changes
nothing about the outcome: a candidate is a witness iff it passes every
check.
"""

from __future__ import annotations

import sys
from itertools import product
from typing import Callable, Iterable, Sequence

from .block_code import SystematicCode, VerifyResult, _as_support, _check_range, verify_delay_decodable
from .channel import burst_supports
from .galois import Field
from .matrix import FieldMatrix

_CODEBOOK_GUARD = 1 << 20
_SEARCH_GUARD = 1 << 24


def enumerate_codebook(code: SystematicCode) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (message, codeword) pairs; guarded to q^k <= 2^20."""
    q, k = code.field.q, code.k
    if q**k > _CODEBOOK_GUARD:
        raise ValueError(f"codebook of size {q}^{k} exceeds the enumeration guard")
    out = []
    for u in product(range(q), repeat=k):
        out.append((u, code.encode(u)))
    return out


def brute_force_decodable(
    code: SystematicCode,
    tau: int,
    pattern,
    codebook: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None,
) -> bool:
    """Decodability by direct codebook enumeration.

    Erased message symbol i is recoverable within delay tau iff every
    codeword that agrees with the transmitted one on the non-erased
    positions up to min(i+tau, n-1) agrees on u_i; by linearity it
    suffices that every codeword vanishing there has u_i = 0.  A support
    outside [0, n-1] raises ValueError, as in the verifier.
    """
    n, k = code.n, code.k
    support = set(_check_range(_as_support(pattern), n))
    if codebook is None:
        codebook = enumerate_codebook(code)
    for i in sorted(support):
        if i >= k:
            continue
        m = min(i + tau, n - 1)
        keep = [pos for pos in range(m + 1) if pos not in support]
        for u, cw in codebook:
            if u[i] != 0 and all(cw[pos] == 0 for pos in keep):
                return False
    return True


def cross_validate(code: SystematicCode, tau: int, patterns: Iterable, codebook=None) -> bool:
    """True iff the analytic verifier and the codebook oracle agree on
    every pattern."""
    if codebook is None:
        codebook = enumerate_codebook(code)
    for p in patterns:
        support = _as_support(p)
        analytic = verify_delay_decodable(code, tau, [support]).ok
        brute = brute_force_decodable(code, tau, support, codebook)
        if analytic != brute:
            return False
    return True


# -- exhaustive code-space search -----------------------------------------


def _build_checks(n: int, k: int, tau: int, supports: Sequence[tuple[int, ...]]):
    """Distill the burst family into deduplicated recoverability checks.

    Each check is (target_row, coords, other_rows): candidate coefficient
    rows projected onto `coords` must keep the target row outside the
    span of the other rows.  The projection folds away the parity
    columns, whose punctured-parity columns are unit vectors.
    """
    r = n - k
    seen = set()
    checks = []
    for support in supports:
        for i in support:
            if i >= k:
                continue
            row_limit = (tau - k + i + 1) if i <= n - tau - 2 else r
            limit = tau + i
            pivots = set()
            msg_js = []
            for j in support:
                if j == i or j > limit:
                    continue
                if j >= k:
                    rr = j - k
                    if rr < row_limit:
                        pivots.add(rr)
                else:
                    msg_js.append(j)
            coords = tuple(rr for rr in range(row_limit) if rr not in pivots)
            key = (i, coords, tuple(sorted(msg_js)))
            if key not in seen:
                seen.add(key)
                checks.append(key)
    # Most-constrained first: small projections with few helper columns
    # reject random candidates fastest; the scan adapts from there.
    checks.sort(key=lambda c: (len(c[1]) - len(c[2]), len(c[1]), c[0]))
    return checks


def _row_space(field: Field, r: int) -> list[tuple[int, ...]]:
    return list(product(range(field.q), repeat=r))


def _scan_gf2(checks, rows, r, k, start, stop, digits, progress=None):
    """Kernel over GF(2): projected rows are bitmasks, span tests are
    xor eliminations.  Returns (survivor_index | None, next_index)."""
    tables = []
    for i, coords, msg_js in checks:
        tbl = [sum(vec[c] << pos for pos, c in enumerate(coords)) for vec in rows]
        tables.append([tbl, i, tuple(msg_js)])
    idx = start
    while idx < stop:
        killed = False
        for ci, (tbl, tj, ojs) in enumerate(tables):
            t = tbl[digits[tj]]
            if t:
                piv = {}
                for j in ojs:
                    v = tbl[digits[j]]
                    while v:
                        h = v.bit_length()
                        pv = piv.get(h)
                        if pv is None:
                            piv[h] = v
                            break
                        v ^= pv
                while t:
                    pv = piv.get(t.bit_length())
                    if pv is None:
                        break
                    t ^= pv
            if not t:
                killed = True
                if ci:
                    tables[ci - 1], tables[ci] = tables[ci], tables[ci - 1]
                break
        if not killed:
            return idx, idx + 1
        idx += 1
        if progress is not None and not idx % 65536:
            progress(idx)
        for pos in range(k - 1, -1, -1):
            d = digits[pos] + 1
            if d == len(rows):
                digits[pos] = 0
            else:
                digits[pos] = d
                break
    return None, stop


def _scan_generic(field, checks, rows, r, k, start, stop, digits, progress=None):
    """Kernel over any small field: projected rows are tuples, span tests
    are Gaussian eliminations using precomputed op tables."""
    q = field.q
    mul = [[field.mul(a, b) for b in range(q)] for a in range(q)]
    sub = [[field.sub(a, b) for b in range(q)] for a in range(q)]
    inv = [0] + [field.inv(a) for a in range(1, q)]
    tables = []
    for i, coords, msg_js in checks:
        tbl = [tuple(vec[c] for c in coords) for vec in rows]
        tables.append([tbl, i, tuple(msg_js), len(coords)])
    idx = start
    while idx < stop:
        killed = False
        for ci, (tbl, tj, ojs, nc) in enumerate(tables):
            t = tbl[digits[tj]]
            if any(t):
                piv: list[tuple[int, ...] | None] = [None] * nc
                for j in ojs:
                    v = tbl[digits[j]]
                    for h in range(nc):
                        vh = v[h]
                        if vh:
                            pv = piv[h]
                            if pv is None:
                                iv = inv[vh]
                                piv[h] = tuple(mul[iv][x] for x in v)
                                break
                            mrow = mul[vh]
                            v = tuple(sub[a][mrow[b]] for a, b in zip(v, pv))
                inspan = True
                for h in range(nc):
                    th = t[h]
                    if th:
                        pv = piv[h]
                        if pv is None:
                            inspan = False
                            break
                        mrow = mul[th]
                        t = tuple(sub[a][mrow[b]] for a, b in zip(t, pv))
                if not inspan:
                    continue
            killed = True
            if ci:
                tables[ci - 1], tables[ci] = tables[ci], tables[ci - 1]
            break
        if not killed:
            return idx, idx + 1
        idx += 1
        if progress is not None and not idx % 65536:
            progress(idx)
        for pos in range(k - 1, -1, -1):
            d = digits[pos] + 1
            if d == len(rows):
                digits[pos] = 0
            else:
                digits[pos] = d
                break
    return None, stop


def _digits_of(index: int, base: int, k: int) -> list[int]:
    digits = [0] * k
    for pos in range(k - 1, -1, -1):
        index, digits[pos] = divmod(index, base)
    return digits


def _code_from_digits(field: Field, n: int, k: int, rows, digits) -> SystematicCode:
    p = FieldMatrix(field, [rows[d] for d in digits])
    return SystematicCode(field=field, n=n, k=k, P=p)


def _scan_range(
    field: Field, n: int, k: int, tau: int, checks, start: int, stop: int, progress=None
) -> int | None:
    """First surviving candidate index in [start, stop), or None."""
    r = n - k
    rows = _row_space(field, r)
    digits = _digits_of(start, len(rows), k)
    if field.q == 2:
        survivor, _ = _scan_gf2(checks, rows, r, k, start, stop, digits, progress)
    else:
        survivor, _ = _scan_generic(field, checks, rows, r, k, start, stop, digits, progress)
    return survivor


def _scan_task(args) -> int | None:
    field_dict, n, k, tau, z, b, start, stop = args
    field = Field.from_dict(field_dict)
    checks = _build_checks(n, k, tau, burst_supports(n, z, b))
    return _scan_range(field, n, k, tau, checks, start, stop)


def search_nonexistence(
    n: int,
    k: int,
    z: int,
    b: int,
    tau: int,
    field: Field,
    *,
    guard: int = _SEARCH_GUARD,
    start: int = 0,
    jobs: int = 1,
    progress: Callable[[int], None] | None = None,
) -> dict:
    """Exhaust every [n, k] systematic code over the field against the
    full (z, b)-burst family at delay tau.

    Returns {"found", "witness", "candidates_checked", "total"}.  When a
    code exists, the witness is the candidate whose coefficient matrix
    is row-major lexicographically first, its index determining
    candidates_checked; when none exists, candidates_checked == total.
    `start` is a resume cursor into the same enumeration.
    """
    if n != k + z * b:
        raise ValueError(f"expected n = k + z*b, got n={n}, k={k}, z={z}, b={b}")
    if not k <= tau <= n - 1:
        raise ValueError(f"tau must satisfy k <= tau <= n-1, got {tau}")
    r = n - k
    total = field.q ** (k * r)
    if total > guard:
        raise ValueError(f"candidate space of size {field.q}^{k * r} exceeds the guard {guard}")
    if not 0 <= start <= total:
        raise ValueError(f"resume cursor {start} outside the candidate space [0, {total}]")
    supports = burst_supports(n, z, b)
    checks = _build_checks(n, k, tau, supports)
    rows = _row_space(field, r)

    survivor: int | None = None
    if jobs <= 1:
        survivor = _scan_range(field, n, k, tau, checks, start, total, progress)
    else:
        from concurrent.futures import ProcessPoolExecutor

        span = total - start
        chunk = (span + jobs - 1) // jobs
        tasks = []
        for w in range(jobs):
            lo = start + w * chunk
            hi = min(start + (w + 1) * chunk, total)
            if lo < hi:
                tasks.append((field.to_dict(), n, k, tau, z, b, lo, hi))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            found = [s for s in pool.map(_scan_task, tasks) if s is not None]
        survivor = min(found) if found else None

    if survivor is None:
        return {"found": False, "witness": None, "candidates_checked": total - start, "total": total}
    code = _code_from_digits(field, n, k, rows, _digits_of(survivor, len(rows), k))
    confirmed: VerifyResult = verify_delay_decodable(code, tau, supports)
    if not confirmed.ok:
        raise RuntimeError(f"kernel survivor {survivor} fails the reference verifier at {confirmed.counterexample}")
    return {
        "found": True,
        "witness": code,
        "candidates_checked": survivor + 1 - start,
        "total": total,
    }


def progress_to_stderr(label: str) -> Callable[[int], None]:
    def emit(idx: int) -> None:
        print(f"{label}: cursor {idx}", file=sys.stderr, flush=True)

    return emit
