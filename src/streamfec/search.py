"""Brute-force oracles: exhaustive search over systematic code spaces,
and an independent codeword-consistency decodability check, an oracle
for the analytic verifier.

The search covers every k x (n-k) coefficient matrix over the field in
row-major lexicographic order, depth-first over the k rows, against the
full (z, b)-burst family distilled into span checks.  Each check is
evaluated at the deepest row it reads, with `matrix._insert` on the rows
projected onto its coordinates, and a check that fails on a prefix of
rows fails for every completion of it, so the integer cursor skips the
prefix's whole subtree.  Every candidate the cursor passes is covered;
the first survivor is the lexicographically first witness, and it is
re-checked with the reference verifier before it is reported, on the
family's maximal supports (`_maximal_supports`).  That re-check is
exact: erasing fewer positions leaves every remaining erased symbol's
pin no later, so a code that recovers a support within the delay
recovers every subset of it, and each dropped support lies inside a
kept one.

A check is dropped when another of its target row and depth, on a
subset of its coords and with a superset of its other rows, fails
wherever it does: every verdict, and so the traversal, stays the same.
A check's verdict depends only on the projected rows it reads, so each
check keeps a memo of its verdicts for one scan, keyed by those digits:
the elimination runs once per distinct projection, not once per node
(up to `_VERDICT_CAP` verdicts held, then every memo is cleared).  The
cursor steps as an odometer over the digits of the index: moving past a
node adds 1 to its row's last digit, moving past a run of siblings adds
1 to the last digit they share, and either carries upward; the scan
resumes at the shallowest row that changed.

Over q > 2 the scan also skips nodes by symmetries of the code space
that keep every verdict.  Scaling a parity column by a nonzero constant
applies an invertible diagonal map to every projected row; scaling a
coefficient row multiplies one projected row by a nonzero constant, and
[I | D_r P] is [I | P] with systematic coordinates scaled.  Over
GF(2^m) the field automorphism x -> x^2, applied to every entry of P,
maps each projection to one of the same rank.  None of the three
changes a span test, so each keeps every check's verdict and the
reference verifier's.  A node is skipped when its new row is not
column-normalized or not row-normalized, or when rows above it are
fixed by x -> x^2 and its row is not the least of itself and its
image, and only when the image's subtree starts at or after the resume
cursor.  Later siblings skipped by the same rule form a run, passed in
one move where the least image in the run starts at or after the
cursor.  Each skip thus maps a candidate W to one judged alike in
[start, W), so the rules compose: the first survivor is never skipped,
and a resumed scan returns the first witness at or after its start,
exactly as the scan without them does, with the same cursors.
"""

from __future__ import annotations

import sys
from itertools import product
from typing import Callable, Sequence

from .block_code import SystematicCode, VerifyResult, _as_support, _check_range, verify_delay_decodable
from .channel import _check_int, _check_ints, burst_supports
from .galois import Field
from .matrix import FieldMatrix, _digits_of, _insert

_CODEBOOK_GUARD = 1 << 20
_SEARCH_GUARD = 1 << 24
# `_scan`'s verdict memos hold at most this many verdicts together, and
# are all cleared when full; its memo of row twins holds at most as many.
# An entry is an int key and its dict slot: about 70 B for the 64-bit
# keys of [12,8] over GF(4), so full memos of such keys hold about 18 MiB.
_VERDICT_CAP = 1 << 18


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
    suffices that every codeword vanishing there has u_i = 0.  A non-int
    tau, or a support point that is not an int in [0, n-1], raises ValueError.
    """
    _check_int("tau", tau)
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


# -- exhaustive code-space search -----------------------------------------


def _build_checks(n: int, k: int, tau: int, supports: Sequence[tuple[int, ...]]):
    """Distill the burst family into the span checks no other dominates.

    Each check is (target_row, coords, other_rows): candidate coefficient
    rows projected onto `coords` must keep the target row outside the
    span of the other rows.  The projection folds away the parity
    columns, whose punctured-parity columns are unit vectors.  A check
    meets its dominators first in the sort below, and dominance is
    transitive, so the kept checks decide whether it is dropped.
    """
    r, rest = n - k, (1 << k) - 1
    reads = [(1 << min(tau - k + i + 1, r)) - 1 for i in range(k)]
    # (i, depth, mask), first seen first.  The mask holds the coords in
    # bits 0..r-1 and the unerased messages above them, so a check dominates
    # another of its (i, depth) iff its mask lies within the other's.
    found = {}
    for support in supports:
        erased = sum(1 << j for j in support)
        msgs, parity = erased & rest, erased >> k
        for i in support:
            if i < k:
                found[i, msgs.bit_length() - 1, reads[i] & ~parity | (rest ^ msgs) << r] = None
    groups: dict[tuple[int, int], list[int]] = {}
    for i, depth, mask in sorted(found, key=lambda c: (c[0], c[1], c[2].bit_count())):
        group = groups.setdefault((i, depth), [])
        if all(kept & ~mask for kept in group):
            group.append(mask)
            coords = tuple(c for c in range(r) if mask >> c & 1)
            found[i, depth, mask] = (i, coords, tuple(j for j in range(k) if j != i and not mask >> r + j & 1))
    checks = [check for check in found.values() if check]
    # Most-constrained first: small projections with many helper rows
    # reject random candidates fastest.  The scan keeps this order among
    # the checks it evaluates at each depth.
    checks.sort(key=lambda c: (len(c[1]) - len(c[2]), len(c[1]), c[0]))
    return checks


def _fails(field: Field, rows: list, check) -> bool:
    """True iff the candidate rows fail the check: row i, projected onto
    the check's coords, lies in the span of the projected msg_js rows."""
    i, coords, msg_js = check
    width = len(coords)
    target = [rows[i][c] for c in coords]
    if not any(target):
        return True
    basis: dict[int, list[int]] = {}
    for j in msg_js:
        _insert(field, basis, [rows[j][c] for c in coords], width)
    return _insert(field, basis, target, width) is None


def _twins(field: Field, row: list[int], state: int, weights: list[int]) -> tuple[tuple, int]:
    """The symmetry rules at a node whose row is `row`, under `state`:
    bit c + 1 set for each fresh column c (zero in the rows above), and
    bit 0 while the Frobenius map fixes the rows above.  Returns (plan,
    the state below the node).  The plan holds (col, least, image), by
    col, for each rule that maps the node to an earlier sibling: the
    rule's run is the node and every later sibling that keeps the row's
    first col digits, `image` is the value of the node's image row, and
    `least` that of the least image of a node in the run: the row's
    digits before the image's first changed digit, that digit of the
    image, then zeros."""
    q = field.q
    value = excess = 0
    nonzero = 1  # the state's Frobenius bit, set again below
    lead = scaled = None
    for c, (x, w) in enumerate(zip(row, weights)):
        if x:
            value += x * w
            nonzero |= 2 << c
            if lead is None:
                lead = c
            if x > 1 and state >> c + 1 & 1:
                if scaled is None:
                    scaled = c
                excess += (x - 1) * w
    plan = []
    # Columns: scale each fresh column whose digit is above 1 to 1.
    if scaled is not None:
        w = weights[scaled]
        plan.append((scaled, value - value % (q * w) + w, value - excess))
    # Rows: divide by the leading nonzero digit when it is above 1.
    if lead is not None and row[lead] > 1:
        inverse = field.times(field.inv(row[lead]))
        plan.append((lead, weights[lead], sum(inverse[x] * w for x, w in zip(row, weights))))
    # Frobenius: x -> x^p on every digit, while it fixes the rows above.
    fixed = state & 1
    if fixed:
        phi = field.frobenius()
        for c, x in enumerate(row):
            if phi[x] != x:
                fixed = 0
                if phi[x] < x:
                    w = weights[c]
                    image = sum(phi[y] * v for y, v in zip(row, weights))
                    plan.append((c + 1, value - value % (q * w) + phi[x] * w, image))
                break
    plan.sort()
    return tuple(plan), state & ~nonzero | fixed


def _resumed_col(plan: tuple, gap: int, size: int, r: int) -> int | None:
    """A resumed scan's move at a node whose parent subtree starts `gap`
    before the start, with subtrees of `size`: the run column of the
    first rule whose least image starts at or after the start, else r
    (one sibling) if some rule's image does, else None (scan the node)."""
    for col, least, _ in plan:
        if least * size >= gap:
            return col
    if any(image * size >= gap for _, _, image in plan):
        return r
    return None


def _scan(field: Field, k: int, r: int, checks, start: int, stop: int, progress=None) -> int | None:
    """First surviving candidate index in [start, stop), or None.

    Depth-first over the k coefficient rows, in row-major lexicographic
    order: the node at depth d fixes rows 0..d, and each check is
    evaluated at the deepest row it reads.  A check that fails there
    fails for every completion of the prefix, so the cursor moves past
    the node's whole subtree, clipped to stop.  `progress` receives every
    multiple of 2^16 the cursor reaches, in order.

    The cursor is an odometer over the k*r base-q digits of the index,
    kept both as `rows` (each row's digits) and as `packed` (every digit
    in its own field of `width` bits, so `packed` is the index itself
    when q is a power of 2).  A move zeroes the digits below one digit
    and adds 1 to it, carrying upward: row d's last digit to move past
    one node at depth d.  The next node is at the shallowest row that
    changed.

    A check's verdict depends only on the digits it reads: row i and the
    msg_js rows at its coords.  `packed` masked to those digits is its
    key in the check's own memo of verdicts, so `_fails` eliminates each
    distinct projection once per scan.  The memos live for this call
    only; together they hold at most `_VERDICT_CAP` verdicts, and all are
    cleared when full.

    For q > 2 the cursor also moves past a node that a symmetry maps
    into an earlier sibling v' judged alike, by three rules (`_twins`).
    Columns: the fresh columns at depth d are those zero in rows
    0..d-1, and v' is the node's row with every fresh digit above 1 set
    to 1; scaling those columns maps each candidate W below the node to
    one below v'.  Rows: when the row's leading nonzero digit a is above
    1, v' = a^-1 * row; scaling row d maps W to one below v'.
    Frobenius: over GF(2^m), while x -> x^2 fixes rows 0..d-1 and maps
    row d to a lexicographically smaller v', it maps W to one below v'.
    Each rule maps alike every later sibling that keeps the row's digits
    before its first fresh digit above 1 (columns), before its leading
    digit (rows), or up to the first digit the map lowers (Frobenius),
    so the cursor passes that run in one move: it adds 1 to the last
    digit the run keeps, or to row d-1's last digit when it keeps none.
    The rules depend only on the row, on which columns are fresh and on
    whether rows 0..d-1 are fixed, so `_twins`' answer is memoised under
    those for this call (at most `_VERDICT_CAP` held, then cleared).

    Every check, and the reference verifier, judge W and its image
    alike.  So when the least image in the run has its subtree at or
    after `start`, the run is skipped; otherwise (a resumed scan whose
    cursor passed it) only the node, if its own image's subtree starts
    at or after `start`; otherwise the node is scanned.  A skipped W
    thus always has an image judged alike in [start, W), which may be
    skipped in turn by any rule, but not forever, so the three rules
    compose: the first survivor, and with it every cursor, is the one
    the scan without them finds."""
    q, base = field.q, field.q**r
    top = q - 1
    width = top.bit_length()
    # bit offset of row d's last digit in `packed`
    offsets = [width * r * (k - 1 - d) for d in range(k)]
    digit = (1 << width) - 1
    at_depth: list[list] = [[] for _ in range(k)]
    for check in checks:
        i, coords, msg_js = check
        mask = 0
        for j in (i, *msg_js):
            for c in coords:
                mask |= digit << offsets[j] + width * (r - 1 - c)
        at_depth[max((i, *msg_js))].append((check, mask, {}))
    memos = [memo for checks_at in at_depth for _, _, memo in checks_at]
    held = 0
    sizes = [base ** (k - 1 - d) for d in range(k)]
    weights = [q ** (r - 1 - c) for c in range(r)]
    # spans[col] * sizes[d]: the candidates under row d's first col digits
    spans = [q ** (r - col) for col in range(r + 1)]
    rows = [_digits_of(value, q, r) for value in _digits_of(start, base, k)]
    packed = 0
    for row in rows:
        for x in row:
            packed = packed << width | x
    # GF(2) has nothing to scale, and its Frobenius map is the identity.
    scaled = q > 2
    # states[d]: `_twins`' state for rows[:d]; every column is fresh at
    # depth 0, and the Frobenius rule is on unless the map is the identity.
    phi = field.frobenius()
    twisted = any(phi[x] != x for x in range(q))
    states = [(1 << r + 1) - 2 | twisted] * (k + 1)
    twins: dict[int, tuple[tuple, int]] = {}
    row_bits = (1 << width * r) - 1
    idx, depth = start, 0
    # Invariant: every check at a depth below `depth` passes on rows[:depth],
    # and states[:depth + 1] belongs to rows[:depth].
    while idx < stop:
        for d in range(depth, k):
            if scaled:
                key = (packed >> offsets[d] & row_bits) << r + 1 | states[d]
                twin = twins.get(key)
                if twin is None:
                    if len(twins) >= _VERDICT_CAP:
                        twins.clear()
                    twin = twins[key] = _twins(field, rows[d], states[d], weights)
                plan, states[d + 1] = twin
                if plan:
                    size = sizes[d]
                    gap = start - (idx - idx % (size * base))
                    col = plan[0][0] if gap <= 0 else _resumed_col(plan, gap, size, r)
                    if col is not None:
                        size *= spans[col]
                        bit = offsets[d] + width * (r - col)
                        d, c = (d, col - 1) if col else (d - 1, r - 1)
                        break
            for check, mask, memo in at_depth[d]:
                key = packed & mask
                verdict = memo.get(key)
                if verdict is None:
                    if held >= _VERDICT_CAP:
                        for full in memos:
                            full.clear()
                        held = 0
                    verdict = memo[key] = _fails(field, rows, check)
                    held += 1
                if verdict:
                    break
            else:
                continue  # every check passes: go one row deeper
            # a check fails: move past the subtree
            size, bit, c = sizes[d], offsets[d], r - 1
            break
        else:
            return idx
        # Move past [idx, nxt): add 1 to row d's digit c, at `bit`.
        nxt = min(idx - idx % size + size, stop)
        if progress is not None:
            for cursor in range(idx - idx % 65536 + 65536, nxt + 1, 65536):
                progress(cursor)
        idx = nxt
        if idx < stop:
            below = packed & (1 << bit) - 1
            if below:  # a run, or a resumed scan inside a subtree
                packed -= below
                rows[d][c + 1 :] = [0] * (r - 1 - c)
                for e in range(d + 1, k):
                    rows[e] = [0] * r
            while rows[d][c] == top:
                rows[d][c] = 0
                packed -= top << bit
                bit += width
                if c:
                    c -= 1
                else:
                    d, c = d - 1, r - 1
            rows[d][c] += 1
            packed += 1 << bit
            depth = d
    return None


def _maximal_supports(n: int, supports: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The supports, in their given order, that have no one-point
    extension in the family.  Every dropped support has one, which is
    either kept or has one in turn, so each dropped support lies inside
    a kept one.  For a family closed under taking subsets, such as a
    burst family, a support with a strict superset in it also has a
    one-point extension in it, so these are exactly its maximal
    supports."""
    masks = [sum(1 << j for j in support) for support in supports]
    family = set(masks)
    return [
        support
        for support, mask in zip(supports, masks)
        if not any((mask | 1 << j) in family for j in range(n) if not mask >> j & 1)
    ]


def _code_at(field: Field, n: int, k: int, index: int) -> SystematicCode:
    r = n - k
    digits = _digits_of(index, field.q**r, k)
    p = FieldMatrix(field, [_digits_of(d, field.q, r) for d in digits])
    return SystematicCode(field=field, n=n, k=k, P=p)


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
    `start` is a resume cursor into the same enumeration: the result is
    the first witness at or after it.  The kernel's survivor is
    re-checked by the reference verifier on the family's maximal
    supports, which decides the whole family: a code that recovers a
    support within the delay recovers every subset of it, since erasing
    fewer positions never delays a pin.  A disagreement raises
    RuntimeError.  The scan runs in this process: `jobs` stays for
    callers that pass jobs=1, and accepts nothing else.
    """
    _check_ints(n=n, k=k, z=z, b=b, tau=tau, start=start)
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
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
    if jobs != 1:
        raise ValueError(f"the search runs in one process: jobs must be 1, got {jobs}")
    supports = burst_supports(n, z, b)
    checks = _build_checks(n, k, tau, supports)
    survivor = _scan(field, k, r, checks, start, total, progress)
    if survivor is None:
        return {"found": False, "witness": None, "candidates_checked": total - start, "total": total}
    code = _code_at(field, n, k, survivor)
    confirmed: VerifyResult = verify_delay_decodable(code, tau, _maximal_supports(n, supports))
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
