import random
from itertools import combinations, product

import pytest

from streamfec import search
from streamfec.block_code import SystematicCode, VerifyResult, build_mds, build_multi_burst, verify_delay_decodable
from streamfec.bounds import delay_tau_star
from streamfec.channel import burst_supports
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix, _digits_of, rank
from streamfec.search import (
    brute_force_decodable,
    enumerate_codebook,
    search_nonexistence,
)

F2, F3, F8 = GF(2), GF(3), GF(8)


def _flat_scan(field, n, k, checks, start, stop):
    """Independent oracle for the search kernel: every candidate in
    [start, stop), in index order, against every check by rank, with no
    pruning.  Returns (first survivor or None, the multiples of 2^16 the
    cursor reaches)."""

    def fails(p, check):
        i, coords, msg_js = check
        others = [[p[j][c] for c in coords] for j in msg_js]
        target = [p[i][c] for c in coords]
        return rank(FieldMatrix(field, others + [target])) == rank(FieldMatrix(field, others))

    rows = list(product(range(field.q), repeat=n - k))
    ticks = []
    for idx in range(start, stop):
        if idx > start and idx % 65536 == 0:
            ticks.append(idx)
        digits, rest = [], idx
        for _ in range(k):
            rest, d = divmod(rest, len(rows))
            digits.insert(0, d)
        p = [rows[d] for d in digits]
        if not any(fails(p, check) for check in checks):
            return idx, ticks
    if stop > start and stop % 65536 == 0:
        ticks.append(stop)
    return None, ticks


def test_brute_force_trivial_cases():
    code = build_mds(5, 3, F8)
    assert brute_force_decodable(code, 4, ())
    single_parity = SystematicCode(field=F2, n=3, k=2, P=FieldMatrix(F2, [[1], [1]]))
    assert not brute_force_decodable(single_parity, 2, (0, 1))
    assert brute_force_decodable(single_parity, 2, (0,))


def test_brute_force_matches_verifier_on_mds():
    code = build_mds(5, 3, F8)
    codebook = enumerate_codebook(code)
    for r in range(4):
        for support in combinations(range(5), r):
            assert brute_force_decodable(code, 4, support, codebook) == (r <= 2)


def test_oracle_rejects_supports_out_of_range():
    # the oracle must not read u[-1] or ignore position 9 of a [5,3] code
    code = build_mds(5, 3, F8)
    for support in ((-1,), (9,), (0, 5)):
        with pytest.raises(ValueError):
            brute_force_decodable(code, 4, support)
        with pytest.raises(ValueError):
            verify_delay_decodable(code, 4, [support])


def test_codebook_guard():
    code = build_mds(8, 5, GF(256))
    with pytest.raises(ValueError):
        enumerate_codebook(code)


def test_cross_validate_agreement():
    # the analytic verifier against the codebook oracle, one support at a time
    cases = [
        (build_mds(5, 3, F8), 4, [s for r in range(4) for s in combinations(range(5), r)]),
        (build_multi_burst(4, 2, 2, F8), 6, burst_supports(8, 2, 2)),
    ]
    rng = random.Random(29)
    fam = burst_supports(7, 2, 2)
    for _ in range(20):
        p = FieldMatrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(3)])
        cases.append((SystematicCode(field=F2, n=7, k=3, P=p), 5, fam))
    for code, tau, supports in cases:
        book = enumerate_codebook(code)
        for support in supports:
            want = brute_force_decodable(code, tau, support, book)
            assert verify_delay_decodable(code, tau, [support]).ok == want, (code, tau, support)


def test_search_small_nonexistence():
    res = search_nonexistence(7, 3, 2, 2, 5, F2)
    assert res == {"found": False, "witness": None, "candidates_checked": 4096, "total": 4096}


def test_search_finds_lexicographically_first_witness():
    res = search_nonexistence(4, 2, 1, 2, 2, F2)
    assert res["found"]
    assert res["witness"].P.to_lists() == [[1, 0], [0, 1]]
    assert res["candidates_checked"] == 10  # row-major index 9, zero-based
    assert verify_delay_decodable(res["witness"], 2, burst_supports(4, 1, 2)).ok


def test_search_agrees_with_reference_verifier_everywhere():
    # full cross-check of the scan kernel against the analytic verifier
    # over a space where both witnesses and failures exist
    n, k, z, b, tau = 5, 3, 1, 2, 3
    fam = burst_supports(n, z, b)
    first_survivor = None
    idx = 0
    for rows in product(list(product(range(3), repeat=2)), repeat=3):
        code = SystematicCode(field=F3, n=n, k=k, P=FieldMatrix(F3, list(rows)))
        if verify_delay_decodable(code, tau, fam).ok and first_survivor is None:
            first_survivor = idx
        idx += 1
    res = search_nonexistence(n, k, z, b, tau, F3)
    assert res["found"] and res["candidates_checked"] == first_survivor + 1


def test_checks_decide_like_the_verifier_on_random_codes():
    # "no `_build_checks` check fails on P's rows" is the verifier's
    # verdict on the burst family, on seeded random codes of every (z, b)
    # cell.  Random codes seldom pass the larger cells, so each cell also
    # gets an MDS code at tau = n-1 and, where b | k fits in n <= 11, the
    # multi-burst construction at tau*.
    rng = random.Random(27)
    fields = [GF(q) for q in (2, 3, 4, 5, 7, 8)]
    cells = [(z, b) for z in (1, 2, 3) for b in (1, 2, 3)]
    cases = []
    for z, b in cells * 50:
        f = rng.choice(fields)
        n = rng.randint(2, 11)
        k = rng.randint(1, n - 1)
        p = FieldMatrix(f, [[rng.randrange(f.q) for _ in range(n - k)] for _ in range(k)])
        cases.append((SystematicCode(field=f, n=n, k=k, P=p), rng.randrange(k, n), z, b))
    for z, b in cells:
        n = z * b + (2 if z * b + 2 <= F8.q else 1)
        cases.append((build_mds(n, n - z * b, F8), n - 1, z, b))
        if b * (z + 1) <= 11:
            cases.append((build_multi_burst(b, z, b, GF(4)), delay_tau_star(b, z, b), z, b))
    outcomes = {cell: set() for cell in cells}
    for code, tau, z, b in cases:
        supports = burst_supports(code.n, z, b)
        rows = code.P.to_lists()
        checks = search._build_checks(code.n, code.k, tau, supports)
        passes = not any(search._fails(code.field, rows, check) for check in checks)
        assert passes == verify_delay_decodable(code, tau, supports).ok, (code, tau, z, b)
        outcomes[z, b].add(passes)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_search_determinism():
    r1 = search_nonexistence(7, 3, 2, 2, 5, F3)
    r2 = search_nonexistence(7, 3, 2, 2, 5, F3)
    assert r1 == r2
    assert not r1["found"] and r1["candidates_checked"] == 3**12


def test_kernel_matches_flat_scan_on_random_spaces():
    # seeded random (q, z, b, k, tau) spaces of at most 2^16 candidates,
    # each over a random [start, stop): the same survivor and the same
    # progress cursors as the flat scan
    rng = random.Random(9)
    shapes = [
        (q, z, b, k)
        for q in (2, 3, 4, 5)
        for z in (1, 2)
        for b in (1, 2, 3)
        for k in (1, 2, 3)
        if q ** (k * z * b) <= 1 << 16
    ]
    survivors = ticked = 0
    for _ in range(300):
        q, z, b, k = rng.choice(shapes)
        n = k + z * b
        tau = rng.randrange(k, n)
        total = q ** (k * z * b)
        start = rng.randrange(total + 1)
        # a quarter of the ranges run to the end of the space, where a
        # 2^16-candidate space reports its one progress cursor
        stop = total if rng.randrange(4) == 0 else rng.randrange(start, total + 1)
        field = GF(q)
        checks = search._build_checks(n, k, tau, burst_supports(n, z, b))
        ticks = []
        got = search._scan(field, k, n - k, checks, start, stop, ticks.append)
        want = _flat_scan(field, n, k, checks, start, stop)
        assert (got, ticks) == want, (n, k, z, b, tau, q, start, stop)
        survivors += got is not None
        ticked += bool(ticks)
    assert survivors >= 100 and ticked >= 1


def _match_flat_scan(rng, qs, runs, largest):
    """The kernel against the flat scan on `runs` seeded random (q, z, b,
    k, tau) spaces over the fields `qs`, of at most `largest` candidates,
    each over a random [start, stop): the same survivor and the same
    progress cursors.  Returns (survivors, runs that reported a cursor)."""
    shapes = [
        (q, z, b, k)
        for q in qs
        for z in (1, 2)
        for b in (1, 2, 3)
        for k in (1, 2, 3)
        if q ** (k * z * b) <= largest
    ]
    survivors = ticked = 0
    for _ in range(runs):
        q, z, b, k = rng.choice(shapes)
        n = k + z * b
        tau = rng.randrange(k, n)
        total = q ** (k * z * b)
        start = rng.randrange(total + 1)
        stop = total if rng.randrange(4) == 0 else rng.randrange(start, total + 1)
        field = GF(q)
        checks = search._build_checks(n, k, tau, burst_supports(n, z, b))
        ticks = []
        got = search._scan(field, k, n - k, checks, start, stop, ticks.append)
        want = _flat_scan(field, n, k, checks, start, stop)
        assert (got, ticks) == want, (n, k, z, b, tau, q, start, stop)
        survivors += got is not None
        ticked += bool(ticks)
    return survivors, ticked


def test_kernel_matches_flat_scan_over_gf7_and_gf8():
    # the larger odd and characteristic-2 fields: more scaling twins per
    # row, and memo keys of 3 bits per digit
    survivors, _ = _match_flat_scan(random.Random(17), (7, 8), 150, 1 << 16)
    assert survivors >= 50


def test_kernel_matches_flat_scan_over_gf16():
    # x -> x^2 moves 14 of GF(16)'s values, so the Frobenius rule skips
    # more nodes here than over GF(4) or GF(8)
    survivors, ticked = _match_flat_scan(random.Random(19), (16,), 80, 1 << 16)
    assert survivors >= 40 and ticked >= 1


def _record_projections(monkeypatch) -> list:
    """Wrap `search._fails` to record, per call, a check's memo key in
    plain terms: the check with row i and its msg_js rows projected onto
    its coords."""
    keys = []
    fails = search._fails

    def recorded(field, rows, check):
        i, coords, msg_js = check
        keys.append((check, tuple(tuple(rows[j][c] for c in coords) for j in (i, *msg_js))))
        return fails(field, rows, check)

    monkeypatch.setattr(search, "_fails", recorded)
    return keys


def test_kernel_matches_flat_scan_with_a_tiny_verdict_memo(monkeypatch):
    # memos that are cleared every few verdicts re-eliminate projections
    # they have seen, and must still give every survivor and cursor
    monkeypatch.setattr(search, "_VERDICT_CAP", 3)
    keys = _record_projections(monkeypatch)
    survivors, ticked = _match_flat_scan(random.Random(23), (2, 3, 4, 5, 7, 8), 120, 1 << 16)
    assert survivors >= 40 and ticked >= 1
    assert len(keys) > len(set(keys))


@pytest.mark.parametrize(
    "n, k, z, b, tau, q, distinct",
    [(8, 4, 2, 2, 6, 2, 84), (7, 3, 2, 2, 5, 3, 108)],
)
def test_each_check_is_eliminated_once_per_projection(monkeypatch, n, k, z, b, tau, q, distinct):
    # A check's verdict depends only on its projected rows, so the scan
    # runs `_fails` once per distinct (check, projected rows) and reads
    # every repeat from the check's memo: 84 and 108 eliminations, where
    # a scan without the memo makes 508 and 838.
    keys = _record_projections(monkeypatch)
    total = q ** (k * (n - k))
    res = search_nonexistence(n, k, z, b, tau, GF(q))
    assert res == {"found": False, "witness": None, "candidates_checked": total, "total": total}
    assert len(keys) == len(set(keys)) == distinct


def test_search_progress_reports_every_multiple_of_2_16():
    # pruning skips whole subtrees, but the cursor still reports each
    # multiple of 2^16 it passes, in order, as the flat scan did
    ticks = []
    res = search_nonexistence(9, 5, 2, 2, 7, F2, progress=ticks.append)
    assert not res["found"] and res["candidates_checked"] == 1 << 20
    assert ticks == [65536 * m for m in range(1, 17)]
    ticks = []
    res = search_nonexistence(9, 3, 2, 3, 6, F2, start=70000, progress=ticks.append)
    assert res["candidates_checked"] == 148618 - 70000
    assert ticks == [131072]


def test_search_refutes_non_divisible_targets_past_the_default_guard():
    # b does not divide k at tau* = k + (z-1)b: no binary code, in spaces
    # of 2^24 and 2^42 candidates that pruning refutes in the first rows
    for n, k, z, b, tau in ((10, 4, 2, 3, 7), (13, 7, 2, 3, 10)):
        total = 1 << (k * z * b)
        res = search_nonexistence(n, k, z, b, tau, F2, guard=total)
        assert res == {"found": False, "witness": None, "candidates_checked": total, "total": total}


def test_search_refutes_non_divisible_targets_over_larger_fields():
    # [7,3] with z=2, b=2 at tau* = 5 over GF(4), GF(5) and GF(7): up to
    # 7^12 candidates, exhausted in under a second because column scaling
    # leaves only the 2^4 first rows with digits 0 and 1 to scan, and row
    # scaling only the later rows whose leading nonzero digit is 1
    for q in (4, 5, 7):
        total = q**12
        res = search_nonexistence(7, 3, 2, 2, 5, GF(q), guard=total)
        assert res == {"found": False, "witness": None, "candidates_checked": total, "total": total}


def _matrix_at(q, k, r, index):
    return [_digits_of(d, q, r) for d in _digits_of(index, q**r, k)]


def _column_normalized(p):
    """True iff every parity column's first nonzero entry is 1."""
    return all(next((row[c] for row in p if row[c]), 1) == 1 for c in range(len(p[0])))


def _flat_witnesses(field, n, k, checks):
    """Every surviving index of the space, by chaining the flat oracle
    from each survivor + 1."""
    total, start, out = field.q ** (k * (n - k)), 0, []
    while True:
        found, _ = _flat_scan(field, n, k, checks, start, total)
        if found is None:
            return out
        out.append(found)
        start = found + 1


# q, n, k, z, b, tau: spaces of at most 4^6 candidates whose witnesses
# include column-scaled twins, so most witnesses are not normalized
SCALED_SPACES = [
    (3, 5, 3, 1, 2, 3),
    (3, 5, 2, 1, 3, 3),
    (3, 4, 2, 2, 1, 3),
    (4, 5, 3, 1, 2, 3),
    (4, 4, 2, 2, 1, 3),
    (5, 4, 2, 1, 2, 2),
    (5, 4, 2, 2, 1, 3),
]


@pytest.mark.parametrize("q, n, k, z, b, tau", SCALED_SPACES)
def test_scaling_keeps_every_resumed_answer(q, n, k, z, b, tau):
    # The kernel skips subtrees of non-normalized rows only where a scaled
    # twin lies at or after `start`, so a scan resumed from each survivor
    # + 1 still walks every witness of the flat oracle in order, twins and
    # all, and a scan from any start returns the first witness at or
    # after it.
    field, r = GF(q), n - k
    total = q ** (k * r)
    checks = search._build_checks(n, k, tau, burst_supports(n, z, b))
    witnesses = _flat_witnesses(field, n, k, checks)
    assert any(not _column_normalized(_matrix_at(q, k, r, w)) for w in witnesses)
    chained, start = [], 0
    while (found := search._scan(field, k, r, checks, start, total)) is not None:
        chained.append(found)
        start = found + 1
    assert chained == witnesses
    # Every start, classified by the row-0 node it lands in: a normalized
    # row (digits 0 or 1) or a non-normalized one whose twin the cursor
    # has passed.  Both kinds are exercised strictly inside the subtree.
    inside = {True: 0, False: 0}
    size = q ** ((k - 1) * r)
    for start in range(total + 1):
        want = next((w for w in witnesses if w >= start), None)
        assert search._scan(field, k, r, checks, start, total) == want, start
        if start < total and start % size:
            inside[max(_matrix_at(q, k, r, start)[0]) <= 1] += 1
    assert inside[True] and inside[False]


def _leading(row):
    return next((x for x in row if x), 0)


def _row_twin_before(field, k, r, start, d):
    """Among start's depth-d node and its later siblings, the first whose
    row has a leading digit a above 1: True iff its row twin a^-1 * row
    has its subtree start before `start` (the scan must enter the node),
    False if not (the scan skips it), None if there is no such node."""
    q, base = field.q, field.q**r
    sizes = [base ** (k - 1 - e) for e in range(k)]
    parent = start - start % sizes[d - 1]
    for value in range((start // sizes[d]) % base, base):
        row = _digits_of(value, q, r)
        a = _leading(row)
        if a > 1:
            inverse = next(c for c in range(1, q) if field.mul(a, c) == 1)
            twin = [field.mul(inverse, x) for x in row]
            twin_value = sum(x * q ** (r - 1 - c) for c, x in enumerate(twin))
            return parent + twin_value * sizes[d] < start
    return None


# q, n, k, z, b, tau: spaces over fields with a^-1 != a for some a, whose
# witnesses include rows below row 0 with a leading digit above 1, so a
# twin taken as a * row instead of a^-1 * row loses some of them
ROW_SCALED_SPACES = [
    (4, 5, 3, 2, 1, 4),
    (5, 4, 2, 1, 2, 3),
    (5, 4, 3, 1, 1, 3),
    (7, 4, 2, 2, 1, 3),
    (7, 4, 3, 1, 1, 3),
]


@pytest.mark.parametrize("q, n, k, z, b, tau", ROW_SCALED_SPACES)
def test_row_scaling_keeps_every_resumed_answer(q, n, k, z, b, tau):
    # The kernel skips a node whose row has a leading digit a above 1 only
    # where its twin a^-1 * row starts at or after `start`, so chained
    # scans walk every witness of the flat oracle, and a scan from any
    # start returns the first witness at or after it.
    field, r = GF(q), n - k
    total = q ** (k * r)
    checks = search._build_checks(n, k, tau, burst_supports(n, z, b))
    witnesses = _flat_witnesses(field, n, k, checks)
    assert any(_leading(row) > 1 for w in witnesses for row in _matrix_at(q, k, r, w)[1:])
    chained, start = [], 0
    while (found := search._scan(field, k, r, checks, start, total)) is not None:
        chained.append(found)
        start = found + 1
    assert chained == witnesses
    # Every start; one strictly inside a depth-(d-1) subtree, d >= 1,
    # resumes among the depth-d siblings, and is counted by whether the
    # first non-row-normalized one it meets has its twin before the start
    # (scanned) or not (skipped).  Both kinds are exercised.
    twin_before = {True: 0, False: 0}
    size = q**r
    for start in range(total + 1):
        want = next((w for w in witnesses if w >= start), None)
        assert search._scan(field, k, r, checks, start, total) == want, start
        for d in range(1, k):
            if start < total and start % size ** (k - d):
                kind = _row_twin_before(field, k, r, start, d)
                if kind is not None:
                    twin_before[kind] += 1
    assert twin_before[True] and twin_before[False]


def test_scaled_progress_cursors_unchanged():
    # [7,3] over GF(3) has no witness, so the cursor must report every
    # multiple of 2^16 in (start, 3^12], also from a start inside a
    # non-normalized row-0 subtree (row 0 = 2: digits 0, 0, 0, 2)
    total = 3**12
    for start in (0, 2 * 3**8 + 5, 300000):
        ticks = []
        res = search_nonexistence(7, 3, 2, 2, 5, F3, start=start, progress=ticks.append)
        assert res["candidates_checked"] == total - start
        assert ticks == [m for m in range(65536, total + 1, 65536) if m > start]


def test_first_witness_is_column_normalized():
    # property: scaling a parity column keeps every verdict, so the first
    # witness from start 0 has each parity column's first nonzero entry 1
    rng = random.Random(41)
    shapes = [
        (q, z, b, k)
        for q in (3, 4, 5, 7, 8)
        for z in (1, 2)
        for b in (1, 2, 3)
        for k in (1, 2, 3)
        if q ** (k * z * b) <= 1 << 24
    ]
    witnesses = 0
    for _ in range(60):
        q, z, b, k = rng.choice(shapes)
        n = k + z * b
        tau = rng.randrange(k, n)
        res = search_nonexistence(n, k, z, b, tau, GF(q))
        if res["found"]:
            witnesses += 1
            assert _column_normalized(res["witness"].P.to_lists()), (q, n, k, z, b, tau)
    assert witnesses >= 20


def test_first_witness_is_row_normalized():
    # property: scaling a coefficient row keeps every verdict, so every
    # nonzero row of the first witness from start 0 has leading digit 1
    # (for k = 1 that is column normalization)
    rng = random.Random(43)
    shapes = [
        (q, z, b, k)
        for q in (3, 4, 5, 7, 8)
        for z in (1, 2)
        for b in (1, 2, 3)
        for k in (2, 3)
        if q ** (k * z * b) <= 1 << 24
    ]
    witnesses = 0
    for _ in range(60):
        q, z, b, k = rng.choice(shapes)
        n = k + z * b
        tau = rng.randrange(k, n)
        res = search_nonexistence(n, k, z, b, tau, GF(q))
        if res["found"]:
            witnesses += 1
            assert all(_leading(row) <= 1 for row in res["witness"].P.to_lists()), (q, n, k, z, b, tau)
    assert witnesses >= 20


def test_first_witness_is_frobenius_minimal():
    # property: over GF(2^m), x -> x^2 on every entry keeps every verdict,
    # so the first witness from start 0 is no larger than its image
    rng = random.Random(47)
    shapes = [
        (q, z, b, k)
        for q in (4, 8)
        for z in (1, 2)
        for b in (1, 2, 3)
        for k in (2, 3)
        if q ** (k * z * b) <= 1 << 24
    ]
    witnesses = moved = 0
    for _ in range(80):
        q, z, b, k = rng.choice(shapes)
        n = k + z * b
        tau = rng.randrange(k, n)
        res = search_nonexistence(n, k, z, b, tau, GF(q))
        if res["found"]:
            phi = GF(q).frobenius()
            entries = [x for row in res["witness"].P.to_lists() for x in row]
            image = [phi[x] for x in entries]
            witnesses += 1
            moved += image != entries
            assert entries <= image, (q, n, k, z, b, tau)
    assert witnesses >= 30 and moved >= 5


def _index(q, rows):
    """The candidate index of the coefficient rows, row-major in base q."""
    value = 0
    for row in rows:
        for x in row:
            value = value * q + x
    return value


# Resumed starts in the [7,3] spaces with z=2, b=2, as rows 0..d (the rest
# zero), each inside a run of siblings that a scan from 0 skips, or at a
# Frobenius twin or its image: [1, 0, 2, 1] is in the column run of
# [1, 0, 2, 0] and [2, 0, 1, 0] in the row and column run to the end of
# the space; [0, q-1, 0, 1] is in the row and column run of [0, 2, 0, 0],
# and [0, 0, q-1, 1], under rows with no fresh column, in the row run of
# [0, 0, 2, 0]; over GF(4), x -> x^2 maps [1, 0, 3, 0] to [1, 0, 2, 0],
# with row 0 fixed.
RESUMED_STARTS = [
    [[1, 0, 2, 1]],
    [[2, 0, 1, 0]],
    [[1, 0, 1, 0], [0, -1, 0, 1]],
    [[1, 0, 1, 0], [1, 0, 3, 0]],
    [[1, 0, 1, 0], [1, 0, 2, 0]],
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, -1, 1]],
]


@pytest.mark.parametrize("prefix", RESUMED_STARTS, ids=str)
@pytest.mark.parametrize("q", [4, 5])
def test_scans_resumed_in_a_skipped_run_match_flat_scan(q, prefix):
    # A run is skipped only where its least image starts at or after the
    # start, and a node only where its own image does, so a scan resumed
    # inside a run must enter the nodes whose images it has passed.
    field, n, k, r = GF(q), 7, 3, 4
    rows = [[x % q for x in row] for row in prefix] + [[0] * r] * (k - len(prefix))
    total = q ** (k * r)
    # At tau = 6 witnesses are dense: chained scans from the start find
    # the flat oracle's next 8 witnesses, with the same cursors.
    checks = search._build_checks(n, k, 6, burst_supports(n, 2, 2))
    start = _index(q, rows)
    for _ in range(8):
        ticks = []
        got = search._scan(field, k, r, checks, start, total, ticks.append)
        assert (got, ticks) == _flat_scan(field, n, k, checks, start, total), (start, got)
        start = got + 1
    # At tau = 5 there is none: a scan from 6000 before a multiple of 2^16
    # inside the start's row-0 node reports that multiple.
    checks = search._build_checks(n, k, 5, burst_supports(n, 2, 2))
    if len(prefix) == 1:
        tick = (_index(q, rows) + 6000) // 65536 * 65536 + 65536
        start, stop = tick - 6000, tick + 1000
        assert _matrix_at(q, k, r, start)[0] == rows[0]
        ticks = []
        got = search._scan(field, k, r, checks, start, stop, ticks.append)
        assert (got, ticks) == _flat_scan(field, n, k, checks, start, stop) == (None, [tick])


def test_search_resume_cursor():
    full = search_nonexistence(4, 2, 1, 2, 2, F2)
    resumed = search_nonexistence(4, 2, 1, 2, 2, F2, start=full["candidates_checked"])
    # scanning past the first witness finds the next one deterministically
    assert resumed["found"]
    assert verify_delay_decodable(resumed["witness"], 2, burst_supports(4, 1, 2)).ok


def test_search_guard_rejects_huge_spaces():
    with pytest.raises(ValueError):
        search_nonexistence(8, 4, 2, 2, 6, F8)


def test_search_validates_shape():
    for n, k, tau in ((4, 0, 2), (3, -1, 1), (1, -3, -3)):
        with pytest.raises(ValueError, match="k >= 1"):
            search_nonexistence(n, k, 2, 2, tau, F2)
    with pytest.raises(ValueError):
        search_nonexistence(8, 5, 2, 2, 6, F2)  # n != k + z*b
    with pytest.raises(ValueError):
        search_nonexistence(7, 3, 2, 2, 2, F2)  # tau < k
    with pytest.raises(ValueError, match="^k must be an int, got 1.0$"):
        search_nonexistence(3, 1.0, 1, 2, 2, F2)  # raised TypeError


def test_search_rejects_cursor_outside_space():
    # the [7,3] binary space has 4096 candidates; 4096 itself is the end
    assert search_nonexistence(7, 3, 2, 2, 5, F2, start=4096)["candidates_checked"] == 0
    for start in (-5, 4097, 99999):
        with pytest.raises(ValueError):
            search_nonexistence(7, 3, 2, 2, 5, F2, start=start)
    # start=True scanned from 1, and 1.5 raised TypeError
    for start in (True, 1.5):
        with pytest.raises(ValueError, match=f"^start must be an int, got {start}$"):
            search_nonexistence(3, 1, 1, 2, 2, F2, start=start)


def test_witness_confirmation_failure_raises(monkeypatch):
    # the kernel survivor is re-checked by the reference verifier; a
    # disagreement is a defect and must raise, not pass silently
    monkeypatch.setattr(search, "verify_delay_decodable", lambda *a: VerifyResult(False, ((0,), 0)))
    with pytest.raises(RuntimeError):
        search_nonexistence(4, 2, 1, 2, 2, F2)


def _strictly_inside(small, large) -> bool:
    return set(small) < set(large)


def _closed_under_subsets(family) -> bool:
    sets = {frozenset(s) for s in family}
    return all(s - {x} in sets for s in sets for x in s)


@pytest.mark.parametrize("n", range(11))
def test_maximal_supports_of_burst_families(n):
    # a burst family is closed under taking subsets, so the supports with
    # no one-point extension in it are those with no strict superset
    for z in (1, 2, 3):
        for b in (1, 2, 3):
            family = burst_supports(n, z, b)
            brute = [s for s in family if not any(_strictly_inside(s, t) for t in family)]
            assert search._maximal_supports(n, family) == brute, (n, z, b)


def test_maximal_supports_of_arbitrary_families():
    # an ordered subsequence of the input, and every dropped support lies
    # strictly inside a kept one, whether or not the family is closed
    # under taking subsets
    rng = random.Random(34)
    for _ in range(400):
        n = rng.randint(0, 9)
        family = [
            tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(rng.randint(0, 12))
        ]
        kept = search._maximal_supports(n, family)
        rest = iter(family)
        assert all(any(s == t for t in rest) for s in kept), (family, kept)
        for s in family:
            if s not in kept:
                assert any(_strictly_inside(s, t) for t in kept), (family, kept, s)


def test_maximal_supports_decide_like_the_whole_family():
    # erasing fewer positions never delays a pin, so the verifier's
    # verdict on a family is its verdict on the family's maximal supports:
    # on burst families and on random pattern lists not closed under
    # taking subsets, over seeded random codes
    rng = random.Random(340)
    fields = [GF(q) for q in (2, 3, 4, 5, 8)]
    verdicts = {"burst": set(), "random": set()}
    for _ in range(150):
        f = rng.choice(fields)
        n = rng.randint(2, 9)
        k = rng.randint(1, n - 1)
        p = FieldMatrix(f, [[rng.randrange(f.q) for _ in range(n - k)] for _ in range(k)])
        code = SystematicCode(field=f, n=n, k=k, P=p)
        tau = rng.randint(k, n - 1)
        bursts = burst_supports(n, rng.randint(1, 3), rng.randint(1, 3))
        patterns = []
        while _closed_under_subsets(patterns):
            patterns = [tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(rng.randint(1, 6))]
        for kind, family in (("burst", bursts), ("random", patterns)):
            ok = verify_delay_decodable(code, tau, family).ok
            assert verify_delay_decodable(code, tau, search._maximal_supports(n, family)).ok == ok
            verdicts[kind].add(ok)
    assert verdicts == {"burst": {True, False}, "random": {True, False}}


@pytest.mark.parametrize("n, k, z, b, tau, q", [(6, 2, 2, 2, 4, 4), (9, 3, 2, 3, 6, 2)])
def test_witness_is_confirmed_on_the_maximal_supports(monkeypatch, n, k, z, b, tau, q):
    recorded = []

    def recording(code, delay, patterns):
        recorded.append(patterns)
        return verify_delay_decodable(code, delay, patterns)

    monkeypatch.setattr(search, "verify_delay_decodable", recording)
    assert search_nonexistence(n, k, z, b, tau, GF(q))["found"]
    family = burst_supports(n, z, b)
    assert recorded == [search._maximal_supports(n, family)]
    assert len(recorded[0]) < len(family)


def test_search_runs_in_one_process():
    # `jobs` is kept only for callers that pass jobs=1
    for jobs in (0, 2, -2):
        with pytest.raises(ValueError, match=f"the search runs in one process: jobs must be 1, got {jobs}"):
            search_nonexistence(4, 2, 1, 2, 2, F2, jobs=jobs)
    assert search_nonexistence(4, 2, 1, 2, 2, F2, jobs=1) == search_nonexistence(4, 2, 1, 2, 2, F2)
