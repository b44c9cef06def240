import json
import random
import re
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec.block_code import (
    SystematicCode,
    _systematize,
    build_mds,
    build_multi_burst,
    check_full_rank_property,
    check_window_rank_properties,
    delay_tau_star,
    verify_delay_decodable,
    verify_delay_decodable_general,
)
from streamfec.channel import burst_supports
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix, rank
from streamfec.search import brute_force_decodable, enumerate_codebook

F2, F3, F5, F8 = GF(2), GF(3), GF(5), GF(8)


def _dot(field, row, y):
    """row . y by the field's scalar add and mul: an oracle that shares no
    product table with `matrix.Packed`."""
    acc = 0
    for a, b in zip(row, y):
        acc = field.add(acc, field.mul(a, b))
    return acc


def _mul(u, g):
    """Row vector u times the matrix g, by `_dot`."""
    return tuple(_dot(g.field, u, col) for col in zip(*g.data))


# -- constructions ----------------------------------------------------------


def test_single_parity_over_gf2():
    code = build_mds(4, 3, F2)
    assert code.P.to_lists() == [[1], [1], [1]]
    # any single erasure is recoverable with full delay
    assert verify_delay_decodable(code, 3, [(i,) for i in range(4)]).ok


def test_repetition_over_small_field():
    code = build_mds(5, 1, F3)
    assert code.P.to_lists() == [[1, 1, 1, 1]]
    supports = [s for r in range(5) for s in combinations(range(5), r)]
    assert verify_delay_decodable(code, 4, supports).ok


def test_mds_examples_every_redundancy_set_independent():
    code = build_mds(5, 3, F8)
    h = code.parity
    for cols in combinations(range(5), 2):
        assert rank(h.submatrix(range(2), cols)) == 2
    code45 = build_mds(4, 2, F5)
    h45 = code45.parity
    for cols in combinations(range(4), 2):
        assert rank(h45.submatrix(range(2), cols)) == 2


def test_mds_generator_minors_invertible():
    code = build_mds(5, 3, F8)
    g = code.generator
    for cols in combinations(range(5), 3):
        assert rank(g.submatrix(range(3), cols)) == 3


def test_mds_rejects_small_fields():
    with pytest.raises(ValueError):
        build_mds(5, 3, GF(4))
    with pytest.raises(ValueError):
        build_mds(5, 0, F8)
    # a float length raised TypeError
    with pytest.raises(ValueError, match="^n must be an int, got 5.0$"):
        build_mds(5.0, 3, F8)
    with pytest.raises(ValueError, match="^k must be an int, got True$"):
        build_mds(5, True, F8)


def test_code_invariants():
    for code in (build_mds(5, 3, F8), build_multi_burst(4, 2, 2, F8)):
        # G H^T = 0: every generator row is orthogonal to every parity row
        assert all(_dot(code.field, g, h) == 0 for g in code.generator.data for h in code.parity.data)
        ident = code.parity.submatrix(range(code.n - code.k), range(code.k, code.n))
        assert ident == FieldMatrix.identity(code.field, code.n - code.k)


def test_multi_burst_example_verifies_at_tau_star():
    code = build_multi_burst(4, 2, 2, F8)
    assert (code.n, code.k) == (8, 4)
    assert verify_delay_decodable(code, 6, burst_supports(8, 2, 2)).ok


def test_multi_burst_single_burst_case():
    # k = b, z = 1: [2b, b] code recovers any single length-b burst at delay b
    code = build_multi_burst(3, 1, 3, F5)
    assert (code.n, code.k) == (6, 3)
    assert delay_tau_star(3, 1, 3) == 3
    assert verify_delay_decodable(code, 3, burst_supports(6, 1, 3)).ok


def test_multi_burst_b1_degenerates_to_mds():
    code = build_multi_burst(3, 2, 1, GF(7))
    assert code.P == build_mds(5, 3, GF(7)).P
    assert verify_delay_decodable(code, 4, [s for s in burst_supports(5, 2, 1)]).ok


def test_multi_burst_interleaving_layout():
    # symbol j*b+r belongs to interleaved component r: parity columns touch
    # only message rows of the same residue class
    code = build_multi_burst(4, 2, 2, F8)
    for row in range(4):
        for col in range(4):
            if code.P[row, col] != 0:
                assert row % 2 == col % 2


def test_multi_burst_preconditions():
    with pytest.raises(ValueError):
        build_multi_burst(5, 2, 2, F8)  # b does not divide k
    with pytest.raises(ValueError):
        build_multi_burst(4, 2, 2, F3)  # q < k/b + z
    with pytest.raises(ValueError, match="^k must be an int, got 4.0$"):
        build_multi_burst(4.0, 2, 2, F8)  # raised TypeError


# -- causal to systematic ---------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_encode_matches_generator_product(q):
    f = GF(q)
    rng = random.Random(q)
    for n, k in ((2, 1), (5, 3), (7, 4), (9, 5)):
        for _ in range(5):
            code = SystematicCode(f, n, k, FieldMatrix(f, [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]))
            for _ in range(20):
                u = [rng.randrange(q) for _ in range(k)]
                assert code.encode(u) == _mul(u, code.generator)


@pytest.mark.parametrize(
    "q, u", [(8, (-1, 0, 0)), (8, (True, 0, 0)), (8, (0, 9, 0)), (8, (0, 0, 1.0)), (65536, (-1, 0, 0))]
)
def test_encode_rejects_values_outside_the_field(q, u):
    # -1 read the last entry of each product table and came back in the
    # codeword, True came back as it was, 9 raised IndexError and 1.0
    # TypeError.
    f = GF(q)
    bad = next(v for v in u if v != 0 or type(v) is not int)
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a value of {re.escape(repr(f))}$"):
        build_mds(5, 3, f).encode(u)


def test_causal_to_systematic_identity_on_systematic_input():
    code = build_mds(5, 3, F8)
    assert _systematize(code.generator).P == code.P


def test_causal_to_systematic_hand_example():
    sys_code = _systematize(FieldMatrix(F2, [[1, 1, 1], [0, 1, 1]]))
    assert sys_code.generator.to_lists() == [[1, 0, 0], [0, 1, 1]]


def _random_causal(field, n, k, rng):
    g = [[0] * n for _ in range(k)]
    for i in range(k):
        g[i][i] = rng.randrange(1, field.q)
        for j in range(i + 1, n):
            g[i][j] = rng.randrange(field.q)
    return FieldMatrix(field, g)


def test_causal_to_systematic_preserves_row_space():
    rng = random.Random(11)
    for field in (F2, F8):
        for _ in range(10):
            g = _random_causal(field, 6, 3, rng)
            sys_code = _systematize(g)
            stacked = FieldMatrix(field, g.to_lists() + sys_code.generator.to_lists())
            assert rank(stacked) == 3


def _codebook_verdict(book, n, k, tau, support):
    """The verifier's answer for one support, decided on the codebook:
    the first erased message coordinate i that some codeword zero on the
    unerased positions up to min(i + tau, n-1) leaves nonzero."""
    for i in support:
        if i < k:
            kept = [j for j in range(min(i + tau, n - 1) + 1) if j not in support]
            if any(u[i] and not any(c[j] for j in kept) for u, c in book):
                return False, (support, i)
    return True, None


def _assert_matches_codebook(verify, book, n, k, taus, supports):
    """`verify(tau, patterns)` against the codebook on every support one
    at a time and on the whole family; returns the verdicts seen."""
    seen = set()
    for tau in taus:
        first_miss = None
        for support in supports:
            want = _codebook_verdict(book, n, k, tau, support)
            got = verify(tau, [support])
            assert (got.ok, got.counterexample) == want, (tau, support)
            seen.add(want[0])
            first_miss = first_miss or want[1]
        got = verify(tau, supports)
        assert (got.ok, got.counterexample) == (first_miss is None, first_miss)
    return seen


def test_causal_delay_decodability_matches_systematic_transform():
    # the general verifier on random causal generators, against the
    # codebook of c = u . G for the causal message u itself (not the
    # systematized code), at every delay from 0 to n-1
    rng = random.Random(13)
    n, k = 6, 2
    supports = burst_supports(n, 2, 2)
    seen = set()
    for field in (F2, F3, GF(4)):
        for _ in range(6):
            g = _random_causal(field, n, k, rng)
            book = [(u, _mul(u, g)) for u in product(range(field.q), repeat=k)]
            verify = partial(verify_delay_decodable_general, g)
            seen |= _assert_matches_codebook(verify, book, n, k, range(n), supports)
    assert seen == {True, False}


def test_general_verifier_agrees_on_systematic_codes():
    # both verifiers on random, typically non-MDS systematic codes,
    # against their codebook at every delay from k to n-1
    rng = random.Random(17)
    n, k = 7, 3
    supports = burst_supports(n, 2, 2)
    seen = set()
    for field in (F2, F3, GF(4)):
        for _ in range(4):
            p = FieldMatrix(field, [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)])
            code = SystematicCode(field=field, n=n, k=k, P=p)
            book = enumerate_codebook(code)
            for verify in (
                partial(verify_delay_decodable, code),
                partial(verify_delay_decodable_general, code.generator),
            ):
                seen |= _assert_matches_codebook(verify, book, n, k, range(k, n), supports)
    assert seen == {True, False}


def test_general_verifier_rejects_singular_leading_block():
    with pytest.raises(ValueError):
        verify_delay_decodable_general(FieldMatrix(F2, [[1, 1, 1], [1, 1, 0]]), 2, [(0,)])


# -- the delay verifier -----------------------------------------------------


def test_verify_empty_pattern_set():
    code = build_mds(5, 3, F8)
    assert verify_delay_decodable(code, 4, []).ok


def test_verify_mds_all_double_erasures():
    code = build_mds(5, 3, F8)
    supports = [s for r in range(3) for s in combinations(range(5), r)]
    assert verify_delay_decodable(code, 4, supports).ok


def test_verify_reports_first_counterexample():
    code = build_mds(5, 3, F8)
    res = verify_delay_decodable(code, 4, [(0, 1, 2)])
    assert not res.ok
    assert res.counterexample == ((0, 1, 2), 0)


def test_no_gf2_95_code_survives_dense_bursts():
    # spot-check: random [9,5] binary codes all fail some (2,2)-burst at
    # delay 7 (the exhaustive version is an acceptance criterion)
    rng = random.Random(19)
    supports = burst_supports(9, 2, 2)
    for _ in range(25):
        p = FieldMatrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(5)])
        code = SystematicCode(field=F2, n=9, k=5, P=p)
        assert not verify_delay_decodable(code, 7, supports).ok


def test_verify_fails_immediately_without_parity():
    code = SystematicCode(field=F8, n=5, k=3, P=FieldMatrix(F8, [[0, 0]] * 3))
    res = verify_delay_decodable(code, 4, [(0,)])
    assert not res.ok
    assert res.counterexample == ((0,), 0)


@pytest.mark.parametrize("tau", [3.5, 4.0, True], ids=repr)
def test_verifiers_need_an_int_tau(tau):
    # 3.5 returned a verdict and 4.0 passed as 4.
    code = build_mds(5, 3, F8)
    calls = (
        lambda: verify_delay_decodable(code, tau, [(0, 1)]),
        lambda: verify_delay_decodable_general(code.generator, tau, [(0, 1)]),
        lambda: brute_force_decodable(code, tau, (0, 1)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=f"^tau must be an int, got {tau!r}$"):
            call()


@pytest.mark.parametrize("support", [(True, 3), (0, 1.0)], ids=repr)
def test_verifiers_need_int_support_points(support):
    # (True, 3) was verified as (1, 3), and (0, 1.0) raised TypeError
    # from a shift.
    code = build_mds(5, 3, F8)
    message = f"^pattern support {re.escape(repr(support))} must hold ints$"
    with pytest.raises(ValueError, match=message):
        verify_delay_decodable(code, 4, [support])
    with pytest.raises(ValueError, match=message):
        brute_force_decodable(code, 4, support)


def test_verify_tau_out_of_range():
    code = build_mds(5, 3, F8)
    with pytest.raises(ValueError):
        verify_delay_decodable(code, 2, [(0,)])
    with pytest.raises(ValueError):
        verify_delay_decodable(code, 5, [(0,)])


# -- parity window-rank checks ----------------------------------------------


def test_full_rank_property_on_constructions():
    assert check_full_rank_property(build_multi_burst(4, 2, 2, F8), 2, 2)
    assert check_full_rank_property(build_multi_burst(3, 1, 3, F5), 1, 3)
    assert check_full_rank_property(build_multi_burst(2, 2, 2, F8), 2, 2)


def test_full_rank_property_fails_on_zero_column():
    p = FieldMatrix(F8, [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 1, 2], [0, 3, 4, 5]])
    code = SystematicCode(field=F8, n=8, k=4, P=p)
    assert not check_full_rank_property(code, 2, 2)


def test_full_rank_property_shape_check():
    with pytest.raises(ValueError):
        check_full_rank_property(build_mds(5, 3, F8), 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        # each raised TypeError from range
        (lambda: check_full_rank_property(build_multi_burst(4, 1, 2, F8), 1, 2.0), "^b must be an int, got 2.0$"),
        (lambda: check_full_rank_property(build_multi_burst(4, 1, 2, F8), True, 2), "^z must be an int, got True$"),
        (lambda: check_window_rank_properties(FieldMatrix(F2, [[0] * 4] * 2), 2.0, 2), "^b must be an int, got 2.0$"),
        (lambda: check_window_rank_properties(FieldMatrix(F2, [[0] * 4] * 2), 2, 2.0), "^m must be an int, got 2.0$"),
        (lambda: check_window_rank_properties(FieldMatrix(F2, [[0] * 4] * 2), 2, True), "^m must be an int, got True$"),
    ],
)
def test_window_rank_checks_take_exact_ints(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_window_rank_example_rank_one_overall():
    a = FieldMatrix(F2, [[0, 1, 0, 1], [0, 1, 0, 1]])
    rep = check_window_rank_properties(a, 2, 2)
    assert (rep.p1, rep.p2, rep.p3) == (True, True, True)
    assert not rep.p4
    assert not rep.premises_hold


def test_window_rank_example_gf3_satisfier():
    a = FieldMatrix(F3, [[0, 1, 0, 1], [0, 1, 0, 2]])
    rep = check_window_rank_properties(a, 2, 2)
    assert rep.premises_hold
    assert rep.conclusion_holds


def test_window_rank_zero_last_column_violates_premises():
    # exhaustive at (b, m) = (2, 2) over GF(2): no matrix with an all-zero
    # last column satisfies P1-P4 (the acceptance criterion widens this)
    for entries in product(range(2), repeat=6):
        rows = [(0, entries[0], entries[1], 0), (0, entries[3], entries[4], 0)]
        rep = check_window_rank_properties(FieldMatrix(F2, rows), 2, 2)
        assert not rep.premises_hold


def test_window_rank_shape_validation():
    with pytest.raises(ValueError):
        check_window_rank_properties(FieldMatrix(F2, [[0, 1], [0, 1]]), 2, 2)
    with pytest.raises(ValueError):
        check_window_rank_properties(FieldMatrix(F2, [[0] * 4]), 2, 2)


def test_delay_tau_star_examples():
    assert delay_tau_star(5, 2, 2) == 7
    assert delay_tau_star(3, 4, 3) == 12  # k = b: z*b dominates
    assert delay_tau_star(1, 3, 4) == 12
    with pytest.raises(ValueError):
        delay_tau_star(0, 1, 1)


# -- the recovery query against the codebook --------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("n,k", [(5, 2), (6, 3)])
def test_recovery_matches_codebook(n, k, q):
    """Every observed mask of a random, typically non-MDS code, decided
    independently by enumerating the codebook.  A known message
    coordinate is its systematic position in the mask, so every known set
    is covered, not only prefixes."""
    f = GF(q)
    rng = random.Random(10 * n + q)
    code = SystematicCode(f, n, k, FieldMatrix(f, [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]))
    book = enumerate_codebook(code)
    for avail in range(1 << n):
        positions = [j for j in range(n) if avail >> j & 1]
        checks, pins = code.recovery(avail)
        assert set(pins) <= set(range(k))
        for i in range(k):
            # u_i is fixed by a prefix iff no codeword that is zero on the
            # prefix has u_i != 0
            fixed_at = [
                p for p in positions if all(u[i] == 0 for u, c in book if not any(c[j] for j in positions if j <= p))
            ]
            assert pins.get(i, (None,))[0] == (fixed_at[0] if fixed_at else None)
            if avail >> i & 1:
                assert pins[i][0] == i
        observed = set()
        for u, c in book:
            y = tuple(c[j] for j in positions)
            observed.add(y)
            assert all(_dot(f, row, y) == 0 for row in checks)
            for i, (p, row) in pins.items():
                assert _dot(f, row, y) == u[i]
                assert not any(row[l] for l, j in enumerate(positions) if j > p)
        for _ in range(20):
            y = tuple(rng.randrange(q) for _ in range(len(positions)))
            assert all(_dot(f, row, y) == 0 for row in checks) == (y in observed)


def _column_rref(field, rows, limit):
    """Column-by-column elimination with first-nonzero pivoting and row
    swaps, on `Field` methods only."""
    r, pivots = 0, []
    for c in range(limit):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _recover_by_full_elimination(code, avail):
    """`SystematicCode.recovery` as a whole-matrix elimination after every
    observed position: the observations are generator columns with an
    identity record, and a pin is read off the first reduced form whose
    row for u_i has no later coordinate."""
    k = code.k
    columns = list(zip(*code.generator.data))
    positions = [j for j in range(code.n) if avail >> j & 1]
    aug = [list(columns[j]) + [int(l == c) for c in range(len(positions))] for l, j in enumerate(positions)]
    rows, pivots, pins = [], [], {}
    for row_in, j in zip(aug, positions):
        rows, pivots = _column_rref(code.field, rows + [row_in], k)
        for row, c in zip(rows, pivots):
            if c not in pins and not any(row[c + 1 : k]):
                pins[c] = (j, tuple(row[k:]))
    return [tuple(row[k:]) for row in rows[len(pivots) :]], pins


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8])
def test_incremental_recovery_matches_full_elimination(q):
    """Each observation eliminated once gives the pins, rows included, and
    the checks of re-eliminating the whole matrix per observed position,
    for every observed mask of random codes with n <= 6."""
    f = GF(q)
    rng = random.Random(q)
    for n in range(2, 7):
        for k in range(1, n):
            for _ in range(2):
                p = FieldMatrix(f, [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)])
                code = SystematicCode(f, n, k, p)
                for avail in range(1 << n):
                    checks, pins = code.recovery(avail)
                    want_checks, want_pins = _recover_by_full_elimination(code, avail)
                    assert pins == want_pins
                    assert sorted(checks) == sorted(want_checks)


@pytest.mark.parametrize("avail", [-1, 1 << 5, True, 2.0], ids=repr)
def test_recovery_rejects_a_mask_that_is_no_position_set(avail):
    # -1 would observe every position through its infinite sign bits, and
    # 1 << 5 none of the five.
    with pytest.raises(ValueError, match=rf"^avail must be an int in \[0, 2\^5\), got {avail!r}$"):
        build_mds(5, 3, F8).recovery(avail)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16])
def test_recovery_checks_and_pins_on_larger_random_codes(q):
    """Past codebook sizes: on random codes with n <= 10, zero columns of
    P included, an observation of m positions whose generator columns
    have rank r gives m - r checks, and observing more positions pins each
    coordinate pinned before, at a position no later."""
    f = GF(q)
    rng = random.Random(1000 + q)
    for _ in range(8):
        n = rng.randrange(2, 11)
        k = rng.randrange(1, n)
        columns = [[0] * k if rng.random() < 0.25 else [rng.randrange(q) for _ in range(k)] for _ in range(n - k)]
        code = SystematicCode(f, n, k, FieldMatrix(f, [list(row) for row in zip(*columns)]))
        for _ in range(30):
            avail = rng.randrange(1 << n)
            wider = avail | rng.randrange(1 << n)
            checks, pins = code.recovery(avail)
            positions = [j for j in range(n) if avail >> j & 1]
            r = rank(code.generator.submatrix(range(k), positions)) if positions else 0
            assert len(checks) == len(positions) - r
            _, wider_pins = code.recovery(wider)
            for i, (position, _) in pins.items():
                assert wider_pins[i][0] <= position


# -- descriptors -------------------------------------------------------------


def test_descriptor_roundtrip_bit_exact():
    for code in (build_mds(5, 3, F8), build_multi_burst(4, 2, 2, F8)):
        blob = json.dumps(code.to_descriptor(), indent=2)
        again = SystematicCode.from_descriptor(json.loads(blob))
        assert again == code
        assert json.dumps(again.to_descriptor(), indent=2) == blob


@pytest.mark.parametrize("construction", [{}, {"kind": "custom"}, {"kind": "mds", "n": 5, "k": 3}, {"note": [0]}], ids=repr)
def test_descriptor_construction_round_trips(construction):
    # An empty construction was emitted as {"kind": "custom"}.
    d = {**build_mds(5, 3, F8).to_descriptor(), "construction": construction}
    assert SystematicCode.from_descriptor(d).to_descriptor() == d
    # A descriptor without one reads as a custom code.
    del d["construction"]
    assert SystematicCode.from_descriptor(d).to_descriptor()["construction"] == {"kind": "custom"}


@pytest.mark.parametrize("construction", ["x", 0, None, [], True], ids=repr)
def test_descriptor_construction_is_an_object(construction):
    # "x" passed through, and 0 was emitted as {"kind": "custom"}.
    d = {**build_mds(5, 3, F8).to_descriptor(), "construction": construction}
    with pytest.raises(ValueError, match=f"^construction must be an object, got {type(construction).__name__}$"):
        SystematicCode.from_descriptor(d)


@pytest.mark.parametrize("drop", [("P",), ("field", "k"), ("n", "k", "P")])
def test_descriptor_missing_keys_named(drop):
    d = {key: v for key, v in build_mds(5, 3, F8).to_descriptor().items() if key not in drop}
    with pytest.raises(ValueError, match=f"^code descriptor lacks {', '.join(drop)}$"):
        SystematicCode.from_descriptor(d)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_random_codes_roundtrip(n, data):
    k = data.draw(st.integers(1, n - 1))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(0, 7), min_size=n - k, max_size=n - k),
            min_size=k,
            max_size=k,
        )
    )
    code = SystematicCode(field=F8, n=n, k=k, P=FieldMatrix(F8, entries))
    assert SystematicCode.from_descriptor(code.to_descriptor()) == code
