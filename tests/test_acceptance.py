"""Acceptance suite: one test per criterion, each exact (no tolerances
anywhere; every comparison is integer or rational equality).

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line
per criterion.
"""

import random
from fractions import Fraction
from itertools import combinations, product

from streamfec.block_code import (
    SystematicCode,
    build_mds,
    build_multi_burst,
    check_full_rank_property,
    check_window_rank_properties,
    verify_delay_decodable,
)
from streamfec.bounds import rate_bound
from streamfec.channel import (
    ChannelModel,
    ErasurePattern,
    ErrorPattern,
    burst_supports,
    enumerate_admissible,
    erasure_to_error_split,
    error_to_erasure,
    is_admissible_mbsw,
    is_admissible_sw,
    periodic_mbsw_pattern,
)
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix
from streamfec.search import (
    brute_force_decodable,
    enumerate_codebook,
    search_nonexistence,
)
from streamfec.streaming import equivalence_sweep, simulate

F2, F3, F8 = GF(2), GF(3), GF(8)


def _passed(num: int, detail: str) -> None:
    print(f"\nCRITERION {num}: PASS ({detail})")


def _messages(field, t_max, k, seed):
    rng = random.Random(seed)
    return [[rng.randrange(field.q) for _ in range(k)] for _ in range(t_max)]


def test_criterion_1_optimal_rate_formulas():
    checked = 0
    for a in (1, 2, 3):
        for w in range(2 * a + 1, 13):
            err = rate_bound(ChannelModel.sw_err(a, w))
            assert err.fraction == Fraction(w - 2 * a, w)
            assert err == rate_bound(ChannelModel.sw(2 * a, w))
            checked += 1
    _passed(1, f"{checked} (a, w) points, exact rational equality")


def test_criterion_2_erasure_stream_exhaustive():
    code = build_mds(5, 3, F8)
    model = ChannelModel.sw(2, 5)
    msgs = _messages(F8, 15, 3, seed=2025)
    patterns = list(enumerate_admissible(model, 15))
    for pattern in patterns:
        report = simulate(code, 4, model, pattern, msgs)
        assert report.success, f"deadline miss under {pattern.support}"
        assert list(report.messages) == [tuple(u) for u in msgs]
    _passed(2, f"[5,3] MDS over GF(8), tau=4: {len(patterns)} admissible (2,5)-SW patterns, all recovered")


def test_criterion_3_error_stream_exhaustive():
    # every (1,5)-admissible support in [0, 9] times the 35 unit error
    # values, 10 messages: each decode exact, none ambiguous
    res = equivalence_sweep(build_mds(5, 3, F8), ChannelModel.sw_err(1, 5), 4, 10, seed=2026)
    assert res == {"patterns": 18726, "exact": 18726, "ambiguities": 0}
    count = res["patterns"]
    _passed(3, f"(1,5,4) error stream: {count} error patterns, exact recovery, zero ambiguity signals")


def test_criterion_4_multi_burst_construction():
    code84 = build_multi_burst(4, 2, 2, F8)
    family = burst_supports(8, 2, 2)
    assert verify_delay_decodable(code84, 6, family).ok
    # the rate-bound code for (z=2, b=2, w=5) is the [6,2] construction;
    # its diagonal embedding must survive every admissible pattern
    code62 = build_multi_burst(2, 2, 2, F8)
    assert (code62.n, code62.k) == (6, 2)
    assert Fraction(code62.k, code62.n) == rate_bound(ChannelModel.mbsw(2, 2, 5)).fraction
    model = ChannelModel.mbsw(2, 2, 5)
    msgs = _messages(F8, 15, 2, seed=2027)
    patterns = list(enumerate_admissible(model, 15))
    for pattern in patterns:
        assert simulate(code62, 4, model, pattern, msgs).success, pattern.support
    _passed(
        4,
        f"[8,4] verified on {len(family)} bursts at tau*=6; [6,2] DE survived "
        f"{len(patterns)} MBSW patterns at tau=4",
    )


def test_criterion_5_nonexistence_at_desk_scale():
    res95 = search_nonexistence(9, 5, 2, 2, 7, F2)
    assert res95["found"] is False
    assert res95["candidates_checked"] == res95["total"] == 2**20
    res73_gf2 = search_nonexistence(7, 3, 2, 2, 5, F2)
    assert res73_gf2["found"] is False and res73_gf2["candidates_checked"] == 2**12
    res73_gf3 = search_nonexistence(7, 3, 2, 2, 5, F3)
    assert res73_gf3["found"] is False and res73_gf3["candidates_checked"] == 3**12
    _passed(
        5,
        "no [9,5] GF(2) code at tau=7 (2^20 exhausted); no [7,3] code at tau=5 "
        "over GF(2) or GF(3)",
    )


def test_criterion_6_full_rank_parity_windows():
    cases = [
        (4, 2, 2, F8),
        (2, 2, 2, F8),
        (2, 2, 2, GF(4)),
        (3, 1, 3, GF(5)),
        (3, 2, 1, GF(7)),
        (6, 2, 3, GF(8)),
        (4, 3, 2, GF(8)),
    ]
    for k, z, b, field in cases:
        code = build_multi_burst(k, z, b, field)
        assert check_full_rank_property(code, z, b), (k, z, b, field)
    _passed(6, f"{len(cases)} constructed multi-burst codes pass the parity window-rank property")


def test_criterion_7_window_rank_conclusion_exhaustive():
    totals = {}
    for field in (F2, F3):
        for b, m in ((2, 2), (2, 3)):
            width = m * b
            satisfiers = 0
            for entries in product(range(field.q), repeat=2 * width):
                rows = (entries[:width], entries[width:])
                # first-column prefilter is exactly the b=2 case of the
                # leading-zeros property; everything else gets the full check
                if rows[0][0] or rows[1][0]:
                    continue
                rep = check_window_rank_properties(FieldMatrix(field, rows), b, m)
                if rep.premises_hold:
                    satisfiers += 1
                    assert rep.conclusion_holds, rows
            totals[(field.q, b, m)] = satisfiers
    # binary matrices cannot satisfy all four premises at once (the
    # zero-run property forces proportional helper columns), so the
    # conclusion is exercised on the ternary satisfiers
    assert totals[(3, 2, 2)] > 0 and totals[(3, 2, 3)] > 0
    _passed(7, f"window-rank satisfier counts {totals}, every one has a nonzero last column")


def test_criterion_8_error_erasure_split_roundtrip():
    horizon = 10
    pattern_counts = []
    for w in (3, 4, 5):
        doubled = list(enumerate_admissible(ChannelModel.sw(2, w), horizon))
        for p in doubled:
            e, e_tilde = erasure_to_error_split(p, 3)
            for half in (e, e_tilde):
                half_flags = ErasurePattern(horizon, tuple(1 if any(pk) else 0 for pk in half.packets))
                assert is_admissible_sw(half_flags, 1, w)
            assert error_to_erasure(e, e_tilde) == p
        singles = [p.support for p in enumerate_admissible(ChannelModel.sw(1, w), horizon)]
        for s1 in singles:
            for s2 in singles:
                e = ErrorPattern.from_entries(horizon, 3, {t: (1, 0, 0) for t in s1})
                e_tilde = ErrorPattern.from_entries(horizon, 3, {t: (2, 0, 0) for t in s2})
                diff = error_to_erasure(e, e_tilde)
                assert is_admissible_sw(diff, 2, w)
        pattern_counts.append((len(doubled), len(singles) ** 2))
    _passed(8, f"(splits, pairs) per w in 3..5: {pattern_counts}")


def test_criterion_9_bound_pressure():
    pattern = periodic_mbsw_pattern(2, 2, 7, periods=3)
    assert is_admissible_mbsw(pattern, 2, 2, 7)
    for period in range(3):
        flags = pattern.flags[period * 8 : (period + 1) * 8]
        assert sum(flags) == 4 and len(flags) - sum(flags) == 4
    # any diagonally embedded code above rate 4/8 must miss a deadline;
    # even the strongest erasure structure, [8,5] MDS, fails
    code = build_mds(8, 5, F8)
    assert Fraction(code.k, code.n) > rate_bound(ChannelModel.mbsw(2, 2, 7)).fraction
    msgs = _messages(F8, 24, 5, seed=2028)
    report = simulate(code, 6, ChannelModel.mbsw(2, 2, 7), pattern, msgs)
    assert not report.success
    assert report.failures[0] == 0  # the very first packet already misses
    _passed(
        9,
        "periodic pattern admissible with 4 clear slots per 8; rate-5/8 DE code "
        f"misses deadlines (earliest at t={report.failures[0]})",
    )


def test_criterion_10_oracle_agreement():
    instances = 0
    # criterion-2 instance: [5,3] over GF(8) at tau=4, all supports
    c53 = build_mds(5, 3, F8)
    book53 = enumerate_codebook(c53)
    for r in range(6):
        for support in combinations(range(5), r):
            analytic = verify_delay_decodable(c53, 4, [support]).ok
            assert analytic == brute_force_decodable(c53, 4, support, book53)
            instances += 1
    # criterion-4 instance: [8,4] over GF(8) at tau*=6, full burst family
    c84 = build_multi_burst(4, 2, 2, F8)
    book84 = enumerate_codebook(c84)
    for support in burst_supports(8, 2, 2):
        analytic = verify_delay_decodable(c84, 6, [support]).ok
        assert analytic == brute_force_decodable(c84, 6, support, book84)
        instances += 1
    # 100 random binary [7,3] codes against every (2,2)-burst
    rng = random.Random(2029)
    family = burst_supports(7, 2, 2)
    for _ in range(100):
        p = FieldMatrix(F2, [[rng.randrange(2) for _ in range(4)] for _ in range(3)])
        code = SystematicCode(field=F2, n=7, k=3, P=p)
        book = enumerate_codebook(code)
        for support in family:
            analytic = verify_delay_decodable(code, 5, [support]).ok
            assert analytic == brute_force_decodable(code, 5, support, book)
            instances += 1
    _passed(10, f"analytic verifier == codebook oracle on {instances} instances")
