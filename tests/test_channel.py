from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    min_burst_cover,
    periodic_mbsw_pattern,
)
from streamfec.bounds import rate_mbsw_bound


def _pat(*flags):
    return ErasurePattern(len(flags), tuple(flags))


# -- admissibility ------------------------------------------------------------


def test_sw_admissibility_examples():
    assert is_admissible_sw(_pat(0, 0, 0, 0), 1, 3)
    assert is_admissible_sw(_pat(1, 0, 0, 1), 1, 3)
    assert not is_admissible_sw(_pat(1, 0, 1), 1, 3)


def test_mbsw_admissibility_examples():
    # a window style with three disjoint length-2 bursts inside 7 slots
    assert is_admissible_mbsw(_pat(1, 1, 0, 1, 1, 0, 1), 3, 2, 7)
    assert not is_admissible_mbsw(_pat(1, 1, 0, 1, 1, 0, 1), 2, 2, 7)
    # z = 1: all erasures in each window must fit one interval
    assert is_admissible_mbsw(_pat(0, 1, 1, 0, 0, 0), 1, 2, 4)
    assert not is_admissible_mbsw(_pat(1, 0, 1, 0), 1, 2, 4)


def _naive_admissible(pattern, z, b, w):
    # the definition itself: every window start that overlaps the
    # horizon, each window's points covered by the greedy rule
    support = pattern.support
    return all(
        min_burst_cover([t for t in support if s <= t < s + w], b) <= z
        for s in range(-w + 1, pattern.horizon)
    )


def test_mbsw_b1_reduces_to_sw_exhaustively():
    # the predicate checks only windows that start at a support point;
    # this compares it with every window start, and b = 1 with sw
    for z, w, t_max in ((1, 3, 8), (2, 4, 8), (2, 3, 10)):
        for b in (1, 2, 3):
            for flags in product((0, 1), repeat=t_max):
                p = ErasurePattern(t_max, flags)
                want = _naive_admissible(p, z, b, w)
                assert is_admissible_mbsw(p, z, b, w) == want, (z, b, w, p.support)
                if b == 1:
                    assert is_admissible_sw(p, z, w) == want, (z, w, p.support)


def test_burst_with_gap_inside_is_allowed():
    # bursts may contain unerased slots: {0, 2} is coverable by one
    # length-3 interval
    assert is_admissible_mbsw(_pat(1, 0, 1, 0, 0, 0), 1, 3, 6)


def test_greedy_cover_matches_exhaustive_minimum():
    def exhaustive_min_cover(support, b, span):
        if not support:
            return 0
        best = None
        starts = range(span)
        for count in range(1, len(support) + 1):
            for anchors in combinations(starts, count):
                covered = set()
                ok_disjoint = True
                last_end = -1
                for a in anchors:
                    if a <= last_end:
                        ok_disjoint = False
                        break
                    covered.update(range(a, a + b))
                    last_end = a + b - 1
                if ok_disjoint and set(support) <= covered:
                    return count
        return best

    for span in (6, 9, 12):
        for b in (1, 2, 3):
            for mask in range(1 << span):
                support = [t for t in range(span) if (mask >> t) & 1]
                if len(support) > 5:
                    continue
                assert min_burst_cover(support, b) == exhaustive_min_cover(support, b, span)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 10), st.data())
def test_removing_an_erasure_keeps_admissibility(t_max, data):
    flags = data.draw(st.lists(st.integers(0, 1), min_size=t_max, max_size=t_max))
    p = ErasurePattern(t_max, tuple(flags))
    support = p.support
    if not support:
        return
    drop = data.draw(st.sampled_from(support))
    reduced = ErasurePattern.from_support(t_max, [t for t in support if t != drop])
    for a, w in ((1, 3), (2, 5)):
        if is_admissible_sw(p, a, w):
            assert is_admissible_sw(reduced, a, w)
    for z, b, w in ((1, 2, 4), (2, 2, 6)):
        if is_admissible_mbsw(p, z, b, w):
            assert is_admissible_mbsw(reduced, z, b, w)


# -- enumeration --------------------------------------------------------------


def test_enumerate_tiny_example_in_lexicographic_order():
    pats = list(enumerate_admissible(ChannelModel.sw(1, 2), 2))
    assert [p.flags for p in pats] == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize(
    "model,t_max",
    [
        (ChannelModel.sw(1, 3), 10),
        (ChannelModel.sw(2, 5), 10),
        (ChannelModel.sw(4, 5), 10),  # near-degenerate budget
        (ChannelModel.mbsw(2, 2, 6), 10),
        (ChannelModel.mbsw(1, 3, 5), 9),
    ],
)
def test_enumerate_matches_naive_filter(model, t_max):
    got = [p.flags for p in enumerate_admissible(model, t_max)]
    want = [
        flags
        for flags in product((0, 1), repeat=t_max)
        if model.admits(ErasurePattern(t_max, flags))
    ]
    assert got == want  # same patterns, same lexicographic order


def test_enumerate_support_bound():
    pats = list(enumerate_admissible(ChannelModel.sw(1, 3), 8, support_bound=2))
    assert all(max(p.support, default=0) <= 2 for p in pats)
    assert [p.support for p in pats] == [(), (2,), (1,), (0,)]


def test_burst_supports_counts():
    # hand-counted families for (z, b) = (2, 2)
    assert len(burst_supports(8, 2, 2)) == 88
    assert len(burst_supports(9, 2, 2)) == 116
    fam = burst_supports(7, 2, 2)
    assert len(fam) == 64
    assert fam[0] == ()
    assert all(min_burst_cover(s, 2) <= 2 for s in fam)


def test_pattern_spaces_reject_bad_parameters():
    with pytest.raises(ValueError):
        enumerate_admissible(ChannelModel.sw(1, 3), -2)
    for z, b in ((0, 2), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            burst_supports(5, z, b)


# -- error/erasure conversions -------------------------------------------------


def test_error_entries_outside_horizon_rejected():
    # an entry the horizon cannot hold must not vanish from the support
    for t in (7, 5, -1):
        with pytest.raises(ValueError, match=f"time {t} "):
            ErrorPattern.from_entries(5, 4, {1: (1, 0, 0, 0), t: (0, 1, 0, 0)})
    assert ErrorPattern.from_entries(5, 4, {4: (0, 1, 0, 0)}).support == (4,)


def test_error_to_erasure_examples():
    e = ErrorPattern.from_entries(5, 3, {1: (1, 0, 0), 3: (0, 2, 0)})
    same = error_to_erasure(e, e)
    assert same.support == ()
    zero = ErrorPattern.from_entries(5, 3, {})
    assert error_to_erasure(e, zero).support == (1, 3)
    with pytest.raises(ValueError):
        error_to_erasure(e, ErrorPattern.from_entries(4, 3, {}))


def test_split_examples():
    p = ErasurePattern.from_support(5, {0, 2, 3})
    e, e_tilde = erasure_to_error_split(p, 4)
    assert e.support == (0, 3)
    assert e_tilde.support == (2,)
    assert all(pkt in ((0, 0, 0, 0), (1, 0, 0, 0)) for pkt in e.packets)
    empty_e, empty_t = erasure_to_error_split(ErasurePattern.from_support(4, ()), 2)
    assert empty_e.support == () and empty_t.support == ()


def test_split_roundtrip_is_identity_on_patterns():
    for flags in product((0, 1), repeat=8):
        p = ErasurePattern(8, flags)
        e, e_tilde = erasure_to_error_split(p, 3)
        assert error_to_erasure(e, e_tilde) == p


def test_split_halves_admissible_exhaustively():
    # every (2, 4)-admissible pattern splits into (1, 4)-admissible halves
    for p in enumerate_admissible(ChannelModel.sw(2, 4), 10):
        e, e_tilde = erasure_to_error_split(p, 2)
        for half in (e, e_tilde):
            flags = ErasurePattern(10, tuple(1 if any(pk) else 0 for pk in half.packets))
            assert is_admissible_sw(flags, 1, 4)


def test_split_halves_admissible_at_budget_two():
    # (4, 5)-admissible patterns split into (2, 5)-admissible halves
    for p in enumerate_admissible(ChannelModel.sw(4, 5), 8):
        e, e_tilde = erasure_to_error_split(p, 2)
        for half in (e, e_tilde):
            flags = ErasurePattern(8, tuple(1 if any(pk) else 0 for pk in half.packets))
            assert is_admissible_sw(flags, 2, 5)


def test_error_pairs_map_to_doubled_budget():
    singles = [p.support for p in enumerate_admissible(ChannelModel.sw(1, 4), 8)]
    for s1 in singles:
        for s2 in singles:
            e = ErrorPattern.from_entries(8, 2, {t: (1, 0) for t in s1})
            e_tilde = ErrorPattern.from_entries(8, 2, {t: (0, 1) for t in s2})
            diff = error_to_erasure(e, e_tilde)
            assert is_admissible_sw(diff, 2, 4)


# -- the periodic bound-pressure pattern ---------------------------------------


def test_periodic_pattern_example():
    p = periodic_mbsw_pattern(2, 2, 7, periods=3)
    assert p.horizon == 24
    assert p.support[:4] == (0, 1, 2, 3)
    assert is_admissible_mbsw(p, 2, 2, 7)
    per_period = [sum(p.flags[i * 8 : (i + 1) * 8]) for i in range(3)]
    assert per_period == [4, 4, 4]  # 4 erased, 4 clear per period


def test_periodic_pattern_single_burst_case():
    p = periodic_mbsw_pattern(1, 3, 5, periods=2)
    assert p.flags == (1, 1, 1, 0, 0, 0, 0) * 2
    assert is_admissible_mbsw(p, 1, 3, 5)


@pytest.mark.parametrize("z,b,w", [(2, 2, 7), (1, 2, 5), (2, 3, 10), (3, 2, 8)])
def test_periodic_pattern_erased_fraction_complements_rate_bound(z, b, w):
    from fractions import Fraction

    p = periodic_mbsw_pattern(z, b, w, periods=4)
    assert is_admissible_mbsw(p, z, b, w)
    erased = sum(p.flags)
    bound = rate_mbsw_bound(z, b, w)
    assert Fraction(erased, p.horizon) == 1 - bound.fraction


def test_periodic_pattern_preconditions():
    with pytest.raises(ValueError):
        periodic_mbsw_pattern(2, 2, 4, periods=1)
    with pytest.raises(ValueError):
        periodic_mbsw_pattern(1, 2, 5, periods=0)


# -- serialization --------------------------------------------------------------


def test_erasure_pattern_csv_roundtrip():
    p = ErasurePattern.from_support(6, {1, 4})
    assert p.to_csv() == "0,1,0,0,1,0"
    assert ErasurePattern.from_csv(p.to_csv()) == p
    assert ErasurePattern.from_csv("0,1\n1,0") == ErasurePattern(4, (0, 1, 1, 0))


def test_error_pattern_json_roundtrip():
    e = ErrorPattern.from_entries(6, 3, {2: (0, 5, 0), 4: (1, 0, 2)})
    assert ErrorPattern.from_json(e.to_json()) == e


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel.sw(3, 3)
    with pytest.raises(ValueError):
        ChannelModel.sw_err(2, 4)
    with pytest.raises(ValueError):
        ChannelModel.mbsw(2, 2, 4)
    with pytest.raises(ValueError):
        ChannelModel.mbsw_err(1, 2, 4)
    assert ChannelModel.mbsw(2, 1, 5) == ChannelModel.sw(2, 5)
    assert ChannelModel.mbsw_err(1, 1, 3) == ChannelModel.sw_err(1, 3)
    assert ChannelModel.sw_err(1, 5).erasure_equivalent == ChannelModel.sw(2, 5)
    assert ChannelModel.mbsw_err(1, 2, 7).erasure_equivalent == ChannelModel.mbsw(2, 2, 7)
