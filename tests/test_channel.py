import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec.channel import (
    ChannelModel,
    ErasurePattern,
    ErrorPattern,
    _supports,
    burst_supports,
    enumerate_admissible,
    erasure_to_error_split,
    error_to_erasure,
    is_admissible_mbsw,
    is_admissible_sw,
    min_burst_cover,
    periodic_mbsw_pattern,
    windows_ok,
)
from streamfec.bounds import rate_bound
from streamfec.galois import GF


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


@pytest.mark.parametrize("z,b,w", [(1, 1, 2), (1, 1, 4), (2, 1, 5), (1, 2, 3), (1, 3, 5), (2, 2, 5), (2, 2, 7)])
@pytest.mark.parametrize("support_bound", [None, 0, 3])
def test_enumerate_matches_brute_force_grid(z, b, w, support_bound):
    model = ChannelModel(z, b, w)
    for horizon in range(11):
        got = [p.flags for p in enumerate_admissible(model, horizon, support_bound)]
        want = [
            flags
            for flags in product((0, 1), repeat=horizon)
            if (support_bound is None or not any(flags[support_bound + 1 :]))
            and windows_ok([t for t, f in enumerate(flags) if f], z, b, w)
        ]
        assert got == want, horizon  # same patterns, same lexicographic order


@pytest.mark.parametrize("kind", ["sw", "mbsw", "sw_err", "mbsw_err"])
def test_support_walk_yields_the_admissible_patterns_supports_in_order(kind):
    # The error decoder, the equivalence sweep and `verify-code --model`
    # take their supports from `_supports` and rely on them being the
    # supports of `enumerate_admissible`'s patterns, in the same order,
    # for every kind.
    errors = kind.endswith("_err")
    for z, b, w in [(1, 1, 3), (1, 1, 5), (2, 1, 5), (1, 2, 5), (2, 2, 9), (1, 3, 7)]:
        if (2 if errors else 1) * z * b >= w or (b == 1) != kind.startswith("sw"):
            continue
        m = ChannelModel(z, b, w, errors)
        for h in range(11):
            assert list(_supports(m.z, m.b, m.w, h - 1)) == [p.support for p in enumerate_admissible(m, h)], (m, h)


def test_enumerate_needs_no_frame_per_slot():
    # a generator frame per slot would pass the default recursion limit
    model = ChannelModel.sw(1, 5)
    pats = list(enumerate_admissible(model, 1500, support_bound=0))
    assert [p.support for p in pats] == [(), (0,)]
    assert pats[0].horizon == 1500


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


@pytest.mark.parametrize("n", range(1, 12))
def test_burst_supports_match_combinations_filter(n):
    for z, b in product(range(1, 5), range(1, 5)):
        sizes = range(min(n, z * b) + 1)
        want = sorted(s for r in sizes for s in combinations(range(n), r) if windows_ok(s, z, b, n))
        assert burst_supports(n, z, b) == want, (z, b)


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
    bound = rate_bound(ChannelModel.mbsw(z, b, w))
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


def test_erasure_pattern_csv_reads_only_0_and_1():
    # Cells are stripped of whitespace, and empty ones skipped.
    assert ErasurePattern.from_csv(" 0 ,1\r\n1,\n\n0,,") == ErasurePattern(4, (0, 1, 1, 0))
    assert ErasurePattern.from_csv("") == ErasurePattern(0, ())
    # `int` read each of these as a flag: "0_1" as 1, so "0,0_1,1" was
    # (0, 1, 1), and "+1" and an Arabic-Indic one as 1.
    for cell in ("0_1", "+1", "\u0661", "1.0", "2", "-0", "x"):
        with pytest.raises(ValueError, match=f"^erasure pattern CSV cell {re.escape(repr(cell))} is not 0 or 1$"):
            ErasurePattern.from_csv(f"0,{cell},1")
    # The first bad cell is the one named.
    with pytest.raises(ValueError, match="^erasure pattern CSV cell '2' is not 0 or 1$"):
        ErasurePattern.from_csv("1\n2,+1")


def test_error_pattern_json_roundtrip():
    e = ErrorPattern.from_entries(6, 3, {2: (0, 5, 0), 4: (1, 0, 2)})
    assert ErrorPattern.from_json(e.to_json(), GF(8)) == e


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


@pytest.mark.parametrize(
    "horizon, flags",
    [(3, (1, 0, True)), (3, (1, 0, 1.0)), (3, (0, 2, 0)), (3.0, (0, 1, 0)), (True, (1,))],
)
def test_erasure_pattern_needs_an_int_horizon_and_0_1_flags(horizon, flags):
    # A bool or float would print as True or 1.0 in `to_csv`, which
    # `from_csv` cannot read back.
    with pytest.raises(ValueError, match="must be an int|must be 0 or 1"):
        ErasurePattern(horizon, flags)


def test_from_support_keeps_its_range_check():
    assert ErasurePattern.from_support(4, [2, 0, 2]).flags == (1, 0, 1, 0)
    for support in ([4], [-1], [0, 4]):
        with pytest.raises(ValueError, match="support outside horizon"):
            ErasurePattern.from_support(4, support)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ErrorPattern(2.0, 1, ((0,), (1,))), "^horizon must be an int, got 2.0$"),
        (lambda: ErrorPattern(2, True, ((0,), (1,))), "^packet_size must be an int, got True$"),
        (lambda: ErrorPattern(2, 1, ((0,), (True,))), "^error packets must be a tuple of tuples of ints$"),
        (lambda: ErrorPattern(2, 1, ((0,), (1.0,))), "^error packets must be a tuple of tuples of ints$"),
        (lambda: ErrorPattern(2, 1, [(0,), (1,)]), "^error packets must be a tuple of tuples of ints$"),
        (lambda: ErrorPattern(2, 1, ((0,), [1])), "^error packets must be a tuple of tuples of ints$"),
        (lambda: ErasurePattern(2, [0, 1]), "^flags must be a tuple, got list$"),
    ],
)
def test_patterns_hold_exact_ints_and_tuples(build, message):
    # A float horizon printed "horizon": 2.0 and a bool packet value
    # printed true in `to_json`, which `from_json` refused; a list field
    # made the frozen pattern unhashable.
    with pytest.raises(ValueError, match=message):
        build()


def test_valid_patterns_hash_and_round_trip():
    e = ErrorPattern(2, 1, ((0,), (1,)))
    assert hash(e) == hash(ErrorPattern.from_json(e.to_json(), GF(2)))
    assert hash(ErasurePattern(2, (0, 1))) == hash(ErasurePattern.from_csv("0,1"))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ErasurePattern.from_support(2.5, ()), "^horizon must be an int, got 2.5$"),
        (lambda: ErrorPattern.from_entries(2.0, 1, {1: (1,)}), "^horizon must be an int, got 2.0$"),
        (lambda: ErrorPattern.from_entries(2, 1.0, {}), "^packet_size must be an int, got 1.0$"),
        (lambda: ErasurePattern.from_support(3, [1.0]), "^support time must be an int, got 1.0$"),
        (lambda: ErasurePattern.from_support(3, [True]), "^support time must be an int, got True$"),
        (lambda: ErasurePattern.from_support(3, (0, 2.0)), "^support time must be an int, got 2.0$"),
        (lambda: ErrorPattern.from_entries(3, 1, {1.0: (1,)}), "^error entry time must be an int, got 1.0$"),
        (lambda: ErrorPattern.from_entries(3, 1, {True: (1,)}), "^error entry time must be an int, got True$"),
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), 2.5), "^horizon must be an int, got 2.5$"),
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), 3.0), "^horizon must be an int, got 3.0$"),
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), 3, True), "^support bound must be an int, got True$"),
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), 3, 1.5), "^support bound must be an int, got 1.5$"),
        # the messages that were there before stay as they were
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), -2), "^horizon must be nonnegative, got -2$"),
        (lambda: enumerate_admissible(ChannelModel.sw(1, 3), 3, -1), "^support bound must be nonnegative, got -1$"),
        (lambda: ErasurePattern.from_support(3, [3]), "^support outside horizon$"),
        (lambda: ErrorPattern.from_entries(3, 1, {-1: (1,)}), r"^error entry time -1 outside \[0, 3\)$"),
        (lambda: burst_supports(3.0, 1, 1), r"^burst family needs integer n, z and b, got n=3.0, z=1, b=1$"),
        (lambda: burst_supports(3, 1.0, 1), r"^burst family needs integer n, z and b, got n=3, z=1.0, b=1$"),
        (lambda: burst_supports(3, 1, True), r"^burst family needs integer n, z and b, got n=3, z=1, b=True$"),
        (lambda: burst_supports(3, 0, 1), r"^burst family needs z >= 1 and b >= 1, got z=0, b=1$"),
        # burst_supports(-3, 2, 1) returned [()]
        (lambda: burst_supports(-3, 2, 1), r"^burst family needs n >= 0, got n=-3$"),
        (lambda: periodic_mbsw_pattern(1.0, 1, 3, 2), "^z must be an int, got 1.0$"),
        (lambda: periodic_mbsw_pattern(1, 1, 3, True), "^periods must be an int, got True$"),
    ],
)
def test_pattern_builders_and_enumeration_take_exact_ints(build, message):
    # Each raised TypeError, or read True as 1, or returned float times.
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("z, b, w", [(1.5, 1, 5), (True, 1, 5), (1, 1.0, 5), (1, 1, 5.0), (2, True, 7)])
def test_model_needs_integer_parameters(z, b, w):
    # 1.5 printed "a": 1.5 and a rate bound of 3.5/5; True printed "a": true.
    with pytest.raises(ValueError, match="needs integer z, b and w"):
        ChannelModel(z, b, w)


@pytest.mark.parametrize("b", [0, -1, 1.5, 2.0, True, None], ids=repr)
def test_min_burst_cover_needs_a_burst_length_of_at_least_one(b):
    # b = 0 counted [0, 1] as two bursts, and b = -1 or 1.5 as four.
    with pytest.raises(ValueError, match=f"^burst length b must be an int >= 1, got {b!r}$"):
        min_burst_cover([0, 1], b)


@pytest.mark.parametrize("b", [0, -1, 1.5, True], ids=repr)
def test_admissibility_needs_a_burst_length_of_at_least_one(b):
    # windows_ok([0], 1, 0, 3) was True, though no length-0 burst covers
    # a point, and is_admissible_mbsw judged by b = 1.5.  windows_ok
    # checks b once per call, so a pattern with no points is refused too.
    pattern = ErasurePattern.from_support(4, [0, 1])
    for check in (
        lambda: windows_ok([0], 1, b, 3),
        lambda: windows_ok([], 1, b, 3),
        lambda: is_admissible_mbsw(pattern, 2, b, 3),
        lambda: is_admissible_mbsw(_pat(0, 0, 0), 1, b, 3),
    ):
        with pytest.raises(ValueError, match=f"^burst length b must be an int >= 1, got {b!r}$"):
            check()


@pytest.mark.parametrize("pattern", [[0, 1], (0, 1), None, "0,1"], ids=repr)
def test_admits_needs_a_pattern(pattern):
    # A list raised AttributeError on `.support`.
    with pytest.raises(ValueError, match="^admits needs an ErasurePattern or ErrorPattern, got "):
        ChannelModel.sw(1, 3).admits(pattern)
