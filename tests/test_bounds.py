from fractions import Fraction
from itertools import product

import pytest

from streamfec.bounds import (
    RateBound,
    causal_code_exists,
    de_achievable,
    delay_tau_star,
    rate_bound,
)
from streamfec.channel import ChannelModel
from streamfec.galois import GF
from streamfec.search import search_nonexistence


def test_sw_erasure_examples():
    assert rate_bound(ChannelModel.sw(1, 4)) == Fraction(3, 4)
    assert rate_bound(ChannelModel.sw(2, 5)) == Fraction(3, 5)
    assert rate_bound(ChannelModel.sw(6, 7)) == Fraction(1, 7)
    with pytest.raises(ValueError):
        rate_bound(ChannelModel.sw(4, 4))


def test_sw_error_examples():
    assert rate_bound(ChannelModel.sw_err(1, 5)) == Fraction(3, 5)
    assert rate_bound(ChannelModel.sw_err(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        rate_bound(ChannelModel.sw_err(2, 4))


def test_error_rate_equals_doubled_erasure_budget():
    for a in range(1, 4):
        for w in range(2 * a + 1, 13):
            assert rate_bound(ChannelModel.sw_err(a, w)) == rate_bound(ChannelModel.sw(2 * a, w))


def test_mbsw_bound_examples():
    assert rate_bound(ChannelModel.mbsw(2, 2, 7)) == RateBound(4, 8)
    assert rate_bound(ChannelModel.mbsw(1, 3, 7)) == Fraction(6, 9)  # single burst: (w-1)/(w-1+b)
    with pytest.raises(ValueError):
        rate_bound(ChannelModel.mbsw(2, 2, 4))


def test_mbsw_error_bound_examples():
    assert rate_bound(ChannelModel.mbsw_err(1, 2, 7)) == RateBound(4, 8)
    assert rate_bound(ChannelModel.mbsw_err(1, 2, 5)) == Fraction(2, 6)  # w = 2zb+1 degenerate
    with pytest.raises(ValueError):
        rate_bound(ChannelModel.mbsw_err(1, 2, 4))


def test_mbsw_error_equals_doubled_bursts():
    for z in (1, 2):
        for b in (2, 3):
            for w in range(2 * z * b + 1, 16):
                assert rate_bound(ChannelModel.mbsw_err(z, b, w)) == rate_bound(ChannelModel.mbsw(2 * z, b, w))


def test_mbsw_b1_matches_sw():
    for z in (1, 2, 3):
        for w in range(z + 2, 12):
            assert rate_bound(ChannelModel.mbsw(z, 1, w)) == rate_bound(ChannelModel.sw(z, w))


def test_bounds_are_exact_rationals():
    b = rate_bound(ChannelModel.mbsw(2, 2, 7))
    assert isinstance(b.numerator, int) and isinstance(b.denominator, int)
    assert b == RateBound(1, 2)  # compares as rationals despite normalization
    assert b.fraction == Fraction(1, 2)
    assert RateBound(2, 4) == RateBound(3, 6)
    assert RateBound(1, 3) < RateBound(1, 2) <= RateBound(2, 4)


def test_rate_bound_matches_closed_forms():
    # The four closed forms, written out: (w-a)/w and (w-2a)/w for the
    # sliding-window kinds, (w-1-(z-1)b)/(w-1+b) and (w-1-(2z-1)b)/(w-1+b)
    # for the multi-burst kinds, unreduced as the bounds CSV prints them.
    checked = 0
    for z, b, w in product(range(1, 6), range(1, 6), range(2, 40)):
        want = []
        if b == 1:
            a = z
            if a < w:
                want.append((ChannelModel.sw(a, w), f"{w - a}/{w}"))
            if 2 * a < w:
                want.append((ChannelModel.sw_err(a, w), f"{w - 2 * a}/{w}"))
        if z * b < w:
            want.append((ChannelModel.mbsw(z, b, w), f"{w - 1 - (z - 1) * b}/{w - 1 + b}"))
        if 2 * z * b < w:
            want.append((ChannelModel.mbsw_err(z, b, w), f"{w - 1 - (2 * z - 1) * b}/{w - 1 + b}"))
        for model, text in want:
            assert str(rate_bound(model)) == text, model
            checked += 1
    assert checked == 1633


def test_rate_bound_validation():
    with pytest.raises(ValueError):
        RateBound(3, 2)
    with pytest.raises(ValueError):
        RateBound(1, 0)


def test_de_achievable_examples():
    assert de_achievable(2, 2, 5)
    assert not de_achievable(2, 2, 6)
    assert de_achievable(2, 3, 10)
    assert de_achievable(1, 2, 6)  # single burst: always
    assert de_achievable(3, 1, 5)  # random erasures: always
    with pytest.raises(ValueError):
        de_achievable(2, 2, 4)


@pytest.mark.parametrize(
    "call, message",
    [
        # delay_tau_star(2.5, 1, 1) returned 2.5, and de_achievable(1.5, 1, 3) True
        (lambda: delay_tau_star(2.5, 1, 1), "^k must be an int, got 2.5$"),
        (lambda: delay_tau_star(3, True, 1), "^z must be an int, got True$"),
        (lambda: de_achievable(1.5, 1, 3), "^z must be an int, got 1.5$"),
        (lambda: de_achievable(2, 2, 5.0), "^w must be an int, got 5.0$"),
        (lambda: causal_code_exists(4, 2, 2.0, 6), "^b must be an int, got 2.0$"),
        # causal_code_exists(4, 2, 2, 6.5) returned True
        (lambda: causal_code_exists(4, 2, 2, 6.5), "^tau must be an int, got 6.5$"),
        # RateBound(1.5, 2) printed 1.5/2, and RateBound(True, 2) True/2
        (lambda: RateBound(1.5, 2), "^numerator must be an int, got 1.5$"),
        (lambda: RateBound(True, 2), "^numerator must be an int, got True$"),
        (lambda: RateBound(1, 2.0), "^denominator must be an int, got 2.0$"),
        (lambda: RateBound(0, True), "^denominator must be an int, got True$"),
    ],
)
def test_bounds_take_exact_ints(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_causal_code_exists_examples():
    assert not causal_code_exists(5, 2, 2, 7)  # tau* = 7, 2 does not divide 7
    assert causal_code_exists(4, 2, 2, 6)
    assert not causal_code_exists(5, 2, 2, 6)  # below tau*
    assert causal_code_exists(5, 2, 2, 8)  # above tau*
    # a single burst needs no divisibility: binary codes exist at tau* = k
    assert causal_code_exists(3, 1, 2, 3)  # [5,3] with P = [[1,0],[0,1],[1,1]]
    assert causal_code_exists(4, 1, 3, 4)
    assert causal_code_exists(5, 1, 2, 5)
    assert not causal_code_exists(3, 1, 2, 2)  # below tau* = k
    with pytest.raises(ValueError):
        causal_code_exists(1, 2, 2, 5)  # outside the k >= b regime


def test_causal_code_exists_matches_search():
    # Every space with k <= 5 and z in {1, 2} that the search exhausts over
    # some GF(q), q <= 5, within 2^16 candidates: a False verdict must have
    # no code over any of those fields, and a z = 1 verdict must be whether
    # a binary code exists.  A True verdict for z = 2 may need a larger
    # field ([6,4] with b = 1 at tau = 5 has no code over GF(2), GF(3) or
    # GF(4)), so it is not asserted.
    fields = [GF(q) for q in (2, 3, 4, 5)]
    spaces = refuted = 0
    for k in range(1, 6):
        for z, b in product((1, 2), range(1, k + 1)):
            n = k + z * b
            searched = [f for f in fields if f.q ** (k * (n - k)) <= 1 << 16]
            for tau in range(k, n) if searched else ():
                found = [search_nonexistence(n, k, z, b, tau, f)["found"] for f in searched]
                verdict = causal_code_exists(k, z, b, tau)
                if z == 1:
                    assert verdict == found[0], (n, k, b, tau)
                if not verdict:
                    assert not any(found), (n, k, z, b, tau)
                    refuted += 1
                spaces += 1
    assert (spaces, refuted) == (48, 12)


@pytest.mark.parametrize("model", [None, "sw:1,3", (1, 1, 3)], ids=repr)
def test_rate_bound_needs_a_model(model):
    # None raised AttributeError on `.erasure_equivalent`.
    with pytest.raises(ValueError, match="^rate_bound needs a ChannelModel, got "):
        rate_bound(model)
