import json
import random
import re
from functools import partial
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from streamfec import channel, cli, streaming
from streamfec.block_code import SystematicCode, build_mds, build_multi_burst
from streamfec.channel import ChannelModel, ErasurePattern, ErrorPattern, enumerate_admissible, windows_ok
from streamfec.galois import GF
from streamfec.matrix import FieldMatrix
from streamfec.streaming import (
    DecodeReport,
    apply_erasures,
    apply_errors,
    de_encode,
    decode_erasures,
    decode_errors,
    equivalence_sweep,
    simulate,
)

from test_block_code import _dot

F2, F3, F4, F5, F7, F8, F16 = GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(16)


def _messages(field, t_max, k, seed):
    rng = random.Random(seed)
    return [[rng.randrange(field.q) for _ in range(k)] for _ in range(t_max)]


# -- encoding -----------------------------------------------------------------


def test_all_zero_messages_encode_to_zero_stream():
    code = build_mds(5, 2, F8)
    packets = de_encode(code, [[0, 0]] * 6)
    assert all(pkt == (0,) * 5 for pkt in packets)


def test_single_message_symbol_diagonal_layout():
    # one nonzero symbol in u(0): the systematic copy at time 0 plus the
    # three parities marching down the diagonal, scaled by the P row
    code = build_mds(5, 2, F8)
    packets = de_encode(code, [[3, 0]] + [[0, 0]] * 5)
    p_row = code.P.data[0]
    expect = {(0, 0): 3}
    for s in range(3):
        expect[(2 + s, s + 2)] = F8.mul(3, p_row[s])
    for t, pkt in enumerate(packets):
        for j, v in enumerate(pkt):
            assert v == expect.get((t, j), 0)


def _generator_column_stream(code, msgs):
    """Packet t, symbol j = sum_i G[i][j] u_i(t-j+i), with the message
    packets outside [0, T) zero: the encoder written column by column,
    independently of the codeword-per-diagonal route."""
    f, n, k, horizon = code.field, code.n, code.k, len(msgs)
    packets = []
    for t in range(horizon + n - 1):
        packet = []
        for j in range(n):
            acc = 0
            for i in range(k):
                u = msgs[t - j + i][i] if 0 <= t - j + i < horizon else 0
                acc = f.add(acc, f.mul(code.generator[i, j], u))
            packet.append(acc)
        packets.append(tuple(packet))
    return tuple(packets)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F16], ids=lambda f: f"q{f.q}")
def test_de_encode_matches_generator_column_formula(field):
    # random, typically non-MDS codes plus one multi-burst construction,
    # at horizons 0, 1, n and past n
    rng = random.Random(field.q)
    codes = [build_multi_burst(4, 2, 2, field)] if field.q >= 4 else []
    for n, k in ((4, 1), (5, 2), (6, 3), (7, 5)):
        p = FieldMatrix(field, [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)])
        codes.append(SystematicCode(field=field, n=n, k=k, P=p))
    for code in codes:
        for horizon in (0, 1, code.n, code.n + 4):
            msgs = _messages(field, horizon, code.k, seed=rng.randrange(1 << 30))
            assert de_encode(code, msgs) == _generator_column_stream(code, msgs)


def test_encoder_causality():
    code = build_mds(5, 3, F8)
    base = _messages(F8, 8, 3, seed=5)
    changed = [list(u) for u in base]
    changed[6][1] = (changed[6][1] + 3) % 8
    s1 = de_encode(code, base)
    s2 = de_encode(code, changed)
    for t in range(6):
        assert s1[t] == s2[t]
    assert s1[6] != s2[6]


def test_encoder_validates_message_shape():
    code = build_mds(5, 3, F8)
    with pytest.raises(ValueError):
        de_encode(code, [[1, 2]])


@pytest.mark.parametrize("bad", [True, 8, -1, "1"], ids=repr)
def test_encoder_validates_message_values(bad):
    # bool is an int subclass and True == 1, so a range or set test on the
    # values would let it through; the message names the first bad value.
    code = build_mds(5, 3, F8)
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a value of GF"):
        de_encode(code, [[1, 2, 3], [0, bad, 9], [4, 5]])


# -- applying a channel realization ----------------------------------------------


def _received_time_by_time(field, packets, pattern):
    """The received stream read one packet time at a time: packet t meets
    flag t or error packet t of the pattern, and times past the pattern's
    horizon are clean."""
    received = []
    for t, packet in enumerate(packets):
        if t >= pattern.horizon:
            received.append(packet)
        elif isinstance(pattern, ErasurePattern):
            received.append(None if pattern.flags[t] else packet)
        else:
            received.append(tuple(field.add(v, e) for v, e in zip(packet, pattern.packets[t])))
    return received


@pytest.mark.parametrize(
    "horizon, support",
    [(6, (1, 4)), (14, (0, 9)), (14, (2, 11)), (10, ()), (0, ())],
    ids=["shorter", "longer-inside", "past-the-stream", "clean", "empty"],
)
def test_apply_matches_a_time_by_time_reference(horizon, support):
    # A [5,3] stream of 6 messages has 10 packets, times 0..9.  The public
    # `apply_*` ignore times past the stream, and `simulate` refuses them.
    rng = random.Random(horizon + len(support))
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 6, 3, seed=horizon)
    packets = de_encode(code, msgs)
    entries = {t: tuple(rng.randrange(1, F8.q) for _ in range(5)) for t in support}
    patterns = (
        (ErasurePattern.from_support(horizon, support), ChannelModel.sw(2, 5), apply_erasures),
        (ErrorPattern.from_entries(horizon, 5, entries), ChannelModel.sw_err(1, 5), partial(apply_errors, code)),
    )
    for pattern, model, apply in patterns:
        received = apply(list(packets), pattern)
        assert received == _received_time_by_time(F8, packets, pattern)
        # Clean packets come back as the same tuples.
        assert all(received[t] is packets[t] for t in range(len(packets)) if t not in support)
        if max(support, default=-1) >= len(packets):
            with pytest.raises(ValueError, match=r"^pattern support \(2, 11\) reaches past the last packet time 9$"):
                simulate(code, 4, model, pattern, msgs)
        else:
            simulate(code, 4, model, pattern, msgs)


def test_apply_errors_checks_the_pattern_against_the_code():
    # Unchecked, 3-symbol error packets on a [5,3] stream cut each
    # packet they hit to 3 symbols, and a value past the field was added
    # in; only `simulate` refused them.
    code = build_mds(5, 3, F8)
    packets = de_encode(code, _messages(F8, 2, 3, seed=1))
    with pytest.raises(ValueError, match="^error packet size must equal the code length$"):
        apply_errors(code, packets, ErrorPattern.from_entries(6, 3, {1: (1, 1, 1)}))
    with pytest.raises(ValueError, match=r"^8 is not a value of GF\(8"):
        apply_errors(code, packets, ErrorPattern.from_entries(6, 5, {1: (0, 8, 0, 0, 0)}))


# -- erasure decoding -----------------------------------------------------------


def test_no_erasures_everything_recovered_at_arrival():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 10, 3, seed=1)
    report = simulate(code, 4, ChannelModel.sw(2, 5), ErasurePattern.from_support(10, ()), msgs)
    assert report.success
    assert report.times == tuple(range(10))
    assert list(report.messages) == [tuple(u) for u in msgs]


def test_erasure_recovery_times_respect_deadlines():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 12, 3, seed=2)
    pattern = ErasurePattern.from_support(12, {0, 2, 7})
    report = simulate(code, 4, ChannelModel.sw(2, 5), pattern, msgs)
    assert report.success
    for t, time in enumerate(report.times):
        if t in (0, 2, 7):
            assert t < time <= t + 4
        else:
            assert time == t


def test_erasure_failure_is_localized():
    # a [5,4] single-parity stream cannot survive a double erasure hitting
    # one diagonal
    code = build_mds(5, 4, F8)
    msgs = _messages(F8, 8, 4, seed=3)
    pattern = ErasurePattern.from_support(8, {0, 1})
    report = simulate(code, 4, None, pattern, msgs)
    assert not report.success
    assert report.failures[0] == 0


def test_inadmissible_pattern_is_flagged_but_simulated():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 8, 3, seed=4)
    pattern = ErasurePattern.from_support(8, {0, 1, 2})
    report = simulate(code, 4, ChannelModel.sw(2, 5), pattern, msgs)
    assert not report.pattern_admissible
    assert not report.success


def test_mbsw_stream_subset_sweep():
    # the full horizon-15 sweep is an acceptance criterion; here a prefix
    code = build_multi_burst(2, 2, 2, F8)
    model = ChannelModel.mbsw(2, 2, 5)
    msgs = _messages(F8, 9, 2, seed=6)
    pats = list(enumerate_admissible(model, 9, support_bound=6))
    assert len(pats) == 91
    for p in pats:
        assert simulate(code, 4, model, p, msgs).success


def test_report_json_shape_and_determinism():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 6, 3, seed=7)
    pattern = ErasurePattern.from_support(6, {1})
    r1 = simulate(code, 4, ChannelModel.sw(2, 5), pattern, msgs)
    r2 = simulate(code, 4, ChannelModel.sw(2, 5), pattern, msgs)
    assert r1.to_json() == r2.to_json()
    obj = json.loads(r1.to_json())
    assert list(obj) == [
        "params",
        "per_packet",
        "success",
        "failures",
        "pattern_admissible",
        "ambiguities",
    ]
    assert list(obj["per_packet"][0]) == ["t", "recovered", "time", "deadline"]
    assert obj["params"]["model"] == {"kind": "sw", "w": 5, "a": 2}


def test_report_failures_follow_deadlines():
    # t fails unless it was recovered by its deadline t + tau: late, lost
    # and on-time packets, and reports that differ only in messages are
    # equal.
    times = (0, 4, None, 5)
    report = DecodeReport(params={"tau": 2}, times=times, pattern_admissible=True, ambiguities=())
    assert report.failures == (1, 2)
    assert not report.success
    assert DecodeReport({"tau": 2}, (2, 3), True, (), messages=((1,), None)).success
    assert not DecodeReport({"tau": 1}, (2, 3), True, ()).success
    assert report == DecodeReport({"tau": 2}, times, True, (), messages=((0,),) * 4)


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_erasure_report_bytes_are_pinned():
    # Packets 0, 1 and 3 erased at tau = 1: messages 0 and 1 are lost,
    # message 3 is recovered late (at 6, deadline 4), the rest on time.
    code = build_mds(5, 3, F8)
    packets = de_encode(code, _messages(F8, 6, 3, seed=24))
    received = [None if t in (0, 1, 3) else p for t, p in enumerate(packets)]
    report = decode_erasures(code, 1, received, 6)
    assert report.to_json() == (GOLDEN / "erasure_decode_report.json").read_text(encoding="utf-8")


def test_prime_field_erasure_report_bytes_are_pinned():
    # The [8,4] multi-burst code over GF(5), whose pins are read mod 5, at
    # tau = 5 facing nine erasures that overrun mbsw:2,2,7: messages 1, 3
    # and 5 are lost, messages 0, 4, 8 and 9 are recovered late, and the
    # erasures at 12 and 13 fall in the last n-1 packets.
    code = build_multi_burst(4, 2, 2, F5)
    messages = _messages(F5, 12, 4, seed=26)
    pattern = ErasurePattern.from_support(19, {0, 1, 3, 4, 5, 8, 9, 12, 13})
    report = simulate(code, 5, ChannelModel.mbsw(2, 2, 7), pattern, messages)
    assert report.to_json() == (GOLDEN / "erasure_decode_report_gf5.json").read_text(encoding="utf-8")
    assert report.messages == (
        (1, 1, 3, 4), None, (0, 4, 4, 1), None, (0, 1, 1, 1), None,
        (2, 1, 4, 0), (0, 2, 4, 4), (0, 4, 0, 0), (3, 4, 4, 2), (2, 3, 3, 1), (0, 2, 1, 4),
    )  # fmt: skip


def test_error_report_bytes_are_pinned():
    # An error on u_0(2) of a [5,4] stream: u(0) and u(1) decode at their
    # deadlines, and u(2) is ambiguous, so decoding halts there.
    code = build_mds(5, 4, F8)
    packets = de_encode(code, _messages(F8, 6, 4, seed=25))
    pattern = ErrorPattern.from_entries(10, 5, {2: (3, 0, 0, 0, 0)})
    report = decode_errors(code, 4, apply_errors(code, packets, pattern), 6, ChannelModel.sw_err(1, 5))
    assert report.to_json() == (GOLDEN / "error_decode_report.json").read_text(encoding="utf-8")
    assert report.messages == ((6, 0, 3, 4), (7, 0, 4, 0), None, None, None, None)


def _wide_error_stream():
    # The [5,3] code over GF(7) with the CLI's `--seed 7` messages and
    # errors at t = 1 (on u_0(1), which needs a correction), 6 (on a
    # parity) and 11 (past the last message).
    code = build_mds(5, 3, F7)
    rng = random.Random(7)
    messages = [[rng.randrange(7) for _ in range(3)] for _ in range(10)]
    pattern = ErrorPattern.from_entries(14, 5, {1: (4, 0, 0, 0, 0), 6: (0, 0, 0, 2, 0), 11: (0, 5, 0, 0, 1)})
    return code, messages, pattern


def test_corrected_error_report_bytes_are_pinned():
    # At tau = 6 > n-1 windows outgrow a diagonal and the tail windows
    # shrink; every message decodes, u(1) by a correction.
    code, messages, pattern = _wide_error_stream()
    report = simulate(code, 6, ChannelModel.sw_err(1, 5), pattern, messages)
    assert report.to_json() == (GOLDEN / "error_decode_report_wide.json").read_text(encoding="utf-8")
    assert report.messages == (
        (2, 1, 3), (5, 0, 0), (6, 4, 0), (2, 4, 0), (4, 1, 0), (0, 3, 3), (0, 1, 0), (4, 3, 0), (6, 4, 0), (1, 5, 5),
    )  # fmt: skip
    assert report.times == (6, 7, 8, 9, 10, 11, 12, 13, 13, 13)


def _tall_error_stream():
    # CI's `etall` case: the [3,1] code over GF(4) with the CLI's `--seed 7`
    # messages and five errors, each window of 13 packets holding up to
    # three of them, as sw_err:1,3 allows.
    code = build_mds(3, 1, F4)
    rng = random.Random(7)
    messages = [[rng.randrange(4)] for _ in range(20)]
    errors = {0: (1, 0, 0), 3: (0, 2, 0), 6: (3, 0, 1), 13: (0, 0, 3), 20: (2, 0, 0)}
    return code, messages, ErrorPattern.from_entries(22, 3, errors)


def test_tall_window_error_report_bytes_are_pinned():
    # At tau = 12 each window touches 15 diagonals; the last ten messages
    # are decoded by tail windows that end at the stream's last packet.
    code, messages, pattern = _tall_error_stream()
    report = simulate(code, 12, ChannelModel.sw_err(1, 3), pattern, messages)
    assert report.to_json() == (GOLDEN / "error_decode_report_tall.json").read_text(encoding="utf-8")
    assert report.messages == tuple(map(tuple, messages))
    assert report.times == (*range(12, 22), *[21] * 10)


def _burst_error_stream():
    # CI's burst case: the [8,4] multi-burst code over GF(8) with the
    # CLI's `--seed 7` messages and four errors over 19 packets.
    code = build_multi_burst(4, 2, 2, F8)
    rng = random.Random(7)
    messages = [[rng.randrange(8) for _ in range(4)] for _ in range(12)]
    errors = {2: (5, 0, 0, 0, 0, 0, 0, 0), 3: (0, 0, 3, 0, 0, 0, 1, 0), 12: (0, 1, 0, 0, 0, 0, 0, 0), 13: (0, 0, 0, 0, 0, 0, 0, 6)}
    return code, messages, ErrorPattern.from_entries(19, 8, errors)


def test_burst_error_report_bytes_are_pinned():
    # The [8,4] multi-burst code over GF(8) under mbsw_err:1,2,7 at
    # tau = 9 > n-1: the errors at 2 and 3 hit message symbols and are
    # corrected, those at 12 and 13 hit parities, and the last three
    # messages are decoded by tail windows that end at packet 18.
    code, messages, pattern = _burst_error_stream()
    report = simulate(code, 9, ChannelModel.mbsw_err(1, 2, 7), pattern, messages)
    assert report.to_json() == (GOLDEN / "error_decode_report_burst.json").read_text(encoding="utf-8")
    assert report.messages == (
        (5, 2, 6, 0), (1, 1, 5, 0), (3, 0, 1, 6), (6, 1, 3, 1), (6, 0, 1, 3), (0, 6, 0, 3),
        (0, 2, 4, 6), (2, 1, 4, 2), (1, 3, 5, 1), (1, 0, 3, 7), (6, 5, 7, 7), (5, 4, 3, 2),
    )  # fmt: skip
    assert report.times == (*range(9, 19), 18, 18)


def test_support_readers_build_no_erasure_pattern(monkeypatch, tmp_path, capsys):
    # The error decoder's window table, the equivalence sweep and
    # `verify-code --model` read the support walk directly: with
    # `ErasurePattern.from_support` refusing every call they still give
    # the answers pinned before they stopped building patterns.
    def refuse(*args):
        raise AssertionError("an ErasurePattern was built from a support")

    monkeypatch.setattr(channel.ErasurePattern, "from_support", refuse)
    code, messages, pattern = _tall_error_stream()
    report = simulate(code, 12, ChannelModel.sw_err(1, 3), pattern, messages)
    assert report.to_json() == (GOLDEN / "error_decode_report_tall.json").read_text(encoding="utf-8")
    sweep = equivalence_sweep(build_mds(3, 1, F4), ChannelModel.sw_err(1, 3), 5, 7, seed=3)
    assert sweep == {"patterns": 1603, "exact": 1603, "ambiguities": 0}
    desc = tmp_path / "code.json"
    assert cli.main(["construct", "--mds", "5", "3", "--gf", "8", "--out", str(desc)]) == 0
    for tau, want in [
        (4, {"ok": True, "patterns": 16, "counterexample": None}),
        (3, {"ok": False, "patterns": 16, "counterexample": {"support": [0, 1], "symbol": 0}}),
    ]:
        assert cli.main(["verify-code", "--descriptor", str(desc), "--tau", str(tau), "--model", "sw:2,5"]) == 0
        assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def _per_diagonal_decode(code, tau, received, message_horizon):
    """The erasure decoder one diagonal at a time: `code.recovery` on the
    diagonal's positions before time 0, observed as zero, and its received
    positions, read by scalar dot products.  An oracle for the mask-keyed
    decoder."""
    n, k, f = code.n, code.k, code.field
    last = len(received) - 1
    diagonals = {}
    for d in range(-(k - 1), message_horizon):
        given = max(-d, 0)
        recv = [j for j in range(given, min(n, last - d + 1)) if received[d + j] is not None]
        checks, pins = code.recovery((1 << given) - 1 | sum(1 << j for j in recv))
        y = [0] * given + [received[d + j][j] for j in recv]
        assert not any(_dot(f, c, y) for c in checks)
        diagonals[d] = (pins, y)
    times, messages = [], []
    for t in range(message_horizon):
        if received[t] is not None:
            times.append(t)
            messages.append(tuple(received[t][:k]))
        elif all(i in diagonals[t - i][0] for i in range(k)):
            pinned, vals = [], []
            for i in range(k):
                pins, y = diagonals[t - i]
                position, row = pins[i]
                pinned.append(t - i + position)
                vals.append(_dot(f, row, y))
            times.append(max(pinned))
            messages.append(tuple(vals))
        else:
            times.append(None)
            messages.append(None)
    return DecodeReport(
        params=streaming._report_params(code, tau, None, message_horizon),
        times=tuple(times),
        pattern_admissible=True,
        ambiguities=(),
        messages=tuple(messages),
    )


ERASURE_FIELDS = [F2, F3, F4, F5, F7, F8, F16, GF(251), GF(1 << 16)]


def _random_erasure_decodes(field, seed):
    """(code, tau, received, horizon) of random codes, zero columns in P
    included, at horizons 0, 1, n and 30; random patterns of every
    density, and bursts longer than n - k."""
    rng = random.Random(seed)
    for _ in range(8):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n)
        p = FieldMatrix(field, [[rng.choice((0, rng.randrange(field.q))) for _ in range(n - k)] for _ in range(k)])
        code = SystematicCode(field=field, n=n, k=k, P=p)
        for horizon in (0, 1, n, 30):
            packets = de_encode(code, _messages(field, horizon, k, seed=rng.randrange(1 << 30)))
            last = len(packets)
            supports = [{t for t in range(last) if rng.random() < density} for density in (0.1, 0.3, 0.6)]
            start = rng.randrange(last)
            supports.append(set(range(start, min(start + n - k + 1, last))))
            # A burst from time 0: the diagonals before time 0 lose their
            # symbols at times 0..n-k and keep their zeros before time 0.
            supports.append(set(range(min(n - k + 1, last))))
            for support in supports:
                tau = rng.randrange(n + 1)
                yield code, tau, apply_erasures(packets, ErasurePattern.from_support(last, support)), horizon


@pytest.mark.parametrize("field", ERASURE_FIELDS, ids=lambda f: f"q{f.q}")
def test_erasure_decoder_matches_per_diagonal_oracle(field):
    for case in _random_erasure_decodes(field, seed=100 + field.q):
        got = decode_erasures(*case)
        want = _per_diagonal_decode(*case)
        assert got.to_json() == want.to_json()
        assert got.messages == want.messages


@pytest.mark.parametrize("field", ERASURE_FIELDS, ids=lambda f: f"q{f.q}")
def test_erasure_decision_memo_cold_equals_warm(field):
    # Each report must not depend on what the decision memo already
    # holds: every decode with empty memos equals the same decode through
    # the memos warmed by the earlier cases of its code, and by all of
    # them.
    cases = list(_random_erasure_decodes(field, seed=200 + field.q))
    cold = [_report_bytes(decode_erasures(_fresh(code), *rest)) for code, *rest in cases]
    assert [_report_bytes(decode_erasures(*case)) for case in cases] == cold
    rewarm = [_report_bytes(decode_erasures(*case)) for case in reversed(cases)]
    assert rewarm[::-1] == cold
    # the memos hold decisions of both kinds: lost, and recovered
    decisions = [v for code in {case[0] for case in cases} for v in code._erasure_decisions.values()]
    assert None in decisions and any(v is not None for v in decisions)


@pytest.mark.parametrize(
    "code", [build_mds(5, 3, F8), build_multi_burst(4, 2, 2, F5), build_mds(3, 1, F4)], ids=["53q8", "84q5", "31q4"]
)
def test_erasure_decoder_at_the_stream_ends(code):
    # Horizons 0, 1 and n, with erasures in the first k-1 packets, whose
    # windows reach before time 0, and in the last n-1, whose windows
    # reach past the last message.
    n, k = code.n, code.k
    for horizon in (0, 1, n):
        packets = de_encode(code, _messages(code.field, horizon, k, seed=horizon))
        last = len(packets)
        head, tail = set(range(min(k - 1, last))), set(range(max(last - n + 1, 0), last))
        for support in (set(), head, tail, head | tail, {0}, {last - 1}, set(range(last))):
            received = apply_erasures(packets, ErasurePattern.from_support(last, support))
            for tau in (0, n - 1):
                got = decode_erasures(_fresh(code), tau, received, horizon)
                want = _per_diagonal_decode(code, tau, received, horizon)
                assert _report_bytes(got) == _report_bytes(want), (horizon, sorted(support), tau)


def test_erasure_decision_memo_cap_keeps_reports(monkeypatch):
    # A full memo is cleared, so a memo of one or two entries churns on
    # nearly every erased message, and the reports must stay those of
    # the uncapped memo.
    cases = list(_random_erasure_decodes(F3, seed=7))
    uncapped = [_report_bytes(decode_erasures(_fresh(code), *rest)) for code, *rest in cases]
    for cap in (1, 2):
        monkeypatch.setattr(streaming, "_ERASURE_DECISION_CAP", cap)
        codes = {}
        capped = [_report_bytes(decode_erasures(codes.setdefault(code, _fresh(code)), *rest)) for code, *rest in cases]
        assert capped == uncapped
        assert all(len(code._erasure_decisions) <= cap for code in codes.values())


def test_erasure_decoder_asks_recovery_once_per_mask(monkeypatch):
    # The decisions share the pin readers of `_erasure_readers`, so
    # `code.recovery` runs once per distinct diagonal mask, through
    # decision misses and a churning memo alike.
    asked = []
    recovery = SystematicCode.recovery

    def counted(self, avail):
        asked.append(avail)
        return recovery(self, avail)

    monkeypatch.setattr(SystematicCode, "recovery", counted)
    cases = list(_random_erasure_decodes(F8, seed=11))
    for cap in (streaming._ERASURE_DECISION_CAP, 1):
        monkeypatch.setattr(streaming, "_ERASURE_DECISION_CAP", cap)
        for code in {case[0] for case in cases}:
            fresh = _fresh(code)
            asked.clear()
            for _, *rest in (case for case in cases if case[0] == code):
                decode_erasures(fresh, *rest)
            assert sorted(asked) == sorted(set(asked)) == sorted(fresh._erasure_readers)
            assert fresh._erasure_decisions


def test_erasure_decoder_rejects_conflicting_diagonal():
    # One corrupted parity symbol on a fully received diagonal of a [5,3]
    # MDS code breaks one of its two checks, over GF(2^3) and GF(7).
    cases = [
        # packet 5, symbol 4: parity 4 of diagonal 1
        ([(5, 4)], 1),
        # packet 3, symbol 4: parity 4 of diagonal -1, whose coordinate 0
        # is given as zero
        ([(3, 4)], -1),
        # packet 1, symbol 3: parity 3 of diagonal -2, two coordinates given
        ([(1, 3)], -2),
        # both diagonals conflict, and the first is named
        ([(5, 4), (3, 4)], -1),
    ]
    for field in (F8, F7):
        code = build_mds(5, 3, field)
        packets = de_encode(code, _messages(field, 6, 3, seed=12))
        for corrupt, first in cases:
            received = [list(pkt) for pkt in packets]
            for t, j in corrupt:
                received[t][j] = field.add(received[t][j], 1)
            with pytest.raises(RuntimeError, match=f"received symbols of diagonal {first} conflict"):
                decode_erasures(code, 4, [tuple(pkt) for pkt in received], 6)
            # The same corruption beside an erased packet is still seen.
            received[4] = None
            with pytest.raises(RuntimeError, match=f"received symbols of diagonal {first} conflict"):
                decode_erasures(code, 4, [pkt if pkt is None else tuple(pkt) for pkt in received], 6)


@pytest.mark.parametrize("tau", [-1, -3])
def test_erasure_decoder_rejects_negative_delay(tau):
    # At tau = -1 every message of a clean stream would be reported as a
    # deadline miss.
    code = build_mds(5, 3, F8)
    packets = de_encode(code, _messages(F8, 3, 3, seed=11))
    with pytest.raises(ValueError, match=f"tau must be nonnegative, got {tau}"):
        decode_erasures(code, tau, list(packets), 3)


# -- error decoding ---------------------------------------------------------------


def test_zero_error_pattern_decodes_identically():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 8, 3, seed=8)
    pattern = ErrorPattern.from_entries(12, 5, {})
    report = simulate(code, 4, ChannelModel.sw_err(1, 5), pattern, msgs)
    assert report.success and not report.ambiguities
    assert list(report.messages) == [tuple(u) for u in msgs]


def test_single_error_exact_recovery():
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 8, 3, seed=9)
    for t, row, val in ((0, 0, 1), (3, 2, 5), (7, 4, 7)):
        pkt = [0] * 5
        pkt[row] = val
        pattern = ErrorPattern.from_entries(12, 5, {t: tuple(pkt)})
        report = simulate(code, 4, ChannelModel.sw_err(1, 5), pattern, msgs)
        assert report.success and not report.ambiguities
        assert list(report.messages) == [tuple(u) for u in msgs]


def test_burst_error_exact_recovery():
    code = build_multi_burst(4, 2, 2, F8)
    msgs = _messages(F8, 8, 4, seed=10)
    pattern = ErrorPattern.from_entries(15, 8, {2: (0, 3, 0, 0, 0, 0, 0, 0), 3: (0, 0, 0, 0, 5, 0, 0, 0)})
    report = simulate(code, 6, ChannelModel.mbsw_err(1, 2, 7), pattern, msgs)
    assert report.success and not report.ambiguities
    assert list(report.messages) == [tuple(u) for u in msgs]


def test_code_below_doubled_budget_yields_ambiguity():
    # a single-parity [5,4] code fails the doubled erasure budget (the
    # pattern {0,1} hits one diagonal twice), so splitting that pattern
    # into two admissible error halves yields a received stream with two
    # valid explanations; the decoder must flag it, not pick one
    from streamfec.channel import erasure_to_error_split

    code = build_mds(5, 4, F8)
    n, k = 5, 4
    failing = ErasurePattern.from_support(8, {0, 1})
    e, e_tilde = erasure_to_error_split(failing, n)
    assert e.support == (0,) and e_tilde.support == (1,)
    msgs = [[0] * k] * 4
    packets = de_encode(code, msgs)
    received = apply_errors(code, packets, e)
    report = decode_errors(code, 4, received, 4, ChannelModel.sw_err(1, 5))
    assert report.ambiguities == (0,)
    assert not report.success
    # sanity: the competing explanation really is a codeword stream plus
    # the other half of the split (value-adjusted on its support)
    p_col = [code.P[i, 0] for i in range(k)]
    beta = F8.neg(F8.div(p_col[0], p_col[1]))
    alt = [[1, 0, 0, 0], [0, beta, 0, 0], [0] * 4, [0] * 4]
    alt_packets = de_encode(code, alt)
    assert alt_packets[0] == (1, 0, 0, 0, 0) == received[0]
    assert all(alt_packets[t] == (0,) * n == received[t] for t in range(2, 8))
    assert tuple(t for t in range(8) if alt_packets[t] != received[t]) == e_tilde.support


def test_ambiguity_halts_subsequent_decoding():
    code = build_mds(5, 4, F8)
    y_err = ErrorPattern.from_entries(8, 5, {0: (3, 0, 0, 0, 0)})
    packets = de_encode(code, [[0] * 4] * 4)
    received = apply_errors(code, packets, y_err)
    report = decode_errors(code, 4, received, 4, ChannelModel.sw_err(1, 5))
    assert report.failures == (0, 1, 2, 3)
    assert report.times == (None,) * 4


def test_past_error_rules_out_candidates_in_its_window():
    # [4,1] repetition over GF(2) at tau=1 sees two copies of u(t), so it
    # cannot tell an error at t from one at t+1 by itself.  The error at
    # 0 also hits the zero diagonal -2, so it is inferred, and with it in
    # the window [0, 2] only candidate {3} remains for u(2) under sw_err:1,3
    code = SystematicCode(field=F2, n=4, k=1, P=FieldMatrix(F2, [[1, 1, 1]]))
    msgs = [[1]] * 5
    pattern = ErrorPattern.from_entries(8, 4, {0: (1, 0, 1, 0), 3: (0, 1, 0, 0)})
    model = ChannelModel.sw_err(1, 3)
    assert model.admits(pattern)
    report = decode_errors(code, 1, apply_errors(code, de_encode(code, msgs), pattern), 5, model)
    assert report.success and not report.ambiguities
    assert list(report.messages) == [(1,)] * 5


def test_past_parity_error_rules_out_candidates_in_its_window():
    # The twin of the test above with the error at 0 on parity symbol 2
    # only: u(0) needs no correction, yet packet 0 was in error, and only
    # that inferred error leaves {3} the one candidate for u(2).
    code = SystematicCode(field=F2, n=4, k=1, P=FieldMatrix(F2, [[1, 1, 1]]))
    msgs = [[1]] * 5
    pattern = ErrorPattern.from_entries(8, 4, {0: (0, 0, 1, 0), 3: (0, 1, 0, 0)})
    model = ChannelModel.sw_err(1, 3)
    assert model.admits(pattern)
    report = decode_errors(code, 1, apply_errors(code, de_encode(code, msgs), pattern), 5, model)
    assert report.success and not report.ambiguities
    assert list(report.messages) == [(1,)] * 5


def test_over_budget_error_pattern_is_flagged_but_simulated():
    # Two errored packets in one window of sw_err:1,5, packets 3 and 4 of
    # the stream of a unit u_0(0): the received stream is that of another
    # u(0) with one error at packet 0, which the decoder accepts.  The
    # pattern is over the error budget, so `simulate` says so and does not
    # take the wrong value for an implementation defect.
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 8, 3, seed=13)
    unit = de_encode(code, [[1, 0, 0]] + [[0, 0, 0]] * 7)
    pattern = ErrorPattern.from_entries(12, 5, {3: unit[3], 4: unit[4]})
    report = simulate(code, 4, ChannelModel.sw_err(1, 5), pattern, msgs)
    assert not report.pattern_admissible
    assert json.loads(report.to_json())["pattern_admissible"] is False
    assert report.success and report.messages[0] != tuple(msgs[0])


def test_simulate_reports_the_decoders_report_and_its_own_verdict():
    # On random streams `simulate`'s report is the decoder's report on the
    # same received stream, apart from the model and the verdict on the
    # pattern, which only `simulate` knows.
    rng = random.Random(14)
    code = build_mds(5, 3, F8)
    models = (ChannelModel.sw(2, 5), None, ChannelModel.sw_err(1, 5))
    verdicts = set()
    for model in models:
        for _ in range(30):
            msgs = _messages(F8, 6, 3, seed=rng.randrange(1 << 30))
            packets = de_encode(code, msgs)
            support = [t for t in range(len(packets)) if rng.random() < 0.2]
            if model is not None and model.errors:
                entries = {t: tuple(rng.randrange(F8.q) for _ in range(5)) for t in support}
                pattern = ErrorPattern.from_entries(len(packets), 5, entries)
                bare = decode_errors(code, 4, apply_errors(code, packets, pattern), 6, model)
            else:
                pattern = ErasurePattern.from_support(len(packets), support)
                bare = decode_erasures(code, 4, apply_erasures(packets, pattern), 6)
                assert bare.params["model"] is None
            assert bare.pattern_admissible
            report = simulate(code, 4, model, pattern, msgs)
            admissible = model is None or model.admits(pattern)
            verdicts.add((model, admissible))
            expected = json.loads(bare.to_json())
            expected["params"]["model"] = None if model is None else model.to_dict()
            expected["pattern_admissible"] = admissible
            assert json.loads(report.to_json()) == expected
            assert report.messages == bare.messages
    # both verdicts occur under each model
    assert verdicts == {(models[0], True), (models[0], False), (None, True), (models[2], True), (models[2], False)}


@pytest.mark.parametrize("model", [ChannelModel.sw(2, 5), None, "sw_err:1,5"])
def test_error_decoder_requires_error_model(model):
    # None and a model's text raised AttributeError.
    code = build_mds(5, 3, F8)
    packets = de_encode(code, [[0] * 3] * 3)
    with pytest.raises(ValueError, match="^decode_errors needs an error-channel model$"):
        decode_errors(code, 4, packets, 3, model)
    with pytest.raises(ValueError, match="^error patterns need an error-channel model$"):
        equivalence_sweep(code, model, 4, 3, 0)


@pytest.mark.parametrize("tau", [-1, -3])
def test_error_decoder_rejects_negative_delay(tau):
    # At tau = -1 the decoder would trust packet t before it arrives and
    # report every message recovered at t - 1.
    code = build_mds(5, 3, F8)
    packets = de_encode(code, _messages(F8, 4, 3, seed=11))
    received = apply_errors(code, packets, ErrorPattern.from_entries(len(packets), 5, {}))
    with pytest.raises(ValueError, match=f"tau must be nonnegative, got {tau}"):
        decode_errors(code, tau, received, 4, ChannelModel.sw_err(1, 5))


@pytest.mark.parametrize("tau", [2.5, True], ids=repr)
@pytest.mark.parametrize("entry", ["simulate", "decode_erasures", "decode_errors", "equivalence_sweep"])
def test_tau_must_be_an_int(entry, tau):
    # Unchecked, the report printed "tau": 2.5 with "deadline": 2.5, or
    # "tau": true.
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 3, 3, seed=11)
    packets = de_encode(code, msgs)
    model = ChannelModel.sw_err(1, 5)
    calls = {
        "simulate": lambda: simulate(code, tau, model, ErrorPattern.from_entries(7, 5, {}), msgs),
        "decode_erasures": lambda: decode_erasures(code, tau, list(packets), 3),
        "decode_errors": lambda: decode_errors(code, tau, list(packets), 3, model),
        "equivalence_sweep": lambda: equivalence_sweep(code, model, tau, 3, seed=1),
    }
    with pytest.raises(ValueError, match=f"^tau must be an int, got {re.escape(repr(tau))}$"):
        calls[entry]()


# Malformed packets at time 2, each with the line that names it.  Unchecked,
# -1 came back as a recovered message value, a long packet as a clean stream,
# a short one as a halted error stream, and 9 raised IndexError; an int
# raised TypeError from len(), and a dict of 5 entries had its keys checked
# as the values.
MALFORMED_PACKETS = {
    "short": (lambda p: p[:4], r"received packet 2 must hold 5 symbols, got \(\d+, \d+, \d+, \d+\)$"),
    "long": (lambda p: p + (0,), r"received packet 2 must hold 5 symbols, got \(\d+, \d+, \d+, \d+, \d+, 0\)$"),
    "negative": (lambda p: (-1,) + p[1:], r"received packet 2: -1 is not a value of GF\(8"),
    "past-field": (lambda p: (9,) + p[1:], r"received packet 2: 9 is not a value of GF\(8"),
    "bool": (lambda p: (True,) + p[1:], r"received packet 2: True is not a value of GF\(8"),
    "erased": (lambda p: None, "received packet 2 must hold 5 symbols, got None"),
    "int": (lambda p: 5, "received packet 2 must hold 5 symbols, got 5$"),
    "dict": (lambda p: dict(enumerate(p)), r"received packet 2 must hold 5 symbols, got \{0: \d+, 1: "),
}


# None is an erased packet, which only an erasure stream may hold.
MALFORMED_CASES = [
    (decoder, name)
    for decoder in ("erasures", "errors")
    for name in MALFORMED_PACKETS
    if (decoder, name) != ("erasures", "erased")
]


@pytest.mark.parametrize("decoder, name", MALFORMED_CASES, ids=[f"{d}-{name}" for d, name in MALFORMED_CASES])
def test_decoders_reject_malformed_received(decoder, name):
    bad, message = MALFORMED_PACKETS[name]
    code = build_mds(5, 3, F8)
    packets = de_encode(code, [[1, 2, 3], [4, 5, 6], [7, 0, 1]])
    received = list(packets)
    received[2] = bad(received[2])
    with pytest.raises(ValueError, match=message):
        if decoder == "erasures":
            decode_erasures(code, 4, received, 3)
        else:
            decode_errors(code, 4, received, 3, ChannelModel.sw_err(1, 5))


@pytest.mark.parametrize("decoder", ["erasures", "errors"])
def test_decoders_reject_stream_of_wrong_length(decoder):
    code = build_mds(5, 3, F8)
    received = list(de_encode(code, [[1, 2, 3]] * 3))[:-1]
    with pytest.raises(ValueError, match="received stream must cover 7 packet times"):
        if decoder == "erasures":
            decode_erasures(code, 4, received, 3)
        else:
            decode_errors(code, 4, received, 3, ChannelModel.sw_err(1, 5))


@pytest.mark.parametrize("decoder", ["erasures", "errors", "sweep"])
def test_decoders_reject_negative_message_horizon(decoder):
    # An empty stream covers -4 + 5 - 1 = 0 packet times, so without the
    # check a [5,3] decode at horizon -4 reported success; the sweep
    # raised a ValueError that named the pattern enumeration's horizon.
    code = build_mds(5, 3, F8)
    model = ChannelModel.sw_err(1, 5)
    calls = {
        "erasures": lambda: decode_erasures(code, 4, [], -4),
        "errors": lambda: decode_errors(code, 4, [], -4, model),
        "sweep": lambda: equivalence_sweep(code, model, 4, -4, seed=1),
    }
    with pytest.raises(ValueError, match="^message_horizon must be nonnegative, got -4$"):
        calls[decoder]()


@pytest.mark.parametrize("decoder", ["erasures", "errors"])
@pytest.mark.parametrize("received", [None, 5, "abcdefg", iter([(0,) * 5] * 7)], ids=["None", "int", "str", "iter"])
def test_decoders_reject_received_that_is_no_tuple_or_list(decoder, received):
    code = build_mds(5, 3, F8)
    with pytest.raises(ValueError, match="^received stream must be a tuple or list of packets, got "):
        if decoder == "erasures":
            decode_erasures(code, 4, received, 3)
        else:
            decode_errors(code, 4, received, 3, ChannelModel.sw_err(1, 5))


@pytest.mark.parametrize("decoder", ["erasures", "errors", "sweep"])
@pytest.mark.parametrize("horizon", [3.5, 3.0, True, "3", None, 2.5])
def test_decoders_reject_message_horizon_that_is_no_int(decoder, horizon):
    # 3.5 once asked for a stream of 7.5 packet times, and True passed as
    # 1; the sweep raised TypeError from range() on 2.5.
    code = build_mds(5, 3, F8)
    received = list(de_encode(code, [[1, 2, 3]]))
    model = ChannelModel.sw_err(1, 5)
    calls = {
        "erasures": lambda: decode_erasures(code, 4, received, horizon),
        "errors": lambda: decode_errors(code, 4, received, horizon, model),
        "sweep": lambda: equivalence_sweep(code, model, 4, horizon, seed=1),
    }
    with pytest.raises(ValueError, match=re.escape(f"message_horizon must be an int, got {horizon!r}")):
        calls[decoder]()


def _random_error_decodes(field, seed):
    """`decode_errors` arguments (code, tau, received, message_horizon,
    model) on random, typically non-MDS codes over the field,
    with mostly inadmissible random error patterns, the last of them on
    parity symbols only, and fresh messages per decode.  tau runs past
    n-1, so windows at the tail are cut short."""
    rng = random.Random(seed)
    cases = []
    codes = []
    models = (ChannelModel.sw_err(1, 3), ChannelModel.sw_err(1, 4), ChannelModel.mbsw_err(1, 2, 5))

    def case(code, model, tau, horizon, rate, symbols):
        n, k = code.n, code.k
        packets = de_encode(code, _messages(field, horizon, k, seed=rng.randrange(1 << 30)))
        entries = {
            t: tuple(rng.randrange(field.q) if j in symbols else 0 for j in range(n))
            for t in range(horizon + n - 1)
            if rng.random() < rate
        }
        pattern = ErrorPattern.from_entries(horizon + n - 1, n, entries)
        return code, tau, apply_errors(code, packets, pattern), horizon, model

    for n, k in ((2, 1), (3, 2), (4, 2), (5, 4)):
        p = FieldMatrix(field, [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)])
        code = SystematicCode(field=field, n=n, k=k, P=p)
        codes.append(code)
        for model in models:
            for tau in (0, n - 1, n, n + 2):
                for horizon, rate in product((1, 3, 6), (0.15, 0.3)):
                    cases.append(case(code, model, tau, horizon, rate, range(n)))
    # Parity-only error packets, nonzero only on symbols j >= k: packet t
    # is in error although u(t) needs no correction.
    for code, model in product(codes, models):
        for tau in (code.n - 1, code.n + 2):
            for horizon in (3, 6):
                cases.append(case(code, model, tau, horizon, 0.3, range(code.k, code.n)))
    return cases


def _report_bytes(report):
    return report.to_json(), report.messages


def _fresh(code):
    # an equal code with empty memos
    return SystematicCode(field=code.field, n=code.n, k=code.k, P=code.P)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8], ids=lambda f: f"q{f.q}")
def test_error_decision_memo_cold_equals_warm(field):
    # Each report must not depend on what the decision memo already
    # holds: every decode with an empty memo equals the same decode
    # through a memo warmed by the earlier cases, and by all of them.
    cases = _random_error_decodes(field, seed=field.q)
    cold = [_report_bytes(decode_errors(_fresh(code), *rest)) for code, *rest in cases]
    reports = [decode_errors(*case) for case in cases]
    assert [_report_bytes(r) for r in reports] == cold
    rewarm = [_report_bytes(decode_errors(*case)) for case in reversed(cases)]
    assert rewarm[::-1] == cold
    # all three verdicts occur: exact, ambiguous, no consistent candidate
    assert any(r.success for r in reports)
    assert any(r.ambiguities for r in reports)
    assert any(r.failures and not r.ambiguities for r in reports)


def _window_candidate_decode(code, tau, received, message_horizon, model):
    """The error decoder without a memo: for each u(t), every candidate
    support in the window [t, wend] that is admissible with the near-past
    inferred errors is erased on every diagonal touching the window, and
    the diagonal's own recovery checks and pins are applied to its
    received symbols.  Returns (times, failures, ambiguities, messages)
    as `decode_errors` reports them."""
    n, k, f, w = code.n, code.k, code.field, model.w
    last = len(received) - 1
    subsets = [offs for size in range(tau + 2) for offs in combinations(range(tau + 1), size)]
    known = {}
    past, times, failures, ambiguities, messages = [], [], [], [], []
    halted = False
    for t in range(message_horizon):
        deadline = t + tau
        if halted:
            times.append(None)
            failures.append(t)
            messages.append(None)
            continue
        wend = min(deadline, last)
        near = [p for p in past if p > t - w]
        consistent = []
        for offs in subsets:
            cand = [t + o for o in offs]
            if cand and cand[-1] > wend or not windows_ok(near + cand, model.z, model.b, w):
                continue
            values = [None] * k
            for d in range(t - n + 1, wend + 1):
                given = min(max(t - d, 0), k)
                recv = [j for j in range(max(t - d, 0), min(n, wend - d + 1)) if d + j not in cand]
                checks, pins = code.recovery((1 << given) - 1 | sum(1 << j for j in recv))
                y = [known[d + i][i] if d + i >= 0 else 0 for i in range(given)] + [received[d + j][j] for j in recv]
                if any(_dot(f, c, y) for c in checks):
                    break
                if t - d in pins:
                    values[t - d] = _dot(f, pins[t - d][1], y)
            else:
                consistent.append(tuple(values))
        if len(set(consistent)) != 1 or None in consistent[0]:
            if consistent:
                ambiguities.append(t)
            times.append(None)
            failures.append(t)
            messages.append(None)
            halted = True
            continue
        known[t] = consistent[0]
        messages.append(consistent[0])
        times.append(wend)
        # packet t carries u(t) and parity j of diagonal t-j for j >= k
        sent = [code.encode([known[t - j + i][i] if t - j + i >= 0 else 0 for i in range(k)])[j] for j in range(k, n)]
        if tuple(received[t]) != consistent[0] + tuple(sent):
            past.append(t)
    return tuple(times), tuple(failures), tuple(ambiguities), tuple(messages)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8], ids=lambda f: f"q{f.q}")
def test_syndrome_verdicts_match_window_candidate_loop(field):
    # A memo miss decides from the key alone; the window candidate loop
    # above reads the received symbols instead, and every report must
    # agree with it, cold or warm.
    cases = _random_error_decodes(field, seed=field.q)
    reports = [decode_errors(_fresh(code), *rest) for code, *rest in cases] + [decode_errors(*case) for case in cases]
    for report, (code, tau, received, horizon, model) in zip(reports, cases + cases):
        expected = _window_candidate_decode(code, tau, received, horizon, model)
        assert (report.times, report.failures, report.ambiguities, report.messages) == expected
    # all three verdicts occur: exact, ambiguous, no consistent candidate
    assert any(r.success for r in reports)
    assert any(r.ambiguities for r in reports)
    assert any(r.failures and not r.ambiguities for r in reports)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8], ids=lambda f: f"q{f.q}")
def test_error_decoder_reads_its_windows_off_p(field, monkeypatch):
    # The window table is built from P alone: with the recovery core
    # unavailable, every decode on a cold memo still equals its decode
    # with it, over corrections, tail windows, ambiguities and streams
    # with no consistent candidate.
    cases = _random_error_decodes(field, seed=field.q)
    expected = [_report_bytes(decode_errors(_fresh(code), *rest)) for code, *rest in cases]

    def refuse(self, avail):
        raise AssertionError("the error decoder asked the recovery core")

    monkeypatch.setattr(SystematicCode, "recovery", refuse)
    assert [_report_bytes(decode_errors(_fresh(code), *rest)) for code, *rest in cases] == expected


def _window_avail(n, k, width, o):
    """The observed positions of window diagonal t+o, o in [1-n, width):
    its message positions before time t, then its positions in the
    window [t, t+width-1]."""
    first = max(-o, 0)
    return (1 << min(first, k)) - 1 | (1 << min(n, width - o)) - (1 << first)


def _residual_rows(code, avail):
    """The rows, over the observation of `avail` in ascending position
    order, of its parity residuals y_j - sum_i P[i][j] y_i, in ascending
    j, one per observed parity j."""
    f, n, k = code.field, code.n, code.k
    observed = [j for j in range(n) if avail >> j & 1]
    rows = []
    for j in observed:
        if j >= k:
            coeff = {i: f.neg(code.P[i, j - k]) for i in range(k)}
            coeff[j] = 1
            rows.append(tuple(coeff.get(pos, 0) for pos in observed))
    return tuple(rows)


def _residuals_by_encode(code, packets, p):
    """Packet p's parity residuals in ascending j: its symbol j minus
    parity j of the messages of diagonal p-j, re-encoded by `encode` from
    the packets' own message symbols, zero before time 0."""
    f, n, k = code.field, code.n, code.k
    out = []
    for j in range(k, n):
        u = [packets[p - j + i][i] if p - j + i >= 0 else 0 for i in range(k)]
        out.append(f.add(packets[p][j], f.neg(code.encode(u)[j])))
    return out


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F16], ids=lambda f: f"q{f.q}")
def test_window_checks_are_parity_residuals(field):
    # The lemma behind the residual syndrome: whenever a window diagonal
    # observes a parity it observes every message position, so the checks
    # `recovery` gives it are exactly the residuals of its observed
    # parities, in ascending j, on random (mostly non-MDS) codes and at
    # widths beyond n, where windows outgrow a diagonal.
    rng = random.Random(field.q)
    diagonals = 0
    for _ in range(12):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, n)
        p = FieldMatrix(field, [[rng.choice((0, 1, rng.randrange(field.q))) for _ in range(n - k)] for _ in range(k)])
        code = SystematicCode(field=field, n=n, k=k, P=p)
        for width in range(1, n + 4):
            for o in range(1 - n, width):
                avail = _window_avail(n, k, width, o)
                checks, _ = code.recovery(avail)
                assert checks == _residual_rows(code, avail)
                diagonals += 1
    assert diagonals > 400


@pytest.mark.parametrize("field", [F2, F3, F5, F7, F8, GF(256)], ids=lambda f: f"q{f.q}")
def test_residual_reader_matches_re_encode(field):
    # The residual reader over the zero-padded flat stream, read
    # at p*n, on random received streams (no codeword, so residuals are
    # nonzero), at every packet: those whose diagonals reach into the
    # zero padding before time 0, and the tail after the last message.
    rng = random.Random(field.q)
    for n, k in ((2, 1), (4, 1), (4, 3), (5, 3), (8, 4)):
        p = FieldMatrix(field, [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)])
        code = SystematicCode(field=field, n=n, k=k, P=p)
        reader = streaming._residual_reader(code)
        for horizon in (1, 3, 2 * n):
            packets = [tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(horizon + n - 1)]
            flat = streaming._check_received(code, packets, horizon, allow_erased=False)
            for at in range(len(packets)):
                assert reader.digits(reader.read(flat, at * n)) == _residuals_by_encode(code, packets, at)
        # a codeword stream has no residual anywhere
        packets = de_encode(code, _messages(field, 4, k, rng.randrange(1 << 30)))
        flat = streaming._check_received(code, packets, 4, allow_erased=False)
        assert not any(reader.read(flat, at * n) for at in range(len(packets)))


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8], ids=lambda f: f"q{f.q}")
def test_window_rows_decode_the_syndrome(field):
    # `_window` against the recovery core, for every support in the window
    # on random codes, through `_decide`'s verdict on the support alone,
    # so whatever shape the candidate rows take.  The syndrome is the
    # window packets' parity residuals, packet t's first, each re-encoded
    # here from a valid window observation (decoded messages before t,
    # whose parity symbols no residual of a window packet reads, so they
    # are random) plus a random error on the support.  Its untouched
    # digits vanish, the support is consistent on it, and it is ambiguous
    # exactly when erasing the support on some diagonal t-i leaves u_i(t)
    # unpinned, and otherwise corrects u(t) by minus its error, in error
    # iff packet t is; its first n-k digits, packet t's residuals, are the
    # error on packet t's parity symbols.  Half the codes have zero-heavy
    # P, whose zero rows of a block leave digits untouched, as does the
    # interleaved multi-burst code.
    rng = random.Random(field.q)
    codes = [build_multi_burst(2, 1, 2, field)]
    for (n, k), zero_heavy in product(((2, 1), (3, 1), (3, 2), (4, 2), (5, 3)), (False, True)):
        entries = [[rng.randrange(field.q) for _ in range(n - k)] for _ in range(k)]
        if zero_heavy:
            entries = [[rng.choice((0, 0, 1, v)) for v in row] for row in entries]
        codes.append(SystematicCode(field=field, n=n, k=k, P=FieldMatrix(field, entries)))
    for code in codes:
        n, k = code.n, code.k
        for width in range(1, n + 3):
            supports = [offs for size in range(width + 1) for offs in combinations(range(width), size)]
            rows = streaming._window(code, width, supports)
            assert list(rows) == supports
            t = n - 1
            streams = []
            for _ in range(3):
                msgs = _messages(field, t + width + n, k, rng.randrange(1 << 30))
                streams.append((msgs, de_encode(code, msgs)))
            for offs, candidate in rows.items():
                unpinned = []
                for i in range(k):
                    kept = [j for j in range(i, min(n, width + i)) if j - i not in offs]
                    _, pins = code.recovery((1 << i) - 1 | sum(1 << j for j in kept))
                    if i not in pins:
                        unpinned.append(i)
                for msgs, packets in streams:
                    errors = {o: [rng.randrange(field.q) for _ in range(n)] for o in offs}
                    # Packets 0, ..., t-1 as the decoder holds them:
                    # decoded messages, and parity symbols no window
                    # residual reads.
                    window = [tuple(u) + tuple(rng.randrange(field.q) for _ in range(n - k)) for u in msgs[:t]]
                    for o, packet in enumerate(packets[t : t + width]):
                        window.append(tuple(field.add(v, e) for v, e in zip(packet, errors.get(o, [0] * n))))
                    digits = [v for o in range(width) for v in _residuals_by_encode(code, window, t + o)]
                    untouched = candidate[0]
                    assert not any(digits[at] for at in range(len(digits)) if untouched >> at & 1)
                    error = errors.get(0, [0] * n)
                    verdict = streaming._decide([candidate], n - k, digits)
                    if unpinned:
                        assert verdict == streaming._AMBIGUOUS
                    else:
                        assert verdict == (tuple(field.neg(e) for e in error[:k]), any(error))
                    assert digits[: n - k] == error[k:]


def test_error_decoder_at_a_delay_past_the_stream():
    # No window outgrows the stream, so a delay far past it decodes as
    # the delay that reaches the last packet does; the decoder's powers
    # of the syndrome base go up to the widest window, not up to tau.
    code = build_mds(5, 3, F7)
    msgs = _messages(F7, 10, 3, seed=7)
    pattern = ErrorPattern.from_entries(14, 5, {1: (4, 0, 0, 0, 0), 6: (0, 0, 0, 2, 0), 11: (0, 5, 0, 0, 1)})
    received = apply_errors(code, de_encode(code, msgs), pattern)
    model = ChannelModel.sw_err(1, 5)
    reports = [decode_errors(code, tau, received, 10, model) for tau in (13, 10**6)]
    assert reports[0].messages == reports[1].messages == tuple(map(tuple, msgs))
    assert reports[0].times == reports[1].times == (13,) * 10


def _residual_reads(monkeypatch, code, tau, received, message_horizon, model):
    # The report, and the packets whose residuals the decoder read, in order.
    reads = []
    build = streaming._residual_reader

    def counted(code):
        read = build(code).read

        def read_packet(flat, at):
            reads.append(at // code.n)
            return read(flat, at)

        return SimpleNamespace(read=read_packet)

    monkeypatch.setattr(streaming, "_residual_reader", counted)
    report = decode_errors(_fresh(code), tau, received, message_horizon, model)
    return report, reads


def test_error_decoder_reads_each_packet_as_it_enters_the_window(monkeypatch):
    # A packet's residuals are read as it enters the window.  A nonzero
    # correction to u(t) changes what the residuals of packets t+1, ...,
    # t+n-1 read, so the next window is read again from packet t+1, by
    # the same entering read; after the last message nothing is read.
    code, messages, pattern = _wide_error_stream()
    model = ChannelModel.sw_err(1, 5)
    packets = de_encode(code, messages)
    for tau in (4, 6):
        report, reads = _residual_reads(monkeypatch, code, tau, packets, 10, model)
        assert report.success and reads == list(range(14))
    # u(1) is corrected on its window [1, 7] at tau = 6.
    report, reads = _residual_reads(monkeypatch, code, 6, apply_errors(code, packets, pattern), 10, model)
    assert report.success and reads == list(range(8)) + list(range(2, 14))
    # u(2) is corrected on its window [2, 6] at tau = 4, and u(9), the last
    # message, on [9, 13].
    pattern = ErrorPattern.from_entries(14, 5, {2: (0, 3, 0, 0, 0), 9: (5, 0, 0, 0, 0)})
    report, reads = _residual_reads(monkeypatch, code, 4, apply_errors(code, packets, pattern), 10, model)
    assert report.messages == tuple(map(tuple, messages))
    assert reads == list(range(7)) + list(range(3, 14))


def test_error_decision_memo_cap_keeps_reports(monkeypatch):
    # A full memo is cleared, so a memo of one or two entries churns on
    # every step, and the reports must stay those of the uncapped memo.
    cases = _random_error_decodes(F3, seed=7)
    uncapped = [_report_bytes(decode_errors(_fresh(code), *rest)) for code, *rest in cases]
    for cap in (1, 2):
        monkeypatch.setattr(streaming, "_DECISION_CAP", cap)
        codes = {}
        capped = [_report_bytes(decode_errors(codes.setdefault(code, _fresh(code)), *rest)) for code, *rest in cases]
        assert capped == uncapped
        assert all(len(tables.verdicts) <= cap for code in codes.values() for tables in code._error_decisions.values())


@pytest.mark.parametrize(
    "model",
    [ChannelModel.sw_err(1, 3), ChannelModel.sw_err(2, 5), ChannelModel.mbsw_err(1, 2, 5)],
    ids=["sw_err:1,3", "sw_err:2,5", "mbsw_err:1,2,5"],
)
def test_error_tables_candidates_match_subset_filter(model):
    # A context's candidates are the window rows whose supports are
    # admissible with its near-past errors.  Here every subset of the
    # window is tested on its own, and the candidates must be the very
    # rows of the window table, in the order of their flag sequences.
    rng = random.Random(11)
    p = FieldMatrix(F8, [[rng.randrange(8) for _ in range(2)] for _ in range(3)])
    code = SystematicCode(field=F8, n=5, k=3, P=p)
    tables = streaming._ErrorTables(code, model)
    z, b, w = model.z, model.b, model.w
    contexts = {}
    for mask in range(0, 1 << w, 2):
        near = [-d for d in range(w - 1, 0, -1) if mask >> d & 1]
        if windows_ok(near, z, b, w):
            contexts[mask] = near
    assert len(contexts) > 1
    for width in range(1, code.n + 3):
        subsets = [offs for size in range(width + 1) for offs in combinations(range(width), size)]
        subsets.sort(key=lambda offs: [int(a in offs) for a in range(width)])
        for mask, near in contexts.items():
            want = [offs for offs in subsets if windows_ok(sorted(near + list(offs)), z, b, w)]
            got = tables.candidates(width, mask)
            assert len(got) == len(want)
            assert all(row is tables.windows[width][offs] for row, offs in zip(got, want))


def test_one_error_table_serves_every_delay():
    # A verdict depends on tau only through the window width, so every
    # delay decodes through one `_ErrorTables` per (code, model), and the
    # decodes at other delays before it leave the pinned report as it is.
    for stream, model, taus, golden in [
        (_tall_error_stream, ChannelModel.sw_err(1, 3), (4, 20, 12), "error_decode_report_tall.json"),
        (_burst_error_stream, ChannelModel.mbsw_err(1, 2, 7), (6, 12, 9), "error_decode_report_burst.json"),
    ]:
        code, messages, pattern = stream()
        for tau in taus:
            report = simulate(code, tau, model, pattern, messages)
        assert report.to_json() == (GOLDEN / golden).read_text(encoding="utf-8")
        assert len(code._error_decisions) == 1


def test_error_value_grid_small_sweep():
    # subset of the exhaustive acceptance sweep: all single-slot errors on
    # a full basis of values at two representative times
    code = build_mds(5, 3, F8)
    msgs = _messages(F8, 6, 3, seed=11)
    model = ChannelModel.sw_err(1, 5)
    for t in (0, 4):
        for row in range(5):
            for val in range(1, 8):
                pkt = [0] * 5
                pkt[row] = val
                pattern = ErrorPattern.from_entries(10, 5, {t: tuple(pkt)})
                report = simulate(code, 4, model, pattern, msgs)
                assert report.success and not report.ambiguities


def test_burst_error_equivalence_full_sweep():
    # the 12 825-pattern mbsw_err:1,2,7 sweep of scripts/equivalence_sweep.py:
    # every single-burst error of unit values with support in [0, 4]
    res = equivalence_sweep(build_multi_burst(4, 2, 2, F8), ChannelModel.mbsw_err(1, 2, 7), 6, 5, seed=0)
    assert res == {"patterns": 12825, "exact": 12825, "ambiguities": 0}


@pytest.mark.parametrize("w", [3, 4])
def test_random_error_equivalence_small_windows(w):
    # the doubled-erasure equivalence at (a, w) in {(1,3), (1,4)}: DE of a
    # [w, w-2] MDS code corrects every single error per window, exactly
    code = build_mds(w, w - 2, GF(4))
    res = equivalence_sweep(code, ChannelModel.sw_err(1, w), w - 1, 6, seed=20 + w)
    # every (1, w)-admissible support in [0, 5] times the 3w unit values
    count = {3: 541, 4: 505}[w]
    assert res == {"patterns": count, "exact": count, "ambiguities": 0}


def test_burst_error_equivalence_reduced_sweep():
    # doubled-burst-capable [6,2] code over GF(4) handles every
    # single-burst error pattern with support in [0:3]: the stream-code
    # equivalence at (z, b, w) = (1, 2, 6), tau = w-1
    code = build_multi_burst(2, 2, 2, F4)
    model = ChannelModel.mbsw_err(1, 2, 6)
    msgs = _messages(F4, 6, 2, seed=12)
    values = []
    for row in range(6):
        for val in range(1, 4):
            pkt = [0] * 6
            pkt[row] = val
            values.append(tuple(pkt))
    supports = [()] + [(t,) for t in range(4)] + [(t, t + 1) for t in range(3)]
    checked = 0
    for support in supports:
        combos = product(values, repeat=len(support)) if len(support) < 2 else (
            (v1, v2) for v1 in values[::3] for v2 in values[1::3]
        )
        for combo in combos:
            pattern = ErrorPattern.from_entries(11, 6, dict(zip(support, combo)))
            report = simulate(code, 5, model, pattern, msgs)
            assert report.success and not report.ambiguities
            assert list(report.messages) == [tuple(u) for u in msgs]
            checked += 1
    assert checked == 181
