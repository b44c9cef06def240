"""Diagonal embedding of block codes into packet streams, and
delay-constrained decoding of erased or corrupted packets.

A diagonally embedded [n, k] stream is the block code's codewords laid
out on diagonals: the codeword of diagonal d encodes the message symbols
(u_0(d), u_1(d+1), ..., u_{k-1}(d+k-1)), and its symbol j goes into
packet d + j, so each packet erasure costs every affected codeword
exactly one symbol.  Message packets outside [0, T) are zero, so the
encoder is causal and the n-1 trailing packets complete the last
diagonals.  The encoder works a column at a time: the code's parity
reader, a `matrix.Packed`, sums the packed parities of every diagonal in
one pass per message column, each shifted to its place on the
diagonals, and splits out each parity's digit field in one pass more.

Both decoders read the received stream in one layout (`_check_received`),
where symbol j of diagonal d is at (d + n - 1)*n + j*(n + 1).

The erasure decoder asks the recovery core, `SystematicCode.recovery`,
one question of each diagonal codeword: are its unerased symbols
consistent with a codeword, and which coordinates do they fix, from
which position on?  The coordinates before time 0 are observed as the
zeros of the n-1 padding packets; a coordinate is recovered at the
diagonal's start plus its pin position.  The decoder slides a window
of n+k-1 arrival bits, one packet per diagonal, and a diagonal's mask
is a shift and a mask of it; the answer for each mask is kept per code
as `matrix.Packed` readers over the received stream: one for the
checks, and one per pin.  So a diagonal costs one lookup of its mask
and one packed read of its checks, a table lookup per observed symbol,
which must read zero.  An erased message u(t) lies on diagonals
t-k+1, ..., t, whose masks are all read off the window of packets
t-k+1, ..., t+n-1, so its decision, lost or its recovery delay and k
pin readers, is memoised per code under that window; it costs one
lookup and k packed reads.  Packets recovered earlier carry no extra
information for later ones beyond what the received symbols already
determine, so per-diagonal solving realizes sequential (peeling)
recovery exactly.

The error decoder is the reference exhaustive one, and it is syndrome
decoding.  To decode u(t) it assumes all earlier messages are known
(sequential recovery), and its syndrome is the parity residuals of the
window [t, t+tau]'s packets: parity j of packet p minus parity j
re-encoded from the messages of diagonal p-j.  The decoder reads a
packet's n-k residuals when the packet enters the window, with one
`matrix.Packed` read (`_residual_reader`, built once per memo) over
the received stream, over whose message symbols each decoded u(t) is
written.  The syndrome is the base-q^(n-k) integer of the window's
packets, packet t most significant, so it slides by one packet per
message; after a nonzero correction, which changes what the residuals
of packets t+1, ..., t+n-1 read, the next window is read afresh from
packet t+1, each packet again as it enters.

It then enumerates every candidate set S of error times inside the
window that is jointly admissible with the already-inferred past errors.
An error on a parity symbol changes its own residual alone, and an error
on u_i(p) only the residuals of diagonal p-i, through row i of P.  So S
is consistent when, on each diagonal that holds a message S erases, the
residuals of its unerased window parities are P's block on those
messages times some correction (`_block`), and every other residual
outside S's packets is zero; S fixes u(t) when the block of each
diagonal t-i determines the correction to u_i(t).  All consistent
candidates must agree on u(t); disagreement (or an underdetermined u(t))
is reported as an ambiguity, never silently resolved.  Packet t was in
error iff u(t) needed a correction or one of its own residuals, the
syndrome's first n-k digits, is nonzero.

So the decision, the correction to u(t) and whether packet t was in
error, depends on the window only through its syndrome, and it is
memoised under (window width, near-past error offsets, window
syndrome).  A new key is decided from the key alone: its digits are
unpacked from it, each candidate of its (width, near-past offsets)
context is a set of one-form `matrix.Packed` readers over those digits,
its checks and its corrections, read off P once per width (`_window`),
and no received packet is read.

The stream is its tuple of packets, and a channel realization is
applied at its pattern's support: `apply_erasures` and `apply_errors`
copy the packets and rewrite only the pattern's times inside the stream.
Both decoders read only the received stream, as a receiver does;
`simulate`, which applies the realization, alone judges it and sets the
report's `pattern_admissible` and `params["model"]`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product
from typing import Iterable, Sequence

from .block_code import SystematicCode
from .channel import ChannelModel, ErasurePattern, ErrorPattern, _check_count, _supports, windows_ok
from .matrix import Packed, _digits_of, _rref, add, form


@dataclass(frozen=True)
class DecodeReport:
    """One decoded stream: times[t] is the packet time at which message t
    was recovered, or None, and its deadline is t + params["tau"].  A
    decoder reports `pattern_admissible` True, as it never sees the
    pattern; `simulate` replaces it, and `params["model"]`, with its
    verdict."""

    params: dict
    times: tuple[int | None, ...]
    pattern_admissible: bool
    ambiguities: tuple[int, ...]
    messages: tuple[tuple[int, ...] | None, ...] = dc_field(compare=False, default=())

    @cached_property
    def failures(self) -> tuple[int, ...]:
        """The message times not recovered by their deadlines."""
        tau = self.params["tau"]
        return tuple(t for t, time in enumerate(self.times) if time is None or time > t + tau)

    @property
    def success(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        obj = {
            "params": self.params,
            "per_packet": [
                {"t": t, "recovered": time is not None, "time": time, "deadline": t + self.params["tau"]}
                for t, time in enumerate(self.times)
            ],
            "success": self.success,
            "failures": list(self.failures),
            "pattern_admissible": self.pattern_admissible,
            "ambiguities": list(self.ambiguities),
        }
        return json.dumps(obj, indent=2)


def de_encode(code: SystematicCode, messages: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The stream's T + n - 1 packets, a tuple of n-symbol tuples: diagonal
    d carries the codeword of (u_0(d), ..., u_{k-1}(d+k-1)), with message
    packets outside [0, T) zero, and its symbol j goes into packet d + j.
    Diagonals before 1-k or from T on are all zero.

    The stream is computed column by column: parity j of diagonal d is
    sum_i P[i][j] u_i(d+i), so the code's parity reader reads message
    column i shifted by i, and its `read_columns` gives every parity of
    every diagonal at once; packet t's symbol j is entry t - j of
    column j."""
    f = code.field
    n, k = code.n, code.k
    msgs = tuple(map(tuple, messages))
    f.check_all([v for u in msgs for v in u])
    if any(len(u) != k for u in msgs):
        raise ValueError(f"every message packet must have {k} symbols")
    columns = list(zip(*msgs)) or [()] * k
    # Entry d + k - 1 of shifted column i is u_i(d+i), for d in [1-k, T).
    shifted = [[0] * (k - 1 - i) + list(c) + [0] * i for i, c in enumerate(columns)]
    tail = [0] * (n - 1)
    symbols = [list(c) + tail for c in columns]
    for s, parity in enumerate(code._parity_reader.read_columns(shifted)):
        symbols.append([0] * (s + 1) + parity + tail[k + s :])
    return tuple(zip(*symbols))


def _check_received(code: SystematicCode, received: Sequence, message_horizon: int, allow_erased: bool) -> list[int]:
    """The received stream laid out flat, once it is checked: n-1 zero
    packets for the times before 0, then every packet's n values in
    packet order, an erased packet as n zeros.  Packet p starts at
    (p + n - 1)*n, so symbol j of diagonal d is at
    (d + n - 1)*n + j*(n + 1).  The stream covers packet times
    [0, message_horizon + n - 2], and each packet is a tuple or list of n
    field values, or None (erased) where `allow_erased`.  A malformed
    stream raises ValueError naming the first bad packet time.  The
    stream itself must be a tuple or list, and message_horizon exactly an
    int (not a bool or a float)."""
    n = code.n
    _check_count("message_horizon", message_horizon)
    if not isinstance(received, (tuple, list)):
        raise ValueError(f"received stream must be a tuple or list of packets, got {type(received).__name__}")
    if len(received) != message_horizon + n - 1:
        raise ValueError(f"received stream must cover {message_horizon + n - 1} packet times")
    flat = [0] * ((n - 1) * n)
    erased = [0] * n
    for t, packet in enumerate(received):
        if packet is None and allow_erased:
            flat += erased
            continue
        if not isinstance(packet, (tuple, list)) or len(packet) != n:
            raise ValueError(f"received packet {t} must hold {n} symbols, got {packet!r}")
        flat += packet
    try:
        code.field.check_all(flat)
    except ValueError:
        for t, packet in enumerate(received):
            try:
                code.field.check_all(packet or ())
            except ValueError as exc:
                raise ValueError(f"received packet {t}: {exc}")
    return flat


def _erasure_reader(code: SystematicCode, avail: int) -> tuple[Packed, dict[int, tuple[int, Packed]]]:
    """The `recovery` answer for a diagonal whose observed positions are
    the bitmask `avail`: its checks, and each pin's position and form,
    packed over the received stream read at diagonal d's offset
    (d + n - 1)*n, where its symbol j is entry j*(n+1)."""
    n, f = code.n, code.field
    checks, pins = code.recovery(avail)
    at = [j * (n + 1) for j in range(n) if avail >> j & 1]
    return (
        Packed(f, [form(f, c, at) for c in checks]),
        {i: (position, Packed(f, [form(f, row, at)])) for i, (position, row) in pins.items()},
    )


def _residual_reader(code: SystematicCode) -> Packed:
    """The parity residuals of one packet p, as one reader of n-k forms
    over the received stream read at offset p*n, where packet p starts at
    entry (n-1)*n: residual j-k, in ascending j, is packet p's symbol j
    minus parity j re-encoded from the messages of diagonal p-j,
    y_j(p) - sum_i P[i][j] u_i(p-j+i), with u_i(p-j+i) at entry
    (n-1-j+i)*n + i."""
    f, n, k = code.field, code.n, code.k
    base = (n - 1) * n
    return Packed(
        f,
        [
            form(f, [f.neg(v) for v in col] + [1], [base - (j - i) * n + i for i in range(k)] + [base + j])
            for j, col in zip(range(k, n), zip(*code.P.data))
        ],
    )


# The erasure decoder's decision memo keeps at most this many decisions
# per code and is cleared when full.  An entry is its (n+k-1)-bit window
# key, its dict slot and a (delay, pins) pair whose k readers are shared
# with `SystematicCode._erasure_readers`: about 250 B for k = 5, so a full
# memo holds about 1 MiB.
_ERASURE_DECISION_CAP = 1 << 12


def _erasure_decision(code: SystematicCode, window: int) -> tuple[int, tuple[Packed, ...]] | None:
    """The decision on an erased message u(t) whose arrivals are the
    (n+k-1)-bit `window`, bit j set iff packet t-k+1+j arrived: None when
    some u_i(t) has no pin on diagonal t-i, whose mask is
    window >> k-1-i, else (delay, pins), u(t) being recovered at t + delay
    and u_i(t) being pins[i] read at diagonal t-i's offset.  The pins are
    those of `code._erasure_readers`, which holds every diagonal's mask by
    the time its last message is decided."""
    n, k = code.n, code.k
    full = (1 << n) - 1
    readers = code._erasure_readers
    delay = 0
    pins = []
    for i in range(k):
        pin = readers[window >> k - 1 - i & full][1].get(i)
        if pin is None:
            return None
        position, reader = pin
        delay = max(delay, position - i)
        pins.append(reader)
    return delay, tuple(pins)


def decode_erasures(
    code: SystematicCode,
    tau: int,
    received: Sequence[tuple[int, ...] | None],
    message_horizon: int,
) -> DecodeReport:
    """Recover erased message packets, each by its deadline t + tau.

    `received` covers packet times [0, message_horizon + n - 2] with None
    for erased packets.  Every message coordinate is solved within its
    own diagonal codeword from symbols received by the deadline; the
    report records the earliest packet time at which each message packet
    became fully determined.

    The arrivals of packets d-k+1, ..., d+n-1 are a window of n+k-1
    bits that slides by one packet per diagonal d, the zero packets
    before time 0 counted as arrived, so the decode is linear in the
    horizon.  Diagonal d's observed mask is a shift and a mask of the
    window; its checks and pins are built as `matrix.Packed` readers
    once per mask and code (`_erasure_reader`), and read at offset
    (d + n - 1)*n of the received stream.  Every diagonal's checks must
    read zero, or the stream is not a valid one and this raises
    RuntimeError naming the first diagonal that does not.  Message t is
    decided right after diagonal t, the last it lies on, is checked.  An
    erased one is decided by its window, which fixes the masks of
    diagonals t-k+1, ..., t: the decision, None (lost) or its recovery
    delay and the pin readers of those diagonals (`_erasure_decision`),
    is memoised per code under the window, and each pin is read at its
    diagonal's offset.  The memo holds at most `_ERASURE_DECISION_CAP`
    = 2^12 decisions, about 1 MiB, and is cleared when full.
    """
    _check_count("tau", tau)
    n, k = code.n, code.k
    flat = _check_received(code, received, message_horizon, allow_erased=True)

    # Bit j of the window is set iff packet d-k+1+j arrived, while
    # diagonal d is checked: the window covers packets d-k+1, ..., d+n-1,
    # the packets of diagonals d-k+1, ..., d, and packet d+n-1 enters it
    # at bit `top` as it slides.  Packets before time 0 arrived, as the
    # zeros of the padding; arrivals[p + 2k-2] is packet p's bit, from
    # p = 2-2k on.  The window starts as diagonal -k's.
    arrivals = [1] * (2 * k - 2) + [pkt is not None for pkt in received]
    top = n + k - 2
    window = sum(bit << j + 1 for j, bit in enumerate(arrivals[:top]))
    full = (1 << n) - 1
    readers = code._erasure_readers
    decisions = code._erasure_decisions
    times: list[int | None] = []
    messages_out: list[tuple[int, ...] | None] = []
    for d in range(1 - k, message_horizon):
        window = window >> 1 | arrivals[d + top + k - 1] << top
        avail = window >> k - 1 & full
        reader = readers.get(avail)
        if reader is None:
            reader = readers[avail] = _erasure_reader(code, avail)
        at = (d + n - 1) * n
        if reader[0].read(flat, at):
            raise RuntimeError(f"received symbols of diagonal {d} conflict; a valid stream cannot")
        if d < 0:
            continue
        # Diagonal t = d is the last that message t lies on.
        t = d
        if avail & 1:
            times.append(t)
            messages_out.append(tuple(received[t][:k]))
            continue
        try:
            decision = decisions[window]
        except KeyError:
            if len(decisions) >= _ERASURE_DECISION_CAP:
                decisions.clear()
            decision = decisions[window] = _erasure_decision(code, window)
        if decision is None:
            times.append(None)
            messages_out.append(None)
            continue
        delay, pins = decision
        times.append(t + delay)
        # Pin i is diagonal t-i's, read at that diagonal's offset.
        messages_out.append(tuple([pin.read(flat, at - i * n) for i, pin in enumerate(pins)]))

    return DecodeReport(
        params=_report_params(code, tau, None, message_horizon),
        times=tuple(times),
        pattern_admissible=True,
        ambiguities=(),
        messages=tuple(messages_out),
    )


# The error decoder's decision memo keeps at most this many verdicts per
# (code, tau, model) and is cleared when full.  An entry is its packed key
# and its dict slot (equal verdicts share one pair through `shared`):
# about 80 B for the burst sweep's 94-bit keys, plus 4 B per 30 more key
# bits, so a full memo of such keys holds about 2.5 MiB.
_DECISION_CAP = 1 << 15
# Verdicts other than a (correction, packet in error) pair.
_NO_CANDIDATE = "no consistent candidate"
_AMBIGUOUS = "ambiguous"


def _window(code: SystematicCode, width: int, candidates: Iterable[tuple[int, ...]]) -> dict:
    """Each candidate error support (offsets in the window) of a
    width-slot window [t, t+width-1], as rows over the digits of the
    window syndrome: the n-k parity residuals of each window packet
    (`_residual_reader`), packet t's first, so residual
    j-k of packet t+a is digit a*(n-k) + j-k.

    A candidate is tested only on the diagonals that hold a message it
    erases, each by the `_block` of the diagonal's offset and the
    positions it erases there, built once per call and shared by the
    candidates that erase the same positions.

    A candidate is (untouched, checks, corrections).  `untouched` is the
    bitmask of the digits outside its packets that no block of it reads,
    which must all be zero; `checks` are `matrix.Packed` readers of one
    form each over the digits, which must all read zero; corrections[i]
    is the one-form reader giving coordinate i of the correction to
    u(t), and `corrections` is None when the candidate leaves some u_i(t)
    unpinned.  A one-form reader reads its form through the field's
    product tables, which every reader shares, so a candidate holds no
    table of its own: a reader of all its checks at once would hold a
    table of q values per digit it reads, which over GF(256) multiplies
    the decoder's memory several times over."""
    n, k, f = code.n, code.k, code.field
    r = n - k
    zero = Packed(f, [])
    blocks = {}
    table = {}
    for offs in candidates:
        untouched = (1 << width * r) - 1
        for a in offs:
            untouched &= ~(((1 << r) - 1) << a * r)
        checks: list[Packed] = []
        corrections: list[Packed | None] = [zero] * k
        for o in {a - i for a in offs for i in range(k)}:
            erased = tuple(j for j in range(n) if o + j in offs)
            block = blocks.get((o, erased))
            if block is None:
                block = blocks[o, erased] = _block(code, width, o, erased)
            reads, block_checks, pin = block
            untouched &= ~reads
            checks += block_checks
            # Position -o of diagonal t+o is u_{-o}(t), erased iff offset 0 is.
            if -o in erased:
                corrections[-o] = pin
        table[offs] = (untouched, tuple(checks), None if None in corrections else tuple(corrections))
    return table


def _block(
    code: SystematicCode, width: int, o: int, erased: tuple[int, ...]
) -> tuple[int, tuple[Packed, ...], Packed | None]:
    """The test of window diagonal t+o, whose positions `erased`, a
    message among them, a candidate erases: (reads, checks, pin) over the
    window syndrome's digits, parity j's residual being digit
    (o+j)*(n-k) + j-k.

    A correction g_i to each erased message i changes the residual of
    each unerased window parity j by sum_i P[i][j] g_i, and the candidate
    explains those residuals iff they are M g for some g, M holding P's
    entries of the erased messages (columns) and those parities (rows).
    A parity whose row of M is zero is left to `untouched`, and `reads`
    masks the others.  Reducing [M | I] gives the checks, the records of
    the rows that vanish on M, and the first column's pin: its pivot row,
    when that row vanishes on every other column, whose record reads
    that column's correction off the syndrome; otherwise None.  When
    offset 0 is erased, the first column is u_{-o}(t)."""
    f, n, k, P = code.field, code.n, code.k, code.P
    columns = [i for i in erased if i < k]
    rows = [j for j in range(max(k, -o), min(n, width - o)) if j not in erased and any(P[i, j - k] for i in columns)]
    digits = [(o + j) * (n - k) + j - k for j in rows]
    e = len(columns)
    aug = [[P[i, j - k] for i in columns] + [int(l == m) for m in range(len(rows))] for l, j in enumerate(rows)]
    reduced, pivots = _rref(f, aug, e)
    pin = reduced[0] if pivots[:1] == [0] and not any(reduced[0][1:e]) else None
    return (
        sum(1 << at for at in digits),
        tuple(Packed(f, [form(f, row[e:], digits)]) for row in reduced[len(pivots) :]),
        None if pin is None else Packed(f, [form(f, pin[e:], digits)]),
    )


def _decide(
    candidates: list[tuple[int, tuple[Packed, ...], tuple[Packed, ...] | None]], r: int, s: list[int]
) -> str | tuple[tuple[int, ...], bool]:
    """The verdict on the window syndrome with digits s, given the rows of
    its context's candidates (see `_window`), whose first r = n-k digits
    are packet t's parity residuals: _NO_CANDIDATE, _AMBIGUOUS, or
    (g, in_error), with u(t) equal to received u(t) + g, and in_error
    telling whether packet t was in error: g is nonzero or some parity
    residual is."""
    nonzero = sum(1 << at for at, v in enumerate(s) if v)
    agreed = None
    for untouched, checks, corrections in candidates:
        if nonzero & untouched or any(c.read(s) for c in checks):
            continue
        if corrections is None:
            return _AMBIGUOUS
        g = tuple(c.read(s) for c in corrections)
        if agreed is None:
            agreed = g
        elif g != agreed:
            return _AMBIGUOUS
    if agreed is None:
        return _NO_CANDIDATE
    return agreed, any(agreed) or any(s[:r])


def decode_errors(
    code: SystematicCode,
    tau: int,
    received: Sequence[tuple[int, ...]],
    message_horizon: int,
    model: ChannelModel,
) -> DecodeReport:
    """Reference exhaustive decoder for additive packet errors.

    Decodes messages in time order.  For u(t), every candidate error
    support inside [t, t+tau] that is admissible together with the
    already-inferred past errors is tried: its positions are treated as
    erased and the remaining window symbols must be linearly consistent
    with some message continuation.  The unique agreed value is
    accepted; disagreement or an underdetermined u(t) becomes an
    ambiguity record and decoding halts there.

    The decision is memoised per (code, tau, model) under (window width,
    near-past error offsets, window syndrome).  The syndrome is the
    window packets' parity residuals, packet t's first, as one base-q
    integer: packet p's n-k residuals are read by `_residual_reader` at
    offset p*n of the received stream when packet p enters the window,
    and the key slides by one packet per message.  A nonzero correction
    is written over packet t's message symbols, and the next window is
    read afresh from packet t+1.  A miss is decided from the key alone,
    its digits unpacked from the syndrome, by the candidates' blocks of
    P (`_window`).  The width and near-past offsets fix the
    admissible candidates, so the key fixes the verdict and the
    correction to u(t) exactly; it also fixes whether packet t was in
    error, through packet t's residuals, the syndrome's first n-k digits.
    The memo holds at most `_DECISION_CAP` = 2^15 verdicts, about 2.5 MiB
    with the burst sweep's 94-bit keys, and is cleared when full.
    """
    _check_count("tau", tau)
    if not isinstance(model, ChannelModel) or not model.errors:
        raise ValueError("decode_errors needs an error-channel model")
    n, k, f = code.n, code.k, code.field
    w = model.w
    flat = _check_received(code, received, message_horizon, allow_erased=False)
    last = len(received) - 1

    memo = code._error_decisions.get((tau, model))
    if memo is None:
        memo = code._error_decisions[tau, model] = ({}, {}, {}, {}, _residual_reader(code), [1])
    windows, contexts, verdicts, shared, reader, power = memo
    residuals = reader.read
    # The syndrome of [t, wend] is base Q = q^(n-k), packet p's residuals
    # its digit wend - p; power[e] = Q^e, up to the widest window's width.
    r = n - k
    Q = f.q**r
    while len(power) <= min(tau, last) + 1:
        power.append(power[-1] * Q)
    # Width and near-past offsets fill the key's low bits.
    low_bits = w + (tau + 1).bit_length()

    # Bit d is set iff packet t - d, 0 < d < w, was inferred in error.
    near_past = 0
    times: list[int | None] = []
    ambiguities: list[int] = []
    messages_out: list[tuple[int, ...] | None] = []

    wend = -1
    syndrome = 0
    for t in range(message_horizon):
        # Packet t-1 leaves the window (every packet, after a correction),
        # and the packets up to t+tau enter it while the stream lasts.
        syndrome %= power[wend - t + 1]
        while wend < t + tau and wend < last:
            wend += 1
            syndrome = syndrome * Q + residuals(flat, wend * n)
        width = wend - t + 1
        key = syndrome << low_bits | width << w | near_past
        verdict = verdicts.get(key)
        if verdict is None:
            # A miss is decided from the key alone: the candidates of its
            # (width, near-past offsets) context, tested on its syndrome.
            candidates = contexts.get((width, near_past))
            if candidates is None:
                rows = windows.get(width)
                if rows is None:
                    rows = windows[width] = _window(code, width, _supports(model.z, model.b, w, width - 1))
                near = [-d for d in range(w - 1, 0, -1) if near_past >> d & 1]
                candidates = contexts[width, near_past] = [
                    rows[offs] for offs in rows if not near or windows_ok(near + list(offs), model.z, model.b, w)
                ]
            verdict = _decide(candidates, r, _digits_of(syndrome, f.q, width * r))
            if len(verdicts) >= _DECISION_CAP:
                verdicts.clear()
                shared.clear()
            verdict = verdicts[key] = shared.setdefault(verdict, verdict)

        if verdict is _NO_CANDIDATE or verdict is _AMBIGUOUS:
            # No consistent candidate means the actual pattern violates the
            # declared model; disagreeing candidates or an underdetermined
            # u(t) is an ambiguity.  Nothing sound can be decoded from here on.
            if verdict is _AMBIGUOUS:
                ambiguities.append(t)
            times += [None] * (message_horizon - t)
            messages_out += [None] * (message_horizon - t)
            break
        correction, in_error = verdict
        at = (t + n - 1) * n
        times.append(wend)
        if any(correction):
            # Later windows read u(t) from packet t's message symbols, so
            # the next window is read afresh from packet t+1; u(t)'s
            # recovery time, the old wend, is already recorded.
            flat[at : at + k] = add(f, flat[at : at + k], correction)
            wend = t
        messages_out.append(tuple(flat[at : at + k]))
        near_past = ((near_past | in_error) << 1) & ((1 << w) - 1)

    return DecodeReport(
        params=_report_params(code, tau, model, message_horizon),
        times=tuple(times),
        pattern_admissible=True,
        ambiguities=tuple(ambiguities),
        messages=tuple(messages_out),
    )


def _report_params(code: SystematicCode, tau: int, model: ChannelModel | None, t_msgs: int) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "field": code.field.to_dict(),
        "tau": tau,
        "model": model.to_dict() if model is not None else None,
        "message_horizon": t_msgs,
    }


def apply_erasures(packets: Sequence, pattern: ErasurePattern) -> list[tuple[int, ...] | None]:
    """A copy of the packets with None at each erasure time; times past
    the stream are ignored."""
    received = list(packets)
    for t in pattern.support:
        if t < len(received):
            received[t] = None
    return received


def apply_errors(code: SystematicCode, packets: Sequence, pattern: ErrorPattern) -> list[tuple[int, ...]]:
    """A copy of the packets with each packet at a nonzero error packet's
    time replaced by their sum over the code's field; times past the
    stream are ignored.  Each error packet must be n field values."""
    if pattern.packet_size != code.n:
        raise ValueError("error packet size must equal the code length")
    code.field.check_all([v for t in pattern.support for v in pattern.packets[t]])
    received = list(packets)
    for t in pattern.support:
        if t < len(received):
            received[t] = tuple(add(code.field, received[t], pattern.packets[t]))
    return received


def simulate(
    code: SystematicCode,
    tau: int,
    model: ChannelModel | None,
    pattern: ErasurePattern | ErrorPattern,
    messages: Sequence[Sequence[int]],
) -> DecodeReport:
    """Encode, apply the channel realization, decode, and report.

    Deterministic given its inputs.  The decoder sees only the received
    stream; this judges the pattern against the declared model (None
    admits every pattern) and puts the verdict and the model on the
    report.  When the pattern is admissible, decoded values are checked
    against the messages; a mismatch would be an implementation defect
    and raises.
    """
    if not isinstance(pattern, (ErasurePattern, ErrorPattern)):
        raise TypeError(f"unsupported pattern type {type(pattern).__name__}")
    _check_count("tau", tau)
    messages = tuple(map(tuple, messages))
    packets = de_encode(code, messages)
    if max(pattern.support, default=-1) >= len(packets):
        raise ValueError(f"pattern support {pattern.support} reaches past the last packet time {len(packets) - 1}")
    if isinstance(pattern, ErasurePattern):
        if model is not None and model.errors:
            raise ValueError(f"erasure patterns need an erasure-channel model, got {model.kind}")
        received = apply_erasures(packets, pattern)
        report = decode_erasures(code, tau, received, len(messages))
    else:
        if model is None or not model.errors:
            raise ValueError("error patterns need an error-channel model")
        received = apply_errors(code, packets, pattern)
        report = decode_errors(code, tau, received, len(messages), model)
    admissible = model is None or model.admits(pattern)
    params = {**report.params, "model": None if model is None else model.to_dict()}
    report = DecodeReport(params, report.times, admissible, report.ambiguities, report.messages)
    if admissible:
        for t, val in enumerate(report.messages):
            if val is not None and val != messages[t]:
                raise RuntimeError(
                    f"decoded value for packet {t} disagrees with the encoded message; "
                    "this is an implementation defect"
                )
    return report


def equivalence_sweep(
    code: SystematicCode, model: ChannelModel, tau: int, message_horizon: int, seed: int
) -> dict:
    """Decode every error pattern of the error model whose support lies in
    [0, message_horizon - 1], with each error packet one of the unit
    error values (a single nonzero symbol).  The supports are those the
    error model admits.  Messages are drawn from `seed`.  Returns
    {"patterns", "exact", "ambiguities"}; the paper's equivalence holds on
    the sweep when every pattern decodes exactly.  The messages are
    encoded once and every pattern decodes that stream.
    """
    _check_count("tau", tau)
    _check_count("message_horizon", message_horizon)
    if not isinstance(model, ChannelModel) or not model.errors:
        raise ValueError("error patterns need an error-channel model")
    f, n = code.field, code.n
    rng = random.Random(seed)
    messages = tuple(tuple(rng.randrange(f.q) for _ in range(code.k)) for _ in range(message_horizon))
    packets = de_encode(code, messages)
    values = [tuple(s if j == pos else 0 for j in range(n)) for pos in range(n) for s in range(1, f.q)]
    patterns = exact = ambiguities = 0
    for support in _supports(model.z, model.b, model.w, message_horizon - 1):
        for combo in product(values, repeat=len(support)):
            pattern = ErrorPattern.from_entries(message_horizon, n, dict(zip(support, combo)))
            report = decode_errors(code, tau, apply_errors(code, packets, pattern), message_horizon, model)
            patterns += 1
            exact += report.success and report.messages == messages
            ambiguities += len(report.ambiguities)
    return {"patterns": patterns, "exact": exact, "ambiguities": ambiguities}
