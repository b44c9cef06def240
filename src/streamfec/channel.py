"""Adversarial sliding-window channel models and their pattern spaces.

Erasure patterns are 0/1 flag sequences over a finite horizon; windows
that overhang the horizon are zero-padded, matching a semi-infinite
channel observed over a finite prefix.

Every model is a (z, b, w) window constraint: the points of every window
of w slots must be coverable by at most z disjoint intervals of length
<= b ("bursts"; a burst may contain unerased slots).  The constraint
applies to erasure times, or for the *_err kinds to the times of nonzero
packet errors.  The random model (a, w)-SW, at most a points per window,
is exactly (a, 1, w)-MBSW, because a length-1 burst covers one point.
So the four kinds (sw, mbsw, sw_err, mbsw_err) are two flags, b == 1 and
errors, and one window predicate, `windows_ok`, decides all of them;
one support walk, `_supports`, enumerates them.

The burst-cover decision uses greedy left-anchored intervals, which is
optimal for covering points on a line.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .galois import Field


def _check_int(name: str, value: int) -> None:
    # Exactly int, as in `Field.check`: CSV, JSON and reports print it.
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_ints(**values: int) -> None:
    for name, value in values.items():
        _check_int(name, value)


def _check_count(name: str, value: int) -> None:
    _check_int(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


@dataclass(frozen=True)
class ErasurePattern:
    """Erasure flags e_0 .. e_{T-1}, a tuple of exact ints 0 or 1."""

    horizon: int
    flags: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_int("horizon", self.horizon)
        if type(self.flags) is not tuple:
            raise ValueError(f"flags must be a tuple, got {type(self.flags).__name__}")
        if len(self.flags) != self.horizon:
            raise ValueError("flag sequence length must equal the horizon")
        if not {*self.flags} <= {0, 1} or not {*map(type, self.flags)} <= {int}:
            raise ValueError("flags must be 0 or 1")

    @classmethod
    def from_support(cls, horizon: int, support: Iterable[int]) -> "ErasurePattern":
        _check_int("horizon", horizon)
        flags = [0] * horizon
        for t in support:
            _check_int("support time", t)
            if not 0 <= t < horizon:
                raise ValueError("support outside horizon")
            flags[t] = 1
        return cls(horizon, tuple(flags))

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(t for t, f in enumerate(self.flags) if f)

    def to_csv(self) -> str:
        return ",".join(str(f) for f in self.flags)

    @classmethod
    def from_csv(cls, text: str) -> "ErasurePattern":
        # A cell is exactly 0 or 1 up to whitespace: `int` would read
        # "0_1" as 1 and "+1" or an Arabic-Indic one as 1 too.
        cells = [c.strip() for c in text.replace("\n", ",").split(",")]
        bad = next((c for c in cells if c not in ("", "0", "1")), None)
        if bad is not None:
            raise ValueError(f"erasure pattern CSV cell {bad!r} is not 0 or 1")
        flags = tuple(int(c) for c in cells if c)
        return cls(len(flags), flags)


@dataclass(frozen=True)
class ErrorPattern:
    """Additive packet errors e(0) .. e(T-1), each a length-n vector of
    field values as a tuple of exact ints; the zero vector means no error
    at that time.  `apply_errors` checks the values against the field."""

    horizon: int
    packet_size: int
    packets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_int("horizon", self.horizon)
        _check_int("packet_size", self.packet_size)
        packets = self.packets
        if type(packets) is not tuple or {*map(type, packets)} - {tuple} or {*map(type, chain(*packets))} - {int}:
            raise ValueError("error packets must be a tuple of tuples of ints")
        if len(packets) != self.horizon:
            raise ValueError("packet sequence length must equal the horizon")
        if any(len(p) != self.packet_size for p in packets):
            raise ValueError("every packet must have the declared size")

    @classmethod
    def from_entries(cls, horizon: int, packet_size: int, entries: dict[int, Sequence[int]]) -> "ErrorPattern":
        _check_int("horizon", horizon)
        _check_int("packet_size", packet_size)
        for t in entries:
            _check_int("error entry time", t)
            if t not in range(horizon):
                raise ValueError(f"error entry time {t!r} outside [0, {horizon})")
        zero = (0,) * packet_size
        return cls(horizon, packet_size, tuple(tuple(entries[t]) if t in entries else zero for t in range(horizon)))

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(t for t, p in enumerate(self.packets) if any(p))

    def to_json(self) -> str:
        items = [{"t": t, "packet": list(p)} for t, p in enumerate(self.packets) if any(p)]
        return json.dumps({"horizon": self.horizon, "packet_size": self.packet_size, "errors": items})

    @classmethod
    def from_json(cls, text: str, field: Field) -> "ErrorPattern":
        """The pattern a JSON text holds, its packet values first checked
        against `field` in time order by `Field.check_all`."""
        try:
            d = json.loads(text)
        except RecursionError as exc:  # deeply nested arrays or objects
            raise ValueError(f"error pattern JSON: {exc}")
        keys = ("horizon", "packet_size", "errors")
        missing = [key for key in keys if not isinstance(d, dict) or key not in d]
        if missing:
            raise ValueError(f"error pattern JSON lacks {', '.join(missing)}")
        horizon, packet_size, errors = (d[key] for key in keys)
        # Exactly int: JSON true parses as bool, an int subclass.
        if not (type(horizon) is int and type(packet_size) is int and isinstance(errors, list)):
            raise ValueError("error pattern JSON needs an integer horizon and packet_size and an errors list")
        entries: dict[int, Sequence[int]] = {}
        for item in errors:
            t = item.get("t") if isinstance(item, dict) else None
            new_t = type(t) is int and 0 <= t < horizon and t not in entries
            if not new_t or not isinstance(item.get("packet"), list):
                raise ValueError(f"malformed error entry {item!r}: need a distinct t in [0, horizon) and a packet")
            entries[t] = item["packet"]
        field.check_all([v for t in sorted(entries) for v in entries[t]])
        return cls.from_entries(horizon, packet_size, entries)


@dataclass(frozen=True)
class ChannelModel:
    """A (z, b, w) window constraint on erasure times, or on error times
    when `errors` is set.  (a, w)-SW is the b == 1 case with z = a; the
    `kind` name and the `a` view exist for serialization and specs."""

    z: int
    b: int
    w: int
    errors: bool = False

    def __post_init__(self) -> None:
        got = f"got z={self.z}, b={self.b}, w={self.w}"
        # Exactly int, as in `Field.check`: the rate and JSON print them.
        if {type(self.z), type(self.b), type(self.w)} != {int}:
            raise ValueError(f"{self.kind} model needs integer z, b and w, {got}")
        if self.z < 1 or self.b < 1:
            raise ValueError(f"{self.kind} model needs z >= 1 and b >= 1, {got}")
        if (2 if self.errors else 1) * self.z * self.b >= self.w:
            raise ValueError(f"{self.kind} model needs {'2*' if self.errors else ''}z*b < w, {got}")

    @classmethod
    def sw(cls, a: int, w: int) -> "ChannelModel":
        return cls(a, 1, w)

    @classmethod
    def mbsw(cls, z: int, b: int, w: int) -> "ChannelModel":
        return cls(z, b, w)

    @classmethod
    def sw_err(cls, a: int, w: int) -> "ChannelModel":
        return cls(a, 1, w, errors=True)

    @classmethod
    def mbsw_err(cls, z: int, b: int, w: int) -> "ChannelModel":
        return cls(z, b, w, errors=True)

    @property
    def kind(self) -> str:
        return ("sw" if self.b == 1 else "mbsw") + ("_err" if self.errors else "")

    @property
    def a(self) -> int:
        """The per-window budget of an sw kind, which is z."""
        return self.z

    @property
    def erasure_equivalent(self) -> "ChannelModel":
        """The erasure model with the doubled budget that an error model
        reduces to; erasure models return themselves."""
        return ChannelModel(2 * self.z, self.b, self.w) if self.errors else self

    def admits(self, pattern: ErasurePattern | ErrorPattern) -> bool:
        """Admissibility of a pattern's support: erasure times, or for
        *_err kinds the times of nonzero error packets."""
        if not isinstance(pattern, (ErasurePattern, ErrorPattern)):
            raise ValueError(f"admits needs an ErasurePattern or ErrorPattern, got {type(pattern).__name__}")
        return is_admissible_mbsw(pattern, self.z, self.b, self.w)

    def to_dict(self) -> dict:
        if self.b == 1:
            return {"kind": self.kind, "w": self.w, "a": self.z}
        return {"kind": self.kind, "w": self.w, "z": self.z, "b": self.b}


def _check_burst_length(b: int) -> None:
    if type(b) is not int or b < 1:
        raise ValueError(f"burst length b must be an int >= 1, got {b!r}")


def min_burst_cover(support: Sequence[int], b: int) -> int:
    """Fewest disjoint length-<=b intervals covering the given points,
    by the left-anchored greedy rule.  b must be an int >= 1."""
    _check_burst_length(b)
    return _burst_cover(support, b)


def _burst_cover(support: Sequence[int], b: int) -> int:
    # `min_burst_cover` for the admissibility loops, which check b once
    # per call (`windows_ok`) or whose model or burst family has
    # (`_supports`): a check per window made five `burst_supports`
    # families 5-10 % slower on a 2-core x86-64 machine.
    count = 0
    cur_end = None
    for p in sorted(support):
        if cur_end is None or p > cur_end:
            count += 1
            cur_end = p + b - 1
    return count


def windows_ok(points: Sequence[int], z: int, b: int, w: int) -> bool:
    """Whether the points of every length-w window, for sorted distinct
    `points`, are coverable by <= z disjoint intervals of length <= b.

    Only windows that start at a point need checking: any other window
    holds a subset of the points of the window that starts at its first
    point, and a subset never needs more bursts.  For the same reason the
    scan stops at the first window that reaches the last point.
    """
    if w < 1:
        raise ValueError("window length must be positive")
    _check_burst_length(b)
    for i, start in enumerate(points):
        end = bisect_left(points, start + w, i)
        count = end - i
        # z bursts cover any z points and never more than z*b
        if count > z and (count > z * b or _burst_cover(points[i:end], b) > z):
            return False
        if end == len(points):
            break
    return True


def is_admissible_sw(pattern: ErasurePattern, a: int, w: int) -> bool:
    """Every length-w window (zero-padded past the horizon) holds <= a
    erasures."""
    return windows_ok(pattern.support, a, 1, w)


def is_admissible_mbsw(pattern: ErasurePattern, z: int, b: int, w: int) -> bool:
    """Every length-w window's erasures are coverable by <= z disjoint
    intervals of length <= b."""
    return windows_ok(pattern.support, z, b, w)


def _supports(z: int, b: int, w: int, top: int) -> Iterator[tuple[int, ...]]:
    """Every subset of [0, top] whose points in every length-w window are
    coverable by <= z disjoint intervals of length <= b, in lexicographic
    order of their flag sequences (0 before 1).  `enumerate_admissible`
    and `burst_supports` read it, and so, as bare supports with no pattern
    built, do the error decoder's per-width window table
    (`streaming.decode_errors`), `streaming.equivalence_sweep` and
    `verify-code --model`.

    The walk steps from one support to the next without recursion: from
    the top slot down, it drops each point it meets (a 1 flag) until it
    finds a slot it can add (a 0 flag), which gives the next support, and
    then starts again at the top.  A slot is added only if the window that
    ends at it passes, because later points only add to later windows.
    """
    points: list[int] = []
    yield ()
    t = top
    while t >= 0:
        if points and points[-1] == t:
            points.pop()
            t -= 1
            continue
        window = points[bisect_left(points, t - w + 1):]
        window.append(t)
        # z bursts cover any z points
        if len(window) <= z or _burst_cover(window, b) <= z:
            points.append(t)
            yield tuple(points)
            t = top
        else:
            t -= 1


def enumerate_admissible(
    model: ChannelModel, horizon: int, support_bound: int | None = None
) -> Iterator[ErasurePattern]:
    """All admissible patterns of the given horizon, each exactly once,
    in lexicographic order of their flag sequences (0 before 1).
    `support_bound` restricts the support to [0, support_bound].
    """
    _check_count("horizon", horizon)
    if support_bound is not None:
        _check_count("support bound", support_bound)
    top = horizon - 1 if support_bound is None else min(support_bound, horizon - 1)
    return map(partial(ErasurePattern.from_support, horizon), _supports(model.z, model.b, model.w, top))


def burst_supports(n: int, z: int, b: int) -> list[tuple[int, ...]]:
    """Every subset of [0, n-1] coverable by <= z disjoint intervals of
    length <= b, as sorted tuples in lexicographic order.  This is the
    per-codeword erasure family for a length-n code facing (z,b)-bursts:
    the (z, b, n) window constraint, whose first window spans the code.
    """
    if {type(n), type(z), type(b)} != {int}:
        raise ValueError(f"burst family needs integer n, z and b, got n={n}, z={z}, b={b}")
    if z < 1 or b < 1:
        raise ValueError(f"burst family needs z >= 1 and b >= 1, got z={z}, b={b}")
    if n < 0:
        raise ValueError(f"burst family needs n >= 0, got n={n}")
    return sorted(_supports(z, b, n, n - 1))


def error_to_erasure(e: ErrorPattern, e_tilde: ErrorPattern) -> ErasurePattern:
    """The difference-support pattern: slot t is erased iff the two error
    packets at t differ.  If both inputs are admissible in an (a, w)
    error model, the result is admissible in the (2a, w) erasure model.
    """
    if e.horizon != e_tilde.horizon or e.packet_size != e_tilde.packet_size:
        raise ValueError("error patterns must share horizon and packet size")
    return ErasurePattern(e.horizon, tuple(int(p != q) for p, q in zip(e.packets, e_tilde.packets)))


def erasure_to_error_split(pattern: ErasurePattern, packet_size: int) -> tuple[ErrorPattern, ErrorPattern]:
    """Split an erasure pattern into two error patterns whose difference
    support reproduces it: even-indexed support elements go to the first
    pattern, odd-indexed to the second, each as a unit packet on
    coordinate 0.  If the input is admissible in a (2a, w) erasure
    model, both halves are admissible in the (a, w) error model."""
    unit = (1,) + (0,) * (packet_size - 1)
    half = partial(ErrorPattern.from_entries, pattern.horizon, packet_size)
    return half(dict.fromkeys(pattern.support[::2], unit)), half(dict.fromkeys(pattern.support[1::2], unit))


def periodic_mbsw_pattern(z: int, b: int, w: int, periods: int) -> ErasurePattern:
    """The rate-bounding periodic pattern: each period of length w-1+b
    starts with z*b erased slots followed by w-1-(z-1)*b clear slots.

    Admissible in the (z, b, w) multi-burst model whenever w > z*b; the
    erased fraction z*b / (w-1+b) is exactly one minus the multi-burst
    rate bound, which is what lets this pattern pin the bound down.
    """
    _check_ints(z=z, b=b, w=w, periods=periods)
    if w <= z * b:
        raise ValueError("need w > z*b")
    if periods < 1:
        raise ValueError("need at least one period")
    period = w - 1 + b
    return ErasurePattern(period * periods, ((1,) * (z * b) + (0,) * (period - z * b)) * periods)
