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
errors, and one window predicate, `windows_ok`, decides all of them.

The burst-cover decision uses greedy left-anchored intervals, which is
optimal for covering points on a line.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class ErasurePattern:
    """Erasure flags e_0 .. e_{T-1}; flag(t) is 0 beyond the horizon."""

    horizon: int
    flags: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.flags) != self.horizon:
            raise ValueError("flag sequence length must equal the horizon")
        if any(f not in (0, 1) for f in self.flags):
            raise ValueError("flags must be 0 or 1")

    @classmethod
    def from_support(cls, horizon: int, support: Iterable[int]) -> "ErasurePattern":
        s = set(support)
        if s and (min(s) < 0 or max(s) >= horizon):
            raise ValueError("support outside horizon")
        return cls(horizon, tuple(1 if t in s else 0 for t in range(horizon)))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(t for t, f in enumerate(self.flags) if f)

    def flag(self, t: int) -> int:
        if 0 <= t < self.horizon:
            return self.flags[t]
        return 0

    def to_csv(self) -> str:
        return ",".join(str(f) for f in self.flags)

    @classmethod
    def from_csv(cls, text: str) -> "ErasurePattern":
        parts = [p for p in text.replace("\n", ",").split(",") if p.strip() != ""]
        flags = tuple(int(p) for p in parts)
        return cls(len(flags), flags)


@dataclass(frozen=True)
class ErrorPattern:
    """Additive packet errors e(0) .. e(T-1), each a length-n vector of
    field values; the zero vector means no error at that time."""

    horizon: int
    packet_size: int
    packets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.packets) != self.horizon:
            raise ValueError("packet sequence length must equal the horizon")
        if any(len(p) != self.packet_size for p in self.packets):
            raise ValueError("every packet must have the declared size")

    @classmethod
    def from_entries(cls, horizon: int, packet_size: int, entries: dict[int, Sequence[int]]) -> "ErrorPattern":
        for t in entries:
            if t not in range(horizon):
                raise ValueError(f"error entry time {t!r} outside [0, {horizon})")
        packets = []
        for t in range(horizon):
            if t in entries:
                packets.append(tuple(entries[t]))
            else:
                packets.append((0,) * packet_size)
        return cls(horizon, packet_size, tuple(packets))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(t for t, p in enumerate(self.packets) if any(p))

    def packet(self, t: int) -> tuple[int, ...]:
        if 0 <= t < self.horizon:
            return self.packets[t]
        return (0,) * self.packet_size

    def to_json(self) -> str:
        items = [{"t": t, "packet": list(p)} for t, p in enumerate(self.packets) if any(p)]
        return json.dumps({"horizon": self.horizon, "packet_size": self.packet_size, "errors": items})

    @classmethod
    def from_json(cls, text: str) -> "ErrorPattern":
        d = json.loads(text)
        keys = ("horizon", "packet_size", "errors")
        missing = [key for key in keys if not isinstance(d, dict) or key not in d]
        if missing:
            raise ValueError(f"error pattern JSON lacks {', '.join(missing)}")
        horizon, packet_size, errors = (d[key] for key in keys)
        if not (isinstance(horizon, int) and isinstance(packet_size, int) and isinstance(errors, list)):
            raise ValueError("error pattern JSON needs an integer horizon and packet_size and an errors list")
        entries: dict[int, Sequence[int]] = {}
        for item in errors:
            t = item.get("t") if isinstance(item, dict) else None
            new_t = isinstance(t, int) and 0 <= t < horizon and t not in entries
            if not new_t or not isinstance(item.get("packet"), list):
                raise ValueError(f"malformed error entry {item!r}: need a distinct t in [0, horizon) and a packet")
            entries[t] = item["packet"]
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

    def admits(self, pattern: ErasurePattern) -> bool:
        """Admissibility of an erasure pattern (or of the support pattern
        of an error pattern, for *_err kinds)."""
        return is_admissible_mbsw(pattern, self.z, self.b, self.w)

    def to_dict(self) -> dict:
        if self.b == 1:
            return {"kind": self.kind, "w": self.w, "a": self.z}
        return {"kind": self.kind, "w": self.w, "z": self.z, "b": self.b}


def min_burst_cover(support: Sequence[int], b: int) -> int:
    """Fewest disjoint length-<=b intervals covering the given points,
    by the left-anchored greedy rule."""
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
    for i, start in enumerate(points):
        end = bisect_left(points, start + w, i)
        count = end - i
        # z bursts cover any z points and never more than z*b
        if count > z and (count > z * b or min_burst_cover(points[i:end], b) > z):
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


def enumerate_admissible(
    model: ChannelModel, horizon: int, support_bound: int | None = None
) -> Iterator[ErasurePattern]:
    """All admissible patterns of the given horizon, each exactly once,
    in lexicographic order of their flag sequences (0 before 1).

    Depth-first with window pruning: a prefix whose trailing window
    already violates the model cannot be extended into an admissible
    pattern, because later flags only add erasures.  `support_bound`
    restricts the support to [0, support_bound].
    """
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    w = model.w
    flags: list[int] = []
    points: list[int] = []  # the erased slots of the prefix

    def rec() -> Iterator[ErasurePattern]:
        t = len(flags)
        if t == horizon:
            yield ErasurePattern(horizon, tuple(flags))
            return
        flags.append(0)
        yield from rec()
        if support_bound is None or t <= support_bound:
            flags[-1] = 1
            points.append(t)
            if min_burst_cover(points[bisect_left(points, t - w + 1):], model.b) <= model.z:
                yield from rec()
            points.pop()
        flags.pop()

    return rec()


def burst_supports(n: int, z: int, b: int) -> list[tuple[int, ...]]:
    """Every subset of [0, n-1] coverable by <= z disjoint intervals of
    length <= b, as sorted tuples in lexicographic order.  This is the
    per-codeword erasure family for a length-n code facing (z,b)-bursts:
    the (z, b, n) window constraint, whose first window spans the code.
    No subset of more than z*b points qualifies.
    """
    if z < 1 or b < 1:
        raise ValueError(f"burst family needs z >= 1 and b >= 1, got z={z}, b={b}")
    sizes = range(min(n, z * b) + 1)
    return sorted(s for r in sizes for s in combinations(range(n), r) if windows_ok(s, z, b, n))


def error_to_erasure(e: ErrorPattern, e_tilde: ErrorPattern) -> ErasurePattern:
    """The difference-support pattern: slot t is erased iff the two error
    packets at t differ.  If both inputs are admissible in an (a, w)
    error model, the result is admissible in the (2a, w) erasure model.
    """
    if e.horizon != e_tilde.horizon or e.packet_size != e_tilde.packet_size:
        raise ValueError("error patterns must share horizon and packet size")
    flags = tuple(
        1 if e.packets[t] != e_tilde.packets[t] else 0 for t in range(e.horizon)
    )
    return ErasurePattern(e.horizon, flags)


def erasure_to_error_split(pattern: ErasurePattern, packet_size: int) -> tuple[ErrorPattern, ErrorPattern]:
    """Split an erasure pattern into two error patterns whose difference
    support reproduces it: even-indexed support elements go to the first
    pattern, odd-indexed to the second, each as a unit packet on
    coordinate 0.  If the input is admissible in a (2a, w) erasure
    model, both halves are admissible in the (a, w) error model."""
    support = pattern.support
    unit = (1,) + (0,) * (packet_size - 1)
    first = {t: unit for idx, t in enumerate(support) if idx % 2 == 0}
    second = {t: unit for idx, t in enumerate(support) if idx % 2 == 1}
    return (
        ErrorPattern.from_entries(pattern.horizon, packet_size, first),
        ErrorPattern.from_entries(pattern.horizon, packet_size, second),
    )


def periodic_mbsw_pattern(z: int, b: int, w: int, periods: int) -> ErasurePattern:
    """The rate-bounding periodic pattern: each period of length w-1+b
    starts with z*b erased slots followed by w-1-(z-1)*b clear slots.

    Admissible in the (z, b, w) multi-burst model whenever w > z*b; the
    erased fraction z*b / (w-1+b) is exactly one minus the multi-burst
    rate bound, which is what lets this pattern pin the bound down.
    """
    if w <= z * b:
        raise ValueError("need w > z*b")
    if periods < 1:
        raise ValueError("need at least one period")
    period = w - 1 + b
    flags = []
    for _ in range(periods):
        flags.extend([1] * (z * b))
        flags.extend([0] * (period - z * b))
    return ErasurePattern(period * periods, tuple(flags))
