"""Closed-form rate bounds and feasibility predicates, as exact
rationals.  Out-of-regime queries raise rather than extrapolate: the
rate bound takes a `ChannelModel`, whose construction already enforces
the model's standing assumptions, and the predicates check theirs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import ChannelModel, _check_int, _check_ints


@dataclass(frozen=True, eq=False)
class RateBound:
    """An exact rational rate.

    Comparisons are exact rational comparisons; 3/6 == 1/2 regardless of
    normalization.
    """

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        _check_ints(numerator=self.numerator, denominator=self.denominator)
        if self.denominator <= 0:
            raise ValueError("denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("rate must lie in [0, 1]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RateBound):
            return self.numerator * other.denominator == other.numerator * self.denominator
        if isinstance(other, (Fraction, int)):
            return self.fraction == other
        return NotImplemented

    def __lt__(self, other: "RateBound | Fraction | int") -> bool:
        other_frac = other.fraction if isinstance(other, RateBound) else Fraction(other)
        return self.fraction < other_frac

    def __le__(self, other: "RateBound | Fraction | int") -> bool:
        other_frac = other.fraction if isinstance(other, RateBound) else Fraction(other)
        return self.fraction <= other_frac

    def __hash__(self) -> int:
        return hash(self.fraction)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def rate_bound(model: ChannelModel) -> RateBound:
    """Rate upper bound (w-1-(z-1)b) / (w-1+b) of the (z, b, w) erasure
    channel, or of an error channel's erasure twin at 2z bursts.  At
    b = 1 it is the optimal sliding-window rate: (w-a)/w for erasures and
    (w-2a)/w for errors."""
    if not isinstance(model, ChannelModel):
        raise ValueError(f"rate_bound needs a ChannelModel, got {type(model).__name__}")
    z, b, w = model.erasure_equivalent.z, model.b, model.w
    return RateBound(w - 1 - (z - 1) * b, w - 1 + b)


def de_achievable(z: int, b: int, w: int) -> bool:
    """Whether a diagonally embedded code can meet the multi-burst rate
    bound at delay w-1: true iff b divides w-1.

    The divisibility question only bites for z > 1 and b > 1; the
    single-burst and random-erasure cases are achievable for all valid
    parameters and return True.
    """
    _check_ints(z=z, b=b, w=w)
    if z < 1 or b < 1:
        raise ValueError("need z >= 1 and b >= 1")
    if w <= z * b:
        raise ValueError(f"need w > z*b, got w={w}, z*b={z * b}")
    if z == 1 or b == 1:
        return True
    return (w - 1) % b == 0


def delay_tau_star(k: int, z: int, b: int) -> int:
    """Smallest delay at which an [k+zb, k] code can survive all
    (z,b)-bursts: max(k + (z-1)*b, z*b)."""
    _check_ints(k=k, z=z, b=b)
    if k < 1 or z < 1 or b < 1:
        raise ValueError("k, z, b must be positive")
    return max(k + (z - 1) * b, z * b)


def causal_code_exists(k: int, z: int, b: int, tau: int) -> bool:
    """Existence of an [k+zb, k] causal code, over some field, that is
    delay-tau decodable for every (z, b)-burst, in the regime k >= b.

    Below tau* = k + (z-1)b no code exists.  For multiple bursts (z > 1)
    the minimum delay tau* requires b | tau* (equivalently b | k); a
    single burst (z = 1) needs no divisibility, and binary codes exist at
    tau* = k whether or not b | k.  Above tau* a code always exists, but
    the field matters: no binary [9,5] code survives every (2, 2)-burst
    at tau = 8, while a ternary one does.
    """
    tau_star = delay_tau_star(k, z, b)
    _check_int("tau", tau)
    if k < b:
        raise ValueError(f"regime k >= b required, got k={k}, b={b}")
    if tau < tau_star:
        return False
    return tau > tau_star or de_achievable(z, b, tau_star + 1)
