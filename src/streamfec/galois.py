"""Exact arithmetic in small finite fields.

Two families are supported: binary extension fields GF(2^m) for
1 <= m <= 16, represented in the polynomial basis, and prime fields
GF(p) for p < 256.  Both multiply and invert through log/antilog tables
of their least primitive element, built with the field, so `mul` and
`inv` are one path for every field.  Values are plain ints in [0, q-1];
:meth:`Field.check` validates one at API boundaries, and
:meth:`Field.check_all` a whole sequence.

Every table indexed by the field's values comes from :meth:`Field.table`:
a list up to q = 256, above it a `_Lazy` dict that fills one value at a
time, so a large field never tabulates values it does not see.
:meth:`Field.times` caches one per constant, the product table that hot
loops multiply through, and :meth:`Field.frobenius` one of the
automorphism x -> x^p: the identity over a prime field, squaring over
GF(2^m), which keeps every sum and product, so it maps a matrix to one
of the same rank.  Filling a table writes the same values whoever does
it, so fields stay safe to share between threads; their identity
(p, m, modulus) never changes after construction.

The default modulus for GF(2^m) is the lexicographically smallest
irreducible polynomial of degree m (bit-encoded, bit i = coefficient of
x^i), so that descriptors are reproducible across machines.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

_MAX_EXTENSION_DEGREE = 16
_MAX_PRIME = 256
# `Field.table` lists every value up to this order, and fills lazily above.
_MAX_LIST_TABLE = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, mod: int) -> int:
    """Remainder of carry-less division of a by mod, over GF(2)."""
    dm = _poly_degree(mod)
    while _poly_degree(a) >= dm and a:
        a ^= mod << (_poly_degree(a) - dm)
    return a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    """Carry-less product of a and b, reduced modulo mod, over GF(2)."""
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(res, mod)


def _is_irreducible_gf2(poly: int) -> bool:
    """Trial division by every lower-degree polynomial up to degree m/2."""
    m = _poly_degree(poly)
    if m < 1:
        return False
    if not poly & 1:  # divisible by x
        return m == 1 and poly == 0b10
    for d in range(1, m // 2 + 1):
        for div in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, div) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m.

    Polynomials are ordered by their bit-encoded integer value, e.g.
    default_modulus(3) == 0b1011 (x^3 + x + 1).
    """
    if not 1 <= m <= _MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in [1, {_MAX_EXTENSION_DEGREE}], got {m}")
    for cand in range(1 << m, 1 << (m + 1)):
        if _is_irreducible_gf2(cand):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


def _log_tables(q: int, mul: Callable[[int, int], int]) -> tuple[list[int], list[int]]:
    """Antilog and log tables of the field of order q with product `mul`:
    exp[i] = g^i for the least primitive element g, and log[exp[i]] = i.
    The search starts at g = 1, the generator of GF(2)'s one-element
    group."""
    for g in range(1, q):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = mul(x, g)
        if len(exp) == q - 1:
            log = [0] * q
            for i, v in enumerate(exp):
                log[v] = i
            return exp, log
    raise AssertionError("unreachable: the multiplicative group of a field is cyclic")


class _Lazy(dict):
    """A table v -> fill(v) that computes each value on first use: every
    `Field.table` above q = 256."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[[int], int]):
        super().__init__()
        self.fill = fill

    def __missing__(self, v: int) -> int:
        value = self[v] = self.fill(v)
        return value


class Field:
    """A finite field GF(p^m): either GF(2^m), m <= 16, or GF(p), p < 256.

    Arithmetic methods (`add`, `mul`, `inv`, ...) operate on plain int
    values; :meth:`check` validates a value, and :meth:`times` gives the
    product table of a constant.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_times", "_frobenius")

    def __init__(self, p: int, m: int = 1, modulus: int | None = None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        # The order bounds come before trial division, which takes minutes
        # on a large prime.
        if m == 1 and p >= _MAX_PRIME:
            raise ValueError(f"prime fields limited to p < {_MAX_PRIME}, got {p}")
        if m > 1 and p != 2:
            raise ValueError("extension fields are supported for characteristic 2 only")
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if m == 1 and modulus is not None:
            raise ValueError("prime fields take no modulus polynomial")
        if m > 1:
            if m > _MAX_EXTENSION_DEGREE:
                raise ValueError(f"extension degree limited to {_MAX_EXTENSION_DEGREE}, got {m}")
            if modulus is None:
                modulus = default_modulus(m)
            # A negative int has a bit length too, but the division loop
            # never ends on one.
            if not 1 << m <= modulus < 1 << (m + 1) or not _is_irreducible_gf2(modulus):
                raise ValueError(f"modulus 0b{modulus:b} is not irreducible of degree {m}")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        mul = (lambda a, b: a * b % p) if m == 1 else (lambda a, b: _poly_mulmod(a, b, modulus))
        self._exp, self._log = _log_tables(self.q, mul)
        self._times: dict[int, list[int] | _Lazy] = {}
        self._frobenius: list[int] | _Lazy | None = None

    # -- arithmetic on raw int values ------------------------------------

    def check(self, a: int) -> int:
        # Exactly int: bool is an int subclass, and JSON true is no value.
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a value of {self!r}")
        return a

    def check_all(self, values: Sequence) -> None:
        """`check` every value: one pass over all of them at once, not a
        method call each, and on a bad one `check` raises for the first in
        order.  The type pass reads every value (a bool's type is not int,
        and a set folds True and 1.0 into 1); the range test only the
        distinct ones."""
        if values and (set(map(type, values)) != {int} or min(seen := set(values)) < 0 or max(seen) >= self.q):
            for v in values:
                self.check(v)

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return (self.p - a) % self.p

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def times(self, c: int) -> list[int] | _Lazy:
        """The products c * v as a `table` indexed by the value v, built
        when c is first asked for and cached per constant c, shared by
        every caller that multiplies by c."""
        table = self._times.get(c)
        if table is None:
            table = self._times[c] = self.table(partial(self.mul, c))
        return table

    def frobenius(self) -> list[int] | _Lazy:
        """The field automorphism x -> x^p as a table indexed by the value
        x, a `table` built on first use and cached.  It is the identity
        over a prime field."""
        if self._frobenius is None:
            self._frobenius = self.table(partial(self.pow, e=self.p))
        return self._frobenius

    def table(self, fill: Callable[[int], int]) -> list[int] | _Lazy:
        """The table v -> fill(v) over the field's values, uncached: a list
        up to q = 256, and for larger fields a dict that fills each value
        on first use."""
        if self.q <= _MAX_LIST_TABLE:
            return list(map(fill, range(self.q)))
        return _Lazy(fill)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        res = 1
        while e:
            if e & 1:
                res = self.mul(res, a)
            a = self.mul(a, a)
            e >>= 1
        return res

    # -- identity and serialization ---------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.q}, modulus=0b{self.modulus:b})"

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": self.modulus if self.m > 1 else 0}

    @staticmethod
    def from_dict(d: dict) -> "Field":
        if not isinstance(d, dict):
            raise ValueError(f"a field descriptor is an object, got {d!r}")
        # Only an extension field (m > 1) reads its modulus.
        m = d.get("m")
        keys = ("p", "m", "modulus") if type(m) is int and m > 1 else ("p", "m")
        missing = [key for key in keys if key not in d]
        if missing:
            raise ValueError(f"field descriptor lacks {', '.join(missing)}")
        # Exactly int, as in `check`: "3" and JSON true are no parameters.
        p, m = d["p"], d["m"]
        if type(p) is not int or type(m) is not int:
            raise ValueError(f"field p and m must be integers, got {d!r}")
        modulus = d["modulus"] if m > 1 else None
        if m > 1 and type(modulus) is not int:
            raise ValueError(f"field modulus must be an integer, got {d!r}")
        return Field(p, m, modulus)


@lru_cache(maxsize=None)
def _cached_field(p: int, m: int, modulus: int | None) -> Field:
    return Field(p, m, modulus)


def GF(q: int, modulus: int | None = None) -> Field:
    """Field of order q: q = 2^m gives the binary extension field, prime q
    the prime field.  Other orders are unsupported."""
    if q >= 2 and q & (q - 1) == 0:  # power of two
        return _cached_field(2, q.bit_length() - 1, modulus)
    if q < _MAX_PRIME and _is_prime(q):
        return _cached_field(q, 1, modulus)
    raise ValueError(f"unsupported field order {q}: need 2^m (m <= 16) or a prime < 256")
