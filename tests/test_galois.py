import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamfec import galois
from streamfec.galois import GF, Field, default_modulus

SMALL_FIELDS = [GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(11), GF(13), GF(16)]


def test_addition_examples():
    assert GF(8).add(3, 5) == 6  # XOR in characteristic 2
    assert GF(7).add(3, 5) == 1
    assert GF(2).add(1, 1) == 0


def test_multiplication_examples():
    assert GF(2).mul(1, 1) == 1
    # x * x^2 = x^3 = x + 1 under modulus x^3 + x + 1
    assert GF(8).mul(2, 4) == 3
    assert GF(7).mul(3, 5) == 1


def test_inverse_examples():
    for f in SMALL_FIELDS:
        assert f.inv(1) == 1
    assert GF(7).inv(3) == 5
    f8 = GF(8)
    for a in range(1, 8):
        assert f8.mul(a, f8.inv(a)) == 1


def test_zero_inversion_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(8).inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


def test_default_moduli_are_lexicographically_smallest():
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0b1011  # x^3 + x + 1
    assert default_modulus(4) == 0b10011


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_field_axioms_exhaustive(field):
    q = field.q
    for a in range(q):
        for b in range(q):
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in range(q):
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
    for a in range(q):
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
def test_multiplicative_group_is_cyclic(field):
    q = field.q
    orders = []
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = field.mul(x, a)
            order += 1
        orders.append(order)
        assert (q - 1) % order == 0
    assert max(orders) == q - 1


def test_characteristic_two_self_cancellation():
    for f in (GF(2), GF(4), GF(8), GF(16)):
        for a in range(f.q):
            assert f.add(a, a) == 0


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_gf256_frobenius(a, b):
    f = GF(256)
    s = f.add(a, b)
    assert f.mul(s, s) == f.add(f.mul(a, a), f.mul(b, b))


@pytest.mark.parametrize("q", [4, 8, 16, 65536])
def test_frobenius_table_is_a_field_automorphism(q):
    # x -> x^2 over GF(2^m): additive and multiplicative on every pair up
    # to q = 16 and on sampled pairs of GF(2^16), fixing 0 and 1, a
    # permutation of the field and not the identity
    f = GF(q)
    phi = f.frobenius()
    rng = random.Random(q)
    pairs = product(range(q), repeat=2) if q <= 16 else ((rng.randrange(q), rng.randrange(q)) for _ in range(3000))
    for a, b in pairs:
        assert phi[f.add(a, b)] == f.add(phi[a], phi[b]), (a, b)
        assert phi[f.mul(a, b)] == f.mul(phi[a], phi[b]), (a, b)
    assert phi[0] == 0 and phi[1] == 1
    images = [phi[a] for a in range(q)]
    assert sorted(images) == list(range(q))
    assert images != list(range(q))
    assert f.frobenius() is phi


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_frobenius_table_is_the_identity_over_prime_fields(q):
    assert list(GF(q).frobenius()) == list(range(q))


@given(a=st.integers(1, 255))
def test_gf256_inverse_roundtrip(a):
    f = GF(256)
    assert f.mul(a, f.inv(a)) == 1


def test_out_of_range_values_rejected():
    with pytest.raises(ValueError):
        GF(8).check(8)
    with pytest.raises(ValueError):
        GF(7).check(-1)


def test_unsupported_orders_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(9)  # odd prime powers are out of scope
    with pytest.raises(ValueError):
        GF(1 << 17)
    with pytest.raises(ValueError):
        Field(257)
    with pytest.raises(ValueError):
        Field(2, 4, modulus=0b10101)  # x^4 + x^2 + 1 = (x^2+x+1)^2
    with pytest.raises(ValueError):
        Field(2, 3, modulus=-11)  # bit length 4, but no polynomial


def test_gf2_rejects_a_modulus():
    # GF(2) is a prime field, and prime fields take no modulus
    with pytest.raises(ValueError, match="no modulus"):
        GF(2, modulus=5)
    with pytest.raises(ValueError, match="no modulus"):
        GF(3, modulus=5)


def test_order_bounds_precede_primality_test(monkeypatch):
    # Trial division of a large prime takes seconds (p = 100000000000031)
    # or minutes (2^61 - 1), so an order past the bounds must be rejected
    # without it.
    calls = []
    is_prime = galois._is_prime
    monkeypatch.setattr(galois, "_is_prime", lambda n: calls.append(n) or is_prime(n))
    for p in (100000000000031, (1 << 61) - 1):
        with pytest.raises(ValueError, match="limited to p < 256"):
            Field(p)
        with pytest.raises(ValueError, match="characteristic 2 only"):
            Field(p, 2)
        with pytest.raises(ValueError, match="unsupported field order"):
            GF(p)
    assert calls == []
    assert Field(251).q == 251 and calls == [251]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 256])
def test_product_tables_match_mul_exhaustively(q):
    f = GF(q)
    for c in range(q):
        table = f.times(c)
        assert [table[v] for v in range(q)] == [f.mul(c, v) for v in range(q)]
        assert f.times(c) is table


def test_product_tables_match_mul_sampled_gf65536():
    f = Field(2, 16)
    rng = random.Random(16)
    for _ in range(3000):
        c, v = rng.randrange(f.q), rng.randrange(f.q)
        assert f.times(c)[v] == f.mul(c, v)
    # a large field's table holds only the values it was asked for
    assert len(f.times(3)) <= 3000


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16, 256])
def test_table_lists_every_value_up_to_256(q):
    table = GF(q).table(lambda v: 3 * v + 1)
    assert type(table) is list and table == [3 * v + 1 for v in range(q)]


def test_table_over_gf65536_holds_only_the_values_read():
    seen = []
    table = Field(2, 16).table(lambda v: seen.append(v) or v ^ 5)
    assert [table[v] for v in (7, 60000, 7)] == [2, 60005, 2]
    assert dict(table) == {7: 2, 60000: 60005} and seen == [7, 60000]


def test_descriptor_roundtrip():
    for f in (GF(2), GF(7), GF(8), GF(256)):
        assert Field.from_dict(f.to_dict()) == f
    assert GF(8).to_dict() == {"p": 2, "m": 3, "modulus": 0b1011}
    assert GF(7).to_dict() == {"p": 7, "m": 1, "modulus": 0}
    # a prime field reads no modulus
    assert Field.from_dict({"p": 7, "m": 1}) == GF(7)


@pytest.mark.parametrize(
    "d, missing",
    [({"p": 2, "m": 3}, "modulus"), ({"m": 3, "modulus": 11}, "p"), ({"p": 2}, "m"), ({}, "p, m")],
)
def test_descriptor_missing_keys_named(d, missing):
    with pytest.raises(ValueError, match=f"^field descriptor lacks {missing}$"):
        Field.from_dict(d)


def test_explicit_modulus_respected():
    # x^3 + x^2 + 1 is the other irreducible cubic
    f = GF(8, modulus=0b1101)
    assert f != GF(8)
    for a in range(1, 8):
        assert f.mul(a, f.inv(a)) == 1


@settings(max_examples=30)
@given(st.sampled_from(SMALL_FIELDS), st.data())
def test_subtraction_inverts_addition(field, data):
    a = data.draw(st.integers(0, field.q - 1))
    b = data.draw(st.integers(0, field.q - 1))
    assert field.sub(field.add(a, b), b) == a


PRIMES = [p for p in range(2, 256) if all(p % d for d in range(2, int(p**0.5) + 1))]


@pytest.mark.parametrize("p", [p for p in PRIMES if p < 32])
def test_prime_field_tables_exhaustive(p):
    f = GF(p)
    for a in range(p):
        table = f.times(a)
        for b in range(p):
            assert f.mul(a, b) == table[b] == a * b % p
        if a:
            assert f.inv(a) == pow(a, p - 2, p)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_field_tables_sampled(p):
    f = GF(p)
    rng = random.Random(p)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(p)
        assert f.mul(a, b) == f.times(a)[b] == a * b % p
        if a:
            assert f.inv(a) == pow(a, p - 2, p)


@pytest.mark.parametrize("f", [GF(2), GF(7), GF(8)], ids=lambda f: f"q{f.q}")
def test_check_all_raises_for_the_first_bad_value_as_check_does(f):
    f.check_all([])
    f.check_all(list(range(f.q)) * 2)
    # A set of [1, True] or [1, 1.0] holds only 1, so the type test must
    # read every value.
    for values in ([0, f.q, "1"], [1, True, -1], [None, 1.5], [0, [1]], [f.q - 1, -1], [1, True], [1, 1.0]):
        bad = next(v for v in values if type(v) is not int or not 0 <= v < f.q)
        with pytest.raises(ValueError) as expected:
            f.check(bad)
        with pytest.raises(ValueError) as got:
            f.check_all(values)
        assert str(got.value) == str(expected.value)
