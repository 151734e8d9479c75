import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum
from enctrust.bignum import (
    Natural,
    UnderflowError,
    add,
    from_decimal,
    from_hex,
    karatsuba_mul,
    mod,
    mul,
    random_bits,
    random_odd,
    sub,
    to_decimal,
    to_hex,
)

naturals = st.integers(min_value=0, max_value=(1 << 4096) - 1)


def test_constructor_rejects_negative_and_non_int():
    with pytest.raises(ValueError):
        Natural(-1)
    with pytest.raises(TypeError):
        Natural(1.5)
    with pytest.raises(TypeError):
        Natural(True)


def test_bit_length_all_ones():
    n = Natural(2**128 - 1)
    assert n.bit_length == 128
    assert n.value == int("1" * 128, 2)


def test_bit_length_edges():
    assert Natural(0).bit_length == 0
    assert Natural(1).bit_length == 1
    assert Natural(2**64).bit_length == 65


def test_add_matches_oracle_on_random_1000_bit_values():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.getrandbits(1000)
        b = rng.getrandbits(1000)
        assert add(Natural(a), Natural(b)).value == a + b


def test_mul_known_product():
    a = Natural(12345678901234567890)
    b = Natural(98765432109876543210)
    assert mul(a, b).value == 1219326311370217952237463801111263526900


def test_mul_zero_and_one():
    assert mul(Natural(0), Natural(12345)).value == 0
    assert mul(Natural(12345), Natural(0)).value == 0
    assert mul(Natural(1), Natural(12345)).value == 12345


def test_sub_underflow_raises():
    with pytest.raises(UnderflowError):
        sub(Natural(3), Natural(5))


def test_mod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        mod(Natural(10), Natural(0))


def test_operator_sugar():
    assert (Natural(6) * Natural(7)).value == 42
    assert (Natural(6) + Natural(7)).value == 13
    assert (Natural(7) - Natural(6)).value == 1
    assert (Natural(7) % Natural(4)).value == 3
    assert Natural(3) < Natural(4) <= Natural(4)
    assert int(Natural(9)) == 9


@given(naturals, naturals)
def test_add_commutes_and_matches_ints(a, b):
    assert add(Natural(a), Natural(b)).value == a + b
    assert add(Natural(b), Natural(a)).value == b + a


@given(naturals, naturals)
def test_mul_matches_ints(a, b):
    assert mul(Natural(a), Natural(b)).value == a * b


@given(naturals, naturals)
def test_sub_then_add_roundtrips(a, b):
    lo, hi = sorted((a, b))
    assert add(sub(Natural(hi), Natural(lo)), Natural(lo)).value == hi


@given(naturals, st.integers(min_value=1, max_value=(1 << 2048) - 1))
def test_mod_matches_ints(a, m):
    assert mod(Natural(a), Natural(m)).value == a % m


@settings(max_examples=30)
@given(naturals, naturals)
def test_mul_threshold_independence(a, b):
    # Forcing schoolbook everywhere or Karatsuba down to 2 limbs must agree.
    school = karatsuba_mul(Natural(a), Natural(b), threshold=10**9)
    kara = karatsuba_mul(Natural(a), Natural(b), threshold=2)
    assert school.value == kara.value == a * b


def test_mul_adversarial_patterns():
    patterns = [
        (1 << 9999) - 1,
        (1 << 10000) - 1,
        1 << 9999,
        int("10" * 2500, 2),
        (1 << 640) - 1,
        (1 << 64) - 1,
        1 << 64,
        (1 << 65) - 1,
    ]
    for a in patterns:
        for b in patterns:
            assert karatsuba_mul(Natural(a), Natural(b)).value == a * b
            assert karatsuba_mul(Natural(a), Natural(b), threshold=2).value == a * b


def test_hex_canonical_form():
    assert to_hex(Natural(0)) == "0"
    assert to_hex(Natural(255)) == "ff"
    assert to_hex(Natural(2**64)) == "10000000000000000"
    assert from_hex("ff").value == 255
    assert from_hex("0").value == 0
    with pytest.raises(ValueError):
        from_hex("")
    with pytest.raises(ValueError):
        from_hex("xyz")


@given(naturals)
def test_hex_roundtrip(a):
    s = to_hex(Natural(a))
    assert s == s.lower()
    assert s == "0" or not s.startswith("0")
    assert from_hex(s).value == a


@given(naturals)
def test_decimal_roundtrip(a):
    assert from_decimal(to_decimal(Natural(a))).value == a


def test_decimal_rejects_garbage():
    with pytest.raises(ValueError):
        from_decimal("12a3")
    with pytest.raises(ValueError):
        from_decimal("-5")
    with pytest.raises(ValueError):
        from_decimal("")


def test_random_bits_exact_width():
    rng = random.Random(123)
    for _ in range(10_000):
        v = random_bits(16, rng)
        assert 2**15 <= v.value < 2**16
    assert random_bits(1, rng).value == 1


def test_random_odd_width_and_parity():
    rng = random.Random(123)
    for _ in range(10_000):
        v = random_odd(27, rng)
        assert 2**26 <= v.value < 2**27
        assert v.value % 2 == 1
    assert random_odd(1, rng).value == 1
    assert random_odd(2, rng).value == 3


def test_random_draws_are_deterministic_per_seed():
    a = [random_bits(32, random.Random(42)).value for _ in range(3)]
    b = [random_bits(32, random.Random(42)).value for _ in range(3)]
    assert a == b


def test_random_rejects_nonpositive_width():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        random_bits(0, rng)
    with pytest.raises(ValueError):
        random_odd(0, rng)


def test_limb_roundtrip_internal():
    rng = random.Random(5)
    for _ in range(200):
        x = rng.getrandbits(rng.randint(1, 2000))
        assert bignum._from_limbs(bignum._to_limbs(x)) == x
    assert bignum._to_limbs(0) == []
    assert bignum._from_limbs([]) == 0
