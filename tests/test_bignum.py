import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum
from enctrust.bignum import (
    UnderflowError,
    from_hex,
    karatsuba_mul,
    mod,
    mul,
    random_bits,
    random_odd,
    to_hex,
)

naturals = st.integers(min_value=0, max_value=(1 << 4096) - 1)


def _limbs(x):
    return bignum._to_limbs(x)


def _int(limbs):
    return bignum._from_limbs(limbs)


def test_bit_length_all_ones():
    # The limb split of the widest value that fits in two limbs.
    n = 2**128 - 1
    assert _limbs(n) == [bignum.LIMB_MASK, bignum.LIMB_MASK]
    assert _int(_limbs(n)) == int("1" * 128, 2)


def test_bit_length_edges():
    assert _limbs(0) == []
    assert _limbs(1) == [1]
    assert _limbs(2**64) == [0, 1]


def test_add_matches_oracle_on_random_1000_bit_values():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.getrandbits(1000)
        b = rng.getrandbits(1000)
        assert _int(bignum._add_limbs(_limbs(a), _limbs(b))) == a + b


def test_mul_known_product():
    a = 12345678901234567890
    b = 98765432109876543210
    assert mul(a, b) == 1219326311370217952237463801111263526900


def test_mul_zero_and_one():
    assert mul(0, 12345) == 0
    assert mul(12345, 0) == 0
    assert mul(1, 12345) == 12345


def test_sub_underflow_raises():
    with pytest.raises(UnderflowError):
        bignum._sub_limbs(_limbs(3), _limbs(5))


def test_mod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        mod(10, 0)


@given(naturals, naturals)
def test_add_commutes_and_matches_ints(a, b):
    assert _int(bignum._add_limbs(_limbs(a), _limbs(b))) == a + b
    assert _int(bignum._add_limbs(_limbs(b), _limbs(a))) == b + a


@given(naturals, naturals)
def test_mul_matches_ints(a, b):
    assert mul(a, b) == a * b


@given(naturals, naturals)
def test_sub_then_add_roundtrips(a, b):
    lo, hi = sorted((a, b))
    assert _int(bignum._add_limbs(bignum._sub_limbs(_limbs(hi), _limbs(lo)), _limbs(lo))) == hi


@given(naturals, st.integers(min_value=1, max_value=(1 << 2048) - 1))
def test_mod_matches_ints(a, m):
    assert mod(a, m) == a % m


@settings(max_examples=30)
@given(naturals, naturals)
def test_mul_threshold_independence(a, b):
    # Forcing schoolbook everywhere or Karatsuba down to 2 limbs must agree.
    school = karatsuba_mul(a, b, threshold=10**9)
    kara = karatsuba_mul(a, b, threshold=2)
    assert school == kara == a * b


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
            assert karatsuba_mul(a, b) == a * b
            assert karatsuba_mul(a, b, threshold=2) == a * b


def test_hex_canonical_form():
    assert to_hex(0) == "0"
    assert to_hex(255) == "ff"
    assert to_hex(2**64) == "10000000000000000"
    assert from_hex("ff") == 255
    assert from_hex("0") == 0
    with pytest.raises(ValueError):
        from_hex("")
    with pytest.raises(ValueError):
        from_hex("xyz")


@pytest.mark.parametrize("text", ["+ff", "-ff", "0xff", "0XFF", "f_f", " ff", "ff\n", "\u0661"])
def test_from_hex_rejects_non_digits(text):
    # int(text, 16) accepts the first five (and whitespace) or decodes a
    # non-ASCII digit; the wire format is hex digits only.
    with pytest.raises(ValueError):
        from_hex(text)


def test_from_hex_rejects_non_strings():
    with pytest.raises(ValueError):
        from_hex(255)


@given(naturals)
def test_hex_roundtrip(a):
    s = to_hex(a)
    assert s == s.lower()
    assert s == "0" or not s.startswith("0")
    assert from_hex(s) == a


# The codec's earlier rules, kept as the reference it must match.
_REF_HEX = re.compile(r"[0-9a-fA-F]+")


def ref_from_hex(s):
    if not isinstance(s, str) or not _REF_HEX.fullmatch(s):
        raise ValueError(f"invalid hex string: {s!r}")
    return int(s, 16)


def _outcome(parse, s):
    try:
        return parse(s)
    except ValueError:
        return ValueError


@st.composite
def byte_edge_values(draw):
    """A value whose top byte holds 8, 1, 4 or 5 bits: even and odd digit
    counts, with and without a leading zero nibble in the byte encoding."""
    bits = 8 * draw(st.integers(0, 80)) + draw(st.sampled_from([8, 1, 4, 5]))
    return 1 << (bits - 1) | draw(st.integers(0, (1 << (bits - 1)) - 1))

HEX_DIGITS = "0123456789abcdefABCDEF"
hex_strings = st.text(alphabet=HEX_DIGITS, min_size=1, max_size=40)
# Signs, prefixes, separators, whitespace and non-ASCII digits (Arabic-Indic,
# fullwidth, Devanagari), all of which int(s, 16) accepts in some position.
_INSERTS = ["", "+", "-", "0x", "0X", "_", " ", "\t", "\n", "\u0661", "\uff11", "\u0966"]


@st.composite
def mutated_hex(draw):
    """A hex string with one insertion, and maybe its last character cut
    (odd length, or empty when nothing else is left)."""
    s = draw(hex_strings)
    at = draw(st.integers(0, len(s)))
    s = s[:at] + draw(st.sampled_from(_INSERTS)) + s[at:]
    return s[:-1] if draw(st.booleans()) else s


@settings(max_examples=300)
@given(byte_edge_values() | st.sampled_from([0, 1]))
def test_to_hex_matches_reference(n):
    assert to_hex(n) == format(n, "x")


@settings(max_examples=300)
@given(hex_strings | mutated_hex() | st.just(""))
def test_from_hex_accepts_and_rejects_like_reference(s):
    assert _outcome(from_hex, s) == _outcome(ref_from_hex, s)


def test_to_hex_rejects_negative():
    with pytest.raises(ValueError):
        to_hex(-1)


def test_random_bits_exact_width():
    rng = random.Random(123)
    for _ in range(10_000):
        v = random_bits(16, rng)
        assert 2**15 <= v < 2**16
    assert random_bits(1, rng) == 1


def test_random_odd_width_and_parity():
    rng = random.Random(123)
    for _ in range(10_000):
        v = random_odd(27, rng)
        assert 2**26 <= v < 2**27
        assert v % 2 == 1
    assert random_odd(1, rng) == 1
    assert random_odd(2, rng) == 3


def test_random_draws_are_deterministic_per_seed():
    a = [random_bits(32, random.Random(42)) for _ in range(3)]
    b = [random_bits(32, random.Random(42)) for _ in range(3)]
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
