"""Arbitrary-precision unsigned integers, plus the paper's limb multiplication kernel.

Values are wrapped in :class:`Natural`, an immutable non-negative integer.
Arithmetic on the ciphertext path (:func:`mul`, :func:`add`, :func:`sub`,
:func:`mod`) is Python's built-in integer arithmetic, which is exact.

:func:`karatsuba_mul` is the hand-written reference kernel on little-endian
lists of 64-bit limbs: schoolbook below a limb threshold, Karatsuba above
it.  It computes the same products as :func:`mul`, but one to two orders of
magnitude slower, so nothing on the ciphertext path calls it; the tests
validate it against native products.

Randomness is always drawn from an explicitly passed ``random.Random``
instance (a Mersenne Twister), so every caller controls determinism by
choosing the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1

# Operands whose smaller side is below this many limbs multiply via
# schoolbook; larger ones recurse through Karatsuba.  Crossover measured
# around 2000 bits on CPython 3.10.
KARATSUBA_THRESHOLD = 32


class UnderflowError(ArithmeticError):
    """Subtraction would produce a negative value."""


@dataclass(frozen=True, slots=True)
class Natural:
    """An immutable arbitrary-precision non-negative integer."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError(f"Natural requires an int, got {type(self.value).__name__}")
        if self.value < 0:
            raise ValueError(f"Natural cannot be negative: {self.value}")

    @property
    def bit_length(self) -> int:
        return self.value.bit_length()

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value

    def __lt__(self, other: "Natural") -> bool:
        return self.value < other.value

    def __le__(self, other: "Natural") -> bool:
        return self.value <= other.value

    def __gt__(self, other: "Natural") -> bool:
        return self.value > other.value

    def __ge__(self, other: "Natural") -> bool:
        return self.value >= other.value

    def __add__(self, other: "Natural") -> "Natural":
        if not isinstance(other, Natural):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Natural") -> "Natural":
        if not isinstance(other, Natural):
            return NotImplemented
        return sub(self, other)

    def __mul__(self, other: "Natural") -> "Natural":
        if not isinstance(other, Natural):
            return NotImplemented
        return mul(self, other)

    def __mod__(self, other: "Natural") -> "Natural":
        if not isinstance(other, Natural):
            return NotImplemented
        return mod(self, other)

    def __repr__(self) -> str:
        return f"Natural({self.value})"


ZERO = Natural(0)
ONE = Natural(1)


def add(a: Natural, b: Natural) -> Natural:
    return Natural(a.value + b.value)


def sub(a: Natural, b: Natural) -> Natural:
    if b.value > a.value:
        raise UnderflowError(f"cannot subtract {b.value} from {a.value}")
    return Natural(a.value - b.value)


def mod(a: Natural, m: Natural) -> Natural:
    if m.value == 0:
        raise ZeroDivisionError("modulus is zero")
    return Natural(a.value % m.value)


def mul(a: Natural, b: Natural) -> Natural:
    return Natural(a.value * b.value)


def karatsuba_mul(a: Natural, b: Natural, threshold: int = KARATSUBA_THRESHOLD) -> Natural:
    """Multiply via the limb kernel.

    ``threshold`` is the limb count below which recursion bottoms out into
    schoolbook.  Values below 2 are clamped to 2 (a split point of zero limbs
    cannot recurse).
    """
    la = _to_limbs(a.value)
    lb = _to_limbs(b.value)
    return Natural(_from_limbs(_mul_limbs(la, lb, max(threshold, 2))))


def to_hex(n: Natural) -> str:
    """Canonical lowercase hex: no leading zeros, ``"0"`` for zero."""
    return format(n.value, "x")


def from_hex(s: str) -> Natural:
    text = s.strip()
    if not text:
        raise ValueError("empty hex string")
    try:
        return Natural(int(text, 16))
    except ValueError:
        raise ValueError(f"invalid hex string: {s!r}") from None


def to_decimal(n: Natural) -> str:
    return str(n.value)


def from_decimal(s: str) -> Natural:
    text = s.strip()
    if not text.isdigit():
        raise ValueError(f"invalid decimal string: {s!r}")
    return Natural(int(text, 10))


def random_bits(n: int, rng: random.Random) -> Natural:
    """A uniform n-bit value with the top bit forced, so bit_length == n."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    if n == 1:
        return ONE
    return Natural((1 << (n - 1)) | rng.getrandbits(n - 1))


def random_odd(n: int, rng: random.Random) -> Natural:
    """A uniform odd n-bit value: top and bottom bits forced."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    if n == 1:
        return ONE
    middle = rng.getrandbits(n - 2) if n > 2 else 0
    return Natural((1 << (n - 1)) | (middle << 1) | 1)


# Limb kernel.  Limbs are little-endian lists of ints in [0, 2^64), with no
# trailing zero limbs; zero is the empty list.

def _to_limbs(x: int) -> list[int]:
    if x == 0:
        return []
    nbytes = (x.bit_length() + 7) // 8
    nlimbs = (nbytes + 7) // 8
    raw = x.to_bytes(nlimbs * 8, "little")
    return [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 8)]


def _from_limbs(limbs: list[int]) -> int:
    if not limbs:
        return 0
    return int.from_bytes(b"".join(v.to_bytes(8, "little") for v in limbs), "little")


def _strip(limbs: list[int]) -> list[int]:
    while limbs and limbs[-1] == 0:
        limbs.pop()
    return limbs


def _add_limbs(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = []
    carry = 0
    for i, av in enumerate(a):
        t = av + carry + (b[i] if i < len(b) else 0)
        out.append(t & LIMB_MASK)
        carry = t >> LIMB_BITS
    if carry:
        out.append(carry)
    return out


def _sub_limbs(a: list[int], b: list[int]) -> list[int]:
    # Requires a >= b; callers guarantee this.
    out = []
    borrow = 0
    for i, av in enumerate(a):
        t = av - borrow - (b[i] if i < len(b) else 0)
        if t < 0:
            t += 1 << LIMB_BITS
            borrow = 1
        else:
            borrow = 0
        out.append(t)
    if borrow:
        raise UnderflowError("limb subtraction underflow")
    return _strip(out)


def _school_limbs(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b))
    for i, av in enumerate(a):
        if av == 0:
            continue
        carry = 0
        k = i
        for bv in b:
            t = out[k] + av * bv + carry
            out[k] = t & LIMB_MASK
            carry = t >> LIMB_BITS
            k += 1
        while carry:
            t = out[k] + carry
            out[k] = t & LIMB_MASK
            carry = t >> LIMB_BITS
            k += 1
    return _strip(out)


def _mul_limbs(a: list[int], b: list[int], threshold: int) -> list[int]:
    if not a or not b:
        return []
    if min(len(a), len(b)) < threshold:
        return _school_limbs(a, b)
    m = max(len(a), len(b)) // 2
    a0, a1 = _strip(a[:m]), a[m:]
    b0, b1 = _strip(b[:m]), b[m:]
    z0 = _mul_limbs(a0, b0, threshold)
    z2 = _mul_limbs(a1, b1, threshold)
    z1 = _sub_limbs(
        _sub_limbs(_mul_limbs(_add_limbs(a0, a1), _add_limbs(b0, b1), threshold), z0),
        z2,
    )
    out = list(z0)
    out.extend(0 for _ in range(len(a) + len(b) + 2 - len(out)))
    _add_into(out, z1, m)
    _add_into(out, z2, 2 * m)
    return _strip(out)


def _add_into(acc: list[int], src: list[int], offset: int) -> None:
    carry = 0
    k = offset
    for sv in src:
        t = acc[k] + sv + carry
        acc[k] = t & LIMB_MASK
        carry = t >> LIMB_BITS
        k += 1
    while carry:
        t = acc[k] + carry
        acc[k] = t & LIMB_MASK
        carry = t >> LIMB_BITS
        k += 1
