"""Big-integer arithmetic for ciphertexts, plus the paper's limb multiplication kernel.

Keys and ciphertext values are plain non-negative Python ``int``s.  Every
ciphertext multiplication goes through :func:`mul` and every reduction
through :func:`mod`, both Python's exact built-in integer arithmetic, so
there is one place to time, count or replace them.

:func:`karatsuba_mul` is the hand-written reference kernel on little-endian
lists of 64-bit limbs: schoolbook below a limb threshold, Karatsuba above
it.  It computes the same products as :func:`mul`, but one to two orders of
magnitude slower, so nothing on the ciphertext path calls it; the tests
validate it against native products.

Hex is the wire form of keys and ciphertexts: lowercase, no leading zero,
``"0"`` for zero.  Both directions go through ``bytes`` so that C does the
work.  :func:`to_hex` writes the big-endian bytes as hex and drops the one
leading ``0`` nibble an odd digit count leaves.  :func:`from_hex` pads the
string to an even length and reads it with ``binascii.unhexlify``, which
accepts hex digits of either case and nothing else (no sign, ``0x``, ``_``,
whitespace or non-ASCII digit, all of which ``int(s, 16)`` would take).
Every hop of a discovery decodes and re-encodes the whole request, so this
matters.  Per 20,000-bit value (CPython 3.11.7, 2-core Xeon host),
encoding took 6.4 us against 27 us for ``format(n, "x")``, and decoding
4.6 us against 22 us for a regex check followed by ``int(s, 16)``.  At 100
bits both ways cost under 0.6 us, within 0.1 us of the old rules.

Randomness is always drawn from an explicitly passed ``random.Random``
instance (a Mersenne Twister), so every caller controls determinism by
choosing the seed.
"""

from __future__ import annotations

import binascii
import itertools
import random

LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1

# Operands whose smaller side is below this many limbs multiply via
# schoolbook; larger ones recurse through Karatsuba.  Crossover measured
# around 2000 bits on CPython 3.10.
KARATSUBA_THRESHOLD = 32


class UnderflowError(ArithmeticError):
    """Subtraction would produce a negative value."""


def mod(a: int, m: int) -> int:
    """``a mod m``: the one reduction on the ciphertext path."""
    return a % m


def mul(a: int, b: int) -> int:
    """``a * b``: the one multiplication on the ciphertext path."""
    return a * b


def karatsuba_mul(a: int, b: int, threshold: int = KARATSUBA_THRESHOLD) -> int:
    """Multiply two non-negative ints via the limb kernel.

    ``threshold`` is the limb count below which recursion bottoms out into
    schoolbook.  Values below 2 are clamped to 2 (a split point of zero limbs
    cannot recurse).
    """
    return _from_limbs(_mul_limbs(_to_limbs(a), _to_limbs(b), max(threshold, 2)))


def to_hex(n: int) -> str:
    """Canonical lowercase hex: no leading zeros, ``"0"`` for zero."""
    if n < 0:
        raise ValueError(f"cannot hex-encode a negative value: {n}")
    return n.to_bytes((n.bit_length() + 7) // 8, "big").hex().lstrip("0") or "0"


def from_hex(s: str) -> int:
    """Parse a string of hex digits: no sign, ``0x`` prefix, ``_`` or whitespace."""
    if not isinstance(s, str) or not s:
        raise ValueError(f"invalid hex string: {s!r}")
    try:
        # unhexlify raises binascii.Error, a ValueError, on a non-hex or
        # non-ASCII character.
        raw = binascii.unhexlify(s if len(s) % 2 == 0 else "0" + s)
    except ValueError:
        raise ValueError(f"invalid hex string: {s!r}") from None
    return int.from_bytes(raw, "big")


def hex_values(strings: list[str]) -> list[int] | None:
    """``from_hex`` of every string, or ``None`` if it refuses any of them.

    The work of ``from_hex`` without a Python call per string: one
    ``unhexlify`` per string in a list comprehension, then one C-level
    ``map`` of ``int.from_bytes``.  ``int(s, 16)`` would be faster on short
    strings but is about twice as slow on a 2,000-bit value.
    """
    if "" in strings:
        return None
    try:
        raw = [binascii.unhexlify(s if len(s) % 2 == 0 else "0" + s) for s in strings]
    except ValueError:
        return None
    return list(map(int.from_bytes, raw, itertools.repeat("big")))


def random_bits(n: int, rng: random.Random) -> int:
    """A uniform n-bit value with the top bit forced, so bit_length() == n."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    if n == 1:
        return 1
    return (1 << (n - 1)) | rng.getrandbits(n - 1)


def random_odd(n: int, rng: random.Random) -> int:
    """A uniform odd n-bit value: top and bottom bits forced."""
    if n < 1:
        raise ValueError(f"bit width must be positive, got {n}")
    if n == 1:
        return 1
    middle = rng.getrandbits(n - 2) if n > 2 else 0
    return (1 << (n - 1)) | (middle << 1) | 1


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
