"""A fixed pure-Python task that measures the host's speed during a run.

The task does the kinds of work a discovery does: schoolbook multiplication
on lists of 64-bit limbs, modular reduction of the product, construction of
small frozen objects and a JSON round trip of hex strings.  It is the
benchmark's own code and never calls the package, so a change to the package
cannot change its work.  Timed between discoveries, it tells how fast the
interpreter ran on this host during the same run.

The cyclic garbage collector is held off while the task runs: a collection
would scan the package's live objects, and a package that keeps more objects
alive would then make the task, not the discoveries, look slower.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass

LIMB_BITS = 64
LIMB_MASK = (1 << LIMB_BITS) - 1
OPERAND_BITS = 2048
ROUNDS = 40


@dataclass(frozen=True, slots=True)
class _Value:
    value: int


def _limbs(x: int) -> list[int]:
    out = []
    while x:
        out.append(x & LIMB_MASK)
        x >>= LIMB_BITS
    return out


def _school(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        carry = 0
        for j, y in enumerate(b):
            t = out[i + j] + x * y + carry
            out[i + j] = t & LIMB_MASK
            carry = t >> LIMB_BITS
        out[i + len(b)] += carry
    return out


def _join(limbs: list[int]) -> int:
    x = 0
    for limb in reversed(limbs):
        x = (x << LIMB_BITS) | limb
    return x


_RNG = random.Random(20260101)
_A = _RNG.getrandbits(OPERAND_BITS) | 1
_B = _RNG.getrandbits(OPERAND_BITS) | 1
_M = _RNG.getrandbits(OPERAND_BITS // 2) | 1


def task() -> int:
    """One fixed unit of work; its result never changes."""
    acc = _Value(_A)
    values = []
    for r in range(ROUNDS):
        product = _join(_school(_limbs(acc.value), _limbs(_B + r)))
        acc = _Value(product % _M | 1 << (OPERAND_BITS - 1))
        values.append(_Value(acc.value ^ r))
    text = json.dumps({"values": [format(v.value, "x") for v in values]})
    decoded = [_Value(int(s, 16)) for s in json.loads(text)["values"]]
    return sum(v.value for v in decoded) % _M


def timed() -> float:
    """CPU seconds of one run of the task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        task()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()
