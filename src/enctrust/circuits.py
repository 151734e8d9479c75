"""Boolean circuits over encrypted bits.

Circuits are DAGs of two-input XOR/AND gates over input wires and earlier gate
outputs; there are no constant wires.  One walker, :func:`_walk`, evaluates
every circuit, and :func:`universal` is the one flag-configured universal gate,
``(a xor b) xor flag*((a and b) xor (a xor b))``, where the flag selects AND (1)
or XOR (0).  Every evaluator takes its domain as a pair of XOR/AND operations:
plaintext bits (the reference semantics), noise-bit bounds (:data:`BOUND_OPS`,
the planner's), or ciphertexts under one key (:func:`he_ops`), where each
``she.he_add``/``she.he_mul`` reports to the sink of ``she.observe``.  A
circuit compiled to universal gates carries encrypted flags: it reveals the
topology but not which gates are which.

:func:`update` is a hop's whole accumulator update, written once: the plain
adder, or in star mode the compile and the compiled adder.  A hop runs it on
ciphertexts and :func:`required_eta`, the planner, on noise bounds, so the
planner's bound is the hops' tracked bound by construction.
:func:`update_op_counts` runs it once on a domain that only counts, so a
hop's operation count is read off the same code.

Every evaluator's inputs are the accumulator block, then the hop's local
block.  Unlike the paper's, a star hop fires no identity gates before its
adder: every adder output already mixes in fresh local bits and flags.
:func:`adapt` draws the paper's identity-gate zero pairs, which the source
draws and discards: no request carries them.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from . import bignum, she
from .she import Ciphertext, SecurityParams

XOR = "XOR"
AND = "AND"

INPUT = "INPUT"
GATE = "GATE"


@dataclass(frozen=True, slots=True)
class WireRef:
    """A gate operand: an input index or an earlier gate's output."""

    kind: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (INPUT, GATE):
            raise ValueError(f"unknown wire kind: {self.kind!r}")
        if self.index < 0:
            raise ValueError(f"wire index cannot be negative: {self.index}")


def input_wire(index: int) -> WireRef:
    return WireRef(kind=INPUT, index=index)


def gate_wire(index: int) -> WireRef:
    return WireRef(kind=GATE, index=index)


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    a: WireRef
    b: WireRef

    def __post_init__(self) -> None:
        if self.kind not in (XOR, AND):
            raise ValueError(f"gate kind must be XOR or AND, got {self.kind!r}")


def _check_wire(wire: WireRef, num_inputs: int, position: int, where: str) -> None:
    if wire.kind == INPUT and wire.index >= num_inputs:
        raise ValueError(f"{where}: input wire {wire.index} out of range (num_inputs={num_inputs})")
    if wire.kind == GATE and wire.index >= position:
        raise ValueError(f"{where}: gate wire {wire.index} does not precede position {position}")


@dataclass(frozen=True, slots=True)
class Circuit:
    """Gates in topological order over ``num_inputs`` input wires.

    The walker sees every wire as one flat list, the inputs and then each
    gate's output, so input ``i`` sits at position ``i`` and gate ``j``'s
    output at ``num_inputs + j``.  ``steps`` holds each gate's
    ``(is_and, a, b)`` with its operands' positions and ``output_positions``
    each output's; both are derived once, here, and take no part in
    equality, hashing or the repr.
    """

    num_inputs: int
    gates: tuple[Gate, ...]
    outputs: tuple[WireRef, ...]
    steps: tuple[tuple[bool, int, int], ...] = field(init=False, compare=False, repr=False)
    output_positions: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_inputs < 0:
            raise ValueError(f"num_inputs cannot be negative: {self.num_inputs}")
        for i, g in enumerate(self.gates):
            _check_wire(g.a, self.num_inputs, i, f"gate {i}")
            _check_wire(g.b, self.num_inputs, i, f"gate {i}")
        for j, out in enumerate(self.outputs):
            _check_wire(out, self.num_inputs, len(self.gates), f"output {j}")

        def position(w: WireRef) -> int:
            return w.index if w.kind == INPUT else self.num_inputs + w.index

        steps = tuple((g.kind == AND, position(g.a), position(g.b)) for g in self.gates)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "output_positions", tuple(map(position, self.outputs)))

    @property
    def xor_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == XOR)

    @property
    def and_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == AND)


@dataclass(frozen=True, slots=True)
class StarCircuit:
    """A circuit compiled to universal gates: the circuit plus one flag per gate, in
    gate order.  A flag is an encrypted bit on a hop and a noise bound in the planner."""

    circuit: Circuit
    flags: tuple

    def __post_init__(self) -> None:
        if len(self.flags) != len(self.circuit.gates):
            raise ValueError(f"{len(self.flags)} flags for {len(self.circuit.gates)} gates")


def _walk(circuit: Circuit, inputs: Sequence, xor: Callable, and_: Callable) -> tuple:
    """The one evaluation loop: each XOR gate's output is ``xor(a, b)`` and
    each AND gate's ``and_(a, b)``, on its operand values.

    The domain is whatever ``inputs``, ``xor`` and ``and_`` work in: bits,
    noise bounds or ciphertexts.  Gates come in topological order, so every
    operand is an input or an earlier gate's output, already in ``wires`` at
    the position :class:`Circuit` computed for it.
    """
    if len(inputs) != circuit.num_inputs:
        raise ValueError(f"expected {circuit.num_inputs} inputs, got {len(inputs)}")
    ops = (xor, and_)
    wires = list(inputs)
    append = wires.append
    for is_and, a, b in circuit.steps:
        append(ops[is_and](wires[a], wires[b]))
    return tuple(map(wires.__getitem__, circuit.output_positions))


def universal(xor: Callable, and_: Callable, a, b, flag):
    """One universal gate in the domain of ``xor`` and ``and_``:
    ``(a xor b) xor flag * ((a and b) xor (a xor b))``.

    Two ANDs and three XORs, always in the order ``and(a, b)``, ``xor(a, b)``,
    ``xor``, ``and(flag, .)``, ``xor``.
    """
    both = and_(a, b)
    either = xor(a, b)
    return xor(either, and_(flag, xor(both, either)))


def he_ops(pk: int, params: SecurityParams) -> tuple[Callable, Callable]:
    """XOR and AND on ciphertexts under ``pk``."""

    # ``she.he_add``/``she.he_mul`` are looked up at every call, so a wrapper
    # installed on the ``she`` module sees each operation.
    def xor(a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return she.he_add(a, b, pk, params)

    def and_(a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return she.he_mul(a, b, pk, params)

    return xor, and_


# XOR and AND on noise-bit bounds: the domain the planner sizes a key in.
BOUND_OPS = (she.add_noise_bits, she.mul_noise_bits)


def compile_to_star(circuit: Circuit, encrypt: Callable) -> StarCircuit:
    """Replace every gate with a universal gate whose flag, ``encrypt(1)`` for AND
    and ``encrypt(0)`` for XOR, selects its kind."""
    return StarCircuit(circuit, tuple(encrypt(1 if g.kind == AND else 0) for g in circuit.gates))


def eval_bits(circuit: Circuit, bits: Sequence[int]) -> tuple[int, ...]:
    """Reference plaintext semantics."""
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0 or 1")
    return _walk(circuit, bits, operator.xor, operator.and_)


def eval_plain(circuit: Circuit, inputs: Sequence, xor: Callable, and_: Callable) -> tuple:
    """Evaluate with plain gates: each XOR gate as ``xor``, each AND gate as ``and_``."""
    return _walk(circuit, inputs, xor, and_)


def eval_star(sc: StarCircuit, inputs: Sequence, xor: Callable, and_: Callable) -> tuple:
    """Evaluate a compiled circuit; every gate fires as a universal gate with its flag,
    whatever its kind."""
    flags = iter(sc.flags)

    def gate(a, b):
        return universal(xor, and_, a, b, next(flags))

    return _walk(sc.circuit, inputs, gate, gate)


@functools.cache
def build_ripple_adder(width: int) -> Circuit:
    """LSB-first ripple-carry adder computing (A + B) mod 2**width.

    Inputs 0..width-1 are A's bits, width..2*width-1 are B's bits.  A half
    adder (1 XOR, 1 AND) seeds the carry; each further position is a full
    adder of 3 XOR and 2 AND, except the top one, which computes only its
    sum bit (2 XOR): the carry out of the top bit would be discarded, so it
    is never computed.  Width w >= 2 takes 5w - 6 gates (3w - 3 XOR, 2w - 3
    AND) and width 1 a single XOR; every gate lies on a path to an output.

    Built and validated once per width: the result is frozen, so every
    caller shares the same ``Circuit``.
    """
    she.check_width(width)
    gates: list[Gate] = []

    def emit(kind: str, a: WireRef, b: WireRef) -> WireRef:
        gates.append(Gate(kind, a, b))
        return gate_wire(len(gates) - 1)

    def a_bit(i: int) -> WireRef:
        return input_wire(i)

    def b_bit(i: int) -> WireRef:
        return input_wire(width + i)

    outputs = [emit(XOR, a_bit(0), b_bit(0))]
    if width > 1:
        carry = emit(AND, a_bit(0), b_bit(0))
    for i in range(1, width):
        axb = emit(XOR, a_bit(i), b_bit(i))
        outputs.append(emit(XOR, axb, carry))
        if i < width - 1:
            both = emit(AND, a_bit(i), b_bit(i))
            carried = emit(AND, carry, axb)
            carry = emit(XOR, both, carried)
    return Circuit(num_inputs=2 * width, gates=tuple(gates), outputs=tuple(outputs))


ZeroPairs = tuple[tuple[Ciphertext, Ciphertext], ...]


def adapt(acc_bits: int, pk: int, params: SecurityParams, rng: random.Random) -> ZeroPairs:
    """Draw ``acc_bits`` pairs of ``(Enc(0), Enc(0))`` under ``pk``, in full form.

    These are the paper's identity-gate zeros.  The source draws one set per
    request and sends none of it, since no hop fires identity gates
    (``protocol.source_initiate``).
    """
    return tuple(
        (she.encrypt_bit(pk, 0, params, rng), she.encrypt_bit(pk, 0, params, rng))
        for _ in range(acc_bits)
    )


def bind_and_continue(
    acc: Sequence, local_bits: Sequence, star_circuit: StarCircuit, xor: Callable, and_: Callable
) -> tuple:
    """Bind the local block after the accumulator and evaluate the compiled circuit.

    ``ValueError`` if the circuit takes another number of inputs.
    """
    return eval_star(star_circuit, (*acc, *local_bits), xor, and_)


def update(
    circuit: Circuit,
    acc: Sequence,
    local: Sequence,
    encrypt: Callable | None,
    xor: Callable,
    and_: Callable,
) -> tuple:
    """One hop's accumulator update: the adder's outputs on ``(*acc, *local)``.

    An ``encrypt`` of ``None`` is plain mode, which draws nothing; star mode
    compiles the adder with flags from ``encrypt`` and evaluates it.  Hops
    run it on ciphertexts, :func:`required_eta` on bounds.
    """
    if encrypt is None:
        return eval_plain(circuit, (*acc, *local), xor, and_)
    return bind_and_continue(acc, local, compile_to_star(circuit, encrypt), xor, and_)


# Memoized: a hop's count depends on its width and mode alone.
@functools.lru_cache(maxsize=None, typed=True)
def update_op_counts(width: int, star_mode: bool = False) -> tuple[int, int]:
    """``(adds, muls)``: the XORs and ANDs of one hop's :func:`update` at
    ``width``, counted by running it on a domain whose operations only count."""
    circuit = build_ripple_adder(width)
    counts = [0, 0]

    def xor(a, b):
        counts[0] += 1

    def and_(a, b):
        counts[1] += 1

    bits = (None,) * width
    update(circuit, bits, bits, (lambda bit: None) if star_mode else None, xor, and_)
    return counts[0], counts[1]


# Planner result when the requested depth cannot be certified: some noise
# bound would exceed NOISE_CEILING bits, half the widest key ``she`` builds.
TOO_DEEP = "TOO_DEEP"
NOISE_CEILING = she.MAX_PK_BITS // 2


# Memoized: the answer depends on the four arguments alone, so a long-lived
# source plans each route shape once.  ``typed`` keeps ``4.0`` and ``True``
# from answering for ``4`` and ``1``; a call that raises caches nothing.
@functools.lru_cache(maxsize=None, typed=True)
def required_eta(width: int, hops: int, lam: int, star_mode: bool = False) -> int | str:
    """Secret-key bits needed to certify ``hops`` accumulator updates.

    Runs each hop's :func:`update` on noise bounds: every local bit and gate
    flag is fresh, and the accumulator starts fresh from the source.  Every
    adder gate feeds an output and no gate's bound is below its operands',
    so the outputs' largest bound covers every wire.  Returns
    :data:`TOO_DEEP` once any bound exceeds :data:`NOISE_CEILING`.
    """
    she.check_width(width)
    if hops < 0:
        raise ValueError(f"hops cannot be negative, got {hops}")
    fresh = SecurityParams.from_lambda(lam).fresh_noise_bits
    circuit = build_ripple_adder(width)
    local = (fresh,) * width
    acc = local
    for _ in range(hops):
        acc = update(circuit, acc, local, (lambda bit: fresh) if star_mode else None, *BOUND_OPS)
        if max(acc) > NOISE_CEILING:
            return TOO_DEEP
    return max(acc) + 2


# The serialized star circuit: wire indices and encrypted flags, no gate kinds.

def wire_to_json(w: WireRef) -> dict:
    return {"kind": w.kind, "index": w.index}


def star_circuit_to_json(sc: StarCircuit) -> dict:
    return {
        "num_inputs": sc.circuit.num_inputs,
        "gates": [
            {"a": wire_to_json(g.a), "b": wire_to_json(g.b), "flag": bignum.to_hex(flag.value)}
            for g, flag in zip(sc.circuit.gates, sc.flags)
        ],
        "outputs": [wire_to_json(o) for o in sc.circuit.outputs],
    }
