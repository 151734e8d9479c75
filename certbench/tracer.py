"""Per-layer spans recorded around calls into the package's public functions.

``Tracer`` replaces each traced function with a timing wrapper in every
``enctrust`` module namespace that binds it.  ``protocol`` and ``sim`` import
names directly (``from .circuits import adapt``), so a wrapper installed only
on the defining module would see none of their calls; ``missing`` is the
check that catches such a gap.

A span's self time is its duration minus the time of the traced spans it
encloses, so ``she.he_mul`` self time excludes the ``bignum`` multiply and
reduction it calls.  Bookkeeping done by hooks is charged to neither side.
"""

from __future__ import annotations

import contextlib
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator

TRACED = (
    "bignum.mul",
    "bignum.mod",
    "she.keygen",
    "she.encrypt_bit",
    "she.he_add",
    "she.he_mul",
    "she.decrypt_bit",
    "circuits.eval_plain",
    "circuits.eval_star",
    "circuits.adapt",
    "circuits.bind_and_continue",
    "circuits.compile_to_star",
    "protocol.source_initiate",
    "protocol.process_rr",
    "protocol.source_finalize",
    "sim.required_eta",
    "sim.build_nodes",
    "sim.run_discovery",
)

# Spans the benchmark's own hop-by-hop runner records around the codec.
CODEC = ("protocol.encode", "protocol.decode")

HEX = re.compile(r"[0-9a-f]+")

DECISIONS = {
    "ForwardUpdated": "forward_updated",
    "ForwardUnchanged": "forward_unchanged",
    "Reply": "reply",
    "Drop": "drop",
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Span statistics plus the value-level counters the hooks collect.

    It is also the probe of a traced hop-by-hop run: ``span`` times the codec and
    ``on_request`` counts the ciphertexts in each encoded request.
    """

    def __init__(self) -> None:
        self.spans = {name: SpanStats() for name in TRACED + CODEC}
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, Callable, Callable]] = []
        self.mul_bits = 0
        self.decisions = dict.fromkeys(DECISIONS.values(), 0)
        self.max_noise_over_eta = 0.0
        self.fresh_total = 0
        self.fresh_read = 0
        self.requests = 0
        self.ciphertexts = 0
        self.duplicates = 0
        self._fresh: set[int] = set()
        self._read: set[int] = set()
        hooks = {
            "bignum.mul": self._on_mul,
            "she.encrypt_bit": self._on_encrypt,
            "she.he_add": self._on_he_op,
            "she.he_mul": self._on_he_op,
            "she.decrypt_bit": self._on_decrypt,
            "protocol.process_rr": self._on_decision,
        }
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("enctrust.")]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"enctrust.{module_name}"], attr)
            wrapper = self._wrap(qualified, original, hooks.get(qualified))
            for module in modules + [sys.modules["enctrust"]]:
                for binding, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, binding, wrapper, original))

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                t1 = clock()
                hook(args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark-side work, such as the JSON codec."""
        stats = self.spans[name]
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            children = self._stack.pop()
            stats.calls += 1
            stats.self_s += elapsed - children
            if self._stack:
                self._stack[-1] += elapsed

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Trace one discovery: wrappers in place, per-discovery sets reset."""
        for module, binding, wrapper, _ in self._bindings:
            setattr(module, binding, wrapper)
        try:
            yield
        finally:
            for module, binding, _, original in self._bindings:
                setattr(module, binding, original)
            self.fresh_total += len(self._fresh)
            self.fresh_read += len(self._read)
            self._fresh.clear()
            self._read.clear()

    def on_request(self, obj: dict, rr) -> None:
        """Count the ciphertexts of one encoded request.

        A ciphertext on the wire is any hex string other than the public key.
        """
        pk = format(int(rr.pk), "x")
        found = [s for s in _strings(obj) if s != pk and HEX.fullmatch(s)]
        self.requests += 1
        self.ciphertexts += len(found)
        self.duplicates += len(found) - len(set(found))

    def missing(self, expected: tuple[str, ...]) -> list[str]:
        """Expected spans that recorded no call."""
        return [name for name in expected if self.spans[name].calls == 0]

    # Hooks.  Fresh ciphertexts are matched to operands by value, because the
    # wire round trip rebuilds every ciphertext object at each hop.

    def _on_mul(self, args, result) -> None:
        self.mul_bits += max(int(args[0]).bit_length(), int(args[1]).bit_length())

    def _on_encrypt(self, args, ct) -> None:
        self._fresh.add(int(ct.value))

    def _mark_read(self, ct) -> None:
        value = int(ct.value)
        if value in self._fresh:
            self._read.add(value)

    def _on_he_op(self, args, ct) -> None:
        self._mark_read(args[0])
        self._mark_read(args[1])
        params = args[3]
        self.max_noise_over_eta = max(self.max_noise_over_eta, ct.noise_bits / params.eta)

    def _on_decrypt(self, args, result) -> None:
        self._mark_read(args[1])

    def _on_decision(self, args, decision) -> None:
        self.decisions[DECISIONS[type(decision).__name__]] += 1


def _strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _strings(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _strings(v)
