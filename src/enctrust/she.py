"""Bit-level somewhat-homomorphic encryption over the integers.

A bit ``m`` is encrypted as ``c = m + 2r + pk * Q`` under a public key
``pk = sk * q0`` with an odd secret key ``sk``; decryption is
``(c mod sk) mod 2``.  Ciphertext addition computes XOR and multiplication
computes AND, as long as the accumulated noise ``(c mod sk)`` stays below
``sk``.  Noise is tracked alongside every ciphertext as a bit-length upper
bound, so validity is decidable without the secret key.

Keys and ciphertext values are plain ``int``s, and a :class:`Ciphertext` is
an immutable ``(value, noise_bits)`` tuple that checks nothing.  Its bound is
what :func:`noise_ok` judges: it refuses a negative one, so no bound that was
never checked is trusted.  The producers, :func:`encrypt_bit`,
:func:`he_add` and :func:`he_mul`, build the tuple with ``tuple.__new__``:
a plaintext bit is checked to be the int 0 or 1, and a result's bound comes
from the noise rules over its operands.  The wire decoders build it the same
way, after one ``min`` over a message's bounds.  Every multiplication of
ciphertexts or keys goes through :func:`bignum.mul` and every reduction
through :func:`bignum.mod`.  Homomorphic results are always reduced modulo
``pk``: since ``pk`` is a multiple of ``sk``, this bounds ciphertext size
without changing the decryption or the noise residue.

One rule fixes every ciphertext's form.  A ciphertext that never leaves its
hop is ``m + 2r`` (:func:`encrypt_bit` with ``residue=True``), a ciphertext
that crosses the wire is ``m + 2r + pk * Q``, and every homomorphic result is
reduced mod ``pk``.  Since ``(x + pk * Q) mod pk = x mod pk``, a hop's own bits
give every result the full form would.  That residue being the noise itself
is also why ``pk`` decrypts (README "Limitations").  The one exception is
``circuits.adapt``'s zeros: the source draws them in full form and sends
none, so that every later draw from its seed stays where it was.

Parameters follow a single security knob ``lam``: the public key is
``lam**3`` bits, fresh noise ``r`` is ``lam`` bits, and the multiplier ``Q``
is ``lam**2`` bits.  The secret key width ``eta`` defaults to ``lam**2`` and
may be raised to buy multiplicative depth; the public key widens along with
it when needed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

from . import bignum


# The widest public key a schedule may ask for.  ``circuits.NOISE_CEILING`` is
# half of it, so every planned eta builds at every lam whose own key fits.
MAX_PK_BITS = 1 << 25


@dataclass(frozen=True)
class SecurityParams:
    """Size schedule for one instance of the scheme, fixed by the two values the
    wire carries: pk ``lam**3`` bits (``eta + lam`` if that is wider), r ``lam``
    bits, Q ``lam**2`` bits.

    ``lam`` and ``eta`` are its only fields, so they alone make its equality,
    hash and repr.  Its widths, ``r_bits``, ``q_bits``, ``pk_bits`` and
    ``fresh_ct_bits``, and ``fresh_noise_bits``, are computed once, when it
    is built, and stored as plain attributes: a decoder checks every request
    against the middle two, and every encryption reads the other three.
    A ``pk_bits`` over :data:`MAX_PK_BITS` is refused.
    """

    lam: int
    eta: int

    def __post_init__(self) -> None:
        # Exactly int: a float eta only fails later, in keygen, and a bool
        # is no size.
        if type(self.lam) is not int or type(self.eta) is not int:
            raise ValueError(f"lam and eta must be integers, got lam={self.lam!r} eta={self.eta!r}")
        if self.lam < 2:
            raise ValueError(f"lam must be at least 2, got {self.lam}")
        if self.eta < self.lam + 2:
            raise ValueError(f"eta must be at least lam + 2, got eta={self.eta} lam={self.lam}")
        # Set as the fields are, so they stay in the instance's inline
        # values: a ``functools.cached_property`` writes ``__dict__``, and
        # every later attribute read, ``lam`` and ``eta`` too, gets slower.
        pk_bits = max(self.lam**3, self.eta + self.lam)
        if pk_bits > MAX_PK_BITS:
            raise ValueError(
                f"a {pk_bits}-bit public key (lam={self.lam}, eta={self.eta}) "
                f"exceeds the limit of {MAX_PK_BITS} bits"
            )
        q_bits = self.lam * self.lam
        object.__setattr__(self, "r_bits", self.lam)
        object.__setattr__(self, "q_bits", q_bits)
        object.__setattr__(self, "pk_bits", pk_bits)
        # Upper bound on a fresh ciphertext's bit length.
        object.__setattr__(self, "fresh_ct_bits", pk_bits + q_bits + 2)
        # Noise bound of a fresh encryption: |m + 2r| <= lam + 2 bits.
        object.__setattr__(self, "fresh_noise_bits", self.lam + 2)

    # Memoized: a schedule is immutable, so each ``(lam, eta)`` is built once
    # rather than once per decoded request.  The pair comes off the wire, so
    # the cache is bounded: a sender cycling through values evicts entries
    # instead of growing the process.  ``typed`` keeps ``4.0`` and ``True``
    # from answering for ``4`` and ``1``, so they reach ``__post_init__`` and
    # are refused; a call that raises caches nothing.
    @classmethod
    @functools.lru_cache(maxsize=128, typed=True)
    def from_lambda(cls, lam: int, eta: int | None = None) -> "SecurityParams":
        """The schedule at ``lam``, with ``eta`` defaulting to ``lam**2``."""
        return cls(lam=lam, eta=lam * lam if eta is None else eta)


@dataclass(frozen=True, slots=True)
class KeyPair:
    sk: int
    pk: int
    q0: int


_tuple_new = tuple.__new__


class Ciphertext(NamedTuple):
    """An encrypted bit plus a key-free upper bound on its noise bit length.

    An immutable ``(value, noise_bits)`` tuple: every he-op builds one, and a
    tuple is cheaper to construct than a frozen dataclass.  It checks
    nothing; :func:`noise_ok` refuses a negative bound.  The producers in
    this module and the wire decoders build it with ``tuple.__new__``, the
    same constructor without the Python frame of the generated one.
    """

    value: int
    noise_bits: int


def add_noise_bits(n1: int, n2: int) -> int:
    """Noise bound after ciphertext addition; :func:`he_add` computes it in place."""
    return max(n1, n2) + 1


def mul_noise_bits(n1: int, n2: int) -> int:
    """Noise bound after ciphertext multiplication; :func:`he_mul` computes it in place."""
    return n1 + n2


def noise_ok(ct: Ciphertext, params: SecurityParams) -> bool:
    """True when the tracked noise still guarantees correct decryption.

    The bound holds only for values the scheme produces, and none of those is
    wider than a fresh ciphertext (``params.fresh_ct_bits``); a wider value
    carries no guarantee whatever bound travels with it.  No noise rule yields
    a negative bound, so a negative one was never checked and guarantees
    nothing either.
    """
    return (
        0 <= ct.noise_bits <= params.eta - 1
        and ct.value.bit_length() <= params.fresh_ct_bits
    )


def keygen(params: SecurityParams, rng: random.Random) -> KeyPair:
    """Sample sk (odd, eta bits) and q0 (odd) with pk = sk * q0 exactly pk_bits wide.

    For narrow q0 some secret keys admit no q0 that lands the product on
    exactly pk_bits bits, so after a bounded number of q0 draws the secret
    key is resampled as well.
    """
    q_width = params.pk_bits - params.eta
    for _ in range(1000):
        sk = bignum.random_odd(params.eta, rng)
        for _ in range(64):
            q0 = bignum.random_odd(q_width, rng)
            pk = bignum.mul(sk, q0)
            if pk.bit_length() == params.pk_bits:
                return KeyPair(sk=sk, pk=pk, q0=q0)
    raise RuntimeError("key generation failed to hit the target public key width")


def encrypt_bit(
    pk: int, m: int, params: SecurityParams, rng: random.Random, *, residue: bool = False
) -> Ciphertext:
    """Encrypt one bit as m + 2r + pk * Q, drawing r and then Q from ``rng``.

    With ``residue`` the value is ``m + 2r`` and only ``r`` is drawn: the form
    of a ciphertext that never leaves its hop (module docstring).  Each draw
    is ``bignum.random_bits``'s, in place: since ``lam >= 2``, no width is 1.
    """
    # Exactly the ints 0 and 1: ``1.0 == 1`` and ``True == 1``, and a float
    # here would become a float ciphertext that no decryption accepts.
    if type(m) is not int or m not in (0, 1):
        raise ValueError(f"plaintext bit must be the int 0 or 1, got {m!r}")
    top = params.r_bits - 1
    value = m + 2 * ((1 << top) | rng.getrandbits(top))
    if not residue:
        top = params.q_bits - 1
        value += bignum.mul(pk, (1 << top) | rng.getrandbits(top))
    ct = _tuple_new(Ciphertext, (value, params.fresh_noise_bits))
    sink = _sink.get()
    if sink is not None:
        sink("encrypt", ct)
    return ct


def decrypt_bit(sk: int, ct: Ciphertext) -> int:
    return bignum.mod(ct.value, sk) & 1


def he_add(c1: Ciphertext, c2: Ciphertext, pk: int, params: SecurityParams) -> Ciphertext:
    """Homomorphic XOR of the underlying bits, bounded by :func:`add_noise_bits`."""
    (v1, n1), (v2, n2) = c1, c2
    ct = _tuple_new(Ciphertext, (bignum.mod(v1 + v2, pk), (n1 if n1 > n2 else n2) + 1))
    sink = _sink.get()
    if sink is not None:
        sink("add", ct)
    return ct


def he_mul(c1: Ciphertext, c2: Ciphertext, pk: int, params: SecurityParams) -> Ciphertext:
    """Homomorphic AND of the bits, ``(c1 * c2) mod pk``, bounded by :func:`mul_noise_bits`."""
    (v1, n1), (v2, n2) = c1, c2
    ct = _tuple_new(Ciphertext, (bignum.mod(bignum.mul(v1, v2), pk), n1 + n2))
    sink = _sink.get()
    if sink is not None:
        sink("mul", ct)
    return ct


def check_width(width: object) -> None:
    """``ValueError`` unless ``width`` is exactly an ``int`` of at least 1.

    ``4.0 == 4`` and ``True == 1``, so a looser test would let them stand
    for widths they are not.
    """
    if type(width) is not int or width < 1:
        raise ValueError(f"width must be a positive int, got {width!r}")


def encrypt_value(
    pk: int,
    v: int,
    width: int,
    params: SecurityParams,
    rng: random.Random,
    *,
    residue: bool = False,
) -> tuple[Ciphertext, ...]:
    """Encrypt an integer bitwise, least significant bit first; ``residue`` as
    in :func:`encrypt_bit`."""
    check_width(width)
    if type(v) is not int:
        raise ValueError(f"plaintext value must be an int, got {v!r}")
    if not 0 <= v < (1 << width):
        raise ValueError(f"value {v} does not fit in {width} bits")
    return tuple(
        encrypt_bit(pk, (v >> i) & 1, params, rng, residue=residue) for i in range(width)
    )


def decrypt_value(sk: int, cts: Sequence[Ciphertext]) -> int:
    """Decrypt a bitwise encryption, least significant bit first; () -> 0."""
    v = 0
    for i, ct in enumerate(cts):
        v |= decrypt_bit(sk, ct) << i
    return v


# Event sink: every ciphertext that encrypt_bit, he_add and he_mul produce is
# reported in place as ``sink(op, ct)``, with ``op`` one of "encrypt", "add"
# and "mul", to the sinks that :func:`observe` installed in the current
# context, innermost first.  With none installed, a producer pays one
# ``ContextVar.get`` and one test.  The sink lives in a ``ContextVar``, so
# each thread or task sees only its own operations, and two concurrent runs
# never mix their evidence.

Sink = Callable[[str, Ciphertext], None]

_sink: contextvars.ContextVar[Sink | None] = contextvars.ContextVar("she_sink", default=None)


@contextlib.contextmanager
def observe(sink: Sink) -> Iterator[None]:
    """Report every ciphertext produced inside the block, in this context, to ``sink``.

    Blocks nest: inside an outer ``observe``, each event goes to ``sink`` and
    then to the outer sink, which alone receives events again once the block
    ends.  A caller that observes around a run therefore sees every event of
    it, whatever the run observes itself.
    """
    outer = _sink.get()
    if outer is None:
        chained = sink
    else:

        def chained(op: str, ct: Ciphertext) -> None:
            sink(op, ct)
            outer(op, ct)

    token = _sink.set(chained)
    try:
        yield
    finally:
        _sink.reset(token)
