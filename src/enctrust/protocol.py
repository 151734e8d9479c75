"""Encrypted trust-accumulating route discovery.

A source node generates a keypair, encrypts the trust it assigns to its best
neighbor bitwise, and sends a route request toward that neighbor.  Each
intermediate node greedily picks its most trusted unvisited neighbor, adds its
own trust for that neighbor into the encrypted accumulator with a ripple
adder, and forwards.  A node that sees the destination among its own
neighbors forwards the request unchanged (its trust is not accumulated and it
does not appear on the path).  The destination answers with a route reply
carrying the accumulated ciphertexts back to the source, which decrypts the
path's total trust.  (In this scheme ``pk`` decrypts as well as ``sk`` does,
so any node on the path can read the running total; see README
"Limitations".)

Intermediate evaluation runs in one of two modes: plain homomorphic XOR/AND
gates, or the node's adder compiled to flag-configured universal gates.  Both
read the accumulator ciphertexts directly, without the paper's identity gates
before a star adder, and both run through ``circuits.update``, which the
planner runs on noise bounds.  The hop compiles its own, public adder and
encrypts the flags itself, so star mode reproduces the paper's universal
gates but hides no gate kind from the hop that evaluates it.  Each
accumulator ciphertext travels once, in ``acc_trust``; every hop's adder
inputs are the accumulator block, then its local block.

One rule fixes each ciphertext's form (``she``): a ciphertext that never
leaves its hop is ``m + 2r``, a wire ciphertext is ``m + 2r + pk*Q``, and
every homomorphic result is reduced mod ``pk``.  So a hop's local trust
bits and star flags are ``m + 2r`` (``residue=True``), and the source's
accumulator keeps its ``pk*Q`` term.

The source itself never shortcuts: it hands the request to its most trusted
neighbor even when the destination is another of its neighbors, and only a
later hop forwards unchanged to a neighboring destination.  The oracle
follows the same rule.

A request carries only what the next hop reads: the key and parameters,
the destination, the next hop, the path, whose first node is the source,
and the accumulator with its noise bounds, so each request carries exactly
its accumulator's ciphertexts.  The source still draws one
``circuits.adapt`` set of the paper's identity-gate zeros and sends none of
it (:func:`source_initiate`).  No message carries op counts or an adder
interface: a simulation reads each hop's operations off its circuit
(``circuits.update_op_counts``).

A decoder checks a message in one pass, in wire order (:func:`json_fields`):
each field's exact JSON type, and each list's elements with one
``set(map(type, ...))``, raising the ``ValueError`` of the first fault it
meets.  Then one comprehension parses every hex string with no Python call
per string (``bignum.hex_values``), one ``min`` checks the noise bounds and
one ``max`` over the values checks the width.  Only when a hex string or a
bound fails are they walked again, one by one, to name the first in wire
order.  The decoders build ciphertexts with ``tuple.__new__``, as ``she``'s
producers do.

``RouteRequest`` is a plain tuple whose one constructor checks nothing.  A
route that arrives from outside is checked once, in :func:`rr_from_json`
(:func:`_check_route`): the path is not empty, repeats no node and does not
hold the destination.  ``source_initiate`` and ``process_rr`` build valid
requests by construction: the source's path is its own id alone, and a hop
extends the path only by itself, after its tests have shown that it is
neither on the path nor the destination.  A reply's path is checked in
:func:`rp_from_json`: it holds a source and a destination and repeats no
node.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Collection, NamedTuple

from . import bignum, she
from .circuits import Circuit, adapt, build_ripple_adder, he_ops, update
from .she import Ciphertext, KeyPair, SecurityParams, check_width

NodeId = int

# A trust score is an int in [MIN_TRUST, MAX_TRUST], one of TRUST_SCORES;
# the paper's accumulator is DEFAULT_WIDTH bits wide.
MIN_TRUST = 1
MAX_TRUST = 10
TRUST_SCORES = frozenset(range(MIN_TRUST, MAX_TRUST + 1))
DEFAULT_WIDTH = 4

# A hop's drop reason, by node id, when it has no untried neighbor left.
NO_NEXT_HOP = "no trusted next hop: node {} exhausted its neighbors"


def trust_scores_ok(scores: Collection) -> bool:
    """Whether every score is exactly an ``int`` in TRUST_SCORES, in two whole passes.

    ``5.0 == 5`` and ``True == 1``, so membership alone would admit them.
    """
    return set(map(type, scores)) <= {int} and set(scores) <= TRUST_SCORES


@dataclass(frozen=True)
class NodeState:
    """One node's local view: its trust score for each neighbor, and its adder width.

    Its neighbors are the keys of ``trust_db``, and it is not its own.
    Frozen, because :func:`sim.build_nodes` hands the same node to every
    discovery on a topology at one width.  ``trust_db`` is a plain ``dict``
    that nothing may mutate either.  Two fields follow from the others and
    are derived once, here: ``circuit``, the one adder
    ``build_ripple_adder`` builds for the width, and ``ranking``, the
    trusted neighbors by trust descending, then id ascending, which
    :func:`select_next_hop` walks.  Neither takes part in equality or the
    repr.
    """

    id: NodeId
    trust_db: dict[NodeId, int]
    width: int
    circuit: Circuit = field(init=False, compare=False, repr=False)
    ranking: tuple[NodeId, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.id in self.trust_db:
            raise ValueError(f"node {self.id} cannot neighbor itself")
        if not trust_scores_ok(self.trust_db.values()):
            nb, t = next((nb, t) for nb, t in self.trust_db.items() if not trust_scores_ok((t,)))
            raise ValueError(
                f"node {self.id} trust for {nb} is {t!r}, outside [{MIN_TRUST}, {MAX_TRUST}]"
            )
        check_width(self.width)
        # A score the adder cannot hold is a configuration error, not a hop's Drop.
        if max(self.trust_db.values(), default=0) >> self.width:
            nb, t = next((nb, t) for nb, t in self.trust_db.items() if t >> self.width)
            raise ValueError(
                f"node {self.id} trust for {nb} is {t}, which does not fit in {self.width} bits"
            )
        trust = self.trust_db
        object.__setattr__(self, "circuit", build_ripple_adder(self.width))
        object.__setattr__(self, "ranking", tuple(sorted(trust, key=lambda nb: (-trust[nb], nb))))


def make_node(
    node_id: NodeId, trust_db: dict[NodeId, int], width: int = DEFAULT_WIDTH
) -> NodeState:
    return NodeState(id=node_id, trust_db=dict(trust_db), width=width)


class RouteRequest(NamedTuple):
    """A route request: an immutable tuple whose constructor checks nothing.

    The path's first node is the source, so the source is not stored.
    :func:`rr_from_json` checks a route that arrives from outside with
    :func:`_check_route`; the package's own builders make valid requests by
    construction (module docstring).
    """

    pk: int
    params: SecurityParams
    destination: NodeId
    next_hop: NodeId
    path: tuple[NodeId, ...]
    acc_trust: tuple[Ciphertext, ...]

    @property
    def source(self) -> NodeId:
        return self.path[0]


def _check_route(destination: NodeId, path: tuple[NodeId, ...]) -> None:
    """``ValueError`` unless ``path`` is not empty, repeats no node and does
    not hold ``destination``."""
    if not path:
        raise ValueError("path is empty")
    if len(set(path)) != len(path):
        raise ValueError(f"path revisits a node: {path}")
    if destination in path:
        if destination == path[0]:
            raise ValueError(f"source and destination coincide: {destination}")
        raise ValueError(f"destination {destination} is already on the path: {path}")


@dataclass(frozen=True)
class RouteReply:
    path: tuple[NodeId, ...]
    acc_trust: tuple[Ciphertext, ...]


@dataclass(frozen=True)
class Reply:
    reply: RouteReply


@dataclass(frozen=True)
class ForwardUnchanged:
    next_hop: NodeId


@dataclass(frozen=True)
class ForwardUpdated:
    rr: RouteRequest


@dataclass(frozen=True)
class Drop:
    reason: str


ForwardDecision = Reply | ForwardUnchanged | ForwardUpdated | Drop


@dataclass(frozen=True)
class DiscoveryOutcome:
    path: tuple[NodeId, ...]
    trust: int
    trusted: bool


def select_next_hop(node: NodeState, exclude: Collection[NodeId]) -> NodeId | None:
    """The neighbor with the highest trust score, smallest id on ties: the
    first of ``node.ranking`` not in ``exclude``."""
    for nb in node.ranking:
        if nb not in exclude:
            return nb
    return None


def source_initiate(
    node: NodeState,
    destination: NodeId,
    params: SecurityParams,
    rng: random.Random,
    iface_lookup=None,
    _keys: KeyPair | None = None,
) -> tuple[KeyPair, RouteRequest]:
    """Generate keys, encrypt the best neighbor's trust, and build the first RR.

    The source draws one ``circuits.adapt`` set of zeros, sized by its own
    width, and discards it: the request carries the accumulator alone.
    ``iface_lookup`` is unused; ROADMAP step 10b deletes it.  ``_keys`` lets
    a caller that wants to time key generation separately pass a
    pre-generated pair; the result is identical to generating here.
    """
    if destination == node.id:
        raise ValueError(f"node {node.id} cannot discover a route to itself")
    next_hop = select_next_hop(node, ())
    if next_hop is None:
        raise ValueError(f"source {node.id} has no trusted neighbor to forward to")
    keys = _keys if _keys is not None else she.keygen(params, rng)
    acc = she.encrypt_value(keys.pk, node.trust_db[next_hop], node.width, params, rng)
    # Unsent: certbench traces its span (ROADMAP item 3); its draws keep each hop's ciphertexts.
    adapt(node.width, keys.pk, params, rng)
    return keys, RouteRequest(keys.pk, params, destination, next_hop, (node.id,), acc)


def process_rr(
    node: NodeState,
    rr: RouteRequest,
    rng: random.Random,
    star_mode: bool = False,
    iface_lookup=None,
) -> ForwardDecision:
    """One node's handling of an incoming route request.

    Decision order: deliver if this node is the destination; drop requests
    addressed elsewhere or revisiting this node; forward unchanged when the
    destination is a direct neighbor; otherwise accumulate local trust toward
    the greedily chosen next hop and forward the updated request.
    ``iface_lookup`` is unused; ROADMAP step 10b deletes it.
    """
    node_id = node.id
    pk, params, destination, addressee, path, acc = rr
    if node_id == destination:
        return Reply(destination_reply(rr))
    if addressee != node_id:
        return Drop(f"misdelivered: request addressed to {addressee}, not {node_id}")
    if node_id in path:
        return Drop(f"revisit: node {node_id} already on path {list(path)}")
    if destination in node.trust_db:
        return ForwardUnchanged(next_hop=destination)
    # The node never ranks itself, so the path alone is what it excludes.
    next_hop = select_next_hop(node, path)
    if next_hop is None:
        return Drop(NO_NEXT_HOP.format(node_id))
    try:
        # The local bits and star flags never leave this hop: born as residues.
        local = she.encrypt_value(
            pk, node.trust_db[next_hop], node.width, params, rng, residue=True
        )
        encrypt = (
            functools.partial(she.encrypt_bit, pk, params=params, rng=rng, residue=True)
            if star_mode
            else None
        )
        outputs = update(node.circuit, acc, local, encrypt, *he_ops(pk, params))
    except ValueError as exc:
        return Drop(f"malformed payload: {exc}")
    # Valid by construction: the path gains this node, which neither is on
    # it nor is the destination.
    return ForwardUpdated(
        RouteRequest(pk, params, destination, next_hop, path + (node_id,), outputs)
    )


def destination_reply(rr: RouteRequest) -> RouteReply:
    """The destination's answer: final path and the accumulated ciphertexts."""
    return RouteReply(path=rr.path + (rr.destination,), acc_trust=rr.acc_trust)


def source_finalize(
    keys: KeyPair, rp: RouteReply, params: SecurityParams
) -> DiscoveryOutcome:
    """Decrypt the accumulated trust; trusted only if every noise bound held.

    ``she.noise_ok`` also fails a reply ciphertext wider than a fresh one under
    the source's own ``params``, so an oversized reply is reported untrusted.
    """
    trust = she.decrypt_value(keys.sk, rp.acc_trust)
    trusted = all(she.noise_ok(ct, params) for ct in rp.acc_trust)
    return DiscoveryOutcome(path=rp.path, trust=trust, trusted=trusted)


# JSON wire formats.  Ciphertexts serialize as canonical hex; the accumulator's
# noise bounds travel in a parallel field.

def json_fields(obj: object, fields: tuple[tuple[str, type, set[type] | None], ...]) -> list:
    """The values of ``fields`` in ``obj``, in table order, else ``ValueError``
    naming the first fault in that order.

    ``fields`` lists ``(key, JSON type, element types or None)`` in wire
    order.  Each type test is exact, which keeps JSON booleans (Python
    ``bool``, a subclass of ``int``) out of every int field, and a list's
    elements are checked with one ``set(map(type, ...))``.  Any other field
    is ignored.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for key, kind, elements in fields:
        try:
            value = obj[key]
        except KeyError:
            raise ValueError(f"missing field {key!r}") from None
        if type(value) is not kind:
            raise ValueError(f"field {key!r} has the wrong JSON type: {type(value).__name__}")
        if elements is not None and not set(map(type, value)) <= elements:
            bad = next(type(v) for v in value if type(v) not in elements)
            raise ValueError(f"field {key!r} has the wrong JSON type: {bad.__name__}")
        values.append(value)
    return values


def _ciphertext_values(hexes: list[str], bounds: list[int]) -> list[int]:
    """The values of ``hexes``: one pass over all their digits, and one
    ``min`` over the noise bounds.

    ``ValueError`` if ``hexes`` and ``bounds`` differ in length or are
    empty, since no accumulator is narrower than 1 bit
    (:func:`she.check_width`), else for the first bad hex string or negative
    bound in wire order, the one that decoding element by element would meet
    first.
    """
    if len(hexes) != len(bounds):
        raise ValueError(
            f"{len(hexes)} ciphertexts under 'acc_trust' but {len(bounds)} noise bounds"
        )
    if not hexes:
        raise ValueError("field 'acc_trust' holds no ciphertext")
    values = bignum.hex_values(hexes)
    if values is None or min(bounds) < 0:
        # Only a failing message pays for naming its first fault.
        for text, bound in zip(hexes, bounds):
            bignum.from_hex(text)
            if bound < 0:
                raise ValueError(f"noise_bits cannot be negative: {bound}")
    return values


_tuple_new = tuple.__new__


def _ciphertexts(values, bounds) -> tuple[Ciphertext, ...]:
    """Ciphertexts of checked values and non-negative bounds, built as
    ``she``'s producers build them."""
    return tuple(map(_tuple_new, repeat(Ciphertext), zip(values, bounds)))


# The fields a decoder reads, in wire order: key, JSON type, element types.
_RR_FIELDS = (
    ("pk", str, None),
    ("lambda", int, None),
    ("eta", int, None),
    ("destination", int, None),
    ("next_hop", int, None),
    ("path", list, {int}),
    ("acc_trust", list, {str}),
    ("acc_trust_noise_bits", list, {int}),
)
_RP_FIELDS = (
    ("path", list, {int}),
    ("acc_trust", list, {str}),
    ("acc_trust_noise_bits", list, {int}),
)


def rr_to_json(rr: RouteRequest) -> dict:
    to_hex = bignum.to_hex
    pk, params, destination, next_hop, path, acc = rr
    return {
        "pk": to_hex(pk),
        "lambda": params.lam,
        "eta": params.eta,
        "destination": destination,
        "next_hop": next_hop,
        "path": list(path),
        "acc_trust": [to_hex(c.value) for c in acc],
        "acc_trust_noise_bits": [c.noise_bits for c in acc],
    }


def rr_from_json(obj: dict) -> RouteRequest:
    """Decode a request; ``ValueError`` on a missing or ill-typed field, a bad
    key, an empty accumulator, a ciphertext wider than a fresh one
    (``params.fresh_ct_bits``), or a route that :func:`_check_route` refuses.

    An honest sender writes no wider ciphertext: a fresh ``m + 2r + pk*Q`` is
    under ``2**(pk_bits + q_bits + 1)`` and an evaluated one is below ``pk``.
    A hex string with more digits than its bound allows is rejected before it
    is parsed, so an oversized value costs its length check and nothing more.
    Any other field is ignored.
    """
    pk_hex, lam, eta, destination, next_hop, path, hexes, bounds = json_fields(obj, _RR_FIELDS)
    params = SecurityParams.from_lambda(lam, eta)
    pk_bits, max_bits = params.pk_bits, params.fresh_ct_bits
    if len(pk_hex) > _hex_digits(pk_bits):
        raise ValueError(f"public key wider than {pk_bits} bits")
    pk = bignum.from_hex(pk_hex)
    if not pk & 1 or pk.bit_length() != pk_bits:
        raise ValueError(f"public key must be odd and {pk_bits} bits wide")
    if max(map(len, hexes), default=0) > _hex_digits(max_bits):
        raise ValueError(f"ciphertext wider than {max_bits} bits")
    values = _ciphertext_values(hexes, bounds)
    # The digit count alone admits up to 3 bits more than the bound.  No
    # value is negative, so the largest is the widest.
    if max(values).bit_length() > max_bits:
        raise ValueError(f"ciphertext wider than {max_bits} bits")
    path = tuple(path)
    _check_route(destination, path)
    return RouteRequest(pk, params, destination, next_hop, path, _ciphertexts(values, bounds))


def _hex_digits(bits: int) -> int:
    """The most hex digits a value of at most ``bits`` bits is written with."""
    return (bits + 3) // 4


def rp_to_json(rp: RouteReply) -> dict:
    to_hex = bignum.to_hex
    return {
        "path": list(rp.path),
        "acc_trust": [to_hex(c.value) for c in rp.acc_trust],
        "acc_trust_noise_bits": [c.noise_bits for c in rp.acc_trust],
    }


def rp_from_json(obj: dict) -> RouteReply:
    """Decode a reply; ``ValueError`` on a missing or ill-typed field, a
    count mismatch, an empty accumulator, a bad hex string, a negative noise
    bound, or a path shorter than a source and a destination or that repeats
    a node.

    Neither the decoder nor :func:`source_finalize` checks that the path
    starts at the source or that the accumulator has the source's width
    (README "Limitations")."""
    path, hexes, bounds = json_fields(obj, _RP_FIELDS)
    values = _ciphertext_values(hexes, bounds)
    path = tuple(path)
    if len(path) < 2:
        raise ValueError(f"path needs a source and a destination: {path}")
    if len(set(path)) != len(path):
        raise ValueError(f"path revisits a node: {path}")
    return RouteReply(path=path, acc_trust=_ciphertexts(values, bounds))
