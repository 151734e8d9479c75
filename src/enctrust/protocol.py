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
gates reading the accumulator ciphertexts directly, or the universal-gate
pipeline in which the node fires an identity gate ``(acc_i, Enc(0), Enc(0))``
on each accumulator ciphertext, then evaluates its adder compiled to
flag-configured universal gates.  Both run through ``circuits.update``, which
the planner runs on noise bounds.  The hop compiles its own, public adder and
encrypts the flags and the identity gates' zeros itself, so star mode
reproduces the paper's gates but hides no gate kind from the hop that
evaluates it.  Each accumulator ciphertext travels once, in ``acc_trust``;
every hop's adder inputs are the accumulator block, then its local block.

One rule fixes each ciphertext's form (``she``): a ciphertext that never
leaves its hop is ``m + 2r``, a wire ciphertext is ``m + 2r + pk*Q``, and
every homomorphic result is reduced mod ``pk``.  So a hop's local trust
bits, star flags and zeros are ``m + 2r`` (``residue=True``), and the
source's accumulator and zeros keep their ``pk*Q`` term.

The source itself never shortcuts: it hands the request to its most trusted
neighbor even when the destination is another of its neighbors, and only a
later hop forwards unchanged to a neighboring destination.  The oracle
follows the same rule.

A request carries only what the next hop cannot work out for itself: the
key and parameters, the endpoints, the path and the accumulator with its
noise bounds.  Its ``zeros`` list is empty except in the source's request,
which carries one ``circuits.adapt`` set, two per accumulator bit, that no
hop reads; a decoder accepts none or two per bit.  No message carries op
counts or an adder interface: a simulation counts each hop's operations
through ``she.observe``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Collection, Sequence

from . import bignum, she
from .circuits import Circuit, ZeroPairs, adapt, build_ripple_adder, he_ops, update
from .she import Ciphertext, KeyPair, SecurityParams, check_width

NodeId = int

# A trust score is an int in [MIN_TRUST, MAX_TRUST], one of TRUST_SCORES;
# the paper's accumulator is DEFAULT_WIDTH bits wide.
MIN_TRUST = 1
MAX_TRUST = 10
TRUST_SCORES = frozenset(range(MIN_TRUST, MAX_TRUST + 1))
DEFAULT_WIDTH = 4


def trust_scores_ok(scores: Collection) -> bool:
    """Whether every score is exactly an ``int`` in TRUST_SCORES, in two whole passes.

    ``5.0 == 5`` and ``True == 1``, so membership alone would admit them.
    """
    return set(map(type, scores)) <= {int} and set(scores) <= TRUST_SCORES


@dataclass(frozen=True)
class NodeState:
    """One node's local view: neighbors, directed trust scores, and its adder width.

    Frozen, because :func:`sim.build_nodes` hands the same node to every
    discovery on a topology at one width.  ``trust_db`` is a plain ``dict``
    that nothing may mutate either.
    """

    id: NodeId
    neighbors: frozenset[NodeId]
    trust_db: dict[NodeId, int]
    width: int

    def __post_init__(self) -> None:
        if self.id in self.neighbors:
            raise ValueError(f"node {self.id} cannot neighbor itself")
        unknown = set(self.trust_db) - set(self.neighbors)
        if unknown:
            raise ValueError(f"node {self.id} has trust for non-neighbors {sorted(unknown)}")
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

    @property
    def circuit(self) -> Circuit:
        """The node's adder: the one ``build_ripple_adder`` builds for its width."""
        return build_ripple_adder(self.width)


def make_node(
    node_id: NodeId, neighbors, trust_db: dict[NodeId, int], width: int = DEFAULT_WIDTH
) -> NodeState:
    return NodeState(
        id=node_id, neighbors=frozenset(neighbors), trust_db=dict(trust_db), width=width
    )


@dataclass(frozen=True)
class RouteRequest:
    pk: int
    params: SecurityParams
    source: NodeId
    destination: NodeId
    next_hop: NodeId
    path: tuple[NodeId, ...]
    acc_trust: tuple[Ciphertext, ...]
    zeros: ZeroPairs

    def __post_init__(self) -> None:
        if not self.path or self.path[0] != self.source:
            raise ValueError(f"path must start at the source {self.source}, got {self.path}")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"path revisits a node: {self.path}")
        if self.source == self.destination:
            raise ValueError(f"source and destination coincide: {self.source}")


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


def select_next_hop(node: NodeState, exclude: set[NodeId]) -> NodeId | None:
    """The neighbor with the highest trust score, smallest id on ties."""
    best: NodeId | None = None
    best_trust = MIN_TRUST - 1
    for nb in sorted(node.trust_db):
        if nb in exclude:
            continue
        if node.trust_db[nb] > best_trust:
            best, best_trust = nb, node.trust_db[nb]
    return best


def source_initiate(
    node: NodeState,
    destination: NodeId,
    params: SecurityParams,
    rng: random.Random,
    iface_lookup=None,
    _keys: KeyPair | None = None,
) -> tuple[KeyPair, RouteRequest]:
    """Generate keys, encrypt the best neighbor's trust, and build the first RR.

    The request carries one ``circuits.adapt`` set of zeros, sized by the
    source's own width.  ``iface_lookup`` is unused; ROADMAP step 10b
    deletes it.  ``_keys`` lets a caller that wants to time key generation
    separately pass a pre-generated pair; the result is identical to
    generating here.
    """
    if destination == node.id:
        raise ValueError(f"node {node.id} cannot discover a route to itself")
    next_hop = select_next_hop(node, {node.id})
    if next_hop is None:
        raise ValueError(f"source {node.id} has no trusted neighbor to forward to")
    keys = _keys if _keys is not None else she.keygen(params, rng)
    acc = she.encrypt_value(keys.pk, node.trust_db[next_hop], node.width, params, rng)
    zeros = adapt(node.width, keys.pk, params, rng)
    rr = RouteRequest(
        pk=keys.pk,
        params=params,
        source=node.id,
        destination=destination,
        next_hop=next_hop,
        path=(node.id,),
        acc_trust=acc,
        zeros=zeros,
    )
    return keys, rr


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
    the greedily chosen next hop and forward the updated request.  The
    updated request carries no zeros.  ``iface_lookup`` is unused; ROADMAP
    step 10b deletes it.
    """
    params = rr.params
    if node.id == rr.destination:
        return Reply(destination_reply(rr))
    if rr.next_hop != node.id:
        return Drop(f"misdelivered: request addressed to {rr.next_hop}, not {node.id}")
    if node.id in rr.path:
        return Drop(f"revisit: node {node.id} already on path {list(rr.path)}")
    if rr.destination in node.neighbors:
        return ForwardUnchanged(next_hop=rr.destination)
    exclude = set(rr.path) | {node.id}
    next_hop = select_next_hop(node, exclude)
    if next_hop is None:
        return Drop(f"no trusted next hop: node {node.id} exhausted its neighbors")
    pk = rr.pk
    try:
        # The local bits, star flags and zeros never leave this hop: born as residues.
        local = she.encrypt_value(
            pk, node.trust_db[next_hop], node.width, params, rng, residue=True
        )
        encrypt = functools.partial(she.encrypt_bit, pk, params=params, rng=rng, residue=True)
        outputs = update(node.circuit, rr.acc_trust, local, star_mode, encrypt, *he_ops(pk, params))
    except ValueError as exc:
        return Drop(f"malformed payload: {exc}")
    return ForwardUpdated(
        RouteRequest(
            pk=pk,
            params=params,
            source=rr.source,
            destination=rr.destination,
            next_hop=next_hop,
            path=rr.path + (node.id,),
            acc_trust=outputs,
            zeros=(),
        )
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

def json_fields(obj: object, kinds: dict[str, type], elements: dict[str, type]) -> list:
    """The values of the fields ``kinds`` names, in its order, else ``ValueError``.

    Each value must be of exactly its JSON type in ``kinds``, and each
    element of a list field named in ``elements`` of exactly that type.  The
    exact-type tests keep JSON booleans (Python ``bool``, a subclass of
    ``int``) out of every int field.  The checks are one lookup per field,
    one comparison of their types and one ``set(map(type, ...))`` per list;
    any other field is ignored.  Only a failing message pays for the
    diagnosis, which names its first bad field.
    """
    try:
        values = [obj[key] for key in kinds]
    except (KeyError, TypeError):
        pass
    else:
        if tuple(map(type, values)) == tuple(kinds.values()) and all(
            set(map(type, obj[key])) <= {kind} for key, kind in elements.items()
        ):
            return values
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for key, kind in kinds.items():
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        value = obj[key]
        if type(value) is not kind:
            bad = type(value)
        elif key in elements:
            bad = next((type(v) for v in value if type(v) is not elements[key]), None)
        else:
            continue
        if bad is not None:
            raise ValueError(f"field {key!r} has the wrong JSON type: {bad.__name__}")
    raise ValueError("malformed message")


def cts_to_json(key: str, cts: Sequence[Ciphertext]) -> dict:
    """Ciphertexts as hex under ``key``, their noise bounds under ``key + "_noise_bits"``."""
    return {
        key: [bignum.to_hex(c.value) for c in cts],
        f"{key}_noise_bits": [c.noise_bits for c in cts],
    }


def _accumulator(hexes: list[str], bounds: list[int]) -> tuple[Ciphertext, ...]:
    """The ``acc_trust`` ciphertexts with their bounds; ``ValueError`` on a count mismatch."""
    if len(hexes) != len(bounds):
        raise ValueError(
            f"{len(hexes)} ciphertexts under 'acc_trust' but {len(bounds)} noise bounds"
        )
    return tuple(map(Ciphertext, map(bignum.from_hex, hexes), bounds))


# The fields a decoder reads, with their JSON types, and each list's element type.
_RR_KINDS = {
    "pk": str,
    "lambda": int,
    "eta": int,
    "source": int,
    "destination": int,
    "next_hop": int,
    "path": list,
    "acc_trust": list,
    "acc_trust_noise_bits": list,
    "zeros": list,
}
_RR_ELEMENTS = {"path": int, "acc_trust": str, "acc_trust_noise_bits": int, "zeros": str}
_RP_KINDS = {"path": list, "acc_trust": list, "acc_trust_noise_bits": list}
_RP_ELEMENTS = {"path": int, "acc_trust": str, "acc_trust_noise_bits": int}


def rr_to_json(rr: RouteRequest) -> dict:
    return {
        "pk": bignum.to_hex(rr.pk),
        "lambda": rr.params.lam,
        "eta": rr.params.eta,
        "source": rr.source,
        "destination": rr.destination,
        "next_hop": rr.next_hop,
        "path": list(rr.path),
        **cts_to_json("acc_trust", rr.acc_trust),
        # Flat: accumulator bit i's pair is zeros[2i], zeros[2i+1].
        "zeros": [bignum.to_hex(z.value) for pair in rr.zeros for z in pair],
    }


def rr_from_json(obj: dict) -> RouteRequest:
    """Decode a request; ``ValueError`` on a missing or ill-typed field, a bad
    key, a ciphertext wider than a fresh one (``params.fresh_ct_bits``), or a
    zero count other than none or twice the accumulator's.  Only the
    source's request carries zeros, and no hop reads them.

    An honest sender writes no wider ciphertext: a fresh ``m + 2r + pk*Q`` is
    under ``2**(pk_bits + q_bits + 1)`` and an evaluated one is below ``pk``.
    A hex string with more digits than its bound allows is rejected before it
    is parsed, so an oversized value costs its length check and nothing more.
    Each zero gets the fresh noise bound, since ``circuits.adapt`` encrypted
    it fresh; any other field, such as an older request's ``stats``, is ignored.
    """
    pk_hex, lam, eta, source, destination, next_hop, path, hexes, bounds, zero_hexes = (
        json_fields(obj, _RR_KINDS, _RR_ELEMENTS)
    )
    params = SecurityParams.from_lambda(lam, eta)
    pk_bits = params.pk_bits
    if len(pk_hex) > _hex_digits(pk_bits):
        raise ValueError(f"public key wider than {pk_bits} bits")
    pk = bignum.from_hex(pk_hex)
    if pk % 2 == 0 or pk.bit_length() != pk_bits:
        raise ValueError(f"public key must be odd and {pk_bits} bits wide")
    if len(zero_hexes) not in (0, 2 * len(hexes)):
        raise ValueError(
            f"{len(zero_hexes)} zeros for {len(hexes)} accumulator bits, "
            "expected none or two per bit"
        )
    max_bits = params.fresh_ct_bits
    if max(map(len, hexes + zero_hexes), default=0) > _hex_digits(max_bits):
        raise ValueError(f"ciphertext wider than {max_bits} bits")
    acc_trust = _accumulator(hexes, bounds)
    fresh = she.fresh_noise_bits(params)
    zeros = [Ciphertext(bignum.from_hex(h), fresh) for h in zero_hexes]
    # The digit count alone admits up to 3 bits more than the bound.
    for ct in (*acc_trust, *zeros):
        if ct.value.bit_length() > max_bits:
            raise ValueError(f"ciphertext wider than {max_bits} bits")
    return RouteRequest(
        pk=pk,
        params=params,
        source=source,
        destination=destination,
        next_hop=next_hop,
        path=tuple(path),
        acc_trust=acc_trust,
        zeros=tuple(zip(zeros[0::2], zeros[1::2])),
    )


def _hex_digits(bits: int) -> int:
    """The most hex digits a value of at most ``bits`` bits is written with."""
    return (bits + 3) // 4


def rp_to_json(rp: RouteReply) -> dict:
    return {"path": list(rp.path), **cts_to_json("acc_trust", rp.acc_trust)}


def rp_from_json(obj: dict) -> RouteReply:
    """Decode a reply; ``ValueError`` on a missing or ill-typed field."""
    path, hexes, bounds = json_fields(obj, _RP_KINDS, _RP_ELEMENTS)
    return RouteReply(path=tuple(path), acc_trust=_accumulator(hexes, bounds))
