"""Topologies, plaintext oracle, noise planner, run orchestration, benchmarks.

The simulator drives the encrypted protocol over generated network topologies
and checks it against :func:`plaintext_oracle`, an independent plaintext
implementation of the same greedy walk.  :func:`required_eta` sizes the
secret key for a target hop count by running the hop's own accumulator
update, :func:`circuits.update`, on noise bounds, so automatically sized runs
are certified correct by construction as long as the tracked bounds hold.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import platform
import random
import statistics
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from . import bignum, she
from .circuits import BOUND_OPS, build_ripple_adder, update
from .protocol import (
    DEFAULT_WIDTH,
    MAX_TRUST,
    MIN_TRUST,
    Drop,
    ForwardDecision,
    ForwardUpdated,
    NodeId,
    NodeState,
    Reply,
    RouteReply,
    RouteRequest,
    json_fields,
    make_node,
    process_rr,
    rp_from_json,
    rp_to_json,
    rr_from_json,
    rr_to_json,
    source_finalize,
    source_initiate,
    trust_scores_ok,
)
from .she import SecurityParams, check_width

DELIVERED = "DELIVERED"
DROPPED = "DROPPED"

# Planner result when the requested depth cannot be certified: some noise
# bound would exceed NOISE_CEILING bits.
TOO_DEEP = "TOO_DEEP"
NOISE_CEILING = 1 << 24


class NoiseBudgetError(ValueError):
    """Automatic key sizing failed: the run is too deep to certify."""


@dataclass(frozen=True)
class Topology:
    """An undirected connected graph with directed per-arc trust scores."""

    nodes: tuple[NodeId, ...]
    edges: tuple[tuple[NodeId, NodeId], ...]
    trust: dict[tuple[NodeId, NodeId], int]
    # Per width, the nodes ``build_nodes`` has built so far: not compared,
    # hashed or shown, and empty in every new instance, ``replace``'s too.
    # A field, not a cached property like ``_adjacency``, whose first read
    # takes a lock: every freshly loaded topology would pay for it.  It must
    # hold nothing that refers back to the topology, or every topology
    # would wait for the cyclic collector.
    _node_store: dict[int, dict[NodeId, NodeState]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Whole-list checks; the per-edge and per-arc loops below run only to
        # name the first fault of a topology that is being rejected.
        if not self.nodes:
            raise ValueError("topology has no nodes")
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValueError("duplicate node ids")
        try:
            edges_ok = (
                len(set(self.edges)) == len(self.edges)
                and all(itertools.starmap(operator.lt, self.edges))
                and known.issuperset(itertools.chain.from_iterable(self.edges))
            )
        except TypeError:  # an edge that is unhashable or not a pair
            edges_ok = False
        if not edges_ok:
            seen = set()
            for a, b in self.edges:
                if a == b:
                    raise ValueError(f"edge ({a}, {b}) is a self-loop")
                if a not in known or b not in known:
                    raise ValueError(f"edge ({a}, {b}) references an unknown node")
                if a > b:
                    raise ValueError(f"edge ({a}, {b}) is not normalized (smaller id first)")
                if (a, b) in seen:
                    raise ValueError(f"duplicate edge ({a}, {b})")
                seen.add((a, b))
        # Distinct normalized edges give 2 * len(edges) distinct arcs, so the
        # trust keys are exactly the arcs if there are that many and each arc
        # is one of them.
        has = self.trust.__contains__
        if not (
            edges_ok
            and len(self.trust) == 2 * len(self.edges)
            and all(map(has, self.edges))
            and all(map(has, [(b, a) for a, b in self.edges]))
        ):
            arcs = {(a, b) for a, b in self.edges} | {(b, a) for a, b in self.edges}
            if self.trust.keys() != arcs:
                missing = sorted(arcs - self.trust.keys())
                extra = sorted(self.trust.keys() - arcs)
                detail = []
                if missing:
                    detail.append(f"missing trust for arcs {missing}")
                if extra:
                    detail.append(f"trust for non-edges {extra}")
                raise ValueError("; ".join(detail))
        if not trust_scores_ok(self.trust.values()):
            arc, t = next((arc, t) for arc, t in self.trust.items() if not trust_scores_ok((t,)))
            raise ValueError(f"trust for arc {arc} = {t!r} outside [{MIN_TRUST}, {MAX_TRUST}]")

    @functools.cached_property
    def _adjacency(self) -> dict[NodeId, frozenset[NodeId]]:
        # Cached on the instance, not a field: equality and repr ignore it.
        out: dict[NodeId, set[NodeId]] = {node: set() for node in self.nodes}
        for a, b in self.edges:
            out[a].add(b)
            out[b].add(a)
        return {node: frozenset(nbs) for node, nbs in out.items()}

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        return self._adjacency.get(node, frozenset())

    def to_json(self) -> dict:
        """``{"nodes": [id, ...], "edges": [[a, b], ...], "trust": [[a, b, score], ...]}``, sorted.

        ``ValueError``, with :meth:`from_json`'s message, for an id that is
        not exactly an ``int``: ``True == 1`` and ``1.0 == 1`` pass the
        constructor, but JSON would write them as ``true`` and ``1.0``,
        which :meth:`from_json` refuses.
        """
        nodes = sorted(self.nodes)
        edges = [list(e) for e in sorted(self.edges)]
        trust = [[a, b, v] for (a, b), v in sorted(self.trust.items())]
        if not (set(map(type, nodes)) <= {int} and _int_lists(edges, 2) and _int_lists(trust, 3)):
            _topology_parts(nodes, edges, trust)  # raises for the first fault
        return {"nodes": nodes, "edges": edges, "trust": trust}

    @classmethod
    def from_json(cls, obj: dict) -> "Topology":
        """Parse :meth:`to_json`'s form; ``ValueError`` on any malformed part.

        As on the wire (:func:`protocol.json_fields`), an integer must be
        exactly an ``int``: JSON ``true`` is no node id, endpoint or trust.
        A trust entry is an ``[a, b, score]`` triple, and an arc given twice
        is an error, not last-wins.
        """
        node_list, edge_list, trust_list = json_fields(obj, _TOPOLOGY_FIELDS)
        return cls(*_topology_parts(node_list, edge_list, trust_list))


_TOPOLOGY_FIELDS = (("nodes", list, None), ("edges", list, None), ("trust", list, None))


def _topology_parts(node_list: list, edge_list: list, trust_list: list) -> tuple:
    """``(nodes, edges, trust)`` of a document, else ``ValueError`` naming its
    first bad node, edge or trust entry, in list order.

    Each list is checked whole, with one C-level ``set(map(type, ...))``
    per check: the ids, the pairs and triples, their lengths, and the
    integers in them.  Only a list that fails is walked, to find its first
    fault.  An arc given twice leaves the trust dict short, and one walk
    names whichever comes first, a malformed entry or a repeated arc.  An
    arc on a non-edge passes here, and ``Topology`` names it.
    """
    if not set(map(type, node_list)) <= {int}:
        i, node = next((i, v) for i, v in enumerate(node_list) if type(v) is not int)
        raise ValueError(f"nodes[{i}] must be an integer id, got {node!r}")
    if not _int_lists(edge_list, 2):
        i, pair = next((i, v) for i, v in enumerate(edge_list) if not _int_lists((v,), 2))
        raise ValueError(f"edges[{i}] must be a pair of integers, got {pair!r}")
    edges = tuple([(a, b) if a < b else (b, a) for a, b in edge_list])
    trust = {}
    if _int_lists(trust_list, 3):
        trust = {(a, b): score for a, b, score in trust_list}
    if len(trust) != len(trust_list):
        trust = {}
        for i, entry in enumerate(trust_list):
            if not _int_lists((entry,), 3):
                raise ValueError(f"trust[{i}] must be a triple of integers, got {entry!r}")
            a, b, score = entry
            if (a, b) in trust:
                raise ValueError(f"trust[{i}] repeats arc {(a, b)}")
            trust[(a, b)] = score
    return tuple(node_list), edges, trust


def _int_lists(lists: list, size: int) -> bool:
    """Whether every element of ``lists`` is a JSON list of exactly ``size``
    integers, in three whole passes."""
    return (
        set(map(type, lists)) <= {list}
        and set(map(len, lists)) <= {size}
        and set(map(type, itertools.chain.from_iterable(lists))) <= {int}
    )


def save_topology(t: Topology, path: str) -> None:
    """Write ``t`` as one line of compact JSON with sorted keys.

    ``json.dumps`` without ``indent`` runs the C encoder; ``json.dump`` and
    any indented form run the pure-Python one, several times slower.
    """
    text = json.dumps(t.to_json(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def load_topology(path: str) -> Topology:
    """Read :func:`save_topology`'s file; ``ValueError`` naming ``path`` if it is malformed.

    A key repeated in the document's object is an error, not last-wins.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        return Topology.from_json(obj)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def generate_topology(n: int, avg_degree: float, seed: int) -> Topology:
    """A connected random graph on n nodes with average degree about avg_degree.

    Connected by construction, so it never retries: a seeded random spanning
    tree (each node of a shuffled order joins a uniformly drawn earlier one),
    then uniform extra edges up to ``round(n * avg_degree / 2)`` edges in all,
    or the tree's ``n - 1`` if that is more.  Extra edges are drawn by
    rejection, or, when the target exceeds half of all pairs, as one sample of
    the pairs the tree left free.  Deterministic per seed.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if not 0 < avg_degree <= n - 1:
        raise ValueError(f"average degree {avg_degree} impossible for {n} nodes")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    target = max(n - 1, round(n * avg_degree / 2))
    if 4 * target > n * (n - 1):
        # Over half of all pairs: rejection would crawl through the last free
        # pairs, so draw the extra edges from the tree's complement instead.
        free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
        edges.update(rng.sample(free, target - len(edges)))
    while len(edges) < target:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    ordered = tuple(sorted(edges))
    return Topology(nodes=tuple(range(n)), edges=ordered, trust=_draw_trust(ordered, rng))


def chain_topology(n: int, seed: int) -> Topology:
    """Nodes 0..n-1 in a line; realizes the longest greedy path on n nodes."""
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    rng = random.Random(seed)
    edges = tuple((i, i + 1) for i in range(n - 1))
    return Topology(nodes=tuple(range(n)), edges=edges, trust=_draw_trust(edges, rng))


def _draw_trust(edges: tuple[tuple[NodeId, NodeId], ...], rng: random.Random) -> dict:
    """A uniform score for each arc: per edge ``(a, b)`` in order, ``(a, b)`` then ``(b, a)``."""
    trust = {}
    for a, b in edges:
        trust[(a, b)] = rng.randint(MIN_TRUST, MAX_TRUST)
        trust[(b, a)] = rng.randint(MIN_TRUST, MAX_TRUST)
    return trust


class _Nodes(Mapping[NodeId, NodeState]):
    """A topology's nodes, each built by ``make_node`` on its first lookup and then kept.

    The built nodes live in the topology's store for ``width``, so every
    ``_Nodes`` over one topology and width shares them; they are frozen and
    must not be mutated.  ``len``, iteration (in ``t.nodes`` order) and
    ``values()`` cover every node of the topology; an id outside it raises
    ``KeyError``.
    """

    def __init__(self, t: Topology, width: int) -> None:
        self._t = t
        self._width = width
        self._built = t._node_store.setdefault(width, {})

    def __getitem__(self, node: NodeId) -> NodeState:
        try:
            return self._built[node]
        except KeyError:
            pass
        nbs = self._t._adjacency[node]
        trust = self._t.trust
        built = make_node(node, nbs, {nb: trust[(node, nb)] for nb in nbs}, self._width)
        self._built[node] = built
        return built

    def __contains__(self, node: object) -> bool:
        # Mapping's default would build the node to answer.
        return node in self._t._adjacency

    def __len__(self) -> int:
        return len(self._t.nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._t.nodes)


def build_nodes(t: Topology, width: int = DEFAULT_WIDTH) -> Mapping[NodeId, NodeState]:
    """Every node of ``t`` at accumulator ``width``, each built on its first lookup.

    A discovery builds only the nodes it visits, and each node is built and
    checked once per topology and width: every later call on ``t`` at that
    width hands out the same ``NodeState`` objects.  They are shared, so
    they must not be mutated; ``NodeState`` is frozen, and nothing writes
    to a node's ``trust_db``.  ``ValueError`` unless ``width`` is exactly an
    ``int`` of at least 1.
    """
    check_width(width)
    return _Nodes(t, width)


@dataclass(frozen=True)
class OracleResult:
    path: tuple[NodeId, ...]
    trust: int
    status: str


@dataclass(frozen=True)
class _Walk:
    status: str
    path: tuple[NodeId, ...]
    arcs: tuple[tuple[NodeId, NodeId], ...]
    updates: int


def _argmax_neighbor(t: Topology, node: NodeId, exclude: set[NodeId]) -> NodeId | None:
    best = None
    best_trust = MIN_TRUST - 1
    for nb in sorted(t.neighbors(node)):
        if nb in exclude:
            continue
        if t.trust[(node, nb)] > best_trust:
            best, best_trust = nb, t.trust[(node, nb)]
    return best


def _greedy_walk(t: Topology, source: NodeId, destination: NodeId) -> _Walk:
    # Plaintext mirror of the protocol's decision rules, written directly
    # against the topology: greedy argmax next hop, path-based exclusion,
    # forward-unchanged shortcut when the destination is a neighbor.
    first = _argmax_neighbor(t, source, {source})
    if first is None:
        return _Walk(DROPPED, (source,), (), 0)
    path = [source]
    # The protocol's exclusion set: the path so far plus the current node.
    visited = {source}
    arcs = [(source, first)]
    updates = 0
    current = first
    while True:
        if current == destination:
            return _Walk(DELIVERED, tuple(path) + (destination,), tuple(arcs), updates)
        if destination in t.neighbors(current):
            # forwarded unchanged: current joins neither the path nor the sum
            return _Walk(DELIVERED, tuple(path) + (destination,), tuple(arcs), updates)
        visited.add(current)
        nxt = _argmax_neighbor(t, current, visited)
        if nxt is None:
            return _Walk(DROPPED, tuple(path), tuple(arcs), updates)
        arcs.append((current, nxt))
        path.append(current)
        updates += 1
        current = nxt


def plaintext_oracle(
    t: Topology, source: NodeId, destination: NodeId, width: int = DEFAULT_WIDTH
) -> OracleResult:
    """Reference answer: the greedy path and its trust sum mod 2**width."""
    _check_endpoints(t, source, destination)
    return _oracle_result(t, _greedy_walk(t, source, destination), width)


def _oracle_result(t: Topology, walk: _Walk, width: int) -> OracleResult:
    check_width(width)
    total = sum(t.trust[arc] for arc in walk.arcs) % (1 << width)
    return OracleResult(path=walk.path, trust=total, status=walk.status)


def _check_endpoints(t: Topology, source: NodeId, destination: NodeId) -> None:
    if source not in t._adjacency:
        raise ValueError(f"source {source} not in topology")
    if destination not in t._adjacency:
        raise ValueError(f"destination {destination} not in topology")
    if source == destination:
        raise ValueError(f"source and destination coincide: {source}")


# Memoized: the answer depends on the four arguments alone, so a long-lived
# source plans each route shape once.  ``typed`` keeps ``4.0`` and ``True``
# from answering for ``4`` and ``1``; a call that raises caches nothing.
@functools.lru_cache(maxsize=None, typed=True)
def required_eta(width: int, hops: int, lam: int, star_mode: bool = False) -> int | str:
    """Secret-key bits needed to certify ``hops`` accumulator updates.

    Runs each hop's :func:`circuits.update` on noise bounds: every local bit
    and gate flag is fresh, and the accumulator starts fresh from the
    source.  Every adder gate feeds an output and no gate's bound is below
    its operands', so the outputs' largest bound covers every wire.  Returns
    :data:`TOO_DEEP` once any bound exceeds :data:`NOISE_CEILING`.
    """
    check_width(width)
    if hops < 0:
        raise ValueError(f"hops cannot be negative, got {hops}")
    fresh = she.fresh_noise_bits(SecurityParams.from_lambda(lam))
    circuit = build_ripple_adder(width)
    local = (fresh,) * width
    acc = local
    for _ in range(hops):
        acc = update(circuit, acc, local, star_mode, lambda bit: fresh, *BOUND_OPS)
        if max(acc) > NOISE_CEILING:
            return TOO_DEEP
    return max(acc) + 2


def planner_digest() -> str:
    """A short sha256 of :func:`required_eta` over a fixed grid of widths, update
    counts, lams and modes: it names the noise rule that plans a run's etas."""
    # Imported here: hashlib loads OpenSSL, about 3.6 MB of resident memory
    # that every process importing this module would otherwise carry.
    import hashlib

    grid = itertools.product((1, 4, 8), (0, 1, 2, 7, 17), CERTIFIED_LAMBDAS, (False, True))
    etas = json.dumps([required_eta(*shape) for shape in grid])
    return hashlib.sha256(etas.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunConfig:
    lam: int
    eta: int | None = None  # None sizes the key automatically via required_eta
    width: int = DEFAULT_WIDTH
    seed: int = 0
    star_mode: bool = False


@dataclass
class EvalStats:
    """Homomorphic operations counted from ``she.observe`` events, plus the largest noise bound."""

    n_he_add: int = 0
    n_he_mul: int = 0
    max_noise_bits: int = 0

    def record(self, op: str, ct: she.Ciphertext) -> None:
        """Count one event; an encryption is not an operation."""
        if op == "add":
            self.n_he_add += 1
        elif op == "mul":
            self.n_he_mul += 1
        else:
            return
        if ct.noise_bits > self.max_noise_bits:
            self.max_noise_bits = ct.noise_bits

    def merge(self, other: "EvalStats") -> "EvalStats":
        return EvalStats(
            n_he_add=self.n_he_add + other.n_he_add,
            n_he_mul=self.n_he_mul + other.n_he_mul,
            max_noise_bits=max(self.max_noise_bits, other.max_noise_bits),
        )

    def to_json(self) -> dict:
        return {
            "adds": self.n_he_add,
            "muls": self.n_he_mul,
            "max_noise_bits": self.max_noise_bits,
        }


@dataclass(frozen=True)
class RunReport:
    """One discovery's outcome beside the oracle's, its parameters, its
    operation tallies, and the CPU seconds of keygen, discovery and finalize
    in ``cpu``: the only field that differs between two runs of one seed."""

    status: str
    path: tuple[NodeId, ...]
    decrypted_trust: int | None
    trusted: bool
    oracle_path: tuple[NodeId, ...]
    oracle_trust: int
    eta: int
    lam: int
    width: int
    star_mode: bool
    seed: int
    stats: EvalStats
    per_node_stats: tuple[tuple[NodeId, EvalStats], ...]
    cpu: dict[str, float]
    drop_reason: str | None = None
    dropped_at: NodeId | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "path": list(self.path),
            "decrypted_trust": self.decrypted_trust,
            "trusted": self.trusted,
            "oracle_path": list(self.oracle_path),
            "oracle_trust": self.oracle_trust,
            "eta": self.eta,
            "lambda": self.lam,
            "width": self.width,
            "star_mode": self.star_mode,
            "seed": self.seed,
            "stats": self.stats.to_json(),
            "per_node_stats": [[node, st.to_json()] for node, st in self.per_node_stats],
            "cpu": dict(self.cpu),
            "drop_reason": self.drop_reason,
            "dropped_at": self.dropped_at,
        }


def hops(
    nodes: Mapping[NodeId, NodeState],
    rr: RouteRequest,
    rng: random.Random,
    star_mode: bool = False,
    carry: Callable[[RouteRequest], RouteRequest] | None = None,
) -> Iterator[tuple[NodeId, RouteRequest, ForwardDecision]]:
    """Walk one request hop by hop from ``rr.next_hop``.

    Yields ``(node_id, request_received, decision)`` for each ``process_rr``
    call: a ``ForwardUnchanged`` hands the same request to its next hop, a
    ``ForwardUpdated`` hands on the updated one, and the walk stops after a
    ``Reply`` or a ``Drop``.  ``carry``, when given, takes each request to
    the hop that receives it, such as across a wire: it is called once per
    ``process_rr`` call, and the request it returns is the one yielded.  The
    reply is left to the caller, as :func:`run_discovery` carries it.  A
    walk of more than ``2 * len(nodes) + 2`` calls raises ``RuntimeError``.
    """
    current = rr.next_hop
    for _ in range(2 * len(nodes) + 2):
        if carry is not None:
            rr = carry(rr)
        decision = process_rr(nodes[current], rr, rng, star_mode)
        yield current, rr, decision
        if isinstance(decision, (Reply, Drop)):
            return
        if isinstance(decision, ForwardUpdated):
            rr = decision.rr
            current = rr.next_hop
        else:
            current = decision.next_hop
    raise RuntimeError("discovery did not terminate; decision loop detected")


def run_discovery(
    t: Topology,
    source: NodeId,
    destination: NodeId,
    cfg: RunConfig,
    carry: Callable[[RouteRequest | RouteReply], RouteRequest | RouteReply] | None = None,
) -> RunReport:
    """Drive one encrypted discovery through :func:`hops` and compare it against the oracle.

    An ``eta`` of ``None`` in ``cfg`` is sized by :func:`required_eta` for
    the oracle walk's updates, and ``NoiseBudgetError`` refuses a walk too
    deep to certify.  ``carry``, when given, takes each request to the hop
    that receives it, as in :func:`hops`, and then the reply back to the
    source, such as across a wire.  One ``she.observe`` sink around the walk
    tallies each hop's operations into that hop's ``EvalStats``; a caller
    that observes around this call also receives every ciphertext of the
    run.  ``RunReport.cpu`` holds the CPU seconds (``time.process_time``)
    of keygen, of the discovery (the source's request through the carried
    reply) and of finalize.  ``RuntimeError`` if the reply comes back
    ``trusted`` with a total other than the oracle's.
    """
    _check_endpoints(t, source, destination)
    walk = _greedy_walk(t, source, destination)
    oracle = _oracle_result(t, walk, cfg.width)
    eta = cfg.eta
    if eta is None:
        eta = required_eta(cfg.width, walk.updates, cfg.lam, cfg.star_mode)
        if eta == TOO_DEEP:
            raise NoiseBudgetError(
                f"cannot certify {walk.updates} updates at width {cfg.width}, "
                f"lam {cfg.lam}, star_mode={cfg.star_mode}"
            )
    params = SecurityParams.from_lambda(cfg.lam, eta=eta)
    nodes = build_nodes(t, cfg.width)
    rng = random.Random(cfg.seed)
    t0 = time.process_time()
    keys = she.keygen(params, rng)
    t1 = time.process_time()
    keys, rr = source_initiate(nodes[source], destination, params, rng, _keys=keys)
    per_node: list[tuple[NodeId, EvalStats]] = []
    hop = EvalStats()
    # One tally is the sink; each updating hop takes a copy of it, then
    # resets it.  Only an updating hop's events are kept: the hop that ends
    # the walk in a Drop may have tallied some before it failed.
    with she.observe(hop.record):
        for node_id, rr, decision in hops(nodes, rr, rng, cfg.star_mode, carry):
            if isinstance(decision, ForwardUpdated):
                kept = EvalStats(hop.n_he_add, hop.n_he_mul, hop.max_noise_bits)
                per_node.append((node_id, kept))
                hop.n_he_add = hop.n_he_mul = hop.max_noise_bits = 0
    if isinstance(decision, Drop):
        outcome = None
        t2 = t3 = time.process_time()
    else:
        reply = decision.reply if carry is None else carry(decision.reply)
        t2 = time.process_time()
        outcome = source_finalize(keys, reply, params)
        t3 = time.process_time()

    common = dict(
        oracle_path=oracle.path,
        oracle_trust=oracle.trust,
        eta=eta,
        lam=cfg.lam,
        width=cfg.width,
        star_mode=cfg.star_mode,
        seed=cfg.seed,
        per_node_stats=tuple(per_node),
        stats=functools.reduce(EvalStats.merge, (s for _, s in per_node), EvalStats()),
        cpu={"keygen": t1 - t0, "discovery": t2 - t1, "finalize": t3 - t2},
    )
    if outcome is None:
        return RunReport(
            status=DROPPED,
            path=rr.path,
            decrypted_trust=None,
            trusted=False,
            drop_reason=decision.reason,
            dropped_at=node_id,
            **common,
        )
    if outcome.trusted and outcome.trust != oracle.trust:
        raise RuntimeError(
            f"certified run disagrees with oracle: {outcome.trust} != {oracle.trust}"
        )
    return RunReport(
        status=DELIVERED,
        path=outcome.path,
        decrypted_trust=outcome.trust,
        trusted=outcome.trusted,
        **common,
    )


@dataclass(frozen=True)
class BenchRow:
    lam: int
    seconds: float
    he_adds: int
    he_muls: int
    star_seconds: float
    star_he_adds: int
    star_he_muls: int
    path_len: int
    updates: int

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "seconds": self.seconds,
            "he_adds": self.he_adds,
            "he_muls": self.he_muls,
            "star_seconds": self.star_seconds,
            "star_he_adds": self.star_he_adds,
            "star_he_muls": self.star_he_muls,
            "path_len": self.path_len,
            "updates": self.updates,
        }


def measure_mul_throughput(bits: int = 243, iters: int = 2000, seed: int = 0) -> float:
    """Multiplications per second on random operands of the given width."""
    rng = random.Random(seed)
    pairs = [
        (bignum.random_bits(bits, rng), bignum.random_bits(bits, rng)) for _ in range(64)
    ]
    t0 = time.perf_counter()
    for i in range(iters):
        a, b = pairs[i % len(pairs)]
        bignum.mul(a, b)
    return iters / (time.perf_counter() - t0)


def benchmark(
    seed: int = 0, lambdas: Sequence[int] = (3, 5, 8, 10), n: int = 20, width: int = DEFAULT_WIDTH
) -> list[BenchRow]:
    """Time full discoveries over an n-node chain at each security level.

    Per row: the plain-gate pipeline and the universal-gate pipeline, both at
    the standard parameter schedule (eta = lam**2).  Reported seconds cover
    source initiation through route reply; key generation and the final
    decryption are excluded.
    """
    t = chain_topology(n, seed)
    rows = []
    for lam in lambdas:
        plain = run_discovery(
            t, 0, n - 1, RunConfig(lam=lam, eta=lam * lam, width=width, seed=seed)
        )
        star = run_discovery(
            t,
            0,
            n - 1,
            RunConfig(lam=lam, eta=lam * lam, width=width, seed=seed, star_mode=True),
        )
        rows.append(
            BenchRow(
                lam=lam,
                seconds=plain.cpu["discovery"],
                he_adds=plain.stats.n_he_add,
                he_muls=plain.stats.n_he_mul,
                star_seconds=star.cpu["discovery"],
                star_he_adds=star.stats.n_he_add,
                star_he_muls=star.stats.n_he_mul,
                path_len=len(plain.path),
                updates=len(plain.per_node_stats),
            )
        )
    return rows


def format_benchmark_table(rows: Sequence[BenchRow]) -> str:
    header = f"{'lambda':>6} {'seconds':>9} {'adds':>6} {'muls':>6} {'star_s':>9} {'star_adds':>9} {'star_muls':>9} {'path':>5} {'updates':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.lam:>6} {r.seconds:>9.4f} {r.he_adds:>6} {r.he_muls:>6} "
            f"{r.star_seconds:>9.4f} {r.star_he_adds:>9} {r.star_he_muls:>9} "
            f"{r.path_len:>5} {r.updates:>7}"
        )
    return "\n".join(lines)


def benchmark_to_json(
    rows: Sequence[BenchRow], seed: int, n: int = 20, width: int = DEFAULT_WIDTH
) -> dict:
    """The rows as JSON, marked ``"certified": false``: they run at ``eta = lam**2``."""
    return {
        "certified": False,
        "seed": seed,
        "n": n,
        "width": width,
        "rows": [r.to_json() for r in rows],
        "mul_243bit_per_sec": measure_mul_throughput(),
    }


_WIRE_SEPARATORS = (",", ":")


def _over_json(msg: RouteRequest | RouteReply, sizes: list[int]) -> RouteRequest | RouteReply:
    """``msg`` after a trip across the JSON wire: encoded to compact JSON, its
    byte count appended to ``sizes``, and decoded again."""
    if isinstance(msg, RouteRequest):
        encode, decode = rr_to_json, rr_from_json
    else:
        encode, decode = rp_to_json, rp_from_json
    data = json.dumps(encode(msg), separators=_WIRE_SEPARATORS).encode()
    sizes.append(len(data))
    return decode(json.loads(data))


CERTIFIED_LAMBDAS = (3, 5, 8, 10)


def _reference_task() -> None:
    """Fixed work of a discovery's kinds that calls nothing in the package:
    big-integer multiply and reduce, small tuples, hex and a JSON round trip."""
    rng = random.Random(0)
    modulus = rng.getrandbits(2048) | 1
    x = rng.getrandbits(2048)
    items = []
    for i in range(200):
        x = x * (x | i) % modulus
        items.append((i, format(x, "x")))
    json.loads(json.dumps(items))


def _reference_s() -> float:
    """Median CPU seconds of 5 runs of :func:`_reference_task`, on the clock and
    with the collector setting that :func:`run_discovery` times a row with."""
    times = []
    for _ in range(5):
        t0 = time.process_time()
        _reference_task()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def certified_benchmark(
    seed: int = 0, updates: Sequence[int] = (7, 17), repeats: int = 7
) -> list[dict]:
    """Certified wire discoveries in plain and star mode, one row per mode, lam and update count.

    Each update count runs on ``chain_topology(updates + 3, seed)`` from node
    0 to the last node, at each of :data:`CERTIFIED_LAMBDAS` and
    ``DEFAULT_WIDTH``, at the planner's eta, ``repeats`` times from the same
    seed.  Each repetition is one :func:`run_discovery` whose ``carry`` puts
    every request a hop receives, and the reply, across the JSON wire; a
    row's ``wire_bytes`` counts them.  Times are medians over the repeats of
    the report's CPU seconds, split into keygen, hops (its discovery window,
    which includes the run's ``she.observe`` tally) and finalize, with the
    total's min and max as its spread.
    Just before each row, :func:`_reference_task`, which calls nothing in
    the package, runs 5 times on the same clock, and the row records its
    median as ``reference_s``, so two runs compare row by row as
    ``total_s / reference_s``.
    ``RuntimeError`` instead of a row whose discovery is not delivered,
    ``trusted`` and equal to the oracle's path and trust.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    rows = []
    for n_updates in updates:
        t = chain_topology(n_updates + 3, seed)
        destination = n_updates + 2
        for star_mode in (False, True):
            mode = "star" if star_mode else "plain"
            for lam in CERTIFIED_LAMBDAS:
                cfg = RunConfig(lam=lam, seed=seed, star_mode=star_mode)
                row = f"the {mode} row at lam {lam}, {n_updates} updates"
                reference_s = _reference_s()
                phases = []
                for _ in range(repeats):
                    sizes: list[int] = []
                    try:
                        report = run_discovery(
                            t, 0, destination, cfg, lambda msg: _over_json(msg, sizes)
                        )
                    except RuntimeError as exc:
                        raise RuntimeError(f"refusing {row}: {exc}") from exc
                    answer = (report.status, report.path, report.decrypted_trust)
                    correct = answer == (DELIVERED, report.oracle_path, report.oracle_trust)
                    if not (correct and report.trusted):
                        raise RuntimeError(
                            f"refusing {row}: got {answer}, trusted {report.trusted}; "
                            f"oracle path {report.oracle_path} trust {report.oracle_trust}"
                        )
                    cpu = report.cpu
                    phases.append((cpu["keygen"], cpu["discovery"], cpu["finalize"]))
                totals = [sum(p) for p in phases]
                keygen_s, hops_s, finalize_s = (statistics.median(col) for col in zip(*phases))
                rows.append(
                    {
                        "mode": mode,
                        "lambda": lam,
                        "updates": n_updates,
                        "eta": report.eta,
                        "trusted": report.trusted,
                        "correct": correct,
                        "trust": report.decrypted_trust,
                        "wire_bytes": sum(sizes),
                        "repeats": repeats,
                        "total_s": statistics.median(totals),
                        "total_min_s": min(totals),
                        "total_max_s": max(totals),
                        "keygen_s": keygen_s,
                        "hops_s": hops_s,
                        "finalize_s": finalize_s,
                        "reference_s": reference_s,
                    }
                )
    return rows


def certified_benchmark_to_json(rows: Sequence[dict], seed: int) -> dict:
    """The rows as JSON, marked ``"certified": true``, with the planner digest,
    the Python version and the host."""
    return {
        "certified": True,
        "planner": planner_digest(),
        "seed": seed,
        "width": DEFAULT_WIDTH,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rows": list(rows),
    }


def format_certified_table(rows: Sequence[dict]) -> str:
    header = (
        f"{'mode':>5} {'lambda':>6} {'updates':>7} {'eta':>8} {'wire':>9} {'total_s':>9} "
        f"{'keygen_s':>9} {'hops_s':>9} {'final_s':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['mode']:>5} {r['lambda']:>6} {r['updates']:>7} {r['eta']:>8} "
            f"{r['wire_bytes']:>9} {r['total_s']:>9.5f} {r['keygen_s']:>9.5f} "
            f"{r['hops_s']:>9.5f} {r['finalize_s']:>9.5f}"
        )
    return "\n".join(lines)
