"""Seeded inputs for the certified-discovery benchmark.

Topologies are generated here, not by ``sim.generate_topology`` or
``sim.chain_topology``, so a change to the package's generators cannot
change what is measured.  The package receives only the generated
``Topology`` objects, the (source, destination) pairs and the security
level of each discovery.
"""

from __future__ import annotations

import collections
import random
from dataclasses import dataclass

from enctrust import sim

WIDTH = 4
LAMS = (3, 5, 8, 10)

# Mesh workloads: pairs are drawn uniformly over several 64-node meshes,
# then taken by their accumulator-update count.  Each row below is one
# decile band of that count over uniform pairs, and holds the band's six
# sextile midpoints (measured over 15,000 uniform pairs on 40 meshes of this
# generator).  Pass i of the pool takes, for every row and every lam, one
# pair whose count is the row's entry i, so every seed runs the same route
# mix.  Without bands, the mean route length of one seed's meshes ranged
# from 4.9 to 11.5 updates and the median discovery time moved by 16%
# between seeds.  With bands but free counts inside them, the mean count of
# the top band moved from 28 to 30 between seeds, and p90 by 10%.
MESH_NODES = 64
MESH_DEGREE = 5
MESHES = 8
UPDATE_TARGETS = (
    (0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 3, 3, 3),
    (4, 4, 4, 5, 5, 5),
    (6, 6, 6, 7, 7, 7),
    (8, 8, 9, 9, 10, 10),
    (11, 11, 12, 12, 13, 13),
    (14, 14, 15, 16, 16, 17),
    (18, 19, 20, 21, 22, 23),
    (24, 26, 27, 30, 33, 39),
)
MAX_DRAWS = 100_000
# A mesh pool holds 6 passes of 40 pairs.  The loop replays the pool, so
# each input is timed several times over a run.
POOL_PASSES = len(UPDATE_TARGETS[0])

# Star chains: n nodes in a line give n - 3 accumulator updates, because
# the node next to the destination forwards the request unchanged.
CHAIN_UPDATES = (3, 4, 5)

# The undersized run used by the correctness self-check: 17 updates in
# plain mode at eta = lam**2.
SELFCHECK_NODES = 20
SELFCHECK_LAM = 5


@dataclass(frozen=True)
class Case:
    """One discovery: where it runs and the oracle's answer for it."""

    topo: int
    source: int
    destination: int
    lam: int
    seed: int
    oracle: sim.OracleResult

    @property
    def key(self) -> tuple[int, int, int, int]:
        """What makes two discoveries repeats of one input."""
        return (self.topo, self.source, self.destination, self.lam)

    @property
    def updates(self) -> int:
        return route_updates(self.oracle)


def route_updates(oracle: sim.OracleResult) -> int:
    """Accumulator updates on the greedy walk, read off the oracle path.

    A delivered path holds the source, every updating node and the
    destination; a dropped path stops before the node that dropped.
    """
    return len(oracle.path) - (2 if oracle.status == sim.DELIVERED else 1)


def _random_trust(rng: random.Random, edges) -> dict[tuple[int, int], int]:
    trust = {}
    for a, b in edges:
        trust[(a, b)] = rng.randint(1, 10)
        trust[(b, a)] = rng.randint(1, 10)
    return trust


def mesh(rng: random.Random, n: int = MESH_NODES, degree: int = MESH_DEGREE) -> sim.Topology:
    """A connected graph: a random spanning tree plus uniform extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    while len(edges) < n * degree // 2:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    ordered = tuple(sorted(edges))
    return sim.Topology(nodes=tuple(range(n)), edges=ordered, trust=_random_trust(rng, ordered))


def chain(rng: random.Random, n: int) -> sim.Topology:
    edges = tuple((i, i + 1) for i in range(n - 1))
    return sim.Topology(nodes=tuple(range(n)), edges=edges, trust=_random_trust(rng, edges))


def meshes(rng: random.Random) -> list[sim.Topology]:
    return [mesh(rng) for _ in range(MESHES)]


def chains(rng: random.Random) -> list[sim.Topology]:
    return [chain(rng, u + 3) for u in CHAIN_UPDATES]


def mesh_pool(rng: random.Random, topos: list[sim.Topology]) -> list[list[Case]]:
    """Passes of one pair per row of ``UPDATE_TARGETS`` and lam 3/5/8/10.

    Pairs are uniform over the meshes; a drawn pair waits in the queue of
    its update count until a pass needs it.  A queue keeps no more pairs
    than later passes will take, so the thousands of draws made to find the
    rare long routes do not pile up in memory and raise ``peak_rss_mb``.
    """
    queues: dict[int, collections.deque] = collections.defaultdict(collections.deque)
    wanted = collections.Counter(t for row in UPDATE_TARGETS for t in row for _ in LAMS)
    pool = []
    for i in range(POOL_PASSES):
        batch = []
        for row in UPDATE_TARGETS:
            queue = queues[row[i]]
            for lam in LAMS:
                for _ in range(MAX_DRAWS):
                    if queue:
                        break
                    k = rng.randrange(len(topos))
                    source, destination = rng.sample(topos[k].nodes, 2)
                    oracle = sim.plaintext_oracle(topos[k], source, destination, WIDTH)
                    updates = route_updates(oracle)
                    if len(queues[updates]) < wanted[updates]:
                        queues[updates].append((k, source, destination, oracle))
                if not queue:
                    raise RuntimeError(f"no pair with {row[i]} updates in the meshes")
                wanted[row[i]] -= 1
                k, source, destination, oracle = queue.popleft()
                batch.append(Case(k, source, destination, lam, rng.getrandbits(32), oracle))
        pool.append(batch)
    return pool


def chain_pool(rng: random.Random, topos: list[sim.Topology]) -> list[list[Case]]:
    """One pass: an end-to-end run over every chain at every lam."""
    return [
        [
            Case(k, 0, len(t.nodes) - 1, lam, rng.getrandbits(32),
                 sim.plaintext_oracle(t, 0, len(t.nodes) - 1, WIDTH))
            for k, t in enumerate(topos)
            for lam in LAMS
        ]
    ]


def selfcheck_case() -> tuple[sim.Topology, Case]:
    t = chain(random.Random(0), SELFCHECK_NODES)
    oracle = sim.plaintext_oracle(t, 0, SELFCHECK_NODES - 1, WIDTH)
    return t, Case(0, 0, SELFCHECK_NODES - 1, SELFCHECK_LAM, 0, oracle)


def fingerprint(topos: list[sim.Topology], cases: list[Case], etas: list[int]) -> dict:
    """What was run: graph sizes, the inputs' route-length histogram and the eta range."""
    return {
        "topologies": [{"nodes": len(t.nodes), "edges": len(t.edges)} for t in topos],
        "updates_histogram": dict(sorted(collections.Counter(c.updates for c in cases).items())),
        "dropped": sum(c.oracle.status == sim.DROPPED for c in cases),
        "eta_min": min(etas, default=None),
        "eta_max": max(etas, default=None),
    }
