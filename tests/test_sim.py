import collections
import dataclasses
import functools
import gc
import hashlib
import json
import pathlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum, she, sim
from enctrust.circuits import build_ripple_adder
from enctrust.protocol import (
    ForwardUnchanged,
    ForwardUpdated,
    make_node,
    process_rr,
    rr_from_json,
    rr_to_json,
    source_initiate,
)
from enctrust.she import SecurityParams
from enctrust.sim import (
    DELIVERED,
    DROPPED,
    TOO_DEEP,
    EvalStats,
    NoiseBudgetError,
    RunConfig,
    Topology,
    benchmark,
    benchmark_to_json,
    build_nodes,
    chain_topology,
    format_benchmark_table,
    generate_topology,
    hops,
    load_topology,
    measure_mul_throughput,
    plaintext_oracle,
    required_eta,
    run_discovery,
    save_topology,
)


def triangle_with_pendant():
    # 0-1-2 triangle, destination 3 hangs off node 0 with the lowest trust,
    # so the greedy walk wanders into the triangle and dead-ends at node 2.
    return Topology(
        nodes=(0, 1, 2, 3),
        edges=((0, 1), (0, 2), (0, 3), (1, 2)),
        trust={
            (0, 1): 9, (1, 0): 5,
            (0, 2): 4, (2, 0): 3,
            (0, 3): 1, (3, 0): 2,
            (1, 2): 8, (2, 1): 6,
        },
    )


def test_topology_validation_messages():
    with pytest.raises(ValueError, match="no nodes"):
        Topology(nodes=(), edges=(), trust={})
    with pytest.raises(ValueError, match="duplicate node"):
        Topology(nodes=(1, 1), edges=(), trust={})
    with pytest.raises(ValueError, match="self-loop"):
        Topology(nodes=(1, 2), edges=((1, 1),), trust={})
    with pytest.raises(ValueError, match="unknown node"):
        Topology(nodes=(1, 2), edges=((1, 3),), trust={})
    with pytest.raises(ValueError, match="not normalized"):
        Topology(nodes=(1, 2), edges=((2, 1),), trust={(1, 2): 5, (2, 1): 5})
    with pytest.raises(ValueError, match="missing trust"):
        Topology(nodes=(1, 2), edges=((1, 2),), trust={(1, 2): 5})
    with pytest.raises(ValueError, match="non-edges"):
        Topology(
            nodes=(1, 2, 3),
            edges=((1, 2),),
            trust={(1, 2): 5, (2, 1): 5, (1, 3): 2},
        )
    with pytest.raises(ValueError, match=r"trust for arc \(1, 2\) = 11 outside"):
        Topology(nodes=(1, 2), edges=((1, 2),), trust={(1, 2): 11, (2, 1): 5})
    # In range but no score: the whole-list test refuses it, so the loop must name it.
    with pytest.raises(ValueError, match=r"trust for arc \(2, 1\) = 5.5 outside"):
        Topology(nodes=(1, 2), edges=((1, 2),), trust={(1, 2): 5, (2, 1): 5.5})
    # Equal to a score but not an int: 5.0 == 5 and True == 1.
    with pytest.raises(ValueError, match=r"trust for arc \(2, 1\) = 5.0 outside"):
        Topology(nodes=(1, 2), edges=((1, 2),), trust={(1, 2): 5, (2, 1): 5.0})
    with pytest.raises(ValueError, match=r"trust for arc \(1, 2\) = True outside"):
        Topology(nodes=(1, 2), edges=((1, 2),), trust={(1, 2): True, (2, 1): 5})


def test_topology_json_roundtrip():
    t = triangle_with_pendant()
    obj = t.to_json()
    assert obj["nodes"] == [0, 1, 2, 3]
    assert obj["edges"] == [[0, 1], [0, 2], [0, 3], [1, 2]]
    assert obj["trust"][:3] == [[0, 1, 9], [0, 2, 4], [0, 3, 1]]
    assert len(obj["trust"]) == 8
    assert Topology.from_json(obj) == t


def test_topology_file_roundtrip(tmp_path):
    t = generate_topology(8, 3, seed=5)
    path = str(tmp_path / "topo.json")
    save_topology(t, path)
    assert load_topology(path) == t


def test_saved_topology_is_compact_and_indented_files_still_load(tmp_path):
    t = generate_topology(8, 3, seed=5)
    path = tmp_path / "topo.json"
    save_topology(t, str(path))
    assert path.read_text() == json.dumps(t.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(t.to_json(), indent=2, sort_keys=True) + "\n")
    assert load_topology(str(indented)) == t


def test_load_topology_diagnostics(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(ValueError, match=r"bad\.json: invalid JSON at line 1"):
        load_topology(str(bad_json))

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"nodes": [0], "edges": []}))
    with pytest.raises(ValueError, match="missing field 'trust'"):
        load_topology(str(missing))

    # A dict cannot hold a repeated key, so only the file loader sees one.
    repeated = tmp_path / "repeated.json"
    repeated.write_text(
        '{"nodes": [0, 1], "edges": [[0, 1]], "trust": [[0, 1, 5], [1, 0, 7]], "trust": []}'
    )
    with pytest.raises(ValueError, match=r"repeated\.json: repeated key 'trust' in a JSON object"):
        load_topology(str(repeated))

    badnode = tmp_path / "badnode.json"
    badnode.write_text(json.dumps({"nodes": [{"id": 0}], "edges": [], "trust": []}))
    with pytest.raises(ValueError, match=r"nodes\[0\] must be an integer id, got \{'id': 0\}"):
        load_topology(str(badnode))

    badedge = tmp_path / "badedge.json"
    badedge.write_text(json.dumps({"nodes": [0], "edges": [[0]], "trust": []}))
    with pytest.raises(ValueError, match=r"edges\[0\] must be a pair"):
        load_topology(str(badedge))


def _valid_topology_json():
    return {
        "nodes": [0, 1],
        "edges": [[0, 1]],
        "trust": [[0, 1, 5], [1, 0, 7]],
    }


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), 5, "expected a JSON object, got int"),
        ((), [], "expected a JSON object, got list"),
        (("nodes",), {}, "field 'nodes' has the wrong JSON type: dict"),
        (("edges",), 3, "field 'edges' has the wrong JSON type: int"),
        (("trust",), {"0->1": 5, "1->0": 7}, "field 'trust' has the wrong JSON type: dict"),
        (("nodes", 0), {"id": 0}, r"nodes\[0\] must be an integer id, got \{'id': 0\}"),
        (("nodes", 1), True, r"nodes\[1\] must be an integer id, got True"),
        (("edges", 0), "01", r"edges\[0\] must be a pair of integers"),
        (("edges", 0, 1), True, r"edges\[0\] must be a pair of integers"),
        (("trust", 1, 2), True, r"trust\[1\] must be a triple of integers, got \[1, 0, True\]"),
    ],
)
def test_topology_from_json_rejects_malformed_parts(path, value, message):
    obj = _valid_topology_json()
    assert Topology.from_json(obj).trust == {(0, 1): 5, (1, 0): 7}
    if path:
        *parents, last = path
        field = obj
        for key in parents:
            field = field[key]
        field[last] = value
    else:
        obj = value
    with pytest.raises(ValueError, match=message):
        Topology.from_json(obj)


def _path_topology_json():
    return {
        "nodes": [0, 1, 2],
        "edges": [[0, 1], [1, 2]],
        "trust": [[0, 1, 5], [1, 0, 7], [1, 2, 3], [2, 1, 9]],
    }


def _set(path, value):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value

    return mutate


def _add_trust(entry):
    return lambda obj: obj["trust"].append(entry)


def _old_format(obj):
    # The earlier document: node objects and trust keyed by "a->b" strings.
    obj["nodes"] = [{"id": i} for i in obj["nodes"]]
    obj["trust"] = {f"{a}->{b}": score for a, b, score in obj["trust"]}


def _repeat_trust(i):
    return lambda obj: obj["trust"].append(list(obj["trust"][i]))


def _on_mesh(*mutations):
    # Two faults in generate_topology(4, 2, seed=1)'s document, in place of
    # the path's: the message names the first in list order.
    def mutate(obj):
        obj.clear()
        obj.update(generate_topology(4, 2, seed=1).to_json())
        for m in mutations:
            m(obj)

    return mutate


# Each message is exactly the one the element-by-element loader gave.
REJECTED_TOPOLOGIES = {
    "key on a non-edge": (_add_trust([0, 2, 5]), "trust for non-edges [(0, 2)]"),
    "missing arc": (lambda obj: obj["trust"].pop(), "missing trust for arcs [(2, 1)]"),
    "bool id": (_set(("nodes", 1), True), "nodes[1] must be an integer id, got True"),
    "bool endpoint": (
        _set(("edges", 0, 1), True),
        "edges[0] must be a pair of integers, got [0, True]",
    ),
    "bool score": (
        _set(("trust", 0, 2), True),
        "trust[0] must be a triple of integers, got [0, 1, True]",
    ),
    "bool arc end": (
        _set(("trust", 3, 0), True),
        "trust[3] must be a triple of integers, got [True, 1, 9]",
    ),
    "one-ended edge": (_set(("edges", 0), [0]), "edges[0] must be a pair of integers, got [0]"),
    "three-ended edge": (
        _set(("edges", 0), [0, 1, 2]),
        "edges[0] must be a pair of integers, got [0, 1, 2]",
    ),
    "edge in both orders": (lambda obj: obj["edges"].append([1, 0]), "duplicate edge (0, 1)"),
    "trust pair": (_set(("trust", 1), [1, 0]), "trust[1] must be a triple of integers, got [1, 0]"),
    "trust quadruple": (
        _set(("trust", 1), [1, 0, 7, 7]),
        "trust[1] must be a triple of integers, got [1, 0, 7, 7]",
    ),
    "repeated arc": (_add_trust([1, 2, 4]), "trust[4] repeats arc (1, 2)"),
    "node without id": (
        _set(("nodes", 0), {"name": 0}),
        "nodes[0] must be an integer id, got {'name': 0}",
    ),
    "node as an object": (
        _set(("nodes", 2), {"id": 2}),
        "nodes[2] must be an integer id, got {'id': 2}",
    ),
    "old format": (_old_format, "field 'trust' has the wrong JSON type: dict"),
    "score 11": (_set(("trust", 2, 2), 11), "trust for arc (1, 2) = 11 outside [1, 10]"),
    "bool id, then one-ended edge": (
        _on_mesh(_set(("nodes", 1), True), _set(("edges", 0), [0])),
        "nodes[1] must be an integer id, got True",
    ),
    "float endpoint, then trust pair": (
        _on_mesh(_set(("edges", 2), [1, 2.0]), _set(("trust", 0), [0, 1])),
        "edges[2] must be a pair of integers, got [1, 2.0]",
    ),
    "repeated arc, then trust pair": (
        _on_mesh(_repeat_trust(0), _add_trust([1, 0])),
        "trust[8] repeats arc (0, 1)",
    ),
    "bool score, then repeated arc": (
        _on_mesh(_set(("trust", 1), [1, 0, True]), _repeat_trust(0)),
        "trust[1] must be a triple of integers, got [1, 0, True]",
    ),
}


@pytest.mark.parametrize("case", REJECTED_TOPOLOGIES)
def test_topology_from_json_rejection_messages(case):
    mutate, message = REJECTED_TOPOLOGIES[case]
    obj = _path_topology_json()
    Topology.from_json(obj)
    mutate(obj)
    with pytest.raises(ValueError) as exc:
        Topology.from_json(obj)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "nodes, edges",
    [
        ((-5, -1, 0), ((-5, -1), (-1, 0))),
        ((2**64, 10**30, 7), ((7, 2**64), (7, 10**30))),
        ((0, 1, 2, 3), ((1, 3), (0, 1), (0, 3))),
    ],
)
def test_topology_json_roundtrip_of_unusual_ids(nodes, edges):
    # Negative and large ids load as themselves; an edge written larger id
    # first loads normalized, in the document's order, and trust keeps the
    # document's order.
    arcs = [arc for a, b in edges for arc in ((b, a), (a, b))]
    doc = {
        "nodes": list(nodes),
        "edges": [[b, a] for a, b in edges],
        "trust": [[a, b, 1 + k % 10] for k, (a, b) in enumerate(arcs)],
    }
    t = Topology.from_json(doc)
    assert t.nodes == nodes
    assert t.edges == edges
    assert list(t.trust.items()) == [(arc, 1 + k % 10) for k, arc in enumerate(arcs)]
    # to_json sorts nodes and edges, so its document reloads to the same form.
    assert Topology.from_json(json.loads(json.dumps(t.to_json()))).to_json() == t.to_json()


def _json_paths(obj, prefix=()):
    """The key/index path of every field and list element in a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


TOPOLOGY_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(allow_nan=False),
    st.sampled_from(["", "0", "0->1"]),
    st.lists(st.integers(-1, 11) | st.booleans(), max_size=4),
    st.dictionaries(st.sampled_from(["id", "0->1", "x"]), st.integers(-1, 11), max_size=2),
)


# Trust triples on an existing arc (a repeat), on a non-edge, or on an
# unknown node of the 5-node topology below.
TOPOLOGY_TRUST_ENTRIES = st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.integers(0, 11)).map(
    list
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_topology_loads_or_raises_value_error(data):
    # One or two parts of a real topology are dropped or replaced, a trust
    # triple is added, or the edges or trust entries are reordered, which
    # keeps a document valid; loading it must give a Topology or raise
    # ValueError, never another exception, and a Topology it gives must hold
    # what the document says.
    obj = generate_topology(5, 2, seed=3).to_json()
    paths = list(_json_paths(obj))
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.integers(0, 5))
        if kind == 0 and type(obj.get("trust")) is list:
            obj["trust"].append(data.draw(TOPOLOGY_TRUST_ENTRIES))
            continue
        if kind == 1 and type(obj.get("trust")) is list:
            obj["trust"] = data.draw(st.permutations(obj["trust"]))
            continue
        if kind == 2 and type(obj.get("edges")) is list:
            obj["edges"] = data.draw(st.permutations(obj["edges"]))
            continue
        *parents, last = data.draw(st.sampled_from(paths))
        field = obj
        try:
            for key in parents:
                field = field[key]
            field[last]
        except (KeyError, IndexError, TypeError):
            continue  # the first mutation removed or retyped this path
        if type(field) not in (dict, list):
            continue  # retyped to a string, which indexes but cannot be mutated
        if data.draw(st.booleans()):
            del field[last]
        else:
            field[last] = data.draw(TOPOLOGY_VALUES)
    try:
        topo = Topology.from_json(obj)
    except ValueError:
        return
    # A reference read straight from the document: the same nodes, edges
    # and trust, in the same order.
    nodes = tuple(obj["nodes"])
    edges = tuple((min(a, b), max(a, b)) for a, b in obj["edges"])
    trust = {(a, b): s for a, b, s in obj["trust"]}
    assert (topo.nodes, topo.edges, list(topo.trust.items())) == (nodes, edges, list(trust.items()))


def reachable_from_0(t):
    seen = {0}
    stack = [0]
    while stack:
        for nb in t.neighbors(stack.pop()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def test_generate_topology_connected_and_deterministic():
    for seed in range(10):
        t = generate_topology(10, 3, seed=seed)
        assert len(t.nodes) == 10
        assert reachable_from_0(t) == set(t.nodes)
    assert generate_topology(10, 3, seed=4) == generate_topology(10, 3, seed=4)
    assert generate_topology(10, 3, seed=4) != generate_topology(10, 3, seed=5)


def test_generate_topology_large_sparse_is_connected_quickly():
    # Sampling each edge independently connected 0 of 20 graphs at this size
    # and retried up to 10,000 times; a spanning tree connects the first one.
    start = time.process_time()
    t = generate_topology(2000, 4, seed=0)
    assert time.process_time() - start < 5
    assert len(t.edges) == 4000
    assert reachable_from_0(t) == set(range(2000))


def test_generate_topology_dense_is_complete_and_quick():
    # Drawing every extra edge by rejection took 2.5-3.2 s of CPU for the
    # complete graph on 300 nodes (CPython 3.11, 2-core host): the last free
    # pairs are a coupon-collector walk.  Over half of all pairs, the extra
    # edges are one sample of the pairs the spanning tree left free.
    start = time.process_time()
    t = generate_topology(300, 299, seed=0)
    assert time.process_time() - start < 1
    assert t.edges == tuple((a, b) for a in range(300) for b in range(a + 1, 300))
    dense = generate_topology(40, 30, seed=3)
    assert len(dense.edges) == 600
    assert reachable_from_0(dense) == set(range(40))
    assert dense == generate_topology(40, 30, seed=3)
    assert dense != generate_topology(40, 30, seed=4)


def test_generate_topology_validation():
    with pytest.raises(ValueError, match="at least 2"):
        generate_topology(1, 1, seed=0)
    with pytest.raises(ValueError, match="impossible"):
        generate_topology(5, 0, seed=0)
    with pytest.raises(ValueError, match="impossible"):
        generate_topology(5, 5, seed=0)
    t = generate_topology(2, 1, seed=0)
    assert t.edges == ((0, 1),)


def test_chain_topology_structure():
    t = chain_topology(6, seed=1)
    assert t.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    assert all(1 <= v <= 10 for v in t.trust.values())
    assert t.neighbors(0) == frozenset({1})
    assert t.neighbors(3) == frozenset({2, 4})


def edge_scan_neighbors(t, node):
    return frozenset({b for a, b in t.edges if a == node} | {a for a, b in t.edges if b == node})


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_topology(10, 3, seed=4),
        lambda: chain_topology(7, seed=1),
        lambda: generate_topology(64, 5, seed=2),
    ],
    ids=["random-10", "chain-7", "mesh-64"],
)
def test_neighbors_match_edge_scan(make):
    t = make()
    for i in t.nodes:
        assert t.neighbors(i) == edge_scan_neighbors(t, i)
    assert t.neighbors(max(t.nodes) + 1) == frozenset()
    fresh = make()
    assert t == fresh
    assert repr(t) == repr(fresh)


def test_build_nodes_mirrors_topology():
    t = triangle_with_pendant()
    nodes = build_nodes(t, width=4)
    assert nodes[0].neighbors == frozenset({1, 2, 3})
    assert nodes[0].trust_db == {1: 9, 2: 4, 3: 1}
    assert nodes[2].trust_db == {0: 3, 1: 6}


def test_build_nodes_share_one_frozen_circuit():
    nodes = build_nodes(generate_topology(12, 3, seed=1), width=4)
    assert all(node.circuit is build_ripple_adder(4) for node in nodes.values())
    assert build_ripple_adder(4) is build_ripple_adder(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        build_ripple_adder(4).gates = ()


def test_build_nodes_is_a_mapping_over_every_node():
    t = dataclasses.replace(triangle_with_pendant(), nodes=(3, 1, 0, 2))
    nodes = build_nodes(t, width=4)
    assert len(nodes) == len(t.nodes)
    assert list(nodes) == list(t.nodes)
    assert 2 in nodes and 4 not in nodes
    with pytest.raises(KeyError):
        nodes[4]
    assert nodes[1] is nodes[1]
    for i, node in zip(t.nodes, nodes.values()):
        trust = {nb: t.trust[(i, nb)] for nb in t.neighbors(i)}
        assert node == make_node(i, t.neighbors(i), trust, 4)


# ``RunReport.to_json()`` without ``wall`` for the route below, hashed as in
# ``test_report_digest_pinned``; computed when ``build_nodes`` built every node.
LARGE_ROUTE_DIGEST = "30221f9fc36705bd8807f6e8f7a370c04ad1885f5485e09a5061d2dc9af58b51"


def test_run_discovery_builds_only_the_nodes_it_visits(monkeypatch):
    # On 2000 nodes the route from 0 to 1999 has 24 nodes: the source and
    # each process_rr call build at most one node apiece.
    t = generate_topology(2000, 4, seed=3)
    built, handled = [], []
    real_make_node, real_process_rr = sim.make_node, sim.process_rr

    def counting_make_node(node_id, *args):
        built.append(node_id)
        return real_make_node(node_id, *args)

    def counting_process_rr(node, *args):
        handled.append(node.id)
        return real_process_rr(node, *args)

    monkeypatch.setattr(sim, "make_node", counting_make_node)
    monkeypatch.setattr(sim, "process_rr", counting_process_rr)
    report = run_discovery(t, 0, 1999, RunConfig(lam=3, seed=5))
    assert (report.status, report.trusted, len(report.path)) == (DELIVERED, True, 24)
    assert built[0] == 0
    assert sorted(built) == sorted({0, *handled})
    assert len(built) <= len(handled) + 1
    obj = report.to_json()
    del obj["wall"]
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == LARGE_ROUTE_DIGEST


def test_discoveries_on_one_topology_share_its_nodes(monkeypatch):
    # The second discovery builds no node, and reports what the first did.
    t = generate_topology(64, 4, seed=2)
    first = run_discovery(t, 0, 63, RunConfig(lam=3, seed=5))
    built = []
    real_make_node = sim.make_node

    def counting_make_node(node_id, *args):
        built.append(node_id)
        return real_make_node(node_id, *args)

    monkeypatch.setattr(sim, "make_node", counting_make_node)
    second = run_discovery(t, 0, 63, RunConfig(lam=3, seed=5))
    assert built == []
    assert (first.status, first.trusted) == (DELIVERED, True)
    one, two = first.to_json(), second.to_json()
    del one["wall"], two["wall"]
    assert one == two


def test_build_nodes_are_built_once_per_topology_and_width():
    # Every score fits in 3 bits.
    t = Topology(
        nodes=(0, 1, 2), edges=((0, 1), (1, 2)), trust={(0, 1): 5, (1, 0): 3, (1, 2): 7, (2, 1): 2}
    )
    for i in t.nodes:
        assert build_nodes(t, 4)[i] is build_nodes(t, 4)[i]
        assert build_nodes(t, 3)[i] is not build_nodes(t, 4)[i]
        assert build_nodes(t, 3)[i].width == 3
    # A copy is a new topology with a store of its own.
    copy = dataclasses.replace(t)
    assert copy == t
    assert build_nodes(copy, 4)[0] == build_nodes(t, 4)[0]
    assert build_nodes(copy, 4)[0] is not build_nodes(t, 4)[0]
    node = build_nodes(t, 4)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.width = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.trust_db = {}


def test_every_width_entry_point_refuses_a_width_that_is_not_a_positive_int():
    # 4.0 == 4 and True == 1, so a looser test lets them stand for widths 4
    # and 1: build_nodes would hand them the stored nodes of those widths,
    # and build_ripple_adder must not answer them from its cache either.
    t = generate_topology(8, 3, seed=1)
    assert (build_ripple_adder(4).num_inputs, build_ripple_adder(1).num_inputs) == (8, 2)
    pk = she.keygen(SecurityParams.from_lambda(3), random.Random(0)).pk
    entry_points = (
        lambda w: plaintext_oracle(t, 3, 1, width=w),
        lambda w: run_discovery(t, 3, 1, RunConfig(lam=3, width=w)),
        lambda w: required_eta(w, 2, 3),
        lambda w: build_ripple_adder(w),
        lambda w: she.encrypt_value(pk, 1, w, SecurityParams.from_lambda(3), random.Random(0)),
        lambda w: build_nodes(t, w),
    )
    for call in entry_points:
        for width, shown in ((4.0, "4.0"), (True, "True"), ("4", "'4'"), (0, "0"), (-1, "-1")):
            with pytest.raises(ValueError, match=f"^width must be a positive int, got {shown}$"):
                call(width)


def test_certified_rows_and_their_reference_share_one_clock(monkeypatch):
    # total_s / reference_s cancels only the drift that both sides see, so
    # both are CPU seconds; the wall clock also counts time descheduled.
    def wall_clock():
        raise AssertionError("the certified bench read the wall clock")

    monkeypatch.setattr(time, "perf_counter", wall_clock)
    rows = sim.certified_benchmark(updates=(1,), repeats=2)
    assert len(rows) == 8
    for r in rows:
        assert r["reference_s"] > 0
        assert r["total_min_s"] <= r["total_s"] <= r["total_max_s"]


BENCH_FILES = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


def test_committed_bench_files_hold_only_certified_rows():
    # A row timed at an undersized eta is not a performance number, so every
    # committed bench file must be certified, and each row trusted, correct
    # and at the planner's eta for its width, update count, lam and mode.
    assert BENCH_FILES
    for path in BENCH_FILES:
        doc = json.loads(path.read_text())
        assert doc["certified"] is True, path.name
        runs = [run for side in doc["runs"].values() for run in side]
        assert runs, path.name
        for run in runs:
            assert run["rows"], path.name
            for row in run["rows"]:
                where = f"{path.name}: {row['mode']} lam {row['lambda']}, {row['updates']} updates"
                assert row["trusted"] is True and row["correct"] is True, where
                star_mode = row["mode"] == "star"
                planned = required_eta(run["width"], row["updates"], row["lambda"], star_mode)
                assert row["eta"] == planned, where


def test_a_topology_with_built_nodes_dies_with_its_last_name():
    # The node store must not refer back to its topology: a cycle would
    # leave every topology to the cyclic collector.
    t = generate_topology(64, 4, seed=2)
    ref = weakref.ref(t)
    gc.disable()
    try:
        run_discovery(t, 0, 63, RunConfig(lam=3, seed=5))
        assert len(list(build_nodes(t, 5).values())) == 64
        del t
        assert ref() is None
    finally:
        gc.enable()


def test_oracle_shortcut_semantics():
    # 0-1-2 in a line: node 1 sees the destination and forwards unchanged,
    # so only the source's arc is accumulated and node 1 skips the path.
    t = chain_topology(3, seed=3)
    res = plaintext_oracle(t, 0, 2)
    assert res.status == DELIVERED
    assert res.path == (0, 2)
    assert res.trust == t.trust[(0, 1)]


def test_oracle_direct_neighbor():
    t = Topology(
        nodes=(0, 1, 2),
        edges=((0, 1), (0, 2)),
        trust={(0, 1): 3, (1, 0): 3, (0, 2): 9, (2, 0): 9},
    )
    res = plaintext_oracle(t, 0, 2)
    assert res.status == DELIVERED
    assert res.path == (0, 2)
    assert res.trust == 9


def test_oracle_dead_end_drops():
    t = triangle_with_pendant()
    res = plaintext_oracle(t, 0, 3)
    assert res.status == DROPPED
    assert res.path == (0, 1)
    # arcs 0->1 and 1->2 were accumulated before the dead end at node 2
    assert res.trust == (9 + 8) % 16


def test_oracle_wraparound():
    t = chain_topology(6, seed=0)
    res = plaintext_oracle(t, 0, 5, width=4)
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert res.trust == sum(t.trust[a] for a in arcs) % 16


def test_oracle_endpoint_validation():
    t = chain_topology(3, seed=0)
    with pytest.raises(ValueError, match="source 9"):
        plaintext_oracle(t, 9, 2)
    with pytest.raises(ValueError, match="destination 9"):
        plaintext_oracle(t, 0, 9)
    with pytest.raises(ValueError, match="coincide"):
        plaintext_oracle(t, 1, 1)


def test_required_eta_pinned_values():
    assert required_eta(1, 1, 3) == 8
    assert required_eta(4, 0, 3) == 7
    assert required_eta(4, 1, 3) == 27
    assert required_eta(4, 2, 3) == 47
    assert required_eta(4, 1, 3, star_mode=True) == 211
    assert required_eta(4, 2, 3, star_mode=True) == 823
    assert required_eta(4, 50, 3, star_mode=True) == TOO_DEEP


def test_required_eta_monotone_in_hops():
    plain = [required_eta(4, h, 3) for h in range(12)]
    assert plain == sorted(plain)
    star = [required_eta(4, h, 3, star_mode=True) for h in range(6)]
    assert star == sorted(star)


def test_required_eta_validation():
    with pytest.raises(ValueError):
        required_eta(0, 1, 3)
    with pytest.raises(ValueError):
        required_eta(4, -1, 3)
    with pytest.raises(ValueError):
        required_eta(4, 1, 1)


def test_required_eta_plans_each_shape_once(monkeypatch):
    # A cleared cache: no earlier test can have planned these shapes.
    required_eta.cache_clear()
    updates = []
    real_update = sim.update
    monkeypatch.setattr(sim, "update", lambda *args: updates.append(args) or real_update(*args))
    assert required_eta(4, 2, 3, star_mode=True) == 823
    assert len(updates) == 2
    assert required_eta(4, 50, 3, star_mode=True) == TOO_DEEP
    planned = len(updates)
    for _ in range(3):
        assert required_eta(4, 2, 3, star_mode=True) == 823
        assert required_eta(4, 50, 3, star_mode=True) == TOO_DEEP
    assert len(updates) == planned  # no repeated call ran an update
    # Another shape is planned on its own.
    assert required_eta(4, 2, 3) == 47
    assert len(updates) == planned + 2


def test_required_eta_caches_no_error():
    required_eta.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            required_eta(0, 1, 3)
        with pytest.raises(ValueError):
            required_eta(4, 1, 1)
    assert required_eta.cache_info().currsize == 0
    # A value equal to a planned argument but of another type answers for itself.
    assert required_eta(4, 1, 3) == 27
    with pytest.raises(ValueError, match="^width must be a positive int, got 4.0$"):
        required_eta(4.0, 1, 3)


def test_run_discovery_chain_auto_eta():
    t = chain_topology(5, seed=2)
    report = run_discovery(t, 0, 4, RunConfig(lam=3, seed=7))
    oracle = plaintext_oracle(t, 0, 4)
    assert report.status == DELIVERED
    assert report.trusted
    assert report.decrypted_trust == oracle.trust
    assert report.path == oracle.path == (0, 1, 2, 4)
    assert report.eta == required_eta(4, 2, 3)
    assert [n for n, _ in report.per_node_stats] == [1, 2]
    for _, stats in report.per_node_stats:
        assert (stats.n_he_add, stats.n_he_mul) == (9, 5)
    assert (report.stats.n_he_add, report.stats.n_he_mul) == (18, 10)
    assert set(report.wall) == {"keygen", "discovery", "finalize"}


def test_run_discovery_star_mode_matches_oracle():
    t = chain_topology(5, seed=2)
    report = run_discovery(t, 0, 4, RunConfig(lam=3, seed=7, star_mode=True))
    oracle = plaintext_oracle(t, 0, 4)
    assert report.status == DELIVERED
    assert report.trusted
    assert report.decrypted_trust == oracle.trust
    assert report.eta == required_eta(4, 2, 3, star_mode=True)
    assert (report.stats.n_he_add, report.stats.n_he_mul) == (108, 72)


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_certified_run_reports_noise_within_eta(star_mode):
    # The planner sizes eta as its bound plus 2 by running the hops' own gate
    # code on noise bounds, so the largest bound a run reports is exactly
    # eta - 2: a gate whose output nothing reads, or a planner and a runtime
    # that disagree, would move it.
    for seed, n in enumerate(range(4, 11)):  # 1 to 7 updates
        t = chain_topology(n, seed=seed)
        report = run_discovery(t, 0, n - 1, RunConfig(lam=3, seed=seed, star_mode=star_mode))
        assert report.trusted
        assert report.decrypted_trust == report.oracle_trust
        assert len(report.per_node_stats) == n - 3, seed
        assert report.stats.max_noise_bits == report.eta - 2, seed


def test_run_discovery_undersized_eta_is_untrusted():
    t = chain_topology(8, seed=3)
    report = run_discovery(t, 0, 7, RunConfig(lam=3, eta=9, seed=1))
    assert report.status == DELIVERED
    assert not report.trusted
    assert report.oracle_trust == plaintext_oracle(t, 0, 7).trust


def test_run_discovery_drop():
    t = triangle_with_pendant()
    report = run_discovery(t, 0, 3, RunConfig(lam=3, seed=4))
    assert report.status == DROPPED
    assert report.decrypted_trust is None
    assert not report.trusted
    assert report.path == (0, 1)
    assert report.dropped_at == 2
    assert "no trusted next hop" in report.drop_reason
    assert report.path == plaintext_oracle(t, 0, 3).path


def test_hops_ends_a_decision_loop(monkeypatch):
    # Honest nodes cannot loop, so two nodes that bounce a request stand in
    # for a decision bug: the walk stops after 2n+2 calls instead of hanging.
    nodes = build_nodes(chain_topology(4, seed=1))
    params = SecurityParams.from_lambda(3, eta=required_eta(4, 2, 3))
    _, rr = source_initiate(nodes[0], 3, params, random.Random(1))
    calls = []

    def bounce(node, rr, rng, star_mode):
        calls.append(node.id)
        return ForwardUnchanged(next_hop=3 - node.id)

    monkeypatch.setattr(sim, "process_rr", bounce)
    with pytest.raises(RuntimeError, match="did not terminate"):
        list(hops(nodes, rr, random.Random(2)))
    assert calls == [1, 2] * 5


@pytest.mark.parametrize(
    "topo, source, destination, status",
    [
        (chain_topology(5, seed=2), 0, 4, DELIVERED),
        (triangle_with_pendant(), 0, 3, DROPPED),
    ],
    ids=["delivered", "dropped"],
)
def test_run_discovery_walks_once(monkeypatch, topo, source, destination, status):
    calls = []
    real_walk = sim._greedy_walk

    def counting_walk(*args):
        calls.append(args)
        return real_walk(*args)

    monkeypatch.setattr(sim, "_greedy_walk", counting_walk)
    report = run_discovery(topo, source, destination, RunConfig(lam=3, seed=4))
    assert len(calls) == 1
    monkeypatch.undo()
    oracle = plaintext_oracle(topo, source, destination)
    assert report.status == oracle.status == status
    assert report.oracle_path == oracle.path
    assert report.oracle_trust == oracle.trust


@pytest.mark.parametrize(
    "topo, source, destination, status",
    [
        (chain_topology(6, seed=2), 0, 5, DELIVERED),
        (triangle_with_pendant(), 0, 3, DROPPED),
    ],
    ids=["delivered", "dropped"],
)
@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_run_stats_sum_the_hops(topo, source, destination, status, star_mode):
    # No message carries op counts: the report's stats are the merge of the
    # per-hop stats the simulator saw, delivered or dropped.
    cfg = RunConfig(lam=3, seed=4, star_mode=star_mode)
    report = run_discovery(topo, source, destination, cfg)
    assert report.status == status
    assert report.per_node_stats
    hops = [s for _, s in report.per_node_stats]
    assert report.stats == functools.reduce(EvalStats.merge, hops, EvalStats())


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_forged_stats_in_a_request_change_nothing(star_mode):
    # A request of the older format carried a running op count that each
    # hop merged forward, so a forged one became the run's reported stats.
    t = chain_topology(5, seed=2)
    nodes = build_nodes(t)
    params = SecurityParams.from_lambda(3, eta=required_eta(4, 2, 3, star_mode))
    _, rr = source_initiate(nodes[0], 4, params, random.Random(3))
    clean = rr_to_json(rr)
    forged = {**clean, "stats": {"adds": -7, "muls": -1, "max_noise_bits": -3}}
    assert rr_from_json(forged) == rr_from_json(clean)
    decisions, counts = [], []
    for obj in (clean, forged):
        ops = collections.Counter()
        with she.observe(lambda op, ct: ops.update((op,))):
            decisions.append(process_rr(nodes[1], rr_from_json(obj), random.Random(5), star_mode))
        counts.append(ops)
    assert isinstance(decisions[0], ForwardUpdated)
    assert decisions[0] == decisions[1]  # the forwarded request
    adds, muls = (54, 36) if star_mode else (9, 5)
    assert counts[0] == counts[1]
    assert (counts[0]["add"], counts[0]["mul"]) == (adds, muls)


def test_stats_record_merge_and_json():
    a = EvalStats(n_he_add=3, n_he_mul=2, max_noise_bits=10)
    b = EvalStats(n_he_add=1, n_he_mul=4, max_noise_bits=7)
    m = a.merge(b)
    assert (m.n_he_add, m.n_he_mul, m.max_noise_bits) == (4, 6, 10)
    assert m.to_json() == {"adds": 4, "muls": 6, "max_noise_bits": 10}
    # An encryption is counted neither as an operation nor in the noise maximum.
    fresh = she.Ciphertext(value=1, noise_bits=40)
    b.record("encrypt", fresh)
    b.record("add", she.Ciphertext(value=1, noise_bits=12))
    b.record("mul", she.Ciphertext(value=1, noise_bits=5))
    assert (b.n_he_add, b.n_he_mul, b.max_noise_bits) == (2, 5, 12)


# ``RunReport.to_json()`` without ``wall`` for a 7-update chain, hashed with
# sorted keys and compact separators.  Computed at the commit where each hop
# returned its own EvalStats from the evaluators, so they show that the
# per-hop tally the simulator now takes from ``she.observe`` is the same.
REPORT_DIGESTS = {
    False: "17f7fc81ffbedc972058bffe14d8b0296125047063344ba5cd222647888fe1ed",
    True: "42b2a8a38eda00a33ec241c55860a7e502f5806c1aa0de174afea94aa2c6cf01",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_report_digest_pinned(star_mode):
    cfg = RunConfig(lam=3, seed=7, star_mode=star_mode)
    report = run_discovery(chain_topology(10, seed=7), 0, 9, cfg)
    assert len(report.per_node_stats) == 7
    obj = report.to_json()
    del obj["wall"]
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[star_mode]


def test_source_does_not_shortcut_to_a_neighboring_destination():
    # Edge 0-5 exists, yet the source hands the request to its most trusted
    # neighbor, 4; only a later hop forwards straight to a neighboring
    # destination.  The oracle and the encrypted run follow the same rule.
    t = generate_topology(8, 3, seed=1)
    assert 5 in t.neighbors(0)
    oracle = plaintext_oracle(t, 0, 5)
    assert oracle.path == (0, 4, 5)
    for star_mode in (False, True):
        report = run_discovery(t, 0, 5, RunConfig(lam=3, seed=1, star_mode=star_mode))
        assert report.status == DELIVERED
        assert report.path == (0, 4, 5)
        assert report.trusted
        assert report.decrypted_trust == oracle.trust


def test_run_discovery_two_nodes_direct():
    t = chain_topology(2, seed=9)
    report = run_discovery(t, 0, 1, RunConfig(lam=3, seed=5))
    assert report.status == DELIVERED
    assert report.path == (0, 1)
    assert report.decrypted_trust == t.trust[(0, 1)]
    assert report.trusted
    assert report.per_node_stats == ()
    assert report.eta == required_eta(4, 0, 3)


def test_run_discovery_deterministic_apart_from_wall():
    t = generate_topology(9, 3, seed=11)
    def strip(report):
        obj = report.to_json()
        obj.pop("wall")
        return obj
    a = run_discovery(t, 0, 8, RunConfig(lam=3, seed=13))
    b = run_discovery(t, 0, 8, RunConfig(lam=3, seed=13))
    assert strip(a) == strip(b)


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_caller_observing_run_discovery_sees_every_ciphertext(star_mode, made_keys):
    # run_discovery observes each hop itself; the caller's sink still
    # receives every event, so its counts are the report's stats.
    t = chain_topology(5, seed=6)
    ops = collections.Counter()
    produced = []

    def sink(op, ct):
        ops[op] += 1
        produced.append(ct)

    with she.observe(sink):
        report = run_discovery(t, 0, 4, RunConfig(lam=3, seed=8, star_mode=star_mode))
    assert report.status == DELIVERED and report.trusted
    assert len(report.per_node_stats) == 2
    assert (ops["add"], ops["mul"]) == (report.stats.n_he_add, report.stats.n_he_mul)
    # The source encrypts 4 bits and 4 zero pairs.  Each of the 2 updates
    # encrypts 4 local bits and runs 14 gates; a star hop also encrypts 14
    # flags and 4 zero pairs, and its 18 universal gates are 90 ops.
    assert len(produced) == (244 if star_mode else 48)
    sk = made_keys[0].sk
    for ct in produced:
        assert (ct.value % sk).bit_length() <= ct.noise_bits


def certified_star_chain(updates, lam, seed, made_keys):
    """One star discovery on a chain with ``updates`` updating hops at planned eta:
    trusted, equal to the oracle, and every observed residue within its bound."""
    n = updates + 3
    t = chain_topology(n, seed=seed)
    produced = []
    with she.observe(lambda op, ct: produced.append(ct)):
        report = run_discovery(t, 0, n - 1, RunConfig(lam=lam, seed=seed, star_mode=True))
    oracle = plaintext_oracle(t, 0, n - 1)
    assert len(report.per_node_stats) == updates
    assert report.eta == required_eta(4, updates, lam, star_mode=True)
    assert report.trusted
    assert report.path == oracle.path
    assert report.decrypted_trust == oracle.trust
    sk = made_keys[0].sk
    for ct in produced:
        assert (ct.value % sk).bit_length() <= ct.noise_bits
    return report


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certified_star_run_seven_updates(seed, made_keys):
    certified_star_chain(7, lam=3, seed=seed, made_keys=made_keys)


def test_certified_star_run_seventeen_updates(made_keys):
    # The planner's eta for 17 star updates at lam 3 (README "Performance notes").
    report = certified_star_chain(17, lam=3, seed=4, made_keys=made_keys)
    assert report.eta == 515_923


def test_star_run_multiplies_a_wide_factor_only_by_a_hop_residue(monkeypatch, made_keys):
    # he_mul does not reduce its operands.  The only factor wider than pk is
    # a bit of the source's full-form accumulator, at the first updating hop,
    # and each one meets an identity gate's fresh residue zero, so every
    # division after a product stays short.
    factors = []
    mul = bignum.mul

    def recording_mul(a, b):
        factors.append(sorted((a.bit_length(), b.bit_length())))
        return mul(a, b)

    monkeypatch.setattr(bignum, "mul", recording_mul)
    report = certified_star_chain(5, lam=10, seed=4, made_keys=made_keys)
    pk_bits = SecurityParams.from_lambda(10, eta=report.eta).pk_bits
    assert len(factors) > 100
    assert all(wide <= pk_bits or narrow <= 10 + 2 for narrow, wide in factors)
    assert sum(wide > pk_bits for _, wide in factors) == 4


def test_run_discovery_rejects_trusted_answer_that_disagrees_with_oracle(monkeypatch):
    real_finalize = sim.source_finalize

    def forged_finalize(keys, rp, params):
        outcome = real_finalize(keys, rp, params)
        return dataclasses.replace(outcome, trust=(outcome.trust + 1) % 16, trusted=True)

    monkeypatch.setattr(sim, "source_finalize", forged_finalize)
    with pytest.raises(RuntimeError, match="disagrees with oracle"):
        run_discovery(chain_topology(5, seed=6), 0, 4, RunConfig(lam=3, seed=8))


def test_run_discovery_too_deep_raises():
    t = chain_topology(53, seed=0)
    with pytest.raises(NoiseBudgetError, match="star_mode=True"):
        run_discovery(t, 0, 52, RunConfig(lam=3, star_mode=True))


def test_run_discovery_endpoint_validation():
    t = chain_topology(3, seed=0)
    with pytest.raises(ValueError):
        run_discovery(t, 0, 9, RunConfig(lam=3))


def test_run_discovery_refuses_a_node_whose_width_cannot_hold_its_scores():
    # The oracle answers trust 2 at width 3, but node 14 on the path holds an
    # 8: a configuration error, where a hop used to report a malformed payload.
    t = generate_topology(30, 4, seed=1)
    assert plaintext_oracle(t, 2, 0, width=3).trust == 2
    with pytest.raises(ValueError, match="node 14 trust for 2 is 8, which does not fit in 3 bits"):
        run_discovery(t, 2, 0, RunConfig(lam=3, width=3))


def test_oracle_agreement_on_random_topologies():
    rng = random.Random(0)
    delivered = 0
    for trial in range(15):
        t = generate_topology(rng.randint(4, 8), 2.5, seed=trial)
        nodes = sorted(t.nodes)
        source, dest = rng.sample(nodes, 2)
        report = run_discovery(t, source, dest, RunConfig(lam=3, seed=trial))
        oracle = plaintext_oracle(t, source, dest)
        assert report.status == oracle.status
        assert report.path == oracle.path
        if report.status == DELIVERED:
            delivered += 1
            assert report.trusted
            assert report.decrypted_trust == oracle.trust
    assert delivered > 0


def test_benchmark_counts_and_shape():
    rows = benchmark(seed=0, lambdas=(3,), n=20)
    assert len(rows) == 1
    row = rows[0]
    assert row.lam == 3
    assert (row.he_adds, row.he_muls) == (153, 85)
    assert (row.star_he_adds, row.star_he_muls) == (17 * 54, 17 * 36)
    assert row.updates == 17
    assert row.path_len == 19
    assert row.seconds > 0
    assert row.star_seconds > 0
    table = format_benchmark_table(rows)
    assert "lambda" in table and "star_muls" in table
    obj = benchmark_to_json(rows, seed=0)
    assert obj["rows"][0]["he_adds"] == 153
    assert obj["mul_243bit_per_sec"] > 0


def test_measure_mul_throughput_positive():
    assert measure_mul_throughput(bits=64, iters=200) > 0
