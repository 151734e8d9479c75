import collections
import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum, she
from enctrust.circuits import build_ripple_adder
from enctrust.protocol import (
    Drop,
    ForwardUnchanged,
    ForwardUpdated,
    Reply,
    _check_route,
    destination_reply,
    make_node,
    process_rr,
    rp_from_json,
    rp_to_json,
    rr_from_json,
    rr_to_json,
    select_next_hop,
    source_finalize,
    source_initiate,
)
from enctrust.she import SecurityParams, decrypt_value
from enctrust.sim import (
    build_nodes,
    chain_topology,
    generate_topology,
    hops,
    plaintext_oracle,
    required_eta,
)


def params_for(eta=200, lam=3):
    return SecurityParams.from_lambda(lam, eta=eta)


def test_node_validation():
    with pytest.raises(ValueError):
        make_node(1, {1: 5, 2: 5})
    with pytest.raises(ValueError):
        make_node(1, {2: 11})
    with pytest.raises(ValueError):
        make_node(1, {2: 0})
    with pytest.raises(ValueError, match="trust for 2 is 5.5"):
        make_node(1, {2: 5.5})
    # Equal to a score but not an int: 5.0 == 5 and True == 1.
    with pytest.raises(ValueError, match="trust for 2 is 5.0"):
        make_node(1, {2: 5.0})
    with pytest.raises(ValueError, match="trust for 2 is True"):
        make_node(1, {2: True})
    # A width is exactly an int of at least 1: 4.0 == 4 and True == 1.
    for width, shown in ((0, "0"), (4.0, "4.0"), ("4", "'4'"), (True, "True")):
        with pytest.raises(ValueError, match=f"^width must be a positive int, got {shown}$"):
            make_node(1, {2: 5}, width=width)
    # A score the node's adder cannot hold is refused, not left to a hop's Drop.
    with pytest.raises(ValueError, match="node 1 trust for 3 is 8, which does not fit in 3 bits"):
        make_node(1, {2: 5, 3: 8}, width=3)
    assert make_node(1, {2: 7}, width=3).trust_db == {2: 7}
    # The adder follows from the width, so no node holds one of another width.
    node = make_node(1, {2: 5}, width=3)
    assert node.circuit is build_ripple_adder(3)
    with pytest.raises(AttributeError):
        node.circuit = build_ripple_adder(4)


def test_select_next_hop_argmax_and_ties():
    node = make_node(0, {1: 7, 2: 9, 3: 9, 4: 2})
    assert select_next_hop(node, set()) == 2  # tie between 2 and 3 at 9
    assert select_next_hop(node, {2}) == 3
    assert select_next_hop(node, {2, 3}) == 1
    assert select_next_hop(node, {1, 2, 3, 4}) is None


@settings(max_examples=60)
@given(st.dictionaries(st.integers(1, 30), st.integers(1, 10), min_size=1, max_size=12),
       st.sets(st.integers(1, 30), max_size=10))
def test_select_next_hop_matches_brute_force(trust_db, exclude):
    node = make_node(0, trust_db)
    got = select_next_hop(node, exclude)
    candidates = [(t, nb) for nb, t in trust_db.items() if nb not in exclude]
    if not candidates:
        assert got is None
    else:
        best = max(t for t, _ in candidates)
        assert got == min(nb for t, nb in candidates if t == best)
    # process_rr excludes a request's path, a tuple, as it stands.
    assert select_next_hop(node, tuple(exclude)) == got


def test_source_initiate_builds_first_rr():
    params = params_for()
    rng = random.Random(0)
    node = make_node(5, {6: 3, 7: 9})
    keys, rr = source_initiate(node, 99, params, rng)
    assert rr.source == 5
    assert rr.destination == 99
    assert rr.next_hop == 7
    assert rr.path == (5,)
    assert decrypt_value(keys.sk, rr.acc_trust) == 9


def test_source_initiate_errors():
    params = params_for()
    rng = random.Random(0)
    node = make_node(5, {6: 3})
    with pytest.raises(ValueError):
        source_initiate(node, 5, params, rng)
    lonely = make_node(5, {})
    with pytest.raises(ValueError):
        source_initiate(lonely, 9, params, rng)


def chain_fixture(trusts, width=4, eta=200, seed=1):
    """Nodes 0-1-2-...-k in a line; trusts[i] is node i's trust toward i+1."""
    params = params_for(eta=eta)
    rng = random.Random(seed)
    n = len(trusts) + 1
    nodes = {}
    for i in range(n):
        tdb = {}
        if i > 0:
            tdb[i - 1] = 1
        if i < n - 1:
            tdb[i + 1] = trusts[i]
        nodes[i] = make_node(i, tdb, width)
    return params, rng, nodes


def test_delivery_at_destination_returns_reply():
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    decision = process_rr(nodes[2], rr, rng)
    assert isinstance(decision, Reply)
    assert decision.reply.path == (0, 2)
    assert decrypt_value(keys.sk, decision.reply.acc_trust) == 7


def test_misdelivered_rr_is_dropped():
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    assert rr.next_hop == 1
    decision = process_rr(nodes[2], rr, rng)
    assert isinstance(decision, Drop)
    assert "misdelivered" in decision.reason


def test_revisit_is_dropped():
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    # A request re-addressed to its own source: the source is on the path.
    looped = rr._replace(next_hop=0)
    decision = process_rr(nodes[0], looped, rng)
    assert isinstance(decision, Drop)
    assert "revisit" in decision.reason


def test_shortcut_forwards_unchanged():
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    decision = process_rr(nodes[1], rr, rng)
    assert isinstance(decision, ForwardUnchanged)
    assert decision.next_hop == 2
    # the forwarder contributed nothing: accumulator still decrypts to 7
    assert decrypt_value(keys.sk, rr.acc_trust) == 7


def test_update_accumulates_and_appends_path():
    params, rng, nodes = chain_fixture([7, 5, 4, 6])
    keys, rr = source_initiate(nodes[0], 4, params, rng)
    ops = collections.Counter()
    with she.observe(lambda op, ct: ops.update((op,))):
        decision = process_rr(nodes[1], rr, rng)
    assert isinstance(decision, ForwardUpdated)
    rr2 = decision.rr
    assert rr2.path == (0, 1)
    assert rr2.next_hop == 2
    assert decrypt_value(keys.sk, rr2.acc_trust) == 7 + 5
    # the adder's 9 XOR and 5 AND; only the 4 local bits encrypted, since a
    # plain hop draws no zero pairs for its successor
    assert ops == {"add": 9, "mul": 5, "encrypt": 4}


def test_update_star_mode_matches_plain():
    params, rng, nodes = chain_fixture([7, 5, 4, 6], eta=300)
    keys, rr = source_initiate(nodes[0], 4, params, rng)
    ops = collections.Counter()
    with she.observe(lambda op, ct: ops.update((op,))):
        decision = process_rr(nodes[1], rr, rng, star_mode=True)
    assert isinstance(decision, ForwardUpdated)
    assert decrypt_value(keys.sk, decision.rr.acc_trust) == 12
    assert ops == star_hop_ops(4)


def star_hop_ops(width):
    """A star hop's op counts, from its adder: each gate fires as one universal
    gate of 2 muls and 3 adds, and the hop encrypts one flag per gate and its
    ``width`` local bits."""
    gates = len(build_ripple_adder(width).gates)
    return {"mul": 2 * gates, "add": 3 * gates, "encrypt": gates + width}


@pytest.mark.parametrize("width", [5, 8])
def test_star_hop_counts_follow_the_adder_at_other_widths(width):
    params, rng, nodes = chain_fixture([7, 5, 4, 6], width=width, eta=300)
    keys, rr = source_initiate(nodes[0], 4, params, rng)
    ops = collections.Counter()
    with she.observe(lambda op, ct: ops.update((op,))):
        decision = process_rr(nodes[1], rr, rng, star_mode=True)
    assert decrypt_value(keys.sk, decision.rr.acc_trust) == 12
    assert ops == star_hop_ops(width)


@pytest.mark.parametrize(
    "star_mode, local", [(False, 4), (True, 4 + 14)], ids=["plain", "star"]
)
def test_hop_local_encryptions_are_residues_and_wire_ciphertexts_are_full(star_mode, local):
    # The local bits and star flags never leave the hop, so they are born
    # reduced mod pk; the source's accumulator crosses the wire whole.
    params, rng, nodes = chain_fixture([7, 5, 4, 6], eta=300)
    keys, rr = source_initiate(nodes[0], 4, params, rng)
    fresh = []
    with she.observe(lambda op, ct: fresh.append(ct.value) if op == "encrypt" else None):
        decision = process_rr(nodes[1], rr, rng, star_mode)
    assert isinstance(decision, ForwardUpdated)
    assert len(fresh) == local
    assert all(value < keys.pk for value in fresh)
    sent = [c.value for c in rr.acc_trust]
    assert len(sent) == 4
    assert all(keys.pk <= value for value in sent)
    assert all(value.bit_length() <= params.fresh_ct_bits for value in sent)


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_iface_lookup_is_never_called(star_mode):
    def lookup(node_id):
        raise AssertionError(f"iface_lookup called for node {node_id}")

    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng, lookup)
    decision = process_rr(nodes[1], rr, rng, star_mode, lookup)
    assert isinstance(decision, ForwardUpdated)
    assert decrypt_value(keys.sk, decision.rr.acc_trust) == 7 + 5


def test_no_candidates_drops():
    params = params_for()
    rng = random.Random(3)
    # node 1's only neighbors are the source and an already-visited node
    nodes = {
        0: make_node(0, {1: 5}),
        1: make_node(1, {0: 4, 2: 6}),
    }
    keys, rr = source_initiate(nodes[0], 9, params, rng)
    rr = rr._replace(path=(0, 2), next_hop=1)
    decision = process_rr(nodes[1], rr, rng)
    assert isinstance(decision, Drop)
    assert "no trusted next hop" in decision.reason


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
@pytest.mark.parametrize("kept", [2, 3])
def test_malformed_payload_drops(star_mode, kept):
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    bad = rr._replace(acc_trust=rr.acc_trust[:kept])
    decision = process_rr(nodes[1], bad, rng, star_mode)
    assert isinstance(decision, Drop)
    assert "malformed payload" in decision.reason


def test_full_two_update_chain_with_wraparound():
    # 0 -> 1 -> 2 -> 3 -> 4: nodes 1 and 2 update, node 3 shortcuts.
    params, rng, nodes = chain_fixture([9, 8, 7, 1])
    keys, rr = source_initiate(nodes[0], 4, params, rng)
    walk = list(hops(nodes, rr, rng))
    assert [(node_id, type(decision)) for node_id, _, decision in walk] == [
        (1, ForwardUpdated), (2, ForwardUpdated), (3, ForwardUnchanged), (4, Reply),
    ]
    outcome = source_finalize(keys, walk[-1][2].reply, params)
    assert outcome.path == (0, 1, 2, 4)
    assert outcome.trust == (9 + 8 + 7) % 16
    assert outcome.trusted


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_forwarded_requests_pass_the_checks_they_skip(star_mode):
    # process_rr builds the request it forwards unchecked; the decoder's
    # route checks must hold for every one.
    forwarded = 0
    for seed in range(8):
        topo = generate_topology(24, 3, seed=seed)
        nodes = build_nodes(topo)
        rng = random.Random(seed)
        _, rr = source_initiate(nodes[0], 23, params_for(), rng)
        for _, _, decision in hops(nodes, rr, rng, star_mode):
            if isinstance(decision, ForwardUpdated):
                _check_route(decision.rr.destination, decision.rr.path)
                forwarded += 1
    assert forwarded >= 16


def test_intermediates_and_destination_never_decrypt(monkeypatch):
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("decrypt_bit called outside source_finalize")

    monkeypatch.setattr(she, "decrypt_bit", forbidden)
    # Node 1 updates, node 2 forwards unchanged, and the destination replies
    # to the request the route delivered.
    walk = list(hops(nodes, rr, rng))
    assert [type(decision) for _, _, decision in walk] == [ForwardUpdated, ForwardUnchanged, Reply]
    assert walk[-1][2].reply.path == (0, 1, 3)


def test_finalize_reports_untrusted_on_noise_overflow():
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    rp = destination_reply(rr)
    noisy = tuple(
        she.Ciphertext(value=ct.value, noise_bits=params.eta + 5) for ct in rp.acc_trust
    )
    rp_bad = dataclasses.replace(rp, acc_trust=noisy)
    outcome = source_finalize(keys, rp_bad, params)
    assert not outcome.trusted


def test_finalize_reports_untrusted_on_oversized_ciphertext():
    # A reply ciphertext wider than a fresh one is not a value the scheme
    # produces, so its honest-looking noise bound guarantees nothing.
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    rp = destination_reply(rr)
    assert source_finalize(keys, rp, params).trusted
    for bits in (params.fresh_ct_bits + 1, 400_000):
        head = rp.acc_trust[0]
        value = (1 << (bits - 1)) | rng.getrandbits(bits - 1)
        wide = she.Ciphertext(value=value, noise_bits=head.noise_bits)
        rp_bad = dataclasses.replace(rp, acc_trust=(wide, *rp.acc_trust[1:]))
        assert not source_finalize(keys, rp_bad, params).trusted


def test_rr_json_roundtrip_and_determinism():
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    assert obj["pk"] == format(keys.pk, "x")
    assert obj["lambda"] == 3
    assert "width" not in obj  # the width is len(acc_trust)
    assert obj["path"] == [0]
    assert rr_from_json(obj) == rr

    params2, rng2, nodes2 = chain_fixture([7, 5, 4])
    keys2, rr2 = source_initiate(nodes2[0], 3, params2, rng2)
    assert json.dumps(obj, sort_keys=True) == json.dumps(rr_to_json(rr2), sort_keys=True)


def test_rp_json_roundtrip():
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    rp = destination_reply(rr)
    assert rp_from_json(rp_to_json(rp)) == rp


def test_request_source_is_the_path_head_and_an_old_source_field_is_ignored():
    params, rng, nodes = chain_fixture([7, 5, 4])
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    forwarded = process_rr(nodes[1], rr, rng).rr
    assert (rr.source, forwarded.source) == (0, 0)
    assert "source" not in rr_to_json(rr)
    # Older requests carried the source beside the path; the path decides.
    for old_source in (0, 1, 7):
        decoded = rr_from_json({**rr_to_json(forwarded), "source": old_source})
        assert decoded == forwarded
        assert decoded.source == 0


def test_same_seed_discoveries_serialize_byte_identical():
    def wire_texts():
        params, rng, nodes = chain_fixture([7, 5, 4, 6])
        keys, rr = source_initiate(nodes[0], 4, params, rng)
        walk = list(hops(nodes, rr, rng))
        texts = [json.dumps(rr_to_json(r), sort_keys=True) for _, r, _ in walk]
        return texts + [json.dumps(rp_to_json(walk[-1][2].reply), sort_keys=True)]

    first = wire_texts()
    # the source's request, one per update, the unchanged forward, the reply
    assert len(first) == 5
    assert first == wire_texts()
    # Every field is one the receiver reads: no op counts, no interface, no
    # zeros and no clock reading.
    request_keys = {
        "pk", "lambda", "eta", "destination", "next_hop", "path",
        "acc_trust", "acc_trust_noise_bits",
    }
    requests = [json.loads(text) for text in first[:-1]]
    assert all(set(obj) == request_keys for obj in requests)
    assert set(json.loads(first[-1])) == {"path", "acc_trust", "acc_trust_noise_bits"}


def test_rr_from_json_rejects_malformed_public_key():
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    short = keys.pk >> 1 | 1  # odd, one bit short of pk_bits
    assert short.bit_length() == params.pk_bits - 1
    for bad in ("0", "2", format(short, "x")):
        obj = rr_to_json(rr)
        obj["pk"] = bad
        with pytest.raises(ValueError):
            rr_from_json(obj)


@pytest.mark.parametrize("text", ["+1", "0x1", "1_1", "-1"])
def test_rr_from_json_rejects_non_hex_ciphertext(text):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    obj = rr_to_json(rr)
    obj["acc_trust"][0] = text
    with pytest.raises(ValueError):
        rr_from_json(obj)


@pytest.mark.parametrize("field", ["acc_trust"])
def test_rr_from_json_rejects_oversized_ciphertext(field):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    obj = rr_to_json(rr)
    cts = obj[field]
    # A fresh ciphertext is under 2**(pk_bits + q_bits + 1) and an evaluated
    # one is below pk, so fresh_ct_bits leaves room for every honest value.
    cts[0] = format((1 << params.fresh_ct_bits) - 1, "x")
    rr_from_json(obj)
    cts[0] = format(1 << params.fresh_ct_bits, "x")
    with pytest.raises(ValueError, match="wider than"):
        rr_from_json(obj)


@pytest.mark.parametrize("field", ["pk", "acc_trust"])
def test_rr_from_json_rejects_overlong_hex_unparsed(field, monkeypatch):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    obj = rr_to_json(rr)
    bits = params.pk_bits if field == "pk" else params.fresh_ct_bits
    overlong = "1" + "0" * ((bits + 3) // 4)  # one digit more than a value of `bits` bits
    if field == "pk":
        obj["pk"] = overlong
    else:
        obj[field][0] = overlong
    parsed = []
    parse = bignum.from_hex
    monkeypatch.setattr(bignum, "from_hex", lambda s: parsed.append(s) or parse(s))
    with pytest.raises(ValueError, match="wider than"):
        rr_from_json(obj)
    assert overlong not in parsed


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_request_without_zeros_decodes_and_a_hop_updates_it(star_mode):
    # No request carries zeros, since no hop reads them.  Older source
    # requests carried 8, two per accumulator bit, with their bounds; the
    # decoder ignores them, whatever their count or content.
    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    assert "zeros" not in obj
    assert rr_from_json(obj) == rr
    old_zeros = ([format(7 + 2 * i, "x") for i in range(8)], ["1", "2", "3"], ["12g4"])
    for zeros in old_zeros:
        old = {**obj, "zeros": zeros, "zeros_noise_bits": [1] * len(zeros)}
        assert rr_from_json(old) == rr
    decoded = rr_from_json({**obj, "zeros": old_zeros[0]})
    decision = process_rr(nodes[1], decoded, rng, star_mode)
    assert isinstance(decision, ForwardUpdated)
    assert decrypt_value(keys.sk, decision.rr.acc_trust) == 7 + 5


def test_oversized_accumulator_costs_a_star_hop_at_most_its_own_width():
    # 64 accumulator bits decode, since the decoder does not know the hop's
    # width.  The hop's adder refuses its 68 inputs before any gate fires.
    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    for key in ("acc_trust", "acc_trust_noise_bits"):
        obj[key] = obj[key] * 16
    decoded = rr_from_json(obj)
    assert len(decoded.acc_trust) == 64
    ops = collections.Counter()
    with she.observe(lambda op, ct: ops.update((op,))):
        decision = process_rr(nodes[1], decoded, rng, star_mode=True)
    assert isinstance(decision, Drop)
    assert decision.reason.startswith("malformed payload: ")
    assert ops["mul"] == ops["add"] == 0


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_wire_cannot_switch_reduction_off(star_mode):
    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    obj["reduce_mod_pk"] = False
    decision = process_rr(nodes[1], rr_from_json(obj), rng, star_mode)
    assert isinstance(decision, ForwardUpdated)
    out = decision.rr
    # Every evaluated ciphertext is reduced.
    cts = list(out.acc_trust)
    assert len(cts) == 4
    assert all(ct.value < keys.pk for ct in cts)
    assert decrypt_value(keys.sk, out.acc_trust) == 7 + 5


DELETE = object()
# Each mutation: the path to one field of the message, and its new value.
REQUEST_MUTATIONS = {
    "no-lambda": (["lambda"], DELETE),
    "no-payload": (["acc_trust"], DELETE),
    "lambda-string": (["lambda"], "3"),
    "noise-string": (["acc_trust_noise_bits", 0], "5"),
    "path-int": (["path"], 5),
    "path-strings": (["path"], ["0"]),
    "next-hop-string": (["next_hop"], "1"),
    "next-hop-bool": (["next_hop"], True),
    "path-bool": (["path", 0], True),
    "noise-bool": (["acc_trust_noise_bits", 0], True),
    "acc-int": (["acc_trust", 0], 5),
}
REPLY_MUTATIONS = {
    "no-acc": (["acc_trust"], DELETE),
    "noise-string": (["acc_trust_noise_bits", 0], "5"),
    "path-int": (["path"], 5),
    "path-bool": (["path", 0], True),
    "noise-bool": (["acc_trust_noise_bits", 0], True),
    "acc-int": (["acc_trust", 0], 5),
}


@pytest.mark.parametrize(
    "message, field_path, value",
    [("rr", *m) for m in REQUEST_MUTATIONS.values()]
    + [("rp", *m) for m in REPLY_MUTATIONS.values()],
    ids=[f"rr-{name}" for name in REQUEST_MUTATIONS] + [f"rp-{name}" for name in REPLY_MUTATIONS],
)
def test_wire_decoders_reject_missing_and_ill_typed_fields(message, field_path, value):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    if message == "rr":
        obj, decode = rr_to_json(rr), rr_from_json
    else:
        obj, decode = rp_to_json(destination_reply(rr)), rp_from_json
    decode(json.loads(json.dumps(obj)))  # the unmutated message decodes
    *parents, last = field_path
    field = obj
    for key in parents:
        field = field[key]
    if value is DELETE:
        del field[last]
    else:
        field[last] = value
    # The message names the mutated top-level field, quoted, so that
    # 'acc_trust' does not match 'acc_trust_noise_bits'.
    with pytest.raises(ValueError, match=re.escape(repr(field_path[0]))):
        decode(obj)


@pytest.mark.parametrize("message", ["rr", "rp"])
def test_wire_decoders_reject_a_negative_noise_bound(message):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    if message == "rr":
        obj, decode = rr_to_json(rr), rr_from_json
    else:
        obj, decode = rp_to_json(destination_reply(rr)), rp_from_json
    obj["acc_trust_noise_bits"][1] = -1
    with pytest.raises(ValueError, match="noise_bits cannot be negative: -1"):
        decode(obj)


def _set_item(field, index, value):
    """A mutation that sets ``obj[field][index]`` (``obj[field]`` if ``index`` is None)."""

    def mutate(obj):
        if index is None:
            obj[field] = value
        else:
            obj[field][index] = value

    return mutate


def _both(first, second):
    return lambda obj: (first(obj), second(obj))


# Each malformed message: its mutation, and the exact ValueError it decodes to.
# The source's request of ``chain_fixture([7, 5])``: lam 3, eta 200, so pk is
# 203 bits (51 hex digits), a fresh ciphertext at most 214 bits, and 4
# accumulator bits.
REQUEST_ERRORS = {
    "missing-field": (lambda obj: obj.pop("eta"), "missing field 'eta'"),
    "lambda-true": (
        _set_item("lambda", None, True), "field 'lambda' has the wrong JSON type: bool"
    ),
    "path-string": (_set_item("path", 0, "0"), "field 'path' has the wrong JSON type: str"),
    "acc-int": (_set_item("acc_trust", 1, 5), "field 'acc_trust' has the wrong JSON type: int"),
    "negative-2nd": (_set_item("acc_trust_noise_bits", 1, -2), "noise_bits cannot be negative: -2"),
    "negative-4th": (_set_item("acc_trust_noise_bits", 3, -5), "noise_bits cannot be negative: -5"),
    # The first in wire order, not the least.
    "negative-2nd-and-4th": (
        lambda obj: obj["acc_trust_noise_bits"].__setitem__(slice(1, 4, 2), [-2, -9]),
        "noise_bits cannot be negative: -2",
    ),
    "bound-count": (
        lambda obj: obj["acc_trust_noise_bits"].pop(),
        "4 ciphertexts under 'acc_trust' but 3 noise bounds",
    ),
    # No width is below 1, so an empty accumulator is malformed in any run.
    "acc-empty": (
        lambda obj: obj.update(acc_trust=[], acc_trust_noise_bits=[]),
        "field 'acc_trust' holds no ciphertext",
    ),
    "pk-even": (
        lambda obj: obj.update(pk=format(int(obj["pk"], 16) - 1, "x")),
        "public key must be odd and 203 bits wide",
    ),
    "pk-one-bit-short": (
        lambda obj: obj.update(pk=format(int(obj["pk"], 16) >> 1 | 1, "x")),
        "public key must be odd and 203 bits wide",
    ),
    "pk-too-many-digits": (_set_item("pk", None, "1" + "0" * 51), "public key wider than 203 bits"),
    "ct-one-bit-over": (
        _set_item("acc_trust", 2, format(1 << 214, "x")), "ciphertext wider than 214 bits"
    ),
    "non-hex": (_set_item("acc_trust", 2, "12g4"), "invalid hex string: '12g4'"),
    "non-ascii-digit": (_set_item("acc_trust", 0, "1٣"), "invalid hex string: '1٣'"),
    "empty-hex": (_set_item("acc_trust", 3, ""), "invalid hex string: ''"),
    # A bad ciphertext and a bad bound: the first in wire order is named.
    "non-hex-before-negative": (
        _both(_set_item("acc_trust", 0, "x"), _set_item("acc_trust_noise_bits", 2, -1)),
        "invalid hex string: 'x'",
    ),
    "negative-before-non-hex": (
        _both(_set_item("acc_trust", 3, "x"), _set_item("acc_trust_noise_bits", 1, -1)),
        "noise_bits cannot be negative: -1",
    ),
    "path-empty": (_set_item("path", None, []), "path is empty"),
    "path-revisits": (_set_item("path", None, [0, 1, 0]), "path revisits a node: (0, 1, 0)"),
    "source-is-destination": (
        _set_item("destination", None, 0), "source and destination coincide: 0"
    ),
    # Addressed to the destination with the destination already on the
    # path: the destination would reply with a path that visits it twice.
    "destination-on-path": (
        _both(_set_item("path", None, [0, 2, 1]), _set_item("next_hop", None, 2)),
        "destination 2 is already on the path: (0, 2, 1)",
    ),
}
REPLY_ERRORS = {
    "missing-field": (lambda obj: obj.pop("path"), "missing field 'path'"),
    "path-string": (_set_item("path", 1, "2"), "field 'path' has the wrong JSON type: str"),
    "acc-int": (_set_item("acc_trust", 0, 5), "field 'acc_trust' has the wrong JSON type: int"),
    "negative-2nd": (_set_item("acc_trust_noise_bits", 1, -2), "noise_bits cannot be negative: -2"),
    "negative-4th": (_set_item("acc_trust_noise_bits", 3, -5), "noise_bits cannot be negative: -5"),
    "bound-count": (
        lambda obj: obj["acc_trust_noise_bits"].append(5),
        "4 ciphertexts under 'acc_trust' but 5 noise bounds",
    ),
    # Decoded, it would decrypt to trust 0 and come back trusted.
    "acc-empty": (
        lambda obj: obj.update(acc_trust=[], acc_trust_noise_bits=[]),
        "field 'acc_trust' holds no ciphertext",
    ),
    "non-hex": (_set_item("acc_trust", 3, "0x1"), "invalid hex string: '0x1'"),
    "empty-hex": (_set_item("acc_trust", 1, ""), "invalid hex string: ''"),
    # The reply of ``chain_fixture([7, 5])`` has path (0, 2).
    "path-empty": (_set_item("path", None, []), "path needs a source and a destination: ()"),
    "path-one-node": (
        _set_item("path", None, [0]), "path needs a source and a destination: (0,)"
    ),
    "path-revisit": (
        _set_item("path", None, [0, 1, 1, 2]), "path revisits a node: (0, 1, 1, 2)"
    ),
}


@pytest.mark.parametrize(
    "message, mutate, expected",
    [("rr", *case) for case in REQUEST_ERRORS.values()]
    + [("rp", *case) for case in REPLY_ERRORS.values()],
    ids=[f"rr-{name}" for name in REQUEST_ERRORS] + [f"rp-{name}" for name in REPLY_ERRORS],
)
def test_wire_decoders_name_the_first_fault_exactly(message, mutate, expected):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    if message == "rr":
        obj, decode = rr_to_json(rr), rr_from_json
    else:
        obj, decode = rp_to_json(destination_reply(rr)), rp_from_json
    mutate(obj)
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        decode(json.loads(json.dumps(obj)))


@pytest.mark.parametrize("field", ["acc_trust"])
def test_rr_from_json_accepts_odd_length_uppercase_hex(field):
    params, rng, nodes = chain_fixture([7, 5])
    keys, rr = source_initiate(nodes[0], 2, params, rng)
    obj = rr_to_json(rr)
    obj[field][0] = "ABCDE"
    decoded = rr_from_json(obj)
    first = decoded.acc_trust[0]
    assert first == she.Ciphertext(0xABCDE, first.noise_bits)
    assert rp_from_json(rp_to_json(destination_reply(decoded))) == destination_reply(decoded)


def _field_paths(obj, prefix=()):
    """The key/index path of every field and list element in a JSON message."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


# Values of another JSON type for a field.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(-1, 9), max_size=4),
    st.dictionaries(st.sampled_from(["acc", "local", "x"]), st.integers(-1, 9), max_size=2),
)


def _same_type(old):
    """Values of the JSON type a field already has."""
    if isinstance(old, int):
        return st.integers(-1, 12) | st.integers(-(2**70), 2**70)
    if isinstance(old, str):
        # Hex ciphertexts: 312 bits is within fresh_ct_bits (314 at lam 3,
        # eta 300), 320 bits is not.
        return st.sampled_from(["0", "1", "f" * 78, "f" * 80]) | st.text(
            alphabet="0123456789abcdef", min_size=1, max_size=80
        )
    if isinstance(old, list):
        return st.permutations(old) | st.integers(0, len(old)).map(lambda k: old[:k])
    return JSON_VALUES


@settings(max_examples=200, deadline=None)
@given(st.data(), st.booleans())
def test_mutated_request_ends_in_decision_or_value_error(data, star_mode):
    # One or two fields of a real request are dropped, retyped or replaced;
    # the receiving hop must decode it and decide, or raise ValueError.
    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    paths = list(_field_paths(obj))
    for _ in range(data.draw(st.integers(1, 2))):
        *parents, last = data.draw(st.sampled_from(paths))
        field = obj
        try:
            for key in parents:
                field = field[key]
            old = field[last]
        except (KeyError, IndexError, TypeError):
            continue  # the first mutation removed or retyped this path
        if type(field) not in (dict, list):
            continue  # retyped to a string, which indexes but cannot be mutated
        kind = data.draw(st.sampled_from(["drop", "retype", "replace"]))
        if kind == "drop":
            del field[last]
        else:
            field[last] = data.draw(JSON_VALUES if kind == "retype" else _same_type(old))
    try:
        wire = rr_from_json(obj)
    except ValueError:
        return
    decision = process_rr(nodes[1], wire, rng, star_mode)
    assert isinstance(decision, (Reply, ForwardUnchanged, ForwardUpdated, Drop))


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_request_cannot_reorder_adder_inputs(star_mode):
    params, rng, nodes = chain_fixture([7, 5, 4], eta=300)
    keys, rr = source_initiate(nodes[0], 3, params, rng)
    obj = rr_to_json(rr)
    # An input layout with accumulator bits 2 and 3 swapped: older requests
    # carried one, and a hop obeyed it.
    obj["layout"] = [
        "ACC_0", "ACC_1", "ACC_3", "ACC_2", "LOCAL_0", "LOCAL_1", "LOCAL_2", "LOCAL_3",
    ]
    decision = process_rr(nodes[1], rr_from_json(obj), rng, star_mode)
    assert isinstance(decision, ForwardUpdated)
    assert decrypt_value(keys.sk, decision.rr.acc_trust) == 7 + 5


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_no_ciphertext_repeats_within_a_message(star_mode):
    # lam 5: a fresh Enc(0) is 2r + pk*Q with 5-bit r and 25-bit Q, so two
    # of them coincide by chance with probability about 2**-30 (2**-12 at lam 3).
    lam, n = 5, 7
    topo = chain_topology(n, seed=21)
    oracle = plaintext_oracle(topo, 0, n - 1)
    params = SecurityParams.from_lambda(
        lam, eta=required_eta(4, len(oracle.path) - 2, lam, star_mode)
    )
    nodes = build_nodes(topo)
    rng = random.Random(21)
    keys, rr = source_initiate(nodes[0], n - 1, params, rng)
    walk = list(hops(nodes, rr, rng, star_mode))
    rp = walk[-1][2].reply
    assert source_finalize(keys, rp, params).trust == oracle.trust
    messages = [rr_to_json(r) for _, r, _ in walk] + [rp_to_json(rp)]
    assert len(messages) >= 4
    # A ciphertext on the wire is any hex string other than the public key.
    pk = format(keys.pk, "x")
    for obj in messages:
        cts = [s for s in _json_strings(obj) if s != pk and re.fullmatch("[0-9a-f]+", s)]
        assert len(cts) >= 4
        assert len(cts) == len(set(cts)), obj


def _json_strings(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, (list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _json_strings(item)
