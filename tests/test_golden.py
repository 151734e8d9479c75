"""Fixed-seed outputs of one plain and one star discovery.

Every route request of a discovery over a 10-node chain is serialized with
``rr_to_json``, and its reply with ``rp_to_json``, then hashed (sorted keys,
compact separators):

- ``GOLDEN`` pins the whole request: every ciphertext, noise bound and
  field, so a backend or wire change that alters any of them fails here.
- ``SAME_CIPHERTEXTS`` pins each request projected to ``PROJECTION``: the
  key, parameters, endpoints, path, accumulator with its bounds, and the
  adapter's zeros as one flat list.  These digests were computed at the
  commit before requests lost their ``stats`` and ``payload`` fields,
  reading the zeros from ``payload["zeros"]``, so they show that every
  ciphertext survived that format change.  The request is now exactly
  that projection, so ``GOLDEN`` equals it until a field is added.
- ``REPLY`` pins the destination's reply, which the source decodes from
  that JSON before it decrypts.  It was computed at the same earlier
  commit with the reply's ``stats`` left out.
"""

import hashlib
import json
import random

import pytest

from enctrust import she
from enctrust.protocol import (
    ForwardUnchanged,
    ForwardUpdated,
    Reply,
    process_rr,
    rp_from_json,
    rp_to_json,
    rr_from_json,
    rr_to_json,
    source_finalize,
    source_initiate,
)
from enctrust.sim import build_nodes, chain_topology, plaintext_oracle, required_eta
from enctrust.she import SecurityParams

LAM = 3
SEED = 21


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _discover(n: int, star_mode: bool):
    """Hop-by-hop discovery from 0 to n-1 on a chain, every request through the codec.

    Returns the JSON of each request sent, the JSON of the reply, the oracle,
    and the source's outcome.
    """
    t = chain_topology(n, seed=SEED)
    oracle = plaintext_oracle(t, 0, n - 1)
    eta = required_eta(4, len(oracle.path) - 2, LAM, star_mode)
    params = SecurityParams.from_lambda(LAM, eta=eta)
    nodes = build_nodes(t)

    def iface(node_id):
        return nodes[node_id].interface

    rng = random.Random(SEED)
    keys = she.keygen(params, rng)
    keys, rr = source_initiate(nodes[0], n - 1, params, rng, iface, _keys=keys)
    requests = [rr_to_json(rr)]
    current = rr.next_hop
    for _ in range(2 * n):
        wire = rr_from_json(json.loads(json.dumps(requests[-1])))
        decision = process_rr(nodes[current], wire, rng, star_mode, iface)
        if isinstance(decision, Reply):
            reply = rp_to_json(decision.reply)
            rp = rp_from_json(json.loads(json.dumps(reply)))
            return requests, reply, oracle, source_finalize(keys, rp, params)
        if isinstance(decision, ForwardUnchanged):
            current = decision.next_hop
            continue
        assert isinstance(decision, ForwardUpdated), decision
        rr = decision.rr
        requests.append(rr_to_json(rr))
        current = rr.next_hop
    raise AssertionError("discovery did not terminate")


CHAIN_NODES = 10  # 7 accumulator updates
TRUST = 13
GOLDEN = {
    False: [
        "04788ebe3fa7f224d3fcaf708eea44280544468a4493d0abca6c0f5075d32d03",
        "6fd994cdc711de2806542968924cc75d45f3b935650cf940d7bdab92500e477a",
        "92c2f0252aceb555973bc0e37f41792af6661c15adbbeb1a3ac4f46cd6dd18d7",
        "b6af4c16e4aa0b5ddee02ab2b8cbe2d42159142c3aa6b1943c91e55ffa9374b9",
        "082ceb453728deb185889e798ded207003dfaae77fc4c3e997ba9406452d74a0",
        "90a66aae843d9be5c619b94795c9198d083b3a45271121927a2c2e53cd52f768",
        "2e2f5e0bcf4fa3be3aa8c07c299f170a2f4944649d810f2e1fc600ab0a045fa6",
        "d562741261e2c4cd74f949aeb5e8fa3c3a8a6936ab59054ce76a307d5280a39b",
    ],
    True: [
        "c60f050d80a73221cc846604f9a9adee89ec415f67ea622363495ddb64974bc5",
        "3e95f0fc1edb5febc6f1d592190f1ae0a88c9e9322e12400b21a3851f8f7ee36",
        "e2a4349beada1a965fec3d08b87fed6f2b2bdff321a385131015e89b3f7aceff",
        "c62067c6fda773faf7d9083fee86db11cf9d62c18c0755e05579ed2d7f251a25",
        "e04bb4086856d4aa4ee7021deddeaf38bf87557edbabd8402158e1ce760862ff",
        "bc9bf7854257f7a61a7ce758fc5c76129917e835126c578aa39a0d8a5688655d",
        "e9ce02602e66797735c334ce88e77b657cbeb264331d162e51732ea8a0175a8f",
        "af1e629e6f5da7e8dbbca62c3825fbf9d13da43996ec3200c877323902a39600",
    ],
}
PROJECTION = (
    "pk", "lambda", "eta", "source", "destination", "next_hop", "path",
    "acc_trust", "acc_trust_noise_bits", "zeros",
)
SAME_CIPHERTEXTS = {
    False: [
        "04788ebe3fa7f224d3fcaf708eea44280544468a4493d0abca6c0f5075d32d03",
        "6fd994cdc711de2806542968924cc75d45f3b935650cf940d7bdab92500e477a",
        "92c2f0252aceb555973bc0e37f41792af6661c15adbbeb1a3ac4f46cd6dd18d7",
        "b6af4c16e4aa0b5ddee02ab2b8cbe2d42159142c3aa6b1943c91e55ffa9374b9",
        "082ceb453728deb185889e798ded207003dfaae77fc4c3e997ba9406452d74a0",
        "90a66aae843d9be5c619b94795c9198d083b3a45271121927a2c2e53cd52f768",
        "2e2f5e0bcf4fa3be3aa8c07c299f170a2f4944649d810f2e1fc600ab0a045fa6",
        "d562741261e2c4cd74f949aeb5e8fa3c3a8a6936ab59054ce76a307d5280a39b",
    ],
    True: [
        "c60f050d80a73221cc846604f9a9adee89ec415f67ea622363495ddb64974bc5",
        "3e95f0fc1edb5febc6f1d592190f1ae0a88c9e9322e12400b21a3851f8f7ee36",
        "e2a4349beada1a965fec3d08b87fed6f2b2bdff321a385131015e89b3f7aceff",
        "c62067c6fda773faf7d9083fee86db11cf9d62c18c0755e05579ed2d7f251a25",
        "e04bb4086856d4aa4ee7021deddeaf38bf87557edbabd8402158e1ce760862ff",
        "bc9bf7854257f7a61a7ce758fc5c76129917e835126c578aa39a0d8a5688655d",
        "e9ce02602e66797735c334ce88e77b657cbeb264331d162e51732ea8a0175a8f",
        "af1e629e6f5da7e8dbbca62c3825fbf9d13da43996ec3200c877323902a39600",
    ],
}
REPLY = {
    False: "b0b9e837eaf275496994409160ccbad9609440c52054cfa6ed9da133474e2ff0",
    True: "036b104386e3b8d91ab3407f1c7431731df1d9bc2519cafae44dea4dce2749fe",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_rr_to_json_pinned_across_backends(star_mode):
    requests, reply, oracle, outcome = _discover(CHAIN_NODES, star_mode)
    assert outcome.trusted
    assert outcome.path == oracle.path
    assert outcome.trust == oracle.trust == TRUST
    assert [_sha256(obj) for obj in requests] == GOLDEN[star_mode]
    projected = [{k: obj[k] for k in PROJECTION} for obj in requests]
    assert [_sha256(obj) for obj in projected] == SAME_CIPHERTEXTS[star_mode]
    assert _sha256(reply) == REPLY[star_mode]
