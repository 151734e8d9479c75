"""Fixed-seed outputs of one plain and one star discovery.

Every route request of a discovery over a 10-node chain is serialized with
``rr_to_json``, and its reply with ``rp_to_json``, then hashed (sorted keys,
compact separators):

- ``GOLDEN`` pins the whole request: every ciphertext, noise bound and op
  count, so a backend or wire change that alters any of them fails here.
- ``REPLY`` pins the destination's reply, which the source decodes from
  that JSON before it decrypts.
- ``SAME_CIPHERTEXTS`` pins the request without ``stats`` (op counts and
  the noise maximum).  Its digests date from the adder that still computed
  its discarded final carry, when requests also carried an unread ``width``
  field (left out before hashing).  Pruning those gates drew no randomness
  away from plain mode, so every plain request keeps its digest.  A star hop
  encrypts one flag per gate, 3 fewer than before, so every draw after the
  first hop moves and only the source's request keeps its digest.
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
        "8fd313dd2a3308c631addf614f4576922f3f443cbd802a0231ee28e21369fb55",
        "111902ee6433e2767277f0b4e8be3c085d622c607b4b18dad7d1816fe54548a2",
        "2fc947daceae582706853288262841d6466a11fb9a70bfaa7c9806fa3e554bb4",
        "9ab7217318642adc0da9a5d348694947cf40e5b015da2a7544a4b3e48a57cbec",
        "7bd2c90b67fb1ee12d8b32837fdcffd324b5902a831877f2a35a3f2414cafa9d",
        "c49928f07519daa2e1239232d5d7ec17c3f47cbc3d57721df88dc5105a5cda7c",
        "f26961f1922aa101a753348442c72a26d9baa13633b7554b1ba7249f49879c5e",
        "e6cb83d1714d5aacda6c90b112412a89e3abe79b20d787714ac3c5ecdce14af0",
    ],
    True: [
        "03e913c2aea961bde054ae19c10db5ffc95a64350804b32a05fe6f2e52e6faf6",
        "b180f5b2dfdc938eadd71e4273ef52f0b6e7df7b566789ea5dee55463c58886a",
        "5b6db7e77b249132799698905d40603281c779cf024cb86d7cdc15a84ca65e8d",
        "e8ce9addabe11e2984fc837d8b7e440929042298db840486af35949bd252285c",
        "3b44233b93384fdd3ef84b485aafa9791953dc44504db80dc1b5977fe7d1663a",
        "c8321ee127de4058d8e9cadf4318de5796670fa200913733a6a61bbcc3445408",
        "495310840132065d8f12e27a6a355c70d16bd7f749b46d0e54efa323ac2c7ad9",
        "678b737fa3d39cc10cabc2d21c075aec97e424b71d5a529789e3999f15156954",
    ],
}
SAME_CIPHERTEXTS = {
    False: [
        "ead922d4936c2dde9cb94f5dbe30a6a17b16d628cbf644bcdca54b86a6722c0e",
        "1512ac51670715de5d12c84dbaba21a6b8ea6b0a89eb57428a2d7fa14e3ee15f",
        "a087e349206f01b4521119625d148a770d40e83d88e504ec66d8e54c1e276ba5",
        "a6398e7276838ccb19b56fa331a897c69bcf4f292ebcffbf6b0a830eabd9dc22",
        "abee5b7e09e4176baaed60b66ef5d4165b8390a08d35aa1cc7492beb9d2449a1",
        "c29f44c5405ce28dbf9d0de390eb484cbc1d88955e1681ad082aa76aa051475a",
        "b780f7d102f92ece0e04c4a0e5dc151f268a03dd8d0242421e30c8c7fc411d63",
        "62140bf4d6452365a26f9271516e444897ccce7c6a7fb56a9f1bf70a7277741d",
    ],
    True: ["d7f78ae58e72a5649a670b85272893848bbad3704088301c92d46f749a13b44e"],
}
REPLY = {
    False: "dea0ea02d5ec1072b6e80728c5569f08cbaa73bf51ed3716453a424a590bfd34",
    True: "1ac370945b13875f274c9671602430ec59ff09311ea18f8b4447ad006cce436b",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_rr_to_json_pinned_across_backends(star_mode):
    requests, reply, oracle, outcome = _discover(CHAIN_NODES, star_mode)
    assert outcome.trusted
    assert outcome.path == oracle.path
    assert outcome.trust == oracle.trust == TRUST
    assert [_sha256(obj) for obj in requests] == GOLDEN[star_mode]
    without_stats = [{k: v for k, v in obj.items() if k != "stats"} for obj in requests]
    pinned = SAME_CIPHERTEXTS[star_mode]
    assert [_sha256(obj) for obj in without_stats[: len(pinned)]] == pinned
    assert _sha256(reply) == REPLY[star_mode]
