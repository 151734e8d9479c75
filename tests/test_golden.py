"""Fixed-seed outputs pinned across arithmetic backends and wire formats.

Every route request of one plain and one star discovery is serialized with
``rr_to_json`` and hashed.  The digests date from an older wire format, and
``_digest`` maps each request back to it before hashing:

- ``stats.wall_time`` (a clock reading, zeroed for hashing) is put back as
  0.0, and ``reduce_mod_pk`` (reduction mod pk, now always on) as true;
- the payload carried every accumulator ciphertext a second time, as the
  first element of its adapter triple ``(acc_i, Enc(0), Enc(0))``, and an
  input ``layout`` that was always the ACC block, then the LOCAL block.  The
  triples are rebuilt from ``acc_trust`` and the payload's flat ``zeros``
  (two per accumulator bit, with their noise bounds), and the layout is put
  back.

So every ciphertext, noise bound and op count of the old format must still
come out of the new one.  The digests and the decrypted trust were computed
with the limb Karatsuba kernel as ``bignum.mul``; a backend or wire change
that alters any ciphertext, noise bound or op count changes a digest.
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
    rr_from_json,
    rr_to_json,
    source_finalize,
    source_initiate,
)
from enctrust.sim import build_nodes, chain_topology, plaintext_oracle, required_eta
from enctrust.she import SecurityParams

LAM = 3
SEED = 21


def _digest(rr) -> str:
    obj = rr_to_json(rr)
    assert "wall_time" not in obj["stats"]
    assert "reduce_mod_pk" not in obj
    obj["stats"]["wall_time"] = 0.0
    obj["reduce_mod_pk"] = True
    payload = obj["payload"]
    assert set(payload) == {"zeros", "zeros_noise_bits", "iface"}
    zeros, bounds = payload.pop("zeros"), payload.pop("zeros_noise_bits")
    payload["triples"] = [
        [acc, *zeros[2 * i : 2 * i + 2]] for i, acc in enumerate(obj["acc_trust"])
    ]
    payload["triples_noise_bits"] = [
        [nb, *bounds[2 * i : 2 * i + 2]] for i, nb in enumerate(obj["acc_trust_noise_bits"])
    ]
    iface = payload["iface"]
    assert set(iface) == {"acc", "local"}
    iface["layout"] = [f"ACC_{i}" for i in range(iface["acc"])] + [
        f"LOCAL_{j}" for j in range(iface["local"])
    ]
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _discover(n: int, star_mode: bool):
    """Hop-by-hop discovery from 0 to n-1 on a chain, every request through the codec.

    Returns the digest of each request sent, the oracle, and the source's outcome.
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
    digests = [_digest(rr)]
    current = rr.next_hop
    for _ in range(2 * n):
        wire = rr_from_json(json.loads(json.dumps(rr_to_json(rr))))
        decision = process_rr(nodes[current], wire, rng, star_mode, iface)
        if isinstance(decision, Reply):
            return digests, oracle, source_finalize(keys, decision.reply, params)
        if isinstance(decision, ForwardUnchanged):
            current = decision.next_hop
            continue
        assert isinstance(decision, ForwardUpdated), decision
        rr = decision.rr
        digests.append(_digest(rr))
        current = rr.next_hop
    raise AssertionError("discovery did not terminate")


CHAIN_NODES = 10  # 7 accumulator updates
TRUST = 13
GOLDEN = {
    False: [
        "3cca6d09b7839a2b8e25c56bbbb8376c22221be70469fc2477770974e42bd215",
        "3205779bfbf9383ed5db9b80e67d46ac2d54148b4b2673246613fb81f6ca50c3",
        "d2590777d71ef6d0995a78bec432843701086459fdff924174668c75140f3d90",
        "febdb45e7612e09c8bc775d6c6f74b35ae2fb1d62f31c6a46aadce18227c91d9",
        "7ecd787a0128a65083b6704f08848be81922bb07ac3215385df2c3c412175576",
        "d6d47d20c7b750f09509cd4aba385e3b070fd80fdd2be4b21661b41505c15118",
        "20332ffa60b36e002264c0626e681d345bdada8ba58ab83f093b16eadf09b39c",
        "b476e323455be6620b17c3bf50a589dae224d873483dac8a0ada4188c669de44",
    ],
    True: [
        "f970d1407c6b86c356de899f6b254a9988c1e027bb766ffb16775701659e01c3",
        "0be441e0c5dc5e6fbfb19eef11a3e2dcb284f1088fe4059d9e59dfd552bb5c1e",
        "7884310c7fabde991bd341f144f27a61dde5271e94d5cc3a871e84111173da92",
        "265c868f8848f0ddce341818e61c36321b17a7be2cad84492a4cc8973bab0e63",
        "e01b9245c976f957c05d59234ec2e4e03d4434e319a69a14d6a87e665bed13c6",
        "b39b402b006c4972826383481db50df17a1cdc74a05fdd581fb899e46e519345",
        "a53159f6caeef7cdea52c08796f73bf1197be983820f78ec081927a6b64be868",
        "52e6b0dd762dc87777badf47b086f9bf06e44a9f377634c7f948a617fc71e5bb",
    ],
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_rr_to_json_pinned_across_backends(star_mode):
    digests, oracle, outcome = _discover(CHAIN_NODES, star_mode)
    assert outcome.trusted
    assert outcome.path == oracle.path
    assert outcome.trust == oracle.trust == TRUST
    assert digests == GOLDEN[star_mode]
