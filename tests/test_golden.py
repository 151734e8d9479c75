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
  ciphertext survived that format change.  A request no longer carries
  its ``source``, which is its path's first node, so the projection
  reads ``source`` from the path.
- ``REPLY`` pins the destination's reply, which decodes from that JSON
  back to the reply the source decrypts.  It was computed at the same
  earlier commit with the reply's ``stats`` left out.
- ``ROUTE`` pins, per request, everything but the ciphertexts: the key,
  parameters, endpoints, next hop, path and the total the accumulator
  decrypts to.  It reads ``source`` from the path too.

When plain hops stopped drawing and sending zero pairs, a plain hop's rng
drew only its local bits, so every plain ciphertext after the source's
request changed: the plain ``GOLDEN`` and ``SAME_CIPHERTEXTS`` digests from
request 1 on, and the plain ``REPLY``, were re-pinned then.  ``ROUTE`` was
computed at the commit before that change and holds across it; so do the
plain request 0 and every star digest.

When a star hop began drawing its identity gates' ``Enc(0)`` pairs itself,
instead of reading the pairs its predecessor sent, every star request after
the source's lost its zeros and every star hop's outputs changed value: the
star ``GOLDEN`` and ``SAME_CIPHERTEXTS`` digests from request 1 on, and the
star ``REPLY``, were re-pinned then.  The rng draws the same number of
values in the same order.  ``ROUTE`` in both modes, the star request 0 and
every plain digest hold unedited across that change, and so do
``REPORT_DIGESTS`` in ``tests/test_sim.py``, which pin each run's route,
decrypted trust, per-hop op counts and largest noise bound.

When a hop's own encryptions (its local bits, star flags and identity-gate
zeros), built as residues ``m + 2r``, stopped drawing a ``Q`` they never
used, each hop drew fewer values, so every ciphertext a hop produces
changed: the ``GOLDEN`` and ``SAME_CIPHERTEXTS`` digests from request 1 on,
and ``REPLY``, were re-pinned in both modes then.  The source still draws
``Q`` for its accumulator and zeros, so request 0 holds in both modes.
``ROUTE`` and ``REPORT_DIGESTS`` hold too, so the keys, routes, decrypted
totals, per-hop op counts and largest noise bounds did not move.

When star hops stopped firing an identity gate ``(acc_i, Enc(0), Enc(0))``
on each accumulator bit before their adder, a star update shed 20 of its 90
he-ops and 8 of its 26 encryptions, and the planner, which runs the same
update, sized this chain's star eta 14,623 instead of 25,123.  A new eta is
a new key, so every star digest was re-pinned then: ``GOLDEN`` and
``SAME_CIPHERTEXTS`` from request 0 on, ``REPLY``, ``ROUTE`` and the star
``REPORT_DIGESTS``.  At the old eta, passed explicitly, the star ``ROUTE``
holds unedited (``ROUTE_AT_IDENTITY_GATE_ETA``): the keys, paths and every
decrypted running total are those of the hops with identity gates.  Every
plain digest holds.

When requests stopped writing ``source``, the path's first node, every
``GOLDEN`` digest was re-pinned in both modes, since each hashes the whole
request.  ``SAME_CIPHERTEXTS``, ``REPLY``, ``ROUTE`` and
``ROUTE_AT_IDENTITY_GATE_ETA`` hold unedited, each reading ``source`` as
``path[0]``: no key, route, ciphertext or bound moved.
"""

import hashlib
import json
import random

import pytest

from enctrust.she import decrypt_value
from enctrust.protocol import (
    rp_from_json,
    rp_to_json,
    rr_from_json,
    rr_to_json,
    source_finalize,
    source_initiate,
)
from enctrust.sim import build_nodes, chain_topology, hops, plaintext_oracle, required_eta
from enctrust.she import SecurityParams

LAM = 3
SEED = 21


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _field(obj: dict, key: str):
    """``obj[key]``; ``source``, which requests no longer write, is ``path[0]``."""
    return obj["path"][0] if key == "source" else obj[key]


def _wire(msg, to_json, from_json):
    """``msg``'s JSON, after checking that it decodes back to ``msg`` itself."""
    obj = to_json(msg)
    assert from_json(json.loads(json.dumps(obj))) == msg
    return obj


def _discover(n: int, star_mode: bool, eta: int | None = None):
    """Hop-by-hop discovery from 0 to n-1 on a chain, every message checked against the codec.

    ``eta`` defaults to the planner's.  Returns the JSON of each request
    sent, the JSON of the reply, the oracle, the source's outcome and its
    keys.
    """
    t = chain_topology(n, seed=SEED)
    oracle = plaintext_oracle(t, 0, n - 1)
    if eta is None:
        eta = required_eta(4, len(oracle.path) - 2, LAM, star_mode)
    params = SecurityParams.from_lambda(LAM, eta=eta)
    nodes = build_nodes(t)
    rng = random.Random(SEED)
    keys, rr = source_initiate(nodes[0], n - 1, params, rng)
    walk = list(hops(nodes, rr, rng, star_mode))
    # Each request once: a forward-unchanged hop hands on the one it received.
    requests = [_wire(r, rr_to_json, rr_from_json) for r in dict.fromkeys(r for _, r, _ in walk)]
    rp = walk[-1][2].reply
    reply = _wire(rp, rp_to_json, rp_from_json)
    return requests, reply, oracle, source_finalize(keys, rp, params), keys


CHAIN_NODES = 10  # 7 accumulator updates
TRUST = 13
GOLDEN = {
    False: [
        "365e34dc25a456cdd97f8a7fbe4d58b1570c6e6b5ddde45098ae3f117d55fb5b",
        "5d1caaa5ff7fcfb4c1adb8bf7c035fc7e27619be61d9b6a4c68c5fc381104057",
        "fb9b8833329fbb860d7cf61ccc9c2e0ebee719c85b5672abc196244fba07f1d2",
        "012b5f3c3bb9b4623412f9476aae9deecea514f0e8bd94475f21910a4d49cac3",
        "72d7746c050a64690be7dc07e93b04069a49ceee013f60ddf0483ca2a9718920",
        "1a5b76621f02142c0500941ec930333916550499974ff1c5ad749146dce897c5",
        "369a9aadf1c76e14f7232eb1cc32c3687c2d8c60253794455babb6d2277a85e9",
        "05df0c85a0ebe3dd65115b5a899b8bd8a9e3fb0b2085788228601d45c418e430",
    ],
    True: [
        "dbd2efea2745a09e3792216565c3f8bd76dc3edaa314075b47f2320a05727c73",
        "3b0037c823ce74aa15bca40ff9cca8289d40f7d9137534a85b396b98ef8bc465",
        "eaab5a77ef5a37fb68b0584ab0b8509873081b8decf28e1844456f90e8e84dd3",
        "217ade735de05bc17dd78ff029b0b7825b564445c7bbf837fd0141dcb1577867",
        "36ee0c3317670db0d71ab9a8eee72c0db80bd808624239733fb99d5866183d23",
        "2167ea5a2bf3cfaab6644a074fd2248f990b85a8a9721817748477af6b67fedf",
        "abf77e5633f5251128ea5e4b75005efb485279ee36f8af700653ed63f033997d",
        "edc7cae9e724402660c1b4ff51012cd881a3d2db2296b2750e1fbfdf27509bf9",
    ],
}
PROJECTION = (
    "pk", "lambda", "eta", "source", "destination", "next_hop", "path",
    "acc_trust", "acc_trust_noise_bits", "zeros",
)
SAME_CIPHERTEXTS = {
    False: [
        "04788ebe3fa7f224d3fcaf708eea44280544468a4493d0abca6c0f5075d32d03",
        "7b2cca537651b5c5ba067697b4642a22378f94b07f4bea381eeecbefc05a172b",
        "6a0036829100bafeb807b90c6b9e3968541453499faeb5c205d146941b9505c6",
        "a67ee10341f4d45d45803936de2d77671dec01676a9fdc557fd12e7fb2caa511",
        "81e29bede9d868f1bb5b765bb9ca7196b6765f592dd5e80d2ac623f0d71ac5d4",
        "50138721f7bc1f94ac3ec26107ef9bb2e8f8e680cac2df3c14a0d78a55bf1cda",
        "07e1290b3c017345eb395ffe7d02b3daf6e4b2eeacf37cd50f98010dbae4301a",
        "84ec5d7bdab94bca7a68f2d5e198b153c8323a29492f3ee910053a480f07ece0",
    ],
    True: [
        "9b29875fe49b5dc94fa1f4de438369cb337a5d1842185f87d8c2f3bd6e0c63ef",
        "96f908b678dcc542eab67cdc33656153b672a29632ed7159c62a3a883f1a0051",
        "0ef009267957148bcb6c3951586c1649172d4c8bc6fda6c568c33bb107c92c1f",
        "d4388fb8973fa7d366b2ecae9b3bb2e30e1752fd73ec9e6c2ca2a15acf7cf27d",
        "45af94680b7f4debd164e3ee0eb4e946ac8e97c243706725d43dd428baabc182",
        "af485ac71cf30045c78ed1fe2e3d62b3b7fc5bba24b5358720aa1e00047a6c2e",
        "c9edcae81f558073b485a5d2e03c70f2ef3fd97247bb8659875cc5911c280d5d",
        "07c4674947bdbf66cba20729a2fdf8e25564bcbce8a2fdbd754446060e430a06",
    ],
}
REPLY = {
    False: "490fdc0d889357927cf7ed7f9c71c43ff80b871e9c1bf09300f287b8c118b393",
    True: "d2b2eecd5982b85056a3b43b574e2e6e22eb9461a7bc63d18e2ebd1f255d819b",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_rr_to_json_pinned_across_backends(star_mode):
    requests, reply, oracle, outcome, _ = _discover(CHAIN_NODES, star_mode)
    assert outcome.trusted
    assert outcome.path == oracle.path
    assert outcome.trust == oracle.trust == TRUST
    assert [_sha256(obj) for obj in requests] == GOLDEN[star_mode]
    projected = [{k: _field(obj, k) for k in PROJECTION} for obj in requests]
    assert [_sha256(obj) for obj in projected] == SAME_CIPHERTEXTS[star_mode]
    assert _sha256(reply) == REPLY[star_mode]


ROUTE_FIELDS = ("pk", "lambda", "eta", "source", "destination", "next_hop", "path")
ROUTE = {
    False: "c36df70a8c4f509eb6567d0a445d9e54542554d0abaa0cc27ed5a94a9bef179a",
    True: "dbbb53a574a0556b8d16032ae384efdb2a0419c9ae082027b693dac9431a7f07",
}


def _route_digest(requests, keys) -> str:
    """No ciphertext enters this digest: each request's key, parameters,
    endpoints, next hop and path, and the total its accumulator decrypts to."""
    route = [
        {
            **{k: _field(obj, k) for k in ROUTE_FIELDS},
            "total": decrypt_value(keys.sk, rr_from_json(obj).acc_trust),
        }
        for obj in requests
    ]
    return _sha256(route)


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_route_and_running_totals_pinned(star_mode):
    requests, _, _, _, keys = _discover(CHAIN_NODES, star_mode)
    assert _route_digest(requests, keys) == ROUTE[star_mode]


# The star ``ROUTE`` pinned while star hops fired identity gates, at the eta
# the planner then sized for this chain (module docstring).
ROUTE_AT_IDENTITY_GATE_ETA = (
    25_123,
    "11d1175db78b46abe109dfb1fb137287abbaa107b1e556024acd95cb97f4a5ab",
)


def test_star_route_holds_at_the_eta_planned_with_identity_gates():
    eta, digest = ROUTE_AT_IDENTITY_GATE_ETA
    requests, _, oracle, outcome, keys = _discover(CHAIN_NODES, True, eta=eta)
    assert outcome.trusted and outcome.trust == oracle.trust == TRUST
    assert _route_digest(requests, keys) == digest
