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
- ``REPLY`` pins the destination's reply, which decodes from that JSON
  back to the reply the source decrypts.  It was computed at the same
  earlier commit with the reply's ``stats`` left out.
- ``ROUTE`` pins, per request, everything but the ciphertexts: the key,
  parameters, endpoints, next hop, path and the total the accumulator
  decrypts to.

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


def _wire(msg, to_json, from_json):
    """``msg``'s JSON, after checking that it decodes back to ``msg`` itself."""
    obj = to_json(msg)
    assert from_json(json.loads(json.dumps(obj))) == msg
    return obj


def _discover(n: int, star_mode: bool):
    """Hop-by-hop discovery from 0 to n-1 on a chain, every message checked against the codec.

    Returns the JSON of each request sent, the JSON of the reply, the oracle,
    the source's outcome and its keys.
    """
    t = chain_topology(n, seed=SEED)
    oracle = plaintext_oracle(t, 0, n - 1)
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
        "04788ebe3fa7f224d3fcaf708eea44280544468a4493d0abca6c0f5075d32d03",
        "09968f69bbfc794701a1415659fcb2b0c6049380d672c1be3bed1e0bb3a78912",
        "69b14294fb2239b7af2cd24face88e0597a6af7483ffa9c9e8e376801c950387",
        "c2fb339aecdfd7e1be6958b47b3830380a0e24debe5623cfada8cc4c426b8568",
        "cbabb2ab05edd74cc11c4d838d274a9dfbc4a287ff1db565bc5ddafb5cc6bbcf",
        "4a8d6703a7188420408102aacd7828cb7e145ae638fc0bd9c59757a1a412cb67",
        "4daee2e5fda13fe89c8b6dff0bf555ef9004a487636272efe97146a94c3582aa",
        "531dca70808d993d0edd9d3416ca48bdb34864367d5c541b045abcddafac6b8f",
    ],
    True: [
        "c60f050d80a73221cc846604f9a9adee89ec415f67ea622363495ddb64974bc5",
        "d2aa2cd720927517d674deed9f09b5f9855a4d0d32610eeac46df906a85a8b94",
        "c4f520cefb188ad35d98cc74b2aacac4d6db6cce484068f83472106027eb7077",
        "45951705b244c9cbf7e184483f1d27733239091e63c1ce2cb02e6da9450f5761",
        "2acb67f835f53c4dbb5159e6b952265590d921ac83d0b00b5f6cbd859d92ed78",
        "e0a847cf5f7dddce2a9b3771bf583cb1ff20ccc13453279f20458270bb46bcad",
        "5670a014516a0d195fa015586666e7d6194e75f186de51a7e1be2267908f4561",
        "577ca3159c2179cc651c40118ad769b088da8215cc331af596b4414bf990da14",
    ],
}
PROJECTION = (
    "pk", "lambda", "eta", "source", "destination", "next_hop", "path",
    "acc_trust", "acc_trust_noise_bits", "zeros",
)
SAME_CIPHERTEXTS = {
    False: [
        "04788ebe3fa7f224d3fcaf708eea44280544468a4493d0abca6c0f5075d32d03",
        "09968f69bbfc794701a1415659fcb2b0c6049380d672c1be3bed1e0bb3a78912",
        "69b14294fb2239b7af2cd24face88e0597a6af7483ffa9c9e8e376801c950387",
        "c2fb339aecdfd7e1be6958b47b3830380a0e24debe5623cfada8cc4c426b8568",
        "cbabb2ab05edd74cc11c4d838d274a9dfbc4a287ff1db565bc5ddafb5cc6bbcf",
        "4a8d6703a7188420408102aacd7828cb7e145ae638fc0bd9c59757a1a412cb67",
        "4daee2e5fda13fe89c8b6dff0bf555ef9004a487636272efe97146a94c3582aa",
        "531dca70808d993d0edd9d3416ca48bdb34864367d5c541b045abcddafac6b8f",
    ],
    True: [
        "c60f050d80a73221cc846604f9a9adee89ec415f67ea622363495ddb64974bc5",
        "d2aa2cd720927517d674deed9f09b5f9855a4d0d32610eeac46df906a85a8b94",
        "c4f520cefb188ad35d98cc74b2aacac4d6db6cce484068f83472106027eb7077",
        "45951705b244c9cbf7e184483f1d27733239091e63c1ce2cb02e6da9450f5761",
        "2acb67f835f53c4dbb5159e6b952265590d921ac83d0b00b5f6cbd859d92ed78",
        "e0a847cf5f7dddce2a9b3771bf583cb1ff20ccc13453279f20458270bb46bcad",
        "5670a014516a0d195fa015586666e7d6194e75f186de51a7e1be2267908f4561",
        "577ca3159c2179cc651c40118ad769b088da8215cc331af596b4414bf990da14",
    ],
}
REPLY = {
    False: "00e7aecf2ad9222197e602bb2029d6d7590cad774616cb8824ec27f307f06133",
    True: "7013c06fe12c72196fb8b60bab8d5a3045af95f347becd8676650461b5e9f017",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_rr_to_json_pinned_across_backends(star_mode):
    requests, reply, oracle, outcome, _ = _discover(CHAIN_NODES, star_mode)
    assert outcome.trusted
    assert outcome.path == oracle.path
    assert outcome.trust == oracle.trust == TRUST
    assert [_sha256(obj) for obj in requests] == GOLDEN[star_mode]
    projected = [{k: obj[k] for k in PROJECTION} for obj in requests]
    assert [_sha256(obj) for obj in projected] == SAME_CIPHERTEXTS[star_mode]
    assert _sha256(reply) == REPLY[star_mode]


ROUTE_FIELDS = ("pk", "lambda", "eta", "source", "destination", "next_hop", "path")
ROUTE = {
    False: "c36df70a8c4f509eb6567d0a445d9e54542554d0abaa0cc27ed5a94a9bef179a",
    True: "11d1175db78b46abe109dfb1fb137287abbaa107b1e556024acd95cb97f4a5ab",
}


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_route_and_running_totals_pinned(star_mode):
    # No ciphertext enters this digest: each request's key, parameters,
    # endpoints, next hop and path, and the total its accumulator decrypts to.
    requests, _, _, _, keys = _discover(CHAIN_NODES, star_mode)
    route = [
        {
            **{k: obj[k] for k in ROUTE_FIELDS},
            "total": decrypt_value(keys.sk, rr_from_json(obj).acc_trust),
        }
        for obj in requests
    ]
    assert _sha256(route) == ROUTE[star_mode]
