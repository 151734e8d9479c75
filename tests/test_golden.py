"""Fixed-seed outputs of one plain and one star discovery.

Every route request of a discovery over a 10-node chain is serialized with
``rr_to_json``, and its reply with ``rp_to_json``, then hashed (sorted keys,
compact separators):

- ``GOLDEN`` pins the whole request: every ciphertext, noise bound and
  field, so a backend or wire change that alters any of them fails here.
- ``SAME_CIPHERTEXTS`` pins each request projected to ``PROJECTION``: the
  key, parameters, endpoints, path, accumulator with its bounds, and the
  adapter's zeros as one flat list, which is empty since requests stopped
  carrying them.  These digests were computed at the
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

When requests stopped carrying the source's ``circuits.adapt`` zeros, which
no hop read, every ``GOLDEN`` digest was re-pinned in both modes, since each
request lost its ``zeros`` field.  The source still draws the zeros and
discards them, so the rng draws what it drew before and no other ciphertext
moved.  ``SAME_CIPHERTEXTS`` reads a missing ``zeros`` as ``[]``, so requests
1 to 7, which carried none, hold unedited; request 0 was re-pinned after its
digest at the commit before, with its zeros projected as ``[]``, was shown to
equal the new one.  ``REPLY``, ``ROUTE``, ``ROUTE_AT_IDENTITY_GATE_ETA`` and
``REPORT_DIGESTS`` hold unedited.
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
    """``obj[key]``; of the fields requests no longer write, ``source`` is
    ``path[0]`` and ``zeros`` is ``[]``."""
    if key == "source":
        return obj["path"][0]
    return obj.get(key, []) if key == "zeros" else obj[key]


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
        "db5452402498c6d1628ebe0c4b5e71e265b0acefb3052ec09190f6d99dac918b",
        "ff603c85ab694990a3aeb689e5bae95d0e0592078c655430aa70f62ab80fd00c",
        "9cc2c9242eb0994f2ad46d235374da67b11589e1f8ad73ba429789857f8df3fb",
        "9c99e976c7da3453adfeb380fb20f8e34606eb3b87b7f77f0929c214c5f8f84a",
        "9bb012a1e96ff9630a4b90e56ebd0e7a6365751459da0db67f61cbd7f6564aac",
        "12c23077686902a893682c4b15dfafe1367f981bfd29203006b01f1b5ab8701c",
        "fdfce25b16a8af7236b743c858e0f72dda81945ef04df590577fa52505793579",
        "cddeaea3ba7c2085447dafb37b2d15b61cfbcbd2974b8adce702b0010e69977c",
    ],
    True: [
        "4f6772b2041f73ebd269f9f6540ddf03b02789454b423dbf7fbf5fefad8b656c",
        "74647ae72fbdc9022a5b7c5bfc713ef2b017d67de621cf3678381c066a021281",
        "1480450486ae87ce19e6497720a0db3b7624f8099eb9767a8428a9fedcb2abd4",
        "37f2878184aa1d86c8f1d5f821f033b22de31534c1cfeac9b0ff5f88c5623c33",
        "c5beb0491c67f8c76ceb2401ef648930fdcc26025efc699dfa08e9037af46f20",
        "d4dd76e401fa52bdf5c204bf84c28ea8a0d5dddcc994f361d999977fe58aa0a5",
        "19a198b56f4694fa3c5b9a7f1943d49a554a715b6ac5ef28e58bea225c988959",
        "0aa1efbd7a12ab58e156662ae63e95f7d031e9d921a551a20a86232c746cf049",
    ],
}
PROJECTION = (
    "pk", "lambda", "eta", "source", "destination", "next_hop", "path",
    "acc_trust", "acc_trust_noise_bits", "zeros",
)
SAME_CIPHERTEXTS = {
    False: [
        "2124c2f57d99648cad6249f84e1ae9f588b703df3c9cf5dce6934cd01b11ecce",
        "7b2cca537651b5c5ba067697b4642a22378f94b07f4bea381eeecbefc05a172b",
        "6a0036829100bafeb807b90c6b9e3968541453499faeb5c205d146941b9505c6",
        "a67ee10341f4d45d45803936de2d77671dec01676a9fdc557fd12e7fb2caa511",
        "81e29bede9d868f1bb5b765bb9ca7196b6765f592dd5e80d2ac623f0d71ac5d4",
        "50138721f7bc1f94ac3ec26107ef9bb2e8f8e680cac2df3c14a0d78a55bf1cda",
        "07e1290b3c017345eb395ffe7d02b3daf6e4b2eeacf37cd50f98010dbae4301a",
        "84ec5d7bdab94bca7a68f2d5e198b153c8323a29492f3ee910053a480f07ece0",
    ],
    True: [
        "3e86351cdc1c8987b3249da7c9c406cb0fe19d7b96d83fd1525df64c019ba825",
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
