"""The scheme's security limits, pinned as measured facts.

README "Limitations" and "Evaluation modes" state both: the public key
decrypts every ciphertext, and a star hop encrypts the gate flags of its
own, public adder, so the flags hide nothing from it.
"""

import random

import pytest

from enctrust import circuits
from enctrust.circuits import AND, build_ripple_adder
from enctrust.protocol import Reply, source_initiate
from enctrust.she import Ciphertext, SecurityParams, decrypt_bit, decrypt_value
from enctrust.sim import (
    RunConfig,
    build_nodes,
    chain_topology,
    hops,
    plaintext_oracle,
    required_eta,
    run_discovery,
)


def _certified_requests(t, source, destination, seed, star_mode):
    """The keys and every route request of a certified (planner-sized) discovery."""
    oracle = plaintext_oracle(t, source, destination)
    eta = required_eta(4, len(oracle.path) - 2, 3, star_mode)
    params = SecurityParams.from_lambda(3, eta=eta)
    nodes = build_nodes(t)
    rng = random.Random(seed)
    keys, rr = source_initiate(nodes[source], destination, params, rng)
    walk = list(hops(nodes, rr, rng, star_mode))
    assert isinstance(walk[-1][2], Reply), walk[-1][2]
    # Each request once: a forward-unchanged hop hands on the one it received.
    return keys, list(dict.fromkeys(r for _, r, _ in walk))


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_public_key_decrypts_every_running_total(star_mode):
    # pk = sk * q0 exactly, so c mod pk is the noise m + 2r itself whenever
    # the noise is below sk: (c mod pk) mod 2 decrypts without the secret.
    for seed in range(5):
        t = chain_topology(8, seed=seed)
        keys, requests = _certified_requests(t, 0, 7, seed, star_mode)
        assert len(requests) == 6
        for rr in requests:
            route = rr.path + (rr.next_hop,)
            total = sum(t.trust[arc] for arc in zip(route, route[1:])) % 16
            assert decrypt_value(keys.sk, rr.acc_trust) == total
            assert decrypt_value(keys.pk, rr.acc_trust) == total


def test_star_hop_encrypts_the_flags_of_its_own_public_adder(monkeypatch, made_keys):
    compiled = []
    real_compile = circuits.compile_to_star

    def recording_compile(circuit, encrypt):
        star = real_compile(circuit, encrypt)
        # The planner compiles the same adder with noise bounds for flags;
        # only the hops' compiles carry ciphertexts.
        if all(isinstance(flag, Ciphertext) for flag in star.flags):
            compiled.append((circuit, star))
        return star

    monkeypatch.setattr(circuits, "compile_to_star", recording_compile)
    report = run_discovery(chain_topology(8, seed=0), 0, 7, RunConfig(lam=3, seed=0, star_mode=True))
    assert report.trusted
    assert len(compiled) == len(report.per_node_stats) == 5
    for circuit, star in compiled:
        # The hop compiles the adder every node builds from the width alone,
        # so it knows each flag's plaintext before it encrypts it.
        assert circuit is build_ripple_adder(4)
        flags = [decrypt_bit(made_keys[0].sk, flag) for flag in star.flags]
        assert flags == [int(gate.kind == AND) for gate in circuit.gates]
