"""The scheme's security limits, pinned as measured facts.

README "Limitations" and "Evaluation modes" state them: the public key
decrypts every ciphertext, and an evaluated one reads with no key at all;
a star hop encrypts the gate flags of its own, public adder, so the flags
hide nothing from it; and each attack in
``ATTACKS`` gets the source to report a wrong total as ``trusted``.
"""

import random

import pytest

from enctrust import circuits, sim
from enctrust.circuits import AND, build_ripple_adder
from enctrust.protocol import (
    ForwardUpdated,
    Reply,
    RouteReply,
    process_rr,
    source_finalize,
    source_initiate,
)
from enctrust.she import Ciphertext, SecurityParams, decrypt_bit, decrypt_value, encrypt_value
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
    # A hop reduces every result mod pk, so an updated request's bits are
    # already m + 2r, and their low bits read the total with no key at all.
    # The source's own request is left out: its bits are m + 2r + pk*Q.
    for seed in range(5):
        t = chain_topology(8, seed=seed)
        keys, requests = _certified_requests(t, 0, 7, seed, star_mode)
        assert len(requests) == 6
        for k, rr in enumerate(requests):
            route = rr.path + (rr.next_hop,)
            total = sum(t.trust[arc] for arc in zip(route, route[1:])) % 16
            assert decrypt_value(keys.sk, rr.acc_trust) == total
            assert decrypt_value(keys.pk, rr.acc_trust) == total
            if k:
                low_bits = sum((c.value & 1) << i for i, c in enumerate(rr.acc_trust))
                assert low_bits == total


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


def _reply_edit(edit):
    """A tamper that rewrites the destination's reply: ``edit`` maps its ciphertexts."""

    def tamper(call, rr, decision, rng, oracle_trust):
        if isinstance(decision, Reply):
            reply = decision.reply
            return Reply(RouteReply(reply.path, edit(reply.acc_trust)))
        return decision

    return tamper


def _substitute_fourth_accumulator(call, rr, decision, rng, oracle_trust):
    # The fourth process_rr call, an updating hop on every 12-node chain,
    # forwards an encryption of its own choosing under the public key.
    if call != 4:
        return decision
    assert isinstance(decision, ForwardUpdated)
    acc = encrypt_value(rr.pk, (oracle_trust + 5) % 16, 4, rr.params, rng)
    return ForwardUpdated(decision.rr._replace(acc_trust=acc))


def _honest(call, rr, decision, rng, oracle_trust):
    return decision


# Each attack: chain length, eta (None: the planner's), star mode, the tamper
# applied to each process_rr decision, and the count of wrong-but-trusted
# answers over seeds 0-49, each seeding both chain_topology and the discovery.
ATTACKS = {
    # An undersized eta, with the reply's noise bounds rewritten to 1:
    # source_finalize trusts the bounds the reply carries (ROADMAP item 1).
    # Which undersized decryptions go wrong depends on the noise drawn, so
    # this count moves whenever the hops' draws do.
    "forged reply bounds": (
        20, 30, False, _reply_edit(lambda cts: tuple(Ciphertext(c.value, 1) for c in cts)), 25
    ),
    # Any hop can encrypt under pk; nothing binds the accumulator to the hops.
    "accumulator substitution": (12, None, False, _substitute_fourth_accumulator, 46),
    # source_finalize never compares the ciphertext count with the source's
    # width, so the low two bits come back as the total.
    "reply cut to 2 ciphertexts": (12, None, False, _reply_edit(lambda cts: cts[:2]), 36),
    "honest, plain": (12, None, False, _honest, 0),
    "honest, star": (12, None, True, _honest, 0),
}


@pytest.mark.parametrize("attack", ATTACKS)
def test_wrong_totals_reported_trusted_under_each_attack(attack, monkeypatch):
    n, eta, star_mode, tamper, expected = ATTACKS[attack]
    calls = 0

    def tampered_process_rr(node, rr, rng, star_mode=False):
        nonlocal calls
        calls += 1
        return tamper(calls, rr, process_rr(node, rr, rng, star_mode), rng, oracle.trust)

    # sim.hops looks process_rr up in its module, so the tamper sits between hops.
    monkeypatch.setattr(sim, "process_rr", tampered_process_rr)
    wrong_but_trusted = 0
    for seed in range(50):
        t = chain_topology(n, seed)
        oracle = plaintext_oracle(t, 0, n - 1)
        params = SecurityParams.from_lambda(
            3, eta=eta or required_eta(4, len(oracle.path) - 2, 3, star_mode)
        )
        nodes = build_nodes(t)
        rng = random.Random(seed)
        keys, rr = source_initiate(nodes[0], n - 1, params, rng)
        calls = 0
        *_, (_, _, decision) = hops(nodes, rr, rng, star_mode)
        outcome = source_finalize(keys, decision.reply, params)
        wrong_but_trusted += outcome.trusted and outcome.trust != oracle.trust
    assert wrong_but_trusted == expected
