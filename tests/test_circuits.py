import collections
import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum, circuits, she
from enctrust.circuits import (
    AND,
    BOUND_OPS,
    XOR,
    Circuit,
    Gate,
    StarCircuit,
    adapt,
    bind_and_continue,
    build_ripple_adder,
    compile_to_star,
    eval_bits,
    eval_plain,
    eval_star,
    gate_wire,
    he_ops,
    input_wire,
    star_circuit_to_json,
    universal,
    update,
)
from enctrust.she import SecurityParams, decrypt_bit, decrypt_value, encrypt_bit, encrypt_value, keygen
from enctrust.sim import required_eta


def make(lam=3, eta=300, seed=0):
    params = SecurityParams.from_lambda(lam, eta=eta)
    rng = random.Random(seed)
    keys = keygen(params, rng)
    return params, keys, rng


def encryptor(keys, params, rng):
    """The flag encryption a hop hands to ``compile_to_star``."""
    return lambda bit: encrypt_bit(keys.pk, bit, params, rng)


def observed(fn, *args):
    """``fn(*args)`` inside ``she.observe``: its result and the count of each op it emitted."""
    ops = collections.Counter()
    with she.observe(lambda op, ct: ops.update((op,))):
        result = fn(*args)
    return result, ops


def random_circuit(rng, num_inputs, max_gates):
    n_gates = rng.randint(1, max_gates)
    gates = []
    for i in range(n_gates):
        ops = []
        for _ in range(2):
            if rng.random() < 0.5 or i == 0:
                ops.append(input_wire(rng.randrange(num_inputs)))
            else:
                ops.append(gate_wire(rng.randrange(i)))
        gates.append(Gate(rng.choice((XOR, AND)), ops[0], ops[1]))
    n_out = rng.randint(1, min(4, n_gates))
    outputs = tuple(gate_wire(rng.randrange(n_gates)) for _ in range(n_out))
    return Circuit(num_inputs=num_inputs, gates=tuple(gates), outputs=outputs)


def test_wire_and_gate_validation():
    with pytest.raises(ValueError):
        circuits.WireRef(kind="NAND")
    with pytest.raises(ValueError):
        circuits.WireRef(kind="CONST")
    with pytest.raises(ValueError):
        Gate("OR", input_wire(0), input_wire(1))


def test_circuit_dag_validation():
    with pytest.raises(ValueError):  # input out of range
        Circuit(1, (Gate(XOR, input_wire(0), input_wire(1)),), (gate_wire(0),))
    with pytest.raises(ValueError):  # gate referencing itself
        Circuit(2, (Gate(XOR, gate_wire(0), input_wire(1)),), (gate_wire(0),))
    with pytest.raises(ValueError):  # forward reference
        Circuit(2, (Gate(XOR, gate_wire(1), input_wire(0)), Gate(AND, input_wire(0), input_wire(1))), (gate_wire(0),))
    with pytest.raises(ValueError):  # output out of range
        Circuit(2, (Gate(XOR, input_wire(0), input_wire(1)),), (gate_wire(1),))


def test_wire_positions_are_derived_not_compared():
    gates = (
        Gate(XOR, input_wire(0), input_wire(1)),
        Gate(AND, gate_wire(0), input_wire(2)),
    )
    first = Circuit(3, gates, (gate_wire(1), input_wire(0)))
    second = Circuit(3, tuple(Gate(g.kind, g.a, g.b) for g in gates), (gate_wire(1), input_wire(0)))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first.steps == ((False, 0, 1), (True, 3, 2))
    assert first.output_positions == (4, 0)
    assert "steps" not in repr(first) and "positions" not in repr(first)
    assert repr(first) == repr(second)
    assert eval_bits(first, (1, 0, 1)) == (1, 1)


def test_adder_structure():
    c4 = build_ripple_adder(4)
    assert c4.num_inputs == 8
    assert len(c4.gates) == 14
    assert (c4.xor_count, c4.and_count) == (9, 5)
    assert len(c4.outputs) == 4
    c1 = build_ripple_adder(1)
    assert (c1.xor_count, c1.and_count) == (1, 0)
    for w in range(2, 9):
        cw = build_ripple_adder(w)
        assert len(cw.gates) == 5 * w - 6
        assert (cw.xor_count, cw.and_count) == (3 * w - 3, 2 * w - 3)
    with pytest.raises(ValueError):
        build_ripple_adder(0)


@pytest.mark.parametrize("width", range(1, 9))
def test_adder_has_no_dead_gates(width):
    # Every gate must lie on a path to an output: the carry out of the top
    # bit is discarded, so no gate may compute it.
    c = build_ripple_adder(width)
    live = set()
    pending = [w.index for w in c.outputs if w.kind == circuits.GATE]
    while pending:
        index = pending.pop()
        if index not in live:
            live.add(index)
            gate = c.gates[index]
            pending.extend(w.index for w in (gate.a, gate.b) if w.kind == circuits.GATE)
    assert live == set(range(len(c.gates)))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_adder_plaintext_semantics_exhaustive(width):
    c = build_ripple_adder(width)
    for a in range(1 << width):
        for b in range(1 << width):
            bits = [(a >> i) & 1 for i in range(width)] + [(b >> i) & 1 for i in range(width)]
            out = eval_bits(c, bits)
            got = sum(v << i for i, v in enumerate(out))
            assert got == (a + b) % (1 << width)


def test_eval_bits_validates_inputs():
    c = build_ripple_adder(2)
    with pytest.raises(ValueError):
        eval_bits(c, [0, 1, 0])
    with pytest.raises(ValueError):
        eval_bits(c, [0, 1, 2, 0])


def test_star_eval_truth_table_and_cost():
    params, keys, rng = make()
    for f in (0, 1):
        for a in (0, 1):
            for b in (0, 1):
                ca = encrypt_bit(keys.pk, a, params, rng)
                cb = encrypt_bit(keys.pk, b, params, rng)
                cf = encrypt_bit(keys.pk, f, params, rng)
                out, ops = observed(universal, *he_ops(keys.pk, params), ca, cb, cf)
                expected = (a & b) if f else (a ^ b)
                assert universal(operator.xor, operator.and_, a, b, f) == expected
                assert decrypt_bit(keys.sk, out) == expected
                assert ops == {"mul": 2, "add": 3}
                # The same gate on noise bounds gives the tracked bound.
                fresh = she.fresh_noise_bits(params)
                assert out.noise_bits == universal(*BOUND_OPS, fresh, fresh, fresh) == fresh + 12


def test_plain_eval_counts_and_semantics_width4():
    params, keys, rng = make()
    c = build_ripple_adder(4)
    for a, b in [(0, 0), (9, 4), (15, 15), (7, 8), (13, 6)]:
        ins = encrypt_value(keys.pk, a, 4, params, rng) + encrypt_value(keys.pk, b, 4, params, rng)
        outs, ops = observed(eval_plain, c, ins, *he_ops(keys.pk, params))
        assert decrypt_value(keys.sk, outs) == (a + b) % 16
        assert ops == {"add": 9, "mul": 5}


def test_eval_arity_errors():
    params, keys, rng = make()
    c = build_ripple_adder(2)
    ins = encrypt_value(keys.pk, 1, 2, params, rng)
    with pytest.raises(ValueError):
        eval_plain(c, ins, *he_ops(keys.pk, params))
    sc = compile_to_star(c, encryptor(keys, params, rng))
    with pytest.raises(ValueError):
        eval_star(sc, ins, *he_ops(keys.pk, params))
    with pytest.raises(ValueError):  # one flag per gate
        StarCircuit(c, sc.flags[:-1])


def test_star_compilation_equivalence_on_adders():
    params, keys, rng = make(seed=1)
    for width in (1, 2, 3, 5, 8):
        c = build_ripple_adder(width)
        sc = compile_to_star(c, encryptor(keys, params, rng))
        ops_ct = he_ops(keys.pk, params)
        for _ in range(6):
            a = rng.randrange(1 << width)
            b = rng.randrange(1 << width)
            ins = encrypt_value(keys.pk, a, width, params, rng) + encrypt_value(
                keys.pk, b, width, params, rng
            )
            plain_out = eval_plain(c, ins, *ops_ct)
            star_out, ops = observed(eval_star, sc, ins, *ops_ct)
            assert decrypt_value(keys.sk, plain_out) == (a + b) % (1 << width)
            assert decrypt_value(keys.sk, star_out) == (a + b) % (1 << width)
            assert ops == {"mul": 2 * len(c.gates), "add": 3 * len(c.gates)}


def test_star_compilation_equivalence_on_random_dags():
    rng = random.Random(99)
    for trial in range(12):
        num_inputs = rng.randint(2, 6)
        c = random_circuit(rng, num_inputs, 40)
        fresh = 5  # lam = 3
        bound_sc = compile_to_star(c, lambda bit: fresh)
        need = max(eval_star(bound_sc, [fresh] * num_inputs, *BOUND_OPS)) + 2
        params, keys, crng = make(eta=max(need, 20), seed=trial)
        bits = [crng.randint(0, 1) for _ in range(num_inputs)]
        expected = eval_bits(c, bits)
        ins = tuple(encrypt_bit(keys.pk, m, params, crng) for m in bits)
        plain_out = eval_plain(c, ins, *he_ops(keys.pk, params))
        sc = compile_to_star(c, encryptor(keys, params, crng))
        star_out = eval_star(sc, ins, *he_ops(keys.pk, params))
        assert tuple(decrypt_bit(keys.sk, ct) for ct in plain_out) == expected
        assert tuple(decrypt_bit(keys.sk, ct) for ct in star_out) == expected


def test_symbolic_noise_matches_actual_eval():
    # Each evaluator run on noise bounds gives exactly the bounds the same
    # evaluator tracks on ciphertexts, on the adder and on random circuits.
    params, keys, rng = make(seed=3)
    fresh = she.fresh_noise_bits(params)
    ops = he_ops(keys.pk, params)
    shapes = random.Random(33)
    circuit_list = [build_ripple_adder(4)]
    circuit_list += [random_circuit(shapes, shapes.randint(2, 6), 30) for _ in range(8)]
    for c in circuit_list:
        ins = tuple(encrypt_bit(keys.pk, rng.randint(0, 1), params, rng) for _ in range(c.num_inputs))
        bounds = [fresh] * c.num_inputs
        plain_out = eval_plain(c, ins, *ops)
        assert tuple(ct.noise_bits for ct in plain_out) == eval_plain(c, bounds, *BOUND_OPS)
        star_out = eval_star(compile_to_star(c, encryptor(keys, params, rng)), ins, *ops)
        bound_sc = compile_to_star(c, lambda bit: fresh)
        assert tuple(ct.noise_bits for ct in star_out) == eval_star(bound_sc, bounds, *BOUND_OPS)


@pytest.mark.parametrize("star_mode", [False, True], ids=["plain", "star"])
def test_planner_bounds_are_the_hops_tracked_bounds(star_mode):
    # update on BOUND_OPS, as required_eta runs it, gives after each of three
    # chained updates exactly the bounds update tracks on ciphertexts, star
    # flags included, and required_eta's answer is their maximum + 2.
    lam, width = 3, 4
    circuit = build_ripple_adder(width)
    eta = required_eta(width, 3, lam, star_mode)
    params, keys, rng = make(lam=lam, eta=eta, seed=10)
    fresh = she.fresh_noise_bits(params)
    acc = encrypt_value(keys.pk, 9, width, params, rng)
    bounds = (fresh,) * width
    total = 9
    for hops, value in enumerate((4, 2, 7), start=1):
        local = encrypt_value(keys.pk, value, width, params, rng)
        encrypt = encryptor(keys, params, rng)
        acc = update(circuit, acc, local, star_mode, encrypt, *he_ops(keys.pk, params))
        bounds = update(
            circuit, bounds, (fresh,) * width, star_mode, lambda bit: fresh, *BOUND_OPS
        )
        total = (total + value) % 16
        assert tuple(ct.noise_bits for ct in acc) == bounds
        assert max(bounds) + 2 == required_eta(width, hops, lam, star_mode)
        assert decrypt_value(keys.sk, acc) == total
    assert all(she.noise_ok(ct, params) for ct in acc)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 5]),
    st.integers(0, 15),
    st.integers(0, 15),
    st.booleans(),
)
def test_update_is_the_same_from_residue_local_bits_and_flags(
    seed, lam, acc_value, trust, star_mode
):
    # (x + pk*Q) mod pk = x mod pk: local bits, flags and zeros built as
    # residues give the same outputs, values and bounds as the full
    # ciphertexts, each built here as the residue plus pk times a drawn Q.
    params, keys, rng = make(lam=lam, seed=seed)
    acc = encrypt_value(keys.pk, acc_value, 4, params, rng)
    ops = he_ops(keys.pk, params)
    residue_local = encrypt_value(keys.pk, trust, 4, params, rng, residue=True)
    residue_flags = []

    def encrypt(bit):
        residue_flags.append(encrypt_bit(keys.pk, bit, params, rng, residue=True))
        return residue_flags[-1]

    residue_outputs = update(build_ripple_adder(4), acc, residue_local, star_mode, encrypt, *ops)
    residue_fresh = residue_local + tuple(residue_flags)

    def full(ct):
        q = bignum.random_bits(params.q_bits, rng)
        return ct._replace(value=ct.value + keys.pk * q)

    full_fresh = tuple(map(full, residue_fresh))
    flags = iter(full_fresh[4:])

    def replay(bit):
        ct = next(flags)
        assert decrypt_bit(keys.sk, ct) == bit
        return ct

    full_outputs = update(build_ripple_adder(4), acc, full_fresh[:4], star_mode, replay, *ops)
    assert next(flags, None) is None
    assert all(ct.value < keys.pk < full_ct.value for ct, full_ct in zip(residue_fresh, full_fresh))
    assert all(she.noise_ok(ct, params) for ct in full_fresh)
    assert tuple(ct._replace(value=ct.value % keys.pk) for ct in full_fresh) == residue_fresh
    assert residue_outputs == full_outputs
    assert decrypt_value(keys.sk, residue_outputs) == (acc_value + trust) % 16


def test_noise_monotone_along_gate_order():
    # Every adder gate lies on a path to an output and no gate's bound is
    # below its operands', so the largest bound among all the ciphertexts the
    # walk produces is an output's.
    params, keys, rng = make(seed=4)
    c = build_ripple_adder(4)
    ins = encrypt_value(keys.pk, 11, 4, params, rng) + encrypt_value(keys.pk, 7, 4, params, rng)
    seen = []
    with she.observe(lambda op, ct: seen.append(ct)):
        outs = eval_plain(c, ins, *he_ops(keys.pk, params))
    assert len(seen) == len(c.gates)
    assert max(ct.noise_bits for ct in seen) == max(ct.noise_bits for ct in outs)


def test_adapt_identity_recovery():
    params, keys, rng = make(seed=5)
    for v in (0, 9, 15):
        cts = encrypt_value(keys.pk, v, 4, params, rng)
        zeros = adapt(4, keys.pk, params, rng)
        assert len(zeros) == 4
        ops = he_ops(keys.pk, params)
        recovered = [universal(*ops, a, b, f) for a, (b, f) in zip(cts, zeros)]
        assert decrypt_value(keys.sk, recovered) == v
        for pair in zeros:
            # Each pair is fresh: two encryptions of 0, neither an accumulator bit.
            assert [decrypt_bit(keys.sk, z) for z in pair] == [0, 0]
            assert not set(pair) & set(cts)


def test_bind_and_continue_arity_mismatch():
    params, keys, rng = make(seed=6)
    sc = compile_to_star(build_ripple_adder(4), encryptor(keys, params, rng))
    ops = he_ops(keys.pk, params)
    four = encrypt_value(keys.pk, 3, 4, params, rng)
    two = encrypt_value(keys.pk, 1, 2, params, rng)
    # An accumulator or a local block too short for the adder's 8 inputs.
    with pytest.raises(ValueError, match="expected 8 inputs, got 6"):
        bind_and_continue(two, four, sc, *ops)
    with pytest.raises(ValueError, match="expected 8 inputs, got 6"):
        bind_and_continue(four, two, sc, *ops)


def test_bind_and_continue_single_hop():
    params, keys, rng = make(seed=7)
    c = build_ripple_adder(4)
    acc = encrypt_value(keys.pk, 9, 4, params, rng)
    local = encrypt_value(keys.pk, 4, 4, params, rng)
    sc = compile_to_star(c, encryptor(keys, params, rng))
    outs, ops = observed(bind_and_continue, acc, local, sc, *he_ops(keys.pk, params))
    assert decrypt_value(keys.sk, outs) == 13
    # Each of the adder's gates fires as one universal gate: 2 muls, 3 adds.
    assert ops == {"mul": 2 * len(c.gates), "add": 3 * len(c.gates)}


def test_bind_and_continue_two_hop_chain():
    # A full chain: the source encrypts its accumulator, and each hop binds
    # its local value after it and evaluates its compiled adder.
    lam = 3
    width = 4
    c = build_ripple_adder(width)
    eta = required_eta(width, 2, lam, star_mode=True)
    assert eta == 523
    params, keys, rng = make(lam=lam, eta=eta, seed=8)
    acc = encrypt_value(keys.pk, 9, width, params, rng)
    total = collections.Counter()
    for local_value in (4, 2):
        local = encrypt_value(keys.pk, local_value, width, params, rng)
        sc = compile_to_star(c, encryptor(keys, params, rng))
        acc, ops = observed(bind_and_continue, acc, local, sc, *he_ops(keys.pk, params))
        total += ops
    final = acc
    assert decrypt_value(keys.sk, final) == (9 + 4 + 2) % 16
    assert all(she.noise_ok(ct, params) for ct in final)
    assert total == {"mul": 2 * 2 * len(c.gates), "add": 2 * 3 * len(c.gates)}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("local_value", [0, 7])
def test_star_update_rerandomizes_every_accumulator_bit(seed, local_value):
    # The adder alone re-randomizes: every output mixes in fresh local bits
    # and flags, so no ciphertext a star hop forwards is one it received,
    # even when it adds 0.  The inputs are residues, as every accumulator
    # after the source's is, so a value match would be a real repeat.
    params, keys, rng = make(eta=required_eta(4, 2, 3, star_mode=True), seed=seed)
    acc = encrypt_value(keys.pk, 11, 4, params, rng, residue=True)
    for hop in range(2):
        local = encrypt_value(keys.pk, local_value, 4, params, rng, residue=True)
        encrypt = functools.partial(encrypt_bit, keys.pk, params=params, rng=rng, residue=True)
        outs = update(build_ripple_adder(4), acc, local, True, encrypt, *he_ops(keys.pk, params))
        assert not {ct.value for ct in outs} & {ct.value for ct in acc}, (seed, hop)
        assert decrypt_value(keys.sk, outs) == (11 + (hop + 1) * local_value) % 16
        acc = outs


def test_star_circuit_json_roundtrip_hides_gate_kinds():
    params, keys, rng = make(seed=9)
    c = build_ripple_adder(4)
    sc = compile_to_star(c, encryptor(keys, params, rng))
    obj = star_circuit_to_json(sc)
    import json

    text = json.dumps(obj)
    assert "XOR" not in text and "AND" not in text
    # What the encoding does carry: each gate's operands and encrypted flag,
    # but no noise bound, which a receiver knows for a fresh flag.
    assert obj["num_inputs"] == 8
    assert all(set(g) == {"a", "b", "flag"} for g in obj["gates"])
    assert obj["gates"][0]["a"] == {"kind": "INPUT", "index": 0}
    assert obj["gates"][0]["b"] == {"kind": "INPUT", "index": 4}
    assert [int(g["flag"], 16) for g in obj["gates"]] == [flag.value for flag in sc.flags]
    assert obj["outputs"] == [{"kind": "GATE", "index": i} for i in (0, 3, 8, 13)]
