import dataclasses
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enctrust import bignum
from enctrust.circuits import BOUND_OPS, NOISE_CEILING, TOO_DEEP, required_eta
from enctrust.she import (
    MAX_PK_BITS,
    Ciphertext,
    SecurityParams,
    decrypt_bit,
    decrypt_value,
    encrypt_bit,
    encrypt_value,
    he_add,
    he_mul,
    keygen,
    noise_ok,
    observe,
)


def make(lam=3, eta=None, seed=0):
    params = SecurityParams.from_lambda(lam, eta=eta)
    rng = random.Random(seed)
    keys = keygen(params, rng)
    return params, keys, rng


def test_schedule_follows_lambda():
    p = SecurityParams.from_lambda(3)
    assert (p.pk_bits, p.r_bits, p.q_bits, p.eta) == (27, 3, 9, 9)
    assert p.fresh_ct_bits == 27 + 9 + 2
    assert p.fresh_ct_bits <= 3**5


def test_schedule_computes_its_widths_once_and_holds_two_fields():
    p = SecurityParams(lam=4, eta=30)
    assert [f.name for f in dataclasses.fields(p)] == ["lam", "eta"]
    assert (p.pk_bits, p.fresh_ct_bits) == (64, 82)
    # Stored on the instance; equality, hashing and the repr read the two
    # fields alone.
    assert vars(p) == {
        "lam": 4, "eta": 30, "r_bits": 4, "q_bits": 16, "pk_bits": 64, "fresh_ct_bits": 82,
        "fresh_noise_bits": 6,
    }
    fresh = SecurityParams(lam=4, eta=30)
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == "SecurityParams(lam=4, eta=30)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.eta = 31


def test_schedule_widens_pk_for_large_eta():
    p = SecurityParams.from_lambda(3, eta=100)
    assert p.eta == 100
    assert p.pk_bits == 103
    assert p.pk_bits - p.eta >= 2


def test_params_validation():
    with pytest.raises(ValueError):
        SecurityParams.from_lambda(1)
    with pytest.raises(ValueError):
        SecurityParams.from_lambda(3, eta=4)  # below lam + 2


def test_params_refuse_a_key_wider_than_the_limit():
    # Such a key used to reach keygen and end in an OverflowError from
    # getrandbits; now the schedule names the limit.
    assert NOISE_CEILING == MAX_PK_BITS // 2
    for lam, eta in [(100_000, None), (3, 3_000_000_000), (3, MAX_PK_BITS - 2), (323, None)]:
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_PK_BITS} bits"):
            SecurityParams.from_lambda(lam, eta)
    assert SecurityParams.from_lambda(3, MAX_PK_BITS - 3).pk_bits == MAX_PK_BITS
    # The planner asks for its own lam's schedule, so it refuses the same lams.
    with pytest.raises(ValueError, match="exceeds the limit"):
        required_eta(4, 1, 100_000)
    # Every eta the planner certifies builds, up to the widest lam that fits:
    # the deepest star chain below the ceiling, and the ceiling itself.
    deepest = required_eta(4, 51, 3, star_mode=True)
    assert deepest != TOO_DEEP and required_eta(4, 52, 3, star_mode=True) == TOO_DEEP
    assert 322**3 <= MAX_PK_BITS < 323**3
    for lam in (2, 3, 10, 322):
        for eta in (deepest, NOISE_CEILING + 2, required_eta(4, 17, lam)):
            assert SecurityParams.from_lambda(lam, eta).eta == eta


@pytest.mark.parametrize(
    "make",
    [
        lambda: SecurityParams.from_lambda(5, 60.0),
        lambda: SecurityParams.from_lambda(3.0),
        lambda: SecurityParams.from_lambda(True, 60),
        lambda: SecurityParams.from_lambda(5, True),
        lambda: SecurityParams.from_lambda(lam=5, eta=60.0),
        lambda: SecurityParams.from_lambda(5, eta=False),
        lambda: SecurityParams(lam=5, eta=60.0),
        lambda: SecurityParams(lam=True, eta=60),
    ],
)
def test_params_refuse_non_int_sizes(make):
    # Only an exact int sizes a key: a float eta used to pass here and fail
    # in keygen with TypeError, and a bool is no size.
    SecurityParams.from_lambda(5, 60)
    SecurityParams.from_lambda(3)
    with pytest.raises(ValueError, match="lam and eta must be integers"):
        make()


def test_params_are_lam_and_eta_alone():
    # The wire carries only lambda and eta, so no other width may be set
    # apart from them: every hop rebuilds the same params from those two.
    assert [f.name for f in dataclasses.fields(SecurityParams)] == ["lam", "eta"]
    assert SecurityParams(lam=3, eta=40) == SecurityParams.from_lambda(3, eta=40)


def test_from_lambda_builds_each_schedule_once():
    SecurityParams.from_lambda.cache_clear()
    p = SecurityParams.from_lambda(5, 60)
    assert SecurityParams.from_lambda(5, 60) is p
    assert SecurityParams.from_lambda(5, 61) == SecurityParams(lam=5, eta=61)
    # A call that raises caches nothing.
    before = SecurityParams.from_lambda.cache_info().currsize
    with pytest.raises(ValueError):
        SecurityParams.from_lambda(5, 6)
    assert SecurityParams.from_lambda.cache_info().currsize == before


def test_ciphertext_is_an_immutable_tuple():
    ct = Ciphertext(12, 5)
    assert ct == Ciphertext(value=12, noise_bits=5) == (12, 5)
    assert (ct.value, ct.noise_bits) == (12, 5)
    assert hash(ct) == hash(Ciphertext(12, 5))
    assert not hasattr(ct, "__dict__")
    with pytest.raises(AttributeError):
        ct.value = 13
    with pytest.raises(AttributeError):
        ct.noise_bits = 6
    # The constructor checks nothing; noise_ok judges the bound.
    assert Ciphertext(12, -1) == ct._replace(noise_bits=-1) == (12, -1)


@pytest.mark.parametrize("lam", [3, 5])
def test_producers_build_exact_ciphertexts_and_report_them(lam):
    # encrypt_bit, he_add and he_mul build with tuple.__new__: each result
    # must still be exactly a Ciphertext equal to the constructor's, and be
    # the very object the installed sink received.
    params, keys, rng = make(lam=lam, eta=4 * lam * lam, seed=lam)
    pk = keys.pk
    seen = []
    with observe(lambda op, ct: seen.append((op, ct))):
        made = [
            ("encrypt", encrypt_bit(pk, m, params, rng, residue=r))
            for r in (False, True)
            for m in (0, 1)
        ]
        full, residue = made[1][1], made[3][1]
        made += [
            ("add", he_add(full, residue, pk, params)),
            ("mul", he_mul(full, residue, pk, params)),
            ("add", he_add(residue, residue, pk, params)),
            ("mul", he_mul(full, full, pk, params)),
        ]
    assert len(seen) == len(made)
    for (op, ct), (seen_op, seen_ct) in zip(made, seen):
        assert type(ct) is Ciphertext
        assert ct == Ciphertext(ct.value, ct.noise_bits)
        assert type(ct.value) is int and type(ct.noise_bits) is int
        assert (seen_op, seen_ct) == (op, ct) and seen_ct is ct


def test_keygen_invariants():
    for lam in (2, 3, 5):
        params, keys, _ = make(lam=lam, seed=11)
        assert keys.sk % 2 == 1
        assert keys.sk.bit_length() == params.eta
        assert keys.q0 % 2 == 1
        assert keys.pk == keys.sk * keys.q0
        assert keys.pk.bit_length() == params.pk_bits
        assert keys.pk % 2 == 1


def test_keygen_narrow_q0_terminates():
    # At lam 2, pk is only two bits above eta, which leaves a single odd q0
    # candidate (3); the secret key must be resampled until the product lands
    # on pk_bits.
    params = SecurityParams.from_lambda(2, eta=40)
    assert params.pk_bits == 42
    keys = keygen(params, random.Random(9))
    assert keys.pk.bit_length() == 42


def test_encrypt_bit_exact_form_with_forced_randomness():
    # Replay the rng from a saved state: encrypt_bit draws r, then Q, and a
    # residue draws r alone.
    params, keys, rng = make(lam=3, seed=2)
    replay = random.Random()
    for residue in (False, True):
        for m in (0, 1):
            replay.setstate(rng.getstate())
            ct = encrypt_bit(keys.pk, m, params, rng, residue=residue)
            value = m + 2 * bignum.random_bits(params.r_bits, replay)
            if not residue:
                value += keys.pk * bignum.random_bits(params.q_bits, replay)
            assert ct.value == value
            assert rng.getstate() == replay.getstate()


def test_encrypt_rejects_non_bits():
    # Exactly the ints 0 and 1: a float bit used to become a float
    # ciphertext that decrypt_bit then refused with TypeError.
    params, keys, rng = make()
    for m in (2, -1, 1.0, 0.0, True, False, "1"):
        for residue in (False, True):
            with pytest.raises(ValueError, match="plaintext bit must be the int 0 or 1"):
                encrypt_bit(keys.pk, m, params, rng, residue=residue)
    for v in (5.0, 0.0, True, False, "5"):
        with pytest.raises(ValueError, match="plaintext value must be an int"):
            encrypt_value(keys.pk, v, 4, params, rng)


@pytest.mark.parametrize("lam", [2, 3, 5])
def test_roundtrip_both_bits(lam):
    params, keys, rng = make(lam=lam, seed=3)
    for m in (0, 1):
        for _ in range(200):
            assert decrypt_bit(keys.sk, encrypt_bit(keys.pk, m, params, rng)) == m


def test_fresh_noise_bound():
    params, keys, rng = make(lam=5)
    ct = encrypt_bit(keys.pk, 1, params, rng)
    assert ct.noise_bits == 5 + 2
    assert noise_ok(ct, params)


def test_homomorphic_xor_and_and():
    params, keys, rng = make(lam=3, eta=30, seed=4)
    for a in (0, 1):
        for b in (0, 1):
            ca = encrypt_bit(keys.pk, a, params, rng)
            cb = encrypt_bit(keys.pk, b, params, rng)
            assert decrypt_bit(keys.sk, he_add(ca, cb, keys.pk, params)) == a ^ b
            assert decrypt_bit(keys.sk, he_mul(ca, cb, keys.pk, params)) == a & b


def test_noise_tracking_rules():
    params, keys, rng = make(lam=3, eta=60)
    c1 = encrypt_bit(keys.pk, 1, params, rng)
    c2 = encrypt_bit(keys.pk, 0, params, rng)
    s = he_add(c1, c2, keys.pk, params)
    assert s.noise_bits == max(c1.noise_bits, c2.noise_bits) + 1
    p = he_mul(c1, c2, keys.pk, params)
    assert p.noise_bits == c1.noise_bits + c2.noise_bits
    deep = he_mul(p, s, keys.pk, params)
    assert deep.noise_bits == p.noise_bits + s.noise_bits


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 30), st.integers(min_value=0, max_value=1 << 30))
def test_he_op_bounds_are_the_noise_rules(n1, n2):
    # he_add and he_mul compute their bounds in place; the planner's
    # BOUND_OPS are the same rules, so the two copies must agree.
    params = SecurityParams.from_lambda(3)
    c1, c2 = Ciphertext(value=5, noise_bits=n1), Ciphertext(value=6, noise_bits=n2)
    add_rule, mul_rule = BOUND_OPS
    assert he_add(c1, c2, 7, params) == (11 % 7, add_rule(n1, n2))
    assert he_mul(c1, c2, 7, params) == (30 % 7, mul_rule(n1, n2))


def test_noise_ok_boundary():
    params = SecurityParams.from_lambda(3, eta=10)
    assert noise_ok(Ciphertext(1, 9), params)
    assert not noise_ok(Ciphertext(1, 10), params)
    widest = (1 << params.fresh_ct_bits) - 1
    assert noise_ok(Ciphertext(widest, 9), params)
    assert not noise_ok(Ciphertext(widest + 1, 9), params)
    # No noise rule yields a negative bound, so one was never checked.
    assert noise_ok(Ciphertext(1, 0), params)
    assert not noise_ok(Ciphertext(1, -1), params)


def test_reduction_mod_pk_is_decryption_neutral():
    params, keys, rng = make(lam=3, eta=40, seed=77)
    pk, sk = keys.pk, keys.sk
    for a in (0, 1):
        for b in (0, 1):
            ca = encrypt_bit(pk, a, params, rng)
            cb = encrypt_bit(pk, b, params, rng)
            raw_sum = ca.value + cb.value
            raw_prod = ca.value * cb.value
            s = he_add(ca, cb, pk, params)
            p = he_mul(ca, cb, pk, params)
            out = he_mul(s, ca, pk, params)
            raw_out = raw_sum * ca.value
            expected = ((s, raw_sum, a ^ b), (p, raw_prod, a & b), (out, raw_out, (a ^ b) & a))
            for ct, raw, bit in expected:
                assert ct.value < pk
                assert ct.value % pk == raw % pk
                assert decrypt_bit(sk, ct) == (raw % sk) % 2 == bit
            assert s.noise_bits == max(ca.noise_bits, cb.noise_bits) + 1
            assert p.noise_bits == ca.noise_bits + cb.noise_bits
            assert out.noise_bits == s.noise_bits + ca.noise_bits


def test_ciphertext_arithmetic_goes_through_bignum(monkeypatch):
    params, keys, rng = make(lam=3, seed=12)
    calls = {"mul": 0, "mod": 0}
    mul, mod = bignum.mul, bignum.mod

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counting_mod(a, m):
        calls["mod"] += 1
        return mod(a, m)

    monkeypatch.setattr(bignum, "mul", counting_mul)
    monkeypatch.setattr(bignum, "mod", counting_mod)

    def counted(fn, *args):
        calls.update(mul=0, mod=0)
        result = fn(*args)
        return result, dict(calls)

    c1, n = counted(encrypt_bit, keys.pk, 1, params, rng)
    assert n == {"mul": 1, "mod": 0}
    c2, _ = counted(encrypt_bit, keys.pk, 0, params, rng)
    _, n = counted(he_add, c1, c2, keys.pk, params)
    assert n == {"mul": 0, "mod": 1}
    # he_mul reduces only the product.
    _, n = counted(he_mul, c1, c2, keys.pk, params)
    assert n == {"mul": 1, "mod": 1}
    _, n = counted(decrypt_bit, keys.sk, c1)
    assert n == {"mul": 0, "mod": 1}


@pytest.mark.parametrize("lam", [3, 10])
def test_he_mul_is_the_product_mod_pk(lam):
    params, keys, rng = make(lam=lam, seed=13)
    pk = keys.pk
    fresh = [encrypt_bit(pk, m, params, rng) for m in (0, 1, 1, 0)]
    evaluated = [he_add(fresh[0], fresh[1], pk, params), he_mul(fresh[1], fresh[2], pk, params)]
    assert all(ct.value > pk for ct in fresh) and all(ct.value < pk for ct in evaluated)
    pairs = {
        "fresh x fresh": (fresh[2], fresh[3]),
        "fresh x evaluated": (fresh[3], evaluated[0]),
        "evaluated x fresh": (evaluated[1], fresh[0]),
        "evaluated x evaluated": (evaluated[0], evaluated[1]),
    }
    for name, (c1, c2) in pairs.items():
        assert he_mul(c1, c2, pk, params).value == (c1.value * c2.value) % pk, name


def test_true_noise_never_exceeds_tracked_bound():
    params, keys, rng = make(lam=3, eta=80, seed=5)
    produced = []
    with observe(lambda op, ct: produced.append(ct)):
        pool = [encrypt_bit(keys.pk, rng.randint(0, 1), params, rng) for _ in range(8)]
        for _ in range(60):
            a, b = rng.sample(range(len(pool)), 2)
            op = he_mul if rng.random() < 0.4 else he_add
            ct = op(pool[a], pool[b], keys.pk, params)
            if ct.noise_bits <= params.eta - 1:
                pool[rng.randrange(len(pool))] = ct
    assert produced
    for ct in produced:
        residue = ct.value % keys.sk
        assert residue.bit_length() <= ct.noise_bits


def test_observe_nests_and_restores_previous():
    # Inside an outer block, each event reaches the inner sink, then the outer.
    log = []
    with observe(lambda op, ct: log.append(("outer", op))):
        params, keys, rng = make(lam=2)
        a = encrypt_bit(keys.pk, 1, params, rng)
        with observe(lambda op, ct: log.append(("inner", op))):
            b = encrypt_bit(keys.pk, 0, params, rng)
            he_mul(a, b, keys.pk, params)
        he_add(a, b, keys.pk, params)
    assert log == [
        ("outer", "encrypt"),
        ("inner", "encrypt"),
        ("outer", "encrypt"),
        ("inner", "mul"),
        ("outer", "mul"),
        ("outer", "add"),
    ]
    encrypt_bit(keys.pk, 1, params, rng)
    assert len(log) == 6  # sink uninstalled


def test_sink_sees_only_its_own_context():
    # Thread A holds a sink open while thread B, which installed none,
    # encrypts and multiplies; none of B's ciphertexts reach A's sink.
    params, keys, _ = make(lam=3, seed=3)
    seen_by_a = []
    made_by_b = []
    a_inside, b_done = threading.Event(), threading.Event()
    errors = []

    def thread_a():
        try:
            rng = random.Random(1)
            with observe(lambda op, ct: seen_by_a.append((op, ct))):
                encrypt_bit(keys.pk, 1, params, rng)
                a_inside.set()
                assert b_done.wait(timeout=30)
                encrypt_bit(keys.pk, 0, params, rng)
        except BaseException as exc:
            errors.append(exc)
            a_inside.set()

    def thread_b():
        try:
            assert a_inside.wait(timeout=30)
            rng = random.Random(2)
            c1 = encrypt_bit(keys.pk, 1, params, rng)
            c2 = encrypt_bit(keys.pk, 1, params, rng)
            made_by_b.extend([c1, c2, he_mul(c1, c2, keys.pk, params)])
        except BaseException as exc:
            errors.append(exc)
        finally:
            b_done.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(made_by_b) == 3
    assert [op for op, _ in seen_by_a] == ["encrypt", "encrypt"]
    assert not {id(ct) for _, ct in seen_by_a} & {id(ct) for ct in made_by_b}


def test_encrypt_value_roundtrip_and_bounds():
    params, keys, rng = make(lam=3, seed=6)
    for v in range(16):
        cts = encrypt_value(keys.pk, v, 4, params, rng)
        assert len(cts) == 4
        assert decrypt_value(keys.sk, cts) == v
    with pytest.raises(ValueError):
        encrypt_value(keys.pk, 16, 4, params, rng)
    with pytest.raises(ValueError):
        encrypt_value(keys.pk, -1, 4, params, rng)
    with pytest.raises(ValueError):
        encrypt_value(keys.pk, 0, 0, params, rng)
    assert decrypt_value(keys.sk, ()) == 0


def test_encryption_is_deterministic_per_seed():
    a = make(lam=3, seed=42)
    b = make(lam=3, seed=42)
    ca = encrypt_bit(a[1].pk, 1, a[0], a[2])
    cb = encrypt_bit(b[1].pk, 1, b[0], b[2])
    assert ca == cb


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_bitwise_xor_homomorphism_on_bytes(x, y):
    params, keys, rng = make(lam=3, eta=20, seed=8)
    cx = encrypt_value(keys.pk, x, 8, params, rng)
    cy = encrypt_value(keys.pk, y, 8, params, rng)
    xored = tuple(he_add(a, b, keys.pk, params) for a, b in zip(cx, cy))
    assert decrypt_value(keys.sk, xored) == x ^ y
