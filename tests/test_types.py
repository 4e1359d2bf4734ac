import itertools

import pytest
from hypothesis import given, strategies as st

from fastpath.crypto import DEFAULT_SCHEME
from fastpath.types import (
    CertSign,
    Certificate,
    CommitteeParams,
    ErrorCode,
    IntValue,
    Object,
    ObjectKey,
    ObjectKind,
    ProtocolError,
    quorum,
    validity_threshold,
    verify_certificate,
)


def test_quorum_examples():
    assert quorum(CommitteeParams(4, 1)) == 3
    assert quorum(CommitteeParams(7, 2)) == 5


def test_malformed_committee_rejected():
    for n, f in ((4, 2), (4, -1)):
        with pytest.raises(ProtocolError) as err:
            CommitteeParams(n, f)
        assert err.value.code == ErrorCode.MALFORMED_COMMITTEE


def test_committee_copy_is_checked():
    # `_replace` builds through `_make`, which goes through the constructor
    with pytest.raises(ProtocolError) as err:
        CommitteeParams(4, 1)._replace(f=3)
    assert err.value.code == ErrorCode.MALFORMED_COMMITTEE
    assert CommitteeParams(4, 1)._replace(n=7) == CommitteeParams(7, 1)
    assert type(CommitteeParams._make([7, 2])) is CommitteeParams


def test_object_key_ids_are_its_trace_form():
    key = ObjectKey(bytes(range(32)), 3)
    assert key.ids == (bytes(range(32)).hex(), 3)
    assert key.ids is key.ids
    assert hash(key) == hash((bytes(range(32)), 3))
    assert key == (bytes(range(32)), 3) and key.bump() == ObjectKey(key[0], 4)


@pytest.mark.parametrize("kind, owner", [
    (ObjectKind.OWNED, None), (ObjectKind.COMMUTATIVE, None),
    (ObjectKind.SHARED, b"o" * 32), (ObjectKind.READ_ONLY, b"o" * 32)])
def test_object_owner_must_match_its_kind(kind, owner):
    with pytest.raises(ValueError):
        Object(ObjectKey(bytes(32), 0), kind, owner, IntValue(1))


def test_validity_threshold_examples():
    assert validity_threshold(CommitteeParams(4, 1)) == 2
    assert validity_threshold(CommitteeParams(7, 2)) == 3
    assert validity_threshold(CommitteeParams(10, 3)) == 4


def test_quorum_intersection_small_committees():
    # any two vote sets of quorum size overlap in at least f+1 members
    for n in range(4, 11):
        for f in range(1, (n - 1) // 3 + 1):
            params = CommitteeParams(n, f)
            q = quorum(params)
            masks = [sum(1 << i for i in combo)
                     for combo in itertools.combinations(range(n), q)]
            worst = min((a & b).bit_count()
                        for a in masks for b in masks)
            assert worst >= f + 1, (n, f, worst)


def test_verify_certificate_quorum(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    assert verify_certificate(world.cert(tx, [0, 1, 2]), world.params)
    assert not verify_certificate(world.cert(tx, [0, 1]), world.params)


def test_verify_certificate_rejects_duplicate_signer(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx, [0, 1, 1])
    assert not verify_certificate(cert, world.params)
    # oracle: among all signer multisets of size 3 over 4 validators,
    # exactly the all-distinct ones verify
    for combo in itertools.product(range(4), repeat=3):
        cert = world.cert(tx, combo)
        assert verify_certificate(cert, world.params) == (len(set(combo)) == 3)


def test_verify_certificate_rejects_garbage_signature(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    good = world.cert(tx, [0, 1, 2])
    bad_sign = CertSign(tx.digest, 2, b"\x00" * 32)
    cert = Certificate(tx, good.signs[:2] + (bad_sign,))
    assert not verify_certificate(cert, world.params)


def test_verify_certificate_rejects_foreign_signer(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx, [0, 1, 7])
    assert not verify_certificate(cert, world.params)


@given(st.permutations([0, 1, 2, 3]))
def test_verify_certificate_order_insensitive(order):
    from tests.conftest import World
    w = World()
    w.add_owned("c", "alice", 5)
    w.add_owned("g", "alice", 5)
    tx = w.transfer("c", "g", "alice", "bob")
    cert = w.cert(tx, list(order)[:3])
    assert verify_certificate(cert, w.params)


def test_transaction_digest_ignores_evidence(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    bare = tx.with_evidence(None)
    assert tx.digest == bare.digest


def test_transaction_validate_requires_gas_among_inputs(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    from fastpath.types import Transaction
    broken = Transaction(tx.inputs[:1], (), tx.kind, tx.params, tx.gas, 0)
    with pytest.raises(ProtocolError) as err:
        broken.validate()
    assert err.value.code == ErrorCode.BAD_TRANSACTION


def test_object_canonical_bytes_distinguish_owner(world):
    coin = world.objects["coin"]
    from fastpath.types import Object
    other = Object(coin.key, coin.kind, world.objects["bcoin"].owner,
                   coin.contents)
    assert coin.canonical_bytes() != other.canonical_bytes()


def test_signature_scheme_round_trip():
    sk, pk = DEFAULT_SCHEME.keypair(b"seed")
    sig = DEFAULT_SCHEME.sign(sk, b"message")
    assert DEFAULT_SCHEME.verify(pk, b"message", sig)
    assert not DEFAULT_SCHEME.verify(pk, b"other", sig)
    assert not DEFAULT_SCHEME.verify(pk, b"message", b"junk")


def test_canonical_encoding_is_pinned():
    # frozen values: any change to the byte layout is a wire break and
    # must be deliberate
    from tests.conftest import World
    import hashlib
    w = World()
    w.add_owned("coin", "alice", 100)
    w.add_owned("gas", "alice", 50)
    tx = w.transfer("coin", "gas", "alice", "bob")
    assert tx.digest.hex() == (
        "d22aaaf324622a9df44463348bb420d00407eece66ae2d8a08e1da74551a17dc")
    body = hashlib.sha256(w.objects["coin"].canonical_bytes()).hexdigest()
    assert body == (
        "82ed7dd6730391b13b6787ef881fc16478b580d8931f6921cdc15ef2ac64512c")


def test_verify_effect_cert_needs_matching_quorum(world):
    from fastpath.types import (EffectCert, EffectSign, EffectSummary,
                                verify_effect_cert)
    from fastpath.crypto import DEFAULT_SCHEME
    tx = world.transfer("coin", "gas", "alice", "bob")
    effects = EffectSummary(tx.digest, tuple(tx.inputs), ())
    signs = tuple(EffectSign.make(effects, v, DEFAULT_SCHEME) for v in range(3))
    assert verify_effect_cert(EffectCert(effects, signs), world.params)
    assert not verify_effect_cert(EffectCert(effects, signs[:2]), world.params)
    other = EffectSummary(tx.digest, (), ())
    mismatched = signs[:2] + (EffectSign.make(other, 3, DEFAULT_SCHEME),)
    assert not verify_effect_cert(EffectCert(effects, mismatched), world.params)


def test_object_key_contract():
    from fastpath.types import ObjectKey
    oid = bytes(range(32))
    key = ObjectKey(oid, 3)
    assert repr(key) == "ObjectKey(00010203..,v3)"
    assert repr((key,)) == "(ObjectKey(00010203..,v3),)"
    # the hash is the one a frozen dataclass over the same fields had, so
    # set and dict iteration orders do not change
    assert hash(key) == hash((oid, 3))
    assert key == ObjectKey(oid, 3)
    assert key != ObjectKey(oid, 4) and key != ObjectKey(bytes(32), 3)
    assert (key.object_id, key.version) == (oid, 3)
    assert key.bump() == ObjectKey(oid, 4) and key.version == 3
    assert key.canonical_bytes() == (
        len(oid).to_bytes(4, "big") + oid + (3).to_bytes(8, "big"))
    assert len({key, ObjectKey(oid, 3), key.bump()}) == 2
