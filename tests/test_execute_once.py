"""Execution plans and evidence signer sets are memoized soundly.

`execute` stores each successful plan on the transaction instance, keyed by
the content of its inputs, shared objects and fee; `Evidence.signer_set`
stores each signer set on the evidence, keyed by message and scheme. Every
caller sharing an instance must share the result, and every caller with
different content must get its own.
"""

import pytest

from fastpath.crypto import KeyedDigestScheme
from fastpath.types import ErrorCode, IntValue, ProtocolError, TxKind
from fastpath.validator import execute


def loaded_for(world, tx, **replaced):
    """Inputs of `tx` as the world holds them, with named objects swapped."""
    by_key = {obj.key: obj for obj in world.objects.values()}
    for name, obj in replaced.items():
        by_key[world.key(name)] = obj
    return {k: by_key[k] for k in tx.inputs}


def test_validators_share_one_effect_summary(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    states = world.states()
    for state in states:
        state.process_tx(tx)  # the dry run stores the plan
    outcomes = [state.process_cert(cert) for state in states]
    assert all(o.status == "executed" for o in outcomes)
    first = outcomes[0].signs[0].effects
    assert all(o.signs[0].effects is first for o in outcomes)
    assert execute(tx, loaded_for(world, tx)).effects is first
    assert all(state.get_object(obj.key) is obj
               for state in states for obj in first.produced)


def test_same_key_different_content_gets_its_own_plan(world):
    # the no-commit case: after an undo, a key can hold other content, and
    # validators that executed conflicting transactions disagree on it
    tx = world.transfer("coin", "gas", "alice", "bob")
    coin = world.objects["coin"]
    gas = world.objects["gas"]
    plain = execute(tx, loaded_for(world, tx))
    variants = {
        "contents": loaded_for(world, tx, coin=coin._replace(
            contents=IntValue(7))),
        "owner": loaded_for(world, tx, gas=gas._replace(
            owner=world.objects["bcoin"].owner)),
        "gas": loaded_for(world, tx, gas=gas._replace(
            contents=IntValue(9))),
    }
    plans = {name: execute(tx, loaded) for name, loaded in variants.items()}
    assert plans["contents"].produced[0].contents == IntValue(7)
    assert plans["owner"].produced[-1].owner == world.objects["bcoin"].owner
    assert plans["gas"].produced[-1].contents == IntValue(8)
    digests = {p.effects.digest for p in (plain, *plans.values())}
    assert len(digests) == 4
    # the first content is still served its own plan
    assert execute(tx, loaded_for(world, tx)) is plain
    # a copy of the transaction is a new instance and starts with no plans
    assert "_plans" in tx.__dict__
    assert "_plans" not in tx._replace(evidence=None).__dict__


def test_shared_object_content_is_part_of_the_key(world):
    pool = world.add_shared("pool", 5)
    tx = world.tx(TxKind.NOOP, [], "gas", ["alice"], shared=("pool",))
    loaded = loaded_for(world, tx)
    first = execute(tx, loaded, (pool,))
    other = execute(tx, loaded, (pool._replace(contents=IntValue(6)),))
    assert first.produced[0].contents == IntValue(5)
    assert other.produced[0].contents == IntValue(6)
    assert execute(tx, loaded, (pool,)) is first


def test_failed_execution_raises_every_time_and_stores_nothing(world):
    world.add_owned("empty", "alice", 0)
    tx = world.transfer("coin", "empty", "alice", "bob")
    loaded = loaded_for(world, tx)
    for _ in range(3):
        with pytest.raises(ProtocolError) as err:
            execute(tx, loaded)
        assert err.value.code == ErrorCode.INSUFFICIENT_GAS
    assert not tx.__dict__.get("_plans")


class RejectingScheme(KeyedDigestScheme):
    def verify(self, public_key, message, signature):
        return False


def test_signer_set_is_per_message_and_scheme(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    evidence = tx.evidence
    alice = frozenset({world.account("alice")})
    rejecting = RejectingScheme()
    for _ in range(2):
        assert evidence.signer_set(tx.digest, world.scheme) == alice
        assert evidence.signer_set(b"other message", world.scheme) == frozenset()
        assert evidence.signer_set(tx.digest, rejecting) == frozenset()
