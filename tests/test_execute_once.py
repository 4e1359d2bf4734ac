"""Execution plans and evidence signer sets are memoized soundly.

`execute` stores each successful plan on the transaction instance, keyed by
the content of its inputs and shared objects. A sequenced unlock stores its
plans on the `UnlockRqt` instance its certificate carries: the no-op keyed
by the listed objects that are not bounded counters, the consolidation by
the counters and their reissued limits, and the gas payment by the gas
object. The key is content because validators can hold different
objects under one version, or reissue a counter at a different limit.
`Evidence.signer_set` stores each signer set on the evidence, keyed by
message and scheme. `UnlockCert.carried_union` stores its sorted union on
the certificate that every validator and the driver share. Every caller
sharing an instance must share the result, and every caller with different
content must get its own.
"""

import pytest

from fastpath.client import UnlockVote, assemble_unlock_cert
from fastpath.crypto import KeyedDigestScheme
from fastpath.types import ErrorCode, IntValue, ProtocolError, TxKind
from fastpath.validator import execute

from tests.conftest import World
from tests.test_validator import make_rqt


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
    assert execute(tx, loaded_for(world, tx)) is first
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
    digests = {p.digest for p in (plain, *plans.values())}
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


def unlock_world():
    w = World()
    w.add_owned("coin", "alice", 100)
    w.add_owned("gas", "alice", 50)
    w.add_owned("gas2", "alice", 50)
    w.add_counter("pool", "alice", "bounded", 100)
    w.add_counter("pool2", "alice", "bounded", 100)
    return w


def unlock(world, states, names, carried=()):
    """Each state's outcome of one sequenced unlock of the named keys, paid
    with gas2, after every state executed the `carried` certificates."""
    for cert in carried:
        for state in states:
            state.process_cert(cert)
    rqt = make_rqt(world, [world.key(n) for n in names], "gas2", "alice", ["alice"])
    votes = [state.process_unlock_rqt(rqt) for state in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    return rqt, [state.process_unlock_cert(ucert) for state in states]


def debit_cert(world, amount=40):
    return world.cert(world.tx(TxKind.DEBIT, ["pool"], "gas", ["alice"],
                               amount=amount))


@pytest.mark.parametrize("branch", ["noop", "consolidate"])
def test_validators_share_unlock_plans(branch):
    world = unlock_world()
    states = world.states()
    carried = [debit_cert(world)] if branch == "consolidate" else []
    _, outcomes = unlock(world, states, ["coin", "pool"], carried)
    assert all(o.status == "executed" for o in outcomes)
    # the consolidation of the pool signs last
    first = outcomes[0].signs[-1].effects
    assert all(o.signs[-1].effects is first for o in outcomes)
    assert first.produced
    paid = states[0].get_object(world.key("gas2", 1))
    for state in states:
        assert all(state.get_object(obj.key) is obj for obj in first.produced)
        assert state.get_object(world.key("gas2", 1)) is paid
    assert paid.contents == IntValue(49)


def test_unlock_plans_follow_content():
    world = unlock_world()
    states = world.states()
    coin_oid = world.key("coin").object_id
    gas_oid = world.key("gas2").object_id
    # v1 holds other contents under the listed version and the gas version;
    # v2 settled a spend the others did not, so it reissues at another limit
    states[1].objects[coin_oid][0] = world.objects["coin"]._replace(
        contents=IntValue(7))
    states[1].objects[gas_oid][0] = world.objects["gas2"]._replace(
        contents=IntValue(20))
    states[2].counters[world.key("pool").object_id].settled[b"d" * 32] = -30
    rqt, outcomes = unlock(world, states, ["coin", "pool"])
    # the no-op releases the coin, then the consolidation reissues the pool
    assert all(len(o.signs) == 2 for o in outcomes)
    noops = [o.signs[0].effects for o in outcomes]
    assert noops[0] is noops[2] is noops[3] is not noops[1]
    assert noops[0].digest != noops[1].digest
    assert noops[1].produced[0].contents == IntValue(7)
    assert noops[0].produced[0].contents == IntValue(100)
    reissues = [o.signs[1].effects for o in outcomes]
    assert reissues[0] is reissues[1] is reissues[3] is not reissues[2]
    assert reissues[0].digest != reissues[2].digest
    assert reissues[2].produced[0].contents.limit == 70
    assert reissues[0].produced[0].contents.limit == 100
    paid = [s.get_object(world.key("gas2", 1)) for s in states]
    assert paid[0] is paid[2] is paid[3] is not paid[1]
    assert paid[1].contents == IntValue(19)
    # a copy of the request is a new instance and starts with no plans
    assert "_plans" in rqt.__dict__
    assert "_plans" not in rqt._replace(evidence=None).__dict__


def recording_states(world):
    """One state per validator, and the kind and fields of each event each
    of them emits."""
    events = [[] for _ in range(world.params.n)]
    states = [world.state(vid, sink=lambda kind, _log=log, **fields:
                          _log.append((kind, fields)))
              for vid, log in enumerate(events)]
    return states, events


def test_shared_consolidation_keeps_the_per_key_event_order():
    world = unlock_world()
    states, events = recording_states(world)
    unlock(world, states, ["pool", "pool2"], [debit_cert(world)])
    pools = {world.key(n).object_id.hex(): n for n in ("pool", "pool2")}
    steps = []
    for kind, fields in events[0]:
        if kind == "consolidate":
            steps.append((kind, pools[fields["counter"]]))
        elif kind == "unlock_db_set" and fields["key"][0] in pools:
            steps.append((kind, pools[fields["key"][0]], fields["state"]))
    assert steps[-4:] == [("consolidate", "pool"),
                          ("unlock_db_set", "pool", "confirmed"),
                          ("consolidate", "pool2"),
                          ("unlock_db_set", "pool2", "confirmed")]


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


def test_carried_union_is_sorted_once_per_certificate(world):
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    certs = sorted((world.cert(world.transfer("coin", "gas", "alice", "bob")),
                    world.cert(world.transfer("bcoin", "bgas", "bob", "alice"))),
                   key=lambda c: c.tx.digest)
    votes = [UnlockVote.make(rqt.digest, carried, v, world.scheme)
             for v, carried in enumerate(([certs[1]], [certs[0]], [], []))]
    ucert = assemble_unlock_cert(votes[:3], rqt, world.params)
    union = ucert.carried_union()
    assert union == tuple(certs)
    assert ucert.carried_union() is union
    assert ucert.__dict__["_carried"] is union
    # a copy with other votes is a new instance and computes its own union
    other = ucert._replace(votes=tuple(votes[1:]))
    assert "_carried" not in other.__dict__
    assert other.carried_union() == (certs[0],)
