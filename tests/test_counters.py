import pytest
from hypothesis import given, strategies as st

from fastpath.counters import (
    FLAVOR_BOUNDED,
    FLAVOR_GROW,
    FLAVOR_PNSET,
    FLAVOR_USET,
    CounterLocal,
    credit_half,
    initial_budget,
)
from fastpath.types import (
    CommitteeParams,
    CounterDelta,
    ErrorCode,
    ProtocolError,
    TxKind,
)
from fastpath.validator import UNLOCKED

from tests.conftest import World

PARAMS = CommitteeParams(4, 1)


def spender_world(limit=100):
    w = World()
    w.add_counter("pool", "alice", "bounded", limit)
    for i in range(8):
        w.add_owned(f"g{i}", "alice", 30)
    return w


def debit(world, amount, gas):
    return world.tx(TxKind.DEBIT, ["pool"], gas, ["alice"], amount=amount)


def credit(world, amount, gas, signer="bob"):
    return world.tx(TxKind.CREDIT, ["pool"], gas, [signer], amount=amount)


# --- budget arithmetic -------------------------------------------------------

def test_initial_budget_values():
    assert initial_budget(100, PARAMS) == 66
    assert initial_budget(0, PARAMS) == 0
    # 21 * 2 / 3 divides exactly; no flooring on this path
    assert initial_budget(21, PARAMS) == 14
    assert 21 * (PARAMS.f + 1) % (2 * PARAMS.f + 1) == 0
    assert initial_budget(50, CommitteeParams(7, 2)) == 30


def test_credit_half_floor():
    assert credit_half(20) == 10
    assert credit_half(21) == 10
    assert credit_half(1) == 0


def test_debit_within_budget():
    w = spender_world()
    state = w.state()
    sign = state.process_tx(debit(w, 10, "g0"))
    assert sign.verify(w.scheme)
    assert state.counters[w.objects["pool"].key.object_id].budget == 56


def test_debit_beyond_budget_restores_and_rejects():
    w = spender_world(7)  # budget floor(7*2/3) = 4
    state = w.state()
    local = state.counters[w.objects["pool"].key.object_id]
    assert local.budget == 4
    with pytest.raises(ProtocolError) as err:
        state.process_tx(debit(w, 10, "g0"))
    assert err.value.code == ErrorCode.BUDGET_EXHAUSTED
    assert local.budget == 4


def test_a_debit_asked_again_draws_its_budget_once():
    # a driver's resend polls the voters again with the same debit
    w = spender_world()
    state = w.state()
    local = state.counters[w.objects["pool"].key.object_id]
    tx = debit(w, 40, "g0")
    for _ in range(2):
        assert state.process_tx(tx).verify(w.scheme)
        assert local.budget == 26
    with pytest.raises(ProtocolError) as err:
        state.process_tx(debit(w, 40, "g1"))
    assert err.value.code == ErrorCode.BUDGET_EXHAUSTED
    # a reissued counter starts a fresh budget and a fresh record
    local.reissue(PARAMS)
    assert local.budget == 66 and local.drawn == set()


def test_two_debits_of_thirty_against_fifty():
    # oracle: serialize both orders; the atomic subtract forces exactly one
    # rejection either way
    for order in ((30, 30), (30, 30)):
        w = spender_world(75)  # budget 50
        state = w.state()
        first = debit(w, order[0], "g0")
        second = debit(w, order[1], "g1")
        state.process_tx(first)
        with pytest.raises(ProtocolError) as err:
            state.process_tx(second)
        assert err.value.code == ErrorCode.BUDGET_EXHAUSTED
        local = state.counters[w.objects["pool"].key.object_id]
        assert local.budget == 20


def test_credit_needs_no_owner_evidence():
    w = spender_world()
    w.add_owned("bobgas", "bob", 30)
    state = w.state()
    sign = state.process_tx(credit(w, 20, "bobgas", signer="bob"))
    assert sign.verify(w.scheme)


def test_debit_requires_owner_evidence():
    # bob debits alice's pool, signing for his gas alone: refused both when
    # he asks for signatures and as the replacement of an unlock of his gas
    from tests.test_validator import make_rqt
    w = spender_world()
    w.add_owned("bobgas", "bob", 30)
    w.add_owned("bobgas2", "bob", 30)
    state = w.state()
    local = state.counters[w.objects["pool"].key.object_id]
    budget = local.budget
    tx = w.tx(TxKind.DEBIT, ["pool"], "bobgas", ["bob"], amount=5)
    rqt = make_rqt(w, [w.key("bobgas")], "bobgas2", "bob", ["bob"],
                   replacement=tx)
    for door, message in ((state.process_tx, tx),
                          (state.process_unlock_rqt, rqt)):
        with pytest.raises(ProtocolError) as err:
            door(message)
        assert err.value.code == ErrorCode.BAD_EVIDENCE
        assert (local.budget, local.settled) == (budget, {})


def test_credit_cert_releases_half_to_budget():
    w = spender_world()
    w.add_owned("bobgas", "bob", 30)
    state = w.state()
    local = state.counters[w.objects["pool"].key.object_id]
    before = local.budget
    out = state.process_cert(w.cert(credit(w, 20, "bobgas", signer="bob")))
    assert out.status == "executed"
    assert local.budget == before + 10
    # debit certificates leave the budget untouched at execution time
    state2 = w.state()
    local2 = state2.counters[w.objects["pool"].key.object_id]
    state2.process_cert(w.cert(debit(w, 10, "g0")))
    assert local2.budget == initial_budget(100, PARAMS)


def test_cert_over_missing_counter_rejected():
    w = spender_world()
    tx = debit(w, 5, "g0")
    bare = World()
    bare.add_owned("g0", "alice", 30)
    state = bare.state()
    cert = w.cert(tx)
    with pytest.raises(ProtocolError) as err:
        state.process_cert(cert)
    assert err.value.code == ErrorCode.MISSING_OBJECT


def test_grow_counters_are_credit_only():
    w = World()
    w.add_counter("hits", "alice", "grow")
    w.add_owned("g0", "alice", 30)
    state = w.state()
    tx = w.tx(TxKind.DEBIT, ["hits"], "g0", ["alice"], amount=1)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(tx)
    assert err.value.code == ErrorCode.BAD_TRANSACTION


# --- consolidation ------------------------------------------------------------

# (certified transactions, validators that checkpointed them before the
# unlock, reissued limit)
CONSOLIDATIONS = [
    ([(debit, 40, "g0")], [], 60),
    # both carried debits count, each once
    ([(debit, 25, "g0"), (debit, 15, "g3")], [], 60),
    # a carried credit raises the outstanding value
    ([(debit, 40, "g0"), (credit, 10, "bobgas")], [], 70),
    # a debit checkpointed before the unlock is settled once, not carried
    ([(debit, 40, "g0")], [0, 1, 2, 3], 60),
    # carried by the replies of v2 or v3, yet settled once at v0 and v1
    ([(debit, 40, "g0")], [0, 1], 60),
]


def test_consolidation_through_unlock_reissues_counter():
    for certified, checkpointed, limit in CONSOLIDATIONS:
        consolidate_through_unlock(certified, checkpointed, limit)


def consolidate_through_unlock(certified, checkpointed, limit):
    from tests.test_validator import make_rqt
    w = spender_world()
    w.add_owned("bobgas", "bob", 30)
    states = w.states()
    pool_key = w.key("pool")
    certs = [w.cert(make(w, amount, gas)) for make, amount, gas in certified]
    for i, s in enumerate(states):
        for cert in certs:
            s.process_cert(cert)
            if i in checkpointed:
                s.process_checkpoint_cert(cert)
    rqt = make_rqt(w, [pool_key], "g1", "alice", ["alice"])
    # bounded counters always block the fast path at vote time
    votes = [s.process_unlock_rqt(rqt) for s in states]
    for s in states:
        assert s.unlock_db[pool_key] == UNLOCKED
    from fastpath.client import assemble_unlock_cert
    ucert = assemble_unlock_cert(votes, rqt, w.params)
    carried = [] if len(checkpointed) == len(states) else certs
    assert sorted(c.tx.digest for c in ucert.carried_union()) == \
        sorted(c.tx.digest for c in carried)
    for s in states:
        out = s.process_unlock_cert(ucert)
        assert out.status == "executed"
        local = s.counters[pool_key.object_id]
        assert local.limit == limit
        assert local.budget == initial_budget(limit, PARAMS)
        new_obj = s.get_object(w.key("pool", 1))
        assert new_obj.contents.limit == limit
    # transactions against the old counter version are now invalid
    stale = debit(w, 1, "g2")
    with pytest.raises(ProtocolError) as err:
        states[0].process_tx(stale)
    assert err.value.code == ErrorCode.STALE_VERSION


@pytest.mark.parametrize("sequenced", ["carried", "checkpointed"])
def test_a_debit_sequenced_before_its_funding_credit_executes_everywhere(
        sequenced):
    # a counter of 10 has a budget of 6; a credit of 20 releases 10 more,
    # which funds a certified debit of 16 that reaches v0-v2 only. The
    # debit is sequenced first: carried by the unlock, which runs it in
    # digest order, or checkpointed. v3 executes it afresh before the
    # credit is settled, and must still agree with the others
    from tests.test_validator import drive_unlock, make_rqt
    w = spender_world(limit=10)
    w.add_owned("bobgas", "bob", 30)
    states = w.states()
    credit_cert = w.cert(credit(w, 20, "bobgas"))
    debit_cert = next(c for c in (w.cert(debit(w, 16, f"g{i}"))
                                  for i in range(7))
                      if c.tx.digest < credit_cert.tx.digest)
    for s in states:
        s.process_cert(credit_cert)
    for s in states[:3]:
        s.process_cert(debit_cert)
    if sequenced == "checkpointed":
        for s in states:
            s.process_checkpoint_cert(debit_cert)
            s.process_checkpoint_cert(credit_cert)
    pool_key = w.key("pool")
    outs = drive_unlock(w, states, make_rqt(w, [pool_key], "g7", "alice",
                                            ["alice"]))
    assert len({tuple(sign.effects.hexdigest for sign in out.signs)
                for out in outs}) == 1
    assert {s.counters[pool_key.object_id].limit for s in states} == {14}
    assert all(debit_cert.tx.digest in s.executed for s in states)


def unlock_beside_a_carried_debit(amount, owned=False):
    """A certified debit of 40 runs on the fast path everywhere and is not
    yet checkpointed when the counter of 100 is unlocked with a replacement
    debit of `amount`, the unlock also listing an owned coin if `owned`.
    Returns each validator's recorded events, its state, the fast debit,
    the replacement and the unlock outcomes."""
    from tests.test_validator import make_rqt, recorded
    from fastpath.client import assemble_unlock_cert
    w = spender_world()
    w.add_owned("coin", "alice", 10)
    states, events = zip(*(recorded(w, vid) for vid in range(4)))
    fast = w.cert(debit(w, 40, "g0"))
    for s in states:
        s.process_cert(fast)
    replacement = debit(w, amount, "g2")
    keys = [w.key("pool")] + ([w.key("coin")] if owned else [])
    rqt = make_rqt(w, keys, "g1", "alice", ["alice"], replacement=replacement)
    ucert = assemble_unlock_cert([s.process_unlock_rqt(rqt) for s in states],
                                 rqt, w.params)
    assert [c.tx.digest for c in ucert.carried_union()] == [fast.tx.digest]
    outs = [s.process_unlock_cert(ucert) for s in states]
    assert {out.status for out in outs} == {"executed"}
    return events, states, fast, replacement, outs


def test_a_counter_unlock_runs_a_covered_replacement_after_what_it_carried():
    # 100 - 40 leaves 60, which covers the replacement's 50: both run,
    # and the counter is reissued holding 10
    events, states, fast, replacement, outs = unlock_beside_a_carried_debit(50)
    for s, out in zip(states, outs):
        assert [sign.effects.tx_digest for sign in out.signs][:2] == [
            fast.tx.digest, replacement.digest]
        assert replacement.digest in s.executed
        assert s.counters[fast.tx.inputs[0].object_id].limit == 10
    for log in events:
        assert not [f for kind, f in log if kind == "sequenced_exec_failed"]


def test_a_counter_unlock_refuses_an_uncovered_replacement_and_consolidates():
    # 60 is left after the carried 40, so a replacement of 61 fails on
    # every validator; the counter is still reissued, holding 60
    events, states, fast, replacement, outs = unlock_beside_a_carried_debit(61)
    for s, log in zip(states, events):
        assert [(f["tx"], f["via"], f["code"]) for kind, f in log
                if kind == "sequenced_exec_failed"] == [
            (replacement.hexdigest, "unlock",
             ErrorCode.INSUFFICIENT_BALANCE.value)]
        assert replacement.digest not in s.executed
        local = s.counters[fast.tx.inputs[0].object_id]
        assert (local.limit, local.version) == (60, 1)


def test_an_unlock_listing_an_owned_key_drops_its_replacement_when_it_carries():
    # the owned coin keeps the rule that a surfaced certificate displaces
    # the replacement, though 20 is covered
    events, states, fast, replacement, outs = unlock_beside_a_carried_debit(
        20, owned=True)
    for s in states:
        assert fast.tx.digest in s.executed
        assert replacement.digest not in s.executed
        assert s.counters[fast.tx.inputs[0].object_id].limit == 60


# --- certificates riding an unlock request ----------------------------------

def rider_unlock(w, rider):
    """An unlock of the pool paid with g1, with `rider` riding it."""
    from tests.test_validator import make_rqt
    rqt = make_rqt(w, [w.key("pool")], "g1", "alice", ["alice"])
    return rqt._replace(certs=(rider,))


@pytest.mark.parametrize("case", ["too_few_signs", "wrong_epoch",
                                  "unlisted_counter"])
def test_an_unlock_refuses_a_bad_rider_and_locks_nothing(case):
    w = spender_world()
    w.add_counter("other", "alice", "bounded", 100)
    if case == "too_few_signs":
        rider = w.cert(debit(w, 40, "g0"), signers=range(2))
    elif case == "wrong_epoch":
        rider = w.cert(w.tx(TxKind.DEBIT, ["pool"], "g0", ["alice"],
                            epoch=1, amount=40))
    else:
        rider = w.cert(w.tx(TxKind.DEBIT, ["other"], "g0", ["alice"],
                            amount=40))
    s = w.state()
    with pytest.raises(ProtocolError) as err:
        s.process_unlock_rqt(rider_unlock(w, rider))
    assert err.value.code == (ErrorCode.BAD_TRANSACTION
                              if case == "unlisted_counter"
                              else ErrorCode.INVALID_CERTIFICATE)
    assert not s.lock_db and not s.unlock_db
    assert not s.counters[w.key("pool").object_id].seen


def test_a_rider_is_carried_and_executed_once_by_the_sequenced_unlock():
    from tests.test_validator import recorded
    from fastpath.client import assemble_unlock_cert
    w = spender_world()
    states, events = zip(*(recorded(w, vid) for vid in range(4)))
    rider = w.cert(debit(w, 40, "g0"))
    rqt = rider_unlock(w, rider)
    # the rider names the request, but no signature covers it
    bare = rqt._replace(certs=())
    assert rqt.digest != bare.digest
    assert rqt.signing_digest == bare.signing_digest
    votes = [s.process_unlock_rqt(rqt) for s in states]
    assert [[c.tx.digest for c in v.carried] for v in votes] \
        == [[rider.tx.digest]] * 4
    ucert = assemble_unlock_cert(votes, rqt, w.params)
    outs = [s.process_unlock_cert(ucert) for s in states]
    assert [s.process_unlock_cert(ucert) for s in states] == outs
    for s, log, out in zip(states, events, outs):
        assert out.status == "executed"
        assert out.signs[0].effects.tx_digest == rider.tx.digest
        assert [(f["tx"], f["via"]) for kind, f in log
                if kind in ("seq_exec", "fast_exec")
                and f["tx"] == rider.tx.hexdigest] \
            == [(rider.tx.hexdigest, "unlock")]
        local = s.counters[w.key("pool").object_id]
        assert (local.limit, local.version) == (60, 1)
        assert s.latest[w.key("g0").object_id] == 1


# --- replicated data structures -------------------------------------------------

COUNTER = b"\x07" * 32


def test_gcounter_accepts_each_certificate_once():
    local = CounterLocal(flavor=FLAVOR_GROW)
    for tx_digest, amount in ((b"t1", 5), (b"t1", 5), (b"t2", 3)):
        delta = CounterDelta(COUNTER, FLAVOR_GROW, amount)
        assert local.apply(tx_digest, delta) is None
    assert local.snapshot()["value"] == 8


@given(st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=4)),
                max_size=30),
       st.binary(min_size=1, max_size=4))
def test_pnset_membership_law(ops, probe):
    local = CounterLocal(flavor=FLAVOR_PNSET)
    for i, (is_add, item) in enumerate(ops):
        local.apply(bytes([i]), CounterDelta(COUNTER, FLAVOR_PNSET,
                                             1 if is_add else -1, item))
    additions = {item for is_add, item in ops if is_add}
    tombstones = {item for is_add, item in ops if not is_add}
    members = local.snapshot()["members"]
    for item in additions | tombstones | {probe}:
        expected = item in additions and item not in tombstones
        assert (item.hex() in members) == expected
    assert members == sorted(i.hex() for i in additions - tombstones)


@given(st.sampled_from([FLAVOR_GROW, FLAVOR_USET, FLAVOR_PNSET,
                        FLAVOR_BOUNDED]),
       st.integers(-50, 50), st.binary(min_size=1, max_size=4))
def test_unapply_after_apply_restores_a_fresh_replica(flavor, amount, item):
    limit = 100 if flavor == FLAVOR_BOUNDED else 0
    local = CounterLocal(flavor=flavor, limit=limit,
                         budget=initial_budget(limit, PARAMS))
    before = (local.snapshot(), local.budget)
    delta = CounterDelta(COUNTER, flavor, amount, item)
    released = local.apply(b"t1", delta)
    # only a bounded credit releases budget, and a credit of 1 releases 0
    bounded_credit = flavor == FLAVOR_BOUNDED and amount > 0
    assert released == (credit_half(amount) if bounded_credit else None)
    local.unapply(b"t1", delta)
    assert (local.snapshot(), local.budget) == before


def test_counter_local_snapshot_shape():
    local = CounterLocal(flavor="bounded", limit=10, budget=6, version=0)
    local.settled[b"\x01" * 32] = -4
    snap = local.snapshot()
    assert snap["limit"] == 10 and snap["version"] == 0
    assert list(snap["settled"].values()) == [-4]
