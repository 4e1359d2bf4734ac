import pytest
from hypothesis import given, settings, strategies as st

from fastpath.authenticators import PublicKey, commit
from fastpath.client import UnlockRqt, assemble_unlock_cert
from fastpath.types import (
    GAS_FEE,
    ErrorCode,
    IntValue,
    ObjectKey,
    ProtocolError,
    TxKind,
)
from fastpath.validator import CONFIRMED, UNLOCKED
from tests.conftest import World, oid_of


def make_rqt(world, keys, gas, requester, signers, replacement=None,
             epoch=0, evidence=True):
    rqt = UnlockRqt(tuple(keys), replacement,
                    world.key(gas) if isinstance(gas, str) else gas,
                    epoch, world.account(requester))
    oids = sorted(rqt.included_oids)
    if not evidence:
        oids = [rqt.gas.object_id]
    ev = world.evidence(rqt.signing_digest, signers, oids)
    return UnlockRqt(rqt.object_keys, replacement, rqt.gas, epoch,
                     world.account(requester), ev)


def recorded(world, vid=0):
    """A validator state, and the kind and fields of each event it emits."""
    events = []
    state = world.state(vid, sink=lambda kind, **fields:
                        events.append((kind, fields)))
    return state, events


def drive_unlock(world, states, rqt):
    votes = [s.process_unlock_rqt(rqt) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    return [s.process_unlock_cert(ucert) for s in states]


def settle_coin(world, states):
    """Settle `coin` on every state by a checkpointed transfer to bob."""
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    for state in states:
        state.process_checkpoint_cert(cert)


# --- transaction signing -----------------------------------------------------

def test_sign_fresh_transaction_sets_lock(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    sign = state.process_tx(tx)
    assert sign.verify(world.scheme)
    assert state.lock_db[world.key("coin")].holder == tx.digest
    assert state.lock_db[world.key("gas")].holder == tx.digest


def test_conflicting_transaction_rejected(world):
    state = world.state()
    first = world.transfer("coin", "gas", "alice", "bob")
    second = world.transfer("coin", "gas2", "alice", "bob")
    state.process_tx(first)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(second)
    assert err.value.code == ErrorCode.CONFLICTING_LOCK


def test_resubmission_is_idempotent(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    assert state.process_tx(tx) == state.process_tx(tx)


def test_two_owner_swap_signed_by_both(world):
    state = world.state()
    tx = world.tx(TxKind.SWAP, ["coin", "bcoin"], "gas", ["alice", "bob"])
    assert state.process_tx(tx).verify(world.scheme)


def test_swap_missing_one_signature_rejected(world):
    state = world.state()
    tx = world.tx(TxKind.SWAP, ["coin", "bcoin"], "gas", ["alice"])
    with pytest.raises(ProtocolError) as err:
        state.process_tx(tx)
    assert err.value.code == ErrorCode.BAD_EVIDENCE


def test_wrong_epoch_rejected(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob", epoch=3)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(tx)
    assert err.value.code == ErrorCode.WRONG_EPOCH


def test_missing_and_stale_versions(world):
    state = world.state()
    with pytest.raises(ProtocolError) as err:
        state.process_tx(world.tx(TxKind.NOOP, [world.key("coin", 5)],
                                  "gas", ["alice"]))
    assert err.value.code == ErrorCode.MISSING_OBJECT

    cert = world.cert(world.tx(TxKind.NOOP, ["coin"], "gas", ["alice"]))
    state.process_cert(cert)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(world.transfer("coin", "gas2", "alice", "bob"))
    assert err.value.code == ErrorCode.STALE_VERSION


def test_unlocked_input_blocks_signing(world):
    state = world.state()
    state._set_unlock(world.key("coin"), UNLOCKED)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(world.transfer("coin", "gas", "alice", "bob"))
    assert err.value.code == ErrorCode.OBJECT_UNLOCKED


# --- certificate execution ------------------------------------------------------

def test_fast_execution_bumps_versions(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    out = state.process_cert(world.cert(tx))
    assert out.status == "executed"
    assert state.latest[world.key("coin").object_id] == 1
    assert state.latest[world.key("gas").object_id] == 1
    sign, = out.signs
    produced = {o.key.version for o in sign.effects.produced}
    assert produced == {1}
    # gas paid the flat fee
    gas_obj = state.get_object(world.key("gas", 1))
    assert gas_obj.contents.amount == 49


def test_cert_for_unlocked_key_is_deferred(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    state._set_unlock(world.key("coin"), UNLOCKED)
    out = state.process_cert(world.cert(tx))
    assert out.status == "deferred"
    assert state.latest[world.key("coin").object_id] == 0


def test_cert_with_shared_input_is_deferred(world):
    world.add_shared("board")
    state, events = recorded(world)
    tx = world.tx(TxKind.NOOP, ["coin"], "gas", ["alice"], shared=["board"])
    out = state.process_cert(world.cert(tx))
    assert out.status == "deferred"
    # sequenced delivery then executes it with an assigned shared version
    state.process_checkpoint_cert(world.cert(tx))
    assert [f["via"] for kind, f in events if kind == "seq_exec"] \
        == ["checkpoint"]
    assert state.latest[world.objects["board"].key.object_id] == 1


def test_invalid_certificate_rejected(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    with pytest.raises(ProtocolError) as err:
        state.process_cert(world.cert(tx, [0, 1]))
    assert err.value.code == ErrorCode.INVALID_CERTIFICATE


def test_every_valid_cert_is_forwarded_once(world):
    state, events = recorded(world)
    tx = world.transfer("coin", "gas", "alice", "bob")
    first = state.process_cert(world.cert(tx))
    again = state.process_cert(world.cert(tx))
    assert [kind for kind, _ in events].count("cert_forwarded") == 1
    assert state.pending_checkpoint == {tx.digest: world.cert(tx)}
    assert again.signs == first.signs


# --- unlock votes ------------------------------------------------------------------

def test_unlock_vote_with_no_certificate(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    state.process_tx(tx)  # bare lock only, no certificate
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    vote = state.process_unlock_rqt(rqt)
    assert vote.carried == ()
    assert state.unlock_db[world.key("coin")] == UNLOCKED


def test_unlock_vote_carries_known_certificate(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    state.process_cert(cert)
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    vote = state.process_unlock_rqt(rqt)
    assert [c.tx.digest for c in vote.carried] == [tx.digest]


@pytest.mark.parametrize("replaced", [True, False])
def test_a_vote_that_carries_a_certificate_reserves_by_the_protocol(
        world, replaced):
    # a voter that carries a certificate over `coin` reserves the other
    # listed keys only for an unlock without a replacement (`reserve_all`
    # in `process_unlock_rqt`); left unreserved, `bcoin` still signs there
    world.add_owned("bgas2", "bob", 50)
    state = world.state()
    state.process_cert(world.cert(world.transfer("coin", "gas", "alice",
                                                  "carol")))
    swap = world.tx(TxKind.SWAP, ["coin", "bcoin"], "bgas", ["alice", "bob"])
    rqt = make_rqt(world, [world.key("coin"), world.key("bcoin")], "gas2",
                   "alice", ["alice", "bob"],
                   replacement=swap if replaced else None)
    assert len(state.process_unlock_rqt(rqt).carried) == 1
    later = world.transfer("bcoin", "bgas2", "bob", "carol")
    if replaced:
        assert world.key("bcoin") not in state.unlock_db
        assert state.process_tx(later).verify(world.scheme)
    else:
        assert state.unlock_db[world.key("bcoin")] == UNLOCKED
        with pytest.raises(ProtocolError) as err:
            state.process_tx(later)
        assert err.value.code == ErrorCode.OBJECT_UNLOCKED


def test_unauthorized_unlock_changes_nothing(world):
    world.add_owned("egas", "eve", 50)
    state = world.state()
    rqt = make_rqt(world, [world.key("coin")], "egas", "eve", ["eve"],
                   evidence=False)
    with pytest.raises(ProtocolError) as err:
        state.process_unlock_rqt(rqt)
    assert err.value.code == ErrorCode.BAD_EVIDENCE
    assert world.key("coin") not in state.unlock_db
    assert world.key("egas") not in state.lock_db


@pytest.mark.parametrize("door, kind, inputs, shared, code", [
    # bob's coin named as a shared input
    ("sign", TxKind.NOOP, ["coin"], ["bcoin"], ErrorCode.BAD_TRANSACTION),
    ("replacement", TxKind.NOOP, ["coin"], ["bcoin"],
     ErrorCode.BAD_TRANSACTION),
    ("replacement", TxKind.NOOP, ["coin"], ["ghost"], ErrorCode.MISSING_OBJECT),
    ("replacement", TxKind.NOOP, ["coin", "board"], [],
     ErrorCode.BAD_TRANSACTION),
    # a mint over bob's coin
    ("replacement", TxKind.MINT, [], [], ErrorCode.BAD_TRANSACTION)],
    ids=["owned-shared-sign", "owned-shared", "unheld-shared",
         "shared-among-inputs", "mint-over-held"])
def test_one_admission_rule_for_both_doors(world, door, kind, inputs, shared,
                                           code):
    # alice's transaction is refused when she asks for signatures, and as
    # the replacement of an unlock of her coin, which then reserves nothing
    world.add_shared("board")
    state = world.state()
    world.add_shared("ghost")  # no validator holds it
    tx = world.tx(kind, inputs, "gas", ["alice"], shared=shared,
                  new_object_id=oid_of("bcoin") if kind == TxKind.MINT
                  else None)
    with pytest.raises(ProtocolError) as err:
        if door == "sign":
            state.process_tx(tx)
        else:
            state.process_unlock_rqt(make_rqt(
                world, [world.key("coin")], "gas2", "alice", ["alice"],
                replacement=tx))
    assert err.value.code == code
    assert state.unlock_db == {} and state.lock_db == {}


def test_unlock_gas_is_validated_and_locked(world):
    state = world.state()
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    state.process_unlock_rqt(rqt)
    assert state.lock_db[world.key("gas2")].holder == rqt.digest
    # a second unlock cannot reuse the same gas object
    other = make_rqt(world, [world.key("bcoin")], "gas2", "alice",
                     ["alice", "bob"])
    with pytest.raises(ProtocolError) as err:
        state.process_unlock_rqt(other)
    assert err.value.code == ErrorCode.BAD_GAS


def test_unlock_vote_over_a_confirmed_key_is_cast(world):
    # the vote is cast and locks its gas; the key stays confirmed, and the
    # sequenced step decides whether it supersedes the unlock
    states = world.states()
    coin = world.key("coin")
    drive_unlock(world, states,
                 make_rqt(world, [coin], "gas2", "alice", ["alice"]))
    retry = make_rqt(world, [coin], "gas", "alice", ["alice"])
    assert states[0].process_unlock_rqt(retry).rqt_digest == retry.digest
    assert states[0].unlock_db[coin] == CONFIRMED
    assert states[0].lock_db[world.key("gas")].holder == retry.digest


def test_an_unlock_voted_over_settled_keys_is_superseded_when_sequenced(world):
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    settle_coin(world, states)
    # one key of two settled: the vote is cast over both
    both = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"])
    assert states[0].process_unlock_rqt(both).rqt_digest == both.digest
    # every key settled: voted too, then superseded at the sequenced step,
    # which names the settled keys and pays the gas once
    rqt = make_rqt(world, [coin], "bgas", "alice", ["alice", "bob"])
    ucert = assemble_unlock_cert([s.process_unlock_rqt(rqt) for s in states],
                                 rqt, world.params)
    bgas = world.key("bgas")
    paid = world.objects["bgas"].contents.amount - GAS_FEE
    for state in states:
        out = state.process_unlock_cert(ucert)
        assert (out.status, out.confirmed) == ("superseded", (coin,))
        assert state.process_unlock_cert(ucert) is out
        assert state.latest[bgas.object_id] == 1
        assert state.get_object(world.key("bgas", 1)).contents.amount == paid
        assert state.unlock_db[coin] == CONFIRMED


def assert_released_past_a_failed_replacement(world, states, ucert,
                                              replacement):
    """Each state runs `ucert` once: coin was settled, so the replacement
    cannot run, and the no-op releases bcoin, which a transaction at v1 may
    then spend; the gas is paid once."""
    coin, bcoin = world.key("coin"), world.key("bcoin")
    for state in states:
        out = state.process_unlock_cert(ucert)
        assert (out.status, out.confirmed) == ("executed", (coin,))
        assert replacement.digest not in state.executed
        noop, = out.signs
        assert noop.effects.consumed == (bcoin,)
        assert state.latest[bcoin.object_id] == 1
        assert state.unlock_db[bcoin] == CONFIRMED
        assert state.latest[world.key("gas2").object_id] == 1
    spend = world.tx(TxKind.NOOP, [world.key("bcoin", 1)], "bgas", ["bob"])
    for state in states:
        assert state.process_tx(spend).verify(world.scheme)


def test_a_replacement_voted_over_a_settled_key_releases_the_rest(world):
    # the replacement spends coin, settled before the votes: each validator
    # votes, and at the sequenced step the replacement fails, the no-op
    # releases bcoin and the unlock pays its gas
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    settle_coin(world, states)
    replacement = world.tx(TxKind.SWAP, ["coin", "bcoin"], "bgas",
                           ["alice", "bob"])
    rqt = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"],
                   replacement=replacement)
    ucert = assemble_unlock_cert([s.process_unlock_rqt(rqt) for s in states],
                                 rqt, world.params)
    assert_released_past_a_failed_replacement(world, states, ucert,
                                              replacement)


# --- sequenced unlock certificates ---------------------------------------------------

def test_no_commit_unlock_executes_version_bump(world):
    states = world.states()
    coin = world.key("coin")
    before = states[0].get_object(coin)
    rqt = make_rqt(world, [coin], "gas2", "alice", ["alice"])
    outs = drive_unlock(world, states, rqt)
    for state, out in zip(states, outs):
        assert out.status == "executed"
        after = state.get_object(ObjectKey(coin.object_id, 1))
        assert after.contents == before.contents
        assert state.latest[coin.object_id] == 1
        assert state.unlock_db[coin] == CONFIRMED
        # unlock gas consumed exactly once
        assert state.latest[world.key("gas2").object_id] == 1


def test_unlock_with_certificate_executes_it(world):
    states = world.states()
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    states[0].process_cert(cert)  # only one validator saw the certificate
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    outs = drive_unlock(world, states, rqt)
    for state, out in zip(states, outs):
        assert out.status == "executed"
        assert tx.digest in state.executed
        coin_new = state.get_object(world.key("coin", 1))
        assert coin_new.owner == commit(PublicKey(world.account("bob")))


def test_second_unlock_cert_is_ignored(world):
    states = world.states()
    coin = world.key("coin")
    rqt = make_rqt(world, [coin], "gas2", "alice", ["alice"])
    rqt2 = make_rqt(world, [coin], "gas", "alice", ["alice"])
    votes = [s.process_unlock_rqt(rqt) for s in states]
    votes2 = [s.process_unlock_rqt(rqt2) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    ucert2 = assemble_unlock_cert(votes2, rqt2, world.params)
    first = states[0].process_unlock_cert(ucert)
    assert first.status == "executed"
    replay = states[0].process_unlock_cert(ucert)
    assert replay == first  # stored outcome, no double execution
    second = states[0].process_unlock_cert(ucert2)
    assert second.status == "superseded"
    assert second.confirmed == (coin,)
    assert states[0].latest[coin.object_id] == 1  # exactly one bump


def test_undo_single_layer_then_noop(world):
    states = world.states()
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    # validator 0 executed on the fast path; the quorum votes show no cert
    states[0].process_cert(cert)
    assert states[0].latest[world.key("coin").object_id] == 1
    rqt = make_rqt(world, [world.key("coin"), world.key("gas")], "gas2",
                   "alice", ["alice"])
    votes = [s.process_unlock_rqt(rqt) for s in states[1:]]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    out = states[0].process_unlock_cert(ucert)
    assert out.status == "executed"
    # the provisional execution was rolled back, then replaced by the no-op
    assert tx.digest not in states[0].executed
    coin_new = states[0].get_object(world.key("coin", 1))
    assert coin_new.owner == world.objects["coin"].owner
    assert coin_new.contents == IntValue(100)
    assert states[0].get_object(world.key("gas", 1)).contents == IntValue(50)


def test_no_commit_unlock_takes_back_a_fast_path_mint(world):
    # Validator 0 alone ran a mint on the fast path; the quorum that votes
    # the unlock of its gas saw no certificate. Taking the mint back leaves
    # no version of the minted id, so the id leaves validator 0's store, and
    # all four end with the same objects and latest versions, as the
    # convergence checker compares them.
    states = world.states()
    fresh = oid_of("fresh")
    mint = world.tx(TxKind.MINT, [], "gas", ["alice"], new_object_id=fresh,
                    amount=7)
    states[0].process_cert(world.cert(mint))
    assert states[0].latest[fresh] == 0
    rqt = make_rqt(world, [world.key("gas")], "gas2", "alice", ["alice"])
    votes = [s.process_unlock_rqt(rqt) for s in states[1:]]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    assert ucert.carried_union() == ()
    for state in states:
        assert state.process_unlock_cert(ucert).status == "executed"
    assert mint.digest not in states[0].executed
    assert fresh not in states[0].objects and fresh not in states[0].latest
    views = [(s.snapshot()["objects"], s.snapshot()["latest"]) for s in states]
    assert all(view == views[0] for view in views)


def test_replacement_transaction_runs_only_without_certificates(world):
    states = world.states()
    replacement = world.transfer("coin", "gas", "alice", "bob")
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"],
                   replacement=replacement)
    outs = drive_unlock(world, states, rqt)
    for state, out in zip(states, outs):
        assert out.status == "executed"
        assert replacement.digest in state.executed
        assert state.unlock_db[world.key("coin")] == CONFIRMED


def test_replacement_displaced_by_carried_certificate(world):
    states = world.states()
    original = world.transfer("coin", "gas", "alice", "carol")
    states[0].process_cert(world.cert(original))
    replacement = world.transfer("coin", "gas2", "alice", "bob")
    rqt = make_rqt(world, [world.key("coin")], "bgas", "bob",
                   ["alice", "bob"], replacement=replacement)
    outs = drive_unlock(world, states, rqt)
    for state, out in zip(states, outs):
        assert original.digest in state.executed
        assert replacement.digest not in state.executed


def test_invalid_unlock_cert_rejected_without_gas_consumption(world):
    states = world.states()
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    votes = [s.process_unlock_rqt(rqt) for s in states[:2]]
    from fastpath.client import UnlockCert
    weak = UnlockCert(rqt, tuple(votes))
    before = states[3].latest[world.key("gas2").object_id]
    with pytest.raises(ProtocolError) as err:
        states[3].process_unlock_cert(weak)
    assert err.value.code == ErrorCode.INVALID_UNLOCK_CERT
    assert states[3].latest[world.key("gas2").object_id] == before


# --- checkpointed certificates -------------------------------------------------------

def test_checkpoint_after_fast_execution_is_idempotent(world):
    state, events = recorded(world)
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    state.process_cert(cert)
    snapshot = state.snapshot()
    state.process_checkpoint_cert(cert)
    assert [f["via"] for kind, f in events if kind == "seq_exec"] \
        == ["checkpoint_ack"]
    assert state.snapshot()["objects"] == snapshot["objects"]
    assert state.unlock_db[world.key("coin")] == CONFIRMED


def test_checkpoint_skipped_after_conflicting_unlock(world):
    state, events = recorded(world)
    states = [state, *(world.state(vid) for vid in range(1, world.params.n))]
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    rqt = make_rqt(world, [world.key("coin"), world.key("gas")], "gas2",
                   "alice", ["alice"])
    drive_unlock(world, states, rqt)
    state.process_checkpoint_cert(cert)
    assert [f["reason"] for kind, f in events if kind == "checkpoint_skip"] \
        == ["confirmed"]
    assert tx.digest not in states[0].executed


def test_unlock_after_checkpoint_is_ignored_but_pays_gas(world):
    states = world.states()
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    rqt = make_rqt(world, [world.key("coin")], "gas2", "alice", ["alice"])
    votes = [s.process_unlock_rqt(rqt) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    for state in states:
        state.process_checkpoint_cert(cert)
    for state in states:
        out = state.process_unlock_cert(ucert)
        assert out.status == "superseded"
        assert state.latest[world.key("gas2").object_id] == 1


def test_unlock_with_some_keys_settled_releases_the_rest(world):
    # the other side won coin; the unlock still pays its gas and releases
    # bcoin by a no-op over bcoin alone, and its outcome names coin
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    rqt = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"])
    votes = [s.process_unlock_rqt(rqt) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    settle_coin(world, states)
    for state in states:
        out = state.process_unlock_cert(ucert)
        assert (out.status, out.confirmed) == ("executed", (coin,))
        noop, = out.signs
        assert noop.effects.consumed == (bcoin,)
        assert [o.key for o in noop.effects.produced] == [world.key("bcoin", 1)]
        assert state.latest[world.key("gas2").object_id] == 1
        assert state.unlock_db[bcoin] == CONFIRMED
        # coin stays at the transfer's version, owned by bob
        assert state.latest[coin.object_id] == 1
        assert state.get_object(world.key("coin", 1)).owner \
            == commit(PublicKey(world.account("bob")))


def test_unlock_with_every_key_settled_is_superseded(world):
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    rqt = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"])
    votes = [s.process_unlock_rqt(rqt) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    settle_coin(world, states)
    bcert = world.cert(world.tx(TxKind.NOOP, ["bcoin"], "bgas", ["bob"]))
    for state in states:
        state.process_checkpoint_cert(bcert)
        out = state.process_unlock_cert(ucert)
        assert (out.status, out.confirmed) == ("superseded", (coin, bcoin))
        assert state.latest[world.key("gas2").object_id] == 1
        assert state.latest[bcoin.object_id] == 1  # the checkpoint's bump only


def test_replacement_unlock_with_one_settled_key_releases_the_rest(world):
    # the replacement spends coin too, so it cannot run once coin is settled;
    # the unlock is not superseded, since bcoin is not settled
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    replacement = world.tx(TxKind.SWAP, ["coin", "bcoin"], "bgas",
                           ["alice", "bob"])
    rqt = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"],
                   replacement=replacement)
    votes = [s.process_unlock_rqt(rqt) for s in states]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    settle_coin(world, states)
    assert_released_past_a_failed_replacement(world, states, ucert,
                                              replacement)


def test_a_listed_key_the_replacement_skips_is_released_by_the_noop(world):
    # the replacement spends coin alone; bcoin, listed too, is released by
    # the no-op rather than confirmed at v0, and a spend of it signs
    states = world.states()
    coin, bcoin = world.key("coin"), world.key("bcoin")
    replacement = world.transfer("coin", "gas", "alice", "bob")
    rqt = make_rqt(world, [coin, bcoin], "gas2", "alice", ["alice", "bob"],
                   replacement=replacement)
    for out, state in zip(drive_unlock(world, states, rqt), states):
        assert (out.status, out.confirmed) == ("executed", ())
        assert [s.effects.consumed for s in out.signs] \
            == [replacement.inputs, (bcoin,)]
        assert state.latest[coin.object_id] == state.latest[bcoin.object_id] \
            == 1
        assert state.unlock_db[bcoin] == CONFIRMED
    spend = world.tx(TxKind.NOOP, [world.key("bcoin", 1)], "bgas", ["bob"])
    for state in states:
        assert state.process_tx(spend).verify(world.scheme)


def test_a_carried_debit_over_a_reissued_counter_is_not_run(world):
    # a consolidation reissues the counter; a debit certificate of its old
    # version, which then locks its gas, rides the gas's unlock. It can no
    # longer run, so it counts as not carried, and the no-op releases the
    # gas at its next version, where a new debit signs
    world.add_counter("pool", "alice", "bounded", 100)
    states = world.states()
    pool, gas = world.key("pool"), world.key("gas")
    cert = world.cert(world.tx(TxKind.DEBIT, ["pool"], "gas", ["alice"],
                               amount=10))
    drive_unlock(world, states, make_rqt(world, [pool], "gas2", "alice",
                                         ["alice"]))
    for state in states:
        assert state.process_cert(cert).status == "superseded"
    rqt = make_rqt(world, [gas], world.key("gas2", 1), "alice", ["alice"])
    ucert = assemble_unlock_cert([s.process_unlock_rqt(rqt) for s in states],
                                 rqt, world.params)
    assert [c.tx.digest for c in ucert.carried_union()] == [cert.tx.digest]
    for state in states:
        assert state.process_unlock_cert(ucert).status == "executed"
        assert cert.tx.digest not in state.executed
        assert state.unlock_db[gas] == CONFIRMED
        assert state.latest[gas.object_id] == 1
    spend = world.tx(TxKind.DEBIT, [world.key("pool", 1)], world.key("gas", 1),
                     ["alice"], amount=10)
    for state in states:
        assert state.process_tx(spend).verify(world.scheme)


def _stranding_world() -> World:
    """Alice's coins k0-k2, a settling gas for each, the unlock's gas, and a
    replacement gas that can pay (rich) and one that cannot (poor)."""
    world = World()
    for i in range(3):
        world.add_owned(f"k{i}", "alice", 10)
        world.add_owned(f"s{i}", "alice", 50)
    for name, amount in (("ug", 50), ("rich", 50), ("poor", 0)):
        world.add_owned(name, "alice", amount)
    return world


STRANDING_WORLD = _stranding_world()


@st.composite
def stranding_unlocks(draw):
    """Listed keys, a settled subset that is not all of them, and no
    replacement or a transfer of some listed keys paid by `rich` or `poor`."""
    listed = draw(st.lists(st.sampled_from(["k0", "k1", "k2"]), min_size=1,
                           unique=True))
    settled = draw(st.lists(st.sampled_from(listed), max_size=len(listed) - 1,
                            unique=True))
    spent = draw(st.none() | st.lists(st.sampled_from(listed), min_size=1,
                                      unique=True))
    return listed, settled, spent, draw(st.sampled_from(["rich", "poor"]))


@settings(max_examples=30, deadline=None)
@given(stranding_unlocks())
def test_an_unlock_that_carries_nothing_strands_no_unsettled_key(drawn):
    # whatever the replacement does, every listed key consensus had not
    # settled leaves its listed version, and none stays unlocked
    listed, settled, spent, gas = drawn
    world = STRANDING_WORLD
    states = world.states()
    bob = commit(PublicKey(world.account("bob")))
    replacement = None if spent is None else world.tx(
        TxKind.TRANSFER, spent, gas, ["alice"], new_owner=bob)
    rqt = make_rqt(world, [world.key(n) for n in listed], "ug", "alice",
                   ["alice"], replacement=replacement)
    ucert = assemble_unlock_cert([s.process_unlock_rqt(rqt) for s in states],
                                 rqt, world.params)
    for name in settled:
        cert = world.cert(world.tx(TxKind.NOOP, [name], "s" + name[1],
                                   ["alice"]))
        for state in states:
            state.process_checkpoint_cert(cert)
    for state in states:
        assert state.process_unlock_cert(ucert).status == "executed"
        for key in (world.key(n) for n in listed if n not in settled):
            assert state.unlock_db.get(key) != UNLOCKED
            assert state.latest[key.object_id] > key.version


# --- auto unlock -----------------------------------------------------------------------

def test_auto_unlock_delay(world):
    world.add_owned("egas", "eve", 50)
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    state.clock = 10
    state.process_tx(tx)
    rqt = make_rqt(world, [world.key("coin")], "egas", "eve", ["eve"],
                   evidence=False)
    assert not state.check_auto_unlock(rqt, now=50, delta=100)
    assert state.check_auto_unlock(rqt, now=120, delta=100)
    authorized = make_rqt(world, [world.key("coin")], "gas2", "alice",
                          ["alice"])
    assert state.check_auto_unlock(authorized, now=11, delta=100)


def test_lock_age_survives_certificate_replacement(world):
    world.add_owned("egas", "eve", 50)
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    state.clock = 10
    state.process_tx(tx)
    state.clock = 60
    state.process_cert(world.cert(tx))
    assert state.lock_db[world.key("coin")].cert is not None
    rqt = make_rqt(world, [world.key("coin")], "egas", "eve", ["eve"],
                   evidence=False)
    # the lock's age counts from signing (10), not from the certificate (60)
    assert not state.check_auto_unlock(rqt, now=105, delta=100)
    assert state.check_auto_unlock(rqt, now=115, delta=100)


def test_auto_unlock_of_never_locked_key_rejected(world):
    world.add_owned("egas", "eve", 50)
    state = world.state()
    rqt = make_rqt(world, [world.key("coin")], "egas", "eve", ["eve"],
                   evidence=False)
    assert not state.check_auto_unlock(rqt, now=10 ** 9, delta=1)


def test_auto_unlock_accepted_after_delay(world):
    world.add_owned("egas", "eve", 50)
    state = world.state(auto_unlock_delay=100)
    state.clock = 10
    state.process_tx(world.transfer("coin", "gas", "alice", "bob"))
    rqt = make_rqt(world, [world.key("coin")], "egas", "eve", ["eve"],
                   evidence=False)
    state.clock = 120
    vote = state.process_unlock_rqt(rqt)
    assert vote.carried == ()


def test_an_unlock_without_evidence_is_refused_for_its_gas(world):
    # The delay lets a request through that proves no consent for its keys,
    # but its gas still needs its owner's: with no evidence at all, the
    # request is refused even past the delay, and no key is unlocked.
    world.add_owned("egas", "eve", 50)
    state = world.state(auto_unlock_delay=100)
    state.clock = 10
    state.process_tx(world.transfer("coin", "gas", "alice", "bob"))
    bare = UnlockRqt((world.key("coin"),), None, world.key("egas"), 0,
                     world.account("eve"))
    assert bare.evidence is None
    state.clock = 120
    assert state.check_auto_unlock(bare, now=120, delta=100)
    with pytest.raises(ProtocolError, match="no gas owner consent") as err:
        state.process_unlock_rqt(bare)
    assert err.value.code == ErrorCode.BAD_GAS
    assert state.unlock_db == {} and world.key("egas") not in state.lock_db


# --- execution semantics ----------------------------------------------------------------

def test_noop_preserves_contents(world):
    state = world.state()
    tx = world.tx(TxKind.NOOP, ["coin"], "gas", ["alice"])
    out = state.process_cert(world.cert(tx))
    coin = state.get_object(world.key("coin", 1))
    assert coin.contents == IntValue(100)


def test_swap_exchanges_owners(world):
    state = world.state()
    tx = world.tx(TxKind.SWAP, ["coin", "bcoin"], "gas", ["alice", "bob"])
    state.process_cert(world.cert(tx))
    coin = state.get_object(world.key("coin", 1))
    bcoin = state.get_object(world.key("bcoin", 1))
    assert coin.owner == world.objects["bcoin"].owner
    assert bcoin.owner == world.objects["coin"].owner


def test_debit_below_zero_rejected(world):
    world.add_owned("small", "alice", 7)
    state = world.state()
    tx = world.tx(TxKind.DEBIT, ["small"], "gas", ["alice"], amount=10)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(tx)
    assert err.value.code == ErrorCode.INSUFFICIENT_BALANCE


def test_mint_creates_version_zero(world):
    state = world.state()
    tx = world.tx(TxKind.MINT, [], "gas", ["alice"],
                  new_object_id=oid_of("fresh"), amount=5,
                  new_owner=commit(PublicKey(world.account("bob"))))
    state.process_cert(world.cert(tx))
    minted = state.get_object(ObjectKey(oid_of("fresh"), 0))
    assert minted.contents == IntValue(5)


def test_gas_exhaustion(world):
    world.add_owned("fumes", "alice", 0)
    state = world.state()
    tx = world.tx(TxKind.NOOP, ["coin"], "fumes", ["alice"])
    with pytest.raises(ProtocolError) as err:
        state.process_tx(tx)
    assert err.value.code == ErrorCode.INSUFFICIENT_GAS


def test_read_only_objects_never_change(world):
    world.add_read_only("constants")
    state = world.state()
    tx = world.tx(TxKind.NOOP, ["constants", "coin"], "gas", ["alice"])
    state.process_cert(world.cert(tx))
    assert state.latest[world.objects["constants"].key.object_id] == 0


# --- epoch change ------------------------------------------------------------------------

def test_epoch_advance_needs_quorum(world):
    state = world.state()
    state.process_tx(world.transfer("coin", "gas", "alice", "bob"))
    state.begin_epoch_change()
    assert state.paused
    state.note_end_of_epoch(0, 0)
    state.note_end_of_epoch(1, 0)
    assert state.epoch == 0  # two markers are below the quorum of three
    state.note_end_of_epoch(2, 0)
    assert state.epoch == 1
    assert not state.lock_db and not state.paused


def test_old_epoch_transaction_rejected_after_advance(world):
    state = world.state()
    old = world.transfer("coin", "gas", "alice", "bob", epoch=0)
    state.begin_epoch_change()
    for vid in range(3):
        state.note_end_of_epoch(vid, 0)
    with pytest.raises(ProtocolError) as err:
        state.process_tx(old)
    assert err.value.code == ErrorCode.WRONG_EPOCH


def test_pending_certs_surface_at_epoch_change(world):
    state = world.state()
    tx = world.transfer("coin", "gas", "alice", "bob")
    cert = world.cert(tx)
    state.process_cert(cert)
    pending = state.begin_epoch_change()
    assert [c.tx.digest for c in pending] == [tx.digest]
    assert not state.end_of_epoch_ready()  # executed cert not yet sequenced
    state.process_checkpoint_cert(cert)
    assert state.end_of_epoch_ready()
