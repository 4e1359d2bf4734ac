import itertools

import pytest

from fastpath.authenticators import (
    LEAF,
    AllOf,
    AllPath,
    AnyOf,
    AnyPath,
    PublicKey,
    Threshold,
    ThresholdPath,
    build_reveal,
)
from fastpath.client import (
    FastPathDriver,
    FastUnlockDriver,
    Outcome,
    Rejection,
    UnlockCert,
    UnlockRqt,
    UnlockVote,
    assemble_unlock_cert,
)
from fastpath.crypto import DEFAULT_SCHEME
from fastpath.types import (
    CertSign,
    EffectCert,
    EffectSign,
    EffectSummary,
    ErrorCode,
    ProtocolError,
    quorum,
    verify_effect_cert,
)


def simple_rqt(world, key_names=("coin",), gas="gas2"):
    keys = tuple(world.key(n) for n in key_names)
    rqt = UnlockRqt(keys, None, world.key(gas), 0, world.account("alice"))
    ev = world.evidence(rqt.signing_digest, ["alice"], sorted(rqt.included_oids))
    return UnlockRqt(keys, None, rqt.gas, 0, world.account("alice"), ev)


def vote(rqt, signer, carried=()):
    return UnlockVote.make(rqt.digest, carried, signer, DEFAULT_SCHEME)


def test_unlock_request_digest_covers_the_chosen_path(world):
    # a transaction digest leaves evidence out, but an unlock request's
    # digest covers it; these requests differ only in the path of one reveal
    a, b, c = (PublicKey(world.account(n)) for n in ("alice", "bob", "carol"))
    term = AnyOf((AllOf((a, b)), Threshold.of(1, (1, a), (1, c))))
    paths = [AnyPath(0, AllPath((LEAF, LEAF))),
             AnyPath(1, ThresholdPath(((0, LEAF),))),
             AnyPath(1, ThresholdPath(((1, LEAF),)))]
    reveal = build_reveal(term, paths[0])
    rqt = simple_rqt(world)
    oid = world.key("coin").object_id
    digests = {rqt._replace(evidence=rqt.evidence._replace(
        reveals=((oid, reveal, path),))).digest for path in paths}
    assert len(digests) == len(paths)


def test_union_of_empty_votes_is_no_commit(world):
    rqt = simple_rqt(world)
    votes = [vote(rqt, v) for v in range(3)]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    assert ucert.carried_union() == ()
    assert ucert.verify(world.params)


def test_single_carried_certificate_survives_union(world):
    rqt = simple_rqt(world)
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    votes = [vote(rqt, 0), vote(rqt, 1, (cert,)), vote(rqt, 2)]
    ucert = assemble_unlock_cert(votes, rqt, world.params)
    assert [c.tx.digest for c in ucert.carried_union()] == [cert.tx.digest]


def test_unlock_effect_certs_name_the_transaction_they_executed(world):
    # a carried certificate's execution is labelled with its transaction;
    # any other execution (here a no-op) is the unlock's own
    rqt = simple_rqt(world)
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    driver = FastUnlockDriver(rqt, world.params)
    env = RecordingEnv()
    driver.start(env)
    for v in range(quorum(world.params)):
        driver.on_message(env, vote(rqt, v, (cert,) if v == 1 else ()))
    assert driver.phase == "sequenced"
    labels = [driver._cert_fields(EffectCert(EffectSummary(d, (), ()), ()))
              for d in (cert.tx.digest, rqt.digest)]
    assert [(f["tx_kind"], f["amount"], f["path"]) for f in labels] == [
        ("transfer", 0, "unlock"), ("unlock", 0, "unlock")]


def test_below_quorum_is_incomplete(world):
    rqt = simple_rqt(world)
    with pytest.raises(ProtocolError) as err:
        assemble_unlock_cert([vote(rqt, 0), vote(rqt, 1)], rqt, world.params)
    assert err.value.code == ErrorCode.INCOMPLETE


def test_votes_over_different_requests_rejected(world):
    rqt = simple_rqt(world)
    other = simple_rqt(world, gas="gas")
    votes = [vote(rqt, 0), vote(rqt, 1), vote(other, 2)]
    with pytest.raises(ProtocolError) as err:
        assemble_unlock_cert(votes, rqt, world.params)
    assert err.value.code == ErrorCode.MIXED_REQUESTS


def test_duplicate_signers_do_not_reach_quorum(world):
    rqt = simple_rqt(world)
    votes = [vote(rqt, 0), vote(rqt, 0), vote(rqt, 1)]
    with pytest.raises(ProtocolError):
        assemble_unlock_cert(votes, rqt, world.params)


def test_assembly_never_fabricates_certificates(world):
    # every carried certificate in the union appeared in some vote
    rqt = simple_rqt(world)
    certs = [world.cert(world.transfer("coin", "gas", "alice", "bob")),
             world.cert(world.transfer("bcoin", "bgas", "bob", "alice"))]
    for carried_sets in itertools.product([(), (certs[0],), (certs[1],),
                                           tuple(certs)], repeat=3):
        votes = [vote(rqt, v, carried) for v, carried in
                 enumerate(carried_sets)]
        ucert = assemble_unlock_cert(votes, rqt, world.params)
        union = {c.tx.digest for c in ucert.carried_union()}
        offered = {c.tx.digest for carried in carried_sets for c in carried}
        assert union == offered


def test_unlock_cert_verify_rejects_bad_vote(world):
    rqt = simple_rqt(world)
    votes = (vote(rqt, 0), vote(rqt, 1),
             UnlockVote(rqt.digest, (), 2, b"\x00" * 32))
    assert not UnlockCert(rqt, votes).verify(world.params)


class RecordingEnv:
    """The simulator as a driver sees it: records emitted event kinds, the
    last record's fields and sequencer submissions, and sends nothing."""

    def __init__(self):
        self.events = []
        self.fields = {}

    def emit(self, kind, **fields):
        self.events.append(kind)
        self.fields = fields

    def send(self, vids, msg):
        pass

    def set_timer(self, token, hops):
        return 0

    def submit_sequencer(self, item):
        self.events.append("submitted")

    def finished(self, driver):
        pass


def test_out_of_range_unlock_votes_are_dropped(world):
    rqt = simple_rqt(world)
    n = world.params.n
    negative = UnlockVote(rqt.digest, (), -1, b"\x00" * 32)
    # a vote signed by index n verifies under the keyed-digest scheme
    assert vote(rqt, n).verify(DEFAULT_SCHEME)
    with pytest.raises(ProtocolError) as err:
        assemble_unlock_cert([vote(rqt, 0), vote(rqt, 1), negative, vote(rqt, n)],
                             rqt, world.params)
    assert err.value.code == ErrorCode.INCOMPLETE

    env = RecordingEnv()
    driver = FastUnlockDriver(rqt, world.params)
    driver.start(env)
    for v in (vote(rqt, 0), negative, vote(rqt, 1), vote(rqt, n)):
        driver.on_message(env, v)
    assert sorted(driver.votes) == [0, 1]
    assert driver.ucert is None and "submitted" not in env.events


def test_a_sequenced_unlock_ends_invalid_on_f_plus_1_refusals(world):
    # v3 refused the request in the vote phase, and v1 refuses it again when
    # asked after sequencing (its epoch moved on): neither refused the
    # sequenced certificate, so only v0's and v2's refusals count
    rqt = simple_rqt(world)
    env = RecordingEnv()
    driver = FastUnlockDriver(rqt, world.params)
    driver.start(env)
    invalid = ErrorCode.INVALID_UNLOCK_CERT.value
    driver.on_message(env, Rejection(rqt.digest, invalid, 3))
    for v in range(quorum(world.params)):
        driver.on_message(env, vote(rqt, v))
    assert driver.phase == "sequenced"
    for reply in (Rejection(rqt.digest, invalid, 0),
                  Rejection(rqt.digest, ErrorCode.WRONG_EPOCH.value, 1),
                  Rejection(rqt.digest, invalid, 0)):
        driver.on_message(env, reply)
    assert driver.phase == "sequenced" and driver.invalid == {0}
    driver.on_message(env, Rejection(rqt.digest, invalid, 2))
    assert driver.status == "invalid" and driver.invalid == {0, 2}
    assert env.events[-1] == "unlock_driver_finished"
    assert env.fields["status"] == "invalid"
    assert env.fields["codes"] == [invalid]


@pytest.mark.parametrize("code", ["AlreadyConfirmed",
                                  ErrorCode.BAD_EVIDENCE.value])
def test_refusals_past_the_spare_end_an_unlock_unauthorized(world, code):
    # two votes, then two refusals: no quorum can vote any more. A refusal
    # never supersedes an unlock, whatever its code says; "AlreadyConfirmed"
    # is the code validators once sent over settled keys
    rqt = simple_rqt(world)
    env = RecordingEnv()
    driver = FastUnlockDriver(rqt, world.params)
    driver.start(env)
    for reply in (vote(rqt, 0), vote(rqt, 1),
                  Rejection(rqt.digest, ErrorCode.BAD_GAS.value, 2)):
        driver.on_message(env, reply)
    assert driver.phase == "vote"
    driver.on_message(env, Rejection(rqt.digest, code, 3))
    assert driver.status == "unauthorized" and driver.confirmed == set()
    assert env.events[-1] == "unlock_driver_finished"
    assert env.fields["codes"] == sorted([ErrorCode.BAD_GAS.value, code])


def test_out_of_range_tx_votes_are_dropped(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    n = world.params.n
    env = RecordingEnv()
    driver = FastPathDriver(tx, world.params)
    driver.start(env)
    votes = (CertSign.make(tx, 0, DEFAULT_SCHEME),
             CertSign(tx.digest, -1, bytes(32)),
             CertSign.make(tx, 1, DEFAULT_SCHEME),
             CertSign.make(tx, n, DEFAULT_SCHEME))
    for v in votes:
        driver.on_message(env, v)
    assert sorted(driver.votes) == [0, 1]
    assert driver.cert is None and driver.phase == "vote"


def effect_sign(effects, signer):
    if signer < 0:
        return EffectSign(effects, signer, b"\x00" * 32)
    return EffectSign.make(effects, signer, DEFAULT_SCHEME)


def test_out_of_range_effect_signs_do_not_finalize(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    n = world.params.n
    env = RecordingEnv()
    driver = FastPathDriver(tx, world.params)
    driver.start(env)
    for vid in range(quorum(world.params)):
        driver.on_message(env, CertSign.make(tx, vid, DEFAULT_SCHEME))
    assert driver.phase == "exec"
    effects = EffectSummary(tx.digest, (), ())
    for signer in (0, -1, 1, n):
        driver.on_message(env, Outcome(tx.digest, "executed", signer,
                                       (effect_sign(effects, signer),)))
    assert driver.phase != "done"
    assert sorted(driver.outcome_groups[((effects.digest,), ())]) == [0, 1]

    rqt = simple_rqt(world)
    unlock = FastUnlockDriver(rqt, world.params)
    unlock.start(env)
    # (message sender, signer of the sign it carries)
    for sender, signer in ((0, 0), (3, -1), (1, 1), (2, n)):
        unlock.on_message(env, Outcome(rqt.digest, "executed", sender,
                                       (effect_sign(effects, signer),)))
    assert unlock.phase != "done"
    assert [sorted(g) for g in unlock.outcome_groups.values()] == [[0, 1]]


def test_outcome_counts_only_its_senders_own_signs(world):
    # three senders relaying validator 0's one sign are one signer, not
    # three, on the fast path and on the unlock path alike
    effects = EffectSummary(b"\x03" * 32, (), ())
    env = RecordingEnv()
    for make_driver in (_exec_driver, _unlock_driver):
        driver = make_driver(world, env)
        for sender in range(quorum(world.params)):
            driver.on_message(env, Outcome(driver.subject, "executed", sender,
                                           (effect_sign(effects, 0),)))
        assert driver.phase != "done"
        assert [sorted(g) for g in driver.outcome_groups.values()] == [[0]]

        for sender in range(1, quorum(world.params)):
            driver.on_message(env, Outcome(driver.subject, "executed", sender,
                                           (effect_sign(effects, sender),)))
        assert driver.status == driver.finalized
        cert, = driver.effect_certs
        assert verify_effect_cert(cert, world.params)


def test_settled_keys_come_only_from_the_quorum_that_finishes(world):
    # v0 names coin as settled, first in a superseded reply and then in an
    # executed one; the others' executed outcomes name nothing. They finish
    # the driver, and coin stays out of `confirmed`, so no single reply can
    # cancel the client's retry
    noop = EffectSummary(b"\x06" * 32, (), ())
    coin = world.key("coin")
    env = RecordingEnv()
    driver = _sequenced_driver(world, env)
    driver.on_message(env, Outcome(driver.subject, "superseded", 0,
                                   confirmed=(coin,)))
    driver.on_message(env, Outcome(driver.subject, "executed", 0,
                                   (effect_sign(noop, 0),), (coin,)))
    for sender in range(1, quorum(world.params) + 1):
        driver.on_message(env, Outcome(driver.subject, "executed", sender,
                                       (effect_sign(noop, sender),)))
    assert driver.status == "unlocked" and driver.confirmed == set()
    assert sorted(driver.outcome_groups[((noop.digest,), ())]) == [1, 2, 3]

    # a quorum naming coin settled does report it
    driver = _sequenced_driver(world, env)
    for sender in range(quorum(world.params)):
        driver.on_message(env, Outcome(driver.subject, "executed", sender,
                                       (effect_sign(noop, sender),), (coin,)))
    assert driver.status == "unlocked" and driver.confirmed == {coin}


def test_outcomes_listing_the_same_effects_in_another_order_do_not_mix(world):
    # validator 0 lists the same two executions in reverse order; the
    # others' outcomes finalize, and each certificate takes matching signs
    first = EffectSummary(b"\x04" * 32, (), ())
    second = EffectSummary(b"\x05" * 32, (), ())
    env = RecordingEnv()
    driver = _unlock_driver(world, env)
    for sender in range(world.params.n):
        signs = (effect_sign(first, sender), effect_sign(second, sender))
        driver.on_message(env, Outcome(driver.subject, "executed", sender,
                                       signs[::-1] if sender == 0 else signs))
    assert driver.status == "unlocked"
    assert [c.effects for c in driver.effect_certs] == [first, second]
    assert all(verify_effect_cert(c, world.params)
               for c in driver.effect_certs)


def _tx_driver(world, env):
    driver = FastPathDriver(world.transfer("coin", "gas", "alice", "bob"),
                            world.params)
    driver.start(env)
    return driver


def _exec_driver(world, env):
    driver = _tx_driver(world, env)
    for vid in range(quorum(world.params)):
        driver.on_message(env, CertSign.make(driver.tx, vid, DEFAULT_SCHEME))
    assert driver.phase == "exec"
    return driver


def _unlock_driver(world, env):
    driver = FastUnlockDriver(simple_rqt(world), world.params)
    driver.start(env)
    return driver


def _sequenced_driver(world, env):
    driver = _unlock_driver(world, env)
    for v in range(quorum(world.params)):
        driver.on_message(env, vote(driver.rqt, v))
    assert driver.phase == "sequenced"
    return driver


# a driver in a phase where the reply can settle it, and that reply as sent
# by a claimed validator index
SENDER_CASES = {
    "tx_locked": (_tx_driver, lambda d, s: Rejection(
        d.tx.digest, ErrorCode.CONFLICTING_LOCK.value, s)),
    "tx_rejected": (_tx_driver, lambda d, s: Rejection(
        d.tx.digest, ErrorCode.BAD_EVIDENCE.value, s)),
    "tx_superseded": (_tx_driver, lambda d, s: Outcome(
        d.tx.digest, "superseded", s)),
    "cert_superseded": (_exec_driver, lambda d, s: Outcome(
        d.tx.digest, "superseded", s)),
    "cert_executed": (_exec_driver, lambda d, s: Outcome(
        d.tx.digest, "executed", s,
        (effect_sign(EffectSummary(d.tx.digest, (), ()), s),))),
    "unlock_refused": (_unlock_driver, lambda d, s: Rejection(
        d.rqt.digest, ErrorCode.BAD_EVIDENCE.value, s)),
    "unlock_ignored": (_unlock_driver, lambda d, s: Outcome(
        d.rqt.digest, "superseded", s)),
    "unlock_cert_invalid": (_sequenced_driver, lambda d, s: Rejection(
        d.rqt.digest, ErrorCode.INVALID_UNLOCK_CERT.value, s)),
    "unlock_executed": (_unlock_driver, lambda d, s: Outcome(
        d.rqt.digest, "executed", s,
        (effect_sign(EffectSummary(b"\x06" * 32, (), ()), s),))),
}


@pytest.mark.parametrize("case", sorted(SENDER_CASES))
def test_out_of_range_senders_do_not_settle_drivers(world, case):
    make_driver, reply = SENDER_CASES[case]
    env = RecordingEnv()
    driver = make_driver(world, env)
    # -1 and n, each twice, then validator 0: one in-range sender only
    for sender in (-1, world.params.n, -1, world.params.n, 0):
        driver.on_message(env, reply(driver, sender))
    assert driver.phase != "done"
