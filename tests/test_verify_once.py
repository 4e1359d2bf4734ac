"""Verdicts cached on immutable protocol values stay sound.

Signature checks remember their result on the value they checked, keyed by
committee and scheme. A verdict reached under one committee must not leak
to another, a copy with a tampered field must be checked afresh, and the
sequencer must still reject an invalid item whose content it has already
sequenced. A transaction remembers that it is well formed, never that it
is not.
"""

import pathlib

import pytest

from fastpath.sequencer import EndOfEpoch, Sequencer
from fastpath.simnet.runner import Runner
from fastpath.simnet.scenario import Scenario
from fastpath.types import (
    CommitteeParams,
    ErrorCode,
    ProtocolError,
    verify_certificate,
)
from tests.test_sequencer import make_ucert

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
WIDER = CommitteeParams(7, 2)


def tampered(sign):
    copy = sign._replace(signature=bytes(32))
    assert "_verdicts" not in copy.__dict__  # a copy starts unverified
    return copy


def test_certificate_verdict_is_per_committee(world):
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"), [0, 1, 2])
    assert verify_certificate(cert, world.params)
    # three signers are a quorum of n=4 but not of n=7
    assert not verify_certificate(cert, WIDER)
    assert verify_certificate(cert, world.params)


def test_unlock_cert_verdict_is_per_committee(world):
    ucert = make_ucert(world)
    assert ucert.verify(world.params)
    assert not ucert.verify(WIDER)
    assert ucert.verify(world.params)


def test_tampered_copy_of_verified_certificate_is_rejected(world):
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"), [0, 1, 2])
    assert verify_certificate(cert, world.params)
    assert all(s.verify(world.scheme) for s in cert.signs)
    bad = tampered(cert.signs[2])
    assert not bad.verify(world.scheme)
    forged = cert._replace(signs=cert.signs[:2] + (bad,))
    assert "_verdicts" in cert.__dict__ and "_verdicts" not in forged.__dict__
    assert not verify_certificate(forged, world.params)


def test_tampered_copy_of_verified_unlock_cert_is_rejected(world):
    ucert = make_ucert(world)
    assert ucert.verify(world.params)
    bad = tampered(ucert.votes[2])
    assert not bad.verify(world.scheme)
    forged = ucert._replace(votes=ucert.votes[:2] + (bad,))
    assert "_verdicts" in ucert.__dict__ and "_verdicts" not in forged.__dict__
    assert not forged.verify(world.params)


def test_sequencer_validates_duplicates_before_deduplicating(world):
    seq = Sequencer(world.params)
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    assert seq.submit(cert) is not None
    forged = cert._replace(
        signs=cert.signs[:-1] + (tampered(cert.signs[-1]),))
    with pytest.raises(ProtocolError) as err:
        seq.submit(forged)
    assert err.value.code == ErrorCode.INVALID_ITEM

    ucert = make_ucert(world)
    assert seq.submit(ucert) is not None
    with pytest.raises(ProtocolError):
        seq.submit(ucert._replace(
            votes=ucert.votes[:2] + (tampered(ucert.votes[2]),)))
    assert seq.submit(EndOfEpoch(0, 0)).seq == 2  # no forgery took a number


def test_invalid_duplicate_submission_records_seq_rejected(world):
    runner = Runner(Scenario.load(str(SCENARIOS / "swap_deadlock.yaml")))
    assert runner.scenario.params == world.params
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    runner.seq_actor.handle("v0", cert)
    forged = cert._replace(signs=cert.signs[:2])
    runner.seq_actor.handle("v1", forged)
    runner.seq_actor.handle("v2", cert)
    kinds = [(e["actor"], e["kind"]) for e in runner.recorder.events]
    assert kinds == [("seq", "sequenced"), ("seq", "seq_rejected")]
    assert runner.recorder.events[1]["code"] == ErrorCode.INVALID_ITEM.value


def test_transaction_validity_is_stored_per_instance(world):
    tx = world.transfer("coin", "gas", "alice", "bob")
    state = world.state()
    state.process_tx(tx)
    # copies of a transaction that validated start unvalidated
    duplicated = tx._replace(inputs=tx.inputs + tx.inputs[:1])
    gas_outside = tx._replace(inputs=tx.inputs[:1], gas=world.key("gas2"))
    for bad in (duplicated, gas_outside):
        for _ in range(2):  # a failure is not stored: it is raised each time
            with pytest.raises(ProtocolError) as err:
                bad.validate()
            assert err.value.code == ErrorCode.BAD_TRANSACTION
            with pytest.raises(ProtocolError) as err:
                state.process_tx(bad)
            assert err.value.code == ErrorCode.BAD_TRANSACTION
    tx.validate()
