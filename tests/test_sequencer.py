import pytest

from fastpath.client import UnlockCert, UnlockRqt, UnlockVote
from fastpath.crypto import DEFAULT_SCHEME
from fastpath.sequencer import EndOfEpoch, Sequencer
from fastpath.types import ErrorCode, ProtocolError


def make_ucert(world):
    rqt = UnlockRqt((world.key("coin"),), None, world.key("gas2"), 0,
                    world.account("alice"))
    ev = world.evidence(rqt.signing_digest, ["alice"],
                        sorted({world.key("coin").object_id,
                                world.key("gas2").object_id}))
    rqt = UnlockRqt(rqt.object_keys, None, rqt.gas, 0,
                    world.account("alice"), ev)
    votes = tuple(UnlockVote.make(rqt.digest, (), v, DEFAULT_SCHEME)
                  for v in range(3))
    return UnlockCert(rqt, votes)


def test_duplicate_submission_sequenced_once(world):
    seq = Sequencer(world.params)
    cert = world.cert(world.transfer("coin", "gas", "alice", "bob"))
    first = seq.submit(cert)
    dup = seq.submit(cert)
    assert first.seq == 0
    assert dup is None
    assert seq.submit(EndOfEpoch(0, 0)).seq == 1  # the duplicate took no number


def test_sequence_numbers_are_gapless(world):
    seq = Sequencer(world.params)
    items = [seq.submit(world.cert(world.transfer("coin", "gas", "alice", "bob"))),
             seq.submit(make_ucert(world)),
             seq.submit(EndOfEpoch(2, 0))]
    assert [item.seq for item in items] == [0, 1, 2]


def test_invalid_items_rejected_before_ordering(world):
    seq = Sequencer(world.params)
    weak = world.cert(world.transfer("coin", "gas", "alice", "bob"), [0, 1])
    with pytest.raises(ProtocolError) as err:
        seq.submit(weak)
    assert err.value.code == ErrorCode.INVALID_ITEM
    with pytest.raises(ProtocolError):
        seq.submit(EndOfEpoch(99, 0))
    with pytest.raises(ProtocolError):
        seq.submit(object())
    assert seq.submit(EndOfEpoch(0, 0)).seq == 0  # no rejected item took one


def test_end_of_epoch_deduplicates_per_validator(world):
    seq = Sequencer(world.params)
    assert seq.submit(EndOfEpoch(1, 0)) is not None
    assert seq.submit(EndOfEpoch(1, 0)) is None
    assert seq.submit(EndOfEpoch(1, 1)) is not None
    assert seq.submit(EndOfEpoch(2, 0)) is not None
