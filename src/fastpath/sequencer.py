"""Black-box total-order sequencer.

Stands in for the consensus engine: structurally valid items get exactly
one gapless sequence number (duplicates collapse by content digest), and
every observer reads the same prefix-ordered log. Byzantine behavior
inside the ordering layer is out of scope; the surrounding harness
controls only delivery timing.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto
from .client import UnlockCert
from .encoding import enc_u64, tagged_digest
from .types import (
    Certificate,
    CommitteeParams,
    ErrorCode,
    ProtocolError,
    verify_certificate,
)


class EndOfEpoch(NamedTuple):
    """A validator's marker that it has nothing left to sequence in `epoch`."""

    validator: int
    epoch: int


# the trace's name for each item type
ITEM_KINDS = {UnlockCert: "unlock_cert", Certificate: "checkpoint",
              EndOfEpoch: "end_of_epoch"}


class SequencedItem(NamedTuple):
    seq: int
    payload: UnlockCert | Certificate | EndOfEpoch
    payload_digest: bytes


def item_digest(payload) -> bytes:
    if isinstance(payload, UnlockCert):
        return tagged_digest("seq-unlock", payload.digest)
    if isinstance(payload, Certificate):
        return tagged_digest("seq-checkpoint", payload.tx.digest)
    return tagged_digest("seq-eoe", enc_u64(payload.validator)
                         + enc_u64(payload.epoch))


class Sequencer:
    def __init__(self, params: CommitteeParams, scheme=crypto.DEFAULT_SCHEME):
        self.params = params
        self.scheme = scheme
        self._seen: set[bytes] = set()

    def submit(self, payload) -> SequencedItem | None:
        """Order an item; returns None if the same content was already
        sequenced. Structurally invalid items are rejected before ordering."""
        self._validate(payload)
        digest = item_digest(payload)
        if digest in self._seen:
            return None
        item = SequencedItem(len(self._seen), payload, digest)
        self._seen.add(digest)
        return item

    def _validate(self, payload) -> None:
        if isinstance(payload, UnlockCert):
            if not payload.verify(self.params, self.scheme):
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad unlock cert")
        elif isinstance(payload, Certificate):
            if not verify_certificate(payload, self.params, self.scheme):
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad certificate")
        elif isinstance(payload, EndOfEpoch):
            if not (0 <= payload.validator < self.params.n) or payload.epoch < 0:
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad end-of-epoch")
        else:
            raise ProtocolError(ErrorCode.INVALID_ITEM,
                                f"unknown item {type(payload).__name__}")
