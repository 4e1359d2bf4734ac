"""Black-box total-order sequencer.

Stands in for the consensus engine: structurally valid items get exactly
one gapless sequence number (duplicates collapse by content digest), and
every observer reads the same prefix-ordered log. Byzantine behavior
inside the ordering layer is out of scope; the surrounding harness
controls only delivery timing.
"""

from __future__ import annotations

from dataclasses import dataclass

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

KIND_UNLOCK = "unlock_cert"
KIND_CHECKPOINT = "checkpoint"
KIND_END_OF_EPOCH = "end_of_epoch"


@dataclass(frozen=True)
class SequencedItem:
    seq: int
    kind: str
    payload: object  # UnlockCert | Certificate | (validator id, epoch)
    payload_digest: bytes


def item_digest(kind: str, payload) -> bytes:
    if kind == KIND_UNLOCK:
        return tagged_digest("seq-unlock", payload.digest)
    if kind == KIND_CHECKPOINT:
        return tagged_digest("seq-checkpoint", payload.tx.digest)
    vid, epoch = payload
    return tagged_digest("seq-eoe", enc_u64(vid) + enc_u64(epoch))


class Sequencer:
    def __init__(self, params: CommitteeParams, scheme=crypto.DEFAULT_SCHEME):
        self.params = params
        self.scheme = scheme
        self.log: list[SequencedItem] = []
        self._seen: set[bytes] = set()

    def submit(self, kind: str, payload) -> SequencedItem | None:
        """Order an item; returns None if the same content was already
        sequenced. Structurally invalid items are rejected before ordering."""
        self._validate(kind, payload)
        digest = item_digest(kind, payload)
        if digest in self._seen:
            return None
        self._seen.add(digest)
        item = SequencedItem(len(self.log), kind, payload, digest)
        self.log.append(item)
        return item

    def _validate(self, kind: str, payload) -> None:
        if kind == KIND_UNLOCK:
            if not isinstance(payload, UnlockCert) or not payload.verify(
                    self.params, self.scheme):
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad unlock cert")
        elif kind == KIND_CHECKPOINT:
            if not isinstance(payload, Certificate) or not verify_certificate(
                    payload, self.params, self.scheme):
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad certificate")
        elif kind == KIND_END_OF_EPOCH:
            vid, epoch = payload
            if not (0 <= vid < self.params.n) or epoch < 0:
                raise ProtocolError(ErrorCode.INVALID_ITEM, "bad end-of-epoch")
        else:
            raise ProtocolError(ErrorCode.INVALID_ITEM, f"unknown kind {kind}")
