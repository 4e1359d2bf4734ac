"""Core value types: objects, transactions, certificates, and quorum math.

Everything here is an immutable value with a canonical byte encoding, so
digests agree across validators and across runs. Object state is named by
an (object id, version) pair; a version is consumed exactly once and every
successful mutation produces version + 1.

Every value type is a named tuple: hashing, equality and field access run
in C, and a class costs little to create at import. A type whose
constructor validates subclasses its named tuple and checks in `__new__`;
its `_make`, which `_replace` calls, goes through the constructor, so a
copy is checked too.

Because the values never change, pure work on them is done once per
instance: encodings, digests and their hex (`hexdigest`) are lock-free
`cached_property`s, `Transaction.validate` stores a success (never a
failure), `verified_once` checks remember their verdict per (committee,
scheme), `Evidence.signer_set` remembers its signer set per (message,
scheme), `authenticators.reveal_root` remembers each reveal's Merkle root,
`client.UnlockCert.carried_union` its sorted union of carried certificates,
and `validator.execute` its plan per input content. What traces record of
a value is memoized too, as values every event shares: `ObjectKey.ids` and
its `"oid:v"` `label`, an `EffectSummary`'s `consumed_ids`, `produced_ids`
and `counter_ids`, and `UnlockRqt.key_ids`. A type that memoizes subclasses
its named tuple without `__slots__`, so each instance keeps a `__dict__`
for the memo: `ObjectKey`, `Object`, `Transaction`, `CertSign`,
`Certificate`, `EffectSummary`, `Evidence`, `Revealed` and the three
unlock messages. A copy with any field changed is a new instance with an
empty memo. Every actor of a simulation shares the same instances, so a
certificate is verified, a transaction executed, and a key's hex taken,
once per run, not once per validator.
"""

from __future__ import annotations

import enum
from functools import wraps
from typing import NamedTuple

from . import crypto
from .authenticators import Evidence
from .encoding import (
    digest,
    enc_bytes,
    enc_i64,
    enc_opt,
    enc_seq,
    enc_str,
    enc_u64,
    tagged_digest,
)

ValidatorId = int
GAS_FEE = 1


class ErrorCode(str, enum.Enum):
    CONFLICTING_LOCK = "ConflictingLock"
    MISSING_OBJECT = "MissingObject"
    STALE_VERSION = "StaleVersion"
    BAD_EVIDENCE = "BadEvidence"
    OBJECT_UNLOCKED = "ObjectUnlocked"
    WRONG_EPOCH = "WrongEpoch"
    INVALID_CERTIFICATE = "InvalidCertificate"
    BAD_GAS = "BadGas"
    INVALID_UNLOCK_CERT = "InvalidUnlockCert"
    INSUFFICIENT_BALANCE = "InsufficientBalance"
    INSUFFICIENT_GAS = "InsufficientGas"
    BUDGET_EXHAUSTED = "Rejected"
    BAD_TRANSACTION = "BadTransaction"
    MALFORMED_COMMITTEE = "MalformedCommittee"
    INVALID_ITEM = "InvalidItem"
    PAUSED = "Paused"
    INCOMPLETE = "Incomplete"
    MIXED_REQUESTS = "MixedRequests"


class ProtocolError(Exception):
    def __init__(self, code: ErrorCode, detail: str = ""):
        super().__init__(f"{code.value}: {detail}" if detail else code.value)
        self.code = code


# --- committee ---------------------------------------------------------------

class _CommitteeParams(NamedTuple):
    n: int
    f: int


class CommitteeParams(_CommitteeParams):
    __slots__ = ()

    def __new__(cls, n: int, f: int):
        if f < 0 or n < 3 * f + 1:
            raise ProtocolError(ErrorCode.MALFORMED_COMMITTEE,
                                f"n={n} f={f} violates n >= 3f+1")
        return super().__new__(cls, n, f)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # so `_replace` checks too


def quorum(params: CommitteeParams) -> int:
    """Smallest vote count whose every pair overlaps in f+1 members.

    This is n - f, which meets the protocol's "at least 2f+1" requirement
    and equals exactly 2f+1 for the tight committees (n = 3f+1) used
    throughout; for looser committees 2f+1 alone would not guarantee the
    f+1 honest overlap that safety rests on.
    """
    return params.n - params.f


def validity_threshold(params: CommitteeParams) -> int:
    """Vote count guaranteeing at least one honest member: f+1."""
    return params.f + 1


def quorum_signed(signs, params: CommitteeParams, valid) -> bool:
    """True when `signs` come from a quorum of distinct committee members
    and each passes `valid`. A repeated or out-of-range signer fails the
    whole set before `valid` runs on it."""
    seen: set[ValidatorId] = set()
    for sign in signs:
        if (sign.signer in seen or not 0 <= sign.signer < params.n
                or not valid(sign)):
            return False
        seen.add(sign.signer)
    return len(seen) >= quorum(params)


def validator_key(index: ValidatorId) -> bytes:
    return crypto.validator_public_key(index)


class cached_property:
    """`functools.cached_property` without the class-wide lock that Python
    3.11's takes on every first access: the value goes in `__dict__`."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def verified_once(check):
    """Decorate a pure check of an immutable value so that it runs once per
    value and argument tuple (committee, scheme).

    The verdict is stored on the instance, so it lives exactly as long as
    the value it describes; a copy with any field changed is a new instance
    and is checked afresh.
    """
    @wraps(check)
    def verify(value, *args) -> bool:
        verdicts = value.__dict__.setdefault("_verdicts", {})
        verdict = verdicts.get(args)
        if verdict is None:
            verdict = verdicts[args] = check(value, *args)
        return verdict
    return verify


# --- objects -------------------------------------------------------------------

class ObjectKind(str, enum.Enum):
    READ_ONLY = "read_only"
    OWNED = "owned"
    SHARED = "shared"
    COMMUTATIVE = "commutative"


class _ObjectKey(NamedTuple):
    object_id: bytes
    version: int


class ObjectKey(_ObjectKey):
    """An object version. A named tuple, so hashing and equality run in C;
    the hash equals `hash((object_id, version))`."""

    # the key as traces record it, and as snapshots name it
    ids = cached_property(lambda self: (self.object_id.hex(), self.version))
    label = cached_property(lambda self: "%s:%d" % self.ids)

    def canonical_bytes(self) -> bytes:
        return enc_bytes(self.object_id) + enc_u64(self.version)

    def bump(self) -> "ObjectKey":
        return ObjectKey(self.object_id, self.version + 1)

    def __repr__(self):
        return f"ObjectKey({self.object_id[:4].hex()}..,v{self.version})"


class IntValue(NamedTuple):
    amount: int

    def canonical_bytes(self) -> bytes:
        return b"\x01" + enc_i64(self.amount)


class CounterValue(NamedTuple):
    """Contents of a commutative object.

    `flavor` selects the replication discipline (grow, uset, pnset, or
    bounded); `limit` is the spendable credit of a bounded counter at the
    current consolidation version and zero for the other flavors.
    """

    flavor: str
    limit: int = 0

    def canonical_bytes(self) -> bytes:
        return b"\x03" + enc_str(self.flavor) + enc_u64(self.limit)


Contents = IntValue | CounterValue


class _Object(NamedTuple):
    key: ObjectKey
    kind: ObjectKind
    owner: bytes | None
    contents: Contents


class Object(_Object):
    def __new__(cls, key: ObjectKey, kind: ObjectKind, owner: bytes | None,
                contents: Contents):
        needs_owner = kind in (ObjectKind.OWNED, ObjectKind.COMMUTATIVE)
        if (owner is not None) != needs_owner:
            raise ValueError(f"{kind.value} object owner mismatch")
        return super().__new__(cls, key, kind, owner, contents)

    def canonical_bytes(self) -> bytes:
        return self._encoded

    @cached_property
    def fingerprint(self) -> str:
        """What traces record of the object: a digest of its encoding."""
        return digest(self._encoded)[:16].hex()

    @cached_property
    def _encoded(self) -> bytes:
        return (self.key.canonical_bytes() + enc_str(self.kind.value)
                + enc_opt(self.owner) + self.contents.canonical_bytes())


# --- transactions ----------------------------------------------------------------

class TxKind(str, enum.Enum):
    TRANSFER = "transfer"
    SWAP = "swap"
    NOOP = "noop"
    MINT = "mint"
    CREDIT = "credit"
    DEBIT = "debit"


class TxParams(NamedTuple):
    amount: int = 0
    new_owner: bytes | None = None
    new_object_id: bytes | None = None
    item: bytes | None = None
    memo: bytes = b""

    def canonical_bytes(self) -> bytes:
        return (enc_i64(self.amount) + enc_opt(self.new_owner)
                + enc_opt(self.new_object_id) + enc_opt(self.item)
                + enc_bytes(self.memo))


class _Transaction(NamedTuple):
    inputs: tuple[ObjectKey, ...]
    shared_inputs: tuple[bytes, ...]
    kind: TxKind
    params: TxParams
    gas: ObjectKey
    epoch: int
    evidence: Evidence | None = None


class Transaction(_Transaction):
    def signing_bytes(self) -> bytes:
        # evidence is part of the signature layer, never of the identity
        return (enc_seq(k.canonical_bytes() for k in self.inputs)
                + enc_seq(enc_bytes(oid) for oid in self.shared_inputs)
                + enc_str(self.kind.value)
                + self.params.canonical_bytes()
                + self.gas.canonical_bytes()
                + enc_u64(self.epoch))

    @cached_property
    def digest(self) -> bytes:
        return tagged_digest("tx", self.signing_bytes())

    hexdigest = cached_property(lambda self: self.digest.hex())

    @cached_property
    def included_oids(self) -> frozenset[bytes]:
        """Ids of the objects it includes, for owner terms: inputs, shared inputs."""
        return frozenset(k.object_id for k in self.inputs).union(self.shared_inputs)

    def validate(self) -> None:
        """Raise `BAD_TRANSACTION` for bad inputs; only a success is stored."""
        if "_valid" in self.__dict__:
            return
        if len(set(self.inputs)) != len(self.inputs):
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "duplicate inputs")
        if len(set(self.shared_inputs)) != len(self.shared_inputs):
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "duplicate shared inputs")
        if self.gas not in self.inputs:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "gas must be an input")
        self.__dict__["_valid"] = True

    def with_evidence(self, evidence: Evidence) -> "Transaction":
        tx = self._replace(evidence=evidence)
        tx.__dict__["digest"] = self.digest  # evidence is not in the digest
        return tx


# --- certificates -----------------------------------------------------------------

class _CertSign(NamedTuple):
    tx_digest: bytes
    signer: ValidatorId
    signature: bytes


class CertSign(_CertSign):
    @staticmethod
    def make(tx: Transaction, signer: ValidatorId, scheme) -> "CertSign":
        sig = scheme.sign(validator_key(signer), b"cert:" + tx.digest)
        return CertSign(tx.digest, signer, sig)

    @property
    def subject(self) -> bytes:
        return self.tx_digest

    @verified_once
    def verify(self, scheme) -> bool:
        return scheme.verify(validator_key(self.signer),
                             b"cert:" + self.tx_digest, self.signature)


class _Certificate(NamedTuple):
    tx: Transaction
    signs: tuple[CertSign, ...]


class Certificate(_Certificate):
    """A transaction with a quorum of its `CertSign`s."""


@verified_once
def verify_certificate(cert: Certificate, params: CommitteeParams,
                       scheme=crypto.DEFAULT_SCHEME) -> bool:
    """Quorum of distinct committee members, each signature over the tx digest."""
    return quorum_signed(cert.signs, params, lambda s: (
        s.tx_digest == cert.tx.digest and s.verify(scheme)))


# --- execution effects ---------------------------------------------------------------

class CounterDelta(NamedTuple):
    object_id: bytes
    flavor: str
    delta: int
    item: bytes | None = None

    def canonical_bytes(self) -> bytes:
        return (enc_bytes(self.object_id) + enc_str(self.flavor)
                + enc_i64(self.delta) + enc_opt(self.item))


class _EffectSummary(NamedTuple):
    tx_digest: bytes
    consumed: tuple[ObjectKey, ...]
    produced: tuple[Object, ...]
    counter_deltas: tuple[CounterDelta, ...] = ()


class EffectSummary(_EffectSummary):
    @cached_property
    def digest(self) -> bytes:
        body = (self.tx_digest
                + enc_seq(k.canonical_bytes() for k in self.consumed)
                + enc_seq(o.canonical_bytes() for o in self.produced)
                + enc_seq(d.canonical_bytes() for d in self.counter_deltas))
        return tagged_digest("effects", body)

    hexdigest = cached_property(lambda self: self.digest.hex())
    # what traces record of the effects, shared by every event that writes it
    consumed_ids = cached_property(
        lambda self: tuple(k.ids for k in self.consumed))
    produced_ids = cached_property(
        lambda self: tuple(o.key.ids for o in self.produced))
    counter_ids = cached_property(lambda self: tuple(
        (d.object_id.hex(), d.delta) for d in self.counter_deltas))


class EffectSign(NamedTuple):
    effects: EffectSummary
    signer: ValidatorId
    signature: bytes

    @staticmethod
    def make(effects: EffectSummary, signer: ValidatorId, scheme) -> "EffectSign":
        sig = scheme.sign(validator_key(signer), b"effects:" + effects.digest)
        return EffectSign(effects, signer, sig)

    def verify(self, scheme) -> bool:
        return scheme.verify(validator_key(self.signer),
                             b"effects:" + self.effects.digest, self.signature)


class EffectCert(NamedTuple):
    effects: EffectSummary
    signs: tuple[EffectSign, ...]


def verify_effect_cert(cert: EffectCert, params: CommitteeParams,
                       scheme=crypto.DEFAULT_SCHEME) -> bool:
    """Quorum of distinct signers, all over bit-identical effects."""
    return quorum_signed(cert.signs, params, lambda s: (
        s.effects.digest == cert.effects.digest and s.verify(scheme)))
