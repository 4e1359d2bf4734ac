"""Per-validator state machine.

A validator answers three client-facing requests (sign a transaction,
execute a certificate, vote on an unlock) and three sequenced inputs
(unlock certificates, checkpointed certificates, end-of-epoch markers).
State lives in per-key tables: the object store (full version history per
object id), the lock table mapping each object version to the transaction
or certificate holding it and the local time it was first locked (its age
gates unauthenticated unlocks), and the unlock table recording whether a
version is reserved for the consensus path ("unlocked") or settled by a
sequenced execution ("confirmed"). Unlock entries only move forward:
none -> unlocked -> confirmed, or none -> confirmed.

Fast-path executions are provisional until sequenced: the pre-image of
each consumed key is retained so that a no-commit unlock can undo exactly
one layer before re-executing on the consensus path. A sequenced unlock
runs in one pass (`process_unlock_cert`): its no-op releases the listed
keys that are not bounded counters, and its consolidation alone reissues
each listed bounded counter. Keys that consensus settled first (the other
side of a swap won) are left out, and the outcome names them; only when
all are settled is the unlock superseded. A replacement runs before the
no-op, which releases every listed key the replacement did not consume.

One rule (`_admit`) admits a transaction to be signed and an unlock's
replacement alike: inputs of the right kind, owners' consent, a free mint id.
One check (`_consents`) judges each owner's consent, there and for an unlock's
keys and gas alike, over the objects the request includes (`included_oids`).

Execution is pure, so each plan is memoized on the message all validators
share, keyed by the content of its inputs: a transaction's dry run, fast-path
and sequenced execution on the `Transaction`; an unlock's no-op, counter
consolidation and gas payment on the `UnlockRqt`. Sharers get one
`EffectSummary`, digested once, and produced objects each encoded once. The
key is content because validators can differ on what a version holds (after
an undo, or when Byzantine) and on a counter's reissued limit.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto
from .authenticators import AuthContext, PathError, RevealError, no_events, \
    verify_reveal
from .client import Outcome, UnlockCert, UnlockRqt, UnlockVote
from .counters import (
    FLAVOR_BOUNDED,
    FLAVOR_GROW,
    FLAVOR_PNSET,
    FLAVOR_USET,
    CounterLocal,
    initial_budget,
)
from .encoding import tagged_digest
from .sequencer import EndOfEpoch
from .types import (
    GAS_FEE,
    CertSign,
    Certificate,
    CommitteeParams,
    CounterDelta,
    CounterValue,
    EffectSign,
    EffectSummary,
    ErrorCode,
    IntValue,
    Object,
    ObjectKey,
    ObjectKind,
    ProtocolError,
    Transaction,
    TxKind,
    quorum,
    verify_certificate,
)

UNLOCKED = "unlocked"
CONFIRMED = "confirmed"


def _nothing(kind: str, **fields) -> None:
    return None


class LockEntry(NamedTuple):
    holder: bytes  # tx digest, or unlock request digest for unlock gas
    since: int  # local clock when the key was first locked this epoch
    cert: Certificate | None = None


# --- pure execution -------------------------------------------------------------

def execute(tx: Transaction, loaded: dict[ObjectKey, Object],
            shared: tuple[Object, ...] = ()) -> EffectSummary:
    """Deterministic execution of the toy instruction set.

    `loaded` maps every key in tx.inputs to its object; `shared` holds the
    consensus-resolved shared objects, in tx.shared_inputs order. Owned and
    shared inputs are consumed (reappearing at version + 1); commutative
    inputs only contribute deltas; read-only inputs are untouched. The gas
    input always pays the flat fee.

    The plan, an `EffectSummary`, is memoized on the transaction instance,
    keyed by the canonical encoding (key, kind, owner and contents) of every
    input and shared object, and shared by every caller, on any
    validator, that executes this instance over the same content. The key
    is content, not `ObjectKey`, so a re-execution after an undo sees the
    objects it is given. A failure is not stored: its `ProtocolError` is
    raised again on every call.
    """
    return _memoized(tx, [loaded[k] for k in tx.inputs] + list(shared), (),
                     _execute, tx, loaded, shared)


def _memoized(subject, objects, extra, build, *args):
    """`build(*args)`, stored on `subject` by `build`, `extra` and the
    encoding of `objects`, all that it reads; an error is not stored."""
    key = (build, extra, *[o._encoded for o in objects])
    plans = subject.__dict__.setdefault("_plans", {})
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build(*args)
    return plan


def _execute(tx: Transaction, loaded: dict[ObjectKey, Object],
             shared: tuple[Object, ...]) -> EffectSummary:
    gas_obj = loaded[tx.gas]
    if gas_obj.kind != ObjectKind.OWNED or not isinstance(gas_obj.contents, IntValue):
        raise ProtocolError(ErrorCode.BAD_TRANSACTION, "gas must be an owned balance")
    if gas_obj.contents.amount < GAS_FEE:
        raise ProtocolError(ErrorCode.INSUFFICIENT_GAS,
                            f"gas balance {gas_obj.contents.amount} < fee {GAS_FEE}")

    working = [loaded[k] for k in tx.inputs
               if k != tx.gas and loaded[k].kind == ObjectKind.OWNED]
    commutative = [loaded[k] for k in tx.inputs
                   if loaded[k].kind == ObjectKind.COMMUTATIVE]
    if len(commutative) > 1:
        raise ProtocolError(ErrorCode.BAD_TRANSACTION,
                            "at most one commutative input per transaction")

    produced: list[Object] = []
    deltas: list[CounterDelta] = []
    kind, params = tx.kind, tx.params

    if kind == TxKind.TRANSFER:
        if params.new_owner is None or not working:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "transfer needs a recipient")
        for obj in working:
            produced.append(Object(obj.key.bump(), obj.kind, params.new_owner,
                                   obj.contents))
    elif kind == TxKind.SWAP:
        if len(working) != 2:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "swap takes two objects")
        a, b = working
        produced.append(Object(a.key.bump(), a.kind, b.owner, a.contents))
        produced.append(Object(b.key.bump(), b.kind, a.owner, b.contents))
    elif kind == TxKind.NOOP:
        for obj in working:
            produced.append(Object(obj.key.bump(), obj.kind, obj.owner, obj.contents))
    elif kind == TxKind.MINT:
        if params.new_object_id is None:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "mint needs an object id")
        minted_owner = params.new_owner if params.new_owner else gas_obj.owner
        produced.append(Object(ObjectKey(params.new_object_id, 0), ObjectKind.OWNED,
                               minted_owner, IntValue(params.amount)))
    elif kind in (TxKind.CREDIT, TxKind.DEBIT):
        signed = params.amount if kind == TxKind.CREDIT else -params.amount
        if params.amount < 0:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "negative amount")
        if commutative:
            target = commutative[0]
            flavor = target.contents.flavor
            if kind == TxKind.DEBIT and flavor in (FLAVOR_GROW, FLAVOR_USET):
                raise ProtocolError(ErrorCode.BAD_TRANSACTION,
                                    f"{flavor} objects are credit-only")
            if flavor in (FLAVOR_USET, FLAVOR_PNSET) and params.item is None:
                raise ProtocolError(ErrorCode.BAD_TRANSACTION, "set ops need an item")
            deltas.append(CounterDelta(target.key.object_id, flavor, signed,
                                       params.item))
        else:
            if len(working) != 1 or not isinstance(working[0].contents, IntValue):
                raise ProtocolError(ErrorCode.BAD_TRANSACTION,
                                    "credit/debit needs one balance target")
            target = working[0]
            balance = target.contents.amount + signed
            if balance < 0:
                raise ProtocolError(ErrorCode.INSUFFICIENT_BALANCE,
                                    f"{target.contents.amount} - {params.amount} < 0")
            if balance >= 2**63:  # a balance is an i64
                raise ProtocolError(ErrorCode.BAD_TRANSACTION,
                                    f"balance {balance} overflows")
            produced.append(Object(target.key.bump(), target.kind, target.owner,
                                   IntValue(balance)))

    for obj in shared:
        produced.append(Object(obj.key.bump(), obj.kind, obj.owner, obj.contents))
    produced.append(Object(gas_obj.key.bump(), gas_obj.kind, gas_obj.owner,
                           IntValue(gas_obj.contents.amount - GAS_FEE)))

    consumed = tuple(k for k in tx.inputs
                     if loaded[k].kind == ObjectKind.OWNED)
    consumed += tuple(obj.key for obj in shared)
    return EffectSummary(tx.digest, consumed, tuple(produced), tuple(deltas))


def _reissued(tag: str, rqt: UnlockRqt, inputs: list[Object],
              limits: list[int | None]) -> EffectSummary:
    """The effects of the unlock step `tag`: each input at its next version,
    unchanged, or a bounded counter reissued holding its limit."""
    produced = tuple(Object(o.key.bump(), o.kind, o.owner, o.contents if limit is None
                            else CounterValue(FLAVOR_BOUNDED, limit))
                     for o, limit in zip(inputs, limits))
    return EffectSummary(tagged_digest(tag, rqt.digest),
                         tuple(o.key for o in inputs), produced)


def _gas_paid(gas: Object) -> Object:
    return Object(gas.key.bump(), gas.kind, gas.owner,
                  IntValue(gas.contents.amount - GAS_FEE))


# --- validator state --------------------------------------------------------------

class ValidatorState:
    def __init__(self, vid: int, params: CommitteeParams, *,
                 scheme=crypto.DEFAULT_SCHEME, auto_unlock_delay: int = 100,
                 event_oracle=None, sink=None):
        self.vid = vid
        self.params = params
        self.scheme = scheme
        self.auto_unlock_delay = auto_unlock_delay
        self.event_oracle = event_oracle or no_events
        # emit(kind, **fields) records one trace event; it is `sink` itself
        self.emit = sink or _nothing

        self.epoch = 0
        self.clock = 0
        self.objects: dict[bytes, dict[int, Object]] = {}
        self.latest: dict[bytes, int] = {}
        self.lock_db: dict[ObjectKey, LockEntry] = {}
        self.unlock_db: dict[ObjectKey, str] = {}
        self.executed: dict[bytes, EffectSign] = {}
        self.counters: dict[bytes, CounterLocal] = {}
        self.pending_checkpoint: dict[bytes, Certificate] = {}
        self.forwarded: set[bytes] = set()
        self.sequenced_certs: set[bytes] = set()
        self.executed_unsequenced: set[bytes] = set()
        self.fast_records: dict[bytes, EffectSummary] = {}  # undoable fast layer
        self.key_fast_tx: dict[ObjectKey, bytes] = {}
        self.unlock_outcomes: dict[bytes, Outcome] = {}
        self.paused = False
        self.eoe_sent = False
        self.eoe_seen: set[int] = set()

    # -- plumbing --

    def seed(self, objects) -> None:
        """Install the genesis objects (one version per id) and counters."""
        for obj in objects:
            oid, version = obj.key
            self.objects[oid] = {version: obj}
            self.latest[oid] = version
            if obj.kind == ObjectKind.COMMUTATIVE:
                flavor, limit = obj.contents
                budget = (initial_budget(limit, self.params)
                          if flavor == FLAVOR_BOUNDED else 0)
                self.counters[oid] = CounterLocal(flavor, limit, budget,
                                                  version)

    def _put_object(self, obj: Object) -> None:
        oid = obj.key.object_id
        versions = self.objects.setdefault(oid, {})
        versions[obj.key.version] = obj
        if obj.key.version > self.latest.get(oid, -1):
            self.latest[oid] = obj.key.version

    def get_object(self, key: ObjectKey) -> Object | None:
        return self.objects.get(key.object_id, {}).get(key.version)

    def _check_key(self, key: ObjectKey) -> Object:
        oid = key.object_id
        if oid not in self.latest or key.version > self.latest[oid]:
            raise ProtocolError(ErrorCode.MISSING_OBJECT, repr(key))
        if key.version < self.latest[oid]:
            raise ProtocolError(ErrorCode.STALE_VERSION,
                                f"{key!r} behind v{self.latest[oid]}")
        return self.objects[oid][key.version]

    def _consents(self, evidence, message: bytes, oids, objects) -> bool:
        """Whether `evidence` proves that the owner of each of `objects`
        consents to `message`, judged by its signers, the request's
        `included_oids` (`oids`) and this validator's clock. No object needs
        no proof; a missing or ownerless object never consents."""
        if evidence is None:
            return not objects
        ctx = AuthContext(signers=evidence.signer_set(message, self.scheme),
                          included_oids=oids, local_time=self.clock,
                          event_oracle=self.event_oracle)
        try:
            return all(
                obj is not None and obj.owner is not None
                and (pair := evidence.for_object(obj.key.object_id)) is not None
                and verify_reveal(obj.owner, *pair, ctx)
                for obj in objects)
        except (PathError, RevealError):
            return False

    def _set_unlock(self, key: ObjectKey, state: str) -> None:
        prev = self.unlock_db.get(key)
        if prev == state:
            return
        if prev == CONFIRMED:
            return  # confirmed entries never move backwards
        self.unlock_db[key] = state
        self.emit("unlock_db_set", key=key.ids, prev=prev or "none",
                  state=state)

    def _confirm(self, key: ObjectKey) -> None:
        self._set_unlock(key, CONFIRMED)
        # a sequenced outcome settled this key: the fast layer is no longer undoable
        tx_digest = self.key_fast_tx.get(key)
        if tx_digest is not None:
            plan = self.fast_records.pop(tx_digest, None)
            if plan:
                for k in plan.consumed:
                    self.key_fast_tx.pop(k, None)

    # -- transaction signing (fast-path step one) --

    def process_tx(self, tx: Transaction) -> CertSign:
        if self.paused:
            raise ProtocolError(ErrorCode.PAUSED, "epoch change in progress")
        if tx.epoch != self.epoch:
            raise ProtocolError(ErrorCode.WRONG_EPOCH,
                                f"tx epoch {tx.epoch} != {self.epoch}")
        tx.validate()
        if tx.digest in self.executed:
            return CertSign.make(tx, self.vid, self.scheme)

        loaded, owned, commutative = self._admit(tx, self._signable)
        for key in tx.inputs:
            if self.unlock_db.get(key) == UNLOCKED:
                raise ProtocolError(ErrorCode.OBJECT_UNLOCKED, repr(key))
        execute(tx, loaded)  # dry run: reject unexecutable transactions up front

        self._check_locks(tx, owned)

        if tx.kind == TxKind.DEBIT and commutative:
            local = self.counters[commutative[0].object_id]
            # a debit asked again, say by a resend, draws nothing more
            if self._budgeted(local) and tx.digest not in local.drawn:
                if not local.try_debit(tx.digest, tx.params.amount):
                    self.emit("budget_reject", counter=commutative[0].object_id.hex(),
                              amount=tx.params.amount, budget=local.budget)
                    raise ProtocolError(ErrorCode.BUDGET_EXHAUSTED,
                                        f"budget {local.budget} < {tx.params.amount}")
                self.emit("budget_debit", counter=commutative[0].object_id.hex(),
                          amount=tx.params.amount, budget=local.budget)

        for key in owned:
            if key not in self.lock_db:
                self.lock_db[key] = LockEntry(tx.digest, self.clock)
                self.emit("lock_set", key=key.ids, tx=tx.hexdigest)
        return CertSign.make(tx, self.vid, self.scheme)

    def _admit(self, tx: Transaction, load):
        """The one admission rule, over the inputs `load(key)` gives: no
        shared object among `inputs`, each `shared_inputs` id a shared
        object held here, consent from the owner of every owned input and
        of a debited commutative one, and a mint's id not held here.
        Returns the loaded inputs and the owned and commutative keys."""
        loaded: dict[ObjectKey, Object] = {}
        owned, commutative = [], []
        for key in tx.inputs:
            obj = loaded[key] = load(key)
            if obj.kind == ObjectKind.OWNED:
                owned.append(key)
            elif obj.kind == ObjectKind.COMMUTATIVE:
                commutative.append(key)
            elif obj.kind == ObjectKind.SHARED:
                raise ProtocolError(ErrorCode.BAD_TRANSACTION,
                                    "shared objects go in shared_inputs")
        for oid in tx.shared_inputs:
            if oid not in self.latest:
                raise ProtocolError(ErrorCode.MISSING_OBJECT, oid.hex())
            if self.objects[oid][self.latest[oid]].kind != ObjectKind.SHARED:
                raise ProtocolError(ErrorCode.BAD_TRANSACTION, "not shared")

        debited = commutative if tx.kind == TxKind.DEBIT else []
        if not self._consents(tx.evidence, tx.digest, tx.included_oids,
                              [loaded[k] for k in owned + debited]):
            raise ProtocolError(ErrorCode.BAD_EVIDENCE, "no owner consent")
        if tx.kind == TxKind.MINT and tx.params.new_object_id in self.latest:
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "minted id exists")
        return loaded, owned, commutative

    def _signable(self, key: ObjectKey) -> Object:
        """The input object a transaction may be signed over: the latest."""
        return self._check_key(key)

    def _check_locks(self, tx: Transaction, owned: list[ObjectKey]) -> None:
        """Refuse to sign over an owned key another transaction holds."""
        for key in owned:
            entry = self.lock_db.get(key)
            if entry is not None and entry.holder != tx.digest:
                raise ProtocolError(ErrorCode.CONFLICTING_LOCK, repr(key))

    def _budgeted(self, local: CounterLocal) -> bool:
        """Whether a debit of this counter draws on the local budget."""
        return local.flavor == FLAVOR_BOUNDED

    def _bounded(self, oid: bytes) -> CounterLocal | None:
        """The local state of the bounded counter `oid`, or None when `oid`
        is not a bounded counter."""
        local = self.counters.get(oid)
        if local is not None and local.flavor == FLAVOR_BOUNDED:
            return local
        return None

    # -- certificate execution (fast-path step two) --

    def process_cert(self, cert: Certificate) -> Outcome:
        """Execute a certificate on the fast path once: `superseded` if an
        input is settled (`_settled`), deferred if one is unlocked or shared."""
        if cert.tx.epoch != self.epoch or not verify_certificate(
                cert, self.params, self.scheme):
            raise ProtocolError(ErrorCode.INVALID_CERTIFICATE, "bad quorum or epoch")
        tx = cert.tx
        if tx.digest not in self.forwarded:
            self.forwarded.add(tx.digest)
            self.pending_checkpoint[tx.digest] = cert
            self.emit("cert_forwarded", tx=tx.hexdigest)

        if tx.digest in self.executed:
            return Outcome(tx.digest, "executed", self.vid,
                           (self.executed[tx.digest],))

        # make the certificate retrievable by unlock votes
        loaded: dict[ObjectKey, Object] = {}
        for key in tx.inputs:
            obj = self.get_object(key)
            if obj is None and key.object_id not in self.latest:
                raise ProtocolError(ErrorCode.MISSING_OBJECT, repr(key))
            loaded[key] = obj
        for key in tx.inputs:
            obj = loaded[key]
            if obj is not None and obj.kind == ObjectKind.OWNED:
                entry = self.lock_db.get(key)
                if entry is None or entry.cert is None:
                    since = entry.since if entry else self.clock
                    self.lock_db[key] = LockEntry(tx.digest, since, cert)
            if obj is not None and obj.kind == ObjectKind.COMMUTATIVE:
                self.counters[key.object_id].note_seen(cert)

        if self._settled(tx):
            return Outcome(tx.digest, "superseded", self.vid)
        if any(self.unlock_db.get(k) == UNLOCKED for k in tx.inputs):
            self.emit("cert_deferred", tx=tx.hexdigest, reason="unlocked")
            return Outcome(tx.digest, "deferred", self.vid)
        if tx.shared_inputs:
            self.emit("cert_deferred", tx=tx.hexdigest, reason="shared")
            return Outcome(tx.digest, "deferred", self.vid)

        strict = {k: self._check_key(k) for k in tx.inputs}
        plan = execute(tx, strict)
        self._apply_plan(tx.digest, plan)
        self.fast_records[tx.digest] = plan
        for key in plan.consumed:
            self.key_fast_tx[key] = tx.digest
        sign = EffectSign.make(plan, self.vid, self.scheme)
        self.executed[tx.digest] = sign
        if tx.digest not in self.sequenced_certs:
            self.executed_unsequenced.add(tx.digest)
        self.emit("fast_exec", tx=tx.hexdigest, effects=plan.hexdigest,
                  consumed=plan.consumed_ids, produced=plan.produced_ids)
        return Outcome(tx.digest, "executed", self.vid, (sign,))

    def _apply_plan(self, tx_digest: bytes, plan: EffectSummary) -> None:
        """Store the plan's produced objects and apply its counter deltas;
        the fast and the sequenced path both write through here."""
        for obj in plan.produced:
            self._put_object(obj)
        for delta in plan.counter_deltas:
            local = self.counters[delta.object_id]
            released = local.apply(tx_digest, delta)
            if released is not None:
                self.emit("budget_credit", counter=delta.object_id.hex(),
                          amount=released, budget=local.budget)

    # -- unlock votes (consensus-path entry) --

    def check_auto_unlock(self, rqt: UnlockRqt, now: int, delta: int) -> bool:
        """Unauthenticated requests are honored only after every listed key
        has been locked for at least `delta` ticks; authenticated requests
        pass immediately."""
        if self._consents(rqt.evidence, rqt.signing_digest, rqt.included_oids,
                          [self.get_object(k) for k in rqt.object_keys]):
            return True
        entries = [self.lock_db.get(k) for k in rqt.object_keys]
        return all(e is not None and now - e.since >= delta for e in entries)

    def process_unlock_rqt(self, rqt: UnlockRqt) -> UnlockVote:
        """Vote on an unlock request, over settled keys too: `_set_unlock`
        leaves them settled, and only the sequenced step decides whether
        they supersede it (`process_unlock_cert`). Each of its riders
        (`certs`) must be a valid certificate of this epoch spending a
        listed bounded counter. The vote carries them, but no other unlock
        does: a rider runs only if its own unlock does, so its requester
        knows whether it ran. Its replacement passes `_admit` over the
        version of each input named, or else the latest held, before the
        vote. The vote itself leaves no trace record."""
        if rqt.epoch != self.epoch:
            raise ProtocolError(ErrorCode.WRONG_EPOCH, "unlock epoch mismatch")
        if not rqt.object_keys or len(set(rqt.object_keys)) != len(rqt.object_keys):
            raise ProtocolError(ErrorCode.BAD_TRANSACTION, "bad unlock key list")
        for key in rqt.object_keys:
            oid = key.object_id
            if oid not in self.latest or key.version > self.latest[oid]:
                raise ProtocolError(ErrorCode.MISSING_OBJECT, repr(key))
        if not self.check_auto_unlock(rqt, self.clock, self.auto_unlock_delay):
            raise ProtocolError(ErrorCode.BAD_EVIDENCE, "unlock not authorized")
        if rqt.replacement_tx is not None:
            rqt.replacement_tx.validate()
            self._admit(rqt.replacement_tx, self._held)
        for cert in rqt.certs:
            if cert.tx.epoch != self.epoch or not verify_certificate(
                    cert, self.params, self.scheme):
                raise ProtocolError(ErrorCode.INVALID_CERTIFICATE, "bad rider")
            if not any(self._bounded(k.object_id) for k in cert.tx.inputs
                       if k in rqt.object_keys):
                raise ProtocolError(ErrorCode.BAD_TRANSACTION, "rider off list")
        self._lock_unlock_gas(rqt)

        carried = self._carried(rqt)
        carried.update((cert.tx.digest, cert) for cert in rqt.certs)
        # single protocol reserves the keys unconditionally; the multi
        # protocol only when nothing was certified. Bounded counters are
        # always reserved so no further fast-path spend can finalize
        # between this vote and the consolidation.
        reserve_all = (not rqt.multi) or not carried
        for key in rqt.object_keys:
            if reserve_all or self._bounded(key.object_id) is not None:
                self._set_unlock(key, UNLOCKED)

        return UnlockVote.make(rqt.digest, carried.values(), self.vid,
                               self.scheme)

    def _carried(self, rqt: UnlockRqt) -> dict[bytes, Certificate]:
        """The certificates a vote carries, by tx digest: those locking a
        listed key, and each unsettled spend of a listed bounded counter."""
        carried: dict[bytes, Certificate] = {}
        for key in rqt.object_keys:
            entry = self.lock_db.get(key)
            if entry is not None and entry.cert is not None:
                carried.setdefault(entry.cert.tx.digest, entry.cert)
            local = self._bounded(key.object_id)
            if local is not None:
                for cert in local.unsettled():
                    carried.setdefault(cert.tx.digest, cert)
        return carried

    def _held(self, key: ObjectKey) -> Object:
        """The version of `key` named, or else the latest held."""
        return self.get_object(key) or self._check_key(
            ObjectKey(key.object_id, self.latest.get(key.object_id, -1)))

    def _lock_unlock_gas(self, rqt: UnlockRqt) -> None:
        key = rqt.gas
        if self.latest.get(key.object_id) != key.version:
            raise ProtocolError(ErrorCode.BAD_GAS, "gas not current")
        obj = self.get_object(key)
        if obj.kind != ObjectKind.OWNED or not isinstance(obj.contents, IntValue) \
                or obj.contents.amount < GAS_FEE:
            raise ProtocolError(ErrorCode.BAD_GAS, "gas unusable")
        if not self._consents(rqt.evidence, rqt.signing_digest,
                              rqt.included_oids, [obj]):
            raise ProtocolError(ErrorCode.BAD_GAS, "no gas owner consent")
        entry = self.lock_db.setdefault(key, LockEntry(rqt.digest, self.clock))
        if entry.holder != rqt.digest:
            raise ProtocolError(ErrorCode.BAD_GAS, "gas already locked")

    # -- sequenced unlock certificates --

    def process_unlock_cert(self, ucert: UnlockCert) -> Outcome:
        """Execute a sequenced unlock certificate once; the outcome is stored
        as the reply sent to the requester, and to anyone asking again. It is
        `superseded` exactly when consensus settled every listed key.
        Otherwise it acts on the unsettled keys, and its `executed` outcome
        names the settled ones in `confirmed`; a carried certificate with a
        settled input (`_settled`) can no longer run, so it counts as not
        carried, and one that runs confirms the keys it consumed. One pass:
        with nothing carried, take back the fast layer of the keys; run the
        carried certificates; run the replacement if nothing is carried, or if
        only bounded counters are listed (it commutes with what they carried);
        with nothing carried, release by the no-op every key the replacement
        did not consume (a failed one consumed none); consolidate the listed
        bounded counters; with nothing carried, confirm the keys."""
        rqt = ucert.rqt
        if rqt.digest in self.unlock_outcomes:
            return self.unlock_outcomes[rqt.digest]
        if rqt.epoch != self.epoch or not ucert.verify(self.params, self.scheme):
            raise ProtocolError(ErrorCode.INVALID_UNLOCK_CERT, "bad unlock cert")

        self._consume_unlock_gas(rqt)

        settled = tuple(k for k in rqt.object_keys
                        if self.unlock_db.get(k) == CONFIRMED)
        if len(settled) == len(rqt.object_keys):
            out = Outcome(rqt.digest, "superseded", self.vid,
                          confirmed=settled)
            self.unlock_outcomes[rqt.digest] = out
            self.emit("unlock_ignored", rqt=rqt.hexdigest)
            return out

        keys = [k for k in rqt.object_keys if k not in settled]
        # two certificates that share an owned key cannot both be certified
        carried = [cert for cert in ucert.carried_union()
                   if not self._settled(cert.tx)]
        if not carried:
            # no-commit case: nothing over these keys can ever finalize on
            # the fast path, so discard the provisional layer and replace it
            for key in keys:
                self._undo_fast(key)
        signs = [self._execute_confirmed(cert.tx, via="unlock")
                 for cert in carried]
        replaced = None
        if rqt.multi and (not carried or all(
                self._bounded(k.object_id) is not None for k in rqt.object_keys)):
            replaced = self._execute_sequenced(
                rqt.replacement_tx, via="unlock", uncertified=True)
            signs.append(replaced)
        if not carried:
            spent = replaced.effects.consumed if replaced else ()
            signs.append(self._execute_noop(
                rqt, [k for k in keys if k not in spent]))
        signs.append(self._consolidate_listed(rqt, keys))
        if not carried:
            for key in keys:
                self._confirm(key)
        # with certificates carried, listed keys their executions did not
        # touch stay unlocked: a later no-commit unlock can still release them
        signs = tuple(s for s in signs if s is not None)
        branch = "carried" if carried else "replacement" if rqt.multi else "noop"

        out = Outcome(rqt.digest, "executed", self.vid, signs, settled)
        self.unlock_outcomes[rqt.digest] = out
        self.emit("unlock_exec", rqt=rqt.hexdigest, branch=branch,
                  effects=[s.effects.hexdigest for s in signs],
                  produced=[ids for s in signs
                            for ids in s.effects.produced_ids])
        return out

    def _settled(self, tx: Transaction) -> bool:
        """Whether consensus settled an input of `tx`, so it cannot run: an
        execution consumed it, or a consolidation reissued its counter."""
        return any(self.unlock_db.get(k) == CONFIRMED for k in tx.inputs)

    def _consume_unlock_gas(self, rqt: UnlockRqt) -> None:
        key = rqt.gas
        oid = key.object_id
        if self.latest.get(oid) != key.version:
            return  # already paid (or never existed here); versions never rewind
        obj = self.objects[oid][key.version]
        if not isinstance(obj.contents, IntValue) or obj.contents.amount < GAS_FEE:
            return
        self._put_object(_memoized(rqt, [obj], (), _gas_paid, obj))
        self.emit("gas_consumed", rqt=rqt.hexdigest, key=key.ids)

    def _undo_fast(self, key: ObjectKey) -> None:
        """Take back the fast-path execution that consumed `key`. A debit or
        credit consumes only its gas, so for a bounded counter also take
        back every one whose deltas touch it: the no-commit quorum reserved
        the counter, so none of them can finalize."""
        doomed = [self.key_fast_tx.pop(key, None)]
        if self._bounded(key.object_id) is not None:
            doomed += [d for d, plan in self.fast_records.items()
                       if any(c.object_id == key.object_id
                              for c in plan.counter_deltas)]
        for tx_digest in doomed:
            plan = self.fast_records.pop(tx_digest, None)
            if plan is None:
                continue
            for k in plan.consumed:
                self.key_fast_tx.pop(k, None)
            for k in (o.key for o in plan.produced):
                versions = self.objects.get(k.object_id, {})
                versions.pop(k.version, None)
                if versions:
                    self.latest[k.object_id] = max(versions)
                else:
                    self.objects.pop(k.object_id, None)
                    self.latest.pop(k.object_id, None)
            for delta in plan.counter_deltas:
                self.counters[delta.object_id].unapply(tx_digest, delta)
            self.executed.pop(tx_digest, None)
            self.executed_unsequenced.discard(tx_digest)
            self.emit("undo", tx=tx_digest.hex(), keys=plan.consumed_ids)

    def _execute_noop(self, rqt: UnlockRqt, keys) -> EffectSign | None:
        """Version-bumping no-op over `keys`, the listed keys that neither
        consensus nor the replacement settled, except bounded counters,
        contents untouched; None when there are none. The consolidation
        reissues the counters; the trace records the no-op as its
        `seq_exec` (via `noop`)."""
        inputs = [self._check_key(k) for k in keys
                  if self._bounded(k.object_id) is None]
        if not inputs:
            return None
        effects = _memoized(rqt, inputs, ("unlock-noop",), _reissued,
                            "unlock-noop", rqt, inputs, [None] * len(inputs))
        for obj in effects.produced:
            self._put_object(obj)
        self._emit_seq_exec(effects, via="noop")
        return EffectSign.make(effects, self.vid, self.scheme)

    def _consolidate_listed(self, rqt: UnlockRqt, keys) -> EffectSign | None:
        """Reissue each bounded counter in `keys` at the next version holding
        what is still unspent; its budget and bookkeeping restart from that."""
        inputs, limits = [], []
        for key in keys:
            local = self._bounded(key.object_id)
            if local is not None:
                inputs.append(self.get_object(key))
                limits.append(local.reissue(self.params))
        if not inputs:
            return None
        effects = _memoized(rqt, inputs, ("consolidate", tuple(limits)),
                            _reissued, "consolidate", rqt, inputs, limits)
        for key, fresh in zip(effects.consumed, effects.produced):
            local = self.counters[key.object_id]
            self.emit("consolidate", counter=key.object_id.hex(),
                      limit=local.limit, budget=local.budget,
                      version=local.version)
            self._put_object(fresh)
            self._confirm(key)
        self._emit_seq_exec(effects, via="consolidate")
        return EffectSign.make(effects, self.vid, self.scheme)

    def _settle_delta(self, tx_digest: bytes, deltas) -> None:
        for delta in deltas:
            local = self.counters.get(delta.object_id)
            if local is not None:
                local.settle(tx_digest, delta)

    def _emit_seq_exec(self, effects: EffectSummary, via: str) -> None:
        self.emit("seq_exec", tx=effects.tx_digest.hex(),
                  effects=effects.hexdigest, via=via,
                  consumed=effects.consumed_ids, counters=effects.counter_ids)

    def _execute_sequenced(self, tx: Transaction, via: str,
                           uncertified: bool = False) -> EffectSign | None:
        """Execute on the consensus path; idempotent over the tx digest: an
        already executed transaction is settled and acknowledged (`<via>_ack`)
        with the signature it has. An `uncertified` transaction (an unlock's
        replacement), which no budget bounded, fails if it would overdraw a
        bounded counter; a certificate's debits are bounded by its quorum's
        budgets, and may be sequenced before the credit that funded them."""
        if tx.digest in self.executed:
            sign = self.executed[tx.digest]
            self._settle_delta(tx.digest, sign.effects.counter_deltas)
            self._emit_seq_exec(sign.effects, via=f"{via}_ack")
            return sign
        try:
            loaded = {k: self._check_key(k) for k in tx.inputs}
            shared = tuple(self.objects[oid][self.latest[oid]]
                           for oid in tx.shared_inputs)
            plan = execute(tx, loaded, shared)
            if uncertified and not all(self.counters[d.object_id].covers(d)
                                       for d in plan.counter_deltas):
                raise ProtocolError(ErrorCode.INSUFFICIENT_BALANCE,
                                    "debit exceeds the counter's value")
        except ProtocolError as err:
            self.emit("sequenced_exec_failed", tx=tx.hexdigest,
                      via=via, code=err.code.value)
            return None
        self._apply_plan(tx.digest, plan)
        self._settle_delta(tx.digest, plan.counter_deltas)
        sign = EffectSign.make(plan, self.vid, self.scheme)
        self.executed[tx.digest] = sign
        self.sequenced_certs.add(tx.digest)
        self._emit_seq_exec(plan, via=via)
        return sign

    def _execute_confirmed(self, tx: Transaction, via: str) -> EffectSign | None:
        """Execute a certificate on the consensus path and confirm the keys
        it consumed; a failed execution confirms none."""
        sign = self._execute_sequenced(tx, via)
        for key in sign.effects.consumed if sign else ():
            self._confirm(key)
        return sign

    # -- sequenced checkpoint certificates --

    def process_checkpoint_cert(self, cert: Certificate) -> None:
        """Run a sequenced certificate (`_execute_confirmed`), unless it is of an
        earlier epoch, or unexecuted here with a settled input (`_settled`)."""
        tx = cert.tx
        self.sequenced_certs.add(tx.digest)
        self.executed_unsequenced.discard(tx.digest)
        self.pending_checkpoint.pop(tx.digest, None)
        if tx.epoch != self.epoch:
            self.emit("checkpoint_skip", tx=tx.hexdigest, reason="stale_epoch")
            return

        if tx.digest not in self.executed and self._settled(tx):
            self.emit("checkpoint_skip", tx=tx.hexdigest, reason="confirmed")
            return

        self._execute_confirmed(tx, via="checkpoint")

    # -- epoch change --

    def begin_epoch_change(self) -> list[Certificate]:
        """Pause signing and surface every certificate still needing a
        checkpoint slot."""
        self.paused = True
        self.emit("epoch_pause", epoch=self.epoch)
        return list(self.pending_checkpoint.values())

    def end_of_epoch_ready(self) -> bool:
        return self.paused and not self.executed_unsequenced and not self.eoe_sent

    def make_end_of_epoch(self) -> EndOfEpoch:
        self.eoe_sent = True
        self.emit("end_of_epoch_sent", epoch=self.epoch)
        return EndOfEpoch(self.vid, self.epoch)

    def note_end_of_epoch(self, sender: int, epoch: int) -> None:
        """Count `sender`'s end-of-epoch marker; a quorum of markers for the
        current epoch completes the epoch change."""
        if epoch != self.epoch:
            return
        self.eoe_seen.add(sender)
        if self.paused and len(self.eoe_seen) >= quorum(self.params):
            self._advance_epoch()

    def _advance_epoch(self) -> None:
        self.epoch += 1
        self.lock_db.clear()
        self.unlock_db = {k: v for k, v in self.unlock_db.items() if v == CONFIRMED}
        self.pending_checkpoint.clear()
        self.executed_unsequenced.clear()
        self.fast_records.clear()
        self.key_fast_tx.clear()
        self.paused = False
        self.eoe_sent = False
        self.eoe_seen = set()
        self.emit("epoch_advanced", epoch=self.epoch)

    # -- snapshots --

    def snapshot(self) -> dict:
        objects, latest = {}, {}
        for oid in sorted(self.objects):
            versions, top = self.objects[oid], self.latest[oid]
            hex_oid = versions[top].key.ids[0]
            latest[hex_oid] = top
            objects[hex_oid] = {
                str(v): versions[v].fingerprint for v in sorted(versions)}
        return {
            "validator": self.vid,
            "epoch": self.epoch,
            "objects": objects,
            "latest": latest,
            "unlock_db": {k.label: v for k, v in sorted(self.unlock_db.items())},
            "locks": {k.label: e.holder.hex()
                      for k, e in sorted(self.lock_db.items())},
            "executed": sorted(d.hex() for d in self.executed),
            "counters": {oid.hex(): self.counters[oid].snapshot()
                         for oid in sorted(self.counters)},
        }
