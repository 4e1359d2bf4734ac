"""Client-side protocol drivers, the unlock message triple and the two
reply shapes.

Drivers are event-driven state machines: the surrounding harness feeds
them replies and timer ticks, and they send requests, assemble quorums,
and settle on an outcome. Each reports through the env it is handed:
`send(vids, msg)` to the validators it names, `submit_sequencer`,
`set_timer`, `emit`, and `finished` last. The fast path takes two
request/reply rounds (transaction votes, then certificate effects); the
unlock path takes a vote round followed by sequencer submission and a wait
for the sequenced execution's effect signatures. Each time a driver starts
an exchange it arms a retry tick for that exchange alone, with
`env.set_timer(driver, hops)`: `hops` counts the one-way trips until its
last reply is due, and the harness picks how long a hop may take. A request
(a transaction, an unlock request or a retry's resend) and a certificate
sent to validators are 2 hops; an `UnlockCert` submitted to the sequencer
is 3 (client -> sequencer -> validator -> client). A tick armed for an
earlier exchange is ignored.

Drivers send the protocol values themselves: a `Transaction`, its
`Certificate` or an `UnlockRqt`. Validators answer with the `CertSign` or
`UnlockVote` they produce, or in one of two reply shapes: a `Rejection` or
an `Outcome`. Every answer names its signer and its `subject`, the digest
of the transaction or unlock request it is about. Both drivers count
answers with one tally, `_Driver._tally`: a quorum of matching effect
signatures is finality, a quorum of `superseded` outcomes means that
consensus settled the keys first, and f+1 refusals of a sequenced unlock
certificate mean that no quorum will execute it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto
from .authenticators import Evidence
from .encoding import enc_bytes, enc_opt, enc_seq, enc_u64, tagged_digest
from .types import (
    Certificate,
    CommitteeParams,
    EffectCert,
    EffectSign,
    ErrorCode,
    ObjectKey,
    ProtocolError,
    Transaction,
    cached_property,
    quorum,
    quorum_signed,
    validator_key,
    validity_threshold,
    verified_once,
    verify_certificate,
)

MAX_RETRIES = 20


# --- unlock messages ----------------------------------------------------------

class _UnlockRqt(NamedTuple):
    object_keys: tuple[ObjectKey, ...]
    replacement_tx: Transaction | None
    gas: ObjectKey
    epoch: int
    requester: bytes
    evidence: Evidence | None = None
    certs: tuple[Certificate, ...] = ()


class UnlockRqt(_UnlockRqt):
    """Request to move the listed object versions off the fast path.

    With a replacement transaction this runs the multi-object protocol
    (the replacement executes if no prior certificate surfaces, or after
    those that surface when only bounded counters are listed). If none
    surfaces, a version-bumping no-op releases each listed key that is
    neither a bounded counter nor consumed by the replacement; each listed
    bounded counter is reissued by the consolidation that follows. It is
    superseded only when consensus settled every listed key first. A fresh
    gas object pays for the sequenced step, and `evidence` must prove its
    owner's consent: a delay-gated request proves only its gas, as
    `authorized: false` does. `certs` ride it: certificates over a listed
    bounded counter, which voters carry and the unlock executes. Each
    authenticates itself, so they enter `digest` only when present.
    """

    def signing_bytes(self) -> bytes:
        return (enc_seq(k.canonical_bytes() for k in self.object_keys)
                + enc_opt(self.replacement_tx.digest if self.replacement_tx else None)
                + self.gas.canonical_bytes()
                + enc_u64(self.epoch)
                + enc_bytes(self.requester))

    @cached_property
    def signing_digest(self) -> bytes:
        return tagged_digest("unlock-rqt-sign", self.signing_bytes())

    @cached_property
    def digest(self) -> bytes:
        extra = self.evidence.canonical_bytes() if self.evidence else b""
        repl = (self.replacement_tx.signing_bytes()
                if self.replacement_tx else b"")
        if self.certs:
            extra += enc_seq(c.tx.digest for c in self.certs)
        return tagged_digest("unlock-rqt",
                             self.signing_bytes() + enc_bytes(repl) + extra)

    hexdigest = cached_property(lambda self: self.digest.hex())
    key_ids = cached_property(
        lambda self: tuple(k.ids for k in self.object_keys))

    @cached_property
    def included_oids(self) -> frozenset[bytes]:
        """Ids of the objects it includes, for owner terms: listed keys, gas."""
        return frozenset(k.object_id for k in (*self.object_keys, self.gas))

    @property
    def multi(self) -> bool:
        return self.replacement_tx is not None


class _UnlockVote(NamedTuple):
    rqt_digest: bytes
    carried: tuple[Certificate, ...]
    signer: int
    signature: bytes


class UnlockVote(_UnlockVote):
    @staticmethod
    def _message(rqt_digest: bytes, carried) -> bytes:
        return (b"unlock-vote:" + rqt_digest
                + enc_seq(c.tx.digest for c in carried))

    @staticmethod
    def make(rqt_digest: bytes, carried, signer: int, scheme) -> "UnlockVote":
        carried = tuple(sorted(carried, key=lambda c: c.tx.digest))
        sig = scheme.sign(validator_key(signer),
                          UnlockVote._message(rqt_digest, carried))
        return UnlockVote(rqt_digest, carried, signer, sig)

    @property
    def subject(self) -> bytes:
        return self.rqt_digest

    @verified_once
    def verify(self, scheme) -> bool:
        return scheme.verify(validator_key(self.signer),
                             self._message(self.rqt_digest, self.carried),
                             self.signature)


class _UnlockCert(NamedTuple):
    rqt: UnlockRqt
    votes: tuple[UnlockVote, ...]


class UnlockCert(_UnlockCert):
    @cached_property
    def digest(self) -> bytes:
        body = self.rqt.digest + enc_seq(
            enc_u64(v.signer) + enc_bytes(v.signature) for v in self.votes)
        return tagged_digest("unlock-cert", body)

    def carried_union(self) -> tuple[Certificate, ...]:
        """The votes' certificates, one per transaction, in digest order."""
        return self._carried

    @cached_property
    def _carried(self) -> tuple[Certificate, ...]:
        by_digest = {}
        for vote in self.votes:
            for cert in vote.carried:
                by_digest.setdefault(cert.tx.digest, cert)
        return tuple(by_digest[d] for d in sorted(by_digest))

    @verified_once
    def verify(self, params: CommitteeParams, scheme=crypto.DEFAULT_SCHEME) -> bool:
        return quorum_signed(self.votes, params, lambda v: (
            v.rqt_digest == self.rqt.digest and v.verify(scheme))) and all(
            verify_certificate(c, params, scheme) for c in self.carried_union())


def assemble_unlock_cert(votes, rqt: UnlockRqt, params: CommitteeParams,
                         scheme=crypto.DEFAULT_SCHEME) -> UnlockCert:
    """Combine a quorum of votes over one request; certificate sets union.

    An empty union is the no-commit case: proof that no fast-path
    execution of the listed keys can ever finalize.
    """
    good = {}
    for vote in votes:
        if vote.rqt_digest != rqt.digest:
            raise ProtocolError(ErrorCode.MIXED_REQUESTS,
                                "votes span different unlock requests")
        if 0 <= vote.signer < params.n and vote.verify(scheme):
            good.setdefault(vote.signer, vote)
    if len(good) < quorum(params):
        raise ProtocolError(ErrorCode.INCOMPLETE,
                            f"{len(good)} votes < quorum {quorum(params)}")
    ordered = tuple(good[s] for s in sorted(good))
    return UnlockCert(rqt, ordered)


# --- replies -------------------------------------------------------------------

class Rejection(NamedTuple):
    """A validator refused the request, or the sequenced unlock certificate,
    about `subject`. A refusal never says that consensus settled a key: an
    `Outcome` does."""

    subject: bytes
    code: str
    signer: int


class Outcome(NamedTuple):
    """What a validator did with a certificate or a sequenced unlock
    certificate: `executed`, with its executions' effect signs in order;
    `deferred`; or `superseded`. `confirmed` holds the keys consensus
    settled first: all that superseded it, or those an executed unlock
    left out."""

    subject: bytes
    status: str  # executed | deferred | superseded
    signer: int
    signs: tuple[EffectSign, ...] = ()
    confirmed: tuple[ObjectKey, ...] = ()


# --- drivers ---------------------------------------------------------------------

def _emit_effect_cert(env, effects, **fields) -> None:
    """Trace a finalized effect certificate; each produced object carries a
    state fingerprint that final snapshots can be diffed against."""
    env.emit("effect_cert", effects=effects.hexdigest,
             produced=[(*ids, o.fingerprint) for ids, o
                       in zip(effects.produced_ids, effects.produced)],
             counters=effects.counter_ids, **fields)


class _Driver:
    """The tally and lifecycle both drivers share.

    Only replies about the driver's subject from committee members count.
    Votes and rejections count in the vote phase: a quorum of verified
    votes goes to `_certify`, and `_maybe_refuse` judges the rejections. In
    the `sequenced` phase (an unlock's) only `InvalidUnlockCert` rejections
    count, refusals of the sequenced certificate itself: f+1 of them leave
    fewer than a quorum that could execute it, and they end the driver as
    `invalid`. A quorum of `superseded` outcomes, and nothing else, ends
    the driver as superseded. An `executed` outcome counts when each of its
    signs is its sender's own and verifies; a quorum reporting the same
    effects in the same order, and the same `confirmed` keys, finishes the
    driver, the i-th `EffectCert` taking every member's i-th sign, and its
    keys alone become the driver's `confirmed`. Once `phase == "done"`, the
    driver holds its `status`, `effect_certs` and `confirmed` keys, its one
    trace record of the end is `<kind>_driver_finished` (a refused unlock's
    lists the refusal `codes`), and it has reported its end with
    `env.finished(self)`, its last report to the env. Its others are
    `env.send(vids, msg)`, one call per exchange to the validators it names,
    `env.submit_sequencer`, `env.set_timer` and `env.emit`.

    Each exchange the driver starts arms a retry tick for that exchange
    alone, with `env.set_timer(self, hops)`: 2 hops for `start`, for each
    retry and for a fast-path certificate, 3 for an unlock certificate's
    sequencer submission. The driver keeps the tick due as `due`; a tick
    that pops before then was armed for an earlier exchange and is ignored.
    A tick that is due resends `_resend`'s request to every validator that
    has not answered; `MAX_RETRIES` retries end in `timeout`."""

    kind = ""
    finalized = ""  # the status a quorum of matching executions ends in

    def __init__(self, subject: bytes, label: dict, params: CommitteeParams,
                 scheme):
        self.subject = subject
        self.label = label
        self.params = params
        self.scheme = scheme
        self.phase = "vote"
        self.votes: dict[int, object] = {}
        self.rejections: dict[int, str] = {}
        self.superseded: set[int] = set()
        self.invalid: set[int] = set()  # refused the sequenced certificate
        self.outcome_groups: dict[tuple, dict[int, Outcome]] = {}
        self.status = ""
        self.effect_certs: list[EffectCert] = []
        self.confirmed: set[ObjectKey] = set()
        self.round_trips = 0
        self.retries = 0
        self.due = 0  # the tick the current exchange's retry tick falls on

    def _tally(self, env, msg) -> None:
        if self.phase == "done" or msg.subject != self.subject \
                or not 0 <= msg.signer < self.params.n:
            return
        if isinstance(msg, Outcome):
            if msg.status == "superseded":
                self.superseded.add(msg.signer)
                self.confirmed.update(msg.confirmed)
                if len(self.superseded) >= quorum(self.params):
                    self._finish(env, "superseded")
            elif msg.status == "executed" and all(
                    s.signer == msg.signer and s.verify(self.scheme)
                    for s in msg.signs):
                self._count_execution(env, msg)
        elif self.phase == "sequenced":
            if isinstance(msg, Rejection) \
                    and msg.code == ErrorCode.INVALID_UNLOCK_CERT.value:
                self.invalid.add(msg.signer)
                if len(self.invalid) >= validity_threshold(self.params):
                    self._finish(env, "invalid", codes=[msg.code])
        elif self.phase != "vote":
            return
        elif isinstance(msg, Rejection):
            self.rejections.setdefault(msg.signer, msg.code)
            self._maybe_refuse(env)
        elif msg.verify(self.scheme):
            self.votes.setdefault(msg.signer, msg)
            if len(self.votes) >= quorum(self.params):
                self._certify(env)

    def _count_execution(self, env, msg: Outcome) -> None:
        group = self.outcome_groups.setdefault(
            (tuple(s.effects.digest for s in msg.signs), msg.confirmed), {})
        group.setdefault(msg.signer, msg)
        if len(group) >= quorum(self.params):
            rows = [group[vid].signs for vid in sorted(group)]
            self.effect_certs = [EffectCert(signs[0].effects, signs)
                                 for signs in zip(*rows)]
            self.confirmed = set(msg.confirmed)
            for cert in self.effect_certs:
                _emit_effect_cert(env, cert.effects, **self._cert_fields(cert))
            self._finish(env, self.finalized)

    def _finish(self, env, status: str, **fields) -> None:
        self.status = status
        self.phase = "done"
        env.emit(f"{self.kind}_driver_finished", **self.label, status=status,
                 rounds=self.round_trips, retries=self.retries, **fields)
        env.finished(self)

    def _retry(self, env) -> None:
        if self.phase == "done" or env.now < self.due:
            return  # finished, or armed for an exchange since replaced
        self.retries += 1
        if self.retries > MAX_RETRIES:
            self._finish(env, "timeout")
            return
        answered, request = self._resend()
        env.send([vid for vid in range(self.params.n) if vid not in answered],
                 request)
        self.due = env.set_timer(self, 2)


class FastPathDriver(_Driver):
    """Drives one transaction: collect votes, form the certificate,
    collect matching effect signatures."""

    kind = "fast"
    finalized = "finalized"

    def __init__(self, tx: Transaction, params: CommitteeParams,
                 scheme=crypto.DEFAULT_SCHEME, first_to=None, cert_to=None):
        super().__init__(tx.digest, {"tx": tx.hexdigest}, params, scheme)
        self.tx = tx
        self.first_to = first_to  # the first send's validators; retries reach everyone
        self.cert_to = cert_to  # submit the certificate here and walk away
        self.cert: Certificate | None = None

    def start(self, env) -> None:
        self.round_trips = 1
        env.send(range(self.params.n) if self.first_to is None
                 else self.first_to, self.tx)
        self.due = env.set_timer(self, 2)

    def on_message(self, env, msg) -> None:
        self._tally(env, msg)

    def _certify(self, env) -> None:
        self.cert = Certificate(self.tx,
                                tuple(self.votes[s] for s in sorted(self.votes)))
        self.phase = "exec"
        self.round_trips += 1
        env.emit("cert_assembled", tx=self.tx.hexdigest,
                 signers=sorted(self.votes))
        env.send(range(self.params.n) if self.cert_to is None
                 else self.cert_to, self.cert)
        if self.cert_to is None:
            self.due = env.set_timer(self, 2)
        else:
            self._finish(env, "certified_abandoned")

    def _maybe_refuse(self, env) -> None:
        # too many distinct rejectors for any quorum to remain reachable
        if len(self.rejections) > self.params.n - quorum(self.params):
            locked = ErrorCode.CONFLICTING_LOCK.value in self.rejections.values()
            self._finish(env, "locked" if locked else "rejected")

    def _cert_fields(self, cert: EffectCert) -> dict:
        return {"tx": self.tx.hexdigest, "tx_kind": self.tx.kind.value,
                "amount": self.tx.params.amount, "path": "fast"}

    def _resend(self):
        if self.phase == "vote":
            # re-poll voters too: their state may have moved to a terminal
            # answer (executed elsewhere, unlocked, confirmed) since
            return self.rejections, self.tx
        # validators that answered superseded are polled again too
        return set().union(*self.outcome_groups.values()), self.cert

    def on_timer(self, env) -> None:
        self._retry(env)


class FastUnlockDriver(_Driver):
    """Drives an unlock: gather votes, sequence the unlock certificate,
    and collect the sequenced execution's effect signatures."""

    kind = "unlock"
    finalized = "unlocked"

    def __init__(self, rqt: UnlockRqt, params: CommitteeParams,
                 scheme=crypto.DEFAULT_SCHEME, authorized: bool = True):
        super().__init__(rqt.digest, {"rqt": rqt.hexdigest}, params, scheme)
        self.rqt = rqt
        self.authorized = authorized
        self.ucert: UnlockCert | None = None

    def start(self, env) -> None:
        self.round_trips = 1
        env.emit("unlock_started", rqt=self.rqt.hexdigest,
                 authorized=self.authorized, keys=self.rqt.key_ids)
        env.send(range(self.params.n), self.rqt)
        self.due = env.set_timer(self, 2)

    def on_message(self, env, msg) -> None:
        self._tally(env, msg)

    def _certify(self, env) -> None:
        self.ucert = assemble_unlock_cert(
            self.votes.values(), self.rqt, self.params, self.scheme)
        self.phase = "sequenced"
        self.round_trips += 1
        env.emit("ucert_assembled", rqt=self.rqt.hexdigest,
                 carried=[c.tx.hexdigest for c in self.ucert.carried_union()],
                 authorized=self.authorized, keys=self.rqt.key_ids)
        env.submit_sequencer(self.ucert)
        self.due = env.set_timer(self, 3)

    def _maybe_refuse(self, env) -> None:
        """End a refused unlock once too many validators refuse for any
        quorum to vote: `wrong_epoch` when every refusal is for the epoch,
        `unauthorized` otherwise, listing the refusal `codes`. A refusal
        never supersedes an unlock; only its sequenced outcomes do."""
        if len(self.rejections) > self.params.n - quorum(self.params):
            codes = sorted(set(self.rejections.values()))
            self._finish(env, "wrong_epoch" if codes == [
                ErrorCode.WRONG_EPOCH.value] else "unauthorized", codes=codes)

    def _cert_fields(self, cert: EffectCert) -> dict:
        """Label the certificate with the transaction it executed: the
        replacement or a carried certificate's; a no-op or a consolidation
        is the unlock's own."""
        txs = [c.tx for c in self.ucert.carried_union()] if self.ucert else []
        txs.append(self.rqt.replacement_tx)
        tx = next((t for t in txs if t is not None
                   and t.digest == cert.effects.tx_digest), None)
        return {"tx": cert.effects.tx_digest.hex(),
                "tx_kind": tx.kind.value if tx else "unlock",
                "amount": tx.params.amount if tx else 0,
                "rqt": self.rqt.hexdigest, "path": "unlock"}

    def _resend(self):
        if self.phase == "vote":
            # voters may have settled the keys since; poll them again too
            answered = self.rejections
        else:
            answered = self.superseded.union(*self.outcome_groups.values())
        return answered, self.rqt

    def on_timer(self, env) -> None:
        self._retry(env)
